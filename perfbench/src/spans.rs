//! Host spans recorded around every call the benchmark makes into a layer.
//!
//! Spans are kept in memory and written out once, at the end of a traced
//! run. Every span of one workload iteration (one set-up, or one timed call
//! with its checks) shares that iteration's id. Spans inside the library —
//! the self time of `jacobi` versus `batched` inside `wcycle_svd` — need
//! instrumentation in the program itself and are not recorded here.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
struct Span {
    /// Index of this span in the recorder.
    id: usize,
    /// The enclosing span, if any.
    parent: Option<usize>,
    /// Workload iteration the span belongs to.
    iteration: u64,
    /// Layer boundary crossed, e.g. `core.wcycle_svd`.
    name: &'static str,
    /// Start, in host nanoseconds since the recorder was created.
    start_ns: u64,
    /// End, in host nanoseconds since the recorder was created.
    end_ns: u64,
}

/// An in-memory span recorder. A disabled recorder records nothing and
/// costs one branch per span.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder, enabled or not.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        iteration: u64,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            iteration,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (k, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "  {{\"id\": {}, \"parent\": {parent}, \"iteration\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}",
                sp.id,
                sp.iteration,
                sp.name,
                sp.start_ns,
                sp.end_ns,
                if k + 1 < self.spans.len() { "," } else { "" }
            );
        }
        s.push(']');
        s
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}
