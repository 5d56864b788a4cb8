//! Set-up and the timed closed loop over a workload's pool.

use std::time::Instant;

use wsvd_batched::autotune::PlanCache;
use wsvd_core::{wcycle_svd, WCycleConfig, WCycleOutput};
use wsvd_gpu_sim::{Gpu, KernelError, V100};
use wsvd_metrics::MetricsSink;
use wsvd_serve::{serve_trace, BatchPolicy, ServeConfig, ServeOutcome};

use crate::check;
use crate::cpu::{process_cpu_s, steal_s};
use crate::layers::Layers;
use crate::spans::Spans;
use crate::workload::{call_seed, Inputs, Workload};

/// Error messages kept per run; the failure count is exact regardless.
const MAX_ERRORS: usize = 20;

/// The result of one entry-point call.
enum Output {
    /// `wcycle_svd` factors and statistics.
    Offline(WCycleOutput),
    /// `serve_trace` latency records.
    Serve(ServeOutcome),
}

/// Runs pool call `k` on `gpu`: one `wcycle_svd` over the batch, or one
/// `serve_trace` of the trace under `BatchPolicy::low_latency()`.
fn call(gpu: &Gpu, inputs: &Inputs, k: usize, slo_us: f64) -> Result<Output, KernelError> {
    match inputs {
        Inputs::Offline(batches) => {
            wcycle_svd(gpu, &batches[k], &WCycleConfig::default()).map(Output::Offline)
        }
        Inputs::Serve(traces) => {
            let cfg = ServeConfig {
                policy: BatchPolicy::low_latency(),
                slo_e2e_us: slo_us,
                fused: true,
            };
            serve_trace(gpu, &traces[k], &cfg, &MetricsSink::disabled()).map(Output::Serve)
        }
    }
}

/// Span name of the entry-point call of a workload.
fn entry_span(inputs: &Inputs) -> &'static str {
    match inputs {
        Inputs::Offline(_) => "core.wcycle_svd",
        Inputs::Serve(_) => "serve.serve_trace",
    }
}

/// Inputs plus the host time of each set-up repetition.
pub struct Setup {
    /// The pool built by the last repetition (all repetitions are equal).
    pub inputs: Inputs,
    /// Host CPU seconds of each whole set-up: generation plus warm-up call.
    pub cpu_s: Vec<f64>,
    /// Host wall seconds of each whole set-up.
    pub wall_s: Vec<f64>,
    /// Host CPU seconds of the input generation part of each set-up.
    pub gen_cpu_s: Vec<f64>,
}

/// Set-ups repeat until they have taken this many wall seconds (or
/// [`SETUP_MAX_REPS`] repetitions), so a cheap set-up is sampled often
/// enough for a steady median.
const SETUP_MIN_WALL_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 50;

/// Sets the workload up at least `min_reps` times: generate the pool from
/// the seed, then make a warm-up call on its first entry (which fills
/// `PlanCache` for it). Only the first repetition sees a cold plan cache.
pub fn setup(workload: Workload, seed: u64, min_reps: usize, spans: &mut Spans) -> Setup {
    let gen_span = match workload {
        Workload::ServeOverload => "serve.traffic.build",
        _ => "linalg.generate",
    };
    let mut out = Setup {
        inputs: Inputs::Offline(Vec::new()),
        cpu_s: Vec::new(),
        wall_s: Vec::new(),
        gen_cpu_s: Vec::new(),
    };
    while out.cpu_s.len() < min_reps.max(1)
        || (out.wall_s.iter().sum::<f64>() < SETUP_MIN_WALL_S && out.cpu_s.len() < SETUP_MAX_REPS)
    {
        let iter = out.cpu_s.len() as u64;
        let (t, c) = (Instant::now(), process_cpu_s());
        out.inputs = spans.span(iter, "bench.setup", |spans| {
            let pool = spans.span(iter, gen_span, |_| workload.generate(seed));
            out.gen_cpu_s.push(process_cpu_s() - c);
            let gpu = Gpu::new(V100);
            // A warm-up failure shows again, counted, in the timed pass.
            let _ = spans.span(iter, "bench.warmup", |_| {
                call(&gpu, &pool, 0, workload.slo_us())
            });
            pool
        });
        out.cpu_s.push(process_cpu_s() - c);
        out.wall_s.push(t.elapsed().as_secs_f64());
    }
    out
}

/// Host time and size of one timed call.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// Host wall seconds inside the entry-point call.
    pub wall_s: f64,
    /// Host CPU seconds (all threads) inside the entry-point call.
    pub cpu_s: f64,
    /// Matrices (or requests) the call handled.
    pub items: usize,
}

/// Everything taken from the first pass over the pool: a pure function of
/// the seed, apart from the host times.
#[derive(Default)]
pub struct FirstPass {
    /// Host CPU seconds inside the entry-point calls.
    pub cpu_s: f64,
    /// Host CPU seconds spent checking outputs.
    pub check_cpu_s: f64,
    /// Matrices (or requests) completed.
    pub items: usize,
    /// Simulated seconds the device was busy.
    pub busy_s: f64,
    /// Simulated seconds from first arrival to last completion, summed over
    /// calls (equal to `busy_s` for the closed-loop offline callers).
    pub makespan_s: f64,
    /// Items completed within the workload's latency limit.
    pub good: usize,
    /// Simulated end-to-end latencies in µs: one per call for the offline
    /// callers (the caller waits for the whole batch), one per request for
    /// serving.
    pub e2e_us: Vec<f64>,
    /// Per-layer counts.
    pub layers: Layers,
}

/// The result of one timed phase.
#[derive(Default)]
pub struct Measurement {
    /// Every timed call, in order.
    pub calls: Vec<Call>,
    /// The deterministic first pass.
    pub first: FirstPass,
    /// Items attempted over all calls.
    pub attempted: usize,
    /// Items failed: call errors, rejected requests, failed output checks.
    pub failed: usize,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Wall seconds of the whole phase, checks included.
    pub wall_s: f64,
    /// Seconds the hypervisor stole from the machine's CPUs during the
    /// phase, summed over CPUs.
    pub steal_s: f64,
}

impl Measurement {
    fn fail(&mut self, items: usize, msg: String) {
        self.failed += items;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }
}

/// How long a timed phase runs: until at least one full pass over the pool,
/// `seconds` of wall time inside the calls and `min_calls` calls are done.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Wall seconds inside the entry-point calls.
    pub seconds: f64,
    /// Fewest calls.
    pub min_calls: usize,
}

/// Replays the pool cyclically, one fresh `Gpu` per call, for `budget`.
/// Outputs are checked after each call, outside its timed region;
/// iteration ids start at `first_iter`.
pub fn measure(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    budget: Budget,
    spans: &mut Spans,
    first_iter: u64,
) -> Measurement {
    let n = inputs.len();
    let slo_us = workload.slo_us();
    let entry = entry_span(inputs);
    let mut m = Measurement::default();
    let mut fingerprints: Vec<Option<u64>> = vec![None; n];
    let (hits0, misses0) = PlanCache::global().stats();
    let (phase, steal0) = (Instant::now(), steal_s());
    let mut timed = 0.0;
    let mut k = 0usize;
    while k < n || timed < budget.seconds || k < budget.min_calls {
        let idx = k % n;
        let first = k < n;
        let items = inputs.items(idx);
        let gpu = Gpu::new(V100);
        let iter = first_iter + k as u64;
        spans.span(iter, "bench.iteration", |spans| {
            let (t, c) = (Instant::now(), process_cpu_s());
            let out = spans.span(iter, entry, |_| call(&gpu, inputs, idx, slo_us));
            let cpu_s = process_cpu_s() - c;
            let wall_s = t.elapsed().as_secs_f64();
            timed += wall_s;
            m.calls.push(Call {
                wall_s,
                cpu_s,
                items,
            });
            m.attempted += items;
            let c = process_cpu_s();
            spans.span(iter, "bench.check", |_| match out {
                Err(e) => m.fail(items, format!("call {idx}: {e:?}")),
                Ok(out) if first => {
                    m.first.cpu_s += cpu_s;
                    fingerprints[idx] =
                        Some(first_pass(&mut m, &gpu, inputs, idx, &out, seed, slo_us));
                }
                Ok(out) => {
                    let fp = match &out {
                        Output::Offline(o) => check::fingerprint_offline(o),
                        Output::Serve(o) => check::fingerprint_serve(o),
                    };
                    if fingerprints[idx] != Some(fp) {
                        m.fail(
                            items,
                            format!("call {idx}: output differs from its first pass"),
                        );
                    }
                }
            });
            if first {
                m.first.check_cpu_s += process_cpu_s() - c;
            }
        });
        k += 1;
        if k == n {
            let (hits, misses) = PlanCache::global().stats();
            m.first
                .layers
                .set_plan_cache(hits - hits0, misses - misses0);
        }
    }
    m.wall_s = phase.elapsed().as_secs_f64();
    m.steal_s = steal_s() - steal0;
    m
}

/// Checks a first-pass output in full and accumulates its simulated
/// metrics and layer counts. Returns its fingerprint.
fn first_pass(
    m: &mut Measurement,
    gpu: &Gpu,
    inputs: &Inputs,
    idx: usize,
    out: &Output,
    seed: u64,
    slo_us: f64,
) -> u64 {
    m.first.layers.add_gpu(gpu);
    match (inputs, out) {
        (Inputs::Offline(batches), Output::Offline(o)) => {
            let batch = &batches[idx];
            for (j, (a, f)) in batch.iter().zip(&o.results).enumerate() {
                if let Err(e) = check::check_factorization(a, f) {
                    m.fail(1, format!("call {idx} matrix {j}: {e}"));
                }
            }
            if o.results.len() != batch.len() {
                m.fail(
                    batch.len(),
                    format!("call {idx}: {} results", o.results.len()),
                );
            }
            // One seeded matrix per call is also checked against the
            // reference SVD.
            let j = (call_seed(seed ^ 0x00C0_FFEE, idx) % batch.len() as u64) as usize;
            if let Some(f) = o.results.get(j) {
                if let Err(e) = check::check_reference(&batch[j], f) {
                    m.fail(1, format!("call {idx} matrix {j}: {e}"));
                }
            }
            let sim_s = gpu.elapsed_seconds();
            m.first.items += batch.len();
            m.first.busy_s += sim_s;
            m.first.makespan_s += sim_s;
            m.first.e2e_us.push(sim_s * 1.0e6);
            if sim_s * 1.0e6 <= slo_us {
                m.first.good += batch.len();
            }
            m.first.layers.add_wcycle(o);
            check::fingerprint_offline(o)
        }
        (Inputs::Serve(traces), Output::Serve(o)) => {
            let trace = &traces[idx];
            let (failed, errors) = check::check_serve(trace, o);
            if failed > 0 {
                m.fail(failed, format!("trace {idx}: {}", errors.join("; ")));
            }
            m.first.items += o.records.len();
            m.first.busy_s += o.busy_us * 1.0e-6;
            m.first.makespan_s += o.makespan_us * 1.0e-6;
            m.first
                .e2e_us
                .extend(o.records.iter().map(|r| r.end_to_end_us));
            m.first.good += o
                .records
                .iter()
                .filter(|r| r.end_to_end_us <= slo_us)
                .count();
            m.first.layers.add_serve(o, trace.requests.len());
            check::fingerprint_serve(o)
        }
        _ => unreachable!("call() returns the output kind of its inputs"),
    }
}
