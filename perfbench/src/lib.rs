//! Benchmark of the W-cycle SVD library and its serving layer.
//!
//! Drives the public entry points from outside — `wsvd_core::wcycle_svd`
//! and `wsvd_serve::serve_trace`, each call on a fresh `Gpu::new(V100)` —
//! over seeded workloads, checks every output, and reports metrics on both
//! of the system's clocks: the host clock a library caller waits on (the
//! kernels run on the CPU through the simulator) and the simulated-device
//! clock the paper reports. See `README.md` beside this crate for the
//! workloads, the metrics and the layer each metric belongs to.

pub mod check;
pub mod cpu;
pub mod layers;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;

/// The workload seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming later claims.
pub const HELD_OUT_SEED: u64 = 20_221_113;

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit; simulated-clock units carry a `sim_` prefix.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}
