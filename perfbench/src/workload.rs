//! The named workloads and their seeded inputs.
//!
//! Each workload is a fixed *pool* of calls generated from the workload
//! seed. The timed phase replays the pool cyclically; the first pass over it
//! is the deterministic unit every simulated metric and per-layer count is
//! taken from, so those repeat bit-exactly for a seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsvd_linalg::generate::{random_size_batch, random_uniform};
use wsvd_linalg::Matrix;
use wsvd_serve::Trace;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one caller: batches of small matrices that all fit shared
    /// memory, so every one is solved whole at level 0.
    OfflineSmall,
    /// Closed loop, one caller: mixed squares and tall/wide rectangles that
    /// all descend to level 1 of the W-cycle.
    OfflineLarge,
    /// Open loop on the simulated clock: assimilation-mixture traffic offered
    /// above the eager policy's capacity.
    ServeOverload,
}

/// Matrices per `offline-small` call and calls in its pool.
const SMALL_BATCH: usize = 64;
const SMALL_POOL: usize = 100;
/// Calls in the `offline-large` pool (each call is one matrix per stratum).
const LARGE_POOL: usize = 40;
/// Square-size strata of an `offline-large` call: one matrix is drawn from
/// each, so every call carries the same mix of work and the per-call host
/// time varies with the seed far less than independent draws would.
const LARGE_SQUARE_STRATA: [(usize, usize); 4] = [(64, 80), (80, 104), (104, 132), (132, 160)];
/// Traces in the `serve-overload` pool, requests per trace, trace dimension
/// range (the paper's §V-F mixture) and offered rate. The rate sits between
/// the sustained capacities of `BatchPolicy::low_latency()` (about 6k r/s on
/// this mixture) and `BatchPolicy::high_throughput()` (about 60k r/s).
const SERVE_POOL: usize = 64;
const SERVE_REQUESTS: usize = 32;
const SERVE_DIMS: (usize, usize) = (8, 128);
const SERVE_RATE_HZ: f64 = 20_000.0;

/// The seeded inputs of one workload: its pool of calls.
pub enum Inputs {
    /// One batch of matrices per `wcycle_svd` call.
    Offline(Vec<Vec<Matrix>>),
    /// One trace per `serve_trace` call.
    Serve(Vec<Trace>),
}

impl Inputs {
    /// Calls in one pass over the pool.
    pub fn len(&self) -> usize {
        match self {
            Inputs::Offline(b) => b.len(),
            Inputs::Serve(t) => t.len(),
        }
    }

    /// True for an empty pool.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Matrices (or requests) handled by call `k`.
    pub fn items(&self, k: usize) -> usize {
        match self {
            Inputs::Offline(b) => b[k].len(),
            Inputs::Serve(t) => t[k].requests.len(),
        }
    }

    /// The first `n` calls only (tests use short pools).
    pub fn truncated(mut self, n: usize) -> Inputs {
        match &mut self {
            Inputs::Offline(b) => b.truncate(n),
            Inputs::Serve(t) => t.truncate(n),
        }
        self
    }
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::OfflineSmall,
        Workload::OfflineLarge,
        Workload::ServeOverload,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineSmall => "offline-small",
            Workload::OfflineLarge => "offline-large",
            Workload::ServeOverload => "serve-overload",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the pool from the workload seed.
    pub fn generate(self, seed: u64) -> Inputs {
        match self {
            Workload::OfflineSmall => Inputs::Offline(
                (0..SMALL_POOL)
                    .map(|k| random_size_batch(SMALL_BATCH, 8, 48, call_seed(seed, k)))
                    .collect(),
            ),
            Workload::OfflineLarge => Inputs::Offline(
                (0..LARGE_POOL)
                    .map(|k| large_batch(call_seed(seed, k)))
                    .collect(),
            ),
            Workload::ServeOverload => Inputs::Serve(
                (0..SERVE_POOL)
                    .map(|k| {
                        Trace::assimilation(
                            SERVE_REQUESTS,
                            SERVE_DIMS.0,
                            SERVE_DIMS.1,
                            SERVE_RATE_HZ,
                            call_seed(seed, k),
                        )
                    })
                    .collect(),
            ),
        }
    }

    /// Percentile reported as the tail of every latency of this workload.
    /// Fixed per workload (not re-chosen per run) so the tail reads the same
    /// rank in every run; it is the highest percentile with at least ten
    /// samples beyond it given [`Workload::min_calls`] host samples and one
    /// pool pass of simulated samples.
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::OfflineSmall => 90.0,
            Workload::OfflineLarge => 75.0,
            Workload::ServeOverload => 75.0,
        }
    }

    /// Fewest timed calls a run makes, so the host tail keeps ten samples
    /// beyond [`Workload::tail_pct`].
    pub fn min_calls(self) -> usize {
        (10.0 / (1.0 - self.tail_pct() / 100.0)).ceil() as usize
    }

    /// The latency limit goodput is scored against, in simulated µs: per
    /// request end to end for serving, per call for the offline callers.
    pub fn slo_us(self) -> f64 {
        match self {
            Workload::OfflineSmall => 2_000.0,
            Workload::OfflineLarge => 50_000.0,
            Workload::ServeOverload => 5_000.0,
        }
    }
}

/// One `offline-large` call: a square from each stratum plus one tall and
/// one wide rectangle (the wide one takes the transpose path).
fn large_batch(seed: u64) -> Vec<Matrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shapes: Vec<(usize, usize)> = LARGE_SQUARE_STRATA
        .iter()
        .map(|&(lo, hi)| {
            let d = rng.gen_range(lo..hi);
            (d, d)
        })
        .collect();
    let (m, n) = (rng.gen_range(192..=256), rng.gen_range(48..=64));
    shapes.push((m, n));
    let (m, n) = (rng.gen_range(192..=256), rng.gen_range(48..=64));
    shapes.push((n, m));
    shapes
        .into_iter()
        .enumerate()
        .map(|(k, (m, n))| random_uniform(m, n, seed.wrapping_add(1 + k as u64)))
        .collect()
}

/// Seed of pool call `k` (splitmix64 of the workload seed and `k`), so
/// neighbouring workload seeds give unrelated pools.
pub(crate) fn call_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed
        .wrapping_add((k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x5851_F42D_4C95_7F2D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
