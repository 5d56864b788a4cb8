//! Per-layer counts, read only from public values that cost nothing to
//! read: `WCycleStats`, `ServeOutcome`, `Gpu::profile()`, `Gpu::timeline()`,
//! `Gpu::graph_stats()` and `PlanCache::global().stats()`.
//!
//! Simulated quantities are in simulated seconds (`sim_s`); byte counts are
//! computed from the simulator's counters, not measured on hardware.

use std::collections::BTreeMap;

use wsvd_core::WCycleOutput;
use wsvd_gpu_sim::Gpu;
use wsvd_serve::{BatchTrigger, ServeOutcome};

use crate::stats::percentile;
use crate::Metric;

/// Kernel labels of the tailored batched GEMMs (`batched` layer).
const GRAM_LABELS: [&str; 3] = [
    "tailored_gram_partial",
    "tailored_gram_reduce",
    "batched_gram",
];
const UPDATE_LABELS: [&str; 2] = ["tailored_update", "batched_update"];
/// Kernel labels of the shared-memory Jacobi kernels (`jacobi` layer).
const SVD_SM_LABEL: &str = "batched_svd_sm";
const EVD_SM_LABEL: &str = "batched_evd_sm";

#[derive(Clone, Copy, Default)]
struct KernelSum {
    launches: u64,
    blocks: u64,
    flops: u64,
    gm_bytes: u64,
    smem_bytes: u64,
    seconds: f64,
    occ_seconds: f64,
}

/// Layer counts summed over the calls of one pool pass.
#[derive(Default)]
pub struct Layers {
    kernels: BTreeMap<String, KernelSum>,
    sim_s: f64,
    overhead_s: f64,
    occ_seconds: f64,
    graph_nodes: u64,
    graph_coalesced: u64,
    graph_saved_s: f64,
    // core
    matrices: u64,
    level0: u64,
    sm_svd_blocks: u64,
    sm_evd_blocks: u64,
    recursed_blocks: u64,
    max_level: usize,
    rotations: u64,
    multilevel_sweeps: u64,
    multilevel: u64,
    // serve: (end to end, admission, backlog, service) per request
    requests: Vec<[f64; 4]>,
    offered: u64,
    rejected: u64,
    batches: u64,
    deadline_batches: u64,
    busy_us: f64,
    makespan_us: f64,
    // batched plan cache
    plan_hits: u64,
    plan_misses: u64,
}

impl Layers {
    /// Adds the device-side counts of one call's fresh `Gpu`.
    pub(crate) fn add_gpu(&mut self, gpu: &Gpu) {
        for (label, p) in gpu.profile().iter() {
            let k = self.kernels.entry(label.to_string()).or_default();
            k.launches += p.launches;
            k.blocks += p.blocks;
            k.flops += p.totals.flops;
            k.gm_bytes += p.totals.gm_bytes();
            k.smem_bytes += p.totals.smem_traffic_bytes;
            k.seconds += p.seconds;
            k.occ_seconds += p.mean_occupancy() * p.seconds;
        }
        let t = gpu.timeline();
        self.sim_s += t.seconds;
        self.overhead_s += t.overhead_seconds;
        self.occ_seconds += t.mean_occupancy() * t.seconds;
        let g = gpu.graph_stats();
        self.graph_nodes += g.nodes;
        self.graph_coalesced += g.coalesced;
        self.graph_saved_s += g.overhead_saved_seconds;
    }

    /// Adds the W-cycle statistics of one offline call.
    pub(crate) fn add_wcycle(&mut self, out: &WCycleOutput) {
        let s = &out.stats;
        self.matrices += out.results.len() as u64;
        self.level0 += s.level0_sm_svds as u64;
        self.sm_svd_blocks += s.sm_svd_blocks;
        self.sm_evd_blocks += s.sm_evd_blocks;
        self.recursed_blocks += s.recursed_blocks;
        self.max_level = self.max_level.max(s.max_level);
        self.rotations += s.total_rotations();
        // W-cycle sweeps; Level-0 matrices record 0 and are left out.
        for &sweeps in s.sweeps_per_matrix.iter().filter(|&&n| n > 0) {
            self.multilevel_sweeps += sweeps as u64;
            self.multilevel += 1;
        }
    }

    /// Adds the records of one served trace of `offered` requests.
    pub(crate) fn add_serve(&mut self, out: &ServeOutcome, offered: usize) {
        self.requests.extend(out.records.iter().map(|r| {
            [
                r.end_to_end_us,
                r.admission_wait_us,
                r.backlog_us,
                r.service_us,
            ]
        }));
        self.offered += offered as u64;
        self.rejected += out.rejected as u64;
        self.batches += out.batches.len() as u64;
        self.deadline_batches += out
            .batches
            .iter()
            .filter(|b| b.trigger == BatchTrigger::Deadline)
            .count() as u64;
        self.busy_us += out.busy_us;
        self.makespan_us += out.makespan_us;
    }

    /// Records the plan-cache `(hits, misses)` increments over the pass.
    pub(crate) fn set_plan_cache(&mut self, hits: u64, misses: u64) {
        self.plan_hits = hits;
        self.plan_misses = misses;
    }

    fn sum(&self, labels: &[&str]) -> KernelSum {
        let mut out = KernelSum::default();
        for k in labels.iter().filter_map(|l| self.kernels.get(*l)) {
            out.launches += k.launches;
            out.blocks += k.blocks;
            out.flops += k.flops;
            out.gm_bytes += k.gm_bytes;
            out.smem_bytes += k.smem_bytes;
            out.seconds += k.seconds;
            out.occ_seconds += k.occ_seconds;
        }
        out
    }

    /// The per-layer metrics of the pass. `tail_pct` is the workload's tail
    /// percentile; the serve tail waterfall averages each latency component
    /// over the requests whose end to end is at or beyond it.
    pub fn metrics(&self, tail_pct: f64) -> Vec<Metric> {
        let gram = self.sum(&GRAM_LABELS);
        let update = self.sum(&UPDATE_LABELS);
        let svd = self.sum(&[SVD_SM_LABEL]);
        let evd = self.sum(&[EVD_SM_LABEL]);
        let all: Vec<&str> = self.kernels.keys().map(String::as_str).collect();
        let every = self.sum(&all);
        let gemm_flops = gram.flops + update.flops;
        let gemm_bytes = gram.gm_bytes + update.gm_bytes;

        let e2e: Vec<f64> = self.requests.iter().map(|r| r[0]).collect();
        let tail: Vec<&[f64; 4]> = match percentile(&e2e, tail_pct) {
            Some((threshold, _)) => self.requests.iter().filter(|r| r[0] >= threshold).collect(),
            None => Vec::new(),
        };
        let tail_mean = |c: usize| ratio(tail.iter().map(|r| r[c]).sum(), tail.len() as f64);
        let served = self.requests.len() as f64;
        let lookups = (self.plan_hits + self.plan_misses) as f64;

        vec![
            Metric::new("serve.admission_wait_us_tail", tail_mean(1), "sim_us"),
            Metric::new("serve.backlog_us_tail", tail_mean(2), "sim_us"),
            Metric::new("serve.service_us_tail", tail_mean(3), "sim_us"),
            Metric::new("serve.batches", self.batches as f64, "count"),
            Metric::new(
                "serve.batch_len_mean",
                ratio(served, self.batches as f64),
                "requests",
            ),
            Metric::new(
                "serve.deadline_share",
                ratio(self.deadline_batches as f64, self.batches as f64),
                "ratio",
            ),
            Metric::new(
                "serve.device_busy_share",
                ratio(self.busy_us, self.makespan_us),
                "ratio",
            ),
            Metric::new("serve.rejected", self.rejected as f64, "count"),
            Metric::new("serve.offered", self.offered as f64, "count"),
            Metric::new(
                "core.sweeps_mean",
                ratio(self.multilevel_sweeps as f64, self.multilevel as f64),
                "sweeps",
            ),
            Metric::new("core.rotations", self.rotations as f64, "count"),
            Metric::new("core.max_level", self.max_level as f64, "level"),
            Metric::new(
                "core.level0_share",
                ratio(self.level0 as f64, self.matrices as f64),
                "ratio",
            ),
            Metric::new("core.sm_svd_blocks", self.sm_svd_blocks as f64, "count"),
            Metric::new("core.sm_evd_blocks", self.sm_evd_blocks as f64, "count"),
            Metric::new("core.recursed_blocks", self.recursed_blocks as f64, "count"),
            Metric::new("batched.gram_sim_s", gram.seconds, "sim_s"),
            Metric::new("batched.update_sim_s", update.seconds, "sim_s"),
            Metric::new("batched.gemm_flops", gemm_flops as f64, "flop"),
            Metric::new("batched.gemm_gm_bytes", gemm_bytes as f64, "B"),
            Metric::new(
                "batched.gemm_flops_per_byte",
                ratio(gemm_flops as f64, gemm_bytes as f64),
                "flop/B",
            ),
            Metric::new("batched.plan_cache_hits", self.plan_hits as f64, "count"),
            Metric::new(
                "batched.plan_cache_misses",
                self.plan_misses as f64,
                "count",
            ),
            Metric::new(
                "batched.plan_cache_hit_ratio",
                ratio(self.plan_hits as f64, lookups),
                "ratio",
            ),
            Metric::new("jacobi.svd_sm_sim_s", svd.seconds, "sim_s"),
            Metric::new("jacobi.svd_sm_flops", svd.flops as f64, "flop"),
            Metric::new("jacobi.svd_sm_smem_bytes", svd.smem_bytes as f64, "B"),
            Metric::new(
                "jacobi.svd_sm_occupancy",
                ratio(svd.occ_seconds, svd.seconds),
                "ratio",
            ),
            Metric::new("jacobi.evd_sm_sim_s", evd.seconds, "sim_s"),
            Metric::new("jacobi.evd_sm_flops", evd.flops as f64, "flop"),
            Metric::new("gpu-sim.launches", every.launches as f64, "count"),
            Metric::new("gpu-sim.blocks", every.blocks as f64, "count"),
            Metric::new(
                "gpu-sim.overhead_share",
                ratio(self.overhead_s, self.sim_s),
                "ratio",
            ),
            Metric::new(
                "gpu-sim.occupancy_mean",
                ratio(self.occ_seconds, self.sim_s),
                "ratio",
            ),
            Metric::new("gpu-sim.graph_nodes", self.graph_nodes as f64, "count"),
            Metric::new(
                "gpu-sim.graph_coalesced",
                self.graph_coalesced as f64,
                "count",
            ),
            Metric::new(
                "gpu-sim.graph_overhead_saved_s",
                self.graph_saved_s,
                "sim_s",
            ),
            Metric::new("gpu-sim.sim_s", self.sim_s, "sim_s"),
        ]
    }
}

/// `num / den`, or 0 when the base is empty.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
