//! The auto-tuning engine for tailoring parameters (§IV-D3).
//!
//! Solves the multi-objective program (Eq. 10) with the paper's two-step
//! method: (1) generate the candidate plan table (Table II) — ordered by
//! increasing TLP and decreasing AI — and (2) walk the table until the
//! TLP objective `f_1` exceeds a platform threshold. The threshold is
//! calibrated once per device by sweeping all plans over a huge batched
//! GEMM and finding the inflection point where more TLP stops helping.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use wsvd_gpu_sim::Gpu;
use wsvd_linalg::generate::random_uniform;
use wsvd_linalg::Matrix;

use crate::gemm::{batched_gram, batched_update, GemmStrategy};
use crate::models::{tlp, TailorPlan};

/// The paper's TLP threshold for the NVIDIA Tesla V100 (§IV-D3, §V).
pub const V100_TLP_THRESHOLD: f64 = 306_149.0;

/// Candidate tailoring plans (Table II), instantiated with the batch's
/// largest row count `m*`. Ordered by increasing TLP / decreasing AI —
/// this ordering *is* the search direction of the engine.
pub fn candidate_plans(m_star: usize) -> Vec<TailorPlan> {
    let m = m_star.max(8);
    vec![
        TailorPlan::new(48, m, 256),
        TailorPlan::new(24, m, 256),
        TailorPlan::new(24, (m / 2).max(1), 256),
        TailorPlan::new(16, (m / 2).max(1), 256),
        TailorPlan::new(16, (m / 4).max(1), 256),
        TailorPlan::new(16, (m / 8).max(1), 256),
        TailorPlan::new(8, (m / 4).max(1), 128),
        TailorPlan::new(8, (m / 8).max(1), 128),
    ]
}

/// Largest `w` whose `2w x 2w` Gram EVD fits the 48 KiB static shared
/// memory all the paper's plans assume (`wsvd_jacobi::fits::max_w_for_evd`).
/// Plans at or below this width never force a deeper recursion level.
pub const EVD_FALLBACK_W: usize = 24;

/// The auto-tuning engine: picks the first candidate of width at most
/// `w_cap` whose TLP objective exceeds `threshold`. The W-cycle caps `w`
/// with the SM-fit bound `w_h <= 48` and level monotonicity
/// `w_{h+1} < w_h`; `usize::MAX` leaves the table uncapped.
///
/// When no candidate can reach the threshold (tiny batches / small
/// matrices), TLP is not the binding constraint, so the secondary
/// objectives of Eq. (10) decide: the walk scores the plan at the SM-fit
/// boundary ([`EVD_FALLBACK_W`], the largest `w` that still resolves in
/// shared memory without another recursion level) *and* the first strictly
/// narrower candidate, keeping the boundary plan unless the narrower one
/// has a genuine TLP advantage — the Table V n = 64 case where w = 16 wins.
///
/// `sizes` are the `(m_k, n_k)` dimensions of the matrices divided at this
/// level; `m*` is their largest row count.
///
/// This is the uncached engine; [`PlanCache`] memoizes it.
pub fn auto_tune(sizes: &[(usize, usize)], threshold: f64, w_cap: usize) -> TailorPlan {
    select_plan(sizes, threshold, w_cap).0
}

/// Candidate plans at or under `w_cap`, each paired with its TLP objective
/// `f_1` — the table the engine walks, in search order. Empty only under a
/// degenerate cap that excludes the whole table.
pub fn scored_candidates(sizes: &[(usize, usize)], w_cap: usize) -> Vec<(TailorPlan, f64)> {
    let m_star = sizes.iter().map(|&(m, _)| m).max().unwrap_or(8);
    candidate_plans(m_star)
        .into_iter()
        .filter(|p| p.w <= w_cap)
        .map(|p| {
            let f1 = tlp(&p, sizes);
            (p, f1)
        })
        .collect()
}

/// Index of the plan the two-step method selects from a non-empty scored
/// table: the first whose `f_1` clears the threshold; otherwise the
/// sub-threshold rule below; else the table head.
///
/// Sub-threshold regime (small batches — the Table V rows): TLP cannot be
/// the binding constraint, and the engine used to stop at the first plan
/// whose width lands on the SM-fit boundary (`max_w_for_evd`, the widest
/// non-recursing plan) without looking further. That misses the Table V
/// optimum at n = 64, where the first plan *past* the boundary (w = 16)
/// wins by up to 57%: its narrower pairs shorten the per-block critical
/// path and there is slack parallelism to absorb the extra blocks. So the
/// walk now scores both the boundary plan and the first strictly narrower
/// candidate, and keeps the boundary plan only when the narrower one has no
/// TLP advantage to offer.
fn pick(scored: &[(TailorPlan, f64)], threshold: f64) -> usize {
    if let Some(i) = scored.iter().position(|&(_, f1)| f1 > threshold) {
        return i;
    }
    let Some(at_boundary) = scored.iter().position(|&(p, _)| p.w <= EVD_FALLBACK_W) else {
        return 0;
    };
    let below = scored
        .iter()
        .position(|&(p, _)| p.w < scored[at_boundary].0.w);
    match below {
        Some(b) if scored[b].1 > scored[at_boundary].1 => b,
        _ => at_boundary,
    }
}

/// The uncached candidate walk: scored table plus selection. `chosen` is
/// `None` when a degenerate cap empties the table and the plan had to be
/// synthesized.
fn select_plan(
    sizes: &[(usize, usize)],
    threshold: f64,
    w_cap: usize,
) -> (TailorPlan, Option<usize>, Vec<(TailorPlan, f64)>) {
    let scored = scored_candidates(sizes, w_cap);
    if scored.is_empty() {
        // Degenerate cap: synthesize the smallest-footprint plan.
        let m_star = sizes.iter().map(|&(m, _)| m).max().unwrap_or(8);
        let plan = TailorPlan::new(w_cap.max(1), (m_star / 8).max(1), 128);
        (plan, None, scored)
    } else {
        let idx = pick(&scored, threshold);
        (scored[idx].0, Some(idx), scored)
    }
}

/// Key of one memoized tuning decision. The size multiset is sorted so any
/// permutation of the same group of shapes shares an entry (`tlp` sums over
/// sizes, and `m*` is their maximum — both permutation-invariant). The
/// threshold bits stand in for the device: the platform enters the engine
/// only through its calibrated TLP threshold.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct PlanKey {
    sizes: Vec<(usize, usize)>,
    w_cap: usize,
    threshold_bits: u64,
}

impl PlanKey {
    fn new(sizes: &[(usize, usize)], threshold: f64, w_cap: usize) -> Self {
        let mut sizes = sizes.to_vec();
        sizes.sort_unstable();
        Self {
            sizes,
            w_cap,
            threshold_bits: threshold.to_bits(),
        }
    }
}

/// Memoizes auto-tuning decisions so mixed-size groups (Table VI) and
/// repeated shapes stop re-running the candidate sweep every level of every
/// sweep. Because the engine is a pure function of `(size multiset,
/// threshold, w_cap)`, a cached plan is always identical to a fresh
/// [`auto_tune`] — the cache changes nothing but host-side work,
/// so sanitizer runs and baselines are bit-identical whether it is cold or
/// warm.
#[derive(Default)]
pub struct PlanCache {
    // BTreeMap, not HashMap: registry iteration order (telemetry, future
    // exposition) must be deterministic — enforced by the wsvd-analyze
    // `no-hashmap` lint.
    plans: Mutex<BTreeMap<PlanKey, TailorPlan>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache (tests construct private instances; production code
    /// shares [`PlanCache::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache consulted by [`auto_tune_with_w_cap_traced`].
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(PlanCache::new)
    }

    /// Returns the memoized plan for this workload, running the candidate
    /// walk on a miss, and whether the lookup hit the cache — the per-call
    /// signal the metrics registry records as an *increment*, fixing the
    /// process-cumulative semantics of [`PlanCache::stats`] for per-run
    /// queries.
    pub fn lookup_or_tune(
        &self,
        sizes: &[(usize, usize)],
        threshold: f64,
        w_cap: usize,
    ) -> (TailorPlan, bool) {
        let key = PlanKey::new(sizes, threshold, w_cap);
        if let Some(plan) = self.plans.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (*plan, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (plan, _, _) = select_plan(sizes, threshold, w_cap);
        self.plans.lock().unwrap().insert(key, plan);
        (plan, false)
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of distinct workloads memoized.
    pub fn len(&self) -> usize {
        self.plans.lock().unwrap().len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The W-cycle's tuning entry point for W-cycle level `level` on `gpu`: the
/// [`PlanCache::global`] lookup of [`auto_tune`], additionally emitting one
/// `plan` instant on the GPU's trace sink (its process, track `autotune`,
/// timestamped at the GPU's simulated clock) carrying the chosen plan and
/// the TLP scores of every candidate the engine rejected, plus `plan-cache`
/// counter samples with the cumulative hit/miss counts of
/// [`PlanCache::global`] — and, on the GPU's metrics sink, per-call hit/miss
/// counter increments and chosen-plan gauges keyed by level. With both sinks
/// disabled this is exactly the cached lookup.
///
/// All paths consult the global plan cache; the traced path re-runs the
/// scoring only to reconstruct the rejected-candidate table for the event,
/// so cached and fresh selections stay observably identical.
pub fn auto_tune_with_w_cap_traced(
    gpu: &Gpu,
    level: usize,
    sizes: &[(usize, usize)],
    threshold: f64,
    w_cap: usize,
) -> TailorPlan {
    let (plan, hit) = PlanCache::global().lookup_or_tune(sizes, threshold, w_cap);
    let metrics = gpu.metrics();
    if metrics.is_enabled() {
        // Increments, not the cache's cumulative totals: a per-run sink (or
        // a snapshot delta) then counts exactly this run's lookups even when
        // the process-wide cache is already warm.
        metrics.counter_add("plan-cache", None, if hit { "hits" } else { "misses" }, 1.0);
        metrics.gauge_set("autotune", Some(level), "plan_w", plan.w as f64);
        metrics.gauge_set("autotune", Some(level), "plan_delta", plan.delta as f64);
        metrics.gauge_set("autotune", Some(level), "plan_threads", plan.threads as f64);
        // TLP of the chosen plan (Eq. 8): recomputed only when metered, so
        // unmetered runs do no extra host work.
        metrics.gauge_set("autotune", Some(level), "plan_tlp", tlp(&plan, sizes));
    }
    let trace = gpu.trace();
    if trace.is_enabled() {
        let (pid, now) = (gpu.trace_pid(), gpu.elapsed_seconds());
        let (fresh, chosen, scored) = select_plan(sizes, threshold, w_cap);
        debug_assert_eq!(fresh, plan, "cache must agree with a fresh walk");
        let rejected = scored
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != chosen)
            .map(|(_, (p, f1))| format!("w={} d={} T={} f1={:.1}", p.w, p.delta, p.threads, f1))
            .collect::<Vec<_>>()
            .join("; ");
        let chosen_f1 = chosen
            .map(|i| scored[i].1)
            .unwrap_or_else(|| tlp(&plan, sizes));
        trace.instant(
            pid,
            "autotune",
            "plan",
            now,
            vec![
                ("level", level.into()),
                ("batch", sizes.len().into()),
                ("w_cap", w_cap.into()),
                ("threshold", threshold.into()),
                ("w", plan.w.into()),
                ("delta", plan.delta.into()),
                ("threads", plan.threads.into()),
                ("tlp", chosen_f1.into()),
                ("threshold_met", u64::from(chosen_f1 > threshold).into()),
                ("rejected", rejected.into()),
            ],
        );
        let (hits, misses) = PlanCache::global().stats();
        trace.counter(pid, "plan-cache", "hits", now, hits as f64);
        trace.counter(pid, "plan-cache", "misses", now, misses as f64);
    }
    plan
}

/// Calibrates the TLP threshold for a device (done "only once for a
/// particular platform"): evaluates every candidate plan on the two batched
/// GEMMs of a huge matrix's SVD level, and returns the TLP at the inflection
/// point where further TLP gives < `rel_gain` improvement.
pub fn calibrate_threshold(gpu: &Gpu, rel_gain: f64) -> f64 {
    // A "huge matrix" level: one 2048-row pair-block batch.
    let probe: Vec<Matrix> = (0..4).map(|k| random_uniform(2048, 32, 900 + k)).collect();
    let js: Vec<Matrix> = probe
        .iter()
        .enumerate()
        .map(|(k, _)| wsvd_linalg::householder::seeded_orthogonal(32, 777 + k as u64))
        .collect();
    let sizes: Vec<(usize, usize)> = probe.iter().map(|p| p.shape()).collect();

    let mut best = f64::INFINITY;
    let mut threshold = 0.0;
    for plan in candidate_plans(2048) {
        gpu.reset_timeline();
        let strat = GemmStrategy::Tailored(plan);
        let mut blocks = probe.clone();
        let _ = batched_gram(gpu, &blocks, strat);
        let _ = batched_update(gpu, &mut blocks, &js, strat);
        let t = gpu.elapsed_seconds();
        let f1 = tlp(&plan, &sizes);
        if t < best * (1.0 - rel_gain) {
            best = t;
            threshold = f1;
        }
    }
    gpu.reset_timeline();
    threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_gpu_sim::{Gpu, V100};

    #[test]
    fn candidate_table_matches_table_iii_for_m256() {
        // Table III: m* = 256 instantiation.
        let c = candidate_plans(256);
        assert_eq!(c.len(), 8);
        assert_eq!(c[0], TailorPlan::new(48, 256, 256));
        assert_eq!(c[3], TailorPlan::new(16, 128, 256));
        assert_eq!(c[7], TailorPlan::new(8, 32, 128));
    }

    #[test]
    fn candidates_ordered_by_increasing_tlp_within_block_size() {
        // The paper's ordering claim (f1 increasing, f2/f3 decreasing) holds
        // among candidates with the same T_h; the trailing T=128 rows trade
        // block size for finer plates.
        let sizes = vec![(256, 256); 100];
        let c = candidate_plans(256);
        for w in c.windows(2) {
            if w[0].threads == w[1].threads {
                assert!(
                    tlp(&w[0], &sizes) <= tlp(&w[1], &sizes),
                    "table not ordered by TLP: {:?} vs {:?}",
                    w[0],
                    w[1]
                );
            }
            // AI_1 (linear in w) never increases along the table.
            assert!(crate::models::ai_gram(&w[1], 4) <= crate::models::ai_gram(&w[0], 4));
        }
    }

    #[test]
    fn paper_example_selects_fourth_plan() {
        // §IV-D3: 100 matrices of 256x256 with threshold 306,149 ends at the
        // fourth candidate (w=16, δ=128, T=256) with f1 = 409,600.
        let sizes = vec![(256usize, 256usize); 100];
        let plan = auto_tune(&sizes, V100_TLP_THRESHOLD, usize::MAX);
        assert_eq!(plan, TailorPlan::new(16, 128, 256));
    }

    #[test]
    fn fallback_width_is_the_evd_fit_boundary() {
        // EVD_FALLBACK_W is the SM-fit boundary of the 2w x 2w Gram EVD at
        // the 48 KiB static configuration all the paper's plans assume.
        assert_eq!(EVD_FALLBACK_W, wsvd_jacobi::fits::max_w_for_evd(48 * 1024));
    }

    #[test]
    fn tiny_workload_scores_past_the_boundary_plan() {
        // When TLP cannot reach the threshold, the walk scores the boundary
        // plan (w = 24) and the first strictly narrower candidate; for a
        // single 8x8 matrix the narrower plan's TLP advantage wins.
        let sizes = vec![(8, 8); 1];
        let plan = auto_tune(&sizes, V100_TLP_THRESHOLD, usize::MAX);
        assert!(plan.w < EVD_FALLBACK_W);
        assert_eq!(plan, candidate_plans(8)[3]);
        assert!(
            tlp(&plan, &sizes) > tlp(&candidate_plans(8)[1], &sizes),
            "narrower plan must only win on a TLP advantage"
        );
    }

    #[test]
    fn table_v_boundary_case_selects_w16() {
        // The Table V miss: 10 matrices of 64x64 sit below the threshold,
        // and the w = 16 plan at the level-0 boundary beats the old w = 24
        // fallback by up to 57% — the walk must land on it.
        let sizes = vec![(64, 64); 10];
        let plan = auto_tune(&sizes, V100_TLP_THRESHOLD, usize::MAX);
        assert_eq!(plan.w, 16);
        assert_eq!(plan, candidate_plans(64)[3]); // (16, m/2 = 32, 256)
    }

    #[test]
    fn huge_workload_selects_first_plan() {
        let sizes = vec![(4096, 4096); 1000];
        let plan = auto_tune(&sizes, V100_TLP_THRESHOLD, usize::MAX);
        assert_eq!(plan, candidate_plans(4096)[0]);
    }

    #[test]
    fn w_cap_is_respected() {
        let sizes = vec![(64, 64); 4];
        let plan = auto_tune(&sizes, V100_TLP_THRESHOLD, 12);
        assert!(plan.w <= 12);
    }

    #[test]
    fn traced_selection_matches_untraced_and_records_rejects() {
        let sizes = vec![(256usize, 256usize); 100];
        let sink = wsvd_trace::TraceSink::enabled();
        let metrics = wsvd_metrics::MetricsSink::enabled();
        metrics.set_experiment("unit");
        let mut gpu = Gpu::with_trace(wsvd_gpu_sim::V100, sink.clone());
        gpu.set_metrics(metrics.clone());
        gpu.add_host_seconds(0.25);
        let traced = auto_tune_with_w_cap_traced(&gpu, 1, &sizes, V100_TLP_THRESHOLD, 48);
        assert_eq!(traced, auto_tune(&sizes, V100_TLP_THRESHOLD, 48));

        // The metrics registry saw exactly one lookup (hit or miss depending
        // on what other tests already warmed into the global cache) and the
        // chosen plan's gauges at this level.
        let snap = metrics.snapshot();
        let lookups = snap.counter("unit", "plan-cache", None, "hits")
            + snap.counter("unit", "plan-cache", None, "misses");
        assert_eq!(lookups, 1.0);
        assert_eq!(
            snap.gauge("unit", "autotune", Some(1), "plan_w"),
            Some(traced.w as f64)
        );
        assert!(snap.gauge("unit", "autotune", Some(1), "plan_tlp").unwrap() > 0.0);

        let evs = sink.events();
        let plans: Vec<_> = evs.iter().filter(|e| e.track == "autotune").collect();
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].name, "plan");
        assert_eq!(plans[0].pid, gpu.trace_pid());
        assert!(matches!(plans[0].kind, wsvd_trace::EventKind::Instant { ts } if ts == 0.25));
        // The cache surfaces its cumulative hit/miss counts as counter
        // samples alongside every traced selection.
        let cache_evs: Vec<_> = evs.iter().filter(|e| e.track == "plan-cache").collect();
        assert_eq!(cache_evs.len(), 2);
        assert!(cache_evs
            .iter()
            .all(|e| matches!(e.kind, wsvd_trace::EventKind::Counter { .. })));
        let arg = |key: &str| {
            plans[0]
                .args
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(arg("w"), wsvd_trace::ArgValue::U64(traced.w as u64));
        assert_eq!(arg("threshold_met"), wsvd_trace::ArgValue::U64(1));
        match arg("rejected") {
            wsvd_trace::ArgValue::Str(s) => {
                // The paper's example walks past three candidates; all other
                // scored rows are recorded as rejected too.
                assert_eq!(s.matches("f1=").count(), 7, "rejected list: {s}");
                assert!(s.contains("w=48"), "rejected list: {s}");
            }
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn plan_cache_hits_after_first_lookup() {
        let cache = PlanCache::new();
        let sizes = vec![(96, 96); 20];
        let (a, a_hit) = cache.lookup_or_tune(&sizes, V100_TLP_THRESHOLD, 48);
        let (b, b_hit) = cache.lookup_or_tune(&sizes, V100_TLP_THRESHOLD, 48);
        assert_eq!(a, b);
        assert!(!a_hit, "first lookup must miss");
        assert!(b_hit, "second lookup must hit");
        assert_eq!(a, auto_tune(&sizes, V100_TLP_THRESHOLD, 48));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn plan_cache_key_is_a_multiset() {
        // Any permutation of the same group of shapes shares one entry:
        // the engine only sees the multiset (tlp sums, m* maxes).
        let cache = PlanCache::new();
        let sizes = vec![(64, 48), (96, 96), (64, 64), (96, 32)];
        let mut permuted = sizes.clone();
        permuted.reverse();
        let a = cache.lookup_or_tune(&sizes, V100_TLP_THRESHOLD, 48).0;
        let b = cache.lookup_or_tune(&permuted, V100_TLP_THRESHOLD, 48).0;
        assert_eq!(a, b);
        assert_eq!(cache.stats(), (1, 1), "permutation must hit the cache");
    }

    #[test]
    fn plan_cache_distinguishes_w_cap_and_threshold() {
        let cache = PlanCache::new();
        let sizes = vec![(64, 64); 10];
        let unconstrained = cache.lookup_or_tune(&sizes, V100_TLP_THRESHOLD, 48).0;
        let capped = cache.lookup_or_tune(&sizes, V100_TLP_THRESHOLD, 8).0;
        assert!(capped.w <= 8);
        assert!(unconstrained.w > 8);
        let low_threshold = cache.lookup_or_tune(&sizes, 1.0, 48).0;
        assert_ne!(low_threshold, unconstrained);
        assert_eq!(cache.stats(), (0, 3));
    }

    #[test]
    fn calibration_returns_positive_threshold() {
        let gpu = Gpu::new(V100);
        let t = calibrate_threshold(&gpu, 0.05);
        assert!(t > 0.0, "threshold {t}");
        // Plausible TLP magnitude for the probe workload (the paper's
        // 306,149 was calibrated against its own, larger probe).
        assert!(t > 1e2 && t < 1e8, "threshold {t} implausible");
    }
}
