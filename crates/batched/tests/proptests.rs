//! Property-based tests of the batched-GEMM layer: the tailoring strategy
//! must be a pure execution-mapping change — numerics identical to the
//! one-block-per-GEMM mapping for any batch, any plan.

use proptest::prelude::*;
use wsvd_batched::gemm::{batched_gram, batched_update, GemmStrategy};
use wsvd_batched::models::{tlp, TailorPlan};
use wsvd_batched::{auto_tune, candidate_plans};
use wsvd_gpu_sim::{Gpu, V100};
use wsvd_linalg::generate::random_uniform;
use wsvd_linalg::householder::seeded_orthogonal;
use wsvd_linalg::Matrix;

fn arb_blocks() -> impl Strategy<Value = Vec<Matrix>> {
    (1usize..6, 1usize..50, 1usize..10, any::<u64>()).prop_map(|(count, m, n, seed)| {
        (0..count)
            .map(|k| random_uniform(m * 3, n, seed.wrapping_add(k as u64)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn tailored_gram_equals_plain(blocks in arb_blocks(), w in 1usize..16, dshift in 0usize..4) {
        let gpu = Gpu::new(V100);
        let delta = [8usize, 16, 40, 1000][dshift];
        let plain = batched_gram(&gpu, &blocks, GemmStrategy::OneBlockPerGemm { threads: 256 })
            .unwrap().0;
        let tailored = batched_gram(
            &gpu,
            &blocks,
            GemmStrategy::Tailored(TailorPlan::new(w, delta, 256)),
        )
        .unwrap()
        .0;
        for (p, t) in plain.iter().zip(&tailored) {
            prop_assert!(p.sub(t).max_abs() < 1e-10 * (1.0 + p.max_abs()));
        }
    }

    #[test]
    fn tailored_update_equals_plain(blocks in arb_blocks(), dshift in 0usize..4) {
        let gpu = Gpu::new(V100);
        let delta = [8usize, 16, 40, 1000][dshift];
        let js: Vec<Matrix> = blocks
            .iter()
            .enumerate()
            .map(|(k, b)| seeded_orthogonal(b.cols(), 99 + k as u64))
            .collect();
        let mut plain = blocks.clone();
        batched_update(&gpu, &mut plain, &js, GemmStrategy::OneBlockPerGemm { threads: 256 })
            .unwrap();
        let mut tailored = blocks.clone();
        batched_update(
            &gpu,
            &mut tailored,
            &js,
            GemmStrategy::Tailored(TailorPlan::new(8, delta, 256)),
        )
        .unwrap();
        for (p, t) in plain.iter().zip(&tailored) {
            prop_assert!(p.sub(t).max_abs() < 1e-10 * (1.0 + p.max_abs()));
        }
    }

    #[test]
    fn auto_tune_returns_a_table_candidate(
        m in 8usize..2048, n in 8usize..2048, batch in 1usize..500, thr in 0.0f64..1e7
    ) {
        let sizes = vec![(m, n); batch];
        let plan = auto_tune(&sizes, thr, usize::MAX);
        prop_assert!(candidate_plans(m).contains(&plan), "plan {plan:?} not in the table");
    }

    #[test]
    fn tlp_monotone_in_batch_and_inverse_in_plate(
        m in 16usize..512, n in 16usize..512, batch in 1usize..64
    ) {
        let small = TailorPlan::new(8, 16, 256);
        let large = TailorPlan::new(32, 256, 256);
        let sizes = vec![(m, n); batch];
        let bigger = vec![(m, n); batch + 1];
        prop_assert!(tlp(&small, &sizes) >= tlp(&large, &sizes));
        prop_assert!(tlp(&small, &bigger) > tlp(&small, &sizes));
    }
}

fn arb_mixed_sizes() -> impl Strategy<Value = Vec<(usize, usize)>> {
    // Mixed-size multisets, the Table VI shape the plan cache exists for.
    prop::collection::vec((8usize..512, 8usize..512), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn plan_cache_equals_fresh_auto_tune(
        sizes in arb_mixed_sizes(), thr in 0.0f64..1e7
    ) {
        // A cache hit, a cold miss, and a permuted-key hit must all agree
        // with the uncached engine (the cache is pure memoization).
        let cache = wsvd_batched::PlanCache::new();
        let fresh = auto_tune(&sizes, thr, 48);
        let (miss, _) = cache.lookup_or_tune(&sizes, thr, 48);
        let (hit, _) = cache.lookup_or_tune(&sizes, thr, 48);
        let mut permuted = sizes.clone();
        permuted.reverse();
        let (permuted_hit, _) = cache.lookup_or_tune(&permuted, thr, 48);
        prop_assert_eq!(miss, fresh);
        prop_assert_eq!(hit, fresh);
        // Multiset key must be order-insensitive.
        prop_assert_eq!(permuted_hit, fresh);
        prop_assert_eq!(cache.stats(), (2, 1));
    }

    #[test]
    fn plan_cache_respects_w_cap(
        sizes in arb_mixed_sizes(), thr in 0.0f64..1e7, cap_idx in 0usize..4
    ) {
        let w_cap = [8usize, 16, 24, 48][cap_idx];
        let cache = wsvd_batched::PlanCache::new();
        let (plan, _) = cache.lookup_or_tune(&sizes, thr, w_cap);
        prop_assert_eq!(plan, auto_tune(&sizes, thr, w_cap));
        prop_assert!(plan.w <= w_cap);
    }

    #[test]
    fn auto_tune_is_permutation_invariant(
        sizes in arb_mixed_sizes(), thr in 0.0f64..1e7
    ) {
        // The property that makes the sorted-multiset cache key sound.
        let mut shuffled = sizes.clone();
        shuffled.reverse();
        shuffled.rotate_left(sizes.len() / 2);
        prop_assert_eq!(
            auto_tune(&sizes, thr, usize::MAX),
            auto_tune(&shuffled, thr, usize::MAX)
        );
    }
}
