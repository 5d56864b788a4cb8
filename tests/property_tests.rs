//! Property-based tests (proptest) on the core invariants:
//! * any real matrix has a valid W-cycle SVD (orthogonal factors, sorted
//!   non-negative values, reconstruction);
//! * the spectrum matches the independent two-stage oracle;
//! * plane rotations preserve norms; round-robin is a valid schedule;
//!   the SM-footprint predicates match kernel behaviour.

use proptest::prelude::*;

use wcycle_svd::gpu::{Gpu, KernelConfig, V100};
use wcycle_svd::jacobi::ordering::round_robin;
use wcycle_svd::jacobi::{evd_fits_in_sm, svd_fits_in_sm, MemSpace, OneSidedConfig};
use wcycle_svd::linalg::givens::{one_sided_rotation, rotate_columns, rotated_norms};
use wcycle_svd::linalg::verify::orthonormality_error;
use wcycle_svd::linalg::{singular_values, Matrix};
use wcycle_svd::{wcycle_svd, WCycleConfig};

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim, any::<u64>())
        .prop_map(|(m, n, seed)| wcycle_svd::linalg::generate::random_uniform(m, n, seed))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn wcycle_svd_is_always_valid(a in arb_matrix(48)) {
        let gpu = Gpu::new(V100);
        let out = wcycle_svd(&gpu, std::slice::from_ref(&a), &WCycleConfig::default()).unwrap();
        let r = &out.results[0];
        // Sorted, non-negative.
        prop_assert!(r.sigma.iter().all(|&s| s >= 0.0));
        prop_assert!(r.sigma.windows(2).all(|w| w[0] >= w[1]));
        // Orthogonal factors.
        prop_assert!(orthonormality_error(&r.u) < 1e-8);
        prop_assert!(orthonormality_error(r.v.as_ref().unwrap()) < 1e-8);
        // Spectrum matches the independent oracle.
        let want = singular_values(&a).unwrap();
        for (g, w) in r.sigma.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-7 * (1.0 + w), "{} vs {}", g, w);
        }
    }

    #[test]
    fn frobenius_norm_is_preserved_by_svd(a in arb_matrix(40)) {
        // ||A||_F^2 = sum sigma_i^2 — a global invariant of the rotations.
        let gpu = Gpu::new(V100);
        let out = wcycle_svd(&gpu, std::slice::from_ref(&a), &WCycleConfig::default()).unwrap();
        let sum_sq: f64 = out.results[0].sigma.iter().map(|s| s * s).sum();
        let fro2 = a.fro_norm().powi(2);
        prop_assert!((sum_sq - fro2).abs() < 1e-9 * (1.0 + fro2));
    }

    #[test]
    fn rotation_orthogonalizes_and_preserves_energy(
        x in prop::collection::vec(-100.0f64..100.0, 2..40),
        y_seed in any::<u64>(),
    ) {
        let y: Vec<f64> = {
            let m = wcycle_svd::linalg::generate::random_uniform(x.len(), 1, y_seed);
            m.col(0).to_vec()
        };
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(p, q)| p * q).sum::<f64>();
        let (aii, aij, ajj) = (dot(&x, &x), dot(&x, &y), dot(&y, &y));
        let rot = one_sided_rotation(aii, aij, ajj);
        let (mut x2, mut y2) = (x.clone(), y.clone());
        rotate_columns(rot, &mut x2, &mut y2);
        let scale = (aii + ajj).max(1.0);
        // Orthogonality achieved.
        prop_assert!(dot(&x2, &y2).abs() < 1e-10 * scale);
        // Energy preserved.
        prop_assert!((dot(&x2, &x2) + dot(&y2, &y2) - (aii + ajj)).abs() < 1e-9 * scale);
        // Eq.-(6) cached norms agree with recomputation.
        let (pii, pjj) = rotated_norms(rot, aii, aij, ajj);
        prop_assert!((pii - dot(&x2, &x2)).abs() < 1e-9 * scale);
        prop_assert!((pjj - dot(&y2, &y2)).abs() < 1e-9 * scale);
    }

    #[test]
    fn round_robin_is_a_perfect_schedule(n in 2usize..60) {
        let s = round_robin(n);
        let mut seen = std::collections::HashSet::new();
        for step in &s {
            let mut used = std::collections::HashSet::new();
            for &(i, j) in step {
                prop_assert!(i < j && j < n);
                prop_assert!(seen.insert((i, j)), "pair repeated");
                prop_assert!(used.insert(i) && used.insert(j), "index reused in step");
            }
        }
        prop_assert_eq!(seen.len(), n * (n - 1) / 2);
    }

    #[test]
    fn fits_predicate_never_lies(m in 1usize..200, n in 1usize..80) {
        // Whenever the predicate says the SVD fits, the kernel must run
        // without a shared-memory overflow.
        let smem = V100.smem_per_block_bytes;
        prop_assume!(svd_fits_in_sm(m, n, smem));
        let a = wcycle_svd::linalg::generate::random_uniform(m, n, (m * 331 + n) as u64);
        let gpu = Gpu::new(V100);
        let kc = KernelConfig::new(1, 128, smem, "prop-fits");
        let cfg = OneSidedConfig { max_sweeps: 1, ..Default::default() };
        let result = gpu.launch_collect(kc, |_, ctx| {
            wcycle_svd::jacobi::svd_in_block(&a, &cfg, ctx, MemSpace::Shared)
        });
        prop_assert!(result.is_ok(), "kernel overflowed though predicate said fit");
    }

    #[test]
    fn evd_fits_predicate_never_lies(s in 1usize..64) {
        let smem = V100.smem_per_block_bytes;
        prop_assume!(evd_fits_in_sm(s, smem));
        let b = wcycle_svd::linalg::generate::random_symmetric(s, s as u64);
        let gpu = Gpu::new(V100);
        let kc = KernelConfig::new(1, 256, smem, "prop-evd-fits");
        let result = gpu.launch_collect(kc, |_, ctx| {
            wcycle_svd::jacobi::evd_in_block(&b, &wcycle_svd::jacobi::EvdConfig::default(), ctx)
        });
        prop_assert!(result.is_ok());
    }

    #[test]
    fn tailor_assignment_covers_rows_exactly(
        rows in prop::collection::vec(1usize..300, 1..10),
        delta in 1usize..128,
    ) {
        let blocks = wcycle_svd::batched::tailor_assignment(&rows, delta);
        let mut covered: Vec<Vec<bool>> = rows.iter().map(|&m| vec![false; m]).collect();
        for block in &blocks {
            for seg in block {
                for row in covered[seg.gemm]
                    .iter_mut()
                    .skip(seg.row_start)
                    .take(seg.rows)
                {
                    prop_assert!(!*row, "row covered twice");
                    *row = true;
                }
            }
        }
        prop_assert!(covered.iter().all(|c| c.iter().all(|&x| x)), "rows uncovered");
    }
}

/// The converse of `fits_predicate_never_lies`: the SM SVD kernel charges
/// exactly the predicate's working set to the arena, never less, for tall,
/// square and wide shapes (including the largest square the arena admits)
/// on both arena sizes.
#[test]
fn sm_svd_arena_charge_equals_predicate() {
    use wcycle_svd::gpu::VEGA20;
    use wcycle_svd::jacobi::fits::svd_smem_elems;
    for device in [V100, VEGA20] {
        let smem = device.smem_per_block_bytes;
        let mut s = 2usize;
        while svd_fits_in_sm(s + 1, s + 1, smem) {
            s += 1;
        }
        for (m, n) in [
            (5usize, 1usize),
            (64, 32),
            (200, 16),
            (24, 24),
            (s, s),
            (16, 60),
            (3, 40),
        ] {
            assert!(svd_fits_in_sm(m, n, smem), "{m}x{n} on {}", device.name);
            let a = wcycle_svd::linalg::generate::random_uniform(m, n, (m * 97 + n) as u64);
            let gpu = Gpu::new(device);
            let kc = KernelConfig::new(1, 128, smem, "arena-charge");
            let cfg = OneSidedConfig {
                max_sweeps: 1,
                ..Default::default()
            };
            let (peaks, _) = gpu
                .launch_collect(kc, |_, ctx| {
                    wcycle_svd::jacobi::svd_in_block(&a, &cfg, ctx, MemSpace::Shared)?;
                    Ok(ctx.smem().peak_bytes())
                })
                .unwrap();
            assert_eq!(
                peaks[0],
                svd_smem_elems(m, n) * 8,
                "{m}x{n} on {}",
                device.name
            );
        }
    }
}
