//! Property-based tests of the Jacobi kernels against the two-stage oracle.

use proptest::prelude::*;
use wsvd_gpu_sim::{Gpu, KernelConfig, V100};
use wsvd_jacobi::evd::{evd_in_block, EvdConfig, EvdVariant};
use wsvd_jacobi::onesided::{svd_in_block, MemSpace, OneSidedConfig};
use wsvd_linalg::generate::{random_symmetric, random_uniform};
use wsvd_linalg::svd::evd_residual;
use wsvd_linalg::verify::orthonormality_error;
use wsvd_linalg::{singular_values, Matrix};

fn run_svd(a: &Matrix, cfg: &OneSidedConfig, space: MemSpace) -> wsvd_jacobi::JacobiSvd {
    let gpu = Gpu::new(V100);
    let smem = if space == MemSpace::Shared {
        48 * 1024
    } else {
        0
    };
    let kc = KernelConfig::new(1, 128, smem, "prop-svd");
    gpu.launch_collect(kc, |_, ctx| svd_in_block(a, cfg, ctx, space))
        .unwrap()
        .0
        .pop()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn sm_svd_matches_oracle(m in 1usize..28, n in 1usize..28, seed in any::<u64>()) {
        let a = random_uniform(m, n, seed);
        let svd = run_svd(&a, &OneSidedConfig::default(), MemSpace::Shared);
        prop_assert!(svd.stats.converged);
        let want = singular_values(&a).unwrap();
        for (g, w) in svd.sigma.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-8 * (1.0 + w), "{} vs {}", g, w);
        }
        prop_assert!(orthonormality_error(&svd.u) < 1e-8);
        prop_assert!(orthonormality_error(&svd.v) < 1e-8);
    }

    #[test]
    fn gm_and_sm_kernels_agree(m in 2usize..20, n in 2usize..16, seed in any::<u64>()) {
        let a = random_uniform(m, n, seed);
        let sm = run_svd(&a, &OneSidedConfig::default(), MemSpace::Shared);
        let gm = run_svd(&a, &OneSidedConfig::default(), MemSpace::Global);
        for (x, y) in sm.sigma.iter().zip(&gm.sigma) {
            prop_assert!((x - y).abs() < 1e-12 * (1.0 + y), "kernels disagree");
        }
    }

    #[test]
    fn alpha_width_never_changes_numerics(
        m in 4usize..24, seed in any::<u64>(), tpp_idx in 0usize..4
    ) {
        let tpp = [4usize, 8, 16, 32][tpp_idx];
        let a = random_uniform(m, m.min(12), seed);
        let base = run_svd(&a, &OneSidedConfig::default(), MemSpace::Shared);
        let cfg = OneSidedConfig { threads_per_pair: tpp, ..Default::default() };
        let other = run_svd(&a, &cfg, MemSpace::Shared);
        prop_assert_eq!(base.sigma.len(), other.sigma.len());
        for (x, y) in base.sigma.iter().zip(&other.sigma) {
            prop_assert!((x - y).abs() < 1e-13 * (1.0 + y), "α changed the math");
        }
    }

    #[test]
    fn evd_variants_agree_and_decompose(s in 2usize..24, seed in any::<u64>()) {
        let b = random_symmetric(s, seed);
        let gpu = Gpu::new(V100);
        let kc = KernelConfig::new(1, 256, 48 * 1024, "prop-evd");
        let run = |variant| {
            gpu.launch_collect(kc, |_, ctx| {
                evd_in_block(&b, &EvdConfig { variant, ..Default::default() }, ctx)
            })
            .unwrap()
            .0
            .pop()
            .unwrap()
        };
        let par = run(EvdVariant::Parallel);
        let seq = run(EvdVariant::Sequential);
        prop_assert!(par.converged && seq.converged);
        prop_assert!(evd_residual(&b, &par.j, &par.lambda) < 1e-9);
        prop_assert!(evd_residual(&b, &seq.j, &seq.lambda) < 1e-9);
        for (x, y) in par.lambda.iter().zip(&seq.lambda) {
            prop_assert!((x - y).abs() < 1e-8 * (1.0 + y.abs()));
        }
        // Eigenvalue sum equals the trace.
        let trace: f64 = b.diag().iter().sum();
        let lsum: f64 = par.lambda.iter().sum();
        prop_assert!((trace - lsum).abs() < 1e-9 * (1.0 + trace.abs()));
    }

    #[test]
    fn round_robin_passes_the_static_checker(n in 2usize..=32) {
        use wsvd_jacobi::verify::verify_round_robin;
        let proof = verify_round_robin(n);
        prop_assert!(proof.is_ok(), "n={} rejected: {}", n, proof.unwrap_err());
        let proof = proof.unwrap();
        prop_assert_eq!(proof.pairs, n * (n - 1) / 2);
        prop_assert!(proof.max_step_width <= n / 2);
        prop_assert!(proof.steps >= n - 1, "a sweep needs at least n-1 steps");
    }

    #[test]
    fn sanitized_sm_svd_is_hazard_free(m in 2usize..24, n in 2usize..16, seed in any::<u64>()) {
        use wsvd_gpu_sim::SanitizeMode;
        let a = random_uniform(m, n, seed);
        let gpu = Gpu::with_sanitize(V100, SanitizeMode::Full);
        let kc = KernelConfig::new(1, 128, 48 * 1024, "prop-sanitized-svd");
        gpu.launch_collect(kc, |_, ctx| {
            svd_in_block(&a, &OneSidedConfig::default(), ctx, MemSpace::Shared)
        })
        .unwrap();
        let report = gpu.sanitizer_report();
        prop_assert!(report.is_clean(), "{}x{}: {:?}", m, n, report.violations);
    }

    #[test]
    fn svd_energy_identity(m in 2usize..20, n in 2usize..16, seed in any::<u64>()) {
        let a = random_uniform(m, n, seed);
        let svd = run_svd(&a, &OneSidedConfig::default(), MemSpace::Shared);
        let sum_sq: f64 = svd.sigma.iter().map(|s| s * s).sum();
        let fro2 = a.fro_norm().powi(2);
        prop_assert!((sum_sq - fro2).abs() < 1e-9 * (1.0 + fro2));
    }
}
