//! Bit-level pins of the host bodies of the Jacobi and GEMM kernels.
//!
//! Every output bit of the one-sided SVD kernel, the two-sided EVD kernel
//! and the `gemm`/`gram` loops is folded into an FNV-1a fingerprint and
//! compared with a value recorded before the kernels were restructured for
//! speed. A mismatch means an optimisation reassociated a sum, contracted a
//! multiply-add or reordered a skip rule. When the CPU has AVX2, each case
//! also runs on the portable build of the same kernels and must give the
//! same bits as the dispatched build.

use wsvd_gpu_sim::{BlockCtx, Gpu, KernelConfig, V100};
use wsvd_jacobi::evd::{evd_in_block_on, EvdConfig, EvdVariant};
use wsvd_jacobi::onesided::{svd_in_block_on, MemSpace, OneSidedConfig};
use wsvd_linalg::gemm::{gemm_on, gram_on, Op};
use wsvd_linalg::generate::{random_symmetric, random_uniform};
use wsvd_linalg::isa::Isa;
use wsvd_linalg::Matrix;

/// Fingerprints recorded from the kernels before their host loops were
/// split into phases and compiled twice.
const PINNED: [(&str, u64); 20] = [
    ("svd tall 24x10", 0x5f9b2e3ceb8d79af),
    ("svd square 16x16", 0xbb0756a960cd2ba5),
    ("svd wide 7x19", 0xca745fe3417a99c6),
    ("svd tall 35x30", 0xacf2e6022b3e103e),
    ("svd rank-deficient", 0x13b00555313cc2d6),
    ("svd no-cache 12x12", 0x9702072f2f35014e),
    ("svd no-cache rank-deficient", 0x590d03debcdb5730),
    ("svd global tall 18x9", 0x003c78c0cc4a82de),
    ("svd global wide 6x11", 0x9fcaf5b48784f471),
    ("evd parallel 16", 0x514a9ff7bcf71f19),
    ("evd sequential 16", 0x2cd6e00fa3293075),
    ("evd parallel sparse 11", 0x2e3f4cfe6f410bc5),
    ("evd sequential sparse 11", 0x99b866a54d15e5a9),
    ("gemm nn", 0xfddf28be7fb2c520),
    ("gemm tn alpha beta", 0x557fc2d79307e09e),
    ("gemm nt beta one", 0xf0476216e0dc03af),
    ("gemm k above block edge", 0x40f8f8f042f4a481),
    ("gemm zero skip with infinite A", 0xfddf28be7fb2c520),
    ("gram tall", 0x58acaa28a10802a4),
    ("gram wide", 0x3ae1ec55f1ac4ff2),
];

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

/// Runs `body` as the only block of a one-block launch and fingerprints the
/// launch's simulated counters alongside whatever `body` hashed.
fn in_block(smem: usize, body: impl Fn(&mut BlockCtx, &mut Fnv) + Sync) -> u64 {
    let gpu = Gpu::new(V100);
    let kc = KernelConfig::new(1, 128, smem, "kernel-bits");
    let (mut out, stats) = gpu
        .launch_collect(kc, |_, ctx| {
            let mut h = Fnv::new();
            body(ctx, &mut h);
            Ok(h.0)
        })
        .unwrap();
    let mut h = Fnv(out.pop().unwrap());
    h.text(&format!("{:?}", stats.totals));
    h.word(stats.kernel_seconds.to_bits());
    h.0
}

/// A 20 x 12 matrix of rank 5 whose columns 3 and 8 are exactly zero, so the
/// kernel's deflation rule skips every pair that touches them.
fn rank_deficient() -> Matrix {
    let left = random_uniform(20, 5, 61);
    let right = random_uniform(5, 12, 62);
    let mut a = wsvd_linalg::matmul(&left, &right);
    a.col_mut(3).fill(0.0);
    a.col_mut(8).fill(0.0);
    a
}

fn svd_case(isa: Isa, a: &Matrix, cfg: OneSidedConfig, space: MemSpace) -> u64 {
    let smem = if space == MemSpace::Shared {
        48 * 1024
    } else {
        0
    };
    in_block(smem, |ctx, h| {
        let svd = svd_in_block_on(isa, a, &cfg, ctx, space).unwrap();
        h.floats(&svd.sigma);
        h.floats(svd.u.as_slice());
        h.floats(svd.v.as_slice());
        h.floats(&svd.coherence_per_sweep);
        let s = svd.stats;
        for w in [
            s.sweeps as u64,
            s.rotations,
            s.dots_computed,
            s.dots_avoided,
            u64::from(s.converged),
        ] {
            h.word(w);
        }
    })
}

fn evd_case(isa: Isa, b: &Matrix, variant: EvdVariant) -> u64 {
    in_block(48 * 1024, |ctx, h| {
        let cfg = EvdConfig {
            variant,
            ..Default::default()
        };
        let evd = evd_in_block_on(isa, b, &cfg, ctx).unwrap();
        h.floats(&evd.lambda);
        h.floats(evd.j.as_slice());
        h.word(evd.sweeps as u64);
        h.word(u64::from(evd.converged));
    })
}

/// Zeroes every third entry (column-major order) so the GEMM loops take
/// their `b_pj == 0.0` skip.
fn with_zeros(mut m: Matrix) -> Matrix {
    for (k, x) in m.as_mut_slice().iter_mut().enumerate() {
        if k % 3 == 0 {
            *x = 0.0;
        }
    }
    m
}

#[allow(clippy::too_many_arguments)]
fn gemm_case(
    isa: Isa,
    alpha: f64,
    a: &Matrix,
    op_a: Op,
    b: &Matrix,
    op_b: Op,
    beta: f64,
    c0: &Matrix,
) -> u64 {
    let mut c = c0.clone();
    gemm_on(isa, alpha, a, op_a, b, op_b, beta, &mut c);
    let mut h = Fnv::new();
    h.floats(c.as_slice());
    h.0
}

fn gram_case(isa: Isa, a: &Matrix) -> u64 {
    let mut h = Fnv::new();
    h.floats(gram_on(isa, a).as_slice());
    h.0
}

/// Every pinned case, by name, as fingerprinted on the given build.
fn cases(isa: Isa) -> Vec<(&'static str, u64)> {
    let dflt = OneSidedConfig::default();
    let no_cache = OneSidedConfig {
        cache_norms: false,
        ..dflt
    };
    let sh = MemSpace::Shared;
    let gm = MemSpace::Global;
    let deficient = rank_deficient();
    let sym = random_symmetric(16, 71);
    let mut sparse_sym = random_symmetric(11, 72);
    for (i, j) in [(0, 5), (2, 9), (4, 7), (1, 10)] {
        sparse_sym[(i, j)] = 0.0;
        sparse_sym[(j, i)] = 0.0;
    }
    let ga = random_uniform(13, 9, 81);
    let gb = with_zeros(random_uniform(9, 7, 82));
    let gbt = with_zeros(random_uniform(7, 9, 83));
    let gat = random_uniform(9, 13, 84);
    let gc = random_uniform(13, 7, 85);
    let deep_a = random_uniform(6, 300, 86);
    let mut inf_a = ga.clone();
    inf_a[(5, 3)] = f64::INFINITY;
    let deep_b = with_zeros(random_uniform(300, 5, 87));
    vec![
        (
            "svd tall 24x10",
            svd_case(isa, &random_uniform(24, 10, 101), dflt, sh),
        ),
        (
            "svd square 16x16",
            svd_case(isa, &random_uniform(16, 16, 102), dflt, sh),
        ),
        (
            "svd wide 7x19",
            svd_case(isa, &random_uniform(7, 19, 103), dflt, sh),
        ),
        (
            "svd tall 35x30",
            svd_case(isa, &random_uniform(35, 30, 104), dflt, sh),
        ),
        ("svd rank-deficient", svd_case(isa, &deficient, dflt, sh)),
        (
            "svd no-cache 12x12",
            svd_case(isa, &random_uniform(12, 12, 106), no_cache, sh),
        ),
        (
            "svd no-cache rank-deficient",
            svd_case(isa, &deficient, no_cache, sh),
        ),
        (
            "svd global tall 18x9",
            svd_case(isa, &random_uniform(18, 9, 107), dflt, gm),
        ),
        (
            "svd global wide 6x11",
            svd_case(isa, &random_uniform(6, 11, 108), dflt, gm),
        ),
        ("evd parallel 16", evd_case(isa, &sym, EvdVariant::Parallel)),
        (
            "evd sequential 16",
            evd_case(isa, &sym, EvdVariant::Sequential),
        ),
        (
            "evd parallel sparse 11",
            evd_case(isa, &sparse_sym, EvdVariant::Parallel),
        ),
        (
            "evd sequential sparse 11",
            evd_case(isa, &sparse_sym, EvdVariant::Sequential),
        ),
        (
            "gemm nn",
            gemm_case(isa, 1.0, &ga, Op::NoTrans, &gb, Op::NoTrans, 0.0, &gc),
        ),
        (
            "gemm tn alpha beta",
            gemm_case(isa, -0.75, &gat, Op::Trans, &gb, Op::NoTrans, 0.5, &gc),
        ),
        (
            "gemm nt beta one",
            gemm_case(isa, 1.25, &ga, Op::NoTrans, &gbt, Op::Trans, 1.0, &gc),
        ),
        (
            "gemm k above block edge",
            gemm_case(
                isa,
                1.0,
                &deep_a,
                Op::NoTrans,
                &deep_b,
                Op::NoTrans,
                0.0,
                &Matrix::zeros(6, 5),
            ),
        ),
        // Row 3 of `gb` is all zeros, so column 3 of A is skipped and its
        // infinity never reaches C: the same bits as "gemm nn".
        (
            "gemm zero skip with infinite A",
            gemm_case(isa, 1.0, &inf_a, Op::NoTrans, &gb, Op::NoTrans, 0.0, &gc),
        ),
        (
            "gram tall",
            gram_case(isa, &with_zeros(random_uniform(29, 11, 91))),
        ),
        ("gram wide", gram_case(isa, &random_uniform(5, 14, 92))),
    ]
}

fn assert_pinned(isa: Isa) {
    let got = cases(isa);
    assert_eq!(got.len(), PINNED.len());
    for ((name, fp), (want_name, want)) in got.into_iter().zip(PINNED) {
        assert_eq!(name, want_name);
        assert_eq!(
            fp, want,
            "{name} on {isa:?}: 0x{fp:016x}, pinned 0x{want:016x}"
        );
    }
}

#[test]
fn dispatched_kernels_match_pinned_bits() {
    assert_pinned(Isa::detect());
}

#[test]
fn portable_kernels_match_pinned_bits() {
    assert_pinned(Isa::PORTABLE);
}

#[test]
fn dispatched_and_portable_builds_agree() {
    let isa = Isa::detect();
    if !isa.is_avx2() {
        return; // one build only: the pinned tests cover it
    }
    // Shapes beyond the pinned set: every step size of the round-robin
    // schedule from 2 to 24 columns, tall and wide.
    for n in 2usize..=24 {
        for (m, seed) in [
            (n + 3, 500 + n as u64),
            (n.saturating_sub(3).max(1), 600 + n as u64),
        ] {
            let a = random_uniform(m, n, seed);
            let cfg = OneSidedConfig::default();
            assert_eq!(
                svd_case(isa, &a, cfg, MemSpace::Shared),
                svd_case(Isa::PORTABLE, &a, cfg, MemSpace::Shared),
                "svd {m}x{n}"
            );
            assert_eq!(
                gram_case(isa, &a),
                gram_case(Isa::PORTABLE, &a),
                "gram {m}x{n}"
            );
        }
        let b = random_symmetric(n, 700 + n as u64);
        assert_eq!(
            evd_case(isa, &b, EvdVariant::Parallel),
            evd_case(Isa::PORTABLE, &b, EvdVariant::Parallel),
            "evd {n}"
        );
    }
}

#[test]
fn rank_deficient_case_deflates() {
    // With cached norms a sweep computes n norms plus one dot per live
    // pair; deflated pairs skip theirs, so fewer dots than a full sweep.
    let a = rank_deficient();
    let gpu = Gpu::new(V100);
    let kc = KernelConfig::new(1, 128, 48 * 1024, "deflation");
    let (mut out, _) = gpu
        .launch_collect(kc, |_, ctx| {
            svd_in_block_on(
                Isa::detect(),
                &a,
                &OneSidedConfig::default(),
                ctx,
                MemSpace::Shared,
            )
        })
        .unwrap();
    let s = out.pop().unwrap().stats;
    let n = a.cols() as u64;
    let full = s.sweeps as u64 * (n + n * (n - 1) / 2);
    assert!(s.dots_computed < full, "{s:?}");
}
