//! Two-sided Jacobi EVD kernels for symmetric matrices (§II-D, §IV-C).
//!
//! The W-cycle needs the eigendecomposition `B_ij = J Λ J^T` of the Gram
//! matrix whenever a pair block is too large for the SM SVD kernel but its
//! (much smaller, `2w x 2w`) Gram matrix still fits. Two kernels are
//! provided:
//!
//! * [`EvdVariant::Sequential`] — the textbook cyclic two-sided Jacobi:
//!   eliminations are serialized because each updates two full rows *and*
//!   two full columns (at most `4s` active threads — Challenge 1);
//! * [`EvdVariant::Parallel`] — the paper's kernel: a round-robin step
//!   selects `s/2` disjoint pairs, all rotations are computed from the
//!   current `B`, and the whole update `B̂ = G^T B G` is evaluated
//!   element-wise as `b̂_xy = x^T B y` (6 multiplications + 3 additions per
//!   element, Fig. 5), so every element of `B̂` is written in parallel.

use wsvd_gpu_sim::{BlockCtx, KernelError, SmemBuf};
use wsvd_linalg::givens::{two_sided_rotation, Rotation};
use wsvd_linalg::isa::Isa;
use wsvd_linalg::{twin_kernel, Matrix};

use crate::ordering::round_robin;

/// Shared-memory placement of the EVD kernel's working set, used by the
/// hazard sanitizer to attribute lane accesses to the real buffers.
struct EvdSmemLayout<'a> {
    /// The symmetric working matrix `B` (`s x s`).
    b: &'a SmemBuf,
    /// The accumulated eigenvector matrix `J` (`s x s`).
    j: &'a SmemBuf,
    /// Half-matrix panel staging for the parallel update (`s*s/2`).
    scratch: &'a SmemBuf,
    /// Per-step rotation parameters (`2s`).
    rots: &'a SmemBuf,
}

/// Which EVD kernel to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvdVariant {
    /// Serialized eliminations (the baseline of Fig. 10(b)).
    Sequential,
    /// Parallel all-element update (the paper's design).
    Parallel,
}

/// Configuration of the two-sided Jacobi EVD kernel.
#[derive(Clone, Copy, Debug)]
pub struct EvdConfig {
    /// Stop when `off(B) <= tol * ||B||_F`.
    pub tol: f64,
    /// Sweep cap.
    pub max_sweeps: usize,
    /// Kernel variant.
    pub variant: EvdVariant,
}

impl Default for EvdConfig {
    fn default() -> Self {
        Self {
            tol: 1e-13,
            max_sweeps: 40,
            variant: EvdVariant::Parallel,
        }
    }
}

/// Result of a batched-EVD block: `B = J diag(lambda) J^T`.
#[derive(Debug)]
pub struct JacobiEvd {
    /// Eigenvalues in descending order.
    pub lambda: Vec<f64>,
    /// Orthogonal eigenvector matrix (columns ordered like `lambda`).
    pub j: Matrix,
    /// Sweeps executed.
    pub sweeps: usize,
    /// Whether the off-diagonal tolerance was met.
    pub converged: bool,
}

/// Two-sided Jacobi EVD of one symmetric matrix inside one simulated block.
///
/// The working set (`B`, `J`, a double buffer for the parallel update, and
/// per-step rotation storage) is charged to the block's shared-memory arena;
/// the call fails with [`KernelError::Smem`] if it does not fit — this is
/// the line-10 predicate of Algorithm 2.
pub fn evd_in_block(
    b: &Matrix,
    cfg: &EvdConfig,
    ctx: &mut BlockCtx,
) -> Result<JacobiEvd, KernelError> {
    evd_in_block_on(Isa::detect(), b, cfg, ctx)
}

/// [`evd_in_block`] with its sweeps on the given build (both builds return
/// the same bits).
pub fn evd_in_block_on(
    isa: Isa,
    b: &Matrix,
    cfg: &EvdConfig,
    ctx: &mut BlockCtx,
) -> Result<JacobiEvd, KernelError> {
    let (s, s2) = b.shape();
    assert_eq!(s, s2, "EVD requires a square matrix");
    debug_assert!(
        b.sub(&b.transpose()).max_abs() < 1e-10 * (1.0 + b.max_abs()),
        "EVD input must be symmetric"
    );

    // Charge the SM footprint (matches `fits::evd_smem_elems`).
    let b_buf = ctx.gm_load_to_smem(b.as_slice())?;
    let j_buf = ctx.smem().alloc(s * s)?;
    let scratch = ctx.smem().alloc((s * s) / 2)?; // panel staging for the parallel update
    let rots = ctx.smem().alloc(2 * s)?;
    // Staging barrier: the cooperative GM load completes before any lane
    // reads the SM-resident working set.
    ctx.sync_threads();
    let lay = EvdSmemLayout {
        b: &b_buf,
        j: &j_buf,
        scratch: &scratch,
        rots: &rots,
    };

    let mut work = b.clone();
    let mut j = Matrix::identity(s);
    let (sweeps, converged) = run_sweeps(isa, &mut work, &mut j, cfg, ctx, &lay);
    // Write-back barrier, then the cooperative GM store.
    ctx.sync_threads();
    ctx.count_gm_store(2 * s * s); // write back Λ diagnostics and J

    // Extract and sort eigenvalues (descending), permuting J to match.
    let mut lambda: Vec<f64> = work.diag();
    let mut order: Vec<usize> = (0..s).collect();
    order.sort_by(|&x, &y| lambda[y].total_cmp(&lambda[x]));
    let lambda_sorted: Vec<f64> = order.iter().map(|&i| lambda[i]).collect();
    let mut jp = Matrix::zeros(s, s);
    for (k, &i) in order.iter().enumerate() {
        jp.col_mut(k).copy_from_slice(j.col(i));
    }
    lambda = lambda_sorted;
    Ok(JacobiEvd {
        lambda,
        j: jp,
        sweeps,
        converged,
    })
}

twin_kernel! {
    /// Sweeps `b` towards diagonal form until `off(B) <= tol * ||B||_F` or
    /// the sweep cap, accumulating the rotations into `j`. Returns the sweeps
    /// run and whether the tolerance was met.
    fn run_sweeps(
        b: &mut Matrix,
        j: &mut Matrix,
        cfg: &EvdConfig,
        ctx: &mut BlockCtx,
        lay: &EvdSmemLayout<'_>,
    ) -> (usize, bool) {
        let fro = b.fro_norm().max(f64::MIN_POSITIVE);
        let mut sweeps = 0;
        let mut converged = b.off_diag_norm() <= cfg.tol * fro;
        while !converged && sweeps < cfg.max_sweeps {
            sweeps += 1;
            match cfg.variant {
                EvdVariant::Sequential => sequential_sweep(b, j, ctx, lay),
                EvdVariant::Parallel => parallel_sweep(b, j, ctx, lay),
            }
            converged = b.off_diag_norm() <= cfg.tol * fro;
        }
        (sweeps, converged)
    }
}

/// Classic cyclic sweep: one elimination at a time, rows and columns updated
/// in place. Span: each elimination serializes behind the previous one.
#[inline(always)]
fn sequential_sweep(b: &mut Matrix, j: &mut Matrix, ctx: &mut BlockCtx, lay: &EvdSmemLayout<'_>) {
    let s = b.rows();
    for p in 0..s {
        for q in (p + 1)..s {
            let rot = two_sided_rotation(b[(p, p)], b[(p, q)], b[(q, q)]);
            if rot.is_identity() {
                continue;
            }
            apply_two_sided(b, p, q, rot);
            apply_right_rotation(j, p, q, rot);
            // Cost: each elimination is a serialized dependency chain —
            // the rotation parameters (~20 ops) plus two block-wide barriers
            // before/after the row+column writes (the next elimination reads
            // what this one wrote). Then the 4s row/col elements update with
            // at most 4s active threads (Challenge 1).
            ctx.serial_step(100);
            ctx.team_step(1, (4 * s).min(ctx.threads()), 4 * s, 6);
            ctx.team_step(1, (2 * s).min(ctx.threads()), 2 * s, 6); // J columns
                                                                    // One cooperative group does the whole elimination (lane 0), so
                                                                    // the only hazard to check is the barrier before the next
                                                                    // elimination reads what this one wrote.
            if ctx.sanitizing() {
                ctx.smem_write(0, lay.b, p * s, s);
                ctx.smem_write(0, lay.b, q * s, s);
                ctx.smem_write(0, lay.j, p * s, s);
                ctx.smem_write(0, lay.j, q * s, s);
            }
            ctx.sync_threads();
        }
    }
}

/// The paper's parallel sweep: round-robin steps of disjoint pairs; all
/// rotations of a step are computed from the current `B`, then applied at
/// once via the `x^T B y` element-wise formula.
#[inline(always)]
fn parallel_sweep(b: &mut Matrix, j: &mut Matrix, ctx: &mut BlockCtx, lay: &EvdSmemLayout<'_>) {
    let s = b.rows();
    let schedule = round_robin(s);
    let mut old = b.clone();
    let mut rots: Vec<(usize, usize, Rotation)> = Vec::with_capacity(s / 2);
    let mut partner: Vec<usize> = Vec::with_capacity(s);
    let mut entries: Vec<(f64, f64)> = Vec::with_capacity(s);
    for step in &schedule {
        if step.is_empty() {
            continue;
        }
        // Compute all rotations of the step concurrently from the current B.
        rots.clear();
        rots.extend(
            step.iter()
                .map(|&(p, q)| (p, q, two_sided_rotation(b[(p, p)], b[(p, q)], b[(q, q)]))),
        );
        ctx.team_step(step.len(), 1, 1, 20);
        // Rotation epoch: lane `t` reads its 2x2 pivot block of B and
        // publishes (c, s) into the rotation table.
        if ctx.sanitizing() {
            for (t, &(p, q)) in step.iter().enumerate() {
                ctx.smem_read(t, lay.b, p * s + p, 1);
                ctx.smem_read(t, lay.b, p * s + q, 1);
                ctx.smem_read(t, lay.b, q * s + q, 1);
                ctx.smem_write(t, lay.rots, 2 * t, 2);
            }
        }
        ctx.sync_threads();

        // Element-wise B̂ = G^T B G. Column i of G has entry `entries[i].0`
        // on row i and `entries[i].1` on row `partner[i]` (itself when i is
        // in no pair of the step).
        partner.clear();
        partner.extend(0..s);
        entries.clear();
        entries.resize(s, (1.0, 0.0));
        for &(p, q, r) in &rots {
            partner[p] = q;
            partner[q] = p;
            entries[p] = givens_col_entries(p, q, r);
            entries[q] = givens_col_entries(q, p, r);
        }
        // x-vector for row r of G^T and y-vector for column c of G each have
        // at most 2 non-zeros: 6 multiplications + 3 additions per element.
        old.as_mut_slice().copy_from_slice(b.as_slice());
        for col in 0..s {
            let (cp, (ya, yb)) = (partner[col], entries[col]);
            let (old_c, old_cp) = (old.col(col), old.col(cp));
            for (row, out) in b.col_mut(col).iter_mut().enumerate() {
                let (rp, (xa, xb)) = (partner[row], entries[row]);
                // x^T B y over the at-most-2x2 support (Fig. 5).
                let mut v = xa * ya * old_c[row];
                if cp != col {
                    v += xa * yb * old_cp[row];
                }
                if rp != row {
                    v += xb * ya * old_c[rp];
                    if cp != col {
                        v += xb * yb * old_cp[rp];
                    }
                }
                *out = v;
            }
        }
        ctx.par_step(s * s, 9);
        // The in-place update is staged through the half-matrix scratch
        // panel: each panel pass is two epochs — lanes (one per column) read
        // the pre-panel B plus the rotation table and write their staged
        // column into scratch, sync, then copy the staged column back over B.
        if ctx.sanitizing() {
            let half = (s / 2).max(1);
            let mut panel_start = 0;
            while panel_start < s {
                let panel_end = (panel_start + half).min(s);
                for c in panel_start..panel_end {
                    ctx.smem_read(c, lay.b, 0, s * s);
                    ctx.smem_read(c, lay.rots, 0, 2 * step.len());
                    ctx.smem_write(c, lay.scratch, (c - panel_start) * s, s);
                }
                ctx.sync_threads();
                for c in panel_start..panel_end {
                    ctx.smem_read(c, lay.scratch, (c - panel_start) * s, s);
                    ctx.smem_write(c, lay.b, c * s, s);
                }
                ctx.sync_threads();
                panel_start = panel_end;
            }
        }

        // J <- J * G (disjoint column pairs, all parallel).
        for &(p, q, r) in &rots {
            apply_right_rotation(j, p, q, r);
        }
        ctx.par_step(step.len() * s, 6);
        // J-update epoch: lane `t` owns columns (p, q) of J exclusively.
        if ctx.sanitizing() {
            for (t, &(p, q, _)) in rots.iter().enumerate() {
                ctx.smem_read(t, lay.rots, 2 * t, 2);
                ctx.smem_write(t, lay.j, p * s, s);
                ctx.smem_write(t, lay.j, q * s, s);
            }
        }
        ctx.sync_threads();
    }
}

/// Entries of column `i` of the step's combined Givens matrix `G`:
/// `(G[i, i], G[partner, i])` for the rotation `[[c, -s], [s, c]]` placed on
/// the (min, max) index pair.
#[inline]
fn givens_col_entries(i: usize, partner: usize, r: Rotation) -> (f64, f64) {
    if partner == i {
        return (1.0, 0.0);
    }
    if i < partner {
        // Column i is (c, s) on rows (i, partner).
        (r.c, r.s)
    } else {
        // Column i is (-s, c) on rows (partner, i).
        (r.c, -r.s)
    }
}

/// Applies `B <- G^T B G` for a single rotation on rows/cols `(p, q)`:
/// first `B <- B G` on the two columns, then `B <- G^T B` on the two rows.
#[inline(always)]
fn apply_two_sided(b: &mut Matrix, p: usize, q: usize, r: Rotation) {
    apply_right_rotation(b, p, q, r);
    let s = b.rows();
    let (c, sn) = (r.c, r.s);
    for col in b.as_mut_slice().chunks_exact_mut(s) {
        let (bpj, bqj) = (col[p], col[q]);
        col[p] = c * bpj + sn * bqj;
        col[q] = -sn * bpj + c * bqj;
    }
}

/// Applies `M <- M * G` on columns `(p, q)`.
#[inline(always)]
fn apply_right_rotation(m: &mut Matrix, p: usize, q: usize, r: Rotation) {
    let (cp, cq) = m.col_pair_mut(p, q);
    wsvd_linalg::rotate_columns(r, cp, cq);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_gpu_sim::{Gpu, KernelConfig, V100};
    use wsvd_linalg::generate::{random_spd, random_symmetric};
    use wsvd_linalg::svd::evd_residual;
    use wsvd_linalg::verify::orthonormality_error;

    fn run(b: &Matrix, cfg: &EvdConfig) -> (JacobiEvd, wsvd_gpu_sim::LaunchStats) {
        let gpu = Gpu::new(V100);
        let kc = KernelConfig::new(1, 256, 48 * 1024, "evd");
        let (mut out, stats) = gpu
            .launch_collect(kc, |_, ctx| evd_in_block(b, cfg, ctx))
            .unwrap();
        (out.pop().unwrap(), stats)
    }

    #[test]
    fn parallel_diagonalizes_symmetric() {
        let b = random_symmetric(16, 5);
        let (evd, _) = run(&b, &EvdConfig::default());
        assert!(evd.converged, "did not converge in {} sweeps", evd.sweeps);
        assert!(evd_residual(&b, &evd.j, &evd.lambda) < 1e-10);
        assert!(orthonormality_error(&evd.j) < 1e-10);
        assert!(evd.lambda.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn sequential_diagonalizes_symmetric() {
        let b = random_symmetric(12, 9);
        let (evd, _) = run(
            &b,
            &EvdConfig {
                variant: EvdVariant::Sequential,
                ..Default::default()
            },
        );
        assert!(evd.converged);
        assert!(evd_residual(&b, &evd.j, &evd.lambda) < 1e-10);
    }

    #[test]
    fn variants_agree_on_spectrum() {
        let b = random_symmetric(10, 21);
        let (par, _) = run(&b, &EvdConfig::default());
        let (seq, _) = run(
            &b,
            &EvdConfig {
                variant: EvdVariant::Sequential,
                ..Default::default()
            },
        );
        for (a, c) in par.lambda.iter().zip(&seq.lambda) {
            assert!((a - c).abs() < 1e-9, "{a} vs {c}");
        }
    }

    #[test]
    fn spd_eigenvalues_match_singular_values() {
        let b = random_spd(8, 33);
        let (evd, _) = run(&b, &EvdConfig::default());
        let sv = wsvd_linalg::singular_values(&b).unwrap();
        for (l, s) in evd.lambda.iter().zip(&sv) {
            assert!((l - s).abs() < 1e-10, "{l} vs {s}");
        }
        assert!(evd.lambda.iter().all(|&l| l > -1e-12));
    }

    #[test]
    fn parallel_has_much_shorter_span_than_sequential() {
        // The Fig. 10(b) claim: ~6x for 32x32.
        let b = random_symmetric(32, 41);
        let (_, par) = run(
            &b,
            &EvdConfig {
                max_sweeps: 1,
                tol: 0.0,
                ..Default::default()
            },
        );
        let (_, seq) = run(
            &b,
            &EvdConfig {
                max_sweeps: 1,
                tol: 0.0,
                variant: EvdVariant::Sequential,
            },
        );
        let speedup = seq.totals.span_cycles / par.totals.span_cycles;
        assert!(speedup > 3.0, "span speedup only {speedup:.2}x");
    }

    #[test]
    fn diagonal_matrix_converges_immediately() {
        let b = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let (evd, _) = run(&b, &EvdConfig::default());
        assert_eq!(evd.sweeps, 0);
        assert_eq!(evd.lambda, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn indefinite_matrix_keeps_signs() {
        // Eigenvalues of [[0, 1], [1, 0]] are +1, -1.
        let b = Matrix::from_rows(2, 2, &[0., 1., 1., 0.]);
        let (evd, _) = run(&b, &EvdConfig::default());
        assert!((evd.lambda[0] - 1.0).abs() < 1e-12);
        assert!((evd.lambda[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn sanitized_evd_is_hazard_free() {
        let b = random_symmetric(12, 7);
        for variant in [EvdVariant::Parallel, EvdVariant::Sequential] {
            let gpu = Gpu::with_sanitize(V100, wsvd_gpu_sim::SanitizeMode::Full);
            let kc = KernelConfig::new(1, 256, 48 * 1024, "sanitized-evd");
            let (mut out, _) = gpu
                .launch_collect(kc, |_, ctx| {
                    evd_in_block(
                        &b,
                        &EvdConfig {
                            variant,
                            ..Default::default()
                        },
                        ctx,
                    )
                })
                .unwrap();
            assert!(out.pop().unwrap().converged);
            let rep = gpu.sanitizer_report();
            assert!(rep.is_clean(), "{variant:?}: {:?}", rep.violations);
            assert!(rep.stats.epochs > 0);
        }
    }

    #[test]
    fn too_large_for_sm_fails() {
        let b = random_symmetric(64, 3);
        let gpu = Gpu::new(V100);
        let kc = KernelConfig::new(1, 256, 48 * 1024, "evd-big");
        let err = gpu
            .launch_collect(kc, |_, ctx| evd_in_block(&b, &EvdConfig::default(), ctx))
            .unwrap_err();
        matches!(err, KernelError::Smem(_));
        // And the predicate agrees.
        assert!(!crate::fits::evd_fits_in_sm(64, 48 * 1024));
    }

    #[test]
    fn fits_predicate_matches_kernel_success() {
        let s = 44; // 2w = 44 fits: 3*44^2+88 = 5896 elems < 6144
        assert!(crate::fits::evd_fits_in_sm(s, 48 * 1024));
        let b = random_symmetric(s, 55);
        let (evd, _) = run(&b, &EvdConfig::default());
        assert!(evd.converged);
    }
}
