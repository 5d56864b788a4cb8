//! Shared-memory footprint predicates.
//!
//! Algorithm 2 branches on whether the SVD of `A_ij` (line 8) or the EVD of
//! `B_ij` (line 10) "can be accomplished entirely within SM". These
//! functions compute the exact working-set of the corresponding kernels; the
//! kernels allocate through the capacity-enforced arena, so a predicate that
//! under-estimates fails loudly in tests rather than silently mis-modelling.

use wsvd_gpu_sim::{BarrierDiscipline, KernelResource};

/// `f64` elements needed by the SM one-sided Jacobi SVD kernel on an
/// `m x n` matrix.
///
/// * Tall/square (`m >= n`): the matrix (`m*n`), the accumulated right
///   singular matrix `V` (`n*n`, needed because the W-cycle consumes
///   `J_ij = V`), and two cached-norm vectors (`2n`).
/// * Wide (`m < n`): the kernel decomposes `A^T` instead (§IV-B); `J` is
///   then read off the *converged columns* of `A^T`, so no `n*n` buffer is
///   needed — the footprint is `n*m + m*m + 2m`, the small `m*m` buffer
///   accumulating `V` of `A^T` (which is `U` of `A`).
pub fn svd_smem_elems(m: usize, n: usize) -> usize {
    if m >= n {
        m * n + n * n + 2 * n
    } else {
        // Transposed problem: matrix + (small) left accumulation + norms.
        n * m + m * m + 2 * m
    }
}

/// `f64` elements needed by the SM two-sided Jacobi EVD kernel on an
/// `s x s` symmetric matrix: `B` itself, the accumulated eigenvector matrix
/// `J`, a half-matrix staging buffer for the parallel all-element update
/// (the kernel double-buffers one panel at a time; per-element reads of the
/// old values stage through it), and the per-step rotation parameters
/// (`2s`). This budget reproduces the paper's Observation-2 boundary: with
/// 48 KiB, an EVD of `2w x 2w` fits for `w <= 24` and overflows at `w = 25`.
pub fn evd_smem_elems(s: usize) -> usize {
    2 * s * s + (s * s) / 2 + 2 * s
}

/// Whether the SM SVD kernel fits an `m x n` matrix in `smem_bytes`.
pub fn svd_fits_in_sm(m: usize, n: usize, smem_bytes: usize) -> bool {
    svd_smem_elems(m, n) * 8 <= smem_bytes
}

/// Whether the SM EVD kernel fits an `s x s` matrix in `smem_bytes`.
pub fn evd_fits_in_sm(s: usize, smem_bytes: usize) -> bool {
    evd_smem_elems(s) * 8 <= smem_bytes
}

/// Largest column-block width `w` such that the EVD of the `2w x 2w` Gram
/// matrix fits in SM — the constraint that terminates the W-cycle recursion
/// (Setup step of Algorithm 2: "EVD of any `2w_L x 2w_L` matrix can be
/// implemented entirely in SM at Level L").
pub fn max_w_for_evd(smem_bytes: usize) -> usize {
    let mut w = 1;
    while evd_fits_in_sm(2 * (w + 1), smem_bytes) {
        w += 1;
    }
    w
}

/// Resource-IR descriptor for the SM one-sided Jacobi SVD kernel on an
/// `m x n` matrix: the [`svd_smem_elems`] working set and whole-block
/// uniform barriers (every lane reaches every `sync_threads`).
pub fn svd_kernel_resource(m: usize, n: usize, threads: usize) -> KernelResource {
    KernelResource::from_elems(
        format!("sm-svd {m}x{n}"),
        svd_smem_elems(m, n),
        threads,
        BarrierDiscipline::Uniform,
    )
}

/// Resource-IR descriptor for the SM two-sided Jacobi EVD kernel on an
/// `s x s` symmetric matrix ([`evd_smem_elems`] working set).
pub fn evd_kernel_resource(s: usize, threads: usize) -> KernelResource {
    KernelResource::from_elems(
        format!("sm-evd {s}x{s}"),
        evd_smem_elems(s),
        threads,
        BarrierDiscipline::Uniform,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SM48K: usize = 48 * 1024;

    #[test]
    fn paper_observation_2_w24_boundary() {
        // Observation 2 / Fig. 2: for 1536-row matrices, w > 24 means
        // neither the SVD of A_ij (1536 x 2w) nor the EVD of B_ij (2w x 2w)
        // fits in 48 KiB.
        assert!(evd_fits_in_sm(48, SM48K), "EVD of 48x48 must fit");
        assert!(!evd_fits_in_sm(2 * 25, SM48K), "EVD of 50x50 must not fit");
        assert!(
            !svd_fits_in_sm(1536, 48, SM48K),
            "SVD of 1536x48 must not fit"
        );
        assert!(!svd_fits_in_sm(1536, 50, SM48K));
    }

    #[test]
    fn paper_example_32x1024_with_w48() {
        // §III-A: for A^1 of size 32x1024 one may take w_1 = 48; the SVD of
        // the wide 32x96 pair block runs in SM via the transpose trick.
        assert!(svd_fits_in_sm(32, 96, SM48K));
    }

    #[test]
    fn small_matrices_fit() {
        assert!(svd_fits_in_sm(32, 32, SM48K));
        assert!(svd_fits_in_sm(8, 32, SM48K));
        assert!(evd_fits_in_sm(32, SM48K));
    }

    #[test]
    fn huge_matrices_do_not_fit() {
        assert!(!svd_fits_in_sm(1024, 1024, SM48K));
        assert!(!evd_fits_in_sm(1024, SM48K));
    }

    #[test]
    fn max_w_is_consistent() {
        let w = max_w_for_evd(SM48K);
        assert!(evd_fits_in_sm(2 * w, SM48K));
        assert!(!evd_fits_in_sm(2 * (w + 1), SM48K));
        // 2.5*(2w)^2 + 4w elems in 6144: the paper's w = 24 boundary.
        assert_eq!(w, 24);
    }

    #[test]
    fn wide_footprint_smaller_than_naive() {
        // A 32x96 block: naive (accumulating a 96x96 V) would need
        // 32*96 + 96*96 + 192 elems = 12k+ elems > 48 KiB; the transpose
        // path needs 96*32 + 32*32 + 64.
        assert!(svd_smem_elems(32, 96) < 32 * 96 + 96 * 96 + 2 * 96);
        assert_eq!(svd_smem_elems(32, 96), 96 * 32 + 32 * 32 + 64);
    }
}
