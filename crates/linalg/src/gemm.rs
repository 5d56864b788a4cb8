//! General matrix multiplication kernels.
//!
//! These are the CPU reference kernels underlying the batched GEMM layer.
//! `gemm` is a cache-blocked triple loop in `jki` order (column-major
//! friendly: the innermost loop streams down contiguous columns of `A` and
//! `C`). The `gram` and `apply_right` helpers are the two GEMM shapes that
//! dominate the W-cycle workflow (Algorithm 1, lines 5 and 7).

use crate::isa::Isa;
use crate::matrix::Matrix;
use crate::twin_kernel;

/// Operation applied to a GEMM operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the matrix as stored.
    NoTrans,
    /// Use the transpose of the stored matrix.
    Trans,
}

impl Op {
    fn dims(self, m: &Matrix) -> (usize, usize) {
        match self {
            Op::NoTrans => (m.rows(), m.cols()),
            Op::Trans => (m.cols(), m.rows()),
        }
    }
}

/// Cache-block edge for the k dimension.
const KC: usize = 256;

/// `C = alpha * op_a(A) * op_b(B) + beta * C`.
///
/// Panics on dimension mismatch.
pub fn gemm(alpha: f64, a: &Matrix, op_a: Op, b: &Matrix, op_b: Op, beta: f64, c: &mut Matrix) {
    gemm_on(Isa::detect(), alpha, a, op_a, b, op_b, beta, c);
}

/// [`gemm`] on the given build (both builds return the same bits).
#[allow(clippy::too_many_arguments)]
pub fn gemm_on(
    isa: Isa,
    alpha: f64,
    a: &Matrix,
    op_a: Op,
    b: &Matrix,
    op_b: Op,
    beta: f64,
    c: &mut Matrix,
) {
    let (m, ka) = op_a.dims(a);
    let (kb, n) = op_b.dims(b);
    assert_eq!(ka, kb, "gemm inner dimensions differ: {ka} vs {kb}");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");
    let k = ka;

    if beta != 1.0 {
        if beta == 0.0 {
            c.as_mut_slice().fill(0.0);
        } else {
            c.scale(beta);
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    // Materialize op_a(A) column-major once when A is transposed so the inner
    // loops always stream contiguous columns.
    let a_eff;
    let a_ref = match op_a {
        Op::NoTrans => a,
        Op::Trans => {
            a_eff = a.transpose();
            &a_eff
        }
    };

    accumulate(isa, alpha, a_ref, b, op_b, c);
}

twin_kernel! {
    /// `C += alpha * A * op_b(B)` for column-major `A`, skipping every zero
    /// `b_pj`; each element of `C` accumulates its terms in `p` order.
    fn accumulate(alpha: f64, a: &Matrix, b: &Matrix, op_b: Op, c: &mut Matrix) {
        let (k, n) = op_b.dims(b);
        for k0 in (0..k).step_by(KC) {
            let k1 = (k0 + KC).min(k);
            for j in 0..n {
                let c_col = c.col_mut(j);
                for p in k0..k1 {
                    let b_pj = match op_b {
                        Op::NoTrans => b[(p, j)],
                        Op::Trans => b[(j, p)],
                    };
                    if b_pj == 0.0 {
                        continue;
                    }
                    let s = alpha * b_pj;
                    for (ci, &ai) in c_col.iter_mut().zip(a.col(p)) {
                        *ci += s * ai;
                    }
                }
            }
        }
    }
}

/// Convenience: `A * B` as a fresh matrix.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(1.0, a, Op::NoTrans, b, Op::NoTrans, 0.0, &mut c);
    c
}

/// Gram matrix `B = A^T A` (first batched GEMM of each W-cycle level).
///
/// Exploits symmetry: only the upper triangle is computed, then mirrored.
pub fn gram(a: &Matrix) -> Matrix {
    gram_on(Isa::detect(), a)
}

twin_kernel! {
    /// [`gram`] on the given build (both builds return the same bits).
    pub fn gram_on(a: &Matrix) -> Matrix {
        let n = a.cols();
        let mut b = Matrix::zeros(n, n);
        let mut put = |i: usize, j: usize, s: f64| {
            b[(i, j)] = s;
            b[(j, i)] = s;
        };
        for j in 0..n {
            let aj = a.col(j);
            // Four entries of column j per pass, one accumulation chain each.
            let mut i = 0;
            while i + 4 <= j + 1 {
                let s = dot4(
                    [a.col(i), a.col(i + 1), a.col(i + 2), a.col(i + 3)],
                    [aj; 4],
                );
                for (d, s) in s.into_iter().enumerate() {
                    put(i + d, j, s);
                }
                i += 4;
            }
            for i in i..=j {
                put(i, j, dot(a.col(i), aj));
            }
        }
        b
    }
}

/// In-place right update `A <- A * J` (second batched GEMM of each level).
pub fn apply_right(a: &mut Matrix, j: &Matrix) {
    assert_eq!(a.cols(), j.rows());
    let result = matmul(a, j);
    *a = result;
}

/// Dot product of two equal-length slices, accumulated in index order.
///
/// Panics if the lengths differ.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot of slices with different lengths");
    x.iter().zip(y).fold(0.0, |s, (a, b)| s + a * b)
}

/// Four dot products `x[d] · y[d]`, each bit-identical to [`dot`]: the four
/// accumulation chains are interleaved element by element so they overlap
/// in the pipeline, but each still sums its own terms in index order.
///
/// Panics unless all eight slices have the same length.
#[inline]
pub fn dot4(x: [&[f64]; 4], y: [&[f64]; 4]) -> [f64; 4] {
    let [x0, x1, x2, x3] = x;
    let [y0, y1, y2, y3] = y;
    let len = x0.len();
    assert!(
        [x1, x2, x3, y0, y1, y2, y3].iter().all(|v| v.len() == len),
        "dot4 of slices with different lengths"
    );
    // Re-slicing to `len` lets the compiler drop the per-element bounds checks.
    let (x0, x1, x2, x3) = (&x0[..len], &x1[..len], &x2[..len], &x3[..len]);
    let (y0, y1, y2, y3) = (&y0[..len], &y1[..len], &y2[..len], &y3[..len]);
    let mut s = [0.0; 4];
    for r in 0..len {
        s[0] += x0[r] * y0[r];
        s[1] += x1[r] * y1[r];
        s[2] += x2[r] * y2[r];
        s[3] += x3[r] * y3[r];
    }
    s
}

/// FLOP count of `C += op(A)*op(B)` with inner dimension `k`: one FMA per
/// `m*n*k` (counted as 2 floating point ops, the convention of the paper's
/// `num_FMA` model in §IV-D2 uses FMA instructions; we expose both).
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * (m as u64) * (n as u64) * (k as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        a.shape() == b.shape() && a.sub(b).max_abs() < tol
    }

    #[test]
    fn small_matmul() {
        let a = Matrix::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_rows(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        let expect = Matrix::from_rows(2, 2, &[58., 64., 139., 154.]);
        assert!(approx_eq(&c, &expect, 1e-12));
    }

    #[test]
    fn gemm_trans_a() {
        let a = Matrix::from_rows(3, 2, &[1., 4., 2., 5., 3., 6.]);
        let b = Matrix::from_rows(3, 2, &[7., 10., 8., 11., 9., 12.]);
        let mut c = Matrix::zeros(2, 2);
        gemm(1.0, &a, Op::Trans, &b, Op::NoTrans, 0.0, &mut c);
        // A^T is [[1,2,3],[4,5,6]]
        let expect = Matrix::from_rows(2, 2, &[50., 68., 122., 167.]);
        assert!(approx_eq(&c, &expect, 1e-12));
    }

    #[test]
    fn gemm_trans_b() {
        let a = Matrix::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_rows(2, 3, &[7., 9., 11., 8., 10., 12.]);
        let mut c = Matrix::zeros(2, 2);
        gemm(1.0, &a, Op::NoTrans, &b, Op::Trans, 0.0, &mut c);
        let expect = Matrix::from_rows(2, 2, &[58., 64., 139., 154.]);
        assert!(approx_eq(&c, &expect, 1e-12));
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(2, 2, &[1., 2., 3., 4.]);
        let mut c = Matrix::from_rows(2, 2, &[10., 10., 10., 10.]);
        gemm(2.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.5, &mut c);
        let expect = Matrix::from_rows(2, 2, &[7., 9., 11., 13.]);
        assert!(approx_eq(&c, &expect, 1e-12));
    }

    #[test]
    fn gram_matches_explicit() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i + 1) * (j + 2)) as f64 / 7.0);
        let g = gram(&a);
        let mut g2 = Matrix::zeros(3, 3);
        gemm(1.0, &a, Op::Trans, &a, Op::NoTrans, 0.0, &mut g2);
        assert!(approx_eq(&g, &g2, 1e-12));
        // Symmetry.
        assert!(approx_eq(&g, &g.transpose(), 0.0 + f64::EPSILON));
    }

    #[test]
    fn apply_right_identity_is_noop() {
        let mut a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let orig = a.clone();
        apply_right(&mut a, &Matrix::identity(3));
        assert!(approx_eq(&a, &orig, 1e-15));
    }

    #[test]
    fn blocked_k_matches_unblocked() {
        // k larger than KC exercises the k-blocking path.
        let k = KC + 17;
        let a = Matrix::from_fn(4, k, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(k, 3, |i, j| ((i * 5 + j * 11) % 17) as f64 - 8.0);
        let c = matmul(&a, &b);
        let mut expect = Matrix::zeros(4, 3);
        for i in 0..4 {
            for j in 0..3 {
                let mut s = 0.0;
                for p in 0..k {
                    s += a[(i, p)] * b[(p, j)];
                }
                expect[(i, j)] = s;
            }
        }
        assert!(approx_eq(&c, &expect, 1e-9));
    }

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1., 2., 3.], &[4., 5., 6.]), 32.0);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn dot_rejects_a_longer_y() {
        dot(&[1., 2.], &[4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn dot_rejects_a_shorter_y() {
        dot(&[1., 2., 3.], &[4., 5.]);
    }

    #[test]
    fn dot4_matches_dot_bitwise() {
        let cols: Vec<Vec<f64>> = (0..8)
            .map(|c| {
                (0..37)
                    .map(|r| ((r * 7 + c * 13) % 11) as f64 / 3.0 - 1.7)
                    .collect()
            })
            .collect();
        let x = [&cols[0][..], &cols[1], &cols[2], &cols[3]];
        let y = [&cols[4][..], &cols[5], &cols[6], &cols[7]];
        let got = dot4(x, y);
        for d in 0..4 {
            assert_eq!(got[d].to_bits(), dot(x[d], y[d]).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn dot4_rejects_mixed_lengths() {
        let (a, b) = ([1.0; 3], [1.0; 2]);
        dot4([&a, &a, &a, &a], [&a, &a, &b, &a]);
    }

    #[test]
    fn flops_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }
}
