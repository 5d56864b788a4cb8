//! Column-block primitives shared by every one-sided block-Jacobi driver:
//! the uniform-width baseline (Algorithm 1) and each level of the W-cycle
//! (Algorithm 2) partition a matrix into column blocks, gather a pair of
//! blocks into `A_ij = [A_i, A_j]`, rotate it, scatter it back, and finally
//! read the sorted factors off the converged columns (`columns = UΣ`).
//!
//! A column block is a `(start, width)` range of columns.

use wsvd_linalg::gemm::dot;
use wsvd_linalg::Matrix;

use crate::onesided::JacobiSvd;

/// Splits `n` columns into consecutive blocks of width `w` (the last block
/// takes the ragged remainder).
pub fn partition_cols(n: usize, w: usize) -> Vec<(usize, usize)> {
    let mut parts = Vec::new();
    let mut start = 0;
    while start < n {
        let width = w.min(n - start);
        parts.push((start, width));
        start += width;
    }
    parts
}

/// Gathers blocks `i` and `j` of `m` side by side into `A_ij = [A_i, A_j]`.
pub fn gather_pair(m: &Matrix, (si, wi): (usize, usize), (sj, wj): (usize, usize)) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), wi + wj);
    for c in 0..wi {
        out.col_mut(c).copy_from_slice(m.col(si + c));
    }
    for c in 0..wj {
        out.col_mut(wi + c).copy_from_slice(m.col(sj + c));
    }
    out
}

/// Writes a (rotated) pair block back over blocks `i` and `j` of `m`; the
/// inverse of [`gather_pair`].
pub fn scatter_pair(
    m: &mut Matrix,
    (si, wi): (usize, usize),
    (sj, wj): (usize, usize),
    block: &Matrix,
) {
    for c in 0..wi {
        m.col_mut(si + c).copy_from_slice(block.col(c));
    }
    for c in 0..wj {
        m.col_mut(sj + c).copy_from_slice(block.col(wi + c));
    }
}

/// Rebuilds the rotated pair block `A_ij J = U Σ` of `shape` (zero-padded
/// for rank-deficient wide blocks) from a Jacobi SVD kernel's output.
pub fn rotated_block(svd: &JacobiSvd, (m, n): (usize, usize)) -> Matrix {
    let mut out = Matrix::zeros(m, n);
    for (k, &s) in svd.sigma.iter().enumerate() {
        let src = svd.u.col(k);
        let dst = out.col_mut(k);
        for i in 0..m {
            dst[i] = s * src[i];
        }
    }
    out
}

/// Sorted `(U, Σ, V)` from converged columns (`conv = UΣ`): `Σ` holds the
/// `min(m, n)` column norms in descending order of squared norm, `U` the
/// matching normalized columns (a unit vector for a null direction), and
/// `V`, when given, has its columns permuted to match.
pub fn extract_sorted(conv: &Matrix, v: Option<&Matrix>) -> (Matrix, Vec<f64>, Option<Matrix>) {
    let (m, n) = conv.shape();
    let norms: Vec<f64> = (0..n).map(|j| dot(conv.col(j), conv.col(j))).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| norms[y].total_cmp(&norms[x]));
    let r = m.min(n);
    let mut u = Matrix::zeros(m, r);
    let mut sigma = Vec::with_capacity(r);
    for (k, &j) in order.iter().take(r).enumerate() {
        let s = norms[j].sqrt();
        sigma.push(s);
        if s > 0.0 {
            let src = conv.col(j);
            let dst = u.col_mut(k);
            for i in 0..m {
                dst[i] = src[i] / s;
            }
        } else if k < m {
            u[(k, k)] = 1.0;
        }
    }
    let v = v.map(|v| {
        let mut out = Matrix::zeros(v.rows(), v.cols());
        for (k, &j) in order.iter().enumerate() {
            out.col_mut(k).copy_from_slice(v.col(j));
        }
        out
    });
    (u, sigma, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsvd_linalg::generate::random_uniform;

    #[test]
    fn partition_cols_ragged() {
        assert_eq!(partition_cols(10, 4), vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(partition_cols(4, 2), vec![(0, 2), (2, 2)]);
        assert!(partition_cols(0, 3).is_empty());
    }

    #[test]
    fn scatter_inverts_gather() {
        let a = random_uniform(7, 10, 3);
        let parts = partition_cols(10, 3);
        let block = gather_pair(&a, parts[1], parts[3]);
        assert_eq!(block.shape(), (7, 4));
        assert_eq!(block.col(3), a.col(9));
        let mut b = Matrix::zeros(7, 10);
        scatter_pair(&mut b, parts[1], parts[3], &block);
        for c in [3, 4, 5, 9] {
            assert_eq!(b.col(c), a.col(c));
        }
        assert!(b.col(0).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn extraction_sorts_by_norm_and_permutes_v() {
        // Orthogonal columns of norms 1, 3, 2 (and a null column).
        let mut conv = Matrix::zeros(4, 4);
        conv[(0, 0)] = 1.0;
        conv[(1, 1)] = 3.0;
        conv[(2, 2)] = 2.0;
        let v = Matrix::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let (u, sigma, vp) = extract_sorted(&conv, Some(&v));
        assert_eq!(sigma, vec![3.0, 2.0, 1.0, 0.0]);
        assert_eq!(u[(1, 0)], 1.0);
        assert_eq!(u[(2, 1)], 1.0);
        assert_eq!(u[(0, 2)], 1.0);
        assert_eq!(u[(3, 3)], 1.0, "null direction gets a unit vector");
        let vp = vp.unwrap();
        for (k, j) in [1, 2, 0, 3].into_iter().enumerate() {
            assert_eq!(vp.col(k), v.col(j));
        }
        assert!(extract_sorted(&conv, None).2.is_none());
    }
}
