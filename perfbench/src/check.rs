//! Output checks, run outside the timed region.
//!
//! Offline factorisations are checked in full on the first pass over the
//! pool; later passes replay identical inputs on a deterministic simulator,
//! so each later output must match its first-pass fingerprint bit for bit.
//! `serve_trace` returns latency records but no factors: numeric
//! correctness of the served path rests on the offline checks of the same
//! `wcycle_svd`, and the serve checks cover accounting and the waterfall
//! identities.

use wsvd_core::{WCycleOutput, WSvd};
use wsvd_linalg::gemm::matmul;
use wsvd_linalg::svd::singular_values;
use wsvd_linalg::verify::orthonormality_error;
use wsvd_linalg::Matrix;
use wsvd_serve::{ServeOutcome, Trace};

/// Bound on `‖A − UΣVᵀ‖_F / ‖A‖_F`.
pub const RESIDUAL_TOL: f64 = 1e-10;
/// Bound on `‖QᵀQ − I‖_max` for `U` and `V`: the library's own contract
/// (its test suite and the health layer's orthogonality ceiling). The loss
/// of orthogonality in `U` grows with the condition number, and random
/// squares of about 120 columns occasionally reach 1e-9.
pub const ORTHO_TOL: f64 = 1e-8;
/// Bound on `max_i |σ_i − σ_i^ref| / σ_1^ref` against the Golub–Reinsch
/// reference SVD.
pub const REFERENCE_TOL: f64 = 1e-10;

/// Checks one factorisation of `a`: residual, orthonormality of both
/// factors, and non-negative descending singular values.
pub fn check_factorization(a: &Matrix, f: &WSvd) -> Result<(), String> {
    let r = a.rows().min(a.cols());
    if f.sigma.len() != r {
        return Err(format!("{} singular values, want {r}", f.sigma.len()));
    }
    if !f.sigma.iter().all(|s| s.is_finite() && *s >= 0.0) {
        return Err("singular value negative or not finite".into());
    }
    if !f.sigma.windows(2).all(|w| w[0] >= w[1]) {
        return Err("singular values not descending".into());
    }
    let v = f.v.as_ref().ok_or("no right singular vectors")?;
    let mut us = f.u.clone();
    for (j, s) in f.sigma.iter().enumerate() {
        us.col_mut(j).iter_mut().for_each(|x| *x *= s);
    }
    let rebuilt = matmul(&us, &v.col_block(0, r).transpose());
    let residual = a.sub(&rebuilt).fro_norm() / a.fro_norm();
    if residual.is_nan() || residual > RESIDUAL_TOL {
        return Err(format!("relative residual {residual:.3e}"));
    }
    let ortho = orthonormality_error(&f.u).max(orthonormality_error(v));
    if ortho.is_nan() || ortho > ORTHO_TOL {
        return Err(format!("orthonormality error {ortho:.3e}"));
    }
    Ok(())
}

/// Compares the singular values of `a` with the reference SVD.
pub fn check_reference(a: &Matrix, f: &WSvd) -> Result<(), String> {
    let want = singular_values(a)?;
    let scale = want.first().copied().unwrap_or(1.0).max(f64::MIN_POSITIVE);
    let err = f
        .sigma
        .iter()
        .zip(&want)
        .map(|(s, w)| (s - w).abs() / scale)
        .fold(0.0, f64::max);
    if want.len() != f.sigma.len() || err.is_nan() || err > REFERENCE_TOL {
        return Err(format!("spectrum off the reference by {err:.3e}"));
    }
    Ok(())
}

/// Checks one served trace: every request appears exactly once among the
/// records or is counted as rejected, and the waterfall identities hold
/// bitwise. Returns the number of failed requests (rejections included)
/// with one message per kind of failure.
pub fn check_serve(trace: &Trace, out: &ServeOutcome) -> (usize, Vec<String>) {
    let n = trace.requests.len();
    let mut seen = vec![false; n];
    let mut failed = out.rejected;
    let mut errors = Vec::new();
    if out.rejected > 0 {
        errors.push(format!("{} requests rejected", out.rejected));
    }
    for r in &out.records {
        let known = r.id < n && trace.requests[r.id].rows == r.rows && !seen[r.id];
        let waterfall = (r.admission_wait_us + r.backlog_us).to_bits()
            == r.queue_delay_us.to_bits()
            && (r.queue_delay_us + r.service_us).to_bits() == r.end_to_end_us.to_bits()
            && r.end_to_end_us.is_finite()
            && r.admission_wait_us >= 0.0
            && r.backlog_us >= 0.0;
        if !known || !waterfall {
            failed += 1;
            errors.push(format!(
                "request {}: {}",
                r.id,
                if known {
                    "waterfall identity broken"
                } else {
                    "unknown or duplicate record"
                }
            ));
        }
        if r.id < n {
            seen[r.id] = true;
        }
    }
    let accounted = out.records.len() + out.rejected;
    if accounted != n {
        failed += accounted.abs_diff(n);
        errors.push(format!(
            "{} records + {} rejected for {n} requests",
            out.records.len(),
            out.rejected
        ));
    }
    (failed.min(n), errors)
}

/// FNV-1a over the bits of every factor of a batch.
pub fn fingerprint_offline(out: &WCycleOutput) -> u64 {
    let mut h = Fnv::default();
    for f in &out.results {
        h.words(f.sigma.iter().map(|x| x.to_bits()));
        h.words(f.u.as_slice().iter().map(|x| x.to_bits()));
        if let Some(v) = &f.v {
            h.words(v.as_slice().iter().map(|x| x.to_bits()));
        }
    }
    h.0
}

/// FNV-1a over every request and batch record of a served trace.
pub fn fingerprint_serve(out: &ServeOutcome) -> u64 {
    let mut h = Fnv::default();
    for r in &out.records {
        h.words([r.id as u64, r.batch_id as u64, r.end_to_end_us.to_bits()]);
    }
    for b in &out.batches {
        h.words([b.len as u64, b.trigger_us, b.service_us.to_bits()]);
    }
    h.words([out.rejected as u64, out.makespan_us.to_bits()]);
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    fn words(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
}
