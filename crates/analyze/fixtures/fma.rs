// Planted violation for the `no-fma` lint: a fused multiply-add in a kernel
// loop, which would make the AVX2 build round differently from the portable
// one. Not compiled — linted as a fixture with the pretend path
// `crates/linalg/src/fixture.rs`.

pub fn axpy(s: f64, x: &[f64], y: &mut [f64]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = s.mul_add(xi, *yi);
    }
}

// The pragma'd variant below must stay silent: a documented, deliberate
// fused operation opts out with a reason.
pub fn deliberate_fma(a: f64, b: f64, c: f64) -> f64 {
    // wsvd-lint: allow(no-fma) — single-rounding is the point here
    a.mul_add(b, c)
}
