//! The pair schedule of a Jacobi sweep.
//!
//! A sweep must orthogonalize every pair `(i, j)` with `i < j` exactly once.
//! For parallel execution each *step* must consist of disjoint pairs (no
//! index appears twice), so that all rotations of the step commute and can
//! run concurrently (§II-B, §IV-C). Every static sweep in the workspace uses
//! the paper's round-robin tournament schedule.

/// A sweep schedule: `steps[k]` is the set of disjoint pairs of step `k`.
pub type Schedule = Vec<Vec<(usize, usize)>>;

/// Round-robin tournament schedule for `n` indices.
///
/// Index 0 is fixed, the rest rotate; `n-1` steps of `n/2` disjoint pairs
/// (for even `n`). Odd `n` is handled with a phantom index that gives its
/// partner a bye. Every unordered pair appears exactly once per sweep.
pub fn round_robin(n: usize) -> Schedule {
    if n < 2 {
        return vec![];
    }
    let m = if n.is_multiple_of(2) { n } else { n + 1 }; // phantom index == m-1 when odd
    let rounds = m - 1;
    let mut ring: Vec<usize> = (1..m).collect();
    let mut schedule = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut step = Vec::with_capacity(m / 2);
        // Pair 0 with ring[last]; pair ring[k] with ring[m-3-k].
        let partner = ring[m - 2];
        push_pair(&mut step, 0, partner, n);
        for k in 0..(m / 2 - 1) {
            push_pair(&mut step, ring[k], ring[m - 3 - k], n);
        }
        schedule.push(step);
        ring.rotate_right(1);
    }
    schedule
}

fn push_pair(step: &mut Vec<(usize, usize)>, a: usize, b: usize, n: usize) {
    // Drop pairs involving the phantom index (>= n).
    if a < n && b < n {
        step.push(if a < b { (a, b) } else { (b, a) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn check_covers_all_pairs_once(s: &Schedule, n: usize) {
        let mut seen = HashSet::new();
        for step in s {
            for &(i, j) in step {
                assert!(i < j, "pair ({i},{j}) not normalized");
                assert!(j < n);
                assert!(seen.insert((i, j)), "pair ({i},{j}) repeated");
            }
        }
        assert_eq!(
            seen.len(),
            n * (n - 1) / 2,
            "not all pairs covered for n={n}"
        );
    }

    fn check_steps_disjoint(s: &Schedule) {
        for step in s {
            let mut used = HashSet::new();
            for &(i, j) in step {
                assert!(used.insert(i), "index {i} reused in step");
                assert!(used.insert(j), "index {j} reused in step");
            }
        }
    }

    #[test]
    fn round_robin_even() {
        for n in [2usize, 4, 8, 16, 48] {
            let s = round_robin(n);
            assert_eq!(s.len(), n - 1, "n={n}");
            check_covers_all_pairs_once(&s, n);
            check_steps_disjoint(&s);
            for step in &s {
                assert_eq!(step.len(), n / 2);
            }
        }
    }

    #[test]
    fn round_robin_odd() {
        for n in [3usize, 5, 9] {
            let s = round_robin(n);
            assert_eq!(s.len(), n); // phantom adds one round
            check_covers_all_pairs_once(&s, n);
            check_steps_disjoint(&s);
        }
    }

    #[test]
    fn round_robin_degenerate() {
        assert!(round_robin(0).is_empty());
        assert!(round_robin(1).is_empty());
    }
}
