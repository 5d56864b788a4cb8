//! Static verification of Jacobi pair schedules.
//!
//! A parallel Jacobi sweep is only correct when (a) every step's pairs are
//! pairwise **disjoint** — rotations touching a shared column do not commute
//! and would race in the kernel — and (b) the sweep **covers** all
//! `n·(n−1)/2` unordered pairs, or convergence theory no longer applies
//! (§II-B). This module proves both properties for any [`Schedule`] *before*
//! it reaches a kernel, turning the pivot-ordering bugs that Novaković's
//! blocked-Jacobi work identifies as the classic failure mode into
//! machine-checked launch preconditions.
//!
//! The checker is pure (no simulator dependency) so it doubles as a library
//! API for tests and the `repro --sanitize` harness.

use std::fmt;

use crate::ordering::{round_robin, Schedule};

/// Everything that can disqualify a schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleViolation {
    /// An index appears in two pairs of the same step: the rotations do not
    /// commute, and the kernel's lanes would race on that column.
    Conflict {
        /// Step index within the sweep.
        step: usize,
        /// The column index shared by two pairs.
        index: usize,
        /// The two offending pairs.
        pairs: ((usize, usize), (usize, usize)),
    },
    /// A pair references an index outside `0..n` or is not normalized
    /// (`i < j` is required so coverage accounting is well defined).
    Malformed {
        /// Step index within the sweep.
        step: usize,
        /// The offending pair.
        pair: (usize, usize),
    },
    /// Unordered pairs never touched by the sweep (convergence would stall
    /// on those column pairs).
    Missing {
        /// The uncovered pairs, in lexicographic order.
        pairs: Vec<(usize, usize)>,
    },
    /// A pair touched more than once in one sweep.
    Duplicate {
        /// The repeated pair.
        pair: (usize, usize),
        /// How many times it appears in the sweep.
        count: usize,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::Conflict { step, index, pairs } => write!(
                f,
                "step {step}: pairs {:?} and {:?} both use index {index} (rotations would race)",
                pairs.0, pairs.1
            ),
            ScheduleViolation::Malformed { step, pair } => {
                write!(
                    f,
                    "step {step}: pair {pair:?} is out of range or unnormalized"
                )
            }
            ScheduleViolation::Missing { pairs } => write!(
                f,
                "sweep never touches {} pair(s), first {:?}",
                pairs.len(),
                pairs.first()
            ),
            ScheduleViolation::Duplicate { pair, count } => {
                write!(f, "pair {pair:?} appears {count} times in one sweep")
            }
        }
    }
}

/// Certificate returned when a schedule passes all checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleProof {
    /// Problem size the schedule was verified against.
    pub n: usize,
    /// Steps in the sweep.
    pub steps: usize,
    /// Total pair slots across all steps.
    pub pairs: usize,
    /// Largest step width (bounds the lane count a kernel needs).
    pub max_step_width: usize,
}

/// Proves that `schedule` is a valid parallel sweep over `n` indices:
/// normalized in-range pairs, pairwise-disjoint steps (conflict-freedom),
/// and exactly-once coverage of every unordered pair. Returns the first
/// violation found, with missing-pair reporting last so conflict bugs
/// surface first.
pub fn verify_schedule(schedule: &Schedule, n: usize) -> Result<ScheduleProof, ScheduleViolation> {
    let mut counts = vec![0u32; n * n];
    let mut pairs = 0usize;
    let mut max_step_width = 0usize;
    for (step_idx, step) in schedule.iter().enumerate() {
        max_step_width = max_step_width.max(step.len());
        // `owner[i]` = the pair that already claimed index i in this step.
        let mut owner: Vec<Option<(usize, usize)>> = vec![None; n];
        for &(i, j) in step {
            if i >= j || j >= n {
                return Err(ScheduleViolation::Malformed {
                    step: step_idx,
                    pair: (i, j),
                });
            }
            for idx in [i, j] {
                if let Some(prev) = owner[idx] {
                    return Err(ScheduleViolation::Conflict {
                        step: step_idx,
                        index: idx,
                        pairs: (prev, (i, j)),
                    });
                }
                owner[idx] = Some((i, j));
            }
            counts[i * n + j] += 1;
            pairs += 1;
        }
    }
    let mut missing = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let c = counts[i * n + j];
            if c == 0 {
                missing.push((i, j));
            } else if c > 1 {
                return Err(ScheduleViolation::Duplicate {
                    pair: (i, j),
                    count: c as usize,
                });
            }
        }
    }
    if !missing.is_empty() {
        return Err(ScheduleViolation::Missing { pairs: missing });
    }
    Ok(ScheduleProof {
        n,
        steps: schedule.len(),
        pairs,
        max_step_width,
    })
}

/// Proves the round-robin sweep over `n` indices: the one static schedule
/// every Jacobi kernel and W-cycle level runs.
pub fn verify_round_robin(n: usize) -> Result<ScheduleProof, ScheduleViolation> {
    verify_schedule(&round_robin(n), n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_proves_clean() {
        for n in [2usize, 3, 4, 5, 8, 9, 16, 17, 24, 32] {
            let proof = verify_round_robin(n).unwrap_or_else(|e| panic!("n={n} rejected: {e}"));
            assert_eq!(proof.pairs, n * (n - 1) / 2);
            assert!(proof.max_step_width <= n / 2);
        }
    }

    #[test]
    fn overlapping_step_is_a_conflict() {
        // Pairs (0,1) and (1,2) share column 1: both rotations would write it.
        let s: Schedule = vec![vec![(0, 1), (1, 2)], vec![(0, 2)]];
        let err = verify_schedule(&s, 3).unwrap_err();
        match err {
            ScheduleViolation::Conflict { step, index, .. } => {
                assert_eq!(step, 0);
                assert_eq!(index, 1);
            }
            other => panic!("expected conflict, got {other}"),
        }
    }

    #[test]
    fn missing_pair_detected() {
        let mut s = round_robin(4);
        s.last_mut().unwrap().clear(); // drop a step's pairs
        let err = verify_schedule(&s, 4).unwrap_err();
        assert!(matches!(err, ScheduleViolation::Missing { ref pairs } if !pairs.is_empty()));
    }

    #[test]
    fn duplicate_pair_detected() {
        let mut s = round_robin(4);
        let repeated = s[0][0];
        s.push(vec![repeated]);
        let err = verify_schedule(&s, 4).unwrap_err();
        assert_eq!(
            err,
            ScheduleViolation::Duplicate {
                pair: repeated,
                count: 2
            }
        );
    }

    #[test]
    fn unnormalized_and_out_of_range_pairs_rejected() {
        let s: Schedule = vec![vec![(1, 0)]];
        assert!(matches!(
            verify_schedule(&s, 2),
            Err(ScheduleViolation::Malformed { .. })
        ));
        let s: Schedule = vec![vec![(0, 5)]];
        assert!(matches!(
            verify_schedule(&s, 3),
            Err(ScheduleViolation::Malformed { .. })
        ));
    }

    #[test]
    fn violations_render() {
        let s: Schedule = vec![vec![(0, 1), (0, 2)]];
        let msg = verify_schedule(&s, 3).unwrap_err().to_string();
        assert!(msg.contains("index 0"), "{msg}");
    }

    #[test]
    fn empty_schedule_for_n_below_two() {
        let proof = verify_schedule(&round_robin(1), 1).unwrap();
        assert_eq!(proof.pairs, 0);
    }
}
