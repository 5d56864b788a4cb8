//! # wsvd-jacobi
//!
//! Batched Jacobi kernels on the GPU execution-model simulator:
//!
//! * [`onesided`] — the one-sided Jacobi SVD kernel with column-vector
//!   rotations (§II-C), the α-warp task assignment and the Eq.-(6)
//!   inner-product caching of §IV-B, in shared-memory and global-memory
//!   variants;
//! * [`evd`] — the two-sided Jacobi EVD kernel (§II-D), both the serialized
//!   textbook form and the paper's parallel all-element update (§IV-C);
//! * [`ordering`] — the round-robin pair schedule every sweep runs;
//! * [`fits`] — the exact shared-memory footprint predicates that drive
//!   Algorithm 2's level classification;
//! * [`batch`] — one-block-per-matrix batched launches;
//! * [`block`] — the column-block partition, pair gather/scatter and sorted
//!   factor extraction shared by every block-Jacobi driver;
//! * [`verify`] — static conflict-freedom and exactly-once coverage proofs
//!   of the round-robin schedule (and of any data-dependent sweep), used by
//!   the `wsvd-sanitizer` layer before kernels launch.

#![warn(missing_docs)]

pub mod batch;
pub mod block;
pub mod evd;
pub mod fits;
pub mod onesided;
pub mod ordering;
pub mod verify;

pub use batch::{batched_evd_sm, batched_svd_gm, batched_svd_sm};
pub use evd::{evd_in_block, EvdConfig, EvdVariant, JacobiEvd};
pub use fits::{
    evd_fits_in_sm, evd_kernel_resource, max_w_for_evd, svd_fits_in_sm, svd_kernel_resource,
};
pub use onesided::{svd_in_block, JacobiStats, JacobiSvd, MemSpace, OneSidedConfig, SvdSmemLayout};
pub use verify::{verify_round_robin, verify_schedule, ScheduleProof, ScheduleViolation};
