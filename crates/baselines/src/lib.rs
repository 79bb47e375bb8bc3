//! # gf-baselines — semantics-agnostic baseline group formation
//!
//! The paper's baselines (`Baseline-LM`, `Baseline-AV`, Section 7,
//! adapted from Ntoutsi et al. \[22\]) form groups by *similarity clustering*
//! that ignores the group recommendation semantics:
//!
//! 1. measure the Kendall-Tau distance between every pair of users, over
//!    their rankings of **all** items (not just the top-`k`);
//! 2. cluster the users into `ℓ` groups (the paper says "K-means", capped
//!    at 100 iterations);
//! 3. only then compute each group's top-`k` list and satisfaction under
//!    LM or AV.
//!
//! Exact pairwise Kendall-Tau is Θ(n² · m log m) and infeasible at the
//! paper's 100,000-user scalability sizes, so two strategies are provided:
//!
//! * [`kmedoids`] over the exact Kendall-Tau [`distance::DistanceMatrix`] —
//!   used at quality-experiment sizes (hundreds of users), and
//! * [`kmeans`] — Lloyd's algorithm directly on the sparse rating vectors —
//!   used at scalability sizes.
//!
//! [`BaselineFormer`] wires either strategy behind the same
//! [`GroupFormer`](gf_core::GroupFormer) interface as the greedy
//! algorithms.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod distance;
pub mod kendall;
pub mod kmeans;
pub mod kmedoids;
pub mod pipeline;

pub use distance::DistanceMatrix;
pub use pipeline::{BaselineFormer, ClusterStrategy};
