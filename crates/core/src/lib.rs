//! # gf-core — recommendation-aware group formation
//!
//! Core data model and algorithms reproducing *"From Group Recommendations to
//! Group Formation"* (Roy, Lakshmanan, Liu — SIGMOD 2015, arXiv:1503.03753).
//!
//! Given `n` users with explicit ratings over `m` items, a group
//! recommendation semantics ([`Semantics::LeastMisery`] or
//! [`Semantics::AggregateVoting`]), an aggregation function over the
//! recommended top-`k` list ([`Aggregation`]) and a budget of `ell` groups,
//! the *group formation* problem asks for a partition of the users into at
//! most `ell` disjoint groups maximizing the total satisfaction of the groups
//! with their own recommended top-`k` item lists. The problem is NP-hard
//! under both semantics (paper, Theorem 1).
//!
//! This crate provides:
//!
//! * the sparse [`RatingMatrix`] data model and per-user [`PrefIndex`],
//! * the group recommendation engine ([`GroupRecommender`]) that computes a
//!   group's top-`k` list and satisfaction under either semantics,
//! * the paper's greedy algorithms ([`GreedyFormer`]): `GRD-LM-MIN`,
//!   `GRD-LM-MAX`, `GRD-LM-SUM`, `GRD-AV-MIN`, `GRD-AV-MAX`, `GRD-AV-SUM`,
//! * evaluation metrics (objective value, average group satisfaction, NDCG),
//! * the Section-6 extensions (weighted sum aggregation, NDCG-weighted
//!   user-level satisfaction),
//! * serve-time quality primitives: the candidate-item engine
//!   ([`CandidateEngine`] — items no group member has rated) and the
//!   online consumption window ([`OnlineEval`] — per-group
//!   precision/recall/NDCG from observed feedback).
//!
//! ## Quickstart
//!
//! ```
//! use gf_core::{
//!     Aggregation, FormationConfig, GreedyFormer, GroupFormer, PrefIndex,
//!     RatingMatrix, RatingScale, Semantics,
//! };
//!
//! // Example 1 from the paper: 6 users, 3 items, ratings on a 1..5 scale.
//! let matrix = RatingMatrix::from_dense(
//!     &[
//!         // i1, i2, i3  (rows = users)
//!         &[1.0, 4.0, 3.0][..],
//!         &[2.0, 3.0, 5.0],
//!         &[2.0, 5.0, 1.0],
//!         &[2.0, 5.0, 1.0],
//!         &[3.0, 1.0, 1.0],
//!         &[1.0, 2.0, 5.0],
//!     ],
//!     RatingScale::one_to_five(),
//! )
//! .unwrap();
//! let prefs = PrefIndex::build(&matrix);
//! let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 3);
//! let result = GreedyFormer::new().form(&matrix, &prefs, &cfg).unwrap();
//! // The paper reports an objective value of 11 for GRD-LM-MIN with k = 1.
//! assert_eq!(result.objective.round() as i64, 11);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod alg;
pub mod candidates;
pub mod error;
pub mod fxhash;
pub mod grouping;
pub mod grouprec;
pub mod matrix;
pub mod metrics;
pub mod ndcg;
pub mod online;
pub mod prefs;
mod rows;
pub mod scale;
pub mod semantics;
pub mod threads;
pub mod weights;

pub use aggregate::Aggregation;
pub use alg::{
    FormationConfig, FormationResult, FormerBucket, FormerState, GreedyFormer, GroupFormer,
    IncrementalFormer, RatingDelta, RefreshMode,
};
pub use candidates::{brute_force_candidates, CandidateEngine};
pub use error::{GfError, Result};
pub use fxhash::{FxHashMap, FxHashSet};
pub use grouping::{Group, Grouping, UNASSIGNED};
pub use grouprec::{GroupRecommender, MissingPolicy};
pub use matrix::{GrowthPolicy, MatrixBuilder, RatingMatrix};
pub use metrics::{avg_group_satisfaction, recompute_objective};
pub use ndcg::{dcg, ndcg, user_satisfaction};
pub use online::{FeedbackEvent, GroupQuality, OnlineEval, QualitySummary};
pub use prefs::PrefIndex;
pub use scale::RatingScale;
pub use semantics::Semantics;
pub use threads::resolve_threads;
pub use weights::WeightScheme;
