//! # gf-eval — the experiment harness
//!
//! Everything Section 7 of the paper needs that is not an algorithm:
//!
//! * [`experiment`] — timed, repeated runs of any
//!   [`GroupFormer`](gf_core::GroupFormer) with quality metrics collected
//!   into uniform records ("All numbers are presented as the average of
//!   three runs");
//! * [`holdout`] — offline precision/recall/NDCG judging of a grouping
//!   against a held-out consumption set, implemented independently of the
//!   serving-side `gf_core::OnlineEval` so the two can cross-check each
//!   other;
//! * [`quantile`] — the five-number summaries behind Table 4's group-size
//!   distribution;
//! * [`table`] — plain-text table rendering for the bench harness;
//! * [`userstudy`] — the Section 7.3 AMT study, simulated: Phase-1 worker
//!   preference collection over 10 POIs and similar/dissimilar/random
//!   sampling with the paper's `sim(u, u')`, Phase-2 satisfaction ratings
//!   and preference votes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod experiment;
pub mod holdout;
pub mod quantile;
pub mod table;
pub mod userstudy;

pub use experiment::{run_timed, RunRecord};
pub use holdout::{evaluate_holdout, GroupHoldout, HoldoutEvent, HoldoutReport};
pub use quantile::FiveNumber;
pub use table::Table;
pub use userstudy::{SampleKind, UserStudy, UserStudyConfig};
