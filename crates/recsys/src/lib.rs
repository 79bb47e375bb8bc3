//! # gf-recsys — the rating prediction substrate
//!
//! The paper's data preparation applies "standard pre-processing for
//! collaborative filtering and rating prediction": user preferences
//! `sc(u, i)` may be *user provided or system predicted* (Section 2.1), and
//! the group formation algorithms then treat the predicted matrix as given.
//! This crate supplies that substrate:
//!
//! * [`BiasModel`] — global mean + regularized user/item biases;
//! * [`ItemItemKnn`] — item-item collaborative filtering with adjusted
//!   cosine similarities and top-`N` neighbor lists;
//! * [`MatrixFactorization`] — biased matrix factorization trained with
//!   SGD (Funk-SVD style), seeded and deterministic;
//! * [`complete_matrix`] — fills every missing `(user, item)` cell with a
//!   prediction, producing the dense preference matrix the paper's quality
//!   experiments implicitly operate on;
//! * [`rmse`] / [`mae`] — holdout evaluation of any predictor.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod complete;
pub mod eval;
pub mod knn;
pub mod means;
pub mod mf;
pub mod predictor;

pub use complete::{complete_matrix, complete_matrix_threaded};
pub use eval::{mae, rmse};
pub use knn::ItemItemKnn;
pub use means::BiasModel;
pub use mf::{MatrixFactorization, MfConfig};
pub use predictor::RatingPredictor;
