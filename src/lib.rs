//! # groupform — recommendation-aware group formation
//!
//! A production-quality Rust reproduction of *"From Group Recommendations
//! to Group Formation"* (Roy, Lakshmanan, Liu — SIGMOD 2015,
//! arXiv:1503.03753), complete with every substrate the paper depends on.
//!
//! Given a population of users with explicit item ratings, a group
//! recommendation semantics (least misery or aggregate voting) and a budget
//! of `ℓ` groups, *group formation* partitions the users so that the total
//! satisfaction of the groups with their own recommended top-`k` item lists
//! is maximized. The problem is NP-hard under both semantics; the paper's
//! greedy algorithms achieve bounded absolute error under least misery and
//! strong empirical quality under aggregate voting.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`] (`gf-core`) | data model, group recommendation engine, the six `GRD-*` greedy algorithms, metrics, Section-6 extensions |
//! | [`datasets`] (`gf-datasets`) | synthetic Yahoo!-Music / MovieLens / Flickr-POI-shaped generators, real-file loaders, sampling, splits, statistics |
//! | [`recsys`] (`gf-recsys`) | rating prediction: bias model, item-item KNN, SGD matrix factorization, matrix completion |
//! | [`baselines`] (`gf-baselines`) | Kendall-Tau distances, k-medoids, sparse k-means, the paper's `Baseline-LM` / `Baseline-AV` |
//! | [`exact`] (`gf-exact`) | exact optima (partition DP, branch & bound), anytime local search, Appendix-A IP model + CPLEX LP export |
//! | [`eval`] (`gf-eval`) | experiment harness, five-number summaries, tables, the simulated AMT user study |
//! | [`serve`] (`gf-serve`) | the online component: batched HTTP serving with snapshot queries and incremental `/rate` updates |
//!
//! ## Quickstart
//!
//! ```
//! use groupform::prelude::*;
//!
//! // A small synthetic population shaped like the Yahoo! Music corpus.
//! let data = SynthConfig::yahoo_music()
//!     .with_users(300)
//!     .with_items(120)
//!     .generate();
//! let prefs = PrefIndex::build(&data.matrix);
//!
//! // Form at most 10 groups, recommending 5 items per group, under the
//! // least-misery semantics with Min aggregation (GRD-LM-MIN).
//! let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 5, 10);
//! let result = GreedyFormer::new().form(&data.matrix, &prefs, &cfg).unwrap();
//!
//! assert!(result.grouping.len() <= 10);
//! result.grouping.validate(data.matrix.n_users(), 10).unwrap();
//! println!("objective = {:.1}", result.objective);
//! for (slot, group) in result.grouping.groups.iter().enumerate() {
//!     println!(
//!         "group {slot}: {} members, satisfaction {:.1}",
//!         group.len(),
//!         group.satisfaction
//!     );
//! }
//! ```
//!
//! On instances small enough for the exact set-partition DP, the greedy
//! objective is sandwiched by the paper's Theorem-2 absolute-error bound:
//!
//! ```
//! use groupform::prelude::*;
//!
//! let data = SynthConfig::tiny(10, 6).generate();
//! let prefs = PrefIndex::build(&data.matrix);
//! let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 2, 3);
//!
//! let grd = GreedyFormer::new().form(&data.matrix, &prefs, &cfg).unwrap();
//! let opt = PartitionDp::new().form(&data.matrix, &prefs, &cfg).unwrap();
//!
//! // GRD never beats the optimum, and under least misery with split-aware
//! // selection it trails it by at most the Theorem-2 bound.
//! assert!(grd.objective <= opt.objective + 1e-9);
//! let bound = cfg.error_bound(&data.matrix).unwrap();
//! let split_aware = GreedyFormer::new()
//!     .with_split_aware_selection(true)
//!     .form(&data.matrix, &prefs, &cfg)
//!     .unwrap();
//! assert!(opt.objective - split_aware.objective <= bound + 1e-9);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios (travel planning,
//! music segmentation, a full quality study against exact optima) and
//! `EXPERIMENTS.md` for the paper-vs-measured record of every table and
//! figure.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub use gf_baselines as baselines;
pub use gf_core as core;
pub use gf_datasets as datasets;
pub use gf_eval as eval;
pub use gf_exact as exact;
pub use gf_recsys as recsys;
pub use gf_serve as serve;

/// The names most programs need, in one import.
pub mod prelude {
    pub use gf_baselines::{BaselineFormer, ClusterStrategy};
    pub use gf_core::{
        resolve_threads, Aggregation, FormationConfig, FormationResult, GfError, GreedyFormer,
        Group, GroupFormer, GroupRecommender, Grouping, MissingPolicy, PrefIndex, RatingMatrix,
        RatingScale, Semantics, WeightScheme,
    };
    pub use gf_datasets::{Dataset, DatasetStats, SynthConfig};
    pub use gf_exact::{BranchAndBound, LocalSearch, PartitionDp};
    pub use gf_recsys::{
        complete_matrix, complete_matrix_threaded, BiasModel, ItemItemKnn, MatrixFactorization,
    };
    pub use gf_serve::{ServeConfig, ServeState};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_pipeline() {
        let data = SynthConfig::tiny(12, 6).generate();
        let prefs = PrefIndex::build(&data.matrix);
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 2, 3);
        let grd = GreedyFormer::new()
            .form(&data.matrix, &prefs, &cfg)
            .unwrap();
        let opt = PartitionDp::new().form(&data.matrix, &prefs, &cfg).unwrap();
        assert!(grd.objective <= opt.objective + 1e-9);
    }
}
