//! Group formation algorithms.
//!
//! The paper's six greedy algorithms — `GRD-LM-MIN`, `GRD-LM-MAX`,
//! `GRD-LM-SUM` (Section 4) and `GRD-AV-MIN`, `GRD-AV-MAX`, `GRD-AV-SUM`
//! (Section 5) — share one three-step skeleton:
//!
//! 1. **Intermediate groups**: hash every user by a key derived from her
//!    personal top-`k` preference list (the key depends on semantics and
//!    aggregation, see [`bucket`]), bundling indistinguishable users.
//! 2. **Greedy selection**: emit the `ell - 1` intermediate groups with
//!    the highest group satisfaction. The buckets sit in one binary heap
//!    under the Step-2 order, heapified in linear time, and a best-first
//!    walk reads the `ell - 1` best off it (split-aware selection pops
//!    the heap instead, and a split remainder re-enters it).
//! 3. **Last group**: merge all remaining users into the `ell`-th group and
//!    score it: under `MissingPolicy::Min` from dense per-item aggregates
//!    of its members' ratings, and with the full group recommendation
//!    engine under the other policies.
//!
//! All six variants are provided by a single [`GreedyFormer`] parameterised
//! by the [`FormationConfig`]. A formation is the first pass of an
//! [`IncrementalFormer`], the state a serving layer keeps to patch it
//! under rating updates. Under least misery, `GRD-LM-MIN` and
//! `GRD-LM-SUM` carry the paper's absolute-error guarantees (Theorems 2–3):
//! at most `r_max` and `k * r_max` below the optimum respectively.
//!
//! ## Parallelism
//!
//! [`FormationConfig::with_threads`] threads Step 1 (bucket building) —
//! inside [`IncrementalFormer::new`], so [`GreedyFormer`] too — following
//! the workspace-wide convention of [`crate::resolve_threads`] (`0` = auto
//! via `available_parallelism`, anything else literal, always clamped to
//! the amount of work): scoped workers build per-range bucket tables over
//! contiguous user ranges and merge them in range order. Results are
//! **identical to the single-threaded path** — membership, keys and
//! per-position minima unconditionally; per-position sums bit-for-bit
//! whenever scores sit on a rating grid (see
//! [`bucket::build_buckets_threaded`] for the one `UserMean` caveat).
//! Steps 2 and 3 run sequentially, so every formation is deterministic
//! for a fixed configuration.

pub mod bucket;
mod greedy;
pub mod incremental;
mod order;
mod tail;

pub use greedy::GreedyFormer;
pub use incremental::{FormerBucket, FormerState, IncrementalFormer, RatingDelta};

use crate::aggregate::Aggregation;
use crate::error::{GfError, Result};
use crate::grouping::Grouping;
use crate::grouprec::MissingPolicy;
use crate::matrix::{GrowthPolicy, RatingMatrix};
use crate::prefs::PrefIndex;
use crate::semantics::Semantics;

/// How a serving layer refreshes its standing formation when rating
/// updates arrive. Threaded through [`FormationConfig`] so benches and the
/// `gf-serve` binary can sweep the refresh strategies against each other;
/// pure formation runs ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum RefreshMode {
    /// Patch incrementally ([`IncrementalFormer`]) while the dirty set
    /// stays small — at most `max(64, n/8)` users — and rebuild cold
    /// beyond that, where re-bucketing everything is no longer slower.
    #[default]
    Auto,
    /// Always rebuild the formation from scratch.
    Cold,
    /// Always patch incrementally, whatever the dirty-set size.
    Incremental,
}

impl RefreshMode {
    /// Whether a refresh touching `dirty_users` out of `n_users` should
    /// take the incremental path under this mode.
    pub fn use_incremental(self, dirty_users: usize, n_users: usize) -> bool {
        match self {
            RefreshMode::Cold => false,
            RefreshMode::Incremental => true,
            RefreshMode::Auto => dirty_users <= (n_users / 8).max(64),
        }
    }

    /// Lower-case tag used in `/stats` bodies and CLI flags.
    pub fn tag(self) -> &'static str {
        match self {
            RefreshMode::Auto => "auto",
            RefreshMode::Cold => "cold",
            RefreshMode::Incremental => "incremental",
        }
    }
}

/// Everything that parameterises a group formation run.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FormationConfig {
    /// Group recommendation semantics (LM or AV).
    pub semantics: Semantics,
    /// Aggregation over the recommended top-`k` list.
    pub aggregation: Aggregation,
    /// Length of the recommended item list.
    pub k: usize,
    /// Maximum number of groups `ell`.
    pub ell: usize,
    /// Score for unrated `(member, item)` pairs.
    pub policy: MissingPolicy,
    /// Worker threads for Step-1 bucket building, the only threaded step
    /// of a formation (see the module docs). `0` = auto
    /// (`available_parallelism`); the default is `1` (single-threaded).
    /// See [`crate::resolve_threads`].
    pub n_threads: usize,
    /// How serving layers refresh the formation on rating updates
    /// (ignored by one-shot formation runs). Default [`RefreshMode::Auto`].
    pub refresh: RefreshMode,
    /// Whether the user/item universe may grow at serve time (ignored by
    /// one-shot formation runs over a fixed matrix). Default
    /// [`GrowthPolicy::Fixed`].
    pub growth: GrowthPolicy,
}

impl FormationConfig {
    /// A configuration with the default [`MissingPolicy::Min`] and
    /// single-threaded execution.
    pub fn new(semantics: Semantics, aggregation: Aggregation, k: usize, ell: usize) -> Self {
        FormationConfig {
            semantics,
            aggregation,
            k,
            ell,
            policy: MissingPolicy::Min,
            n_threads: 1,
            refresh: RefreshMode::Auto,
            growth: GrowthPolicy::Fixed,
        }
    }

    /// Overrides the missing-rating policy.
    pub fn with_policy(mut self, policy: MissingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the worker-thread knob: `0` = auto
    /// (`available_parallelism`), any other value literal, always clamped
    /// to the available work at the point of use.
    pub fn with_threads(mut self, n_threads: usize) -> Self {
        self.n_threads = n_threads;
        self
    }

    /// Overrides the serving-layer refresh strategy.
    pub fn with_refresh(mut self, refresh: RefreshMode) -> Self {
        self.refresh = refresh;
        self
    }

    /// Overrides the serving-layer population-growth policy.
    pub fn with_growth(mut self, growth: GrowthPolicy) -> Self {
        self.growth = growth;
        self
    }

    /// Validates `k >= 1`, `ell >= 1` and a non-trivial matrix.
    pub fn validate(&self, matrix: &RatingMatrix) -> Result<()> {
        if self.k == 0 {
            return Err(GfError::InvalidK { k: self.k });
        }
        if self.ell == 0 {
            return Err(GfError::InvalidEll { ell: self.ell });
        }
        if matrix.n_users() == 0 || matrix.n_items() == 0 {
            return Err(GfError::EmptyMatrix);
        }
        Ok(())
    }

    /// The paper's name for the greedy algorithm under this configuration,
    /// e.g. `GRD-LM-MIN`.
    pub fn grd_name(&self) -> String {
        format!("GRD-{}-{}", self.semantics.tag(), self.aggregation.tag())
    }

    /// The absolute-error guarantee of the greedy algorithm under this
    /// configuration, when one is proven in the paper:
    /// `r_max` for LM + Min (Theorem 2), `k * r_max` for LM + Sum
    /// (Theorem 3), `None` otherwise.
    pub fn error_bound(&self, matrix: &RatingMatrix) -> Option<f64> {
        match (self.semantics, self.aggregation) {
            (Semantics::LeastMisery, Aggregation::Min) => Some(matrix.scale().lm_min_error_bound()),
            (Semantics::LeastMisery, Aggregation::Sum) => {
                Some(matrix.scale().lm_sum_error_bound(self.k))
            }
            _ => None,
        }
    }
}

/// The outcome of a formation run.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FormationResult {
    /// The formed groups with their recommended lists and satisfactions.
    pub grouping: Grouping,
    /// The objective `Obj = Σ_j gs_j(I_gj^k)` of Section 2.4.
    pub objective: f64,
    /// How many intermediate groups (unique hash keys) Step 1 produced.
    /// Section 5 observes AV produces fewer keys than LM; this exposes it.
    pub n_buckets: usize,
}

/// A group formation algorithm.
pub trait GroupFormer {
    /// Human-readable algorithm name for the given configuration.
    fn name(&self, cfg: &FormationConfig) -> String;

    /// Forms at most `cfg.ell` groups over all users of `matrix`.
    ///
    /// `prefs` must be built from the same matrix (callers typically build
    /// it once and reuse it across runs).
    fn form(
        &self,
        matrix: &RatingMatrix,
        prefs: &PrefIndex,
        cfg: &FormationConfig,
    ) -> Result<FormationResult>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::RatingScale;

    #[test]
    fn grd_names() {
        let c = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 5, 10);
        assert_eq!(c.grd_name(), "GRD-LM-MIN");
        let c = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 5, 10);
        assert_eq!(c.grd_name(), "GRD-AV-SUM");
    }

    #[test]
    fn validation() {
        let m = RatingMatrix::from_dense(&[&[3.0]], RatingScale::one_to_five()).unwrap();
        assert!(
            FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 1)
                .validate(&m)
                .is_ok()
        );
        assert!(matches!(
            FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 0, 1).validate(&m),
            Err(GfError::InvalidK { .. })
        ));
        assert!(matches!(
            FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 0).validate(&m),
            Err(GfError::InvalidEll { .. })
        ));
    }

    #[test]
    fn error_bounds_only_for_lm_min_and_sum() {
        let m = RatingMatrix::from_dense(&[&[3.0]], RatingScale::one_to_five()).unwrap();
        let bound = |sem, agg, k| FormationConfig::new(sem, agg, k, 2).error_bound(&m);
        assert_eq!(
            bound(Semantics::LeastMisery, Aggregation::Min, 3),
            Some(5.0)
        );
        assert_eq!(
            bound(Semantics::LeastMisery, Aggregation::Sum, 3),
            Some(15.0)
        );
        assert_eq!(bound(Semantics::LeastMisery, Aggregation::Max, 3), None);
        assert_eq!(bound(Semantics::AggregateVoting, Aggregation::Min, 3), None);
    }
}
