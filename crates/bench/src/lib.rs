//! # gf-bench — shared harness for the per-figure benchmark binaries
//!
//! Every table and figure of the paper's evaluation (Section 7) has a
//! dedicated bench target (see `benches/`). This library holds the shared
//! plumbing: scaled experiment sizes, dataset preparation mirroring the
//! paper's pre-processing, and algorithm line-ups.
//!
//! ## Scale
//!
//! The paper's full sizes (200,000 users, 136,736 items, …) make a complete
//! `cargo bench` run take a long while. The `GF_BENCH_SCALE` environment
//! variable selects the regime:
//!
//! * `quick` (default) — shapes preserved, sizes divided so the whole suite
//!   finishes in a few minutes;
//! * `paper` — the sizes from the paper.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

use gf_baselines::{BaselineFormer, ClusterStrategy};
use gf_core::{
    FormationConfig, FormationResult, GroupFormer, IncrementalFormer, MissingPolicy, PrefIndex,
    RatingMatrix, Result,
};
use gf_datasets::{sample, SynthConfig};
use gf_eval::experiment::{run_timed, RunRecord};
use gf_exact::{LocalSearch, LocalSearchConfig};
use gf_recsys::{complete_matrix_threaded, BiasModel};

/// Benchmark scale regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes (default) — same shapes, minutes not hours.
    Quick,
    /// The paper's sizes.
    Paper,
}

impl Scale {
    /// Reads `GF_BENCH_SCALE` (`quick` | `paper`).
    pub fn from_env() -> Scale {
        match std::env::var("GF_BENCH_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Quick,
        }
    }

    /// Divides a paper-scale quantity under `Quick`.
    pub fn shrink(self, paper_value: usize, divisor: usize) -> usize {
        match self {
            Scale::Paper => paper_value,
            Scale::Quick => (paper_value / divisor).max(1),
        }
    }
}

/// A prepared experimental instance.
pub struct Instance {
    /// Display name.
    pub name: String,
    /// The rating matrix the algorithms run on.
    pub matrix: RatingMatrix,
    /// Preference index built on that matrix.
    pub prefs: PrefIndex,
}

/// Prepares a *quality-experiment* slice, mirroring the paper's setup: a
/// synthetic corpus shaped like `preset`, sliced to `n_users x n_items`
/// (random users × densest items) and completed with predicted ratings
/// (bias model, quantized to whole stars) — the "user provided or system
/// predicted" preference matrix of Section 2.1.
pub fn quality_instance(
    preset: SynthConfig,
    n_users: usize,
    n_items: usize,
    seed: u64,
) -> Instance {
    // Generate a corpus comfortably larger than the slice.
    let corpus = preset
        .with_users((n_users as u32) * 3)
        .with_items((n_items as u32) * 3)
        .with_seed(seed)
        .generate();
    let slice = sample::experimental_slice(&corpus.matrix, n_users, n_items, seed ^ 0x51)
        .expect("slice within corpus bounds");
    let bias = BiasModel::fit(&slice, 25.0);
    // Auto-threaded completion: bit-for-bit identical to sequential.
    let full = complete_matrix_threaded(&slice, &bias, Some(1.0), 0).expect("completion");
    let prefs = PrefIndex::build(&full);
    Instance {
        name: format!("{}-{}x{}", corpus.name, n_users, n_items),
        matrix: full,
        prefs,
    }
}

/// Prepares a *scalability* instance: the sparse corpus itself, no
/// completion (missing ratings handled by `MissingPolicy::Min`), as at
/// 100k+ users a dense matrix would not fit in memory — see DESIGN.md.
pub fn scalability_instance(
    preset: SynthConfig,
    n_users: u32,
    n_items: u32,
    seed: u64,
) -> Instance {
    let corpus = preset
        .with_items(n_items)
        .with_users(n_users)
        .with_seed(seed)
        .generate();
    let prefs = PrefIndex::build(&corpus.matrix);
    Instance {
        name: format!("{}-{}x{}", corpus.name, n_users, n_items),
        matrix: corpus.matrix,
        prefs,
    }
}

/// The GRD greedy algorithm for a config.
pub fn grd() -> Box<dyn GroupFormer> {
    Box::new(gf_core::GreedyFormer::new())
}

/// The greedy as `gf-serve` runs it on boot and on every cold refresh:
/// [`IncrementalFormer::new`], which forms the [`grd`] grouping and also
/// keeps the bucket state later refreshes patch. Timed against [`grd`],
/// it prices that standing state.
pub fn grd_incremental() -> Box<dyn GroupFormer> {
    Box::new(IncrementalInit)
}

/// [`GroupFormer`] face of [`IncrementalFormer::new`] (see
/// [`grd_incremental`]).
struct IncrementalInit;

impl GroupFormer for IncrementalInit {
    fn name(&self, cfg: &FormationConfig) -> String {
        format!("INC-{}", cfg.grd_name())
    }

    fn form(
        &self,
        matrix: &RatingMatrix,
        prefs: &PrefIndex,
        cfg: &FormationConfig,
    ) -> Result<FormationResult> {
        Ok(IncrementalFormer::new(matrix, prefs, *cfg)?
            .result()
            .clone())
    }
}

/// The paper's clustering baseline, with an iteration cap suitable for
/// benches (the paper's own cap is 100; quality sizes converge well before).
pub fn baseline(max_iter: usize) -> Box<dyn GroupFormer> {
    Box::new(BaselineFormer::new().with_max_iter(max_iter))
}

/// The scalable k-means-only baseline (used in the scalability figures).
pub fn baseline_kmeans(max_iter: usize) -> Box<dyn GroupFormer> {
    Box::new(
        BaselineFormer::new()
            .with_strategy(ClusterStrategy::RatingKMeans)
            .with_max_iter(max_iter),
    )
}

/// The `OPT~` local-search proxy (swaps enabled only for small n, where the
/// O(n²) swap pass stays cheap).
pub fn opt_proxy(n_users: u32) -> Box<dyn GroupFormer> {
    Box::new(LocalSearch::with_config(LocalSearchConfig {
        max_rounds: 12,
        allow_swaps: n_users <= 400,
    }))
}

/// Runs one algorithm, panicking on configuration errors (bench inputs are
/// static and correct by construction).
pub fn run(
    former: &dyn GroupFormer,
    inst: &Instance,
    cfg: &FormationConfig,
    repeats: usize,
) -> RunRecord {
    run_timed(former, &inst.matrix, &inst.prefs, cfg, repeats).expect("bench run")
}

/// The default quality-experiment parameters of Section 7.1:
/// 200 users, 100 items, 10 groups, k = 5.
pub struct QualityDefaults {
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// Group budget ℓ.
    pub ell: usize,
    /// Recommended list length.
    pub k: usize,
    /// Repeat count for timing (the paper averages 3 runs).
    pub repeats: usize,
}

impl QualityDefaults {
    /// Section 7.1 defaults (identical in both scale regimes — they are
    /// already small).
    pub fn get() -> Self {
        QualityDefaults {
            n_users: 200,
            n_items: 100,
            ell: 10,
            k: 5,
            repeats: 3,
        }
    }
}

/// The default scalability parameters of Section 7.2: 100,000 users,
/// 10,000 items, 10 groups, k = 5 (divided by 10 under `Quick`).
pub struct ScalabilityDefaults {
    /// Number of users.
    pub n_users: u32,
    /// Number of items.
    pub n_items: u32,
    /// Group budget ℓ.
    pub ell: usize,
    /// Recommended list length.
    pub k: usize,
    /// Baseline k-means iteration cap.
    pub kmeans_iters: usize,
}

impl ScalabilityDefaults {
    /// Section 7.2 defaults under the given scale.
    pub fn get(scale: Scale) -> Self {
        ScalabilityDefaults {
            n_users: scale.shrink(100_000, 10) as u32,
            n_items: scale.shrink(10_000, 10) as u32,
            ell: 10,
            k: 5,
            kmeans_iters: 10,
        }
    }
}

/// Missing-rating policy used across the benches.
pub fn bench_policy() -> MissingPolicy {
    MissingPolicy::Min
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf_core::{Aggregation, Semantics};

    #[test]
    fn scale_from_env_defaults_to_quick() {
        // (Does not set the variable; other tests must not either.)
        assert_eq!(Scale::from_env(), Scale::Quick);
        assert_eq!(Scale::Quick.shrink(1000, 10), 100);
        assert_eq!(Scale::Paper.shrink(1000, 10), 1000);
        assert_eq!(Scale::Quick.shrink(5, 10), 1);
    }

    #[test]
    fn quality_instance_is_dense_and_shaped() {
        let inst = quality_instance(SynthConfig::yahoo_music(), 60, 30, 1);
        assert_eq!(inst.matrix.n_users(), 60);
        assert_eq!(inst.matrix.n_items(), 30);
        assert_eq!(inst.matrix.density(), 1.0);
    }

    #[test]
    fn scalability_instance_stays_sparse() {
        let inst = scalability_instance(SynthConfig::yahoo_music(), 300, 400, 2);
        assert!(inst.matrix.density() < 0.5);
        assert_eq!(inst.matrix.n_users(), 300);
    }

    #[test]
    fn lineup_runs_end_to_end() {
        let inst = quality_instance(SynthConfig::yahoo_music(), 50, 25, 3);
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Max, 3, 5);
        for former in [grd(), baseline(20), opt_proxy(50)] {
            let rec = run(former.as_ref(), &inst, &cfg, 1);
            assert!(rec.objective > 0.0, "{}", rec.algo);
        }
    }

    #[test]
    fn incremental_lineup_forms_the_grd_grouping() {
        let inst = scalability_instance(SynthConfig::yahoo_music(), 200, 60, 4);
        let cfg =
            FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 3, 8).with_threads(0);
        let inc = grd_incremental()
            .form(&inst.matrix, &inst.prefs, &cfg)
            .unwrap();
        let grd = grd().form(&inst.matrix, &inst.prefs, &cfg).unwrap();
        assert_eq!(inc, grd);
        assert_eq!(grd_incremental().name(&cfg), "INC-GRD-LM-MIN");
    }
}
