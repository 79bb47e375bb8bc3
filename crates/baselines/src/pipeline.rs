//! The `Baseline-LM` / `Baseline-AV` pipelines.
//!
//! Cluster first (ignoring semantics), then — exactly as the paper
//! describes — "once these groups are formed, for each group, we compute
//! the top-k item list and respective group satisfaction scores
//! (using Min/Max/Sum aggregation) based on LM or AV semantics."

use crate::distance::DistanceMatrix;
use crate::kmeans::kmeans_threaded;
use crate::kmedoids::{kmedoids, Clustering};
use gf_core::{
    FormationConfig, FormationResult, Group, GroupFormer, GroupRecommender, Grouping, PrefIndex,
    RatingMatrix, Result,
};

/// Which clustering backend the baseline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterStrategy {
    /// Exact pairwise Kendall-Tau + k-medoids. Θ(n²·m log m) setup — the
    /// quality-experiment path (hundreds of users).
    KendallMedoids,
    /// Lloyd's k-means on sparse rating vectors — the scalability path.
    RatingKMeans,
    /// `KendallMedoids` when `n <= pivot`, else `RatingKMeans`.
    Auto {
        /// User-count threshold for switching strategies.
        pivot: u32,
    },
}

impl Default for ClusterStrategy {
    fn default() -> Self {
        ClusterStrategy::Auto { pivot: 1_000 }
    }
}

/// The paper's baseline group former (adapted from Ntoutsi et al. \[22\]).
#[derive(Debug, Clone, Copy)]
pub struct BaselineFormer {
    strategy: ClusterStrategy,
    /// Iteration cap; the paper sets 100.
    max_iter: usize,
    seed: u64,
    /// Raw thread knob (0 = auto); resolved by `gf_core::resolve_threads`.
    n_threads: usize,
}

impl Default for BaselineFormer {
    fn default() -> Self {
        BaselineFormer::new()
    }
}

impl BaselineFormer {
    /// A baseline with the paper's defaults (auto strategy, 100 iterations,
    /// auto worker threads).
    pub fn new() -> Self {
        BaselineFormer {
            strategy: ClusterStrategy::default(),
            max_iter: 100,
            seed: 0xba5e_0001,
            n_threads: 0,
        }
    }

    /// Overrides the clustering strategy.
    pub fn with_strategy(mut self, strategy: ClusterStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the iteration cap.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for the parallel passes (the Kendall-Tau pairwise
    /// distance matrix and the k-means assignment loop). `0` = auto
    /// (`available_parallelism`); the knob is stored raw and resolved in
    /// one place, [`gf_core::resolve_threads`], when the work size is
    /// known — never clamped here.
    pub fn with_threads(mut self, n_threads: usize) -> Self {
        self.n_threads = n_threads;
        self
    }

    fn cluster(
        &self,
        matrix: &RatingMatrix,
        prefs: &PrefIndex,
        cfg: &FormationConfig,
    ) -> Clustering {
        let use_medoids = match self.strategy {
            ClusterStrategy::KendallMedoids => true,
            ClusterStrategy::RatingKMeans => false,
            ClusterStrategy::Auto { pivot } => matrix.n_users() <= pivot,
        };
        if use_medoids {
            let dist = DistanceMatrix::kendall_tau(matrix, prefs, cfg.policy, self.n_threads);
            kmedoids(&dist, cfg.ell, self.max_iter, self.seed)
        } else {
            kmeans_threaded(matrix, cfg.ell, self.max_iter, self.seed, self.n_threads)
        }
    }
}

impl GroupFormer for BaselineFormer {
    fn name(&self, cfg: &FormationConfig) -> String {
        format!("Baseline-{}-{}", cfg.semantics.tag(), cfg.aggregation.tag())
    }

    fn form(
        &self,
        matrix: &RatingMatrix,
        prefs: &PrefIndex,
        cfg: &FormationConfig,
    ) -> Result<FormationResult> {
        cfg.validate(matrix)?;
        let clustering = self.cluster(matrix, prefs, cfg);
        let rec = GroupRecommender::new(matrix, cfg.semantics).with_policy(cfg.policy);
        let mut groups = Vec::with_capacity(clustering.n_clusters);
        for mut members in clustering.groups() {
            members.sort_unstable();
            let top_k = rec.top_k(&members, cfg.k);
            let scores: Vec<f64> = top_k.iter().map(|&(_, s)| s).collect();
            let satisfaction = cfg.aggregation.apply(&scores);
            groups.push(Group {
                members: members.into(),
                top_k,
                satisfaction,
            });
        }
        let n_groups = groups.len();
        let grouping = Grouping::new(groups);
        debug_assert!(grouping.validate(matrix.n_users(), cfg.ell).is_ok());
        let objective = grouping.objective();
        Ok(FormationResult {
            grouping,
            objective,
            n_buckets: n_groups,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf_core::{Aggregation, GreedyFormer, Semantics};
    use gf_datasets::SynthConfig;

    fn structured() -> (RatingMatrix, PrefIndex) {
        let d = SynthConfig::yahoo_music()
            .with_users(120)
            .with_items(60)
            .with_user_noise(0.15)
            .generate();
        let p = PrefIndex::build(&d.matrix);
        (d.matrix, p)
    }

    #[test]
    fn baseline_names() {
        let b = BaselineFormer::new();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 5, 10);
        assert_eq!(b.name(&cfg), "Baseline-LM-MIN");
        let cfg = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 5, 10);
        assert_eq!(b.name(&cfg), "Baseline-AV-SUM");
    }

    #[test]
    fn baseline_produces_valid_grouping() {
        let (m, p) = structured();
        for strategy in [
            ClusterStrategy::KendallMedoids,
            ClusterStrategy::RatingKMeans,
        ] {
            let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 5, 8);
            let r = BaselineFormer::new()
                .with_strategy(strategy)
                .with_max_iter(30)
                .form(&m, &p, &cfg)
                .unwrap();
            r.grouping.validate(m.n_users(), 8).unwrap();
            assert!(r.grouping.len() <= 8);
        }
    }

    #[test]
    fn grd_beats_baseline_on_clustered_data() {
        // The paper's headline quality findings, in miniature, each on the
        // metric the paper reports for it: under LM the *objective* of GRD
        // dominates the baseline (Figures 1-2); under AV the *average group
        // satisfaction over the top-k list* does (Figure 3). (The raw AV
        // objective is size-dominated: a clustering that merely balances
        // groups can sum more member ratings — Example 4 of the paper shows
        // why reasoning about the AV objective is tricky.)
        let (m, p) = structured();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 3, 10);
        let grd = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        let base = BaselineFormer::new()
            .with_max_iter(50)
            .form(&m, &p, &cfg)
            .unwrap();
        assert!(
            grd.objective >= base.objective,
            "LM: GRD {} < baseline {}",
            grd.objective,
            base.objective
        );

        let cfg = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Min, 3, 10);
        let grd = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        let base = BaselineFormer::new()
            .with_max_iter(50)
            .form(&m, &p, &cfg)
            .unwrap();
        let avg = |g: &FormationResult| {
            gf_core::avg_group_satisfaction(
                &m,
                &g.grouping,
                Semantics::AggregateVoting,
                cfg.policy,
                cfg.k,
            )
        };
        assert!(
            avg(&grd) >= avg(&base),
            "AV: GRD avg {} below baseline avg {}",
            avg(&grd),
            avg(&base)
        );
    }

    #[test]
    fn auto_strategy_switches_on_population_size() {
        let (m, p) = structured();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 3, 5);
        // Force the pivot below n: must take the k-means path and still work.
        let r = BaselineFormer::new()
            .with_strategy(ClusterStrategy::Auto { pivot: 10 })
            .with_max_iter(20)
            .form(&m, &p, &cfg)
            .unwrap();
        r.grouping.validate(m.n_users(), 5).unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let (m, p) = structured();
        let cfg = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 3, 6);
        let a = BaselineFormer::new()
            .with_seed(3)
            .form(&m, &p, &cfg)
            .unwrap();
        let b = BaselineFormer::new()
            .with_seed(3)
            .form(&m, &p, &cfg)
            .unwrap();
        assert_eq!(a.grouping, b.grouping);
    }

    #[test]
    fn single_group_budget() {
        let (m, p) = structured();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Max, 5, 1);
        let r = BaselineFormer::new().form(&m, &p, &cfg).unwrap();
        assert_eq!(r.grouping.len(), 1);
        assert_eq!(r.grouping.groups[0].members.len(), m.n_users() as usize);
    }
}
