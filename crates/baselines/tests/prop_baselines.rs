//! Property-based tests for the baseline substrate: Kendall-Tau as a
//! metric, clustering contracts, and the pipeline's GroupFormer contract.

use gf_baselines::distance::DistanceMatrix;
use gf_baselines::kendall::{
    count_inversions, count_inversions_naive, kendall_tau, kendall_tau_normalized,
};
use gf_baselines::kmeans::{kmeans, kmeans_threaded};
use gf_baselines::kmedoids::kmedoids;
use gf_baselines::{BaselineFormer, ClusterStrategy};
use gf_core::{Aggregation, FormationConfig, GroupFormer, PrefIndex, Semantics};
use gf_datasets::SynthConfig;
use proptest::prelude::*;

fn permutation(m: usize) -> impl Strategy<Value = Vec<u32>> {
    Just((0..m as u32).collect::<Vec<u32>>()).prop_shuffle()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fast inversion counting matches the naive oracle.
    #[test]
    fn inversions_match_naive(seq in proptest::collection::vec(0u32..50, 0..60)) {
        let naive = count_inversions_naive(&seq);
        let mut scratch = seq.clone();
        prop_assert_eq!(count_inversions(&mut scratch), naive);
    }

    /// Kendall-Tau over permutations is a metric: identity, symmetry,
    /// triangle inequality, and the m(m-1)/2 maximum.
    #[test]
    fn kendall_is_a_metric(
        (a, b, c) in (2usize..9).prop_flat_map(|m| (permutation(m), permutation(m), permutation(m)))
    ) {
        let ab = kendall_tau(&a, &b);
        let ba = kendall_tau(&b, &a);
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(kendall_tau(&a, &a), 0);
        let bc = kendall_tau(&b, &c);
        let ac = kendall_tau(&a, &c);
        prop_assert!(ac <= ab + bc);
        let m = a.len() as u64;
        prop_assert!(ab <= m * (m - 1) / 2);
        let norm = kendall_tau_normalized(&a, &b);
        prop_assert!((0.0..=1.0).contains(&norm));
    }

    /// Reversing a ranking yields the maximum distance.
    #[test]
    fn reversal_is_max(a in (2usize..12).prop_flat_map(permutation)) {
        let rev: Vec<u32> = a.iter().rev().copied().collect();
        let m = a.len() as u64;
        prop_assert_eq!(kendall_tau(&a, &rev), m * (m - 1) / 2);
    }

    /// Clustering contracts: every user assigned, at most k clusters,
    /// deterministic in the seed.
    #[test]
    fn clustering_contracts(n in 2u32..30, m in 2u32..8, k in 1usize..6, seed in 0u64..50) {
        let d = SynthConfig::tiny(n, m).generate();
        let km = kmeans(&d.matrix, k, 20, seed);
        prop_assert_eq!(km.assignment.len(), n as usize);
        prop_assert!(km.groups().len() <= k.min(n as usize));
        prop_assert_eq!(
            km.assignment.clone(),
            kmeans(&d.matrix, k, 20, seed).assignment
        );

        let prefs = PrefIndex::build(&d.matrix);
        let dist = DistanceMatrix::kendall_tau(&d.matrix, &prefs, Default::default(), 2);
        let md = kmedoids(&dist, k, 20, seed);
        prop_assert_eq!(md.assignment.len(), n as usize);
        prop_assert!(md.groups().len() <= k.min(n as usize));
        let total: usize = md.groups().iter().map(Vec::len).sum();
        prop_assert_eq!(total, n as usize);
    }

    /// The threaded k-means assignment pass is bit-for-bit identical to
    /// the sequential one across thread counts {2, 7} and auto (0), for
    /// any population size, cluster count and seed — each user's nearest
    /// centroid is a pure function of the centroids, so splitting the
    /// pass over workers must not change anything.
    #[test]
    fn kmeans_threaded_matches_sequential(
        n in 1u32..30,
        m in 2u32..8,
        k in 1usize..6,
        seed in 0u64..50,
    ) {
        let d = SynthConfig::tiny(n, m).generate();
        let sequential = kmeans(&d.matrix, k, 15, seed);
        for threads in [2usize, 7, 0] {
            let threaded = kmeans_threaded(&d.matrix, k, 15, seed, threads);
            prop_assert_eq!(&sequential.assignment, &threaded.assignment,
                "threads={}", threads);
            prop_assert_eq!(sequential.iterations, threaded.iterations,
                "threads={}", threads);
        }
    }

    /// The distance matrix is symmetric with a zero diagonal, and parallel
    /// construction agrees bit-for-bit with single-threaded construction
    /// across thread counts {2, 7} and auto (0), down to n = 1.
    #[test]
    fn distance_matrix_symmetric(n in 1u32..18, m in 2u32..6) {
        let d = SynthConfig::tiny(n, m).generate();
        let prefs = PrefIndex::build(&d.matrix);
        let one = DistanceMatrix::kendall_tau(&d.matrix, &prefs, Default::default(), 1);
        for threads in [2usize, 7, 0] {
            let t = DistanceMatrix::kendall_tau(&d.matrix, &prefs, Default::default(), threads);
            for a in 0..n {
                prop_assert_eq!(one.get(a, a), 0.0);
                for b in 0..n {
                    prop_assert_eq!(one.get(a, b), one.get(b, a));
                    prop_assert_eq!(one.get(a, b), t.get(a, b), "threads={}", threads);
                    prop_assert!((0.0..=1.0).contains(&one.get(a, b)));
                }
            }
        }
    }

    /// Both baseline strategies and the random anchor satisfy the
    /// GroupFormer contract on arbitrary inputs.
    #[test]
    fn formers_contract(
        n in 2u32..25,
        m in 2u32..8,
        ell in 1usize..6,
        k in 1usize..4,
        lm in any::<bool>(),
    ) {
        let d = SynthConfig::tiny(n, m).generate();
        let prefs = PrefIndex::build(&d.matrix);
        let sem = if lm { Semantics::LeastMisery } else { Semantics::AggregateVoting };
        let cfg = FormationConfig::new(sem, Aggregation::Min, k, ell);
        let formers: Vec<Box<dyn GroupFormer>> = vec![
            Box::new(BaselineFormer::new().with_strategy(ClusterStrategy::KendallMedoids).with_max_iter(15)),
            Box::new(BaselineFormer::new().with_strategy(ClusterStrategy::RatingKMeans).with_max_iter(15)),
        ];
        for former in formers {
            let r = former.form(&d.matrix, &prefs, &cfg).unwrap();
            r.grouping.validate(n, ell).unwrap();
            let recomputed = gf_core::recompute_objective(
                &d.matrix, &r.grouping, sem, cfg.aggregation, cfg.policy, k,
            );
            prop_assert!((recomputed - r.objective).abs() < 1e-9, "{}", former.name(&cfg));
        }
    }
}
