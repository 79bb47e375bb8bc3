//! Property-based tests for the core data model, the group recommendation
//! engine and the greedy formation algorithms.

use gf_core::alg::bucket::{
    build_buckets, build_buckets_threaded, canonical_buckets, personal_top_k,
};
use gf_core::{
    Aggregation, FormationConfig, GreedyFormer, GroupFormer, GroupRecommender, GrowthPolicy,
    MissingPolicy, PrefIndex, RatingMatrix, RatingScale, Semantics,
};
use proptest::prelude::*;

/// A random sparse rating instance on the 1..5 integer scale.
#[derive(Debug, Clone)]
struct Instance {
    n: u32,
    m: u32,
    triples: Vec<(u32, u32, f64)>,
}

fn instance(max_users: u32, max_items: u32) -> impl Strategy<Value = Instance> {
    (2..=max_users, 2..=max_items)
        .prop_flat_map(|(n, m)| {
            let cell = (0..n, 0..m, 1..=5u8, any::<bool>());
            (
                Just(n),
                Just(m),
                proptest::collection::vec(cell, 1..(n as usize * m as usize).min(64)),
            )
        })
        .prop_map(|(n, m, cells)| {
            let mut seen = std::collections::HashSet::new();
            let mut triples = Vec::new();
            for (u, i, r, keep) in cells {
                if keep && seen.insert((u, i)) {
                    triples.push((u, i, r as f64));
                }
            }
            // Ensure at least one rating so the instance is interesting.
            if triples.is_empty() {
                triples.push((0, 0, 3.0));
            }
            Instance { n, m, triples }
        })
}

fn matrix_of(inst: &Instance) -> RatingMatrix {
    RatingMatrix::from_triples(
        inst.n,
        inst.m,
        inst.triples.iter().copied(),
        RatingScale::one_to_five(),
    )
    .unwrap()
}

fn all_policies() -> [MissingPolicy; 3] {
    [
        MissingPolicy::Min,
        MissingPolicy::UserMean,
        MissingPolicy::Skip,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Greedy output is always a valid partition into at most `ell` groups
    /// whose stored objective matches a from-scratch recomputation.
    #[test]
    fn greedy_output_is_valid_partition(
        inst in instance(10, 8),
        k in 1usize..4,
        ell in 1usize..6,
        sem_lm in any::<bool>(),
        agg_ix in 0usize..3,
    ) {
        let m = matrix_of(&inst);
        let prefs = PrefIndex::build(&m);
        let sem = if sem_lm { Semantics::LeastMisery } else { Semantics::AggregateVoting };
        let agg = Aggregation::paper_set()[agg_ix];
        let cfg = FormationConfig::new(sem, agg, k, ell);
        let r = GreedyFormer::new().form(&m, &prefs, &cfg).unwrap();
        r.grouping.validate(m.n_users(), ell).unwrap();
        let recomputed = gf_core::recompute_objective(&m, &r.grouping, sem, agg, cfg.policy, k);
        prop_assert!((recomputed - r.objective).abs() < 1e-9,
            "stored {} vs recomputed {recomputed}", r.objective);
    }

    /// The group top-k list is sorted by (score desc, item asc), has the
    /// right length, contains no duplicates, and every reported score
    /// matches the single-item oracle.
    #[test]
    fn group_top_k_is_sound(
        inst in instance(8, 8),
        k in 1usize..6,
        sem_lm in any::<bool>(),
        policy_ix in 0usize..3,
    ) {
        let m = matrix_of(&inst);
        let sem = if sem_lm { Semantics::LeastMisery } else { Semantics::AggregateVoting };
        let rec = GroupRecommender::new(&m, sem).with_policy(all_policies()[policy_ix]);
        let members: Vec<u32> = (0..m.n_users()).collect();
        let top = rec.top_k(&members, k);
        prop_assert_eq!(top.len(), k.min(m.n_items() as usize));
        for w in top.windows(2) {
            prop_assert!(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "not sorted: {:?}", top);
        }
        let mut items: Vec<u32> = top.iter().map(|&(i, _)| i).collect();
        items.sort_unstable();
        items.dedup();
        prop_assert_eq!(items.len(), top.len(), "duplicate items in top-k");
        for &(item, score) in &top {
            let oracle = rec.item_score(&members, item);
            prop_assert!((score - oracle).abs() < 1e-9,
                "item {item}: {score} vs oracle {oracle}");
        }
    }

    /// The top-k list is exactly the k best items by (score desc, id asc)
    /// among *all* items — verified against a full oracle scan.
    #[test]
    fn group_top_k_matches_full_scan(
        inst in instance(6, 7),
        k in 1usize..8,
        sem_lm in any::<bool>(),
        policy_ix in 0usize..3,
    ) {
        let m = matrix_of(&inst);
        let sem = if sem_lm { Semantics::LeastMisery } else { Semantics::AggregateVoting };
        let rec = GroupRecommender::new(&m, sem).with_policy(all_policies()[policy_ix]);
        let members: Vec<u32> = (0..m.n_users()).collect();
        let mut full: Vec<(u32, f64)> = (0..m.n_items())
            .map(|i| (i, rec.item_score(&members, i)))
            .collect();
        full.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        full.truncate(k.min(m.n_items() as usize));
        let fast = rec.top_k(&members, k);
        prop_assert_eq!(fast.len(), full.len());
        for (f, o) in fast.iter().zip(full.iter()) {
            prop_assert_eq!(f.0, o.0, "fast {:?} vs oracle {:?}", fast, full);
            prop_assert!((f.1 - o.1).abs() < 1e-9);
        }
    }

    /// Personal top-k padding: correct length, non-increasing scores under
    /// Min policy, and all k items distinct.
    #[test]
    fn personal_top_k_padding(inst in instance(6, 10), k in 1usize..12) {
        let m = matrix_of(&inst);
        let prefs = PrefIndex::build(&m);
        for u in 0..m.n_users() {
            let (items, scores) = personal_top_k(&m, &prefs, MissingPolicy::Min, u, k);
            prop_assert_eq!(items.len(), k.min(m.n_items() as usize));
            prop_assert_eq!(items.len(), scores.len());
            for w in scores.windows(2) {
                prop_assert!(w[0] >= w[1]);
            }
            let mut sorted = items.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), items.len());
        }
    }

    /// Section 5 observation: AV's coarser keys never produce more
    /// intermediate groups than LM's, for the same aggregation.
    #[test]
    fn av_buckets_never_exceed_lm_buckets(
        inst in instance(10, 6),
        k in 1usize..4,
        agg_ix in 0usize..3,
    ) {
        let m = matrix_of(&inst);
        let prefs = PrefIndex::build(&m);
        let agg = Aggregation::paper_set()[agg_ix];
        let lm = build_buckets(&m, &prefs, Semantics::LeastMisery, agg, MissingPolicy::Min, k);
        let av = build_buckets(&m, &prefs, Semantics::AggregateVoting, agg, MissingPolicy::Min, k);
        prop_assert!(av.len() <= lm.len());
        // Buckets partition the users in both cases.
        let total_lm: usize = lm.iter().map(|b| b.users.len()).sum();
        let total_av: usize = av.iter().map(|b| b.users.len()).sum();
        prop_assert_eq!(total_lm, m.n_users() as usize);
        prop_assert_eq!(total_av, m.n_users() as usize);
    }

    /// Monotonicity in the group budget: more groups never hurt the greedy
    /// objective on LM (each extra group peels off the current best bucket).
    #[test]
    fn lm_objective_monotone_in_ell(inst in instance(10, 6), k in 1usize..3) {
        let m = matrix_of(&inst);
        let prefs = PrefIndex::build(&m);
        let mut prev = f64::NEG_INFINITY;
        for ell in 1..=6usize {
            let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, k, ell);
            let r = GreedyFormer::new().form(&m, &prefs, &cfg).unwrap();
            prop_assert!(r.objective >= prev - 1e-9,
                "ell={ell}: {} < {prev}", r.objective);
            prev = r.objective;
        }
    }

    /// Determinism: two runs over the same input produce identical output.
    #[test]
    fn greedy_is_deterministic(inst in instance(10, 8), k in 1usize..4, ell in 1usize..5) {
        let m = matrix_of(&inst);
        let prefs = PrefIndex::build(&m);
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Sum, k, ell);
        let a = GreedyFormer::new().form(&m, &prefs, &cfg).unwrap();
        let b = GreedyFormer::new().form(&m, &prefs, &cfg).unwrap();
        prop_assert_eq!(a.grouping, b.grouping);
    }

    /// Threaded Step-1 bucket building is bit-for-bit identical to the
    /// sequential path across thread counts, for every semantics and
    /// aggregation (ratings are integers, so shard-merged sums are exact).
    #[test]
    fn threaded_buckets_match_sequential(
        inst in instance(17, 8),
        k in 1usize..4,
        sem_lm in any::<bool>(),
        agg_ix in 0usize..3,
    ) {
        let m = matrix_of(&inst);
        let prefs = PrefIndex::build(&m);
        let sem = if sem_lm { Semantics::LeastMisery } else { Semantics::AggregateVoting };
        let agg = Aggregation::paper_set()[agg_ix];
        let seq = canonical_buckets(build_buckets(&m, &prefs, sem, agg, MissingPolicy::Min, k));
        for threads in [1usize, 2, 7] {
            let par = canonical_buckets(build_buckets_threaded(
                &m, &prefs, sem, agg, MissingPolicy::Min, k, threads));
            prop_assert_eq!(&seq, &par, "threads={}", threads);
        }
    }

    /// A greedy run with a threaded config produces exactly the same
    /// grouping as the single-threaded default.
    #[test]
    fn threaded_greedy_matches_sequential(
        inst in instance(17, 6),
        k in 1usize..4,
        ell in 1usize..6,
        agg_ix in 0usize..3,
    ) {
        let m = matrix_of(&inst);
        let prefs = PrefIndex::build(&m);
        let agg = Aggregation::paper_set()[agg_ix];
        let cfg = FormationConfig::new(Semantics::LeastMisery, agg, k, ell);
        let seq = GreedyFormer::new().form(&m, &prefs, &cfg).unwrap();
        for threads in [2usize, 7] {
            let par = GreedyFormer::new()
                .form(&m, &prefs, &cfg.with_threads(threads))
                .unwrap();
            prop_assert_eq!(&seq.grouping, &par.grouping, "threads={}", threads);
        }
    }

    /// The matrix builder round-trips triples regardless of insertion order.
    #[test]
    fn matrix_round_trip(inst in instance(8, 8)) {
        let m = matrix_of(&inst);
        prop_assert_eq!(m.nnz(), inst.triples.len());
        for &(u, i, s) in &inst.triples {
            prop_assert_eq!(m.get(u, i), Some(s));
        }
        let mut shuffled = inst.triples.clone();
        shuffled.reverse();
        let m2 = RatingMatrix::from_triples(inst.n, inst.m, shuffled,
            RatingScale::one_to_five()).unwrap();
        prop_assert_eq!(m, m2);
    }

    /// A stream of one-update successor builds (matrix + preference index)
    /// lands on exactly the matrix and index a cold rebuild of the final
    /// ratings produces — the invariant the serving layer's `/rate` path
    /// rests on.
    #[test]
    fn upsert_and_patch_match_cold_rebuild(
        inst in instance(8, 8),
        updates in proptest::collection::vec((0u32..8, 0u32..8, 1u8..=5), 1..12),
    ) {
        let mut m = matrix_of(&inst);
        let mut prefs = PrefIndex::build(&m);
        for &(u, i, r) in &updates {
            let (u, i) = (u % inst.n, i % inst.m);
            let (next, _) = m.with_upserts_under(&[(u, i, r as f64)], GrowthPolicy::Fixed).unwrap();
            prefs = prefs.patched(&next, &[u]);
            m = next;
        }
        // Cold rebuild from the final triple set.
        let mut finals: std::collections::HashMap<(u32, u32), f64> =
            inst.triples.iter().map(|&(u, i, s)| ((u, i), s)).collect();
        for &(u, i, r) in &updates {
            finals.insert((u % inst.n, i % inst.m), r as f64);
        }
        let cold = RatingMatrix::from_triples(
            inst.n,
            inst.m,
            finals.iter().map(|(&(u, i), &s)| (u, i, s)),
            RatingScale::one_to_five(),
        ).unwrap();
        prop_assert_eq!(&m, &cold);
        let cold_prefs = PrefIndex::build(&cold);
        for u in 0..m.n_users() {
            prop_assert_eq!(prefs.ranked_items(u), cold_prefs.ranked_items(u));
            prop_assert_eq!(prefs.ranked_scores(u), cold_prefs.ranked_scores(u));
        }
    }

    /// Transpose preserves every rating.
    #[test]
    fn transpose_preserves_ratings(inst in instance(8, 8)) {
        let m = matrix_of(&inst);
        let t = m.transpose();
        let mut count = 0usize;
        for i in 0..m.n_items() {
            for (pos, &u) in t.item_users(i).iter().enumerate() {
                prop_assert_eq!(m.get(u, i), Some(t.item_scores(i)[pos]));
                count += 1;
            }
        }
        prop_assert_eq!(count, m.nnz());
    }
}
