//! Property suite for population growth: for **any** sequence of growth
//! batches — updates that admit never-seen users and items while mutating
//! existing cells — the grown state must equal a cold build over the final
//! union universe at every step:
//!
//! * `RatingMatrix::with_upserts_under` == a cold `from_triples` over the
//!   union;
//! * `PrefIndex::patched` == a cold `PrefIndex::build`;
//! * `IncrementalFormer` bucket state == a cold `build_buckets` run,
//!   bit for bit, and the emitted grouping == the cold `GreedyFormer`
//!   grouping exactly (unbounded repair).

use gf_core::alg::bucket::{build_buckets, canonical_buckets};
use gf_core::{
    Aggregation, FormationConfig, GreedyFormer, GroupFormer, GrowthPolicy, IncrementalFormer,
    MissingPolicy, PrefIndex, RatingDelta, RatingMatrix, RatingScale, Semantics,
};
use proptest::prelude::*;

/// A random sparse base instance on the 1..5 integer grid with at least
/// one rating (builders reject empty matrices).
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
                proptest::collection::vec(cell, 1..(n as usize * m as usize).min(32)),
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

fn config(sem_lm: bool, agg_ix: usize, k: usize, ell: usize, policy_ix: usize) -> FormationConfig {
    let sem = if sem_lm {
        Semantics::LeastMisery
    } else {
        Semantics::AggregateVoting
    };
    let policy = [
        MissingPolicy::Min,
        MissingPolicy::Skip,
        MissingPolicy::UserMean,
    ][policy_ix];
    FormationConfig::new(sem, Aggregation::paper_set()[agg_ix], k, ell).with_policy(policy)
}

/// Splits `updates` into batches of the given sizes (cycled).
fn partition(updates: &[(u32, u32, f64)], sizes: &[usize]) -> Vec<Vec<(u32, u32, f64)>> {
    let mut batches = Vec::new();
    let mut rest = updates;
    let mut ix = 0usize;
    while !rest.is_empty() {
        let take = sizes[ix % sizes.len()].clamp(1, rest.len());
        batches.push(rest[..take].to_vec());
        rest = &rest[take..];
        ix += 1;
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The acceptance-criteria property: any sequence of growth batches
    /// leaves matrix, preference index and standing-former state equal to
    /// a cold build over the final union universe — after **every** batch.
    #[test]
    fn growth_batches_equal_cold_build_on_the_union(
        inst in instance(6, 5),
        // Updates reach past the base universe on both axes: users up to
        // base + 6, items up to base + 5, so batches interleave
        // admissions, gap rows and plain overwrites.
        updates in proptest::collection::vec((0u32..12, 0u32..10, 1u8..=5), 1..18),
        sizes in proptest::collection::vec(1usize..5, 1..4),
        (sem_lm, agg_ix, policy_ix) in (any::<bool>(), 0usize..3, 0usize..3),
        (k, ell) in (1usize..5, 1usize..5),
    ) {
        let cfg = config(sem_lm, agg_ix, k, ell, policy_ix);
        let growth = GrowthPolicy::Grow { max_users: 12, max_items: 10 };
        let updates: Vec<(u32, u32, f64)> = updates
            .into_iter()
            .map(|(u, i, r)| (u, i, r as f64))
            .collect();
        let mut matrix = matrix_of(&inst);
        let mut prefs = PrefIndex::build(&matrix);
        let mut former = IncrementalFormer::new(&matrix, &prefs, cfg).unwrap();
        // Cells tracked for the cold union rebuild.
        let mut finals: std::collections::HashMap<(u32, u32), f64> =
            inst.triples.iter().map(|&(u, i, s)| ((u, i), s)).collect();
        let (mut union_n, mut union_m) = (inst.n, inst.m);
        for batch in partition(&updates, &sizes) {
            let (next, outcomes) = matrix.with_upserts_under(&batch, growth).unwrap();
            let users: Vec<u32> = batch.iter().map(|&(u, _, _)| u).collect();
            prefs = prefs.patched(&next, &users);
            matrix = next;
            for &(u, i, s) in &batch {
                finals.insert((u, i), s);
                union_n = union_n.max(u + 1);
                union_m = union_m.max(i + 1);
            }
            let deltas: Vec<RatingDelta> = batch
                .iter()
                .zip(outcomes)
                .map(|(&(u, i, s), o)| RatingDelta::from_upsert(u, i, s, o))
                .collect();
            former.refresh(&matrix, &prefs, &deltas).unwrap();

            // Cold rebuild over the union universe.
            let cold_matrix = RatingMatrix::from_triples(
                union_n,
                union_m,
                finals.iter().map(|(&(u, i), &s)| (u, i, s)),
                RatingScale::one_to_five(),
            ).unwrap();
            prop_assert_eq!(&matrix, &cold_matrix);
            let cold_prefs = PrefIndex::build(&cold_matrix);
            prop_assert_eq!(prefs.n_users(), cold_prefs.n_users());
            for u in 0..union_n {
                prop_assert_eq!(prefs.ranked_items(u), cold_prefs.ranked_items(u));
                prop_assert_eq!(prefs.ranked_scores(u), cold_prefs.ranked_scores(u));
            }
            let cold_buckets = canonical_buckets(build_buckets(
                &cold_matrix,
                &cold_prefs,
                cfg.semantics,
                cfg.aggregation,
                cfg.policy,
                cfg.k,
            ));
            prop_assert_eq!(former.canonical_buckets(), cold_buckets);
            let cold = GreedyFormer::new().form(&cold_matrix, &cold_prefs, &cfg).unwrap();
            prop_assert_eq!(former.result(), &cold);
            former.result().grouping.validate(union_n, cfg.ell).unwrap();
        }
    }

    /// Growth caps are atomic: a batch that would blow past the cap is
    /// rejected whole, so no successor is built and the old state keeps
    /// serving.
    #[test]
    fn exhausted_caps_reject_atomically(
        inst in instance(5, 4),
        good in proptest::collection::vec((0u32..7, 0u32..6, 1u8..=5), 0..6),
        overflow_user in 9u32..20,
    ) {
        let growth = GrowthPolicy::Grow { max_users: 7, max_items: 6 };
        let good: Vec<(u32, u32, f64)> = good
            .into_iter()
            .map(|(u, i, r)| (u, i, r as f64))
            .collect();
        let (matrix, _) = matrix_of(&inst).with_upserts_under(&good, growth).unwrap();
        let mut bad = good.clone();
        bad.push((overflow_user, 0, 3.0));
        prop_assert!(matches!(
            matrix.with_upserts_under(&bad, growth),
            Err(gf_core::GfError::GrowthExhausted { axis: "user", .. })
        ));
        prop_assert!(matches!(
            matrix.with_upserts_under(&[(0, 6, 3.0)], growth),
            Err(gf_core::GfError::GrowthExhausted { axis: "item", .. })
        ));
    }
}
