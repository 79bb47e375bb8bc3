//! Property suite for dirty-bucket incremental re-formation: for random
//! rating streams split into arbitrary dirty-set partitions,
//! [`IncrementalFormer`] must (a) keep the Step-1 bucket state bit-for-bit
//! equal to a cold `build_buckets` run after **every** batch, (b) emit
//! the exact cold [`GreedyFormer`] grouping, and (c) keep its Step-2 rank
//! index and tail list equal to a from-scratch scan.

use gf_core::alg::bucket::{bucket_order, build_buckets, canonical_buckets};
use gf_core::{
    brute_force_candidates, Aggregation, FormationConfig, FormationResult, GreedyFormer,
    GroupFormer, GrowthPolicy, IncrementalFormer, MissingPolicy, PrefIndex, RatingDelta,
    RatingMatrix, RatingScale, Semantics,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A random sparse instance on the 1..5 integer grid with at least one
/// rating (builders reject empty matrices).
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
                proptest::collection::vec(cell, 1..(n as usize * m as usize).min(40)),
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

/// Every semantics the former serves: the paper's two, Consensus at
/// three disagreement weights (λ = 0 is the plain mean) and
/// LeaderWeighted.
const SEMANTICS: [Semantics; 6] = [
    Semantics::LeastMisery,
    Semantics::AggregateVoting,
    Semantics::Consensus { lambda: 0.0 },
    Semantics::Consensus { lambda: 0.5 },
    Semantics::Consensus { lambda: 2.0 },
    Semantics::LeaderWeighted,
];

const POLICIES: [MissingPolicy; 3] = [
    MissingPolicy::Min,
    MissingPolicy::Skip,
    MissingPolicy::UserMean,
];

fn config(sem_ix: usize, agg_ix: usize, k: usize, ell: usize, policy_ix: usize) -> FormationConfig {
    FormationConfig::new(SEMANTICS[sem_ix], Aggregation::paper_set()[agg_ix], k, ell)
        .with_policy(POLICIES[policy_ix])
}

/// Applies one dirty batch through the successor builders the serving
/// layer runs and returns the deltas the former needs.
fn apply_batch(
    matrix: &mut RatingMatrix,
    prefs: &mut PrefIndex,
    batch: &[(u32, u32, f64)],
) -> Vec<RatingDelta> {
    apply_batch_under(matrix, prefs, batch, GrowthPolicy::Fixed)
}

fn apply_batch_under(
    matrix: &mut RatingMatrix,
    prefs: &mut PrefIndex,
    batch: &[(u32, u32, f64)],
    growth: GrowthPolicy,
) -> Vec<RatingDelta> {
    let (m, outcomes) = matrix.with_upserts_under(batch, growth).unwrap();
    let users: Vec<u32> = batch.iter().map(|&(u, _, _)| u).collect();
    *prefs = prefs.patched(&m, &users);
    *matrix = m;
    batch
        .iter()
        .zip(outcomes)
        .map(|(&(u, i, s), o)| RatingDelta::from_upsert(u, i, s, o))
        .collect()
}

/// Splits `updates` into batches of the given sizes (cycled); every
/// partition of the same stream must produce the same final state.
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

fn assert_buckets_match_cold(
    former: &IncrementalFormer,
    matrix: &RatingMatrix,
    prefs: &PrefIndex,
    cfg: &FormationConfig,
) {
    let cold = canonical_buckets(build_buckets(
        matrix,
        prefs,
        cfg.semantics,
        cfg.aggregation,
        cfg.policy,
        cfg.k,
    ));
    assert_eq!(former.canonical_buckets(), cold);
}

/// The maintained Step-2 state is the scan: the index holds one fresh
/// rank per standing bucket and the tail list is the flagged tail
/// ([`IncrementalFormer::checked_index`]), and the buckets it ranks first
/// are the `ell - 1` best cold buckets under `bucket_order`. Under `Min`
/// the tail's candidate list, read off the maintained rater counts, is
/// the brute-force one.
fn assert_index_is_the_scan(
    former: &IncrementalFormer,
    matrix: &RatingMatrix,
    prefs: &PrefIndex,
    cfg: &FormationConfig,
) {
    let indexed = former.checked_index().unwrap();
    let mut cold = build_buckets(
        matrix,
        prefs,
        cfg.semantics,
        cfg.aggregation,
        cfg.policy,
        cfg.k,
    );
    cold.sort_by(|a, b| bucket_order(a, b, cfg.semantics, cfg.aggregation));
    let scanned: Vec<Vec<u32>> = cold
        .into_iter()
        .take(cfg.ell.saturating_sub(1))
        .map(|b| b.users)
        .collect();
    assert_eq!(indexed, scanned);
    let groups = &former.result().grouping.groups;
    let has_tail = groups.len() > indexed.len();
    let candidates = former.tail_candidates();
    assert_eq!(
        candidates.is_some(),
        has_tail && cfg.policy == MissingPolicy::Min
    );
    if let Some(list) = candidates {
        let tail = &groups.last().unwrap().members;
        assert_eq!(list, brute_force_candidates(matrix, tail).unwrap());
    }
}

/// A refresh hands on what it left alone. The tail list is the tail
/// group's member list itself; a refresh that flipped no user's tail
/// membership (the tail kept its members) keeps the same allocation; and
/// every group whose members are unchanged at its index shares the
/// previous group's allocation. `before` and `before_tail` are the result
/// and tail list before the refresh. A refresh that rebuilt the former
/// from scratch (an item admission crossing `k`) shares nothing and is
/// exempt.
fn assert_shares_what_it_kept(
    former: &IncrementalFormer,
    before: &FormationResult,
    before_tail: &Arc<[u32]>,
) {
    let groups = &former.result().grouping.groups;
    if !former.tail().is_empty() {
        let emitted = &groups.last().unwrap().members;
        assert!(
            Arc::ptr_eq(former.tail(), emitted),
            "the tail group copied the tail list"
        );
    }
    if **before_tail == **former.tail() {
        assert!(
            Arc::ptr_eq(before_tail, former.tail()),
            "a refresh that flipped no tail member rebuilt the tail list"
        );
    }
    for (gi, (old, new)) in before.grouping.groups.iter().zip(groups).enumerate() {
        if old.members == new.members {
            assert!(
                Arc::ptr_eq(&old.members, &new.members),
                "group {gi} copied an unchanged member list"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// After every dirty batch — however the stream is partitioned —
    /// buckets equal a cold Step 1 and the grouping equals a cold
    /// GreedyFormer run, exactly.
    #[test]
    fn incremental_equals_cold_over_any_partition(
        inst in instance(9, 7),
        updates in proptest::collection::vec((0u32..9, 0u32..7, 1u8..=5), 1..20),
        sizes in proptest::collection::vec(1usize..5, 1..4),
        (sem_ix, agg_ix, policy_ix) in (0usize..6, 0usize..3, 0usize..3),
        (k, ell) in (1usize..4, 1usize..5),
    ) {
        let cfg = config(sem_ix, agg_ix, k, ell, policy_ix);
        let mut matrix = matrix_of(&inst);
        let mut prefs = PrefIndex::build(&matrix);
        let mut former = IncrementalFormer::new(&matrix, &prefs, cfg).unwrap();
        let updates: Vec<(u32, u32, f64)> = updates
            .into_iter()
            .map(|(u, i, r)| (u % inst.n, i % inst.m, r as f64))
            .collect();
        for batch in partition(&updates, &sizes) {
            let deltas = apply_batch(&mut matrix, &mut prefs, &batch);
            let (before, before_tail) = (former.result().clone(), Arc::clone(former.tail()));
            former.refresh(&matrix, &prefs, &deltas).unwrap();
            assert_buckets_match_cold(&former, &matrix, &prefs, &cfg);
            assert_index_is_the_scan(&former, &matrix, &prefs, &cfg);
            assert_shares_what_it_kept(&former, &before, &before_tail);
        }
        // Final state: the whole result (grouping order, top-k lists,
        // satisfactions, objective, bucket count) is the cold run's.
        let cold_prefs = PrefIndex::build(&matrix);
        for u in 0..inst.n {
            prop_assert_eq!(prefs.ranked_items(u), cold_prefs.ranked_items(u));
            prop_assert_eq!(prefs.ranked_scores(u), cold_prefs.ranked_scores(u));
        }
        let cold = GreedyFormer::new().form(&matrix, &cold_prefs, &cfg).unwrap();
        prop_assert_eq!(former.result(), &cold);
        former.result().grouping.validate(inst.n, cfg.ell).unwrap();
    }

    /// Every semantics under every missing-rating policy, with growth:
    /// batches that admit never-seen users and items while rewriting
    /// existing cells. After **every** batch the former's whole result
    /// equals a cold `GreedyFormer` run on the grown matrix, bit for bit —
    /// under `Min` that is the maintained moment tail (count, sum, sum of
    /// squares, minimum, leader row), under `Skip`/`UserMean` the full
    /// tail rescore.
    #[test]
    fn every_semantics_and_policy_equals_cold_under_growth(
        inst in instance(7, 5),
        updates in proptest::collection::vec((0u32..10, 0u32..8, 1u8..=5), 1..14),
        sizes in proptest::collection::vec(1usize..4, 1..3),
        agg_ix in 0usize..3,
        (k, ell) in (1usize..4, 1usize..5),
    ) {
        let (n_ids, m_ids) = (inst.n + 3, inst.m + 3);
        let growth = GrowthPolicy::Grow { max_users: n_ids, max_items: m_ids };
        let updates: Vec<(u32, u32, f64)> = updates
            .into_iter()
            .map(|(u, i, r)| (u % n_ids, i % m_ids, r as f64))
            .collect();
        for sem_ix in 0..SEMANTICS.len() {
            for policy_ix in 0..POLICIES.len() {
                let cfg = config(sem_ix, agg_ix, k, ell, policy_ix);
                let mut matrix = matrix_of(&inst);
                let mut prefs = PrefIndex::build(&matrix);
                let mut former = IncrementalFormer::new(&matrix, &prefs, cfg).unwrap();
                for batch in partition(&updates, &sizes) {
                    let old_m = matrix.n_items() as usize;
                    let deltas = apply_batch_under(&mut matrix, &mut prefs, &batch, growth);
                    let before = former.result().clone();
                    let before_tail = Arc::clone(former.tail());
                    former.refresh(&matrix, &prefs, &deltas).unwrap();
                    assert_index_is_the_scan(&former, &matrix, &prefs, &cfg);
                    if cfg.k.min(old_m) == cfg.k.min(matrix.n_items() as usize) {
                        assert_shares_what_it_kept(&former, &before, &before_tail);
                    }
                    let cold = GreedyFormer::new()
                        .form(&matrix, &PrefIndex::build(&matrix), &cfg)
                        .unwrap();
                    prop_assert_eq!(former.result(), &cold, "{} {:?}", cfg.grd_name(), cfg.policy);
                    for (x, y) in former.result().grouping.groups.iter().zip(&cold.grouping.groups) {
                        prop_assert_eq!(x.satisfaction.to_bits(), y.satisfaction.to_bits());
                        for (a, b) in x.top_k.iter().zip(&y.top_k) {
                            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
                        }
                    }
                }
            }
        }
    }

    /// A valid but stale imported selection — one selected bucket swapped
    /// for an unselected one — leaves the index and tail list consistent
    /// with the state as imported, and the next refresh (an empty one or
    /// a random batch) lands on the scan and the cold grouping.
    #[test]
    fn a_stale_imported_selection_keeps_the_index_exact(
        inst in instance(9, 7),
        updates in proptest::collection::vec((0u32..9, 0u32..7, 1u8..=5), 0..6),
        swap in 0usize..64,
        (sem_ix, agg_ix, policy_ix) in (0usize..6, 0usize..3, 0usize..3),
        (k, ell) in (1usize..4, 2usize..5),
    ) {
        let cfg = config(sem_ix, agg_ix, k, ell, policy_ix);
        let mut matrix = matrix_of(&inst);
        let mut prefs = PrefIndex::build(&matrix);
        let mut state = IncrementalFormer::new(&matrix, &prefs, cfg).unwrap().export_state();
        let unselected: Vec<u32> = (0..state.buckets.len() as u32)
            .filter(|idx| !state.selected.contains(idx))
            .collect();
        if !state.selected.is_empty() && !unselected.is_empty() {
            state.selected[0] = unselected[swap % unselected.len()];
        }
        let mut former = IncrementalFormer::import_state(&matrix, cfg, &state).unwrap();
        prop_assert_eq!(former.export_state(), state);
        former.checked_index().unwrap();
        let updates: Vec<(u32, u32, f64)> = updates
            .into_iter()
            .map(|(u, i, r)| (u % inst.n, i % inst.m, r as f64))
            .collect();
        let deltas = apply_batch(&mut matrix, &mut prefs, &updates);
        former.refresh(&matrix, &prefs, &deltas).unwrap();
        assert_buckets_match_cold(&former, &matrix, &prefs, &cfg);
        assert_index_is_the_scan(&former, &matrix, &prefs, &cfg);
        let cold = GreedyFormer::new().form(&matrix, &PrefIndex::build(&matrix), &cfg).unwrap();
        prop_assert_eq!(former.result(), &cold);
    }

    /// The batch builder against its reference: one `with_upserts_under`
    /// call over a batch equals applying the same updates one at a time
    /// through one-element calls (cells, dimensions and per-update
    /// outcomes, same-batch rewrites included), under both `Fixed` and
    /// `Grow`; `patched` over the batch equals a cold `PrefIndex::build`.
    #[test]
    fn batch_successor_matches_one_update_at_a_time(
        inst in instance(7, 6),
        updates in proptest::collection::vec((0u32..10, 0u32..9, 1u8..=5), 1..16),
        rewrite in 1u8..=5,
        grow in any::<bool>(),
    ) {
        let growth = if grow {
            GrowthPolicy::Grow { max_users: inst.n + 3, max_items: inst.m + 3 }
        } else {
            GrowthPolicy::Fixed
        };
        // Fixed keeps ids in range; Grow may name up to 3 ids past each edge.
        let (n_ids, m_ids) = if grow { (inst.n + 3, inst.m + 3) } else { (inst.n, inst.m) };
        let mut updates: Vec<(u32, u32, f64)> = updates
            .into_iter()
            .map(|(u, i, r)| (u % n_ids, i % m_ids, r as f64))
            .collect();
        // Always rewrite the first update's cell later in the same batch.
        updates.push((updates[0].0, updates[0].1, rewrite as f64));
        let base = matrix_of(&inst);
        let (batched, outcomes) = base.with_upserts_under(&updates, growth).unwrap();
        let mut sequential = base.clone();
        for (ix, &update) in updates.iter().enumerate() {
            let (next, outcome) = sequential.with_upserts_under(&[update], growth).unwrap();
            prop_assert_eq!(outcome.len(), 1);
            prop_assert_eq!(outcomes[ix], outcome[0], "update {}", ix);
            sequential = next;
        }
        prop_assert_eq!(
            (batched.n_users(), batched.n_items()),
            (sequential.n_users(), sequential.n_items())
        );
        prop_assert_eq!(&batched, &sequential);
        let users: Vec<u32> = updates.iter().map(|&(u, _, _)| u).collect();
        let prefs = PrefIndex::build(&base).patched(&batched, &users);
        let cold = PrefIndex::build(&batched);
        prop_assert_eq!(prefs.n_users(), cold.n_users());
        for u in 0..batched.n_users() {
            prop_assert_eq!(prefs.ranked_items(u), cold.ranked_items(u));
            prop_assert_eq!(prefs.ranked_scores(u), cold.ranked_scores(u));
        }
    }
}
