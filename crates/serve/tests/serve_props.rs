//! Property tests for the serving state — chiefly the acceptance-criteria
//! invariant: the incremental `/rate` path (matrix upsert + per-user
//! preference patch + background re-formation) converges to **exactly**
//! the snapshot a cold rebuild over the same final ratings produces.

use gf_core::{
    brute_force_candidates, Aggregation, FormationConfig, GrowthPolicy, IncrementalFormer,
    MissingPolicy, PrefIndex, RatingMatrix, RatingScale, RefreshMode, Semantics, UNASSIGNED,
};
use gf_serve::{GroupingState, ServeConfig, ServeState};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// A random sparse rating instance on the 1..5 integer scale, guaranteed
/// at least one rating (the serve layer rejects empty matrices).
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
                proptest::collection::vec(cell, 1..(n as usize * m as usize).min(48)),
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

/// `g`'s group of every user id below `n_users`, read through
/// [`GroupingState::group_of`].
fn assignment_of(g: &GroupingState, n_users: u32) -> Vec<Option<usize>> {
    (0..n_users).map(|u| g.group_of(u)).collect()
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

fn config(sem_lm: bool, agg_ix: usize, k: usize, ell: usize) -> FormationConfig {
    let sem = if sem_lm {
        Semantics::LeastMisery
    } else {
        Semantics::AggregateVoting
    };
    FormationConfig::new(sem, Aggregation::paper_set()[agg_ix], k, ell)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental `/rate` + background passes == cold rebuild: identical
    /// matrix, preference lists, grouping, objective and assignment.
    #[test]
    fn incremental_matches_cold_rebuild(
        inst in instance(9, 7),
        updates in proptest::collection::vec((0u32..9, 0u32..7, 1u8..=5), 1..16),
        (sem_lm, agg_ix) in (any::<bool>(), 0usize..3),
        (k, ell) in (1usize..4, 1usize..5),
        max_per_pass in 1usize..4,
    ) {
        let cfg = config(sem_lm, agg_ix, k, ell);
        let serve_cfg = ServeConfig::new(cfg)
            .with_batch_window(Duration::ZERO)
            .with_max_updates_per_pass(max_per_pass);
        let state = ServeState::new(matrix_of(&inst), serve_cfg.clone()).unwrap();
        for &(u, i, r) in &updates {
            state.rate(u % inst.n, i % inst.m, r as f64).unwrap();
        }
        state.flush().unwrap();
        let warm = state.snapshot();

        // Cold rebuild over the same final ratings.
        let mut finals: std::collections::HashMap<(u32, u32), f64> =
            inst.triples.iter().map(|&(u, i, s)| ((u, i), s)).collect();
        for &(u, i, r) in &updates {
            finals.insert((u % inst.n, i % inst.m), r as f64);
        }
        let cold_matrix = RatingMatrix::from_triples(
            inst.n,
            inst.m,
            finals.iter().map(|(&(u, i), &s)| (u, i, s)),
            RatingScale::one_to_five(),
        ).unwrap();
        let cold = ServeState::new(cold_matrix.clone(), serve_cfg).unwrap();
        let cold = cold.snapshot();

        prop_assert_eq!(warm.matrix.as_ref(), &cold_matrix);
        let cold_prefs = PrefIndex::build(&cold_matrix);
        for u in 0..inst.n {
            prop_assert_eq!(warm.prefs.ranked_items(u), cold_prefs.ranked_items(u));
            prop_assert_eq!(warm.prefs.ranked_scores(u), cold_prefs.ranked_scores(u));
        }
        prop_assert_eq!(&warm.default_grouping().formation, &cold.default_grouping().formation);
        prop_assert_eq!(
            assignment_of(warm.default_grouping(), inst.n + 1),
            assignment_of(cold.default_grouping(), inst.n + 1)
        );
        warm.default_grouping().formation.grouping.validate(inst.n, ell).unwrap();
    }

    /// The registry-wide acceptance invariant: after ANY `/rate` batch
    /// sequence fanned out by the background passes, EVERY named grouping
    /// — least-misery, average, consensus and leader-weighted, each with
    /// its own (k, ell) — equals its own cold build over the same final
    /// ratings. One shared matrix, four independent formations, all exact.
    #[test]
    fn every_named_grouping_matches_its_own_cold_rebuild(
        inst in instance(9, 7),
        updates in proptest::collection::vec((0u32..9, 0u32..7, 1u8..=5), 1..14),
        lambda in 0.0f64..1.5,
        (k, ell) in (1usize..4, 1usize..5),
        max_per_pass in 1usize..4,
    ) {
        let registry = [
            ("av", FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, k, ell)),
            ("cons", FormationConfig::new(Semantics::Consensus { lambda }, Aggregation::Min, 2, 2)),
            ("ldr", FormationConfig::new(Semantics::LeaderWeighted, Aggregation::Max, 3, ell)),
        ];
        let mut serve_cfg = ServeConfig::new(config(true, 0, k, ell))
            .with_batch_window(Duration::ZERO)
            .with_max_updates_per_pass(max_per_pass);
        for (name, gc) in &registry {
            serve_cfg = serve_cfg.with_grouping(*name, *gc);
        }
        let state = ServeState::new(matrix_of(&inst), serve_cfg.clone()).unwrap();
        for &(u, i, r) in &updates {
            state.rate(u % inst.n, i % inst.m, r as f64).unwrap();
        }
        state.flush().unwrap();
        let warm = state.snapshot();

        // All groupings share the one matrix by pointer.
        for g in ["av", "cons", "ldr"] {
            prop_assert!(warm.grouping(g).is_some(), "grouping {} missing", g);
        }

        // Cold rebuild of the whole registry over the same final ratings.
        let mut finals: std::collections::HashMap<(u32, u32), f64> =
            inst.triples.iter().map(|&(u, i, s)| ((u, i), s)).collect();
        for &(u, i, r) in &updates {
            finals.insert((u % inst.n, i % inst.m), r as f64);
        }
        let cold_matrix = RatingMatrix::from_triples(
            inst.n,
            inst.m,
            finals.iter().map(|(&(u, i), &s)| (u, i, s)),
            RatingScale::one_to_five(),
        ).unwrap();
        let cold = ServeState::new(cold_matrix, serve_cfg).unwrap();
        let cold = cold.snapshot();

        for (name, _) in registry.iter().map(|(n, c)| (*n, c)).chain([("default", &registry[0].1)]) {
            let w = warm.grouping(name).unwrap();
            let c = cold.grouping(name).unwrap();
            prop_assert_eq!(&w.formation, &c.formation, "grouping {}", name);
            prop_assert_eq!(
                assignment_of(w, inst.n + 1),
                assignment_of(c, inst.n + 1),
                "grouping {}", name
            );
        }
    }

    /// The refresh mode picks how a pass re-forms, never what it installs:
    /// one write stream fed to a `Cold` server and an `Auto` server, both
    /// with two Step-1 workers, leaves identical formations and
    /// assignments in every grouping after boot and after every flush.
    #[test]
    fn refresh_mode_does_not_change_the_answer(
        inst in instance(9, 7),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u32..9, 0u32..7, 1u8..=5), 1..6),
            1..5,
        ),
        lambda in 0.0f64..1.5,
        (k, ell) in (1usize..4, 1usize..5),
    ) {
        let server = |refresh| {
            let tune = |c: FormationConfig| c.with_threads(2).with_refresh(refresh);
            let cfg = ServeConfig::new(tune(config(true, 0, k, ell)))
                .with_grouping(
                    "av",
                    tune(FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, k, ell)),
                )
                .with_grouping(
                    "cons",
                    tune(FormationConfig::new(Semantics::Consensus { lambda }, Aggregation::Min, k, ell)),
                )
                .with_batch_window(Duration::ZERO);
            ServeState::new(matrix_of(&inst), cfg).unwrap()
        };
        let cold = server(RefreshMode::Cold);
        let auto = server(RefreshMode::Auto);
        for step in 0..=batches.len() {
            if step > 0 {
                for &(u, i, r) in &batches[step - 1] {
                    for s in [&cold, &auto] {
                        s.rate(u % inst.n, i % inst.m, r as f64).unwrap();
                    }
                }
                cold.flush().unwrap();
                auto.flush().unwrap();
            }
            let (c, a) = (cold.snapshot(), auto.snapshot());
            for (name, cg) in &c.groupings {
                let ag = a.grouping(name).unwrap();
                prop_assert_eq!(&cg.formation, &ag.formation, "grouping {} at step {}", name, step);
                prop_assert_eq!(
                    assignment_of(cg, inst.n + 1),
                    assignment_of(ag, inst.n + 1),
                    "grouping {} at step {}", name, step
                );
            }
        }
    }

    /// Every pass is bounded and versions advance by exactly one per
    /// applied journal record — independent of pass chunking, the
    /// invariant durable crash replay relies on — ending with an empty
    /// journal.
    #[test]
    fn passes_are_bounded_and_versions_monotonic(
        inst in instance(6, 5),
        updates in proptest::collection::vec((0u32..6, 0u32..5, 1u8..=5), 1..12),
        max_per_pass in 1usize..3,
    ) {
        let cfg = config(true, 0, 2, 2);
        let state = ServeState::new(
            matrix_of(&inst),
            ServeConfig::new(cfg).with_max_updates_per_pass(max_per_pass),
        ).unwrap();
        for &(u, i, r) in &updates {
            state.rate(u % inst.n, i % inst.m, r as f64).unwrap();
        }
        let mut version = state.snapshot().version;
        loop {
            let applied = state.process_pending().unwrap();
            if applied == 0 {
                break;
            }
            prop_assert!(applied <= max_per_pass);
            let now = state.snapshot().version;
            prop_assert_eq!(now, version + applied as u64);
            version = now;
        }
        prop_assert_eq!(state.pending_len(), 0);
    }

    /// Candidate lists stay exact and survive passes that leave their
    /// group alone, and what a pass shares is real and never stale. Over
    /// random steps — rating batches that may admit users and items (and
    /// cross the `ldr` grouping's `k`, which rebuilds it cold),
    /// feedback-only chunks and `/form` runs — after every step:
    ///
    /// * every group's list equals the brute-force one, and a group
    ///   served from the cache (all but a `Min` tail) whose members are
    ///   unchanged, none of them rated and whose catalogue did not grow,
    ///   returns the very `Arc` it returned before the step;
    /// * every grouping equals a fresh former's formation over the
    ///   snapshot's ratings, and answers `group_of` exactly as an
    ///   assignment derived from scratch from its groups, for every user
    ///   (and `None` past the last);
    /// * every group that does not share its member list with the
    ///   predecessor's group at its index carries its own version as
    ///   candidate stamp;
    /// * a grouping that moved no member on a step that refreshed every
    ///   grouping incrementally shares every member list and the
    ///   assignment with its predecessor by pointer.
    #[test]
    fn candidate_lists_are_exact_and_survive_untouched_passes(
        inst in instance(9, 7),
        steps in proptest::collection::vec(
            (0u8..4, proptest::collection::vec((0u32..12, 0u32..10, 1u8..=5), 1..4)),
            1..8,
        ),
    ) {
        let growth = GrowthPolicy::Grow { max_users: inst.n + 3, max_items: inst.m + 3 };
        let lm = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 2, 3)
            .with_growth(growth);
        let skip = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 2, 3)
            .with_policy(MissingPolicy::Skip);
        let cons = FormationConfig::new(Semantics::Consensus { lambda: 0.5 }, Aggregation::Min, 1, 4);
        // k = 3 over as few as two items: an item admission can cross it.
        let ldr = FormationConfig::new(Semantics::LeaderWeighted, Aggregation::Sum, 3, 3);
        let state = ServeState::new(
            matrix_of(&inst),
            ServeConfig::new(lm)
                .with_grouping("skip", skip)
                .with_grouping("cons", cons)
                .with_grouping("ldr", ldr)
                .with_batch_window(Duration::ZERO),
        )
        .unwrap();
        let lists = |snap: &gf_serve::Snapshot| {
            let mut out = BTreeMap::new();
            for (name, g) in &snap.groupings {
                for (gi, group) in g.formation.grouping.groups.iter().enumerate() {
                    let got = state.candidate_items(snap, name, gi).unwrap();
                    let want = brute_force_candidates(&snap.matrix, &group.members).unwrap();
                    assert_eq!(*got, want, "grouping {name} group {gi}");
                    out.insert((name.clone(), gi), got);
                }
            }
            out
        };
        let mut before = lists(&state.snapshot());
        for (kind, cells) in steps {
            let prev = state.snapshot();
            let (n, m) = (prev.matrix.n_users(), prev.matrix.n_items());
            let mut rated = BTreeSet::new();
            let mut formed = None;
            let cold_before = state.stats.refresh_cold.load(Ordering::Relaxed);
            match kind {
                0 | 1 => {
                    for &(u, i, r) in &cells {
                        let (u, i) = (u % (inst.n + 3), i % (inst.m + 3));
                        state.rate(u, i, f64::from(r)).unwrap();
                        rated.insert(u);
                    }
                }
                2 => {
                    for &(u, i, _) in &cells {
                        state.feedback(u % n, i % m, None).unwrap();
                    }
                }
                _ => {
                    let ell = 2 + cells.len();
                    state.form_named("skip", FormationConfig { ell, ..skip }).unwrap();
                    formed = Some("skip");
                }
            }
            state.flush().unwrap();
            let now = state.snapshot();
            let n_now = now.matrix.n_users();
            let all_incremental = state.stats.refresh_cold.load(Ordering::Relaxed) == cold_before;
            for (name, g) in &now.groupings {
                let fresh = IncrementalFormer::new(&now.matrix, &now.prefs, g.config).unwrap();
                prop_assert_eq!(&g.formation, fresh.result(), "grouping {} went stale", name);
                let derived = g.formation.grouping.assignment(n_now);
                for u in 0..=n_now {
                    let want = derived
                        .get(u as usize)
                        .filter(|&&gi| gi != UNASSIGNED)
                        .map(|&gi| gi as usize);
                    prop_assert_eq!(g.group_of(u), want, "grouping {} user {}", name, u);
                }
                let p = prev.grouping(name);
                let groups = &g.formation.grouping.groups;
                let shared = |gi: usize| {
                    p.and_then(|p| p.formation.grouping.groups.get(gi))
                        .is_some_and(|pg| Arc::ptr_eq(&pg.members, &groups[gi].members))
                };
                for gi in 0..groups.len() {
                    if !shared(gi) {
                        prop_assert_eq!(
                            g.stamps[gi], g.version,
                            "grouping {} group {} kept a stale stamp", name, gi
                        );
                    }
                }
                let Some(p) = p else { continue };
                let unmoved = p.formation.grouping.len() == groups.len()
                    && prev.matrix.n_users() == n_now
                    && groups
                        .iter()
                        .zip(&p.formation.grouping.groups)
                        .all(|(a, b)| a.members == b.members);
                if unmoved && all_incremental && formed != Some(name.as_str()) {
                    for gi in 0..groups.len() {
                        prop_assert!(
                            shared(gi),
                            "grouping {} group {} copied unmoved members", name, gi
                        );
                    }
                    prop_assert!(
                        g.shares_assignment(p),
                        "grouping {} rebuilt an unmoved assignment", name
                    );
                }
            }
            let after = lists(&now);
            let grew = now.matrix.n_items() != m;
            for ((name, gi), list) in &after {
                let g = now.grouping(name).unwrap();
                let group = &g.formation.grouping.groups[*gi];
                let precomputed = *gi + 1 == g.formation.grouping.groups.len()
                    && g.tail_candidates.is_some();
                let kept = prev
                    .grouping(name)
                    .and_then(|p| p.formation.grouping.groups.get(*gi))
                    .is_some_and(|p| p.members == group.members);
                let untouched = kept
                    && !grew
                    && formed != Some(name.as_str())
                    && !group.members.iter().any(|u| rated.contains(u));
                if untouched && !precomputed {
                    prop_assert!(
                        Arc::ptr_eq(list, &before[&(name.clone(), *gi)]),
                        "grouping {} group {} recomputed an untouched list", name, gi
                    );
                }
            }
            before = after;
        }
    }
}
