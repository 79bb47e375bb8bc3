//! Quality-loop acceptance tests.
//!
//! Three contracts from three layers, checked end to end:
//!
//! 1. the allocation-reusing [`gf_core::CandidateEngine`] computes the
//!    same candidate sets as the obvious brute force, on random matrices
//!    and member sets (property);
//! 2. `GET /v1/recommend/...` with its default `exclude_rated=true`
//!    never returns an item any group member has rated, for any group of
//!    any grouping, on random instances and after rating churn
//!    (property);
//! 3. the online `quality` block in `/v1/stats` — fed by journaled
//!    `POST /v1/feedback` — equals what `gf-eval`'s *independent* offline
//!    holdout judge computes from the same events, assignment and served
//!    lists.

use gf_core::{
    brute_force_candidates, Aggregation, CandidateEngine, FormationConfig, RatingMatrix,
    RatingScale, Semantics,
};
use gf_eval::{evaluate_holdout, HoldoutEvent};
use gf_serve::http::route_full;
use gf_serve::{HttpRequest, Json, ServeConfig, ServeState};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A random sparse rating instance on the 1..5 integer scale, at least
/// one rating (the serve layer rejects empty matrices).
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

fn matrix_of(inst: &Instance) -> RatingMatrix {
    RatingMatrix::from_triples(
        inst.n,
        inst.m,
        inst.triples.iter().copied(),
        RatingScale::one_to_five(),
    )
    .unwrap()
}

fn get(state: &ServeState, path: &str, query: &str) -> (u16, Json) {
    let out = route_full(
        state,
        &HttpRequest {
            method: "GET".into(),
            path: path.into(),
            query: query.into(),
            body: String::new(),
            keep_alive: false,
        },
    );
    (out.status, out.body)
}

fn post(state: &ServeState, path: &str, body: &str) -> (u16, Json) {
    let out = route_full(
        state,
        &HttpRequest {
            method: "POST".into(),
            path: path.into(),
            query: String::new(),
            body: body.into(),
            keep_alive: false,
        },
    );
    (out.status, out.body)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The serving candidate engine (epoch-marked scratch, reused across
    /// calls) agrees with the brute force on every random (matrix,
    /// member set) pair — including repeated calls on one engine, which
    /// is exactly how the serve cache drives it.
    #[test]
    fn candidate_engine_matches_brute_force(
        inst in instance(10, 8),
        member_picks in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 0..6),
            1..5,
        ),
    ) {
        let matrix = matrix_of(&inst);
        let mut engine = CandidateEngine::new();
        for picks in &member_picks {
            let mut members: Vec<u32> =
                picks.iter().map(|&p| p % inst.n).collect();
            members.sort_unstable();
            members.dedup();
            let fast = engine.candidates_for_group(&matrix, &members).unwrap();
            let slow = brute_force_candidates(&matrix, &members).unwrap();
            prop_assert_eq!(fast, slow);
        }
    }

    /// `/v1/recommend` under the default `exclude_rated=true` never
    /// serves an item any member of the group has rated — for every
    /// group, on the boot formation and again after rating churn.
    #[test]
    fn v1_recommend_never_returns_member_rated_items(
        inst in instance(9, 7),
        updates in proptest::collection::vec((0u32..9, 0u32..7, 1u8..=5), 0..12),
        (k, ell) in (1usize..4, 1usize..5),
    ) {
        let cfg = ServeConfig::new(FormationConfig::new(
            Semantics::LeastMisery,
            Aggregation::Min,
            k,
            ell,
        ))
        .with_batch_window(Duration::ZERO);
        let state = ServeState::new(matrix_of(&inst), cfg).unwrap();
        assert_no_rated_items_served(&state);
        for &(u, i, r) in &updates {
            state.rate(u % inst.n, i % inst.m, r as f64).unwrap();
        }
        state.flush().unwrap();
        assert_no_rated_items_served(&state);
    }
}

fn assert_no_rated_items_served(state: &ServeState) {
    let snap = state.snapshot();
    let matrix = Arc::clone(&snap.matrix);
    for (name, grouping) in &snap.groupings {
        for (g, group) in grouping.formation.grouping.groups.iter().enumerate() {
            let (status, body) = get(state, &format!("/v1/recommend/{name}/{g}"), "");
            assert_eq!(status, 200, "{name}/{g}: {body}");
            assert_eq!(
                body.get("excluded_rated").and_then(Json::as_bool),
                Some(true)
            );
            let served: Vec<u32> = match body.get("top_k") {
                Some(Json::Arr(entries)) => entries
                    .iter()
                    .map(|e| e.get("item").and_then(Json::as_u64).unwrap() as u32)
                    .collect(),
                other => panic!("{name}/{g}: top_k missing: {other:?}"),
            };
            for &member in group.members.iter() {
                for &item in &served {
                    assert!(
                        matrix.get(member, item).is_none(),
                        "group {g} of {name:?} was served item {item}, \
                         already rated by member {member}"
                    );
                }
            }
        }
    }
}

/// Replaying the exact `/v1/feedback` stream through `gf-eval`'s
/// independent offline judge reproduces the online `quality` numbers the
/// server reports — two implementations, one answer.
#[test]
fn online_quality_equals_offline_holdout() {
    // Sparse on purpose: items 3 and 4 are unrated by most users, so
    // candidate filtering and feedback hits both have room to differ
    // across groups.
    let matrix = RatingMatrix::from_triples(
        6,
        5,
        [
            (0u32, 0u32, 1.0),
            (0, 1, 4.0),
            (0, 2, 3.0),
            (0, 4, 2.0),
            (1, 0, 2.0),
            (1, 1, 3.0),
            (1, 2, 5.0),
            (1, 3, 1.0),
            (2, 0, 2.0),
            (2, 1, 5.0),
            (2, 2, 1.0),
            (2, 4, 4.0),
            (3, 0, 2.0),
            (3, 1, 5.0),
            (3, 2, 1.0),
            (3, 3, 3.0),
            (4, 0, 3.0),
            (4, 1, 1.0),
            (4, 2, 1.0),
            (4, 4, 5.0),
            (5, 0, 1.0),
            (5, 1, 2.0),
            (5, 2, 5.0),
            (5, 3, 4.0),
        ],
        RatingScale::one_to_five(),
    )
    .unwrap();
    let cfg = ServeConfig::new(FormationConfig::new(
        Semantics::LeastMisery,
        Aggregation::Min,
        3,
        2,
    ))
    .with_batch_window(Duration::ZERO);
    let state = ServeState::new(matrix, cfg).unwrap();
    let (status, _) = post(
        &state,
        "/v1/grouping",
        r#"{"name":"av","semantics":"av","aggregation":"sum"}"#,
    );
    assert_eq!(status, 200);

    // The feedback stream: a mix of hits, misses, duplicates, and one
    // event scoped to a single grouping.
    let stream: &[(u32, u32, Option<&str>)] = &[
        (0, 2, None),
        (1, 2, None),
        (2, 1, None),
        (2, 1, None),
        (3, 4, Some("av")),
        (4, 0, None),
        (5, 2, Some("default")),
    ];
    for &(user, item, scope) in stream {
        let body = match scope {
            Some(s) => format!(r#"{{"user":{user},"item":{item},"grouping":"{s}"}}"#),
            None => format!(r#"{{"user":{user},"item":{item}}}"#),
        };
        let (status, resp) = post(&state, "/v1/feedback", &body);
        assert_eq!(status, 202, "{resp}");
    }
    state.flush().unwrap();

    let (status, stats) = get(&state, "/v1/stats", "");
    assert_eq!(status, 200);
    let snap = state.snapshot();
    let events: Vec<HoldoutEvent> = stream
        .iter()
        .map(|&(user, item, scope)| HoldoutEvent {
            user,
            item,
            scope: scope.map(str::to_string),
        })
        .collect();
    for (name, grouping) in &snap.groupings {
        let served: Vec<Vec<u32>> = grouping
            .formation
            .grouping
            .groups
            .iter()
            .map(|g| g.top_k.iter().map(|&(item, _)| item).collect())
            .collect();
        let assignment = grouping
            .formation
            .grouping
            .assignment(snap.matrix.n_users());
        let offline = evaluate_holdout(name, &events, &assignment, &served, grouping.config.k);
        let online = stats
            .get("quality")
            .and_then(|q| q.get(name))
            .unwrap_or_else(|| panic!("/v1/stats quality block missing {name:?}"));
        let num = |key: &str| {
            online
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("quality.{name}.{key} missing"))
        };
        assert_eq!(num("window_events") as usize, offline.events_attributed);
        assert_eq!(num("groups_evaluated") as usize, offline.groups_evaluated);
        assert!(offline.groups_evaluated > 0, "{name}: no evidence landed");
        assert!(
            (num("precision") - offline.precision).abs() < 1e-12,
            "{name}"
        );
        assert!((num("recall") - offline.recall).abs() < 1e-12, "{name}");
        assert!((num("ndcg") - offline.ndcg).abs() < 1e-12, "{name}");
    }
}
