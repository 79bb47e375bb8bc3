//! End-to-end population growth: a serving instance under
//! `GrowthPolicy::Grow` admits never-seen users and items through the
//! ordinary `/v1/rate` path — journal entry, background pass, snapshot
//! succession — without a restart, and keeps every snapshot equal to a
//! cold rebuild over the union universe.

use gf_core::{
    Aggregation, FormationConfig, GfError, GrowthPolicy, RatingMatrix, RatingScale, Semantics,
};
use gf_serve::http::route_full;
use gf_serve::{HttpRequest, Json, ServeConfig, ServeState};
use std::sync::Arc;
use std::time::Duration;

fn base_matrix(n: u32, m: u32) -> RatingMatrix {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|u| {
            (0..m)
                .map(|i| 1.0 + ((u * 7 + i * 3 + u * i) % 5) as f64)
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    RatingMatrix::from_dense(&refs, RatingScale::one_to_five()).unwrap()
}

fn grow_state(n: u32, m: u32, max_users: u32, max_items: u32) -> Arc<ServeState> {
    let cfg = ServeConfig::new(
        FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 2, 3).with_growth(
            GrowthPolicy::Grow {
                max_users,
                max_items,
            },
        ),
    )
    .with_batch_window(Duration::ZERO);
    ServeState::new(base_matrix(n, m), cfg).unwrap()
}

fn get(state: &ServeState, path: &str) -> (u16, Json) {
    let out = route_full(
        state,
        &HttpRequest {
            method: "GET".into(),
            path: path.into(),
            query: String::new(),
            body: String::new(),
            keep_alive: true,
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
            keep_alive: true,
        },
    );
    (out.status, out.body)
}

/// The acceptance-criteria flow: a never-seen user rates (a never-seen
/// item), `/v1/group/{new_user}` resolves after the refresh, `/v1/stats`
/// counters advance — no restart anywhere.
#[test]
fn never_seen_user_is_admitted_and_served() {
    let s = grow_state(8, 4, 64, 64);
    // Unknown before admission: the growth policy defers to the refresh,
    // so queries 404 until the journal applies.
    assert_eq!(get(&s, "/v1/group/12").0, 404);
    let (status, body) = post(&s, "/v1/rate", r#"{"user":12,"item":9,"rating":5}"#);
    assert_eq!(status, 202);
    assert_eq!(body.get("accepted"), Some(&Json::Bool(true)));
    s.flush().unwrap();

    let (status, body) = get(&s, "/v1/group/12");
    assert_eq!(status, 200, "admitted user must resolve: {body}");
    let members = body.get("members").and_then(Json::as_arr).unwrap();
    assert!(members.iter().any(|m| m.as_u64() == Some(12)));

    let (status, stats) = get(&s, "/v1/stats");
    assert_eq!(status, 200);
    assert_eq!(stats.get("n_users").and_then(Json::as_u64), Some(13));
    assert_eq!(stats.get("n_items").and_then(Json::as_u64), Some(10));
    assert_eq!(stats.get("users_admitted").and_then(Json::as_u64), Some(5));
    assert_eq!(stats.get("items_admitted").and_then(Json::as_u64), Some(6));

    // Gap rows (users 8..12 admitted with no ratings) are served too.
    for u in 8..12u32 {
        assert_eq!(get(&s, &format!("/v1/group/{u}")).0, 200, "gap user {u}");
    }

    // The grown snapshot equals a cold boot over the union universe.
    let snap = s.snapshot();
    let cold = ServeState::new(
        snap.matrix.as_ref().clone(),
        ServeConfig::new(snap.default_grouping().config).with_batch_window(Duration::ZERO),
    )
    .unwrap();
    assert_eq!(
        snap.default_grouping().formation,
        cold.snapshot().default_grouping().formation
    );
    let cold = cold.snapshot();
    for u in 0..snap.matrix.n_users() + 1 {
        assert_eq!(
            snap.default_grouping().group_of(u),
            cold.default_grouping().group_of(u)
        );
    }
}

/// Admissions and plain updates interleave across several bounded passes;
/// versions stay monotone, nothing is lost, and the final state is the
/// cold union state.
#[test]
fn interleaved_admissions_and_rates_apply_in_order() {
    let s = grow_state(6, 4, 32, 32);
    let updates: Vec<(u32, u32, f64)> = vec![
        (2, 1, 5.0),  // existing cell overwrite
        (9, 2, 4.0),  // new user, existing item
        (9, 2, 1.0),  // create-then-rate-again across the same journal
        (3, 6, 2.0),  // existing user, new item
        (11, 7, 3.0), // both new
    ];
    for &(u, i, r) in &updates {
        s.rate(u, i, r).unwrap();
    }
    let mut version = s.snapshot().version;
    loop {
        let applied = s.process_pending().unwrap();
        if applied == 0 {
            break;
        }
        // One version per applied journal record, independent of how the
        // bounded passes chunk the journal (the invariant crash replay
        // relies on).
        let now = s.snapshot().version;
        assert_eq!(now, version + applied as u64);
        version = now;
    }
    let snap = s.snapshot();
    assert_eq!(snap.matrix.n_users(), 12);
    assert_eq!(snap.matrix.n_items(), 8);
    assert_eq!(snap.matrix.get(9, 2), Some(1.0), "last write wins");
    assert_eq!(snap.matrix.get(2, 1), Some(5.0));
    assert_eq!(snap.matrix.get(11, 7), Some(3.0));
    snap.default_grouping()
        .formation
        .grouping
        .validate(12, 3)
        .unwrap();
    assert!((0..12).all(|u| snap.default_grouping().group_of(u).is_some()));
}

/// Exhaustion is a clean, atomic refusal: the journal stays empty, the
/// serving state untouched, and the route layer maps it to 409.
#[test]
fn cap_exhaustion_is_clean() {
    let s = grow_state(4, 3, 6, 5);
    assert!(matches!(
        s.rate(6, 0, 3.0),
        Err(GfError::GrowthExhausted {
            axis: "user",
            id: 6,
            max: 6
        })
    ));
    assert!(matches!(
        s.rate(0, 5, 3.0),
        Err(GfError::GrowthExhausted { axis: "item", .. })
    ));
    assert_eq!(s.pending_len(), 0);
    assert_eq!(
        post(&s, "/v1/rate", r#"{"user":6,"item":0,"rating":3}"#).0,
        409
    );
    // In-range admissions still work right up to the cap.
    s.rate(5, 4, 2.0).unwrap();
    s.flush().unwrap();
    let snap = s.snapshot();
    assert_eq!(snap.matrix.n_users(), 6);
    assert_eq!(snap.matrix.n_items(), 5);
    // A fixed-policy server keeps the historical 404s.
    let fixed = ServeState::new(
        base_matrix(4, 3),
        ServeConfig::new(FormationConfig::new(
            Semantics::LeastMisery,
            Aggregation::Min,
            2,
            2,
        ))
        .with_batch_window(Duration::ZERO),
    )
    .unwrap();
    assert!(matches!(
        fixed.rate(4, 0, 3.0),
        Err(GfError::UserOutOfRange { .. })
    ));
}
