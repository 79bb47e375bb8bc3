//! Golden-file regression tests for the serve JSON codecs: a scripted,
//! fully deterministic serving session renders `/v1/health`, `/v1/rate`,
//! `/v1/stats`, `/v1/group` (plain and paged), `/v1/recommend` and
//! `/v1/feedback` bodies — plus the shared `{"error":{...}}` envelope —
//! and each byte-compares against a committed fixture. Codec drift — a
//! renamed field, a reordered object, a number formatting change — fails
//! loudly here instead of silently changing the wire format.
//!
//! To regenerate after an *intentional* format change:
//! `GF_UPDATE_GOLDEN=1 cargo test -p gf-serve --test golden` and commit
//! the rewritten `tests/golden/*.json`.

use gf_core::{Aggregation, FormationConfig, GrowthPolicy, RatingMatrix, RatingScale, Semantics};
use gf_serve::http::route_full;
use gf_serve::{HttpRequest, Json, ServeConfig, ServeState};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares a rendered body against its committed fixture (or rewrites
/// the fixture under `GF_UPDATE_GOLDEN=1`).
fn assert_golden(name: &str, status: u16, expected_status: u16, body: &Json) {
    assert_eq!(status, expected_status, "{name}: unexpected status");
    let rendered = body.to_string();
    let path = fixture_path(name);
    if std::env::var("GF_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, format!("{rendered}\n")).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: missing fixture {} ({e})", path.display()));
    assert_eq!(
        rendered,
        committed.trim_end(),
        "{name}: wire format drifted from the committed fixture \
         (GF_UPDATE_GOLDEN=1 regenerates after intentional changes)"
    );
    // The fixture itself must stay parseable — guards against committing
    // a broken regeneration.
    Json::parse(committed.trim_end()).unwrap_or_else(|e| panic!("{name}: fixture invalid: {e}"));
}

fn request(state: &ServeState, method: &str, path: &str, query: &str, body: &str) -> (u16, Json) {
    let out = route_full(
        state,
        &HttpRequest {
            method: method.into(),
            path: path.into(),
            query: query.into(),
            body: body.into(),
            keep_alive: true,
        },
    );
    (out.status, out.body)
}

/// The scripted session: Example-1 ratings (Table 1 of the paper), one
/// accepted update, one synchronous flush. Every response below is a pure
/// function of this script.
fn scripted_state() -> Arc<ServeState> {
    let matrix = RatingMatrix::from_dense(
        &[
            &[1.0, 4.0, 3.0][..],
            &[2.0, 3.0, 5.0],
            &[2.0, 5.0, 1.0],
            &[2.0, 5.0, 1.0],
            &[3.0, 1.0, 1.0],
            &[1.0, 2.0, 5.0],
        ],
        RatingScale::one_to_five(),
    )
    .unwrap();
    let cfg = ServeConfig::new(FormationConfig::new(
        Semantics::LeastMisery,
        Aggregation::Min,
        2,
        3,
    ))
    .with_batch_window(Duration::ZERO);
    ServeState::new(matrix, cfg).unwrap()
}

#[test]
fn serve_json_bodies_match_committed_fixtures() {
    let state = scripted_state();

    let (status, body) = request(&state, "GET", "/v1/health", "", "");
    assert_golden("health.json", status, 200, &body);

    let (status, body) = request(
        &state,
        "POST",
        "/v1/rate",
        "",
        r#"{"user":1,"item":0,"rating":5}"#,
    );
    assert_golden("rate.json", status, 202, &body);
    state.flush().unwrap();

    let (status, body) = request(&state, "GET", "/v1/stats", "", "");
    assert_golden("stats.json", status, 200, &body);

    let (status, body) = request(&state, "GET", "/v1/group/3", "", "");
    assert_golden("group.json", status, 200, &body);

    let (status, body) = request(&state, "GET", "/v1/group/3", "limit=1&offset=1", "");
    assert_golden("group_paged.json", status, 200, &body);

    let (status, body) = request(&state, "GET", "/v1/recommend/0", "exclude_rated=false", "");
    assert_golden("recommend.json", status, 200, &body);

    let (status, body) = request(&state, "GET", "/v1/group/99", "", "");
    assert_golden("error_unknown_user.json", status, 404, &body);
}

/// The registry-scripted session: the Example-1 ratings with a consensus
/// grouping registered at runtime (`POST /v1/grouping`), re-formed by name
/// (`POST /v1/form?name=`), then one rating fanned out to both groupings.
/// Pins the named-endpoint wire formats and the per-grouping digest map.
#[test]
fn multi_grouping_json_bodies_match_committed_fixtures() {
    let state = scripted_state();

    let (status, body) = request(
        &state,
        "POST",
        "/v1/grouping",
        "",
        r#"{"name":"cons","semantics":"cons","lambda":0.5,"aggregation":"min","ell":2}"#,
    );
    assert_golden("grouping_create.json", status, 200, &body);

    let (status, body) = request(&state, "POST", "/v1/form", "name=cons", "");
    assert_golden("form_named.json", status, 200, &body);

    let (status, _) = request(
        &state,
        "POST",
        "/v1/rate",
        "",
        r#"{"user":0,"item":1,"rating":2}"#,
    );
    assert_eq!(status, 202);
    state.flush().unwrap();

    let (status, body) = request(&state, "GET", "/v1/group/cons/3", "", "");
    assert_golden("group_named.json", status, 200, &body);

    let (status, body) = request(
        &state,
        "GET",
        "/v1/recommend/cons/0",
        "exclude_rated=false",
        "",
    );
    assert_golden("recommend_named.json", status, 200, &body);

    let (status, body) = request(&state, "GET", "/v1/stats", "", "");
    assert_golden("stats_multi.json", status, 200, &body);

    let (status, body) = request(&state, "GET", "/v1/digest", "", "");
    assert_golden("digest_multi.json", status, 200, &body);

    // Unknown grouping names are 404s, on queries and on /form alike
    // (creation stays POST /v1/grouping's job).
    let (status, body) = request(&state, "GET", "/v1/group/nope/0", "", "");
    assert_golden("error_unknown_grouping.json", status, 404, &body);
    let (status, _) = request(&state, "POST", "/v1/form", "name=nope", "");
    assert_eq!(status, 404);
}

/// The quality-loop session: one journaled `/v1/feedback` event, the
/// candidate-filtered `/v1/recommend` body (the dense Example-1 matrix
/// leaves no unrated candidates, so the filtered list is empty), the
/// opt-out + `top_k` variant, the `/v1/stats` quality block, and the
/// error envelope in its 400/404 shapes.
#[test]
fn v1_quality_loop_bodies_match_committed_fixtures() {
    let state = scripted_state();

    let (status, body) = request(&state, "POST", "/v1/feedback", "", r#"{"user":3,"item":1}"#);
    assert_golden("feedback.json", status, 202, &body);
    state.flush().unwrap();

    let (status, body) = request(&state, "GET", "/v1/recommend/0", "", "");
    assert_golden("recommend_v1_filtered.json", status, 200, &body);

    let (status, body) = request(
        &state,
        "GET",
        "/v1/recommend/0",
        "exclude_rated=false&top_k=2",
        "",
    );
    assert_golden("recommend_v1_topk.json", status, 200, &body);

    let (status, body) = request(&state, "GET", "/v1/stats", "", "");
    assert_golden("stats_quality.json", status, 200, &body);

    let (status, body) = request(
        &state,
        "POST",
        "/v1/feedback",
        "",
        r#"{"user":0,"item":0,"grouping":"nope"}"#,
    );
    assert_golden("error_unknown_grouping_feedback.json", status, 404, &body);

    let (status, body) = request(&state, "GET", "/v1/nope", "", "");
    assert_golden("error_unknown_endpoint.json", status, 404, &body);

    let (status, body) = request(&state, "GET", "/v1/group/abc", "", "");
    assert_golden("error_bad_request.json", status, 400, &body);
}

/// The growth-scripted session: the same Example-1 ratings serving under
/// `GrowthPolicy::Grow { max_users: 8, max_items: 4 }`, one admission
/// (never-seen user 7 rating never-seen item 3 — user 6 stays a gap row),
/// one flush. Pins the admission-era `/v1/stats` counters and the clean
/// exhaustion errors at the caps.
#[test]
fn growth_json_bodies_match_committed_fixtures() {
    let matrix = RatingMatrix::from_dense(
        &[
            &[1.0, 4.0, 3.0][..],
            &[2.0, 3.0, 5.0],
            &[2.0, 5.0, 1.0],
            &[2.0, 5.0, 1.0],
            &[3.0, 1.0, 1.0],
            &[1.0, 2.0, 5.0],
        ],
        RatingScale::one_to_five(),
    )
    .unwrap();
    let cfg = ServeConfig::new(
        FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 2, 3).with_growth(
            GrowthPolicy::Grow {
                max_users: 8,
                max_items: 4,
            },
        ),
    )
    .with_batch_window(Duration::ZERO);
    let state = ServeState::new(matrix, cfg).unwrap();

    let (status, body) = request(
        &state,
        "POST",
        "/v1/rate",
        "",
        r#"{"user":7,"item":3,"rating":5}"#,
    );
    assert_golden("rate_admission.json", status, 202, &body);
    state.flush().unwrap();

    let (status, body) = request(&state, "GET", "/v1/stats", "", "");
    assert_golden("stats_grown.json", status, 200, &body);

    let (status, body) = request(&state, "GET", "/v1/group/7", "", "");
    assert_golden("group_admitted.json", status, 200, &body);

    // Exhaustion on both axes: clean 409s, nothing enqueued.
    let (status, body) = request(
        &state,
        "POST",
        "/v1/rate",
        "",
        r#"{"user":8,"item":0,"rating":5}"#,
    );
    assert_golden("error_users_exhausted.json", status, 409, &body);
    let (status, body) = request(
        &state,
        "POST",
        "/v1/rate",
        "",
        r#"{"user":0,"item":4,"rating":5}"#,
    );
    assert_golden("error_items_exhausted.json", status, 409, &body);
    assert_eq!(state.pending_len(), 0);
}
