//! Concurrency tests: many reader threads querying `/v1/group` and
//! `/v1/recommend` through the real routing layer while rating updates
//! stream in and the background worker swaps snapshots underneath them.

use gf_core::{Aggregation, FormationConfig, RatingMatrix, RatingScale, Semantics};
use gf_serve::http::route_full;
use gf_serve::{HttpRequest, Json, ServeConfig, ServeState};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn dense_matrix(n: u32, m: u32) -> RatingMatrix {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|u| {
            (0..m)
                .map(|i| 1.0 + ((u * 11 + i * 7 + u * i) % 5) as f64)
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    RatingMatrix::from_dense(&refs, RatingScale::one_to_five()).unwrap()
}

fn get(state: &ServeState, target: &str) -> (u16, Json) {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let out = route_full(
        state,
        &HttpRequest {
            method: "GET".into(),
            path: path.into(),
            query: query.into(),
            body: String::new(),
            keep_alive: true,
        },
    );
    (out.status, out.body)
}

/// 6 reader threads hammer lookups while a writer streams 200 rating
/// updates through the background worker. Every reader response must be
/// internally consistent (the user is in the returned member list, the
/// group id is valid) and reader-observed versions must never go
/// backwards.
#[test]
fn readers_stay_consistent_under_rating_stream() {
    const N_USERS: u32 = 40;
    const N_READERS: usize = 6;
    const N_UPDATES: u32 = 200;

    let cfg = ServeConfig::new(
        FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 3, 5).with_threads(2),
    )
    .with_max_updates_per_pass(16);
    let state = ServeState::new(dense_matrix(N_USERS, 8), cfg).unwrap();
    let worker = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || state.run_refresh_worker())
    };
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..N_READERS)
        .map(|r| {
            let state = Arc::clone(&state);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last_version = 0u64;
                let mut lookups = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let u = (lookups * 7 + r as u64) % N_USERS as u64;
                    let (status, body) = get(&state, &format!("/v1/group/{u}"));
                    assert_eq!(status, 200, "reader {r} user {u}");
                    let members = body.get("members").and_then(Json::as_arr).unwrap();
                    assert!(
                        members.iter().any(|m| m.as_u64() == Some(u)),
                        "reader {r}: user {u} missing from its own group"
                    );
                    let version = body.get("version").and_then(Json::as_u64).unwrap();
                    assert!(
                        version >= last_version,
                        "reader {r}: version went backwards ({last_version} -> {version})"
                    );
                    last_version = version;
                    let gi = body.get("group").and_then(Json::as_u64).unwrap();
                    let (rs, rbody) =
                        get(&state, &format!("/v1/recommend/{gi}?exclude_rated=false"));
                    // The group may have been re-formed between the two
                    // reads; the id must either resolve or 404, never
                    // panic or return malformed data.
                    if rs == 200 {
                        assert!(rbody.get("top_k").and_then(Json::as_arr).is_some());
                    }
                    lookups += 1;
                }
                lookups
            })
        })
        .collect();

    for i in 0..N_UPDATES {
        let (u, it, r) = (i % N_USERS, (i / 3) % 8, 1.0 + (i % 5) as f64);
        state.rate(u, it, r).unwrap();
        if i % 16 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // Let the worker drain, then stop the readers.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while state.pending_len() > 0 {
        assert!(std::time::Instant::now() < deadline, "worker never drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    done.store(true, Ordering::Relaxed);
    for reader in readers {
        assert!(reader.join().unwrap() > 0, "a reader made no progress");
    }
    state.shutdown();
    worker.join().unwrap();

    // After the dust settles the snapshot matches a synchronous flush.
    state.flush().unwrap();
    let snap = state.snapshot();
    snap.default_grouping()
        .formation
        .grouping
        .validate(N_USERS, 5)
        .unwrap();
    assert_eq!(snap.progress.applied, N_UPDATES as u64);
}

/// Concurrent same-config `/form` requests coalesce: with a generous
/// window, 8 threads submitting the identical configuration trigger far
/// fewer actual formation runs than requests.
#[test]
fn concurrent_forms_coalesce() {
    let cfg = ServeConfig::new(FormationConfig::new(
        Semantics::AggregateVoting,
        Aggregation::Sum,
        3,
        4,
    ))
    .with_batch_window(Duration::from_millis(50));
    let state = ServeState::new(dense_matrix(30, 6), cfg).unwrap();
    let form_cfg = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 2, 3);

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || state.form(form_cfg).unwrap())
        })
        .collect();
    let outcomes: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    let leaders = outcomes.iter().filter(|o| o.leader).count();
    let runs = state.stats.form_runs.load(Ordering::Relaxed);
    assert_eq!(leaders as u64, runs);
    assert!(runs < 8, "no coalescing happened at all ({runs} runs)");
    assert!(outcomes.iter().any(|o| o.batch_size > 1));
    // Every member of a batch got the same installed snapshot version.
    let versions: std::collections::HashSet<u64> =
        outcomes.iter().map(|o| o.snapshot.version).collect();
    assert_eq!(versions.len(), runs as usize);
    // Different-config requests never coalesce with the batch.
    let other = state
        .form(FormationConfig::new(
            Semantics::LeastMisery,
            Aggregation::Min,
            2,
            3,
        ))
        .unwrap();
    assert!(other.leader);
}
