//! Serve-layer throughput — the operations `gf-serve` performs per
//! request, measured in-process so the numbers capture the serving
//! machinery (snapshot reads, journal writes, incremental passes, batched
//! formation) rather than socket overhead.
//!
//! * `group_lookup` / `recommend` — the lock-free read path under a
//!   current snapshot (`GET /v1/group/{u}`, and
//!   `GET /v1/recommend/{g}?exclude_rated=false`: the stored list).
//! * `rate_enqueue` — accepting one `POST /v1/rate` into the journal
//!   (validation + journal push, no re-formation).
//! * `refresh_pass_64` — one bounded background pass applying 64 pending
//!   updates: incremental matrix/pref patching plus the re-formation.
//! * `cold_rebuild` — what the same refresh would cost without the
//!   incremental path (full `PrefIndex::build` + the
//!   `IncrementalFormer::new` a cold pass runs), for the ratio the serving
//!   layer exists to win.
//! * `form_coalesced_8` — eight concurrent same-config `/form` requests
//!   answered by one batched formation run.

use criterion::{criterion_group, criterion_main, Criterion};
use gf_bench::Scale;
use gf_core::{Aggregation, FormationConfig, IncrementalFormer, PrefIndex, Semantics};
use gf_datasets::SynthConfig;
use gf_serve::http::route_full;
use gf_serve::{HttpRequest, ServeConfig, ServeState};
use std::sync::Arc;
use std::time::Duration;

fn get(state: &ServeState, path: String, query: &str) -> u16 {
    route_full(
        state,
        &HttpRequest {
            method: "GET".into(),
            path,
            query: query.into(),
            body: String::new(),
            keep_alive: true,
        },
    )
    .status
}

fn serve_benches(c: &mut Criterion) {
    let scale = Scale::from_env();
    let n_users = scale.shrink(50_000, 25) as u32;
    let n_items = scale.shrink(5_000, 25) as u32;
    let corpus = SynthConfig::yahoo_music()
        .with_users(n_users)
        .with_items(n_items)
        .generate();
    let formation =
        FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 5, 10).with_threads(0);
    let make_state = || {
        ServeState::new(
            corpus.matrix.clone(),
            ServeConfig::new(formation).with_batch_window(Duration::from_millis(2)),
        )
        .expect("initial formation")
    };

    let mut g = c.benchmark_group(format!("serve-{n_users}x{n_items}"));
    g.sample_size(12);

    let state = make_state();
    let mut u = 0u32;
    g.bench_function("group_lookup", |b| {
        b.iter(|| {
            u = (u + 7919) % n_users;
            assert_eq!(get(&state, format!("/v1/group/{u}"), ""), 200);
        })
    });
    let groups = state.snapshot().default_grouping().formation.grouping.len();
    let mut gi = 0usize;
    g.bench_function("recommend", |b| {
        b.iter(|| {
            gi = (gi + 3) % groups;
            assert_eq!(
                get(&state, format!("/v1/recommend/{gi}"), "exclude_rated=false"),
                200
            );
        })
    });

    let mut i = 0u32;
    g.bench_function("rate_enqueue", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            state
                .rate(i % n_users, i % n_items, 1.0 + (i % 5) as f64)
                .unwrap();
        })
    });
    state.flush().unwrap();

    g.bench_function("refresh_pass_64", |b| {
        b.iter(|| {
            for j in 0..64u32 {
                i = i.wrapping_add(j | 1);
                state
                    .rate(i % n_users, i % n_items, 1.0 + (i % 5) as f64)
                    .unwrap();
            }
            state.flush().unwrap();
        })
    });

    let snapshot = state.snapshot();
    g.bench_function("cold_rebuild", |b| {
        b.iter(|| {
            let prefs = PrefIndex::build(&snapshot.matrix);
            IncrementalFormer::new(&snapshot.matrix, &prefs, formation).unwrap()
        })
    });

    g.bench_function("form_coalesced_8", |b| {
        b.iter(|| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let state = Arc::clone(&state);
                    std::thread::spawn(move || state.form(formation).unwrap())
                })
                .collect();
            let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(outcomes.iter().filter(|o| o.leader).count() <= 8);
        })
    });

    g.finish();
}

criterion_group!(benches, serve_benches);
criterion_main!(benches);
