//! Cold vs incremental background refresh at serving scale.
//!
//! The serving layer's background pass can re-form the whole population
//! (`RefreshMode::Cold`) or patch only the dirty users' buckets through
//! the standing `IncrementalFormer` (`RefreshMode::Incremental`). This
//! bench drives both through the real `ServeState` machinery — journal
//! drain, batched matrix/pref patching, re-formation, snapshot install —
//! with 64-update batches, plus the raw core-level former refresh, so
//! EXPERIMENTS.md can record the cold-vs-incremental ratio per PR.
//!
//! * `refresh_64_cold` — one bounded pass, full re-formation: the
//!   `IncrementalFormer::new` rebuild every cold pass runs.
//! * `refresh_64_incremental` — one bounded pass through the standing
//!   former (steady state; the one-off former init is priced separately).
//! * `refresh_2_incremental` — the same pass with only 2 updates, the
//!   size of a pass under a steady trickle of writes: what is left once
//!   the batch is tiny is the former's per-pass floor (Step-2 selection
//!   and tail emission), which must not grow with the bucket count.
//! * `refresh_64_incremental_cons` — the same pass with a Consensus
//!   (λ = 0.5) grouping, whose tail group is scored from maintained
//!   per-item moments: it must stay near the LM pass, and a fall back to
//!   a full tail rescore shows here first.
//! * `refresh_64_admissions` — the same bounded pass where all 64 updates
//!   **admit never-seen users** (`GrowthPolicy::Grow`): what a population
//!   onboarding wave costs vs the same-size dirty-only batch above.
//! * `former_init` — building the standing former from scratch (what
//!   boot, `/form` and every cold pass pay per grouping).
//! * `former_refresh_64` — the core-level pass without serve-layer
//!   overhead: the successor matrix and preference-index builds, then the
//!   former refresh (bucket moves + Step-2 reselection + tail
//!   maintenance).
//!
//! Sizes follow `serve_throughput`: 50k users x 5k items at
//! `GF_BENCH_SCALE=paper`, 2k x 200 at `quick`.

use criterion::{criterion_group, criterion_main, Criterion};
use gf_bench::Scale;
use gf_core::{
    Aggregation, FormationConfig, GrowthPolicy, IncrementalFormer, PrefIndex, RatingDelta,
    RefreshMode, Semantics,
};
use gf_datasets::SynthConfig;
use gf_serve::{ServeConfig, ServeState};
use std::sync::Arc;
use std::time::Duration;

const BATCH: u32 = 64;

/// The batch of `refresh_2_incremental`.
const SMALL_BATCH: u32 = 2;

fn serve_state(
    matrix: &gf_core::RatingMatrix,
    formation: FormationConfig,
    refresh: RefreshMode,
) -> Arc<ServeState> {
    ServeState::new(
        matrix.clone(),
        ServeConfig::new(formation.with_refresh(refresh))
            .with_batch_window(Duration::from_millis(2)),
    )
    .expect("initial formation")
}

fn incremental_refresh_benches(c: &mut Criterion) {
    let scale = Scale::from_env();
    let n_users = scale.shrink(50_000, 25) as u32;
    let n_items = scale.shrink(5_000, 25) as u32;
    let corpus = SynthConfig::yahoo_music()
        .with_users(n_users)
        .with_items(n_items)
        .generate();
    let formation =
        FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 5, 10).with_threads(0);

    let mut g = c.benchmark_group(format!("incremental-refresh-{n_users}x{n_items}"));
    g.sample_size(10);

    // A deterministic update stream shared by all variants.
    let mut cursor = 0u32;
    let mut next_update = move || {
        cursor = cursor.wrapping_add(7919);
        (
            cursor % n_users,
            cursor % n_items,
            1.0 + (cursor % 5) as f64,
        )
    };

    let consensus = FormationConfig::new(
        Semantics::Consensus { lambda: 0.5 },
        Aggregation::Min,
        5,
        10,
    )
    .with_threads(0);
    for (name, formation, mode, batch) in [
        ("refresh_64_cold", formation, RefreshMode::Cold, BATCH),
        (
            "refresh_64_incremental",
            formation,
            RefreshMode::Incremental,
            BATCH,
        ),
        (
            "refresh_2_incremental",
            formation,
            RefreshMode::Incremental,
            SMALL_BATCH,
        ),
        (
            "refresh_64_incremental_cons",
            consensus,
            RefreshMode::Incremental,
            BATCH,
        ),
    ] {
        let state = serve_state(&corpus.matrix, formation, mode);
        // Prime: one pass outside the measured region.
        let (u, i, s) = next_update();
        state.rate(u, i, s).unwrap();
        state.flush().unwrap();
        g.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..batch {
                    let (u, i, s) = next_update();
                    state.rate(u, i, s).unwrap();
                }
                state.flush().unwrap();
            })
        });
    }

    // Admission batches: every update in the pass names a never-seen
    // user (on an existing item), so the refresh pays bucket admission +
    // tail splicing for the whole batch — the population-growth analogue
    // of `refresh_64_incremental` for EXPERIMENTS.md to compare.
    {
        let state = serve_state(
            &corpus.matrix,
            formation.with_growth(GrowthPolicy::unbounded()),
            RefreshMode::Incremental,
        );
        let (u, i, s) = next_update();
        state.rate(u, i, s).unwrap();
        state.flush().unwrap();
        let mut next_user = n_users;
        g.bench_function("refresh_64_admissions", |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    let (_, i, s) = next_update();
                    state.rate(next_user, i, s).unwrap();
                    next_user += 1;
                }
                state.flush().unwrap();
            })
        });
    }

    // Core-level numbers, free of serve-layer clones and locking.
    let mut matrix = corpus.matrix.clone();
    let mut prefs = PrefIndex::build(&matrix);
    g.bench_function("former_init", |b| {
        b.iter(|| IncrementalFormer::new(&matrix, &prefs, formation).expect("init"))
    });
    let mut former = IncrementalFormer::new(&matrix, &prefs, formation).expect("init");
    g.bench_function("former_refresh_64", |b| {
        b.iter(|| {
            let updates: Vec<(u32, u32, f64)> = (0..BATCH).map(|_| next_update()).collect();
            let (next, outcomes) = matrix
                .with_upserts_under(&updates, GrowthPolicy::Fixed)
                .unwrap();
            let users: Vec<u32> = updates.iter().map(|&(u, _, _)| u).collect();
            prefs = prefs.patched(&next, &users);
            matrix = next;
            let deltas: Vec<RatingDelta> = updates
                .iter()
                .zip(outcomes)
                .map(|(&(u, i, s), o)| RatingDelta::from_upsert(u, i, s, o))
                .collect();
            former.refresh(&matrix, &prefs, &deltas).expect("refresh");
        })
    });

    g.finish();
}

criterion_group!(benches, incremental_refresh_benches);
criterion_main!(benches);
