//! In-process durability tests: warm restarts, WAL-only recovery, torn
//! tails and former checkpointing — everything that doesn't need a real
//! process (for that, see `tests/crash.rs` and `tests/data_dir_lock.rs`).

use gf_core::{Aggregation, FormationConfig, GrowthPolicy, RatingMatrix, RatingScale, Semantics};
use gf_persist::checkpoint;
use gf_persist::wal::{SyncMode, Wal};
use gf_serve::http::route_full;
use gf_serve::persist::{boot, checkpoint_now, DurabilityOptions};
use gf_serve::{HttpRequest, Json, ServeConfig, ServeState};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gf-recovery-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A dense `n_users` x 6 matrix on the 1..5 scale.
fn dense_matrix(n_users: u32) -> RatingMatrix {
    let rows: Vec<Vec<f64>> = (0..n_users)
        .map(|u| {
            (0..6)
                .map(|i| 1.0 + ((u * 7 + i * 3 + u * i) % 5) as f64)
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    RatingMatrix::from_dense(&refs, RatingScale::one_to_five()).unwrap()
}

fn base_matrix() -> RatingMatrix {
    dense_matrix(12)
}

fn grow_config() -> ServeConfig {
    ServeConfig::new(
        FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 3, 3).with_growth(
            GrowthPolicy::Grow {
                max_users: 32,
                max_items: 16,
            },
        ),
    )
    .with_batch_window(Duration::ZERO)
}

fn opts(dir: &Path) -> DurabilityOptions {
    let mut o = DurabilityOptions::new(dir);
    o.checkpoint_interval = Duration::ZERO; // tests checkpoint explicitly
    o
}

/// The updates every test session applies: overwrites, fresh cells, and
/// two admissions (user 14 and item 7 are beyond the 12x6 boot matrix).
const SCRIPT: [(u32, u32, f64); 10] = [
    (0, 0, 5.0),
    (3, 2, 1.0),
    (7, 5, 4.0),
    (14, 1, 3.0), // admits users 12..=14
    (2, 7, 2.0),  // admits items 6..=7
    (0, 0, 2.0),  // overwrite the overwrite
    (14, 7, 5.0),
    (9, 3, 3.0),
    (11, 0, 1.0),
    (5, 5, 5.0),
];

/// A volatile server fed the same updates — the "never crashed" oracle.
fn reference(updates: &[(u32, u32, f64)]) -> Arc<ServeState> {
    let state = ServeState::new(base_matrix(), grow_config()).unwrap();
    for &(u, i, s) in updates {
        state.rate(u, i, s).unwrap();
    }
    state.flush().unwrap();
    state
}

#[test]
fn warm_restart_is_bit_for_bit_identical() {
    let dir = tmpdir("warm");
    let o = opts(&dir);
    let (state, report) = boot(grow_config(), &o, || Ok(base_matrix())).unwrap();
    assert!(report.cold_start);
    for &(u, i, s) in &SCRIPT {
        state.rate(u, i, s).unwrap();
    }
    state.flush().unwrap();
    let digest_before = state.digest();
    let version_before = state.snapshot().version;
    drop(state); // crash: no shutdown, no final checkpoint

    let (restored, report) = boot(grow_config(), &o, || {
        panic!("warm boot must not reload the dataset")
    })
    .unwrap();
    assert!(!report.cold_start);
    assert_eq!(report.checkpoint_version, 1); // only the boot checkpoint existed
    assert_eq!(report.replayed, SCRIPT.len() as u64);
    assert_eq!(report.dropped_bytes, 0);
    assert_eq!(restored.snapshot().version, version_before);
    assert_eq!(restored.digest(), digest_before);
    // And both equal the server that never crashed.
    assert_eq!(restored.digest(), reference(&SCRIPT).digest());
    let snap = restored.snapshot();
    assert_eq!(snap.progress.users_admitted, 3);
    assert_eq!(snap.progress.items_admitted, 2);
    assert_eq!(snap.progress.applied, SCRIPT.len() as u64);
    fs::remove_dir_all(&dir).unwrap();
}

/// `GET path` on `state` without a socket; the body must be a JSON
/// object.
fn get(state: &ServeState, path: &str) -> Json {
    let req = HttpRequest {
        method: "GET".to_string(),
        path: path.to_string(),
        query: String::new(),
        body: String::new(),
        keep_alive: false,
    };
    let out = route_full(state, &req);
    assert_eq!(out.status, 200, "GET {path}: {:?}", out.body);
    out.body
}

fn field(body: &Json, key: &str) -> u64 {
    body.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no u64 {key:?} in {body:?}"))
}

/// `/v1/stats` reads its four progress keys from the snapshot, so a warm
/// restart that restores a checkpoint and replays a WAL tail (ratings,
/// both kinds of admission and feedback on both sides of the checkpoint)
/// reports exactly the recovered journal progress: `rates_applied`,
/// `users_admitted` and `items_admitted` equal `/v1/digest`'s `applied`,
/// `users_admitted` and `items_admitted`, and `feedback_applied` the
/// window's cumulative observed total.
#[test]
fn stats_progress_keys_equal_the_snapshot_after_a_replay() {
    let dir = tmpdir("statskeys");
    let o = opts(&dir);
    let (state, _) = boot(grow_config(), &o, || Ok(base_matrix())).unwrap();
    let mut feedback = 0;
    for (step, &(u, i, s)) in SCRIPT.iter().enumerate() {
        state.rate(u, i, s).unwrap();
        if step % 3 == 0 {
            state.feedback(u % 12, i % 6, None).unwrap();
            feedback += 1;
        }
        // Checkpoint mid-script: the user admission lands before it, the
        // item admission in the replayed tail.
        if step == 3 {
            state.flush().unwrap();
            assert!(checkpoint_now(&state, &o).unwrap().is_some());
        }
    }
    state.flush().unwrap();
    drop(state); // crash: the tail after the checkpoint lives in the WAL only

    let (restored, report) = boot(grow_config(), &o, || unreachable!()).unwrap();
    assert!(!report.cold_start);
    assert!(report.replayed > 0, "nothing was replayed");
    let stats = get(&restored, "/v1/stats");
    let digest = get(&restored, "/v1/digest");
    for (stat, progress) in [
        ("rates_applied", "applied"),
        ("users_admitted", "users_admitted"),
        ("items_admitted", "items_admitted"),
    ] {
        assert_eq!(field(&stats, stat), field(&digest, progress), "{stat}");
    }
    assert_eq!(
        field(&stats, "feedback_applied"),
        restored.snapshot().feedback.observed_total()
    );
    assert_eq!(field(&stats, "rates_applied"), SCRIPT.len() as u64);
    assert_eq!(field(&stats, "users_admitted"), 3);
    assert_eq!(field(&stats, "items_admitted"), 2);
    assert_eq!(field(&stats, "feedback_applied"), feedback);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_only_recovery_replays_from_scratch() {
    let dir = tmpdir("walonly");
    // A journal with no checkpoint at all (e.g. the operator deleted
    // corrupt checkpoints, per the OPERATIONS.md playbook).
    let (mut wal, _) = Wal::open(&dir, SyncMode::Always).unwrap();
    for &(u, i, s) in &SCRIPT[..5] {
        wal.append(&[(u, i, s)]).unwrap();
    }
    drop(wal);

    let (state, report) = boot(grow_config(), &opts(&dir), || Ok(base_matrix())).unwrap();
    assert!(report.cold_start); // no checkpoint => the dataset closure ran
    assert_eq!(report.replayed, 5);
    assert_eq!(state.digest(), reference(&SCRIPT[..5]).digest());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_wal_tail_is_dropped_not_fatal() {
    let dir = tmpdir("torn");
    let o = opts(&dir);
    let (state, _) = boot(grow_config(), &o, || Ok(base_matrix())).unwrap();
    for &(u, i, s) in &SCRIPT[..3] {
        state.rate(u, i, s).unwrap();
    }
    state.flush().unwrap();
    drop(state);
    // Tear the last record (as a crash mid-append would).
    let segment = gf_persist::wal::scan(&dir)
        .unwrap()
        .records
        .last()
        .map(|_| ())
        .and_then(|_| {
            fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| {
                    let p = e.unwrap().path();
                    p.file_name()?.to_str()?.starts_with("wal-").then_some(p)
                })
                .max()
        })
        .unwrap();
    let bytes = fs::read(&segment).unwrap();
    fs::write(&segment, &bytes[..bytes.len() - 7]).unwrap();

    let (restored, report) = boot(grow_config(), &o, || {
        panic!("checkpoint exists; must stay warm")
    })
    .unwrap();
    assert!(report.dropped_bytes > 0);
    assert_eq!(report.replayed, 2); // record 3 was torn away
    assert_eq!(restored.digest(), reference(&SCRIPT[..2]).digest());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoints_restore_the_former_warm() {
    let dir = tmpdir("warmformer");
    let o = opts(&dir);
    let (state, _) = boot(grow_config(), &o, || Ok(base_matrix())).unwrap();
    for &(u, i, s) in &SCRIPT {
        state.rate(u, i, s).unwrap();
    }
    state.flush().unwrap(); // incremental passes leave a synced former
    assert!(
        state
            .stats
            .refresh_incremental
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
    );
    assert!(checkpoint_now(&state, &o).unwrap().is_some());
    let loaded = checkpoint::load_latest(&dir).unwrap().loaded.unwrap().0;
    assert!(
        loaded.default_grouping().unwrap().former.is_some(),
        "a synced former must be exported into the checkpoint"
    );
    drop(state);

    // The restored server's next refresh rides the imported bucket state
    // (refresh_incremental counts it) and still matches the oracle.
    let (restored, _) = boot(grow_config(), &o, || unreachable!()).unwrap();
    restored.rate(1, 1, 4.0).unwrap();
    restored.flush().unwrap();
    assert_eq!(
        restored
            .stats
            .refresh_incremental
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    let mut script: Vec<(u32, u32, f64)> = SCRIPT.to_vec();
    script.push((1, 1, 4.0));
    assert_eq!(restored.digest(), reference(&script).digest());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn same_config_form_keeps_the_former_lineage() {
    let dir = tmpdir("formlineage");
    let o = opts(&dir);
    let (state, _) = boot(grow_config(), &o, || Ok(base_matrix())).unwrap();
    state.rate(0, 0, 5.0).unwrap();
    state.flush().unwrap(); // former initialized + synced
    let cfg = state.snapshot().default_grouping().config;

    // A same-config /form used to break the lineage; now it re-syncs, so
    // the standing former still exports into the next checkpoint...
    state.form(cfg).unwrap();
    assert!(checkpoint_now(&state, &o).unwrap().is_some());
    let ck = checkpoint::load_latest(&dir).unwrap().loaded.unwrap().0;
    assert!(
        ck.default_grouping().unwrap().former.is_some(),
        "same-config /form must keep the former warm"
    );

    // ...and so does a *different*-config /form, which builds the
    // grouping's new former rather than leaving it without one.
    let other = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 2, 4)
        .with_growth(cfg.growth);
    state.form(other).unwrap();
    assert!(checkpoint_now(&state, &o).unwrap().is_some());
    let ck = checkpoint::load_latest(&dir).unwrap().loaded.unwrap().0;
    let g = ck.default_grouping().unwrap();
    assert_eq!(g.config, other);
    assert!(g.former.is_some());
    fs::remove_dir_all(&dir).unwrap();
}

/// Every grouping's former state in the newest checkpoint under `dir`.
fn checkpointed_formers(dir: &Path) -> Vec<(String, bool)> {
    let ck = checkpoint::load_latest(dir).unwrap().loaded.unwrap().0;
    ck.groupings
        .iter()
        .map(|g| (g.name.clone(), g.former.is_some()))
        .collect()
}

#[test]
fn the_former_is_checkpointed_after_boot_and_after_a_cold_pass() {
    use std::sync::atomic::Ordering::Relaxed;
    let dir = tmpdir("alwaysformer");
    let o = opts(&dir);
    // 100 users: a pass over more than max(64, 100 / 8) = 64 dirty users
    // re-forms cold under the default `Auto` refresh.
    let lm = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 3, 4);
    let av = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 2, 5);
    let cfg = || {
        ServeConfig::new(lm)
            .with_grouping("av", av)
            .with_batch_window(Duration::ZERO)
    };
    let every_former = vec![("av".to_string(), true), ("default".to_string(), true)];

    let (state, report) = boot(cfg(), &o, || Ok(dense_matrix(100))).unwrap();
    assert!(report.cold_start);
    assert_eq!(checkpointed_formers(&dir), every_former, "boot");

    let updates: Vec<(u32, u32, f64)> = (0..70).map(|u| (u, u % 6, 1.0 + (u % 5) as f64)).collect();
    for &(u, i, s) in &updates {
        state.rate(u, i, s).unwrap();
    }
    state.flush().unwrap();
    assert_eq!(state.stats.refresh_cold.load(Relaxed), 2);
    assert_eq!(state.stats.refresh_incremental.load(Relaxed), 0);
    assert!(checkpoint_now(&state, &o).unwrap().is_some());
    assert_eq!(checkpointed_formers(&dir), every_former, "cold pass");
    drop(state);

    // The warm restart's first pass refreshes the imported formers.
    let (restored, report) = boot(cfg(), &o, || unreachable!()).unwrap();
    assert!(!report.cold_start);
    restored.rate(3, 2, 5.0).unwrap();
    restored.flush().unwrap();
    assert_eq!(restored.stats.refresh_incremental.load(Relaxed), 2);
    assert_eq!(restored.stats.refresh_cold.load(Relaxed), 0);

    let reference = ServeState::new(dense_matrix(100), cfg()).unwrap();
    for &(u, i, s) in updates.iter().chain(&[(3, 2, 5.0)]) {
        reference.rate(u, i, s).unwrap();
    }
    reference.flush().unwrap();
    assert_eq!(restored.digest(), reference.digest());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_grouping_checkpointed_without_a_former_rebuilds_it_on_its_first_pass() {
    use std::sync::atomic::Ordering::Relaxed;
    // The golden v2 checkpoint's "cons" grouping carries no former state,
    // as checkpoints written before formers were always exported may.
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../persist/tests/golden/checkpoint-v2.bin");
    let ck = checkpoint::decode(&fs::read(golden).unwrap()).unwrap();
    let formers: Vec<(&str, bool)> = ck
        .groupings
        .iter()
        .map(|g| (g.name.as_str(), g.former.is_some()))
        .collect();
    assert_eq!(formers, [("default", true), ("cons", false)]);
    let cfg =
        ServeConfig::new(ck.default_grouping().unwrap().config).with_batch_window(Duration::ZERO);
    let state = ServeState::restore_from(ck, cfg).unwrap();
    state.rate(1, 1, 4.0).unwrap();
    state.flush().unwrap();
    // "default" refreshed its restored former; "cons" had none and was
    // rebuilt cold, which is the path the counters report.
    assert_eq!(state.stats.refresh_incremental.load(Relaxed), 1);
    assert_eq!(state.stats.refresh_cold.load(Relaxed), 1);

    let snap = state.snapshot();
    for (name, g) in &snap.groupings {
        let cold =
            ServeState::new(snap.matrix.as_ref().clone(), ServeConfig::new(g.config)).unwrap();
        assert_eq!(
            g.formation,
            cold.snapshot().default_grouping().formation,
            "grouping {name} diverged from its cold rebuild"
        );
    }
    // From here on the rebuilt former is checkpointed like any other.
    let dir = tmpdir("legacyformer");
    assert!(checkpoint_now(&state, &opts(&dir)).unwrap().is_some());
    assert_eq!(
        checkpointed_formers(&dir),
        [("cons".to_string(), true), ("default".to_string(), true)]
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lost_wal_behind_a_checkpoint_restarts_the_log() {
    let dir = tmpdir("lostwal");
    let o = opts(&dir);
    let (state, _) = boot(grow_config(), &o, || Ok(base_matrix())).unwrap();
    for &(u, i, s) in &SCRIPT[..4] {
        state.rate(u, i, s).unwrap();
    }
    state.flush().unwrap();
    assert!(checkpoint_now(&state, &o).unwrap().is_some());
    drop(state);
    // Simulate operator error: the WAL vanishes, checkpoints survive.
    for entry in fs::read_dir(&dir).unwrap() {
        let p = entry.unwrap().path();
        if p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("wal-"))
        {
            fs::remove_file(p).unwrap();
        }
    }
    let (restored, report) = boot(grow_config(), &o, || unreachable!()).unwrap();
    assert!(!report.cold_start);
    assert_eq!(report.replayed, 0);
    // New appends must continue past the checkpoint frontier, never
    // reusing sequence numbers a future replay would consider baked.
    restored.rate(0, 1, 3.0).unwrap();
    restored.flush().unwrap();
    assert_eq!(restored.snapshot().progress.wal_seq, 5);
    let mut script: Vec<(u32, u32, f64)> = SCRIPT[..4].to_vec();
    script.push((0, 1, 3.0));
    assert_eq!(restored.digest(), reference(&script).digest());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_data_dir_serves_one_process_at_a_time() {
    let dir = tmpdir("lock");
    let o = opts(&dir);
    let (state, _) = boot(grow_config(), &o, || Ok(base_matrix())).unwrap();
    // A second boot on the same directory is refused while the first
    // state lives, before it reads or writes anything.
    let err = boot(grow_config(), &o, || -> gf_core::Result<RatingMatrix> {
        panic!("a refused boot must not load the dataset")
    })
    .err()
    .expect("second boot on a locked data dir must fail");
    let message = err.to_string();
    assert!(message.contains("LOCK"), "{message}");
    assert!(message.contains("another process"), "{message}");
    state.rate(0, 0, 4.0).unwrap();
    state.flush().unwrap();
    let digest = state.digest();
    // Dropping the state releases the lock: the next boot is warm.
    drop(state);
    let (restored, report) = boot(grow_config(), &o, || unreachable!()).unwrap();
    assert!(!report.cold_start);
    assert_eq!(restored.digest(), digest);
    fs::remove_dir_all(&dir).unwrap();
}
