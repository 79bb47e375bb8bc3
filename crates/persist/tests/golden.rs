//! Golden binary fixtures: the on-disk WAL and checkpoint encodings are a
//! compatibility contract, so byte-level changes must be *deliberate*.
//!
//! Each test encodes a fixed state and compares it byte-for-byte against a
//! checked-in fixture under `tests/golden/`. When a format change is
//! intentional, regenerate with:
//!
//! ```sh
//! GF_UPDATE_GOLDEN=1 cargo test -p gf-persist --test golden
//! ```
//!
//! and bump `CHECKPOINT_FORMAT_VERSION` / `WAL_FORMAT_VERSION` if an old
//! reader could no longer parse the new bytes.

use gf_core::{
    Aggregation, FormationConfig, GreedyFormer, GroupFormer, GrowthPolicy, IncrementalFormer,
    MatrixBuilder, MissingPolicy, PrefIndex, RatingScale, Semantics,
};
use gf_persist::checkpoint::{self, CheckpointGrouping, CheckpointState};
use gf_persist::wal::{SyncMode, Wal};
use std::fs;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check_golden(name: &str, actual: &[u8]) {
    let path = golden_dir().join(name);
    if std::env::var_os("GF_UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(golden_dir()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n  regenerate with GF_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "{name} drifted from its golden fixture ({} vs {} bytes). If the \
         format change is intentional, regenerate with GF_UPDATE_GOLDEN=1 \
         and review the version constants.",
        expected.len(),
        actual.len()
    );
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gf-golden-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A fully pinned checkpoint state: every byte of its encoding is a
/// function of these literals and the (deterministic) greedy formation.
fn fixture_state() -> CheckpointState {
    let mut b = MatrixBuilder::new(5, 4, RatingScale::one_to_five());
    for (u, i, s) in [
        (0u32, 0u32, 5.0),
        (0, 1, 3.0),
        (0, 2, 1.0),
        (1, 0, 4.0),
        (1, 3, 2.0),
        (2, 1, 5.0),
        (2, 2, 4.0),
        (2, 3, 3.0),
        (3, 0, 2.0),
        (3, 1, 2.0),
        (4, 2, 5.0),
        (4, 3, 1.0),
    ] {
        b.push(u, i, s).unwrap();
    }
    let matrix = b.build().unwrap();
    let prefs = PrefIndex::build(&matrix);
    let config = FormationConfig::new(Semantics::LeastMisery, Aggregation::Sum, 2, 1)
        .with_policy(MissingPolicy::Min)
        .with_threads(1)
        .with_growth(GrowthPolicy::Grow {
            max_users: 64,
            max_items: 32,
        });
    let former = IncrementalFormer::new(&matrix, &prefs, config).unwrap();
    // A second named grouping pins the v2 registry layout, including the
    // Consensus lambda field.
    let cons_config =
        FormationConfig::new(Semantics::Consensus { lambda: 0.5 }, Aggregation::Min, 2, 2)
            .with_threads(1);
    let cons_formation = GreedyFormer::new()
        .form(&matrix, &prefs, &cons_config)
        .unwrap();
    CheckpointState {
        snapshot_version: 42,
        wal_seq: 17,
        applied: 17,
        users_admitted: 3,
        items_admitted: 1,
        groupings: vec![
            CheckpointGrouping {
                name: "default".to_string(),
                version: 42,
                config,
                formation: former.result().clone(),
                former: Some(former.export_state()),
            },
            CheckpointGrouping {
                name: "cons".to_string(),
                version: 40,
                config: cons_config,
                formation: cons_formation,
                former: None,
            },
        ],
        matrix,
        prefs,
        feedback: gf_core::OnlineEval::default(),
    }
}

#[test]
fn checkpoint_encoding_matches_golden() {
    let bytes = checkpoint::encode(&fixture_state()).unwrap();
    check_golden("checkpoint-v2.bin", &bytes);
    // And the fixture must always decode back to an equivalent state.
    let back = checkpoint::decode(&bytes).unwrap();
    assert_eq!(back.snapshot_version, 42);
    assert_eq!(back.wal_seq, 17);
    assert_eq!(back.groupings.len(), 2);
    assert!(back.default_grouping().unwrap().former.is_some());
}

#[test]
fn legacy_v1_checkpoint_loads_as_the_default_grouping() {
    // `checkpoint-v1.bin` is a real format-v1 file written before the
    // named-grouping registry existed; it is never regenerated. The
    // reader must keep restoring it as the lone "default" grouping.
    let bytes = fs::read(golden_dir().join("checkpoint-v1.bin")).unwrap();
    let state = checkpoint::decode(&bytes).unwrap();
    assert_eq!(state.snapshot_version, 42);
    assert_eq!(state.groupings.len(), 1);
    let g = &state.groupings[0];
    assert_eq!(g.name, checkpoint::DEFAULT_GROUPING_NAME);
    assert_eq!(g.version, 42, "v1 groupings pin to the snapshot version");
    // And it matches the live fixture's default grouping exactly.
    let live = fixture_state();
    let live_g = live.default_grouping().unwrap();
    assert_eq!(g.config, live_g.config);
    assert_eq!(state.matrix, live.matrix);
    assert_eq!(g.former, live_g.former);
}

#[test]
fn wal_segment_encoding_matches_golden() {
    let dir = tmpdir("wal");
    let (mut wal, _) = Wal::open(&dir, SyncMode::Always).unwrap();
    wal.append(&[(0, 1, 4.5), (2, 3, 1.0)]).unwrap();
    wal.append(&[]).unwrap();
    wal.append(&[(7, 0, 3.0)]).unwrap();
    wal.append_feedback(7, 0, None).unwrap();
    wal.append_feedback(2, 3, Some("cons")).unwrap();
    let paths = wal.segment_paths();
    assert_eq!(paths.len(), 1);
    let bytes = fs::read(&paths[0]).unwrap();
    drop(wal);
    fs::remove_dir_all(&dir).unwrap();
    check_golden("wal-segment-v2.bin", &bytes);
}

#[test]
fn legacy_v1_wal_segment_still_scans() {
    // `wal-segment-v1.bin` is a real format-1 segment written before the
    // feedback record kind existed; it is never regenerated. The reader
    // must keep decoding it as ratings-only history.
    if std::env::var_os("GF_UPDATE_GOLDEN").is_some() {
        return; // v1 fixtures are frozen, nothing to regenerate
    }
    let dir = tmpdir("wal-v1");
    fs::copy(
        golden_dir().join("wal-segment-v1.bin"),
        dir.join(format!("wal-{:020}.log", 1)),
    )
    .unwrap();
    let s = gf_persist::wal::scan(&dir).unwrap();
    assert!(s.torn.is_none());
    assert_eq!(s.last_seq, 3);
    assert_eq!(s.records[0].ratings().unwrap(), &[(0, 1, 4.5), (2, 3, 1.0)]);
    assert_eq!(s.records[1].ratings().unwrap(), &[]);
    assert_eq!(s.records[2].ratings().unwrap(), &[(7, 0, 3.0)]);
    // And the current-format writer resumes *past* it in a fresh segment
    // rather than appending v2 records under the v1 header.
    let (mut wal, scan) = Wal::open(&dir, SyncMode::Always).unwrap();
    assert_eq!(scan.last_seq, 3);
    assert_eq!(wal.segment_paths().len(), 2);
    assert_eq!(wal.append_feedback(0, 1, None).unwrap(), 4);
    drop(wal);
    let s = gf_persist::wal::scan(&dir).unwrap();
    assert_eq!(s.records.len(), 4);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_wal_v2_file_still_scans() {
    // Reader guard for the current format, mirroring the checkpoint one.
    if std::env::var_os("GF_UPDATE_GOLDEN").is_some() {
        return; // fixture may not exist yet during regeneration
    }
    let dir = tmpdir("wal-v2-read");
    fs::copy(
        golden_dir().join("wal-segment-v2.bin"),
        dir.join(format!("wal-{:020}.log", 1)),
    )
    .unwrap();
    let s = gf_persist::wal::scan(&dir).unwrap();
    assert!(s.torn.is_none());
    assert_eq!(s.last_seq, 5);
    assert_eq!(s.records[0].ratings().unwrap(), &[(0, 1, 4.5), (2, 3, 1.0)]);
    assert_eq!(
        s.records[3].payload,
        gf_persist::WalPayload::Feedback {
            user: 7,
            item: 0,
            scope: None
        }
    );
    assert_eq!(
        s.records[4].payload,
        gf_persist::WalPayload::Feedback {
            user: 2,
            item: 3,
            scope: Some("cons".to_string())
        }
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_checkpoint_file_still_loads() {
    // Guard the *reader* too: a checked-in fixture from the current format
    // version must decode on every future build of this major version.
    if std::env::var_os("GF_UPDATE_GOLDEN").is_some() {
        return; // fixtures may not exist yet during regeneration
    }
    let bytes = fs::read(golden_dir().join("checkpoint-v2.bin")).unwrap();
    let state = checkpoint::decode(&bytes).unwrap();
    let live = fixture_state();
    assert_eq!(state.groupings.len(), live.groupings.len());
    for (a, b) in state.groupings.iter().zip(&live.groupings) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.version, b.version);
        assert_eq!(a.config, b.config);
        assert_eq!(a.former, b.former);
    }
    assert_eq!(state.matrix, live.matrix);
}
