//! End-to-end exercise of the `gf_datasets::io` loaders against checked-in
//! MovieLens-format fixtures (ROADMAP: "real data loaders in CI").
//!
//! `tests/fixtures/ratings_20users.{dat,csv}` hold the same 20-user,
//! 10-movie population in the two MovieLens layouts: `.dat`
//! (`UserID::MovieID::Rating::Timestamp`, whole stars) and `.csv`
//! (`userId,movieId,rating,timestamp` with a header row, half stars). Raw
//! ids are deliberately non-dense (users 101, 108, …, 234; movie ids up to
//! 3578) so the loaders' dense re-indexing is exercised for real.

use gf_core::{
    Aggregation, FormationConfig, GreedyFormer, GroupFormer, PrefIndex, RatingScale, Semantics,
};
use gf_datasets::io::{read_movielens_csv, read_movielens_dat, read_tsv, write_tsv, Loaded};
use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;

fn fixture(name: &str) -> BufReader<File> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    BufReader::new(File::open(&path).unwrap_or_else(|e| panic!("open {path:?}: {e}")))
}

fn load_dat() -> Loaded {
    read_movielens_dat(fixture("ratings_20users.dat"), RatingScale::one_to_five())
        .expect("fixture .dat parses")
}

fn load_csv() -> Loaded {
    read_movielens_csv(fixture("ratings_20users.csv"), RatingScale::half_star())
        .expect("fixture .csv parses")
}

#[test]
fn dat_fixture_loads_and_reindexes() {
    let loaded = load_dat();
    assert_eq!(loaded.matrix.n_users(), 20);
    assert_eq!(loaded.matrix.n_items(), 10);
    assert_eq!(loaded.matrix.nnz(), 117);
    // Raw ids survive in first-appearance order: user 101 rates first and
    // its first rated movie is 260.
    assert_eq!(loaded.user_ids[0], 101);
    assert_eq!(loaded.item_ids[0], 260);
    assert_eq!(loaded.user_ids.len(), 20);
    assert_eq!(loaded.item_ids.len(), 10);
    // Users are 101 + 7k — all distinct, none dense.
    for (k, &raw) in loaded.user_ids.iter().enumerate() {
        assert_eq!(raw, 101 + 7 * k as u64);
    }
    // First line of the file: 101::260::3.
    assert_eq!(loaded.matrix.get(0, 0), Some(3.0));
    // Every user rated 4..=8 movies.
    for u in 0..20 {
        let d = loaded.matrix.degree(u);
        assert!((4..=8).contains(&d), "user {u} has degree {d}");
    }
}

#[test]
fn csv_fixture_loads_half_stars() {
    let loaded = load_csv();
    assert_eq!(loaded.matrix.n_users(), 20);
    assert_eq!(loaded.matrix.n_items(), 10);
    assert_eq!(loaded.matrix.nnz(), 117);
    // Same population as the .dat file, in the same first-appearance order.
    let dat = load_dat();
    assert_eq!(loaded.user_ids, dat.user_ids);
    assert_eq!(loaded.item_ids, dat.item_ids);
    // Half-star ratings are present and every score sits on the 0.5 grid.
    let mut saw_half = false;
    for u in 0..loaded.matrix.n_users() {
        for (_, s) in loaded.matrix.user_ratings(u) {
            assert_eq!((s * 2.0).round(), s * 2.0, "{s} not on the half-star grid");
            if s.fract() != 0.0 {
                saw_half = true;
            }
        }
    }
    assert!(saw_half, "fixture should exercise half-star parsing");
}

#[test]
fn loaded_fixture_supports_group_formation_end_to_end() {
    // The full paper pipeline on real-format data: load -> index -> form
    // -> validate the partition.
    let loaded = load_dat();
    let prefs = PrefIndex::build(&loaded.matrix);
    let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 3, 5);
    let plain = GreedyFormer::new()
        .form(&loaded.matrix, &prefs, &cfg)
        .unwrap();
    plain.grouping.validate(20, 5).unwrap();
    assert!(plain.objective > 0.0);
    // Report groups against the original MovieLens user ids.
    for g in &plain.grouping.groups {
        for &u in g.members.iter() {
            assert!(loaded.user_ids[u as usize] >= 101);
        }
    }
}

#[test]
fn fixture_round_trips_through_tsv() {
    let loaded = load_dat();
    let mut out = Vec::new();
    write_tsv(&loaded.matrix, &mut out).unwrap();
    let reloaded = read_tsv(std::io::Cursor::new(out), RatingScale::one_to_five()).unwrap();
    assert_eq!(loaded.matrix, reloaded.matrix);
}
