//! Crash-injection proof harness: `kill -9` a **real** `gf-serve`
//! process mid-run, restart it on the same `--data-dir`, and assert the
//! recovered state is bit-for-bit the state of a server that never
//! crashed — digest, snapshot version, applied-record count and
//! admission counters all equal.
//!
//! The uninterrupted reference is rebuilt in-process by replaying the
//! full retained WAL (`--wal-retain`) from sequence 1 into a fresh
//! [`ServeState`]: an acked rating is durable (`--wal-sync always`), so
//! the journal *is* the uninterrupted run. Equality then proves
//! checkpoint + tail-replay ≡ pure sequential application.
//!
//! Three kill points: before any checkpoint exists (WAL-only recovery),
//! between rapid periodic checkpoints (checkpoint + tail), and a
//! double-crash immediately after a recovery (recover-from-recovery).
//! Exact version equality holds because every version step is a journal
//! record: each applied record advances the version by one, and nothing
//! else in these runs does.
//!
//! Every server runs a three-entry grouping registry — `default`
//! (least-misery), `av` (average) and `cons` (consensus) — over the one
//! shared matrix, and recovery is asserted per grouping: the `/digest`
//! grouping map of the restarted process must equal the uninterrupted
//! reference name-for-name, bit-for-bit.
//!
//! The update stream interleaves `POST /v1/feedback` with ratings, so the
//! same equality also proves the quality ledger survives: the state
//! digest folds in the feedback window, and `feedback_applied` on the
//! restarted server must equal the journal's feedback-record count.

use gf_core::{Aggregation, FormationConfig, GrowthPolicy, RefreshMode, Semantics};
use gf_datasets::SynthConfig;
use gf_serve::{Json, ServeConfig, ServeState};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const USERS: u32 = 48;
const ITEMS: u32 = 10;
const MAX_USERS: u32 = 64;
const MAX_ITEMS: u32 = 32;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gf-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running `gf-serve` child; SIGKILLed on drop so a failing assert
/// never leaks a process.
struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    /// `Child::kill` delivers SIGKILL on unix — the real crash, no
    /// destructors, no flushes.
    fn kill_dash_nine(mut self) {
        self.child.kill().unwrap();
        self.child.wait().unwrap();
    }
}

fn spawn(dir: &Path, checkpoint_interval_ms: u64) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gf-serve"))
        .args([
            "--addr",
            "127.0.0.1",
            "--port",
            "0",
            "--synth",
            &format!("{USERS}x{ITEMS}"),
            "--max-users",
            &MAX_USERS.to_string(),
            "--max-items",
            &MAX_ITEMS.to_string(),
            "--batch-window-ms",
            "0",
            "--data-dir",
            dir.to_str().unwrap(),
            "--wal-sync",
            "always",
            "--wal-retain",
            "--checkpoint-interval-ms",
            &checkpoint_interval_ms.to_string(),
            "--grouping",
            "av:semantics=av,agg=sum",
            "--grouping",
            "cons:semantics=cons,lambda=0.5",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = stdout.read_line(&mut line).unwrap();
        assert!(n > 0, "gf-serve exited before printing the listening line");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address after http://")
                .to_string();
        }
    };
    Server { child, addr }
}

/// One short-lived HTTP/1.1 request; returns (status, body).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\
                 content-length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    (status, body.to_string())
}

fn rate(addr: &str, user: u32, item: u32, score: u32) {
    let (status, body) = http(
        addr,
        "POST",
        "/v1/rate",
        &format!(r#"{{"user":{user},"item":{item},"rating":{score}}}"#),
    );
    assert_eq!(status, 202, "rate ({user},{item},{score}) refused: {body}");
}

fn feedback(addr: &str, user: u32, item: u32, scope: Option<&str>) {
    let body = match scope {
        Some(s) => format!(r#"{{"user":{user},"item":{item},"grouping":"{s}"}}"#),
        None => format!(r#"{{"user":{user},"item":{item}}}"#),
    };
    let (status, resp) = http(addr, "POST", "/v1/feedback", &body);
    assert_eq!(status, 202, "feedback ({user},{item}) refused: {resp}");
}

/// Drives a slice of the rating script against a live server,
/// interleaving a deterministic trickle of `/v1/feedback` posts (base
/// users/items only, so feedback validation never races a pending
/// admission). Returns the number of journal records produced — one per
/// rating plus one per feedback. `sleep_every > 0` naps briefly every
/// that-many ratings so a rapid checkpointer can land mid-stream.
fn drive(addr: &str, updates: &[(u32, u32, u32)], offset: usize, sleep_every: usize) -> u64 {
    let mut records = 0u64;
    for (n, &(u, i, s)) in updates.iter().enumerate() {
        rate(addr, u, i, s);
        records += 1;
        let k = offset + n;
        if k % 5 == 2 {
            let scope = match k % 3 {
                0 => Some("cons"),
                1 => Some("av"),
                _ => None,
            };
            feedback(addr, u % USERS, i % ITEMS, scope);
            records += 1;
        }
        if sleep_every > 0 && n % sleep_every == sleep_every - 1 {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    records
}

/// Deterministic rating stream: mostly in-population updates, a steady
/// trickle of admissions (users 48..64, items 10..32), scores on the
/// synth corpus's 1–5 integer grid.
fn script(n: usize) -> Vec<(u32, u32, u32)> {
    let mut x: u64 = 0x243F_6A88_85A3_08D3;
    (0..n)
        .map(|k| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let user = if k % 7 == 3 {
                USERS + ((x >> 33) % (MAX_USERS - USERS) as u64) as u32
            } else {
                ((x >> 33) % USERS as u64) as u32
            };
            let item = if k % 11 == 5 {
                ITEMS + ((x >> 13) % (MAX_ITEMS - ITEMS) as u64) as u32
            } else {
                ((x >> 13) % ITEMS as u64) as u32
            };
            (user, item, 1 + ((x >> 3) % 5) as u32)
        })
        .collect()
}

/// `/digest` fields of a live server, including the per-grouping map.
struct Digest {
    digest: String,
    version: u64,
    applied: u64,
    users_admitted: u64,
    items_admitted: u64,
    /// Sorted `(grouping name, 16-hex-digit digest)` pairs.
    groupings: Vec<(String, String)>,
}

fn digest_of(addr: &str) -> Digest {
    let (status, body) = http(addr, "GET", "/v1/digest", "");
    assert_eq!(status, 200, "{body}");
    let json = Json::parse(&body).unwrap();
    let num = |k: &str| json.get(k).and_then(Json::as_u64).unwrap();
    let mut groupings: Vec<(String, String)> = match json.get("groupings") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, d)| (name.clone(), d.as_str().unwrap().to_string()))
            .collect(),
        other => panic!("/v1/digest groupings map missing or not an object: {other:?}"),
    };
    groupings.sort();
    Digest {
        digest: json
            .get("digest")
            .and_then(Json::as_str)
            .unwrap()
            .to_string(),
        version: num("version"),
        applied: num("applied"),
        users_admitted: num("users_admitted"),
        items_admitted: num("items_admitted"),
        groupings,
    }
}

/// The uninterrupted run: a fresh in-process server over the same synth
/// corpus and config, fed the retained journal from sequence 1.
fn reference(dir: &Path) -> Digest {
    let scanned = gf_persist::wal::scan(dir).unwrap();
    assert!(!scanned.records.is_empty(), "harness journaled nothing");
    let matrix = SynthConfig::yahoo_music()
        .with_users(USERS)
        .with_items(ITEMS)
        .generate()
        .matrix;
    // Mirrors the flags `spawn` passes (and the binary's defaults),
    // including its three-entry grouping registry.
    let formation = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 5, 10)
        .with_threads(0)
        .with_refresh(RefreshMode::Auto)
        .with_growth(GrowthPolicy::Grow {
            max_users: MAX_USERS,
            max_items: MAX_ITEMS,
        });
    let mut av = formation;
    av.semantics = Semantics::AggregateVoting;
    av.aggregation = Aggregation::Sum;
    let mut cons = formation;
    cons.semantics = Semantics::Consensus { lambda: 0.5 };
    let state = ServeState::new(
        matrix,
        ServeConfig::new(formation)
            .with_grouping("av", av)
            .with_grouping("cons", cons)
            .with_batch_window(Duration::ZERO),
    )
    .unwrap();
    for rec in &scanned.records {
        match &rec.payload {
            gf_persist::WalPayload::Ratings(updates) => {
                assert_eq!(
                    updates.len(),
                    1,
                    "live servers journal one update per record"
                );
                let (u, i, s) = updates[0];
                state.rate(u, i, s).unwrap();
            }
            gf_persist::WalPayload::Feedback { user, item, scope } => {
                state.feedback(*user, *item, scope.as_deref()).unwrap();
            }
        }
    }
    state.flush().unwrap();
    let snap = state.snapshot();
    let groupings = snap
        .groupings
        .keys()
        .map(|name| {
            let d = state.grouping_digest(name).unwrap();
            (name.clone(), format!("{d:016x}"))
        })
        .collect();
    Digest {
        digest: format!("{:016x}", state.digest()),
        version: snap.version,
        applied: snap.progress.applied,
        users_admitted: snap.progress.users_admitted,
        items_admitted: snap.progress.items_admitted,
        groupings,
    }
}

fn assert_recovered_equals_reference(addr: &str, dir: &Path) {
    let got = digest_of(addr);
    let want = reference(dir);
    assert_eq!(got.version, want.version, "snapshot version diverged");
    assert_eq!(got.applied, want.applied, "applied-record count diverged");
    assert_eq!(got.users_admitted, want.users_admitted);
    assert_eq!(got.items_admitted, want.items_admitted);
    assert!(
        got.groupings.len() >= 3,
        "the registry lost groupings: {:?}",
        got.groupings
    );
    assert_eq!(
        got.groupings, want.groupings,
        "per-grouping digests diverged"
    );
    assert_eq!(got.digest, want.digest, "state digest diverged");
    // The quality ledger must survive too: every journaled feedback
    // record counts as applied on the recovered server (checkpointed
    // window observations plus replayed tail).
    let n_feedback = gf_persist::wal::scan(dir)
        .unwrap()
        .records
        .iter()
        .filter(|r| matches!(r.payload, gf_persist::WalPayload::Feedback { .. }))
        .count() as u64;
    assert!(n_feedback > 0, "harness journaled no feedback");
    assert_eq!(
        stat(addr, "feedback_applied"),
        n_feedback,
        "feedback ledger diverged across the crash"
    );
}

fn stat(addr: &str, key: &str) -> u64 {
    let (status, body) = http(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    Json::parse(&body)
        .unwrap()
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("/v1/stats missing {key}"))
}

/// Kill point 1: before any periodic checkpoint — recovery is the boot
/// checkpoint plus a full WAL-tail replay.
#[test]
fn kill_before_first_checkpoint() {
    let dir = tmpdir("early");
    let server = spawn(&dir, 3_600_000);
    let records = drive(&server.addr, &script(40), 0, 0);
    server.kill_dash_nine();

    let restarted = spawn(&dir, 3_600_000);
    assert_eq!(
        stat(&restarted.addr, "recovery_replayed"),
        records,
        "every acked record must replay"
    );
    assert_recovered_equals_reference(&restarted.addr, &dir);
    drop(restarted);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill point 2: mid-run with a rapid checkpointer racing the update
/// stream (and its admissions) — recovery is checkpoint + short tail.
#[test]
fn kill_between_checkpoints() {
    let dir = tmpdir("mid");
    let server = spawn(&dir, 25);
    // sleep_every gives the checkpointer room to land mid-stream.
    drive(&server.addr, &script(120), 0, 10);
    server.kill_dash_nine();

    let restarted = spawn(&dir, 3_600_000);
    assert_recovered_equals_reference(&restarted.addr, &dir);
    drop(restarted);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill point 3: crash, recover, keep serving, crash again immediately —
/// the second recovery stacks on the first one's boot checkpoint.
#[test]
fn kill_again_right_after_recovery() {
    let dir = tmpdir("double");
    let server = spawn(&dir, 3_600_000);
    drive(&server.addr, &script(30), 0, 0);
    server.kill_dash_nine();

    let survivor = spawn(&dir, 3_600_000);
    let second_records = drive(&survivor.addr, &script(45)[30..], 30, 0);
    survivor.kill_dash_nine();

    let restarted = spawn(&dir, 3_600_000);
    assert_eq!(
        stat(&restarted.addr, "recovery_replayed"),
        second_records,
        "only records past the survivor's boot checkpoint replay"
    );
    assert_recovered_equals_reference(&restarted.addr, &dir);
    drop(restarted);
    std::fs::remove_dir_all(&dir).unwrap();
}
