//! Socket-level keep-alive load generator: N persistent connections
//! streaming interleaved `POST /v1/rate` and `GET /v1/group/{u}` (plus paged
//! reads, `POST /v1/feedback` and `/v1/stats` reads) against a real
//! [`Server`] — the accept loop, thread-per-connection handlers and
//! background refresh worker the `gf-serve` binary runs — while
//! refreshes swap snapshots underneath.
//!
//! Asserted invariants:
//!
//! * no connection or codec errors: every response parses, with the
//!   expected status and schema;
//! * snapshot versions observed on one connection are monotone
//!   non-decreasing (each response carries the serving version);
//! * nothing is lost: after a final flush, the snapshot's applied-rating
//!   count equals the number of accepted `/rate` requests, and its
//!   feedback window's observed total the number of accepted
//!   `/v1/feedback` requests.
//!
//! The default profile is CI-sized (a few hundred requests); set
//! `GF_LOAD_SCALE=8` (any positive integer) to multiply both the
//! connection count and the per-connection request count locally.

use gf_core::{Aggregation, FormationConfig, GrowthPolicy, RatingMatrix, RatingScale, Semantics};
use gf_serve::loadgen::{fd_budget, run_sweep, SweepConfig};
use gf_serve::{Json, NetMode, NetOptions, ServeConfig, ServeState, Server, ServerHandle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

const N_USERS: u32 = 120;
const N_ITEMS: u32 = 24;

fn load_scale() -> usize {
    std::env::var("GF_LOAD_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

fn start_server_net(growth: GrowthPolicy, net: NetOptions) -> ServerHandle {
    let rows: Vec<Vec<f64>> = (0..N_USERS)
        .map(|u| {
            (0..N_ITEMS)
                .map(|i| 1.0 + ((u * 7 + i * 3 + u * i) % 5) as f64)
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let matrix = RatingMatrix::from_dense(&refs, RatingScale::one_to_five()).unwrap();
    let cfg = ServeConfig::new(
        FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 3, 8).with_growth(growth),
    )
    .with_batch_window(Duration::from_millis(1));
    let state = ServeState::new(matrix, cfg).unwrap();
    Server::bind_with("127.0.0.1:0", state, net)
        .unwrap()
        .spawn()
        .unwrap()
}

fn start_server_with(growth: GrowthPolicy) -> ServerHandle {
    // Default transport: epoll on Linux, the blocking fallback elsewhere
    // — so the main generators exercise whatever the binary would run.
    start_server_net(growth, NetOptions::default())
}

fn start_server() -> ServerHandle {
    start_server_with(GrowthPolicy::Fixed)
}

/// One persistent client connection: writes requests and reads
/// length-delimited responses off the same stream.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one keep-alive request and parses `(status, body)`.
    fn request(&mut self, method: &str, target: &str, body: &str) -> Result<(u16, Json), String> {
        let raw = format!(
            "{method} {target} HTTP/1.1\r\nhost: load\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer
            .write_all(raw.as_bytes())
            .map_err(|e| format!("write {method} {target}: {e}"))?;
        let mut status_line = String::new();
        self.reader
            .read_line(&mut status_line)
            .map_err(|e| format!("read status of {method} {target}: {e}"))?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut content_length: Option<usize> = None;
        loop {
            let mut line = String::new();
            self.reader
                .read_line(&mut line)
                .map_err(|e| format!("read headers: {e}"))?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(value) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = value.trim().parse().ok();
            }
        }
        let length = content_length.ok_or("response missing content-length")?;
        let mut payload = vec![0u8; length];
        self.reader
            .read_exact(&mut payload)
            .map_err(|e| format!("read body: {e}"))?;
        let text = String::from_utf8(payload).map_err(|e| format!("non-utf8 body: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("malformed JSON {text:?}: {e}"))?;
        Ok((status, json))
    }
}

/// What one connection observed; joined and asserted on the main thread.
struct ConnReport {
    requests: usize,
    rates_accepted: usize,
    feedback_accepted: usize,
    versions_seen: usize,
}

fn drive_connection(
    addr: std::net::SocketAddr,
    seed: u64,
    n_requests: usize,
) -> Result<ConnReport, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut last_version = 0u64;
    let mut report = ConnReport {
        requests: 0,
        rates_accepted: 0,
        feedback_accepted: 0,
        versions_seen: 0,
    };
    let mut observe_version = |body: &Json, report: &mut ConnReport| -> Result<(), String> {
        let version = body
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("response carries no version: {body}"))?;
        if version < last_version {
            return Err(format!(
                "snapshot version regressed on one connection: {last_version} -> {version}"
            ));
        }
        last_version = version;
        report.versions_seen += 1;
        Ok(())
    };
    for r in 0..n_requests {
        match r % 4 {
            // Half the stream: rating updates.
            0 | 2 => {
                let user = rng.gen_range(0..N_USERS);
                let item = rng.gen_range(0..N_ITEMS);
                let rating = rng.gen_range(1..=5);
                let body = format!(r#"{{"user":{user},"item":{item},"rating":{rating}}}"#);
                let (status, json) = client.request("POST", "/v1/rate", &body)?;
                if status != 202 {
                    return Err(format!("/v1/rate returned {status}: {json}"));
                }
                if json.get("accepted") != Some(&Json::Bool(true)) {
                    return Err(format!("/v1/rate not accepted: {json}"));
                }
                observe_version(&json, &mut report)?;
                report.rates_accepted += 1;
            }
            // Group lookups, sometimes paged.
            1 => {
                let user = rng.gen_range(0..N_USERS);
                let target = if rng.gen_bool(0.3) {
                    format!("/v1/group/{user}?limit=2&offset=1")
                } else {
                    format!("/v1/group/{user}")
                };
                let (status, json) = client.request("GET", &target, "")?;
                if status != 200 {
                    return Err(format!("{target} returned {status}: {json}"));
                }
                let total = json
                    .get("members_total")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{target}: no members_total: {json}"))?;
                let rendered = json
                    .get("members")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("{target}: no members: {json}"))?
                    .len() as u64;
                if rendered > total {
                    return Err(format!("{target}: rendered {rendered} of {total}"));
                }
                observe_version(&json, &mut report)?;
            }
            // Feedback journaling and stats reads round out the mix.
            _ => {
                if rng.gen_bool(0.5) {
                    let user = rng.gen_range(0..N_USERS);
                    let item = rng.gen_range(0..N_ITEMS);
                    let body = format!(r#"{{"user":{user},"item":{item}}}"#);
                    let (status, json) = client.request("POST", "/v1/feedback", &body)?;
                    if status != 202 {
                        return Err(format!("/v1/feedback returned {status}: {json}"));
                    }
                    observe_version(&json, &mut report)?;
                    report.feedback_accepted += 1;
                } else {
                    let (status, json) = client.request("GET", "/v1/stats", "")?;
                    if status != 200 {
                        return Err(format!("/v1/stats returned {status}: {json}"));
                    }
                    observe_version(&json, &mut report)?;
                }
            }
        }
        report.requests += 1;
    }
    Ok(report)
}

/// One admission-heavy connection: interleaves rates on existing users
/// with rates that admit users from a per-connection disjoint id range
/// (so connections never race on who admits an id first), reading
/// `/group` on both populations along the way.
fn drive_admissions(
    addr: std::net::SocketAddr,
    seed: u64,
    n_requests: usize,
    new_lo: u32,
    new_hi: u32,
) -> Result<ConnReport, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut last_version = 0u64;
    let mut admitted: Vec<u32> = Vec::new();
    let mut report = ConnReport {
        requests: 0,
        rates_accepted: 0,
        feedback_accepted: 0,
        versions_seen: 0,
    };
    for r in 0..n_requests {
        let (target_user, item): (u32, u32) = match r % 3 {
            // A third of the stream admits (or re-rates) a user from this
            // connection's own never-seen range, sometimes on a
            // never-seen item.
            0 => {
                let user = rng.gen_range(new_lo..new_hi);
                admitted.push(user);
                let item = if rng.gen_bool(0.5) {
                    N_ITEMS + rng.gen_range(0..8)
                } else {
                    rng.gen_range(0..N_ITEMS)
                };
                (user, item)
            }
            1 => (rng.gen_range(0..N_USERS), rng.gen_range(0..N_ITEMS)),
            // Read back someone this connection already admitted (or an
            // original user while nothing is admitted yet).
            _ => {
                let user = admitted
                    .get(rng.gen_range(0..admitted.len().max(1)))
                    .copied()
                    .unwrap_or_else(|| rng.gen_range(0..N_USERS));
                let (status, json) = client.request("GET", &format!("/v1/group/{user}"), "")?;
                // An admitted user may still be journal-pending: 404 until
                // the background pass lands, 200 with membership after.
                if status == 200 {
                    let version = json
                        .get("version")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("no version: {json}"))?;
                    if version < last_version {
                        return Err(format!("version regressed: {last_version} -> {version}"));
                    }
                    last_version = version;
                } else if status != 404 {
                    return Err(format!("/v1/group/{user} returned {status}: {json}"));
                }
                report.versions_seen += 1;
                report.requests += 1;
                continue;
            }
        };
        let rating = rng.gen_range(1..=5);
        let body = format!(r#"{{"user":{target_user},"item":{item},"rating":{rating}}}"#);
        let (status, json) = client.request("POST", "/v1/rate", &body)?;
        if status != 202 {
            return Err(format!("/v1/rate {body} returned {status}: {json}"));
        }
        let version = json
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("no version: {json}"))?;
        if version < last_version {
            return Err(format!("version regressed: {last_version} -> {version}"));
        }
        last_version = version;
        report.versions_seen += 1;
        report.rates_accepted += 1;
        report.requests += 1;
    }
    Ok(report)
}

/// Growth under load: admissions interleaved with ordinary rates across
/// persistent connections — zero lost updates, per-connection monotone
/// versions, and every admitted user served from the final snapshot.
#[test]
fn admission_load_generator() {
    let scale = load_scale();
    let n_connections = 6 * scale;
    let n_requests = 30 * scale;
    let per_conn_ids = 16u32;
    let server = start_server_with(GrowthPolicy::unbounded());
    let addr = server.addr();

    let workers: Vec<_> = (0..n_connections)
        .map(|c| {
            let lo = N_USERS + c as u32 * per_conn_ids;
            let hi = lo + per_conn_ids;
            std::thread::spawn(move || {
                drive_admissions(addr, 0xAD417 + c as u64, n_requests, lo, hi)
            })
        })
        .collect();
    let mut total_rates = 0usize;
    for (c, worker) in workers.into_iter().enumerate() {
        let report = worker
            .join()
            .expect("connection thread panicked")
            .unwrap_or_else(|e| panic!("connection {c}: {e}"));
        assert_eq!(report.requests, n_requests, "connection {c} fell short");
        total_rates += report.rates_accepted;
    }

    server.state().flush().unwrap();
    let stats = &server.state().stats;
    assert_eq!(
        stats.rates_accepted.load(Ordering::Relaxed),
        total_rates as u64
    );
    assert_eq!(server.state().pending_len(), 0);
    let snap = server.state().snapshot();
    assert_eq!(snap.progress.applied, total_rates as u64);
    assert!(snap.matrix.n_users() > N_USERS, "no admission ever landed");
    assert_eq!(
        snap.progress.users_admitted,
        u64::from(snap.matrix.n_users() - N_USERS)
    );
    assert_eq!(
        snap.progress.items_admitted,
        u64::from(snap.matrix.n_items() - N_ITEMS)
    );
    // Every user — original or admitted — resolves from the final
    // snapshot, and the grouping is internally consistent.
    snap.default_grouping()
        .formation
        .grouping
        .validate(snap.matrix.n_users(), 8)
        .unwrap();
    assert!((0..snap.matrix.n_users()).all(|u| snap.default_grouping().group_of(u).is_some()));
    server.stop();
}

#[test]
fn keep_alive_load_generator() {
    let scale = load_scale();
    let n_connections = 8 * scale;
    let n_requests = 40 * scale;
    let server = start_server();
    let addr = server.addr();

    let workers: Vec<_> = (0..n_connections)
        .map(|c| std::thread::spawn(move || drive_connection(addr, 0x10AD + c as u64, n_requests)))
        .collect();
    let mut total_requests = 0usize;
    let mut total_rates = 0usize;
    let mut total_feedback = 0usize;
    for (c, worker) in workers.into_iter().enumerate() {
        let report = worker
            .join()
            .expect("connection thread panicked")
            .unwrap_or_else(|e| panic!("connection {c}: {e}"));
        assert_eq!(report.requests, n_requests, "connection {c} fell short");
        assert_eq!(
            report.versions_seen, n_requests,
            "connection {c} saw versionless responses"
        );
        total_requests += report.requests;
        total_rates += report.rates_accepted;
        total_feedback += report.feedback_accepted;
    }
    assert_eq!(total_requests, n_connections * n_requests);

    // Nothing lost: drain the journal and reconcile the counters.
    server.state().flush().unwrap();
    let stats = &server.state().stats;
    assert_eq!(
        stats.rates_accepted.load(Ordering::Relaxed),
        total_rates as u64
    );
    assert_eq!(
        server.state().snapshot().progress.applied,
        total_rates as u64
    );
    assert!(total_feedback > 0, "the mix never exercised /v1/feedback");
    assert_eq!(
        stats.feedback_accepted.load(Ordering::Relaxed),
        total_feedback as u64
    );
    assert_eq!(
        server.state().snapshot().feedback.observed_total(),
        total_feedback as u64
    );
    assert_eq!(server.state().pending_len(), 0);
    // The refresh worker really ran while the load was in flight, and the
    // post-load snapshot is internally consistent.
    assert!(stats.refresh_passes.load(Ordering::Relaxed) >= 1);
    let snap = server.state().snapshot();
    assert!(snap.version > 1);
    snap.default_grouping()
        .formation
        .grouping
        .validate(N_USERS, 8)
        .unwrap();
    server.stop();
}

/// The same mixed keep-alive workload over the blocking fallback
/// transport (the default tests above cover epoll on Linux): both
/// transports must uphold the zero-lost-updates and monotone-version
/// invariants, not just the default one.
#[test]
fn keep_alive_load_generator_blocking_transport() {
    let n_connections = 4;
    let n_requests = 24;
    let server = start_server_net(
        GrowthPolicy::Fixed,
        NetOptions {
            mode: NetMode::Blocking,
            ..NetOptions::default()
        },
    );
    let addr = server.addr();
    let workers: Vec<_> = (0..n_connections)
        .map(|c| std::thread::spawn(move || drive_connection(addr, 0xB10C + c as u64, n_requests)))
        .collect();
    let mut total_rates = 0usize;
    for (c, worker) in workers.into_iter().enumerate() {
        let report = worker
            .join()
            .expect("connection thread panicked")
            .unwrap_or_else(|e| panic!("connection {c}: {e}"));
        assert_eq!(report.requests, n_requests, "connection {c} fell short");
        total_rates += report.rates_accepted;
    }
    server.state().flush().unwrap();
    let stats = &server.state().stats;
    assert_eq!(
        stats.rates_accepted.load(Ordering::Relaxed),
        total_rates as u64
    );
    assert_eq!(
        server.state().snapshot().progress.applied,
        total_rates as u64
    );
    assert!(stats.conns_accepted.load(Ordering::Relaxed) >= n_connections as u64);
    server.stop();
}

/// CI-sized connection sweep against the in-process server: 100
/// persistent keep-alive connections (clamped to the fd budget) of
/// interleaved `/v1/rate` + `/v1/group` + `/v1/stats`, asserting zero
/// unexpected statuses, per-connection monotone versions (checked
/// inside the harness) and zero lost updates afterwards.
#[test]
fn connection_sweep_in_process() {
    let server = start_server();
    let cfg = SweepConfig {
        connections: 100.min(fd_budget().saturating_sub(64).max(8)),
        requests_per_conn: 4 * load_scale(),
        threads: 0,
        users: N_USERS,
        items: N_ITEMS,
    };
    let report = run_sweep(server.addr(), &cfg).unwrap_or_else(|e| panic!("sweep failed: {e}"));
    println!("sweep[in-process]: {}", report.summary());
    assert_eq!(
        report.errors,
        0,
        "unexpected statuses: {}",
        report.summary()
    );
    assert_eq!(
        report.requests,
        (cfg.connections * cfg.requests_per_conn) as u64
    );
    assert!(report.max_version >= 1, "no response carried a version");
    server.state().flush().unwrap();
    let stats = &server.state().stats;
    assert_eq!(
        stats.rates_accepted.load(Ordering::Relaxed),
        report.rates_accepted,
        "accepted-rate ledgers disagree"
    );
    assert_eq!(
        server.state().snapshot().progress.applied,
        report.rates_accepted,
        "a rate was acknowledged but never applied"
    );
    server.stop();
}

/// The full 100 → 1k → 10k persistent-connection sweep against a real
/// `gf-serve` process (two processes, so neither side's fd table caps
/// the other). Heavy — gated on `GF_SWEEP_10K=1`; the quick-bench CI
/// job and the EXPERIMENTS.md table run it via
/// `GF_SWEEP_10K=1 cargo test --release -p gf-serve --test load connection_sweep_10k -- --nocapture --ignored`.
#[test]
#[ignore = "10k-connection sweep; set GF_SWEEP_10K=1 and run with --ignored"]
fn connection_sweep_10k() {
    if std::env::var("GF_SWEEP_10K").is_err() {
        eprintln!("connection_sweep_10k: GF_SWEEP_10K not set, skipping");
        return;
    }
    let users = 500u32;
    let items = 60u32;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_gf-serve"))
        .args([
            "--addr",
            "127.0.0.1",
            "--port",
            "0",
            "--synth",
            &format!("{users}x{items}"),
            "--batch-window-ms",
            "1",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn gf-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let addr: std::net::SocketAddr = {
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap();
            assert!(n > 0, "gf-serve exited before printing the listening line");
            if let Some(rest) = line.split("listening on http://").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("address after http://")
                    .parse()
                    .expect("parseable listen address");
            }
        }
    };
    let budget = fd_budget().saturating_sub(256);
    let mut total_rates = 0u64;
    for &(conns, reqs) in &[(100usize, 20usize), (1_000, 10), (10_000, 3)] {
        let conns = conns.min(budget);
        let report = run_sweep(
            addr,
            &SweepConfig {
                connections: conns,
                requests_per_conn: reqs,
                threads: 0,
                users,
                items,
            },
        )
        .unwrap_or_else(|e| panic!("sweep at {conns} connections failed: {e}"));
        println!("sweep[10k]: {}", report.summary());
        assert_eq!(report.errors, 0, "bad statuses at {conns} connections");
        assert_eq!(report.requests, (conns * reqs) as u64);
        total_rates += report.rates_accepted;
    }
    // Zero lost updates across the process boundary: poll /v1/stats until
    // the background refresh has applied every acknowledged rate.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let scan = |body: &str, key: &str| -> u64 {
        body.split_once(&format!("\"{key}\":"))
            .and_then(|(_, rest)| {
                rest.chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .ok()
            })
            .unwrap_or(u64::MAX)
    };
    loop {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /v1/stats HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let accepted = scan(&raw, "rates_accepted");
        let applied = scan(&raw, "rates_applied");
        if accepted == total_rates && applied == total_rates {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "ledger never reconciled: accepted={accepted} applied={applied} sent={total_rates}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    let _ = child.kill();
    let _ = child.wait();
}
