//! The server workloads: boot `gf-serve` as its own process, drive it
//! over two keep-alive loopback connections (open loop, then closed
//! loop), scrape its counters around each phase and check its outputs.

use crate::client::{self, ConnLog, Reply, Req, Route};
use crate::summary::Summary;
use crate::{fail, peak_rss_mb, proc_field, Args, Gates, Outcome, Rng};
use gf_core::{Aggregation, FormationConfig, GrowthPolicy, RatingScale, RefreshMode, Semantics};
use gf_serve::{Json, ServeConfig, ServeState};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One server workload's parameters.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Synthetic corpus users.
    pub users: u32,
    /// Synthetic corpus items.
    pub items: u32,
    /// Named groupings beside `default` (LM-Min): `(name, semantics)`.
    pub groupings: &'static [(&'static str, &'static str)],
    /// Boot with `--data-dir` and `--wal-sync interval` (`WAL_SYNC_MS`).
    pub durable: bool,
    /// Open-loop request rate (requests/s over both connections).
    pub rate: f64,
    /// Shares of group, recommend, rate and feedback requests.
    pub mix: [f64; 4],
    /// Write every (user, item) cell at most once.
    pub distinct_cells: bool,
    /// Boots measured for `setup_s` in each of three rounds, each pinned
    /// to one CPU; another, unpinned, serves the run.
    pub boots: usize,
    /// Checkpoint interval of a durable server.
    pub checkpoint_ms: u64,
    /// Requests each connection keeps outstanding in the closed loop.
    pub depth: usize,
    /// Environment of every `gf-serve` process.
    pub env: &'static [(&'static str, &'static str)],
}

/// Closed-loop throughput is counted in bins of this many seconds.
const BIN_SECS: f64 = 0.25;

/// WAL fsync interval of a durable server, ms. Writes are journaled
/// before their 202; at most one per interval also waits for the fsync.
/// (`--wal-sync always` puts the host disk's fsync latency, which moved
/// the write median by 70% under a neighbour's I/O, in every write.)
pub const WAL_SYNC_MS: u64 = 50;

/// Group budget and list length of every grouping.
const ELL: usize = 10;
const K: usize = 5;

impl Spec {
    /// The parameters of a named server workload.
    pub fn named(name: &str) -> Spec {
        match name {
            "read_serving" => Spec {
                name: "read_serving",
                users: 50_000,
                items: 5_000,
                groupings: &[],
                durable: false,
                rate: 4_000.0,
                // ~5 writes/s at 4k req/s.
                mix: [0.7, 0.29875, 0.00125, 0.0],
                distinct_cells: false,
                boots: 2,
                checkpoint_ms: 0,
                depth: 8,
                // glibc's mmap threshold fixed at 1 MiB rather than
                // sliding: the peak then measures live data, not where
                // the threshold settled (150-203 MB over five seeds
                // sliding, 121-125 MB fixed). Not on refresh_churn, where
                // it costs each pass thousands of page faults.
                env: &[("MALLOC_MMAP_THRESHOLD_", "1048576")],
            },
            "ingest_durable" => Spec {
                name: "ingest_durable",
                users: 2_000,
                items: 200,
                groupings: &[],
                durable: true,
                rate: 500.0,
                mix: [0.2, 0.0, 0.7, 0.1],
                distinct_cells: false,
                boots: 3,
                checkpoint_ms: 2_000,
                depth: 8,
                env: &[],
            },
            "refresh_churn" => Spec {
                name: "refresh_churn",
                users: 50_000,
                items: 5_000,
                groupings: &[("av", "av"), ("cons", "cons")],
                durable: false,
                rate: 1_000.0,
                mix: [0.4, 0.4, 0.2, 0.0],
                distinct_cells: true,
                boots: 2,
                checkpoint_ms: 0,
                depth: 8,
                env: &[],
            },
            other => fail(format!("no server workload {other:?}")),
        }
    }

    /// Every grouping name, `default` first.
    pub fn grouping_names(&self) -> Vec<&'static str> {
        std::iter::once("default")
            .chain(self.groupings.iter().map(|(n, _)| *n))
            .collect()
    }

    /// The in-process twin of the server's configuration.
    pub fn serve_config(&self, n_users: u32) -> ServeConfig {
        let base = FormationConfig::new(
            Semantics::LeastMisery,
            Aggregation::Min,
            K,
            ELL.min(n_users as usize).max(1),
        )
        .with_threads(0)
        .with_refresh(RefreshMode::Auto)
        .with_growth(GrowthPolicy::Fixed);
        let mut cfg = ServeConfig::new(base)
            .with_batch_window(Duration::from_millis(5))
            .with_feedback_window(1024);
        for (name, sem) in self.groupings {
            let semantics = gf_serve::parse_semantics(sem).expect("workload semantics parse");
            cfg = cfg.with_grouping(*name, FormationConfig { semantics, ..base });
        }
        cfg
    }

    fn server_args(&self, corpus: &Path, data_dir: Option<&Path>) -> Vec<String> {
        let mut args: Vec<String> = [
            "--addr",
            "127.0.0.1",
            "--port",
            "0",
            "--scale",
            "half",
            "--k",
            "5",
            "--ell",
            "10",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        args.extend(["--data".into(), corpus.display().to_string()]);
        for (name, sem) in self.groupings {
            let lambda = if *sem == "cons" { ",lambda=0.5" } else { "" };
            args.extend([
                "--grouping".into(),
                format!("{name}:semantics={sem}{lambda}"),
            ]);
        }
        if let Some(dir) = data_dir {
            args.extend([
                "--data-dir".into(),
                dir.display().to_string(),
                "--wal-sync".into(),
                "interval".into(),
                "--wal-sync-interval-ms".into(),
                WAL_SYNC_MS.to_string(),
                "--checkpoint-interval-ms".into(),
                self.checkpoint_ms.to_string(),
            ]);
        }
        args
    }
}

/// A running `gf-serve` process; dropping it kills and reaps it.
pub struct Proc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// Listening address.
    pub addr: SocketAddr,
    /// Process id, for `/proc`.
    pub pid: String,
}

impl Proc {
    /// Spawns the server and waits for its `listening` line. Returns the
    /// process and the seconds from spawn to that line. `Some(nth)` runs
    /// the server on the `nth` CPU (see `crate::pin`).
    // The child is reaped by `Proc`'s `Drop`, or before `fail` exits.
    #[allow(clippy::zombie_processes)]
    pub fn boot(spec: &Spec, bin: &Path, args: &[String], pin: Option<usize>) -> (Proc, f64) {
        let spawn = || {
            let started = Instant::now();
            let child = Command::new(bin)
                .args(args)
                .envs(spec.env.iter().copied())
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| fail(format!("spawn {}: {e}", bin.display())));
            (child, started)
        };
        let (mut child, started) = match pin {
            Some(nth) => crate::pin::pinned(nth, spawn),
            None => spawn(),
        };
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                fail("gf-serve exited before listening");
            }
            if let Some(rest) = line.strip_prefix("gf-serve: listening on http://") {
                let secs = started.elapsed().as_secs_f64();
                let addr = rest
                    .split_whitespace()
                    .next()
                    .and_then(|a| a.parse().ok())
                    .unwrap_or_else(|| fail(format!("bad listening line {line:?}")));
                let pid = child.id().to_string();
                return (
                    Proc {
                        child,
                        _stdout: stdout,
                        addr,
                        pid,
                    },
                    secs,
                );
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One `GET` on a fresh connection: `(status, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let attempt = || -> std::io::Result<(u16, String)> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        write!(
            s,
            "GET {path} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n"
        )?;
        let mut raw = String::new();
        s.read_to_string(&mut raw)?;
        let status = raw
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        let body = raw
            .split_once("\r\n\r\n")
            .map_or("", |(_, b)| b)
            .to_string();
        Ok((status, body))
    };
    attempt().unwrap_or_else(|e| fail(format!("GET {path}: {e}")))
}

fn get_json(addr: SocketAddr, path: &str) -> Json {
    let (status, body) = http_get(addr, path);
    if status != 200 {
        fail(format!("GET {path}: status {status}: {body}"));
    }
    Json::parse(&body).unwrap_or_else(|e| fail(format!("GET {path}: {e}")))
}

/// Counters read from outside the server at one instant.
pub struct Scrape {
    stats: Json,
    /// `VmHWM`, MB.
    pub hwm_mb: f64,
    /// `/proc/<pid>/io` `write_bytes`.
    pub write_bytes: f64,
}

impl Scrape {
    fn take(p: &Proc) -> Scrape {
        Scrape {
            stats: get_json(p.addr, "/v1/stats"),
            hwm_mb: peak_rss_mb(&p.pid),
            write_bytes: proc_field(&format!("/proc/{}/io", p.pid), "write_bytes:").unwrap_or(0.0),
        }
    }

    /// A top-level `/v1/stats` counter.
    pub fn stat(&self, key: &str) -> u64 {
        self.stats.get(key).and_then(Json::as_u64).unwrap_or(0)
    }

    fn accepted(&self) -> u64 {
        self.stat("rates_accepted") + self.stat("feedback_accepted")
    }

    fn applied(&self) -> u64 {
        self.stat("rates_applied") + self.stat("feedback_applied")
    }
}

/// Counter deltas between two scrapes.
pub struct Delta<'a>(pub &'a Scrape, pub &'a Scrape);

impl Delta<'_> {
    /// `after - before` of one counter.
    pub fn of(&self, key: &str) -> u64 {
        self.1.stat(key).saturating_sub(self.0.stat(key))
    }
}

/// The serving shape read back after boot.
pub struct Shape {
    /// Users in the served matrix.
    pub n_users: u32,
    /// Items in the served matrix.
    pub n_items: u32,
    /// `(grouping path prefix, groups)`; the default grouping's prefix is empty.
    pub groupings: Vec<(String, u64)>,
}

impl Shape {
    fn read(addr: SocketAddr, spec: &Spec) -> Shape {
        let stats = get_json(addr, "/v1/stats");
        let groups = |name: &str| {
            stats
                .get("groupings")
                .and_then(|g| g.get(name))
                .and_then(|g| g.get("groups"))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| fail(format!("grouping {name:?} missing from /v1/stats")))
        };
        Shape {
            n_users: stats.get("n_users").and_then(Json::as_u64).unwrap_or(0) as u32,
            n_items: stats.get("n_items").and_then(Json::as_u64).unwrap_or(0) as u32,
            groupings: spec
                .grouping_names()
                .into_iter()
                .map(|n| {
                    let prefix = if n == "default" {
                        String::new()
                    } else {
                        format!("{n}/")
                    };
                    (prefix, groups(n))
                })
                .collect(),
        }
    }
}

/// Generates requests from the seed: routes by the workload's mix,
/// uniform users, groups and items, whole-star ratings.
pub struct Traffic<'a> {
    spec: &'a Spec,
    shape: &'a Shape,
    /// `(a, b)` of the cell permutation `idx -> (a*idx + b) mod cells`.
    perm: (u128, u128),
}

impl<'a> Traffic<'a> {
    /// The traffic of `spec` over `shape` for `seed`.
    pub fn new(spec: &'a Spec, shape: &'a Shape, seed: u64) -> Self {
        let cells = u128::from(shape.n_users) * u128::from(shape.n_items);
        let mut rng = Rng::new(seed, 7);
        // Any multiplier coprime to the cell count is a bijection.
        let mut a = u128::from(rng.next_u64()) % cells;
        while gcd(a, cells) != 1 {
            a = (a + 1) % cells;
        }
        let b = u128::from(rng.next_u64()) % cells;
        Traffic {
            spec,
            shape,
            perm: (a, b),
        }
    }

    /// The `idx`-th distinct cell.
    fn cell(&self, idx: u64) -> (u32, u32) {
        let cells = u128::from(self.shape.n_users) * u128::from(self.shape.n_items);
        let c = (self.perm.0 * u128::from(idx) + self.perm.1) % cells;
        (
            (c / u128::from(self.shape.n_items)) as u32,
            (c % u128::from(self.shape.n_items)) as u32,
        )
    }

    /// The `i`-th request of a stream. Its route comes from the Weyl
    /// sequence `frac(i / φ)`, so every route gets its exact share, evenly
    /// spaced; users, groups, items and ratings come from `rng`.
    /// Distinct-cell writes take the next index from `cells`.
    pub fn request(&self, i: u64, rng: &mut Rng, cells: &mut impl Iterator<Item = u64>) -> Req {
        let x = (i as f64 * 0.618_033_988_749_894_9).fract();
        let m = self.spec.mix;
        let (prefix, groups) =
            &self.shape.groupings[rng.below(self.shape.groupings.len() as u64) as usize];
        if x < m[0] {
            let user = rng.below(u64::from(self.shape.n_users));
            return Req::get(Route::Group, format!("/v1/group/{prefix}{user}"));
        }
        if x < m[0] + m[1] {
            let group = rng.below(*groups);
            return Req::get(Route::Recommend, format!("/v1/recommend/{prefix}{group}"));
        }
        let (user, item) = if self.spec.distinct_cells {
            self.cell(cells.next().expect("unbounded cell indices"))
        } else {
            (
                rng.below(u64::from(self.shape.n_users)) as u32,
                rng.below(u64::from(self.shape.n_items)) as u32,
            )
        };
        if x < m[0] + m[1] + m[2] {
            let rating = (1 + rng.below(5)) as f64;
            Req::post(
                Route::Rate,
                "/v1/rate",
                format!("{{\"user\":{user},\"item\":{item},\"rating\":{rating}}}"),
                Some((user, item, rating)),
            )
        } else {
            Req::post(
                Route::Feedback,
                "/v1/feedback",
                format!("{{\"user\":{user},\"item\":{item}}}"),
                Some((user, item, 0.0)),
            )
        }
    }

    /// The open-loop schedule: `(due µs after the start, connection, request)`.
    pub fn open_plan(&self, seed: u64, secs: f64) -> Vec<(f64, usize, Req)> {
        let mut rng = Rng::new(seed, 11);
        let mut cells = 0u64..;
        let n = (self.spec.rate * secs).round() as usize;
        (0..n)
            .map(|i| {
                let due = i as f64 * 1e6 / self.spec.rate;
                (due, i % 2, self.request(i as u64, &mut rng, &mut cells))
            })
            .collect()
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Writes the seed's corpus as a TSV the server loads; returns its path
/// and the generation time in ms.
pub fn write_corpus(spec: &Spec, seed: u64, dir: &Path) -> (PathBuf, f64) {
    let started = Instant::now();
    let data = gf_datasets::SynthConfig::yahoo_music()
        .with_users(spec.users)
        .with_items(spec.items)
        .with_seed(seed)
        .generate();
    let corpus_ms = started.elapsed().as_secs_f64() * 1e3;
    let path = dir.join("corpus.tsv");
    let file = std::fs::File::create(&path).unwrap_or_else(|e| fail(format!("corpus: {e}")));
    gf_datasets::io::write_tsv(&data.matrix, file).unwrap_or_else(|e| fail(format!("corpus: {e}")));
    (path, corpus_ms)
}

/// Loads the corpus exactly as the server does.
pub fn load_corpus(path: &Path) -> gf_core::RatingMatrix {
    let file = std::fs::File::open(path).unwrap_or_else(|e| fail(format!("corpus: {e}")));
    gf_datasets::io::read_tsv(BufReader::new(file), RatingScale::half_star())
        .unwrap_or_else(|e| fail(format!("corpus: {e}")))
        .matrix
}

/// Everything the untraced run measured that a traced run reuses.
pub struct Untraced {
    /// The open-loop schedule.
    pub plan: Vec<(f64, usize, Req)>,
    /// Open-loop read latencies, µs.
    pub reads: Vec<f64>,
    /// Journal records applied per refresh pass, and the pass count.
    pub records_per_pass: (f64, u64),
    /// Counters for the per-layer report.
    pub counts: Vec<(&'static str, f64)>,
    /// Requests the open loop sent.
    pub open_sent: usize,
}

/// Waits until the journal is empty and everything accepted is applied.
fn drain(p: &Proc, before: &Scrape) -> Scrape {
    let started = Instant::now();
    loop {
        let now = Scrape::take(p);
        let accepted = now.accepted() - before.accepted();
        let applied = now.applied() - before.applied();
        if now.stat("pending") == 0 && applied >= accepted {
            return now;
        }
        if started.elapsed() > Duration::from_secs(60) {
            println!("drain: timed out with {} pending", now.stat("pending"));
            return now;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Freshness of each open-loop write, ms: from its 202 until the first
/// response on any connection whose version reaches `version + pending`.
fn freshness(open: &[&Reply], all: &[Vec<&Reply>]) -> (Vec<f64>, usize) {
    let mut out = Vec::new();
    let mut unresolved = 0;
    for w in open {
        if w.route.is_read() || !w.ok() {
            continue;
        }
        let (Some(v), Some(p)) = (w.version, w.pending) else {
            unresolved += 1;
            continue;
        };
        let target = v + p;
        let seen = all
            .iter()
            .filter_map(|replies| {
                let from = replies.partition_point(|r| r.recv < w.recv);
                replies[from..]
                    .iter()
                    .find(|r| r.version.is_some_and(|rv| rv >= target))
                    .map(|r| r.recv)
            })
            .min_by(f64::total_cmp);
        match seen {
            Some(t) => out.push((t - w.recv) / 1e3),
            None => unresolved += 1,
        }
    }
    (out, unresolved)
}

fn digest_of(addr: SocketAddr) -> String {
    let body = get_json(addr, "/v1/digest");
    body.get("digest")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail("/v1/digest has no digest"))
        .to_string()
}

/// Runs one server workload.
pub fn run(spec: &Spec, args: &Args, bin: &Path) -> Outcome {
    let dir = crate::work_dir(spec.name, args.seed);
    let (corpus, corpus_ms) = write_corpus(spec, args.seed, &dir);
    crate::stage("corpus written");
    println!(
        "corpus: {}x{} generated in {corpus_ms:.1} ms",
        spec.users, spec.items
    );

    // Set-up: `spec.boots` boots before the open loop, between the loops
    // and after the drain, each on one CPU (CPUs in turn) and into a
    // fresh data directory. The median spans the run, so a slow stretch
    // of the host moves some boots, not all. The server the run drives
    // boots on every CPU.
    let mut boot_secs = Vec::new();
    let boot_round = |secs: &mut Vec<f64>| {
        for _ in 0..spec.boots {
            let b = secs.len();
            let data = spec.durable.then(|| dir.join(format!("data-{b}")));
            let args = spec.server_args(&corpus, data.as_deref());
            secs.push(Proc::boot(spec, bin, &args, Some(b)).1);
            if let Some(d) = data {
                let _ = std::fs::remove_dir_all(d);
            }
        }
    };
    boot_round(&mut boot_secs);
    let serving_dir = spec.durable.then(|| dir.join("data-serving"));
    let (server, serving_secs) = Proc::boot(
        spec,
        bin,
        &spec.server_args(&corpus, serving_dir.as_deref()),
        None,
    );
    crate::stage("booted");
    let shape = Shape::read(server.addr, spec);
    let traffic = Traffic::new(spec, &shape, args.seed);

    let open_secs = args.seconds * 0.6;
    let closed_secs = args.seconds - open_secs;
    let plan = traffic.open_plan(args.seed, open_secs);
    let first_closed_cell = plan.iter().filter(|(_, _, r)| r.write.is_some()).count() as u64;

    let connect = || {
        let s = TcpStream::connect(server.addr).unwrap_or_else(|e| fail(format!("connect: {e}")));
        s.set_nodelay(true).expect("nodelay");
        s
    };
    let conns = [connect(), connect()];
    let origin = Instant::now();
    let s0 = Scrape::take(&server);
    let start = origin.elapsed().as_secs_f64() * 1e6 + 20_000.0;
    let timed: Vec<(f64, usize, &Req)> = plan
        .iter()
        .map(|(due, c, r)| (start + due, *c, r))
        .collect();
    let open = client::run_open(&conns, origin, &timed, start + open_secs * 1e6 + 5e6);
    let s1 = Scrape::take(&server);
    crate::stage("open loop done");
    boot_round(&mut boot_secs);
    let c0 = origin.elapsed().as_secs_f64() * 1e6 + 10_000.0;
    let window = (c0, c0 + closed_secs * 1e6);
    let mut rngs = [Rng::new(args.seed, 100), Rng::new(args.seed, 101)];
    let mut counts = [0u64; 2];
    let mut cells = [
        (first_closed_cell..).step_by(2),
        (first_closed_cell + 1..).step_by(2),
    ];
    let closed = client::run_closed(
        &conns,
        origin,
        (window.0, window.1, window.1 + 5e6),
        spec.depth,
        |c| loop {
            counts[c] += 1;
            let req = traffic.request(counts[c] * 2 + c as u64, &mut rngs[c], &mut cells[c]);
            // read_serving's writes are a timed trickle: the open loop's.
            if spec.name != "read_serving" || req.route.is_read() {
                return req;
            }
        },
    );
    let s2 = Scrape::take(&server);
    drop(conns);
    let s3 = drain(&server, &s0);
    crate::stage("closed loop done and drained");
    // Peak memory under the scheduled traffic. The closed loop floods the
    // journal as fast as the host lets the server run, so the peak after
    // it follows the host's speed (56-67 MB over five seeds on
    // ingest_durable, against 26-30 MB after the open loop).
    let peak_mb = s1.hwm_mb;
    boot_round(&mut boot_secs);
    let setup = Summary::of(&boot_secs).expect("boots");
    println!(
        "{} (three rounds, each boot on one CPU); the serving boot on every CPU took {serving_secs:.4} s",
        setup.line("setup_s", "s")
    );

    // Latencies and failures.
    // Open-loop replies in due order, so windows follow the schedule.
    let mut by_due: Vec<&Reply> = open.iter().flat_map(|l| &l.replies).collect();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let lat = |route: fn(Route) -> bool| -> Vec<f64> {
        by_due
            .iter()
            .filter(|r| route(r.route) && r.ok())
            .map(|r| r.latency())
            .collect()
    };
    let reads = lat(Route::is_read);
    let writes = lat(|r| !r.is_read());
    let all: Vec<Vec<&Reply>> = open
        .iter()
        .zip(&closed)
        .map(|(o, c)| o.replies.iter().chain(&c.replies).collect())
        .collect();
    let (fresh, unresolved) = freshness(&by_due, &all);
    // Throughput: the median over 250 ms bins of the closed loop, so a
    // short stall of the machine moves one bin, not the figure.
    let bins = (closed_secs / BIN_SECS).floor().max(1.0) as usize;
    let mut per_bin = vec![0usize; bins];
    for r in closed.iter().flat_map(|l| &l.replies).filter(|r| r.ok()) {
        let bin = ((r.recv - window.0) / (BIN_SECS * 1e6)).floor();
        if bin >= 0.0 && (bin as usize) < bins {
            per_bin[bin as usize] += 1;
        }
    }
    let completed: usize = per_bin.iter().sum();
    let rates: Vec<f64> = per_bin.iter().map(|&n| n as f64 / BIN_SECS).collect();
    let throughput = crate::summary::median(&rates);
    let logs: Vec<&ConnLog> = open.iter().chain(&closed).collect();
    let sent: usize = logs.iter().map(|l| l.sent).sum();
    let failed: usize = logs
        .iter()
        .map(|l| l.unanswered + l.replies.iter().filter(|r| !r.ok()).count())
        .sum();
    for l in &logs {
        if let Some(e) = &l.error {
            println!("transport error: {e}");
        }
    }
    let late: Vec<f64> = open.iter().flat_map(|l| l.late.iter().copied()).collect();
    let late_s = Summary::of(&late).expect("open loop sent requests");
    let acked: Vec<(u32, u32, f64, Route)> = logs
        .iter()
        .flat_map(|l| &l.replies)
        .filter(|r| !r.route.is_read() && r.ok())
        .map(|r| {
            let (u, i, s) = r.write.expect("writes carry their cell");
            (u, i, s, r.route)
        })
        .collect();
    let pending_max = logs
        .iter()
        .flat_map(|l| &l.replies)
        .filter_map(|r| r.pending)
        .max()
        .unwrap_or(0);

    println!("open loop: {} requests due at {}/s over {open_secs:.2} s; closed loop: depth {} x 2 connections over {closed_secs:.2} s", plan.len(), spec.rate, spec.depth);
    for (name, unit, xs, scale) in [
        ("read_us", "us", &reads, 1.0),
        ("write_us", "us", &writes, 1.0),
        ("freshness_ms", "ms", &fresh, 1.0),
    ] {
        match Summary::of(xs) {
            Some(s) => {
                let s = Summary {
                    p50: s.p50 * scale,
                    tail: s.tail * scale,
                    max: s.max * scale,
                    ..s
                };
                println!("{}", s.line(name, unit));
            }
            None => println!("{name}: no samples"),
        }
    }
    if unresolved > 0 {
        println!("freshness: {unresolved} writes never seen visible in the run's responses");
    }
    println!("throughput_rps: {throughput:.1} 1/s (median of {bins} bins of {BIN_SECS} s; n={completed} completed)");
    println!(
        "failed_ratio: {:.6} ({failed} failed of {sent} attempted)",
        failed as f64 / sent.max(1) as f64
    );
    println!(
        "peak_rss_mb: {peak_mb:.1} MB (VmHWM of gf-serve after the open loop; {:.1} MB after the drain)",
        s3.hwm_mb
    );
    println!("{}", late_s.line("gen.late_us", "us"));

    // Counters per phase, and the ratios derived from them.
    println!("stats boot: VmHWM={:.1}MB", s0.hwm_mb);
    for (phase, a, b) in [
        ("open", &s0, &s1),
        ("closed", &s1, &s2),
        ("drain", &s2, &s3),
    ] {
        let d = Delta(a, b);
        println!(
            "stats {phase}: refresh_passes={} incremental={} cold={} rates_applied={} feedback_applied={} wal_records={} checkpoints={} conns_accepted={} write_bytes={} VmHWM={:.1}MB",
            d.of("refresh_passes"),
            d.of("refresh_incremental"),
            d.of("refresh_cold"),
            d.of("rates_applied"),
            d.of("feedback_applied"),
            d.of("wal_records"),
            d.of("checkpoints_written"),
            d.of("conns_accepted"),
            b.write_bytes - a.write_bytes,
            b.hwm_mb
        );
    }
    let run_d = Delta(&s0, &s3);
    // Passes and records of the open loop, the phase a traced run replays.
    let open_d = Delta(&s0, &s1);
    let passes = open_d.of("refresh_passes");
    let records = open_d.of("rates_applied") + open_d.of("feedback_applied");
    let rpp = records as f64 / passes.max(1) as f64;
    let (inc, cold) = (run_d.of("refresh_incremental"), run_d.of("refresh_cold"));
    let inc_share = inc as f64 / (inc + cold).max(1) as f64;
    let io_per_write = (s3.write_bytes - s0.write_bytes) / acked.len().max(1) as f64;
    println!(
        "refresh.records_per_pass: {rpp:.2} ({records} records / {passes} passes in the open loop)"
    );
    println!(
        "refresh.incremental_share: {inc_share:.4} ({inc} incremental / {} grouping refreshes)",
        inc + cold
    );
    println!(
        "io.write_bytes_per_write: {io_per_write:.1} ({} bytes / {} acked writes)",
        s3.write_bytes - s0.write_bytes,
        acked.len()
    );

    // Correctness gates.
    let mut gates = Gates::default();
    let accepted = s3.accepted() - s0.accepted();
    let applied = s3.applied() - s0.applied();
    gates.check(
        "acked_equals_accepted",
        acked.len() as u64 == accepted,
        format!("{} acked, {accepted} accepted", acked.len()),
    );
    gates.check(
        "accepted_equals_applied",
        accepted == applied,
        format!("{accepted} accepted, {applied} applied after drain"),
    );
    gates.check(
        "versions_monotone",
        all.iter().all(|replies| client::versions_monotone(replies)),
        "per connection, over both phases".into(),
    );
    if spec.distinct_cells {
        let before = digest_of(server.addr);
        let reference = reference_digest(spec, &corpus, shape.n_users, &acked);
        gates.check(
            "digest_equals_in_process",
            before == reference,
            format!("server {before}, in-process {reference}"),
        );
    }
    let server = if spec.durable {
        let before = digest_of(server.addr);
        drop(server); // kill -9
        let (p, secs) = Proc::boot(
            spec,
            bin,
            &spec.server_args(&corpus, serving_dir.as_deref()),
            None,
        );
        let after = digest_of(p.addr);
        gates.check(
            "digest_survives_kill9",
            before == after,
            format!("before {before}, after warm restart {after}"),
        );
        println!("recovery_s: {secs:.4} s (n=1 warm restart)");
        p
    } else {
        server
    };
    drop(server);

    crate::stage("gates checked");
    // The workload's foreground operation, in ms and schedule order.
    let (what, primary): (&str, Vec<f64>) = match spec.name {
        "read_serving" => ("reads", reads.iter().map(|x| x / 1e3).collect()),
        "ingest_durable" => ("writes", writes.iter().map(|x| x / 1e3).collect()),
        _ => ("freshness", fresh.clone()),
    };
    let p50 = crate::summary::calm_median(&primary, crate::SLICES);
    if !primary.is_empty() {
        let mut sorted = primary.clone();
        sorted.sort_by(f64::total_cmp);
        let pct = |p| crate::summary::percentile(&sorted, p);
        println!(
            "{what} ladder: p10={:.4} p25={:.4} p75={:.4} p90={:.4} p95={:.4} p99={:.4} ms",
            pct(10),
            pct(25),
            pct(75),
            pct(90),
            pct(95),
            pct(99)
        );
    }
    let (tail, pct) = crate::summary::windowed_tail(&primary, crate::SLICES);
    println!(
        "end-to-end on {what}: p50_ms={p50:.4} (lowest of {} slice medians; whole-run median {:.4}) tail_ms={tail:.4} (median of the slices' p{pct}; n={})",
        crate::SLICES,
        crate::summary::median(&primary),
        primary.len()
    );

    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    if args.trace {
        let untraced = Untraced {
            plan,
            reads,
            records_per_pass: (rpp, passes),
            counts: vec![
                ("net.conns_accepted", run_d.of("conns_accepted") as f64),
                ("state.pending_max", pending_max as f64),
                ("wal.records", run_d.of("wal_records") as f64),
                ("checkpoint.count", run_d.of("checkpoints_written") as f64),
                ("io.write_bytes_per_write", io_per_write),
                ("refresh.records_per_pass", rpp),
                ("refresh.incremental_share", inc_share),
                ("gen.late_p99_us", late_s.tail),
                ("gen.sent", sent as f64),
                ("datasets.corpus_ms", corpus_ms),
            ],
            open_sent: open.iter().map(|l| l.sent).sum(),
        };
        metrics = crate::trace::run_serve(spec, args, &dir, &corpus, &shape, &untraced);
    } else {
        for (name, value) in [
            ("setup_s", setup.p50),
            ("p50_ms", p50),
            ("peak_rss_mb", peak_mb),
        ] {
            let unit = crate::END_TO_END
                .iter()
                .find(|(n, _)| *n == name)
                .expect("listed")
                .1;
            metrics.push((name.into(), value, unit.into()));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Outcome {
        correct: gates.all_ok(),
        attempted: sent as u64,
        failed: failed as u64,
        metrics,
    }
}

/// The digest of an in-process `ServeState` fed the same acknowledged
/// writes and drained.
fn reference_digest(
    spec: &Spec,
    corpus: &Path,
    n_users: u32,
    acked: &[(u32, u32, f64, Route)],
) -> String {
    // One pass over every write: versions do not depend on chunking, and
    // a cold rebuild equals the incremental lineage bit for bit.
    let cfg = spec
        .serve_config(n_users)
        .with_max_updates_per_pass(usize::MAX);
    let state = ServeState::new(load_corpus(corpus), cfg)
        .unwrap_or_else(|e| fail(format!("in-process state: {e}")));
    for &(u, i, s, route) in acked {
        let r = match route {
            Route::Rate => state.rate(u, i, s),
            _ => state.feedback(u, i, None),
        };
        r.unwrap_or_else(|e| fail(format!("in-process write: {e}")));
    }
    state
        .flush()
        .unwrap_or_else(|e| fail(format!("in-process flush: {e}")));
    format!("{:016x}", state.digest())
}
