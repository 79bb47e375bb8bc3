//! One benchmark for `gf-serve` and the paper's greedy formers.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_serving|ingest_durable|refresh_churn|paper_formation|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Server workloads build the release
//! `gf-serve` binary, boot it as its own process on a corpus generated
//! from the seed, and drive it over loopback. `paper_formation` runs the
//! GRD formers in-process. Every run checks its outputs; with
//! `--trace 1` a separate traced replay times calls into each layer's
//! public functions. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). Any
//! failed correctness gate makes the command exit non-zero. See
//! `perfbench/README.md` for the workloads and every metric.

mod client;
mod paper;
mod pin;
mod serve;
mod spans;
mod summary;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{exit, Command};

/// Workloads in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "read_serving",
    "ingest_durable",
    "refresh_churn",
    "paper_formation",
];

/// A run's foreground timings are cut into this many consecutive
/// slices: the gated median is the calmest slice's, the printed tail the
/// median of the slices' tails.
pub const SLICES: usize = 10;

/// The per-layer metric names, in the order they are printed. Each
/// workload reports all of them; a layer that does no work in a
/// workload reports 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("net.overhead_p50_us", "us"),
    ("net.conns_accepted", "count"),
    ("http.route_group_p50_us", "us"),
    ("http.route_group_p99_us", "us"),
    ("http.route_recommend_p50_us", "us"),
    ("http.route_recommend_p99_us", "us"),
    ("http.route_rate_p50_us", "us"),
    ("http.route_feedback_p50_us", "us"),
    ("json.render_p50_us", "us"),
    ("json.render_bytes_p50", "bytes"),
    ("state.rate_p50_us", "us"),
    ("state.rate_p99_us", "us"),
    ("state.pending_max", "count"),
    ("wal.append_p50_us", "us"),
    ("wal.append_p99_us", "us"),
    ("wal.records", "count"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.count", "count"),
    ("io.write_bytes_per_write", "bytes"),
    ("recovery.load_ms", "ms"),
    ("refresh.pass_p50_ms", "ms"),
    ("refresh.pass_p99_ms", "ms"),
    ("refresh.records_per_pass", "count"),
    ("refresh.incremental_share", "ratio"),
    ("refresh.queue_wait_p50_ms", "ms"),
    ("refresh.install_self_ms", "ms"),
    ("core.matrix_successor_ms", "ms"),
    ("core.prefs_patch_ms", "ms"),
    ("core.former_refresh_ms.default", "ms"),
    ("core.former_refresh_ms.av", "ms"),
    ("core.former_refresh_ms.cons", "ms"),
    ("core.former_init_ms", "ms"),
    ("candidates.hit_ratio", "ratio"),
    ("candidates.miss_p50_us", "us"),
    ("form.step1_ms", "ms"),
    ("form.step2_ms", "ms"),
    ("form.buckets", "count"),
    ("datasets.corpus_ms", "ms"),
    ("gen.late_p99_us", "us"),
    ("gen.sent", "count"),
];

/// The end-to-end metric names and units. Every workload reports each
/// one, measured on that workload's own foreground operation (README).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Command-line options.
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {}|all --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    args
}

/// What one workload run produced.
pub struct Outcome {
    /// Every correctness gate held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` for the JSON line.
    pub metrics: Vec<(String, f64, String)>,
}

/// A correctness gate: prints its verdict and remembers failures.
#[derive(Default)]
pub struct Gates {
    failed: Vec<String>,
}

impl Gates {
    /// Checks one condition.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        println!(
            "gate {name}: {} ({detail})",
            if ok { "ok" } else { "FAILED" }
        );
        if !ok {
            self.failed.push(name.to_string());
        }
    }

    /// Whether every gate held.
    pub fn all_ok(&self) -> bool {
        self.failed.is_empty()
    }
}

/// SplitMix64: the benchmark's only randomness, driven by the seed.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Where builds go: `$CARGO_TARGET_DIR`, else cargo's default `target`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// A fresh scratch directory for one run, inside the build directory.
pub fn work_dir(workload: &str, seed: u64) -> PathBuf {
    let dir = target_dir()
        .join("perfbench-work")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(format!("mkdir {}: {e}", dir.display())));
    dir
}

/// Builds the release `gf-serve` from the repository at the working
/// directory and returns its path.
pub fn build_server() -> PathBuf {
    let status = Command::new("cargo")
        .args(["build", "--release", "-q", "-p", "gf-serve"])
        .status()
        .unwrap_or_else(|e| fail(format!("cargo build: {e}")));
    if !status.success() {
        fail("cargo build --release -p gf-serve failed (run from the repository root)");
    }
    let bin = target_dir().join("release").join("gf-serve");
    if !bin.is_file() {
        fail(format!("{} missing after the build", bin.display()));
    }
    bin
}

static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();

/// Prints a timeline mark: seconds since the command started.
pub fn stage(what: &str) {
    let t = START.get_or_init(std::time::Instant::now).elapsed();
    println!("[{:7.2} s] {what}", t.as_secs_f64());
}

/// Reports an error and exits non-zero without a result line. It
/// panics rather than exits so that unwinding drops every running server
/// (`serve::Proc` kills and reaps its child on drop).
pub fn fail(message: impl std::fmt::Display) -> ! {
    panic!("perfbench: {message}")
}

/// Aggregate CPU ticks from `/proc/stat`: `(all, steal)`.
fn cpu_ticks() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0.0))
}

/// `VmHWM` of a process in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    proc_field(&format!("/proc/{pid}/status"), "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// A numeric field of a `/proc` key-value file (first number on the line).
pub fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

fn json_line(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct,
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn run_one(workload: &str, args: &Args, server: Option<&PathBuf>) -> Outcome {
    println!(
        "== workload {workload} seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match workload {
        "paper_formation" => paper::run(args),
        _ => serve::run(
            &serve::Spec::named(workload),
            args,
            server.expect("server workloads build gf-serve first"),
        ),
    }
}

fn main() {
    stage("start");
    let args = parse_args();
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let server = names
        .iter()
        .any(|w| *w != "paper_formation")
        .then(build_server);
    let mut total = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for w in &names {
        let ticks = cpu_ticks();
        let out = run_one(w, &args, server.as_ref());
        let (all, steal) = cpu_ticks();
        println!(
            "machine: nproc={}, cpu steal {:.1}% during {w}",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            100.0 * (steal - ticks.1) / (all - ticks.0).max(1.0)
        );
        total.correct &= out.correct;
        total.attempted += out.attempted;
        total.failed += out.failed;
        let prefix = if names.len() > 1 {
            format!("{w}.")
        } else {
            String::new()
        };
        total.metrics.extend(
            out.metrics
                .into_iter()
                .map(|(n, v, u)| (format!("{prefix}{n}"), v, u)),
        );
    }
    println!("{}", json_line(&total));
    if !total.correct {
        eprintln!("perfbench: a correctness gate failed");
        exit(1);
    }
}
