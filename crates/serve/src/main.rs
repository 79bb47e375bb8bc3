//! The `gf-serve` binary: load a rating dataset, form groups, serve.
//!
//! ```text
//! gf-serve [--addr HOST] [--port P] \
//!          [--net epoll|blocking] [--conn-timeout-ms MS] [--max-conn-threads N] \
//!          [--net-workers N] \
//!          [--data FILE [--format dat|csv|tsv|netflix] [--scale one5|zero5|half]] \
//!          [--synth USERSxITEMS] [--raw-ids] \
//!          [--semantics lm|av|cons|ldr] [--aggregation min|max|sum] [--k K] [--ell L] \
//!          [--grouping NAME:k=K,ell=L,agg=A,semantics=S,lambda=F]... \
//!          [--threads N] [--batch-window-ms MS] [--refresh auto|cold|incremental] \
//!          [--grow] [--max-users N] [--max-items N] \
//!          [--feedback-window N] \
//!          [--data-dir DIR] [--wal-sync always|interval] [--wal-sync-interval-ms MS] \
//!          [--checkpoint-interval-ms MS] [--wal-retain]
//! ```
//!
//! `--net` picks the transport: `epoll` (the default on Linux) drives a
//! fixed pool of `--net-workers` readiness-loop threads over
//! `epoll_wait`; `blocking` is the portable thread-per-connection
//! fallback, capped at `--max-conn-threads` concurrent handler threads.
//! Either transport closes a connection idle (or stalled mid-request /
//! mid-response) for `--conn-timeout-ms` (default 30000; 0 disables) —
//! the slowloris guard. See `docs/ARCHITECTURE.md` for the readiness
//! loop and `docs/OPERATIONS.md` for tuning.
//!
//! With `--data`, the file format defaults from the extension (`.dat` →
//! MovieLens dat, `.csv` → MovieLens csv, anything else → TSV) and the
//! rating scale defaults to `half` (0.5–5.0 half stars, which contains
//! the 1–5 integer grid). Without `--data`, a Yahoo!-Music-shaped
//! synthetic corpus of `--synth` size (default `1000x200`) is generated.
//!
//! `--grouping` (repeatable) registers additional **named groupings**
//! next to the `default` one — each key=value overrides the default
//! formation flags for that grouping only (`agg`/`aggregation`,
//! `semantics`/`sem`, `k`, `ell`, `lambda` for `cons`). All groupings
//! share one rating matrix; more can be registered at runtime via
//! `POST /grouping`.
//!
//! `--raw-ids` makes `/rate` accept the dataset's *original* ids: the
//! loader's id tables seed a serve-time remapper, and never-seen raw ids
//! intern under the growth caps. The table is in-memory: every boot
//! re-seeds it from the `--data` file's first-appearance order (identity
//! for synthetic corpora), so raw ids interned *at serve time* are
//! forgotten by a restart — persisting the table is a ROADMAP follow-up.
//!
//! `--grow` lets `/rate` admit never-seen users and items without a
//! restart ([`gf_core::GrowthPolicy::Grow`]); `--max-users`/`--max-items`
//! cap the growth (and each implies `--grow`; default: unbounded).
//!
//! `--feedback-window N` sizes the sliding window of `POST /v1/feedback`
//! events behind the per-grouping quality metrics in `/v1/stats`
//! (default 1024 events). The window is a process knob, not durable
//! state: a restart re-fills whatever capacity the new process was
//! given from the journaled event history.
//!
//! `--data-dir` makes the server **durable**: every accepted `/rate` is
//! journaled to an fsync'd WAL before acknowledgment, checkpoints are
//! written in the background, and a restart warm-loads the newest
//! checkpoint and replays the WAL tail (see `docs/OPERATIONS.md`). On a
//! warm boot the checkpointed formation configuration wins over the
//! `--semantics`/`--k`/… flags — it is durable state a `/form` may have
//! changed; non-formation knobs (threads are part of the config, but
//! batch window and feedback window are not) still come from the
//! command line.
//!
//! On startup the server prints a `gf-serve: recovery: …` line when
//! durable (cold start, or checkpoint version + records replayed), then
//! one line —
//! `gf-serve: listening on http://ADDR (users=N items=M groups=G)` — that
//! scripts (and the CI smoke job) wait for before issuing requests.

use gf_core::{
    Aggregation, FormationConfig, GrowthPolicy, RatingMatrix, RatingScale, RefreshMode, Semantics,
};
use gf_datasets::io::{read_movielens_csv, read_movielens_dat, read_netflix, read_tsv};
use gf_datasets::SynthConfig;
use gf_persist::wal::SyncMode;
use gf_serve::{
    parse_aggregation, parse_semantics, DurabilityOptions, NetMode, NetOptions, ServeConfig,
    ServeState, Server,
};
use std::io::BufReader;
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Options {
    addr: String,
    port: u16,
    net: NetOptions,
    data: Option<String>,
    format: Option<String>,
    scale: RatingScale,
    synth: (u32, u32),
    semantics: Semantics,
    aggregation: Aggregation,
    k: usize,
    ell: usize,
    /// Raw `--grouping NAME:k=..` specs, resolved against the default
    /// formation config once flag parsing is complete.
    groupings: Vec<String>,
    raw_ids: bool,
    threads: usize,
    batch_window: Duration,
    refresh: RefreshMode,
    grow: bool,
    max_users: Option<u32>,
    max_items: Option<u32>,
    feedback_window: usize,
    data_dir: Option<String>,
    wal_sync: String,
    wal_sync_interval: Duration,
    checkpoint_interval: Duration,
    wal_retain: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1".into(),
            port: 7878,
            net: NetOptions::default(),
            data: None,
            format: None,
            scale: RatingScale::half_star(),
            synth: (1000, 200),
            semantics: Semantics::LeastMisery,
            aggregation: Aggregation::Min,
            k: 5,
            ell: 10,
            groupings: Vec::new(),
            raw_ids: false,
            threads: 0,
            batch_window: Duration::from_millis(5),
            refresh: RefreshMode::Auto,
            grow: false,
            max_users: None,
            max_items: None,
            feedback_window: 1024,
            data_dir: None,
            wal_sync: "always".into(),
            wal_sync_interval: Duration::from_millis(50),
            checkpoint_interval: Duration::from_secs(30),
            wal_retain: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: gf-serve [--addr HOST] [--port P] [--net epoll|blocking] [--conn-timeout-ms MS] \
         [--max-conn-threads N] [--net-workers N] [--data FILE] [--format dat|csv|tsv|netflix] \
         [--scale one5|zero5|half] [--synth UxI] [--raw-ids] [--semantics lm|av|cons|ldr] \
         [--aggregation min|max|sum] [--k K] [--ell L] \
         [--grouping NAME:k=K,ell=L,agg=A,semantics=S,lambda=F]... \
         [--threads N] [--batch-window-ms MS] \
         [--refresh auto|cold|incremental] [--grow] [--max-users N] [--max-items N] \
         [--feedback-window N] [--data-dir DIR] [--wal-sync always|interval] \
         [--wal-sync-interval-ms MS] [--checkpoint-interval-ms MS] [--wal-retain]"
    );
    exit(2)
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("gf-serve: {message}");
    exit(1)
}

fn parse_options() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            usage();
        }
        if flag == "--grow" {
            opts.grow = true;
            continue;
        }
        if flag == "--wal-retain" {
            opts.wal_retain = true;
            continue;
        }
        if flag == "--raw-ids" {
            opts.raw_ids = true;
            continue;
        }
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--addr" => opts.addr = value,
            "--port" => opts.port = value.parse().unwrap_or_else(|_| usage()),
            "--net" => opts.net.mode = NetMode::parse(&value).unwrap_or_else(|| usage()),
            "--conn-timeout-ms" => {
                let ms: u64 = value.parse().unwrap_or_else(|_| usage());
                opts.net.conn_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--max-conn-threads" => {
                opts.net.max_conn_threads = value
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--net-workers" => opts.net.workers = value.parse().unwrap_or_else(|_| usage()),
            "--data" => opts.data = Some(value),
            "--format" => opts.format = Some(value),
            "--scale" => {
                opts.scale = match value.as_str() {
                    "one5" => RatingScale::one_to_five(),
                    "zero5" => RatingScale::zero_to_five(),
                    "half" => RatingScale::half_star(),
                    _ => usage(),
                }
            }
            "--synth" => {
                let (u, i) = value.split_once('x').unwrap_or_else(|| usage());
                opts.synth = (
                    u.parse().unwrap_or_else(|_| usage()),
                    i.parse().unwrap_or_else(|_| usage()),
                );
            }
            "--semantics" => {
                opts.semantics = parse_semantics(&value).unwrap_or_else(|| usage());
            }
            "--aggregation" => {
                opts.aggregation = parse_aggregation(&value).unwrap_or_else(|| usage());
            }
            "--k" => opts.k = value.parse().unwrap_or_else(|_| usage()),
            "--ell" => opts.ell = value.parse().unwrap_or_else(|_| usage()),
            "--grouping" => opts.groupings.push(value),
            "--threads" => opts.threads = value.parse().unwrap_or_else(|_| usage()),
            "--batch-window-ms" => {
                opts.batch_window = Duration::from_millis(value.parse().unwrap_or_else(|_| usage()))
            }
            "--refresh" => {
                opts.refresh = match value.as_str() {
                    "auto" => RefreshMode::Auto,
                    "cold" => RefreshMode::Cold,
                    "incremental" => RefreshMode::Incremental,
                    _ => usage(),
                }
            }
            "--max-users" => opts.max_users = Some(value.parse().unwrap_or_else(|_| usage())),
            "--max-items" => opts.max_items = Some(value.parse().unwrap_or_else(|_| usage())),
            "--feedback-window" => {
                opts.feedback_window = value
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--data-dir" => opts.data_dir = Some(value),
            "--wal-sync" => {
                if value != "always" && value != "interval" {
                    usage();
                }
                opts.wal_sync = value;
            }
            "--wal-sync-interval-ms" => {
                opts.wal_sync_interval =
                    Duration::from_millis(value.parse().unwrap_or_else(|_| usage()))
            }
            "--checkpoint-interval-ms" => {
                opts.checkpoint_interval =
                    Duration::from_millis(value.parse().unwrap_or_else(|_| usage()))
            }
            _ => usage(),
        }
    }
    opts
}

/// Parses one `--grouping NAME:k=..,ell=..,agg=..,semantics=..,lambda=..`
/// spec on top of the default formation configuration. Semantics applies
/// before `lambda` so `semantics=cons,lambda=0.7` works in either order.
fn parse_grouping_spec(spec: &str, base: FormationConfig) -> (String, FormationConfig) {
    let (name, rest) = spec.split_once(':').unwrap_or((spec, ""));
    if name.is_empty() {
        fail(format!("--grouping {spec:?}: empty grouping name"));
    }
    let mut cfg = base;
    let pairs: Vec<(&str, &str)> = rest
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|kv| {
            kv.split_once('=')
                .unwrap_or_else(|| fail(format!("--grouping {spec:?}: {kv:?} is not key=value")))
        })
        .collect();
    for &(key, value) in pairs
        .iter()
        .filter(|(k, _)| *k == "semantics" || *k == "sem")
    {
        cfg.semantics = parse_semantics(value)
            .unwrap_or_else(|| fail(format!("--grouping {spec:?}: unknown semantics {value:?}")));
        let _ = key;
    }
    for &(key, value) in &pairs {
        match key {
            "semantics" | "sem" => {}
            "agg" | "aggregation" => {
                cfg.aggregation = parse_aggregation(value).unwrap_or_else(|| {
                    fail(format!(
                        "--grouping {spec:?}: unknown aggregation {value:?}"
                    ))
                })
            }
            "k" => {
                cfg.k = value
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .unwrap_or_else(|| fail(format!("--grouping {spec:?}: k must be >= 1")))
            }
            "ell" => {
                cfg.ell = value
                    .parse()
                    .ok()
                    .filter(|&l| l >= 1)
                    .unwrap_or_else(|| fail(format!("--grouping {spec:?}: ell must be >= 1")))
            }
            "lambda" => {
                let lambda: f64 = value
                    .parse()
                    .ok()
                    .filter(|l: &f64| l.is_finite() && *l >= 0.0)
                    .unwrap_or_else(|| {
                        fail(format!(
                            "--grouping {spec:?}: lambda must be >= 0 and finite"
                        ))
                    });
                match cfg.semantics {
                    Semantics::Consensus { .. } => cfg.semantics = Semantics::Consensus { lambda },
                    _ => fail(format!(
                        "--grouping {spec:?}: lambda only applies to semantics=cons"
                    )),
                }
            }
            other => fail(format!("--grouping {spec:?}: unknown key {other:?}")),
        }
    }
    (name.to_string(), cfg)
}

/// A loaded corpus: the matrix plus the raw ids of every dense index
/// (`None` for synthetic corpora, whose ids are already dense).
struct LoadedCorpus {
    matrix: RatingMatrix,
    raw_ids: Option<(Vec<u64>, Vec<u64>)>,
}

fn load_corpus(opts: &Options) -> LoadedCorpus {
    let Some(path) = &opts.data else {
        let (users, items) = opts.synth;
        eprintln!("gf-serve: no --data given; generating a {users}x{items} synthetic corpus");
        return LoadedCorpus {
            matrix: SynthConfig::yahoo_music()
                .with_users(users)
                .with_items(items)
                .generate()
                .matrix,
            raw_ids: None,
        };
    };
    let format = opts.format.clone().unwrap_or_else(|| {
        match std::path::Path::new(path)
            .extension()
            .and_then(|e| e.to_str())
        {
            Some("dat") => "dat".into(),
            Some("csv") => "csv".into(),
            _ => "tsv".into(),
        }
    });
    let file = std::fs::File::open(path).unwrap_or_else(|e| fail(format!("open {path}: {e}")));
    let reader = BufReader::new(file);
    let loaded = match format.as_str() {
        "dat" => read_movielens_dat(reader, opts.scale),
        "csv" => read_movielens_csv(reader, opts.scale),
        "netflix" => read_netflix(reader, opts.scale),
        "tsv" => read_tsv(reader, opts.scale),
        other => fail(format!("unknown format {other:?}")),
    };
    let loaded = loaded.unwrap_or_else(|e| fail(format!("load {path}: {e}")));
    LoadedCorpus {
        matrix: loaded.matrix,
        raw_ids: Some((loaded.user_ids, loaded.item_ids)),
    }
}

/// Builds the `--raw-ids` layer: dataset boots seed from the loader's id
/// tables (re-derived from the file on a warm restart — first-appearance
/// order is deterministic, so the dense indices line up with the
/// checkpointed matrix); synthetic corpora get the identity mapping.
fn raw_id_layer(
    corpus_ids: Option<(Vec<u64>, Vec<u64>)>,
    state: &ServeState,
) -> gf_serve::RawIdLayer {
    use gf_datasets::IdRemapper;
    let snap = state.snapshot();
    match corpus_ids {
        Some((users, items)) => {
            gf_serve::RawIdLayer::new(IdRemapper::from_ids(users), IdRemapper::from_ids(items))
        }
        None => gf_serve::RawIdLayer::identity(snap.matrix.n_users(), snap.matrix.n_items()),
    }
}

fn main() {
    let opts = parse_options();
    let growth = if opts.grow || opts.max_users.is_some() || opts.max_items.is_some() {
        GrowthPolicy::Grow {
            max_users: opts.max_users.unwrap_or(u32::MAX),
            max_items: opts.max_items.unwrap_or(u32::MAX),
        }
    } else {
        GrowthPolicy::Fixed
    };
    // `ell` is clamped against the loaded matrix just before the initial
    // formation runs: here for a volatile boot, inside `boot`'s cold path
    // for a durable one (a warm boot restores the checkpointed config
    // and never touches the flag defaults).
    let formation = FormationConfig::new(opts.semantics, opts.aggregation, opts.k, opts.ell)
        .with_threads(opts.threads)
        .with_refresh(opts.refresh)
        .with_growth(growth);
    let mut cfg = ServeConfig::new(formation)
        .with_batch_window(opts.batch_window)
        .with_feedback_window(opts.feedback_window);
    for spec in &opts.groupings {
        let (name, gc) = parse_grouping_spec(spec, formation);
        gf_serve::validate_grouping_name(&name)
            .unwrap_or_else(|e| fail(format!("--grouping {spec:?}: {e}")));
        cfg = cfg.with_grouping(name, gc);
    }

    // The boot closure runs only on cold durable starts; when it does,
    // stash the loader's raw-id tables for `--raw-ids`.
    let corpus_ids: std::cell::RefCell<Option<(Vec<u64>, Vec<u64>)>> =
        std::cell::RefCell::new(None);
    let (state, _checkpointer) = if let Some(dir) = &opts.data_dir {
        let sync = match opts.wal_sync.as_str() {
            "interval" => SyncMode::Interval(opts.wal_sync_interval),
            _ => SyncMode::Always,
        };
        let dopts = DurabilityOptions {
            data_dir: dir.into(),
            sync,
            checkpoint_interval: opts.checkpoint_interval,
            retain_wal: opts.wal_retain,
        };
        let started = Instant::now();
        let (state, report) = gf_serve::boot(cfg, &dopts, || {
            let corpus = load_corpus(&opts);
            *corpus_ids.borrow_mut() = corpus.raw_ids;
            Ok(corpus.matrix)
        })
        .unwrap_or_else(|e| fail(format!("recovery from {dir}: {e}")));
        for (path, reason) in &report.skipped_checkpoints {
            eprintln!(
                "gf-serve: recovery: skipped corrupt checkpoint {}: {reason}",
                path.display()
            );
        }
        let elapsed = started.elapsed().as_millis();
        if report.cold_start {
            println!("gf-serve: recovery: cold start (initial checkpoint written) in {elapsed}ms");
        } else {
            println!(
                "gf-serve: recovery: checkpoint version {} + {} wal records replayed \
                 ({} bytes dropped) in {elapsed}ms",
                report.checkpoint_version, report.replayed, report.dropped_bytes
            );
        }
        let checkpointer = (opts.checkpoint_interval > Duration::ZERO)
            .then(|| gf_serve::spawn_checkpointer(Arc::clone(&state), dopts));
        (state, checkpointer)
    } else {
        let corpus = load_corpus(&opts);
        let matrix = corpus.matrix;
        *corpus_ids.borrow_mut() = corpus.raw_ids;
        let cfg = cfg.clamp_ell(matrix.n_users());
        let state = ServeState::new(matrix, cfg)
            .unwrap_or_else(|e| fail(format!("initial formation: {e}")));
        (state, None)
    };

    if opts.raw_ids {
        // A warm durable boot skipped the loader; re-derive the id tables
        // from the dataset file when one is named, identity otherwise.
        let ids = corpus_ids.borrow_mut().take().or_else(|| {
            opts.data.is_some().then(|| {
                let corpus = load_corpus(&opts);
                corpus.raw_ids.expect("--data loads always carry raw ids")
            })
        });
        state.attach_raw_ids(raw_id_layer(ids, &state));
    }

    let snap = state.snapshot();
    let (n_users, n_items) = (snap.matrix.n_users(), snap.matrix.n_items());
    let groups = snap.default_grouping().formation.grouping.len();
    let groupings = snap.groupings.len();
    drop(snap);
    let net_mode = opts.net.mode;
    let server = Server::bind_with((opts.addr.as_str(), opts.port), state, opts.net.clone())
        .unwrap_or_else(|e| fail(format!("bind {}:{}: {e}", opts.addr, opts.port)));
    let addr = server
        .local_addr()
        .unwrap_or_else(|e| fail(format!("local addr: {e}")));
    println!(
        "gf-serve: listening on http://{addr} \
         (users={n_users} items={n_items} groups={groups} groupings={groupings} net={})",
        net_mode.as_str()
    );
    if let Err(e) = server.run() {
        fail(format!("serve loop: {e}"));
    }
}
