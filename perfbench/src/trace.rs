//! The traced run of a server workload.
//!
//! It builds the workload's state in-process through the public
//! constructors, replays the untraced run's open-loop schedule in order
//! and on time, and records a span around each call into a layer:
//! `http::route_full` and the body render, `ServeState::rate`,
//! `Wal::append`, `ServeState::process_pending`, `checkpoint_now` with
//! `checkpoint::encode`/`write`. Each refresh pass is split into phases
//! by re-running its batch on a shadow lineage through
//! `RatingMatrix::with_upserts_under`, `PrefIndex::patched` and each
//! grouping's `IncrementalFormer::refresh`.

use crate::client::Route;
use crate::serve::{load_corpus, Shape, Spec, Untraced};
use crate::spans::Recorder;
use crate::summary::{median, Summary};
use crate::{fail, PER_LAYER};
use gf_core::{
    CandidateEngine, GrowthPolicy, IncrementalFormer, PrefIndex, RatingDelta, RatingMatrix,
};
use gf_persist::checkpoint;
use gf_persist::wal::{SyncMode, Wal};
use gf_serve::http::route_full;
use gf_serve::{DurabilityOptions, HttpRequest, ServeState};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(enqueued at µs, rating)` for every journal record not yet applied;
/// feedback records carry no rating.
type Journal = VecDeque<(f64, Option<(u32, u32, f64)>)>;

/// The shadow lineage a pass is re-run on to split it into phases.
struct Shadow {
    matrix: Arc<RatingMatrix>,
    prefs: Arc<PrefIndex>,
    formers: Vec<(String, IncrementalFormer)>,
}

impl Shadow {
    /// Applies one pass's ratings, each phase in its own span; returns
    /// each phase's `(name, µs)` in the order the pass runs them.
    fn apply(&mut self, rec: &mut Recorder, batch: &[(u32, u32, f64)]) -> Vec<(String, f64)> {
        let parent = rec.open("shadow.pass", None);
        let first = rec.spans().len();
        let (matrix, outcomes) = rec
            .time("core.matrix_successor", Some(parent), || {
                self.matrix.with_upserts_under(batch, GrowthPolicy::Fixed)
            })
            .unwrap_or_else(|e| fail(format!("shadow successor: {e}")));
        let deltas: Vec<RatingDelta> = batch
            .iter()
            .zip(outcomes)
            .map(|(&(u, i, s), o)| RatingDelta::from_upsert(u, i, s, o))
            .collect();
        let mut dirty: Vec<u32> = batch.iter().map(|&(u, _, _)| u).collect();
        dirty.sort_unstable();
        dirty.dedup();
        let prefs = rec.time("core.prefs_patch", Some(parent), || {
            self.prefs.patched(&matrix, &dirty)
        });
        for (name, former) in &mut self.formers {
            rec.time(&format!("core.former_refresh.{name}"), Some(parent), || {
                former.refresh(&matrix, &prefs, &deltas)
            })
            .unwrap_or_else(|e| fail(format!("shadow refresh of {name}: {e}")));
        }
        rec.close(parent);
        self.matrix = Arc::new(matrix);
        self.prefs = Arc::new(prefs);
        rec.spans()[first..]
            .iter()
            .map(|s| (s.name.clone(), s.dur()))
            .collect()
    }
}

fn request(method: &str, target: &str, body: &str) -> HttpRequest {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    HttpRequest {
        method: method.into(),
        path: path.into(),
        query: query.into(),
        body: body.into(),
        keep_alive: true,
    }
}

/// `(grouping, group)` of a `/v1/recommend/...` target.
fn recommend_key(target: &str) -> (String, usize) {
    let rest = target.trim_start_matches("/v1/recommend/");
    let (name, group) = rest.split_once('/').unwrap_or(("default", rest));
    (name.to_string(), group.parse().expect("generated group id"))
}

/// Replays the untraced run's schedule with spans; returns the
/// per-layer metrics in [`PER_LAYER`] order.
pub fn run_serve(
    spec: &Spec,
    args: &crate::Args,
    dir: &Path,
    corpus: &Path,
    shape: &Shape,
    untraced: &Untraced,
) -> Vec<(String, f64, String)> {
    let mut rec = Recorder::default();
    let state = ServeState::new(load_corpus(corpus), spec.serve_config(shape.n_users))
        .unwrap_or_else(|e| fail(format!("traced state: {e}")));
    let snap = state.snapshot();
    let mut shadow = Shadow {
        matrix: Arc::clone(&snap.matrix),
        prefs: Arc::clone(&snap.prefs),
        formers: Vec::new(),
    };
    for name in spec.grouping_names() {
        let cfg = snap.grouping(name).expect("booted grouping").config;
        let former = rec
            .time("core.former_init", None, || {
                IncrementalFormer::new(&shadow.matrix, &shadow.prefs, cfg)
            })
            .unwrap_or_else(|e| fail(format!("shadow former: {e}")));
        shadow.formers.push((name.to_string(), former));
    }
    drop(snap);
    let mut wal = spec.durable.then(|| {
        Wal::open(
            &dir.join("trace-wal"),
            SyncMode::Interval(Duration::from_millis(crate::serve::WAL_SYNC_MS)),
        )
        .unwrap_or_else(|e| fail(format!("traced wal: {e}")))
        .0
    });
    let dopts = DurabilityOptions::new(dir.join("trace-ckpt"));
    let copy_dir = dir.join("trace-ckpt-copy");
    let per_pass = untraced.records_per_pass.0.round().max(1.0) as usize;

    let mut queue = Journal::new();
    let mut waits_ms = Vec::new();
    let mut split_passes = Vec::new();
    let mut render_bytes = Vec::new();
    let mut read_request_us = Vec::new();
    let mut seen_versions: HashMap<(String, usize), u64> = HashMap::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut engine = CandidateEngine::new();
    let mut ckpt_bytes = Vec::new();
    let mut traced_failed = 0usize;
    let mut direct_rate = false;
    let mut passes = 0usize;

    let mut pass = |rec: &mut Recorder, queue: &mut Journal, shadow: &mut Shadow| {
        let started = rec.now();
        let applied = rec
            .time("refresh.pass", None, || state.process_pending())
            .unwrap_or_else(|e| fail(format!("traced pass: {e}")));
        let pass_id = rec.spans().len() - 1;
        let batch: Vec<(u32, u32, f64)> = queue
            .drain(..applied.min(queue.len()))
            .inspect(|(enq, _)| waits_ms.push((started - enq) / 1e3))
            .filter_map(|(_, w)| w)
            .collect();
        if !batch.is_empty() {
            // Lay the shadow phases end to end from the pass's start, as
            // children of the pass: its self time is then what the
            // phases leave over (install and bookkeeping).
            let mut at = rec.spans()[pass_id].start;
            for (name, us) in shadow.apply(rec, &batch) {
                rec.record(&format!("phase.{name}"), Some(pass_id), at, at + us);
                at += us;
            }
            split_passes.push(pass_id);
        }
        passes += 1;
    };

    let origin = Instant::now() + Duration::from_millis(20);
    let ckpt_every = spec.checkpoint_ms as f64 * 1e3;
    let mut next_ckpt = ckpt_every;
    for (due, _, req) in &untraced.plan {
        let at = origin + Duration::from_secs_f64(due / 1e6);
        if let Some(wait) = at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let routed = |rec: &mut Recorder, span: &str| {
            let parent = rec.open(
                if req.route.is_read() {
                    "request.read"
                } else {
                    "request.write"
                },
                None,
            );
            let hreq = request(req.method, &req.target, &req.body);
            let out = rec.time(span, Some(parent), || route_full(&state, &hreq));
            let body = rec.time("json.render", Some(parent), || out.body.to_string());
            rec.close(parent);
            (out.status, body.len(), rec.spans()[parent].dur())
        };
        let status = match req.route {
            Route::Group | Route::Recommend => {
                if req.route == Route::Recommend {
                    let key = recommend_key(&req.target);
                    let snap = state.snapshot();
                    let g = snap.grouping(&key.0).expect("generated grouping");
                    if seen_versions.get(&key) == Some(&g.version) {
                        hits += 1;
                    } else {
                        misses += 1;
                        let members = &g.formation.grouping.groups[key.1].members;
                        rec.time("candidates.miss", None, || {
                            engine.candidates_for_group(&snap.matrix, members)
                        })
                        .unwrap_or_else(|e| fail(format!("candidates: {e}")));
                        seen_versions.insert(key, g.version);
                    }
                }
                let span = if req.route == Route::Group {
                    "http.route_group"
                } else {
                    "http.route_recommend"
                };
                let (status, bytes, us) = routed(&mut rec, span);
                render_bytes.push(bytes as f64);
                read_request_us.push(us);
                status
            }
            Route::Rate | Route::Feedback => {
                let (u, i, s) = req.write.expect("writes carry their cell");
                if let Some(wal) = wal.as_mut() {
                    rec.time("wal.append", None, || {
                        if req.route == Route::Rate {
                            wal.append(&[(u, i, s)])
                        } else {
                            wal.append_feedback(u, i, None)
                        }
                    })
                    .unwrap_or_else(|e| fail(format!("traced wal append: {e}")));
                }
                // Ratings alternate between the full route and a direct
                // `ServeState::rate`, so each layer gets its own samples
                // and every record is journaled once.
                direct_rate = !direct_rate;
                let status = if req.route == Route::Rate && direct_rate {
                    rec.time("state.rate", None, || state.rate(u, i, s))
                        .map_or(500, |_| 202)
                } else {
                    let span = if req.route == Route::Rate {
                        "http.route_rate"
                    } else {
                        "http.route_feedback"
                    };
                    routed(&mut rec, span).0
                };
                let rating = (req.route == Route::Rate).then_some((u, i, s));
                queue.push_back((rec.now(), rating));
                status
            }
        };
        if !(200..300).contains(&status) {
            traced_failed += 1;
        }
        if state.pending_len() >= per_pass {
            pass(&mut rec, &mut queue, &mut shadow);
        }
        if spec.durable && *due >= next_ckpt {
            next_ckpt += ckpt_every;
            rec.time("checkpoint.now", None, || {
                gf_serve::persist::checkpoint_now(&state, &dopts)
            })
            .unwrap_or_else(|e| fail(format!("traced checkpoint: {e}")));
            let (ck, _) = checkpoint::load_latest(&dopts.data_dir)
                .ok()
                .and_then(|o| o.loaded)
                .unwrap_or_else(|| fail("traced checkpoint did not load"));
            let bytes = rec
                .time("checkpoint.encode", None, || checkpoint::encode(&ck))
                .unwrap_or_else(|e| fail(format!("checkpoint encode: {e}")));
            ckpt_bytes.push(bytes.len() as f64);
            rec.time("checkpoint.write", None, || {
                checkpoint::write(&copy_dir, &ck)
            })
            .unwrap_or_else(|e| fail(format!("checkpoint write: {e}")));
        }
    }
    while state.pending_len() > 0 {
        pass(&mut rec, &mut queue, &mut shadow);
    }
    if spec.durable {
        rec.time("recovery.load", None, || {
            checkpoint::load_latest(&dopts.data_dir)
        })
        .unwrap_or_else(|e| fail(format!("recovery load: {e}")));
    }

    let spans_path = crate::target_dir()
        .join("perfbench-work")
        .join(format!("{}-{}-spans.tsv", spec.name, args.seed));
    if let Err(e) = rec.write_tsv(&spans_path) {
        println!("spans: not written ({e})");
    }
    println!(
        "trace: requests traced={} untraced open loop={} ({traced_failed} traced failed); refresh passes traced={passes} untraced open loop={}; {} spans in {}",
        untraced.plan.len(),
        untraced.open_sent,
        untraced.records_per_pass.1,
        rec.spans().len(),
        spans_path.display()
    );

    // Per-layer values; layers this workload leaves idle stay 0.
    let self_us = rec.self_times();
    let install_self_ms: Vec<f64> = split_passes.iter().map(|&id| self_us[id] / 1e3).collect();
    let mut vals: BTreeMap<&str, f64> = untraced.counts.iter().copied().collect();
    let ms = |xs: Vec<f64>| xs.into_iter().map(|x| x / 1e3).collect::<Vec<f64>>();
    let mut put =
        |rec: &Recorder, span: &str, p50: &'static str, tail: Option<&'static str>, to_ms: bool| {
            let xs = rec.durations(span);
            let xs = if to_ms { ms(xs) } else { xs };
            if let Some(s) = Summary::of(&xs) {
                println!("{}", s.line(span, if to_ms { "ms" } else { "us" }));
                vals.insert(p50, s.p50);
                if let Some(t) = tail {
                    vals.insert(t, s.tail);
                }
            }
        };
    put(
        &rec,
        "http.route_group",
        "http.route_group_p50_us",
        Some("http.route_group_p99_us"),
        false,
    );
    put(
        &rec,
        "http.route_recommend",
        "http.route_recommend_p50_us",
        Some("http.route_recommend_p99_us"),
        false,
    );
    put(
        &rec,
        "http.route_rate",
        "http.route_rate_p50_us",
        None,
        false,
    );
    put(
        &rec,
        "http.route_feedback",
        "http.route_feedback_p50_us",
        None,
        false,
    );
    put(&rec, "json.render", "json.render_p50_us", None, false);
    put(
        &rec,
        "state.rate",
        "state.rate_p50_us",
        Some("state.rate_p99_us"),
        false,
    );
    put(
        &rec,
        "wal.append",
        "wal.append_p50_us",
        Some("wal.append_p99_us"),
        false,
    );
    put(
        &rec,
        "checkpoint.encode",
        "checkpoint.encode_ms",
        None,
        true,
    );
    put(&rec, "checkpoint.write", "checkpoint.write_ms", None, true);
    put(&rec, "recovery.load", "recovery.load_ms", None, true);
    put(
        &rec,
        "refresh.pass",
        "refresh.pass_p50_ms",
        Some("refresh.pass_p99_ms"),
        true,
    );
    put(
        &rec,
        "core.matrix_successor",
        "core.matrix_successor_ms",
        None,
        true,
    );
    put(&rec, "core.prefs_patch", "core.prefs_patch_ms", None, true);
    put(
        &rec,
        "core.former_refresh.default",
        "core.former_refresh_ms.default",
        None,
        true,
    );
    put(
        &rec,
        "core.former_refresh.av",
        "core.former_refresh_ms.av",
        None,
        true,
    );
    put(
        &rec,
        "core.former_refresh.cons",
        "core.former_refresh_ms.cons",
        None,
        true,
    );
    put(
        &rec,
        "candidates.miss",
        "candidates.miss_p50_us",
        None,
        false,
    );
    let init_ms: f64 = rec.durations("core.former_init").iter().sum::<f64>() / 1e3;
    vals.insert("core.former_init_ms", init_ms);
    vals.insert("json.render_bytes_p50", median(&render_bytes));
    vals.insert("checkpoint.bytes", median(&ckpt_bytes));
    vals.insert("refresh.queue_wait_p50_ms", median(&waits_ms));
    vals.insert("refresh.install_self_ms", median(&install_self_ms));
    let lookups = hits + misses;
    vals.insert("candidates.hit_ratio", hits as f64 / lookups.max(1) as f64);
    println!(
        "candidates.hit_ratio: {:.4} ({hits} predicted hits / {lookups} recommend lookups)",
        hits as f64 / lookups.max(1) as f64
    );
    if let (Some(q), Some(i)) = (Summary::of(&waits_ms), Summary::of(&install_self_ms)) {
        println!(
            "{}\n{}",
            q.line("refresh.queue_wait", "ms"),
            i.line("refresh.install_self", "ms")
        );
    }
    // Network overhead: the untraced read p50 minus the traced
    // in-process route + render p50 for the same reads.
    if !untraced.reads.is_empty() && !read_request_us.is_empty() {
        vals.insert(
            "net.overhead_p50_us",
            median(&untraced.reads) - median(&read_request_us),
        );
    }
    per_layer(&vals)
}

/// Orders `vals` as [`PER_LAYER`], printing each, 0 where absent.
pub fn per_layer(vals: &BTreeMap<&str, f64>) -> Vec<(String, f64, String)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = vals.get(name).copied().unwrap_or(0.0);
            println!("layer {name} = {v:.4} {unit}");
            (name.to_string(), v, unit.to_string())
        })
        .collect()
}
