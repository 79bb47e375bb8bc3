//! `paper_formation`: the paper's own end-to-end number, GRD formation
//! time at the fig4/fig6 default point (100k users x 10k items sparse
//! corpus, ℓ = 10, k = 5, `MissingPolicy::Min`), run in-process.

use crate::spans::Recorder;
use crate::summary::{median, Summary};
use crate::{fail, Args, Gates, Outcome};
use gf_core::alg::bucket::build_buckets_threaded;
use gf_core::{
    Aggregation, FormationConfig, FormationResult, GreedyFormer, GroupFormer, IncrementalFormer,
    MissingPolicy, PrefIndex, RatingMatrix, Semantics,
};
use gf_persist::StateDigest;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const USERS: u32 = 100_000;
const ITEMS: u32 = 10_000;
/// Corpus builds measured for `setup_s` before the timed formations, and
/// again after them: the median spans the run, so a slow stretch of the
/// host moves some set-ups, not all. One instance is held at a time.
const SETUPS: usize = 3;

fn config(semantics: Semantics) -> FormationConfig {
    FormationConfig::new(semantics, Aggregation::Min, 5, 10)
        .with_policy(MissingPolicy::Min)
        .with_threads(1)
}

fn bits(f: &FormationResult) -> u64 {
    StateDigest::new().formation(f).finish()
}

/// One set-up on the `nth` CPU (see `crate::pin`): corpus generation
/// plus `PrefIndex::build`. Pushes its seconds and the corpus ms.
fn set_up(
    seed: u64,
    nth: usize,
    setup_s: &mut Vec<f64>,
    corpus_ms: &mut Vec<f64>,
) -> (RatingMatrix, PrefIndex) {
    crate::pin::pinned(nth, || {
        let started = Instant::now();
        let matrix = gf_datasets::SynthConfig::yahoo_music()
            .with_users(USERS)
            .with_items(ITEMS)
            .with_seed(seed)
            .generate()
            .matrix;
        corpus_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let prefs = PrefIndex::build(&matrix);
        setup_s.push(started.elapsed().as_secs_f64());
        (matrix, prefs)
    })
}

fn form(matrix: &RatingMatrix, prefs: &PrefIndex, cfg: &FormationConfig) -> FormationResult {
    GreedyFormer::new()
        .form(black_box(matrix), prefs, cfg)
        .unwrap_or_else(|e| fail(format!("formation: {e}")))
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut setup_s = Vec::new();
    let mut corpus_ms = Vec::new();
    let mut instance = None;
    let mut set_up_round = |instance: &mut Option<(RatingMatrix, PrefIndex)>| {
        for _ in 0..SETUPS {
            drop(instance.take());
            *instance = Some(set_up(
                args.seed,
                setup_s.len(),
                &mut setup_s,
                &mut corpus_ms,
            ));
        }
    };
    set_up_round(&mut instance);
    let (matrix, prefs) = instance.as_ref().expect("set up");
    println!("corpus: {USERS}x{ITEMS}, {} ratings", matrix.nnz());
    let lm = config(Semantics::LeastMisery);
    let av = config(Semantics::AggregateVoting);

    let mut gates = Gates::default();
    for cfg in [&lm, &av] {
        let greedy = form(matrix, prefs, cfg);
        let incremental = IncrementalFormer::new(matrix, prefs, *cfg)
            .unwrap_or_else(|e| fail(format!("incremental former: {e}")));
        gates.check(
            &format!("greedy_equals_incremental.{}", cfg.grd_name()),
            bits(&greedy) == bits(incremental.result()) && greedy == *incremental.result(),
            format!(
                "objective {} vs {}",
                greedy.objective,
                incremental.result().objective
            ),
        );
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut rec = Recorder::default();
    let (mut lm_ms, mut av_ms, mut pair_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_pairs, mut buckets) = (Vec::new(), Vec::new());
    while started.elapsed() < budget || pair_ms.len() + traced_pairs.len() < 3 {
        let t0 = Instant::now();
        if args.trace {
            // Step 1 is re-run through its public builder beside each
            // formation, and that span is laid at the formation's start
            // as its child: the formation's self time is then Step 2.
            let pair = rec.open("form.pair", None);
            let mut n_buckets = 0;
            let mut ids = Vec::new();
            for cfg in [&lm, &av] {
                rec.time("form.step1", Some(pair), || {
                    black_box(build_buckets_threaded(
                        matrix,
                        prefs,
                        cfg.semantics,
                        cfg.aggregation,
                        cfg.policy,
                        cfg.k,
                        cfg.n_threads,
                    ))
                });
                let step1 = rec.spans().len() - 1;
                n_buckets += rec
                    .time("form.grd", Some(pair), || form(matrix, prefs, cfg))
                    .n_buckets;
                let grd = rec.spans().len() - 1;
                let (start, s1) = (rec.spans()[grd].start, rec.spans()[step1].dur());
                rec.record("phase.step1", Some(grd), start, start + s1);
                ids.push((step1, grd));
            }
            rec.close(pair);
            traced_pairs.push(ids);
            buckets.push(n_buckets as f64);
        } else {
            black_box(form(matrix, prefs, &lm));
            let t1 = Instant::now();
            black_box(form(matrix, prefs, &av));
            let t2 = Instant::now();
            lm_ms.push((t1 - t0).as_secs_f64() * 1e3);
            av_ms.push((t2 - t1).as_secs_f64() * 1e3);
            pair_ms.push((t2 - t0).as_secs_f64() * 1e3);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let self_us = rec.self_times();
    let (mut step1_ms, mut step2_ms) = (Vec::new(), Vec::new());
    for ids in &traced_pairs {
        let spans = rec.spans();
        step1_ms.push(ids.iter().map(|&(s1, _)| spans[s1].dur()).sum::<f64>() / 1e3);
        step2_ms.push(ids.iter().map(|&(_, grd)| self_us[grd]).sum::<f64>() / 1e3);
        pair_ms.push(ids.iter().map(|&(_, grd)| spans[grd].dur()).sum::<f64>() / 1e3);
    }
    let pairs = pair_ms.len();
    let peak_mb = crate::peak_rss_mb("self");
    set_up_round(&mut instance);
    let setup = Summary::of(&setup_s).expect("set-ups");
    println!(
        "{} (before and after the formations, each on one CPU)",
        setup.line("setup_s", "s")
    );
    let calm = crate::summary::calm_median(&pair_ms, crate::SLICES);
    println!(
        "form_pair_ms: lowest of {} slice medians {calm:.4} ms",
        crate::SLICES
    );
    let pair = Summary::of(&pair_ms).expect("pairs ran");
    println!(
        "{}",
        pair.line("form_pair_ms (GRD-LM-MIN + GRD-AV-MIN)", "ms")
    );
    for (name, xs) in [("form_lm_ms", &lm_ms), ("form_av_ms", &av_ms)] {
        if let Some(s) = Summary::of(xs) {
            println!("{}", s.line(name, "ms"));
        }
    }
    println!(
        "throughput: {:.3} pairs/s (n={pairs} pairs in {elapsed:.2} s)",
        pairs as f64 / elapsed
    );
    println!("peak_rss_mb: {peak_mb:.1} MB (VmHWM of the benchmark process)");

    let metrics = if args.trace {
        let spans_path = crate::target_dir()
            .join("perfbench-work")
            .join(format!("paper_formation-{}-spans.tsv", args.seed));
        let _ = std::fs::create_dir_all(spans_path.parent().expect("has a parent"));
        if let Err(e) = rec.write_tsv(&spans_path) {
            println!("spans: not written ({e})");
        }
        println!(
            "trace: {pairs} traced formation pairs; {} spans in {}",
            rec.spans().len(),
            spans_path.display()
        );
        for (name, xs) in [("form.step1_ms", &step1_ms), ("form.step2_ms", &step2_ms)] {
            println!("{}", Summary::of(xs).expect("pairs ran").line(name, "ms"));
        }
        let vals: BTreeMap<&str, f64> = [
            ("form.step1_ms", median(&step1_ms)),
            ("form.step2_ms", median(&step2_ms)),
            ("form.buckets", median(&buckets)),
            ("datasets.corpus_ms", median(&corpus_ms)),
        ]
        .into_iter()
        .collect();
        crate::trace::per_layer(&vals)
    } else {
        vec![
            ("setup_s".into(), setup.p50, "s".into()),
            ("p50_ms".into(), calm, "ms".into()),
            ("peak_rss_mb".into(), peak_mb, "MB".into()),
        ]
    };
    Outcome {
        correct: gates.all_ok(),
        attempted: (2 * pairs) as u64,
        failed: 0,
        metrics,
    }
}
