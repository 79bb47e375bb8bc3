//! Figure 4(a–c) — running time of group formation under LM
//! (Min-aggregation) on the Yahoo!-shaped corpus, varying # users
//! {1k … 200k}, # items {10k … 100k} and # groups {10 … 10k}.
//! Defaults: 100,000 users, 10,000 items, 10 groups, k = 5
//! (÷10 under the default `GF_BENCH_SCALE=quick`).
//!
//! Paper shape: GRD-LM-MIN is linear in users and groups, insensitive to
//! items, and always far below the clustering baseline, which grows
//! super-linearly in users and is sensitive to items.
//!
//! Beyond the paper: the `INC-GRD` column forms the same grouping through
//! [`gf_core::IncrementalFormer::new`], the formation `gf-serve` runs on
//! boot and on every cold refresh, so its gap to GRD is the price of the
//! standing bucket state. Both columns use threaded Step-1 bucket
//! building (`n_threads = 0` = auto).

use gf_bench::{
    baseline_kmeans, grd, grd_incremental, run, scalability_instance, ScalabilityDefaults, Scale,
};
use gf_core::{Aggregation, FormationConfig, Semantics};
use gf_datasets::SynthConfig;
use gf_eval::table::fmt_duration;
use gf_eval::Table;

/// The baseline's centroid storage is ℓ×m floats; skip hopeless points.
fn baseline_feasible(ell: usize, m: u32) -> bool {
    (ell as u64) * (m as u64) <= 50_000_000
}

fn main() {
    let scale = Scale::from_env();
    let d = ScalabilityDefaults::get(scale);
    let cfg0 =
        FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, d.k, d.ell).with_threads(0);

    // Figure 4(a): vary # users.
    let mut table = Table::new(
        &format!(
            "Fig 4(a): run time vs # users (LM-Min, items={}, groups=10, k=5, scale {scale:?})",
            d.n_items
        ),
        &["# users", "GRD-LM-MIN", "INC-GRD-LM-MIN", "Baseline-LM-MIN"],
    );
    for n in [1_000u32, 10_000, 100_000, 200_000] {
        let n = scale.shrink(n as usize, 10) as u32;
        let inst = scalability_instance(SynthConfig::yahoo_music(), n, d.n_items, 51);
        let g = run(grd().as_ref(), &inst, &cfg0, 1);
        let inc = run(grd_incremental().as_ref(), &inst, &cfg0, 1);
        let b = run(baseline_kmeans(d.kmeans_iters).as_ref(), &inst, &cfg0, 1);
        table.push_row(vec![
            n.to_string(),
            fmt_duration(g.elapsed),
            fmt_duration(inc.elapsed),
            fmt_duration(b.elapsed),
        ]);
    }
    println!("{table}");

    // Figure 4(b): vary # items.
    let mut table = Table::new(
        &format!(
            "Fig 4(b): run time vs # items (LM-Min, users={}, groups=10, k=5)",
            d.n_users
        ),
        &["# items", "GRD-LM-MIN", "INC-GRD-LM-MIN", "Baseline-LM-MIN"],
    );
    for m in [10_000u32, 25_000, 50_000, 100_000] {
        let m = scale.shrink(m as usize, 10) as u32;
        let inst = scalability_instance(SynthConfig::yahoo_music(), d.n_users, m, 52);
        let g = run(grd().as_ref(), &inst, &cfg0, 1);
        let inc = run(grd_incremental().as_ref(), &inst, &cfg0, 1);
        let b = run(baseline_kmeans(d.kmeans_iters).as_ref(), &inst, &cfg0, 1);
        table.push_row(vec![
            m.to_string(),
            fmt_duration(g.elapsed),
            fmt_duration(inc.elapsed),
            fmt_duration(b.elapsed),
        ]);
    }
    println!("{table}");

    // Figure 4(c): vary # groups.
    let inst = scalability_instance(SynthConfig::yahoo_music(), d.n_users, d.n_items, 53);
    let mut table = Table::new(
        &format!(
            "Fig 4(c): run time vs # groups (LM-Min, users={}, items={}, k=5)",
            d.n_users, d.n_items
        ),
        &[
            "# groups",
            "GRD-LM-MIN",
            "INC-GRD-LM-MIN",
            "Baseline-LM-MIN",
        ],
    );
    for ell in [10usize, 100, 1_000, 10_000] {
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, d.k, ell)
            .with_threads(0);
        let g = run(grd().as_ref(), &inst, &cfg, 1);
        let inc = run(grd_incremental().as_ref(), &inst, &cfg, 1);
        let b = if baseline_feasible(ell, inst.matrix.n_items()) {
            fmt_duration(run(baseline_kmeans(d.kmeans_iters).as_ref(), &inst, &cfg, 1).elapsed)
        } else {
            "(skipped: centroids too large)".to_string()
        };
        table.push_row(vec![
            ell.to_string(),
            fmt_duration(g.elapsed),
            fmt_duration(inc.elapsed),
            b,
        ]);
    }
    println!("{table}");
    println!("paper shape: GRD linear in users/groups, flat in items; baseline dominates it.");
}
