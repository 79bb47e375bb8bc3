//! Figure 6(a–c) — running time of group formation under AV
//! (Min-aggregation), varying # users, # items and # groups; the AV
//! counterpart of Figure 4.
//!
//! Paper shape: same trends as LM with a slightly higher constant for GRD
//! (AV aggregates the satisfaction of every member), and a baseline that is
//! insensitive to the semantics (clustering ignores them).
//!
//! As in Figure 4, the `INC-GRD` column forms the same grouping through
//! [`gf_core::IncrementalFormer::new`] (what `gf-serve` runs on boot and
//! on every cold refresh), and both columns use auto-threaded Step-1
//! bucket building.

use gf_bench::{
    baseline_kmeans, grd, grd_incremental, run, scalability_instance, ScalabilityDefaults, Scale,
};
use gf_core::{Aggregation, FormationConfig, Semantics};
use gf_datasets::SynthConfig;
use gf_eval::table::fmt_duration;
use gf_eval::Table;

fn baseline_feasible(ell: usize, m: u32) -> bool {
    (ell as u64) * (m as u64) <= 50_000_000
}

fn main() {
    let scale = Scale::from_env();
    let d = ScalabilityDefaults::get(scale);
    let cfg0 = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Min, d.k, d.ell)
        .with_threads(0);

    let mut table = Table::new(
        &format!(
            "Fig 6(a): run time vs # users (AV-Min, items={}, groups=10, k=5, scale {scale:?})",
            d.n_items
        ),
        &["# users", "GRD-AV-MIN", "INC-GRD-AV-MIN", "Baseline-AV-MIN"],
    );
    for n in [1_000u32, 10_000, 100_000, 200_000] {
        let n = scale.shrink(n as usize, 10) as u32;
        let inst = scalability_instance(SynthConfig::yahoo_music(), n, d.n_items, 71);
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

    let mut table = Table::new(
        &format!(
            "Fig 6(b): run time vs # items (AV-Min, users={}, groups=10, k=5)",
            d.n_users
        ),
        &["# items", "GRD-AV-MIN", "INC-GRD-AV-MIN", "Baseline-AV-MIN"],
    );
    for m in [10_000u32, 25_000, 50_000, 100_000] {
        let m = scale.shrink(m as usize, 10) as u32;
        let inst = scalability_instance(SynthConfig::yahoo_music(), d.n_users, m, 72);
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

    let inst = scalability_instance(SynthConfig::yahoo_music(), d.n_users, d.n_items, 73);
    let mut table = Table::new(
        &format!(
            "Fig 6(c): run time vs # groups (AV-Min, users={}, items={}, k=5)",
            d.n_users, d.n_items
        ),
        &[
            "# groups",
            "GRD-AV-MIN",
            "INC-GRD-AV-MIN",
            "Baseline-AV-MIN",
        ],
    );
    for ell in [10usize, 100, 1_000, 10_000] {
        let cfg = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Min, d.k, ell)
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
    println!("paper shape: like Fig 4 with a higher GRD constant under AV.");
}
