//! Step 1 against a naive reference: every user's owned top-`k` list
//! ([`personal_top_k`]) and owned key ([`key_for`]) inserted, in ascending
//! user order, into a `BTreeMap`. The bucket table must produce the same
//! buckets, keys and score vectors for every policy, semantics,
//! aggregation and thread count, on sparse matrices whose users often
//! rated fewer than `k` items (padded lists), with `k` past `m`, and on
//! duplicate-heavy matrices where most users share a key.

use gf_core::alg::bucket::{
    build_buckets_threaded, canonical_buckets, key_for, personal_top_k, Bucket,
};
use gf_core::{
    Aggregation, MissingPolicy, PrefIndex, RatingMatrix, RatingScale, Semantics, WeightScheme,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn reference(
    matrix: &RatingMatrix,
    prefs: &PrefIndex,
    semantics: Semantics,
    aggregation: Aggregation,
    policy: MissingPolicy,
    k: usize,
) -> Vec<Bucket> {
    let mut map: BTreeMap<(Vec<u32>, Vec<u64>), Bucket> = BTreeMap::new();
    for u in 0..matrix.n_users() {
        let (items, scores) = personal_top_k(matrix, prefs, policy, u, k);
        let key = key_for(semantics, aggregation, &items, &scores);
        let b = map
            .entry((key.items.to_vec(), key.score_bits.to_vec()))
            .or_insert_with(|| Bucket {
                items: key.items.clone(),
                users: Vec::new(),
                pos_min: vec![f64::INFINITY; scores.len()],
                pos_sum: vec![0.0; scores.len()],
            });
        b.users.push(u);
        for (slot, &s) in scores.iter().enumerate() {
            b.pos_min[slot] = b.pos_min[slot].min(s);
            b.pos_sum[slot] += s;
        }
    }
    map.into_values().collect()
}

/// A random matrix: `sparse` users rate each item with probability 1/3
/// (many rate fewer than `k`, some nothing), otherwise every user copies
/// one of three rows (most users share a key).
fn instance(rng: &mut SmallRng, sparse: bool) -> RatingMatrix {
    let n = rng.gen_range(1..60u32);
    let m = rng.gen_range(1..9u32);
    let mut triples = Vec::new();
    if sparse {
        for u in 0..n {
            for i in 0..m {
                if rng.gen_range(0..3) == 0 {
                    triples.push((u, i, rng.gen_range(2..=10) as f64 / 2.0));
                }
            }
        }
    } else {
        let rows: Vec<Vec<(u32, f64)>> = (0..3)
            .map(|_| {
                (0..m)
                    .filter_map(|i| {
                        let s = rng.gen_range(0..=5);
                        (s > 0).then_some((i, s as f64))
                    })
                    .collect()
            })
            .collect();
        for u in 0..n {
            let row = &rows[rng.gen_range(0..rows.len())];
            triples.extend(row.iter().map(|&(i, s)| (u, i, s)));
        }
    }
    RatingMatrix::from_triples(n, m, triples, RatingScale::one_to_five()).unwrap()
}

#[test]
fn bucket_table_equals_the_naive_reference() {
    let mut rng = SmallRng::seed_from_u64(2015);
    let aggregations = [
        Aggregation::Min,
        Aggregation::Max,
        Aggregation::Sum,
        Aggregation::WeightedSum(WeightScheme::InverseLog2),
    ];
    let mut padded = 0usize;
    for trial in 0..48 {
        let matrix = instance(&mut rng, trial % 2 == 0);
        let prefs = PrefIndex::build(&matrix);
        let m = matrix.n_items() as usize;
        let k = rng.gen_range(1..m + 3);
        padded += (0..matrix.n_users())
            .filter(|&u| matrix.degree(u) < k.min(m))
            .count();
        for policy in [
            MissingPolicy::Min,
            MissingPolicy::Skip,
            MissingPolicy::UserMean,
        ] {
            for semantics in Semantics::all() {
                for aggregation in aggregations {
                    let want = canonical_buckets(reference(
                        &matrix,
                        &prefs,
                        semantics,
                        aggregation,
                        policy,
                        k,
                    ));
                    for threads in [1, 2, 7] {
                        let got = canonical_buckets(build_buckets_threaded(
                            &matrix,
                            &prefs,
                            semantics,
                            aggregation,
                            policy,
                            k,
                            threads,
                        ));
                        let case = format!(
                            "trial {trial} {policy:?} {semantics} {aggregation} k={k} x{threads}"
                        );
                        if threads == 1 || policy != MissingPolicy::UserMean {
                            assert_eq!(got, want, "{case}");
                            continue;
                        }
                        // Sharded sums of imputed user means are exact up
                        // to a final-bit rounding across a shard boundary
                        // (see `build_buckets_threaded`); everything else
                        // is exact.
                        assert_eq!(got.len(), want.len(), "{case}");
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!((&g.0, &g.1, &g.2), (&w.0, &w.1, &w.2), "{case}");
                            for (&a, &b) in g.3.iter().zip(&w.3) {
                                let (a, b) = (f64::from_bits(a), f64::from_bits(b));
                                assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{case}");
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(padded > 100, "only {padded} padded users exercised");
}
