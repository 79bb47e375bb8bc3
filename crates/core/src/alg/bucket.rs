//! Step 1 of the greedy algorithms: intermediate groups ("buckets").
//!
//! Every user is hashed by a key derived from her personal top-`k`
//! preference list; users with equal keys are *indistinguishable* to the
//! objective and form an intermediate group. What goes into the key is the
//! crux of Sections 4 and 5:
//!
//! | algorithm    | key                                             |
//! |--------------|-------------------------------------------------|
//! | `GRD-LM-MIN` | top-`k` item sequence + score of the `k`-th item |
//! | `GRD-LM-MAX` | top-`k` item sequence + score of the 1st item    |
//! | `GRD-LM-SUM` | top-`k` item sequence + all `k` scores           |
//! | `GRD-AV-*`   | top-`k` item sequence only                       |
//!
//! Each bucket maintains the per-position minimum and sum of its members'
//! scores; those are exactly the group's per-item scores under LM and AV
//! respectively (see the module docs of [`crate::alg`]), so a bucket's
//! satisfaction is read off in O(k) with no further passes over the data.

use crate::aggregate::{Aggregation, Pivot};
use crate::fxhash::FxHashMap;
use crate::grouprec::MissingPolicy;
use crate::matrix::RatingMatrix;
use crate::prefs::PrefIndex;
use crate::semantics::Semantics;
use std::cmp::Ordering;

/// Hash key identifying an intermediate group.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BucketKey {
    /// The top-`k` item sequence.
    pub items: Box<[u32]>,
    /// Bit patterns of the scores included in the key (empty for AV;
    /// pivot score for LM Min/Max; all `k` scores for LM Sum).
    pub score_bits: Box<[u64]>,
}

/// An intermediate group: users indistinguishable under the current key.
#[derive(Debug, Clone)]
pub struct Bucket {
    /// The shared top-`k` item sequence.
    pub items: Box<[u32]>,
    /// Member user ids, in insertion (ascending) order.
    pub users: Vec<u32>,
    /// Per-position minimum of member scores — the group's LM score of each
    /// item in the shared sequence.
    pub pos_min: Vec<f64>,
    /// Per-position sum of member scores — the group's AV score of each
    /// item in the shared sequence.
    pub pos_sum: Vec<f64>,
}

impl Bucket {
    /// Folds one member's personal score vector into the per-position
    /// aggregates. This is **the** accumulation every bucket builder
    /// shares — sequential and threaded Step 1, split-aware rebuilds, and
    /// the incremental former's touched-bucket recomputation — so the
    /// "bit-for-bit equal to `build_buckets`" contracts all hang off a
    /// single fold (min is order-independent; sums must run in the same
    /// member order to be bit-identical off-grid).
    pub(crate) fn accumulate_scores(&mut self, scores: &[f64]) {
        for (slot, &s) in scores.iter().enumerate() {
            self.pos_min[slot] = self.pos_min[slot].min(s);
            self.pos_sum[slot] += s;
        }
    }

    /// The group's per-item score vector under `semantics` for the shared
    /// top-`k` sequence (non-increasing by construction).
    ///
    /// For the moment-based semantics (Consensus, LeaderWeighted) the
    /// bucket key carries the full score bits ([`key_for`]), so every
    /// member's personal score at each position is identical and equals
    /// `pos_min`; a consensus over identical values has zero disagreement
    /// and a leader-weighted average of identical values is that value —
    /// both group scores collapse to `pos_min` exactly.
    pub fn score_vector(&self, semantics: Semantics) -> &[f64] {
        match semantics {
            Semantics::LeastMisery => &self.pos_min,
            Semantics::AggregateVoting => &self.pos_sum,
            Semantics::Consensus { .. } | Semantics::LeaderWeighted => &self.pos_min,
        }
    }

    /// The bucket's group satisfaction under `semantics` + `agg`.
    pub fn satisfaction(&self, semantics: Semantics, agg: Aggregation) -> f64 {
        agg.apply(self.score_vector(semantics))
    }
}

/// A user's personal top-`k` list, padded to length `k` when the user rated
/// fewer than `k` items: unrated items are appended in ascending id order at
/// the policy's imputed score (merged so that rated items scoring exactly
/// the imputed value keep the global (score desc, id asc) order).
pub fn personal_top_k(
    matrix: &RatingMatrix,
    prefs: &PrefIndex,
    policy: MissingPolicy,
    u: u32,
    k: usize,
) -> (Vec<u32>, Vec<f64>) {
    let (items, scores) = prefs.top_k(u, k);
    let m = matrix.n_items() as usize;
    let want = k.min(m);
    if items.len() >= want {
        return (items.to_vec(), scores.to_vec());
    }
    // Sparse user: merge the rated list with a floor stream of unrated ids.
    let imputed = match policy {
        MissingPolicy::Min | MissingPolicy::Skip => matrix.scale().min(),
        MissingPolicy::UserMean => matrix.user_mean(u),
    };
    let rated_all = prefs.ranked_items(u);
    let rated_scores_all = prefs.ranked_scores(u);
    let rated: crate::fxhash::FxHashSet<u32> = rated_all.iter().copied().collect();
    let mut out_items = Vec::with_capacity(want);
    let mut out_scores = Vec::with_capacity(want);
    let mut ri = 0usize;
    let mut next_floor = 0u32;
    while out_items.len() < want {
        while (next_floor as usize) < m && rated.contains(&next_floor) {
            next_floor += 1;
        }
        let take_rated = if ri < rated_all.len() {
            if (next_floor as usize) >= m {
                true
            } else {
                let (it, sc) = (rated_all[ri], rated_scores_all[ri]);
                sc > imputed || (sc == imputed && it < next_floor)
            }
        } else {
            false
        };
        if take_rated {
            out_items.push(rated_all[ri]);
            out_scores.push(rated_scores_all[ri]);
            ri += 1;
        } else if (next_floor as usize) < m {
            out_items.push(next_floor);
            out_scores.push(imputed);
            next_floor += 1;
        } else {
            break;
        }
    }
    (out_items, out_scores)
}

/// Builds the bucket key for one user under the configured semantics and
/// aggregation.
pub fn key_for(
    semantics: Semantics,
    aggregation: Aggregation,
    items: &[u32],
    scores: &[f64],
) -> BucketKey {
    let score_bits: Box<[u64]> = match semantics {
        Semantics::AggregateVoting => Box::default(),
        Semantics::LeastMisery => match aggregation.pivot(items.len().max(1)) {
            Pivot::Position(p) => {
                let p = p.min(scores.len().saturating_sub(1));
                scores
                    .get(p)
                    .map(|s| vec![s.to_bits()].into_boxed_slice())
                    .unwrap_or_default()
            }
            Pivot::All => scores.iter().map(|s| s.to_bits()).collect(),
        },
        // Moment-based semantics: bucket only users whose whole score
        // vector matches, so within a bucket every position is unanimous
        // and the group score collapses to the shared personal score
        // (zero consensus disagreement; leader-weighted mean of equals).
        Semantics::Consensus { .. } | Semantics::LeaderWeighted => {
            scores.iter().map(|s| s.to_bits()).collect()
        }
    };
    BucketKey {
        items: items.into(),
        score_bits,
    }
}

/// Hashes one user into the bucket map.
#[allow(clippy::too_many_arguments)] // private helper: build_buckets' arguments plus (map, u)
fn insert_user(
    map: &mut FxHashMap<BucketKey, Bucket>,
    matrix: &RatingMatrix,
    prefs: &PrefIndex,
    semantics: Semantics,
    aggregation: Aggregation,
    policy: MissingPolicy,
    k: usize,
    u: u32,
) {
    let (items, scores) = personal_top_k(matrix, prefs, policy, u, k);
    let key = key_for(semantics, aggregation, &items, &scores);
    match map.entry(key) {
        std::collections::hash_map::Entry::Occupied(mut e) => {
            let b = e.get_mut();
            b.users.push(u);
            b.accumulate_scores(&scores);
        }
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(Bucket {
                items: items.into(),
                users: vec![u],
                pos_min: scores.clone(),
                pos_sum: scores,
            });
        }
    }
}

/// Runs Step 1: hashes every user into buckets. Returns the buckets in
/// arbitrary order (callers sort or heapify with [`bucket_order`]).
pub fn build_buckets(
    matrix: &RatingMatrix,
    prefs: &PrefIndex,
    semantics: Semantics,
    aggregation: Aggregation,
    policy: MissingPolicy,
    k: usize,
) -> Vec<Bucket> {
    build_sharded(matrix, prefs, semantics, aggregation, policy, k, 1)
        .into_values()
        .collect()
}

/// Runs Step 1 with `n_threads` scoped worker threads (`0` = auto, see
/// [`crate::resolve_threads`]): each worker builds a private bucket map over
/// a contiguous range of user ids, and the per-shard maps are merged in
/// shard order.
///
/// The merge is exact: member lists concatenate back into ascending user
/// order (shards are contiguous and ascending), per-position minima compose
/// associatively, and per-position sums accumulate shard partials in shard
/// order. Sums are therefore bit-for-bit identical to [`build_buckets`]
/// whenever member scores sit on a rating grid (integers or half-stars —
/// any dyadic step, where f64 addition is exact at these magnitudes); the
/// one exception is [`MissingPolicy::UserMean`] padding of sparse users,
/// whose imputed means may be non-dyadic and can perturb `pos_sum` by a
/// final-bit rounding across a shard boundary. `pos_min`, membership and
/// bucket keys are identical unconditionally.
pub fn build_buckets_threaded(
    matrix: &RatingMatrix,
    prefs: &PrefIndex,
    semantics: Semantics,
    aggregation: Aggregation,
    policy: MissingPolicy,
    k: usize,
    n_threads: usize,
) -> Vec<Bucket> {
    build_sharded(matrix, prefs, semantics, aggregation, policy, k, n_threads)
        .into_values()
        .collect()
}

/// Step-1 build that keeps the bucket map, keys included — what a
/// standing [`IncrementalFormer`](super::IncrementalFormer) needs to keep
/// its bucket state patchable. Threaded exactly like
/// [`build_buckets_threaded`] (same sharding, same merge, same bit-for-bit
/// caveats); the sequential path (`threads <= 1`) inserts users in
/// ascending id order, matching [`build_buckets`] unconditionally.
pub fn build_bucket_map_threaded(
    matrix: &RatingMatrix,
    prefs: &PrefIndex,
    semantics: Semantics,
    aggregation: Aggregation,
    policy: MissingPolicy,
    k: usize,
    n_threads: usize,
) -> FxHashMap<BucketKey, Bucket> {
    build_sharded(matrix, prefs, semantics, aggregation, policy, k, n_threads)
}

/// The one Step-1 builder behind the three public ones: hashes users
/// `0..n` into a bucket map on `n_threads` workers over contiguous user
/// ranges and merges the shard maps in shard order.
fn build_sharded(
    matrix: &RatingMatrix,
    prefs: &PrefIndex,
    semantics: Semantics,
    aggregation: Aggregation,
    policy: MissingPolicy,
    k: usize,
    n_threads: usize,
) -> FxHashMap<BucketKey, Bucket> {
    let n = matrix.n_users() as usize;
    let threads = crate::resolve_threads(n_threads, n);
    let build_range = |range: std::ops::Range<usize>| {
        let mut map: FxHashMap<BucketKey, Bucket> = FxHashMap::default();
        for u in range {
            insert_user(
                &mut map,
                matrix,
                prefs,
                semantics,
                aggregation,
                policy,
                k,
                u as u32,
            );
        }
        map
    };
    if threads <= 1 {
        return build_range(0..n);
    }
    let build_range = &build_range;
    let shards: Vec<FxHashMap<BucketKey, Bucket>> = std::thread::scope(|scope| {
        let handles: Vec<_> = crate::threads::even_ranges(n, threads)
            .into_iter()
            .map(|range| scope.spawn(move || build_range(range)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bucket worker panicked"))
            .collect()
    });
    let mut merged: FxHashMap<BucketKey, Bucket> = FxHashMap::default();
    for map in shards {
        for (key, shard_bucket) in map {
            match merged.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let b = e.get_mut();
                    b.users.extend_from_slice(&shard_bucket.users);
                    for (slot, (&mn, &sm)) in shard_bucket
                        .pos_min
                        .iter()
                        .zip(shard_bucket.pos_sum.iter())
                        .enumerate()
                    {
                        b.pos_min[slot] = b.pos_min[slot].min(mn);
                        b.pos_sum[slot] += sm;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(shard_bucket);
                }
            }
        }
    }
    merged
}

/// `(items, users, pos_min bits, pos_sum bits)` — one bucket in the
/// projection of [`canonical_buckets`].
#[doc(hidden)]
pub type CanonicalBucket = (Vec<u32>, Vec<u32>, Vec<u64>, Vec<u64>);

/// Test support: a canonical, order-independent view of a bucket set with
/// scores projected to their exact bit patterns, so the unit and property
/// suites can assert threaded == sequential building bit-for-bit without
/// each keeping its own copy of this projection.
#[doc(hidden)]
pub fn canonical_buckets(buckets: Vec<Bucket>) -> Vec<CanonicalBucket> {
    let mut out: Vec<_> = buckets
        .into_iter()
        .map(|b| {
            (
                b.items.to_vec(),
                b.users,
                b.pos_min.iter().map(|s| s.to_bits()).collect::<Vec<u64>>(),
                b.pos_sum.iter().map(|s| s.to_bits()).collect::<Vec<u64>>(),
            )
        })
        .collect();
    out.sort();
    out
}

/// The deterministic ordering used to pick buckets in Step 2: higher
/// satisfaction first; ties broken by the group score vector
/// (lexicographically descending), then larger bucket, then ascending item
/// sequence, then smallest member id. This ordering reproduces every worked
/// example in the paper (Examples 1, 2, 5 and Appendix B).
pub fn bucket_order(a: &Bucket, b: &Bucket, semantics: Semantics, agg: Aggregation) -> Ordering {
    let sa = a.satisfaction(semantics, agg);
    let sb = b.satisfaction(semantics, agg);
    sb.total_cmp(&sa)
        .then_with(|| {
            let va = a.score_vector(semantics);
            let vb = b.score_vector(semantics);
            for (x, y) in va.iter().zip(vb.iter()) {
                match y.total_cmp(x) {
                    Ordering::Equal => continue,
                    ord => return ord,
                }
            }
            vb.len().cmp(&va.len())
        })
        .then_with(|| b.users.len().cmp(&a.users.len()))
        .then_with(|| a.items.cmp(&b.items))
        .then_with(|| a.users.first().cmp(&b.users.first()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::RatingScale;

    fn example1() -> (RatingMatrix, PrefIndex) {
        let m = RatingMatrix::from_dense(
            &[
                &[1.0, 4.0, 3.0][..],
                &[2.0, 3.0, 5.0],
                &[2.0, 5.0, 1.0],
                &[2.0, 5.0, 1.0],
                &[3.0, 1.0, 1.0],
                &[1.0, 2.0, 5.0],
            ],
            RatingScale::one_to_five(),
        )
        .unwrap();
        let p = PrefIndex::build(&m);
        (m, p)
    }

    fn bucket_users(mut buckets: Vec<Bucket>) -> Vec<Vec<u32>> {
        for b in &mut buckets {
            b.users.sort_unstable();
        }
        let mut users: Vec<Vec<u32>> = buckets.into_iter().map(|b| b.users).collect();
        users.sort();
        users
    }

    #[test]
    fn lm_min_k1_buckets_match_paper() {
        // Paper: {u2,u6} on i3, {u3,u4} on i2, singletons {u1}, {u5}.
        let (m, p) = example1();
        let buckets = build_buckets(
            &m,
            &p,
            Semantics::LeastMisery,
            Aggregation::Min,
            MissingPolicy::Min,
            1,
        );
        assert_eq!(
            bucket_users(buckets),
            vec![vec![0], vec![1, 5], vec![2, 3], vec![4]]
        );
    }

    #[test]
    fn lm_min_k2_buckets_match_paper() {
        // Paper: only {u3,u4} bundle for k = 2 (u2 and u6 share the top-2
        // sequence (i3; i2) but have different bottom scores 3 vs 2).
        let (m, p) = example1();
        let buckets = build_buckets(
            &m,
            &p,
            Semantics::LeastMisery,
            Aggregation::Min,
            MissingPolicy::Min,
            2,
        );
        assert_eq!(
            bucket_users(buckets),
            vec![vec![0], vec![1], vec![2, 3], vec![4], vec![5]]
        );
    }

    #[test]
    fn av_buckets_ignore_scores() {
        // Under AV, u2 and u6 share the sequence (i3; i2) and bundle even
        // though their scores differ.
        let (m, p) = example1();
        let buckets = build_buckets(
            &m,
            &p,
            Semantics::AggregateVoting,
            Aggregation::Min,
            MissingPolicy::Min,
            2,
        );
        let users = bucket_users(buckets);
        assert!(users.contains(&vec![1, 5]));
        assert!(users.contains(&vec![2, 3]));
    }

    #[test]
    fn av_produces_no_more_buckets_than_lm() {
        // Section 5 observation (1): AV keys are coarser than LM keys.
        let (m, p) = example1();
        for k in 1..=3 {
            let lm = build_buckets(
                &m,
                &p,
                Semantics::LeastMisery,
                Aggregation::Sum,
                MissingPolicy::Min,
                k,
            );
            let av = build_buckets(
                &m,
                &p,
                Semantics::AggregateVoting,
                Aggregation::Sum,
                MissingPolicy::Min,
                k,
            );
            assert!(av.len() <= lm.len(), "k={k}: {} > {}", av.len(), lm.len());
        }
    }

    #[test]
    fn bucket_vectors_track_min_and_sum() {
        let (m, p) = example1();
        let buckets = build_buckets(
            &m,
            &p,
            Semantics::AggregateVoting,
            Aggregation::Min,
            MissingPolicy::Min,
            2,
        );
        let b = buckets
            .iter()
            .find(|b| {
                let mut u = b.users.clone();
                u.sort_unstable();
                u == vec![2, 3]
            })
            .unwrap();
        // u3 = u4 = (i2: 5, i1: 2).
        assert_eq!(b.items.as_ref(), &[1, 0]);
        assert_eq!(b.pos_min, vec![5.0, 2.0]);
        assert_eq!(b.pos_sum, vec![10.0, 4.0]);
        assert_eq!(
            b.satisfaction(Semantics::AggregateVoting, Aggregation::Min),
            4.0
        );
        assert_eq!(
            b.satisfaction(Semantics::AggregateVoting, Aggregation::Sum),
            14.0
        );
    }

    #[test]
    fn personal_top_k_pads_sparse_users() {
        let m = RatingMatrix::from_triples(
            1,
            5,
            vec![(0, 2, 4.0), (0, 4, 1.0)],
            RatingScale::one_to_five(),
        )
        .unwrap();
        let p = PrefIndex::build(&m);
        let (items, scores) = personal_top_k(&m, &p, MissingPolicy::Min, 0, 4);
        // Rated: i2 (4.0), i4 (1.0). Floor items i0, i1 at r_min = 1 tie
        // with the rated i4 at 1.0; ids 0 and 1 come before 4.
        assert_eq!(items, vec![2, 0, 1, 3]);
        assert_eq!(scores, vec![4.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn personal_top_k_with_user_mean_padding() {
        let m = RatingMatrix::from_triples(
            1,
            4,
            vec![(0, 1, 5.0), (0, 3, 1.0)],
            RatingScale::one_to_five(),
        )
        .unwrap();
        let p = PrefIndex::build(&m);
        // Mean = 3.0: imputed items (i0, i2) outrank the rated i3 = 1.0.
        let (items, scores) = personal_top_k(&m, &p, MissingPolicy::UserMean, 0, 4);
        assert_eq!(items, vec![1, 0, 2, 3]);
        assert_eq!(scores, vec![5.0, 3.0, 3.0, 1.0]);
    }

    #[test]
    fn personal_top_k_caps_at_m() {
        let m = RatingMatrix::from_dense(&[&[3.0, 2.0]], RatingScale::one_to_five()).unwrap();
        let p = PrefIndex::build(&m);
        let (items, _) = personal_top_k(&m, &p, MissingPolicy::Min, 0, 10);
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn key_for_pivots() {
        let items = [7u32, 3, 9];
        let scores = [5.0, 4.0, 2.0];
        let k_min = key_for(Semantics::LeastMisery, Aggregation::Min, &items, &scores);
        assert_eq!(k_min.score_bits.as_ref(), &[2.0f64.to_bits()]);
        let k_max = key_for(Semantics::LeastMisery, Aggregation::Max, &items, &scores);
        assert_eq!(k_max.score_bits.as_ref(), &[5.0f64.to_bits()]);
        let k_sum = key_for(Semantics::LeastMisery, Aggregation::Sum, &items, &scores);
        assert_eq!(k_sum.score_bits.len(), 3);
        let k_av = key_for(
            Semantics::AggregateVoting,
            Aggregation::Min,
            &items,
            &scores,
        );
        assert!(k_av.score_bits.is_empty());
    }

    use super::canonical_buckets as canonical;

    #[test]
    fn threaded_matches_sequential_bit_for_bit() {
        // n = 0 is unconstructible (MatrixBuilder rejects empty matrices),
        // so the edge grid starts at a single user.
        use crate::scale::RatingScale;
        for n in [1u32, 2, 17] {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|u| {
                    (0..5)
                        .map(|i| 1.0 + ((u as usize * 7 + i * 3) % 5) as f64)
                        .collect()
                })
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let m = RatingMatrix::from_dense(&refs, RatingScale::one_to_five()).unwrap();
            let p = PrefIndex::build(&m);
            for sem in Semantics::all() {
                for agg in Aggregation::paper_set() {
                    for k in [1usize, 3] {
                        let seq = build_buckets(&m, &p, sem, agg, MissingPolicy::Min, k);
                        for threads in [1usize, 2, 7] {
                            let par = build_buckets_threaded(
                                &m,
                                &p,
                                sem,
                                agg,
                                MissingPolicy::Min,
                                k,
                                threads,
                            );
                            assert_eq!(
                                canonical(seq.clone()),
                                canonical(par),
                                "n={n} {sem} {agg} k={k} threads={threads}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn threaded_handles_sparse_users_and_all_policies() {
        let m = RatingMatrix::from_triples(
            17,
            6,
            (0..17u32)
                .filter(|&u| u % 3 != 2)
                .map(|u| (u, u % 6, 1.0 + (u % 5) as f64)),
            RatingScale::one_to_five(),
        )
        .unwrap();
        let p = PrefIndex::build(&m);
        for policy in [
            MissingPolicy::Min,
            MissingPolicy::Skip,
            MissingPolicy::UserMean,
        ] {
            let seq = build_buckets(&m, &p, Semantics::LeastMisery, Aggregation::Sum, policy, 2);
            for threads in [2usize, 7] {
                let par = build_buckets_threaded(
                    &m,
                    &p,
                    Semantics::LeastMisery,
                    Aggregation::Sum,
                    policy,
                    2,
                    threads,
                );
                // Membership, keys and minima are identical for every
                // policy; with integer ratings the imputed scores here are
                // dyadic too, so sums are bit-for-bit as well.
                assert_eq!(
                    canonical(seq.clone()),
                    canonical(par),
                    "{policy:?} x{threads}"
                );
            }
        }
    }

    #[test]
    fn order_prefers_higher_satisfaction_then_vector() {
        let mk = |users: Vec<u32>, scores: Vec<f64>| Bucket {
            items: vec![0, 1].into(),
            users,
            pos_min: scores.clone(),
            pos_sum: scores,
        };
        let a = mk(vec![0, 1], vec![5.0, 2.0]); // sum 7, vector (5,2)
        let b = mk(vec![2], vec![4.0, 3.0]); // sum 7, vector (4,3)
        let c = mk(vec![3], vec![5.0, 3.0]); // sum 8
        let sem = Semantics::LeastMisery;
        let agg = Aggregation::Sum;
        assert_eq!(bucket_order(&c, &a, sem, agg), Ordering::Less); // c first
        assert_eq!(bucket_order(&a, &b, sem, agg), Ordering::Less); // (5,2) > (4,3) lexicographically
                                                                    // Equal vector: larger bucket first.
        let d = mk(vec![4], vec![5.0, 2.0]);
        assert_eq!(bucket_order(&a, &d, sem, agg), Ordering::Less);
    }
}
