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
//!
//! Step 1 ([`build_buckets`]) costs `O(nk)`: it reads each user's key
//! twice in place, makes one fingerprint-map lookup per user, and touches
//! two per-bucket records per user — its key and member count, and its
//! score vectors — in arrays sized once, for exactly the buckets the first
//! read found.

use crate::aggregate::{Aggregation, Pivot};
use crate::fxhash::FxHashMap;
use crate::grouping::Group;
use crate::grouprec::MissingPolicy;
use crate::matrix::RatingMatrix;
use crate::prefs::PrefIndex;
use crate::semantics::Semantics;
use std::cmp::Ordering;
use std::hash::Hasher;

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
#[derive(Debug, Clone, Default)]
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
    /// A bucket holding user `u` alone, with top-`k` list `items` scored
    /// `scores`.
    pub(crate) fn of_user(u: u32, items: &[u32], scores: &[f64]) -> Self {
        Bucket {
            items: items.into(),
            users: vec![u],
            pos_min: scores.to_vec(),
            pos_sum: scores.to_vec(),
        }
    }

    /// Folds one member's personal score vector into the per-position
    /// aggregates (see [`fold_scores`]): how the tests' reference
    /// formations rebuild a split bucket.
    #[cfg(test)]
    pub(crate) fn accumulate_scores(&mut self, scores: &[f64]) {
        fold_scores(&mut self.pos_min, &mut self.pos_sum, scores, scores);
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

    /// The output group this bucket forms. Its shared item sequence *is*
    /// the group's recommended top-`k` list, scored by its score vector.
    pub(crate) fn into_group(mut self, cfg: &super::FormationConfig) -> Group {
        let satisfaction = self.satisfaction(cfg.semantics, cfg.aggregation);
        let vector = self.score_vector(cfg.semantics);
        let top_k = self
            .items
            .iter()
            .copied()
            .zip(vector.iter().copied())
            .collect();
        self.users.sort_unstable();
        Group {
            members: self.users.into(),
            top_k,
            satisfaction,
        }
    }

    /// What [`bucket_order`] compares of this bucket.
    pub(crate) fn ranked(&self, semantics: Semantics) -> Ranked<'_> {
        Ranked {
            scores: self.score_vector(semantics),
            size: self.users.len(),
            items: &self.items,
            first: self.users.first().copied(),
        }
    }
}

/// Folds per-position minima `mins` and sums `sums` into a bucket's
/// `pos_min` and `pos_sum`: one member's personal scores (passed as both),
/// or a Step-1 shard's partial aggregates. This is **the** accumulation
/// every bucket build shares — sequential and threaded Step 1,
/// split-aware rebuilds, and the incremental former's touched-bucket
/// recomputation — so the "bit-for-bit equal to `build_buckets`"
/// contracts all hang off a single fold (min is order-independent; sums
/// must run in the same member order to be bit-identical off-grid).
fn fold_scores(pos_min: &mut [f64], pos_sum: &mut [f64], mins: &[f64], sums: &[f64]) {
    for (slot, (&mn, &sm)) in mins.iter().zip(sums).enumerate() {
        pos_min[slot] = pos_min[slot].min(mn);
        pos_sum[slot] += sm;
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
    let mut pad = Padding::default();
    let (items, scores) = pad.top_k(matrix, prefs, policy, u, k);
    (items.to_vec(), scores.to_vec())
}

/// Buffers a sparse user's padded top-`k` list is built in, reused from
/// user to user.
#[derive(Debug, Default)]
struct Padding {
    items: Vec<u32>,
    scores: Vec<f64>,
    /// The user's rated item ids, ascending.
    rated: Vec<u32>,
}

impl Padding {
    /// User `u`'s [`personal_top_k`] list: borrowed from `prefs` when `u`
    /// rated at least `min(k, m)` items, else padded into `self`.
    fn top_k<'s>(
        &'s mut self,
        matrix: &RatingMatrix,
        prefs: &'s PrefIndex,
        policy: MissingPolicy,
        u: u32,
        k: usize,
    ) -> (&'s [u32], &'s [f64]) {
        let (items, scores) = prefs.top_k(u, k);
        let m = matrix.n_items() as usize;
        let want = k.min(m);
        if items.len() >= want {
            return (items, scores);
        }
        // Sparse user: merge the rated list with a floor stream of unrated ids.
        let imputed = match policy {
            MissingPolicy::Min | MissingPolicy::Skip => matrix.scale().min(),
            MissingPolicy::UserMean => matrix.user_mean(u),
        };
        let rated_all = prefs.ranked_items(u);
        let rated_scores_all = prefs.ranked_scores(u);
        self.rated.clear();
        self.rated.extend_from_slice(rated_all);
        self.rated.sort_unstable();
        self.items.clear();
        self.scores.clear();
        let mut ri = 0usize;
        let mut next_floor = 0u32;
        while self.items.len() < want {
            while (next_floor as usize) < m && self.rated.binary_search(&next_floor).is_ok() {
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
                self.items.push(rated_all[ri]);
                self.scores.push(rated_scores_all[ri]);
                ri += 1;
            } else if (next_floor as usize) < m {
                self.items.push(next_floor);
                self.scores.push(imputed);
                next_floor += 1;
            } else {
                break;
            }
        }
        (&self.items, &self.scores)
    }
}

/// Reads users' personal top-`k` lists and bucket keys in place: a user
/// who rated at least `min(k, m)` items is read as borrowed slices of the
/// [`PrefIndex`], a sparser one is padded into buffers the reader reuses,
/// and the key's words go to one more reused buffer. Once its buffers
/// have grown, reading a user allocates nothing.
#[derive(Debug)]
pub(crate) struct TopKReader<'a> {
    matrix: &'a RatingMatrix,
    prefs: &'a PrefIndex,
    semantics: Semantics,
    aggregation: Aggregation,
    policy: MissingPolicy,
    k: usize,
    pad: Padding,
    /// The words of the key read last (see [`KeyRef`]).
    key: Vec<u32>,
}

impl<'a> TopKReader<'a> {
    pub(crate) fn new(
        matrix: &'a RatingMatrix,
        prefs: &'a PrefIndex,
        semantics: Semantics,
        aggregation: Aggregation,
        policy: MissingPolicy,
        k: usize,
    ) -> Self {
        TopKReader {
            matrix,
            prefs,
            semantics,
            aggregation,
            policy,
            k,
            pad: Padding::default(),
            key: Vec::new(),
        }
    }

    /// A reader for the formation `cfg` configures.
    pub(crate) fn for_config(
        matrix: &'a RatingMatrix,
        prefs: &'a PrefIndex,
        cfg: &super::FormationConfig,
    ) -> Self {
        Self::new(
            matrix,
            prefs,
            cfg.semantics,
            cfg.aggregation,
            cfg.policy,
            cfg.k,
        )
    }

    /// User `u`'s [`personal_top_k`] list.
    pub(crate) fn top_k(&mut self, u: u32) -> (&[u32], &[f64]) {
        self.pad
            .top_k(self.matrix, self.prefs, self.policy, u, self.k)
    }

    /// User `u`'s bucket key (what [`key_for`] builds) and personal
    /// scores.
    pub(crate) fn key(&mut self, u: u32) -> (KeyRef<'_>, &[f64]) {
        let (items, scores) = self
            .pad
            .top_k(self.matrix, self.prefs, self.policy, u, self.k);
        let key = &mut self.key;
        key.clear();
        key.extend_from_slice(items);
        key_bits(
            self.semantics,
            self.aggregation,
            items.len(),
            scores,
            |bits| key.extend(halves(bits)),
        );
        (KeyRef(key), scores)
    }
}

/// Passes to `push` the score bit patterns of the bucket key for a user
/// with a top-`k` list of `len` items scored `scores`.
fn key_bits(
    semantics: Semantics,
    aggregation: Aggregation,
    len: usize,
    scores: &[f64],
    mut push: impl FnMut(u64),
) {
    match semantics {
        Semantics::AggregateVoting => {}
        Semantics::LeastMisery => match aggregation.pivot(len.max(1)) {
            Pivot::Position(p) => {
                let p = p.min(scores.len().saturating_sub(1));
                if let Some(s) = scores.get(p) {
                    push(s.to_bits());
                }
            }
            Pivot::All => scores.iter().for_each(|s| push(s.to_bits())),
        },
        // Moment-based semantics: bucket only users whose whole score
        // vector matches, so within a bucket every position is unanimous
        // and the group score collapses to the shared personal score
        // (zero consensus disagreement; leader-weighted mean of equals).
        Semantics::Consensus { .. } | Semantics::LeaderWeighted => {
            scores.iter().for_each(|s| push(s.to_bits()))
        }
    }
}

/// Builds the bucket key for one user under the configured semantics and
/// aggregation.
pub fn key_for(
    semantics: Semantics,
    aggregation: Aggregation,
    items: &[u32],
    scores: &[f64],
) -> BucketKey {
    let mut bits = Vec::new();
    key_bits(semantics, aggregation, items.len(), scores, |b| {
        bits.push(b)
    });
    BucketKey {
        items: items.into(),
        score_bits: bits.into(),
    }
}

/// A score bit pattern as the two key words that hold it, high first.
fn halves(bits: u64) -> [u32; 2] {
    [(bits >> 32) as u32, bits as u32]
}

/// Runs Step 1: hashes every user into buckets. Returns the buckets in
/// arbitrary order (callers select with [`bucket_order`]).
pub fn build_buckets(
    matrix: &RatingMatrix,
    prefs: &PrefIndex,
    semantics: Semantics,
    aggregation: Aggregation,
    policy: MissingPolicy,
    k: usize,
) -> Vec<Bucket> {
    build_buckets_threaded(matrix, prefs, semantics, aggregation, policy, k, 1)
}

/// Runs Step 1 with `n_threads` scoped worker threads (`0` = auto, see
/// [`crate::resolve_threads`]): each worker hashes a contiguous range of
/// user ids into a private bucket table, and the per-shard tables are
/// merged in shard order.
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
    BucketTable::build(matrix, prefs, semantics, aggregation, policy, k, n_threads)
        .buckets()
        .collect()
}

/// No bucket or user: the end of a fingerprint chain or a member list.
pub(crate) const NONE: u32 = u32::MAX;

/// A bucket key as one slice of words: the top-`k` items, then each key
/// score bit pattern as its high and low halves. Every key of a table has
/// the same length, so two keys compare as their (items, score bits)
/// pairs do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct KeyRef<'a>(pub(crate) &'a [u32]);

impl<'a> KeyRef<'a> {
    /// The key of `items` and `score_bits`, written into `words`.
    pub(crate) fn encode(items: &[u32], score_bits: &[u64], words: &'a mut Vec<u32>) -> Self {
        words.clear();
        words.extend_from_slice(items);
        words.extend(score_bits.iter().flat_map(|&bits| halves(bits)));
        KeyRef(words)
    }

    /// The key's score bit patterns, after its `len` items.
    pub(crate) fn score_bits(self, len: usize) -> impl Iterator<Item = u64> + 'a {
        self.0[len..]
            .chunks_exact(2)
            .map(|w| (u64::from(w[0]) << 32) | u64::from(w[1]))
    }
}

/// Step 1's bucket state, in two flat arrays of per-bucket records indexed
/// by `u32` bucket ids: a `u32` record of the bucket's key (a [`KeyRef`]:
/// every key has the top-`k` length `len = min(k, m)` and one score-bit
/// count) and member count, and an `f64` record of its per-position minima
/// and sums, so everything a user's placement reads or writes of one
/// bucket sits together. Each user's bucket is kept too, and a bucket's
/// members form an ascending list threaded through per-user `next`/`prev`
/// links, so no bucket owns an allocation.
///
/// [`BucketTable::build`] reads every user's key in place
/// ([`TopKReader::key`]) twice: once to give each key fingerprint an id in
/// order of first appearance, and once, with the records sized exactly, to
/// seat the users in ascending order, each one an equality check against
/// its id's record and a fold of `2 len` scores. Building allocates
/// `O(log B)` times, whatever `n` and `B` are. An
/// [`IncrementalFormer`](super::IncrementalFormer) keeps the table and
/// moves users through the fingerprint-to-bucket map and an equality check
/// on the key; the id of a bucket it [releases](BucketTable::release) is
/// reused by a later one.
#[derive(Debug, Clone)]
pub(crate) struct BucketTable {
    /// Items (and scores) per bucket.
    len: usize,
    /// Key score-bit patterns per bucket.
    n_bits: usize,
    /// Per bucket, `len + 2 n_bits + 1` words: its key, then its member
    /// count (`0` marks an empty bucket).
    keys: Vec<u32>,
    /// Per bucket, `2 len` scores: its per-position minima, then sums.
    scores: Vec<f64>,
    /// Each bucket's lowest member, `NONE` when empty.
    first: Vec<u32>,
    /// Each bucket's highest member, `NONE` when empty.
    last: Vec<u32>,
    /// Each user's bucket, from the first user of the build on.
    bucket_of: Vec<u32>,
    /// Per user: the next higher member of its bucket, or `NONE`.
    next: Vec<u32>,
    /// Per user: the next lower member of its bucket, or `NONE`.
    prev: Vec<u32>,
    /// Key fingerprint -> newest bucket with that fingerprint.
    index: FxHashMap<u64, u32>,
    /// Per bucket: the next older bucket with its fingerprint, or `NONE`.
    same_fingerprint: Vec<u32>,
    /// Released bucket ids, reused by the next buckets opened.
    free: Vec<u32>,
    /// The hash `index` is keyed by: [`fingerprint`], except in tests
    /// that make keys collide.
    fingerprint: fn(KeyRef<'_>) -> u64,
}

impl BucketTable {
    /// Runs Step 1 over every user on `n_threads` workers (see
    /// [`build_buckets_threaded`] for the sharding and the exactness of
    /// the merge; one worker seats users in ascending id order).
    pub(crate) fn build(
        matrix: &RatingMatrix,
        prefs: &PrefIndex,
        semantics: Semantics,
        aggregation: Aggregation,
        policy: MissingPolicy,
        k: usize,
        n_threads: usize,
    ) -> Self {
        let reader = || TopKReader::new(matrix, prefs, semantics, aggregation, policy, k);
        let empty = || BucketTable::empty(matrix, semantics, aggregation, k);
        Self::build_with(matrix.n_users() as usize, n_threads, reader, empty)
    }

    /// [`BucketTable::build`] over `n` users, each shard seated into a
    /// table `empty` makes and read through a reader `reader` makes.
    fn build_with<'a>(
        n: usize,
        n_threads: usize,
        reader: impl Fn() -> TopKReader<'a> + Sync,
        empty: impl Fn() -> BucketTable + Sync,
    ) -> Self {
        let threads = crate::resolve_threads(n_threads, n);
        let build_range = |range: std::ops::Range<usize>| {
            let mut table = empty();
            table.seat(&mut reader(), range);
            table
        };
        let mut table = if threads <= 1 {
            build_range(0..n)
        } else {
            let build_range = &build_range;
            let shards: Vec<BucketTable> = std::thread::scope(|scope| {
                let handles: Vec<_> = crate::threads::even_ranges(n, threads)
                    .into_iter()
                    .map(|range| scope.spawn(move || build_range(range)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("bucket worker panicked"))
                    .collect()
            });
            let mut shards = shards.into_iter();
            let mut merged = shards.next().expect("at least one shard");
            for shard in shards {
                merged.absorb(shard);
            }
            merged
        };
        let bucket_of = std::mem::take(&mut table.bucket_of);
        table.link_members(bucket_of);
        table
    }

    /// [`BucketTable::build`] for `cfg` with a fingerprint of two bits, so
    /// that nearly every key collides with another: what the collision
    /// tests build.
    #[cfg(test)]
    pub(crate) fn build_colliding(
        matrix: &RatingMatrix,
        prefs: &PrefIndex,
        cfg: &super::FormationConfig,
    ) -> Self {
        let reader = || TopKReader::for_config(matrix, prefs, cfg);
        let empty = || BucketTable {
            fingerprint: |key| fingerprint(key) & 3,
            ..BucketTable::empty(matrix, cfg.semantics, cfg.aggregation, cfg.k)
        };
        Self::build_with(matrix.n_users() as usize, cfg.n_threads, reader, empty)
    }

    /// Test support: the fingerprint chains reach every bucket with
    /// members exactly once, each from its key's fingerprint, and no
    /// other bucket.
    #[cfg(test)]
    pub(crate) fn check_index(&self) -> Result<(), String> {
        let mut reached = Vec::new();
        for (&fingerprint, &newest) in &self.index {
            let mut b = newest;
            while b != NONE {
                if (self.fingerprint)(self.key(b)) != fingerprint {
                    return Err(format!("bucket {b} is chained under another fingerprint"));
                }
                reached.push(b);
                b = self.same_fingerprint[b as usize];
            }
        }
        reached.sort_unstable();
        if reached.iter().copied().eq(self.ids()) {
            Ok(())
        } else {
            Err(format!(
                "the chains reach {} buckets, not the {} with members",
                reached.len(),
                self.ids().count()
            ))
        }
    }

    /// Seats the users `users` into this empty table, in two passes over
    /// their keys. The first gives each key fingerprint a bucket id, in
    /// order of first appearance, and reads nothing but the fingerprint
    /// map. The second sizes the records for those ids and seats the users
    /// in ascending order: an id's first user writes its key, and each
    /// user whose key the record holds folds its scores in. A user whose
    /// key it does not hold, since its fingerprint collided with an
    /// earlier key's, goes through [`BucketTable::add`].
    fn seat(&mut self, reader: &mut TopKReader<'_>, users: std::ops::Range<usize>) {
        let mut bucket_of = Vec::with_capacity(users.len());
        for u in users.clone() {
            let (key, _) = reader.key(u as u32);
            assert_eq!(
                key.0.len() + 1,
                self.width(),
                "every Step-1 key has the build's top-k length"
            );
            let fresh = self.index.len() as u32;
            bucket_of.push(*self.index.entry((self.fingerprint)(key)).or_insert(fresh));
        }
        let (ids, w) = (self.index.len(), self.width());
        self.keys = vec![0; ids * w];
        // +inf and -0.0 are the identities of min and of the sum, so an
        // id's first user folds its scores in like every later one.
        let fresh = [vec![f64::INFINITY; self.len], vec![-0.0; self.len]].concat();
        self.scores = fresh.repeat(ids);
        self.first = vec![NONE; ids];
        self.last = vec![NONE; ids];
        self.same_fingerprint = vec![NONE; ids];
        for (b, u) in bucket_of.iter_mut().zip(users) {
            let (key, scores) = reader.key(u as u32);
            let (words, size) =
                self.keys[*b as usize * w..(*b as usize + 1) * w].split_at_mut(w - 1);
            // Not short-circuited: the test then almost always passes.
            if (size[0] == 0) | (*words == *key.0) {
                words.copy_from_slice(key.0);
                size[0] += 1;
                let (mins, sums) = self.scores_mut(*b);
                fold_scores(mins, sums, scores, scores);
            } else {
                *b = self.add(key, scores, scores, 1);
            }
        }
        self.bucket_of = bucket_of;
    }

    /// A table with no bucket, for keys of a build of top-`k` lists over
    /// `matrix` under `semantics` and `aggregation`.
    pub(crate) fn empty(
        matrix: &RatingMatrix,
        semantics: Semantics,
        aggregation: Aggregation,
        k: usize,
    ) -> Self {
        let len = k.min(matrix.n_items() as usize);
        // Every key's score-bit count: that of any list of length `len`.
        let mut n_bits = 0;
        key_bits(semantics, aggregation, len, &vec![0.0; len], |_| {
            n_bits += 1
        });
        BucketTable {
            len,
            n_bits,
            keys: Vec::new(),
            scores: Vec::new(),
            first: Vec::new(),
            last: Vec::new(),
            bucket_of: Vec::new(),
            next: Vec::new(),
            prev: Vec::new(),
            index: FxHashMap::default(),
            same_fingerprint: Vec::new(),
            free: Vec::new(),
            fingerprint,
        }
    }

    /// Words per key record: the key's, then the member count.
    fn width(&self) -> usize {
        self.len + 2 * self.n_bits + 1
    }

    /// How many bucket ids the table has handed out, released ones
    /// included.
    pub(crate) fn len(&self) -> usize {
        self.first.len()
    }

    /// How many buckets hold members or wait to be released.
    pub(crate) fn live(&self) -> usize {
        self.len() - self.free.len()
    }

    /// The ids of the buckets that hold members, ascending.
    pub(crate) fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len() as u32).filter(|&b| self.size(b) > 0)
    }

    /// The top-`k` length and score-bit count of every key.
    pub(crate) fn widths(&self) -> (usize, usize) {
        (self.len, self.n_bits)
    }

    /// Bucket `b`'s key record.
    fn record(&self, b: u32) -> &[u32] {
        let w = self.width();
        &self.keys[b as usize * w..(b as usize + 1) * w]
    }

    /// Bucket `b`'s member count.
    pub(crate) fn size(&self, b: u32) -> u32 {
        self.keys[(b as usize + 1) * self.width() - 1]
    }

    fn size_mut(&mut self, b: u32) -> &mut u32 {
        let at = (b as usize + 1) * self.width() - 1;
        &mut self.keys[at]
    }

    /// Bucket `b`'s key.
    pub(crate) fn key(&self, b: u32) -> KeyRef<'_> {
        let record = self.record(b);
        KeyRef(&record[..record.len() - 1])
    }

    /// Bucket `b`'s top-`k` items.
    pub(crate) fn items(&self, b: u32) -> &[u32] {
        &self.record(b)[..self.len]
    }

    /// Bucket `b`'s per-position minima and sums.
    pub(crate) fn scores(&self, b: u32) -> (&[f64], &[f64]) {
        let at = b as usize * 2 * self.len;
        self.scores[at..at + 2 * self.len].split_at(self.len)
    }

    fn scores_mut(&mut self, b: u32) -> (&mut [f64], &mut [f64]) {
        let at = b as usize * 2 * self.len;
        self.scores[at..at + 2 * self.len].split_at_mut(self.len)
    }

    /// Bucket `b`'s group score vector under `semantics` (see
    /// [`Bucket::score_vector`]).
    pub(crate) fn score_vector(&self, b: u32, semantics: Semantics) -> &[f64] {
        let (pos_min, pos_sum) = self.scores(b);
        match semantics {
            Semantics::AggregateVoting => pos_sum,
            _ => pos_min,
        }
    }

    /// What [`bucket_order`] compares of bucket `b`.
    pub(crate) fn ranked(&self, b: u32, semantics: Semantics) -> Ranked<'_> {
        Ranked {
            scores: self.score_vector(b, semantics),
            size: self.size(b) as usize,
            items: self.items(b),
            first: Some(self.first[b as usize]),
        }
    }

    /// Every user's bucket, by user id.
    pub(crate) fn bucket_of(&self) -> &[u32] {
        &self.bucket_of
    }

    /// Bucket `b`'s members, ascending.
    pub(crate) fn members(&self, b: u32) -> impl Iterator<Item = u32> + '_ {
        let first = self.first[b as usize];
        std::iter::successors((first != NONE).then_some(first), |&u| {
            let next = self.next[u as usize];
            (next != NONE).then_some(next)
        })
    }

    /// The bucket with `key`, if one is indexed.
    pub(crate) fn find(&self, key: KeyRef<'_>) -> Option<u32> {
        let fingerprint = (self.fingerprint)(key);
        let mut b = self.index.get(&fingerprint).copied().unwrap_or(NONE);
        while b != NONE && self.key(b) != key {
            b = self.same_fingerprint[b as usize];
        }
        (b != NONE).then_some(b)
    }

    /// Folds `size` members with key `key` — their per-position minima
    /// `pos_min` and sums `pos_sum` — into the bucket with that key,
    /// opening it if the key is new, and returns it. A build links the
    /// member lists once it is done.
    fn add(&mut self, key: KeyRef<'_>, pos_min: &[f64], pos_sum: &[f64], size: u32) -> u32 {
        match self.find(key) {
            Some(b) => {
                self.fold(b, pos_min, pos_sum, size);
                b
            }
            None => self.open(key, pos_min, pos_sum, size),
        }
    }

    /// Folds `size` members' per-position minima `pos_min` and sums
    /// `pos_sum` into bucket `b`.
    fn fold(&mut self, b: u32, pos_min: &[f64], pos_sum: &[f64], size: u32) {
        let (mins, sums) = self.scores_mut(b);
        fold_scores(mins, sums, pos_min, pos_sum);
        *self.size_mut(b) += size;
    }

    /// Writes bucket `b`'s records — key `key`, `size` members, score
    /// vectors `pos_min` and `pos_sum` — over its old ones, or as the next
    /// bucket's.
    fn put(&mut self, b: u32, key: KeyRef<'_>, pos_min: &[f64], pos_sum: &[f64], size: u32) {
        let w = self.width();
        let at = b as usize * w;
        if at == self.keys.len() {
            self.keys.resize(at + w, 0);
            self.scores.resize(self.scores.len() + 2 * self.len, 0.0);
        }
        self.keys[at..at + w - 1].copy_from_slice(key.0);
        self.keys[at + w - 1] = size;
        let (mins, sums) = self.scores_mut(b);
        mins.copy_from_slice(pos_min);
        sums.copy_from_slice(pos_sum);
    }

    /// Opens a bucket for the new key `key` with score vectors `pos_min`
    /// and `pos_sum` and `size` members (`0` for members seated later by
    /// [`BucketTable::join`]), on a released id if there is one, and
    /// indexes it.
    pub(crate) fn open(
        &mut self,
        key: KeyRef<'_>,
        pos_min: &[f64],
        pos_sum: &[f64],
        size: u32,
    ) -> u32 {
        let b = self.free.pop().unwrap_or(self.len() as u32);
        self.put(b, key, pos_min, pos_sum, size);
        write_entry(&mut self.first, b, NONE);
        write_entry(&mut self.last, b, NONE);
        let older = self
            .index
            .insert((self.fingerprint)(key), b)
            .unwrap_or(NONE);
        write_entry(&mut self.same_fingerprint, b, older);
        b
    }

    /// Merges `shard`, built over the users right after this table's, into
    /// this table: shared keys fold the shard's partial aggregates into
    /// this table's, new keys open buckets in the shard's order.
    fn absorb(&mut self, shard: BucketTable) {
        let to_merged: Vec<u32> = (0..shard.len() as u32)
            .map(|b| {
                let (pos_min, pos_sum) = shard.scores(b);
                self.add(shard.key(b), pos_min, pos_sum, shard.size(b))
            })
            .collect();
        self.bucket_of
            .extend(shard.bucket_of.iter().map(|&b| to_merged[b as usize]));
    }

    /// Installs `bucket_of` (every user's bucket, each bucket's size
    /// already counting its users) and threads the member lists through
    /// it in one ascending pass.
    pub(crate) fn link_members(&mut self, bucket_of: Vec<u32>) {
        let n = bucket_of.len();
        self.bucket_of = bucket_of;
        (self.next, self.prev) = (vec![NONE; n], vec![NONE; n]);
        self.first.fill(NONE);
        self.last.fill(NONE);
        for (u, &b) in self.bucket_of.iter().enumerate() {
            let (u, b) = (u as u32, b as usize);
            match self.last[b] {
                NONE => self.first[b] = u,
                last => (self.next[last as usize], self.prev[u as usize]) = (u, last),
            }
            self.last[b] = u;
        }
    }

    /// Seats user `u`, who belongs to no bucket (a new user is the next
    /// id), in bucket `b`, keeping the member list ascending.
    pub(crate) fn join(&mut self, b: u32, u: u32) {
        // Walk down from the highest member: an admitted user appends.
        let (mut below, mut above) = (self.last[b as usize], NONE);
        while below != NONE && below > u {
            (below, above) = (self.prev[below as usize], below);
        }
        match below {
            NONE => self.first[b as usize] = u,
            below => self.next[below as usize] = u,
        }
        match above {
            NONE => self.last[b as usize] = u,
            above => self.prev[above as usize] = u,
        }
        *self.size_mut(b) += 1;
        if u as usize == self.bucket_of.len() {
            self.bucket_of.push(b);
            self.next.push(above);
            self.prev.push(below);
        } else {
            self.bucket_of[u as usize] = b;
            (self.next[u as usize], self.prev[u as usize]) = (above, below);
        }
    }

    /// Takes user `u` out of its bucket's member list; the bucket stays
    /// indexed, empty or not, until it is [released](BucketTable::release).
    pub(crate) fn leave(&mut self, u: u32) {
        let b = self.bucket_of[u as usize];
        let (below, above) = (self.prev[u as usize], self.next[u as usize]);
        match below {
            NONE => self.first[b as usize] = above,
            below => self.next[below as usize] = above,
        }
        match above {
            NONE => self.last[b as usize] = below,
            above => self.prev[above as usize] = below,
        }
        *self.size_mut(b) -= 1;
    }

    /// Unindexes the empty bucket `b` and frees its id for reuse.
    pub(crate) fn release(&mut self, b: u32) {
        debug_assert_eq!(self.size(b), 0, "only an empty bucket is released");
        let fingerprint = (self.fingerprint)(self.key(b));
        let older = self.same_fingerprint[b as usize];
        let newest = self.index[&fingerprint];
        if newest == b {
            match older {
                NONE => self.index.remove(&fingerprint),
                older => self.index.insert(fingerprint, older),
            };
        } else {
            let mut c = newest;
            while self.same_fingerprint[c as usize] != b {
                c = self.same_fingerprint[c as usize];
            }
            self.same_fingerprint[c as usize] = older;
        }
        self.free.push(b);
    }

    /// Recomputes bucket `b`'s score vectors from its members' personal
    /// scores in ascending id order, the order of a sequential build, so
    /// they are bit for bit what [`build_buckets`] produces.
    pub(crate) fn rescore(&mut self, b: u32, reader: &mut TopKReader<'_>) {
        let mut u = self.first[b as usize];
        let mut fresh = true;
        while u != NONE {
            let (items, scores) = reader.top_k(u);
            debug_assert_eq!(
                items,
                self.items(b),
                "member {u} no longer matches its bucket's item sequence"
            );
            let (pos_min, pos_sum) = self.scores_mut(b);
            if fresh {
                pos_min.copy_from_slice(scores);
                pos_sum.copy_from_slice(scores);
                fresh = false;
            } else {
                fold_scores(pos_min, pos_sum, scores, scores);
            }
            u = self.next[u as usize];
        }
    }

    /// Bucket `b`, members ascending.
    pub(crate) fn bucket(&self, b: u32) -> Bucket {
        let (pos_min, pos_sum) = self.scores(b);
        Bucket {
            items: self.items(b).into(),
            users: self.members(b).collect(),
            pos_min: pos_min.to_vec(),
            pos_sum: pos_sum.to_vec(),
        }
    }

    /// Every bucket with members, in id order, each made as the iterator
    /// reaches it.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = Bucket> + '_ {
        self.ids().map(|b| self.bucket(b))
    }
}

/// Writes `value` as entry `b` of `v`: over the entry if `b` has one, else
/// appended as the next.
fn write_entry(v: &mut Vec<u32>, b: u32, value: u32) {
    match v.get_mut(b as usize) {
        Some(slot) => *slot = value,
        None => {
            debug_assert_eq!(b as usize, v.len(), "a new entry is the next one");
            v.push(value);
        }
    }
}

/// The hash of a key, by which [`BucketTable`] indexes its buckets.
fn fingerprint(key: KeyRef<'_>) -> u64 {
    let mut h = crate::fxhash::FxHasher::default();
    for &word in key.0 {
        h.write_u32(word);
    }
    h.finish()
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
    ranked_order(a.ranked(semantics), b.ranked(semantics), agg)
}

/// The fields of a bucket [`bucket_order`] compares, read from a
/// [`Bucket`] or a [`BucketTable`] row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ranked<'a> {
    /// The group score vector.
    pub(crate) scores: &'a [f64],
    pub(crate) size: usize,
    pub(crate) items: &'a [u32],
    /// The first member listed.
    pub(crate) first: Option<u32>,
}

/// The Step-2 order: `Less` when the bucket `x` pops before `y`. Each
/// side carries its satisfaction, cached by the caller so that no
/// comparison recomputes an `O(k)` aggregate, ahead of the fields
/// [`bucket_order`] compares. A total order, since memberships are
/// disjoint.
pub(crate) fn pop_order(x: (f64, Ranked<'_>), y: (f64, Ranked<'_>)) -> Ordering {
    y.0.total_cmp(&x.0).then_with(|| tie_order(x.1, y.1))
}

/// [`bucket_order`] over the compared fields.
pub(crate) fn ranked_order(a: Ranked<'_>, b: Ranked<'_>, agg: Aggregation) -> Ordering {
    let sa = agg.apply(a.scores);
    let sb = agg.apply(b.scores);
    sb.total_cmp(&sa).then_with(|| tie_order(a, b))
}

/// [`bucket_order`] between two buckets of equal satisfaction.
fn tie_order(a: Ranked<'_>, b: Ranked<'_>) -> Ordering {
    for (x, y) in a.scores.iter().zip(b.scores.iter()) {
        match y.total_cmp(x) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    b.scores
        .len()
        .cmp(&a.scores.len())
        .then_with(|| b.size.cmp(&a.size))
        .then_with(|| a.items.cmp(b.items))
        .then_with(|| a.first.cmp(&b.first))
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
    fn colliding_fingerprints_build_the_production_table() {
        // Twelve random profiles over 10 items, each copied by 5 users,
        // and every seventh user rating only two items (a padded list):
        // far more keys than the 4 fingerprints, so most users' keys miss
        // their id's record in the second pass and take the find/open
        // chain, on one shard and across shard merges.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(23);
        let profiles: Vec<Vec<f64>> = (0..12)
            .map(|_| (0..10).map(|_| rng.gen_range(1..=5) as f64).collect())
            .collect();
        let m = RatingMatrix::from_triples(
            60,
            10,
            (0..60u32).flat_map(|u| {
                let row = &profiles[u as usize % 12];
                let rated = if u % 7 == 6 { 2 } else { 10 };
                (0..rated).map(move |i| (u, i, row[i as usize]))
            }),
            RatingScale::one_to_five(),
        )
        .unwrap();
        let p = PrefIndex::build(&m);
        for sem in Semantics::all() {
            for agg in Aggregation::paper_set() {
                for k in [2usize, 4] {
                    let cold = canonical(build_buckets(&m, &p, sem, agg, MissingPolicy::Min, k));
                    for threads in [1usize, 3] {
                        let cfg = crate::FormationConfig::new(sem, agg, k, 2).with_threads(threads);
                        let table = BucketTable::build_colliding(&m, &p, &cfg);
                        assert!(table.index.len() <= 4);
                        assert!(table.live() > 4, "{sem} {agg} k={k}: no key collided");
                        table.check_index().unwrap();
                        assert_eq!(
                            canonical(table.buckets().collect()),
                            cold,
                            "{sem} {agg} k={k} threads={threads}"
                        );
                    }
                }
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
