//! Dirty-bucket incremental re-formation.
//!
//! The greedy algorithms decompose into Step 1 (hash users into buckets by
//! preference signature), Step 2 (pick the `ell - 1` best buckets) and
//! Step 3 (merge the rest into a tail group). A small batch of rating
//! updates only perturbs the buckets of the touched users, so a standing
//! formation can be *patched* instead of recomputed: [`IncrementalFormer`]
//! keeps the exact Step-1 bucket state alive between refreshes, moves only
//! the dirty users between buckets, reads the Step-2 selection off an
//! ordered index of bucket ranks that only the touched buckets update,
//! and maintains the tail group's member list and per-item score
//! aggregates under member churn. Refresh cost is proportional to the
//! update batch (plus an `O(m)` tail scoring pass), not to a full
//! `O(nnz log nnz)` rebuild, and the emitted grouping shares every member
//! list the refresh left alone with the previous one.
//!
//! ## Equivalence to a cold rebuild
//!
//! The bucket state is maintained *exactly*: after any sequence of
//! refreshes, the bucket multiset equals what [`bucket::build_buckets`]
//! produces on the current matrix, bit for bit (touched buckets recompute
//! their score vectors over members in ascending id order — the same
//! accumulation order as a cold build). The rank index holds exactly one
//! rank per standing bucket, each a pure function of the bucket's state,
//! so its first `ell - 1` entries are always the full Step-2 selection,
//! and the emitted grouping is the cold
//! [`GreedyFormer`](super::GreedyFormer) grouping, exactly, whenever
//! ratings sit on a dyadic grid (whole or half stars — every built-in
//! [`crate::RatingScale`]) under [`MissingPolicy::Min`] or
//! [`MissingPolicy::Skip`]/[`MissingPolicy::UserMean`] (the latter two
//! rescore the tail with the full engine and are exact on any input; the
//! `Min` fast path maintains the tail's per-item count, sum, sum of
//! squares and minimum incrementally, which off-grid can drift by one ulp
//! per update). That holds for all four semantics: Consensus scores the
//! maintained moments through the same `consensus_score` closed form the
//! cold engine uses, and LeaderWeighted adds the lowest-id tail member's
//! row to the maintained sum. `tests/prop_incremental.rs` enforces these
//! properties across random rating streams and dirty-set partitions, and
//! checks the index and the tail list against a from-scratch scan after
//! every refresh.
//!
//! ## Costs per refresh
//!
//! With `B` standing buckets, `n` users and `m` items:
//!
//! * bucket maintenance: `O(Σ |touched bucket| · k)` — proportional to the
//!   dirty batch for typical (small) buckets;
//! * selection: `O(ell + |touched| · log B)` — each touched bucket's rank
//!   is noted before the bucket's first change and, once its scores are
//!   recomputed, swapped in the index for the fresh rank if the two
//!   differ; the selection is the index's first `ell - 1` entries;
//! * tail scoring: `O(m)` under `MissingPolicy::Min` for every semantics
//!   (maintained per-item moments; LeaderWeighted's leader is the tail
//!   list's first entry, plus an `O(log d)` lookup in its row per item),
//!   `O(nnz_tail)` under `Skip`/`UserMean` (full rescore);
//! * tail membership churn: `O(Σ d_u)` over users that enter/leave the
//!   tail, plus one `O(n)` merge into a fresh tail list when any user
//!   flips (none when no user does);
//! * emission: `O(ell · k)` plus the members of the selected buckets the
//!   refresh touched. Member lists are shared `Arc<[u32]>`s
//!   ([`Group::members`]): an untouched selected bucket re-emits its
//!   previous group, a touched one keeps the previous member list at its
//!   index when its members are unchanged, and the tail group hands out
//!   the maintained tail list itself, so a refresh that flips no tail
//!   member emits the same tail allocation as the one before.
//!
//! Building a former ([`IncrementalFormer::new`],
//! [`IncrementalFormer::import_state`]) sorts the `B` ranks once and
//! bulk-loads the index from them, and fills the tail aggregates with one
//! pass over the tail members' rows. [`IncrementalFormer::new`] takes its
//! Step-1 state from the same bucket table as the cold
//! [`GreedyFormer`](super::GreedyFormer), which allocates per bucket, not
//! per user, and then gives each bucket its own key and member list.

use super::bucket::{self, Bucket, BucketKey, BucketTable, KeyView, TopKReader};
use super::greedy::bucket_to_group;
use super::tail::{self, TailAgg};
use super::{FormationConfig, FormationResult};
use crate::aggregate::Aggregation;
use crate::error::{GfError, Result};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::grouping::{Group, Grouping};
use crate::grouprec::MissingPolicy;
use crate::matrix::RatingMatrix;
use crate::prefs::PrefIndex;
use crate::semantics::Semantics;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A bucket key shared by the bucket map and every member's slot in
/// `user_keys`, so a user costs one pointer rather than a key copy.
type Key = Arc<BucketKey>;

/// The buckets one refresh changes, each with its rank before the change
/// (`None` for a bucket the refresh creates).
type Touched = FxHashMap<Key, Option<BucketRank>>;

/// A bucket's place in the Step-2 order, captured from its state.
///
/// `words` encodes the fields [`bucket::bucket_order`] compares —
/// satisfaction and score vector (both descending), size (descending),
/// item sequence and first member (both ascending) — so that ascending
/// word order is that order. A [`BTreeSet`] of ranks therefore iterates
/// buckets in selection order, and a comparison reads one contiguous
/// slice. The encoding needs every bucket of a former to share one top-`k`
/// length, which holds between the rebuilds a `k`-crossing item
/// admission forces. Memberships are disjoint, so the first member makes
/// the order total.
#[derive(Debug, Clone)]
struct BucketRank {
    words: Words,
    /// The ranked bucket's key.
    key: Key,
}

impl BucketRank {
    /// The rank of the non-empty bucket `b` stored under `key`.
    fn of(key: &Key, b: &Bucket, semantics: Semantics, agg: Aggregation) -> Self {
        let scores = b.score_vector(semantics);
        let len = 3 + scores.len() + b.items.len().div_ceil(2);
        let words = std::iter::once(descending(b.satisfaction(semantics, agg)))
            .chain(scores.iter().map(|&s| descending(s)))
            .chain(std::iter::once(!(b.users.len() as u64)))
            .chain(b.items.chunks(2).map(|pair| {
                u64::from(pair[0]) << 32 | pair.get(1).map_or(0, |&item| u64::from(item))
            }))
            .chain(std::iter::once(u64::from(b.users[0])));
        BucketRank {
            words: Words::collect(len, words),
            key: Arc::clone(key),
        }
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(len, buf) => &buf[..usize::from(*len)],
            Words::Heap(words) => words,
        }
    }
}

/// How many words a rank keeps inline: all of them for `k <= 5`. Ranks
/// live in the index's nodes, so a refresh that swaps a few of them
/// allocates nothing; a heap box per rank, churned by every refresh,
/// fragments the allocator (the process's resident set kept growing).
const INLINE_WORDS: usize = 11;

/// A rank's words, inline when they fit.
#[derive(Debug, Clone)]
enum Words {
    Inline(u8, [u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

impl Words {
    /// The `len` words `words` yields.
    fn collect(len: usize, words: impl Iterator<Item = u64>) -> Self {
        if len > INLINE_WORDS {
            return Words::Heap(words.collect());
        }
        let mut buf = [0; INLINE_WORDS];
        for (slot, word) in buf.iter_mut().zip(words) {
            *slot = word;
        }
        Words::Inline(len as u8, buf)
    }
}

impl PartialEq for BucketRank {
    fn eq(&self, other: &Self) -> bool {
        self.words() == other.words()
    }
}

impl Eq for BucketRank {}

impl PartialOrd for BucketRank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BucketRank {
    fn cmp(&self, other: &Self) -> Ordering {
        debug_assert_eq!(self.words().len(), other.words().len(), "one top-k length");
        self.words().cmp(other.words())
    }
}

/// A word whose ascending order is the descending [`f64::total_cmp`]
/// order of `x`.
fn descending(x: f64) -> u64 {
    let bits = x.to_bits();
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    !ascending
}

/// One rating update that was already applied to the matrix, with the
/// score it replaced — what [`IncrementalFormer::refresh`] needs to patch
/// the tail aggregates without re-reading the pre-update matrix.
///
/// Build it from [`RatingMatrix::with_upserts_under`] outcomes (see
/// [`RatingDelta::from_upsert`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatingDelta {
    /// The user whose rating changed.
    pub user: u32,
    /// The rated item.
    pub item: u32,
    /// The new score (already in the matrix).
    pub score: f64,
    /// The score it replaced, `None` for a fresh rating.
    pub previous: Option<f64>,
}

impl RatingDelta {
    /// Pairs an applied update with its [`crate::matrix::Upsert`] outcome.
    pub fn from_upsert(user: u32, item: u32, score: f64, outcome: crate::matrix::Upsert) -> Self {
        RatingDelta {
            user,
            item,
            score,
            previous: match outcome {
                crate::matrix::Upsert::Updated { previous } => Some(previous),
                crate::matrix::Upsert::Inserted => None,
            },
        }
    }
}

/// A serializable projection of one Step-1 bucket, with scores carried as
/// exact `f64` bit patterns so a checkpoint round trip is lossless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormerBucket {
    /// The shared top-`k` item sequence of the bucket's members.
    pub items: Vec<u32>,
    /// The bucket key's score bit patterns (the members' shared
    /// per-position scores, per the grouping semantics).
    pub key_score_bits: Vec<u64>,
    /// Member user ids, strictly ascending.
    pub users: Vec<u32>,
    /// Per-position minimum score bits across members.
    pub pos_min_bits: Vec<u64>,
    /// Per-position score-sum bits across members.
    pub pos_sum_bits: Vec<u64>,
}

/// A serializable snapshot of an [`IncrementalFormer`]'s standing state:
/// the exact Step-1 bucket multiset (canonically ordered) plus the Step-2
/// selection in emission order. Produced by
/// [`IncrementalFormer::export_state`], consumed by
/// [`IncrementalFormer::import_state`]; the `gf-persist` crate gives it a
/// byte-level encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormerState {
    /// All standing buckets, sorted by (items, key score bits).
    pub buckets: Vec<FormerBucket>,
    /// Indices into `buckets` of the selected (own-group) buckets, in
    /// emission order.
    pub selected: Vec<u32>,
}

/// A standing greedy formation that absorbs rating updates by patching
/// only the dirty users' buckets and re-running the Step-2 selection over
/// them. See the [module docs](self) for the equivalence guarantee.
#[derive(Debug, Clone)]
pub struct IncrementalFormer {
    cfg: FormationConfig,
    n_items: u32,
    /// Exact Step-1 state: equals `build_buckets` on the current matrix.
    buckets: FxHashMap<Key, Bucket>,
    /// One [`BucketRank`] per standing bucket, in Step-2 order: the ideal
    /// selection is its first `ell - 1` entries. A refresh notes a
    /// bucket's rank before its first change and, once the bucket's
    /// scores are recomputed, swaps it for the fresh rank if they differ.
    index: BTreeSet<BucketRank>,
    /// Each user's current bucket key.
    user_keys: Vec<Key>,
    /// Keys of the buckets currently holding their own group, in emission
    /// (pop) order.
    selected: Vec<Key>,
    in_tail: Vec<bool>,
    /// The tail's members, ascending: exactly the users with `in_tail` set.
    /// This is the member list the tail group emits, so a refresh that
    /// flips no user hands the same allocation to the next formation.
    tail: Arc<[u32]>,
    /// `Some` under `MissingPolicy::Min` (the maintained fast path);
    /// `None` falls back to full tail rescoring via the shared repair
    /// machinery.
    agg_tail: Option<TailAgg>,
    result: FormationResult,
}

impl IncrementalFormer {
    /// Builds the standing formation with one cold pass (equivalent to
    /// [`GreedyFormer::new`](super::GreedyFormer::new) under `cfg`) and the incremental state that
    /// keeps it patchable.
    ///
    /// Step 1 runs on `cfg.n_threads` workers, the sharded bucket build
    /// and merge of [`bucket::build_buckets_threaded`], which is what a
    /// serving layer pays on boot and on every cold pass. The default
    /// `n_threads = 1` keeps the sequential path.
    pub fn new(matrix: &RatingMatrix, prefs: &PrefIndex, cfg: FormationConfig) -> Result<Self> {
        cfg.validate(matrix)?;
        let table = BucketTable::build(
            matrix,
            prefs,
            cfg.semantics,
            cfg.aggregation,
            cfg.policy,
            cfg.k,
            cfg.n_threads,
        );
        let keys: Vec<Key> = (0..table.len() as u32)
            .map(|b| Arc::new(table.key(b).to_key()))
            .collect();
        let user_keys = table
            .bucket_of()
            .iter()
            .map(|&b| Arc::clone(&keys[b as usize]))
            .collect();
        let buckets: FxHashMap<Key, Bucket> = keys.into_iter().zip(table.buckets()).collect();
        // The rank index built next is the peak of a build; the table is
        // done with by then.
        drop(table);
        Ok(Self::from_parts(matrix, cfg, buckets, user_keys, None))
    }

    /// Assembles a former from a Step-1 bucket state and a Step-2
    /// selection (`None`: the ideal one), deriving the rest from the
    /// matrix: the rank index (one bulk sort), tail membership, the tail
    /// aggregates (accumulated in ascending user order, so two formers
    /// over the same state agree bit for bit) and the emitted grouping.
    fn from_parts(
        matrix: &RatingMatrix,
        cfg: FormationConfig,
        buckets: FxHashMap<Key, Bucket>,
        user_keys: Vec<Key>,
        selected: Option<Vec<Key>>,
    ) -> Self {
        let mut ranks: Vec<BucketRank> = buckets
            .iter()
            .map(|(key, b)| BucketRank::of(key, b, cfg.semantics, cfg.aggregation))
            .collect();
        ranks.sort_unstable();
        let index: BTreeSet<BucketRank> = ranks.into_iter().collect();
        let selected = selected.unwrap_or_else(|| indexed_selection(&index, cfg.ell));
        let mut in_tail = vec![true; user_keys.len()];
        for key in &selected {
            for &u in &buckets[key].users {
                in_tail[u as usize] = false;
            }
        }
        let tail: Arc<[u32]> = tail::members_of(&in_tail).into();
        let agg_tail = TailAgg::for_config(&cfg, matrix, &tail);
        let mut former = IncrementalFormer {
            cfg,
            n_items: matrix.n_items(),
            buckets,
            index,
            user_keys,
            selected,
            in_tail,
            tail,
            agg_tail,
            result: FormationResult {
                grouping: Grouping::default(),
                objective: 0.0,
                n_buckets: 0,
            },
        };
        former.emit(matrix, &[], &Touched::default());
        former
    }

    /// The configuration this former was built under.
    pub fn config(&self) -> &FormationConfig {
        &self.cfg
    }

    /// The standing formation.
    pub fn result(&self) -> &FormationResult {
        &self.result
    }

    /// Test support: a canonical view of the maintained Step-1 state, for
    /// comparison against [`bucket::canonical_buckets`] of a cold build.
    #[doc(hidden)]
    pub fn canonical_buckets(&self) -> Vec<bucket::CanonicalBucket> {
        bucket::canonical_buckets(self.buckets.values().cloned().collect())
    }

    /// Test support: checks the maintained Step-2 state against a
    /// from-scratch recomputation — the index holds exactly one rank per
    /// standing bucket, each equal to a freshly computed one, and the tail
    /// list is exactly the users flagged as tail members — then returns
    /// the member lists of the buckets the index ranks first: the
    /// selection the next refresh installs, for comparison against a
    /// [`bucket::bucket_order`] scan of a cold build.
    #[doc(hidden)]
    pub fn checked_index(&self) -> std::result::Result<Vec<Vec<u32>>, String> {
        let (sem, agg) = (self.cfg.semantics, self.cfg.aggregation);
        let mut fresh: Vec<BucketRank> = self
            .buckets
            .iter()
            .map(|(key, b)| BucketRank::of(key, b, sem, agg))
            .collect();
        fresh.sort_unstable();
        if !self.index.iter().eq(&fresh) {
            return Err(format!(
                "the index's {} ranks are not the {} standing buckets' fresh ranks",
                self.index.len(),
                fresh.len()
            ));
        }
        if *self.tail != *tail::members_of(&self.in_tail) {
            return Err(format!(
                "the tail list ({} users) is not the flagged tail members",
                self.tail.len()
            ));
        }
        Ok(indexed_selection(&self.index, self.cfg.ell)
            .iter()
            .map(|key| self.buckets[key].users.clone())
            .collect())
    }

    /// The tail group's candidate items — the items no tail member has
    /// rated, ascending — read off the maintained per-item rater counts in
    /// `O(m)`. The tail is the last group of [`IncrementalFormer::result`].
    /// `None` when there is no tail group, or under a
    /// [`MissingPolicy`] other than `Min`, which keeps no counts.
    pub fn tail_candidates(&self) -> Option<Vec<u32>> {
        let agg = self.agg_tail.as_ref().filter(|_| !self.tail.is_empty())?;
        Some(agg.unrated())
    }

    /// The tail's members, ascending: the member list of the tail group
    /// (the last group of [`IncrementalFormer::result`]) when it is
    /// non-empty, shared with it.
    pub fn tail(&self) -> &Arc<[u32]> {
        &self.tail
    }

    /// Projects the standing Step-1/2 state into a serializable
    /// [`FormerState`] — buckets in canonical (key-sorted) order, the
    /// Step-2 selection as indices into that order — for the `gf-persist`
    /// checkpoint writer. [`IncrementalFormer::import_state`] is the
    /// inverse; the round trip preserves the emitted grouping bit for
    /// bit.
    pub fn export_state(&self) -> FormerState {
        let mut order: Vec<&Key> = self.buckets.keys().collect();
        order.sort_unstable_by(|a, b| {
            a.items
                .cmp(&b.items)
                .then_with(|| a.score_bits.cmp(&b.score_bits))
        });
        let index_of: FxHashMap<&Key, u32> = order
            .iter()
            .enumerate()
            .map(|(idx, key)| (*key, idx as u32))
            .collect();
        let buckets = order
            .iter()
            .map(|key| {
                let b = &self.buckets[*key];
                FormerBucket {
                    items: key.items.to_vec(),
                    key_score_bits: key.score_bits.to_vec(),
                    users: b.users.clone(),
                    pos_min_bits: b.pos_min.iter().map(|s| s.to_bits()).collect(),
                    pos_sum_bits: b.pos_sum.iter().map(|s| s.to_bits()).collect(),
                }
            })
            .collect();
        let selected = self.selected.iter().map(|key| index_of[key]).collect();
        FormerState { buckets, selected }
    }

    /// Reconstructs a standing former from an exported [`FormerState`]
    /// against the matrix/prefs pair it was exported under.
    ///
    /// Derived state (per-user bucket keys, tail membership, tail
    /// aggregates, the emitted grouping) is rebuilt from the matrix
    /// rather than trusted — the tail aggregates re-accumulate in
    /// ascending user order, the exact order [`IncrementalFormer::new`]
    /// uses, so on a dyadic rating grid the restored former continues
    /// bit-for-bit from where the exported one stopped. The selection is
    /// installed as given, ideal or not; the next refresh re-runs the full
    /// Step-2 selection. Structural invariants (sorted unique membership,
    /// full user coverage, a well-formed selection of at most `ell - 1`
    /// buckets) are validated; a state that fails them yields
    /// [`GfError::Persist`].
    pub fn import_state(
        matrix: &RatingMatrix,
        cfg: FormationConfig,
        state: &FormerState,
    ) -> Result<Self> {
        cfg.validate(matrix)?;
        let corrupt = |msg: String| GfError::Persist(format!("invalid former state: {msg}"));
        let n = matrix.n_users() as usize;
        let mut buckets: FxHashMap<Key, Bucket> = FxHashMap::default();
        let mut keys: Vec<Key> = Vec::with_capacity(state.buckets.len());
        let mut user_keys: Vec<Option<Key>> = vec![None; n];
        for (idx, fb) in state.buckets.iter().enumerate() {
            if fb.pos_min_bits.len() != fb.items.len() || fb.pos_sum_bits.len() != fb.items.len() {
                return Err(corrupt(format!(
                    "bucket {idx} score vectors mismatch items"
                )));
            }
            if fb.users.is_empty() {
                return Err(corrupt(format!("bucket {idx} has no members")));
            }
            let key = Arc::new(BucketKey {
                items: fb.items.clone().into_boxed_slice(),
                score_bits: fb.key_score_bits.clone().into_boxed_slice(),
            });
            for (pos, &u) in fb.users.iter().enumerate() {
                if u as usize >= n {
                    return Err(corrupt(format!("bucket {idx} member {u} out of range")));
                }
                if pos > 0 && fb.users[pos - 1] >= u {
                    return Err(corrupt(format!("bucket {idx} members not sorted unique")));
                }
                let slot = &mut user_keys[u as usize];
                if slot.is_some() {
                    return Err(corrupt(format!("user {u} appears in two buckets")));
                }
                *slot = Some(Arc::clone(&key));
            }
            let bucket = Bucket {
                items: fb.items.clone().into_boxed_slice(),
                users: fb.users.clone(),
                pos_min: fb.pos_min_bits.iter().map(|&b| f64::from_bits(b)).collect(),
                pos_sum: fb.pos_sum_bits.iter().map(|&b| f64::from_bits(b)).collect(),
            };
            if buckets.insert(Arc::clone(&key), bucket).is_some() {
                return Err(corrupt(format!("bucket {idx} repeats an earlier key")));
            }
            keys.push(key);
        }
        let user_keys: Vec<Key> = user_keys
            .into_iter()
            .enumerate()
            .map(|(u, key)| key.ok_or_else(|| corrupt(format!("user {u} not in any bucket"))))
            .collect::<Result<_>>()?;
        let slots = cfg.ell.saturating_sub(1);
        if state.selected.len() > slots {
            return Err(corrupt(format!(
                "selection of {} buckets exceeds ell - 1 = {slots}",
                state.selected.len()
            )));
        }
        let mut selected: Vec<Key> = Vec::with_capacity(state.selected.len());
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        for &idx in &state.selected {
            if idx as usize >= keys.len() || !seen.insert(idx) {
                return Err(corrupt(format!("bad selection index {idx}")));
            }
            selected.push(Arc::clone(&keys[idx as usize]));
        }
        Ok(Self::from_parts(
            matrix,
            cfg,
            buckets,
            user_keys,
            Some(selected),
        ))
    }

    /// Patches the standing formation after a batch of rating updates.
    ///
    /// `matrix` and `prefs` must already reflect the updates (build them
    /// with [`RatingMatrix::with_upserts_under`] and [`PrefIndex::patched`]),
    /// and `updates` must cover **every** rating that changed since the
    /// last refresh — a user mutated behind the former's back corrupts the
    /// bucket state. An empty batch is valid: it re-runs the Step-2
    /// selection, which brings a non-ideal imported selection (see
    /// [`IncrementalFormer::import_state`]) to the cold one.
    ///
    /// The matrix may have **grown** since the last refresh (see
    /// [`crate::GrowthPolicy`]): every never-seen user is admitted as a
    /// dirty user with no old bucket — including the empty gap rows a
    /// sparse admission creates — and a brand-new item becomes a fresh
    /// column of the tail aggregates (it only enters touched buckets'
    /// top-`k` sequences through the dirty users that rated it). The one
    /// case where item growth can silently change *untouched* users'
    /// preference prefixes is `k > old_m` (their padded top-`k` gets
    /// longer); the refresh detects it and rebuilds the bucket state from
    /// scratch, which is still exactly the cold state. Shrinking is an
    /// error.
    pub fn refresh(
        &mut self,
        matrix: &RatingMatrix,
        prefs: &PrefIndex,
        updates: &[RatingDelta],
    ) -> Result<&FormationResult> {
        if (matrix.n_users() as usize) < self.user_keys.len() || matrix.n_items() < self.n_items {
            return Err(GfError::StaleIncrementalState(format!(
                "former built for {}x{} but matrix shrank to {}x{}",
                self.user_keys.len(),
                self.n_items,
                matrix.n_users(),
                matrix.n_items()
            )));
        }
        for d in updates {
            if d.user >= matrix.n_users() {
                return Err(GfError::UserOutOfRange {
                    user: d.user,
                    n_users: matrix.n_users(),
                });
            }
            if d.item >= matrix.n_items() {
                return Err(GfError::ItemOutOfRange {
                    item: d.item,
                    n_items: matrix.n_items(),
                });
            }
        }

        // 0. Population growth. New items first: if the truncation length
        //    `k.min(m)` changed, every sparse user's padded top-k just got
        //    longer — no untouched bucket survives that, so rebuild the
        //    Step-1 state cold (exact by construction) and keep going with
        //    the usual selection machinery below via a fresh former.
        //    Under `UserMean` a sparse user's padding imputes its own mean,
        //    which can outrank its low-rated items, so a new item id can
        //    enter an untouched sparse user's padded top-k: every user
        //    rated fewer than `k.min(m)` items is re-bucketed with the
        //    dirty users (`Min`/`Skip` pad at `r_min`, which never outranks
        //    a rated item of lower id).
        let old_n = self.user_keys.len() as u32;
        let mut padded: Vec<u32> = Vec::new();
        if matrix.n_items() != self.n_items {
            let want = self.cfg.k.min(matrix.n_items() as usize);
            if self.cfg.k.min(self.n_items as usize) != want {
                *self = IncrementalFormer::new(matrix, prefs, self.cfg)?;
                return Ok(&self.result);
            }
            if matches!(self.cfg.policy, MissingPolicy::UserMean) {
                padded.extend((0..old_n).filter(|&u| prefs.degree(u) < want));
            }
            if let Some(agg) = &mut self.agg_tail {
                agg.grow_items(matrix.n_items() as usize);
            }
            self.n_items = matrix.n_items();
        }
        //    New users: a never-seen user is a dirty user with no old
        //    bucket. Hash it into its bucket now (scores recomputed with
        //    the other touched buckets below) and start it outside the
        //    tail; the selection step splices it wherever it belongs.
        //    `touched` maps every bucket this refresh changes to its rank
        //    before the change (`None` for a bucket it creates).
        let mut touched: Touched = FxHashMap::default();
        let mut reader = TopKReader::for_config(matrix, prefs, &self.cfg);
        for u in old_n..matrix.n_users() {
            let key = self.place_user(&mut reader, u, &mut touched);
            self.user_keys.push(key);
            self.in_tail.push(false);
        }

        // 1. Migrate the per-item tail aggregates of users already in the
        //    tail; users outside contribute nothing yet.
        if let Some(agg) = &mut self.agg_tail {
            for d in updates {
                if self.in_tail[d.user as usize] {
                    if let Some(previous) = d.previous {
                        agg.remove(d.item, previous);
                    }
                    agg.add(d.item, d.score);
                }
            }
        }

        // 2. Move every dirty user from its old bucket to its new one.
        //    Admitted users ride along in `dirty` so the selection step
        //    accounts for them, but step 0 already placed them (and their
        //    matrix rows are final), so the move loop skips them — a
        //    sparse admission can create thousands of gap rows, and
        //    re-removing/re-inserting each from the shared empty-signature
        //    bucket would be quadratic busywork.
        let mut dirty: Vec<u32> = updates.iter().map(|d| d.user).collect();
        dirty.extend(padded);
        dirty.extend(old_n..matrix.n_users());
        dirty.sort_unstable();
        dirty.dedup();
        for &u in &dirty {
            if u >= old_n {
                continue; // admitted in step 0, already in its bucket
            }
            let old_key = Arc::clone(&self.user_keys[u as usize]);
            self.touch(&old_key, &mut touched);
            let emptied = {
                let b = self
                    .buckets
                    .get_mut(&old_key)
                    .expect("dirty user's standing bucket exists");
                let pos = b
                    .users
                    .binary_search(&u)
                    .expect("dirty user sits in its own bucket");
                b.users.remove(pos);
                b.users.is_empty()
            };
            if emptied {
                self.buckets.remove(&old_key);
            }
            let new_key = self.place_user(&mut reader, u, &mut touched);
            self.user_keys[u as usize] = new_key;
        }

        // 3. Recompute touched buckets' score vectors over members in
        //    ascending id order — the cold build's accumulation order, so
        //    the vectors are bit-for-bit what build_buckets produces — and
        //    swap each changed rank in the index. A bucket a user left and
        //    rejoined often ranks as before, and then the index is left
        //    alone.
        let (sem, agg) = (self.cfg.semantics, self.cfg.aggregation);
        for (key, old) in &touched {
            let new = self.buckets.get_mut(key).map(|b| {
                recompute_bucket_scores(&mut reader, b);
                BucketRank::of(key, b, sem, agg)
            });
            if new.as_ref() != old.as_ref() {
                if let Some(old) = old {
                    let indexed = self.index.remove(old);
                    debug_assert!(indexed, "every standing bucket is indexed");
                }
                if let Some(new) = new {
                    self.index.insert(new);
                }
            }
        }

        // 4. Read the Step-2 selection off the front of the index and
        //    splice users whose tail membership changed (bucket admissions,
        //    evictions, and dirty users that hopped across the boundary).
        let selected = indexed_selection(&self.index, self.cfg.ell);
        let previous = self.apply_selection(matrix, selected, &dirty);

        // 5. Emit the patched grouping, re-emitting what it left alone.
        self.emit(matrix, &previous, &touched);
        Ok(&self.result)
    }

    /// Records `key`'s bucket in `touched` with its rank as indexed,
    /// before the bucket's first change in this refresh, so step 3 of
    /// [`IncrementalFormer::refresh`] can swap it for the fresh rank.
    fn touch(&self, key: &Key, touched: &mut Touched) {
        if !touched.contains_key(key) {
            let (sem, agg) = (self.cfg.semantics, self.cfg.aggregation);
            let rank = self
                .buckets
                .get(key)
                .map(|b| BucketRank::of(key, b, sem, agg));
            touched.insert(Arc::clone(key), rank);
        }
    }

    /// Hashes user `u` into the bucket of its current top-`k` signature,
    /// keeping the member list ascending, and returns the bucket's key.
    /// The bucket is touched (see [`IncrementalFormer::touch`]); its
    /// score vectors are left stale until step 3 of
    /// [`IncrementalFormer::refresh`] recomputes them.
    fn place_user(&mut self, reader: &mut TopKReader<'_>, u: u32, touched: &mut Touched) -> Key {
        let (view, _) = reader.key(u);
        let key = match self.buckets.get_key_value(&view as &dyn KeyView) {
            Some((shared, _)) => Arc::clone(shared),
            None => Arc::new(view.to_key()),
        };
        self.touch(&key, touched);
        let b = self
            .buckets
            .entry(Arc::clone(&key))
            .or_insert_with(|| Bucket {
                items: view.items.into(),
                ..Bucket::default()
            });
        let pos = b
            .users
            .binary_search(&u)
            .expect_err("user cannot already be in its target bucket");
        b.users.insert(pos, u);
        key
    }

    /// Installs `new_selected` and splices every user whose tail
    /// membership changed into/out of the tail aggregates; returns the
    /// selection it replaced.
    fn apply_selection(
        &mut self,
        matrix: &RatingMatrix,
        new_selected: Vec<Key>,
        dirty: &[u32],
    ) -> Vec<Key> {
        let new_set: FxHashSet<&Key> = new_selected.iter().collect();
        let mut affected: Vec<u32> = dirty.to_vec();
        for key in &self.selected {
            if !new_set.contains(key) {
                if let Some(b) = self.buckets.get(key) {
                    affected.extend_from_slice(&b.users);
                }
            }
        }
        {
            let old_set: FxHashSet<&Key> = self.selected.iter().collect();
            for key in &new_selected {
                if !old_set.contains(key) {
                    affected.extend_from_slice(&self.buckets[key].users);
                }
            }
        }
        let (mut entered, mut left) = (Vec::new(), Vec::new());
        for u in affected {
            let want_tail = !new_set.contains(&self.user_keys[u as usize]);
            let is_tail = self.in_tail[u as usize];
            if want_tail == is_tail {
                continue;
            }
            self.in_tail[u as usize] = want_tail;
            if want_tail {
                entered.push(u);
            } else {
                left.push(u);
            }
            if let Some(agg) = &mut self.agg_tail {
                for (i, s) in matrix.user_ratings(u) {
                    if want_tail {
                        agg.add(i, s);
                    } else {
                        agg.remove(i, s);
                    }
                }
            }
        }
        drop(new_set);
        self.splice_tail(entered, left);
        std::mem::replace(&mut self.selected, new_selected)
    }

    /// Brings the sorted tail list in line with `in_tail` after the users
    /// in `entered` joined the tail and those in `left` quit it. No flip
    /// keeps the list (and the emitted tail group) as it is; any flip
    /// builds the successor list once, merging the flips into a copy of
    /// the old one.
    fn splice_tail(&mut self, mut entered: Vec<u32>, mut left: Vec<u32>) {
        if entered.is_empty() && left.is_empty() {
            return;
        }
        entered.sort_unstable();
        left.sort_unstable();
        let mut next = Vec::with_capacity(self.tail.len() + entered.len() - left.len());
        let (mut entered, mut left) = (entered.into_iter().peekable(), left.into_iter().peekable());
        for &u in self.tail.iter() {
            while let Some(e) = entered.next_if(|&e| e < u) {
                next.push(e);
            }
            if left.next_if_eq(&u).is_none() {
                next.push(u);
            }
        }
        next.extend(entered);
        debug_assert!(left.next().is_none(), "every leaving user was listed");
        self.tail = next.into();
    }

    /// Rebuilds `self.result` from the selected buckets plus the tail,
    /// copying no member list it already emitted: a selected bucket that
    /// is not in `touched` re-emits its group from the previous result
    /// (whose selection was `previous`), a rebuilt group keeps the member
    /// list of the previous group at its index when the members are the
    /// same, and the tail group shares the maintained tail list. Only the
    /// tail's top-`k` is rescored.
    fn emit(&mut self, matrix: &RatingMatrix, previous: &[Key], touched: &Touched) {
        let old = std::mem::take(&mut self.result.grouping.groups);
        let mut groups: Vec<Group> = Vec::with_capacity(self.selected.len() + 1);
        for (gi, key) in self.selected.iter().enumerate() {
            let kept = previous
                .iter()
                .position(|p| p == key)
                .filter(|_| !touched.contains_key(key));
            let group = match kept {
                Some(pi) => old[pi].clone(),
                None => {
                    let mut group = bucket_to_group(&self.buckets[key], &self.cfg);
                    if let Some(same) = old.get(gi).filter(|g| g.members == group.members) {
                        group.members = Arc::clone(&same.members);
                    }
                    group
                }
            };
            groups.push(group);
        }
        if !self.tail.is_empty() {
            groups.push(tail::tail_group(
                matrix,
                &self.cfg,
                Arc::clone(&self.tail),
                self.agg_tail.as_mut(),
            ));
        }
        let grouping = Grouping::new(groups);
        debug_assert!(grouping
            .validate(self.user_keys.len() as u32, self.cfg.ell)
            .is_ok());
        let objective = grouping.objective();
        self.result = FormationResult {
            grouping,
            objective,
            n_buckets: self.buckets.len(),
        };
    }
}

/// The Step-2 selection read off the rank index: the keys of its first
/// `ell - 1` buckets.
fn indexed_selection(index: &BTreeSet<BucketRank>, ell: usize) -> Vec<Key> {
    index
        .iter()
        .take(ell.saturating_sub(1))
        .map(|rank| Arc::clone(&rank.key))
        .collect()
}

/// The Step-2 selection by a full scan of `buckets`: the `ell - 1` best
/// buckets under [`bucket::bucket_order`], in the exact pop sequence of a
/// cold [`GreedyFormer`](super::GreedyFormer). The oracle the rank index
/// is tested against.
#[cfg(test)]
fn ideal_selection(buckets: &FxHashMap<Key, Bucket>, cfg: &FormationConfig) -> Vec<Key> {
    let slots = cfg.ell.saturating_sub(1).min(buckets.len());
    if slots == 0 {
        return Vec::new();
    }
    let (sem, agg) = (cfg.semantics, cfg.aggregation);
    let mut entries: Vec<(f64, &Key, &Bucket)> = buckets
        .iter()
        .map(|(key, b)| (b.satisfaction(sem, agg), key, b))
        .collect();
    let cmp = |x: &(f64, &Key, &Bucket), y: &(f64, &Key, &Bucket)| {
        y.0.total_cmp(&x.0)
            .then_with(|| bucket::bucket_order(x.2, y.2, sem, agg))
    };
    if entries.len() > slots {
        entries.select_nth_unstable_by(slots - 1, cmp);
        entries.truncate(slots);
    }
    entries.sort_unstable_by(cmp);
    entries.into_iter().map(|e| e.1.clone()).collect()
}

/// Recomputes a touched bucket's per-position score vectors from its
/// members in ascending id order — the same accumulation order as the cold
/// build, so the result is bit-for-bit identical to `build_buckets`.
fn recompute_bucket_scores(reader: &mut TopKReader<'_>, b: &mut Bucket) {
    for idx in 0..b.users.len() {
        let u = b.users[idx];
        let (items, scores) = reader.top_k(u);
        debug_assert_eq!(
            items,
            b.items.as_ref(),
            "member {u} no longer matches its bucket's item sequence"
        );
        if idx == 0 {
            b.pos_min.clear();
            b.pos_min.extend_from_slice(scores);
            b.pos_sum.clear();
            b.pos_sum.extend_from_slice(scores);
        } else {
            b.accumulate_scores(scores);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregation;
    use crate::alg::{GreedyFormer, GroupFormer};
    use crate::scale::RatingScale;

    fn dense(rows: &[&[f64]]) -> (RatingMatrix, PrefIndex) {
        let m = RatingMatrix::from_dense(rows, RatingScale::one_to_five()).unwrap();
        let p = PrefIndex::build(&m);
        (m, p)
    }

    /// Table 1 of the paper.
    fn example1() -> (RatingMatrix, PrefIndex) {
        dense(&[
            &[1.0, 4.0, 3.0],
            &[2.0, 3.0, 5.0],
            &[2.0, 5.0, 1.0],
            &[2.0, 5.0, 1.0],
            &[3.0, 1.0, 1.0],
            &[1.0, 2.0, 5.0],
        ])
    }

    fn apply(
        matrix: &mut RatingMatrix,
        prefs: &mut PrefIndex,
        updates: &[(u32, u32, f64)],
    ) -> Vec<RatingDelta> {
        apply_grown(matrix, prefs, updates, crate::matrix::GrowthPolicy::Fixed)
    }

    fn assert_matches_cold(
        former: &IncrementalFormer,
        matrix: &RatingMatrix,
        prefs: &PrefIndex,
        cfg: &FormationConfig,
    ) {
        let cold = GreedyFormer::new().form(matrix, prefs, cfg).unwrap();
        assert_eq!(former.result(), &cold);
        let cold_buckets = bucket::canonical_buckets(bucket::build_buckets(
            matrix,
            prefs,
            cfg.semantics,
            cfg.aggregation,
            cfg.policy,
            cfg.k,
        ));
        assert_eq!(former.canonical_buckets(), cold_buckets);
        assert_index_is_the_scan(former);
    }

    /// The rank index and tail list agree with a from-scratch scan.
    fn assert_index_is_the_scan(former: &IncrementalFormer) {
        let indexed = former.checked_index().unwrap();
        let scanned: Vec<Vec<u32>> = ideal_selection(&former.buckets, &former.cfg)
            .iter()
            .map(|key| former.buckets[key].users.clone())
            .collect();
        assert_eq!(indexed, scanned);
    }

    #[test]
    fn init_equals_cold_greedy_on_paper_example() {
        let (m, p) = example1();
        for sem in Semantics::all() {
            for agg in Aggregation::paper_set() {
                for k in 1..=3 {
                    for ell in 1..=6 {
                        let cfg = FormationConfig::new(sem, agg, k, ell);
                        let former = IncrementalFormer::new(&m, &p, cfg).unwrap();
                        assert_matches_cold(&former, &m, &p, &cfg);
                    }
                }
            }
        }
    }

    #[test]
    fn refresh_tracks_cold_rebuild_exactly() {
        let (mut m, mut p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 2, 3);
        let mut former = IncrementalFormer::new(&m, &p, cfg).unwrap();
        let batches: Vec<Vec<(u32, u32, f64)>> = vec![
            vec![(0, 0, 5.0)],
            vec![(2, 2, 4.0), (3, 2, 4.0)],
            vec![(5, 1, 5.0), (5, 0, 3.0), (1, 1, 1.0)],
            vec![(4, 2, 5.0)],
        ];
        for batch in batches {
            let deltas = apply(&mut m, &mut p, &batch);
            former.refresh(&m, &p, &deltas).unwrap();
            assert_matches_cold(&former, &m, &p, &cfg);
        }
    }

    #[test]
    fn moment_semantics_init_and_refresh_track_cold_rebuild() {
        // Under `Min` the maintained tail scores Consensus (from its
        // `sum_sq` moments) and LeaderWeighted (from the leader's row);
        // under `UserMean`/`Skip` the exact rescoring fallback runs. Both
        // must equal a cold build after every batch.
        for sem in [
            Semantics::Consensus { lambda: 0.6 },
            Semantics::LeaderWeighted,
        ] {
            for policy in [
                MissingPolicy::Min,
                MissingPolicy::UserMean,
                MissingPolicy::Skip,
            ] {
                let (mut m, mut p) = example1();
                let cfg = FormationConfig::new(sem, Aggregation::Min, 2, 3).with_policy(policy);
                let mut former = IncrementalFormer::new(&m, &p, cfg).unwrap();
                assert_matches_cold(&former, &m, &p, &cfg);
                for batch in [
                    vec![(0u32, 0u32, 5.0)],
                    vec![(2, 2, 4.0), (3, 2, 4.0)],
                    vec![(5, 1, 5.0), (5, 0, 3.0), (1, 1, 1.0)],
                ] {
                    let deltas = apply(&mut m, &mut p, &batch);
                    former.refresh(&m, &p, &deltas).unwrap();
                    assert_matches_cold(&former, &m, &p, &cfg);
                }
            }
        }
    }

    #[test]
    fn refresh_handles_sparse_inserts_and_av() {
        let mut m = RatingMatrix::from_triples(
            5,
            6,
            vec![(0, 0, 5.0), (1, 2, 3.0), (2, 2, 3.0), (4, 5, 1.0)],
            RatingScale::one_to_five(),
        )
        .unwrap();
        let mut p = PrefIndex::build(&m);
        let cfg = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 2, 3);
        let mut former = IncrementalFormer::new(&m, &p, cfg).unwrap();
        for batch in [
            vec![(3u32, 1u32, 4.0)], // first rating of a previously empty user
            vec![(0, 0, 1.0), (1, 2, 5.0)],
            vec![(4, 5, 5.0), (4, 0, 2.0)],
        ] {
            let deltas = apply(&mut m, &mut p, &batch);
            former.refresh(&m, &p, &deltas).unwrap();
            assert_matches_cold(&former, &m, &p, &cfg);
        }
    }

    #[test]
    fn skip_and_user_mean_policies_fall_back_to_exact_rescoring() {
        for policy in [MissingPolicy::Skip, MissingPolicy::UserMean] {
            let mut m = RatingMatrix::from_triples(
                6,
                5,
                (0..6u32).flat_map(|u| {
                    (0..3u32)
                        .filter(move |i| (u + i) % 3 != 2)
                        .map(move |i| (u, i, 1.0 + ((u * 2 + i) % 5) as f64))
                }),
                RatingScale::one_to_five(),
            )
            .unwrap();
            let mut p = PrefIndex::build(&m);
            let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Sum, 2, 3)
                .with_policy(policy);
            let mut former = IncrementalFormer::new(&m, &p, cfg).unwrap();
            assert_matches_cold(&former, &m, &p, &cfg);
            let deltas = apply(&mut m, &mut p, &[(0, 4, 5.0), (5, 0, 2.0)]);
            former.refresh(&m, &p, &deltas).unwrap();
            assert_matches_cold(&former, &m, &p, &cfg);
        }
    }

    fn apply_grown(
        matrix: &mut RatingMatrix,
        prefs: &mut PrefIndex,
        updates: &[(u32, u32, f64)],
        growth: crate::matrix::GrowthPolicy,
    ) -> Vec<RatingDelta> {
        let (m, outcomes) = matrix.with_upserts_under(updates, growth).unwrap();
        let users: Vec<u32> = updates.iter().map(|&(u, _, _)| u).collect();
        *prefs = prefs.patched(&m, &users);
        *matrix = m;
        updates
            .iter()
            .zip(outcomes)
            .map(|(&(u, i, s), o)| RatingDelta::from_upsert(u, i, s, o))
            .collect()
    }

    #[test]
    fn refresh_admits_new_users_and_items_exactly() {
        let (mut m, mut p) = example1();
        let growth = crate::matrix::GrowthPolicy::unbounded();
        for sem in Semantics::all() {
            let cfg = FormationConfig::new(sem, Aggregation::Min, 2, 3);
            let (mut m2, mut p2) = (m.clone(), p.clone());
            let mut former = IncrementalFormer::new(&m2, &p2, cfg).unwrap();
            // Batch 1: a brand-new user rating an existing item.
            let deltas = apply_grown(&mut m2, &mut p2, &[(6, 1, 5.0)], growth);
            former.refresh(&m2, &p2, &deltas).unwrap();
            assert_matches_cold(&former, &m2, &p2, &cfg);
            // Batch 2: a never-seen user on a never-seen item, plus a gap
            // row (user 8 skips 7 -> 7 is admitted with no ratings), mixed
            // with an old user's update.
            let deltas = apply_grown(&mut m2, &mut p2, &[(8, 4, 4.0), (0, 0, 2.0)], growth);
            former.refresh(&m2, &p2, &deltas).unwrap();
            assert_eq!(m2.n_users(), 9);
            assert_eq!(m2.n_items(), 5);
            assert_matches_cold(&former, &m2, &p2, &cfg);
            // Batch 3: the gap user starts rating.
            let deltas = apply_grown(&mut m2, &mut p2, &[(7, 2, 3.0), (7, 4, 1.0)], growth);
            former.refresh(&m2, &p2, &deltas).unwrap();
            assert_matches_cold(&former, &m2, &p2, &cfg);
        }
        // Keep the outer fixtures untouched warnings away.
        let _ = apply(&mut m, &mut p, &[]);
    }

    #[test]
    fn item_growth_past_k_rebuilds_and_stays_exact() {
        // k = 4 > m = 2: admitting item 2 lengthens every user's padded
        // top-k, which must trigger the cold re-bucket path.
        let (mut m, mut p) = dense(&[&[1.0, 4.0], &[2.0, 3.0], &[2.0, 5.0]]);
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Sum, 4, 2);
        let mut former = IncrementalFormer::new(&m, &p, cfg).unwrap();
        let growth = crate::matrix::GrowthPolicy::unbounded();
        let deltas = apply_grown(&mut m, &mut p, &[(1, 2, 5.0)], growth);
        former.refresh(&m, &p, &deltas).unwrap();
        assert_eq!(m.n_items(), 3);
        assert_matches_cold(&former, &m, &p, &cfg);
        // And a follow-up ordinary refresh keeps working on the rebuilt state.
        let deltas = apply_grown(&mut m, &mut p, &[(0, 2, 1.0), (3, 0, 4.0)], growth);
        former.refresh(&m, &p, &deltas).unwrap();
        assert_matches_cold(&former, &m, &p, &cfg);
    }

    #[test]
    fn long_top_k_ranks_spill_to_the_heap_and_stay_exact() {
        // k = 7 needs 3 + 7 + 4 = 14 rank words, past the 11 kept
        // inline, for every semantics.
        let rows: Vec<Vec<f64>> = (0..14)
            .map(|u: u32| {
                (0..9)
                    .map(|i: u32| 1.0 + ((u * 5 + i * 7 + u * i) % 5) as f64)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let m0 = RatingMatrix::from_dense(&refs, RatingScale::one_to_five()).unwrap();
        let p0 = PrefIndex::build(&m0);
        for sem in Semantics::all() {
            let cfg = FormationConfig::new(sem, Aggregation::Sum, 7, 4);
            let (mut m, mut p) = (m0.clone(), p0.clone());
            let mut former = IncrementalFormer::new(&m, &p, cfg).unwrap();
            assert!(former
                .index
                .iter()
                .all(|rank| matches!(rank.words, Words::Heap(_))));
            assert_matches_cold(&former, &m, &p, &cfg);
            for batch in [vec![(3u32, 1u32, 5.0)], vec![(0, 8, 1.0), (12, 2, 4.0)]] {
                let deltas = apply(&mut m, &mut p, &batch);
                former.refresh(&m, &p, &deltas).unwrap();
                assert_matches_cold(&former, &m, &p, &cfg);
            }
        }
    }

    #[test]
    fn threaded_init_matches_sequential_bit_for_bit() {
        // Integer grid: the sharded Step-1 sums are exact, so the standing
        // state (buckets, keys, emitted result) is identical across thread
        // counts.
        let rows: Vec<Vec<f64>> = (0..17)
            .map(|u: u32| {
                (0..5)
                    .map(|i: u32| 1.0 + ((u * 7 + i * 3 + u * i) % 5) as f64)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let m = RatingMatrix::from_dense(&refs, RatingScale::one_to_five()).unwrap();
        let p = PrefIndex::build(&m);
        for sem in Semantics::all() {
            let base = FormationConfig::new(sem, Aggregation::Min, 2, 4);
            let seq = IncrementalFormer::new(&m, &p, base).unwrap();
            for threads in [2usize, 7] {
                let cfg = base.with_threads(threads);
                let par = IncrementalFormer::new(&m, &p, cfg).unwrap();
                assert_eq!(par.canonical_buckets(), seq.canonical_buckets());
                assert_eq!(par.result(), seq.result());
                // And both keep refreshing exactly.
                let (mut m2, mut p2) = (m.clone(), p.clone());
                let mut par = par;
                let deltas = apply(&mut m2, &mut p2, &[(3, 1, 5.0), (12, 0, 1.0)]);
                par.refresh(&m2, &p2, &deltas).unwrap();
                assert_matches_cold(&par, &m2, &p2, &cfg);
            }
        }
    }

    #[test]
    fn export_import_round_trip_is_exact_and_keeps_refreshing() {
        let (mut m, mut p) = example1();
        for sem in Semantics::all() {
            let cfg = FormationConfig::new(sem, Aggregation::Min, 2, 3);
            let mut former = IncrementalFormer::new(&m, &p, cfg).unwrap();
            let deltas = apply(&mut m, &mut p, &[(0, 0, 5.0), (4, 1, 4.0)]);
            former.refresh(&m, &p, &deltas).unwrap();
            let state = former.export_state();
            let mut restored = IncrementalFormer::import_state(&m, cfg, &state).unwrap();
            assert_eq!(restored.canonical_buckets(), former.canonical_buckets());
            assert_eq!(restored.result(), former.result());
            // The restored former keeps tracking cold exactly.
            let deltas = apply(&mut m, &mut p, &[(2, 2, 4.0), (5, 0, 1.0)]);
            restored.refresh(&m, &p, &deltas).unwrap();
            former.refresh(&m, &p, &deltas).unwrap();
            assert_matches_cold(&restored, &m, &p, &cfg);
            assert_eq!(restored.result(), former.result());
        }
    }

    #[test]
    fn import_rejects_corrupt_states() {
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 2, 3);
        let former = IncrementalFormer::new(&m, &p, cfg).unwrap();
        let good = former.export_state();
        // A user claimed by two buckets.
        let mut bad = good.clone();
        let u = bad.buckets[0].users[0];
        if let Some(other) = bad.buckets.get_mut(1) {
            other.users.insert(0, u);
        }
        assert!(matches!(
            IncrementalFormer::import_state(&m, cfg, &bad),
            Err(GfError::Persist(_))
        ));
        // A selection index out of range.
        let mut bad = good.clone();
        bad.selected.push(bad.buckets.len() as u32 + 7);
        assert!(matches!(
            IncrementalFormer::import_state(&m, cfg, &bad),
            Err(GfError::Persist(_))
        ));
        // A missing user (drop one bucket entirely).
        let mut bad = good.clone();
        bad.selected.clear();
        bad.buckets.pop();
        assert!(matches!(
            IncrementalFormer::import_state(&m, cfg, &bad),
            Err(GfError::Persist(_))
        ));
        // More selected buckets than the ell - 1 own-group slots: every
        // one of the 5 buckets, for ell = 3.
        let mut bad = good.clone();
        assert_eq!(bad.buckets.len(), 5);
        bad.selected = (0..bad.buckets.len() as u32).collect();
        assert!(matches!(
            IncrementalFormer::import_state(&m, cfg, &bad),
            Err(GfError::Persist(_))
        ));
    }

    #[test]
    fn a_stale_imported_selection_converges_on_the_next_refresh() {
        // A valid but non-ideal selection — one selected bucket swapped
        // for an unselected one — is installed as is, and one empty
        // refresh brings it to the cold grouping.
        let (m, p) = example1();
        for sem in Semantics::all() {
            let cfg = FormationConfig::new(sem, Aggregation::Min, 2, 3);
            let mut stale = IncrementalFormer::new(&m, &p, cfg).unwrap().export_state();
            let unselected = (0..stale.buckets.len() as u32)
                .find(|idx| !stale.selected.contains(idx))
                .expect("more buckets than slots");
            stale.selected[0] = unselected;
            let mut former = IncrementalFormer::import_state(&m, cfg, &stale).unwrap();
            assert_eq!(former.export_state(), stale, "{sem}");
            let emitted = former.result().clone();
            emitted.grouping.validate(m.n_users(), cfg.ell).unwrap();
            let selected_users: Vec<&[u32]> = stale
                .selected
                .iter()
                .map(|&idx| stale.buckets[idx as usize].users.as_slice())
                .collect();
            let groups = &emitted.grouping.groups;
            assert_eq!(groups.len(), stale.selected.len() + 1, "{sem}");
            for (group, users) in groups.iter().zip(&selected_users) {
                assert_eq!(&*group.members, *users, "{sem}");
            }
            let tail: Vec<u32> = (0..m.n_users())
                .filter(|u| !selected_users.iter().any(|users| users.contains(u)))
                .collect();
            assert_eq!(*groups.last().unwrap().members, *tail, "{sem}");
            let cold = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
            assert_ne!(
                &emitted, &cold,
                "{sem}: the stale selection is the ideal one"
            );
            former.refresh(&m, &p, &[]).unwrap();
            assert_eq!(former.result(), &cold, "{sem}");
        }
    }

    #[test]
    fn descending_words_reverse_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            0.5,
            5.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    descending(a).cmp(&descending(b)),
                    b.total_cmp(&a),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn refresh_rejects_mismatched_matrix() {
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 2);
        let mut former = IncrementalFormer::new(&m, &p, cfg).unwrap();
        let (small, small_p) = dense(&[&[1.0, 2.0, 3.0]]);
        assert!(matches!(
            former.refresh(&small, &small_p, &[]),
            Err(GfError::StaleIncrementalState(_))
        ));
        assert!(matches!(
            former.refresh(
                &m,
                &p,
                &[RatingDelta {
                    user: 99,
                    item: 0,
                    score: 3.0,
                    previous: None
                }]
            ),
            Err(GfError::UserOutOfRange { .. })
        ));
    }
}
