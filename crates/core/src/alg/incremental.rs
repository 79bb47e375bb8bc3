//! Dirty-bucket incremental re-formation.
//!
//! The greedy algorithms decompose into Step 1 (hash users into buckets by
//! preference signature), Step 2 (pick the `ell - 1` best buckets) and
//! Step 3 (merge the rest into a tail group). A small batch of rating
//! updates only perturbs the buckets of the touched users, so a standing
//! formation can be *patched* instead of recomputed: [`IncrementalFormer`]
//! keeps the Step-1 bucket table alive between refreshes, moves only the
//! dirty users between buckets, keeps every bucket in one indexed heap
//! under the Step-2 order that only the touched buckets update, and
//! maintains the tail group's member list and per-item score aggregates
//! under member churn. Refresh cost is proportional to the update batch
//! (plus an `O(m)` tail scoring pass), not to a full `O(nnz log nnz)`
//! rebuild, and the emitted grouping shares every member list the refresh
//! left alone with the previous one.
//!
//! ## Equivalence to a cold rebuild
//!
//! The bucket state is maintained *exactly*: after any sequence of
//! refreshes, the bucket multiset equals what [`bucket::build_buckets`]
//! produces on the current matrix, bit for bit (touched buckets recompute
//! their score vectors over members in ascending id order — the same
//! accumulation order as a cold build). The heap holds exactly the
//! buckets with members, each ordered by its current state, so the first
//! `ell - 1` buckets it yields are always the full Step-2 selection. A
//! fresh former *is* the cold formation: [`GreedyFormer`](super::GreedyFormer)
//! returns the grouping [`IncrementalFormer::new`] emits. A patched one
//! emits that grouping, exactly, whenever ratings sit on a dyadic grid
//! (whole or half stars — every built-in [`crate::RatingScale`]) under
//! [`MissingPolicy::Min`] or [`MissingPolicy::Skip`]/[`MissingPolicy::UserMean`]
//! (the latter two rescore the tail with the full engine and are exact on
//! any input; the `Min` fast path maintains the tail's per-item rater
//! count and what the semantics scores of it — minimum, sum, or sum and
//! sum of squares — incrementally, which off-grid can drift by one ulp
//! per update). That holds for all four semantics:
//! Consensus scores the maintained moments through the same
//! `consensus_score` closed form the cold engine uses, and LeaderWeighted
//! adds the lowest-id tail member's row to the maintained sum.
//! `tests/prop_incremental.rs` enforces these properties across random
//! rating streams and dirty-set partitions, and checks the heap and the
//! tail list against a from-scratch scan after every refresh.
//!
//! ## Costs per refresh
//!
//! With `B` standing buckets, `n` users and `m` items:
//!
//! * bucket maintenance: `O(Σ |touched bucket| · k)` — proportional to the
//!   dirty batch for typical (small) buckets; a user moves between the
//!   ascending member lists threaded through the table, found through the
//!   table's key fingerprint index;
//! * selection: `O(ell log ell + |touched| · log B)` — each touched bucket
//!   leaves the heap before its first change and re-enters once its
//!   scores are recomputed; the selection is a best-first walk of the
//!   heap's top `ell - 1`;
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
//! [`IncrementalFormer::import_state`]) is the cold formation: one flat
//! Step-1 table of per-bucket records, which [`IncrementalFormer::new`]
//! builds in two reads of every user's key (the first sizes the records,
//! the second fills them) and which allocates per bucket, not per user,
//! an `O(n)` pass that links the member lists, an `O(B)` heapify, and one
//! pass over the tail members' rows that accumulates, per item, the rater
//! count and only what the semantics scores. Its state is a few flat
//! arrays, so cloning or dropping a former costs a few `memcpy`s or
//! frees, whatever `B` is.

use super::bucket::{self, Bucket, BucketTable, KeyRef, TopKReader, NONE};
use super::order::Order;
use super::tail::{self, TailAgg};
use super::{FormationConfig, FormationResult};
use crate::error::{GfError, Result};
use crate::fxhash::FxHashSet;
use crate::grouping::{Group, Grouping};
use crate::grouprec::MissingPolicy;
use crate::matrix::RatingMatrix;
use crate::prefs::PrefIndex;
use std::sync::Arc;

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
    /// Its `bucket_of` is each user's current bucket.
    table: BucketTable,
    /// Every bucket with members, in Step-2 order: the ideal selection is
    /// its `ell - 1` best.
    order: Order,
    /// The buckets currently holding their own group, in emission (pop)
    /// order.
    selected: Vec<u32>,
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
    /// Runs the cold formation under `cfg` — the grouping
    /// [`GreedyFormer`](super::GreedyFormer) returns — and keeps the state
    /// that makes it patchable.
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
        Ok(Self::from_parts(matrix, cfg, table, None))
    }

    /// Assembles a former from a Step-1 table and a Step-2 selection
    /// (`None`: the ideal one), deriving the rest from the matrix: the
    /// heap (one heapify), tail membership, the tail aggregates
    /// (accumulated in ascending user order, so two formers over the same
    /// state agree bit for bit) and the emitted grouping.
    fn from_parts(
        matrix: &RatingMatrix,
        cfg: FormationConfig,
        table: BucketTable,
        selected: Option<Vec<u32>>,
    ) -> Self {
        let order = Order::of(&table, cfg.semantics, cfg.aggregation);
        let selected = selected.unwrap_or_else(|| order.best(&table, cfg.ell - 1));
        let mut in_tail = vec![true; table.bucket_of().len()];
        for &b in &selected {
            for u in table.members(b) {
                in_tail[u as usize] = false;
            }
        }
        let tail: Arc<[u32]> = tail::members_of(&in_tail).into();
        let agg_tail = TailAgg::for_config(&cfg, matrix, &tail);
        let mut former = IncrementalFormer {
            cfg,
            n_items: matrix.n_items(),
            table,
            order,
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
        former.emit(matrix, &[], &[]);
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

    /// The standing formation, the former consumed.
    pub(crate) fn into_result(self) -> FormationResult {
        self.result
    }

    /// The formation of split-aware selection (see
    /// [`GreedyFormer::with_split_aware_selection`](super::GreedyFormer::with_split_aware_selection))
    /// from this former's cold state, the former consumed: `ell - 1` times
    /// the best bucket leaves the heap and emits its lowest member alone
    /// if it has more than one, and then re-enters with the rest; everyone
    /// left merges into the tail. Taking the remainder back into the heap
    /// is all a split needs, since the heap orders every bucket.
    pub(crate) fn into_split_aware(
        mut self,
        matrix: &RatingMatrix,
        prefs: &PrefIndex,
    ) -> FormationResult {
        let cfg = self.cfg;
        let mut reader = TopKReader::for_config(matrix, prefs, &cfg);
        let mut in_tail = vec![true; self.in_tail.len()];
        let mut groups: Vec<Group> = Vec::with_capacity(cfg.ell);
        while groups.len() + 1 < cfg.ell {
            let Some(&b) = self.order.best(&self.table, 1).first() else {
                break;
            };
            self.order.remove(&self.table, b);
            let lowest = self.table.members(b).next();
            let group = match lowest {
                Some(u) if self.table.size(b) > 1 => {
                    self.table.leave(u);
                    self.table.rescore(b, &mut reader);
                    self.order.insert(&self.table, b);
                    let (items, scores) = reader.top_k(u);
                    Bucket::of_user(u, items, scores).into_group(&cfg)
                }
                _ => self.table.bucket(b).into_group(&cfg),
            };
            for &u in group.members.iter() {
                in_tail[u as usize] = false;
            }
            groups.push(group);
        }
        let tail = tail::members_of(&in_tail);
        if !tail.is_empty() {
            let mut agg = TailAgg::for_config(&cfg, matrix, &tail);
            groups.push(tail::tail_group(matrix, &cfg, tail.into(), agg.as_mut()));
        }
        let grouping = Grouping::new(groups);
        let objective = grouping.objective();
        FormationResult {
            grouping,
            objective,
            n_buckets: self.result.n_buckets,
        }
    }

    /// Test support: a canonical view of the maintained Step-1 state, for
    /// comparison against [`bucket::canonical_buckets`] of a cold build.
    #[doc(hidden)]
    pub fn canonical_buckets(&self) -> Vec<bucket::CanonicalBucket> {
        bucket::canonical_buckets(self.table.buckets().collect())
    }

    /// Test support: checks the maintained Step-2 state against a
    /// from-scratch recomputation — the heap holds every bucket with
    /// members exactly once and no other, each cached satisfaction is
    /// fresh and no bucket pops before its parent under the Step-2 order,
    /// and the tail list is exactly the users flagged as tail members —
    /// then returns the member lists of the buckets the heap yields first:
    /// the selection the next refresh installs, for comparison against a
    /// [`bucket::bucket_order`] scan of a cold build.
    #[doc(hidden)]
    pub fn checked_index(&self) -> std::result::Result<Vec<Vec<u32>>, String> {
        self.order.check(&self.table)?;
        if *self.tail != *tail::members_of(&self.in_tail) {
            return Err(format!(
                "the tail list ({} users) is not the flagged tail members",
                self.tail.len()
            ));
        }
        Ok(self
            .order
            .best(&self.table, self.cfg.ell - 1)
            .iter()
            .map(|&b| self.table.members(b).collect())
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
        let t = &self.table;
        let mut order: Vec<u32> = t.ids().collect();
        // Keys compare as their (items, score bits) pairs do.
        order.sort_unstable_by(|&a, &b| t.key(a).0.cmp(t.key(b).0));
        let mut index_of = vec![NONE; t.len()];
        for (idx, &b) in order.iter().enumerate() {
            index_of[b as usize] = idx as u32;
        }
        let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect();
        let buckets = order
            .iter()
            .map(|&b| {
                let (pos_min, pos_sum) = t.scores(b);
                FormerBucket {
                    items: t.items(b).to_vec(),
                    key_score_bits: t.key(b).score_bits(t.widths().0).collect(),
                    users: t.members(b).collect(),
                    pos_min_bits: bits(pos_min),
                    pos_sum_bits: bits(pos_sum),
                }
            })
            .collect();
        let selected = self
            .selected
            .iter()
            .map(|&b| index_of[b as usize])
            .collect();
        FormerState { buckets, selected }
    }

    /// Reconstructs a standing former from an exported [`FormerState`]
    /// against the matrix/prefs pair it was exported under.
    ///
    /// Derived state (per-user buckets, tail membership, tail aggregates,
    /// the emitted grouping) is rebuilt from the matrix rather than
    /// trusted — the tail aggregates re-accumulate in ascending user
    /// order, the exact order [`IncrementalFormer::new`] uses, so on a
    /// dyadic rating grid the restored former continues bit-for-bit from
    /// where the exported one stopped. The selection is installed as
    /// given, ideal or not; the next refresh re-runs the full Step-2
    /// selection. Structural invariants (keys of the configuration's
    /// top-`k` length over the matrix's items, sorted unique membership,
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
        let mut table = BucketTable::empty(matrix, cfg.semantics, cfg.aggregation, cfg.k);
        let (len, n_bits) = table.widths();
        let mut bucket_of = vec![NONE; n];
        let mut words = Vec::new();
        let floats =
            |bits: &[u64]| -> Vec<f64> { bits.iter().map(|&b| f64::from_bits(b)).collect() };
        for (idx, fb) in state.buckets.iter().enumerate() {
            if fb.items.len() != len
                || fb.key_score_bits.len() != n_bits
                || fb.pos_min_bits.len() != len
                || fb.pos_sum_bits.len() != len
            {
                return Err(corrupt(format!(
                    "bucket {idx} is not {len} items and {n_bits} key scores wide"
                )));
            }
            if let Some(&i) = fb.items.iter().find(|&&i| i >= matrix.n_items()) {
                return Err(corrupt(format!("bucket {idx} item {i} out of range")));
            }
            if fb.users.is_empty() {
                return Err(corrupt(format!("bucket {idx} has no members")));
            }
            for (pos, &u) in fb.users.iter().enumerate() {
                if u as usize >= n {
                    return Err(corrupt(format!("bucket {idx} member {u} out of range")));
                }
                if pos > 0 && fb.users[pos - 1] >= u {
                    return Err(corrupt(format!("bucket {idx} members not sorted unique")));
                }
                if bucket_of[u as usize] != NONE {
                    return Err(corrupt(format!("user {u} appears in two buckets")));
                }
                bucket_of[u as usize] = idx as u32;
            }
            let key = KeyRef::encode(&fb.items, &fb.key_score_bits, &mut words);
            if table.find(key).is_some() {
                return Err(corrupt(format!("bucket {idx} repeats an earlier key")));
            }
            let (pos_min, pos_sum) = (floats(&fb.pos_min_bits), floats(&fb.pos_sum_bits));
            let b = table.open(key, &pos_min, &pos_sum, fb.users.len() as u32);
            debug_assert_eq!(b, idx as u32, "bucket ids are state indices");
        }
        if let Some(u) = bucket_of.iter().position(|&b| b == NONE) {
            return Err(corrupt(format!("user {u} not in any bucket")));
        }
        table.link_members(bucket_of);
        let slots = cfg.ell - 1;
        if state.selected.len() > slots {
            return Err(corrupt(format!(
                "selection of {} buckets exceeds ell - 1 = {slots}",
                state.selected.len()
            )));
        }
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        for &idx in &state.selected {
            if idx as usize >= state.buckets.len() || !seen.insert(idx) {
                return Err(corrupt(format!("bad selection index {idx}")));
            }
        }
        Ok(Self::from_parts(
            matrix,
            cfg,
            table,
            Some(state.selected.clone()),
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
        let old_n = self.in_tail.len() as u32;
        if matrix.n_users() < old_n || matrix.n_items() < self.n_items {
            return Err(GfError::StaleIncrementalState(format!(
                "former built for {old_n}x{} but matrix shrank to {}x{}",
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
        //    `touched` lists every bucket this refresh changes, each taken
        //    out of the heap before its first change.
        let mut touched: Vec<u32> = Vec::new();
        let mut reader = TopKReader::for_config(matrix, prefs, &self.cfg);
        for u in old_n..matrix.n_users() {
            self.place_user(&mut reader, u, &mut touched);
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
        //    bucket would be busywork. A bucket a user empties stays
        //    indexed, so a user with its key can rejoin it in this pass.
        let mut dirty: Vec<u32> = updates.iter().map(|d| d.user).collect();
        dirty.extend(padded);
        dirty.extend(old_n..matrix.n_users());
        dirty.sort_unstable();
        dirty.dedup();
        for &u in dirty.iter().filter(|&&u| u < old_n) {
            self.touch(self.table.bucket_of()[u as usize], &mut touched);
            self.table.leave(u);
            self.place_user(&mut reader, u, &mut touched);
        }

        // 3. Recompute touched buckets' score vectors over members in
        //    ascending id order — the cold build's accumulation order, so
        //    the vectors are bit-for-bit what build_buckets produces — and
        //    put each back into the heap. No bucket opens after step 2, so
        //    the ids of the buckets this pass emptied are freed here and
        //    reused from the next pass on.
        touched.sort_unstable();
        for &b in &touched {
            if self.table.size(b) > 0 {
                self.table.rescore(b, &mut reader);
                self.order.insert(&self.table, b);
            } else {
                self.table.release(b);
            }
        }

        // 4. Read the Step-2 selection off the heap and splice users whose
        //    tail membership changed (bucket admissions, evictions, and
        //    dirty users that hopped across the boundary).
        let selected = self.order.best(&self.table, self.cfg.ell - 1);
        let previous = self.apply_selection(matrix, selected, &dirty);

        // 5. Emit the patched grouping, re-emitting what it left alone.
        self.emit(matrix, &previous, &touched);
        Ok(&self.result)
    }

    /// Takes bucket `b` out of the heap and lists it in `touched`, before
    /// its first change in this refresh; a bucket out of the heap is
    /// listed already. Step 3 of [`IncrementalFormer::refresh`] puts it
    /// back.
    fn touch(&mut self, b: u32, touched: &mut Vec<u32>) {
        if self.order.contains(b) {
            self.order.remove(&self.table, b);
            touched.push(b);
        }
    }

    /// Hashes user `u` into the bucket of its current top-`k` signature,
    /// opening one if the signature is new; the bucket is touched (see
    /// [`IncrementalFormer::touch`]) and its score vectors are left stale
    /// until step 3 of [`IncrementalFormer::refresh`] recomputes them.
    fn place_user(&mut self, reader: &mut TopKReader<'_>, u: u32, touched: &mut Vec<u32>) {
        let (key, scores) = reader.key(u);
        match self.table.find(key) {
            Some(b) => {
                self.touch(b, touched);
                self.table.join(b, u);
            }
            None => {
                let b = self.table.open(key, scores, scores, 0);
                self.table.join(b, u);
                touched.push(b);
            }
        }
    }

    /// Installs `new_selected` and splices every user whose tail
    /// membership changed into/out of the tail aggregates; returns the
    /// selection it replaced.
    fn apply_selection(
        &mut self,
        matrix: &RatingMatrix,
        new_selected: Vec<u32>,
        dirty: &[u32],
    ) -> Vec<u32> {
        let new_set: FxHashSet<u32> = new_selected.iter().copied().collect();
        let mut affected: Vec<u32> = dirty.to_vec();
        let old = &self.selected;
        let evicted = old.iter().filter(|b| !new_set.contains(b));
        for &b in evicted.chain(new_selected.iter().filter(|b| !old.contains(b))) {
            affected.extend(self.table.members(b));
        }
        let (mut entered, mut left) = (Vec::new(), Vec::new());
        for u in affected {
            let want_tail = !new_set.contains(&self.table.bucket_of()[u as usize]);
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
    /// is not in `touched` (sorted) re-emits its group from the previous
    /// result (whose selection was `previous`), a rebuilt group keeps the
    /// member list of the previous group at its index when the members
    /// are the same, and the tail group shares the maintained tail list.
    /// Only the tail's top-`k` is rescored.
    fn emit(&mut self, matrix: &RatingMatrix, previous: &[u32], touched: &[u32]) {
        let old = std::mem::take(&mut self.result.grouping.groups);
        let mut groups: Vec<Group> = Vec::with_capacity(self.selected.len() + 1);
        for (gi, &b) in self.selected.iter().enumerate() {
            let kept = previous
                .iter()
                .position(|&p| p == b)
                .filter(|_| touched.binary_search(&b).is_err());
            let group = match kept {
                Some(pi) => old[pi].clone(),
                None => {
                    let mut group = self.table.bucket(b).into_group(&self.cfg);
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
            .validate(self.in_tail.len() as u32, self.cfg.ell)
            .is_ok());
        let objective = grouping.objective();
        self.result = FormationResult {
            grouping,
            objective,
            n_buckets: self.table.live(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregation;
    use crate::alg::{GreedyFormer, GroupFormer};
    use crate::scale::RatingScale;
    use crate::semantics::Semantics;

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

    /// The heap and tail list agree with a from-scratch scan: the
    /// standing buckets sorted by [`bucket::bucket_order`].
    fn assert_index_is_the_scan(former: &IncrementalFormer) {
        let indexed = former.checked_index().unwrap();
        let (sem, agg) = (former.cfg.semantics, former.cfg.aggregation);
        let mut buckets: Vec<Bucket> = former.table.buckets().collect();
        buckets.sort_by(|a, b| bucket::bucket_order(a, b, sem, agg));
        let scanned: Vec<Vec<u32>> = buckets
            .into_iter()
            .take(former.cfg.ell - 1)
            .map(|b| b.users)
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
        // u0 leaves its singleton bucket for a new key: the pass empties
        // one bucket and opens another, and frees the emptied id only
        // once it is done.
        let live = former.table.live();
        let deltas = apply(&mut m, &mut p, &[(0, 1, 1.0)]);
        former.refresh(&m, &p, &deltas).unwrap();
        assert_matches_cold(&former, &m, &p, &cfg);
        assert_eq!(former.table.live(), live);
        assert!(former.table.len() > live, "no id was freed");
        // u5 does the same, and its new key reuses a freed id.
        let ids = former.table.len();
        let deltas = apply(&mut m, &mut p, &[(5, 2, 1.0)]);
        former.refresh(&m, &p, &deltas).unwrap();
        assert_matches_cold(&former, &m, &p, &cfg);
        assert_eq!(former.table.live(), live);
        assert_eq!(former.table.len(), ids, "the new key took a fresh id");
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
    fn long_top_k_lists_stay_exact() {
        // k = 7, for every semantics.
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
            assert_matches_cold(&former, &m, &p, &cfg);
            for batch in [vec![(3u32, 1u32, 5.0)], vec![(0, 8, 1.0), (12, 2, 4.0)]] {
                let deltas = apply(&mut m, &mut p, &batch);
                former.refresh(&m, &p, &deltas).unwrap();
                assert_matches_cold(&former, &m, &p, &cfg);
            }
        }
    }

    #[test]
    fn refresh_moves_users_between_colliding_buckets_exactly() {
        // A table whose fingerprint has two bits chains nearly every bucket
        // behind another with the same fingerprint: users leave and join
        // buckets found down those chains, and emptied buckets are
        // released from the middle of them.
        let rows: Vec<Vec<f64>> = (0..14)
            .map(|u: u32| {
                (0..6)
                    .map(|i: u32| 1.0 + ((u % 5) * 3 + i * (u % 5 + 1)) as f64 % 5.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let m0 = RatingMatrix::from_dense(&refs, RatingScale::one_to_five()).unwrap();
        let p0 = PrefIndex::build(&m0);
        for sem in Semantics::all() {
            for threads in [1usize, 3] {
                let cfg = FormationConfig::new(sem, Aggregation::Min, 3, 3).with_threads(threads);
                let (mut m, mut p) = (m0.clone(), p0.clone());
                let table = BucketTable::build_colliding(&m, &p, &cfg);
                assert!(table.live() > 4, "{sem}: no key collided");
                let mut former = IncrementalFormer::from_parts(&m, cfg, table, None);
                assert_matches_cold(&former, &m, &p, &cfg);
                for batch in [
                    vec![(0u32, 5u32, 5.0), (7, 0, 1.0)],
                    vec![(2, 2, 5.0), (3, 3, 5.0), (12, 1, 2.0)],
                    vec![(0, 5, 1.0), (5, 4, 5.0), (9, 0, 5.0), (13, 2, 1.0)],
                    vec![(7, 0, 4.0), (1, 1, 1.0)],
                ] {
                    let deltas = apply(&mut m, &mut p, &batch);
                    former.refresh(&m, &p, &deltas).unwrap();
                    assert_matches_cold(&former, &m, &p, &cfg);
                    former.table.check_index().unwrap();
                }
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
        // An item id past the matrix's 3 items.
        let mut bad = good.clone();
        bad.buckets[0].items[0] = 999;
        assert!(matches!(
            IncrementalFormer::import_state(&m, cfg, &bad),
            Err(GfError::Persist(_))
        ));
        // Buckets narrower than min(k, m) = 2 items, or with more key
        // scores than LM + Min keeps.
        let mut bad = good.clone();
        let b = &mut bad.buckets[0];
        for v in [&mut b.pos_min_bits, &mut b.pos_sum_bits] {
            v.pop();
        }
        b.items.pop();
        assert!(matches!(
            IncrementalFormer::import_state(&m, cfg, &bad),
            Err(GfError::Persist(_))
        ));
        let mut bad = good.clone();
        bad.buckets[0].key_score_bits.push(0);
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
