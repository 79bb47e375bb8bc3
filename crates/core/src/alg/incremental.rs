//! Dirty-bucket incremental re-formation.
//!
//! The greedy algorithms decompose into Step 1 (hash users into buckets by
//! preference signature), Step 2 (pick the `ell - 1` best buckets) and
//! Step 3 (merge the rest into a tail group). A small batch of rating
//! updates only perturbs the buckets of the touched users, so a standing
//! formation can be *patched* instead of recomputed: [`IncrementalFormer`]
//! keeps the exact Step-1 bucket state alive between refreshes, moves only
//! the dirty users between buckets, re-runs the (cheap) Step-2 selection
//! over cached bucket satisfactions, and maintains the tail group's
//! per-item score aggregates under member churn. Refresh cost is
//! proportional to the update batch (plus an `O(B + m)` selection/tail
//! scan with tiny constants), not to a full `O(nnz log nnz)` rebuild.
//!
//! ## Equivalence to a cold rebuild
//!
//! The bucket state is maintained *exactly*: after any sequence of
//! refreshes, the bucket multiset equals what [`bucket::build_buckets`]
//! produces on the current matrix, bit for bit (touched buckets recompute
//! their score vectors over members in ascending id order — the same
//! accumulation order as a cold build). Every refresh re-runs the full
//! Step-2 selection, so the emitted grouping is the cold
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
//! row to the maintained sum. `tests/prop_incremental.rs` enforces both
//! properties across random rating streams and dirty-set partitions.
//!
//! ## Costs per refresh
//!
//! * bucket maintenance: `O(Σ |touched bucket| · k)` — proportional to the
//!   dirty batch for typical (small) buckets;
//! * selection: `O(B + ell log ell)` over `B` standing buckets (a flat
//!   scan of cached satisfactions);
//! * tail scoring: `O(m)` under `MissingPolicy::Min` for every semantics
//!   (maintained per-item moments; LeaderWeighted adds an `O(log d)`
//!   lookup in the leader's row per item), `O(nnz_tail)` under
//!   `Skip`/`UserMean` (full rescore);
//! * tail membership churn: `O(Σ d_u)` over users that enter/leave the
//!   tail;
//! * emission: `O(n)` to materialize the tail member list (plus cloning
//!   the selected buckets into groups) — every refresh pays this flat
//!   scan because [`FormationResult`] owns its member vectors, so the
//!   per-refresh floor is `O(n + m + B)` with memcpy-grade constants
//!   (~3 ms at 50k users), not strictly `O(batch)`.

use super::bucket::{self, Bucket, BucketKey};
use super::greedy::{bucket_to_group, rescore_group};
use super::{FormationConfig, FormationResult};
use crate::error::{GfError, Result};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::grouping::{Group, Grouping};
use crate::grouprec::MissingPolicy;
use crate::matrix::RatingMatrix;
use crate::prefs::PrefIndex;
use crate::semantics::{consensus_score, Semantics};
use std::cmp::Ordering;

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

/// Incrementally-maintained per-item aggregates of the tail (merged
/// remainder) group under [`MissingPolicy::Min`]: rater count, score sum
/// (AV and LeaderWeighted scoring), sum of squares (Consensus scoring)
/// and rater minimum with lazy recomputation (LM scoring).
#[derive(Debug, Clone)]
struct TailAgg {
    r_min: f64,
    count: Vec<u32>,
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
    min: Vec<f64>,
    /// How many raters sit at `min`; when removals drain it the minimum is
    /// marked stale and lazily recomputed at scoring time (only ever
    /// needed for items every tail member rated).
    min_count: Vec<u32>,
    stale: Vec<bool>,
}

impl TailAgg {
    fn new(n_items: usize, r_min: f64) -> Self {
        TailAgg {
            r_min,
            count: vec![0; n_items],
            sum: vec![0.0; n_items],
            sum_sq: vec![0.0; n_items],
            min: vec![f64::INFINITY; n_items],
            min_count: vec![0; n_items],
            stale: vec![false; n_items],
        }
    }

    /// The maintained tail for `cfg`: `Some` under `MissingPolicy::Min`,
    /// for every semantics (the moments kept here cover all four closed
    /// forms). `Skip`/`UserMean` fall back to exact tail rescoring through
    /// the shared repair machinery.
    fn for_config(cfg: &FormationConfig, matrix: &RatingMatrix) -> Option<Self> {
        matches!(cfg.policy, MissingPolicy::Min)
            .then(|| TailAgg::new(matrix.n_items() as usize, matrix.scale().min()))
    }

    /// Extends the per-item aggregates for newly admitted items (which no
    /// tail member has rated yet, so every new slot starts empty).
    fn grow_items(&mut self, n_items: usize) {
        self.count.resize(n_items, 0);
        self.sum.resize(n_items, 0.0);
        self.sum_sq.resize(n_items, 0.0);
        self.min.resize(n_items, f64::INFINITY);
        self.min_count.resize(n_items, 0);
        self.stale.resize(n_items, false);
    }

    fn add(&mut self, item: u32, score: f64) {
        let i = item as usize;
        self.count[i] += 1;
        self.sum[i] += score;
        self.sum_sq[i] += score * score;
        if self.stale[i] {
            return;
        }
        if self.count[i] == 1 || score < self.min[i] {
            self.min[i] = score;
            self.min_count[i] = 1;
        } else if score == self.min[i] {
            self.min_count[i] += 1;
        }
    }

    fn remove(&mut self, item: u32, score: f64) {
        let i = item as usize;
        debug_assert!(self.count[i] > 0, "removing unseen rating");
        self.count[i] -= 1;
        self.sum[i] -= score;
        self.sum_sq[i] -= score * score;
        if self.count[i] == 0 {
            // Empty items reset exactly, killing any off-grid sum drift.
            self.sum[i] = 0.0;
            self.sum_sq[i] = 0.0;
            self.min[i] = f64::INFINITY;
            self.min_count[i] = 0;
            self.stale[i] = false;
            return;
        }
        if self.stale[i] {
            return;
        }
        if score == self.min[i] {
            self.min_count[i] -= 1;
            if self.min_count[i] == 0 {
                self.stale[i] = true;
            }
        }
    }

    fn recompute_min(&mut self, matrix: &RatingMatrix, in_tail: &[bool], item: u32) {
        let i = item as usize;
        let mut mn = f64::INFINITY;
        let mut cnt = 0u32;
        for (u, &tail) in in_tail.iter().enumerate() {
            if !tail {
                continue;
            }
            if let Some(s) = matrix.get(u as u32, item) {
                match s.total_cmp(&mn) {
                    Ordering::Less => {
                        mn = s;
                        cnt = 1;
                    }
                    Ordering::Equal => cnt += 1,
                    Ordering::Greater => {}
                }
            }
        }
        self.min[i] = mn;
        self.min_count[i] = cnt;
        self.stale[i] = false;
    }

    /// The tail's top-`k` list, exactly as
    /// [`crate::GroupRecommender::top_k`] computes it under
    /// `MissingPolicy::Min` for the current tail membership: the same
    /// closed form per semantics, with non-raters imputed at `r_min` and
    /// items no member rated at the `r_min` floor.
    fn top_k(
        &mut self,
        matrix: &RatingMatrix,
        in_tail: &[bool],
        tail_len: usize,
        semantics: Semantics,
        k: usize,
    ) -> Vec<(u32, f64)> {
        let r_min = self.r_min;
        let g = tail_len as f64;
        // LeaderWeighted's leader: the lowest-id tail member.
        let leader = in_tail.iter().position(|&t| t).unwrap_or(0) as u32;
        let m = self.count.len();
        let mut scored: Vec<(u32, f64)> = Vec::with_capacity(m);
        for i in 0..m {
            let count = self.count[i] as usize;
            let miss = (tail_len - count) as f64;
            let score = match semantics {
                Semantics::LeastMisery => {
                    if count == tail_len {
                        if self.stale[i] {
                            self.recompute_min(matrix, in_tail, i as u32);
                        }
                        self.min[i]
                    } else {
                        r_min
                    }
                }
                Semantics::AggregateVoting => self.sum[i] + miss * r_min,
                _ if count == 0 => r_min,
                Semantics::Consensus { lambda } => consensus_score(
                    lambda,
                    g,
                    self.sum[i] + miss * r_min,
                    self.sum_sq[i] + miss * r_min * r_min,
                ),
                Semantics::LeaderWeighted => {
                    let s_l = matrix.get(leader, i as u32).unwrap_or(r_min);
                    (self.sum[i] + miss * r_min + s_l) / (g + 1.0)
                }
            };
            scored.push((i as u32, score));
        }
        let cmp = |a: &(u32, f64), b: &(u32, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        if scored.len() > k {
            scored.select_nth_unstable_by(k - 1, cmp);
            scored.truncate(k);
        }
        scored.sort_unstable_by(cmp);
        scored
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
    buckets: FxHashMap<BucketKey, Bucket>,
    /// Each user's current bucket key.
    user_keys: Vec<BucketKey>,
    /// Keys of the buckets currently holding their own group, in emission
    /// (pop) order.
    selected: Vec<BucketKey>,
    in_tail: Vec<bool>,
    tail_len: usize,
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
    /// Step 1 runs on `cfg.n_threads` workers via
    /// [`bucket::build_bucket_map_threaded`] — the sharded bucket build
    /// plus a merge that also records per-user bucket keys — which is
    /// what a serving layer pays on boot and on every cold pass. The
    /// default `n_threads = 1` keeps the sequential path.
    pub fn new(matrix: &RatingMatrix, prefs: &PrefIndex, cfg: FormationConfig) -> Result<Self> {
        cfg.validate(matrix)?;
        let (buckets, user_keys) = bucket::build_bucket_map_threaded(
            matrix,
            prefs,
            cfg.semantics,
            cfg.aggregation,
            cfg.policy,
            cfg.k,
            cfg.n_threads,
        );
        let selected = ideal_selection(&buckets, &cfg);
        Ok(Self::from_parts(matrix, cfg, buckets, user_keys, selected))
    }

    /// Assembles a former from a Step-1 bucket state and a Step-2
    /// selection, deriving the rest from the matrix: tail membership,
    /// the tail aggregates (accumulated in ascending user order, so two
    /// formers over the same state agree bit for bit) and the emitted
    /// grouping.
    fn from_parts(
        matrix: &RatingMatrix,
        cfg: FormationConfig,
        buckets: FxHashMap<BucketKey, Bucket>,
        user_keys: Vec<BucketKey>,
        selected: Vec<BucketKey>,
    ) -> Self {
        let mut in_tail = vec![false; user_keys.len()];
        let mut tail_len = 0;
        let mut agg_tail = TailAgg::for_config(&cfg, matrix);
        let chosen: FxHashSet<&BucketKey> = selected.iter().collect();
        for (u, key) in user_keys.iter().enumerate() {
            if !chosen.contains(key) {
                in_tail[u] = true;
                tail_len += 1;
                if let Some(agg) = &mut agg_tail {
                    for (i, s) in matrix.user_ratings(u as u32) {
                        agg.add(i, s);
                    }
                }
            }
        }
        drop(chosen);
        let mut former = IncrementalFormer {
            cfg,
            n_items: matrix.n_items(),
            buckets,
            user_keys,
            selected,
            in_tail,
            tail_len,
            agg_tail,
            result: FormationResult {
                grouping: Grouping::default(),
                objective: 0.0,
                n_buckets: 0,
            },
        };
        former.emit(matrix);
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

    /// Projects the standing Step-1/2 state into a serializable
    /// [`FormerState`] — buckets in canonical (key-sorted) order, the
    /// Step-2 selection as indices into that order — for the `gf-persist`
    /// checkpoint writer. [`IncrementalFormer::import_state`] is the
    /// inverse; the round trip preserves the emitted grouping bit for
    /// bit.
    pub fn export_state(&self) -> FormerState {
        let mut order: Vec<&BucketKey> = self.buckets.keys().collect();
        order.sort_unstable_by(|a, b| {
            a.items
                .cmp(&b.items)
                .then_with(|| a.score_bits.cmp(&b.score_bits))
        });
        let index_of: FxHashMap<&BucketKey, u32> = order
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
        let mut buckets: FxHashMap<BucketKey, Bucket> = FxHashMap::default();
        let mut keys: Vec<BucketKey> = Vec::with_capacity(state.buckets.len());
        let mut user_keys: Vec<Option<BucketKey>> = vec![None; n];
        for (idx, fb) in state.buckets.iter().enumerate() {
            if fb.pos_min_bits.len() != fb.items.len() || fb.pos_sum_bits.len() != fb.items.len() {
                return Err(corrupt(format!(
                    "bucket {idx} score vectors mismatch items"
                )));
            }
            if fb.users.is_empty() {
                return Err(corrupt(format!("bucket {idx} has no members")));
            }
            let key = BucketKey {
                items: fb.items.clone().into_boxed_slice(),
                score_bits: fb.key_score_bits.clone().into_boxed_slice(),
            };
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
                *slot = Some(key.clone());
            }
            let bucket = Bucket {
                items: fb.items.clone().into_boxed_slice(),
                users: fb.users.clone(),
                pos_min: fb.pos_min_bits.iter().map(|&b| f64::from_bits(b)).collect(),
                pos_sum: fb.pos_sum_bits.iter().map(|&b| f64::from_bits(b)).collect(),
            };
            if buckets.insert(key.clone(), bucket).is_some() {
                return Err(corrupt(format!("bucket {idx} repeats an earlier key")));
            }
            keys.push(key);
        }
        let user_keys: Vec<BucketKey> = user_keys
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
        let mut selected: Vec<BucketKey> = Vec::with_capacity(state.selected.len());
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        for &idx in &state.selected {
            if idx as usize >= keys.len() || !seen.insert(idx) {
                return Err(corrupt(format!("bad selection index {idx}")));
            }
            selected.push(keys[idx as usize].clone());
        }
        Ok(Self::from_parts(matrix, cfg, buckets, user_keys, selected))
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
        let mut touched: FxHashSet<BucketKey> = FxHashSet::default();
        for u in old_n..matrix.n_users() {
            let key = self.place_user(matrix, prefs, u);
            touched.insert(key.clone());
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
            let old_key = self.user_keys[u as usize].clone();
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
            touched.insert(old_key);
            let new_key = self.place_user(matrix, prefs, u);
            touched.insert(new_key.clone());
            self.user_keys[u as usize] = new_key;
        }

        // 3. Recompute touched buckets' score vectors over members in
        //    ascending id order — the cold build's accumulation order, so
        //    the vectors are bit-for-bit what build_buckets produces.
        for key in &touched {
            if let Some(b) = self.buckets.get_mut(key) {
                recompute_bucket_scores(matrix, prefs, &self.cfg, b);
            }
        }

        // 4. Re-run the Step-2 selection and splice users whose tail
        //    membership changed (bucket admissions, evictions, and dirty
        //    users that hopped across the boundary).
        let selected = ideal_selection(&self.buckets, &self.cfg);
        self.apply_selection(matrix, selected, &dirty);

        // 5. Emit the patched grouping.
        self.emit(matrix);
        Ok(&self.result)
    }

    /// Hashes user `u` into the bucket of its current top-`k` signature,
    /// keeping the member list ascending, and returns the bucket's key.
    /// Score vectors are left stale: the caller marks the bucket touched,
    /// and step 3 of [`IncrementalFormer::refresh`] recomputes them.
    fn place_user(&mut self, matrix: &RatingMatrix, prefs: &PrefIndex, u: u32) -> BucketKey {
        let (items, scores) = bucket::personal_top_k(matrix, prefs, self.cfg.policy, u, self.cfg.k);
        let key = bucket::key_for(self.cfg.semantics, self.cfg.aggregation, &items, &scores);
        let b = self.buckets.entry(key.clone()).or_insert_with(|| Bucket {
            items: items.into(),
            users: Vec::new(),
            pos_min: Vec::new(),
            pos_sum: Vec::new(),
        });
        let pos = b
            .users
            .binary_search(&u)
            .expect_err("user cannot already be in its target bucket");
        b.users.insert(pos, u);
        key
    }

    /// Installs `new_selected` and splices every user whose tail
    /// membership changed into/out of the tail aggregates.
    fn apply_selection(
        &mut self,
        matrix: &RatingMatrix,
        new_selected: Vec<BucketKey>,
        dirty: &[u32],
    ) {
        let new_set: FxHashSet<&BucketKey> = new_selected.iter().collect();
        let mut affected: Vec<u32> = dirty.to_vec();
        for key in &self.selected {
            if !new_set.contains(key) {
                if let Some(b) = self.buckets.get(key) {
                    affected.extend_from_slice(&b.users);
                }
            }
        }
        {
            let old_set: FxHashSet<&BucketKey> = self.selected.iter().collect();
            for key in &new_selected {
                if !old_set.contains(key) {
                    affected.extend_from_slice(&self.buckets[key].users);
                }
            }
        }
        for u in affected {
            let want_tail = !new_set.contains(&self.user_keys[u as usize]);
            let is_tail = self.in_tail[u as usize];
            if want_tail == is_tail {
                continue;
            }
            self.in_tail[u as usize] = want_tail;
            if want_tail {
                self.tail_len += 1;
            } else {
                self.tail_len -= 1;
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
        self.selected = new_selected;
    }

    /// Rebuilds `self.result` from the selected buckets plus the tail.
    fn emit(&mut self, matrix: &RatingMatrix) {
        let mut groups: Vec<Group> = Vec::with_capacity(self.selected.len() + 1);
        for key in &self.selected {
            let b = self.buckets[key].clone();
            groups.push(bucket_to_group(b, &self.cfg));
        }
        if self.tail_len > 0 {
            let members: Vec<u32> = self
                .in_tail
                .iter()
                .enumerate()
                .filter_map(|(u, &t)| t.then_some(u as u32))
                .collect();
            let mut tail = Group {
                members,
                top_k: Vec::new(),
                satisfaction: 0.0,
            };
            match &mut self.agg_tail {
                Some(agg) => {
                    let top_k = agg.top_k(
                        matrix,
                        &self.in_tail,
                        self.tail_len,
                        self.cfg.semantics,
                        self.cfg.k,
                    );
                    let scores: Vec<f64> = top_k.iter().map(|&(_, s)| s).collect();
                    tail.satisfaction = self.cfg.aggregation.apply(&scores);
                    tail.top_k = top_k;
                }
                None => rescore_group(matrix, &self.cfg, &mut tail),
            }
            groups.push(tail);
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

/// The Step-2 selection over `buckets`: the `ell - 1` best buckets under
/// [`bucket::bucket_order`], in the exact pop sequence of a cold
/// [`GreedyFormer`](super::GreedyFormer).
fn ideal_selection(
    buckets: &FxHashMap<BucketKey, Bucket>,
    cfg: &FormationConfig,
) -> Vec<BucketKey> {
    let slots = cfg.ell.saturating_sub(1).min(buckets.len());
    if slots == 0 {
        return Vec::new();
    }
    let (sem, agg) = (cfg.semantics, cfg.aggregation);
    let mut entries: Vec<(f64, &BucketKey, &Bucket)> = buckets
        .iter()
        .map(|(key, b)| (b.satisfaction(sem, agg), key, b))
        .collect();
    let cmp = |x: &(f64, &BucketKey, &Bucket), y: &(f64, &BucketKey, &Bucket)| {
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
fn recompute_bucket_scores(
    matrix: &RatingMatrix,
    prefs: &PrefIndex,
    cfg: &FormationConfig,
    b: &mut Bucket,
) {
    for idx in 0..b.users.len() {
        let u = b.users[idx];
        let (items, scores) = bucket::personal_top_k(matrix, prefs, cfg.policy, u, cfg.k);
        debug_assert_eq!(
            items.as_slice(),
            b.items.as_ref(),
            "member {u} no longer matches its bucket's item sequence"
        );
        if idx == 0 {
            b.pos_min.clear();
            b.pos_min.extend_from_slice(&scores);
            b.pos_sum.clear();
            b.pos_sum.extend_from_slice(&scores);
        } else {
            b.accumulate_scores(&scores);
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
        // Consensus and LeaderWeighted have no TailAgg fast path; the
        // exact rescoring fallback must still equal a cold build after
        // every batch, for each missing policy.
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
                assert_eq!(group.members.as_slice(), *users, "{sem}");
            }
            let tail: Vec<u32> = (0..m.n_users())
                .filter(|u| !selected_users.iter().any(|users| users.contains(u)))
                .collect();
            assert_eq!(groups.last().unwrap().members, tail, "{sem}");
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
