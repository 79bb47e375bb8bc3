//! Shared serving state: immutable snapshots, a named-grouping registry,
//! incremental rating updates and the bounded background re-formation pass.
//!
//! ## Consistency model
//!
//! All queries (`/group`, `/recommend`, `/health`) read one [`Snapshot`] —
//! an immutable, `Arc`-shared bundle of the rating matrix, the preference
//! index and a **registry of named groupings** ([`GroupingState`]), each
//! carrying its own [`FormationConfig`], [`FormationResult`] and
//! user→group assignment ([`GroupingState::group_of`]). Readers clone
//! the `Arc` under a briefly-held read lock and then work lock-free;
//! writers build the next snapshot off to the side and swap it in with a
//! briefly-held write lock. A query therefore always sees an internally
//! consistent formation, never a half-applied update.
//!
//! ## The registry
//!
//! Every server has at least the `"default"` grouping (built from
//! [`ServeConfig::formation`]); additional groupings register at boot
//! ([`ServeConfig::with_grouping`]) or at runtime (`POST /grouping`,
//! [`ServeState::form_named`]). All groupings share **one** rating matrix
//! and preference index by `Arc` — registering ten tenant groupings costs
//! ten formations, not ten O(nnz) rating copies. Each grouping keeps a
//! per-grouping `version`: the global snapshot version at which its
//! formation last changed. A rating pass refreshes *every* grouping (so
//! all land on the pass's version); a `/form` touches only the named one.
//!
//! Rating updates (`/rate`) are **eventually consistent**: they enqueue
//! into a pending journal and return immediately; the background
//! re-formation pass (one bounded batch of updates per pass, see
//! [`ServeConfig::max_updates_per_pass`]) builds the successor matrix
//! ([`RatingMatrix::with_upserts_under`]) and re-sorts the affected users'
//! preference lists ([`PrefIndex::patched`]) **once**, then fans the dirty set
//! out to each registered grouping.
//!
//! ## One formation path
//!
//! Every registered grouping owns one standing [`IncrementalFormer`]
//! (keyed by name), and that former is the only thing in the server that
//! produces a formation: boot, `/form` and every cold pass build it with
//! [`IncrementalFormer::new`], incremental passes patch it with
//! [`IncrementalFormer::refresh`], and the grouping installs its
//! `result()`. A former that exists is therefore always in sync with its
//! grouping — it is exported into every checkpoint as is. A pass picks the
//! path per grouping from [`gf_core::RefreshMode`] and the dirty-set size:
//!
//! * **incremental** — the standing former moves only the dirty users
//!   between their greedy buckets and splices the result back into the
//!   grouping, making refresh cost proportional to the update batch;
//! * **cold** — a fresh former over the whole population.
//!
//! Installing the result shares what the pass left alone. Member lists
//! are `Arc<[u32]>`s the former hands on unchanged, and a grouping
//! reuses its predecessor's assignment allocation when every group keeps
//! its member list allocation at the same index (a pointer test per
//! group), so an install that moves no member costs `O(ell · k)` plus the
//! tail's `O(m)` candidate list, not `O(n)`. A pass that moves a member
//! rebuilds the assignment once.
//!
//! An item admission that pushes the catalogue past a grouping's `k`
//! changes every user's top-`k` signature at once, so that grouping
//! rebuilds cold in the same pass, over the post-chunk matrix; the rest
//! of the chunk (ratings behind the admission included) is applied whole,
//! and every other grouping refreshes as usual.
//!
//! A grouping without a former — restored from a checkpoint that carried
//! none, whose refresh returned an error, or left by a pass that failed
//! midway — gets a fresh one on its next rating pass, which `/stats`
//! counts as cold. Both paths are **test-enforced** to converge, per
//! grouping, to exactly the snapshot a cold rebuild over the same ratings
//! produces, whatever the refresh mode (`tests/serve_props.rs`); `/stats`
//! reports which path each grouping refresh took.
//!
//! ## The quality loop
//!
//! `POST /v1/feedback` events ride the same pending journal (and the same
//! WAL, as their own record kind) as ratings: a pass folds each into the
//! snapshot's sliding [`OnlineEval`] window in journal order, advancing
//! the version by one per record just like a rating does — so crash
//! digests stay chunking-invariant. A feedback-only pass never re-forms
//! (the window is not an input to formation); it clones the groupings
//! forward to the pass's version, and the standing formers, which the
//! window never touches, stay in sync. Candidate lists for
//! `exclude_rated` filtering ([`ServeState::candidate_items`]) come in
//! two ways. The tail group's list is computed by the pass that formed
//! the grouping, from its former's maintained per-item rater counts in
//! `O(m)` (under `MissingPolicy::Min`). Every other list comes from a
//! [`CandidateEngine`] behind a per-`(grouping, group)` cache keyed by the
//! group's candidate stamp ([`GroupingState::stamps`]): the version at
//! which the group's members changed, one of them was rated or the
//! catalogue grew. A pass that leaves a group alone keeps its cached
//! list; any other change misses once.

use crate::batch::{BatchOutcome, Batcher};
use crate::remap::RawIdLayer;
use gf_core::{
    CandidateEngine, FeedbackEvent, FormationConfig, FormationResult, GfError, GrowthPolicy,
    IncrementalFormer, OnlineEval, PrefIndex, RatingDelta, RatingMatrix, Result, UNASSIGNED,
};
use gf_persist::wal::{Wal, WalPayload, WalRecord};
use gf_persist::{CheckpointGrouping, CheckpointState, StateDigest};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::time::Duration;

/// Everything that parameterises a serving instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Formation configuration of the `"default"` grouping — used for the
    /// initial formation and for background re-formation (until a `/form`
    /// request overrides it).
    pub formation: FormationConfig,
    /// Additional named groupings registered at boot, in registration
    /// order. A later entry for the same name (including `"default"`)
    /// overrides the earlier one.
    pub groupings: Vec<(String, FormationConfig)>,
    /// How long a `/form` leader waits for concurrent same-configuration
    /// requests to join its batch before running.
    pub batch_window: Duration,
    /// Upper bound on how many rating updates one background re-formation
    /// pass applies; more pending updates simply take more passes.
    pub max_updates_per_pass: usize,
    /// Capacity of the sliding feedback window behind the online quality
    /// metrics (`/v1/feedback`, the `quality` block of `/v1/stats`). The
    /// window keeps the most recent consumptions only; the cumulative
    /// observed count survives eviction.
    pub feedback_window: usize,
}

impl ServeConfig {
    /// Defaults: only the `"default"` grouping, a 5 ms batching window, at
    /// most 1024 updates per pass and a 1024-event feedback window.
    pub fn new(formation: FormationConfig) -> Self {
        ServeConfig {
            formation,
            groupings: Vec::new(),
            batch_window: Duration::from_millis(5),
            max_updates_per_pass: 1024,
            feedback_window: 1024,
        }
    }

    /// Registers an additional named grouping to build at boot.
    pub fn with_grouping(mut self, name: impl Into<String>, cfg: FormationConfig) -> Self {
        self.groupings.push((name.into(), cfg));
        self
    }

    /// Overrides the `/form` batching window.
    pub fn with_batch_window(mut self, window: Duration) -> Self {
        self.batch_window = window;
        self
    }

    /// Overrides the per-pass update bound (clamped to at least 1).
    pub fn with_max_updates_per_pass(mut self, max: usize) -> Self {
        self.max_updates_per_pass = max.max(1);
        self
    }

    /// Overrides the sliding feedback-window capacity (see
    /// [`ServeConfig::feedback_window`]).
    pub fn with_feedback_window(mut self, capacity: usize) -> Self {
        self.feedback_window = capacity;
        self
    }

    /// Clamps the `ell` of every boot grouping, the default and each
    /// [`ServeConfig::with_grouping`] entry, to `1..=n_users`: a boot
    /// over `n_users` users cannot form more groups than that.
    pub fn clamp_ell(mut self, n_users: u32) -> Self {
        let n = n_users as usize;
        self.formation.ell = self.formation.ell.min(n).max(1);
        for (_, gc) in &mut self.groupings {
            gc.ell = gc.ell.min(n).max(1);
        }
        self
    }
}

/// Checks that a grouping name is non-empty, at most 64 bytes and uses
/// only URL- and checkpoint-safe characters (`[A-Za-z0-9_.-]`).
pub fn validate_grouping_name(name: &str) -> Result<()> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.');
    if ok {
        Ok(())
    } else {
        Err(GfError::InvalidGrouping(format!(
            "grouping name {name:?} must be 1..=64 chars of [A-Za-z0-9_.-]"
        )))
    }
}

/// Durable progress carried by every snapshot: how much of the journal
/// the snapshot's state bakes in. A checkpoint freezes these alongside
/// the matrix so a warm restart knows exactly which WAL records are
/// already applied (`seq <= wal_seq`) and which to replay. `/v1/stats`
/// reports `applied`, `users_admitted` and `items_admitted` as
/// `rates_applied`, `users_admitted` and `items_admitted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Progress {
    /// Highest journal sequence number applied into this snapshot
    /// (0 before any rating lands).
    pub wal_seq: u64,
    /// Total rating updates applied since the serving lineage began
    /// (survives restarts).
    pub applied: u64,
    /// Users admitted at serve time under [`gf_core::GrowthPolicy::Grow`],
    /// cumulative across restarts.
    pub users_admitted: u64,
    /// Items admitted at serve time, cumulative across restarts.
    pub items_admitted: u64,
}

/// One named grouping inside a snapshot: its configuration, formation,
/// derived user→group assignment and the global snapshot version at
/// which the formation last changed.
///
/// Everything sizeable is shared by `Arc`: each group's member list
/// ([`gf_core::Group::members`]) and the assignment. A pass that moves
/// no member hands both to the successor as they are, so installing a
/// refreshed grouping, and cloning one forward on a feedback-only pass
/// or into a checkpoint export, costs `O(ell · k)`, not `O(n)`.
#[derive(Debug, Clone)]
pub struct GroupingState {
    /// The formation configuration the groups were formed under.
    pub config: FormationConfig,
    /// The current formation.
    pub formation: FormationResult,
    /// `assignment[u]` = index into `formation.grouping.groups`, or
    /// [`UNASSIGNED`] for a user the formation does not cover (impossible
    /// for valid formations, kept for defense in depth); read through
    /// [`GroupingState::group_of`]. A successor reuses this allocation
    /// while every group keeps its member list allocation.
    assignment: Arc<[u32]>,
    /// Global snapshot version at which this grouping's formation was
    /// last (re)computed. Rating passes refresh every grouping, so after
    /// a pass all groupings carry the pass's version; a `/form` advances
    /// only the named grouping.
    pub version: u64,
    /// Per-group candidate stamps: `stamps[g]` is the version at which
    /// group `g`'s member list last changed, one of its members was
    /// rated or the catalogue grew — what its candidate list depends on,
    /// so [`ServeState::candidate_items`] caches by it. A pass carries a
    /// stamp over only when the group shares its member list allocation
    /// with the previous grouping's group at the same index (a pointer
    /// test, `O(1)` per group). Process-local: a booted, restored or
    /// re-formed grouping stamps every group with its own version.
    pub stamps: Vec<u64>,
    /// The tail group's candidate list, computed by the pass that built
    /// this grouping from its former's maintained rater counts
    /// ([`IncrementalFormer::tail_candidates`]; `MissingPolicy::Min`
    /// only). The tail is the last group.
    pub tail_candidates: Option<Arc<Vec<u32>>>,
}

impl GroupingState {
    /// A grouping holding `former`'s formation at `version`, every group
    /// stamped with `version`, and the assignment of all `n_users` users.
    /// The assignment is `prev`'s own allocation when `prev` covers the
    /// same population and every group shares its member list with
    /// `prev`'s group at the same index (see [`GroupingState::shares_members`]);
    /// otherwise it is derived once from the formation.
    fn formed(
        config: FormationConfig,
        former: &IncrementalFormer,
        prev: Option<&GroupingState>,
        n_users: u32,
        version: u64,
    ) -> GroupingState {
        let formation = former.result().clone();
        let reusable = prev.filter(|p| {
            p.assignment.len() == n_users as usize
                && p.formation.grouping.len() == formation.grouping.len()
                && (0..formation.grouping.len()).all(|gi| p.shares_members(&formation, gi))
        });
        let assignment = match reusable {
            Some(p) => Arc::clone(&p.assignment),
            None => formation.grouping.assignment(n_users).into(),
        };
        GroupingState {
            config,
            stamps: vec![version; formation.grouping.len()],
            formation,
            assignment,
            version,
            tail_candidates: former.tail_candidates().map(Arc::new),
        }
    }

    /// A grouping holding `formation` at `version` with no precomputed
    /// tail candidates (a checkpointed formation, restored verbatim).
    fn restored(
        config: FormationConfig,
        formation: FormationResult,
        n_users: u32,
        version: u64,
    ) -> GroupingState {
        GroupingState {
            config,
            assignment: formation.grouping.assignment(n_users).into(),
            stamps: vec![version; formation.grouping.len()],
            formation,
            version,
            tail_candidates: None,
        }
    }

    /// The index into `formation.grouping.groups` of `user`'s group;
    /// `None` for a user outside the population.
    pub fn group_of(&self, user: u32) -> Option<usize> {
        self.assignment
            .get(user as usize)
            .filter(|&&gi| gi != UNASSIGNED)
            .map(|&gi| gi as usize)
    }

    /// The assignment in its compact form, for
    /// [`OnlineEval::evaluate`].
    pub(crate) fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Whether `self` and `other` share one assignment allocation (test
    /// support: a successor that moved no member must).
    #[doc(hidden)]
    pub fn shares_assignment(&self, other: &GroupingState) -> bool {
        Arc::ptr_eq(&self.assignment, &other.assignment)
    }

    /// Whether group `gi` of `formation` holds the very member list (the
    /// same allocation, not merely equal contents) as group `gi` of this
    /// grouping. A pointer test: what a refresh left alone it hands on.
    fn shares_members(&self, formation: &FormationResult, gi: usize) -> bool {
        let (mine, theirs) = (&self.formation.grouping.groups, &formation.grouping.groups);
        mine.get(gi)
            .zip(theirs.get(gi))
            .is_some_and(|(a, b)| Arc::ptr_eq(&a.members, &b.members))
    }

    /// Keeps `prev`'s stamp for every group that shares its member list
    /// with `prev`'s group at the same index, none of whose members is in
    /// `rated` and whose catalogue did not grow: its candidate list is
    /// still `prev`'s.
    fn carry_stamps(mut self, prev: &GroupingState, rated: &[u32], grew: bool) -> GroupingState {
        if grew {
            return self;
        }
        for (gi, stamp) in self.stamps.iter_mut().enumerate() {
            if prev.shares_members(&self.formation, gi) {
                *stamp = prev.stamps[gi];
            }
        }
        for &u in rated {
            if let Some(gi) = self.group_of(u) {
                self.stamps[gi] = self.version;
            }
        }
        self
    }
}

/// One immutable, internally consistent view of the serving state.
///
/// The matrix and preference index are `Arc`-shared because snapshot
/// succession never mutates them: a background pass *builds* the patched
/// successors ([`RatingMatrix::with_upserts_under`], [`PrefIndex::patched`])
/// while the old structures stay live for concurrent readers, and a
/// `/form` (which changes only one grouping) shares them wholesale. All
/// registered groupings read the same two `Arc`s — one O(nnz) rating
/// copy regardless of how many groupings are registered.
#[derive(Debug)]
pub struct Snapshot {
    /// The rating matrix every grouping's formation was computed on.
    pub matrix: Arc<RatingMatrix>,
    /// Preference index built on (or incrementally patched to match)
    /// `matrix`.
    pub prefs: Arc<PrefIndex>,
    /// The named-grouping registry, ordered by name. Always contains
    /// [`Snapshot::DEFAULT_GROUPING`].
    pub groupings: BTreeMap<String, Arc<GroupingState>>,
    /// Monotonic snapshot version. A background pass advances it by one
    /// **per applied journal record**, so the version a given rating
    /// history produces is independent of how passes chunked the journal —
    /// a crash-replayed server lands on exactly the version the
    /// uninterrupted run reached. A `/form` advances it by one; nothing
    /// else does.
    pub version: u64,
    /// How much of the durable journal this snapshot bakes in.
    pub progress: Progress,
    /// The sliding window of observed consumptions (`/v1/feedback`)
    /// behind the online quality metrics. Immutable like everything else
    /// in a snapshot: a background pass folds newly journaled feedback
    /// into a successor window; untouched passes share the `Arc`.
    pub feedback: Arc<OnlineEval>,
}

impl Snapshot {
    /// Name of the grouping every server is guaranteed to have.
    pub const DEFAULT_GROUPING: &'static str = "default";

    /// The `"default"` grouping (always present).
    pub fn default_grouping(&self) -> &Arc<GroupingState> {
        self.groupings
            .get(Self::DEFAULT_GROUPING)
            .expect("the default grouping always exists")
    }

    /// Looks up a grouping by name.
    pub fn grouping(&self, name: &str) -> Option<&Arc<GroupingState>> {
        self.groupings.get(name)
    }

    /// The successor at `version` that swaps in `groupings` and shares
    /// everything else.
    fn with_groupings(
        &self,
        groupings: BTreeMap<String, Arc<GroupingState>>,
        version: u64,
    ) -> Snapshot {
        Snapshot {
            matrix: Arc::clone(&self.matrix),
            prefs: Arc::clone(&self.prefs),
            groupings,
            version,
            progress: self.progress,
            feedback: Arc::clone(&self.feedback),
        }
    }
}

/// Counters exposed by `/stats`; cheap relaxed atomics.
#[derive(Debug, Default)]
pub struct Stats {
    /// Ratings accepted into the pending journal.
    pub rates_accepted: AtomicU64,
    /// Background re-formation passes run.
    pub refresh_passes: AtomicU64,
    /// `/form` requests received.
    pub form_requests: AtomicU64,
    /// Actual formation runs executed on behalf of `/form` (≤ requests;
    /// the difference is requests answered from a coalesced batch).
    pub form_runs: AtomicU64,
    /// Grouping refreshes that patched a standing formation through its
    /// incremental former (dirty-bucket path). With several groupings
    /// registered, one background pass counts once per grouping.
    pub refresh_incremental: AtomicU64,
    /// Grouping refreshes that re-formed the whole population from
    /// scratch (counted per grouping, like `refresh_incremental`): by
    /// refresh mode or batch size, after a `k` crossing, for a grouping
    /// without a former, or after its refresh returned an error.
    pub refresh_cold: AtomicU64,
    /// WAL records appended by this process (0 when running volatile).
    pub wal_records: AtomicU64,
    /// Checkpoints written by this process (boot checkpoint included).
    pub checkpoints_written: AtomicU64,
    /// Snapshot version of the newest on-disk checkpoint (a gauge).
    pub checkpoint_version: AtomicU64,
    /// WAL records replayed during this process's recovery.
    pub recovery_replayed: AtomicU64,
    /// Torn-tail bytes dropped during this process's recovery.
    pub recovery_dropped_bytes: AtomicU64,
    /// Feedback events accepted into the pending journal (`/v1/feedback`).
    pub feedback_accepted: AtomicU64,
    /// TCP connections accepted by the transport (either `--net` mode).
    pub conns_accepted: AtomicU64,
    /// Connections closed by the idle/stall deadline (`--conn-timeout-ms`):
    /// socket timeouts on the blocking path, the timer wheel on epoll.
    pub conns_timed_out: AtomicU64,
}

/// One accepted-but-unapplied journal record: a rating update or a
/// feedback consumption. Both kinds share the sequence space, so version
/// arithmetic stays chunking-invariant across mixed streams.
#[derive(Debug, Clone)]
enum PendingEntry {
    /// `POST /v1/rate` — patches the matrix on apply.
    Rating {
        seq: u64,
        user: u32,
        item: u32,
        score: f64,
    },
    /// `POST /v1/feedback` — folds into the online window on apply.
    Feedback {
        seq: u64,
        user: u32,
        item: u32,
        scope: Option<String>,
    },
}

impl PendingEntry {
    fn seq(&self) -> u64 {
        match self {
            PendingEntry::Rating { seq, .. } | PendingEntry::Feedback { seq, .. } => *seq,
        }
    }
}

/// The pending journal. The WAL handle lives *inside* this mutex on
/// purpose: an accepted rating appends to the log and enqueues under one
/// critical section, so on-disk journal order is exactly queue order —
/// the property that makes crash replay reproduce the uninterrupted run.
struct PendingQueue {
    /// Accepted records in journal order.
    entries: Vec<PendingEntry>,
    /// Sequence the next accepted record takes. Mirrors the WAL when one
    /// is attached; counts from 1 standalone so version arithmetic is
    /// identical in volatile and durable runs.
    next_seq: u64,
    /// Durable journal, when `--data-dir` is configured.
    wal: Option<Wal>,
    /// The exclusive lock on the data directory's `LOCK` file, held as
    /// long as the WAL is attached (see [`crate::persist::boot`]).
    dir_lock: Option<std::fs::File>,
    shutdown: bool,
}

/// A cached candidate list: the group's candidate stamp
/// ([`GroupingState::stamps`]) it was computed at, and the sorted
/// candidate item ids.
type CachedList = (u64, Arc<Vec<u32>>);

/// Per-group candidate lists (items **no** member has rated), computed
/// on demand through one shared epoch-marked [`CandidateEngine`] and
/// cached until the group's candidate stamp moves. A stamp moves only
/// when the group's members, their ratings or the catalogue change, so
/// a hit is consistent with every snapshot carrying that stamp, and a
/// pass that leaves a group alone keeps its list.
struct CandidateCache {
    engine: CandidateEngine,
    /// Keyed by `(grouping name, group index)`.
    lists: BTreeMap<(String, usize), CachedList>,
}

/// A consistent bundle frozen for checkpointing: the snapshot's pieces
/// plus a copy of each grouping's standing former. The matrix/prefs stay
/// `Arc`-shared — the (expensive) deep copy into an owned
/// [`CheckpointState`] and the formers' [`IncrementalFormer::export_state`]
/// happen outside every lock.
pub(crate) struct ExportedState {
    pub version: u64,
    pub progress: Progress,
    pub matrix: Arc<RatingMatrix>,
    pub prefs: Arc<PrefIndex>,
    /// Every grouping, its `former` field still `None`, with a clone of
    /// its standing former (`None` only while a grouping is without a
    /// former — module docs).
    pub groupings: Vec<(CheckpointGrouping, Option<IncrementalFormer>)>,
    pub feedback: Arc<OnlineEval>,
}

/// The long-lived serving state shared by every connection handler.
pub struct ServeState {
    snapshot: RwLock<Arc<Snapshot>>,
    /// Serializes snapshot *builders* (background passes and `/form`
    /// runs) so concurrent writers cannot interleave lost updates; held
    /// across compute + install, never by readers. It guards the standing
    /// formers, one per grouping name, each one's `result()` being its
    /// grouping's current formation (module docs).
    writer: Mutex<BTreeMap<String, IncrementalFormer>>,
    pending: Mutex<PendingQueue>,
    wakeup: Condvar,
    batcher: Batcher,
    max_updates_per_pass: usize,
    /// Raw-id translation (`--raw-ids`); absent means `/rate` ids are
    /// dense indices, set once at boot via
    /// [`ServeState::attach_raw_ids`].
    raw_ids: OnceLock<RawIdLayer>,
    /// Candidate-item engine plus its per-group result cache.
    candidates: Mutex<CandidateCache>,
    /// Counters for `/stats`.
    pub stats: Stats,
}

impl ServeState {
    /// Builds the initial snapshot (version 1) by building one standing
    /// former per registered grouping over `matrix` — the `"default"`
    /// grouping from [`ServeConfig::formation`] plus every
    /// [`ServeConfig::with_grouping`] entry — and wraps it all in a
    /// shareable state.
    pub fn new(matrix: RatingMatrix, cfg: ServeConfig) -> Result<Arc<ServeState>> {
        let matrix = Arc::new(matrix);
        let prefs = Arc::new(PrefIndex::build(&matrix));
        // Resolve the boot registry first (later entries override), then
        // form each named grouping exactly once.
        let mut configs: BTreeMap<String, FormationConfig> = BTreeMap::new();
        configs.insert(Snapshot::DEFAULT_GROUPING.to_string(), cfg.formation);
        for (name, fc) in &cfg.groupings {
            validate_grouping_name(name)?;
            configs.insert(name.clone(), *fc);
        }
        let mut groupings = BTreeMap::new();
        let mut formers = BTreeMap::new();
        for (name, fc) in configs {
            let former = IncrementalFormer::new(&matrix, &prefs, fc)?;
            groupings.insert(
                name.clone(),
                Arc::new(GroupingState::formed(
                    fc,
                    &former,
                    None,
                    matrix.n_users(),
                    1,
                )),
            );
            formers.insert(name, former);
        }
        let snapshot = Snapshot {
            matrix,
            prefs,
            groupings,
            version: 1,
            progress: Progress::default(),
            feedback: Arc::new(OnlineEval::new(cfg.feedback_window)),
        };
        Ok(Self::assemble(snapshot, formers, &cfg, Stats::default()))
    }

    /// Rebuilds serving state from a decoded checkpoint: every
    /// checkpointed grouping is restored verbatim (no re-formation) at
    /// its checkpointed version, and its standing-former state is
    /// imported warm so its first post-restart pass stays on the
    /// dirty-bucket path. A grouping checkpointed without one gets a
    /// fresh former on its first rating pass instead. Non-formation
    /// knobs (batch window, pass bound, feedback window) come from `cfg`;
    /// the *formation* configurations are the checkpoint's — they are
    /// part of the durable state a `/form` may have changed since boot
    /// flags were last read.
    pub fn restore_from(ck: CheckpointState, cfg: ServeConfig) -> Result<Arc<ServeState>> {
        let matrix = Arc::new(ck.matrix);
        let prefs = Arc::new(ck.prefs);
        let progress = Progress {
            wal_seq: ck.wal_seq,
            applied: ck.applied,
            users_admitted: ck.users_admitted,
            items_admitted: ck.items_admitted,
        };
        let mut groupings = BTreeMap::new();
        let mut formers = BTreeMap::new();
        for g in ck.groupings {
            if let Some(state) = g.former {
                let former = IncrementalFormer::import_state(&matrix, g.config, &state)?;
                formers.insert(g.name.clone(), former);
            }
            groupings.insert(
                g.name,
                Arc::new(GroupingState::restored(
                    g.config,
                    g.formation,
                    matrix.n_users(),
                    g.version,
                )),
            );
        }
        if !groupings.contains_key(Snapshot::DEFAULT_GROUPING) {
            return Err(GfError::Persist(
                "checkpoint carries no \"default\" grouping".into(),
            ));
        }
        // The checkpointed window re-caps to this boot's configured
        // capacity: shrinking drops the oldest events, growing keeps
        // them all; the cumulative observed count carries over either
        // way.
        let feedback = Arc::new(OnlineEval::from_parts(
            cfg.feedback_window,
            ck.feedback.events().to_vec(),
            ck.feedback.observed_total(),
        ));
        let feedback_observed = feedback.observed_total();
        let snapshot = Snapshot {
            matrix,
            prefs,
            groupings,
            version: ck.snapshot_version,
            progress,
            feedback,
        };
        let stats = Stats::default();
        // Seed the acceptance counters so `/stats` stays meaningful across
        // restarts: everything the checkpoint baked in counts as accepted
        // by this lineage.
        stats.rates_accepted.store(ck.applied, Ordering::Relaxed);
        stats
            .feedback_accepted
            .store(feedback_observed, Ordering::Relaxed);
        Ok(Self::assemble(snapshot, formers, &cfg, stats))
    }

    /// Wraps a boot or restored snapshot and its standing formers in a
    /// serving state whose journal continues after `snapshot`'s progress.
    fn assemble(
        snapshot: Snapshot,
        formers: BTreeMap<String, IncrementalFormer>,
        cfg: &ServeConfig,
        stats: Stats,
    ) -> Arc<ServeState> {
        Arc::new(ServeState {
            pending: Mutex::new(PendingQueue {
                entries: Vec::new(),
                next_seq: snapshot.progress.wal_seq + 1,
                wal: None,
                dir_lock: None,
                shutdown: false,
            }),
            snapshot: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(formers),
            wakeup: Condvar::new(),
            batcher: Batcher::new(cfg.batch_window),
            max_updates_per_pass: cfg.max_updates_per_pass.max(1),
            raw_ids: OnceLock::new(),
            candidates: Mutex::new(CandidateCache {
                engine: CandidateEngine::new(),
                lists: BTreeMap::new(),
            }),
            stats,
        })
    }

    /// The current snapshot. Readers hold the lock only long enough to
    /// clone the `Arc`; everything after is lock-free.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read().expect("snapshot lock poisoned"))
    }

    /// Number of journal records waiting for the background pass.
    pub fn pending_len(&self) -> usize {
        self.pending
            .lock()
            .expect("pending lock poisoned")
            .entries
            .len()
    }

    /// Accepts one rating update into the pending journal.
    ///
    /// The update is validated against the current snapshot's dimensions,
    /// the **default grouping's** growth policy and the rating scale so
    /// malformed requests fail fast; it becomes visible to queries only
    /// once a background pass installs the next snapshot (call
    /// [`ServeState::flush`] to force that synchronously). Under
    /// [`gf_core::GrowthPolicy::Grow`], a never-seen user or item within the
    /// caps is **admitted**: the journal entry carries the grown id and
    /// the applying pass extends the matrix, preference index and every
    /// registered grouping to cover it — no restart. Returns the number
    /// of updates now pending.
    pub fn rate(&self, user: u32, item: u32, score: f64) -> Result<usize> {
        let snap = self.snapshot();
        let matrix = &snap.matrix;
        // The matrix is shared by all groupings, so exactly one growth
        // policy can govern admissions: the default grouping's.
        let growth = snap.default_grouping().config.growth;
        growth.admit_user(user, matrix.n_users())?;
        growth.admit_item(item, matrix.n_items())?;
        if !score.is_finite() {
            return Err(GfError::NonFiniteScore { user, item });
        }
        if !matrix.scale().contains(score) {
            return Err(GfError::ScaleViolation { user, item, score });
        }
        self.journal(
            |wal| wal.append(&[(user, item, score)]),
            |seq| PendingEntry::Rating {
                seq,
                user,
                item,
                score,
            },
            &self.stats.rates_accepted,
        )
    }

    /// Accepts one feedback event (`user` consumed `item`) into the
    /// pending journal, optionally scoped to one named grouping.
    ///
    /// Feedback never admits: both ids must already be covered by the
    /// current snapshot, and a `scope` must name a registered grouping.
    /// Like a rating, the event is journaled through the WAL **before**
    /// acknowledgment and becomes visible (in the online quality window,
    /// `/v1/stats`) once a background pass folds it in. Returns the
    /// number of records now pending.
    pub fn feedback(&self, user: u32, item: u32, scope: Option<&str>) -> Result<usize> {
        let snap = self.snapshot();
        let matrix = &snap.matrix;
        if user >= matrix.n_users() {
            return Err(GfError::UserOutOfRange {
                user,
                n_users: matrix.n_users(),
            });
        }
        if item >= matrix.n_items() {
            return Err(GfError::ItemOutOfRange {
                item,
                n_items: matrix.n_items(),
            });
        }
        if let Some(name) = scope {
            if snap.grouping(name).is_none() {
                return Err(GfError::InvalidGrouping(format!(
                    "no grouping named {name:?}"
                )));
            }
        }
        self.journal(
            |wal| wal.append_feedback(user, item, scope),
            |seq| PendingEntry::Feedback {
                seq,
                user,
                item,
                scope: scope.map(String::from),
            },
            &self.stats.feedback_accepted,
        )
    }

    /// Journals one validated record before acknowledging it: under the
    /// `pending` mutex, `append` writes it to the WAL when one is attached
    /// (on disk per the sync mode before this returns `Ok`) and yields its
    /// sequence number; standalone, it takes the next one. Only then is
    /// `entry(seq)` enqueued, so on-disk journal order is exactly queue
    /// order, and a failed append rejects the record with nothing
    /// enqueued — the durable log never lags the accepted set. Counts the
    /// record in `accepted` and returns the number now pending.
    fn journal(
        &self,
        append: impl FnOnce(&mut Wal) -> gf_persist::Result<u64>,
        entry: impl FnOnce(u64) -> PendingEntry,
        accepted: &AtomicU64,
    ) -> Result<usize> {
        let mut q = self.pending.lock().expect("pending lock poisoned");
        let journaled = q.wal.is_some();
        let seq = match q.wal.as_mut() {
            Some(wal) => append(wal).map_err(GfError::from)?,
            None => q.next_seq,
        };
        q.next_seq = seq + 1;
        q.entries.push(entry(seq));
        let depth = q.entries.len();
        drop(q);
        accepted.fetch_add(1, Ordering::Relaxed);
        if journaled {
            self.stats.wal_records.fetch_add(1, Ordering::Relaxed);
        }
        self.wakeup.notify_one();
        Ok(depth)
    }

    /// [`ServeState::feedback`] for original dataset ids. Resolution is a
    /// pure lookup ([`GrowthPolicy::Fixed`]): a raw id the table has
    /// never seen fails like an out-of-range dense id — consumptions of
    /// unknown users or items never intern anything.
    pub fn feedback_raw(&self, raw_user: u64, raw_item: u64, scope: Option<&str>) -> Result<usize> {
        let layer = self.raw_ids().ok_or_else(|| {
            GfError::InvalidGrouping("raw-id mode is not enabled (start with --raw-ids)".into())
        })?;
        let (user, item) = layer.resolve(raw_user, raw_item, GrowthPolicy::Fixed)?;
        self.feedback(user, item, scope)
    }

    /// Candidate items for one group of a named grouping: the items **no**
    /// member has rated, sorted ascending. The tail group's list comes
    /// precomputed with the grouping when its former maintains one
    /// ([`GroupingState::tail_candidates`]). Any other list is computed on
    /// the snapshot's shared matrix through the epoch-marked
    /// [`CandidateEngine`] and cached per `(grouping, group)` until the
    /// group's candidate stamp moves ([`GroupingState::stamps`]), so a
    /// pass that touches none of a group's members keeps its list.
    /// Returns `None` for an unknown grouping or group index.
    pub fn candidate_items(
        &self,
        snap: &Snapshot,
        name: &str,
        group: usize,
    ) -> Option<Arc<Vec<u32>>> {
        let g = snap.grouping(name)?;
        let groups = &g.formation.grouping.groups;
        let members = &groups.get(group)?.members;
        if group + 1 == groups.len() {
            if let Some(list) = &g.tail_candidates {
                return Some(Arc::clone(list));
            }
        }
        let stamp = g.stamps[group];
        let mut cache = self.candidates.lock().expect("candidate lock poisoned");
        let key = (name.to_string(), group);
        if let Some((cached, list)) = cache.lists.get(&key) {
            if *cached == stamp {
                return Some(Arc::clone(list));
            }
        }
        let list = Arc::new(
            cache
                .engine
                .candidates_for_group(&snap.matrix, members)
                .expect("group members are valid rows of the snapshot's own matrix"),
        );
        // Evict entries no current group vouches for, so stale lists
        // from re-formed or dropped groups never accumulate.
        let groupings = &snap.groupings;
        cache.lists.retain(|(n, gi), (cached, _)| {
            groupings
                .get(n.as_str())
                .is_some_and(|g| g.stamps.get(*gi) == Some(cached))
        });
        cache.lists.insert(key, (stamp, Arc::clone(&list)));
        Some(list)
    }

    /// Installs the raw-id translation layer (`--raw-ids`). Call once at
    /// boot, before serving; a second call is ignored (the first layer
    /// wins, matching `OnceLock` semantics).
    pub fn attach_raw_ids(&self, layer: RawIdLayer) {
        let _ = self.raw_ids.set(layer);
    }

    /// The raw-id layer, when serving original dataset ids.
    pub fn raw_ids(&self) -> Option<&RawIdLayer> {
        self.raw_ids.get()
    }

    /// [`ServeState::rate`] for original dataset ids: resolves
    /// `raw_user`/`raw_item` through the attached [`RawIdLayer`] (interning
    /// never-seen raw ids under the default grouping's growth caps — the
    /// interned dense index is exactly the row the admission pipeline
    /// grows to) and enqueues the dense-id update. The WAL therefore
    /// journals dense ids only; replay never needs the table.
    pub fn rate_raw(&self, raw_user: u64, raw_item: u64, score: f64) -> Result<usize> {
        let layer = self.raw_ids().ok_or_else(|| {
            GfError::InvalidGrouping("raw-id mode is not enabled (start with --raw-ids)".into())
        })?;
        let growth = self.snapshot().default_grouping().config.growth;
        let (user, item) = layer.resolve(raw_user, raw_item, growth)?;
        self.rate(user, item, score)
    }

    /// Re-enqueues one journal record during recovery, preserving its
    /// original sequence number. The WAL must not be attached yet (replay
    /// must not re-append its own input); validation is deferred to the
    /// applying pass, which re-checks growth caps exactly as the original
    /// accept did.
    pub(crate) fn enqueue_replayed(&self, rec: &WalRecord) -> Result<()> {
        let entry = match &rec.payload {
            WalPayload::Ratings(updates) => {
                if updates.len() != 1 {
                    return Err(GfError::Persist(format!(
                        "wal record {} carries {} updates; gf-serve journals exactly one per record",
                        rec.seq,
                        updates.len()
                    )));
                }
                let (user, item, score) = updates[0];
                PendingEntry::Rating {
                    seq: rec.seq,
                    user,
                    item,
                    score,
                }
            }
            WalPayload::Feedback { user, item, scope } => PendingEntry::Feedback {
                seq: rec.seq,
                user: *user,
                item: *item,
                scope: scope.clone(),
            },
        };
        let counter = match &entry {
            PendingEntry::Rating { .. } => &self.stats.rates_accepted,
            PendingEntry::Feedback { .. } => &self.stats.feedback_accepted,
        };
        let mut q = self.pending.lock().expect("pending lock poisoned");
        q.next_seq = rec.seq + 1;
        q.entries.push(entry);
        drop(q);
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Attaches the durable journal. Call *after* replay has been
    /// enqueued and flushed: from here on every accepted rating appends
    /// to `wal` before acknowledgment, continuing its sequence.
    pub(crate) fn attach_wal(&self, wal: Wal, dir_lock: std::fs::File) {
        let mut q = self.pending.lock().expect("pending lock poisoned");
        q.next_seq = wal.next_seq();
        q.wal = Some(wal);
        q.dir_lock = Some(dir_lock);
    }

    /// Runs `f` against the attached WAL (pruning, forced syncs). Returns
    /// `None` when running volatile.
    pub(crate) fn with_wal<R>(
        &self,
        f: impl FnOnce(&mut Wal) -> gf_persist::Result<R>,
    ) -> Option<gf_persist::Result<R>> {
        let mut q = self.pending.lock().expect("pending lock poisoned");
        q.wal.as_mut().map(f)
    }

    /// Runs one bounded background pass: drains up to
    /// `max_updates_per_pass` pending updates, patches the matrix and the
    /// affected users' preference lists in one batch each, then re-forms
    /// **every registered grouping** under its own configuration —
    /// incrementally (dirty buckets only) or cold, per
    /// [`gf_core::RefreshMode`] and the dirty-set size — and installs the
    /// result. A grouping whose top-`k` length an item admission in the
    /// chunk crosses rebuilds cold in the same pass. Returns how many
    /// updates were applied (0 when nothing was pending).
    pub fn process_pending(&self) -> Result<usize> {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let chunk: Vec<PendingEntry> = {
            let mut q = self.pending.lock().expect("pending lock poisoned");
            let take = q.entries.len().min(self.max_updates_per_pass);
            q.entries.drain(..take).collect()
        };
        if chunk.is_empty() {
            return Ok(0);
        }
        let current = self.snapshot();
        let updates: Vec<(u32, u32, f64)> = chunk
            .iter()
            .filter_map(|e| match e {
                PendingEntry::Rating {
                    user, item, score, ..
                } => Some((*user, *item, *score)),
                PendingEntry::Feedback { .. } => None,
            })
            .collect();
        // Fold newly journaled feedback into the successor window in
        // journal order; rating-only chunks share the window `Arc`.
        let feedback = if updates.len() == chunk.len() {
            Arc::clone(&current.feedback)
        } else {
            let mut window = (*current.feedback).clone();
            for e in &chunk {
                if let PendingEntry::Feedback {
                    user, item, scope, ..
                } = e
                {
                    window.push(FeedbackEvent {
                        user: *user,
                        item: *item,
                        scope: scope.clone(),
                    });
                }
            }
            Arc::new(window)
        };
        let next_version = current.version + chunk.len() as u64;
        let last_seq = chunk.last().expect("chunk non-empty").seq();

        if updates.is_empty() {
            // Feedback-only chunk: the ratings, preference lists and every
            // formation (so every standing former) are untouched, so the
            // successor shares them wholesale and skips the refresh
            // machinery. Grouping versions still advance to the chunk-end
            // version — exactly what a rating pass over the same records
            // would do — so versioning (and the crash digest) stays
            // chunking-invariant. Candidate stamps carry over: no member
            // list or rating moved. Each clone shares the member lists and
            // the assignment, so it costs `O(ell · k)`, not `O(n)`.
            let groupings = current
                .groupings
                .iter()
                .map(|(name, g)| {
                    let g = GroupingState {
                        version: next_version,
                        ..GroupingState::clone(g)
                    };
                    (name.clone(), Arc::new(g))
                })
                .collect();
            self.install(Snapshot {
                progress: Progress {
                    wal_seq: last_seq,
                    ..current.progress
                },
                feedback,
                ..current.with_groupings(groupings, next_version)
            });
            return Ok(chunk.len());
        }
        // Build the patched successors in one storage pass each (no
        // intermediate clone — the old matrix/prefs stay live for
        // concurrent readers), re-sorting each dirty user's preference
        // list exactly once: the incremental counterpart of a cold
        // `PrefIndex::build`. Journal entries validated under
        // `GrowthPolicy::Grow` may carry grown ids; the successor build
        // admits them here (appending rows is O(new rows), not O(nnz), on
        // top of the usual one-pass splice). Every grouping shares the
        // one patched matrix/prefs pair.
        let growth = current.default_grouping().config.growth;
        let (matrix, outcomes) = current.matrix.with_upserts_under(&updates, growth)?;
        let matrix = Arc::new(matrix);
        let admitted_users = u64::from(matrix.n_users() - current.matrix.n_users());
        let admitted_items = u64::from(matrix.n_items() - current.matrix.n_items());
        let deltas: Vec<RatingDelta> = updates
            .iter()
            .zip(outcomes)
            .map(|(&(u, i, s), o)| RatingDelta::from_upsert(u, i, s, o))
            .collect();
        let mut dirty: Vec<u32> = updates.iter().map(|&(u, _, _)| u).collect();
        dirty.sort_unstable();
        dirty.dedup();
        let prefs = Arc::new(current.prefs.patched(&matrix, &dirty));

        // One version per journal record (of either kind), not per pass:
        // the version (and progress) a journal history yields is then
        // invariant under pass chunking, which is what lets a
        // crash-replayed server assert bit-for-bit equality with the
        // uninterrupted run. `applied` counts rating updates only — the
        // feedback ledger is the window's own cumulative count.
        let progress = Progress {
            wal_seq: last_seq,
            applied: current.progress.applied + updates.len() as u64,
            users_admitted: current.progress.users_admitted + admitted_users,
            items_admitted: current.progress.items_admitted + admitted_items,
        };
        let n_users = matrix.n_users();
        // The formers leave their slots for the pass and return with the
        // snapshot they match: a pass that fails midway leaves every
        // grouping without one, and the next pass builds fresh ones.
        let mut formers = std::mem::take(&mut *writer);
        let mut groupings = BTreeMap::new();
        for (name, g) in &current.groupings {
            let cfg = g.config;
            // An item admission that crossed this grouping's top-`k`
            // length rewrites every signature; incremental repair would
            // degenerate, so take the cold rebuild deliberately.
            let k_crossed = cfg.k.min(current.matrix.n_items() as usize)
                != cfg.k.min(matrix.n_items() as usize);
            let incremental =
                !k_crossed && cfg.refresh.use_incremental(dirty.len(), n_users as usize);
            // A grouping without a former, or whose refresh fails, gets a
            // fresh one, exactly as on a cold pass.
            let refreshed = incremental
                && formers.get_mut(name).is_some_and(|former| {
                    former
                        .refresh(&matrix, &prefs, &deltas)
                        .inspect_err(|e| {
                            eprintln!(
                                "gf-serve: grouping {name:?}: refresh failed, rebuilding: {e}"
                            )
                        })
                        .is_ok()
                });
            if !refreshed {
                let former = IncrementalFormer::new(&matrix, &prefs, cfg)?;
                formers.insert(name.clone(), former);
            }
            // Counted by the path that ran, not the one intended.
            let path = if refreshed {
                &self.stats.refresh_incremental
            } else {
                &self.stats.refresh_cold
            };
            path.fetch_add(1, Ordering::Relaxed);
            let next = GroupingState::formed(cfg, &formers[name], Some(g), n_users, next_version)
                .carry_stamps(g, &dirty, admitted_items > 0);
            groupings.insert(name.clone(), Arc::new(next));
        }
        self.install(Snapshot {
            matrix,
            prefs,
            groupings,
            version: next_version,
            progress,
            feedback,
        });
        *writer = formers;
        // `refresh_passes` counts last, so `refresh_incremental +
        // refresh_cold >= refresh_passes` holds in every interleaving a
        // `/stats` read can see.
        self.stats.refresh_passes.fetch_add(1, Ordering::Relaxed);
        Ok(chunk.len())
    }

    /// Synchronously applies *all* pending updates (possibly over several
    /// bounded passes). After `flush` returns, queries see every rating
    /// accepted before the call.
    pub fn flush(&self) -> Result<()> {
        while self.process_pending()? > 0 {}
        Ok(())
    }

    /// Re-forms the `"default"` grouping under `cfg` — the single-tenant
    /// [`ServeState::form_named`].
    pub fn form(&self, cfg: FormationConfig) -> Result<BatchOutcome> {
        self.form_named(Snapshot::DEFAULT_GROUPING, cfg)
    }

    /// Re-forms (or first registers) the named grouping under `cfg` over
    /// the current matrix and installs the result, leaving every other
    /// grouping untouched. A brand-new name registers a new grouping —
    /// sharing the one matrix and preference index by `Arc` — and
    /// subsequent rating passes refresh it like any other.
    ///
    /// Concurrent `form_named` calls for the **same grouping and
    /// configuration** arriving within the batching window are coalesced
    /// into a single formation run whose snapshot all of them return.
    pub fn form_named(&self, name: &str, cfg: FormationConfig) -> Result<BatchOutcome> {
        validate_grouping_name(name)?;
        self.stats.form_requests.fetch_add(1, Ordering::Relaxed);
        self.batcher.submit(name, cfg, || {
            self.stats.form_runs.fetch_add(1, Ordering::Relaxed);
            let mut writer = self.writer.lock().expect("writer lock poisoned");
            let current = self.snapshot();
            // The ratings are unchanged: the new snapshot shares them.
            let former = IncrementalFormer::new(&current.matrix, &current.prefs, cfg)?;
            let next_version = current.version + 1;
            let mut groupings = current.groupings.clone();
            let n_users = current.matrix.n_users();
            groupings.insert(
                name.to_string(),
                Arc::new(GroupingState::formed(
                    cfg,
                    &former,
                    None,
                    n_users,
                    next_version,
                )),
            );
            let shared = self.install(current.with_groupings(groupings, next_version));
            writer.insert(name.to_string(), former);
            Ok(shared)
        })
    }

    /// Parks until rating updates arrive (or shutdown), then runs bounded
    /// passes. The HTTP server spawns this on a dedicated thread; tests
    /// can drive [`ServeState::process_pending`] directly instead.
    pub fn run_refresh_worker(&self) {
        loop {
            {
                let mut q = self.pending.lock().expect("pending lock poisoned");
                while q.entries.is_empty() && !q.shutdown {
                    q = self.wakeup.wait(q).expect("pending lock poisoned");
                }
                if q.shutdown && q.entries.is_empty() {
                    return;
                }
            }
            // A failure here means a validated update stopped applying —
            // only possible through a serve-layer bug; surface loudly.
            self.process_pending().expect("background pass failed");
        }
    }

    /// Asks the refresh worker to exit once the journal drains, pushing
    /// any interval-mode WAL tail to disk on the way (best effort — a
    /// sync failure at shutdown has no one left to reject).
    pub fn shutdown(&self) {
        let mut q = self.pending.lock().expect("pending lock poisoned");
        q.shutdown = true;
        if let Some(wal) = q.wal.as_mut() {
            let _ = wal.sync();
        }
        drop(q);
        self.wakeup.notify_all();
    }

    /// Freezes a consistent bundle for the checkpointer. Taking `writer`
    /// briefly excludes concurrent installs, so each copied former
    /// matches its exported grouping. Each formation clone shares its
    /// member lists (`O(ell · k)`), and each former clone copies a few
    /// flat arrays; the deep copy of the matrix and preference index into
    /// owned checkpoint structures and the formers' exports happen in the
    /// caller, outside every lock.
    pub(crate) fn export_for_checkpoint(&self) -> ExportedState {
        let formers = self.writer.lock().expect("writer lock poisoned");
        let snap = self.snapshot();
        let groupings = snap
            .groupings
            .iter()
            .map(|(name, g)| {
                let grouping = CheckpointGrouping {
                    name: name.clone(),
                    version: g.version,
                    config: g.config,
                    formation: g.formation.clone(),
                    former: None,
                };
                (grouping, formers.get(name).cloned())
            })
            .collect();
        ExportedState {
            version: snap.version,
            progress: snap.progress,
            matrix: Arc::clone(&snap.matrix),
            prefs: Arc::clone(&snap.prefs),
            groupings,
            feedback: Arc::clone(&snap.feedback),
        }
    }

    /// An order-sensitive FNV-1a fingerprint of the serving state:
    /// version, journal progress, every stored rating, the online
    /// feedback window (cumulative count plus every windowed event —
    /// but not its configured capacity, which is a process knob, not
    /// journal state), and — per named grouping, in name order — its
    /// name, version, configuration and full formation (membership,
    /// top-k lists, satisfaction bits). Two servers that applied the
    /// same journal — one uninterrupted, one crash-restored — produce
    /// the same digest; the crash harness asserts exactly that.
    pub fn digest(&self) -> u64 {
        let snap = self.snapshot();
        let mut d = StateDigest::new();
        d.u64(snap.version)
            .u64(snap.progress.wal_seq)
            .u64(snap.progress.applied)
            .u64(snap.progress.users_admitted)
            .u64(snap.progress.items_admitted)
            .matrix(&snap.matrix);
        d.u64(snap.feedback.observed_total());
        for ev in snap.feedback.events() {
            d.u64(u64::from(ev.user)).u64(u64::from(ev.item));
            match &ev.scope {
                Some(s) => d.u64(1).bytes(s.as_bytes()),
                None => d.u64(0),
            };
        }
        for (name, g) in &snap.groupings {
            d.bytes(name.as_bytes())
                .u64(g.version)
                .bytes(format!("{:?}", g.config).as_bytes())
                .formation(&g.formation);
        }
        d.finish()
    }

    /// The fingerprint of one named grouping (name, version,
    /// configuration, formation) — the per-grouping entries of
    /// `/digest`. Cheaper than [`ServeState::digest`] (no matrix walk);
    /// two servers that agree on [`ServeState::digest`] agree on every
    /// per-grouping digest, and a disagreement localizes the divergent
    /// grouping.
    pub fn grouping_digest(&self, name: &str) -> Option<u64> {
        let snap = self.snapshot();
        let g = snap.groupings.get(name)?;
        let mut d = StateDigest::new();
        d.bytes(name.as_bytes())
            .u64(g.version)
            .bytes(format!("{:?}", g.config).as_bytes())
            .formation(&g.formation);
        Some(d.finish())
    }

    fn install(&self, snapshot: Snapshot) -> Arc<Snapshot> {
        let shared = Arc::new(snapshot);
        let mut slot = self.snapshot.write().expect("snapshot lock poisoned");
        *slot = Arc::clone(&shared);
        shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf_core::{Aggregation, RatingScale, Semantics};

    fn matrix(n: u32, m: u32) -> RatingMatrix {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|u| {
                (0..m)
                    .map(|i| 1.0 + ((u * 7 + i * 3 + u * i) % 5) as f64)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        RatingMatrix::from_dense(&refs, RatingScale::one_to_five()).unwrap()
    }

    fn state(n: u32, m: u32, ell: usize) -> Arc<ServeState> {
        let cfg = ServeConfig::new(FormationConfig::new(
            Semantics::LeastMisery,
            Aggregation::Min,
            2,
            ell,
        ))
        .with_batch_window(Duration::ZERO);
        ServeState::new(matrix(n, m), cfg).unwrap()
    }

    /// Asserts that `g` holds exactly the formation a cold boot over
    /// `snap`'s ratings forms under `g`'s configuration.
    fn assert_matches_cold(snap: &Snapshot, g: &GroupingState) {
        let cold =
            ServeState::new(snap.matrix.as_ref().clone(), ServeConfig::new(g.config)).unwrap();
        let cold = cold.snapshot();
        assert_eq!(
            g.formation,
            cold.default_grouping().formation,
            "{:?}",
            g.config
        );
    }

    /// Three differently-configured groupings over one matrix.
    fn multi_state(n: u32, m: u32) -> Arc<ServeState> {
        let cfg = ServeConfig::new(FormationConfig::new(
            Semantics::LeastMisery,
            Aggregation::Min,
            2,
            3,
        ))
        .with_grouping(
            "av",
            FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 2, 4),
        )
        .with_grouping(
            "cons",
            FormationConfig::new(Semantics::Consensus { lambda: 0.5 }, Aggregation::Min, 2, 3),
        )
        .with_batch_window(Duration::ZERO);
        ServeState::new(matrix(n, m), cfg).unwrap()
    }

    #[test]
    fn initial_snapshot_covers_every_user() {
        let s = state(12, 5, 3);
        let snap = s.snapshot();
        assert_eq!(snap.version, 1);
        let g = snap.default_grouping();
        assert!((0..12).all(|u| g.group_of(u).is_some()));
        assert_eq!(g.group_of(12), None);
        g.formation.grouping.validate(12, 3).unwrap();
    }

    #[test]
    fn rate_validates_before_enqueue() {
        let s = state(4, 4, 2);
        assert!(matches!(
            s.rate(99, 0, 3.0),
            Err(GfError::UserOutOfRange { .. })
        ));
        assert!(matches!(
            s.rate(0, 99, 3.0),
            Err(GfError::ItemOutOfRange { .. })
        ));
        assert!(matches!(
            s.rate(0, 0, 9.0),
            Err(GfError::ScaleViolation { .. })
        ));
        assert!(matches!(
            s.rate(0, 0, f64::NAN),
            Err(GfError::NonFiniteScore { .. })
        ));
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn rate_is_deferred_until_flush() {
        let s = state(6, 4, 2);
        let before = s.snapshot();
        assert_eq!(s.rate(0, 1, 5.0).unwrap(), 1);
        assert_eq!(s.pending_len(), 1);
        // Queries still see the old snapshot.
        assert_eq!(s.snapshot().version, before.version);
        s.flush().unwrap();
        let after = s.snapshot();
        assert_eq!(after.version, before.version + 1);
        assert_eq!(after.matrix.get(0, 1), Some(5.0));
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn bounded_passes_split_large_batches() {
        let cfg = ServeConfig::new(FormationConfig::new(
            Semantics::AggregateVoting,
            Aggregation::Sum,
            2,
            2,
        ))
        .with_max_updates_per_pass(2);
        let s = ServeState::new(matrix(5, 5), cfg).unwrap();
        for i in 0..5 {
            s.rate(i % 5, i % 5, 4.0).unwrap();
        }
        assert_eq!(s.process_pending().unwrap(), 2);
        assert_eq!(s.pending_len(), 3);
        s.flush().unwrap();
        assert_eq!(s.pending_len(), 0);
        assert_eq!(s.snapshot().progress.applied, 5);
        assert!(s.stats.refresh_passes.load(Ordering::Relaxed) >= 3);
    }

    #[test]
    fn form_installs_new_config() {
        let s = state(10, 6, 2);
        let new_cfg = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 3, 4);
        let outcome = s.form(new_cfg).unwrap();
        assert_eq!(outcome.snapshot.default_grouping().config, new_cfg);
        assert_eq!(s.snapshot().version, 2);
        // Background passes now re-form under the new config.
        s.rate(0, 0, 1.0).unwrap();
        s.flush().unwrap();
        assert_eq!(s.snapshot().default_grouping().config, new_cfg);
    }

    #[test]
    fn auto_mode_takes_incremental_path_for_small_batches() {
        let s = state(10, 5, 3);
        s.rate(1, 1, 5.0).unwrap();
        s.flush().unwrap();
        s.rate(2, 0, 4.0).unwrap();
        s.rate(7, 3, 1.0).unwrap();
        s.flush().unwrap();
        // 10 users, auto threshold max(64, n/8): every pass is incremental.
        assert_eq!(s.stats.refresh_incremental.load(Ordering::Relaxed), 2);
        assert_eq!(s.stats.refresh_cold.load(Ordering::Relaxed), 0);
        // And the snapshots match a cold rebuild over the same ratings.
        let snap = s.snapshot();
        let g = snap.default_grouping();
        assert_matches_cold(&snap, g);
    }

    #[test]
    fn growth_rides_the_incremental_path() {
        let cfg = ServeConfig::new(
            FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 2, 3)
                .with_growth(gf_core::GrowthPolicy::unbounded()),
        )
        .with_batch_window(Duration::ZERO);
        let s = ServeState::new(matrix(10, 5), cfg).unwrap();
        s.rate(0, 0, 5.0).unwrap();
        s.flush().unwrap(); // standing former initialized
        s.rate(13, 6, 4.0).unwrap(); // admission lands on the warm former
        s.flush().unwrap();
        assert_eq!(s.stats.refresh_incremental.load(Ordering::Relaxed), 2);
        let snap = s.snapshot();
        assert_eq!(snap.progress.users_admitted, 4);
        assert_eq!(snap.progress.items_admitted, 2);
        let g = snap.default_grouping();
        assert_eq!(snap.matrix.n_users(), 14);
        assert!((0..14).all(|u| g.group_of(u).is_some()));
        assert_eq!(g.group_of(14), None);
        // Equal to a cold boot over the grown universe.
        assert_matches_cold(&snap, g);
    }

    #[test]
    fn cold_mode_never_touches_the_former() {
        let cfg = ServeConfig::new(
            FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 2, 3)
                .with_refresh(gf_core::RefreshMode::Cold),
        )
        .with_batch_window(Duration::ZERO);
        let s = ServeState::new(matrix(9, 5), cfg).unwrap();
        s.rate(0, 0, 5.0).unwrap();
        s.flush().unwrap();
        // The pass rebuilt the former instead of refreshing it.
        assert_eq!(s.stats.refresh_incremental.load(Ordering::Relaxed), 0);
        assert_eq!(s.stats.refresh_cold.load(Ordering::Relaxed), 1);
        let snap = s.snapshot();
        assert_matches_cold(&snap, snap.default_grouping());
    }

    #[test]
    fn a_checkpointed_version_is_skipped_without_the_writer_lock() {
        let dir = std::env::temp_dir().join(format!("gf-ckpt-skip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = crate::persist::DurabilityOptions::new(&dir);
        let s = state(10, 5, 3);
        s.rate(1, 1, 5.0).unwrap();
        s.flush().unwrap();
        let version = s.snapshot().version;
        assert_eq!(
            crate::persist::checkpoint_now(&s, &opts).unwrap(),
            Some(version)
        );
        // With the writer lock held, a second checkpoint of the same
        // version must return at once rather than wait to export.
        let held = s.writer.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = {
            let (s, opts) = (Arc::clone(&s), opts.clone());
            std::thread::spawn(move || {
                let _ =
                    tx.send(crate::persist::checkpoint_now(&s, &opts).map_err(|e| e.to_string()));
            })
        };
        let skipped = rx.recv_timeout(Duration::from_secs(10));
        drop(held);
        worker.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(skipped.expect("blocked on the writer lock"), Ok(None));
    }

    #[test]
    fn a_failed_refresh_rebuilds_the_former() {
        let s = state(10, 5, 3);
        // A former built for a larger population rejects this matrix as
        // shrunk, so its refresh returns an error.
        let bigger = matrix(12, 5);
        let cfg = s.snapshot().default_grouping().config;
        let stale = IncrementalFormer::new(&bigger, &PrefIndex::build(&bigger), cfg).unwrap();
        s.writer
            .lock()
            .unwrap()
            .insert(Snapshot::DEFAULT_GROUPING.to_string(), stale);
        s.rate(1, 1, 5.0).unwrap();
        s.flush().unwrap();
        let snap = s.snapshot();
        assert_matches_cold(&snap, snap.default_grouping());
        // The failed refresh rebuilt cold and counts as cold.
        assert_eq!(s.stats.refresh_incremental.load(Ordering::Relaxed), 0);
        assert_eq!(s.stats.refresh_cold.load(Ordering::Relaxed), 1);
        // The rebuilt former is in sync: the next pass refreshes it.
        s.rate(4, 2, 1.0).unwrap();
        s.flush().unwrap();
        let snap = s.snapshot();
        assert_matches_cold(&snap, snap.default_grouping());
        assert_eq!(s.stats.refresh_incremental.load(Ordering::Relaxed), 1);
        assert_eq!(s.stats.refresh_cold.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn form_breaks_former_lineage_but_refreshes_stay_correct() {
        let s = state(12, 6, 3);
        s.rate(0, 0, 5.0).unwrap();
        s.flush().unwrap();
        let new_cfg = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 2, 4);
        s.form(new_cfg).unwrap(); // replaces the former with one under new_cfg
        s.rate(3, 3, 2.0).unwrap();
        s.flush().unwrap(); // refreshes the replacement
        assert_eq!(s.stats.refresh_incremental.load(Ordering::Relaxed), 2);
        let snap = s.snapshot();
        let g = snap.default_grouping();
        assert_eq!(g.config, new_cfg);
        assert_matches_cold(&snap, g);
    }

    #[test]
    fn worker_drains_and_shuts_down() {
        let s = state(8, 4, 2);
        let worker = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.run_refresh_worker())
        };
        s.rate(3, 2, 5.0).unwrap();
        // The worker should pick the update up without an explicit flush.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while s.snapshot().matrix.get(3, 2) != Some(5.0) {
            assert!(std::time::Instant::now() < deadline, "worker never applied");
            std::thread::sleep(Duration::from_millis(1));
        }
        s.shutdown();
        worker.join().unwrap();
    }

    // ---- named-grouping registry ----------------------------------------

    #[test]
    fn boot_registers_every_named_grouping_over_one_matrix() {
        let s = multi_state(12, 6);
        let snap = s.snapshot();
        assert_eq!(snap.groupings.len(), 3);
        for name in ["default", "av", "cons"] {
            let g = snap.grouping(name).unwrap();
            assert_eq!(g.version, 1);
            assert!((0..12).all(|u| g.group_of(u).is_some()));
        }
        assert_eq!(
            snap.grouping("av").unwrap().config.semantics,
            Semantics::AggregateVoting
        );
    }

    #[test]
    fn rating_pass_refreshes_every_grouping_and_each_matches_its_cold_rebuild() {
        let s = multi_state(12, 6);
        s.rate(1, 1, 5.0).unwrap();
        s.rate(7, 2, 1.0).unwrap();
        s.flush().unwrap();
        let snap = s.snapshot();
        // One pass, two records: global version 1 -> 3, all groupings on it.
        assert_eq!(snap.version, 3);
        for (name, g) in &snap.groupings {
            assert_eq!(g.version, 3, "{name}");
            assert_matches_cold(&snap, g);
        }
        // Every grouping refreshed incrementally (small dirty set).
        assert_eq!(s.stats.refresh_incremental.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn form_named_registers_and_shares_the_matrix() {
        let s = state(10, 6, 3);
        let before = s.snapshot();
        let cfg = FormationConfig::new(Semantics::LeaderWeighted, Aggregation::Min, 2, 4);
        let outcome = s.form_named("ldr", cfg).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.version, before.version + 1);
        // One matrix, one preference index — shared by Arc, not copied.
        assert!(Arc::ptr_eq(&before.matrix, &snap.matrix));
        assert!(Arc::ptr_eq(&before.prefs, &snap.prefs));
        // Untouched groupings are shared wholesale.
        assert!(Arc::ptr_eq(
            before.default_grouping(),
            snap.default_grouping()
        ));
        let g = snap.grouping("ldr").unwrap();
        assert_eq!(g.config, cfg);
        assert_eq!(g.version, snap.version);
        assert_eq!(outcome.snapshot.version, snap.version);
        // The default grouping's formation (and version) did not move.
        assert_eq!(snap.default_grouping().version, before.version);
    }

    #[test]
    fn form_named_rejects_bad_names() {
        let s = state(6, 4, 2);
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 2, 2);
        assert!(s.form_named("", cfg).is_err());
        assert!(s.form_named("has space", cfg).is_err());
        assert!(s.form_named("has/slash", cfg).is_err());
        assert!(s.form_named("ok-name_1.x", cfg).is_ok());
    }

    #[test]
    fn new_grouping_rides_subsequent_rating_passes() {
        let s = state(10, 5, 3);
        s.form_named(
            "av",
            FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 2, 4),
        )
        .unwrap();
        s.rate(2, 2, 5.0).unwrap();
        s.flush().unwrap();
        let snap = s.snapshot();
        let g = snap.grouping("av").unwrap();
        assert_eq!(g.version, snap.version);
        assert_matches_cold(&snap, g);
    }

    #[test]
    fn grouping_digests_localize_changes() {
        let s = multi_state(10, 5);
        let d_default = s.grouping_digest("default").unwrap();
        let d_av = s.grouping_digest("av").unwrap();
        assert!(s.grouping_digest("nope").is_none());
        // Re-forming one grouping moves its digest, not the others'.
        s.form_named(
            "av",
            FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 3, 2),
        )
        .unwrap();
        assert_eq!(s.grouping_digest("default").unwrap(), d_default);
        assert_ne!(s.grouping_digest("av").unwrap(), d_av);
    }

    #[test]
    fn feedback_validates_defers_and_folds_into_the_window() {
        let s = multi_state(10, 5);
        assert!(matches!(
            s.feedback(99, 0, None),
            Err(GfError::UserOutOfRange { .. })
        ));
        assert!(matches!(
            s.feedback(0, 99, None),
            Err(GfError::ItemOutOfRange { .. })
        ));
        assert!(matches!(
            s.feedback(0, 0, Some("nope")),
            Err(GfError::InvalidGrouping(_))
        ));
        assert_eq!(s.pending_len(), 0);
        let before = s.snapshot();
        assert_eq!(s.feedback(3, 2, Some("av")).unwrap(), 1);
        assert_eq!(s.feedback(4, 1, None).unwrap(), 2);
        // Not visible until a pass folds it in.
        assert!(s.snapshot().feedback.is_empty());
        s.flush().unwrap();
        let after = s.snapshot();
        // Two records, one version each; the matrix and prefs are shared
        // untouched, but every grouping's version follows the snapshot.
        assert_eq!(after.version, before.version + 2);
        assert!(Arc::ptr_eq(&before.matrix, &after.matrix));
        assert!(Arc::ptr_eq(&before.prefs, &after.prefs));
        for g in after.groupings.values() {
            assert_eq!(g.version, after.version);
        }
        assert_eq!(after.feedback.len(), 2);
        assert_eq!(after.feedback.observed_total(), 2);
        assert_eq!(s.snapshot().feedback.observed_total(), 2);
        // A feedback-only pass leaves the standing formers in sync: the
        // next rating still refreshes incrementally.
        s.rate(0, 0, 5.0).unwrap();
        s.flush().unwrap();
        s.rate(1, 1, 4.0).unwrap();
        s.feedback(1, 1, None).unwrap();
        s.flush().unwrap();
        assert_eq!(s.stats.refresh_cold.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn feedback_digest_is_chunking_invariant() {
        let run = |max_per_pass: usize| {
            let cfg = ServeConfig::new(FormationConfig::new(
                Semantics::LeastMisery,
                Aggregation::Min,
                2,
                3,
            ))
            .with_batch_window(Duration::ZERO)
            .with_max_updates_per_pass(max_per_pass);
            let s = ServeState::new(matrix(10, 5), cfg).unwrap();
            for step in 0..12u32 {
                if step % 3 == 2 {
                    s.feedback(step % 10, step % 5, None).unwrap();
                } else {
                    s.rate(step % 10, step % 5, 1.0 + f64::from(step % 5))
                        .unwrap();
                }
                if max_per_pass == 1 {
                    s.flush().unwrap(); // apply one record at a time
                }
            }
            s.flush().unwrap();
            s.digest()
        };
        assert_eq!(run(1), run(1024));
    }

    #[test]
    fn candidate_items_match_brute_force_and_cache_by_version() {
        let s = state(10, 6, 3);
        let snap = s.snapshot();
        let g = snap.default_grouping();
        for (gi, group) in g.formation.grouping.groups.iter().enumerate() {
            let got = s.candidate_items(&snap, "default", gi).unwrap();
            let want = gf_core::brute_force_candidates(&snap.matrix, &group.members).unwrap();
            assert_eq!(*got, want);
            // A second query at the same version returns the cached Arc.
            let again = s.candidate_items(&snap, "default", gi).unwrap();
            assert!(Arc::ptr_eq(&got, &again));
        }
        assert!(s.candidate_items(&snap, "nope", 0).is_none());
        assert!(s.candidate_items(&snap, "default", 99).is_none());
    }

    #[test]
    fn k_crossing_admission_with_a_user_tail_applies_in_one_pass() {
        // k = 4 over a 3-item catalogue: the first admission that pushes
        // the catalogue to 4+ items crosses the top-k edge.
        let cfg = ServeConfig::new(
            FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 4, 3)
                .with_growth(gf_core::GrowthPolicy::unbounded()),
        )
        .with_batch_window(Duration::ZERO);
        let s = ServeState::new(matrix(10, 3), cfg).unwrap();
        s.rate(0, 0, 5.0).unwrap();
        s.flush().unwrap(); // warm former on the 3-item catalogue
        let cold_before = s.stats.refresh_cold.load(Ordering::Relaxed);
        s.rate(1, 3, 4.0).unwrap(); // admits item 3 -> crosses k = 4
        s.rate(2, 0, 2.0).unwrap(); // plain user rating after the admission
        s.rate(3, 1, 1.0).unwrap();
        // One bounded pass drains the admission and its tail together,
        // and the crossed grouping rebuilds cold exactly once.
        assert_eq!(s.process_pending().unwrap(), 3);
        assert_eq!(s.pending_len(), 0);
        assert_eq!(
            s.stats.refresh_cold.load(Ordering::Relaxed),
            cold_before + 1
        );
        let snap = s.snapshot();
        assert_eq!(snap.matrix.n_items(), 4);
        // 1 (boot) + 4 records.
        assert_eq!(snap.version, 5);
        let g = snap.default_grouping();
        assert_matches_cold(&snap, g);
    }
}
