//! Binary snapshot checkpoints: one self-contained file holding
//! everything a warm restart needs.
//!
//! A checkpoint is a 32-byte header followed by a CRC-guarded payload of
//! tagged sections (byte-level layout in `docs/PERSISTENCE.md`):
//!
//! ```text
//! header  = [GFCK][u32 format_version][u64 payload_len][u32 payload_crc][12 reserved bytes]
//! payload = section*   section = [u32 tag][u32 0][u64 body_len][body][pad to 8]
//! ```
//!
//! Sections carry the snapshot meta/progress counters, the rating matrix
//! CSR, the preference-index CSR and — since format v2 — the **named
//! grouping registry**: one record per grouping holding its name,
//! per-grouping version, formation configuration, emitted formation and
//! the exported [`FormerState`] of the grouping's standing former
//! (optional: readers accept a grouping without one). Every array is length-prefixed
//! fixed-width little-endian and 8-byte aligned — the layout is
//! mmap-ready, though this workspace reads it through the bounds-checked
//! [`Reader`] (`forbid(unsafe_code)` rules out real `mmap`). **Unknown
//! tags are skipped**, so a future writer can add sections without
//! breaking this reader; bumping [`CHECKPOINT_FORMAT_VERSION`] is
//! reserved for layout changes an old reader must *not* attempt.
//!
//! ## Compatibility
//!
//! The reader accepts format **v1** (single formation, `CONFIG` /
//! `FORMATION` / `FORMER` sections) and **v2** (the `GROUPINGS`
//! section). A v1 checkpoint decodes as a registry with exactly the
//! `"default"` grouping at the checkpoint's snapshot version; the writer
//! always emits v2. Versions above 2 are rejected with
//! [`PersistError::UnsupportedVersion`].
//!
//! Writes are atomic: encode to `checkpoint.tmp`, `fsync`, rename into
//! `checkpoint-<version>.ckpt`, `fsync` the directory. A reader therefore
//! never sees a partial checkpoint; a crash mid-write leaves at worst a
//! stale `.tmp` that the next write overwrites.

use crate::codec::{Reader, Writer};
use crate::crc32::crc32;
use crate::error::{PersistError, Result};
use gf_core::{
    Aggregation, FeedbackEvent, FormationConfig, FormationResult, FormerBucket, FormerState,
    GfError, Group, Grouping, GrowthPolicy, MissingPolicy, OnlineEval, PrefIndex, RatingMatrix,
    RatingScale, RefreshMode, Semantics,
};
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Format version written into every checkpoint header.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 2;

/// Oldest format version the reader still decodes (as a single
/// `"default"` grouping).
pub const CHECKPOINT_MIN_FORMAT_VERSION: u32 = 1;

/// Checkpoint header magic.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"GFCK";

/// Bytes of header before the payload.
pub const CHECKPOINT_HEADER_BYTES: usize = 32;

const TAG_META: u32 = 1;
const TAG_CONFIG: u32 = 2;
const TAG_MATRIX: u32 = 3;
const TAG_PREFS: u32 = 4;
const TAG_FORMATION: u32 = 5;
const TAG_FORMER: u32 = 6;
const TAG_GROUPINGS: u32 = 7;
/// The online-feedback window (`/feedback` consumptions). Additive: the
/// section is only written when the window has ever observed an event,
/// and readers that predate it skip it — no format bump needed.
const TAG_FEEDBACK: u32 = 8;

/// Name every pre-registry (format v1) checkpoint's formation restores
/// under.
pub const DEFAULT_GROUPING_NAME: &str = "default";

/// One named grouping inside a checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointGrouping {
    /// The registry name (`"default"` always exists).
    pub name: String,
    /// Global snapshot version at which this grouping's formation last
    /// changed.
    pub version: u64,
    /// The formation configuration the grouping was formed under.
    pub config: FormationConfig,
    /// The emitted formation.
    pub formation: FormationResult,
    /// The grouping's standing incremental-former state. `gf-serve`
    /// writes it for every grouping that has a former; `None` restores
    /// too, and the server rebuilds that grouping's former on its next
    /// rating pass.
    pub former: Option<FormerState>,
}

/// Everything one checkpoint captures. The fields mirror the serving
/// snapshot plus its durable progress frontier.
#[derive(Debug, Clone)]
pub struct CheckpointState {
    /// The snapshot version the state was exported at.
    pub snapshot_version: u64,
    /// Highest WAL sequence number whose record is baked into this state;
    /// recovery replays strictly-greater records, truncation may drop
    /// segments at or below it.
    pub wal_seq: u64,
    /// Total rating updates applied since the process lineage began.
    pub applied: u64,
    /// Users admitted at serve time (cumulative).
    pub users_admitted: u64,
    /// Items admitted at serve time (cumulative).
    pub items_admitted: u64,
    /// The rating matrix (shared by every grouping).
    pub matrix: RatingMatrix,
    /// The preference index matching `matrix`.
    pub prefs: PrefIndex,
    /// The named grouping registry, in name order. A v1 checkpoint
    /// decodes to exactly one entry named
    /// [`DEFAULT_GROUPING_NAME`] at the snapshot version.
    pub groupings: Vec<CheckpointGrouping>,
    /// The online-feedback window at export time (consumption events and
    /// the cumulative observed counter). Empty when the checkpoint
    /// predates the feedback section or never saw an event.
    pub feedback: OnlineEval,
}

impl CheckpointState {
    /// The `"default"` grouping's record, if present (it always is for
    /// files this workspace wrote).
    pub fn default_grouping(&self) -> Option<&CheckpointGrouping> {
        self.groupings
            .iter()
            .find(|g| g.name == DEFAULT_GROUPING_NAME)
    }
}

fn semantics_code(s: Semantics) -> (u8, f64) {
    match s {
        Semantics::LeastMisery => (0, 0.0),
        Semantics::AggregateVoting => (1, 0.0),
        Semantics::Consensus { lambda } => (2, lambda),
        Semantics::LeaderWeighted => (3, 0.0),
    }
}

fn aggregation_code(a: Aggregation) -> Result<u8> {
    match a {
        Aggregation::Min => Ok(0),
        Aggregation::Max => Ok(1),
        Aggregation::Sum => Ok(2),
        Aggregation::WeightedSum(_) => Err(PersistError::Corrupt(
            "WeightedSum aggregation has no checkpoint encoding".into(),
        )),
    }
}

fn policy_code(p: MissingPolicy) -> u8 {
    match p {
        MissingPolicy::Min => 0,
        MissingPolicy::UserMean => 1,
        MissingPolicy::Skip => 2,
    }
}

fn refresh_code(r: RefreshMode) -> u8 {
    match r {
        RefreshMode::Auto => 0,
        RefreshMode::Cold => 1,
        RefreshMode::Incremental => 2,
    }
}

fn encode_config(cfg: &FormationConfig) -> Result<Vec<u8>> {
    let mut w = Writer::new();
    let (sem, lambda) = semantics_code(cfg.semantics);
    w.u8(sem);
    w.u8(aggregation_code(cfg.aggregation)?);
    w.u8(policy_code(cfg.policy));
    w.u8(refresh_code(cfg.refresh));
    // v2: the Consensus dispersion penalty rides along (0.0 for the
    // other semantics).
    w.f64(lambda);
    w.usize(cfg.k);
    w.usize(cfg.ell);
    w.usize(cfg.n_threads);
    match cfg.growth {
        GrowthPolicy::Fixed => {
            w.u8(0);
            w.u32(0);
            w.u32(0);
        }
        GrowthPolicy::Grow {
            max_users,
            max_items,
        } => {
            w.u8(1);
            w.u32(max_users);
            w.u32(max_items);
        }
    }
    Ok(w.into_bytes())
}

fn decode_config(body: &[u8], format: u32) -> Result<FormationConfig> {
    let bad = |what: &str, v: u8| PersistError::Corrupt(format!("unknown {what} code {v}"));
    let mut r = Reader::new(body);
    let sem_code = r.u8("semantics")?;
    let agg_code = r.u8("aggregation")?;
    let policy_code = r.u8("policy")?;
    let refresh_code = r.u8("refresh")?;
    // The v1 layout has no lambda field (and no codes above 1 to need it).
    let lambda = if format >= 2 { r.f64("lambda")? } else { 0.0 };
    let semantics = match sem_code {
        0 => Semantics::LeastMisery,
        1 => Semantics::AggregateVoting,
        2 if format >= 2 => {
            if !lambda.is_finite() {
                return Err(PersistError::Corrupt(format!(
                    "non-finite consensus lambda {lambda}"
                )));
            }
            Semantics::Consensus { lambda }
        }
        3 if format >= 2 => Semantics::LeaderWeighted,
        v => return Err(bad("semantics", v)),
    };
    let aggregation = match agg_code {
        0 => Aggregation::Min,
        1 => Aggregation::Max,
        2 => Aggregation::Sum,
        v => return Err(bad("aggregation", v)),
    };
    let policy = match policy_code {
        0 => MissingPolicy::Min,
        1 => MissingPolicy::UserMean,
        2 => MissingPolicy::Skip,
        v => return Err(bad("policy", v)),
    };
    let refresh = match refresh_code {
        0 => RefreshMode::Auto,
        1 => RefreshMode::Cold,
        2 => RefreshMode::Incremental,
        v => return Err(bad("refresh", v)),
    };
    let k = r.usize("k")?;
    let ell = r.usize("ell")?;
    let n_threads = r.usize("n_threads")?;
    let growth = match r.u8("growth")? {
        0 => {
            r.u32("max_users")?;
            r.u32("max_items")?;
            GrowthPolicy::Fixed
        }
        1 => GrowthPolicy::Grow {
            max_users: r.u32("max_users")?,
            max_items: r.u32("max_items")?,
        },
        v => return Err(bad("growth", v)),
    };
    Ok(FormationConfig::new(semantics, aggregation, k, ell)
        .with_policy(policy)
        .with_threads(n_threads)
        .with_refresh(refresh)
        .with_growth(growth))
}

fn encode_matrix(m: &RatingMatrix) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(m.n_users());
    w.u32(m.n_items());
    w.f64(m.scale().min());
    w.f64(m.scale().max());
    encode_csr(
        &mut w,
        m.n_users() as usize + 1,
        m.csr_offsets(),
        m.nnz(),
        m.csr_runs(),
    );
    w.into_bytes()
}

/// Streams chunked CSR storage into the flat layout `usize_slice(offsets)`,
/// `u32_slice(items)`, `f64_slice(scores)` would write for the
/// concatenated arrays.
fn encode_csr<'a>(
    w: &mut Writer,
    n_offsets: usize,
    offsets: impl Iterator<Item = usize>,
    nnz: usize,
    runs: impl Iterator<Item = (&'a [u32], &'a [f64])> + Clone,
) {
    w.usize(n_offsets);
    for o in offsets {
        w.usize(o);
    }
    w.usize(nnz);
    for (items, _) in runs.clone() {
        for &i in items {
            w.u32(i);
        }
    }
    w.usize(nnz);
    for (_, scores) in runs {
        for &s in scores {
            w.f64(s);
        }
    }
}

fn decode_matrix(body: &[u8]) -> Result<RatingMatrix> {
    let mut r = Reader::new(body);
    let n_users = r.u32("n_users")?;
    let n_items = r.u32("n_items")?;
    let min = r.f64("scale min")?;
    let max = r.f64("scale max")?;
    let scale = RatingScale::new(min, max).map_err(PersistError::from)?;
    let offsets = r.usize_vec("matrix offsets")?;
    let items = r.u32_vec("matrix items")?;
    let scores = r.f64_vec("matrix scores")?;
    RatingMatrix::from_csr_parts(n_users, n_items, scale, offsets, items, scores)
        .map_err(PersistError::from)
}

fn encode_prefs(p: &PrefIndex) -> Vec<u8> {
    let mut w = Writer::new();
    let nnz = p.csr_runs().map(|(items, _)| items.len()).sum();
    encode_csr(
        &mut w,
        p.n_users() as usize + 1,
        p.csr_offsets(),
        nnz,
        p.csr_runs(),
    );
    w.into_bytes()
}

fn decode_prefs(body: &[u8]) -> Result<PrefIndex> {
    let mut r = Reader::new(body);
    let offsets = r.usize_vec("pref offsets")?;
    let items = r.u32_vec("pref items")?;
    let scores = r.f64_vec("pref scores")?;
    PrefIndex::from_parts(offsets, items, scores).map_err(PersistError::from)
}

fn encode_formation(f: &FormationResult) -> Vec<u8> {
    let mut w = Writer::new();
    w.f64(f.objective);
    w.usize(f.n_buckets);
    w.usize(f.grouping.groups.len());
    for g in &f.grouping.groups {
        w.u32_slice(&g.members);
        w.usize(g.top_k.len());
        for &(item, score) in &g.top_k {
            w.u32(item);
            w.f64(score);
        }
        w.f64(g.satisfaction);
    }
    w.into_bytes()
}

fn decode_formation(body: &[u8]) -> Result<FormationResult> {
    let mut r = Reader::new(body);
    let objective = r.f64("objective")?;
    let n_buckets = r.usize("n_buckets")?;
    let n_groups = r.usize("n_groups")?;
    let mut groups = Vec::new();
    for _ in 0..n_groups {
        let members = r.u32_vec("group members")?;
        let top_len = r.usize("top_k length")?;
        if top_len.checked_mul(12).is_none_or(|b| b > r.remaining()) {
            return Err(PersistError::Corrupt(format!(
                "top_k of {top_len} entries exceeds remaining bytes"
            )));
        }
        let mut top_k = Vec::with_capacity(top_len);
        for _ in 0..top_len {
            let item = r.u32("top_k item")?;
            let score = r.f64("top_k score")?;
            top_k.push((item, score));
        }
        let satisfaction = r.f64("satisfaction")?;
        groups.push(Group {
            members: members.into(),
            top_k,
            satisfaction,
        });
    }
    Ok(FormationResult {
        grouping: Grouping::new(groups),
        objective,
        n_buckets,
    })
}

fn encode_former(s: &FormerState) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(s.buckets.len());
    for b in &s.buckets {
        w.u32_slice(&b.items);
        w.u64_slice(&b.key_score_bits);
        w.u32_slice(&b.users);
        w.u64_slice(&b.pos_min_bits);
        w.u64_slice(&b.pos_sum_bits);
    }
    w.u32_slice(&s.selected);
    w.into_bytes()
}

fn decode_former(body: &[u8]) -> Result<FormerState> {
    let mut r = Reader::new(body);
    let n = r.usize("bucket count")?;
    let mut buckets = Vec::new();
    for _ in 0..n {
        buckets.push(FormerBucket {
            items: r.u32_vec("bucket items")?,
            key_score_bits: r.u64_vec("bucket key scores")?,
            users: r.u32_vec("bucket users")?,
            pos_min_bits: r.u64_vec("bucket pos_min")?,
            pos_sum_bits: r.u64_vec("bucket pos_sum")?,
        });
    }
    let selected = r.u32_vec("selected")?;
    Ok(FormerState { buckets, selected })
}

fn encode_groupings(groupings: &[CheckpointGrouping]) -> Result<Vec<u8>> {
    let mut w = Writer::new();
    w.usize(groupings.len());
    for g in groupings {
        w.usize(g.name.len());
        w.bytes(g.name.as_bytes());
        w.u64(g.version);
        let cfg = encode_config(&g.config)?;
        w.usize(cfg.len());
        w.bytes(&cfg);
        let formation = encode_formation(&g.formation);
        w.usize(formation.len());
        w.bytes(&formation);
        match &g.former {
            Some(f) => {
                let body = encode_former(f);
                w.u8(1);
                w.usize(body.len());
                w.bytes(&body);
            }
            None => w.u8(0),
        }
    }
    Ok(w.into_bytes())
}

fn decode_groupings(body: &[u8], format: u32) -> Result<Vec<CheckpointGrouping>> {
    let mut r = Reader::new(body);
    let n = r.usize("grouping count")?;
    let mut out = Vec::new();
    for _ in 0..n {
        let name_len = r.usize("grouping name length")?;
        let name = std::str::from_utf8(r.take(name_len, "grouping name")?)
            .map_err(|_| PersistError::Corrupt("grouping name is not UTF-8".into()))?
            .to_string();
        let version = r.u64("grouping version")?;
        let cfg_len = r.usize("grouping config length")?;
        let config = decode_config(r.take(cfg_len, "grouping config")?, format)?;
        let form_len = r.usize("grouping formation length")?;
        let formation = decode_formation(r.take(form_len, "grouping formation")?)?;
        let former = match r.u8("grouping former flag")? {
            0 => None,
            1 => {
                let len = r.usize("grouping former length")?;
                Some(decode_former(r.take(len, "grouping former")?)?)
            }
            v => {
                return Err(PersistError::Corrupt(format!(
                    "unknown grouping former flag {v}"
                )))
            }
        };
        out.push(CheckpointGrouping {
            name,
            version,
            config,
            formation,
            former,
        });
    }
    Ok(out)
}

fn encode_feedback(w: &OnlineEval) -> Vec<u8> {
    let mut out = Writer::new();
    out.u64(w.capacity() as u64);
    out.u64(w.observed_total());
    out.u32(w.len() as u32);
    for ev in w.events() {
        out.u32(ev.user);
        out.u32(ev.item);
        match &ev.scope {
            Some(s) => {
                out.u8(1);
                out.u32(s.len() as u32);
                out.bytes(s.as_bytes());
            }
            None => out.u8(0),
        }
    }
    out.into_bytes()
}

/// Encoded size of a feedback event without a scope: user 4 + item 4 +
/// scope marker 1 bytes.
const FEEDBACK_EVENT_MIN_BYTES: usize = 9;

fn decode_feedback(body: &[u8]) -> Result<OnlineEval> {
    let mut r = Reader::new(body);
    let capacity = r.u64("feedback capacity")? as usize;
    let observed_total = r.u64("feedback observed_total")?;
    let count = r.u32("feedback count")? as usize;
    // Bound the count by the bytes present before sizing the `Vec`.
    if count.saturating_mul(FEEDBACK_EVENT_MIN_BYTES) > r.remaining() {
        return Err(PersistError::Corrupt(format!(
            "feedback count {count} exceeds the {} bytes left",
            r.remaining()
        )));
    }
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        let user = r.u32("feedback user")?;
        let item = r.u32("feedback item")?;
        let scope = match r.u8("feedback has_scope")? {
            0 => None,
            1 => {
                let len = r.u32("feedback scope length")? as usize;
                let bytes = r.take(len, "feedback scope")?;
                Some(String::from_utf8(bytes.to_vec()).map_err(|_| {
                    PersistError::Corrupt("feedback scope is not valid UTF-8".into())
                })?)
            }
            k => {
                return Err(PersistError::Corrupt(format!(
                    "feedback scope marker {k} is neither 0 nor 1"
                )))
            }
        };
        events.push(FeedbackEvent { user, item, scope });
    }
    if !r.is_empty() {
        return Err(PersistError::Corrupt(
            "trailing bytes after feedback events".into(),
        ));
    }
    Ok(OnlineEval::from_parts(capacity, events, observed_total))
}

fn section(w: &mut Writer, tag: u32, body: &[u8]) {
    w.u32(tag);
    w.u32(0);
    w.usize(body.len());
    w.bytes(body);
    w.pad_to(8);
}

/// Serializes a checkpoint to its on-disk bytes (always format v2: the
/// named grouping registry).
pub fn encode(state: &CheckpointState) -> Result<Vec<u8>> {
    if state.groupings.is_empty() {
        return Err(PersistError::Corrupt(
            "a checkpoint must carry at least one grouping".into(),
        ));
    }
    let mut payload = Writer::new();
    let mut meta = Writer::new();
    meta.u64(state.snapshot_version);
    meta.u64(state.wal_seq);
    meta.u64(state.applied);
    meta.u64(state.users_admitted);
    meta.u64(state.items_admitted);
    section(&mut payload, TAG_META, &meta.into_bytes());
    section(&mut payload, TAG_MATRIX, &encode_matrix(&state.matrix));
    section(&mut payload, TAG_PREFS, &encode_prefs(&state.prefs));
    section(
        &mut payload,
        TAG_GROUPINGS,
        &encode_groupings(&state.groupings)?,
    );
    // Additive section: written only once feedback exists, so pre-feedback
    // states keep their exact historical bytes (the golden fixtures pin
    // this).
    if state.feedback.observed_total() > 0 || !state.feedback.is_empty() {
        section(
            &mut payload,
            TAG_FEEDBACK,
            &encode_feedback(&state.feedback),
        );
    }
    let payload = payload.into_bytes();
    let mut out = Writer::new();
    out.bytes(&CHECKPOINT_MAGIC);
    out.u32(CHECKPOINT_FORMAT_VERSION);
    out.usize(payload.len());
    out.u32(crc32(&payload));
    out.bytes(&[0u8; 12]);
    out.bytes(&payload);
    Ok(out.into_bytes())
}

/// Decodes checkpoint bytes, validating the header, the payload CRC and
/// every restored structure. Unknown section tags are skipped (forward
/// compatibility). Format v1 files (single formation) decode as a
/// registry holding only the [`DEFAULT_GROUPING_NAME`] grouping; a
/// format version above [`CHECKPOINT_FORMAT_VERSION`] is rejected with
/// [`PersistError::UnsupportedVersion`].
pub fn decode(bytes: &[u8]) -> Result<CheckpointState> {
    let mut r = Reader::new(bytes);
    if r.take(4, "magic")? != CHECKPOINT_MAGIC {
        return Err(PersistError::Corrupt("bad checkpoint magic".into()));
    }
    let version = r.u32("format version")?;
    if !(CHECKPOINT_MIN_FORMAT_VERSION..=CHECKPOINT_FORMAT_VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: CHECKPOINT_FORMAT_VERSION,
        });
    }
    let payload_len = r.usize("payload length")?;
    let crc = r.u32("payload crc")?;
    r.take(12, "reserved")?;
    let payload = r.take(payload_len, "payload")?;
    if crc32(payload) != crc {
        return Err(PersistError::Corrupt(
            "checkpoint payload crc mismatch".into(),
        ));
    }
    let mut meta = None;
    let mut config = None;
    let mut matrix = None;
    let mut prefs = None;
    let mut formation = None;
    let mut former = None;
    let mut groupings: Option<Vec<CheckpointGrouping>> = None;
    let mut feedback = OnlineEval::default();
    let mut s = Reader::new(payload);
    while !s.is_empty() {
        let tag = s.u32("section tag")?;
        s.u32("section pad")?;
        let len = s.usize("section length")?;
        let body = s.take(len, "section body")?;
        // Skip the alignment padding the writer added after the body.
        let pad = (8 - (s.position() % 8)) % 8;
        s.take(pad, "section padding")?;
        match tag {
            TAG_META => {
                let mut m = Reader::new(body);
                meta = Some((
                    m.u64("snapshot_version")?,
                    m.u64("wal_seq")?,
                    m.u64("applied")?,
                    m.u64("users_admitted")?,
                    m.u64("items_admitted")?,
                ));
            }
            TAG_CONFIG => config = Some(decode_config(body, version)?),
            TAG_MATRIX => matrix = Some(decode_matrix(body)?),
            TAG_PREFS => prefs = Some(decode_prefs(body)?),
            TAG_FORMATION => formation = Some(decode_formation(body)?),
            TAG_FORMER => former = Some(decode_former(body)?),
            TAG_GROUPINGS => groupings = Some(decode_groupings(body, version)?),
            TAG_FEEDBACK => feedback = decode_feedback(body)?,
            _ => {} // future section: skip
        }
    }
    let missing = |what: &str| PersistError::Corrupt(format!("checkpoint lacks a {what} section"));
    let (snapshot_version, wal_seq, applied, users_admitted, items_admitted) =
        meta.ok_or_else(|| missing("meta"))?;
    let matrix = matrix.ok_or_else(|| missing("matrix"))?;
    let prefs = prefs.ok_or_else(|| missing("prefs"))?;
    // v2 carries the registry section; a v1 file's flat CONFIG /
    // FORMATION / FORMER triple restores as the lone "default" grouping
    // at the snapshot version (the only version single-formation
    // checkpoints knew).
    let groupings = match groupings {
        Some(gs) => {
            if gs.is_empty() {
                return Err(PersistError::Corrupt("empty groupings section".into()));
            }
            gs
        }
        None => vec![CheckpointGrouping {
            name: DEFAULT_GROUPING_NAME.to_string(),
            version: snapshot_version,
            config: config.ok_or_else(|| missing("config"))?,
            formation: formation.ok_or_else(|| missing("formation"))?,
            former,
        }],
    };
    // Cross-validate the independent sections against each other.
    if prefs.n_users() != matrix.n_users() {
        return Err(PersistError::Corrupt(format!(
            "prefs cover {} users but the matrix holds {}",
            prefs.n_users(),
            matrix.n_users()
        )));
    }
    for u in 0..matrix.n_users() {
        if prefs.degree(u) != matrix.degree(u) {
            return Err(PersistError::Corrupt(format!(
                "user {u}: pref degree {} != matrix degree {}",
                prefs.degree(u),
                matrix.degree(u)
            )));
        }
    }
    let mut seen = std::collections::BTreeSet::new();
    for g in &groupings {
        if !seen.insert(g.name.as_str()) {
            return Err(PersistError::Corrupt(format!(
                "duplicate grouping {:?} in checkpoint",
                g.name
            )));
        }
        if g.version > snapshot_version {
            return Err(PersistError::Corrupt(format!(
                "grouping {:?} version {} is ahead of snapshot version {snapshot_version}",
                g.name, g.version
            )));
        }
        g.formation
            .grouping
            .validate(matrix.n_users(), g.config.ell)
            .map_err(|e: GfError| PersistError::from(e))?;
    }
    Ok(CheckpointState {
        snapshot_version,
        wal_seq,
        applied,
        users_admitted,
        items_admitted,
        matrix,
        prefs,
        groupings,
        feedback,
    })
}

fn checkpoint_path(dir: &Path, version: u64) -> PathBuf {
    dir.join(format!("checkpoint-{version:020}.ckpt"))
}

fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(PersistError::io(format!("list {}", dir.display()))(e)),
    };
    for entry in entries {
        let entry = entry.map_err(PersistError::io(format!("list {}", dir.display())))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(stem) = name
            .strip_prefix("checkpoint-")
            .and_then(|n| n.strip_suffix(".ckpt"))
        {
            if let Ok(version) = stem.parse::<u64>() {
                out.push((version, entry.path()));
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Atomically writes `state` as `checkpoint-<version>.ckpt` in `dir`
/// (temp file + `fsync` + rename + directory `fsync`), then prunes older
/// checkpoints down to the two most recent — the newest plus one
/// fall-back should the newest turn out unreadable. Returns the final
/// path.
pub fn write(dir: &Path, state: &CheckpointState) -> Result<PathBuf> {
    fs::create_dir_all(dir).map_err(PersistError::io(format!("mkdir {}", dir.display())))?;
    let bytes = encode(state)?;
    let tmp = dir.join("checkpoint.tmp");
    let mut f = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&tmp)
        .map_err(PersistError::io(format!("create {}", tmp.display())))?;
    f.write_all(&bytes)
        .map_err(PersistError::io(format!("write {}", tmp.display())))?;
    f.sync_all()
        .map_err(PersistError::io(format!("fsync {}", tmp.display())))?;
    drop(f);
    let path = checkpoint_path(dir, state.snapshot_version);
    fs::rename(&tmp, &path).map_err(PersistError::io(format!("rename into {}", path.display())))?;
    let d = File::open(dir).map_err(PersistError::io(format!("open dir {}", dir.display())))?;
    d.sync_all()
        .map_err(PersistError::io(format!("fsync dir {}", dir.display())))?;
    let mut all = list_checkpoints(dir)?;
    while all.len() > 2 {
        let (_, old) = all.remove(0);
        fs::remove_file(&old).map_err(PersistError::io(format!("remove {}", old.display())))?;
    }
    Ok(path)
}

/// What [`load_latest`] recovered.
#[derive(Debug)]
pub struct LoadOutcome {
    /// The newest checkpoint that decoded cleanly, with its path.
    pub loaded: Option<(CheckpointState, PathBuf)>,
    /// Checkpoints that were present but skipped as unreadable, newest
    /// first, with the reason.
    pub skipped: Vec<(PathBuf, String)>,
}

/// Loads the newest valid checkpoint in `dir`, falling back to older ones
/// when the newest is corrupt (each skip is reported). A checkpoint with
/// a *newer format version* is a hard error, not a skip — see
/// [`PersistError::UnsupportedVersion`].
pub fn load_latest(dir: &Path) -> Result<LoadOutcome> {
    let mut outcome = LoadOutcome {
        loaded: None,
        skipped: Vec::new(),
    };
    for (_, path) in list_checkpoints(dir)?.into_iter().rev() {
        let bytes =
            fs::read(&path).map_err(PersistError::io(format!("read {}", path.display())))?;
        match decode(&bytes) {
            Ok(state) => {
                outcome.loaded = Some((state, path));
                return Ok(outcome);
            }
            Err(e @ PersistError::UnsupportedVersion { .. }) => return Err(e),
            Err(e) => outcome.skipped.push((path, e.to_string())),
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf_core::{GreedyFormer, GroupFormer, IncrementalFormer, MatrixBuilder, PrefIndex};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gf-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_matrix() -> RatingMatrix {
        let mut b = MatrixBuilder::new(6, 4, RatingScale::one_to_five());
        for u in 0..6u32 {
            for i in 0..4u32 {
                if (u + i) % 3 != 0 {
                    b.push(u, i, f64::from((u * 7 + i * 3) % 5 + 1)).unwrap();
                }
            }
        }
        b.push(0, 0, 3.0).unwrap();
        b.push(3, 0, 2.0).unwrap();
        b.build().unwrap()
    }

    fn sample_state(version: u64) -> CheckpointState {
        let matrix = sample_matrix();
        let prefs = PrefIndex::build(&matrix);
        let config = FormationConfig::new(Semantics::LeastMisery, Aggregation::Sum, 2, 1)
            .with_growth(GrowthPolicy::Grow {
                max_users: 100,
                max_items: 50,
            });
        let former = IncrementalFormer::new(&matrix, &prefs, config).unwrap();
        CheckpointState {
            snapshot_version: version,
            wal_seq: version * 3,
            applied: version * 3,
            users_admitted: 2,
            items_admitted: 1,
            groupings: vec![CheckpointGrouping {
                name: DEFAULT_GROUPING_NAME.to_string(),
                version,
                config,
                formation: former.result().clone(),
                former: Some(former.export_state()),
            }],
            matrix,
            prefs,
            feedback: OnlineEval::default(),
        }
    }

    fn assert_formations_equal(a: &FormationResult, b: &FormationResult) {
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.n_buckets, b.n_buckets);
        let (ga, gb) = (&a.grouping.groups, &b.grouping.groups);
        assert_eq!(ga.len(), gb.len());
        for (x, y) in ga.iter().zip(gb) {
            assert_eq!(x.members, y.members);
            assert_eq!(x.top_k, y.top_k);
            assert_eq!(x.satisfaction.to_bits(), y.satisfaction.to_bits());
        }
    }

    fn assert_states_equal(a: &CheckpointState, b: &CheckpointState) {
        assert_eq!(a.snapshot_version, b.snapshot_version);
        assert_eq!(a.wal_seq, b.wal_seq);
        assert_eq!(a.applied, b.applied);
        assert_eq!(a.users_admitted, b.users_admitted);
        assert_eq!(a.items_admitted, b.items_admitted);
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.matrix.scale(), b.matrix.scale());
        assert_eq!(a.prefs, b.prefs);
        assert_eq!(a.groupings.len(), b.groupings.len());
        for (x, y) in a.groupings.iter().zip(&b.groupings) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.version, y.version);
            assert_eq!(x.config, y.config);
            assert_formations_equal(&x.formation, &y.formation);
            assert_eq!(x.former, y.former);
        }
        assert_eq!(a.feedback, b.feedback);
    }

    #[test]
    fn feedback_window_round_trips() {
        let mut state = sample_state(3);
        state.feedback = OnlineEval::from_parts(
            128,
            vec![
                FeedbackEvent {
                    user: 0,
                    item: 1,
                    scope: None,
                },
                FeedbackEvent {
                    user: 4,
                    item: 2,
                    scope: Some("cons".to_string()),
                },
            ],
            17,
        );
        let bytes = encode(&state).unwrap();
        let back = decode(&bytes).unwrap();
        assert_states_equal(&state, &back);
        assert_eq!(back.feedback.observed_total(), 17);
        assert_eq!(back.feedback.capacity(), 128);
        assert_eq!(back.feedback.events()[1].scope.as_deref(), Some("cons"));
    }

    #[test]
    fn feedback_count_beyond_body_is_corrupt() {
        let mut w = Writer::new();
        w.u64(128);
        w.u64(0);
        w.u32(u32::MAX);
        assert!(matches!(
            decode_feedback(&w.into_bytes()),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_feedback_emits_no_section() {
        // Pre-feedback byte layouts must stay stable: a state that never
        // observed feedback encodes exactly as it did before TAG_FEEDBACK
        // existed (and decodes with an empty window).
        let state = sample_state(3);
        let bytes = encode(&state).unwrap();
        let mut r = Reader::new(&bytes[CHECKPOINT_HEADER_BYTES..]);
        let mut tags = Vec::new();
        while !r.is_empty() {
            let tag = r.u32("tag").unwrap();
            r.u32("pad").unwrap();
            let len = r.usize("len").unwrap();
            r.take(len, "body").unwrap();
            let pad = (8 - (r.position() % 8)) % 8;
            r.take(pad, "padding").unwrap();
            tags.push(tag);
        }
        assert!(!tags.contains(&TAG_FEEDBACK));
        let back = decode(&bytes).unwrap();
        assert!(back.feedback.is_empty());
        assert_eq!(back.feedback.observed_total(), 0);
    }

    #[test]
    fn encode_decode_round_trip_is_lossless() {
        let state = sample_state(7);
        let bytes = encode(&state).unwrap();
        let back = decode(&bytes).unwrap();
        assert_states_equal(&state, &back);
        // The restored former state imports into a working former.
        let g = back.default_grouping().unwrap();
        let restored =
            IncrementalFormer::import_state(&back.matrix, g.config, g.former.as_ref().unwrap())
                .unwrap();
        assert_eq!(
            restored.result().objective,
            state.groupings[0].formation.objective
        );
        // Encoding is deterministic: same state, same bytes.
        assert_eq!(bytes, encode(&state).unwrap());
    }

    #[test]
    fn multi_grouping_round_trip_keeps_every_semantics() {
        let mut state = sample_state(9);
        let matrix = state.matrix.clone();
        let prefs = PrefIndex::build(&matrix);
        for (name, sem) in [
            ("cons", Semantics::Consensus { lambda: 0.7 }),
            ("ldr", Semantics::LeaderWeighted),
            ("av", Semantics::AggregateVoting),
        ] {
            let config = FormationConfig::new(sem, Aggregation::Min, 2, 2);
            let formation = GreedyFormer::new().form(&matrix, &prefs, &config).unwrap();
            state.groupings.push(CheckpointGrouping {
                name: name.to_string(),
                version: 5,
                config,
                formation,
                former: None,
            });
        }
        let back = decode(&encode(&state).unwrap()).unwrap();
        assert_states_equal(&state, &back);
        // Lambda survives bit-for-bit.
        let cons = back.groupings.iter().find(|g| g.name == "cons").unwrap();
        assert_eq!(cons.config.semantics, Semantics::Consensus { lambda: 0.7 });
    }

    #[test]
    fn former_section_is_optional() {
        let mut state = sample_state(1);
        state.groupings[0].former = None;
        let back = decode(&encode(&state).unwrap()).unwrap();
        assert!(back.groupings[0].former.is_none());
    }

    #[test]
    fn duplicate_grouping_names_are_corrupt() {
        let mut state = sample_state(1);
        let dup = state.groupings[0].clone();
        state.groupings.push(dup);
        let bytes = encode(&state).unwrap();
        assert!(matches!(decode(&bytes), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn grouping_version_ahead_of_snapshot_is_corrupt() {
        let mut state = sample_state(3);
        state.groupings[0].version = 99;
        let bytes = encode(&state).unwrap();
        assert!(matches!(decode(&bytes), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn weighted_sum_is_rejected_at_encode_time() {
        let mut state = sample_state(1);
        state.groupings[0].config = FormationConfig::new(
            Semantics::AggregateVoting,
            Aggregation::WeightedSum(gf_core::WeightScheme::Uniform),
            2,
            1,
        );
        assert!(matches!(encode(&state), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn newer_format_version_is_unsupported_not_corrupt() {
        let state = sample_state(1);
        let mut bytes = encode(&state).unwrap();
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(PersistError::UnsupportedVersion {
                found: 3,
                supported: 2
            })
        ));
    }

    /// Re-encodes `state` as a format-v1 file: flat CONFIG / FORMATION /
    /// FORMER sections and the v1 config layout (no lambda field).
    fn encode_v1(state: &CheckpointState) -> Vec<u8> {
        let g = &state.groupings[0];
        let mut payload = Writer::new();
        let mut meta = Writer::new();
        meta.u64(state.snapshot_version);
        meta.u64(state.wal_seq);
        meta.u64(state.applied);
        meta.u64(state.users_admitted);
        meta.u64(state.items_admitted);
        section(&mut payload, TAG_META, &meta.into_bytes());
        let mut cfg = Writer::new();
        cfg.u8(semantics_code(g.config.semantics).0);
        cfg.u8(aggregation_code(g.config.aggregation).unwrap());
        cfg.u8(policy_code(g.config.policy));
        cfg.u8(refresh_code(g.config.refresh));
        cfg.usize(g.config.k);
        cfg.usize(g.config.ell);
        cfg.usize(g.config.n_threads);
        match g.config.growth {
            GrowthPolicy::Fixed => {
                cfg.u8(0);
                cfg.u32(0);
                cfg.u32(0);
            }
            GrowthPolicy::Grow {
                max_users,
                max_items,
            } => {
                cfg.u8(1);
                cfg.u32(max_users);
                cfg.u32(max_items);
            }
        }
        section(&mut payload, TAG_CONFIG, &cfg.into_bytes());
        section(&mut payload, TAG_MATRIX, &encode_matrix(&state.matrix));
        section(&mut payload, TAG_PREFS, &encode_prefs(&state.prefs));
        section(&mut payload, TAG_FORMATION, &encode_formation(&g.formation));
        if let Some(former) = &g.former {
            section(&mut payload, TAG_FORMER, &encode_former(former));
        }
        let payload = payload.into_bytes();
        let mut out = Writer::new();
        out.bytes(&CHECKPOINT_MAGIC);
        out.u32(1);
        out.usize(payload.len());
        out.u32(crc32(&payload));
        out.bytes(&[0u8; 12]);
        out.bytes(&payload);
        out.into_bytes()
    }

    #[test]
    fn v1_checkpoint_decodes_as_the_default_grouping() {
        let state = sample_state(7);
        let bytes = encode_v1(&state);
        let back = decode(&bytes).unwrap();
        // The v1 flat formation restores as the lone "default" grouping
        // pinned at the snapshot version.
        assert_eq!(back.groupings.len(), 1);
        assert_eq!(back.groupings[0].name, DEFAULT_GROUPING_NAME);
        assert_eq!(back.groupings[0].version, back.snapshot_version);
        assert_states_equal(&state, &back);
    }

    #[test]
    fn payload_bit_flip_is_corrupt() {
        let state = sample_state(1);
        let mut bytes = encode(&state).unwrap();
        let mid = CHECKPOINT_HEADER_BYTES + (bytes.len() - CHECKPOINT_HEADER_BYTES) / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(decode(&bytes), Err(PersistError::Corrupt(_))));
        // Truncation too.
        let cut = &bytes[..bytes.len() - 9];
        assert!(matches!(decode(cut), Err(PersistError::Corrupt(_))));
        assert!(matches!(decode(&[]), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let state = sample_state(1);
        let bytes = encode(&state).unwrap();
        let payload = &bytes[CHECKPOINT_HEADER_BYTES..];
        // Prepend a section with an unknown tag, then rebuild the header.
        let mut injected = Writer::new();
        injected.u32(0xBEEF);
        injected.u32(0);
        injected.usize(8);
        injected.u64(0xDEAD_DEAD_DEAD_DEAD);
        injected.bytes(payload);
        let payload = injected.into_bytes();
        let mut out = Writer::new();
        out.bytes(&CHECKPOINT_MAGIC);
        out.u32(CHECKPOINT_FORMAT_VERSION);
        out.usize(payload.len());
        out.u32(crc32(&payload));
        out.bytes(&[0u8; 12]);
        out.bytes(&payload);
        let back = decode(&out.into_bytes()).unwrap();
        assert_states_equal(&state, &back);
    }

    #[test]
    fn write_prunes_to_two_and_load_latest_falls_back_past_corruption() {
        let dir = tmpdir("prune");
        for v in [3u64, 5, 9] {
            write(&dir, &sample_state(v)).unwrap();
        }
        let names = list_checkpoints(&dir).unwrap();
        assert_eq!(
            names.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            vec![5, 9],
            "older checkpoints pruned down to two"
        );
        // Clean load picks the newest.
        let out = load_latest(&dir).unwrap();
        assert_eq!(out.loaded.as_ref().unwrap().0.snapshot_version, 9);
        assert!(out.skipped.is_empty());
        // Corrupt the newest: load falls back to version 5 and reports it.
        let newest = checkpoint_path(&dir, 9);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let out = load_latest(&dir).unwrap();
        assert_eq!(out.loaded.as_ref().unwrap().0.snapshot_version, 5);
        assert_eq!(out.skipped.len(), 1);
        // Corrupt both: nothing loads, both reported, no error.
        let older = checkpoint_path(&dir, 5);
        let mut bytes = fs::read(&older).unwrap();
        bytes[40] ^= 0x01;
        fs::write(&older, &bytes).unwrap();
        let out = load_latest(&dir).unwrap();
        assert!(out.loaded.is_none());
        assert_eq!(out.skipped.len(), 2);
        // A newer-format checkpoint is a hard error, not a skip.
        let mut bytes = fs::read(&older).unwrap();
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        fs::write(checkpoint_path(&dir, 11), &bytes).unwrap();
        assert!(matches!(
            load_latest(&dir),
            Err(PersistError::UnsupportedVersion { found: 9, .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_latest_on_missing_dir_is_empty() {
        let dir = std::env::temp_dir().join(format!("gf-ckpt-none-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let out = load_latest(&dir).unwrap();
        assert!(out.loaded.is_none() && out.skipped.is_empty());
    }

    #[test]
    fn cross_section_mismatch_is_corrupt() {
        // Prefs from a *different* matrix shape must be rejected even though
        // both sections are individually well-formed.
        let mut state = sample_state(1);
        let mut b = MatrixBuilder::new(2, 2, RatingScale::one_to_five());
        b.push(0, 0, 1.0).unwrap();
        b.push(1, 1, 5.0).unwrap();
        let small = b.build().unwrap();
        state.prefs = PrefIndex::build(&small);
        let bytes = encode(&state).unwrap();
        assert!(matches!(decode(&bytes), Err(PersistError::Corrupt(_))));
    }
}
