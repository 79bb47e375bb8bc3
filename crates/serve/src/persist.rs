//! Durable serving: WAL-journaled boots, warm restarts and the
//! background checkpointer.
//!
//! ## Recovery, end to end
//!
//! [`boot`] is the single entry point for a `--data-dir` server:
//!
//! 0. take the exclusive lock on `DIR/LOCK`, so a second process on the
//!    same directory fails its boot instead of interleaving WAL appends
//!    (the returned state holds the lock until it is dropped; the kernel
//!    releases it when the process dies, `kill -9` included);
//! 1. load the newest *valid* checkpoint (corrupt ones are skipped with a
//!    reason, falling back to the previous file — see
//!    [`gf_persist::checkpoint::load_latest`]);
//! 2. rebuild [`ServeState`] from it — or run the cold-boot path (the
//!    caller's matrix closure + initial formation) when no checkpoint
//!    exists yet;
//! 3. open the WAL (torn tails are truncated here) and replay every
//!    record past the checkpoint's `wal_seq` through the ordinary
//!    refresh pipeline, then flush;
//! 4. write a fresh checkpoint of the recovered state, attach the WAL for
//!    live appends and prune segments the new checkpoint covers.
//!
//! Because replay feeds the same journal records through the same
//! [`ServeState::process_pending`] arithmetic the live server uses (one
//! version per record), a recovered process is *bit-for-bit* the server
//! that never crashed — the crash harness in `tests/crash.rs` kills a
//! real server mid-run and asserts digest equality against an
//! uninterrupted reference.
//!
//! The byte formats live in `gf-persist` (see `docs/PERSISTENCE.md`);
//! operational guidance (sync modes, crash windows, failure playbooks) in
//! `docs/OPERATIONS.md`.

use crate::state::{ServeConfig, ServeState};
use gf_core::{GfError, IncrementalFormer, RatingMatrix, Result};
use gf_persist::checkpoint::{self, CheckpointGrouping, CheckpointState};
use gf_persist::wal::{SyncMode, Wal};
use std::fs::{File, OpenOptions, TryLockError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything that parameterises durability for one serving process.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding WAL segments and checkpoint files.
    pub data_dir: PathBuf,
    /// When accepted ratings reach disk (`--wal-sync`).
    pub sync: SyncMode,
    /// Cadence of background checkpoints; `Duration::ZERO` disables the
    /// checkpointer (the boot checkpoint is still written).
    pub checkpoint_interval: Duration,
    /// Keep WAL segments that a checkpoint already covers instead of
    /// pruning them (`--wal-retain`; the crash harness scans them to
    /// rebuild its reference run).
    pub retain_wal: bool,
}

impl DurabilityOptions {
    /// Durable defaults: fsync every append, checkpoint every 30 s,
    /// prune covered WAL segments.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        DurabilityOptions {
            data_dir: data_dir.into(),
            sync: SyncMode::Always,
            checkpoint_interval: Duration::from_secs(30),
            retain_wal: false,
        }
    }
}

/// What a [`boot`] recovered, for the startup report and `/stats`.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// No usable checkpoint existed; the matrix closure ran.
    pub cold_start: bool,
    /// Snapshot version of the checkpoint restored (0 on cold start).
    pub checkpoint_version: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Torn-tail bytes dropped while opening the WAL.
    pub dropped_bytes: u64,
    /// Checkpoint files skipped as unreadable, with reasons.
    pub skipped_checkpoints: Vec<(PathBuf, String)>,
}

/// Boots a durable server from `opts.data_dir`: warm from the newest
/// valid checkpoint plus WAL tail when possible, cold through
/// `make_matrix` otherwise. On return the state is fully recovered, a
/// checkpoint of the recovered state is on disk, and the WAL is attached
/// — every subsequent [`ServeState::rate`] journals before acknowledging.
///
/// `make_matrix` runs **only** on cold start; a warm boot never pays for
/// dataset loading or the initial formation, which is what makes warm
/// restarts measurably faster than cold boots (see `EXPERIMENTS.md`).
pub fn boot(
    cfg: ServeConfig,
    opts: &DurabilityOptions,
    make_matrix: impl FnOnce() -> Result<RatingMatrix>,
) -> Result<(Arc<ServeState>, RecoveryReport)> {
    std::fs::create_dir_all(&opts.data_dir)
        .map_err(|e| GfError::Persist(format!("mkdir {}: {e}", opts.data_dir.display())))?;
    let dir_lock = lock_data_dir(&opts.data_dir)?;
    let outcome = checkpoint::load_latest(&opts.data_dir).map_err(GfError::from)?;
    let skipped_checkpoints = outcome.skipped;
    let boot_groupings = cfg.groupings.clone();
    let (state, cold_start, ckpt_version, ckpt_wal_seq) = match outcome.loaded {
        Some((ck, _)) => {
            let (version, wal_seq) = (ck.snapshot_version, ck.wal_seq);
            (ServeState::restore_from(ck, cfg)?, false, version, wal_seq)
        }
        None => {
            let matrix = make_matrix()?;
            // The cold path clamps ell like a volatile boot does; the warm
            // path inherits the checkpointed (already valid) configs.
            let cfg = cfg.clamp_ell(matrix.n_users());
            (ServeState::new(matrix, cfg)?, true, 0, 0)
        }
    };
    // A warm boot restores the checkpoint's registry verbatim; any boot
    // flags naming groupings the checkpoint does not know yet register
    // now (idempotent — a grouping the durable state already carries is
    // never re-formed, so repeated restarts stay bit-for-bit stable).
    if !cold_start {
        for (name, fc) in &boot_groupings {
            if state.snapshot().grouping(name).is_none() {
                state.form_named(name, *fc)?;
            }
        }
    }
    let (wal, scanned) = Wal::open(&opts.data_dir, opts.sync).map_err(GfError::from)?;
    // A checkpoint ahead of the log means WAL segments were lost (they
    // are never pruned past the newest checkpoint in normal operation).
    // Everything the checkpoint covers is safe; restart the log past its
    // frontier so future sequences stay unique.
    let wal = if wal.next_seq() <= ckpt_wal_seq {
        drop(wal);
        Wal::create_at(&opts.data_dir, opts.sync, ckpt_wal_seq + 1).map_err(GfError::from)?
    } else {
        wal
    };
    let mut replayed = 0u64;
    for rec in &scanned.records {
        if rec.seq > ckpt_wal_seq {
            state.enqueue_replayed(rec)?;
            replayed += 1;
        }
    }
    state.flush()?;
    state.attach_wal(wal, dir_lock);
    state
        .stats
        .recovery_replayed
        .store(replayed, Ordering::Relaxed);
    state
        .stats
        .recovery_dropped_bytes
        .store(scanned.dropped_bytes, Ordering::Relaxed);
    state
        .stats
        .checkpoint_version
        .store(ckpt_version, Ordering::Relaxed);
    // Checkpoint the recovered state now: the next restart is warm even
    // if the periodic checkpointer never fires, and the replayed tail
    // (plus any torn bytes) is truncated away.
    checkpoint_now(&state, opts)?;
    Ok((
        state,
        RecoveryReport {
            cold_start,
            checkpoint_version: ckpt_version,
            replayed,
            dropped_bytes: scanned.dropped_bytes,
            skipped_checkpoints,
        },
    ))
}

/// Opens `dir/LOCK` and takes an exclusive advisory lock on it without
/// blocking: one serving process per data directory.
fn lock_data_dir(dir: &Path) -> Result<File> {
    let path = dir.join("LOCK");
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&path)
        .map_err(|e| GfError::Persist(format!("open {}: {e}", path.display())))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(TryLockError::WouldBlock) => Err(GfError::Persist(format!(
            "{} is held by another process: only one gf-serve may use a data directory",
            path.display()
        ))),
        Err(TryLockError::Error(e)) => {
            Err(GfError::Persist(format!("lock {}: {e}", path.display())))
        }
    }
}

/// Writes a checkpoint of the current state to `opts.data_dir` unless the
/// newest on-disk checkpoint already covers this snapshot version.
/// Returns the checkpointed version, or `None` when skipped. A skip reads
/// the snapshot version alone: it takes no lock and copies nothing.
///
/// Serving never pauses: the snapshot is frozen from its immutable `Arc`
/// bundle, and each grouping's former copied, under a briefly-held lock;
/// the former exports, deep copy, encode and fsync all happen outside
/// every serving lock.
pub fn checkpoint_now(state: &ServeState, opts: &DurabilityOptions) -> Result<Option<u64>> {
    let covered = || state.stats.checkpoint_version.load(Ordering::Relaxed);
    if state.snapshot().version <= covered() {
        return Ok(None);
    }
    let exported = state.export_for_checkpoint();
    if exported.version <= covered() {
        return Ok(None);
    }
    let ck = CheckpointState {
        snapshot_version: exported.version,
        wal_seq: exported.progress.wal_seq,
        applied: exported.progress.applied,
        users_admitted: exported.progress.users_admitted,
        items_admitted: exported.progress.items_admitted,
        matrix: (*exported.matrix).clone(),
        prefs: (*exported.prefs).clone(),
        groupings: exported
            .groupings
            .into_iter()
            .map(|(grouping, former)| CheckpointGrouping {
                former: former.as_ref().map(IncrementalFormer::export_state),
                ..grouping
            })
            .collect(),
        feedback: (*exported.feedback).clone(),
    };
    checkpoint::write(&opts.data_dir, &ck).map_err(GfError::from)?;
    state
        .stats
        .checkpoint_version
        .store(ck.snapshot_version, Ordering::Relaxed);
    state
        .stats
        .checkpoints_written
        .fetch_add(1, Ordering::Relaxed);
    if !opts.retain_wal {
        if let Some(res) = state.with_wal(|w| w.prune_through(ck.wal_seq)) {
            res.map_err(GfError::from)?;
        }
    }
    Ok(Some(ck.snapshot_version))
}

/// Handle to the background checkpointer thread; [`Checkpointer::stop`]
/// (or drop) asks it to exit and joins it.
pub struct Checkpointer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Checkpointer {
    /// Signals the thread and waits for it to finish.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns the periodic checkpointer: every `opts.checkpoint_interval` it
/// freezes the current snapshot and writes it via [`checkpoint_now`]
/// (skipping when nothing changed). Failures are reported to stderr and
/// retried next tick — a full disk must not take serving down.
pub fn spawn_checkpointer(state: Arc<ServeState>, opts: DurabilityOptions) -> Checkpointer {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let interval = opts.checkpoint_interval.max(Duration::from_millis(1));
        loop {
            // Sleep in short slices so stop requests are honored promptly.
            let mut slept = Duration::ZERO;
            while slept < interval {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                let step = (interval - slept).min(Duration::from_millis(100));
                std::thread::sleep(step);
                slept += step;
            }
            if flag.load(Ordering::Relaxed) {
                return;
            }
            if let Err(e) = checkpoint_now(&state, &opts) {
                eprintln!("gf-serve: checkpoint failed (will retry): {e}");
            }
        }
    });
    Checkpointer {
        stop,
        handle: Some(handle),
    }
}
