//! Request coalescing for `/form`.
//!
//! Formation is the expensive operation the serving layer exists to
//! amortize: when many clients ask for a (re-)formation at once, running
//! one formation per request would melt the box for identical answers.
//! The (crate-private) `Batcher` coalesces concurrent requests for the
//! *same* grouping with an *equal* [`FormationConfig`] (every field, via
//! its derived `PartialEq`) arriving within a small window into one run:
//! the first request becomes the **leader**, sleeps out the window so
//! followers can join, executes once, and every member of the batch
//! returns the same installed snapshot. Requests with different
//! configurations never coalesce (they would install different
//! groupings).
//!
//! A leader removes its slot *before* running, so requests arriving while
//! a long formation is executing open the next batch instead of latching
//! onto a stale one.

use crate::state::Snapshot;
use gf_core::{FormationConfig, GfError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What a batched `/form` call produced.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The snapshot installed by the batch's single formation run.
    pub snapshot: Arc<Snapshot>,
    /// How many requests this batch answered (1 = no coalescing).
    pub batch_size: u64,
    /// Whether this request executed the run (vs joining one).
    pub leader: bool,
}

/// One in-flight batch; followers block on `done` until the leader
/// publishes into `result`.
struct Slot {
    result: Mutex<Option<Result<Arc<Snapshot>>>>,
    done: Condvar,
    members: AtomicU64,
}

/// Publishes an error to a slot if dropped during unwinding — armed while
/// the leader executes its run and disarmed (`mem::forget`) on normal
/// return, so a panicking formation never strands followers on the
/// condvar.
struct PublishOnUnwind<'a> {
    slot: &'a Slot,
}

impl Drop for PublishOnUnwind<'_> {
    fn drop(&mut self) {
        let mut published = match self.slot.result.lock() {
            Ok(p) => p,
            Err(poisoned) => poisoned.into_inner(),
        };
        *published = Some(Err(GfError::InvalidGrouping(
            "formation run panicked".to_string(),
        )));
        self.slot.done.notify_all();
    }
}

/// An open batch: the grouping and configuration it forms, and its slot.
type OpenBatch = (String, FormationConfig, Arc<Slot>);

/// Coalesces same-grouping, same-configuration submissions within a time
/// window.
pub(crate) struct Batcher {
    window: Duration,
    /// Open batches, scanned linearly: only a handful are ever open at
    /// once (one per distinct in-flight request).
    open: Mutex<Vec<OpenBatch>>,
}

impl Batcher {
    pub(crate) fn new(window: Duration) -> Batcher {
        Batcher {
            window,
            open: Mutex::new(Vec::new()),
        }
    }

    /// Submits a formation request. The first submitter for a grouping
    /// and configuration becomes the leader and executes `run` after
    /// waiting out the window; later submitters for the same grouping and
    /// an equal configuration block until the leader's result is
    /// published and share it.
    pub(crate) fn submit(
        &self,
        grouping: &str,
        cfg: FormationConfig,
        run: impl FnOnce() -> Result<Arc<Snapshot>>,
    ) -> Result<BatchOutcome> {
        let (slot, leader) = {
            let mut open = self.open.lock().expect("batch slots poisoned");
            match open.iter().find(|(g, c, _)| g == grouping && *c == cfg) {
                Some((_, _, slot)) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot {
                        result: Mutex::new(None),
                        done: Condvar::new(),
                        members: AtomicU64::new(0),
                    });
                    open.push((grouping.to_string(), cfg, Arc::clone(&slot)));
                    (slot, true)
                }
            }
        };
        slot.members.fetch_add(1, Ordering::Relaxed);

        if leader {
            if !self.window.is_zero() {
                std::thread::sleep(self.window);
            }
            // Close the batch before the (potentially long) run so new
            // arrivals start the next one.
            self.open
                .lock()
                .expect("batch slots poisoned")
                .retain(|(_, _, open)| !Arc::ptr_eq(open, &slot));
            // If `run` panics the guard publishes an error instead, so
            // followers get a response rather than waiting forever.
            let guard = PublishOnUnwind { slot: &slot };
            let result = run();
            std::mem::forget(guard);
            let mut published = slot.result.lock().expect("batch result poisoned");
            *published = Some(result.clone());
            slot.done.notify_all();
            drop(published);
            result.map(|snapshot| BatchOutcome {
                snapshot,
                batch_size: slot.members.load(Ordering::Relaxed),
                leader: true,
            })
        } else {
            let mut published = slot.result.lock().expect("batch result poisoned");
            while published.is_none() {
                published = slot.done.wait(published).expect("batch result poisoned");
            }
            let result = published.as_ref().expect("published above").clone();
            drop(published);
            result.map(|snapshot| BatchOutcome {
                snapshot,
                batch_size: slot.members.load(Ordering::Relaxed),
                leader: false,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf_core::{
        Aggregation, GrowthPolicy, MissingPolicy, RatingScale, RefreshMode, Semantics, WeightScheme,
    };

    fn cfg(agg: Aggregation) -> FormationConfig {
        FormationConfig::new(Semantics::LeastMisery, agg, 3, 5)
    }

    /// Submits `first`, then `second` once `first`'s batch is open, each
    /// answering with `snapshot`; returns whether `second` joined
    /// `first`'s batch. The window is far longer than the join takes.
    fn coalesces(
        first: (&str, FormationConfig),
        second: (&str, FormationConfig),
        snapshot: &Arc<Snapshot>,
    ) -> bool {
        let batcher = Batcher::new(Duration::from_millis(500));
        let run = || Ok(Arc::clone(snapshot));
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| batcher.submit(first.0, first.1, run).unwrap());
            while batcher.open.lock().unwrap().is_empty() {
                std::thread::yield_now();
            }
            let joined = !batcher.submit(second.0, second.1, run).unwrap().leader;
            let leader = leader.join().unwrap();
            assert!(leader.leader);
            assert_eq!(leader.batch_size, if joined { 2 } else { 1 });
            joined
        })
    }

    #[test]
    fn only_equal_requests_for_one_grouping_coalesce() {
        let state = crate::ServeState::new(
            gf_core::RatingMatrix::from_dense(&[&[3.0, 4.0]], RatingScale::one_to_five()).unwrap(),
            crate::ServeConfig::new(cfg(Aggregation::Min)),
        )
        .unwrap();
        let snapshot = &state.snapshot();
        let base = cfg(Aggregation::Min);
        let cons = |lambda| FormationConfig {
            semantics: Semantics::Consensus { lambda },
            ..base
        };
        // Each variant differs from `base` in one field that changes the
        // answer. Regression: `refresh` and `growth` once fell outside the
        // batch key, so those two coalesced with `base` and the second
        // request got the first one's configuration.
        let variants = [
            cfg(Aggregation::Max), // shares Min's "M" tag prefix
            cfg(Aggregation::Sum),
            cfg(Aggregation::WeightedSum(WeightScheme::Uniform)),
            cfg(Aggregation::WeightedSum(WeightScheme::InverseLog2)),
            FormationConfig {
                semantics: Semantics::AggregateVoting,
                ..base
            },
            FormationConfig {
                semantics: Semantics::LeaderWeighted,
                ..base
            },
            cons(0.0),
            FormationConfig { k: 4, ..base },
            FormationConfig { ell: 6, ..base },
            base.with_policy(MissingPolicy::Skip),
            base.with_threads(2),
            base.with_refresh(RefreshMode::Cold),
            base.with_growth(GrowthPolicy::unbounded()),
        ];
        // (first, second, whether they coalesce).
        let mut cases = vec![
            (("a", base), ("a", base), true),
            (("a", cons(0.5)), ("a", cons(0.5)), true),
            (("a", base), ("b", base), false),
            (("a", cons(0.5)), ("a", cons(0.7)), false),
        ];
        cases.extend(variants.iter().map(|&v| (("a", base), ("a", v), false)));
        std::thread::scope(|scope| {
            let runs: Vec<_> = cases
                .iter()
                .map(|&(x, y, want)| (x, y, want, scope.spawn(move || coalesces(x, y, snapshot))))
                .collect();
            for (x, y, want, run) in runs {
                assert_eq!(run.join().unwrap(), want, "{x:?} then {y:?}");
            }
        });
    }

    #[test]
    fn followers_are_released_when_the_leader_panics() {
        // Window far larger than the follower's join delay so a slow CI
        // machine cannot promote the follower to leader of a new batch.
        let batcher = Arc::new(Batcher::new(Duration::from_millis(500)));
        let key_cfg = cfg(Aggregation::Min);
        let leader = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    batcher.submit("default", key_cfg, || panic!("formation blew up"))
                }));
                assert!(result.is_err(), "leader should propagate the panic");
            })
        };
        // Give the leader time to claim the slot, then join as follower.
        std::thread::sleep(Duration::from_millis(50));
        let follower = batcher.submit("default", key_cfg, || unreachable!("follower never runs"));
        match follower {
            Err(GfError::InvalidGrouping(message)) => {
                assert!(message.contains("panicked"), "{message}")
            }
            other => panic!("follower should see the panic error, got {other:?}"),
        }
        leader.join().unwrap();
    }
}
