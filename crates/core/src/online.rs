//! Online quality: a sliding window of observed consumptions and the
//! per-group precision / recall / NDCG it induces.
//!
//! The offline harness (`gf-eval`) judges a formation against a held-out
//! split; a *serving* instance has no holdout, only feedback — "user `u`
//! consumed item `i`" events streaming in while the formation itself
//! shifts under rating churn. [`OnlineEval`] is the serving-side
//! accumulator:
//!
//! * it keeps the newest `capacity` [`FeedbackEvent`]s (plus a cumulative
//!   counter of everything ever observed); a snapshot-swapping server
//!   shares the window by `Arc` exactly like its matrix and
//!   [`OnlineEval::push`]es new events into its successor's own clone;
//! * [`OnlineEval::evaluate`] grades one grouping on demand: events are
//!   attributed to the consuming user's *current* group, each group's
//!   consumed set is compared against the top-`k` list it was actually
//!   served, and per-group precision@k / recall@k / binary-relevance
//!   NDCG@k are macro-averaged over the groups with any evidence.
//!
//! An event may carry a *scope* (a grouping name): scoped events count
//! only toward that grouping's metrics, unscoped events toward every
//! grouping's.

use crate::ndcg;

/// One observed consumption: `user` consumed `item`. `scope` limits the
/// event to a single named grouping's metrics; `None` means the event
/// counts for every grouping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackEvent {
    /// The consuming user (dense index).
    pub user: u32,
    /// The consumed item (dense index).
    pub item: u32,
    /// Grouping name the event is scoped to, if any.
    pub scope: Option<String>,
}

/// Quality of one group under the current window.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupQuality {
    /// Group index within the grouping's formation.
    pub group: usize,
    /// Distinct items members of this group consumed (window, in scope).
    pub consumed: usize,
    /// Fraction of the served list (truncated to `k`) that was consumed.
    pub precision: f64,
    /// Fraction of the consumed set that the served list covered.
    pub recall: f64,
    /// Binary-relevance NDCG@k of the served list against the consumed
    /// set (ideal: all hits ranked first).
    pub ndcg: f64,
}

/// Macro-averaged quality of a grouping under the current window.
#[derive(Debug, Clone, PartialEq)]
pub struct QualitySummary {
    /// The `k` the lists were truncated to.
    pub k: usize,
    /// Window events attributed to some group of this grouping.
    pub window_events: usize,
    /// Groups with at least one consumed item (the macro-average base).
    pub groups_evaluated: usize,
    /// Macro-averaged precision@k (0 when no group has evidence).
    pub precision: f64,
    /// Macro-averaged recall@k.
    pub recall: f64,
    /// Macro-averaged NDCG@k.
    pub ndcg: f64,
    /// Per-group detail, ascending group index, evidence-bearing groups
    /// only.
    pub per_group: Vec<GroupQuality>,
}

/// A sliding window of the newest `capacity` consumption events, plus a
/// cumulative count of everything ever observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineEval {
    capacity: usize,
    /// Oldest first.
    events: Vec<FeedbackEvent>,
    observed_total: u64,
}

impl OnlineEval {
    /// An empty window holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        OnlineEval {
            capacity,
            events: Vec::new(),
            observed_total: 0,
        }
    }

    /// Rebuilds a window from persisted parts (restore path). Only the
    /// newest `capacity` of `events` are kept; `observed_total` is
    /// carried verbatim.
    pub fn from_parts(
        capacity: usize,
        mut events: Vec<FeedbackEvent>,
        observed_total: u64,
    ) -> Self {
        if events.len() > capacity {
            events.drain(..events.len() - capacity);
        }
        OnlineEval {
            capacity,
            events,
            observed_total,
        }
    }

    /// The window size limit.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently in the window, oldest first.
    pub fn events(&self) -> &[FeedbackEvent] {
        &self.events
    }

    /// Number of events currently in the window.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Cumulative events ever observed (survives window eviction — and,
    /// persisted, restarts).
    pub fn observed_total(&self) -> u64 {
        self.observed_total
    }

    /// Appends `event`, evicting the oldest event if the window is full,
    /// and counts it. A zero-capacity window only counts.
    pub fn push(&mut self, event: FeedbackEvent) {
        self.observed_total += 1;
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.remove(0);
        }
        self.events.push(event);
    }

    /// Grades the grouping named `scope`: `assignment[u]` maps each user
    /// to its group (the compact form of [`crate::Grouping::assignment`]),
    /// `group_items[g]` is the item list group `g` is being served (best
    /// first), `k` the truncation depth. Events scoped to a different
    /// grouping, from [`crate::UNASSIGNED`] users, or from users outside
    /// `assignment` are ignored.
    pub fn evaluate(
        &self,
        scope: &str,
        assignment: &[u32],
        group_items: &[Vec<u32>],
        k: usize,
    ) -> QualitySummary {
        let mut consumed: Vec<Vec<u32>> = vec![Vec::new(); group_items.len()];
        let mut window_events = 0usize;
        for ev in &self.events {
            if ev.scope.as_deref().is_some_and(|s| s != scope) {
                continue;
            }
            let Some(&gi) = assignment.get(ev.user as usize) else {
                continue;
            };
            let gi = gi as usize;
            if gi >= consumed.len() {
                continue;
            }
            window_events += 1;
            consumed[gi].push(ev.item);
        }
        let mut per_group = Vec::new();
        let (mut p_sum, mut r_sum, mut n_sum) = (0.0, 0.0, 0.0);
        for (gi, cons) in consumed.iter_mut().enumerate() {
            cons.sort_unstable();
            cons.dedup();
            if cons.is_empty() {
                continue;
            }
            let items = &group_items[gi];
            let depth = items.len().min(k);
            let rels: Vec<f64> = items[..depth]
                .iter()
                .map(|i| {
                    if cons.binary_search(i).is_ok() {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            let hits: f64 = rels.iter().sum();
            let precision = if depth == 0 { 0.0 } else { hits / depth as f64 };
            let recall = hits / cons.len() as f64;
            let ideal = vec![1.0; depth.min(cons.len())];
            let ndcg = ndcg::ndcg(&rels, &ideal);
            p_sum += precision;
            r_sum += recall;
            n_sum += ndcg;
            per_group.push(GroupQuality {
                group: gi,
                consumed: cons.len(),
                precision,
                recall,
                ndcg,
            });
        }
        let n = per_group.len();
        let avg = |s: f64| if n == 0 { 0.0 } else { s / n as f64 };
        QualitySummary {
            k,
            window_events,
            groups_evaluated: n,
            precision: avg(p_sum),
            recall: avg(r_sum),
            ndcg: avg(n_sum),
            per_group,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UNASSIGNED;

    fn ev(user: u32, item: u32) -> FeedbackEvent {
        FeedbackEvent {
            user,
            item,
            scope: None,
        }
    }

    fn scoped(user: u32, item: u32, scope: &str) -> FeedbackEvent {
        FeedbackEvent {
            user,
            item,
            scope: Some(scope.to_string()),
        }
    }

    #[test]
    fn window_evicts_oldest_and_counts_everything() {
        let mut w = OnlineEval::new(2);
        for i in 0..4 {
            w.push(ev(0, i));
        }
        assert_eq!(w.len(), 2);
        assert_eq!(w.observed_total(), 4);
        assert_eq!(w.events()[0].item, 2);
        assert_eq!(w.events()[1].item, 3);
    }

    #[test]
    fn zero_capacity_window_still_counts() {
        let mut w = OnlineEval::new(0);
        w.push(ev(0, 0));
        w.push(ev(0, 1));
        assert!(w.is_empty());
        assert_eq!(w.observed_total(), 2);
    }

    #[test]
    fn from_parts_truncates_to_the_newest() {
        let w = OnlineEval::from_parts(2, vec![ev(0, 0), ev(0, 1), ev(0, 2)], 9);
        assert_eq!(w.len(), 2);
        assert_eq!(w.events()[0].item, 1);
        assert_eq!(w.observed_total(), 9);
    }

    #[test]
    fn evaluate_grades_hits_and_misses() {
        // Group 0 = users {0,1} served [10, 11]; group 1 = user {2}
        // served [12, 13].
        let assignment = vec![0, 0, 1];
        let lists = vec![vec![10, 11], vec![12, 13]];
        let w = OnlineEval::from_parts(
            8,
            vec![ev(0, 10), ev(1, 11), ev(2, 99)], // group 0: 2 hits; group 1: miss
            3,
        );
        let q = w.evaluate("default", &assignment, &lists, 2);
        assert_eq!(q.window_events, 3);
        assert_eq!(q.groups_evaluated, 2);
        let g0 = &q.per_group[0];
        assert_eq!((g0.group, g0.consumed), (0, 2));
        assert_eq!(g0.precision, 1.0);
        assert_eq!(g0.recall, 1.0);
        assert_eq!(g0.ndcg, 1.0);
        let g1 = &q.per_group[1];
        assert_eq!(g1.precision, 0.0);
        assert_eq!(g1.ndcg, 0.0);
        assert_eq!(q.precision, 0.5);
        assert_eq!(q.ndcg, 0.5);
    }

    #[test]
    fn scoped_events_only_count_for_their_grouping() {
        let assignment = vec![0];
        let lists = vec![vec![10]];
        let w = OnlineEval::from_parts(8, vec![scoped(0, 10, "other"), scoped(0, 10, "mine")], 2);
        let mine = w.evaluate("mine", &assignment, &lists, 1);
        assert_eq!(mine.window_events, 1);
        assert_eq!(mine.precision, 1.0);
        let third = w.evaluate("third", &assignment, &lists, 1);
        assert_eq!(third.window_events, 0);
        assert_eq!(third.groups_evaluated, 0);
    }

    #[test]
    fn duplicate_consumptions_dedupe() {
        let assignment = vec![0];
        let lists = vec![vec![10, 11]];
        let w = OnlineEval::from_parts(8, vec![ev(0, 10), ev(0, 10), ev(0, 10)], 3);
        let q = w.evaluate("default", &assignment, &lists, 2);
        assert_eq!(q.per_group[0].consumed, 1);
        assert_eq!(q.per_group[0].recall, 1.0);
        assert_eq!(q.per_group[0].precision, 0.5);
    }

    #[test]
    fn ndcg_rewards_rank() {
        // One consumed item: at rank 0 NDCG = 1; at rank 1 NDCG =
        // (1/log2(3)) / 1 < 1.
        let assignment = vec![0];
        let w = OnlineEval::from_parts(8, vec![ev(0, 11)], 1);
        let top = w.evaluate("default", &assignment, &[vec![11, 10]], 2);
        let low = w.evaluate("default", &assignment, &[vec![10, 11]], 2);
        assert_eq!(top.ndcg, 1.0);
        assert!(low.ndcg < 1.0 && low.ndcg > 0.0);
    }

    #[test]
    fn unassigned_and_out_of_range_users_are_ignored() {
        let assignment = vec![0, UNASSIGNED];
        let lists = vec![vec![10]];
        let w = OnlineEval::from_parts(8, vec![ev(1, 10), ev(9, 10)], 2);
        let q = w.evaluate("default", &assignment, &lists, 1);
        assert_eq!(q.window_events, 0);
        assert_eq!(q.groups_evaluated, 0);
    }
}
