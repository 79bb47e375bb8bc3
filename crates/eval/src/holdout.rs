//! Offline holdout judging of group recommendation lists.
//!
//! Given a grouping (a user→group assignment plus the top-`k` item list
//! each group was served) and a held-out set of consumptions ("user `u`
//! consumed item `i`"), [`evaluate_holdout`] computes per-group
//! precision@k, recall@k and binary-relevance NDCG@k, macro-averaged over
//! the groups with any evidence.
//!
//! This is deliberately an **independent implementation** of the same
//! metric definitions that `gf_core::OnlineEval` applies to its sliding
//! feedback window — different data structures, its own DCG arithmetic,
//! no code shared beyond the standard library. The serve-side quality
//! loop is cross-checked against it end to end: replaying a server's
//! journaled `/v1/feedback` events through this judge must reproduce the
//! `quality` block the server reports (`gf-serve/tests/quality.rs`). Two
//! codebases agreeing on the same numbers is the regression guard; one
//! calling the other would prove nothing.

use std::collections::HashSet;

/// One held-out consumption: `user` consumed `item`, optionally scoped to
/// a single named grouping (an unscoped event counts for every grouping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoldoutEvent {
    /// The consuming user (dense index).
    pub user: u32,
    /// The consumed item (dense index).
    pub item: u32,
    /// Grouping name the event is scoped to, if any.
    pub scope: Option<String>,
}

/// Holdout quality of one group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupHoldout {
    /// Group index within the grouping's formation.
    pub group: usize,
    /// Distinct held-out items members of this group consumed.
    pub consumed: usize,
    /// Fraction of the served list (truncated to `k`) that was consumed.
    pub precision: f64,
    /// Fraction of the consumed set that the served list covered.
    pub recall: f64,
    /// Binary-relevance NDCG@k of the served list against the consumed
    /// set.
    pub ndcg: f64,
}

/// Macro-averaged holdout quality of a grouping.
#[derive(Debug, Clone, PartialEq)]
pub struct HoldoutReport {
    /// The `k` the lists were truncated to.
    pub k: usize,
    /// Holdout events attributed to some group of this grouping.
    pub events_attributed: usize,
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
    pub per_group: Vec<GroupHoldout>,
}

/// The position-`p` (0-based) DCG discount, `1 / log2(p + 2)`.
fn discount(position: usize) -> f64 {
    1.0 / ((position as f64) + 2.0).log2()
}

/// Judges the grouping named `scope` against a held-out event set:
/// `assignment[u]` maps each user to its group (the compact form of
/// [`gf_core::Grouping::assignment`]), `group_items[g]` is the item list
/// group `g` was served (best first), `k` the truncation depth. Events
/// scoped to a different grouping, from [`gf_core::UNASSIGNED`] users, or from
/// users outside `assignment` are ignored, as are events pointing at
/// groups beyond `group_items`.
pub fn evaluate_holdout(
    scope: &str,
    events: &[HoldoutEvent],
    assignment: &[u32],
    group_items: &[Vec<u32>],
    k: usize,
) -> HoldoutReport {
    let mut consumed: Vec<HashSet<u32>> = vec![HashSet::new(); group_items.len()];
    let mut events_attributed = 0usize;
    for ev in events {
        if let Some(s) = &ev.scope {
            if s != scope {
                continue;
            }
        }
        let group = match assignment.get(ev.user as usize) {
            Some(&g) if (g as usize) < group_items.len() => g as usize,
            _ => continue,
        };
        events_attributed += 1;
        consumed[group].insert(ev.item);
    }
    let mut per_group = Vec::new();
    for (group, held_out) in consumed.iter().enumerate() {
        if held_out.is_empty() {
            continue;
        }
        let served = &group_items[group];
        let depth = served.len().min(k);
        let mut hits = 0usize;
        let mut dcg = 0.0;
        for (rank, item) in served.iter().take(depth).enumerate() {
            if held_out.contains(item) {
                hits += 1;
                dcg += discount(rank);
            }
        }
        let ideal_len = depth.min(held_out.len());
        let ideal_dcg: f64 = (0..ideal_len).map(discount).sum();
        let ndcg = if ideal_dcg <= 0.0 {
            1.0
        } else {
            (dcg / ideal_dcg).clamp(0.0, 1.0)
        };
        per_group.push(GroupHoldout {
            group,
            consumed: held_out.len(),
            precision: if depth == 0 {
                0.0
            } else {
                hits as f64 / depth as f64
            },
            recall: hits as f64 / held_out.len() as f64,
            ndcg,
        });
    }
    let n = per_group.len();
    let avg = |pick: fn(&GroupHoldout) -> f64| {
        if n == 0 {
            0.0
        } else {
            per_group.iter().map(pick).sum::<f64>() / n as f64
        }
    };
    HoldoutReport {
        k,
        events_attributed,
        groups_evaluated: n,
        precision: avg(|g| g.precision),
        recall: avg(|g| g.recall),
        ndcg: avg(|g| g.ndcg),
        per_group,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf_core::UNASSIGNED;

    fn ev(user: u32, item: u32) -> HoldoutEvent {
        HoldoutEvent {
            user,
            item,
            scope: None,
        }
    }

    #[test]
    fn grades_hits_misses_and_rank() {
        let assignment = vec![0, 0, 1];
        let lists = vec![vec![10, 11], vec![12, 13]];
        let events = vec![ev(0, 10), ev(1, 11), ev(2, 99)];
        let r = evaluate_holdout("default", &events, &assignment, &lists, 2);
        assert_eq!(r.events_attributed, 3);
        assert_eq!(r.groups_evaluated, 2);
        assert_eq!(r.per_group[0].precision, 1.0);
        assert_eq!(r.per_group[0].ndcg, 1.0);
        assert_eq!(r.per_group[1].precision, 0.0);
        assert_eq!(r.precision, 0.5);
        // A hit at rank 1 scores below a hit at rank 0.
        let low = evaluate_holdout("default", &[ev(0, 11)], &assignment, &lists, 2);
        assert!(low.per_group[0].ndcg < 1.0 && low.per_group[0].ndcg > 0.0);
    }

    #[test]
    fn scoping_dedup_and_bad_users_match_the_online_contract() {
        let assignment = vec![0, UNASSIGNED];
        let lists = vec![vec![10, 11]];
        let events = vec![
            ev(0, 10),
            ev(0, 10), // duplicate consumption dedupes
            HoldoutEvent {
                user: 0,
                item: 11,
                scope: Some("other".into()),
            }, // scoped elsewhere: ignored
            ev(1, 10), // unassigned: ignored
            ev(9, 10), // out of range: ignored
        ];
        let r = evaluate_holdout("default", &events, &assignment, &lists, 2);
        assert_eq!(r.events_attributed, 2);
        assert_eq!(r.per_group[0].consumed, 1);
        assert_eq!(r.per_group[0].precision, 0.5);
        assert_eq!(r.per_group[0].recall, 1.0);
    }

    #[test]
    fn agrees_with_the_online_accumulator() {
        // The cross-check in miniature: identical inputs through both
        // implementations, identical numbers out.
        let assignment = vec![0, 1, 0, 1, UNASSIGNED];
        let lists = vec![vec![3, 1, 4], vec![1, 5, 9]];
        let pairs = [(0u32, 3u32), (1, 5), (2, 4), (2, 7), (3, 9), (3, 1), (0, 3)];
        let events: Vec<HoldoutEvent> = pairs.iter().map(|&(u, i)| ev(u, i)).collect();
        let mut online = gf_core::OnlineEval::new(64);
        for &(user, item) in &pairs {
            online.push(gf_core::FeedbackEvent {
                user,
                item,
                scope: None,
            });
        }
        for k in [1, 2, 3, 5] {
            let offline = evaluate_holdout("default", &events, &assignment, &lists, k);
            let live = online.evaluate("default", &assignment, &lists, k);
            assert_eq!(offline.groups_evaluated, live.groups_evaluated);
            assert!((offline.precision - live.precision).abs() < 1e-12);
            assert!((offline.recall - live.recall).abs() < 1e-12);
            assert!((offline.ndcg - live.ndcg).abs() < 1e-12);
        }
    }
}
