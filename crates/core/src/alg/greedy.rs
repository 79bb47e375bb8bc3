//! Steps 2–3 of the greedy algorithms (Algorithm 1 of the paper) and the
//! [`GreedyFormer`] front-end covering all six `GRD-*` variants.

use super::bucket::{self, Bucket};
use super::{FormationConfig, FormationResult, GroupFormer};
use crate::aggregate::Aggregation;
use crate::error::Result;
use crate::grouping::{Group, Grouping};
use crate::grouprec::GroupRecommender;
use crate::matrix::RatingMatrix;
use crate::prefs::PrefIndex;
use crate::semantics::Semantics;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// The paper's greedy group formation algorithm, parameterised by a
/// [`FormationConfig`] into `GRD-LM-MIN`, `GRD-LM-MAX`, `GRD-LM-SUM`,
/// `GRD-AV-MIN`, `GRD-AV-MAX` or `GRD-AV-SUM`.
///
/// Runs in `O(n k + ℓ log n)` after the `O(Σ d_u log d_u)` preference index
/// build, plus the cost of scoring the final merged group (Sections 4.3 and
/// 5.1 of the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyFormer {
    split_surplus: bool,
    split_aware: bool,
}

impl GreedyFormer {
    /// A paper-faithful greedy former.
    pub fn new() -> Self {
        GreedyFormer {
            split_surplus: false,
            split_aware: false,
        }
    }

    /// Enables *split-aware selection* under least misery, a one-line fix
    /// we found necessary for the paper's Theorems 2–3 to hold
    /// unconditionally.
    ///
    /// The paper's Step 2 pops a whole intermediate group per iteration.
    /// When several users share a hash key and the budget `ell` is
    /// generous, the optimum splits such users into multiple groups (each
    /// keeps the same LM score), and the greedy's absolute error grows with
    /// the duplicate multiplicity — e.g. three identical users with
    /// personal score `s` and `ell = 4` give `OPT - GRD = 2s > r_max`.
    /// Split-aware selection instead emits *one* user per pop and re-inserts
    /// the bucket remainder at its (unchanged) LM score, which restores the
    /// `<= r_max` (Min) / `<= k·r_max` (Sum) bounds for any input with a
    /// non-negative rating scale. No effect under AV semantics, where
    /// satisfaction is additive and splitting cannot gain.
    pub fn with_split_aware_selection(mut self, enabled: bool) -> Self {
        self.split_aware = enabled;
        self
    }

    /// Enables *surplus splitting*, a small extension beyond the paper:
    /// when Step 1 produces fewer intermediate groups than the budget
    /// `ell`, the spare budget is spent splitting users out of the
    /// highest-value groups whenever that strictly increases the objective
    /// (it never does under AV, where satisfaction is additive in members;
    /// under LM each split adds the singleton's personal satisfaction).
    pub fn with_surplus_splitting(mut self, enabled: bool) -> Self {
        self.split_surplus = enabled;
        self
    }
}

/// Max-heap entry wrapping a bucket with the ordering of
/// [`bucket::bucket_order`]. The satisfaction is cached at construction:
/// for Sum aggregation it costs O(k) to compute, and heap maintenance
/// performs O(B log B) comparisons — recomputing per comparison made large
/// top-k runs (k = 625 in Figure 5) an order of magnitude slower.
struct HeapEntry {
    sat: f64,
    bucket: Bucket,
    semantics: Semantics,
    aggregation: Aggregation,
}

impl HeapEntry {
    fn new(bucket: Bucket, semantics: Semantics, aggregation: Aggregation) -> Self {
        let sat = bucket.satisfaction(semantics, aggregation);
        HeapEntry {
            sat,
            bucket,
            semantics,
            aggregation,
        }
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Higher satisfaction pops first (cached fast path); full
        // bucket_order only breaks exact ties. bucket_order returns Less
        // for the bucket that should be picked first; BinaryHeap pops the
        // greatest, so reverse it.
        self.sat.total_cmp(&other.sat).then_with(|| {
            bucket::bucket_order(
                &self.bucket,
                &other.bucket,
                self.semantics,
                self.aggregation,
            )
            .reverse()
        })
    }
}

impl GroupFormer for GreedyFormer {
    fn name(&self, cfg: &FormationConfig) -> String {
        cfg.grd_name()
    }

    fn form(
        &self,
        matrix: &RatingMatrix,
        prefs: &PrefIndex,
        cfg: &FormationConfig,
    ) -> Result<FormationResult> {
        cfg.validate(matrix)?;
        // Step 1: intermediate groups (threaded when cfg.n_threads asks
        // for it; resolves to the sequential path at one worker).
        let buckets = bucket::build_buckets_threaded(
            matrix,
            prefs,
            cfg.semantics,
            cfg.aggregation,
            cfg.policy,
            cfg.k,
            cfg.n_threads,
        );
        let n_buckets = buckets.len();
        let mut heap: BinaryHeap<HeapEntry> = buckets
            .into_iter()
            .map(|bucket| HeapEntry::new(bucket, cfg.semantics, cfg.aggregation))
            .collect();

        // Step 2: greedily emit the ell - 1 best intermediate groups.
        let split_buckets = self.split_aware && cfg.semantics == Semantics::LeastMisery;
        let mut groups: Vec<Group> = Vec::with_capacity(cfg.ell.min(n_buckets));
        while groups.len() + 1 < cfg.ell {
            let Some(entry) = heap.pop() else { break };
            if split_buckets && entry.bucket.users.len() > 1 {
                // Emit one user; the remainder keeps the same LM score and
                // competes again (it may be split further).
                let (single, remainder) = split_bucket(matrix, prefs, cfg, entry.bucket);
                groups.push(bucket_to_group(&single, cfg));
                heap.push(HeapEntry::new(remainder, cfg.semantics, cfg.aggregation));
            } else {
                groups.push(bucket_to_group(&entry.bucket, cfg));
            }
        }

        // Step 3: merge everything left into the final group and score it
        // with the full recommendation engine (the rescoring
        // IncrementalFormer shares).
        let mut remaining: Vec<u32> = heap
            .into_iter()
            .flat_map(|e| e.bucket.users.into_iter())
            .collect();
        remaining.sort_unstable();
        if !remaining.is_empty() {
            let mut tail = Group {
                members: remaining.into(),
                top_k: Vec::new(),
                satisfaction: 0.0,
            };
            rescore_group(matrix, cfg, &mut tail);
            groups.push(tail);
        }

        if self.split_surplus && groups.len() < cfg.ell {
            split_surplus(matrix, cfg, &mut groups);
        }

        let grouping = Grouping::new(groups);
        debug_assert!(grouping.validate(matrix.n_users(), cfg.ell).is_ok());
        let objective = grouping.objective();
        Ok(FormationResult {
            grouping,
            objective,
            n_buckets,
        })
    }
}

/// Splits the lowest-id user out of a multi-user bucket, rebuilding the
/// remainder's per-position score vectors from the members' personal lists.
fn split_bucket(
    matrix: &RatingMatrix,
    prefs: &PrefIndex,
    cfg: &FormationConfig,
    mut b: Bucket,
) -> (Bucket, Bucket) {
    debug_assert!(b.users.len() > 1);
    let lowest_pos = b
        .users
        .iter()
        .enumerate()
        .min_by_key(|&(_, &u)| u)
        .map(|(pos, _)| pos)
        .expect("non-empty bucket");
    let user = b.users.swap_remove(lowest_pos);
    let (_, single_scores) = bucket::personal_top_k(matrix, prefs, cfg.policy, user, cfg.k);
    let single = Bucket {
        items: b.items.clone(),
        users: vec![user],
        pos_min: single_scores.clone(),
        pos_sum: single_scores,
    };
    // Rebuild the remainder's vectors exactly.
    let len = b.pos_min.len();
    b.pos_min = vec![f64::INFINITY; len];
    b.pos_sum = vec![0.0; len];
    for idx in 0..b.users.len() {
        let u = b.users[idx];
        let (_, scores) = bucket::personal_top_k(matrix, prefs, cfg.policy, u, cfg.k);
        b.accumulate_scores(&scores);
    }
    (single, b)
}

/// Converts a popped bucket into an output group. The bucket's shared item
/// sequence *is* the group's recommended top-`k` list, with per-item group
/// scores given by the bucket's score vector (see [`bucket`] docs). Shared
/// with [`super::incremental`], which emits spliced buckets the same way.
pub(crate) fn bucket_to_group(bucket: &Bucket, cfg: &FormationConfig) -> Group {
    let satisfaction = bucket.satisfaction(cfg.semantics, cfg.aggregation);
    let vector = bucket.score_vector(cfg.semantics).to_vec();
    let mut members = bucket.users.clone();
    members.sort_unstable();
    Group {
        members: members.into(),
        top_k: bucket.items.iter().copied().zip(vector).collect(),
        satisfaction,
    }
}

/// Rescores `group` from its member list with the full recommendation
/// engine under `cfg`: recomputes the top-`k` list and satisfaction. Scores
/// the greedy's final merged group, and the incremental former's tail
/// group under the policies without a maintained tail
/// ([`super::incremental`]).
pub(crate) fn rescore_group(matrix: &RatingMatrix, cfg: &FormationConfig, group: &mut Group) {
    let rec = GroupRecommender::new(matrix, cfg.semantics).with_policy(cfg.policy);
    let top_k = rec.top_k(&group.members, cfg.k);
    let scores: Vec<f64> = top_k.iter().map(|&(_, s)| s).collect();
    group.satisfaction = cfg.aggregation.apply(&scores);
    group.top_k = top_k;
}

/// Spends leftover group budget splitting singletons out of existing groups
/// while doing so strictly improves the objective.
fn split_surplus(matrix: &RatingMatrix, cfg: &FormationConfig, groups: &mut Vec<Group>) {
    let rec = GroupRecommender::new(matrix, cfg.semantics).with_policy(cfg.policy);
    let score = |members: &[u32]| -> f64 { rec.satisfaction(members, cfg.k, cfg.aggregation) };
    while groups.len() < cfg.ell {
        // Find the split with the largest strict gain.
        let mut best: Option<(usize, usize, f64)> = None; // (group, member pos, gain)
        for (gi, g) in groups.iter().enumerate() {
            if g.len() < 2 {
                continue;
            }
            for (pos, &u) in g.members.iter().enumerate() {
                let rest: Vec<u32> = g.members.iter().copied().filter(|&v| v != u).collect();
                let gain = score(&[u]) + score(&rest) - g.satisfaction;
                if gain > 1e-9 && best.is_none_or(|(_, _, bg)| gain > bg) {
                    best = Some((gi, pos, gain));
                }
            }
        }
        let Some((gi, pos, _)) = best else { break };
        let mut rest_members = groups[gi].members.to_vec();
        let u = rest_members.remove(pos);
        let rest_top = rec.top_k(&rest_members, cfg.k);
        groups[gi] = Group {
            satisfaction: score(&rest_members),
            top_k: rest_top,
            members: rest_members.into(),
        };
        let singleton_top = rec.top_k(&[u], cfg.k);
        groups.push(Group {
            satisfaction: score(&[u]),
            top_k: singleton_top,
            members: Arc::new([u]),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouprec::MissingPolicy;
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

    /// Table 2 of the paper.
    fn example2() -> (RatingMatrix, PrefIndex) {
        dense(&[
            &[3.0, 1.0, 4.0],
            &[1.0, 4.0, 3.0],
            &[2.0, 5.0, 1.0],
            &[2.0, 5.0, 1.0],
            &[1.0, 2.0, 3.0],
            &[3.0, 2.0, 1.0],
        ])
    }

    /// Table 5 of the paper (Appendix B).
    fn example5() -> (RatingMatrix, PrefIndex) {
        dense(&[
            &[1.0, 4.0, 3.0],
            &[2.0, 3.0, 5.0],
            &[2.0, 5.0, 1.0],
            &[2.0, 5.0, 1.0],
            &[2.0, 4.0, 3.0],
            &[1.0, 2.0, 5.0],
        ])
    }

    fn sorted_groups(r: &FormationResult) -> Vec<Vec<u32>> {
        let mut gs: Vec<Vec<u32>> = r
            .grouping
            .groups
            .iter()
            .map(|g| g.members.to_vec())
            .collect();
        gs.sort();
        gs
    }

    #[test]
    fn grd_lm_min_k1_example1() {
        // Paper Section 4.1: groups {u3,u4}, {u2,u6}, {u1,u5}; Obj = 11.
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 3);
        let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        assert_eq!(r.objective, 11.0);
        assert_eq!(sorted_groups(&r), vec![vec![0, 4], vec![1, 5], vec![2, 3]]);
        assert_eq!(r.n_buckets, 4);
        // Recommended items: {u3,u4} -> i2 at 5; {u2,u6} -> i3 at 5.
        let g34 = r
            .grouping
            .groups
            .iter()
            .find(|g| *g.members == [2, 3])
            .unwrap();
        assert_eq!(g34.top_k, vec![(1, 5.0)]);
    }

    #[test]
    fn grd_lm_min_k2_example1() {
        // Paper: {u1}, {u2}, {u3,u4,u5,u6}; Obj = 3 + 3 + 1 = 7.
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 2, 3);
        let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        assert_eq!(r.objective, 7.0);
        assert_eq!(sorted_groups(&r), vec![vec![0], vec![1], vec![2, 3, 4, 5]]);
        assert_eq!(r.n_buckets, 5);
    }

    #[test]
    fn grd_lm_sum_k2_example1() {
        // Paper Section 4.2: {u3,u4}, {u1,u5,u6}, {u2}; Obj = 17.
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Sum, 2, 3);
        let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        assert_eq!(r.objective, 17.0);
        assert_eq!(sorted_groups(&r), vec![vec![0, 4, 5], vec![1], vec![2, 3]]);
    }

    #[test]
    fn grd_lm_sum_k2_example5_suboptimal_trace() {
        // Appendix B: GRD-LM-SUM forms {u2}, {u3,u4}, {u1,u5,u6} with
        // Obj = (5+3) + (5+2) + (3+2) = 20 (the optimum is 21).
        let (m, p) = example5();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Sum, 2, 3);
        let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        assert_eq!(r.objective, 20.0);
        assert_eq!(sorted_groups(&r), vec![vec![0, 4, 5], vec![1], vec![2, 3]]);
    }

    #[test]
    fn grd_av_min_k2_example2() {
        // Paper Section 5: {u3,u4} (AV score 4 on bottom item i1) and
        // {u1,u2,u5,u6} (AV score 9 on bottom item i2); Obj = 13.
        let (m, p) = example2();
        let cfg = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Min, 2, 2);
        let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        assert_eq!(r.objective, 13.0);
        assert_eq!(sorted_groups(&r), vec![vec![0, 1, 4, 5], vec![2, 3]]);
        // The merged group is recommended (i3, i2).
        let last = r
            .grouping
            .groups
            .iter()
            .find(|g| g.members.len() == 4)
            .unwrap();
        assert_eq!(last.top_k, vec![(2, 11.0), (1, 9.0)]);
    }

    #[test]
    fn grd_av_sum_k2_example2() {
        // Paper Section 5: same groups, Obj = 14 + 20 = 34.
        let (m, p) = example2();
        let cfg = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 2, 2);
        let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        assert_eq!(r.objective, 34.0);
        assert_eq!(sorted_groups(&r), vec![vec![0, 1, 4, 5], vec![2, 3]]);
    }

    #[test]
    fn objective_matches_sum_of_satisfactions() {
        let (m, p) = example1();
        for sem in Semantics::all() {
            for agg in Aggregation::paper_set() {
                for k in 1..=3 {
                    for ell in 1..=6 {
                        let cfg = FormationConfig::new(sem, agg, k, ell);
                        let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
                        let total: f64 = r.grouping.groups.iter().map(|g| g.satisfaction).sum();
                        assert!((total - r.objective).abs() < 1e-9);
                        r.grouping.validate(m.n_users(), ell).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn ell_one_merges_everyone() {
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 1);
        let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        assert_eq!(r.grouping.len(), 1);
        assert_eq!(*r.grouping.groups[0].members, [0, 1, 2, 3, 4, 5]);
        // LM over everyone: every item bottoms out at 1.
        assert_eq!(r.objective, 1.0);
    }

    #[test]
    fn ell_larger_than_buckets_keeps_buckets() {
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 10);
        let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        // 4 buckets for k = 1; the paper-faithful algorithm never splits.
        assert_eq!(r.grouping.len(), 4);
        assert_eq!(r.objective, 5.0 + 5.0 + 4.0 + 3.0);
    }

    #[test]
    fn surplus_splitting_improves_lm() {
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 6);
        let plain = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        let split = GreedyFormer::new()
            .with_surplus_splitting(true)
            .form(&m, &p, &cfg)
            .unwrap();
        // Splitting {u2,u6} and {u3,u4} into singletons adds 5 + 5.
        assert_eq!(plain.objective, 17.0);
        assert_eq!(split.objective, 27.0);
        assert_eq!(split.grouping.len(), 6);
        split.grouping.validate(m.n_users(), 6).unwrap();
    }

    #[test]
    fn surplus_splitting_is_noop_under_av_sum() {
        // AV satisfaction is additive in members, so no split can gain.
        let (m, p) = example2();
        let cfg = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 2, 6);
        let plain = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        let split = GreedyFormer::new()
            .with_surplus_splitting(true)
            .form(&m, &p, &cfg)
            .unwrap();
        assert!((plain.objective - split.objective).abs() < 1e-9);
    }

    #[test]
    fn theorem2_bound_holds_on_example1() {
        // GRD = 11, OPT = 12 (paper): |11 - 12| <= r_max = 5.
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 3);
        let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        let bound = cfg.error_bound(&m).unwrap();
        assert!((12.0 - r.objective) <= bound);
    }

    #[test]
    fn works_on_sparse_input() {
        let m = RatingMatrix::from_triples(
            4,
            6,
            vec![
                (0, 0, 5.0),
                (0, 1, 3.0),
                (1, 0, 5.0),
                (1, 1, 3.0),
                (2, 2, 4.0),
                (3, 5, 2.0),
            ],
            RatingScale::one_to_five(),
        )
        .unwrap();
        let p = PrefIndex::build(&m);
        for sem in Semantics::all() {
            for agg in Aggregation::paper_set() {
                let cfg = FormationConfig::new(sem, agg, 2, 2);
                let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
                r.grouping.validate(4, 2).unwrap();
                // u0 and u1 are identical and should stay together.
                let assign = r.grouping.assignment(4);
                assert_eq!(assign[0], assign[1], "{sem} {agg}");
            }
        }
    }

    #[test]
    fn single_user_single_item() {
        let m = RatingMatrix::from_dense(&[&[4.0]], RatingScale::one_to_five()).unwrap();
        let p = PrefIndex::build(&m);
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 1);
        let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        assert_eq!(r.objective, 4.0);
    }

    #[test]
    fn k_exceeding_m_is_capped() {
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Sum, 10, 3);
        let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        r.grouping.validate(6, 3).unwrap();
        for g in &r.grouping.groups {
            assert!(g.top_k.len() <= 3);
        }
    }

    #[test]
    fn policy_variants_run() {
        let (m, p) = example1();
        for policy in [
            MissingPolicy::Min,
            MissingPolicy::UserMean,
            MissingPolicy::Skip,
        ] {
            let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 2, 3)
                .with_policy(policy);
            let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
            r.grouping.validate(6, 3).unwrap();
        }
    }

    #[test]
    fn theorem2_counterexample_and_split_aware_fix() {
        // Three identical users and a generous budget: the paper-faithful
        // greedy bundles them into one group (objective 4) while the
        // optimum forms three singletons (objective 12) — violating the
        // r_max = 5 bound of Theorem 2 as stated. Split-aware selection
        // recovers the optimum here.
        let (m, p) = dense(&[
            &[1.0, 1.0, 4.0, 1.0],
            &[1.0, 1.0, 4.0, 1.0],
            &[1.0, 1.0, 4.0, 1.0],
        ]);
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 4);
        let paper = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        assert_eq!(paper.objective, 4.0);
        let fixed = GreedyFormer::new()
            .with_split_aware_selection(true)
            .form(&m, &p, &cfg)
            .unwrap();
        assert_eq!(fixed.objective, 12.0);
        fixed.grouping.validate(3, 4).unwrap();
    }

    #[test]
    fn split_aware_reproduces_paper_objectives_on_worked_examples() {
        // On the paper's own examples (diverse keys, tight budgets) the
        // split-aware variant matches the published objective values.
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 3);
        let r = GreedyFormer::new()
            .with_split_aware_selection(true)
            .form(&m, &p, &cfg)
            .unwrap();
        assert_eq!(r.objective, 11.0);
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Sum, 2, 3);
        let r = GreedyFormer::new()
            .with_split_aware_selection(true)
            .form(&m, &p, &cfg)
            .unwrap();
        assert_eq!(r.objective, 17.0);
    }

    #[test]
    fn split_aware_is_identity_under_av() {
        let (m, p) = example2();
        for agg in Aggregation::paper_set() {
            let cfg = FormationConfig::new(Semantics::AggregateVoting, agg, 2, 4);
            let a = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
            let b = GreedyFormer::new()
                .with_split_aware_selection(true)
                .form(&m, &p, &cfg)
                .unwrap();
            assert_eq!(a.grouping, b.grouping, "{agg}");
        }
    }

    #[test]
    fn split_aware_output_is_valid_and_deterministic() {
        // Note: split-aware selection is *not* pointwise better than paper
        // mode (a split-off duplicate can later drag the merged group); its
        // value is the unconditional Theorem-2/3 error bound, verified
        // against exact optima in gf-exact's property suite.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        for trial in 0..60 {
            let n = rng.gen_range(2..9u32);
            let m = rng.gen_range(2..5u32);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..m).map(|_| rng.gen_range(1..=3) as f64).collect())
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let mat = RatingMatrix::from_dense(&refs, RatingScale::one_to_five()).unwrap();
            let prefs = PrefIndex::build(&mat);
            let agg = Aggregation::paper_set()[trial % 3];
            let cfg =
                FormationConfig::new(Semantics::LeastMisery, agg, 1 + trial % 2, 1 + trial % 5);
            let former = GreedyFormer::new().with_split_aware_selection(true);
            let a = former.form(&mat, &prefs, &cfg).unwrap();
            let b = former.form(&mat, &prefs, &cfg).unwrap();
            assert_eq!(a.grouping, b.grouping, "trial {trial}");
            a.grouping.validate(n, cfg.ell).unwrap();
            let recomputed = crate::metrics::recompute_objective(
                &mat,
                &a.grouping,
                cfg.semantics,
                agg,
                cfg.policy,
                cfg.k,
            );
            assert!((recomputed - a.objective).abs() < 1e-9, "trial {trial}");
        }
    }

    #[test]
    fn group_top_k_agrees_with_engine_satisfaction() {
        // Every emitted group's stored satisfaction must equal what the
        // recommendation engine computes for its members from scratch.
        let (m, p) = example1();
        for sem in Semantics::all() {
            for agg in Aggregation::paper_set() {
                for k in 1..=3usize {
                    let cfg = FormationConfig::new(sem, agg, k, 3);
                    let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
                    let rec = GroupRecommender::new(&m, sem);
                    for g in &r.grouping.groups {
                        let want = rec.satisfaction(&g.members, k, agg);
                        assert!(
                            (want - g.satisfaction).abs() < 1e-9,
                            "{sem} {agg} k={k}: {} vs {want} for {:?}",
                            g.satisfaction,
                            g.members
                        );
                    }
                }
            }
        }
    }
}
