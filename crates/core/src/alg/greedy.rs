//! The [`GreedyFormer`] front-end covering all six `GRD-*` variants
//! (Algorithm 1 of the paper), and its split-aware and surplus-splitting
//! extensions.

use super::{FormationConfig, FormationResult, GroupFormer, IncrementalFormer};
use crate::error::Result;
use crate::grouping::Group;
use crate::grouprec::GroupRecommender;
use crate::matrix::RatingMatrix;
use crate::prefs::PrefIndex;
use crate::semantics::Semantics;
use std::sync::Arc;
// The tests' reference formation builds and ranks buckets itself.
#[cfg(test)]
use {
    super::bucket::{self, Bucket},
    crate::aggregate::Aggregation,
    crate::grouping::Grouping,
    std::cmp::Ordering,
};

/// The paper's greedy group formation algorithm, parameterised by a
/// [`FormationConfig`] into `GRD-LM-MIN`, `GRD-LM-MAX`, `GRD-LM-SUM`,
/// `GRD-AV-MIN`, `GRD-AV-MAX` or `GRD-AV-SUM`.
///
/// A formation is the first pass of an [`IncrementalFormer`], whose
/// grouping it returns. After the `O(Σ d_u log d_u)` preference index
/// build, Steps 1–2 run in `O(n k + B k + ℓ log ℓ)` expected time for `B`
/// intermediate groups (Sections 4.3 and 5.1 of the paper): Step 1
/// hashes each user's top-`k` key and links the members of each bucket
/// in one `O(n)` pass, and Step 2 heapifies the `B` buckets in `O(B)`
/// comparisons and walks the heap for the `ℓ - 1` best. Split-aware
/// selection adds `O(|bucket| k + log B)` per split. The paper's bound leaves out
/// Step 3, which scores the merged last group from its members' ratings:
/// `O(nnz_tail + m)` under
/// [`MissingPolicy::Min`](crate::MissingPolicy::Min), from dense per-item
/// aggregates, and the full recommendation engine's
/// `O(nnz_tail + C log C)` over the `C` items the tail rated under the
/// other policies.
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
        let former = IncrementalFormer::new(matrix, prefs, *cfg)?;
        let mut result = if self.split_aware && cfg.semantics == Semantics::LeastMisery {
            former.into_split_aware(matrix, prefs)
        } else {
            former.into_result()
        };
        if self.split_surplus && result.grouping.len() < cfg.ell {
            split_surplus(matrix, cfg, &mut result.grouping.groups);
            result.objective = result.grouping.objective();
        }
        debug_assert!(result.grouping.validate(matrix.n_users(), cfg.ell).is_ok());
        Ok(result)
    }
}

/// The output group of `bucket`, left in place: the conversion the tests'
/// reference formation uses.
#[cfg(test)]
fn bucket_to_group(bucket: &Bucket, cfg: &FormationConfig) -> Group {
    bucket.clone().into_group(cfg)
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

    /// The Step 2–3 loop before the selection was seeded with the
    /// `ell - 1` best buckets: a max-heap over every bucket, the tail
    /// flattened from the heap's leftovers, sorted, and scored by the
    /// engine. The oracle the seeded queue and the dense tail are checked
    /// against.
    fn full_heap_formation(
        matrix: &RatingMatrix,
        prefs: &PrefIndex,
        cfg: &FormationConfig,
        split_aware: bool,
    ) -> FormationResult {
        use std::collections::BinaryHeap;
        struct Entry(f64, Bucket, Semantics, Aggregation);
        impl PartialEq for Entry {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == Ordering::Equal
            }
        }
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                self.0
                    .total_cmp(&other.0)
                    .then_with(|| bucket::bucket_order(&self.1, &other.1, self.2, self.3).reverse())
            }
        }
        let (sem, agg) = (cfg.semantics, cfg.aggregation);
        let entry = |b: Bucket| Entry(b.satisfaction(sem, agg), b, sem, agg);
        let buckets = bucket::build_buckets(matrix, prefs, sem, agg, cfg.policy, cfg.k);
        let n_buckets = buckets.len();
        let mut heap: BinaryHeap<Entry> = buckets.into_iter().map(entry).collect();
        let mut groups = Vec::new();
        while groups.len() + 1 < cfg.ell {
            let Some(Entry(_, mut b, _, _)) = heap.pop() else {
                break;
            };
            if split_aware && sem == Semantics::LeastMisery && b.users.len() > 1 {
                let lowest = (0..b.users.len()).min_by_key(|&p| b.users[p]).unwrap();
                let user = b.users.swap_remove(lowest);
                let (_, scores) = bucket::personal_top_k(matrix, prefs, cfg.policy, user, cfg.k);
                groups.push(bucket_to_group(
                    &Bucket::of_user(user, &b.items, &scores),
                    cfg,
                ));
                b.pos_min = vec![f64::INFINITY; b.pos_min.len()];
                b.pos_sum = vec![0.0; b.pos_sum.len()];
                for &u in &b.users.clone() {
                    let (_, scores) = bucket::personal_top_k(matrix, prefs, cfg.policy, u, cfg.k);
                    b.accumulate_scores(&scores);
                }
                heap.push(entry(b));
            } else {
                groups.push(bucket_to_group(&b, cfg));
            }
        }
        let mut remaining: Vec<u32> = heap.into_iter().flat_map(|e| e.1.users).collect();
        remaining.sort_unstable();
        if !remaining.is_empty() {
            let rec = GroupRecommender::new(matrix, sem).with_policy(cfg.policy);
            let top_k = rec.top_k(&remaining, cfg.k);
            let scores: Vec<f64> = top_k.iter().map(|&(_, s)| s).collect();
            groups.push(Group {
                satisfaction: agg.apply(&scores),
                top_k,
                members: remaining.into(),
            });
        }
        let grouping = Grouping::new(groups);
        let objective = grouping.objective();
        FormationResult {
            grouping,
            objective,
            n_buckets,
        }
    }

    #[test]
    fn seeded_selection_equals_the_full_heap() {
        // Duplicate-heavy rows: many users share a key, so split-aware
        // selection re-inserts remainders that outrank fresh buckets.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        let mut split_cases = 0;
        for trial in 0..40 {
            let n_rows = rng.gen_range(2..6);
            let rows: Vec<Vec<f64>> = (0..n_rows)
                .map(|_| (0..4).map(|_| rng.gen_range(1..=5) as f64).collect())
                .collect();
            let n = rng.gen_range(3..25);
            let picked: Vec<&[f64]> = (0..n)
                .map(|_| rows[rng.gen_range(0..rows.len())].as_slice())
                .collect();
            let (m, p) = dense(&picked);
            for agg in Aggregation::paper_set() {
                let k = 1 + trial % 3;
                let b = bucket::build_buckets(
                    &m,
                    &p,
                    Semantics::LeastMisery,
                    agg,
                    MissingPolicy::Min,
                    k,
                )
                .len();
                for ell in 1..=b + 2 {
                    let cfg = FormationConfig::new(Semantics::LeastMisery, agg, k, ell);
                    let mut outcomes = Vec::new();
                    for split_aware in [false, true] {
                        let former = GreedyFormer::new().with_split_aware_selection(split_aware);
                        let got = former.form(&m, &p, &cfg).unwrap();
                        let want = full_heap_formation(&m, &p, &cfg, split_aware);
                        assert_eq!(
                            got, want,
                            "trial {trial} {agg} k={k} ell={ell} split={split_aware}"
                        );
                        outcomes.push(got);
                    }
                    split_cases += usize::from(outcomes[0] != outcomes[1]);
                }
            }
        }
        assert!(
            split_cases > 50,
            "only {split_cases} cases where splitting changed the output"
        );
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
