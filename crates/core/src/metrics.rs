//! Quality metrics from Section 7 ("Experimental Analysis Setup").
//!
//! * the **objective function value** — the total satisfaction of a
//!   grouping under the configured semantics and aggregation (stored on
//!   the grouping itself, [`Grouping::objective`]);
//! * the **average group satisfaction** over the recommended top-`k`
//!   lists, `(Σ_x Σ_j sc(g_x, i^j)) / ℓ`;
//! * recomputation helpers that re-derive both from scratch through the
//!   recommendation engine (used to cross-check algorithm outputs).

use crate::aggregate::Aggregation;
use crate::grouping::Grouping;
use crate::grouprec::{GroupRecommender, MissingPolicy};
use crate::matrix::RatingMatrix;
use crate::semantics::Semantics;

/// Recomputes the objective from scratch: re-derives every group's top-`k`
/// list and satisfaction through the [`GroupRecommender`]. Algorithms must
/// agree with this within floating-point tolerance.
pub fn recompute_objective(
    matrix: &RatingMatrix,
    grouping: &Grouping,
    semantics: Semantics,
    aggregation: Aggregation,
    policy: MissingPolicy,
    k: usize,
) -> f64 {
    let rec = GroupRecommender::new(matrix, semantics).with_policy(policy);
    grouping
        .groups
        .iter()
        .map(|g| rec.satisfaction(&g.members, k, aggregation))
        .sum()
}

/// The paper's *average group satisfaction over the top-k itemset*
/// (Section 7.1.2): `(Σ_x Σ_j sc(g_x, i^j)) / ℓ`, where `sc(g_x, i^j)` is
/// the **average** (per-member) group score of the `j`-th recommended item.
///
/// Under LM the group score is already member-count free; under AV the
/// summed score is divided by the group size — which is why the paper's
/// Figure 3 values are bounded by `k · r_max` (= 25 for k = 5 on a 1–5
/// scale) regardless of group sizes.
pub fn avg_group_satisfaction(
    matrix: &RatingMatrix,
    grouping: &Grouping,
    semantics: Semantics,
    policy: MissingPolicy,
    k: usize,
) -> f64 {
    if grouping.is_empty() {
        return 0.0;
    }
    let rec = GroupRecommender::new(matrix, semantics).with_policy(policy);
    let total: f64 = grouping
        .groups
        .iter()
        .map(|g| {
            let norm = match semantics {
                Semantics::LeastMisery => 1.0,
                Semantics::AggregateVoting => g.len().max(1) as f64,
                // Already per-member normalized (mean-based scores).
                Semantics::Consensus { .. } | Semantics::LeaderWeighted => 1.0,
            };
            rec.top_k(&g.members, k)
                .iter()
                .map(|&(_, s)| s)
                .sum::<f64>()
                / norm
        })
        .sum();
    total / grouping.len() as f64
}

/// Per-user satisfaction of each member with their group's recommended
/// list, as the fraction of the user's ideal top-`k` value achieved
/// (an NDCG-style measure in `[0, 1]`; see [`mod@crate::ndcg`]).
///
/// Returns `(user, satisfaction)` pairs for every assigned user.
pub fn per_user_satisfaction(
    matrix: &RatingMatrix,
    prefs: &crate::prefs::PrefIndex,
    grouping: &Grouping,
    k: usize,
) -> Vec<(u32, f64)> {
    let mut out = Vec::with_capacity(matrix.n_users() as usize);
    for g in &grouping.groups {
        let rec_items: Vec<u32> = g.items().collect();
        for &u in g.members.iter() {
            out.push((
                u,
                crate::ndcg::user_satisfaction(matrix, prefs, u, &rec_items, k),
            ));
        }
    }
    out.sort_unstable_by_key(|&(u, _)| u);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::{FormationConfig, GreedyFormer, GroupFormer};
    use crate::prefs::PrefIndex;
    use crate::scale::RatingScale;

    fn example1() -> (RatingMatrix, PrefIndex) {
        let m = RatingMatrix::from_dense(
            &[
                &[1.0, 4.0, 3.0][..],
                &[2.0, 3.0, 5.0],
                &[2.0, 5.0, 1.0],
                &[2.0, 5.0, 1.0],
                &[3.0, 1.0, 1.0],
                &[1.0, 2.0, 5.0],
            ],
            RatingScale::one_to_five(),
        )
        .unwrap();
        let p = PrefIndex::build(&m);
        (m, p)
    }

    #[test]
    fn recompute_matches_algorithm_output() {
        let (m, p) = example1();
        for sem in Semantics::all() {
            for agg in Aggregation::paper_set() {
                let cfg = FormationConfig::new(sem, agg, 2, 3);
                let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
                let re = recompute_objective(&m, &r.grouping, sem, agg, cfg.policy, 2);
                assert!(
                    (re - r.objective).abs() < 1e-9,
                    "{sem} {agg}: {re} vs {}",
                    r.objective
                );
            }
        }
    }

    #[test]
    fn avg_group_satisfaction_bounds() {
        // With ratings in 1..5 and k = 2, a group's summed top-2 score under
        // LM lies in [2, 10]; the average over groups must too.
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 2, 3);
        let r = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        let avg = avg_group_satisfaction(
            &m,
            &r.grouping,
            Semantics::LeastMisery,
            MissingPolicy::Min,
            2,
        );
        assert!((2.0..=10.0).contains(&avg), "avg = {avg}");
    }

    #[test]
    fn avg_group_satisfaction_singletons_is_personal_sum() {
        let (m, _) = example1();
        // One singleton group per user: group scores = personal scores.
        let groups = (0..6u32)
            .map(|u| crate::grouping::Group {
                members: std::sync::Arc::new([u]),
                top_k: vec![],
                satisfaction: 0.0,
            })
            .collect();
        let grouping = Grouping::new(groups);
        let avg =
            avg_group_satisfaction(&m, &grouping, Semantics::LeastMisery, MissingPolicy::Min, 1);
        // Personal best scores: 4, 5, 5, 5, 3, 5 -> mean = 27/6.
        assert!((avg - 27.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn per_user_satisfaction_is_one_for_perfect_groups() {
        let (m, p) = example1();
        // Singletons: everyone gets their own ideal list.
        let groups = (0..6u32)
            .map(|u| {
                let rec = GroupRecommender::new(&m, Semantics::LeastMisery);
                crate::grouping::Group {
                    members: std::sync::Arc::new([u]),
                    top_k: rec.top_k(&[u], 2),
                    satisfaction: 0.0,
                }
            })
            .collect();
        let grouping = Grouping::new(groups);
        for (u, s) in per_user_satisfaction(&m, &p, &grouping, 2) {
            assert!((s - 1.0).abs() < 1e-9, "user {u}: {s}");
        }
    }

    #[test]
    fn empty_grouping_metrics() {
        let (m, _) = example1();
        let g = Grouping::default();
        assert_eq!(g.objective(), 0.0);
        assert_eq!(
            avg_group_satisfaction(&m, &g, Semantics::LeastMisery, MissingPolicy::Min, 2),
            0.0
        );
    }
}
