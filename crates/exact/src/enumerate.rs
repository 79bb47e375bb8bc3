//! Brute-force enumeration of all set partitions — the oracle the other
//! exact solvers are tested against. Only viable for n ≲ 10.

use crate::scorer::MaskScorer;
use gf_core::{FormationConfig, FormationResult, Grouping, PrefIndex, RatingMatrix, Result};

/// Exhaustively enumerates every partition of the users into at most
/// `cfg.ell` non-empty groups and returns the best grouping.
///
/// Runtime is the restricted Bell number B(n, ℓ) — use only in tests.
pub fn brute_force(
    matrix: &RatingMatrix,
    _prefs: &PrefIndex,
    cfg: &FormationConfig,
) -> Result<FormationResult> {
    cfg.validate(matrix)?;
    let n = matrix.n_users() as usize;
    assert!(
        n <= 16,
        "brute force is a test oracle; n = {n} is too large"
    );
    let mut scorer = MaskScorer::new(matrix, cfg);

    let mut best_obj = f64::NEG_INFINITY;
    let mut best_blocks: Vec<u64> = Vec::new();
    let mut blocks: Vec<u64> = Vec::new();

    // Assign users in order; each goes to an existing block or (if budget
    // remains) opens a new one. First-touch ordering avoids enumerating
    // permutations of the same partition.
    fn recurse(
        user: usize,
        n: usize,
        ell: usize,
        blocks: &mut Vec<u64>,
        scorer: &mut MaskScorer<'_>,
        best_obj: &mut f64,
        best_blocks: &mut Vec<u64>,
    ) {
        if user == n {
            let obj: f64 = blocks.iter().map(|&b| scorer.score(b)).sum();
            if obj > *best_obj {
                *best_obj = obj;
                *best_blocks = blocks.clone();
            }
            return;
        }
        let bit = 1u64 << user;
        for slot in 0..blocks.len() {
            blocks[slot] |= bit;
            recurse(user + 1, n, ell, blocks, scorer, best_obj, best_blocks);
            blocks[slot] &= !bit;
        }
        if blocks.len() < ell {
            blocks.push(bit);
            recurse(user + 1, n, ell, blocks, scorer, best_obj, best_blocks);
            blocks.pop();
        }
    }

    recurse(
        0,
        n,
        cfg.ell,
        &mut blocks,
        &mut scorer,
        &mut best_obj,
        &mut best_blocks,
    );

    let groups = best_blocks.iter().map(|&b| scorer.group(b)).collect();
    let grouping = Grouping::new(groups);
    let objective = grouping.objective();
    Ok(FormationResult {
        grouping,
        objective,
        n_buckets: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf_core::{Aggregation, RatingScale, Semantics};

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
    fn example1_optimum_is_12() {
        // Paper: OPT for k = 1, ℓ = 3 is {u1,u3,u4}, {u2,u6}, {u5} = 12.
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 3);
        let r = brute_force(&m, &p, &cfg).unwrap();
        assert_eq!(r.objective, 12.0);
        let mut groups: Vec<Vec<u32>> = r
            .grouping
            .groups
            .iter()
            .map(|g| g.members.to_vec())
            .collect();
        groups.sort();
        assert_eq!(groups, vec![vec![0, 2, 3], vec![1, 5], vec![4]]);
    }

    #[test]
    fn example5_optimum_is_21() {
        // Appendix B: optimal 3 groups {u2,u6}, {u3,u4}, {u1,u5} = 21.
        let m = RatingMatrix::from_dense(
            &[
                &[1.0, 4.0, 3.0][..],
                &[2.0, 3.0, 5.0],
                &[2.0, 5.0, 1.0],
                &[2.0, 5.0, 1.0],
                &[2.0, 4.0, 3.0],
                &[1.0, 2.0, 5.0],
            ],
            RatingScale::one_to_five(),
        )
        .unwrap();
        let p = PrefIndex::build(&m);
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Sum, 2, 3);
        let r = brute_force(&m, &p, &cfg).unwrap();
        assert_eq!(r.objective, 21.0);
    }

    #[test]
    fn example2_av_true_optimum_is_16() {
        // The paper (Section 5 / Appendix A.2) exhibits the grouping
        // {u1,u3,u4}, {u2,u5,u6} with objective 14 and calls it optimal.
        // Exhaustive enumeration shows 14 is *not* optimal: the partition
        // {u1,u3,u4,u6}, {u2,u5} scores 16 (group A's AV scores are
        // i2 = 13, i1 = 10 -> bottom 10; group B's are i2 = 6, i3 = 6 ->
        // bottom 6). We verify both: the paper's grouping scores 14, and
        // the true optimum is 16. Recorded in EXPERIMENTS.md as a paper
        // discrepancy.
        let m = RatingMatrix::from_dense(
            &[
                &[3.0, 1.0, 4.0][..],
                &[1.0, 4.0, 3.0],
                &[2.0, 5.0, 1.0],
                &[2.0, 5.0, 1.0],
                &[1.0, 2.0, 3.0],
                &[3.0, 2.0, 1.0],
            ],
            RatingScale::one_to_five(),
        )
        .unwrap();
        let p = PrefIndex::build(&m);
        let cfg = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Min, 2, 2);
        let r = brute_force(&m, &p, &cfg).unwrap();
        assert_eq!(r.objective, 16.0);
        r.grouping.validate(6, 2).unwrap();
        // (Several partitions tie at 16, e.g. {u1,u3,u4,u6} | {u2,u5} and —
        // since u3 and u4 are identical — its u3/u4-swapped variants.)

        // The paper's exhibited grouping evaluates to exactly 14, as stated.
        use gf_core::GroupRecommender;
        let rec = GroupRecommender::new(&m, Semantics::AggregateVoting);
        let paper = rec.satisfaction(&[0, 2, 3], 2, Aggregation::Min)
            + rec.satisfaction(&[1, 4, 5], 2, Aggregation::Min);
        assert_eq!(paper, 14.0);
    }

    #[test]
    fn respects_group_budget() {
        let (m, p) = example1();
        for ell in 1..=4 {
            let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, ell);
            let r = brute_force(&m, &p, &cfg).unwrap();
            r.grouping.validate(6, ell).unwrap();
        }
    }
}
