//! Group satisfaction scoring over user bitmasks.
//!
//! The exact solvers evaluate the satisfaction of *many* candidate groups.
//! [`MaskScorer`] wraps the [`GroupRecommender`] behind a `u64` bitmask
//! interface (bit `u` = user `u` is a member) with an optional memo table,
//! so a group's score is computed at most once per solver run.

use gf_core::{Aggregation, FormationConfig, FxHashMap, Group, GroupRecommender, RatingMatrix};

/// Scores user subsets given as `u64` bitmasks (supports up to 64 users —
/// far beyond what exact solving can reach anyway).
pub struct MaskScorer<'a> {
    rec: GroupRecommender<'a>,
    k: usize,
    aggregation: Aggregation,
    memo: FxHashMap<u64, f64>,
    members_buf: Vec<u32>,
}

impl<'a> MaskScorer<'a> {
    /// Creates a scorer for the given configuration.
    pub fn new(matrix: &'a RatingMatrix, cfg: &FormationConfig) -> Self {
        MaskScorer {
            rec: GroupRecommender::new(matrix, cfg.semantics).with_policy(cfg.policy),
            k: cfg.k,
            aggregation: cfg.aggregation,
            memo: FxHashMap::default(),
            members_buf: Vec::new(),
        }
    }

    /// The members encoded by `mask`, ascending.
    pub fn members(mask: u64) -> Vec<u32> {
        let mut out = Vec::with_capacity(mask.count_ones() as usize);
        let mut rest = mask;
        while rest != 0 {
            let u = rest.trailing_zeros();
            out.push(u);
            rest &= rest - 1;
        }
        out
    }

    /// Satisfaction of the group encoded by `mask` (memoized).
    pub fn score(&mut self, mask: u64) -> f64 {
        if mask == 0 {
            return 0.0;
        }
        if let Some(&s) = self.memo.get(&mask) {
            return s;
        }
        self.members_buf.clear();
        let mut rest = mask;
        while rest != 0 {
            self.members_buf.push(rest.trailing_zeros());
            rest &= rest - 1;
        }
        let s = self
            .rec
            .satisfaction(&self.members_buf, self.k, self.aggregation);
        self.memo.insert(mask, s);
        s
    }

    /// Builds the output [`Group`] (members, top-`k`, satisfaction) for a
    /// final mask.
    pub fn group(&mut self, mask: u64) -> Group {
        let members = Self::members(mask);
        let top_k = self.rec.top_k(&members, self.k);
        let satisfaction = self.score(mask);
        Group {
            members: members.into(),
            top_k,
            satisfaction,
        }
    }

    /// Number of distinct masks scored so far.
    pub fn evaluations(&self) -> usize {
        self.memo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf_core::{RatingScale, Semantics};

    fn cfg() -> FormationConfig {
        FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 3)
    }

    fn example1() -> RatingMatrix {
        RatingMatrix::from_dense(
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
        .unwrap()
    }

    #[test]
    fn members_decoding() {
        assert_eq!(MaskScorer::members(0b1), vec![0]);
        assert_eq!(MaskScorer::members(0b101010), vec![1, 3, 5]);
        assert!(MaskScorer::members(0).is_empty());
    }

    #[test]
    fn scores_paper_groups() {
        let m = example1();
        let mut s = MaskScorer::new(&m, &cfg());
        // {u3, u4} on i2: LM score 5; {u2, u6} on i3: 5; {u1, u5}: 1.
        assert_eq!(s.score(0b001100), 5.0);
        assert_eq!(s.score(0b100010), 5.0);
        assert_eq!(s.score(0b010001), 1.0);
        // {u1, u3, u4} scores 4 (the optimum's first group).
        assert_eq!(s.score(0b001101), 4.0);
    }

    #[test]
    fn memoization_counts_distinct_masks() {
        let m = example1();
        let mut s = MaskScorer::new(&m, &cfg());
        s.score(0b11);
        s.score(0b11);
        s.score(0b111);
        assert_eq!(s.evaluations(), 2);
    }

    #[test]
    fn group_materialization() {
        let m = example1();
        let mut s = MaskScorer::new(&m, &cfg());
        let g = s.group(0b001100);
        assert_eq!(*g.members, [2, 3]);
        assert_eq!(g.top_k, vec![(1, 5.0)]);
        assert_eq!(g.satisfaction, 5.0);
    }
}
