//! Per-user preference lists.
//!
//! Section 4 of the paper assumes each user has a preference list `L_u` of
//! items sorted in non-increasing order of rating — e.g. for user `u2` of
//! Example 1, `L_u2 = <i3,5; i2,3; i1,2>`. [`PrefIndex`] materializes those
//! lists once (O(Σ d_u log d_u)) so the greedy algorithms can read any
//! user's top-`k` prefix in O(k).
//!
//! Ties are broken by ascending item id, making every preference list — and
//! therefore every algorithm in this crate — deterministic.

use crate::error::{GfError, Result};
use crate::matrix::RatingMatrix;

/// All users' preference lists, stored flat in CSR layout.
#[derive(Debug, Clone)]
pub struct PrefIndex {
    offsets: Vec<usize>,
    /// Item ids sorted by (score desc, item asc) within each user row.
    items: Vec<u32>,
    /// Scores aligned with `items` (non-increasing within a row).
    scores: Vec<f64>,
}

impl PrefIndex {
    /// Sorts every user's ratings into a preference list.
    pub fn build(matrix: &RatingMatrix) -> Self {
        let n = matrix.n_users() as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut items = Vec::with_capacity(matrix.nnz());
        let mut scores = Vec::with_capacity(matrix.nnz());
        let mut row: Vec<(u32, f64)> = Vec::new();
        for u in 0..matrix.n_users() {
            row.clear();
            row.extend(matrix.user_ratings(u));
            // Score descending, then item id ascending. total_cmp is safe
            // because the matrix rejects non-finite scores.
            row.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            for &(i, s) in &row {
                items.push(i);
                scores.push(s);
            }
            offsets.push(items.len());
        }
        PrefIndex {
            offsets,
            items,
            scores,
        }
    }

    /// Rebuilds an index from raw CSR storage — the inverse of
    /// [`PrefIndex::parts`], used by the `gf-persist` checkpoint loader.
    /// Re-validates the structural invariants ([`PrefIndex::build`]'s
    /// postconditions): monotone offsets covering the storage and, within
    /// each row, finite scores in non-increasing order with score ties
    /// broken by ascending item id.
    pub fn from_parts(offsets: Vec<usize>, items: Vec<u32>, scores: Vec<f64>) -> Result<Self> {
        let corrupt = |msg: String| GfError::Persist(format!("invalid pref parts: {msg}"));
        if offsets.is_empty() || offsets[0] != 0 {
            return Err(corrupt("offsets must start at 0".into()));
        }
        if items.len() != scores.len() {
            return Err(corrupt(format!(
                "{} items vs {} scores",
                items.len(),
                scores.len()
            )));
        }
        if *offsets.last().expect("non-empty") != items.len() {
            return Err(corrupt(format!(
                "last offset {} does not cover {} entries",
                offsets.last().expect("non-empty"),
                items.len()
            )));
        }
        for u in 0..offsets.len() - 1 {
            let (lo, hi) = (offsets[u], offsets[u + 1]);
            if lo > hi || hi > items.len() {
                return Err(corrupt(format!("bad row range {lo}..{hi} for user {u}")));
            }
            for idx in lo..hi {
                if !scores[idx].is_finite() {
                    return Err(corrupt(format!("non-finite score in row {u}")));
                }
                if idx > lo {
                    let order = scores[idx - 1]
                        .total_cmp(&scores[idx])
                        .then(items[idx].cmp(&items[idx - 1]));
                    if order == std::cmp::Ordering::Less {
                        return Err(corrupt(format!("row {u} not in preference order")));
                    }
                    if scores[idx - 1] == scores[idx] && items[idx - 1] == items[idx] {
                        return Err(corrupt(format!("row {u} repeats an item")));
                    }
                }
            }
        }
        Ok(PrefIndex {
            offsets,
            items,
            scores,
        })
    }

    /// The raw CSR storage `(offsets, items, scores)` — the exact bytes a
    /// checkpoint serializes.
    pub fn parts(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.offsets, &self.items, &self.scores)
    }

    /// Number of users indexed.
    #[inline]
    pub fn n_users(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of rated items for user `u`.
    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// User `u`'s full preference list: items sorted by preference.
    #[inline]
    pub fn ranked_items(&self, u: u32) -> &[u32] {
        let u = u as usize;
        &self.items[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Scores aligned with [`PrefIndex::ranked_items`] (non-increasing).
    #[inline]
    pub fn ranked_scores(&self, u: u32) -> &[f64] {
        let u = u as usize;
        &self.scores[self.offsets[u]..self.offsets[u + 1]]
    }

    /// The first `k` entries of `u`'s preference list, fewer if `u` rated
    /// fewer than `k` items.
    pub fn top_k(&self, u: u32, k: usize) -> (&[u32], &[f64]) {
        let items = self.ranked_items(u);
        let scores = self.ranked_scores(u);
        let t = k.min(items.len());
        (&items[..t], &scores[..t])
    }

    /// `u`'s `k`-th best score `sc(u, i^k)`, if `u` rated at least `k` items.
    pub fn kth_score(&self, u: u32, k: usize) -> Option<f64> {
        debug_assert!(k >= 1);
        self.ranked_scores(u).get(k - 1).copied()
    }

    /// Builds the successor index for `matrix`, in which `users`' rows
    /// changed: their preference lists are re-sorted from the matrix, every
    /// other list is copied verbatim. One pass over the storage, no
    /// intermediate clone — the snapshot-succession twin of
    /// [`RatingMatrix::with_upserts_under`]. The result is exactly what a
    /// full [`PrefIndex::build`] of `matrix` would produce. Duplicate user
    /// ids are fine. The matrix may have **grown** (see
    /// [`crate::GrowthPolicy`]): rows the index has never seen are
    /// appended, whether or not `users` names them.
    pub fn patched(&self, matrix: &RatingMatrix, users: &[u32]) -> PrefIndex {
        debug_assert!(matrix.n_users() >= self.n_users());
        let mut dirty: Vec<u32> = users.to_vec();
        dirty.sort_unstable();
        dirty.dedup();
        self.rebuilt_with(matrix, &dirty)
    }

    /// One-pass successor build: dirty rows re-sorted from the matrix,
    /// clean rows copied verbatim, rows beyond the index's old edge (a
    /// grown matrix) treated as dirty. `dirty` must be sorted and deduped.
    fn rebuilt_with(&self, matrix: &RatingMatrix, dirty: &[u32]) -> PrefIndex {
        let mut is_dirty = vec![false; matrix.n_users() as usize];
        for &u in dirty {
            is_dirty[u as usize] = true;
        }
        for slot in &mut is_dirty[(self.offsets.len() - 1)..] {
            *slot = true;
        }
        let mut items = Vec::with_capacity(matrix.nnz());
        let mut scores = Vec::with_capacity(matrix.nnz());
        let mut offsets = Vec::with_capacity(self.offsets.len());
        offsets.push(0usize);
        let mut row: Vec<(u32, f64)> = Vec::new();
        for u in 0..matrix.n_users() {
            if is_dirty[u as usize] {
                row.clear();
                row.extend(matrix.user_ratings(u));
                row.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                items.extend(row.iter().map(|&(i, _)| i));
                scores.extend(row.iter().map(|&(_, s)| s));
            } else {
                let (lo, hi) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
                items.extend_from_slice(&self.items[lo..hi]);
                scores.extend_from_slice(&self.scores[lo..hi]);
            }
            offsets.push(items.len());
        }
        PrefIndex {
            offsets,
            items,
            scores,
        }
    }

    /// The rank (0-based position) of `item` in `u`'s preference list, or
    /// `None` if `u` did not rate it. O(d) scan — used by evaluation code,
    /// not by the formation hot path.
    pub fn rank_of(&self, u: u32, item: u32) -> Option<usize> {
        self.ranked_items(u).iter().position(|&i| i == item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::RatingScale;

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
    fn paper_preference_list_u2() {
        // The paper: L_u2 = <i3,5; i2,3; i1,2>.
        let prefs = PrefIndex::build(&example1());
        assert_eq!(prefs.ranked_items(1), &[2, 1, 0]);
        assert_eq!(prefs.ranked_scores(1), &[5.0, 3.0, 2.0]);
    }

    #[test]
    fn tie_break_by_item_id() {
        // u5 in Example 1 rates (3, 1, 1): i2 and i3 tie at 1, i2 wins.
        let prefs = PrefIndex::build(&example1());
        assert_eq!(prefs.ranked_items(4), &[0, 1, 2]);
    }

    #[test]
    fn top_k_and_kth_score() {
        let prefs = PrefIndex::build(&example1());
        let (items, scores) = prefs.top_k(0, 2);
        assert_eq!(items, &[1, 2]); // u1: i2 (4), i3 (3)
        assert_eq!(scores, &[4.0, 3.0]);
        assert_eq!(prefs.kth_score(0, 2), Some(3.0));
        assert_eq!(prefs.kth_score(0, 4), None);
    }

    #[test]
    fn top_k_truncates_for_sparse_users() {
        let m = crate::matrix::RatingMatrix::from_triples(
            2,
            5,
            vec![(0, 3, 4.0), (0, 1, 2.0)],
            RatingScale::one_to_five(),
        )
        .unwrap();
        let prefs = PrefIndex::build(&m);
        let (items, scores) = prefs.top_k(0, 10);
        assert_eq!(items, &[3, 1]);
        assert_eq!(scores, &[4.0, 2.0]);
        let (items, _) = prefs.top_k(1, 10);
        assert!(items.is_empty());
        assert_eq!(prefs.degree(1), 0);
    }

    #[test]
    fn rank_of() {
        let prefs = PrefIndex::build(&example1());
        assert_eq!(prefs.rank_of(1, 2), Some(0)); // u2's best is i3
        assert_eq!(prefs.rank_of(1, 0), Some(2));
        let sparse = crate::matrix::RatingMatrix::from_triples(
            1,
            4,
            vec![(0, 2, 3.0)],
            RatingScale::one_to_five(),
        )
        .unwrap();
        let p = PrefIndex::build(&sparse);
        assert_eq!(p.rank_of(0, 0), None);
    }

    #[test]
    fn patched_matches_cold_build() {
        use crate::matrix::GrowthPolicy;
        // Degree-stable batch: overwrites only.
        let stable = example1();
        let updates = [(1u32, 0u32, 4.0), (4, 2, 5.0), (4, 2, 2.0)];
        // Degree-growing batch on a sparse matrix (one brand-new row).
        let sparse = crate::matrix::RatingMatrix::from_triples(
            4,
            5,
            vec![(0, 1, 2.0), (2, 0, 5.0), (2, 3, 1.0)],
            RatingScale::one_to_five(),
        )
        .unwrap();
        let sparse_updates = [(0u32, 3u32, 4.0), (3, 2, 2.0), (2, 0, 3.0)];
        for (base, batch) in [(&stable, &updates[..]), (&sparse, &sparse_updates[..])] {
            let prefs = PrefIndex::build(base);
            let (m, _) = base.with_upserts_under(batch, GrowthPolicy::Fixed).unwrap();
            let users: Vec<u32> = batch.iter().map(|&(u, _, _)| u).collect();
            let p = prefs.patched(&m, &users);
            let cold = PrefIndex::build(&m);
            for u in 0..m.n_users() {
                assert_eq!(p.ranked_items(u), cold.ranked_items(u), "user {u}");
                assert_eq!(p.ranked_scores(u), cold.ranked_scores(u), "user {u}");
            }
        }
    }

    #[test]
    fn patched_appends_rows_for_grown_matrices() {
        use crate::matrix::GrowthPolicy;
        let base = crate::matrix::RatingMatrix::from_triples(
            3,
            3,
            vec![(0, 1, 2.0), (2, 0, 5.0)],
            RatingScale::one_to_five(),
        )
        .unwrap();
        let prefs = PrefIndex::build(&base);
        // Admit users 3..=5 (4 stays an empty gap row) and item 4.
        let updates = [(5u32, 4u32, 4.0), (3, 0, 1.0), (0, 1, 3.0)];
        let (matrix, outcomes) = base
            .with_upserts_under(&updates, GrowthPolicy::unbounded())
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        let users: Vec<u32> = updates.iter().map(|&(u, _, _)| u).collect();
        let p = prefs.patched(&matrix, &users);
        let cold = PrefIndex::build(&matrix);
        assert_eq!(cold.n_users(), 6);
        assert_eq!(p.n_users(), 6);
        for u in 0..matrix.n_users() {
            assert_eq!(p.ranked_items(u), cold.ranked_items(u), "user {u}");
            assert_eq!(p.ranked_scores(u), cold.ranked_scores(u), "user {u}");
        }
        assert_eq!(p.degree(4), 0);
    }

    #[test]
    fn scores_are_non_increasing() {
        let prefs = PrefIndex::build(&example1());
        for u in 0..prefs.n_users() {
            let s = prefs.ranked_scores(u);
            for w in s.windows(2) {
                assert!(w[0] >= w[1]);
            }
        }
    }
}
