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
//!
//! The lists sit in the same copy-on-write row chunks as the rating
//! matrix, so [`PrefIndex::patched`] re-sorts only the chunks holding a
//! changed user and shares the rest with its predecessor.

use crate::error::{GfError, Result};
use crate::matrix::RatingMatrix;
use crate::rows::Rows;

/// All users' preference lists, stored in CSR layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefIndex {
    /// One row per user: item ids sorted by (score desc, item asc), scores
    /// aligned with them (non-increasing within a row).
    rows: Rows,
}

/// Appends `u`'s ratings to `items`/`scores` in preference order: score
/// descending, then item id ascending. `total_cmp` is safe because the
/// matrix rejects non-finite scores.
fn push_ranked(
    matrix: &RatingMatrix,
    u: u32,
    row: &mut Vec<(u32, f64)>,
    items: &mut Vec<u32>,
    scores: &mut Vec<f64>,
) {
    row.clear();
    row.extend(matrix.user_ratings(u));
    row.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    items.extend(row.iter().map(|&(i, _)| i));
    scores.extend(row.iter().map(|&(_, s)| s));
}

impl PrefIndex {
    /// Sorts every user's ratings into a preference list.
    pub fn build(matrix: &RatingMatrix) -> Self {
        let mut row = Vec::new();
        PrefIndex {
            rows: Rows::from_fn(
                matrix.n_users(),
                |u| matrix.degree(u),
                |u, items, scores| push_ranked(matrix, u, &mut row, items, scores),
            ),
        }
    }

    /// Rebuilds an index from raw CSR storage — the inverse of
    /// [`PrefIndex::csr_offsets`] and [`PrefIndex::csr_runs`], used by the
    /// `gf-persist` checkpoint loader.
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
            rows: Rows::from_flat(&offsets, &items, &scores),
        })
    }

    /// The `n_users + 1` row offsets of the flat CSR a checkpoint
    /// serializes, indexing the concatenated [`PrefIndex::csr_runs`].
    pub fn csr_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows.offsets()
    }

    /// The lists as consecutive `(items, scores)` runs in user order;
    /// concatenated, they are the flat CSR `items` and `scores` arrays a
    /// checkpoint serializes.
    pub fn csr_runs(&self) -> impl Iterator<Item = (&[u32], &[f64])> + Clone + '_ {
        self.rows.runs()
    }

    /// Number of users indexed.
    #[inline]
    pub fn n_users(&self) -> u32 {
        self.rows.n_rows()
    }

    /// Number of rated items for user `u`.
    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        self.rows.len(u)
    }

    /// User `u`'s full preference list: items sorted by preference.
    #[inline]
    pub fn ranked_items(&self, u: u32) -> &[u32] {
        self.rows.items(u)
    }

    /// Scores aligned with [`PrefIndex::ranked_items`] (non-increasing).
    #[inline]
    pub fn ranked_scores(&self, u: u32) -> &[f64] {
        self.rows.scores(u)
    }

    /// The first `k` entries of `u`'s preference list, fewer if `u` rated
    /// fewer than `k` items.
    pub fn top_k(&self, u: u32, k: usize) -> (&[u32], &[f64]) {
        let items = self.ranked_items(u);
        let scores = self.ranked_scores(u);
        let t = k.min(items.len());
        (&items[..t], &scores[..t])
    }

    /// Builds the successor index for `matrix`, in which `users`' rows
    /// changed: their preference lists are re-sorted from the matrix, and
    /// only the row chunks holding them are rebuilt — every other chunk is
    /// shared with `self`. The snapshot-succession twin of
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
        let mut row = Vec::new();
        PrefIndex {
            rows: self.rows.successor(
                matrix.n_users(),
                &dirty,
                |u| matrix.degree(u),
                |u, _, _, items, scores| push_ranked(matrix, u, &mut row, items, scores),
            ),
        }
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

    use crate::matrix::GrowthPolicy;
    use crate::rows::CHUNK_ROWS;
    use proptest::prelude::*;

    /// `n` users over 6 items on the half-star grid, with ties and empty
    /// rows so the (score desc, item asc) order is exercised.
    fn banded(n: u32) -> RatingMatrix {
        let triples = (0..n)
            .filter(|u| u % 7 != 3)
            .flat_map(|u| [(u, u % 6, 0.5 + (u % 4) as f64), (u, (u % 6 + 3) % 6, 2.5)]);
        RatingMatrix::from_triples(n, 6, triples, RatingScale::half_star()).unwrap()
    }

    /// Applies `updates` to `banded(n)` and patches its index; returns
    /// (old index, patched index, successor matrix).
    fn patch(
        n: u32,
        updates: &[(u32, u32, f64)],
        growth: GrowthPolicy,
    ) -> (PrefIndex, PrefIndex, RatingMatrix) {
        let base = banded(n);
        let prefs = PrefIndex::build(&base);
        let (matrix, _) = base.with_upserts_under(updates, growth).unwrap();
        let users: Vec<u32> = updates.iter().map(|&(u, _, _)| u).collect();
        let patched = prefs.patched(&matrix, &users);
        (prefs, patched, matrix)
    }

    fn assert_is_cold(p: &PrefIndex, matrix: &RatingMatrix) {
        let cold = PrefIndex::build(matrix);
        assert_eq!(p.n_users(), cold.n_users());
        for u in 0..cold.n_users() {
            assert_eq!(p.ranked_items(u), cold.ranked_items(u), "user {u}");
            assert_eq!(p.ranked_scores(u), cold.ranked_scores(u), "user {u}");
        }
        assert_eq!(p, &cold);
    }

    #[test]
    fn patched_touches_first_and_last_row_of_a_chunk() {
        let c = CHUNK_ROWS as u32;
        let n = 2 * c + 5; // not a multiple of the chunk size
        let updates = [
            (c, 1, 5.0),
            (2 * c - 1, 2, 0.5),
            (n - 1, 0, 4.0),
            (0, 4, 3.0),
        ];
        let (old, p, matrix) = patch(n, &updates, GrowthPolicy::Fixed);
        assert_is_cold(&p, &matrix);
        assert_eq!(old.rows.shared_chunks(&p.rows), vec![false, false, false]);
        // Only the first and last row of chunk 1: chunks 0 and 2 shared.
        let (old, p, matrix) = patch(n, &updates[..2], GrowthPolicy::Fixed);
        assert_is_cold(&p, &matrix);
        assert_eq!(old.rows.shared_chunks(&p.rows), vec![true, false, true]);
    }

    #[test]
    fn patched_shares_every_chunk_the_batch_did_not_touch() {
        let c = CHUNK_ROWS as u32;
        let updates = [
            (3 * c + 1, 5, 1.5),
            (7 * c + 2, 0, 5.0),
            (7 * c + 200, 1, 2.0),
        ];
        let (old, p, matrix) = patch(8 * c + 40, &updates, GrowthPolicy::Fixed);
        assert_is_cold(&p, &matrix);
        let shared = old.rows.shared_chunks(&p.rows);
        assert_eq!(shared.len(), 9);
        for (chunk, &is_shared) in shared.iter().enumerate() {
            assert_eq!(is_shared, chunk != 3 && chunk != 7, "chunk {chunk}");
        }
    }

    #[test]
    fn patched_grow_admissions_open_new_chunks() {
        let c = CHUNK_ROWS as u32;
        let grow = GrowthPolicy::unbounded();
        // From a partial last chunk, two chunks past it.
        let (old, p, matrix) = patch(c + 9, &[(3 * c + 1, 2, 3.0)], grow);
        assert_is_cold(&p, &matrix);
        assert_eq!(p.n_users(), 3 * c + 2);
        assert_eq!(old.rows.shared_chunks(&p.rows), vec![true, false]);
        // From an exact multiple: the old chunks all stay shared.
        let (old, p, matrix) = patch(2 * c, &[(2 * c, 2, 3.0)], grow);
        assert_is_cold(&p, &matrix);
        assert_eq!(old.rows.shared_chunks(&p.rows), vec![true, true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Around every chunk multiple: any batch, with or without growth,
        /// patches to the cold index of the successor matrix.
        #[test]
        fn patched_equals_cold_near_chunk_multiples(
            (mult, delta) in (1u32..4, 0u32..5),
            below in any::<bool>(),
            updates in proptest::collection::vec((0u32..1200, 0u32..6, 1u8..=10), 1..12),
            grow in any::<bool>(),
        ) {
            let edge = mult * CHUNK_ROWS as u32;
            let n = if below { edge - delta } else { edge + delta };
            let (growth, ids) = if grow {
                (GrowthPolicy::unbounded(), n + CHUNK_ROWS as u32 + 2)
            } else {
                (GrowthPolicy::Fixed, n)
            };
            let updates: Vec<(u32, u32, f64)> = updates
                .into_iter()
                .map(|(u, i, g)| (u % ids, i, g as f64 * 0.5))
                .collect();
            let (_, p, matrix) = patch(n, &updates, growth);
            assert_is_cold(&p, &matrix);
        }
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
