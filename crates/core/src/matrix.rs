//! Sparse user–item rating matrix.
//!
//! Ratings are stored in CSR (compressed sparse row) layout: one row per
//! user, columns sorted by item id. This supports the two access patterns
//! the algorithms need — iterate a user's ratings in item order (for group
//! top-k merges) and O(log d) point lookup — while keeping memory at
//! O(#ratings), which is what makes the paper's 200,000-user scalability
//! experiments feasible. The rows sit in fixed-size copy-on-write chunks
//! (see `rows`), so a successor matrix shares every chunk its batch did
//! not touch with its predecessor.

use crate::error::{GfError, Result};
use crate::rows::Rows;
use crate::scale::RatingScale;

/// Whether the user/item universe may grow when an update names an id
/// beyond the current dimensions.
///
/// Every growing entry point ([`RatingMatrix::with_upserts_under`],
/// [`MatrixBuilder::with_growth`]) takes the policy explicitly; the
/// policy-free methods keep today's strict bounds-checking, so existing
/// callers are unaffected. Growing a
/// matrix by an out-of-range id `x` admits *every* id up to `x` — the new
/// rows between the old edge and `x` simply hold no ratings yet, exactly
/// as a cold build over the union universe would shape them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum GrowthPolicy {
    /// Reject ids beyond the current dimensions (the historical behavior).
    #[default]
    Fixed,
    /// Admit new ids, extending `n_users`/`n_items` up to the caps; an id
    /// at or beyond its cap is a [`GfError::GrowthExhausted`] error.
    Grow {
        /// Hard cap on `n_users` after growth.
        max_users: u32,
        /// Hard cap on `n_items` after growth.
        max_items: u32,
    },
}

impl GrowthPolicy {
    /// A [`GrowthPolicy::Grow`] with both caps at `u32::MAX`.
    pub fn unbounded() -> Self {
        GrowthPolicy::Grow {
            max_users: u32::MAX,
            max_items: u32::MAX,
        }
    }

    /// Validates admitting `user` given `n_users` current users: `Ok` with
    /// the (possibly unchanged) user count a matrix containing `user` must
    /// have, or the policy's refusal.
    pub fn admit_user(self, user: u32, n_users: u32) -> Result<u32> {
        if user < n_users {
            return Ok(n_users);
        }
        match self {
            GrowthPolicy::Fixed => Err(GfError::UserOutOfRange { user, n_users }),
            GrowthPolicy::Grow { max_users, .. } => {
                if user >= max_users {
                    Err(GfError::GrowthExhausted {
                        axis: "user",
                        id: user,
                        max: max_users,
                    })
                } else {
                    Ok(user + 1)
                }
            }
        }
    }

    /// The item-axis counterpart of [`GrowthPolicy::admit_user`].
    pub fn admit_item(self, item: u32, n_items: u32) -> Result<u32> {
        if item < n_items {
            return Ok(n_items);
        }
        match self {
            GrowthPolicy::Fixed => Err(GfError::ItemOutOfRange { item, n_items }),
            GrowthPolicy::Grow { max_items, .. } => {
                if item >= max_items {
                    Err(GfError::GrowthExhausted {
                        axis: "item",
                        id: item,
                        max: max_items,
                    })
                } else {
                    Ok(item + 1)
                }
            }
        }
    }
}

/// A sparse, immutable user–item rating matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RatingMatrix {
    n_items: u32,
    scale: RatingScale,
    /// One row per user: item ids strictly increasing within a row,
    /// scores aligned with them.
    rows: Rows,
}

impl RatingMatrix {
    /// Builds a matrix from `(user, item, score)` triples.
    ///
    /// Triples may arrive in any order; duplicates are rejected. All scores
    /// must be finite and within `scale`.
    pub fn from_triples(
        n_users: u32,
        n_items: u32,
        triples: impl IntoIterator<Item = (u32, u32, f64)>,
        scale: RatingScale,
    ) -> Result<Self> {
        let mut b = MatrixBuilder::new(n_users, n_items, scale);
        for (u, i, s) in triples {
            b.push(u, i, s)?;
        }
        b.build()
    }

    /// Builds a dense matrix: `rows[u][i]` is user `u`'s rating of item `i`.
    ///
    /// Every row must have the same length. Handy for the paper's small
    /// worked examples (Tables 1, 2 and 5).
    pub fn from_dense(rows: &[&[f64]], scale: RatingScale) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(GfError::EmptyMatrix);
        }
        let m = rows[0].len();
        let mut b = MatrixBuilder::new(rows.len() as u32, m as u32, scale);
        for (u, row) in rows.iter().enumerate() {
            if row.len() != m {
                return Err(GfError::InvalidGrouping(format!(
                    "dense row {u} has length {} but expected {m}",
                    row.len()
                )));
            }
            for (i, &s) in row.iter().enumerate() {
                b.push(u as u32, i as u32, s)?;
            }
        }
        b.build()
    }

    /// Builds a fully dense matrix from a row-major `n_users x n_items`
    /// score buffer, consuming the buffer as the score storage — no
    /// intermediate triples, no per-row sort. Every score is validated
    /// against `scale` exactly as [`MatrixBuilder::push`] would.
    ///
    /// This is the fast path for producers that already materialize dense
    /// rows (e.g. threaded matrix completion): versus routing `n * m`
    /// cells through a builder it skips the 16-byte-per-cell triple buffer
    /// and the counting sort.
    pub fn from_dense_buffer(
        n_users: u32,
        n_items: u32,
        scores: Vec<f64>,
        scale: RatingScale,
    ) -> Result<Self> {
        if n_users == 0 || n_items == 0 {
            return Err(GfError::EmptyMatrix);
        }
        let (n, m) = (n_users as usize, n_items as usize);
        if scores.len() != n * m {
            return Err(GfError::InvalidGrouping(format!(
                "dense buffer holds {} cells but expected {n} x {m}",
                scores.len()
            )));
        }
        for (idx, &s) in scores.iter().enumerate() {
            if !s.is_finite() {
                return Err(GfError::NonFiniteScore {
                    user: (idx / m) as u32,
                    item: (idx % m) as u32,
                });
            }
            if !scale.contains(s) {
                return Err(GfError::ScaleViolation {
                    user: (idx / m) as u32,
                    item: (idx % m) as u32,
                    score: s,
                });
            }
        }
        Ok(RatingMatrix {
            n_items,
            scale,
            rows: Rows::from_fn(
                n_users,
                |_| m,
                |u, items, row| {
                    items.extend(0..n_items);
                    row.extend_from_slice(&scores[u as usize * m..(u as usize + 1) * m]);
                },
            ),
        })
    }

    /// Rebuilds a matrix from raw CSR storage — the inverse of
    /// [`RatingMatrix::csr_offsets`] and [`RatingMatrix::csr_runs`], used
    /// by the `gf-persist` checkpoint loader. Every invariant the builders enforce is re-validated here
    /// (monotone offsets, strictly increasing item ids per row, finite
    /// in-scale scores), so a corrupted or hand-edited checkpoint cannot
    /// smuggle an invalid matrix into a serving process.
    pub fn from_csr_parts(
        n_users: u32,
        n_items: u32,
        scale: RatingScale,
        offsets: Vec<usize>,
        items: Vec<u32>,
        scores: Vec<f64>,
    ) -> Result<Self> {
        if n_users == 0 || n_items == 0 {
            return Err(GfError::EmptyMatrix);
        }
        let corrupt = |msg: String| GfError::Persist(format!("invalid CSR parts: {msg}"));
        if offsets.len() != n_users as usize + 1 {
            return Err(corrupt(format!(
                "{} offsets for {n_users} users",
                offsets.len()
            )));
        }
        if offsets[0] != 0 {
            return Err(corrupt(format!("offsets[0] = {}", offsets[0])));
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
        for u in 0..n_users as usize {
            let (lo, hi) = (offsets[u], offsets[u + 1]);
            if lo > hi {
                return Err(corrupt(format!("offsets decrease at row {u}")));
            }
            let row = items
                .get(lo..hi)
                .ok_or_else(|| corrupt(format!("row {u} range {lo}..{hi} out of bounds")))?;
            for (idx, &i) in row.iter().enumerate() {
                if i >= n_items {
                    return Err(GfError::ItemOutOfRange { item: i, n_items });
                }
                if idx > 0 && row[idx - 1] >= i {
                    return Err(corrupt(format!("row {u} item ids not strictly increasing")));
                }
                let s = scores[lo + idx];
                if !s.is_finite() {
                    return Err(GfError::NonFiniteScore {
                        user: u as u32,
                        item: i,
                    });
                }
                if !scale.contains(s) {
                    return Err(GfError::ScaleViolation {
                        user: u as u32,
                        item: i,
                        score: s,
                    });
                }
            }
        }
        Ok(RatingMatrix {
            n_items,
            scale,
            rows: Rows::from_flat(&offsets, &items, &scores),
        })
    }

    /// The `n_users + 1` row offsets of the flat CSR a checkpoint
    /// serializes: `offsets[u]..offsets[u+1]` indexes user `u`'s entries
    /// in the concatenated [`RatingMatrix::csr_runs`].
    pub fn csr_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows.offsets()
    }

    /// The rating storage as consecutive `(items, scores)` runs in user
    /// order; concatenated, they are the flat CSR `items` and `scores`
    /// arrays a checkpoint serializes.
    pub fn csr_runs(&self) -> impl Iterator<Item = (&[u32], &[f64])> + Clone + '_ {
        self.rows.runs()
    }

    /// Number of users `n`.
    #[inline]
    pub fn n_users(&self) -> u32 {
        self.rows.n_rows()
    }

    /// Number of items `m`.
    #[inline]
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// The rating scale the matrix was validated against.
    #[inline]
    pub fn scale(&self) -> RatingScale {
        self.scale
    }

    /// Total number of stored ratings.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.rows.nnz()
    }

    /// Fraction of the full `n x m` matrix that is rated.
    pub fn density(&self) -> f64 {
        if self.n_users() == 0 || self.n_items == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.n_users() as f64 * self.n_items as f64)
    }

    /// Number of ratings by user `u`.
    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        self.rows.len(u)
    }

    /// The items rated by `u`, in increasing item order.
    #[inline]
    pub fn user_items(&self, u: u32) -> &[u32] {
        self.rows.items(u)
    }

    /// The scores of user `u`, aligned with [`RatingMatrix::user_items`].
    #[inline]
    pub fn user_scores(&self, u: u32) -> &[f64] {
        self.rows.scores(u)
    }

    /// Iterates `(item, score)` pairs of user `u` in increasing item order.
    pub fn user_ratings(&self, u: u32) -> impl ExactSizeIterator<Item = (u32, f64)> + '_ {
        self.user_items(u)
            .iter()
            .copied()
            .zip(self.user_scores(u).iter().copied())
    }

    /// User `u`'s rating of item `i`, if present. O(log d) binary search.
    pub fn get(&self, u: u32, i: u32) -> Option<f64> {
        let items = self.user_items(u);
        items
            .binary_search(&i)
            .ok()
            .map(|pos| self.user_scores(u)[pos])
    }

    /// Mean of user `u`'s ratings, or the scale midpoint if `u` rated
    /// nothing (a neutral prior for cold users).
    pub fn user_mean(&self, u: u32) -> f64 {
        let scores = self.user_scores(u);
        if scores.is_empty() {
            return (self.scale.min() + self.scale.max()) / 2.0;
        }
        scores.iter().sum::<f64>() / scores.len() as f64
    }

    /// Mean over all stored ratings, or the scale midpoint if empty.
    pub fn global_mean(&self) -> f64 {
        if self.nnz() == 0 {
            return (self.scale.min() + self.scale.max()) / 2.0;
        }
        let sum: f64 = self.rows.runs().flat_map(|(_, s)| s).sum();
        sum / self.nnz() as f64
    }

    /// Builds the item-major transpose: for each item, the `(user, score)`
    /// pairs in increasing user order. Used by collaborative filtering and
    /// by per-item statistics.
    pub fn transpose(&self) -> ItemMajor {
        let m = self.n_items as usize;
        let mut counts = vec![0usize; m + 1];
        for (items, _) in self.rows.runs() {
            for &i in items {
                counts[i as usize + 1] += 1;
            }
        }
        for i in 0..m {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut users = vec![0u32; self.nnz()];
        let mut scores = vec![0f64; self.nnz()];
        for u in 0..self.n_users() {
            for (i, s) in self.user_ratings(u) {
                let slot = cursor[i as usize];
                users[slot] = u;
                scores[slot] = s;
                cursor[i as usize] += 1;
            }
        }
        ItemMajor {
            n_items: self.n_items,
            offsets,
            users,
            scores,
        }
    }

    /// Builds the successor matrix with `updates` applied in order, without
    /// mutating `self`: one pass over the storage, no intermediate clone.
    /// This is the serving layer's snapshot-succession primitive — the old
    /// matrix stays live for concurrent readers while the successor is
    /// assembled.
    ///
    /// Later updates to the same cell win, and each outcome reports the
    /// value it replaced, including one written earlier in the same batch.
    /// Every update is validated first, so on `Err` nothing is built.
    /// Returns per-update outcomes aligned with `updates`. Under
    /// [`GrowthPolicy::Grow`], updates naming users/items beyond the
    /// current dimensions extend `n_users`/`n_items` (appending empty CSR
    /// rows up to the named id) instead of erroring, as long as the caps
    /// allow it. The successor rebuilds only the row chunks holding an
    /// updated or admitted user and shares the rest with `self`, so the
    /// build costs O(touched chunks + new rows), not O(nnz).
    pub fn with_upserts_under(
        &self,
        updates: &[(u32, u32, f64)],
        growth: GrowthPolicy,
    ) -> Result<(RatingMatrix, Vec<Upsert>)> {
        let (written, outcomes, n_users, n_items) = self.resolve_updates(updates, growth)?;
        Ok((self.rebuilt_with(&written, n_users, n_items), outcomes))
    }

    /// Validates `updates` and resolves them sequentially into final cell
    /// values plus per-update outcomes: a later update of a cell written
    /// earlier in the batch replaces the earlier value, not the stored one
    /// — exactly as if the updates were applied one at a time. Also
    /// resolves the grown dimensions the batch requires under `growth`.
    /// Nothing is mutated; on `Err` the caller's matrix is untouched.
    #[allow(clippy::type_complexity)] // private helper: (final cells, outcomes, grown dims)
    fn resolve_updates(
        &self,
        updates: &[(u32, u32, f64)],
        growth: GrowthPolicy,
    ) -> Result<(
        crate::fxhash::FxHashMap<(u32, u32), f64>,
        Vec<Upsert>,
        u32,
        u32,
    )> {
        let mut n_users = self.n_users();
        let mut n_items = self.n_items;
        for &(user, item, score) in updates {
            n_users = growth.admit_user(user, n_users)?;
            n_items = growth.admit_item(item, n_items)?;
            if !score.is_finite() {
                return Err(GfError::NonFiniteScore { user, item });
            }
            if !self.scale.contains(score) {
                return Err(GfError::ScaleViolation { user, item, score });
            }
        }
        let mut written: crate::fxhash::FxHashMap<(u32, u32), f64> =
            crate::fxhash::FxHashMap::default();
        let mut outcomes = Vec::with_capacity(updates.len());
        for &(user, item, score) in updates {
            let stored = (user < self.n_users())
                .then(|| self.get(user, item))
                .flatten();
            let outcome = match written.get(&(user, item)).copied().or(stored) {
                Some(previous) => Upsert::Updated { previous },
                None => Upsert::Inserted,
            };
            written.insert((user, item), score);
            outcomes.push(outcome);
        }
        Ok((written, outcomes, n_users, n_items))
    }

    /// Assembles the successor matrix: each dirty row is merged with its
    /// final cell values, rows beyond the old edge start empty (then
    /// receive their cells), and only the chunks holding such rows are
    /// rebuilt.
    fn rebuilt_with(
        &self,
        written: &crate::fxhash::FxHashMap<(u32, u32), f64>,
        n_users: u32,
        n_items: u32,
    ) -> RatingMatrix {
        let mut per_user: crate::fxhash::FxHashMap<u32, Vec<(u32, f64)>> =
            crate::fxhash::FxHashMap::default();
        for (&(user, item), &score) in written {
            per_user.entry(user).or_default().push((item, score));
        }
        for cells in per_user.values_mut() {
            cells.sort_unstable_by_key(|&(i, _)| i);
        }
        let mut dirty: Vec<u32> = per_user.keys().copied().collect();
        dirty.sort_unstable();
        let old_n = self.n_users();
        let row_len = |u: u32| {
            let old = if u < old_n { self.degree(u) } else { 0 };
            old + per_user.get(&u).map_or(0, Vec::len)
        };
        let rows = self.rows.successor(
            n_users,
            &dirty,
            row_len,
            |u, old_items, old_scores, items, scores| {
                let Some(cells) = per_user.get(&u) else {
                    return; // admitted gap row: no ratings yet
                };
                let mut ci = 0usize;
                for (&old_item, &old_score) in old_items.iter().zip(old_scores) {
                    while ci < cells.len() && cells[ci].0 < old_item {
                        items.push(cells[ci].0);
                        scores.push(cells[ci].1);
                        ci += 1;
                    }
                    items.push(old_item);
                    if ci < cells.len() && cells[ci].0 == old_item {
                        scores.push(cells[ci].1);
                        ci += 1;
                    } else {
                        scores.push(old_score);
                    }
                }
                for &(i, s) in &cells[ci..] {
                    items.push(i);
                    scores.push(s);
                }
            },
        );
        RatingMatrix {
            n_items,
            scale: self.scale,
            rows,
        }
    }

    /// Restricts the matrix to `users x items` sub-populations, re-indexing
    /// both densely in the order given. Duplicate selections are rejected.
    ///
    /// This is how the experiments "randomly select 200 users and 100 items"
    /// from the full datasets.
    pub fn submatrix(&self, users: &[u32], items: &[u32]) -> Result<RatingMatrix> {
        let mut item_map = vec![u32::MAX; self.n_items as usize];
        for (new, &old) in items.iter().enumerate() {
            if old >= self.n_items {
                return Err(GfError::ItemOutOfRange {
                    item: old,
                    n_items: self.n_items,
                });
            }
            if item_map[old as usize] != u32::MAX {
                return Err(GfError::InvalidGrouping(format!(
                    "item {old} selected twice in submatrix"
                )));
            }
            item_map[old as usize] = new as u32;
        }
        let mut b = MatrixBuilder::new(users.len() as u32, items.len() as u32, self.scale);
        let mut seen = vec![false; self.n_users() as usize];
        for (new_u, &old_u) in users.iter().enumerate() {
            if old_u >= self.n_users() {
                return Err(GfError::UserOutOfRange {
                    user: old_u,
                    n_users: self.n_users(),
                });
            }
            if seen[old_u as usize] {
                return Err(GfError::InvalidGrouping(format!(
                    "user {old_u} selected twice in submatrix"
                )));
            }
            seen[old_u as usize] = true;
            for (i, s) in self.user_ratings(old_u) {
                let mapped = item_map[i as usize];
                if mapped != u32::MAX {
                    b.push(new_u as u32, mapped, s)?;
                }
            }
        }
        b.build()
    }
}

/// What one update of [`RatingMatrix::with_upserts_under`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Upsert {
    /// The `(user, item)` pair was already rated; the score was replaced.
    Updated {
        /// The score that was overwritten.
        previous: f64,
    },
    /// The pair was new; a rating was inserted.
    Inserted,
}

/// Item-major (transposed) view of a [`RatingMatrix`].
#[derive(Debug, Clone)]
pub struct ItemMajor {
    n_items: u32,
    offsets: Vec<usize>,
    users: Vec<u32>,
    scores: Vec<f64>,
}

impl ItemMajor {
    /// Number of items.
    #[inline]
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Number of users who rated item `i`.
    #[inline]
    pub fn degree(&self, i: u32) -> usize {
        let i = i as usize;
        self.offsets[i + 1] - self.offsets[i]
    }

    /// The users who rated item `i`, in increasing user order.
    #[inline]
    pub fn item_users(&self, i: u32) -> &[u32] {
        let i = i as usize;
        &self.users[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Scores aligned with [`ItemMajor::item_users`].
    #[inline]
    pub fn item_scores(&self, i: u32) -> &[f64] {
        let i = i as usize;
        &self.scores[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Incremental builder for [`RatingMatrix`].
///
/// Accepts triples in any order; `build` sorts rows and verifies there are
/// no duplicate `(user, item)` pairs.
#[derive(Debug, Clone)]
pub struct MatrixBuilder {
    n_users: u32,
    n_items: u32,
    scale: RatingScale,
    growth: GrowthPolicy,
    triples: Vec<(u32, u32, f64)>,
}

impl MatrixBuilder {
    /// Creates a builder for an `n_users x n_items` matrix.
    pub fn new(n_users: u32, n_items: u32, scale: RatingScale) -> Self {
        MatrixBuilder {
            n_users,
            n_items,
            scale,
            growth: GrowthPolicy::Fixed,
            triples: Vec::new(),
        }
    }

    /// Lets [`MatrixBuilder::push`] grow the declared dimensions instead
    /// of rejecting out-of-range ids, up to the policy's caps. The initial
    /// dimensions become a floor: the built matrix is at least
    /// `n_users x n_items` even if no pushed rating reaches the edge.
    pub fn with_growth(mut self, growth: GrowthPolicy) -> Self {
        self.growth = growth;
        self
    }

    /// The current (possibly grown) user-axis size.
    pub fn n_users(&self) -> u32 {
        self.n_users
    }

    /// The current (possibly grown) item-axis size.
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Reserves capacity for `additional` more ratings.
    pub fn reserve(&mut self, additional: usize) {
        self.triples.reserve(additional);
    }

    /// Adds one rating, validating the indices and the score eagerly
    /// (growing the dimensions instead where [`MatrixBuilder::with_growth`]
    /// allows it).
    pub fn push(&mut self, user: u32, item: u32, score: f64) -> Result<()> {
        // Validate everything before committing either axis: a rejected
        // rating must not leave grown dimensions behind.
        let n_users = self.growth.admit_user(user, self.n_users)?;
        let n_items = self.growth.admit_item(item, self.n_items)?;
        if !score.is_finite() {
            return Err(GfError::NonFiniteScore { user, item });
        }
        if !self.scale.contains(score) {
            return Err(GfError::ScaleViolation { user, item, score });
        }
        self.n_users = n_users;
        self.n_items = n_items;
        self.triples.push((user, item, score));
        Ok(())
    }

    /// Number of ratings pushed so far.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether no ratings have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Finalizes into a [`RatingMatrix`], sorting rows and rejecting
    /// duplicate `(user, item)` pairs.
    pub fn build(self) -> Result<RatingMatrix> {
        if self.n_users == 0 || self.n_items == 0 {
            return Err(GfError::EmptyMatrix);
        }
        // Counting sort by user (inside `from_entries`) keeps this O(nnz)
        // instead of O(nnz log nnz); then sort each row by item id and
        // detect duplicates.
        let mut row: Vec<(u32, f64)> = Vec::new();
        let rows = Rows::from_entries(self.n_users, &self.triples, |u, items, scores| {
            if items.len() <= 1 {
                return Ok(());
            }
            row.clear();
            row.extend(items.iter().copied().zip(scores.iter().copied()));
            row.sort_unstable_by_key(|&(i, _)| i);
            if let Some(w) = row.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(GfError::DuplicateRating {
                    user: u,
                    item: w[0].0,
                });
            }
            for (slot, &(i, s)) in row.iter().enumerate() {
                items[slot] = i;
                scores[slot] = s;
            }
            Ok(())
        })?;
        Ok(RatingMatrix {
            n_items: self.n_items,
            scale: self.scale,
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example1() -> RatingMatrix {
        // Table 1 of the paper (rows here are users, columns items).
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
    fn dense_round_trip() {
        let m = example1();
        assert_eq!(m.n_users(), 6);
        assert_eq!(m.n_items(), 3);
        assert_eq!(m.nnz(), 18);
        assert_eq!(m.get(0, 1), Some(4.0));
        assert_eq!(m.get(4, 0), Some(3.0));
        assert_eq!(m.density(), 1.0);
    }

    #[test]
    fn from_dense_buffer_matches_from_dense() {
        let rows: [&[f64]; 3] = [&[1.0, 4.0, 3.0], &[2.0, 3.0, 5.0], &[2.0, 5.0, 1.0]];
        let via_builder = RatingMatrix::from_dense(&rows, RatingScale::one_to_five()).unwrap();
        let buf: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        let direct =
            RatingMatrix::from_dense_buffer(3, 3, buf, RatingScale::one_to_five()).unwrap();
        assert_eq!(via_builder, direct);
        assert_eq!(direct.density(), 1.0);
    }

    #[test]
    fn from_dense_buffer_validates() {
        let scale = RatingScale::one_to_five();
        assert!(matches!(
            RatingMatrix::from_dense_buffer(0, 2, vec![], scale),
            Err(GfError::EmptyMatrix)
        ));
        assert!(matches!(
            RatingMatrix::from_dense_buffer(2, 2, vec![1.0; 3], scale),
            Err(GfError::InvalidGrouping(_))
        ));
        assert_eq!(
            RatingMatrix::from_dense_buffer(2, 2, vec![1.0, 2.0, 9.0, 3.0], scale).unwrap_err(),
            GfError::ScaleViolation {
                user: 1,
                item: 0,
                score: 9.0
            }
        );
        assert_eq!(
            RatingMatrix::from_dense_buffer(2, 2, vec![1.0, f64::NAN, 2.0, 3.0], scale)
                .unwrap_err(),
            GfError::NonFiniteScore { user: 0, item: 1 }
        );
    }

    #[test]
    fn triples_any_order() {
        let m = RatingMatrix::from_triples(
            2,
            3,
            vec![(1, 2, 5.0), (0, 0, 1.0), (1, 0, 2.0), (0, 2, 3.0)],
            RatingScale::one_to_five(),
        )
        .unwrap();
        assert_eq!(m.user_items(0), &[0, 2]);
        assert_eq!(m.user_scores(1), &[2.0, 5.0]);
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.degree(0), 2);
    }

    #[test]
    fn duplicate_rejected() {
        let err = RatingMatrix::from_triples(
            2,
            2,
            vec![(0, 1, 3.0), (0, 1, 4.0)],
            RatingScale::one_to_five(),
        )
        .unwrap_err();
        assert_eq!(err, GfError::DuplicateRating { user: 0, item: 1 });
    }

    #[test]
    fn out_of_range_and_scale_rejected() {
        let mut b = MatrixBuilder::new(2, 2, RatingScale::one_to_five());
        assert!(matches!(
            b.push(2, 0, 3.0),
            Err(GfError::UserOutOfRange { .. })
        ));
        assert!(matches!(
            b.push(0, 5, 3.0),
            Err(GfError::ItemOutOfRange { .. })
        ));
        assert!(matches!(
            b.push(0, 0, 9.0),
            Err(GfError::ScaleViolation { .. })
        ));
        assert!(matches!(
            b.push(0, 0, f64::NAN),
            Err(GfError::NonFiniteScore { .. })
        ));
    }

    #[test]
    fn empty_matrix_rejected() {
        assert_eq!(
            MatrixBuilder::new(0, 5, RatingScale::one_to_five())
                .build()
                .unwrap_err(),
            GfError::EmptyMatrix
        );
        assert!(RatingMatrix::from_dense(&[], RatingScale::one_to_five()).is_err());
    }

    #[test]
    fn user_with_no_ratings_is_fine() {
        let m = RatingMatrix::from_triples(3, 2, vec![(0, 0, 2.0)], RatingScale::one_to_five())
            .unwrap();
        assert_eq!(m.degree(1), 0);
        assert_eq!(m.user_items(2), &[] as &[u32]);
        // Cold user mean falls back to the scale midpoint.
        assert_eq!(m.user_mean(1), 3.0);
    }

    #[test]
    fn means() {
        let m = example1();
        assert!((m.user_mean(0) - (1.0 + 4.0 + 3.0) / 3.0).abs() < 1e-12);
        let total: f64 = (0..6).map(|u| m.user_scores(u).iter().sum::<f64>()).sum();
        assert!((m.global_mean() - total / 18.0).abs() < 1e-12);
    }

    #[test]
    fn transpose_matches_row_view() {
        let m = example1();
        let t = m.transpose();
        assert_eq!(t.n_items(), 3);
        assert_eq!(t.degree(1), 6);
        assert_eq!(t.item_users(0), &[0, 1, 2, 3, 4, 5]);
        // Column i2 of Table 1: 4 3 5 5 1 2.
        assert_eq!(t.item_scores(1), &[4.0, 3.0, 5.0, 5.0, 1.0, 2.0]);
    }

    #[test]
    fn transpose_on_sparse() {
        let m = RatingMatrix::from_triples(
            3,
            3,
            vec![(0, 1, 2.0), (2, 1, 4.0), (1, 0, 5.0)],
            RatingScale::one_to_five(),
        )
        .unwrap();
        let t = m.transpose();
        assert_eq!(t.item_users(1), &[0, 2]);
        assert_eq!(t.item_scores(1), &[2.0, 4.0]);
        assert_eq!(t.degree(2), 0);
    }

    #[test]
    fn successor_replaces_existing_cell() {
        let base = example1();
        let (m, outcomes) = base
            .with_upserts_under(&[(0, 1, 2.0)], GrowthPolicy::Fixed)
            .unwrap();
        assert_eq!(outcomes, vec![Upsert::Updated { previous: 4.0 }]);
        assert_eq!(m.get(0, 1), Some(2.0));
        assert_eq!(m.nnz(), 18);
        // The predecessor stays live and unchanged for concurrent readers.
        assert_eq!(base, example1());
    }

    #[test]
    fn successor_inserts_and_matches_cold_rebuild() {
        let base = RatingMatrix::from_triples(
            3,
            4,
            vec![(0, 0, 2.0), (0, 3, 4.0), (2, 1, 5.0)],
            RatingScale::one_to_five(),
        )
        .unwrap();
        let (m, outcomes) = base
            .with_upserts_under(&[(0, 2, 3.0), (1, 0, 1.0)], GrowthPolicy::Fixed)
            .unwrap();
        assert_eq!(outcomes, vec![Upsert::Inserted, Upsert::Inserted]);
        let cold = RatingMatrix::from_triples(
            3,
            4,
            vec![
                (0, 0, 2.0),
                (0, 2, 3.0),
                (0, 3, 4.0),
                (1, 0, 1.0),
                (2, 1, 5.0),
            ],
            RatingScale::one_to_five(),
        )
        .unwrap();
        assert_eq!(m, cold);
    }

    #[test]
    fn successor_validates_like_push() {
        let m = example1();
        let fixed = GrowthPolicy::Fixed;
        assert!(matches!(
            m.with_upserts_under(&[(99, 0, 3.0)], fixed),
            Err(GfError::UserOutOfRange { .. })
        ));
        assert!(matches!(
            m.with_upserts_under(&[(0, 99, 3.0)], fixed),
            Err(GfError::ItemOutOfRange { .. })
        ));
        assert!(matches!(
            m.with_upserts_under(&[(0, 0, 9.0)], fixed),
            Err(GfError::ScaleViolation { .. })
        ));
        assert!(matches!(
            m.with_upserts_under(&[(0, 0, f64::NAN)], fixed),
            Err(GfError::NonFiniteScore { .. })
        ));
        // A bad update anywhere in the batch rejects the whole batch.
        assert!(matches!(
            m.with_upserts_under(&[(0, 0, 3.0), (99, 0, 3.0)], fixed),
            Err(GfError::UserOutOfRange { .. })
        ));
        assert!(matches!(
            m.with_upserts_under(&[(0, 0, 3.0), (0, 0, 9.0)], fixed),
            Err(GfError::ScaleViolation { .. })
        ));
        let (same, outcomes) = m.with_upserts_under(&[], fixed).unwrap();
        assert_eq!(outcomes, vec![]);
        assert_eq!(same, m);
    }

    #[test]
    fn successor_batch_matches_one_update_at_a_time() {
        let base = RatingMatrix::from_triples(
            4,
            5,
            vec![(0, 0, 2.0), (0, 3, 4.0), (2, 1, 5.0), (3, 4, 1.0)],
            RatingScale::one_to_five(),
        )
        .unwrap();
        // Mix of overwrites, inserts, a same-cell double write and a
        // previously empty row.
        let updates = [
            (0u32, 3u32, 5.0),
            (1, 2, 3.0),
            (0, 1, 2.0),
            (1, 2, 4.0),
            (3, 0, 2.0),
            (2, 1, 1.0),
        ];
        let (batched, outcomes) = base
            .with_upserts_under(&updates, GrowthPolicy::Fixed)
            .unwrap();
        let mut sequential = base.clone();
        let mut expected = Vec::new();
        for &update in &updates {
            let (next, mut outcome) = sequential
                .with_upserts_under(&[update], GrowthPolicy::Fixed)
                .unwrap();
            sequential = next;
            expected.append(&mut outcome);
        }
        assert_eq!(outcomes, expected);
        assert_eq!(batched, sequential);
        // The double write reports the first batch write as its previous.
        assert_eq!(outcomes[3], Upsert::Updated { previous: 3.0 });
    }

    #[test]
    fn successor_grows_to_cold_union_build() {
        let base = RatingMatrix::from_triples(
            3,
            2,
            vec![(0, 0, 2.0), (2, 1, 5.0)],
            RatingScale::one_to_five(),
        )
        .unwrap();
        // Admit user 5 (creating empty rows 3, 4) and item 3 (items 2 as a
        // gap column), mixing in an overwrite of an existing cell.
        let updates = [(5u32, 3u32, 4.0), (0, 0, 3.0), (4, 1, 1.0)];
        let (grown, outcomes) = base
            .with_upserts_under(&updates, GrowthPolicy::unbounded())
            .unwrap();
        assert_eq!(
            outcomes,
            vec![
                Upsert::Inserted,
                Upsert::Updated { previous: 2.0 },
                Upsert::Inserted
            ]
        );
        let cold = RatingMatrix::from_triples(
            6,
            4,
            vec![(0, 0, 3.0), (2, 1, 5.0), (4, 1, 1.0), (5, 3, 4.0)],
            RatingScale::one_to_five(),
        )
        .unwrap();
        assert_eq!(grown, cold);
        assert_eq!(grown.degree(3), 0); // gap row admitted empty
    }

    #[test]
    fn same_batch_create_then_rate_again() {
        let base = RatingMatrix::from_triples(2, 2, vec![(0, 0, 2.0)], RatingScale::one_to_five())
            .unwrap();
        // A brand-new user's cell written twice in one batch: the second
        // write reports the first as its previous value, and the successor
        // carries the last write.
        let (m, outcomes) = base
            .with_upserts_under(
                &[(4, 3, 2.0), (4, 3, 5.0)],
                GrowthPolicy::Grow {
                    max_users: 8,
                    max_items: 8,
                },
            )
            .unwrap();
        assert_eq!(
            outcomes,
            vec![Upsert::Inserted, Upsert::Updated { previous: 2.0 }]
        );
        assert_eq!(m.get(4, 3), Some(5.0));
        assert_eq!(m.n_users(), 5);
        assert_eq!(m.n_items(), 4);
    }

    #[test]
    fn growth_caps_are_enforced() {
        let base = RatingMatrix::from_triples(2, 2, vec![(0, 0, 2.0)], RatingScale::one_to_five())
            .unwrap();
        let growth = GrowthPolicy::Grow {
            max_users: 4,
            max_items: 3,
        };
        assert_eq!(
            base.with_upserts_under(&[(1, 1, 3.0), (4, 0, 3.0)], growth)
                .unwrap_err(),
            GfError::GrowthExhausted {
                axis: "user",
                id: 4,
                max: 4
            }
        );
        assert_eq!(
            base.with_upserts_under(&[(0, 3, 3.0)], growth).unwrap_err(),
            GfError::GrowthExhausted {
                axis: "item",
                id: 3,
                max: 3
            }
        );
        // Fixed policy keeps the historical errors.
        assert!(matches!(
            base.with_upserts_under(&[(5, 0, 3.0)], GrowthPolicy::Fixed),
            Err(GfError::UserOutOfRange { .. })
        ));
    }

    #[test]
    fn builder_grows_under_policy() {
        let mut b =
            MatrixBuilder::new(2, 2, RatingScale::one_to_five()).with_growth(GrowthPolicy::Grow {
                max_users: 10,
                max_items: 10,
            });
        b.push(0, 0, 2.0).unwrap();
        b.push(7, 4, 5.0).unwrap();
        assert_eq!((b.n_users(), b.n_items()), (8, 5));
        assert!(matches!(
            b.push(10, 0, 3.0),
            Err(GfError::GrowthExhausted { axis: "user", .. })
        ));
        let m = b.build().unwrap();
        assert_eq!((m.n_users(), m.n_items()), (8, 5));
        assert_eq!(m.get(7, 4), Some(5.0));
        assert_eq!(m.degree(3), 0);
    }

    #[test]
    fn builder_push_is_atomic_under_growth() {
        let mut b =
            MatrixBuilder::new(2, 2, RatingScale::one_to_five()).with_growth(GrowthPolicy::Grow {
                max_users: 100,
                max_items: 3,
            });
        // A rejected score must not leave grown dimensions behind.
        assert!(matches!(
            b.push(50, 0, f64::NAN),
            Err(GfError::NonFiniteScore { .. })
        ));
        assert_eq!((b.n_users(), b.n_items()), (2, 2));
        // Neither must a push that fails on the *other* axis.
        assert!(matches!(
            b.push(60, 99, 3.0),
            Err(GfError::GrowthExhausted { axis: "item", .. })
        ));
        assert_eq!((b.n_users(), b.n_items()), (2, 2));
        b.push(0, 0, 3.0).unwrap();
        assert_eq!(b.build().unwrap().n_users(), 2);
    }

    use crate::rows::CHUNK_ROWS;
    use proptest::prelude::*;

    /// `n` users over 7 items on the half-star grid; most users rate two
    /// items, every ninth user rates nothing (empty rows inside chunks).
    fn striped_triples(n: u32) -> Vec<(u32, u32, f64)> {
        let grade = |x: u32| 0.5 + (x % 10) as f64 * 0.5;
        let mut triples = Vec::new();
        for u in (0..n).filter(|u| u % 9 != 4) {
            let (a, b) = (u % 7, (u * 3 + 1) % 7);
            triples.push((u, a, grade(u)));
            if b != a {
                triples.push((u, b, grade(u + 3)));
            }
        }
        triples
    }

    fn striped(n: u32) -> RatingMatrix {
        RatingMatrix::from_triples(n, 7, striped_triples(n), RatingScale::half_star()).unwrap()
    }

    /// The successor against a cold build over the same final cells.
    fn assert_successor_is_cold(base_n: u32, updates: &[(u32, u32, f64)], growth: GrowthPolicy) {
        let base = striped(base_n);
        let (next, _) = base.with_upserts_under(updates, growth).unwrap();
        let mut cells: std::collections::BTreeMap<(u32, u32), f64> = striped_triples(base_n)
            .into_iter()
            .map(|(u, i, s)| ((u, i), s))
            .collect();
        for &(u, i, s) in updates {
            cells.insert((u, i), s);
        }
        let cold = MatrixBuilder::new(base_n, 7, RatingScale::half_star())
            .with_growth(GrowthPolicy::unbounded());
        let cold = cells
            .into_iter()
            .try_fold(cold, |mut b, ((u, i), s)| b.push(u, i, s).map(|_| b))
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(next.n_users(), cold.n_users());
        for u in 0..cold.n_users() {
            assert_eq!(next.user_items(u), cold.user_items(u), "user {u}");
            assert_eq!(next.user_scores(u), cold.user_scores(u), "user {u}");
        }
        assert_eq!(next.nnz(), cold.nnz());
        assert_eq!(next, cold);
    }

    #[test]
    fn successor_touches_first_and_last_row_of_a_chunk() {
        let c = CHUNK_ROWS as u32;
        let n = 3 * c + 17; // not a multiple of the chunk size
        let updates = [
            (0, 2, 4.5),         // first row of chunk 0
            (c - 1, 6, 1.0),     // last row of chunk 0
            (c, 0, 3.0),         // first row of chunk 1
            (2 * c - 1, 5, 2.5), // last row of chunk 1
            (n - 1, 3, 5.0),     // last row of the partial chunk 3
        ];
        assert_successor_is_cold(n, &updates, GrowthPolicy::Fixed);
        let base = striped(n);
        let (next, _) = base
            .with_upserts_under(&updates, GrowthPolicy::Fixed)
            .unwrap();
        // Chunk 2 held no updated row: it is the very same allocation.
        assert_eq!(
            base.rows.shared_chunks(&next.rows),
            vec![false, false, true, false]
        );
    }

    #[test]
    fn successor_shares_every_chunk_the_batch_did_not_touch() {
        let c = CHUNK_ROWS as u32;
        let n = 9 * c + 3;
        let base = striped(n);
        let updates = [(5u32, 1u32, 2.0), (4 * c + 9, 4, 4.0), (4 * c + 10, 0, 0.5)];
        let (next, _) = base
            .with_upserts_under(&updates, GrowthPolicy::Fixed)
            .unwrap();
        let touched: Vec<usize> = updates
            .iter()
            .map(|&(u, _, _)| u as usize / CHUNK_ROWS)
            .collect();
        let shared = base.rows.shared_chunks(&next.rows);
        assert_eq!(shared.len(), 10);
        for (chunk, &is_shared) in shared.iter().enumerate() {
            assert_eq!(is_shared, !touched.contains(&chunk), "chunk {chunk}");
        }
        // An empty batch shares everything.
        let (same, _) = base.with_upserts_under(&[], GrowthPolicy::Fixed).unwrap();
        assert!(base.rows.shared_chunks(&same.rows).iter().all(|&s| s));
    }

    #[test]
    fn grow_admissions_open_new_chunks() {
        let c = CHUNK_ROWS as u32;
        let grow = GrowthPolicy::unbounded();
        // Fill the partial last chunk and open two more.
        assert_successor_is_cold(2 * c - 3, &[(4 * c + 5, 6, 3.5), (1, 1, 1.0)], grow);
        // Open exactly one new chunk from an exact multiple.
        assert_successor_is_cold(2 * c, &[(2 * c, 0, 2.0)], grow);
        let base = striped(2 * c - 3);
        let (next, _) = base
            .with_upserts_under(&[(4 * c + 5, 6, 3.5)], grow)
            .unwrap();
        assert_eq!(next.n_users(), 4 * c + 6);
        // Chunk 0 is untouched; chunk 1 took the admitted gap rows.
        assert_eq!(base.rows.shared_chunks(&next.rows), vec![true, false]);
        assert_eq!(next.degree(4 * c), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Around every chunk multiple: any batch, with or without growth,
        /// yields the cold build over the final cells.
        #[test]
        fn successor_equals_cold_near_chunk_multiples(
            (mult, delta) in (1u32..4, 0u32..5),
            below in any::<bool>(),
            updates in proptest::collection::vec((0u32..1200, 0u32..7, 1u8..=10), 1..12),
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
            assert_successor_is_cold(n, &updates, growth);
        }
    }

    #[test]
    fn submatrix_reindexes() {
        let m = example1();
        // Keep users u2, u6 (indices 1, 5) and items i3, i1 (indices 2, 0).
        let s = m.submatrix(&[1, 5], &[2, 0]).unwrap();
        assert_eq!(s.n_users(), 2);
        assert_eq!(s.n_items(), 2);
        // New user 0 = old u2: i3 -> new item 0 (5.0), i1 -> new item 1 (2.0).
        assert_eq!(s.get(0, 0), Some(5.0));
        assert_eq!(s.get(0, 1), Some(2.0));
        assert_eq!(s.get(1, 0), Some(5.0));
        assert_eq!(s.get(1, 1), Some(1.0));
    }

    #[test]
    fn submatrix_rejects_bad_selections() {
        let m = example1();
        assert!(m.submatrix(&[0, 0], &[0]).is_err());
        assert!(m.submatrix(&[0], &[0, 0]).is_err());
        assert!(m.submatrix(&[99], &[0]).is_err());
        assert!(m.submatrix(&[0], &[99]).is_err());
    }
}
