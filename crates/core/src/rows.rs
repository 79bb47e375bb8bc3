//! Copy-on-write CSR row storage shared by [`crate::RatingMatrix`] and
//! [`crate::PrefIndex`].
//!
//! Rows live in fixed-size chunks of [`CHUNK_ROWS`] consecutive rows, each
//! chunk a small CSR of its own behind an [`Arc`]. A successor snapshot
//! ([`Rows::successor`]) rebuilds only the chunks that hold a rewritten or
//! newly admitted row and shares every other chunk with its predecessor,
//! so a refresh pass costs O(touched chunks), not O(n + nnz). Row reads
//! still hand out plain `&[_]` slices: one extra index step picks the
//! chunk.
//!
//! The chunk layout is canonical — chunk `c` holds rows
//! `c * CHUNK_ROWS .. min((c + 1) * CHUNK_ROWS, n)` — so two stores with
//! the same rows compare equal however they were built.

use std::sync::Arc;

const CHUNK_SHIFT: u32 = 8;

/// Rows per chunk (a power of two: the chunk of row `r` is `r >> 8`).
pub(crate) const CHUNK_ROWS: usize = 1 << CHUNK_SHIFT;

/// One chunk: a CSR over its rows with chunk-local offsets.
#[derive(Debug, Clone, PartialEq, Default)]
struct Chunk {
    /// `rows + 1` local offsets into `items`/`scores`, starting at 0.
    offsets: Vec<usize>,
    items: Vec<u32>,
    scores: Vec<f64>,
}

/// Rows of `(item, score)` pairs in copy-on-write chunks.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Rows {
    n_rows: u32,
    nnz: usize,
    chunks: Vec<Arc<Chunk>>,
}

impl Chunk {
    /// An empty chunk with room for `rows` rows holding `cap` entries: a
    /// caller that knows an upper bound on what it appends never regrows
    /// the storage.
    fn with_capacity(rows: usize, cap: usize) -> Chunk {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Chunk {
            offsets,
            items: Vec::with_capacity(cap),
            scores: Vec::with_capacity(cap),
        }
    }

    /// Local row `l`.
    #[inline]
    fn row(&self, l: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.offsets[l], self.offsets[l + 1]);
        (&self.items[lo..hi], &self.scores[lo..hi])
    }

    /// Closes the row whose entries were just appended.
    fn end_row(&mut self) {
        debug_assert_eq!(self.items.len(), self.scores.len());
        self.offsets.push(self.items.len());
    }

    /// Appends `src`'s local rows `from..to` verbatim: one copy of their
    /// storage plus rebased offsets.
    fn copy_rows(&mut self, src: &Chunk, from: usize, to: usize) {
        if from >= to {
            return;
        }
        let (lo, hi) = (src.offsets[from], src.offsets[to]);
        let base = self.items.len();
        self.items.extend_from_slice(&src.items[lo..hi]);
        self.scores.extend_from_slice(&src.scores[lo..hi]);
        self.offsets
            .extend(src.offsets[from + 1..=to].iter().map(|&o| o - lo + base));
    }

    /// Seals the chunk, trimming any reserved slack.
    fn sealed(mut self) -> Arc<Chunk> {
        self.items.shrink_to_fit();
        self.scores.shrink_to_fit();
        Arc::new(self)
    }
}

/// Rows `lo..hi` of chunk `c` in a store of `n_rows` rows.
fn chunk_rows(c: usize, n_rows: u32) -> (u32, u32) {
    let lo = (c * CHUNK_ROWS) as u32;
    (lo, n_rows.min(lo + CHUNK_ROWS as u32))
}

fn chunks_for(n_rows: u32) -> usize {
    (n_rows as usize).div_ceil(CHUNK_ROWS)
}

impl Rows {
    /// Builds `n_rows` rows, row `r` appended to the two buffers by
    /// `fill(r, items, scores)`; it appends at most `row_len(r)` entries.
    pub(crate) fn from_fn(
        n_rows: u32,
        row_len: impl Fn(u32) -> usize,
        mut fill: impl FnMut(u32, &mut Vec<u32>, &mut Vec<f64>),
    ) -> Rows {
        let chunks: Vec<Arc<Chunk>> = (0..chunks_for(n_rows))
            .map(|c| {
                let (lo, hi) = chunk_rows(c, n_rows);
                let cap = (lo..hi).map(&row_len).sum();
                let mut chunk = Chunk::with_capacity((hi - lo) as usize, cap);
                for r in lo..hi {
                    fill(r, &mut chunk.items, &mut chunk.scores);
                    chunk.end_row();
                }
                chunk.sealed()
            })
            .collect();
        Rows {
            n_rows,
            nnz: chunks.iter().map(|c| c.items.len()).sum(),
            chunks,
        }
    }

    /// Builds rows from `(row, item, score)` entries in any order, straight
    /// into exactly-sized chunks (no flat intermediate): each row receives
    /// its entries in input order, then `finish(r, items, scores)` may
    /// reorder them in place or reject the row.
    pub(crate) fn from_entries<E>(
        n_rows: u32,
        entries: &[(u32, u32, f64)],
        mut finish: impl FnMut(u32, &mut [u32], &mut [f64]) -> Result<(), E>,
    ) -> Result<Rows, E> {
        let n = n_rows as usize;
        let mut starts = vec![0usize; n + 1];
        for &(r, _, _) in entries {
            starts[r as usize + 1] += 1;
        }
        for r in 0..n {
            starts[r + 1] += starts[r];
        }
        let mut chunks: Vec<Chunk> = (0..chunks_for(n_rows))
            .map(|c| {
                let (lo, hi) = chunk_rows(c, n_rows);
                let (lo, hi) = (lo as usize, hi as usize);
                let base = starts[lo];
                let len = starts[hi] - base;
                Chunk {
                    offsets: starts[lo..=hi].iter().map(|&o| o - base).collect(),
                    items: vec![0; len],
                    scores: vec![0.0; len],
                }
            })
            .collect();
        // Each row's next free slot, chunk-local.
        let mut cursor: Vec<usize> = (0..n)
            .map(|r| starts[r] - starts[r & !(CHUNK_ROWS - 1)])
            .collect();
        drop(starts);
        for &(r, item, score) in entries {
            let chunk = &mut chunks[(r >> CHUNK_SHIFT) as usize];
            let slot = &mut cursor[r as usize];
            chunk.items[*slot] = item;
            chunk.scores[*slot] = score;
            *slot += 1;
        }
        for (c, chunk) in chunks.iter_mut().enumerate() {
            for l in 0..chunk.offsets.len() - 1 {
                let (lo, hi) = (chunk.offsets[l], chunk.offsets[l + 1]);
                let r = (c * CHUNK_ROWS + l) as u32;
                finish(r, &mut chunk.items[lo..hi], &mut chunk.scores[lo..hi])?;
            }
        }
        Ok(Rows {
            n_rows,
            nnz: entries.len(),
            chunks: chunks.into_iter().map(Arc::new).collect(),
        })
    }

    /// Splits flat CSR storage into chunks. `offsets` must hold
    /// `n_rows + 1` monotone entries covering `items`/`scores`.
    pub(crate) fn from_flat(offsets: &[usize], items: &[u32], scores: &[f64]) -> Rows {
        let n_rows = (offsets.len() - 1) as u32;
        let range = |r: u32| offsets[r as usize]..offsets[r as usize + 1];
        Rows::from_fn(
            n_rows,
            |r| range(r).len(),
            |r, it, sc| {
                it.extend_from_slice(&items[range(r)]);
                sc.extend_from_slice(&scores[range(r)]);
            },
        )
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn n_rows(&self) -> u32 {
        self.n_rows
    }

    /// Total number of stored entries.
    #[inline]
    pub(crate) fn nnz(&self) -> usize {
        self.nnz
    }

    /// Row `r`'s items and their aligned scores.
    #[inline]
    pub(crate) fn row(&self, r: u32) -> (&[u32], &[f64]) {
        self.chunks[(r >> CHUNK_SHIFT) as usize].row(r as usize & (CHUNK_ROWS - 1))
    }

    /// Number of entries in row `r`.
    #[inline]
    pub(crate) fn len(&self, r: u32) -> usize {
        self.row(r).0.len()
    }

    /// Row `r`'s items.
    #[inline]
    pub(crate) fn items(&self, r: u32) -> &[u32] {
        self.row(r).0
    }

    /// Row `r`'s scores, aligned with [`Rows::items`].
    #[inline]
    pub(crate) fn scores(&self, r: u32) -> &[f64] {
        self.row(r).1
    }

    /// The `n_rows + 1` offsets of the equivalent flat CSR.
    pub(crate) fn offsets(&self) -> impl Iterator<Item = usize> + '_ {
        let mut base = 0usize;
        std::iter::once(0).chain(self.chunks.iter().flat_map(move |c| {
            let b = base;
            base += c.items.len();
            c.offsets[1..].iter().map(move |&o| b + o)
        }))
    }

    /// The storage as one `(items, scores)` run per chunk, in row order:
    /// concatenated, the runs are the flat CSR's `items` and `scores`.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (&[u32], &[f64])> + Clone + '_ {
        self.chunks
            .iter()
            .map(|c| (c.items.as_slice(), c.scores.as_slice()))
    }

    /// The successor store with `n_rows >= self.n_rows()` rows: every row
    /// in `dirty` (sorted, deduplicated, each `< n_rows`) and every row at
    /// or past the old edge is produced by `rewrite(r, old_items,
    /// old_scores, items, scores)`, which appends at most `row_len(r)`
    /// entries — the old row is empty for a new row — and every other row
    /// is kept. Only chunks holding a rewritten row are rebuilt; the rest
    /// are shared with `self`.
    pub(crate) fn successor(
        &self,
        n_rows: u32,
        dirty: &[u32],
        row_len: impl Fn(u32) -> usize,
        mut rewrite: impl FnMut(u32, &[u32], &[f64], &mut Vec<u32>, &mut Vec<f64>),
    ) -> Rows {
        debug_assert!(n_rows >= self.n_rows);
        debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]));
        let mut touched: Vec<usize> = dirty.iter().map(|&r| (r >> CHUNK_SHIFT) as usize).collect();
        if n_rows > self.n_rows {
            touched.extend((self.n_rows >> CHUNK_SHIFT) as usize..chunks_for(n_rows));
        }
        touched.sort_unstable();
        touched.dedup();
        let mut chunks = self.chunks.clone();
        chunks.resize_with(chunks_for(n_rows), Default::default);
        let mut nnz = self.nnz;
        for c in touched {
            let (lo, hi) = chunk_rows(c, n_rows);
            // Rows `lo..old_hi` exist in `self`; the rest are admitted.
            let old_hi = hi.min(self.n_rows).max(lo);
            let old = &chunks[c];
            let rewritten = dirty[dirty.partition_point(|&d| d < lo)..]
                .iter()
                .copied()
                .take_while(|&d| d < old_hi)
                .chain(old_hi..hi);
            let cap = old.items.len() + rewritten.clone().map(&row_len).sum::<usize>();
            let mut next = Chunk::with_capacity((hi - lo) as usize, cap);
            // Rows below `done` are in `next`; clean runs between rewritten
            // rows are copied in one piece.
            let mut done = lo;
            for r in rewritten {
                next.copy_rows(old, (done - lo) as usize, (r - lo) as usize);
                let (items, scores) = if r < old_hi {
                    old.row((r - lo) as usize)
                } else {
                    (&[][..], &[][..])
                };
                rewrite(r, items, scores, &mut next.items, &mut next.scores);
                next.end_row();
                done = r + 1;
            }
            next.copy_rows(old, (done - lo) as usize, (old_hi - lo) as usize);
            nnz = nnz - old.items.len() + next.items.len();
            chunks[c] = next.sealed();
        }
        Rows {
            n_rows,
            nnz,
            chunks,
        }
    }

    /// For each chunk of `self`, whether `other` holds the very same
    /// allocation at the same index.
    #[cfg(test)]
    pub(crate) fn shared_chunks(&self, other: &Rows) -> Vec<bool> {
        self.chunks
            .iter()
            .enumerate()
            .map(|(c, chunk)| other.chunks.get(c).is_some_and(|o| Arc::ptr_eq(chunk, o)))
            .collect()
    }
}
