//! Item-item collaborative filtering.
//!
//! Standard neighborhood CF: similarity between items is the *adjusted
//! cosine* over their co-raters (ratings centered on each user's mean,
//! shrunk toward zero for thin overlaps), and a prediction corrects the
//! bias-model baseline by the similarity-weighted residuals of the target
//! user's own ratings on the `N` most similar items.

use crate::means::BiasModel;
use crate::predictor::RatingPredictor;
use gf_core::{FxHashMap, RatingMatrix, RatingScale};

/// Item-item KNN predictor with precomputed neighbor lists.
#[derive(Debug, Clone)]
pub struct ItemItemKnn {
    scale: RatingScale,
    bias: BiasModel,
    /// For each item, its top-`N` most similar items: `(item, similarity)`,
    /// similarity descending.
    neighbors: Vec<Vec<(u32, f64)>>,
    /// The target user's ratings, re-borrowed at predict time via a row map.
    rows: Vec<FxHashMap<u32, f64>>,
}

impl ItemItemKnn {
    /// Fits the model.
    ///
    /// * `n_neighbors` — neighbor list length per item (e.g. 20);
    /// * `shrinkage` — overlap damping: `sim *= overlap / (overlap + shrinkage)`.
    ///
    /// Complexity: O(Σ_u d_u²) accumulation over co-rated pairs, which is
    /// the standard cost of item-item CF on user-major data.
    pub fn fit(matrix: &RatingMatrix, n_neighbors: usize, shrinkage: f64) -> Self {
        let m = matrix.n_items() as usize;
        let bias = BiasModel::fit(matrix, 25.0);

        // Center each rating on its user's mean.
        let user_means: Vec<f64> = (0..matrix.n_users()).map(|u| matrix.user_mean(u)).collect();

        // Accumulate pairwise dot products and norms over co-raters.
        // Sparse accumulation: map from (lo, hi) packed pair to (dot, n).
        let mut dots: FxHashMap<u64, (f64, u32)> = FxHashMap::default();
        let mut norms = vec![0.0f64; m];
        for u in 0..matrix.n_users() {
            let items = matrix.user_items(u);
            let scores = matrix.user_scores(u);
            let mean = user_means[u as usize];
            for a in 0..items.len() {
                let ca = scores[a] - mean;
                norms[items[a] as usize] += ca * ca;
                for b in (a + 1)..items.len() {
                    let cb = scores[b] - mean;
                    let key = ((items[a] as u64) << 32) | items[b] as u64;
                    let e = dots.entry(key).or_insert((0.0, 0));
                    e.0 += ca * cb;
                    e.1 += 1;
                }
            }
        }

        // Turn accumulators into shrunk cosine similarities.
        let mut sims: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        for (key, (dot, overlap)) in dots {
            let a = (key >> 32) as u32;
            let b = (key & 0xffff_ffff) as u32;
            let denom = (norms[a as usize] * norms[b as usize]).sqrt();
            if denom <= 1e-12 {
                continue;
            }
            let raw = dot / denom;
            let shrunk = raw * overlap as f64 / (overlap as f64 + shrinkage);
            if shrunk.abs() > 1e-9 {
                sims[a as usize].push((b, shrunk));
                sims[b as usize].push((a, shrunk));
            }
        }
        for list in &mut sims {
            list.sort_unstable_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
            list.truncate(n_neighbors);
        }

        // Row maps for O(1) rating lookups at predict time.
        let rows: Vec<FxHashMap<u32, f64>> = (0..matrix.n_users())
            .map(|u| matrix.user_ratings(u).collect())
            .collect();

        ItemItemKnn {
            scale: matrix.scale(),
            bias,
            neighbors: sims,
            rows,
        }
    }

    /// The fitted neighbor list of an item (similarity descending).
    pub fn neighbors(&self, i: u32) -> &[(u32, f64)] {
        &self.neighbors[i as usize]
    }
}

impl RatingPredictor for ItemItemKnn {
    fn predict(&self, u: u32, i: u32) -> f64 {
        let base = self.bias.baseline(u, i);
        let Some(row) = self.rows.get(u as usize) else {
            return self.scale.clamp(base);
        };
        let Some(neigh) = self.neighbors.get(i as usize) else {
            return self.scale.clamp(base);
        };
        let mut num = 0.0;
        let mut den = 0.0;
        for &(j, sim) in neigh {
            if let Some(&r) = row.get(&j) {
                num += sim * (r - self.bias.baseline(u, j));
                den += sim.abs();
            }
        }
        let correction = if den > 1e-12 { num / den } else { 0.0 };
        self.scale.clamp(base + correction)
    }

    fn scale(&self) -> RatingScale {
        self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf_core::RatingMatrix;

    /// Two blocks of items: users like one block and dislike the other.
    fn blocky() -> RatingMatrix {
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|u| {
                if u % 2 == 0 {
                    vec![5.0, 5.0, 4.0, 1.0, 2.0, 1.0]
                } else {
                    vec![1.0, 2.0, 1.0, 5.0, 5.0, 4.0]
                }
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        RatingMatrix::from_dense(&refs, RatingScale::one_to_five()).unwrap()
    }

    #[test]
    fn similar_items_are_neighbors() {
        let m = blocky();
        let knn = ItemItemKnn::fit(&m, 3, 0.0);
        // Item 0's nearest neighbors should come from its own block {1, 2}.
        let neigh = knn.neighbors(0);
        assert!(!neigh.is_empty());
        assert!(
            neigh[0].0 == 1 || neigh[0].0 == 2,
            "unexpected top neighbor: {neigh:?}"
        );
        assert!(neigh[0].1 > 0.0);
    }

    #[test]
    fn predicts_held_out_block_rating() {
        // Hide u0's rating of item 1 and predict it from the block structure.
        let full = blocky();
        let mut triples = Vec::new();
        for u in 0..full.n_users() {
            for (i, s) in full.user_ratings(u) {
                if !(u == 0 && i == 1) {
                    triples.push((u, i, s));
                }
            }
        }
        let train = RatingMatrix::from_triples(
            full.n_users(),
            full.n_items(),
            triples,
            RatingScale::one_to_five(),
        )
        .unwrap();
        let knn = ItemItemKnn::fit(&train, 4, 0.0);
        let p = knn.predict(0, 1);
        assert!(p > 3.5, "block-liking user should predict high, got {p}");
    }

    #[test]
    fn predictions_within_scale() {
        let m = blocky();
        let knn = ItemItemKnn::fit(&m, 4, 2.0);
        for u in 0..m.n_users() {
            for i in 0..m.n_items() {
                let p = knn.predict(u, i);
                assert!((1.0..=5.0).contains(&p));
            }
        }
    }

    #[test]
    fn shrinkage_dampens_similarities() {
        let m = blocky();
        let loose = ItemItemKnn::fit(&m, 5, 0.0);
        let tight = ItemItemKnn::fit(&m, 5, 100.0);
        let l = loose.neighbors(0).first().map(|&(_, s)| s).unwrap_or(0.0);
        let t = tight.neighbors(0).first().map(|&(_, s)| s).unwrap_or(0.0);
        assert!(t < l, "shrinkage should reduce similarity: {t} vs {l}");
    }

    #[test]
    fn cold_indices_fall_back_to_baseline() {
        let m = blocky();
        let knn = ItemItemKnn::fit(&m, 3, 0.0);
        let p = knn.predict(999, 0);
        assert!((1.0..=5.0).contains(&p));
    }
}
