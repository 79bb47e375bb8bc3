//! Dataset statistics (regenerates Table 3 of the paper).

use gf_core::RatingMatrix;
use std::fmt;

/// Summary statistics of a rating dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Number of users.
    pub n_users: u32,
    /// Number of items.
    pub n_items: u32,
    /// Number of stored ratings.
    pub n_ratings: usize,
    /// Fraction of the user × item grid that is rated.
    pub density: f64,
    /// Minimum ratings per user.
    pub min_ratings_per_user: usize,
    /// Mean ratings per user.
    pub mean_ratings_per_user: f64,
    /// Maximum ratings per user.
    pub max_ratings_per_user: usize,
    /// Mean rating value.
    pub mean_rating: f64,
    /// Smallest and largest observed rating.
    pub rating_range: (f64, f64),
}

impl DatasetStats {
    /// Computes statistics for a named matrix.
    pub fn compute(name: &str, matrix: &RatingMatrix) -> Self {
        let n = matrix.n_users();
        let mut min_d = usize::MAX;
        let mut max_d = 0usize;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for u in 0..n {
            let d = matrix.degree(u);
            min_d = min_d.min(d);
            max_d = max_d.max(d);
            for &s in matrix.user_scores(u) {
                lo = lo.min(s);
                hi = hi.max(s);
            }
        }
        if matrix.nnz() == 0 {
            lo = 0.0;
            hi = 0.0;
        }
        DatasetStats {
            name: name.to_string(),
            n_users: n,
            n_items: matrix.n_items(),
            n_ratings: matrix.nnz(),
            density: matrix.density(),
            min_ratings_per_user: if n == 0 { 0 } else { min_d },
            mean_ratings_per_user: if n == 0 {
                0.0
            } else {
                matrix.nnz() as f64 / n as f64
            },
            max_ratings_per_user: max_d,
            mean_rating: matrix.global_mean(),
            rating_range: (lo, hi),
        }
    }
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "dataset: {}", self.name)?;
        writeln!(f, "  users:           {}", self.n_users)?;
        writeln!(f, "  items:           {}", self.n_items)?;
        writeln!(f, "  ratings:         {}", self.n_ratings)?;
        writeln!(f, "  density:         {:.5}", self.density)?;
        writeln!(
            f,
            "  ratings/user:    min {} / mean {:.1} / max {}",
            self.min_ratings_per_user, self.mean_ratings_per_user, self.max_ratings_per_user
        )?;
        writeln!(
            f,
            "  rating values:   mean {:.2}, range [{}, {}]",
            self.mean_rating, self.rating_range.0, self.rating_range.1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthConfig;
    use gf_core::RatingScale;

    #[test]
    fn stats_of_dense_example() {
        let m =
            RatingMatrix::from_dense(&[&[1.0, 4.0][..], &[2.0, 3.0]], RatingScale::one_to_five())
                .unwrap();
        let s = DatasetStats::compute("ex", &m);
        assert_eq!(s.n_users, 2);
        assert_eq!(s.n_items, 2);
        assert_eq!(s.n_ratings, 4);
        assert_eq!(s.density, 1.0);
        assert_eq!(s.min_ratings_per_user, 2);
        assert_eq!(s.max_ratings_per_user, 2);
        assert_eq!(s.rating_range, (1.0, 4.0));
        assert!((s.mean_rating - 2.5).abs() < 1e-12);
    }

    #[test]
    fn paper_trim_guarantee_holds_on_synth() {
        // Table 3 pre-processing: each user has rated at least 20 songs.
        let d = SynthConfig::yahoo_music()
            .with_users(100)
            .with_items(200)
            .generate();
        let s = DatasetStats::compute(&d.name, &d.matrix);
        assert!(s.min_ratings_per_user >= 20);
        assert_eq!(s.rating_range.0, 1.0);
        assert_eq!(s.rating_range.1, 5.0);
    }

    #[test]
    fn display_contains_key_fields() {
        let d = SynthConfig::tiny(5, 3).generate();
        let s = DatasetStats::compute(&d.name, &d.matrix);
        let text = s.to_string();
        assert!(text.contains("users"));
        assert!(text.contains("density"));
    }
}
