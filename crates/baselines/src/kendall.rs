//! Kendall-Tau distance between user rankings.
//!
//! The baseline measures `dist(u, u')` as the Kendall-Tau distance between
//! the two users' rankings of **all** items, "induced by the ratings they
//! provide" (Section 7). Each user's ranking is made a total order the same
//! way everywhere in this workspace: score descending, ties broken by
//! ascending item id, with unrated items imputed by the
//! [`MissingPolicy`].
//!
//! Between two total orders the distance is the number of discordant pairs,
//! counted in O(m log m) by merge-sort inversion counting (a naive O(m²)
//! reference implementation is kept for tests).

use gf_core::alg::bucket::personal_top_k;
use gf_core::{MissingPolicy, PrefIndex, RatingMatrix};

/// Counts inversions in `seq` (pairs `i < j` with `seq[i] > seq[j]`) by
/// merge sort. O(len log len). The input is consumed as scratch space.
pub fn count_inversions(seq: &mut [u32]) -> u64 {
    let mut buf = vec![0u32; seq.len()];
    sort_count(seq, &mut buf)
}

fn sort_count(seq: &mut [u32], buf: &mut [u32]) -> u64 {
    let n = seq.len();
    if n <= 1 {
        return 0;
    }
    let mid = n / 2;
    let (left, right) = seq.split_at_mut(mid);
    let mut inv = sort_count(left, buf) + sort_count(right, buf);
    // Merge while counting cross inversions.
    let (mut i, mut j, mut o) = (0usize, 0usize, 0usize);
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            buf[o] = left[i];
            i += 1;
        } else {
            inv += (left.len() - i) as u64;
            buf[o] = right[j];
            j += 1;
        }
        o += 1;
    }
    while i < left.len() {
        buf[o] = left[i];
        i += 1;
        o += 1;
    }
    while j < right.len() {
        buf[o] = right[j];
        j += 1;
        o += 1;
    }
    seq.copy_from_slice(&buf[..n]);
    inv
}

/// Naive O(m²) inversion count — the test oracle.
pub fn count_inversions_naive(seq: &[u32]) -> u64 {
    let mut inv = 0u64;
    for i in 0..seq.len() {
        for j in (i + 1)..seq.len() {
            if seq[i] > seq[j] {
                inv += 1;
            }
        }
    }
    inv
}

/// Kendall-Tau distance between two rankings, given as item sequences
/// (best first). Both must be permutations of the same `0..m` item set.
pub fn kendall_tau(rank_a: &[u32], rank_b: &[u32]) -> u64 {
    debug_assert_eq!(rank_a.len(), rank_b.len());
    let m = rank_a.len();
    // Position of each item in b's ranking.
    let mut pos_b = vec![0u32; m];
    for (pos, &item) in rank_b.iter().enumerate() {
        pos_b[item as usize] = pos as u32;
    }
    // Walk a's ranking, collecting b-positions; inversions = discordances.
    let mut seq: Vec<u32> = rank_a.iter().map(|&item| pos_b[item as usize]).collect();
    count_inversions(&mut seq)
}

/// Kendall-Tau distance normalized by the number of pairs `m(m-1)/2`,
/// in `[0, 1]`.
pub fn kendall_tau_normalized(rank_a: &[u32], rank_b: &[u32]) -> f64 {
    let m = rank_a.len() as u64;
    if m < 2 {
        return 0.0;
    }
    kendall_tau(rank_a, rank_b) as f64 / ((m * (m - 1) / 2) as f64)
}

/// User `u`'s total-order ranking over all `m` items (unrated items imputed
/// under `policy`, global tie-break by item id).
pub fn full_ranking(
    matrix: &RatingMatrix,
    prefs: &PrefIndex,
    policy: MissingPolicy,
    u: u32,
) -> Vec<u32> {
    let m = matrix.n_items() as usize;
    personal_top_k(matrix, prefs, policy, u, m).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf_core::RatingScale;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn identical_rankings_distance_zero() {
        let r = vec![2u32, 0, 1, 3];
        assert_eq!(kendall_tau(&r, &r), 0);
        assert_eq!(kendall_tau_normalized(&r, &r), 0.0);
    }

    #[test]
    fn reversed_ranking_is_max_distance() {
        let a: Vec<u32> = (0..6).collect();
        let b: Vec<u32> = (0..6).rev().collect();
        assert_eq!(kendall_tau(&a, &b), 15); // 6 choose 2
        assert_eq!(kendall_tau_normalized(&a, &b), 1.0);
    }

    #[test]
    fn single_swap_distance_one() {
        let a = vec![0u32, 1, 2, 3];
        let b = vec![1u32, 0, 2, 3];
        assert_eq!(kendall_tau(&a, &b), 1);
    }

    #[test]
    fn symmetric() {
        let a = vec![3u32, 1, 0, 2];
        let b = vec![0u32, 2, 3, 1];
        assert_eq!(kendall_tau(&a, &b), kendall_tau(&b, &a));
    }

    #[test]
    fn fast_inversions_match_naive_on_random() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..200 {
            let len = rng.gen_range(0..40);
            let seq: Vec<u32> = (0..len).map(|_| rng.gen_range(0..30)).collect();
            let naive = count_inversions_naive(&seq);
            let mut scratch = seq.clone();
            assert_eq!(count_inversions(&mut scratch), naive, "{seq:?}");
        }
    }

    #[test]
    fn triangle_inequality_holds_for_permutation_metric() {
        // Kendall-Tau over total orders is a metric.
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..50 {
            let m = 8usize;
            let perm = |rng: &mut SmallRng| {
                let mut p: Vec<u32> = (0..m as u32).collect();
                for i in (1..m).rev() {
                    p.swap(i, rng.gen_range(0..=i));
                }
                p
            };
            let (a, b, c) = (perm(&mut rng), perm(&mut rng), perm(&mut rng));
            let ab = kendall_tau(&a, &b);
            let bc = kendall_tau(&b, &c);
            let ac = kendall_tau(&a, &c);
            assert!(ac <= ab + bc, "triangle violated: {ac} > {ab} + {bc}");
        }
    }

    #[test]
    fn sparse_users_get_full_rankings() {
        let m = RatingMatrix::from_triples(
            2,
            5,
            vec![(0, 4, 5.0), (1, 0, 5.0)],
            RatingScale::one_to_five(),
        )
        .unwrap();
        let prefs = PrefIndex::build(&m);
        let r0 = full_ranking(&m, &prefs, MissingPolicy::Min, 0);
        assert_eq!(r0.len(), 5);
        assert_eq!(r0[0], 4);
        let r1 = full_ranking(&m, &prefs, MissingPolicy::Min, 1);
        assert_eq!(r1[0], 0);
        assert!(kendall_tau(&r0, &r1) > 0);
    }
}
