//! Candidate items for a group: the items **no member has rated**.
//!
//! Group recommendation literature filters recommendation lists to
//! *candidate items* — re-recommending something a member already
//! consumed wastes the slot (Section 2.2's disjoint-preference model
//! makes every rated item a known quantity). The serving layer asks this
//! question once per `(grouping, group)` pair and caches the answer until
//! the group's members or their ratings change, so the engine is built
//! for repeated queries over one shared CSR matrix:
//!
//! * [`CandidateEngine`] keeps an epoch-marked scratch array sized to the
//!   catalogue. A query bumps the epoch, stamps every member's rated
//!   items, and emits the unstamped columns — no per-query allocation and
//!   no re-zeroing between queries.
//! * [`brute_force_candidates`] is the obvious set-difference, kept as
//!   the oracle the property tests compare the engine against.

use crate::error::{GfError, Result};
use crate::matrix::RatingMatrix;

/// The set difference computed the obvious way: collect every item any
/// member rated, return the rest in ascending item order. O(n_items)
/// scratch per call — the reference implementation for tests and offline
/// tooling, not the serving path.
pub fn brute_force_candidates(matrix: &RatingMatrix, members: &[u32]) -> Result<Vec<u32>> {
    let n_users = matrix.n_users();
    let n_items = matrix.n_items();
    let mut rated = vec![false; n_items as usize];
    for &u in members {
        if u >= n_users {
            return Err(GfError::UserOutOfRange { user: u, n_users });
        }
        for &i in matrix.user_items(u) {
            rated[i as usize] = true;
        }
    }
    Ok((0..n_items).filter(|&i| !rated[i as usize]).collect())
}

/// Reusable candidate-item scratch for repeated queries against one (or
/// successive) rating matrices.
///
/// `mark[i] == epoch` means item `i` was rated by some member of the
/// *current* query's group. Advancing the epoch invalidates every stamp
/// at once, so the scratch is never cleared; on the (astronomically
/// rare) epoch wrap the array is re-zeroed explicitly to keep stale
/// stamps from a previous era out.
#[derive(Debug, Default)]
pub struct CandidateEngine {
    mark: Vec<u32>,
    epoch: u32,
}

impl CandidateEngine {
    /// An engine with empty scratch; the first query sizes it.
    pub fn new() -> Self {
        CandidateEngine::default()
    }

    /// Writes the candidate items for `members` — ascending item order —
    /// into `out` (cleared first). Allocation-free once `out` and the
    /// scratch have reached the catalogue size.
    pub fn candidates_into(
        &mut self,
        matrix: &RatingMatrix,
        members: &[u32],
        out: &mut Vec<u32>,
    ) -> Result<()> {
        let n_users = matrix.n_users();
        let n_items = matrix.n_items() as usize;
        if self.mark.len() < n_items {
            self.mark.resize(n_items, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.mark.fill(0);
                1
            }
        };
        let epoch = self.epoch;
        for &u in members {
            if u >= n_users {
                return Err(GfError::UserOutOfRange { user: u, n_users });
            }
            for &i in matrix.user_items(u) {
                self.mark[i as usize] = epoch;
            }
        }
        out.clear();
        for (i, &m) in self.mark[..n_items].iter().enumerate() {
            if m != epoch {
                out.push(i as u32);
            }
        }
        Ok(())
    }

    /// [`CandidateEngine::candidates_into`], returning a fresh vector.
    pub fn candidates_for_group(
        &mut self,
        matrix: &RatingMatrix,
        members: &[u32],
    ) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        self.candidates_into(matrix, members, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixBuilder;
    use crate::scale::RatingScale;

    fn matrix(triples: &[(u32, u32, f64)], n: u32, m: u32) -> RatingMatrix {
        let mut b = MatrixBuilder::new(n, m, RatingScale::one_to_five());
        for &(u, i, s) in triples {
            b.push(u, i, s).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn engine_matches_brute_force() {
        let m = matrix(&[(0, 0, 5.0), (0, 2, 3.0), (1, 1, 4.0), (2, 2, 2.0)], 3, 4);
        let mut engine = CandidateEngine::new();
        for members in [&[0u32][..], &[1], &[0, 1], &[0, 1, 2], &[]] {
            assert_eq!(
                engine.candidates_for_group(&m, members).unwrap(),
                brute_force_candidates(&m, members).unwrap(),
                "members {members:?}"
            );
        }
    }

    #[test]
    fn no_member_means_everything_is_candidate() {
        let m = matrix(&[(0, 0, 5.0)], 2, 3);
        let mut engine = CandidateEngine::new();
        assert_eq!(engine.candidates_for_group(&m, &[]).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn epochs_do_not_leak_between_queries() {
        let m = matrix(&[(0, 0, 5.0), (1, 1, 4.0)], 2, 3);
        let mut engine = CandidateEngine::new();
        assert_eq!(engine.candidates_for_group(&m, &[0]).unwrap(), vec![1, 2]);
        // The second query must not see user 0's stamp from the first.
        assert_eq!(engine.candidates_for_group(&m, &[1]).unwrap(), vec![0, 2]);
    }

    #[test]
    fn out_of_range_member_is_an_error() {
        let m = matrix(&[(0, 0, 5.0)], 1, 2);
        let mut engine = CandidateEngine::new();
        assert!(matches!(
            engine.candidates_for_group(&m, &[7]),
            Err(GfError::UserOutOfRange { user: 7, .. })
        ));
        assert!(matches!(
            brute_force_candidates(&m, &[7]),
            Err(GfError::UserOutOfRange { user: 7, .. })
        ));
    }

    #[test]
    fn scratch_grows_with_the_catalogue() {
        let small = matrix(&[(0, 0, 5.0)], 1, 2);
        let big = matrix(&[(0, 3, 5.0)], 1, 6);
        let mut engine = CandidateEngine::new();
        assert_eq!(engine.candidates_for_group(&small, &[0]).unwrap(), vec![1]);
        assert_eq!(
            engine.candidates_for_group(&big, &[0]).unwrap(),
            vec![0, 1, 2, 4, 5]
        );
    }
}
