//! Step 3 of the greedy algorithms: scoring the tail group, the
//! `ell`-th group that merges every user Step 2 left unselected.
//!
//! Under [`MissingPolicy::Min`] it is scored from a [`TailAgg`]: dense
//! per-item aggregates of the tail members' ratings, filled by one pass
//! over their rows in ascending user order, which an
//! [`IncrementalFormer`](super::IncrementalFormer) then maintains under
//! member churn. Under `Skip` and `UserMean` the tail is rescored from its
//! member list with the full engine ([`GroupRecommender::top_k`]).

use super::FormationConfig;
use crate::grouping::Group;
use crate::grouprec::{GroupRecommender, MissingPolicy};
use crate::matrix::RatingMatrix;
use crate::semantics::{consensus_score, Semantics};
use std::cmp::Ordering;
use std::sync::Arc;

/// Per-item aggregates of the tail group's ratings under
/// [`MissingPolicy::Min`]: rater count, score sum (AV and LeaderWeighted
/// scoring), sum of squares (Consensus scoring) and rater minimum with lazy
/// recomputation (LM scoring).
///
/// A fresh `TailAgg` ([`TailAgg::of_members`]) accumulates each item's
/// raters in ascending user order, the order
/// [`GroupRecommender::top_k`] accumulates a sorted member list in, and
/// [`TailAgg::top_k`] applies the engine's closed forms, so a cold tail
/// scores bit for bit as the engine scores it on any input.
/// [`TailAgg::add`]/[`TailAgg::remove`] keep it current as users enter and
/// leave the tail; off a dyadic rating grid a removal can leave a sum one
/// ulp from a fresh accumulation.
#[derive(Debug, Clone)]
pub(crate) struct TailAgg {
    r_min: f64,
    /// One slot per item: the slots a rating touches sit together.
    items: Vec<ItemAgg>,
}

/// One item's aggregates over the tail's raters of it.
#[derive(Debug, Clone, Copy)]
struct ItemAgg {
    sum: f64,
    sum_sq: f64,
    min: f64,
    count: u32,
    /// How many raters sit at `min`; when removals drain it the minimum is
    /// marked stale and lazily recomputed at scoring time (only ever
    /// needed for items every tail member rated).
    min_count: u32,
    stale: bool,
}

impl ItemAgg {
    const EMPTY: ItemAgg = ItemAgg {
        sum: 0.0,
        sum_sq: 0.0,
        min: f64::INFINITY,
        count: 0,
        min_count: 0,
        stale: false,
    };

    fn add(&mut self, score: f64) {
        self.count += 1;
        self.sum += score;
        self.sum_sq += score * score;
        if self.stale {
            return;
        }
        // Branch-free: raters arrive in no order of their scores.
        let lower = self.count == 1 || score < self.min;
        let tie = u32::from(score == self.min);
        self.min_count = if lower { 1 } else { self.min_count + tie };
        self.min = if lower { score } else { self.min };
    }
}

impl TailAgg {
    /// The maintained tail for `cfg` over the tail members `members`
    /// (ascending): `Some` under `MissingPolicy::Min`, for every semantics
    /// (the moments kept here cover all four closed forms). `Skip` and
    /// `UserMean` rescore the tail from its members instead.
    pub(crate) fn for_config(
        cfg: &FormationConfig,
        matrix: &RatingMatrix,
        members: &[u32],
    ) -> Option<Self> {
        matches!(cfg.policy, MissingPolicy::Min).then(|| TailAgg::of_members(matrix, members))
    }

    /// The aggregates of `members` (ascending), filled by one pass over
    /// their rows.
    fn of_members(matrix: &RatingMatrix, members: &[u32]) -> Self {
        let mut items = vec![ItemAgg::EMPTY; matrix.n_items() as usize];
        for &u in members {
            for (&i, &s) in matrix.user_items(u).iter().zip(matrix.user_scores(u)) {
                items[i as usize].add(s);
            }
        }
        TailAgg {
            r_min: matrix.scale().min(),
            items,
        }
    }

    /// Extends the per-item aggregates for newly admitted items (which no
    /// tail member has rated yet, so every new slot starts empty).
    pub(crate) fn grow_items(&mut self, n_items: usize) {
        self.items.resize(n_items, ItemAgg::EMPTY);
    }

    /// Counts a tail member's rating of `item`.
    pub(crate) fn add(&mut self, item: u32, score: f64) {
        self.items[item as usize].add(score);
    }

    /// Uncounts a tail member's rating of `item`.
    pub(crate) fn remove(&mut self, item: u32, score: f64) {
        let a = &mut self.items[item as usize];
        debug_assert!(a.count > 0, "removing unseen rating");
        a.count -= 1;
        a.sum -= score;
        a.sum_sq -= score * score;
        if a.count == 0 {
            // Empty items reset exactly, killing any off-grid sum drift.
            *a = ItemAgg::EMPTY;
            return;
        }
        if a.stale {
            return;
        }
        if score == a.min {
            a.min_count -= 1;
            if a.min_count == 0 {
                a.stale = true;
            }
        }
    }

    /// The items no tail member has rated, ascending.
    pub(crate) fn unrated(&self) -> Vec<u32> {
        self.items
            .iter()
            .enumerate()
            .filter_map(|(i, a)| (a.count == 0).then_some(i as u32))
            .collect()
    }

    fn recompute_min(&mut self, matrix: &RatingMatrix, tail: &[u32], item: u32) {
        let mut mn = f64::INFINITY;
        let mut cnt = 0u32;
        for &u in tail {
            if let Some(s) = matrix.get(u, item) {
                match s.total_cmp(&mn) {
                    Ordering::Less => {
                        mn = s;
                        cnt = 1;
                    }
                    Ordering::Equal => cnt += 1,
                    Ordering::Greater => {}
                }
            }
        }
        let a = &mut self.items[item as usize];
        a.min = mn;
        a.min_count = cnt;
        a.stale = false;
    }

    /// The tail's top-`k` list, exactly as [`GroupRecommender::top_k`]
    /// computes it under `MissingPolicy::Min` for the tail members `tail`
    /// (ascending): the same closed form per semantics, with non-raters
    /// imputed at `r_min` and items no member rated at the `r_min` floor.
    fn top_k(
        &mut self,
        matrix: &RatingMatrix,
        tail: &[u32],
        semantics: Semantics,
        k: usize,
    ) -> Vec<(u32, f64)> {
        let r_min = self.r_min;
        let tail_len = tail.len();
        let g = tail_len as f64;
        // LeaderWeighted's leader: the lowest-id tail member.
        let leader = tail.first().copied().unwrap_or(0);
        let mut scored: Vec<(u32, f64)> = Vec::with_capacity(self.items.len());
        for i in 0..self.items.len() {
            let a = self.items[i];
            let count = a.count as usize;
            let miss = (tail_len - count) as f64;
            let score = match semantics {
                Semantics::LeastMisery => {
                    if count == tail_len {
                        if a.stale {
                            self.recompute_min(matrix, tail, i as u32);
                        }
                        self.items[i].min
                    } else {
                        r_min
                    }
                }
                Semantics::AggregateVoting => a.sum + miss * r_min,
                _ if count == 0 => r_min,
                Semantics::Consensus { lambda } => consensus_score(
                    lambda,
                    g,
                    a.sum + miss * r_min,
                    a.sum_sq + miss * r_min * r_min,
                ),
                Semantics::LeaderWeighted => {
                    let s_l = matrix.get(leader, i as u32).unwrap_or(r_min);
                    (a.sum + miss * r_min + s_l) / (g + 1.0)
                }
            };
            scored.push((i as u32, score));
        }
        let cmp = |a: &(u32, f64), b: &(u32, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        if scored.len() > k {
            scored.select_nth_unstable_by(k - 1, cmp);
            scored.truncate(k);
        }
        scored.sort_unstable_by(cmp);
        scored
    }
}

/// The tail group of the non-empty member list `members` (ascending) under
/// `cfg`: scored through `agg` — the aggregates of exactly these members —
/// when the policy keeps one, else rescored from the members with the full
/// engine.
pub(crate) fn tail_group(
    matrix: &RatingMatrix,
    cfg: &FormationConfig,
    members: Arc<[u32]>,
    agg: Option<&mut TailAgg>,
) -> Group {
    let top_k = match agg {
        Some(agg) => agg.top_k(matrix, &members, cfg.semantics, cfg.k),
        None => GroupRecommender::new(matrix, cfg.semantics)
            .with_policy(cfg.policy)
            .top_k(&members, cfg.k),
    };
    let scores: Vec<f64> = top_k.iter().map(|&(_, s)| s).collect();
    Group {
        satisfaction: cfg.aggregation.apply(&scores),
        top_k,
        members,
    }
}

/// The users flagged in `in_tail`, ascending.
pub(crate) fn members_of(in_tail: &[bool]) -> Vec<u32> {
    in_tail
        .iter()
        .enumerate()
        .filter_map(|(u, &t)| t.then_some(u as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregation;
    use crate::scale::RatingScale;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn a_cold_tail_scores_bit_for_bit_as_the_engine() {
        // Off-grid scores (a continuous scale) make the check bit-exact
        // in earnest: the dense pass must add each item's raters in the
        // engine's order, not merely reach the same rounded value.
        let mut rng = SmallRng::seed_from_u64(20);
        for trial in 0..40 {
            let (n, m) = (rng.gen_range(1..30u32), rng.gen_range(1..12u32));
            let mut triples = Vec::new();
            for (u, i) in (0..n).flat_map(|u| (0..m).map(move |i| (u, i))) {
                if rng.gen_range(0..3) != 0 {
                    triples.push((u, i, 1.0 + rng.gen_range(0..4000) as f64 / 1000.0));
                }
            }
            let matrix =
                RatingMatrix::from_triples(n, m, triples, RatingScale::new(1.0, 5.0).unwrap())
                    .unwrap();
            let members: Vec<u32> = (0..n).filter(|u| (u + trial) % 3 != 0).collect();
            if members.is_empty() {
                continue;
            }
            for semantics in Semantics::all() {
                for k in [1, 3, m as usize + 2] {
                    let cfg = FormationConfig::new(semantics, Aggregation::Sum, k, 2);
                    let mut agg = TailAgg::for_config(&cfg, &matrix, &members);
                    let dense = tail_group(&matrix, &cfg, members.clone().into(), agg.as_mut());
                    let engine = tail_group(&matrix, &cfg, members.clone().into(), None);
                    assert_eq!(dense, engine, "trial {trial} {semantics} k={k}");
                }
            }
        }
    }
}
