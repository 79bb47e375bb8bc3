//! Step 3 of the greedy algorithms: scoring the tail group, the
//! `ell`-th group that merges every user Step 2 left unselected.
//!
//! Under [`MissingPolicy::Min`] it is scored from a [`TailAgg`]: dense
//! per-item aggregates of the tail members' ratings, only those the
//! semantics scores, filled by one pass over their rows in ascending user
//! order, which an
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
/// [`MissingPolicy::Min`], as many as the grouping's semantics scores
/// ([`Moments`]): each item's rater count, and its rater minimum with lazy
/// recomputation (LM), score sum (AV and LeaderWeighted) or score sum and
/// sum of squares (Consensus).
///
/// A fresh `TailAgg` ([`TailAgg::for_config`]) accumulates each item's
/// raters in ascending user order, the order
/// [`GroupRecommender::top_k`] accumulates a sorted member list in, in one
/// pass over the members' rows that updates only those aggregates, and
/// [`TailAgg::top_k`] applies the engine's closed forms, so a cold tail
/// scores bit for bit as the engine scores it on any input.
/// [`TailAgg::add`]/[`TailAgg::remove`] keep the same aggregates current
/// as users enter and leave the tail; off a dyadic rating grid a removal
/// can leave a sum one ulp from a fresh accumulation.
#[derive(Debug, Clone)]
pub(crate) struct TailAgg {
    r_min: f64,
    moments: Moments,
    /// One 16-byte slot per item.
    items: Vec<ItemAgg>,
    /// Per item, the raters' sum of squared scores under
    /// [`Moments::SumSq`]; empty otherwise.
    sum_sq: Vec<f64>,
}

/// The aggregates a [`TailAgg`] keeps besides the rater count: what its
/// semantics' closed form reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Moments {
    /// The rater minimum and how many raters sit at it (LM).
    Min,
    /// The score sum (AV, LeaderWeighted).
    Sum,
    /// The score sum and sum of squares (Consensus).
    SumSq,
}

impl Moments {
    /// The slot of an item no tail member rated.
    fn empty(self) -> ItemAgg {
        let value = match self {
            Moments::Min => f64::INFINITY,
            Moments::Sum | Moments::SumSq => 0.0,
        };
        ItemAgg {
            value,
            count: 0,
            min_count: 0,
        }
    }
}

/// One item's aggregates over the tail's raters of it.
#[derive(Debug, Clone, Copy)]
struct ItemAgg {
    /// The raters' minimum score under [`Moments::Min`], else their score
    /// sum.
    value: f64,
    count: u32,
    /// Under [`Moments::Min`], how many raters sit at the minimum. When
    /// removals drain it while raters remain, the minimum is stale and is
    /// recomputed at scoring time (only ever needed for items every tail
    /// member rated).
    min_count: u32,
}

impl ItemAgg {
    fn stale(&self) -> bool {
        self.count > 0 && self.min_count == 0
    }

    /// Counts a rater's `score` under [`Moments::Min`].
    fn add_min(&mut self, score: f64) {
        if self.stale() {
            self.count += 1;
        } else {
            self.add_to_min(score);
        }
    }

    /// [`ItemAgg::add_min`] into a slot whose minimum is not stale, as
    /// every slot of a fresh fill is.
    fn add_to_min(&mut self, score: f64) {
        self.count += 1;
        // Branch-free: raters arrive in no order of their scores, and an
        // empty slot's minimum is +inf.
        let lower = score < self.value;
        let tie = u32::from(score == self.value);
        self.min_count = if lower { 1 } else { self.min_count + tie };
        self.value = if lower { score } else { self.value };
    }

    fn add_sum(&mut self, score: f64) {
        self.count += 1;
        self.value += score;
    }
}

impl TailAgg {
    /// The maintained tail for `cfg` over the tail members `members`
    /// (ascending): `Some` under `MissingPolicy::Min`, for every semantics.
    /// `Skip` and `UserMean` rescore the tail from its members instead.
    pub(crate) fn for_config(
        cfg: &FormationConfig,
        matrix: &RatingMatrix,
        members: &[u32],
    ) -> Option<Self> {
        if !matches!(cfg.policy, MissingPolicy::Min) {
            return None;
        }
        let moments = match cfg.semantics {
            Semantics::LeastMisery => Moments::Min,
            Semantics::AggregateVoting | Semantics::LeaderWeighted => Moments::Sum,
            Semantics::Consensus { .. } => Moments::SumSq,
        };
        let m = matrix.n_items() as usize;
        let mut agg = TailAgg {
            r_min: matrix.scale().min(),
            moments,
            items: vec![moments.empty(); m],
            sum_sq: Vec::new(),
        };
        let ratings = members.iter().flat_map(|&u| {
            matrix
                .user_items(u)
                .iter()
                .copied()
                .zip(matrix.user_scores(u).iter().copied())
        });
        match moments {
            Moments::Min => ratings.for_each(|(i, s)| agg.items[i as usize].add_to_min(s)),
            Moments::Sum => ratings.for_each(|(i, s)| agg.items[i as usize].add_sum(s)),
            Moments::SumSq => {
                agg.sum_sq = vec![0.0; m];
                ratings.for_each(|(i, s)| agg.add(i, s));
            }
        }
        Some(agg)
    }

    /// Extends the per-item aggregates for newly admitted items (which no
    /// tail member has rated yet, so every new slot starts empty).
    pub(crate) fn grow_items(&mut self, n_items: usize) {
        self.items.resize(n_items, self.moments.empty());
        if self.moments == Moments::SumSq {
            self.sum_sq.resize(n_items, 0.0);
        }
    }

    /// Counts a tail member's rating of `item`.
    pub(crate) fn add(&mut self, item: u32, score: f64) {
        let a = &mut self.items[item as usize];
        match self.moments {
            Moments::Min => a.add_min(score),
            Moments::Sum => a.add_sum(score),
            Moments::SumSq => {
                a.add_sum(score);
                self.sum_sq[item as usize] += score * score;
            }
        }
    }

    /// Uncounts a tail member's rating of `item`.
    pub(crate) fn remove(&mut self, item: u32, score: f64) {
        let a = &mut self.items[item as usize];
        debug_assert!(a.count > 0, "removing unseen rating");
        a.count -= 1;
        if a.count == 0 {
            // Empty items reset exactly, killing any off-grid sum drift.
            *a = self.moments.empty();
            if let Some(sq) = self.sum_sq.get_mut(item as usize) {
                *sq = 0.0;
            }
            return;
        }
        match self.moments {
            Moments::Min => {
                if a.min_count > 0 && score == a.value {
                    a.min_count -= 1;
                }
            }
            Moments::Sum => a.value -= score,
            Moments::SumSq => {
                a.value -= score;
                self.sum_sq[item as usize] -= score * score;
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
        a.value = mn;
        a.min_count = cnt;
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
                        if a.stale() {
                            self.recompute_min(matrix, tail, i as u32);
                        }
                        self.items[i].value
                    } else {
                        r_min
                    }
                }
                Semantics::AggregateVoting => a.value + miss * r_min,
                _ if count == 0 => r_min,
                Semantics::Consensus { lambda } => consensus_score(
                    lambda,
                    g,
                    a.value + miss * r_min,
                    self.sum_sq[i] + miss * r_min * r_min,
                ),
                Semantics::LeaderWeighted => {
                    let s_l = matrix.get(leader, i as u32).unwrap_or(r_min);
                    (a.value + miss * r_min + s_l) / (g + 1.0)
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

    #[test]
    fn a_maintained_tail_scores_bit_for_bit_as_the_engine() {
        // The cold fill above, then members leave and join one at a time
        // and the maintained aggregates must score as the engine scores
        // the current members after every step. Half-star ratings keep
        // the maintained sums exact. The last instance is fully dense:
        // every tail member rates every item, so LM's minima are drained
        // by removals and recomputed at scoring time.
        let mut rng = SmallRng::seed_from_u64(23);
        let mut drained = false;
        for trial in 0..30 {
            let dense = trial == 29;
            let (n, m) = (rng.gen_range(2..24u32), rng.gen_range(1..9u32));
            let mut triples = Vec::new();
            for (u, i) in (0..n).flat_map(|u| (0..m).map(move |i| (u, i))) {
                if dense || rng.gen_range(0..3) != 0 {
                    triples.push((u, i, rng.gen_range(2..=10) as f64 / 2.0));
                }
            }
            let matrix =
                RatingMatrix::from_triples(n, m, triples, RatingScale::one_to_five()).unwrap();
            let steps: Vec<u32> = (0..3 * n).map(|_| rng.gen_range(0..n)).collect();
            for semantics in Semantics::all() {
                let cfg = FormationConfig::new(semantics, Aggregation::Sum, 3, 2);
                let mut members: Vec<u32> = (0..n).filter(|u| (u + trial) % 2 == 0).collect();
                let mut agg = TailAgg::for_config(&cfg, &matrix, &members).unwrap();
                for &u in &steps {
                    match members.binary_search(&u) {
                        Ok(at) if members.len() > 1 => {
                            members.remove(at);
                            for (i, s) in matrix.user_ratings(u) {
                                agg.remove(i, s);
                            }
                        }
                        Ok(_) => continue,
                        Err(at) => {
                            members.insert(at, u);
                            for (i, s) in matrix.user_ratings(u) {
                                agg.add(i, s);
                            }
                        }
                    }
                    drained |= agg.moments == Moments::Min && agg.items.iter().any(ItemAgg::stale);
                    let kept = tail_group(&matrix, &cfg, members.clone().into(), Some(&mut agg));
                    let engine = tail_group(&matrix, &cfg, members.clone().into(), None);
                    assert_eq!(kept, engine, "trial {trial} {semantics} after user {u}");
                }
            }
        }
        assert!(drained, "no LM minimum was drained");
    }
}
