//! Group recommendation semantics (Definitions 1 and 2 of the paper, plus
//! two post-paper variants grounded in the related literature).
//!
//! A semantics turns the individual preference ratings of a group's members
//! for an item into a single *group satisfaction score* for that item:
//!
//! * **Least misery (LM)**: `sc(g, i) = min_{u in g} sc(u, i)` — the group is
//!   only as happy as its least happy member.
//! * **Aggregate voting (AV)**: `sc(g, i) = sum_{u in g} sc(u, i)` — the
//!   group's happiness is the sum of its members' happiness.
//! * **Consensus (CONS)**: `sc(g, i) = mean_u sc(u, i) - λ · std_u sc(u, i)`
//!   — mean quality discounted by intra-group disagreement (the population
//!   standard deviation), after the consensus objective of Ioannidis,
//!   Muthukrishnan & Yan ("Directions in group recommendation", and the
//!   relevance-vs-disagreement balance of Amer-Yahia et al.). `λ = 0`
//!   degenerates to the plain average.
//! * **Leader weighted (LDR)**: the group's *leader* (by convention its
//!   lowest-id member — deterministic, and in deployment the organizer who
//!   created the group) counts twice:
//!   `sc(g, i) = (Σ_u sc(u, i) + sc(leader, i)) / (|g| + 1)` — a normalized
//!   leadership-weighted aggregation after Yu & Konomi's leader-influence
//!   model.
//!
//! LM and AV are *decomposable*: the group score is a fold over member
//! scores in any order ([`Semantics::fold`] / [`Semantics::identity`]).
//! Consensus needs second moments and LeaderWeighted needs to know which
//! member is the leader, so neither fits a plain fold — callers of
//! [`Semantics::fold`] must gate on [`Semantics::is_decomposable`] and fall
//! back to [`Semantics::combine`] (or the scoring engines in `grouprec`).
//! Code that keeps per-item moments instead of a fold (count, sum, sum of
//! squares, plus the leader's row) covers all four semantics and needs no
//! such gate: the incremental former's maintained tail does exactly that.
//!
//! ## Theorem-2-style bounds
//!
//! The paper's Theorem 2 bounds the satisfaction loss of the greedy Step-3
//! merge by `r_max` per displaced item, relying on every group score lying
//! on the rating scale `[r_min, r_max]`:
//!
//! * **LeaderWeighted**: the score is a weighted average of member scores
//!   with positive weights summing to 1, so `sc(g, i) ∈ [r_min, r_max]`
//!   whenever member scores do — the Theorem-2 premise *holds* and the
//!   per-item `r_max` bound carries over verbatim
//!   (`tests`::`leader_weighted_is_a_weighted_average_on_the_scale`).
//! * **Consensus**: the premise *fails* for `λ > 0`: two members at the
//!   scale extremes give `mean − λ·std < r_min` once
//!   `λ > (r_max + r_min) / (r_max − r_min)`; e.g. on a 1–5 scale,
//!   members rating (1, 5) under `λ = 2` score `3 − 2·2 = −1 < 1`.
//!   The counterexample is pinned in
//!   `tests`::`consensus_violates_the_scale_lower_bound` and the greedy
//!   former therefore reports no error bound for Consensus
//!   (`FormationConfig::error_bound` returns `None`); the score is still
//!   bounded *above* by `r_max`, which is what the per-item loss bound
//!   uses.

use std::fmt;
use std::hash::{Hash, Hasher};

/// The group recommendation semantics: the paper's two (Definitions 1–2)
/// plus the consensus and leader-weighted variants from the related
/// literature.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Semantics {
    /// Least misery (`F_LM`, Definition 1): the minimum member rating.
    LeastMisery,
    /// Aggregate voting (`F_AV`, Definition 2): the sum of member ratings.
    AggregateVoting,
    /// Consensus: mean member rating minus `lambda` times the population
    /// standard deviation of the member ratings (disagreement penalty).
    Consensus {
        /// Disagreement penalty weight, `λ ≥ 0`. `0` is the plain average.
        lambda: f64,
    },
    /// Leader-weighted average: the lowest-id member's rating counts twice,
    /// normalized — `(Σ ratings + leader rating) / (|g| + 1)`.
    LeaderWeighted,
}

impl PartialEq for Semantics {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Semantics::LeastMisery, Semantics::LeastMisery) => true,
            (Semantics::AggregateVoting, Semantics::AggregateVoting) => true,
            (Semantics::LeaderWeighted, Semantics::LeaderWeighted) => true,
            // Bit equality so `Eq`/`Hash` stay coherent (NaN never parses).
            (Semantics::Consensus { lambda: a }, Semantics::Consensus { lambda: b }) => {
                a.to_bits() == b.to_bits()
            }
            _ => false,
        }
    }
}

impl Eq for Semantics {}

impl Hash for Semantics {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Semantics::LeastMisery => state.write_u8(0),
            Semantics::AggregateVoting => state.write_u8(1),
            Semantics::Consensus { lambda } => {
                state.write_u8(2);
                state.write_u64(lambda.to_bits());
            }
            Semantics::LeaderWeighted => state.write_u8(3),
        }
    }
}

impl Semantics {
    /// Whether the group score is a plain fold over member scores in any
    /// order ([`Semantics::fold`] / [`Semantics::identity`]). True for the
    /// paper's LM and AV; false for Consensus (needs second moments) and
    /// LeaderWeighted (needs member identity).
    #[inline]
    pub fn is_decomposable(self) -> bool {
        matches!(self, Semantics::LeastMisery | Semantics::AggregateVoting)
    }

    /// Folds one more member score into a running group score.
    ///
    /// `acc` starts at [`Semantics::identity`].
    ///
    /// # Panics
    ///
    /// For the non-decomposable variants (Consensus, LeaderWeighted) — gate
    /// on [`Semantics::is_decomposable`] and use [`Semantics::combine`] or
    /// the `grouprec` engines instead.
    #[inline]
    pub fn fold(self, acc: f64, member_score: f64) -> f64 {
        match self {
            Semantics::LeastMisery => acc.min(member_score),
            Semantics::AggregateVoting => acc + member_score,
            Semantics::Consensus { .. } | Semantics::LeaderWeighted => {
                panic!("{self} is not decomposable; use combine()")
            }
        }
    }

    /// The identity element of [`Semantics::fold`].
    ///
    /// # Panics
    ///
    /// For the non-decomposable variants — see [`Semantics::fold`].
    #[inline]
    pub fn identity(self) -> f64 {
        match self {
            Semantics::LeastMisery => f64::INFINITY,
            Semantics::AggregateVoting => 0.0,
            Semantics::Consensus { .. } | Semantics::LeaderWeighted => {
                panic!("{self} is not decomposable; use combine()")
            }
        }
    }

    /// Combines a slice of member scores into the group score for one item.
    ///
    /// For [`Semantics::LeaderWeighted`] the slice is by convention ordered
    /// by ascending member id, so element 0 is the leader's score.
    pub fn combine(self, member_scores: &[f64]) -> f64 {
        match self {
            Semantics::LeastMisery => member_scores.iter().fold(f64::INFINITY, |a, &s| a.min(s)),
            Semantics::AggregateVoting => member_scores.iter().sum(),
            Semantics::Consensus { lambda } => {
                let n = member_scores.len();
                if n == 0 {
                    return 0.0;
                }
                let sum: f64 = member_scores.iter().sum();
                let sum_sq: f64 = member_scores.iter().map(|&s| s * s).sum();
                consensus_score(lambda, n as f64, sum, sum_sq)
            }
            Semantics::LeaderWeighted => {
                let n = member_scores.len();
                if n == 0 {
                    return 0.0;
                }
                let sum: f64 = member_scores.iter().sum();
                (sum + member_scores[0]) / (n as f64 + 1.0)
            }
        }
    }

    /// Short uppercase tag used in algorithm names
    /// (`LM` / `AV` / `CONS` / `LDR`).
    pub fn tag(self) -> &'static str {
        match self {
            Semantics::LeastMisery => "LM",
            Semantics::AggregateVoting => "AV",
            Semantics::Consensus { .. } => "CONS",
            Semantics::LeaderWeighted => "LDR",
        }
    }

    /// The paper's two semantics, for exhaustive sweeps pinned to the
    /// paper's worked examples. (The extended family is
    /// [`Semantics::extended`].)
    pub fn all() -> [Semantics; 2] {
        [Semantics::LeastMisery, Semantics::AggregateVoting]
    }

    /// The full semantics family — the paper's two plus Consensus (at the
    /// given `lambda`) and LeaderWeighted — for sweeps over every variant.
    pub fn extended(lambda: f64) -> [Semantics; 4] {
        [
            Semantics::LeastMisery,
            Semantics::AggregateVoting,
            Semantics::Consensus { lambda },
            Semantics::LeaderWeighted,
        ]
    }
}

/// `mean − λ · population std` from streaming moments: member count `n`,
/// `Σ x` and `Σ x²`. Shared by [`Semantics::combine`] and the scoring
/// engines so every code path computes bit-identical scores.
#[inline]
pub(crate) fn consensus_score(lambda: f64, n: f64, sum: f64, sum_sq: f64) -> f64 {
    let mean = sum / n;
    // Population variance; clamp the catastrophic-cancellation negatives.
    let var = (sum_sq / n - mean * mean).max(0.0);
    mean - lambda * var.sqrt()
}

impl fmt::Display for Semantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lm_is_min() {
        let s = Semantics::LeastMisery;
        assert_eq!(s.combine(&[4.0, 2.0, 5.0]), 2.0);
        assert_eq!(s.combine(&[3.0]), 3.0);
    }

    #[test]
    fn av_is_sum() {
        let s = Semantics::AggregateVoting;
        assert_eq!(s.combine(&[4.0, 2.0, 5.0]), 11.0);
        assert_eq!(s.combine(&[]), 0.0);
    }

    #[test]
    fn identity_is_neutral() {
        for sem in Semantics::all() {
            assert_eq!(sem.fold(sem.identity(), 3.5), 3.5);
        }
    }

    #[test]
    fn example3_group_scores() {
        // Example 3: u1 = (5,4,1), u2 = (1,4,5) under LM:
        // i1 -> 1, i2 -> 4, i3 -> 1.
        let lm = Semantics::LeastMisery;
        assert_eq!(lm.combine(&[5.0, 1.0]), 1.0);
        assert_eq!(lm.combine(&[4.0, 4.0]), 4.0);
        assert_eq!(lm.combine(&[1.0, 5.0]), 1.0);
    }

    #[test]
    fn display_tags() {
        assert_eq!(Semantics::LeastMisery.to_string(), "LM");
        assert_eq!(Semantics::AggregateVoting.to_string(), "AV");
        assert_eq!(Semantics::Consensus { lambda: 0.5 }.to_string(), "CONS");
        assert_eq!(Semantics::LeaderWeighted.to_string(), "LDR");
    }

    #[test]
    fn consensus_is_mean_minus_lambda_std() {
        // (1, 5): mean 3, population std 2.
        let c = Semantics::Consensus { lambda: 0.5 };
        assert!((c.combine(&[1.0, 5.0]) - 2.0).abs() < 1e-12);
        // λ = 0 is the plain average.
        let avg = Semantics::Consensus { lambda: 0.0 };
        assert!((avg.combine(&[1.0, 5.0]) - 3.0).abs() < 1e-12);
        // Unanimous groups pay no penalty regardless of λ.
        let hard = Semantics::Consensus { lambda: 10.0 };
        assert_eq!(hard.combine(&[4.0, 4.0, 4.0]), 4.0);
    }

    #[test]
    fn leader_weighted_doubles_the_first_member() {
        // Leader (element 0) at 5, the rest at 1: (5 + 1 + 1 + 5) / 4 = 3.
        let s = Semantics::LeaderWeighted;
        assert!((s.combine(&[5.0, 1.0, 1.0]) - 3.0).abs() < 1e-12);
        // Singleton: the leader is the whole group.
        assert_eq!(s.combine(&[4.0]), 4.0);
    }

    #[test]
    fn leader_weighted_is_a_weighted_average_on_the_scale() {
        // Theorem-2 premise check: with every member score in
        // [r_min, r_max], the LDR score is a convex combination and stays
        // on the scale — the paper's per-item r_max loss bound carries
        // over (see module docs).
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        let s = Semantics::LeaderWeighted;
        for _ in 0..200 {
            let n = rng.gen_range(1..8usize);
            let scores: Vec<f64> = (0..n).map(|_| rng.gen_range(1..=5) as f64).collect();
            let sc = s.combine(&scores);
            let lo = scores.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(
                sc >= lo - 1e-12 && sc <= hi + 1e-12,
                "LDR {sc} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn consensus_violates_the_scale_lower_bound() {
        // Documented counterexample (module docs): on a 1–5 scale with
        // λ = 2, members rating (1, 5) score 3 − 2·2 = −1 < r_min, so the
        // Theorem-2 premise fails and no greedy error bound is claimed.
        let c = Semantics::Consensus { lambda: 2.0 };
        let sc = c.combine(&[1.0, 5.0]);
        assert!((sc - -1.0).abs() < 1e-12);
        assert!(sc < 1.0, "consensus score {sc} must fall below r_min = 1");
        // It is still bounded above by the mean (λ ≥ 0), hence by r_max.
        assert!(sc <= 5.0);
    }

    #[test]
    fn consensus_of_a_group_all_at_r_min_is_exactly_r_min() {
        // The unrated-item floor: under `MissingPolicy::Min` every member
        // of a group that did not rate an item imputes r_min, and the
        // maintained tail scores those moments through `consensus_score`
        // while the cold engine returns r_min directly. Both must agree
        // bit for bit on every built-in scale.
        use crate::scale::RatingScale;
        for scale in [
            RatingScale::one_to_five(),
            RatingScale::zero_to_five(),
            RatingScale::half_star(),
            RatingScale::binary(),
        ] {
            let r_min = scale.min();
            for lambda in [0.0, 0.5, 2.0] {
                for n in 1..=4096u32 {
                    let miss = n as f64;
                    let sc = consensus_score(lambda, miss, miss * r_min, miss * r_min * r_min);
                    assert_eq!(sc.to_bits(), r_min.to_bits(), "n {n}, λ {lambda}");
                }
                let sc = Semantics::Consensus { lambda }.combine(&[r_min; 7]);
                assert_eq!(sc.to_bits(), r_min.to_bits());
            }
        }
    }

    #[test]
    fn decomposability_gates() {
        assert!(Semantics::LeastMisery.is_decomposable());
        assert!(Semantics::AggregateVoting.is_decomposable());
        assert!(!Semantics::Consensus { lambda: 0.0 }.is_decomposable());
        assert!(!Semantics::LeaderWeighted.is_decomposable());
    }

    #[test]
    fn eq_and_hash_distinguish_lambda_by_bits() {
        use crate::fxhash::FxHashMap;
        let a = Semantics::Consensus { lambda: 0.5 };
        let b = Semantics::Consensus { lambda: 0.5 };
        let c = Semantics::Consensus { lambda: 1.0 };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, Semantics::LeaderWeighted);
        let mut map: FxHashMap<Semantics, u32> = FxHashMap::default();
        map.insert(a, 1);
        assert_eq!(map.get(&b), Some(&1));
        assert_eq!(map.get(&c), None);
    }

    #[test]
    fn extended_covers_all_variants() {
        let family = Semantics::extended(0.5);
        assert_eq!(family.len(), 4);
        assert_eq!(family[..2], Semantics::all());
    }
}
