//! Anytime local search — the `OPT~` proxy.
//!
//! The paper calibrates greedy quality against CPLEX optima at 200 users /
//! 100 items / 10 groups, a scale far beyond exact DP or branch-and-bound.
//! [`LocalSearch`] fills that role: it starts from the greedy solution and
//! hill-climbs with *relocate* (move one user to another / a new group) and
//! *swap* (exchange two users across groups) moves until a full pass makes
//! no progress. Deterministic, and exact-matching on every instance small
//! enough to verify against [`PartitionDp`](crate::PartitionDp) in this
//! crate's tests.

use gf_core::{
    FormationConfig, FormationResult, FxHashMap, Group, GroupFormer, GroupRecommender, Grouping,
    PrefIndex, RatingMatrix, Result,
};

/// Knobs for [`LocalSearch`].
#[derive(Debug, Clone, Copy)]
pub struct LocalSearchConfig {
    /// Maximum full improvement passes.
    pub max_rounds: usize,
    /// Whether to try pairwise swap moves (costlier, occasionally escapes
    /// relocate-only local optima).
    pub allow_swaps: bool,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        LocalSearchConfig {
            max_rounds: 20,
            allow_swaps: true,
        }
    }
}

/// Hill-climbing group formation starting from the greedy solution.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalSearch {
    /// Search configuration.
    pub config: LocalSearchConfig,
}

impl LocalSearch {
    /// A searcher with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the configuration.
    pub fn with_config(config: LocalSearchConfig) -> Self {
        LocalSearch { config }
    }
}

/// Satisfaction cache keyed by the (sorted) member list.
struct SatCache<'a> {
    rec: GroupRecommender<'a>,
    k: usize,
    agg: gf_core::Aggregation,
    memo: FxHashMap<Box<[u32]>, f64>,
}

impl SatCache<'_> {
    fn score(&mut self, members: &[u32]) -> f64 {
        if members.is_empty() {
            return 0.0;
        }
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        if let Some(&s) = self.memo.get(members) {
            return s;
        }
        let s = self.rec.satisfaction(members, self.k, self.agg);
        self.memo.insert(members.into(), s);
        s
    }
}

/// Sorted-insert and sorted-remove helpers for member lists.
fn without(members: &[u32], u: u32) -> Vec<u32> {
    members.iter().copied().filter(|&v| v != u).collect()
}

fn with(members: &[u32], u: u32) -> Vec<u32> {
    let mut v = Vec::with_capacity(members.len() + 1);
    let pos = members.partition_point(|&x| x < u);
    v.extend_from_slice(&members[..pos]);
    v.push(u);
    v.extend_from_slice(&members[pos..]);
    v
}

impl GroupFormer for LocalSearch {
    fn name(&self, cfg: &FormationConfig) -> String {
        format!("OPT~-{}-{}", cfg.semantics.tag(), cfg.aggregation.tag())
    }

    fn form(
        &self,
        matrix: &RatingMatrix,
        prefs: &PrefIndex,
        cfg: &FormationConfig,
    ) -> Result<FormationResult> {
        cfg.validate(matrix)?;
        let start = gf_core::GreedyFormer::new().form(matrix, prefs, cfg)?;
        let mut groups: Vec<Vec<u32>> = start
            .grouping
            .groups
            .iter()
            .map(|g| g.members.to_vec())
            .collect();
        let mut cache = SatCache {
            rec: GroupRecommender::new(matrix, cfg.semantics).with_policy(cfg.policy),
            k: cfg.k,
            agg: cfg.aggregation,
            memo: FxHashMap::default(),
        };
        let mut sats: Vec<f64> = groups.iter().map(|g| cache.score(g)).collect();

        const EPS: f64 = 1e-9;
        for _round in 0..self.config.max_rounds {
            let mut improved = false;

            // Relocate moves: best target for each user, applied eagerly.
            let mut gi = 0;
            while gi < groups.len() {
                let mut mi = 0;
                while mi < groups[gi].len() {
                    let u = groups[gi][mi];
                    let src_without = without(&groups[gi], u);
                    let src_now = sats[gi];
                    let src_after = cache.score(&src_without);
                    let mut best: Option<(Option<usize>, f64)> = None; // (target, delta)
                    for (ti, tgt) in groups.iter().enumerate() {
                        if ti == gi {
                            continue;
                        }
                        let tgt_with = with(tgt, u);
                        let delta = (src_after + cache.score(&tgt_with)) - (src_now + sats[ti]);
                        if delta > EPS && best.is_none_or(|(_, d)| delta > d) {
                            best = Some((Some(ti), delta));
                        }
                    }
                    // Opening a new singleton group, if budget remains and
                    // the source keeps at least one member.
                    if groups.len() < cfg.ell && groups[gi].len() > 1 {
                        let delta = (src_after + cache.score(&[u])) - src_now;
                        if delta > EPS && best.is_none_or(|(_, d)| delta > d) {
                            best = Some((None, delta));
                        }
                    }
                    if let Some((target, _)) = best {
                        groups[gi] = src_without;
                        sats[gi] = src_after;
                        match target {
                            Some(ti) => {
                                groups[ti] = with(&groups[ti], u);
                                sats[ti] = cache.score(&groups[ti]);
                            }
                            None => {
                                groups.push(vec![u]);
                                sats.push(cache.score(&[u]));
                            }
                        }
                        improved = true;
                        if groups[gi].is_empty() {
                            groups.swap_remove(gi);
                            sats.swap_remove(gi);
                            if gi >= groups.len() {
                                // The emptied group was the last one; no
                                // group was swapped into this slot.
                                break;
                            }
                            // Re-examine the group swapped into position gi.
                            mi = 0;
                            continue;
                        }
                        // Member list shifted; stay at the same index.
                        continue;
                    }
                    mi += 1;
                }
                gi += 1;
            }

            // Swap moves.
            if self.config.allow_swaps {
                'swap_outer: for ga in 0..groups.len() {
                    for gb in (ga + 1)..groups.len() {
                        for ai in 0..groups[ga].len() {
                            for bi in 0..groups[gb].len() {
                                let (u, v) = (groups[ga][ai], groups[gb][bi]);
                                let a_new = with(&without(&groups[ga], u), v);
                                let b_new = with(&without(&groups[gb], v), u);
                                let delta = (cache.score(&a_new) + cache.score(&b_new))
                                    - (sats[ga] + sats[gb]);
                                if delta > EPS {
                                    groups[ga] = a_new;
                                    groups[gb] = b_new;
                                    sats[ga] = cache.score(&groups[ga]);
                                    sats[gb] = cache.score(&groups[gb]);
                                    improved = true;
                                    continue 'swap_outer;
                                }
                            }
                        }
                    }
                }
            }

            if !improved {
                break;
            }
        }

        let rec = GroupRecommender::new(matrix, cfg.semantics).with_policy(cfg.policy);
        let out: Vec<Group> = groups
            .iter()
            .zip(&sats)
            .map(|(members, &satisfaction)| Group {
                members: members.as_slice().into(),
                top_k: rec.top_k(members, cfg.k),
                satisfaction,
            })
            .collect();
        let grouping = Grouping::new(out);
        debug_assert!(grouping.validate(matrix.n_users(), cfg.ell).is_ok());
        let objective = grouping.objective();
        Ok(FormationResult {
            grouping,
            objective,
            n_buckets: start.n_buckets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::PartitionDp;
    use gf_core::{Aggregation, GreedyFormer, RatingScale, Semantics};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn example1() -> (RatingMatrix, PrefIndex) {
        let m = RatingMatrix::from_dense(
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
        .unwrap();
        let p = PrefIndex::build(&m);
        (m, p)
    }

    #[test]
    fn recovers_example1_optimum_from_suboptimal_greedy() {
        // Greedy scores 11; the optimum is 12. Local search must close the gap.
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 3);
        let r = LocalSearch::new().form(&m, &p, &cfg).unwrap();
        assert_eq!(r.objective, 12.0);
    }

    #[test]
    fn never_worse_than_greedy() {
        let (m, p) = example1();
        for sem in Semantics::all() {
            for agg in Aggregation::paper_set() {
                for ell in 1..=5usize {
                    let cfg = FormationConfig::new(sem, agg, 2, ell);
                    let grd = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
                    let ls = LocalSearch::new().form(&m, &p, &cfg).unwrap();
                    assert!(
                        ls.objective >= grd.objective - 1e-9,
                        "{sem} {agg} ell={ell}: {} < {}",
                        ls.objective,
                        grd.objective
                    );
                    ls.grouping.validate(6, ell).unwrap();
                }
            }
        }
    }

    #[test]
    fn matches_exact_on_random_small_instances() {
        let mut rng = SmallRng::seed_from_u64(55);
        let mut exact_hits = 0usize;
        let mut trials = 0usize;
        for trial in 0..30 {
            let n = rng.gen_range(3..8u32);
            let m = rng.gen_range(2..5u32);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..m).map(|_| rng.gen_range(1..=5) as f64).collect())
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let mat = RatingMatrix::from_dense(&refs, RatingScale::one_to_five()).unwrap();
            let prefs = PrefIndex::build(&mat);
            let sem = if trial % 2 == 0 {
                Semantics::LeastMisery
            } else {
                Semantics::AggregateVoting
            };
            let cfg = FormationConfig::new(sem, Aggregation::Min, 1 + trial % 2, 1 + trial % 3);
            let opt = PartitionDp::new().form(&mat, &prefs, &cfg).unwrap();
            let ls = LocalSearch::new().form(&mat, &prefs, &cfg).unwrap();
            assert!(ls.objective <= opt.objective + 1e-9, "LS exceeded OPT?!");
            trials += 1;
            if (ls.objective - opt.objective).abs() < 1e-9 {
                exact_hits += 1;
            }
        }
        // Hill climbing is a heuristic, but on these tiny instances it
        // should find the optimum nearly always.
        assert!(
            exact_hits * 10 >= trials * 9,
            "local search matched OPT on only {exact_hits}/{trials} instances"
        );
    }

    #[test]
    fn relocate_only_mode_still_improves() {
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 3);
        let ls = LocalSearch::with_config(LocalSearchConfig {
            max_rounds: 10,
            allow_swaps: false,
        })
        .form(&m, &p, &cfg)
        .unwrap();
        assert!(ls.objective >= 11.0);
    }

    #[test]
    fn zero_rounds_returns_greedy() {
        let (m, p) = example1();
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 3);
        let grd = GreedyFormer::new().form(&m, &p, &cfg).unwrap();
        let ls = LocalSearch::with_config(LocalSearchConfig {
            max_rounds: 0,
            allow_swaps: false,
        })
        .form(&m, &p, &cfg)
        .unwrap();
        assert_eq!(ls.objective, grd.objective);
    }

    #[test]
    fn opt_proxy_name() {
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Sum, 5, 10);
        assert_eq!(LocalSearch::new().name(&cfg), "OPT~-LM-SUM");
    }
}
