//! Random partition baseline — the zero-information anchor.
//!
//! Any serious group formation algorithm must beat a uniformly random
//! balanced partition. This former exists so experiments can report how
//! much of the baseline's quality comes from clustering at all versus from
//! merely *having* ℓ balanced groups.

use gf_core::{
    FormationConfig, FormationResult, Group, GroupFormer, GroupRecommender, Grouping, PrefIndex,
    RatingMatrix, Result,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Uniformly random balanced partition into at most `ell` groups.
#[derive(Debug, Clone, Copy)]
pub struct RandomFormer {
    seed: u64,
}

impl Default for RandomFormer {
    fn default() -> Self {
        RandomFormer { seed: 0xda7a_0001 }
    }
}

impl RandomFormer {
    /// A random former with the default seed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl GroupFormer for RandomFormer {
    fn name(&self, cfg: &FormationConfig) -> String {
        format!("Random-{}-{}", cfg.semantics.tag(), cfg.aggregation.tag())
    }

    fn form(
        &self,
        matrix: &RatingMatrix,
        _prefs: &PrefIndex,
        cfg: &FormationConfig,
    ) -> Result<FormationResult> {
        cfg.validate(matrix)?;
        let n = matrix.n_users();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut users: Vec<u32> = (0..n).collect();
        for i in (1..users.len()).rev() {
            users.swap(i, rng.gen_range(0..=i));
        }
        let ell = cfg.ell.min(n as usize);
        let mut member_lists: Vec<Vec<u32>> = vec![Vec::new(); ell];
        for (pos, u) in users.into_iter().enumerate() {
            member_lists[pos % ell].push(u);
        }
        let rec = GroupRecommender::new(matrix, cfg.semantics).with_policy(cfg.policy);
        let mut groups = Vec::with_capacity(ell);
        for mut members in member_lists {
            if members.is_empty() {
                continue;
            }
            members.sort_unstable();
            let top_k = rec.top_k(&members, cfg.k);
            let scores: Vec<f64> = top_k.iter().map(|&(_, s)| s).collect();
            let satisfaction = cfg.aggregation.apply(&scores);
            groups.push(Group {
                members: members.into(),
                top_k,
                satisfaction,
            });
        }
        let grouping = Grouping::new(groups);
        let objective = grouping.objective();
        Ok(FormationResult {
            grouping,
            objective,
            n_buckets: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf_core::{Aggregation, GreedyFormer, Semantics};
    use gf_datasets::SynthConfig;

    #[test]
    fn random_partition_is_valid_and_balanced() {
        let d = SynthConfig::tiny(23, 8).generate();
        let p = PrefIndex::build(&d.matrix);
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 3, 5);
        let r = RandomFormer::new().form(&d.matrix, &p, &cfg).unwrap();
        r.grouping.validate(23, 5).unwrap();
        let sizes = r.grouping.sizes();
        assert_eq!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap(), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let d = SynthConfig::tiny(15, 6).generate();
        let p = PrefIndex::build(&d.matrix);
        let cfg = FormationConfig::new(Semantics::AggregateVoting, Aggregation::Sum, 2, 4);
        let a = RandomFormer::new()
            .with_seed(1)
            .form(&d.matrix, &p, &cfg)
            .unwrap();
        let b = RandomFormer::new()
            .with_seed(1)
            .form(&d.matrix, &p, &cfg)
            .unwrap();
        let c = RandomFormer::new()
            .with_seed(2)
            .form(&d.matrix, &p, &cfg)
            .unwrap();
        assert_eq!(a.grouping, b.grouping);
        assert_ne!(a.grouping, c.grouping);
    }

    #[test]
    fn greedy_beats_random_on_structured_data() {
        let d = SynthConfig::yahoo_music()
            .with_users(150)
            .with_items(60)
            .with_user_noise(0.15)
            .generate();
        let p = PrefIndex::build(&d.matrix);
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 3, 10);
        let grd = GreedyFormer::new().form(&d.matrix, &p, &cfg).unwrap();
        let rnd = RandomFormer::new().form(&d.matrix, &p, &cfg).unwrap();
        assert!(
            grd.objective > rnd.objective,
            "greedy {} should beat random {}",
            grd.objective,
            rnd.objective
        );
    }

    #[test]
    fn ell_exceeding_n_caps_at_n() {
        let d = SynthConfig::tiny(4, 3).generate();
        let p = PrefIndex::build(&d.matrix);
        let cfg = FormationConfig::new(Semantics::LeastMisery, Aggregation::Min, 1, 100);
        let r = RandomFormer::new().form(&d.matrix, &p, &cfg).unwrap();
        assert_eq!(r.grouping.len(), 4);
    }
}
