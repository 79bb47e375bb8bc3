//! Property-based tests for the prediction substrate: every predictor must
//! respect the rating scale on arbitrary inputs, completion must preserve
//! known ratings, and error metrics must satisfy their inequalities.

use gf_core::{RatingMatrix, RatingScale};
use gf_recsys::{
    complete_matrix, complete_matrix_threaded, mae, rmse, BiasModel, ItemItemKnn,
    MatrixFactorization, MfConfig, RatingPredictor,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct SparseInstance {
    n: u32,
    m: u32,
    triples: Vec<(u32, u32, f64)>,
}

fn sparse_instance() -> impl Strategy<Value = SparseInstance> {
    (2..12u32, 2..10u32)
        .prop_flat_map(|(n, m)| {
            (
                Just(n),
                Just(m),
                proptest::collection::vec((0..n, 0..m, 1..=5u8), 1..50),
            )
        })
        .prop_map(|(n, m, cells)| {
            let mut seen = std::collections::HashSet::new();
            let mut triples = Vec::new();
            for (u, i, r) in cells {
                if seen.insert((u, i)) {
                    triples.push((u, i, r as f64));
                }
            }
            SparseInstance { n, m, triples }
        })
}

fn matrix_of(inst: &SparseInstance) -> RatingMatrix {
    RatingMatrix::from_triples(
        inst.n,
        inst.m,
        inst.triples.iter().copied(),
        RatingScale::one_to_five(),
    )
    .unwrap()
}

fn quick_mf() -> MfConfig {
    MfConfig {
        n_factors: 4,
        n_epochs: 5,
        learning_rate: 0.02,
        regularization: 0.05,
        seed: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All three predictors stay within the scale everywhere, including
    /// out-of-range indices.
    #[test]
    fn predictors_respect_scale(inst in sparse_instance()) {
        let m = matrix_of(&inst);
        let bias = BiasModel::fit(&m, 10.0);
        let knn = ItemItemKnn::fit(&m, 5, 1.0);
        let mf = MatrixFactorization::fit(&m, quick_mf());
        let predictors: [&dyn RatingPredictor; 3] = [&bias, &knn, &mf];
        for p in predictors {
            for u in 0..inst.n + 2 {
                for i in 0..inst.m + 2 {
                    let v = p.predict(u, i);
                    prop_assert!((1.0..=5.0).contains(&v), "({u},{i}) -> {v}");
                }
            }
        }
    }

    /// Completion is dense, preserves every known rating, and respects an
    /// optional quantization grid.
    #[test]
    fn completion_contract(inst in sparse_instance(), quantize in any::<bool>()) {
        let m = matrix_of(&inst);
        let bias = BiasModel::fit(&m, 10.0);
        let step = if quantize { Some(1.0) } else { None };
        let full = complete_matrix(&m, &bias, step).unwrap();
        prop_assert_eq!(full.density(), 1.0);
        for u in 0..m.n_users() {
            for (i, s) in m.user_ratings(u) {
                prop_assert_eq!(full.get(u, i), Some(s));
            }
            if quantize {
                for (_, s) in full.user_ratings(u) {
                    prop_assert_eq!(s, s.round());
                }
            }
        }
    }

    /// Threaded completion is bit-for-bit identical to the sequential path
    /// across thread counts {1, 2, 7} and auto mode, with arbitrary
    /// predictors and with/without quantization.
    #[test]
    fn threaded_completion_matches_sequential(
        inst in sparse_instance(),
        quantize in any::<bool>(),
        use_knn in any::<bool>(),
    ) {
        let m = matrix_of(&inst);
        let step = if quantize { Some(1.0) } else { None };
        let seq = if use_knn {
            let knn = ItemItemKnn::fit(&m, 5, 1.0);
            let seq = complete_matrix(&m, &knn, step).unwrap();
            for threads in [1usize, 2, 7, 0] {
                let par = complete_matrix_threaded(&m, &knn, step, threads).unwrap();
                prop_assert_eq!(&seq, &par, "knn threads={}", threads);
            }
            seq
        } else {
            let bias = BiasModel::fit(&m, 10.0);
            let seq = complete_matrix(&m, &bias, step).unwrap();
            for threads in [1usize, 2, 7, 0] {
                let par = complete_matrix_threaded(&m, &bias, step, threads).unwrap();
                prop_assert_eq!(&seq, &par, "bias threads={}", threads);
            }
            seq
        };
        prop_assert_eq!(seq.density(), 1.0);
    }

    /// MAE <= RMSE always; both are zero on a perfect predictor.
    #[test]
    fn error_metric_inequalities(inst in sparse_instance()) {
        let m = matrix_of(&inst);
        struct Oracle<'a>(&'a RatingMatrix);
        impl RatingPredictor for Oracle<'_> {
            fn predict(&self, u: u32, i: u32) -> f64 {
                self.0.get(u, i).unwrap_or(3.0)
            }
            fn scale(&self) -> RatingScale {
                RatingScale::one_to_five()
            }
        }
        let test: Vec<(u32, u32, f64)> = inst.triples.clone();
        let oracle = Oracle(&m);
        prop_assert_eq!(rmse(&oracle, &test), 0.0);
        prop_assert_eq!(mae(&oracle, &test), 0.0);
        let bias = BiasModel::fit(&m, 10.0);
        prop_assert!(mae(&bias, &test) <= rmse(&bias, &test) + 1e-12);
    }
}
