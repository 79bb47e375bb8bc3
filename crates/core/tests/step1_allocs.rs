//! Step 1 allocates per bucket, not per user: a counting global allocator
//! (counting per thread, so other test threads do not interfere) bounds
//! the allocations of a sequential bucket build by a constant per bucket.
//! Reading a user's top-`k` key into owned vectors would cost at least
//! three allocations per user, about a hundred times this bound here.
//! A whole cold formation, and the incremental former it is the first pass
//! of, stays within two allocations per bucket: the former keeps the flat
//! Step-1 table, not one key, member list and map entry per bucket.

use gf_core::alg::bucket::build_buckets;
use gf_core::{
    Aggregation, FormationConfig, GreedyFormer, GroupFormer, IncrementalFormer, MissingPolicy,
    PrefIndex, RatingMatrix, RatingScale, Semantics,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread tears down its
    // locals.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the count is a
// const-initialized thread local without a destructor, so counting never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// 20k users, each a copy of one of 200 random profiles over 40 items,
/// plus a few users with fewer than `k` ratings (whose top-`k` lists are
/// padded).
fn corpus() -> RatingMatrix {
    let mut rng = SmallRng::seed_from_u64(7);
    let profiles: Vec<Vec<(u32, f64)>> = (0..200)
        .map(|_| {
            (0..40u32)
                .filter_map(|i| {
                    let score = rng.gen_range(0..=5);
                    (score > 0).then_some((i, score as f64))
                })
                .collect()
        })
        .collect();
    let mut triples = Vec::new();
    for u in 0..20_000u32 {
        if u % 1000 == 999 {
            triples.push((u, u % 40, 3.0));
            continue;
        }
        let profile = &profiles[rng.gen_range(0..profiles.len())];
        triples.extend(profile.iter().map(|&(i, s)| (u, i, s)));
    }
    RatingMatrix::from_triples(20_000, 40, triples, RatingScale::one_to_five()).unwrap()
}

#[test]
fn sequential_step1_allocates_per_bucket_not_per_user() {
    let matrix = corpus();
    let prefs = PrefIndex::build(&matrix);
    for (semantics, aggregation) in [
        (Semantics::LeastMisery, Aggregation::Min),
        (Semantics::LeastMisery, Aggregation::Sum),
        (Semantics::AggregateVoting, Aggregation::Min),
    ] {
        let before = allocations();
        let buckets = build_buckets(
            &matrix,
            &prefs,
            semantics,
            aggregation,
            MissingPolicy::Min,
            5,
        );
        let made = allocations() - before;
        let b = buckets.len() as u64;
        assert!(
            (150..=300).contains(&b),
            "{semantics} {aggregation}: {b} buckets, expected about 200"
        );
        assert!(
            made <= 16 * b + 64,
            "{semantics} {aggregation}: {made} allocations for {b} buckets of 20000 users"
        );
    }
}

#[test]
fn a_cold_formation_allocates_per_bucket_not_per_user() {
    let matrix = corpus();
    let prefs = PrefIndex::build(&matrix);
    for semantics in [Semantics::LeastMisery, Semantics::AggregateVoting] {
        let cfg = FormationConfig::new(semantics, Aggregation::Min, 5, 10);
        let before = allocations();
        let former = IncrementalFormer::new(&matrix, &prefs, cfg).unwrap();
        let made_new = allocations() - before;
        let b = former.result().n_buckets as u64;
        let before = allocations();
        let formed = GreedyFormer::new().form(&matrix, &prefs, &cfg).unwrap();
        let made_form = allocations() - before;
        assert_eq!(&formed, former.result());
        assert!(
            (150..=300).contains(&b),
            "{semantics}: {b} buckets, expected about 200"
        );
        for (what, made) in [("IncrementalFormer::new", made_new), ("form", made_form)] {
            assert!(
                made <= 2 * b + 64,
                "{semantics} {what}: {made} allocations for {b} buckets of 20000 users"
            );
        }
    }
}
