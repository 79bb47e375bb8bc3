//! Step 2's order over a former's buckets: an indexed binary heap under
//! [`bucket::pop_order`], the one comparator every Step-2 selection uses.

use super::bucket::{self, BucketTable, NONE};
use crate::aggregate::Aggregation;
use crate::semantics::Semantics;

/// A heaped bucket: its satisfaction, cached when it entered, and its id.
type Entry = (f64, u32);

/// The live buckets of a [`BucketTable`] in a binary heap whose root pops
/// first. It is heapified once, in `O(B)` comparisons, and
/// [`Order::best`] reads the `n` best off it by a best-first walk in
/// `O(n log n)`. Its comparator reads live table state, so a bucket
/// leaves the heap ([`Order::remove`]) before its first change and
/// re-enters ([`Order::insert`]) once its scores are recomputed, each in
/// `O(log B)`.
#[derive(Debug, Clone)]
pub(crate) struct Order {
    semantics: Semantics,
    aggregation: Aggregation,
    heap: Vec<Entry>,
    /// Per bucket id: its place in `heap`, or `NONE`.
    slot: Vec<u32>,
}

impl Order {
    /// Every bucket of `table` with members, heapified.
    pub(crate) fn of(table: &BucketTable, semantics: Semantics, aggregation: Aggregation) -> Self {
        let sat = |b: u32| aggregation.apply(table.score_vector(b, semantics));
        let mut order = Order {
            semantics,
            aggregation,
            heap: table.ids().map(|b| (sat(b), b)).collect(),
            slot: vec![NONE; table.len()],
        };
        for (i, &(_, b)) in order.heap.iter().enumerate() {
            order.slot[b as usize] = i as u32;
        }
        for i in (0..order.heap.len() / 2).rev() {
            order.sift(table, i, false);
        }
        order
    }

    /// Whether bucket `b` is in the heap.
    pub(crate) fn contains(&self, b: u32) -> bool {
        self.slot.get(b as usize).is_some_and(|&i| i != NONE)
    }

    /// Restores the heap around slot `i`: its bucket moves down while a
    /// child pops before it, and first up while it pops before its parent
    /// when `up` (not while heapifying, where the slots above are not yet
    /// in order).
    fn sift(&mut self, table: &BucketTable, i: usize, up: bool) {
        let before = pops_before(table, self.semantics);
        let slot = &mut self.slot;
        let mut placed = |(_, b): Entry, i: usize| slot[b as usize] = i as u32;
        let i = if up {
            sift_up(&mut self.heap, i, &before, &mut placed)
        } else {
            i
        };
        sift_down(&mut self.heap, i, &before, &mut placed);
    }

    /// Takes bucket `b` out of the heap, before its state changes.
    pub(crate) fn remove(&mut self, table: &BucketTable, b: u32) {
        let i = self.slot[b as usize] as usize;
        self.slot[b as usize] = NONE;
        let last = self.heap.pop().expect("a heaped bucket");
        if i < self.heap.len() {
            self.heap[i] = last;
            self.sift(table, i, true);
        }
    }

    /// Puts bucket `b`, at its current state, into the heap.
    pub(crate) fn insert(&mut self, table: &BucketTable, b: u32) {
        if self.slot.len() < table.len() {
            self.slot.resize(table.len(), NONE);
        }
        let sat = self
            .aggregation
            .apply(table.score_vector(b, self.semantics));
        self.heap.push((sat, b));
        self.sift(table, self.heap.len() - 1, true);
    }

    /// The `n` buckets that pop first, in pop order: a best-first walk
    /// down the heap, whose frontier is a small heap of its slots.
    pub(crate) fn best(&self, table: &BucketTable, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n.min(self.heap.len()));
        let pops = pops_before(table, self.semantics);
        let before = |x: usize, y: usize| pops(self.heap[x], self.heap[y]);
        let mut frontier: Vec<usize> = (!self.heap.is_empty()).then_some(0).into_iter().collect();
        while out.len() < n && !frontier.is_empty() {
            let i = frontier.swap_remove(0);
            if !frontier.is_empty() {
                sift_down(&mut frontier, 0, &before, &mut |_, _| {});
            }
            out.push(self.heap[i].1);
            for child in [2 * i + 1, 2 * i + 2]
                .into_iter()
                .filter(|&c| c < self.heap.len())
            {
                frontier.push(child);
                let at = frontier.len() - 1;
                sift_up(&mut frontier, at, &before, &mut |_, _| {});
            }
        }
        out
    }

    /// Test support: every bucket of `table` with members sits in the
    /// heap exactly once at its recorded slot, no empty or released one
    /// has a slot, each cached satisfaction is fresh, and no bucket pops
    /// before its parent.
    pub(crate) fn check(&self, table: &BucketTable) -> Result<(), String> {
        let mut heaped: Vec<u32> = self.heap.iter().map(|&(_, b)| b).collect();
        heaped.sort_unstable();
        if !heaped.iter().copied().eq(table.ids()) {
            return Err(format!(
                "the heap's {} ids are not the buckets with members",
                heaped.len()
            ));
        }
        let pops = pops_before(table, self.semantics);
        for (i, &(sat, b)) in self.heap.iter().enumerate() {
            let fresh = self
                .aggregation
                .apply(table.score_vector(b, self.semantics));
            let fault = if self.slot[b as usize] as usize != i {
                "is not at its recorded slot"
            } else if sat.to_bits() != fresh.to_bits() {
                "has a stale satisfaction"
            } else if i > 0 && pops((sat, b), self.heap[(i - 1) / 2]) {
                "pops before its parent"
            } else {
                continue;
            };
            return Err(format!("bucket {b} {fault}"));
        }
        match (0..self.slot.len() as u32).find(|&b| self.contains(b) && table.size(b) == 0) {
            Some(b) => Err(format!("the empty bucket {b} has a slot")),
            None => Ok(()),
        }
    }
}

/// The Step-2 order over heaped buckets of `table`: whether `x` pops
/// before `y`.
fn pops_before(table: &BucketTable, semantics: Semantics) -> impl Fn(Entry, Entry) -> bool + '_ {
    move |x, y| {
        let rank = |(sat, b): Entry| (sat, table.ranked(b, semantics));
        bucket::pop_order(rank(x), rank(y)).is_lt()
    }
}

/// Moves `h[i]` up the binary heap `h` (root first under `before`) while
/// it comes before its parent; `placed` sees each entry written to a
/// slot. Returns the entry's final slot.
fn sift_up<T: Copy>(
    h: &mut [T],
    mut i: usize,
    before: &impl Fn(T, T) -> bool,
    placed: &mut impl FnMut(T, usize),
) -> usize {
    let x = h[i];
    while i > 0 && before(x, h[(i - 1) / 2]) {
        h[i] = h[(i - 1) / 2];
        placed(h[i], i);
        i = (i - 1) / 2;
    }
    h[i] = x;
    placed(x, i);
    i
}

/// Moves `h[i]` down the binary heap `h` while a child comes before it
/// (see [`sift_up`]).
fn sift_down<T: Copy>(
    h: &mut [T],
    mut i: usize,
    before: &impl Fn(T, T) -> bool,
    placed: &mut impl FnMut(T, usize),
) {
    let x = h[i];
    loop {
        let mut child = 2 * i + 1;
        if child >= h.len() {
            break;
        }
        if child + 1 < h.len() && before(h[child + 1], h[child]) {
            child += 1;
        }
        if !before(h[child], x) {
            break;
        }
        h[i] = h[child];
        placed(h[i], i);
        i = child;
    }
    h[i] = x;
    placed(x, i);
}
