//! FNV-1a 64-bit state digests — the fingerprint the crash-recovery
//! harness compares across process boundaries.
//!
//! A digest is order-sensitive and framed: every field is folded in with
//! its width, and variable-length runs are preceded by their length, so
//! `[1,2]+[3]` and `[1]+[2,3]` hash differently. Two serving processes
//! agree on the digest iff they agree bit-for-bit on the hashed state
//! (up to 64-bit collision odds, irrelevant for a test oracle).

use gf_core::{FormationResult, RatingMatrix};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher over structured state.
#[derive(Debug, Clone)]
pub struct StateDigest {
    hash: u64,
}

impl Default for StateDigest {
    fn default() -> Self {
        StateDigest::new()
    }
}

impl StateDigest {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        StateDigest { hash: FNV_OFFSET }
    }

    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Folds an `f64`'s raw bit pattern (bit-for-bit, `-0.0 != 0.0`).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a length-prefixed `u32` run.
    pub fn u32_slice(&mut self, slice: &[u32]) -> &mut Self {
        self.usize(slice.len());
        for &v in slice {
            self.u32(v);
        }
        self
    }

    /// Folds a length-prefixed `u64` run.
    pub fn u64_slice(&mut self, slice: &[u64]) -> &mut Self {
        self.usize(slice.len());
        for &v in slice {
            self.u64(v);
        }
        self
    }

    /// Folds a length-prefixed `f64` run (raw bit patterns).
    pub fn f64_slice(&mut self, slice: &[f64]) -> &mut Self {
        self.usize(slice.len());
        for &v in slice {
            self.f64(v);
        }
        self
    }

    /// Folds the full CSR of a rating matrix: dimensions, scale and
    /// every row's `(item, score)` pairs.
    pub fn matrix(&mut self, m: &RatingMatrix) -> &mut Self {
        self.u32(m.n_users());
        self.u32(m.n_items());
        self.f64(m.scale().min());
        self.f64(m.scale().max());
        // The flat CSR `(offsets, items, scores)`, streamed chunk by chunk
        // so the value does not depend on how the rows are stored.
        self.usize(m.n_users() as usize + 1);
        for o in m.csr_offsets() {
            self.usize(o);
        }
        self.usize(m.nnz());
        for (items, _) in m.csr_runs() {
            for &i in items {
                self.u32(i);
            }
        }
        self.usize(m.nnz());
        for (_, scores) in m.csr_runs() {
            for &s in scores {
                self.f64(s);
            }
        }
        self
    }

    /// Folds an emitted formation: objective, bucket count, and each
    /// group's members, top-`k` list and satisfaction.
    pub fn formation(&mut self, f: &FormationResult) -> &mut Self {
        self.f64(f.objective);
        self.usize(f.n_buckets);
        self.usize(f.grouping.groups.len());
        for g in &f.grouping.groups {
            self.u32_slice(&g.members);
            self.usize(g.top_k.len());
            for &(item, score) in &g.top_k {
                self.u32(item);
                self.f64(score);
            }
            self.f64(g.satisfaction);
        }
        self
    }

    /// The digest value so far.
    pub fn finish(&self) -> u64 {
        self.hash
    }

    /// The digest as a fixed-width lowercase hex string.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(StateDigest::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            StateDigest::new().bytes(b"a").finish(),
            0xaf63_dc4c_8601_ec8c
        );
        assert_eq!(
            StateDigest::new().bytes(b"foobar").finish(),
            0x85944171f73967e8
        );
    }

    #[test]
    fn framing_distinguishes_split_points() {
        let mut a = StateDigest::new();
        a.u32_slice(&[1, 2]).u32_slice(&[3]);
        let mut b = StateDigest::new();
        b.u32_slice(&[1]).u32_slice(&[2, 3]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_is_fixed_width() {
        let mut d = StateDigest::new();
        d.u64(0);
        assert_eq!(d.hex().len(), 16);
        assert_eq!(d.hex(), format!("{:016x}", d.finish()));
    }

    #[test]
    fn negative_zero_differs_from_zero() {
        let mut a = StateDigest::new();
        a.f64(0.0);
        let mut b = StateDigest::new();
        b.f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}
