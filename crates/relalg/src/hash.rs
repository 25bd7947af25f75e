//! The canonical join-key hash.
//!
//! Initial fragmentation (`mj-storage`), mid-query redistribution
//! (`mj-exec`), and the join hash tables (`mj-join`) must agree on one hash
//! function, otherwise "ideal fragmentation" (§4.1) would not actually align
//! with the joins that assume it. This module is that single definition.

/// Mixes a join key into a 64-bit hash (splitmix64 finalizer). Good
/// avalanche behaviour on the dense integer keys the Wisconsin benchmark
/// uses, and much cheaper than SipHash.
#[inline]
pub fn mix_key(key: i64) -> u64 {
    let mut x = key as u64;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a join key to a bucket in `0..parts`.
///
/// `parts` must be positive; callers on the per-tuple hot path are
/// expected to have validated their partition count once up front. In
/// debug builds a zero `parts` asserts; release builds would otherwise hit
/// an integer remainder-by-zero panic, which is why every public
/// partitioning entry point validates before looping.
#[inline]
pub fn bucket_of(key: i64, parts: usize) -> usize {
    debug_assert!(parts > 0);
    (mix_key(key) % parts as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix_key(42), mix_key(42));
        // Dense keys should not collide in the low bits.
        let mut low_bits: Vec<u64> = (0..64).map(|k| mix_key(k) % 64).collect();
        low_bits.sort_unstable();
        low_bits.dedup();
        assert!(
            low_bits.len() > 32,
            "only {} distinct buckets",
            low_bits.len()
        );
    }

    #[test]
    fn bucket_in_range_including_negative_keys() {
        for k in [-5i64, -1, 0, 1, 9999, i64::MAX, i64::MIN] {
            for p in [1usize, 2, 7, 80] {
                assert!(bucket_of(k, p) < p);
            }
        }
    }
}
