//! Seeded, stateless decision hashing (SplitMix64).
//!
//! The perturbator must make every injection decision as a *pure function*
//! of the seed and the decision's identity — never of wall-clock time or
//! thread interleaving — so a failing seed replays the exact same fault
//! pattern. The identity of a decision is a short tuple of integers (a
//! domain tag, channel coordinates, a per-channel sequence number); this
//! module folds such tuples through the SplitMix64 finalizer, whose output
//! passes BigCrush and is the standard seeding permutation for
//! xoshiro-family generators (Steele, Lea & Flood, OOPSLA'14).

/// The SplitMix64 output permutation: a bijective avalanche mix on `u64`.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash a decision identity: fold each part through the permutation,
/// mixing in the running state. Order-sensitive (swapping parts changes
/// the hash) and collision-resistant enough for fault-injection sampling.
pub(crate) fn hash(parts: &[u64]) -> u64 {
    let mut state = 0x243f_6a88_85a3_08d3; // pi digits, nothing up the sleeve
    for &p in parts {
        state = splitmix64(state ^ p).rotate_left(17);
    }
    splitmix64(state)
}

/// Map a hash to a uniform float in `[0, 1)` (top 53 bits).
#[inline]
pub(crate) fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_order_sensitive() {
        assert_eq!(hash(&[1, 2, 3]), hash(&[1, 2, 3]));
        assert_ne!(hash(&[1, 2, 3]), hash(&[3, 2, 1]));
        assert_ne!(hash(&[0]), hash(&[0, 0]));
    }

    #[test]
    fn unit_interval_is_well_formed() {
        for i in 0..1000u64 {
            let u = unit_f64(hash(&[42, i]));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn unit_values_look_uniform() {
        // Crude equidistribution check: mean of 10k samples near 1/2.
        let n = 10_000u64;
        let sum: f64 = (0..n).map(|i| unit_f64(hash(&[7, i]))).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
