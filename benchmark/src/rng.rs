//! The benchmark's own SplitMix64: every op tape is generated from
//! `--seed` with this generator, so the library under test only ever sees
//! the generated keys.

/// SplitMix64 (Steele, Lea, Flood): a 64-bit state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for `(seed, stream)`: one per workload and
    /// worker thread, so tapes do not depend on the thread count of other
    /// workloads.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next();
        g
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (multiply-shift; `bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_sequence() {
        // First outputs of SplitMix64 seeded with 1234567 (reference
        // implementation by Vigna).
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next(), 6457827717110365317);
        assert_eq!(g.next(), 3203168211198807973);
    }

    #[test]
    fn below_stays_in_range_and_streams_differ() {
        let mut a = SplitMix64::stream(7, 0);
        let mut b = SplitMix64::stream(7, 1);
        let mut same = 0;
        for bound in [1u64, 2, 3, 10, 65_536] {
            for _ in 0..200 {
                let x = a.below(bound);
                assert!(x < bound);
                same += (x == b.below(bound)) as u32;
            }
        }
        assert!(same < 600, "streams must not coincide");
    }
}
