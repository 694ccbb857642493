//! A small seeded generator (SplitMix64): the benchmark derives every
//! input choice from `--seed` through it, so one seed always gives the
//! same mutants and the same pass orders. It is defined here rather
//! than taken from a `rand` crate so that a change of that crate never
//! changes the inputs a seed stands for.

/// SplitMix64 state.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, on the independent stream `stream` (so
    /// mutant choice and each pass's order never share draws).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}
