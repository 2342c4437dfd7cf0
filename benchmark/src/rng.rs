//! The harness's only source of randomness: one SplitMix64 stream fed
//! by `--seed`. The library under test never sees the seed — it
//! receives the images, shape draws and priorities generated here.

/// SplitMix64 (Steele, Lea & Flood): a 64-bit state, one add and three
/// xor-shift-multiplies per draw. Specified by its constants, so the
/// request stream is byte-reproducible on any host.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`. The modulo bias is below 2^-50 for the pool
    /// sizes used here (n <= 64).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An independent child stream (one per client thread), so thread
    /// scheduling cannot reorder draws between clients.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64(self.next_u64())
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First three outputs for seed 1234567, from the reference C
        // implementation (Vigna, prng.di.unimi.it/splitmix64.c).
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn zipf_stream_is_reproducible_and_skewed() {
        let z = Zipf::new(24, 1.1);
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..4096).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(1996);
        assert_eq!(a, draw(1996), "same seed, same stream");
        assert_ne!(a, draw(2024), "different seed, different stream");
        assert!(a.iter().all(|&k| k < 24));
        let count = |k| a.iter().filter(|&&x| x == k).count();
        // Zipf(1.1) over 24 ranks puts ~28 % of mass on rank 0 and
        // ~1 % on rank 23.
        assert!(count(0) > 4096 / 5, "rank 0 drew {}", count(0));
        assert!(count(0) > 8 * count(23).max(1));
    }
}
