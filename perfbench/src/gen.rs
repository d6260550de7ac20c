//! Seeded input generation. Every workload input is derived here from
//! the run's `--seed`, so the same seed always gives the same inputs.

/// SplitMix64 finalizer: a well-mixed 64-bit function of `x`.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seed for sub-stream `stream` of `seed` (images, traffic, failures…).
pub fn derive(seed: u64, stream: &str, index: u64) -> u64 {
    let mut h = mix64(seed);
    for b in stream.bytes() {
        h = mix64(h ^ u64::from(b));
    }
    mix64(h ^ index)
}

/// A small deterministic generator for scalar draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `len` 16-bit words, uniform in `[-half, half]` raw units: activations
/// or weights in the fixed-point formats the functional engine runs.
pub fn words(seed: u64, len: usize, half: i16) -> Vec<i16> {
    let mut rng = Rng::new(seed);
    let span = 2 * i64::from(half) + 1;
    (0..len).map(|_| (rng.below(span as u64) as i64 - i64::from(half)) as i16).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(words(7, 100, 300), words(7, 100, 300));
        assert_ne!(words(7, 100, 300), words(8, 100, 300));
        assert_eq!(derive(1, "image", 0), derive(1, "image", 0));
        assert_ne!(derive(1, "image", 0), derive(1, "image", 1));
        assert_ne!(derive(1, "image", 0), derive(1, "traffic", 0));
    }

    #[test]
    fn words_stay_in_range() {
        let w = words(3, 10_000, 5);
        assert!(w.iter().all(|&x| (-5..=5).contains(&x)));
        assert!(w.contains(&-5) && w.contains(&5));
    }

    #[test]
    fn unit_draws_are_in_range() {
        let mut r = Rng::new(11);
        for _ in 0..1000 {
            let u = r.range(0.25, 0.5);
            assert!((0.25..0.5).contains(&u));
        }
    }
}
