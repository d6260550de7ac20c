//! Functional banked eDRAM array with retention-fault injection.
//!
//! Each cell's retention time is drawn (deterministically, from a hash of
//! its address) from a [`RetentionDistribution`]. A read resolves the stored
//! word against the time elapsed since it was last written or refreshed: a
//! bit whose cell retention is shorter than that age reads back a random
//! value (paper §IV-B). A refresh *re-writes whatever is currently
//! resolvable* — refreshing too late locks corrupted bits in, exactly as in
//! hardware.
//!
//! Time is carried explicitly by the caller in microseconds, so the model
//! works both for the cycle simulator (which converts cycles to µs) and for
//! standalone fault-injection studies.
//!
//! Retention failures come from a sparse set of weak cells (the tail of
//! paper Fig. 8), so the array keeps a one-bit-per-word *weak-cell map*:
//! a word's bit is set iff one of its cells has a failure quantile below
//! a fixed threshold of 10⁻³. A cell fails only when its quantile is below
//! the current failure rate, so while the rate stays under the threshold
//! a word whose bit is clear cannot flip: reads copy it and refreshes only
//! restamp it, and only the ~1.6 % weak words pay the per-cell check.
//! Rates at or above the threshold take the per-cell path for every word,
//! so results are bit-identical to checking every cell. The map is built
//! on the first resolution at a non-negligible rate, so arrays that never
//! age (the Ideal buffer) never build it.

use crate::retention::RetentionDistribution;
use crate::stats::MemoryStats;

/// Per-bit failure rates at or below this are treated as zero — even a
/// billion bit reads would expect no flip.
const NEGLIGIBLE_RATE: f64 = 1e-9;

/// Failure-quantile threshold of the weak-cell map: a word is weak iff
/// one of its cells has a quantile below this, about 1.6 % of words. Below
/// this rate only weak words can decay.
const WEAK_RATE: f64 = 1e-3;

/// A banked eDRAM array with per-word write timestamps.
///
/// # Example
///
/// ```
/// use rana_edram::{EdramArray, RetentionDistribution};
///
/// let mut mem = EdramArray::new(2, 1024, RetentionDistribution::kong2008(), 42);
/// mem.write(10, 0x1234, 0.0);
/// // Read well within retention: intact.
/// assert_eq!(mem.read(10, 10.0), 0x1234);
/// ```
#[derive(Debug, Clone)]
pub struct EdramArray {
    num_banks: usize,
    bank_words: usize,
    words: Vec<i16>,
    /// Time of last write or refresh per word; `NEG_INFINITY` = never
    /// written (reads as an aged-out cell).
    written_at: Vec<f64>,
    dist: RetentionDistribution,
    seed: u64,
    stats: MemoryStats,
    /// One-entry memo for the age → failure-rate lookup: reads within a
    /// tile share their timestamp, so this removes nearly all of the
    /// log-space interpolation cost.
    cached_age: f64,
    cached_rate: f64,
    /// Weak-cell map, one bit per word (see the module docs); empty until
    /// the first resolution at a non-negligible failure rate.
    weak: Vec<u64>,
}

impl EdramArray {
    /// Creates an array of `num_banks` banks of `bank_words` 16-bit words.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(
        num_banks: usize,
        bank_words: usize,
        dist: RetentionDistribution,
        seed: u64,
    ) -> Self {
        assert!(num_banks > 0 && bank_words > 0, "array dimensions must be positive");
        let total = num_banks * bank_words;
        Self {
            num_banks,
            bank_words,
            words: vec![0; total],
            written_at: vec![f64::NEG_INFINITY; total],
            dist,
            seed,
            stats: MemoryStats::default(),
            cached_age: f64::NAN,
            cached_rate: 0.0,
            weak: Vec::new(),
        }
    }

    /// Total capacity in 16-bit words.
    pub fn capacity_words(&self) -> usize {
        self.words.len()
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.num_banks
    }

    /// Words per bank.
    pub fn bank_words(&self) -> usize {
        self.bank_words
    }

    /// The bank containing word address `addr`.
    pub fn bank_of(&self, addr: usize) -> usize {
        addr / self.bank_words
    }

    /// Access statistics accumulated so far.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = MemoryStats::default();
    }

    /// Writes a word, recharging its cells.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    pub fn write(&mut self, addr: usize, value: i16, now_us: f64) {
        self.words[addr] = value;
        self.written_at[addr] = now_us;
        self.stats.writes += 1;
    }

    /// Writes a slice of words starting at `addr`: one bulk copy and one
    /// timestamp fill, counted as `values.len()` writes.
    ///
    /// # Panics
    ///
    /// Panics if the slice runs past the end of the array.
    pub fn write_slice(&mut self, addr: usize, values: &[i16], now_us: f64) {
        let end = addr + values.len();
        self.words[addr..end].copy_from_slice(values);
        self.written_at[addr..end].fill(now_us);
        self.stats.writes += values.len() as u64;
    }

    /// Reads a word, injecting retention faults for cells older than their
    /// sampled retention time.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    pub fn read(&mut self, addr: usize, now_us: f64) -> i16 {
        self.stats.reads += 1;
        let (value, faults) = self.resolve(addr, now_us);
        self.stats.faults += u64::from(faults);
        value
    }

    /// Reads a slice of words starting at `addr`.
    pub fn read_slice(&mut self, addr: usize, len: usize, now_us: f64) -> Vec<i16> {
        (0..len).map(|i| self.read(addr + i, now_us)).collect()
    }

    /// Row-granular decayed read: resolves `out.len()` contiguous words at
    /// one timestamp into `out`, counting one read per word.
    ///
    /// Observationally equivalent to `out.len()` individual [`read`]s —
    /// decay resolution is deterministic and side-effect free, so the
    /// values, fault counts, and read counts are identical — but the
    /// age → failure-rate lookup is resolved once per run of words sharing
    /// a write timestamp. Below the weak-cell threshold a run is copied
    /// wholesale and only its weak words are resolved cell by cell (see
    /// the module docs for why that is exact).
    ///
    /// ```
    /// use rana_edram::{EdramArray, RetentionDistribution};
    ///
    /// let mut mem = EdramArray::new(2, 1024, RetentionDistribution::kong2008(), 42);
    /// mem.write_slice(8, &[1, 2, 3, 4], 0.0);
    /// let mut row = [0i16; 4];
    /// mem.read_row_into(8, 10.0, &mut row);
    /// assert_eq!(row, [1, 2, 3, 4]);
    /// assert_eq!(mem.stats().reads, 4);
    /// ```
    ///
    /// [`read`]: EdramArray::read
    ///
    /// # Panics
    ///
    /// Panics if the row extends past the end of the array.
    pub fn read_row_into(&mut self, addr: usize, now_us: f64, out: &mut [i16]) {
        self.read_row_impl(addr, now_us, out, None, 1);
    }

    /// [`read_row_into`] with per-word read multiplicities: word `i` is
    /// accounted as `scale * mult[i]` logical read accesses (values are
    /// still resolved once). Callers that hoist a word out of a loop nest
    /// pass the number of reads the nest would have issued, keeping the
    /// read and fault statistics bit-identical to the unhoisted loop —
    /// a decayed word's fault bits are counted once per accounted access,
    /// exactly as repeated [`read`]s would count them.
    ///
    /// A zero multiplicity resolves the word (the caller may want the
    /// value) without counting any access.
    ///
    /// [`read_row_into`]: EdramArray::read_row_into
    /// [`read`]: EdramArray::read
    ///
    /// # Panics
    ///
    /// Panics if `mult.len() != out.len()` or the row extends past the end
    /// of the array.
    pub fn read_row_weighted(
        &mut self,
        addr: usize,
        now_us: f64,
        out: &mut [i16],
        mult: &[u64],
        scale: u64,
    ) {
        assert_eq!(mult.len(), out.len(), "one multiplicity per word");
        self.read_row_impl(addr, now_us, out, Some(mult), scale);
    }

    /// Shared body of the row reads: resolves runs of words that share a
    /// write timestamp with one failure-rate lookup each.
    fn read_row_impl(
        &mut self,
        addr: usize,
        now_us: f64,
        out: &mut [i16],
        mult: Option<&[u64]>,
        scale: u64,
    ) {
        let n = out.len();
        assert!(addr + n <= self.words.len(), "row [{addr}, {}) out of bounds", addr + n);
        let acc_reads = |m: Option<&[u64]>, i: usize| m.map_or(1, |m| m[i]).wrapping_mul(scale);
        let mut i = 0;
        while i < n {
            let j = self.run_end(addr + i, addr + n) - addr;
            let rate = self.rate_at(addr + i, now_us);
            out[i..j].copy_from_slice(&self.words[addr + i..addr + j]);
            self.for_each_decaying(addr + i, addr + j, rate, |mem, a, value, faults| {
                out[a - addr] = value;
                mem.stats.faults += u64::from(faults) * acc_reads(mult, a - addr);
            });
            for t in i..j {
                self.stats.reads += acc_reads(mult, t);
            }
            i = j;
        }
    }

    /// Refreshes one bank: every word is resolved at `now_us` (late
    /// refreshes lock corrupted bits in) and re-written. Returns the number
    /// of refreshed words.
    ///
    /// Runs of words sharing a write timestamp are handled together, and
    /// only the words that can decay are resolved; below the weak-cell
    /// threshold the rest are just restamped.
    pub fn refresh_bank(&mut self, bank: usize, now_us: f64) -> usize {
        assert!(bank < self.num_banks, "bank {bank} out of range");
        let start = bank * self.bank_words;
        let end = start + self.bank_words;
        let mut i = start;
        while i < end {
            let j = self.run_end(i, end);
            if self.written_at[i] != f64::NEG_INFINITY {
                let rate = self.rate_at(i, now_us);
                self.for_each_decaying(i, j, rate, |mem, a, value, faults| {
                    mem.words[a] = value;
                    mem.stats.faults += u64::from(faults);
                });
                self.written_at[i..j].fill(now_us);
            }
            i = j;
        }
        self.stats.refresh_words += self.bank_words as u64;
        self.bank_words
    }

    /// Resolves the current value of `addr` at `now_us` without counting a
    /// read: applies a random value to every bit whose cell has aged past
    /// its retention time. Returns `(value, corrupted_bit_count)`.
    fn resolve(&mut self, addr: usize, now_us: f64) -> (i16, u32) {
        let rate = self.rate_at(addr, now_us);
        if rate <= NEGLIGIBLE_RATE {
            return (self.words[addr], 0);
        }
        self.ensure_weak_map();
        if rate < WEAK_RATE && !is_weak(&self.weak, addr) {
            return (self.words[addr], 0);
        }
        self.decay(addr, rate)
    }

    /// Calls `f(self, addr, value, faults)` with the resolved value of
    /// every word of the run `[lo, hi)` (one write timestamp) that can
    /// read back differently at failure rate `rate`: none at a negligible
    /// rate, the weak words below the weak-cell threshold, all of them
    /// above it.
    fn for_each_decaying(
        &mut self,
        lo: usize,
        hi: usize,
        rate: f64,
        mut f: impl FnMut(&mut Self, usize, i16, u32),
    ) {
        if rate <= NEGLIGIBLE_RATE {
            return;
        }
        if rate >= WEAK_RATE {
            for addr in lo..hi {
                let (value, faults) = self.decay(addr, rate);
                f(self, addr, value, faults);
            }
            return;
        }
        self.ensure_weak_map();
        for chunk in lo / 64..hi.div_ceil(64) {
            let base = chunk * 64;
            let mut bits = self.weak[chunk];
            if base < lo {
                bits &= !0 << (lo - base);
            }
            if base + 64 > hi {
                bits &= !0 >> (base + 64 - hi);
            }
            while bits != 0 {
                let addr = base + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (value, faults) = self.decay(addr, rate);
                f(self, addr, value, faults);
            }
        }
    }

    /// The per-cell check of the word at `addr` at failure rate `rate`:
    /// every cell whose quantile is below `rate` reads a random bit.
    /// Returns `(value, corrupted_bit_count)`.
    fn decay(&self, addr: usize, rate: f64) -> (i16, u32) {
        let mut value = self.words[addr] as u16;
        let mut faults = 0;
        // A write epoch keys the "random" value a failed cell reads, so two
        // reads of the same decayed cell agree but a rewrite re-rolls it.
        let epoch = self.written_at[addr].to_bits();
        for bit in 0..16u32 {
            let q = hash01(self.seed, addr as u64, u64::from(bit));
            if q < rate {
                let random_bit =
                    (hash01(self.seed ^ 0x9E37_79B9_7F4A_7C15, addr as u64 ^ epoch, u64::from(bit))
                        > 0.5) as u16;
                let old = (value >> bit) & 1;
                if old != random_bit {
                    faults += 1;
                }
                value = (value & !(1 << bit)) | (random_bit << bit);
            }
        }
        (value as i16, faults)
    }

    /// End of the maximal run of words from `addr` (exclusive, at most
    /// `limit`) sharing `addr`'s write timestamp. `NEG_INFINITY ==
    /// NEG_INFINITY`, so never-written runs group too.
    fn run_end(&self, addr: usize, limit: usize) -> usize {
        let wa = self.written_at[addr];
        let rest = &self.written_at[addr..limit];
        // Whole blocks first: a branch-free compare per block vectorizes.
        let blocks = rest
            .chunks_exact(8)
            .take_while(|c| c.iter().fold(true, |eq, &w| eq & (w == wa)))
            .count();
        let full = blocks * 8;
        addr + full + rest[full..].iter().take_while(|&&w| w == wa).count()
    }

    /// Failure rate of the word at `addr` when read at `now_us`; 0 for
    /// data written at or after `now_us`.
    fn rate_at(&mut self, addr: usize, now_us: f64) -> f64 {
        let age = now_us - self.written_at[addr];
        if age <= 0.0 {
            0.0
        } else {
            self.rate_for(age)
        }
    }

    /// Builds the weak-cell map on first use.
    fn ensure_weak_map(&mut self) {
        if self.weak.is_empty() {
            // `hash01(..) < WEAK_RATE` on the integer hash: the quantile
            // is `bits / 2⁵³` exactly, so this comparison is the same.
            let threshold = (WEAK_RATE * (1u64 << 53) as f64).ceil() as u64;
            let mut map = vec![0u64; self.words.len().div_ceil(64)];
            for addr in 0..self.words.len() {
                if (0..16)
                    .fold(false, |w, bit| w | (hash_bits(self.seed, addr as u64, bit) < threshold))
                {
                    map[addr / 64] |= 1 << (addr % 64);
                }
            }
            self.weak = map;
        }
    }
}

impl EdramArray {
    /// Age → failure-rate lookup through the one-entry memo (reads within
    /// a tile share their timestamp, so this removes nearly all of the
    /// log-space interpolation cost).
    fn rate_for(&mut self, age: f64) -> f64 {
        if age == self.cached_age {
            self.cached_rate
        } else {
            let r = self.dist.failure_rate(age);
            self.cached_age = age;
            self.cached_rate = r;
            r
        }
    }
}

/// Whether word `addr` is set in the weak-cell map.
fn is_weak(weak: &[u64], addr: usize) -> bool {
    weak[addr / 64] >> (addr % 64) & 1 != 0
}

/// SplitMix64-style hash of three values onto `[0, 1)`.
fn hash01(a: u64, b: u64, c: u64) -> f64 {
    hash_bits(a, b, c) as f64 / (1u64 << 53) as f64
}

/// The 53 hash bits behind [`hash01`].
fn hash_bits(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z >> 11
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> EdramArray {
        EdramArray::new(4, 256, RetentionDistribution::kong2008(), 7)
    }

    #[test]
    fn fresh_data_reads_intact() {
        let mut m = array();
        for addr in 0..64 {
            m.write(addr, (addr as i16).wrapping_mul(321), 0.0);
        }
        for addr in 0..64 {
            assert_eq!(m.read(addr, 40.0), (addr as i16).wrapping_mul(321));
        }
        assert_eq!(m.stats().faults, 0);
    }

    #[test]
    fn ancient_data_corrupts() {
        let mut m = array();
        let n = 1024;
        // Fill every word of the array.
        for addr in 0..n {
            m.write(addr, 0x5555, 0.0);
        }
        // Age far beyond the distribution's tail: every cell failed.
        let mut corrupted = 0;
        for addr in 0..n {
            if m.read(addr, 1e9) != 0x5555 {
                corrupted += 1;
            }
        }
        // All bits random => P(word intact) = 2^-16; essentially all differ.
        assert!(corrupted > n - 5, "only {corrupted}/{n} corrupted");
    }

    #[test]
    fn moderate_age_corrupts_statistically() {
        let mut m = EdramArray::new(16, 4096, RetentionDistribution::kong2008(), 3);
        let n = 16 * 4096;
        for addr in 0..n {
            m.write(addr, 0, 0.0);
        }
        // Age = 2.4 ms -> failure rate 1e-4 per bit, expect ~ n*16*1e-4/2
        // flipped bits (half of randomized bits flip a zero word).
        for addr in 0..n {
            m.read(addr, 2400.0);
        }
        let faults = m.stats().faults;
        // resolve() counts actually-changed bits.
        let expected = n as f64 * 16.0 * 1e-4 / 2.0;
        assert!(
            (faults as f64 - expected).abs() < expected * 0.5 + 5.0,
            "faults {faults}, expected ~{expected}"
        );
    }

    #[test]
    fn timely_refresh_preserves_data() {
        let mut m = array();
        m.write(0, 0x7ABC, 0.0);
        let mut t = 0.0;
        // Refresh every 40 µs for 100 intervals; data must survive.
        for _ in 0..100 {
            t += 40.0;
            m.refresh_bank(0, t);
        }
        assert_eq!(m.read(0, t + 10.0), 0x7ABC);
    }

    #[test]
    fn decayed_reads_are_repeatable() {
        let mut m = array();
        m.write(5, 0x0F0F, 0.0);
        let a = m.read(5, 1e8);
        let b = m.read(5, 1e8);
        assert_eq!(a, b, "same decayed cell must read the same random value");
    }

    #[test]
    fn refresh_counts_words() {
        let mut m = array();
        m.refresh_bank(2, 0.0);
        assert_eq!(m.stats().refresh_words, 256);
    }

    #[test]
    fn bank_mapping() {
        let m = array();
        assert_eq!(m.bank_of(0), 0);
        assert_eq!(m.bank_of(255), 0);
        assert_eq!(m.bank_of(256), 1);
        assert_eq!(m.capacity_words(), 1024);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        array().write(4096, 0, 0.0);
    }

    #[test]
    fn hash01_is_uniformish() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| hash01(1, i, 2)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    /// Row reads must be observationally equivalent to per-word reads:
    /// same values, same read counts, same fault counts — including on
    /// decayed data and across mixed write timestamps within one row.
    #[test]
    fn row_read_equals_per_word_reads() {
        for read_at in [40.0, 2400.0, 1e8] {
            let mut a = EdramArray::new(2, 512, RetentionDistribution::kong2008(), 11);
            let mut b = a.clone();
            for addr in 0..96 {
                let t = if addr % 3 == 0 { 0.0 } else { 5.0 }; // mixed timestamps
                a.write(addr, (addr as i16).wrapping_mul(-773), t);
                b.write(addr, (addr as i16).wrapping_mul(-773), t);
            }
            let per_word: Vec<i16> = (0..96).map(|addr| a.read(addr, read_at)).collect();
            let mut row = vec![0i16; 96];
            b.read_row_into(0, read_at, &mut row);
            assert_eq!(row, per_word, "values at age {read_at}");
            assert_eq!(a.stats(), b.stats(), "stats at age {read_at}");
        }
    }

    #[test]
    fn weighted_row_read_accounts_hoisted_accesses() {
        let mut a = EdramArray::new(1, 256, RetentionDistribution::kong2008(), 5);
        let mut b = a.clone();
        for addr in 0..4 {
            a.write(addr, 0x2A2A, 0.0);
            b.write(addr, 0x2A2A, 0.0);
        }
        // Reference: word i read scale * mult[i] times, far past retention
        // (decayed reads are repeatable, so every repeat sees the value
        // and recounts the fault bits).
        let mult = [1u64, 2, 3, 0];
        let mut vals = [0i16; 4];
        for (i, &m) in mult.iter().enumerate() {
            for _ in 0..3 * m {
                vals[i] = a.read(i, 1e8);
            }
        }
        let mut row = [0i16; 4];
        b.read_row_weighted(0, 1e8, &mut row, &mult, 3);
        assert_eq!(&row[..3], &vals[..3], "resolved values match repeated reads");
        assert_eq!(a.stats(), b.stats(), "hoisted accounting matches the unhoisted loop");
        assert_eq!(b.stats().reads, 3 * (1 + 2 + 3));
    }

    #[test]
    #[should_panic]
    fn row_read_past_the_end_panics() {
        let mut m = array();
        let mut out = [0i16; 8];
        m.read_row_into(1020, 0.0, &mut out);
    }
}
