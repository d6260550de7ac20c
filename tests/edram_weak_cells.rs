//! Oracle for the eDRAM array's weak-cell fast path.
//!
//! `EdramArray` skips the per-cell decay check for words whose cells are
//! all strong while the failure rate is below its weak-cell threshold. The
//! reference array below has no such shortcut: every resolution at a
//! non-negligible rate checks all 16 cells. Random programs of writes,
//! reads, row reads, weighted row reads and refreshes must produce the
//! same values and the same `MemoryStats` on both, over ages in every
//! kong2008 anchor segment (including the saturated tail), under a hotter
//! curve and under a custom anchor table.

use proptest::prelude::*;
use rana_repro::edram::stats::MemoryStats;
use rana_repro::edram::{EdramArray, RetentionDistribution};

/// Per-bit failure rates at or below this read as intact (the array's
/// documented cut-off).
const NEGLIGIBLE_RATE: f64 = 1e-9;

/// The array's cell hash: SplitMix64-style, onto `[0, 1)`.
fn hash01(a: u64, b: u64, c: u64) -> f64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The charge model with every cell checked on every resolution.
struct Reference {
    bank_words: usize,
    dist: RetentionDistribution,
    seed: u64,
    words: Vec<i16>,
    written_at: Vec<f64>,
    stats: MemoryStats,
}

impl Reference {
    fn new(num_banks: usize, bank_words: usize, dist: RetentionDistribution, seed: u64) -> Self {
        let total = num_banks * bank_words;
        Self {
            bank_words,
            dist,
            seed,
            words: vec![0; total],
            written_at: vec![f64::NEG_INFINITY; total],
            stats: MemoryStats::default(),
        }
    }

    fn resolve(&self, addr: usize, now_us: f64) -> (i16, u64) {
        let age = now_us - self.written_at[addr];
        let rate = if age > 0.0 { self.dist.failure_rate(age) } else { 0.0 };
        if rate <= NEGLIGIBLE_RATE {
            return (self.words[addr], 0);
        }
        let epoch = self.written_at[addr].to_bits();
        let mut value = self.words[addr] as u16;
        let mut faults = 0;
        for bit in 0..16u64 {
            if hash01(self.seed, addr as u64, bit) < rate {
                let random = (hash01(self.seed ^ 0x9E37_79B9_7F4A_7C15, addr as u64 ^ epoch, bit)
                    > 0.5) as u16;
                if (value >> bit) & 1 != random {
                    faults += 1;
                }
                value = (value & !(1 << bit)) | (random << bit);
            }
        }
        (value as i16, faults)
    }

    fn write_slice(&mut self, addr: usize, values: &[i16], now_us: f64) {
        for (i, &v) in values.iter().enumerate() {
            self.words[addr + i] = v;
            self.written_at[addr + i] = now_us;
            self.stats.writes += 1;
        }
    }

    /// Word `i` of the row counts `scale * mult[i]` accesses (1 without
    /// multiplicities), each seeing the word's corrupted bits.
    fn read_row(
        &mut self,
        addr: usize,
        len: usize,
        now_us: f64,
        mult: Option<&[u64]>,
        scale: u64,
    ) -> Vec<i16> {
        (0..len)
            .map(|i| {
                let (value, faults) = self.resolve(addr + i, now_us);
                let accesses = mult.map_or(1, |m| m[i]) * scale;
                self.stats.reads += accesses;
                self.stats.faults += faults * accesses;
                value
            })
            .collect()
    }

    fn refresh_bank(&mut self, bank: usize, now_us: f64) {
        let start = bank * self.bank_words;
        for addr in start..start + self.bank_words {
            if self.written_at[addr] != f64::NEG_INFINITY {
                let (value, faults) = self.resolve(addr, now_us);
                self.words[addr] = value;
                self.written_at[addr] = now_us;
                self.stats.faults += faults;
            }
        }
        self.stats.refresh_words += self.bank_words as u64;
    }
}

const BANKS: usize = 3;
/// Not a multiple of 64, so banks straddle the weak map's bitset words.
const BANK_WORDS: usize = 80;
const WORDS: usize = BANKS * BANK_WORDS;

/// kong2008, the same curve 25 °C hotter, and a custom table whose tail
/// saturates below 1.0.
fn dist(which: usize) -> RetentionDistribution {
    match which {
        0 => RetentionDistribution::kong2008(),
        1 => RetentionDistribution::kong2008().at_temperature_delta(25.0),
        _ => RetentionDistribution::from_anchors(vec![
            (2.0, 1e-6),
            (50.0, 5e-4),
            (400.0, 0.2),
            (3000.0, 0.9),
        ])
        .expect("valid anchors"),
    }
}

#[derive(Debug)]
enum Op {
    Write { addr: usize, len: usize, seed: u64, t: f64 },
    Read { addr: usize, t: f64 },
    Row { addr: usize, len: usize, t: f64 },
    Weighted { addr: usize, len: usize, mult_seed: u64, scale: u64, t: f64 },
    Refresh { bank: usize, t: f64 },
}

impl Op {
    fn t(&self) -> f64 {
        match *self {
            Op::Write { t, .. }
            | Op::Read { t, .. }
            | Op::Row { t, .. }
            | Op::Weighted { t, .. }
            | Op::Refresh { t, .. } => t,
        }
    }
}

/// Log-uniform times from 0.1 µs to ~300 ms (plus exact zero), so ages
/// between any two operations span every anchor segment.
fn time(u: f64) -> f64 {
    if u < -0.9 {
        0.0
    } else {
        10f64.powf(u)
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..5, 0usize..WORDS, 1usize..120, any::<u64>(), -1.0f64..5.5, 0u64..4).prop_map(
        |(kind, addr, len, seed, u, scale_class)| {
            let len = len.min(WORDS - addr);
            let t = time(u);
            match kind {
                0 => Op::Write { addr, len, seed, t },
                1 => Op::Read { addr, t },
                2 => Op::Row { addr, len, t },
                3 => Op::Weighted {
                    addr,
                    len,
                    mult_seed: seed,
                    scale: [1, 7, 1 << 8, 0][scale_class as usize],
                    t,
                },
                _ => Op::Refresh { bank: addr % BANKS, t },
            }
        },
    )
}

/// Multiplicities mixing zeros, small counts and counts large enough that
/// `faults × accesses` overflows 32 bits.
fn multiplicities(seed: u64, len: usize) -> Vec<u64> {
    (0..len as u64)
        .map(|i| match (seed >> (2 * (i % 32))) & 3 {
            0 => 0,
            1 => 1 + (seed ^ i) % 5,
            2 => 1 << 32,
            _ => (1 << 34) + i,
        })
        .collect()
}

fn values(seed: u64, len: usize) -> Vec<i16> {
    (0..len as u64).map(|i| (seed.wrapping_mul(i + 1) >> 17) as i16).collect()
}

/// Runs `ops` on both arrays, comparing every returned value and the
/// statistics after each operation, then every word at the end.
fn check_program(which: usize, cell_seed: u64, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut fast = EdramArray::new(BANKS, BANK_WORDS, dist(which), cell_seed);
    let mut exact = Reference::new(BANKS, BANK_WORDS, dist(which), cell_seed);
    let mut last_t = 0.0f64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Write { addr, len, seed, t } => {
                let v = values(seed, len);
                fast.write_slice(addr, &v, t);
                exact.write_slice(addr, &v, t);
            }
            Op::Read { addr, t } => {
                let want = exact.read_row(addr, 1, t, None, 1);
                prop_assert_eq!(vec![fast.read(addr, t)], want, "step {}", step);
            }
            Op::Row { addr, len, t } => {
                let mut got = vec![0; len];
                fast.read_row_into(addr, t, &mut got);
                prop_assert_eq!(got, exact.read_row(addr, len, t, None, 1), "step {}", step);
            }
            Op::Weighted { addr, len, mult_seed, scale, t } => {
                let mult = multiplicities(mult_seed, len);
                let mut got = vec![0; len];
                fast.read_row_weighted(addr, t, &mut got, &mult, scale);
                let want = exact.read_row(addr, len, t, Some(&mult), scale);
                prop_assert_eq!(got, want, "step {}", step);
            }
            Op::Refresh { bank, t } => {
                fast.refresh_bank(bank, t);
                exact.refresh_bank(bank, t);
            }
        }
        prop_assert_eq!(*fast.stats(), exact.stats, "stats after step {}", step);
        last_t = last_t.max(op.t());
    }
    let mut got = vec![0; WORDS];
    fast.read_row_into(0, last_t + 1.0, &mut got);
    prop_assert_eq!(got, exact.read_row(0, WORDS, last_t + 1.0, None, 1));
    prop_assert_eq!(*fast.stats(), exact.stats);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn weak_cell_map_matches_exhaustive_resolution(
        which in 0usize..3,
        cell_seed in any::<u64>(),
        ops in proptest::collection::vec(arb_op(), 1..48),
    ) {
        check_program(which, cell_seed, &ops)?;
    }
}

/// Writes the whole array at t = 0, reads it back at `age`, refreshes
/// bank 1 at `age` and reads everything again a little later.
fn age_probe(which: usize, cell_seed: u64, age: f64) -> Result<(), TestCaseError> {
    let ops = [
        Op::Write { addr: 0, len: WORDS, seed: cell_seed, t: 0.0 },
        Op::Row { addr: 0, len: WORDS, t: age },
        Op::Refresh { bank: 1, t: age },
        Op::Weighted { addr: 0, len: WORDS, mult_seed: !cell_seed, scale: 3, t: age * 1.5 },
    ];
    check_program(which, cell_seed, &ops)
}

#[test]
fn every_kong2008_segment_matches() {
    // One age inside each anchor segment of kong2008 — below the 45 µs
    // anchor (extrapolated), between each pair of anchors, and in the
    // saturated tail — over many cell seeds, so weak cells fail at rates
    // both below and above the weak-cell threshold.
    let ages = [0.5, 20.0, 300.0, 1500.0, 3000.0, 5000.0, 8000.0, 15_000.0, 50_000.0];
    for age in ages {
        for cell_seed in 0..40 {
            if let Err(e) = age_probe(0, cell_seed, age) {
                panic!("age {age} µs, cell seed {cell_seed}: {e:?}");
            }
        }
    }
}

#[test]
fn late_refresh_locks_corruption_in() {
    // A refresh far past retention rewrites the decayed value: later reads
    // see exactly that value, and the faults were counted at the refresh.
    let mut fast = EdramArray::new(BANKS, BANK_WORDS, dist(0), 5);
    let mut exact = Reference::new(BANKS, BANK_WORDS, dist(0), 5);
    let v = values(99, WORDS);
    fast.write_slice(0, &v, 0.0);
    exact.write_slice(0, &v, 0.0);
    for bank in 0..BANKS {
        fast.refresh_bank(bank, 6000.0);
        exact.refresh_bank(bank, 6000.0);
    }
    assert_eq!(*fast.stats(), exact.stats);
    assert!(fast.stats().faults > 0, "a 6 ms refresh must lock faults in");
    let mut got = vec![0; WORDS];
    fast.read_row_into(0, 6010.0, &mut got);
    assert_eq!(got, exact.read_row(0, WORDS, 6010.0, None, 1));
    assert_eq!(*fast.stats(), exact.stats);
}

#[test]
fn weighted_fault_counts_do_not_wrap() {
    // Fully decayed words read with a multiplicity above 2^32: the fault
    // count is the exact product, far beyond the range of 32 bits.
    let mut fast = EdramArray::new(1, 64, dist(0), 3);
    let mut exact = Reference::new(1, 64, dist(0), 3);
    fast.write_slice(0, &values(1, 64), 0.0);
    exact.write_slice(0, &values(1, 64), 0.0);
    let mult = vec![(1u64 << 33) + 1; 64];
    let mut got = vec![0; 64];
    fast.read_row_weighted(0, 1e9, &mut got, &mult, 1 << 10);
    assert_eq!(got, exact.read_row(0, 64, 1e9, Some(&mult), 1 << 10));
    assert_eq!(*fast.stats(), exact.stats);
    assert!(fast.stats().faults > u64::from(u32::MAX));
}
