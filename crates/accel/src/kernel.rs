//! Inner MAC kernels of the blocked functional engine.
//!
//! Every kernel accumulates *rounded, shifted* products into 32-bit
//! lanes: `acc += (x · w + half) >> shift`. The shift and rounding happen
//! per product, exactly as the scalar engine does, so the blocked engine
//! stays bit-identical while the compiler gets branch-free, fixed-shape
//! loops it can autovectorize.
//!
//! Two lane layouts serve the two tile shapes:
//!
//! * [`mac_lanes`] — the channel-lane microkernel. Its lanes are
//!   [`LANES`] output channels sharing one broadcast input value, the
//!   layout of the paper's PE array (one input feeds many output-channel
//!   PEs). The lanes are a fixed-size array that stays in vector
//!   registers for a whole run of terms; [`ChannelLanes`] carries them
//!   across every run of one output pixel's `ci × k × k` reduction and
//!   drains them into 64 bits before they could overflow. The input is a
//!   scalar, so stride-1 and strided layers take the same path.
//! * [`mac_row_s1`] / [`mac_row_strided`] — column-lane row kernels for
//!   tiles with fewer than `LANES / 2` output channels (depthwise layers
//!   have one), which would leave most channel lanes idle: lanes are a
//!   row of output columns, one call per weight. The engine's 64-bit
//!   path for shifts without an [`I32Path`] sits beside these kernels,
//!   whatever the tile width.

/// Output channels per channel-lane chunk: sixteen `i32` accumulators,
/// four 128-bit vector registers.
pub(crate) const LANES: usize = 16;

/// Parameters of the 32-bit lane accumulation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct I32Path {
    pub(crate) shift: u32,
    pub(crate) half: i32,
    /// Terms an i32 lane can take before it must drain into 64 bits.
    pub(crate) max_terms: usize,
}

impl I32Path {
    /// The lane plan for `prod_shift`, or `None` for the i64 fallback.
    ///
    /// Per-term magnitude after the rounded shift is bounded by `t_max`,
    /// so `max_terms` partial sums always fit an i32 lane. Shifts outside
    /// `1..=30` (or too few safe terms to be worth draining) fall back to
    /// the shared i64 product path.
    pub(crate) fn for_shift(prod_shift: i32) -> Option<Self> {
        if !(1..=30).contains(&prod_shift) {
            return None;
        }
        let half = 1i32 << (prod_shift - 1);
        let t_max = ((1i64 << 30) + i64::from(half)) >> prod_shift;
        let max_terms = (i64::from(i32::MAX) / t_max) as usize;
        (max_terms >= 16).then_some(Self { shift: prod_shift as u32, half, max_terms })
    }
}

/// One output pixel's reduction over a chunk of [`LANES`] output
/// channels: 32-bit lanes that carry across every run fed to
/// [`ChannelLanes::add_run`] and drain into 64 bits before `max_terms`
/// terms could overflow them.
pub(crate) struct ChannelLanes {
    path: I32Path,
    acc: [i32; LANES],
    wide: [i64; LANES],
    terms: usize,
}

impl ChannelLanes {
    pub(crate) fn new(path: I32Path) -> Self {
        Self { path, acc: [0; LANES], wide: [0; LANES], terms: 0 }
    }

    /// Accumulates the terms `xs[t] · ws[t][j]` of one contiguous run.
    pub(crate) fn add_run(&mut self, mut xs: &[i16], mut ws: &[[i16; LANES]]) {
        let p = self.path;
        while !xs.is_empty() {
            if self.terms == p.max_terms {
                self.drain();
            }
            let n = xs.len().min(p.max_terms - self.terms);
            mac_lanes(&mut self.acc, &xs[..n], &ws[..n], p.shift, p.half);
            self.terms += n;
            (xs, ws) = (&xs[n..], &ws[n..]);
        }
    }

    /// The 64-bit sums of every term added.
    pub(crate) fn finish(mut self) -> [i64; LANES] {
        self.drain();
        self.wide
    }

    fn drain(&mut self) {
        drain(&mut self.wide, &mut self.acc);
        self.terms = 0;
    }
}

/// Adds the 32-bit lanes into their 64-bit sums and zeroes them.
#[inline]
pub(crate) fn drain(wide: &mut [i64], acc: &mut [i32]) {
    for (w, a) in wide.iter_mut().zip(acc) {
        *w += i64::from(*a);
        *a = 0;
    }
}

/// Channel-lane MAC over a run of terms: for every term `t` and lane `j`,
/// `acc[j] += (xs[t] · ws[t][j] + half) >> shift`.
///
/// `shift` must be in `0..=30` and `half` must be the matching rounding
/// constant (`1 << (shift - 1)`, or `0` when `shift == 0`); the caller
/// guarantees the accumulators cannot overflow (bounded term count).
///
/// Kept out of line: inlined into the tile loop nest, the optimizer no
/// longer packs the lanes into vector registers. The call costs one load
/// and one store of the lanes per run.
#[inline(never)]
pub(crate) fn mac_lanes(
    acc: &mut [i32; LANES],
    xs: &[i16],
    ws: &[[i16; LANES]],
    shift: u32,
    half: i32,
) {
    debug_assert_eq!(xs.len(), ws.len());
    let mut lanes = *acc;
    for (&x, w) in xs.iter().zip(ws) {
        // Hiding the broadcast input from the optimizer keeps the loop
        // vectorizer off the term axis (a strided weight gather into
        // sixteen scalar sums); the lanes then pack into four vector
        // registers that live across the whole run. Values are unchanged.
        let x = i32::from(std::hint::black_box(x));
        for (a, &w) in lanes.iter_mut().zip(w) {
            *a += (x * i32::from(w) + half) >> shift;
        }
    }
    *acc = lanes;
}

/// Unit-stride row MAC: `acc[j] += (xs[j] · w + half) >> shift`.
///
/// Same contract as [`mac_lanes`].
#[inline]
pub(crate) fn mac_row_s1(acc: &mut [i32], xs: &[i16], w: i16, shift: u32, half: i32) {
    debug_assert_eq!(acc.len(), xs.len());
    let w = i32::from(w);
    for (a, &x) in acc.iter_mut().zip(xs) {
        *a += (i32::from(x) * w + half) >> shift;
    }
}

/// Strided row MAC: `acc[j] += (xs[j · step] · w + half) >> shift`.
///
/// Used when the layer stride exceeds 1, so consecutive output columns
/// sample non-adjacent input columns. Same contract as [`mac_lanes`].
#[inline]
pub(crate) fn mac_row_strided(
    acc: &mut [i32],
    xs: &[i16],
    step: usize,
    w: i16,
    shift: u32,
    half: i32,
) {
    debug_assert!(acc.is_empty() || (acc.len() - 1) * step < xs.len());
    let w = i32::from(w);
    for (j, a) in acc.iter_mut().enumerate() {
        *a += (i32::from(xs[j * step]) * w + half) >> shift;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(acc: &mut [i32], xs: &[i16], step: usize, w: i16, shift: u32, half: i32) {
        for (j, a) in acc.iter_mut().enumerate() {
            *a += (i32::from(xs[j * step]) * i32::from(w) + half) >> shift;
        }
    }

    #[test]
    fn channel_lanes_match_per_product_reference() {
        // `lanes` output channels split into LANES-wide chunks with a
        // zero-padded tail, as the engine lays weights out. Three runs of
        // 74 extreme terms in all: past max_terms at shifts 4 and 5 (31
        // and 63 terms), so the lanes drain mid-run and between runs;
        // without the drain a lane would overflow.
        let runs = [9usize, 25, 40];
        let total: usize = runs.iter().sum();
        let xs: Vec<i16> = (0..total)
            .map(|t| if t % 2 == 0 { i16::MIN + (t % 7) as i16 } else { i16::MAX - (t % 7) as i16 })
            .collect();
        for lanes in [1usize, 7, 8, 15, 16, 17, 31, 32, 33] {
            // Weight of term t for output channel j: an extreme whose sign
            // follows x[t], flipped on odd channels, so every product of a
            // lane has one sign and the sums run far past ±2³¹.
            let ws: Vec<Vec<i16>> = (0..total)
                .map(|t| {
                    (0..lanes)
                        .map(|j| {
                            let w = i16::MAX - ((t * 7 + j) % 5) as i16;
                            if (xs[t] >= 0) == (j % 2 == 0) {
                                w
                            } else {
                                -w
                            }
                        })
                        .collect()
                })
                .collect();
            for shift in [4, 5, 12, 30] {
                let path = I32Path::for_shift(shift).expect("i32 path");
                let half = i64::from(path.half);
                let want: Vec<i64> = (0..lanes)
                    .map(|j| {
                        (0..total)
                            .map(|t| (i64::from(xs[t]) * i64::from(ws[t][j]) + half) >> shift)
                            .sum()
                    })
                    .collect();
                let mut got = Vec::new();
                for c in 0..lanes.div_ceil(LANES) {
                    let live = (lanes - c * LANES).min(LANES);
                    let rows: Vec<[i16; LANES]> = ws
                        .iter()
                        .map(|w| {
                            let mut row = [0; LANES];
                            row[..live].copy_from_slice(&w[c * LANES..c * LANES + live]);
                            row
                        })
                        .collect();
                    let mut acc = ChannelLanes::new(path);
                    let mut t0 = 0;
                    for n in runs {
                        acc.add_run(&xs[t0..t0 + n], &rows[t0..t0 + n]);
                        t0 += n;
                    }
                    let sums = acc.finish();
                    // Zero-padded lanes gain exactly nothing.
                    assert!(sums[live..].iter().all(|&s| s == 0), "lanes={lanes}");
                    got.extend_from_slice(&sums[..live]);
                }
                assert_eq!(got, want, "lanes={lanes} shift={shift}");
            }
        }
    }

    #[test]
    fn unit_stride_matches_reference_across_lane_counts() {
        // Lane counts straddling vector widths, extreme operands included.
        let xs: Vec<i16> = (0..37)
            .map(|i| [i16::MIN, -3, 0, 1, 7, i16::MAX][i % 6].wrapping_add(i as i16))
            .collect();
        for n in [0usize, 1, 7, 8, 9, 16, 23, 37] {
            for (w, shift) in [(i16::MAX, 12u32), (i16::MIN, 12), (-77, 1), (13, 0), (255, 30)] {
                let half = if shift > 0 { 1i32 << (shift - 1) } else { 0 };
                let mut got = vec![5i32; n];
                let mut want = got.clone();
                mac_row_s1(&mut got, &xs[..n], w, shift, half);
                reference(&mut want, &xs[..n], 1, w, shift, half);
                assert_eq!(got, want, "n={n} w={w} shift={shift}");
            }
        }
    }

    #[test]
    fn strided_matches_reference() {
        let xs: Vec<i16> = (0..64).map(|i| (i * 1021 % 4093) as i16 - 2046).collect();
        for step in [2usize, 3, 4] {
            let n = (xs.len() - 1) / step + 1;
            let mut got = vec![-9i32; n];
            let mut want = got.clone();
            mac_row_strided(&mut got, &xs, step, -1234, 12, 1 << 11);
            reference(&mut want, &xs, step, -1234, 12, 1 << 11);
            assert_eq!(got, want, "step={step}");
        }
    }
}
