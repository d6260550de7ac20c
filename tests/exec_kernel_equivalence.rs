//! Property-based equivalence of the two functional tile engines: for any
//! layer shape (including asymmetric padding margins, strides and grouped
//! wrappers), pattern, tiling and number format, the blocked/vectorized
//! engine must reproduce the scalar reference engine's *entire*
//! [`FunctionalResult`] — outputs, cycles, reads, faults and refresh
//! words — on both the ideal buffer and a decaying eDRAM buffer with and
//! without refresh.
//!
//! Channel counts are drawn around the blocked engine's 16-wide
//! output-channel chunks (0, 1 or 2 full chunks plus a remainder), so
//! tiles take both the channel-lane nest and the narrow-tile column-lane
//! nest, and a dedicated property drives the 32-bit lanes past their
//! overflow-safe term count with full-scale operands.

use proptest::prelude::*;
use rana_repro::accel::exec::{
    execute_layer_grouped_with, execute_layer_with, BufferModel, Engine, Formats,
};
use rana_repro::accel::{AcceleratorConfig, Pattern, SchedLayer, Tiling};
use rana_repro::edram::{RefreshConfig, RetentionDistribution};

/// Output-channel counts of 0, 1 or 2 full 16-lane chunks plus a
/// remainder of 0..=8 (never zero).
fn chunked() -> impl Strategy<Value = usize> {
    (0usize..=2, 0usize..=8).prop_map(|(full, rem)| (16 * full + rem).max(1))
}

/// Layer shapes with independent padding (not tied to `k/2`), strides and
/// kernel sizes; `r`/`c` follow the convolution arithmetic.
fn arb_layer() -> impl Strategy<Value = SchedLayer> {
    // `hw >= 4 >= k` keeps the kernel inside the padded input for every
    // combination, so no filtering is needed.
    (1usize..=4, 4usize..=9, chunked(), 1usize..=4, 1usize..=3, 0usize..=2).prop_map(
        |(n, hw, m, k, s, pad)| SchedLayer {
            name: "kernel-eq".into(),
            n,
            h: hw,
            l: hw,
            m,
            k,
            s,
            r: (hw + 2 * pad - k) / s + 1,
            c: (hw + 2 * pad - k) / s + 1,
            pad,
            groups: 1,
        },
    )
}

/// Number formats spanning the i32 fast path, the `shift == 0` and the
/// negative-shift i64 fallbacks (`prod_shift` ∈ −4 ..= 16).
fn arb_formats() -> impl Strategy<Value = Formats> {
    (0u8..=8, 0u8..=8, 0u8..=4).prop_map(|(input_frac, weight_frac, output_frac)| Formats {
        input_frac,
        weight_frac,
        output_frac,
    })
}

/// A sharp-knee retention curve (fault-free below 100 µs, fully decayed
/// past 1 ms) so decay effects are deterministic and actually exercised.
fn sharp_dist() -> RetentionDistribution {
    RetentionDistribution::from_anchors(vec![(100.0, 1e-7), (150.0, 1e-2), (1000.0, 1.0)]).unwrap()
}

fn operands(layer: &SchedLayer, seed: u64) -> (Vec<i16>, Vec<i16>) {
    let words = layer.groups * layer.n * layer.h * layer.l;
    let w_words = layer.groups * layer.m * layer.n * layer.k * layer.k;
    let inputs =
        (0..words).map(|i| (((i as u64).wrapping_mul(seed | 1) >> 5) % 61) as i16 - 30).collect();
    let weights = (0..w_words)
        .map(|i| (((i as u64).wrapping_mul((seed >> 3) | 1) >> 7) % 41) as i16 - 20)
        .collect();
    (inputs, weights)
}

/// Buffer models the engines must agree on: ideal, decaying-unrefreshed,
/// and decaying under the conventional 45 µs pulse.
fn models(seed: u64) -> [BufferModel; 3] {
    [
        BufferModel::Ideal,
        BufferModel::Edram { dist: sharp_dist(), seed, refresh: None },
        BufferModel::Edram {
            dist: sharp_dist(),
            seed,
            refresh: Some(RefreshConfig::conventional(45.0)),
        },
    ]
}

/// Cases per property: the wider channel counts cost several times the
/// scalar reference work per case, so fewer cases keep the wall time.
const CASES: u32 = 20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Blocked ≡ scalar on the full result, across patterns, tilings,
    /// paddings, strides, formats and buffer models.
    #[test]
    fn blocked_engine_matches_scalar_everywhere(
        layer in arb_layer(),
        formats in arb_formats(),
        tm in chunked(),
        tn in 1usize..=5,
        tr in 1usize..=4,
        tc in 1usize..=5,
        pattern_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let pattern = Pattern::ALL[pattern_idx];
        let tiling = Tiling::new(tm, tn, tr, tc);
        let cfg = AcceleratorConfig::paper_edram();
        let (inputs, weights) = operands(&layer, seed);
        for model in models(seed) {
            let scalar = execute_layer_with(
                Engine::Scalar, &layer, pattern, tiling, &cfg, &inputs, &weights, formats, &model);
            let blocked = execute_layer_with(
                Engine::Blocked, &layer, pattern, tiling, &cfg, &inputs, &weights, formats, &model);
            prop_assert_eq!(
                &blocked, &scalar,
                "{} {} pad {} s {} formats {:?}", pattern, tiling, layer.pad, layer.s, formats);
        }
    }

    /// The grouped wrapper preserves the equivalence (per-group slicing,
    /// output concatenation and stat summation are engine-agnostic).
    #[test]
    fn grouped_wrapper_preserves_equivalence(
        base in arb_layer(),
        groups in 1usize..=3,
        pattern_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let layer = SchedLayer { groups, ..base.clone() };
        let pattern = Pattern::ALL[pattern_idx];
        let tiling = Tiling::new(3, 2, 2, 3);
        let cfg = AcceleratorConfig::paper_edram();
        let (inputs, weights) = operands(&layer, seed);
        let f = Formats::default();
        for model in models(seed) {
            let scalar = execute_layer_grouped_with(
                Engine::Scalar, &layer, pattern, tiling, &cfg, &inputs, &weights, f, &model);
            let blocked = execute_layer_grouped_with(
                Engine::Blocked, &layer, pattern, tiling, &cfg, &inputs, &weights, f, &model);
            prop_assert_eq!(&blocked, &scalar, "{} groups {}", pattern, groups);
        }
    }

    /// A pixel's `n·k²` terms exceed the 32-bit lanes' overflow-safe term
    /// count (`max_terms` = 31 at `prod_shift` 4, 63 at 5), so the lanes
    /// drain mid-reduction; full-scale operands would overflow an
    /// undrained i32 lane.
    #[test]
    fn lane_drain_matches_scalar(
        n in 4usize..=6,
        k in 4usize..=5,
        m in chunked(),
        tm in chunked(),
        shift in 4u8..=5,
        seed in any::<u64>(),
    ) {
        // A 6×6 input at pad 1: the last output row and column clip the
        // kernel's bottom and right taps.
        let out = 6 + 2 - k + 1;
        let layer = SchedLayer {
            name: "drain".into(), n, h: 6, l: 6, m, k, s: 1, r: out, c: out, pad: 1, groups: 1,
        };
        let formats = Formats { input_frac: shift, weight_frac: 4, output_frac: 4 };
        // Near-full-scale inputs, and weights whose sign alternates by
        // output channel: every lane's sum runs far past ±2³¹ in one sign.
        let noise = |i: usize| (((i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 56) as i16;
        let inputs: Vec<i16> = (0..n * 36).map(|i| i16::MAX - noise(i)).collect();
        let weights: Vec<i16> = (0..m * n * k * k)
            .map(|i| {
                let w = i16::MAX - noise(i + 7);
                if (i / (n * k * k)).is_multiple_of(2) { w } else { -w }
            })
            .collect();
        let tiling = Tiling::new(tm, n, 2, 3);
        let cfg = AcceleratorConfig::paper_edram();
        let run = |engine| execute_layer_with(
            engine, &layer, Pattern::Od, tiling, &cfg, &inputs, &weights, formats,
            &BufferModel::Ideal);
        prop_assert_eq!(run(Engine::Blocked), run(Engine::Scalar), "{} shift {}", tiling, shift);
    }
}
