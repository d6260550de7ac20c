//! Pinned results of the eDRAM charge model under the functional engine.
//!
//! The Scalar ≡ Blocked oracle cannot see a change to the charge model
//! itself, because both engines resolve decay through the same
//! `EdramArray`. This test pins the full `FunctionalResult` digest —
//! outputs FNV, reads, faults, refresh words — of small CONV layers on the
//! kong2008 retention curve under three buffer models: the conventional
//! 45 µs controller, a flagged controller, and no refresh on a slowed
//! clock so that retention faults occur. Any change that alters which
//! cells decay, or what they read back, changes a digest.

use rana_repro::accel::exec::{execute_layer_with, BufferModel, Engine, Formats};
use rana_repro::accel::{AcceleratorConfig, Pattern, SchedLayer, Tiling};
use rana_repro::edram::{RefreshConfig, RetentionDistribution};

/// FNV-1a over the outputs' little-endian bytes.
fn fnv(words: &[i16]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// A CONV layer with `r`/`c` from the convolution arithmetic.
fn layer(name: &str, n: usize, hw: usize, m: usize, k: usize, s: usize, pad: usize) -> SchedLayer {
    let rc = (hw + 2 * pad - k) / s + 1;
    SchedLayer { name: name.into(), n, h: hw, l: hw, m, k, s, r: rc, c: rc, pad, groups: 1 }
}

/// The paper accelerator at `frequency_hz` with a four-bank buffer sized to
/// the layer's resident set.
fn cfg_for(ly: &SchedLayer, frequency_hz: f64) -> AcceleratorConfig {
    let resident = ly.n * ly.h * ly.l + ly.m * ly.n * ly.k * ly.k + ly.m * ly.r * ly.c;
    let mut cfg = AcceleratorConfig::paper_edram();
    cfg.frequency_hz = frequency_hz;
    cfg.buffer.num_banks = 4;
    cfg.buffer.bank_words = resident.div_ceil(4);
    cfg
}

/// Deterministic operands: non-negative activations, signed weights.
fn operands(ly: &SchedLayer) -> (Vec<i16>, Vec<i16>) {
    let inputs = (0..ly.n * ly.h * ly.l).map(|i| ((i * 37 + 11) % 256) as i16).collect();
    let weights =
        (0..ly.m * ly.n * ly.k * ly.k).map(|i| ((i * 53 + 5) % 1021) as i16 - 510).collect();
    (inputs, weights)
}

/// `(name, model, clock)` for the three pinned buffer models. The
/// refreshed models run kong2008 hot (retention scales by `2^(-ΔT/10)`),
/// so refreshed ages land on failure rates between 10⁻⁶ and 10⁻³ and a
/// few weak cells fail even under refresh.
fn models() -> [(&'static str, BufferModel, f64); 3] {
    let dist = RetentionDistribution::kong2008();
    [
        (
            "conventional",
            BufferModel::Edram {
                dist: dist.at_temperature_delta(60.0),
                seed: 21,
                refresh: Some(RefreshConfig::conventional(45.0)),
            },
            1e6,
        ),
        (
            "flagged",
            BufferModel::Edram {
                dist: dist.at_temperature_delta(30.0),
                seed: 22,
                refresh: Some(RefreshConfig::flagged(200.0, vec![true, false, true, false])),
            },
            1e6,
        ),
        ("unrefreshed", BufferModel::Edram { dist, seed: 23, refresh: None }, 3e4),
    ]
}

/// One digest line per (layer, pattern, model).
fn digests() -> Vec<String> {
    let layers = [
        (layer("plain", 4, 10, 6, 3, 1, 1), Tiling::new(4, 2, 3, 5)),
        (layer("strided", 3, 13, 5, 5, 2, 2), Tiling::new(2, 3, 4, 4)),
    ];
    let mut out = Vec::new();
    for (ly, tiling) in &layers {
        let (inputs, weights) = operands(ly);
        for pattern in [Pattern::Id, Pattern::Od, Pattern::Wd] {
            for (name, model, clock) in models() {
                let r = execute_layer_with(
                    Engine::Blocked,
                    ly,
                    pattern,
                    *tiling,
                    &cfg_for(ly, clock),
                    &inputs,
                    &weights,
                    Formats::default(),
                    &model,
                );
                out.push(format!(
                    "{} {pattern:?} {name}: {:#018x} reads {} faults {} refresh {}",
                    ly.name,
                    fnv(&r.outputs),
                    r.reads,
                    r.faults,
                    r.refresh_words
                ));
            }
        }
    }
    out
}

/// Digests produced by the exhaustive charge model, which checks every
/// cell on every resolution.
const PINNED: &[&str] = &[
    "plain Id conventional: 0xefbee03fb58b0bdf reads 37632 faults 46 refresh 14592",
    "plain Id flagged: 0xb9a62e2c15eea477 reads 37632 faults 1 refresh 1216",
    "plain Id unrefreshed: 0x9f26dad1aa5c0f3e reads 37632 faults 16952 refresh 0",
    "plain Od conventional: 0x2270a3ee015074ef reads 38832 faults 37 refresh 14592",
    "plain Od flagged: 0xb9a62e2c15eea477 reads 38832 faults 1 refresh 1216",
    "plain Od unrefreshed: 0x3b9e07de2b19ac9c reads 38832 faults 1224 refresh 0",
    "plain Wd conventional: 0xad829196c17db11e reads 37632 faults 27 refresh 14592",
    "plain Wd flagged: 0xb9a62e2c15eea477 reads 37632 faults 0 refresh 1216",
    "plain Wd unrefreshed: 0x52e5b6811f160a4a reads 37632 faults 17701 refresh 0",
    "strided Id conventional: 0x844a69b407c50193 reads 28830 faults 34 refresh 22560",
    "strided Id flagged: 0xba159e291f3d0e2d reads 28830 faults 79 refresh 2256",
    "strided Id unrefreshed: 0x100773bc5cc6b0ab reads 28830 faults 49495 refresh 0",
    "strided Od conventional: 0x844a69b407c50193 reads 29075 faults 34 refresh 22560",
    "strided Od flagged: 0xba159e291f3d0e2d reads 29075 faults 79 refresh 2256",
    "strided Od unrefreshed: 0x100773bc5cc6b0ab reads 29075 faults 49495 refresh 0",
    "strided Wd conventional: 0x4f8e688b18987dd0 reads 28830 faults 43 refresh 22560",
    "strided Wd flagged: 0xd96f100ec42819f0 reads 28830 faults 25 refresh 2256",
    "strided Wd unrefreshed: 0xf40839cbace4cede reads 28830 faults 50535 refresh 0",
];

#[test]
fn charge_model_results_are_pinned() {
    assert_eq!(digests(), PINNED);
}

#[test]
fn pinned_cases_exercise_faults() {
    // The pins only guard the charge model if it corrupts data in them:
    // weak cells under both refreshed controllers, every unrefreshed run.
    let faulty = |model: &str| {
        PINNED.iter().filter(|l| l.contains(model) && !l.contains(" faults 0 ")).count()
    };
    assert!(faulty("conventional") == 6 && faulty("unrefreshed") == 6);
    assert!(faulty("flagged") > 0);
}
