//! `infer`: functional inference of AlexNet CONV1–5 on the blocked
//! engine through the kong2008 charge model, every image under the
//! normal controller (45 µs, all banks) and the rana controller (the
//! RANA*(E-5) interval with per-bank flags from `Strategy::RanaFlagged`).

use crate::gen::{derive, words, Rng};
use crate::reference::fnv;
use crate::report::{Checks, Metric};
use crate::spans::{self_time_by_name, Spans};
use crate::stats::{describe, median};
use crate::{traced, Outcome, Run};
use rana_accel::exec::{
    execute_layer_grouped_with, BufferModel, Engine, Formats, FunctionalResult,
};
use rana_accel::{AcceleratorConfig, Pattern, SchedLayer, Tiling};
use rana_core::{Design, Evaluator};
use rana_edram::{RefreshConfig, RetentionDistribution};
use rana_policy::{LayerCtx, RefreshStrategy, Strategy};
use std::time::Instant;

/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 5;

/// The normal controller's refresh interval, µs (Table IV "Normal").
const NORMAL_INTERVAL_US: f64 = 45.0;

/// The two controllers every image runs under, in run order.
const CONTROLLERS: [&str; 2] = ["normal", "rana"];

/// One AlexNet CONV layer, ready to execute.
struct Layer {
    name: String,
    shape: SchedLayer,
    pattern: Pattern,
    tiling: Tiling,
    cfg: AcceleratorConfig,
    weights: Vec<i16>,
    /// Buffer models per controller, in [`CONTROLLERS`] order.
    models: [BufferModel; 2],
    flagged_banks: usize,
}

struct Setup {
    layers: Vec<Layer>,
}

/// Accelerator config whose unified buffer holds the layer's per-group
/// resident set (the functional engine keeps all three regions resident;
/// AlexNet's layers exceed the paper's 1.45 MB buffer). Bank count and
/// everything else stay the paper's.
fn cfg_for(ly: &SchedLayer) -> AcceleratorConfig {
    let resident = ly.n * ly.h * ly.l + ly.m * ly.n * ly.k * ly.k + ly.m * ly.r * ly.c;
    let mut cfg = AcceleratorConfig::paper_edram();
    cfg.buffer.bank_words = resident.div_ceil(cfg.buffer.num_banks);
    cfg
}

/// Schedules AlexNet under RANA*(E-5), generates the seed's weights and
/// cell seeds, and derives every layer's rana-controller flags from its
/// scheduled simulation on the paper platform (the flags Stage 3 emits).
fn setup(seed: u64, spans: &mut Spans) -> Setup {
    let eval = Evaluator::paper_platform();
    let net = rana_zoo::alexnet();
    let sched =
        spans.span("sched.evaluate", 0, || eval.evaluate(&net, Design::RanaStarE5)).schedule;
    let interval_us = eval.scheduler_for(Design::RanaStarE5).refresh.interval_us;
    let dist = RetentionDistribution::kong2008();
    let layers = net
        .conv_layers()
        .zip(&sched.layers)
        .enumerate()
        .map(|(i, (conv, chosen))| {
            let shape = SchedLayer::from_conv(conv);
            let cfg = cfg_for(&shape);
            let decision = spans.span("policy.decide", 0, || {
                let ctx = LayerCtx {
                    sim: &chosen.sim,
                    cfg: eval.edram_config(),
                    interval_us,
                    retention: eval.retention(),
                };
                Strategy::RanaFlagged.decide(&ctx)
            });
            let cells = derive(seed, "cells", i as u64);
            let model = |refresh| BufferModel::Edram {
                dist: dist.clone(),
                seed: cells,
                refresh: Some(refresh),
            };
            Layer {
                name: conv.name.clone(),
                weights: words(
                    derive(seed, "weights", i as u64),
                    shape.weight_words() as usize,
                    1024,
                ),
                models: [
                    model(RefreshConfig::conventional(NORMAL_INTERVAL_US)),
                    model(RefreshConfig::flagged(interval_us, decision.refresh_flags.clone())),
                ],
                flagged_banks: decision.flagged_banks(),
                shape,
                pattern: chosen.sim.pattern,
                tiling: chosen.sim.tiling,
                cfg,
            }
        })
        .collect();
    Setup { layers }
}

/// Image `index` of the seed: one non-negative (post-ReLU) activation
/// map per layer, in Q7.8 below 1.0.
fn image(seed: u64, index: u64, layers: &[Layer]) -> Vec<Vec<i16>> {
    let image_seed = derive(seed, "image", index);
    layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let mut rng = Rng::new(derive(image_seed, "layer", i as u64));
            (0..l.shape.input_words()).map(|_| rng.below(256) as i16).collect()
        })
        .collect()
}

fn execute(l: &Layer, inputs: &[i16], model: &BufferModel) -> FunctionalResult {
    execute_layer_grouped_with(
        Engine::Blocked,
        &l.shape,
        l.pattern,
        l.tiling,
        &l.cfg,
        inputs,
        &l.weights,
        Formats::default(),
        model,
    )
}

/// One image under both controllers: results and seconds per
/// `[controller][layer]`.
struct ImageRun {
    results: Vec<Vec<FunctionalResult>>,
    secs: Vec<Vec<f64>>,
}

impl ImageRun {
    fn controller_s(&self, c: usize) -> f64 {
        self.secs[c].iter().sum()
    }

    fn total_s(&self) -> f64 {
        (0..CONTROLLERS.len()).map(|c| self.controller_s(c)).sum()
    }
}

fn run_image(layers: &[Layer], inputs: &[Vec<i16>], group: u64, spans: &mut Spans) -> ImageRun {
    let handle = spans.open("bench.image", group);
    let mut results = Vec::new();
    let mut secs = Vec::new();
    for (c, ctl) in CONTROLLERS.iter().enumerate() {
        let (mut rs, mut ss) = (Vec::new(), Vec::new());
        for (l, x) in layers.iter().zip(inputs) {
            let name = format!("exec.{ctl}.{}", l.name);
            let t = Instant::now();
            rs.push(spans.span(&name, group, || execute(l, x, &l.models[c])));
            ss.push(t.elapsed().as_secs_f64());
        }
        results.push(rs);
        secs.push(ss);
    }
    spans.close(handle);
    ImageRun { results, secs }
}

/// Output checks of one image: shapes, cycle agreement between the
/// controllers (refresh never stalls the engine), and the rana
/// controller never refreshing more than the normal one.
fn check_image(layers: &[Layer], run: &ImageRun, index: u64, checks: &mut Checks) {
    for (i, l) in layers.iter().enumerate() {
        let (normal, rana) = (&run.results[0][i], &run.results[1][i]);
        for (c, r) in [normal, rana].into_iter().enumerate() {
            checks.check(r.outputs.len() as u64 == l.shape.output_words() && r.reads > 0, || {
                format!(
                    "image {index} {} {}: {} outputs, {} reads",
                    CONTROLLERS[c],
                    l.name,
                    r.outputs.len(),
                    r.reads
                )
            });
        }
        checks.check(normal.cycles == rana.cycles && normal.reads == rana.reads, || {
            format!("image {index} {}: controllers disagree on cycles or reads", l.name)
        });
        checks.check(rana.refresh_words <= normal.refresh_words, || {
            format!(
                "image {index} {}: rana refreshed {} > normal {}",
                l.name, rana.refresh_words, normal.refresh_words
            )
        });
    }
}

fn digests(layers: &[Layer], run: &ImageRun) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (c, ctl) in CONTROLLERS.iter().enumerate() {
        for (l, r) in layers.iter().zip(&run.results[c]) {
            let bytes: Vec<u8> = r.outputs.iter().flat_map(|w| w.to_le_bytes()).collect();
            let key = |k: &str| format!("{ctl}.{}.{k}", l.name);
            out.push((key("outputs_fnv"), format!("{:#018x}", fnv(&bytes))));
            out.push((key("reads"), r.reads.to_string()));
            out.push((key("faults"), r.faults.to_string()));
            out.push((key("refresh_words"), r.refresh_words.to_string()));
        }
    }
    out
}

fn sum_over(run: &ImageRun, c: usize, f: impl Fn(&FunctionalResult) -> u64) -> u64 {
    run.results[c].iter().map(f).sum()
}

/// Runs the workload.
pub fn run(cfg: &Run, checks: &mut Checks) -> Outcome {
    let mut quiet = Spans::new(false);
    let mut setup_samples = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = setup(cfg.seed, &mut quiet);
        let _ = image(cfg.seed, 0, &s.layers);
        setup_samples.push(t.elapsed().as_secs_f64());
        state = Some(s);
    }
    let s = state.expect("at least one set-up");
    let mut out = Outcome { setup_samples, ..Outcome::default() };

    if cfg.traced {
        traced_run(cfg, &s, checks, &mut out);
        return out;
    }

    let start = Instant::now();
    let (mut normal_s, mut rana_s) = (Vec::new(), Vec::new());
    let (mut faults, mut reads) = (0u64, 0u64);
    let mut layer_s = Vec::new();
    let mut index = 0u64;
    while index == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let inputs = image(cfg.seed, index, &s.layers);
        let run = run_image(&s.layers, &inputs, index, &mut quiet);
        check_image(&s.layers, &run, index, checks);
        if index == 0 {
            out.first_unit_rss_mb = crate::host::peak_rss_mb();
            out.digests = digests(&s.layers, &run);
        }
        out.op_rates.push(1.0 / run.total_s());
        normal_s.push(run.controller_s(0));
        rana_s.push(run.controller_s(1));
        layer_s.extend(run.secs.iter().flatten().copied());
        faults += sum_over(&run, 1, |r| u64::from(r.faults));
        reads += sum_over(&run, 1, |r| r.reads);
        index += 1;
    }
    out.ops = index;
    out.lines = vec![
        format!("images: {index}, each under the normal and the rana controller"),
        format!("infer_normal_images_per_s: {:.4} images/s", 1.0 / median(&normal_s)),
        format!("infer_rana_images_per_s: {:.4} images/s", 1.0 / median(&rana_s)),
        format!(
            "sim_bit_error_rate: {:.4e} (faults / (reads x 16) under the rana controller)",
            faults as f64 / (reads as f64 * 16.0)
        ),
        format!("layer call time: {}", describe(&layer_s, "s")),
        format!("per image, normal s: {normal_s:.3?}, rana s: {rana_s:.3?}"),
    ];
    out
}

/// The traced run: one untraced image, then the same image again with
/// spans and telemetry sessions on, then the Ideal-buffer reference.
fn traced_run(cfg: &Run, s: &Setup, checks: &mut Checks, out: &mut Outcome) {
    let inputs = image(cfg.seed, 0, &s.layers);
    let t = Instant::now();
    let untraced = run_image(&s.layers, &inputs, 0, &mut Spans::new(false));
    out.untraced_wall_s = t.elapsed().as_secs_f64();

    let mut spans = Spans::new(true);
    let ((setup, run, traced_wall, ideal), telemetry) = traced(|| {
        let handle = spans.open("bench.setup", 0);
        let setup = setup(cfg.seed, &mut spans);
        spans.close(handle);
        let t = Instant::now();
        let run = run_image(&setup.layers, &inputs, 0, &mut spans);
        let wall = t.elapsed().as_secs_f64();
        let ideal: Vec<FunctionalResult> = setup
            .layers
            .iter()
            .zip(&inputs)
            .map(|(l, x)| {
                spans.span(&format!("exec.ideal.{}", l.name), 0, || {
                    execute(l, x, &BufferModel::Ideal)
                })
            })
            .collect();
        (setup, run, wall, ideal)
    });
    out.traced_wall_s = traced_wall;
    check_image(&setup.layers, &run, 0, checks);
    out.digests = digests(&setup.layers, &run);
    checks.check(digests(&s.layers, &untraced) == out.digests, || {
        "tracing changed the image's results".into()
    });
    for (l, r) in setup.layers.iter().zip(&ideal) {
        checks.check(r.faults == 0 && r.refresh_words == 0, || {
            format!("ideal {}: faults or refresh on SRAM", l.name)
        });
    }

    let self_s = self_time_by_name(spans.spans());
    let m = &mut out.layer;
    let mut ctl_total = [0.0f64; 2];
    let mut ideal_total = 0.0;
    for l in &setup.layers {
        for (c, ctl) in CONTROLLERS.iter().enumerate() {
            let v = self_s[&format!("exec.{ctl}.{}", l.name)];
            ctl_total[c] += v;
            m.push(Metric::new(format!("exec.{ctl}.{}_s", l.name), "s", v));
        }
        let v = self_s[&format!("exec.ideal.{}", l.name)];
        ideal_total += v;
        m.push(Metric::new(format!("exec.ideal.{}_s", l.name), "s", v));
    }
    let macs: u64 = setup.layers.iter().map(|l| l.shape.total_macs()).sum();
    m.push(Metric::new("exec.ideal.macs_per_s", "1/s", macs as f64 / ideal_total));
    for (c, ctl) in CONTROLLERS.iter().enumerate() {
        m.push(Metric::new(
            format!("exec.{ctl}.reads"),
            "count",
            sum_over(&run, c, |r| r.reads) as f64,
        ));
        m.push(Metric::new(
            format!("exec.{ctl}.refresh_words"),
            "count",
            sum_over(&run, c, |r| r.refresh_words) as f64,
        ));
        m.push(Metric::new(
            format!("exec.{ctl}.faults"),
            "count",
            sum_over(&run, c, |r| u64::from(r.faults)) as f64,
        ));
        let model_s = ctl_total[c] - ideal_total;
        m.push(Metric::new(format!("edram.{ctl}.model_s"), "s", model_s));
        m.push(Metric::new(format!("edram.{ctl}.share"), "ratio", model_s / ctl_total[c]));
    }
    m.push(Metric::new("policy.decide_s", "s", self_s["policy.decide"]));
    m.push(Metric::new(
        "policy.flagged_banks",
        "count",
        setup.layers.iter().map(|l| l.flagged_banks).sum::<usize>() as f64,
    ));
    m.push(Metric::new("sched.evaluate_s", "s", self_s["sched.evaluate"]));
    out.telemetry = Some(telemetry);
    out.spans = spans;
}
