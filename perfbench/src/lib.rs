//! The repository's performance benchmark: three workloads (`infer`,
//! `compile`, `fleet`) over the RANA crates, each generated from a seed,
//! each checking its outputs, with untraced end-to-end metrics and a
//! separate traced run for the per-layer breakdown.

pub mod compile;
pub mod fleet;
pub mod gen;
pub mod host;
pub mod infer;
pub mod reference;
pub mod report;
pub mod spans;
pub mod stats;

use rana_trace::{Session, TelemetryReport, TraceConfig};
use report::Metric;
use spans::Spans;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["infer", "compile", "fleet"];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Measurement budget, s: units of work start until it is spent.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
}

/// Counters collected by the telemetry sessions during a traced run.
#[derive(Debug)]
pub struct Telemetry {
    /// The `rana_trace` session's report.
    pub trace: TelemetryReport,
    /// The `rana_metrics` session's registry.
    pub metrics: rana_metrics::Registry,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up times, s, one per repetition.
    pub setup_samples: Vec<f64>,
    /// Operations per second of each unit of work measured.
    pub op_rates: Vec<f64>,
    /// Operations completed in the measured phase.
    pub ops: u64,
    /// Digests of the first unit of work, for the reference comparison.
    pub digests: Vec<(String, String)>,
    /// Human-readable result lines.
    pub lines: Vec<String>,
    /// Per-layer metrics (traced run only).
    pub layer: Vec<Metric>,
    /// Wall time of one untraced unit of work (traced run only), s.
    pub untraced_wall_s: f64,
    /// Wall time of the same unit with tracing on (traced run only), s.
    pub traced_wall_s: f64,
    /// Session counters (traced run only).
    pub telemetry: Option<Telemetry>,
    /// Recorded spans (traced run only).
    pub spans: Spans,
    /// Peak RSS after set-up and the first unit of work, MB (untraced
    /// run only). Later units reuse the same structures, so this is the
    /// workload's footprint without allocator drift from repetition.
    pub first_unit_rss_mb: Option<f64>,
}

/// Runs `f` with a `rana_trace` counters session and a `rana_metrics`
/// session active, returning what they collected.
pub fn traced<R>(f: impl FnOnce() -> R) -> (R, Telemetry) {
    let session = Session::start(TraceConfig::CountersOnly);
    let metrics = rana_metrics::MetricsSession::start();
    let out = f();
    let metrics = metrics.finish();
    let trace = session.finish();
    (out, Telemetry { trace, metrics })
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order:
/// median set-up time, peak RSS (`rss_mb`), and the median over units of
/// work of operations per second.
pub fn end_to_end_metrics(out: &Outcome, rss_mb: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", "s", stats::median(&out.setup_samples)),
        Metric::new("peak_rss_mb", "MB", rss_mb),
        Metric::new("ops_per_s", "1/s", stats::median(&out.op_rates)),
    ]
}

/// Every per-layer metric the traced run reports, with its unit, in
/// `BENCHMARK.json` order. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("exec.normal.conv1_s", "s"),
    ("exec.normal.conv2_s", "s"),
    ("exec.normal.conv3_s", "s"),
    ("exec.normal.conv4_s", "s"),
    ("exec.normal.conv5_s", "s"),
    ("exec.rana.conv1_s", "s"),
    ("exec.rana.conv2_s", "s"),
    ("exec.rana.conv3_s", "s"),
    ("exec.rana.conv4_s", "s"),
    ("exec.rana.conv5_s", "s"),
    ("exec.ideal.conv1_s", "s"),
    ("exec.ideal.conv2_s", "s"),
    ("exec.ideal.conv3_s", "s"),
    ("exec.ideal.conv4_s", "s"),
    ("exec.ideal.conv5_s", "s"),
    ("exec.ideal.macs_per_s", "1/s"),
    ("exec.normal.reads", "count"),
    ("exec.normal.refresh_words", "count"),
    ("exec.normal.faults", "count"),
    ("exec.rana.reads", "count"),
    ("exec.rana.refresh_words", "count"),
    ("exec.rana.faults", "count"),
    ("edram.normal.model_s", "s"),
    ("edram.normal.share", "ratio"),
    ("edram.rana.model_s", "s"),
    ("edram.rana.share", "ratio"),
    ("policy.decide_s", "s"),
    ("policy.flagged_banks", "count"),
    ("sched.precompile_s", "s"),
    ("sched.evaluate_s", "s"),
    ("sched.searches", "count"),
    ("sched.candidates_evaluated", "count"),
    ("sched.candidates_pruned", "count"),
    ("sched.prune_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.warm_hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("store.encode_s", "s"),
    ("store.decode_s", "s"),
    ("store.warm_start_s", "s"),
    ("store.bytes", "bytes"),
    ("store.entries", "count"),
    ("serve.new_s", "s"),
    ("serve.run_s", "s"),
    ("serve.requests", "count"),
    ("serve.fresh_searches", "count"),
    ("fleet.new_s", "s"),
    ("fleet.run_s", "s"),
    ("fleet.offered", "count"),
    ("fleet.batches", "count"),
    ("fleet.retunes", "count"),
    ("fleet.profile_entries", "count"),
    ("fleet.cold_schedules", "count"),
    ("fleet.ns_per_request", "ns"),
    ("bench.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.events_emitted", "count"),
    ("host.calib_mops", "Mops"),
];

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order: the
/// workload's own, then the session counters, the harness's self time,
/// the tracing overhead and the calibration figure.
pub fn per_layer_metrics(out: &Outcome, calib_mops: f64) -> Vec<Metric> {
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut set = |name: &str, v: f64| values.push((name.to_string(), v));
    if let Some(t) = &out.telemetry {
        let c = |k: &str| t.trace.counter(k) as f64;
        let (evaluated, pruned) =
            (c("scheduler.candidates_evaluated"), c("scheduler.candidates_pruned"));
        set("sched.searches", c("scheduler.searches"));
        set("sched.candidates_evaluated", evaluated);
        set("sched.candidates_pruned", pruned);
        set("sched.prune_ratio", ratio(pruned, evaluated + pruned));
        let (hits, misses) = (c("cache.schedule.hit"), c("cache.schedule.miss"));
        set("cache.hits", hits);
        set("cache.misses", misses);
        set("cache.hit_ratio", ratio(hits, hits + misses));
        set("trace.events_emitted", t.trace.events_emitted as f64);
    }
    let bench_self: f64 = spans::self_time_by_name(out.spans.spans())
        .iter()
        .filter(|(name, _)| name.starts_with("bench."))
        .map(|(_, s)| s)
        .sum();
    set("bench.self_s", bench_self);
    set("trace.overhead_ratio", ratio(out.traced_wall_s, out.untraced_wall_s));
    set("host.calib_mops", calib_mops);
    for m in &out.layer {
        set(&m.name, m.value);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values.iter().rev().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
            Metric::new(name, unit, v)
        })
        .collect()
}

/// Whether every energy component is finite and non-negative.
pub fn energy_ok(e: &rana_core::EnergyBreakdown) -> bool {
    [e.computing_j, e.buffer_j, e.refresh_j, e.offchip_j].iter().all(|v| v.is_finite() && *v >= 0.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array in `BENCHMARK.json`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_in(&json, "per_layer"), per_layer);
        let out = Outcome { setup_samples: vec![1.0], op_rates: vec![2.0], ..Outcome::default() };
        let e2e: Vec<String> = end_to_end_metrics(&out, 3.0).into_iter().map(|m| m.name).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "workloads"), WORKLOADS);
        for (name, unit) in PER_LAYER {
            assert!(report::valid_name(name), "{name}");
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} unit"
            );
        }
    }

    #[test]
    fn per_layer_defaults_to_zero_and_takes_workload_values() {
        let out = Outcome {
            layer: vec![Metric::new("fleet.offered", "count", 42.0)],
            untraced_wall_s: 2.0,
            traced_wall_s: 2.2,
            ..Outcome::default()
        };
        let m = per_layer_metrics(&out, 500.0);
        assert_eq!(m.len(), PER_LAYER.len());
        let get = |n: &str| m.iter().find(|x| x.name == n).expect("present").value;
        assert_eq!(get("fleet.offered"), 42.0);
        assert_eq!(get("exec.rana.conv3_s"), 0.0);
        assert!((get("trace.overhead_ratio") - 1.1).abs() < 1e-12);
        assert_eq!(get("host.calib_mops"), 500.0);
    }
}
