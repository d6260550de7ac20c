//! `fleet`: a 1024-die `FleetSim` with the power-of-two-choices router
//! on the five-network zoo mix at 0.7 load, with one drain and one crash
//! (each followed by a rejoin), after set-up has warmed the evaluator's
//! schedule cache from a precompiled store.

use crate::gen::{derive, Rng};
use crate::reference::fnv;
use crate::report::{Checks, Metric};
use crate::spans::{self_time_by_name, Spans};
use crate::stats::median;
use crate::{energy_ok, traced, Outcome, Run};
use rana_core::store::{precompile, PrecompileSpec, ScheduleStore};
use rana_core::{Design, Evaluator};
use rana_fleet::{FailureEvent, FailureKind, FleetConfig, FleetReport, FleetSim, RouterPolicy};
use rana_serve::{TenantSpec, TrafficModel};
use std::time::Instant;

/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 3;

/// Dies in the cluster.
const DIES: usize = 1024;

/// Offered load per die, as a fraction of the mix capacity.
const LOAD: f64 = 0.7;

/// Simulated arrival horizon of one scenario, µs.
const HORIZON_US: f64 = 60_000_000.0;

/// The five-network zoo mix of `exp_fleet` (weights sum to 1).
fn zoo_mix() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new(rana_zoo::alexnet(), 0.35),
        TenantSpec::new(rana_zoo::googlenet(), 0.25),
        TenantSpec::new(rana_zoo::resnet50(), 0.15),
        TenantSpec::new(rana_zoo::vgg16(), 0.1),
        TenantSpec::new(rana_zoo::mobilenet_v1(), 0.15),
    ]
}

struct Setup {
    eval: Evaluator,
    capacity_rps: f64,
}

/// A fresh evaluator whose schedule cache is warmed from a store
/// precompiled for the mix (full buffer, five octaves of thermal
/// derating), plus the mix's per-die capacity.
fn setup(spans: &mut Spans) -> Setup {
    let eval = Evaluator::paper_platform();
    let mix = zoo_mix();
    let nets: Vec<_> = mix.iter().map(|s| s.network.clone()).collect();
    let mut store = ScheduleStore::new();
    let spec = PrecompileSpec { ladder_octaves: 5, ..Default::default() };
    spans.span("sched.precompile", 0, || precompile(&eval, &nets, &spec, &mut store));
    spans.span("store.warm_start", 0, || store.warm_start(eval.cache()));
    let capacity_rps = spans.span("sched.evaluate", 0, || {
        let mean_us: f64 = mix
            .iter()
            .map(|s| s.weight * eval.evaluate(&s.network, Design::RanaStarE5).time_us)
            .sum();
        1e6 / mean_us
    });
    Setup { eval, capacity_rps }
}

/// Scenario `index` of the seed: its traffic seed and failure plan (one
/// drain and one crash on distinct dies, each followed by a rejoin).
fn scenario(seed: u64, index: u64, capacity_rps: f64) -> FleetConfig {
    let mut rng = Rng::new(derive(seed, "failures", index));
    let drained = rng.below(DIES as u64) as usize;
    let crashed = (drained + 1 + rng.below(DIES as u64 - 1) as usize) % DIES;
    let at = |rng: &mut Rng, lo: f64, hi: f64| rng.range(lo, hi) * HORIZON_US;
    let (drain_at, crash_at) = (at(&mut rng, 0.15, 0.35), at(&mut rng, 0.4, 0.6));
    let (drain_back, crash_back) =
        (drain_at + at(&mut rng, 0.2, 0.3), crash_at + at(&mut rng, 0.1, 0.3));
    let mut cfg = FleetConfig::paper(
        zoo_mix(),
        TrafficModel::Poisson { rate_rps: LOAD * capacity_rps * DIES as f64 },
        DIES,
        RouterPolicy::PowerOfTwoChoices,
        derive(seed, "traffic", index),
    );
    cfg.horizon_us = HORIZON_US;
    cfg.failures = vec![
        FailureEvent { at_us: drain_at, die: drained, kind: FailureKind::Drain },
        FailureEvent { at_us: drain_back, die: drained, kind: FailureKind::Rejoin },
        FailureEvent { at_us: crash_at, die: crashed, kind: FailureKind::Crash },
        FailureEvent { at_us: crash_back, die: crashed, kind: FailureKind::Rejoin },
    ];
    cfg
}

/// Invariants every report must satisfy: conservation of requests (the
/// run drains, so nothing is in flight at the end) fleet-wide and per
/// tenant, non-negative energy, and the failure plan having happened.
fn check_report(r: &FleetReport, index: u64, checks: &mut Checks) {
    let accounted = r.served + r.admission_drops + r.deadline_drops + r.unroutable_drops;
    checks.check(r.offered == accounted && r.offered > 0, || {
        format!("scenario {index}: offered {} != served + drops {accounted}", r.offered)
    });
    for t in &r.tenants {
        let accounted = t.served + t.admission_drops + t.deadline_drops + t.unroutable_drops;
        checks.check(t.offered == accounted, || {
            format!(
                "scenario {index} {}: offered {} != served + drops {accounted}",
                t.name, t.offered
            )
        });
    }
    checks.check(r.tenants.iter().map(|t| t.offered).sum::<u64>() == r.offered, || {
        format!("scenario {index}: tenant offered counts do not sum to the fleet's")
    });
    checks.check(energy_ok(&r.energy) && r.wasted_j >= 0.0, || {
        format!("scenario {index}: negative energy")
    });
    checks.check(r.die_failures == 1 && r.die_drains == 1, || {
        format!(
            "scenario {index}: {} crashes and {} drains, plan has one each",
            r.die_failures, r.die_drains
        )
    });
}

fn digests(r: &FleetReport) -> Vec<(String, String)> {
    vec![
        ("report_fnv".into(), format!("{:#018x}", fnv(r.to_json().as_bytes()))),
        ("offered".into(), r.offered.to_string()),
        ("served".into(), r.served.to_string()),
    ]
}

/// One scenario: the simulator's construction and its run, each timed.
struct Scenario {
    report: FleetReport,
    new_s: f64,
    run_s: f64,
}

fn run_scenario(s: &Setup, cfg: FleetConfig, group: u64, spans: &mut Spans) -> Scenario {
    let t = Instant::now();
    let sim = spans.span("fleet.new", group, || FleetSim::new(&s.eval, cfg));
    let new_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = spans.span("fleet.run", group, || sim.run());
    Scenario { report, new_s, run_s: t.elapsed().as_secs_f64() }
}

/// Runs the workload.
pub fn run(cfg: &Run, checks: &mut Checks) -> Outcome {
    let mut quiet = Spans::new(false);
    let mut setup_samples = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        state = Some(setup(&mut quiet));
        setup_samples.push(t.elapsed().as_secs_f64());
    }
    let s = state.expect("at least one set-up");
    let mut out = Outcome { setup_samples, ..Outcome::default() };
    if cfg.traced {
        traced_run(cfg, &s, checks, &mut out);
        return out;
    }

    let misses_after_setup = s.eval.cache().misses();
    let start = Instant::now();
    let mut reports = Vec::new();
    let mut index = 0u64;
    while index == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let sc = run_scenario(&s, scenario(cfg.seed, index, s.capacity_rps), index, &mut quiet);
        check_report(&sc.report, index, checks);
        if index == 0 {
            out.first_unit_rss_mb = crate::host::peak_rss_mb();
            out.digests = digests(&sc.report);
        }
        out.op_rates.push(sc.report.offered as f64 / (sc.new_s + sc.run_s));
        out.ops += sc.report.offered;
        reports.push(sc.report);
        index += 1;
    }
    let p99: Vec<f64> = reports.iter().map(|r| r.latency.p99_us / 1e3).collect();
    let miss: Vec<f64> = reports.iter().map(FleetReport::deadline_miss_rate).collect();
    let mj: Vec<f64> = reports.iter().map(|r| r.energy_per_inference_j() * 1e3).collect();
    let served = reports.iter().map(|r| r.served).min().unwrap_or(0);
    out.lines = vec![
        format!(
            "scenarios: {index} x {DIES} dies, po2c, {LOAD} load, {} s simulated",
            HORIZON_US / 1e6
        ),
        format!(
            "fleet_requests_per_s: {:.1} simulated requests per host second",
            median(&out.op_rates)
        ),
        format!(
            "sim_p99_ms: {:.3} ms (median over scenarios; >= {served} served each)",
            median(&p99)
        ),
        format!("sim_miss_rate: {:.6}", median(&miss)),
        format!("sim_mj_per_inference: {:.6} mJ", median(&mj)),
        format!(
            "schedule-cache misses after set-up: {}",
            s.eval.cache().misses() - misses_after_setup
        ),
    ];
    out
}

/// The traced run: scenario 0 untraced, then set-up and scenario 0
/// again with spans and telemetry sessions on.
fn traced_run(cfg: &Run, s: &Setup, checks: &mut Checks, out: &mut Outcome) {
    let t = Instant::now();
    let untraced =
        run_scenario(s, scenario(cfg.seed, 0, s.capacity_rps), 0, &mut Spans::new(false));
    out.untraced_wall_s = t.elapsed().as_secs_f64();

    let mut spans = Spans::new(true);
    let ((setup, sc, wall, misses), telemetry) = traced(|| {
        let handle = spans.open("bench.setup", 0);
        let setup = setup(&mut spans);
        spans.close(handle);
        let misses = setup.eval.cache().misses();
        let t = Instant::now();
        let sc = run_scenario(&setup, scenario(cfg.seed, 0, setup.capacity_rps), 0, &mut spans);
        let wall = t.elapsed().as_secs_f64();
        let misses = setup.eval.cache().misses() - misses;
        (setup, sc, wall, misses)
    });
    out.traced_wall_s = wall;
    check_report(&sc.report, 0, checks);
    out.digests = digests(&sc.report);
    checks.check(digests(&untraced.report) == out.digests, || {
        "tracing changed the fleet report".into()
    });

    let self_s = self_time_by_name(spans.spans());
    let r = &sc.report;
    out.layer = vec![
        Metric::new("sched.precompile_s", "s", self_s["sched.precompile"]),
        Metric::new("sched.evaluate_s", "s", self_s["sched.evaluate"]),
        Metric::new("store.warm_start_s", "s", self_s["store.warm_start"]),
        Metric::new("cache.warm_hits", "count", setup.eval.cache().warm_hits() as f64),
        Metric::new("fleet.new_s", "s", sc.new_s),
        Metric::new("fleet.run_s", "s", sc.run_s),
        Metric::new("fleet.offered", "count", r.offered as f64),
        Metric::new("fleet.batches", "count", r.batches as f64),
        Metric::new("fleet.retunes", "count", r.retunes as f64),
        Metric::new("fleet.profile_entries", "count", r.profile_entries as f64),
        Metric::new("fleet.cold_schedules", "count", r.cold_schedules as f64),
        Metric::new("fleet.ns_per_request", "ns", sc.run_s * 1e9 / r.offered as f64),
    ];
    out.lines = vec![format!("schedule-cache misses during the traced scenario: {misses}")];
    out.telemetry = Some(telemetry);
    out.spans = spans;
}
