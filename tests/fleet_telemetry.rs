//! Trace ↔ metrics ↔ report reconciliation for the fleet simulator.
//!
//! A fleet run under an active tracing session emits `DieFailed`,
//! `DieDrained` and `RequestRerouted` events; the metrics session on the
//! same thread folds them into `fleet.*` metrics. Every number must agree
//! three ways: the [`FleetReport`] counters, the telemetry session's
//! per-kind event counts, and the metrics registry — the trace layer is
//! only an observer, so any disagreement means double-counting or a
//! dropped emission site.

use rana_repro::core::evaluate::Evaluator;
use rana_repro::core::metrics::{MetricKey, MetricsSession, Registry};
use rana_repro::core::trace::{emit, Session, TelemetryReport, TraceConfig};
use rana_repro::fleet::{
    FailureEvent, FailureKind, FleetConfig, FleetReport, FleetSim, RouterPolicy,
};
use rana_repro::serve::{TenantSpec, TrafficModel};
use rana_repro::zoo;
use std::sync::Barrier;

/// An overloaded 4-die cluster with one drain and one crash mid-run, so
/// queues are non-empty when the disruptions land and rerouting actually
/// happens.
fn disruption_config() -> FleetConfig {
    let tenants = vec![TenantSpec::new(zoo::alexnet(), 1.0)];
    let mut cfg = FleetConfig::paper(
        tenants,
        TrafficModel::Poisson { rate_rps: 320.0 },
        4,
        RouterPolicy::PowerOfTwoChoices,
        23,
    );
    cfg.horizon_us = 400_000.0;
    cfg.failures = vec![
        FailureEvent { at_us: 120_000.0, die: 1, kind: FailureKind::Drain },
        FailureEvent { at_us: 200_000.0, die: 2, kind: FailureKind::Crash },
        FailureEvent { at_us: 300_000.0, die: 1, kind: FailureKind::Rejoin },
        FailureEvent { at_us: 320_000.0, die: 2, kind: FailureKind::Rejoin },
    ];
    cfg
}

#[test]
fn fleet_events_reconcile_with_metrics_and_report() {
    let eval = Evaluator::paper_platform();

    let metrics = MetricsSession::start();
    let trace = Session::start(TraceConfig::CountersOnly);
    let report = FleetSim::new(&eval, disruption_config()).run();
    let telemetry = trace.finish();
    let reg = metrics.finish();

    // The scenario must actually exercise every new event kind.
    assert_eq!(report.die_drains, 1);
    assert_eq!(report.die_failures, 1);
    assert!(report.rerouted_drain > 0, "drained die must hand its queue back");
    assert!(report.rerouted_crash > 0, "crashed die must hand its queue back");
    assert!(report.lost_in_flight > 0, "crash must interrupt a batch");

    // Telemetry counted one event per report increment.
    let kind_count = |kind: &str| telemetry.event_counts.get(kind).copied().unwrap_or(0);
    assert_eq!(kind_count("die_failed"), report.die_failures);
    assert_eq!(kind_count("die_drained"), report.die_drains);
    assert_eq!(kind_count("request_rerouted"), report.rerouted_crash + report.rerouted_drain);

    // The metrics session folded the same stream into fleet.* metrics.
    assert_eq!(reg.counter("fleet.die_failures"), report.die_failures);
    assert_eq!(reg.counter("fleet.die_drains"), report.die_drains);
    assert_eq!(reg.counter("fleet.failed_in_flight"), report.lost_in_flight);
    let reroutes = |reason: &str| {
        reg.counter(
            MetricKey::new("fleet.reroutes").label("tenant", "AlexNet").label("reason", reason),
        )
    };
    assert_eq!(reroutes("crash"), report.rerouted_crash);
    assert_eq!(reroutes("drain"), report.rerouted_drain);

    // And the report's per-tenant view agrees with the fleet totals
    // (single tenant, so the slice is the whole fleet).
    assert_eq!(report.tenants[0].rerouted, report.rerouted_crash + report.rerouted_drain);
}

/// One traced, metered fleet run on a fresh evaluator.
fn metered_run() -> (FleetReport, TelemetryReport, Registry) {
    let metrics = MetricsSession::start();
    let trace = Session::start(TraceConfig::CountersOnly);
    let report = FleetSim::new(&Evaluator::paper_platform(), disruption_config()).run();
    (report, trace.finish(), metrics.finish())
}

/// Sessions are scoped to their thread: while one thread runs a traced,
/// metered fleet run, two threads run the same scenario untraced. The
/// untraced threads never build an event, and the traced run records
/// exactly what it records alone.
#[test]
fn concurrent_untraced_runs_stay_out_of_a_traced_run() {
    let (solo_report, solo_trace, solo_metrics) = metered_run();
    let start = Barrier::new(3);
    let (report, trace, metrics) = std::thread::scope(|s| {
        let untraced: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let report =
                        FleetSim::new(&Evaluator::paper_platform(), disruption_config()).run();
                    emit(|| panic!("event built on an untraced thread"));
                    report
                })
            })
            .collect();
        let metrics = MetricsSession::start();
        let trace = Session::start(TraceConfig::CountersOnly);
        start.wait();
        let report = FleetSim::new(&Evaluator::paper_platform(), disruption_config()).run();
        // The untraced runs end before the traced sessions do.
        for h in untraced {
            let silent = h.join().expect("untraced run panicked");
            assert_eq!(silent, solo_report, "tracing elsewhere perturbed an untraced run");
        }
        (report, trace.finish(), metrics.finish())
    });
    assert_eq!(report, solo_report);
    assert_eq!(trace.to_json(true), solo_trace.to_json(true));
    assert_eq!(metrics, solo_metrics);
}

/// Without a session the emission sites are dark: the same run emits
/// nothing and costs no event construction.
#[test]
fn untraced_fleet_run_is_silent_and_identical() {
    let eval = Evaluator::paper_platform();
    let silent = FleetSim::new(&eval, disruption_config()).run();

    let metrics = MetricsSession::start();
    let trace = Session::start(TraceConfig::CountersOnly);
    let traced = FleetSim::new(&eval, disruption_config()).run();
    trace.finish();
    let reg = metrics.finish();

    assert_eq!(silent, traced, "tracing must not perturb the simulation");
    assert_eq!(reg.counter("fleet.die_failures"), traced.die_failures);
}
