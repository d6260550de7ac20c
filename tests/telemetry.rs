//! Integration tests for the `rana-trace` telemetry layer: ring-buffer
//! overflow, sink ordering under the parallel worker pool, and the Eq. 14
//! energy-ledger reconciliation against `Evaluator` totals on all five
//! networks.
//!
//! Sessions are scoped to the thread that starts them (and to the pool
//! workers that inherit its scope), so these tests run side by side on
//! `cargo test`'s parallel threads without seeing each other's events.
//! Worker counts are passed explicitly rather than through the
//! environment, which every test thread shares.

use rana_core::designs::Design;
use rana_core::evaluate::Evaluator;
use rana_core::par::par_map_with;
use rana_core::trace::{
    EnergyLedger, Event, RingSink, Session, SharedRing, Sink, TelemetryReport, TraceConfig,
};
use rana_zoo::Network;

/// With no session active, emission sites must not even construct events.
#[test]
fn disabled_tracer_constructs_nothing() {
    assert!(!rana_core::trace::enabled());
    rana_core::trace::emit(|| panic!("event built while tracing is disabled"));
}

#[test]
fn ring_buffer_overflow_keeps_newest_and_counts_drops() {
    let mut ring = RingSink::new(4);
    for seq in 0..11u64 {
        ring.record(seq, &Event::CacheLookup { cache: "t".into(), fingerprint: seq, hit: false });
    }
    assert_eq!(ring.dropped(), 7);
    let kept: Vec<u64> = ring.events().iter().map(|(s, _)| *s).collect();
    assert_eq!(kept, vec![7, 8, 9, 10], "oldest events are evicted first");
}

/// A session draining into an over-capacity ring still aggregates every
/// event in its report; only the retained window shrinks.
#[test]
fn session_report_counts_past_ring_overflow() {
    let shared = SharedRing::new(2);
    let session = Session::start(TraceConfig::Custom(Box::new(shared.sink())));
    for i in 0..10u64 {
        rana_core::trace::emit(|| Event::CacheLookup {
            cache: "t".into(),
            fingerprint: i,
            hit: false,
        });
    }
    let report = session.finish();
    assert_eq!(report.events_emitted, 10);
    assert_eq!(shared.snapshot().len(), 2);
    assert_eq!(shared.dropped(), 8);
}

/// Runs the Figure 15 AlexNet row the way `evaluate_many` does — design
/// points fanned over the worker pool, one shared schedule cache — with
/// an explicit worker count.
fn sweep(threads: usize) {
    let eval = Evaluator::paper_platform();
    let net = rana_zoo::alexnet();
    let points: Vec<(&Network, Design)> = Design::ALL.iter().map(|&d| (&net, d)).collect();
    let results = par_map_with(&points, threads, |&(net, design)| {
        eval.scheduler_for(design).schedule_network_with(net, Some(eval.cache()), 1)
    });
    assert_eq!(results.len(), Design::ALL.len());
}

/// The single-worker sweep's full event stream.
fn traced_sweep_events() -> Vec<(u64, Event)> {
    let shared = SharedRing::new(1 << 16);
    let session = Session::start(TraceConfig::Custom(Box::new(shared.sink())));
    sweep(1);
    session.finish();
    shared.snapshot()
}

/// Sink ordering under the worker pool: with one worker the event stream
/// of an `evaluate_many` sweep is deterministic — two identical sweeps
/// produce identical sequences, event for event.
#[test]
fn evaluate_many_event_order_is_deterministic_single_threaded() {
    let first = traced_sweep_events();
    let second = traced_sweep_events();
    assert!(!first.is_empty(), "a traced sweep must emit events");
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a, b, "event streams diverged");
    }
    // Sequence numbers are dense and ordered regardless of thread count.
    for (i, (seq, _)) in first.iter().enumerate() {
        assert_eq!(*seq, i as u64);
    }
}

/// Schedule-search counters are order-free, so they must agree between a
/// single-threaded and a multi-threaded run of the same sweep.
#[test]
fn counters_are_thread_count_invariant() {
    let run = |threads: usize| -> TelemetryReport {
        let session = Session::start(TraceConfig::CountersOnly);
        sweep(threads);
        session.finish()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.counters, parallel.counters);
    assert_eq!(serial.ledger, parallel.ledger);
    assert_eq!(serial.event_counts, parallel.event_counts);
}

/// The cross-check at the heart of the telemetry layer: the sum of the
/// per-layer `ScheduleChosen` ledgers must reconcile with the evaluator's
/// Eq. 14 totals to ≤ 1e-9 relative error, on every network in the zoo.
#[test]
fn energy_ledger_reconciles_with_evaluator_on_all_networks() {
    let nets = [
        rana_zoo::alexnet(),
        rana_zoo::vgg16(),
        rana_zoo::googlenet(),
        rana_zoo::resnet50(),
        rana_zoo::mobilenet_v1(),
    ];
    let eval = Evaluator::paper_platform();
    for net in &nets {
        let session = Session::start(TraceConfig::CountersOnly);
        let result = eval.evaluate(net, Design::RanaStarE5);
        let report = session.finish();
        let expected: EnergyLedger = result.total.ledger();
        let err = report.ledger.relative_error(&expected);
        assert!(
            err <= 1e-9,
            "{}: trace ledger {:?} vs evaluator {:?} (rel err {err:.3e})",
            net.name(),
            report.ledger,
            expected,
        );
        assert_eq!(
            report.ledger_layers as usize,
            result.schedule.layers.len(),
            "{}: one ScheduleChosen per layer",
            net.name(),
        );
    }
}

/// The adaptive thermal runtime emits one thermal sample and one refresh
/// decision per layer boundary.
#[test]
fn adaptive_runtime_emits_thermal_and_refresh_events() {
    use rana_core::adaptive::{AdaptiveConfig, AdaptiveRuntime, FallbackPolicy};
    use rana_edram::thermal::ThermalModel;
    let session = Session::start(TraceConfig::Ring { capacity: 4096 });
    let eval = Evaluator::paper_platform();
    let net = rana_zoo::alexnet();
    let design = Design::RanaStarE5;
    let config = AdaptiveConfig::for_design(design, FallbackPolicy::Conservative, 0xA1EC);
    let mut rt = AdaptiveRuntime::new(&eval, &net, design, ThermalModel::embedded_65nm(), config);
    rt.run_pass();
    let report = session.finish();
    let thermal = report.event_counts.get("thermal_sample").copied().unwrap_or(0);
    let refresh = report.event_counts.get("refresh_decision").copied().unwrap_or(0);
    assert!(thermal > 0, "thermal loop must emit samples");
    assert_eq!(thermal, refresh, "one refresh decision per sensed boundary");
    assert_eq!(report.counter("adaptive.layers"), thermal);
}
