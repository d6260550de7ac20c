//! Telemetry walkthrough: attach a JSONL sink, run one traced layer
//! schedule, and read the Eq. 14 energy ledger back out of the report.
//!
//! The tracer is off by default (a single thread-local load per
//! emission site); starting a [`Session`] with a [`TraceConfig`] turns it
//! on for the duration. Here the Stage-2 scheduler runs AlexNet once with
//! events streaming to `trace_alexnet_example.jsonl`, then the finished
//! report's ledger is cross-checked against the schedule's own totals —
//! the same reconciliation `tests/telemetry.rs` enforces at 1e-9 across
//! the whole zoo.
//!
//! Run with: `cargo run --release --example trace_schedule`

use rana_repro::accel::{AcceleratorConfig, ControllerKind, RefreshModel};
use rana_repro::core::scheduler::Scheduler;
use rana_repro::core::trace::{Session, TraceConfig};
use rana_repro::zoo;

fn main() {
    let cfg = AcceleratorConfig::paper_edram();
    let refresh = RefreshModel { interval_us: 734.0, kind: ControllerKind::RefreshOptimized };
    let scheduler = Scheduler::rana(cfg, refresh);
    let net = zoo::alexnet();

    // 1. Attach a sink: every event the scheduler emits while the session
    //    lives is appended to the JSONL file, one object per line, in
    //    sequence order.
    let path = std::env::temp_dir().join("trace_alexnet_example.jsonl");
    let session = Session::start(TraceConfig::Jsonl { path: path.clone() });

    // 2. Run the traced workload: one network schedule. The scheduler
    //    emits a `ScheduleChosen` event per layer (with its final Eq. 14
    //    energy) plus search counters.
    let schedule = scheduler.schedule_network(&net);

    // 3. Finish the session and read the report back.
    let report = session.finish();

    println!("Traced schedule of {}:", net.name());
    println!("  events emitted:       {}", report.events_emitted);
    println!("  layers in ledger:     {}", report.ledger_layers);
    println!("  candidates evaluated: {}", report.counter("scheduler.candidates_evaluated"));
    println!("  candidates pruned:    {}", report.counter("scheduler.candidates_pruned"));

    // 4. The Eq. 14 ledger: the per-component sum of every ScheduleChosen
    //    event, reconciling with the schedule's own totals.
    let ledger = report.ledger;
    let expected = schedule.total_energy();
    println!("\nEq. 14 energy ledger (from the event stream):");
    println!("  computing: {:>9.4} mJ", ledger.computing_j * 1e3);
    println!("  buffer:    {:>9.4} mJ", ledger.buffer_j * 1e3);
    println!("  refresh:   {:>9.4} mJ", ledger.refresh_j * 1e3);
    println!("  off-chip:  {:>9.4} mJ", ledger.offchip_j * 1e3);
    println!("  total:     {:>9.4} mJ", ledger.total_j() * 1e3);
    let err = ledger.relative_error(&expected.ledger());
    println!("\nReconciliation vs. the schedule totals: rel err {err:.3e}");
    assert!(err <= 1e-9, "ledger must reconcile with the schedule totals");

    let lines = std::fs::read_to_string(&path).map(|t| t.lines().count()).unwrap_or(0);
    println!("JSONL stream: {} events at {}", lines, path.display());
    let _ = std::fs::remove_file(&path);
}
