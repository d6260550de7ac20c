//! # rana-trace — telemetry & energy accounting for the RANA reproduction
//!
//! A zero-cost-when-disabled, deterministic telemetry layer. The runtime
//! crates (`rana-core`, `rana-accel`, `rana-edram`, `rana-serve`) emit
//! typed [`Event`]s at their decision points — schedule selection, refresh
//! divider programming, thermal sensing, memo-cache lookups, serving
//! dispatch — through a pluggable [`Sink`]. A per-run [`Registry`]
//! aggregates hierarchical counters, span timings and the paper's Eq. 14
//! energy ledger into a [`TelemetryReport`].
//!
//! ## Thread-scoped sessions
//!
//! Telemetry is recorded into the calling thread's [`Scope`]: the active
//! trace [`Session`], if any, plus the metrics registry a
//! `rana_metrics::MetricsSession` attached as a [`Meter`], if any.
//! [`Session::start`] installs a session on the calling thread only, and
//! finishing (or dropping) it restores whatever that thread had before, so
//! concurrent runs on different threads never see each other's events.
//! Pool workers inherit their caller's scope: `rana_core::par` captures
//! [`Scope::current`] and [`enter`](Scope::enter)s it in every worker, so
//! parallel schedule searches still count toward the session that started
//! them. While a session and a meter share a scope, every emitted event is
//! also folded into the meter — one run yields events, counters and
//! metrics together.
//!
//! ## Zero cost when off
//!
//! Every emission site is guarded by [`enabled`], a single load of a
//! const-initialized thread-local flag. When no session is active on the
//! thread the guard is false, no event is constructed, no string is
//! allocated, and existing outputs stay byte-identical.
//!
//! ## Determinism
//!
//! Events carry only workload-derived data (names, tilings, energies,
//! fingerprints) — never timestamps or machine state — and sinks observe
//! them in sequence order, so a fixed workload produces a byte-identical
//! JSONL stream. Wall-clock span timings live only in the aggregate
//! report, and [`TelemetryReport::to_json`] can omit them for
//! deterministic artifacts.
//!
//! ```
//! use rana_trace::{Event, EnergyLedger, Session, TraceConfig};
//!
//! let session = Session::start(TraceConfig::Ring { capacity: 64 });
//! // ... run a workload; instrumented crates emit events ...
//! rana_trace::emit(|| Event::ThermalSample {
//!     at: "layer0".into(),
//!     temp_c: 45.0,
//!     scaled_retention_us: 734.0,
//! });
//! rana_trace::ledger(&EnergyLedger { computing_j: 1e-3, ..Default::default() });
//! let report = session.finish();
//! assert_eq!(report.events_emitted, 1);
//! assert!((report.ledger.total_j() - 1e-3).abs() < 1e-15);
//! ```

#![warn(missing_docs)]

mod event;
mod report;
mod sink;

pub use event::{json_f64, json_string, EnergyLedger, Event};
pub use report::{Registry, SpanStats, TelemetryReport};
pub use sink::{JsonlSink, NullSink, RingSink, SharedRing, SharedRingSink, Sink, TraceConfig};

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A metrics registry attached to a [`Scope`]; `rana-metrics` implements
/// it for the registry of a `MetricsSession`.
pub trait Meter: Any + Send + Sync {
    /// Folds one event emitted inside the scope into the registry.
    fn fold(&self, event: &Event);
}

type SessionState = Arc<Mutex<SessionInner>>;

fn lock(state: &SessionState) -> MutexGuard<'_, SessionInner> {
    state.lock().expect("trace session poisoned: an emitter panicked")
}

struct SessionInner {
    seq: u64,
    sink: Box<dyn Sink>,
    registry: Registry,
}

/// The telemetry one thread records into: a trace session and a meter,
/// each optional.
///
/// Cloning a scope and [`enter`](Self::enter)ing it on another thread makes
/// that thread record into the same session and meter; this is how pool
/// workers inherit their caller's telemetry.
#[derive(Clone, Default)]
pub struct Scope {
    trace: Option<SessionState>,
    meter: Option<Arc<dyn Meter>>,
}

thread_local! {
    /// Whether [`SCOPE`] holds a trace session and a meter. Emission sites
    /// read only this when telemetry is off: it is const-initialized and
    /// has no destructor, so the check is a plain thread-local load.
    static ACTIVE: Cell<(bool, bool)> = const { Cell::new((false, false)) };
    /// The calling thread's scope.
    static SCOPE: RefCell<Scope> = const { RefCell::new(Scope { trace: None, meter: None }) };
}

/// Applies `f` to the calling thread's scope, keeping [`ACTIVE`] in sync.
fn update_scope<R>(f: impl FnOnce(&mut Scope) -> R) -> R {
    SCOPE.with_borrow_mut(|scope| {
        let out = f(scope);
        ACTIVE.set((scope.trace.is_some(), scope.meter.is_some()));
        out
    })
}

impl Scope {
    /// A handle on the calling thread's scope.
    pub fn current() -> Scope {
        SCOPE.with_borrow(Scope::clone)
    }

    /// Runs `f` with this scope installed on the calling thread, then
    /// restores the thread's previous scope (also when `f` panics).
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Scope);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = std::mem::take(&mut self.0);
                update_scope(|scope| *scope = prev);
            }
        }
        let _restore = Restore(update_scope(|scope| std::mem::replace(scope, self.clone())));
        f()
    }
}

/// Whether a tracing session is active on the calling thread.
///
/// This is the only cost tracing imposes on an untraced run: one
/// thread-local load per emission site.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.get().0
}

/// Whether a [`Meter`] is attached to the calling thread's scope.
#[inline]
pub fn metered() -> bool {
    ACTIVE.get().1
}

/// Attaches `meter` to the calling thread's scope and returns the meter it
/// replaces; pass that back to detach.
pub fn replace_meter(meter: Option<Arc<dyn Meter>>) -> Option<Arc<dyn Meter>> {
    update_scope(|scope| std::mem::replace(&mut scope.meter, meter))
}

/// Runs `f` against the meter attached to the calling thread's scope, if
/// any.
pub fn with_meter(f: impl FnOnce(&dyn Meter)) {
    SCOPE.with_borrow(|scope| scope.meter.as_deref().map(f));
}

fn with_state<R>(f: impl FnOnce(&mut SessionInner, Option<&dyn Meter>) -> R) -> Option<R> {
    SCOPE.with_borrow(|scope| {
        let mut inner = lock(scope.trace.as_ref()?);
        Some(f(&mut inner, scope.meter.as_deref()))
    })
}

/// Emits one event if tracing is active. The closure runs only when a
/// session exists, so event construction (and its allocations) is free
/// when tracing is off.
#[inline]
pub fn emit(build: impl FnOnce() -> Event) {
    if !enabled() {
        return;
    }
    with_state(|inner, meter| {
        let event = build();
        inner.registry.count_event(event.kind());
        if let Some(ledger) = event.ledger() {
            let ledger = *ledger;
            inner.registry.add_ledger(&ledger);
        }
        if let Some(meter) = meter {
            meter.fold(&event);
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.sink.record(seq, &event);
    });
}

/// Adds `n` to the hierarchical counter at the dotted `path` (no event is
/// recorded — counters are aggregation-only and cheap enough for warm
/// paths).
#[inline]
pub fn count(path: &str, n: u64) {
    if !enabled() {
        return;
    }
    with_state(|inner, _| inner.registry.add(path, n));
}

/// Accumulates one finalized per-layer Eq. 14 ledger into the report
/// without emitting an event. Used by emission sites that already emitted
/// a [`Event::ScheduleChosen`] elsewhere, or that only need the ledger.
#[inline]
pub fn ledger(l: &EnergyLedger) {
    if !enabled() {
        return;
    }
    with_state(|inner, _| inner.registry.add_ledger(l));
}

/// Times the enclosed closure and records it as a span named `name` when
/// tracing is active; otherwise just runs the closure.
///
/// Span wall-times land only in the aggregate [`TelemetryReport`]
/// (non-deterministic section), never in the event stream.
#[inline]
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_secs_f64();
    with_state(|inner, _| inner.registry.record_span(name, elapsed));
    out
}

/// An active tracing session on the calling thread (and on the pool
/// workers that inherit its [`Scope`]). Dropping or
/// [`finish`](Session::finish)ing it restores the session the thread had
/// before, and `finish` yields the aggregated [`TelemetryReport`].
///
/// Sessions on different threads are independent, and a session nested on
/// one thread shadows the outer one until it ends.
pub struct Session {
    state: SessionState,
    prev: Option<SessionState>,
    /// Installed on one thread's scope, so it must end on that thread.
    _thread: PhantomData<*const ()>,
}

impl Session {
    /// Starts a session writing through the sink selected by `config`.
    ///
    /// [`TraceConfig::Off`] still creates a session (with a null sink and
    /// live counters) — passing `Off` is how callers say "aggregate but
    /// keep no events"; to not trace at all, simply don't start a session.
    pub fn start(config: TraceConfig) -> Session {
        let sink = config.into_sink().unwrap_or_else(|| Box::new(NullSink));
        let state = Arc::new(Mutex::new(SessionInner { seq: 0, sink, registry: Registry::new() }));
        let prev = update_scope(|scope| scope.trace.replace(state.clone()));
        Session { state, prev, _thread: PhantomData }
    }

    /// Snapshot of everything aggregated so far (counters, spans, ledger,
    /// event counts), without ending the session.
    pub fn snapshot(&self) -> TelemetryReport {
        let inner = lock(&self.state);
        inner.registry.clone().into_report(inner.seq, inner.sink.dropped())
    }

    /// Ends the session, flushes the sink, and returns the aggregated
    /// report. The thread's previous session is back in place when this
    /// returns.
    pub fn finish(self) -> TelemetryReport {
        let mut inner = lock(&self.state);
        inner.sink.flush();
        let seq = inner.seq;
        let dropped = inner.sink.dropped();
        std::mem::take(&mut inner.registry).into_report(seq, dropped)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let prev = self.prev.take();
        update_scope(|scope| scope.trace = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emit_is_a_noop() {
        assert!(!enabled());
        emit(|| panic!("event constructed while tracing disabled"));
        count("never", 1);
        ledger(&EnergyLedger::default());
        let x = span("never", || 42);
        assert_eq!(x, 42);
    }

    #[test]
    fn session_collects_events_counters_and_ledger() {
        let session = Session::start(TraceConfig::Ring { capacity: 4 });
        emit(|| Event::CacheLookup { cache: "schedule".into(), fingerprint: 1, hit: true });
        emit(|| Event::CacheLookup { cache: "schedule".into(), fingerprint: 2, hit: false });
        count("cache.schedule.hit", 1);
        count("cache.schedule.miss", 1);
        ledger(&EnergyLedger { computing_j: 2.0, buffer_j: 1.0, refresh_j: 0.5, offchip_j: 0.5 });
        let report = session.finish();
        assert!(!enabled());
        assert_eq!(report.events_emitted, 2);
        assert_eq!(report.event_counts["cache_lookup"], 2);
        assert_eq!(report.hit_rate("cache.schedule"), Some(0.5));
        assert_eq!(report.ledger.total_j(), 4.0);
        assert_eq!(report.ledger_layers, 1);
    }

    #[test]
    fn schedule_chosen_feeds_ledger_automatically() {
        let session = Session::start(TraceConfig::CountersOnly);
        emit(|| Event::ScheduleChosen {
            network: "alexnet".into(),
            layer: "conv1".into(),
            pattern: "OD".into(),
            tiling: [16, 16, 1, 16],
            energy: EnergyLedger {
                computing_j: 1.0,
                buffer_j: 0.0,
                refresh_j: 0.0,
                offchip_j: 0.0,
            },
        });
        let report = session.finish();
        assert_eq!(report.ledger_layers, 1);
        assert_eq!(report.ledger.computing_j, 1.0);
    }

    #[test]
    fn ring_overflow_surfaces_in_report() {
        let session = Session::start(TraceConfig::Ring { capacity: 2 });
        for k in 0..5 {
            emit(|| Event::CacheLookup { cache: "c".into(), fingerprint: k, hit: false });
        }
        assert_eq!(session.snapshot().events_dropped, 3);
        let report = session.finish();
        assert_eq!(report.events_emitted, 5);
        assert_eq!(report.events_dropped, 3);
        assert!(report.to_json(true).contains("\"events_dropped\": 3"));
    }

    #[test]
    fn spans_recorded_only_inside_session() {
        let session = Session::start(TraceConfig::CountersOnly);
        let out = span("work", || 7);
        assert_eq!(out, 7);
        let report = session.finish();
        assert_eq!(report.spans["work"].count, 1);
    }

    #[test]
    fn sessions_are_scoped_to_their_thread() {
        let session = Session::start(TraceConfig::CountersOnly);
        std::thread::spawn(|| {
            assert!(!enabled());
            emit(|| panic!("event built on a thread outside the session"));
        })
        .join()
        .unwrap();
        assert_eq!(session.finish().events_emitted, 0);
    }

    #[test]
    fn nested_session_shadows_then_restores_the_outer_one() {
        let outer = Session::start(TraceConfig::CountersOnly);
        count("outer", 1);
        let inner = Session::start(TraceConfig::CountersOnly);
        count("inner", 1);
        let inner = inner.finish();
        count("outer", 1);
        let outer = outer.finish();
        assert!(!enabled());
        assert_eq!((inner.counter("inner"), inner.counter("outer")), (1, 0));
        assert_eq!((outer.counter("outer"), outer.counter("inner")), (2, 0));
    }

    #[test]
    fn entered_scope_records_into_the_callers_session() {
        let session = Session::start(TraceConfig::CountersOnly);
        let scope = Scope::current();
        std::thread::scope(|s| {
            s.spawn(|| {
                scope.enter(|| count("worker", 1));
                assert!(!enabled(), "leaving the scope restores the worker's own");
            });
        });
        assert_eq!(session.finish().counter("worker"), 1);
    }
}
