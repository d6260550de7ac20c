//! # rana-metrics — streaming histograms, SLO tracking and deterministic
//! exposition for the RANA reproduction
//!
//! A zero-cost-when-disabled metrics layer sitting next to `rana-trace`:
//! where the tracer records *what happened* (a typed event stream), this
//! crate records *how it is distributed* — log-linear HDR-style
//! histograms ([`HistI64`]/[`HistF64`]) with bounded relative error and
//! associative merge, windowed rate estimators over simulated time
//! ([`WindowedRate`]), and per-tenant SLO trackers ([`SloTracker`]) for
//! deadline-miss rate, attained percentiles and budget burn rate.
//!
//! ## Wiring
//!
//! Most subsystems need no code changes: they already emit trace events,
//! and while a [`MetricsSession`] and a `rana_trace::Session` are active
//! on the same thread, every event is folded into the registry through
//! [`apply_event`]. Only the serving loop records directly (per-request
//! latency, queue wait and SLO outcomes carry data no event has).
//!
//! ## Thread-scoped, and zero cost when off
//!
//! A session attaches its registry to the calling thread's
//! `rana_trace::Scope`, which pool workers inherit; runs on other threads
//! record nothing into it. Every recording free function is guarded by
//! [`enabled`] — one thread-local load — and takes closures for anything
//! that allocates, so an unmetered run pays nothing and existing BENCH
//! artifacts stay byte-identical.
//!
//! ## Determinism
//!
//! Histogram quantiles are exact functions of bucket state; merge is
//! associative and commutative; rates run on the simulated clock; and the
//! two snapshot forms ([`Registry::to_json`], [`Registry::to_prometheus`])
//! iterate sorted maps with shortest-round-trip float formatting. A fixed
//! workload produces byte-identical snapshots, which is what lets the
//! bench-regression gate diff them against committed baselines.
//!
//! ```
//! use rana_metrics::{MetricKey, MetricsSession};
//!
//! let session = MetricsSession::start();
//! rana_metrics::observe_f64(|| MetricKey::new("serve.latency_us"), 230.0);
//! rana_metrics::counter_add(|| MetricKey::new("serve.requests"), 1);
//! let reg = session.finish();
//! assert_eq!(reg.counter("serve.requests"), 1);
//! assert_eq!(reg.hist_f64("serve.latency_us").unwrap().count(), 1);
//! ```

#![warn(missing_docs)]

mod expose;
mod fold;
mod hist;
mod rate;
mod registry;
mod slo;

pub use expose::EXPOSED_QUANTILES;
pub use fold::apply_event;
pub use hist::{HistF64, HistI64, DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS};
pub use rate::WindowedRate;
pub use registry::{MetricKey, Registry};
pub use slo::{SloObservation, SloReport, SloSpec, SloTracker};

use rana_trace::{Event, Meter};
use std::any::Any;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard};

/// The registry a [`MetricsSession`] attaches to its thread's scope.
struct Attached(Mutex<Registry>);

impl Attached {
    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.0.lock().expect("metrics registry poisoned: a recorder panicked")
    }
}

impl Meter for Attached {
    fn fold(&self, event: &Event) {
        apply_event(&mut self.lock(), event);
    }
}

/// Whether a metrics session is active on the calling thread.
///
/// This is the only cost metrics impose on an unmetered run: one
/// thread-local load per recording site.
#[inline]
pub fn enabled() -> bool {
    rana_trace::metered()
}

/// Runs `f` against the active registry, if any. Recording sites with
/// non-trivial key construction should guard with [`enabled`] first (the
/// free functions below do).
#[inline]
pub fn with(f: impl FnOnce(&mut Registry)) {
    if !enabled() {
        return;
    }
    rana_trace::with_meter(|meter| {
        if let Some(attached) = (meter as &dyn Any).downcast_ref::<Attached>() {
            f(&mut attached.lock());
        }
    });
}

/// Adds `n` to the counter at the key built by `key` (only built when a
/// session is active).
#[inline]
pub fn counter_add(key: impl FnOnce() -> MetricKey, n: u64) {
    with(|r| r.counter_add(key(), n));
}

/// Sets the gauge at the key built by `key`.
#[inline]
pub fn gauge_set(key: impl FnOnce() -> MetricKey, v: f64) {
    with(|r| r.gauge_set(key(), v));
}

/// Records `v` into the f64 histogram at the key built by `key`.
#[inline]
pub fn observe_f64(key: impl FnOnce() -> MetricKey, v: f64) {
    with(|r| r.observe_f64(key(), v));
}

/// Records `v` into the i64 histogram at the key built by `key`.
#[inline]
pub fn observe_i64(key: impl FnOnce() -> MetricKey, v: i64) {
    with(|r| r.observe_i64(key(), v));
}

/// Folds one request outcome into `tenant`'s SLO tracker.
#[inline]
pub fn slo_observe(tenant: &str, spec: &SloSpec, obs: SloObservation) {
    with(|r| r.slo_observe(tenant, spec, obs));
}

/// An active metrics session on the calling thread (and on the pool
/// workers that inherit its scope). Finishing or dropping it detaches the
/// registry and restores the thread's previous session; `finish` yields
/// the final [`Registry`].
pub struct MetricsSession {
    registry: Arc<Attached>,
    prev: Option<Arc<dyn Meter>>,
    /// Attached to one thread's scope, so it must end on that thread.
    _thread: PhantomData<*const ()>,
}

impl MetricsSession {
    /// Starts a session with an empty registry.
    pub fn start() -> MetricsSession {
        let registry = Arc::new(Attached(Mutex::new(Registry::new())));
        let prev = rana_trace::replace_meter(Some(registry.clone()));
        MetricsSession { registry, prev, _thread: PhantomData }
    }

    /// Clone of everything recorded so far, without ending the session.
    pub fn snapshot(&self) -> Registry {
        self.registry.lock().clone()
    }

    /// Ends the session and returns the final registry. The thread's
    /// previous session is back in place when this returns.
    pub fn finish(self) -> Registry {
        std::mem::take(&mut *self.registry.lock())
    }
}

impl Drop for MetricsSession {
    fn drop(&mut self) {
        rana_trace::replace_meter(self.prev.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_noop() {
        assert!(!enabled());
        counter_add(|| panic!("key built while metrics disabled"), 1);
        observe_f64(|| panic!("key built while metrics disabled"), 1.0);
        with(|_| panic!("registry accessed while metrics disabled"));
    }

    #[test]
    fn session_collects_and_finishes() {
        let session = MetricsSession::start();
        assert!(enabled());
        counter_add(|| MetricKey::new("hits"), 2);
        observe_f64(|| MetricKey::new("lat_us"), 10.0);
        observe_i64(|| MetricKey::new("cycles"), 7);
        gauge_set(|| MetricKey::new("temp_c"), 45.0);
        let snap = session.snapshot();
        assert_eq!(snap.counter("hits"), 2);
        let reg = session.finish();
        assert!(!enabled());
        assert_eq!(reg.counter("hits"), 2);
        assert_eq!(reg.hist_f64("lat_us").unwrap().count(), 1);
        assert_eq!(reg.hist_i64("cycles").unwrap().count(), 1);
        assert_eq!(reg.gauge("temp_c"), Some(45.0));
    }

    #[test]
    fn sessions_are_sequential() {
        let a = MetricsSession::start();
        counter_add(|| MetricKey::new("a"), 1);
        let reg_a = a.finish();
        let b = MetricsSession::start();
        counter_add(|| MetricKey::new("b"), 1);
        let reg_b = b.finish();
        assert_eq!(reg_a.counter("a"), 1);
        assert_eq!(reg_a.counter("b"), 0);
        assert_eq!(reg_b.counter("b"), 1);
        assert_eq!(reg_b.counter("a"), 0);
    }

    #[test]
    fn trace_events_fold_only_while_both_sessions_are_active() {
        use rana_trace::{Session, TraceConfig};
        let lookup = || Event::CacheLookup { cache: "schedule".into(), fingerprint: 7, hit: true };
        let metrics = MetricsSession::start();
        rana_trace::emit(lookup);
        let trace = Session::start(TraceConfig::CountersOnly);
        rana_trace::emit(lookup);
        // Sessions may end in either order; each restores only its own part.
        let reg = metrics.finish();
        rana_trace::emit(lookup);
        assert_eq!(trace.finish().events_emitted, 2);
        assert!(!enabled() && !rana_trace::enabled());
        let key =
            MetricKey::new("cache.lookups").label("cache", "schedule").label("outcome", "hit");
        assert_eq!(reg.counter(key), 1);
    }
}
