//! Zero-dependency pipeline observability.
//!
//! `er-obs` gives the workspace one telemetry vocabulary: hierarchical
//! [`span`]s (monotonic phase timers with per-thread parent/child
//! nesting), named [`counter_add`] counters and [`gauge_set`] gauges,
//! per-worker pool utilization ([`worker_record`]), and two exporters —
//! a stable JSON report ([`BenchFile`], schema `er-obs/v1`) and the
//! Prometheus text format ([`Report::to_prometheus`]).
//!
//! # Compile-out and runtime gating
//!
//! Two independent switches keep instrumentation free when unwanted:
//!
//! - **Feature `enabled`** compiles the recording registry in. Without
//!   it every recording entry point here is an inlineable no-op, so
//!   instrumented crates pay literally nothing (pinned by the
//!   `--no-default-features` build gate in `cargo xtask analyze`).
//! - **Runtime flag** [`set_recording`]: even when compiled in,
//!   recording defaults *off* and each site costs one relaxed atomic
//!   load — which is what keeps the steady-state zero-allocation
//!   contracts in `tests/zero_alloc.rs` intact under workspace feature
//!   unification.
//!
//! Instrumentation never perturbs results: spans and counters observe,
//! they do not branch the computation, and the obs-on/obs-off bitwise
//! identity proptests in `er-bench` enforce that at 1/2/8 threads.
//!
//! The report schema and exporters compile unconditionally — they are
//! cold code used by the bench harness and `cargo xtask bench-diff`.

#![deny(unsafe_code)]

pub mod json;
mod report;

pub use report::{
    BenchFile, BenchRun, CounterStat, GaugeStat, Report, SpanStat, WorkerStat, SCHEMA,
};

#[cfg(feature = "enabled")]
mod record;

#[cfg(feature = "enabled")]
pub use record::{
    counter_add, gauge_set, record_span, recording, reset, set_recording, snapshot, span,
    worker_record, SpanGuard,
};

#[cfg(not(feature = "enabled"))]
mod stubs {
    use crate::report::Report;

    /// Inert guard; the real one records elapsed time on drop.
    #[derive(Debug)]
    pub struct SpanGuard;

    /// No-op without `feature = "enabled"`.
    #[inline]
    pub fn set_recording(_on: bool) {}

    /// Always `false` without `feature = "enabled"`.
    #[inline]
    #[must_use]
    pub fn recording() -> bool {
        false
    }

    /// No-op without `feature = "enabled"`.
    #[inline]
    pub fn reset() {}

    /// Inert guard without `feature = "enabled"`.
    #[inline]
    #[must_use]
    pub fn span(_name: &str) -> SpanGuard {
        SpanGuard
    }

    /// No-op without `feature = "enabled"`.
    #[inline]
    pub fn record_span(_name: &str, _elapsed: std::time::Duration) {}

    /// No-op without `feature = "enabled"`.
    #[inline]
    pub fn counter_add(_name: &str, _delta: u64) {}

    /// No-op without `feature = "enabled"`.
    #[inline]
    pub fn gauge_set(_name: &str, _value: f64) {}

    /// No-op without `feature = "enabled"`.
    #[inline]
    pub fn worker_record(_worker: u64, _busy_ns: u64, _tasks: u64) {}

    /// Empty report without `feature = "enabled"`.
    #[inline]
    #[must_use]
    pub fn snapshot() -> Report {
        Report::default()
    }
}

#[cfg(not(feature = "enabled"))]
pub use stubs::{
    counter_add, gauge_set, record_span, recording, reset, set_recording, snapshot, span,
    worker_record, SpanGuard,
};

/// Runs `f` under a span named `name` and also returns its wall time.
///
/// The duration is measured unconditionally (the bench harness needs
/// real timings whether or not recording is on); the span is recorded
/// only when recording is active.
pub fn time<R>(name: &str, f: impl FnOnce() -> R) -> (R, std::time::Duration) {
    let _guard = span(name);
    let start = std::time::Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Environment variable naming the telemetry dump target. Setting it
/// also turns recording on via [`init_from_env`]. A `.prom` suffix
/// selects the Prometheus text format; anything else gets the JSON
/// report.
pub const ER_OBS_OUT: &str = "ER_OBS_OUT";

/// Turns recording on when `ER_OBS_OUT` is set in the environment.
/// Call once near process start (the `er` CLI does).
pub fn init_from_env() {
    if std::env::var_os(ER_OBS_OUT).is_some() {
        set_recording(true);
    }
}

/// Writes the current snapshot to the path named by `ER_OBS_OUT`, if
/// set. Returns the path written to, or `None` when the variable is
/// unset (or recording never produced anything and the feature is off).
pub fn dump_if_requested() -> std::io::Result<Option<std::path::PathBuf>> {
    let Some(path) = std::env::var_os(ER_OBS_OUT) else {
        return Ok(None);
    };
    let path = std::path::PathBuf::from(path);
    let report = snapshot();
    let body = if path.extension().is_some_and(|e| e == "prom") {
        report.to_prometheus()
    } else {
        report.to_value().to_pretty()
    };
    std::fs::write(&path, body)?;
    Ok(Some(path))
}

#[cfg(all(test, feature = "enabled"))]
mod recording_tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The registry is process-global, so tests that record serialize
    /// through this lock to avoid seeing each other's data.
    fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let _serial = registry_lock();
        set_recording(true);
        reset();
        {
            let _outer = span("fusion");
            for _ in 0..3 {
                let _inner = span("iter");
            }
        }
        {
            let _outer = span("fusion");
        }
        let report = snapshot();
        set_recording(false);

        let outer = report.span("fusion").expect("outer span");
        assert_eq!(outer.count, 2);
        let inner = report.span("fusion/iter").expect("nested span");
        assert_eq!(inner.count, 3);
        assert!(inner.min_ns <= inner.max_ns);
        assert!(outer.total_ns >= inner.total_ns);
    }

    #[test]
    fn counters_gauges_and_workers() {
        let _serial = registry_lock();
        set_recording(true);
        reset();
        counter_add("hits", 2);
        counter_add("hits", 3);
        gauge_set("ratio", 0.5);
        gauge_set("ratio", 0.75);
        worker_record(1, 10, 4);
        let report = snapshot();
        set_recording(false);

        assert_eq!(report.counter("hits"), 5);
        assert_eq!(report.gauge("ratio"), Some(0.75));
        assert_eq!(report.workers.len(), 1);
        assert_eq!(report.workers[0].tasks, 4);
    }

    #[test]
    fn recording_off_records_nothing() {
        let _serial = registry_lock();
        set_recording(false);
        reset();
        {
            let _s = span("ghost");
            counter_add("ghost", 1);
            gauge_set("ghost", 1.0);
            worker_record(0, 1, 1);
        }
        let report = snapshot();
        assert!(report.spans.is_empty());
        assert!(report.counters.is_empty());
        assert!(report.gauges.is_empty());
        assert!(report.workers.is_empty());
    }

    #[test]
    fn reset_mid_span_discards_the_measurement() {
        let _serial = registry_lock();
        set_recording(true);
        reset();
        let guard = span("stale");
        reset();
        drop(guard);
        let report = snapshot();
        set_recording(false);
        assert!(report.span("stale").is_none());
    }

    #[test]
    fn worker_thread_spans_are_top_level() {
        let _serial = registry_lock();
        set_recording(true);
        reset();
        let _outer = span("main_phase");
        std::thread::spawn(|| {
            let _w = span("worker_phase");
        })
        .join()
        .unwrap();
        drop(_outer);
        let report = snapshot();
        set_recording(false);
        assert!(report.span("worker_phase").is_some());
        assert!(report.span("main_phase/worker_phase").is_none());
    }

    #[test]
    fn record_span_nests_under_the_open_span() {
        let _serial = registry_lock();
        set_recording(true);
        reset();
        record_span("built", std::time::Duration::from_nanos(30));
        {
            let _outer = span("phase");
            record_span("built", std::time::Duration::from_nanos(10));
            record_span("built", std::time::Duration::from_nanos(20));
        }
        let report = snapshot();
        set_recording(false);
        let top = report.span("built").unwrap();
        assert_eq!((top.count, top.total_ns), (1, 30));
        let nested = report.span("phase/built").unwrap();
        assert_eq!((nested.count, nested.total_ns), (2, 30));
        assert_eq!((nested.min_ns, nested.max_ns), (10, 20));
    }

    #[test]
    fn time_measures_and_records() {
        let _serial = registry_lock();
        set_recording(true);
        reset();
        let (value, elapsed) = time("timed", || 41 + 1);
        let report = snapshot();
        set_recording(false);
        assert_eq!(value, 42);
        let stat = report.span("timed").unwrap();
        assert_eq!(stat.count, 1);
        // The span wraps the closure plus the Instant bookkeeping, so
        // its recorded time can only exceed the returned duration.
        assert!(u128::from(stat.total_ns) >= elapsed.as_nanos() || stat.total_ns == u64::MAX);
    }
}
