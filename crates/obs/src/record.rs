//! The live recording registry (compiled only with `feature = "enabled"`).
//!
//! One global registry holds a span tree plus counter/gauge/worker
//! tables behind a single `Mutex`. Spans are entered and exited at
//! phase granularity (a handful of times per fusion round), so a lock
//! per enter/exit is far below measurement noise; the hot-path cost
//! when recording is *off* is one relaxed atomic load per site.
//!
//! Steady-state recording is allocation-free: node and counter names
//! are interned into `Box<str>` on first visit, and subsequent visits
//! find the existing slot by linear scan (the tables hold dozens of
//! entries, not thousands). Nesting is tracked per thread via a
//! thread-local parent cursor, so spans opened on pool worker threads
//! appear as top-level paths rather than children of the submitting
//! thread's span — documented behaviour, not an accident.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::report::{CounterStat, GaugeStat, Report, SpanStat, WorkerStat};

/// Sentinel parent id for top-level spans.
const NO_PARENT: u32 = u32::MAX;

static RECORDING: AtomicBool = AtomicBool::new(false);

struct SpanNode {
    name: Box<str>,
    parent: u32,
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<SpanNode>,
    counters: Vec<(Box<str>, u64)>,
    gauges: Vec<(Box<str>, f64)>,
    workers: Vec<WorkerStat>,
    /// Bumped by [`reset`]; span guards from an older generation
    /// discard their measurement instead of writing into fresh state.
    generation: u64,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::default()))
}

fn lock() -> std::sync::MutexGuard<'static, State> {
    // A poisoned registry only ever means a panic mid-update of plain
    // counters; the data is still coherent enough to report.
    match state().lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

thread_local! {
    /// Innermost open span on this thread, or [`NO_PARENT`].
    static CURRENT: Cell<u32> = const { Cell::new(NO_PARENT) };
}

/// Turns recording on or off. Off (the default) makes every
/// instrumentation site a single relaxed atomic load.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Release);
}

/// Whether recording is currently on.
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Clears all recorded data and invalidates in-flight span guards.
pub fn reset() {
    let mut s = lock();
    s.spans.clear();
    s.counters.clear();
    s.gauges.clear();
    s.workers.clear();
    s.generation += 1;
    CURRENT.with(|c| c.set(NO_PARENT));
}

/// RAII guard for an open span; records elapsed time on drop.
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when recording was off at entry — drop is then a no-op.
    open: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    node: u32,
    prev: u32,
    generation: u64,
    start: Instant,
}

/// Opens a span named `name`, nested under the innermost open span on
/// this thread. Returns an inert guard when recording is off.
#[must_use = "the span measures until the guard is dropped"]
pub fn span(name: &str) -> SpanGuard {
    if !recording() {
        return SpanGuard { open: None };
    }
    let prev = CURRENT.with(Cell::get);
    let (node, generation) = {
        let mut s = lock();
        (s.node(prev, name), s.generation)
    };
    CURRENT.with(|c| c.set(node));
    SpanGuard {
        open: Some(OpenSpan {
            node,
            prev,
            generation,
            start: Instant::now(),
        }),
    }
}

/// Records one finished span of `elapsed` named `name`, nested under
/// the innermost open span on this thread, as if a guard had been held
/// that long. For work timed in pieces that no one guard can bracket,
/// such as a builder's appends followed by its `build`.
pub fn record_span(name: &str, elapsed: Duration) {
    if !recording() {
        return;
    }
    let parent = CURRENT.with(Cell::get);
    let mut s = lock();
    let node = s.node(parent, name);
    s.spans[node as usize].add(elapsed);
}

impl State {
    /// The span node `name` under `parent`, created on first visit.
    fn node(&mut self, parent: u32, name: &str) -> u32 {
        let found = self
            .spans
            .iter()
            .position(|n| n.parent == parent && &*n.name == name);
        let idx = found.unwrap_or_else(|| {
            self.spans.push(SpanNode {
                name: name.into(),
                parent,
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            });
            self.spans.len() - 1
        });
        // er-lint: allow(panic) -- one node per distinct (parent, name) pair: a few dozen, never 2³²
        u32::try_from(idx).expect("span table bounded")
    }
}

impl SpanNode {
    fn add(&mut self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let elapsed = open.start.elapsed();
        CURRENT.with(|c| c.set(open.prev));
        let mut s = lock();
        if s.generation != open.generation {
            return;
        }
        s.spans[open.node as usize].add(elapsed);
    }
}

fn slot_add<T>(table: &mut Vec<(Box<str>, T)>, name: &str, update: impl FnOnce(&mut T), init: T) {
    match table.iter_mut().find(|(n, _)| &**n == name) {
        Some((_, value)) => update(value),
        None => {
            let mut value = init;
            update(&mut value);
            table.push((name.into(), value));
        }
    }
}

/// Adds `delta` to the named counter (created at zero on first touch).
pub fn counter_add(name: &str, delta: u64) {
    if !recording() {
        return;
    }
    let mut s = lock();
    slot_add(&mut s.counters, name, |v| *v += delta, 0);
}

/// Sets the named gauge to `value`.
pub fn gauge_set(name: &str, value: f64) {
    if !recording() {
        return;
    }
    let mut s = lock();
    slot_add(&mut s.gauges, name, |v| *v = value, 0.0);
}

/// Publishes one worker's utilization (called by `er-pool` on drop).
pub fn worker_record(worker: u64, busy_ns: u64, tasks: u64) {
    if !recording() {
        return;
    }
    let mut s = lock();
    s.workers.push(WorkerStat {
        worker,
        busy_ns,
        tasks,
    });
}

/// Freezes the current registry contents into a [`Report`]. Span paths
/// are rendered slash-joined from the root; entries keep first-visit
/// order so exports are stable run to run.
pub fn snapshot() -> Report {
    let s = lock();
    let mut paths: Vec<String> = Vec::with_capacity(s.spans.len());
    for node in &s.spans {
        // Parents are always created before children, so a valid parent
        // id is < the child's index. A stale thread-local cursor left
        // over from a reset() fails that test and the node degrades to
        // top-level instead of indexing out of bounds.
        let path = if (node.parent as usize) < paths.len() {
            format!("{}/{}", paths[node.parent as usize], node.name)
        } else {
            node.name.to_string()
        };
        paths.push(path);
    }
    Report {
        spans: s
            .spans
            .iter()
            .zip(&paths)
            .map(|(n, path)| SpanStat {
                path: path.clone(),
                count: n.count,
                total_ns: n.total_ns,
                min_ns: if n.count == 0 { 0 } else { n.min_ns },
                max_ns: n.max_ns,
            })
            .collect(),
        counters: s
            .counters
            .iter()
            .map(|(name, value)| CounterStat {
                name: name.to_string(),
                value: *value,
            })
            .collect(),
        gauges: s
            .gauges
            .iter()
            .map(|(name, value)| GaugeStat {
                name: name.to_string(),
                value: *value,
            })
            .collect(),
        workers: s.workers.clone(),
    }
}
