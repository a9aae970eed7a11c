//! # er-pool
//!
//! A shared worker pool for the fusion pipeline's parallel hot paths.
//!
//! The paper runs its experiments on a 32-core server and leans on
//! multi-threaded matrix products; this crate is the corresponding
//! substrate. One [`WorkerPool`] is created per pipeline run (see
//! `er_core::Resolver`) and threaded through every hot phase — RSS walks,
//! ITER propagation, CliqueRank components, dense matrix products, and
//! graph construction — replacing the per-call scoped-thread spawns the
//! phases used individually before.
//!
//! # Design
//!
//! * **Persistent workers.** `WorkerPool::new(threads)` spawns
//!   `threads − 1` OS threads once; the thread calling [`WorkerPool::scope`]
//!   is the remaining worker. A pool of 1 spawns nothing and runs every
//!   job inline, so serial callers pay only a branch.
//! * **Scoped borrowing jobs.** [`Scope::submit`] accepts closures that
//!   borrow from the caller's stack (like `std::thread::scope`); the scope
//!   joins all of its jobs before it returns, which is what makes the
//!   lifetime erasure inside sound.
//! * **Help-while-waiting.** A thread waiting on its scope pops queued
//!   jobs and runs them instead of blocking. Nested scopes (a CliqueRank
//!   component job running pooled matrix products inside) therefore
//!   cannot deadlock: any queued job can always be executed by the thread
//!   waiting on it.
//! * **Deterministic by construction.** The pool gives no ordering
//!   guarantees, so every phase that uses it is written to be
//!   *elementwise* parallel — jobs write disjoint output ranges and all
//!   floating-point reductions stay serial — making results bit-identical
//!   at every thread count. The pool itself only needs to run each job
//!   exactly once.
//!
//! ```
//! use er_pool::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let mut out = vec![0u64; 1000];
//! pool.scope(|s| {
//!     for (i, chunk) in out.chunks_mut(250).enumerate() {
//!         s.submit(move || {
//!             for (j, v) in chunk.iter_mut().enumerate() {
//!                 *v = (i * 250 + j) as u64;
//!             }
//!         });
//!     }
//! });
//! assert_eq!(out[999], 999);
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod scratch;
mod sync;

pub use scratch::{ScratchGuard, ScratchSlot};

use crate::sync::{Condvar, Mutex};

/// A type-erased queued job. The `'static` is a lie told by
/// [`Scope::submit`]; the scope's join-before-return discipline is what
/// keeps the borrowed data alive until the job has run.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// How a phase should execute one parallelizable region, as decided by
/// [`WorkerPool::dispatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// Run on the caller thread with zero pool coordination — no scope,
    /// no queue, no condvar, no barrier.
    SerialInline,
    /// Fan out across the pool's workers.
    Parallel,
}

impl DispatchMode {
    /// Convenience for `self == DispatchMode::Parallel`.
    pub fn is_parallel(self) -> bool {
        matches!(self, DispatchMode::Parallel)
    }
}

/// Size-aware serial/parallel cutover for pooled phases.
///
/// Every pooled hot path estimates its work in *elementary operations*
/// (edges touched, pairs scored, multiply-adds, walk steps) and asks the
/// pool whether fanning out is worth the coordination cost. Below
/// [`DispatchPolicy::serial_below`] the region runs inline on the caller
/// thread; queueing a job, waking a worker, and joining a scope cost on
/// the order of microseconds, so regions worth less than a few tens of
/// thousands of scalar operations lose more to coordination than they
/// gain from extra cores — the measured source of the t1 → t4 slowdowns
/// on the small datasets.
///
/// The default cutover can be overridden with the `ER_DISPATCH`
/// environment variable: `serial` forces every region inline, `parallel`
/// forces every region to fan out, and an integer sets `serial_below`
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchPolicy {
    /// Estimated elementary-operation count below which a region runs
    /// inline on the caller thread.
    pub serial_below: usize,
}

impl DispatchPolicy {
    /// Default cutover: ~64k elementary operations, a few tens of
    /// microseconds of scalar work — the break-even region for one
    /// queue push + condvar wake + scope join round-trip.
    pub const DEFAULT_SERIAL_BELOW: usize = 1 << 16;

    /// A policy with the given cutover.
    pub const fn new(serial_below: usize) -> Self {
        Self { serial_below }
    }

    /// Every region runs inline, regardless of size.
    pub const fn always_serial() -> Self {
        Self {
            serial_below: usize::MAX,
        }
    }

    /// Every region fans out, regardless of size (PR-5-era behavior;
    /// useful for isolating coordination overhead in benchmarks).
    pub const fn always_parallel() -> Self {
        Self { serial_below: 0 }
    }

    /// Reads `ER_DISPATCH` (`serial` | `parallel` | integer cutover);
    /// falls back to the default policy when unset or unparsable.
    pub fn from_env() -> Self {
        match std::env::var("ER_DISPATCH") {
            Ok(v) => Self::parse(&v).unwrap_or_default(),
            Err(_) => Self::default(),
        }
    }

    /// Parses an `ER_DISPATCH`-style value.
    pub fn parse(value: &str) -> Option<Self> {
        match value.trim() {
            "" => None,
            "serial" => Some(Self::always_serial()),
            "parallel" => Some(Self::always_parallel()),
            n => n.parse::<usize>().ok().map(Self::new),
        }
    }
}

impl Default for DispatchPolicy {
    fn default() -> Self {
        Self::new(Self::DEFAULT_SERIAL_BELOW)
    }
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl Queue {
    /// Pushes a job and returns the queue depth right after the push —
    /// the pool's utilization stats track the high-water mark.
    fn push(&self, job: Job) -> usize {
        let depth = {
            let mut state = self.state.lock();
            state.jobs.push_back(job);
            state.jobs.len()
        };
        self.ready.notify_one();
        depth
    }

    fn try_pop(&self) -> Option<Job> {
        self.state.lock().jobs.pop_front()
    }
}

/// Per-worker utilization, accumulated only when er-obs recording was on
/// at pool construction; published into the registry when the pool drops.
/// Plain `std` atomics with relaxed ordering: the numbers are telemetry,
/// never control flow, so they stay invisible to the loom model checks.
struct PoolStats {
    /// One cell per worker; index 0 is the scoping/submitting thread
    /// (inline serial jobs plus help-while-waiting work land there).
    workers: Vec<WorkerCell>,
    /// Jobs executed by a thread helping while it waited on its scope.
    helped: AtomicU64,
    /// Jobs pushed through the shared queue (excludes serial inline runs).
    queued: AtomicU64,
    /// High-water mark of the shared queue depth.
    max_queue_depth: AtomicU64,
}

#[derive(Default)]
struct WorkerCell {
    busy_ns: AtomicU64,
    tasks: AtomicU64,
}

impl PoolStats {
    fn new(threads: usize) -> Self {
        Self {
            workers: (0..threads).map(|_| WorkerCell::default()).collect(),
            helped: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
        }
    }

    fn note_depth(&self, depth: usize) {
        self.max_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    fn publish(&self) {
        for (i, cell) in self.workers.iter().enumerate() {
            er_obs::worker_record(
                i as u64,
                cell.busy_ns.load(Ordering::Relaxed),
                cell.tasks.load(Ordering::Relaxed),
            );
        }
        let executed: u64 = self
            .workers
            .iter()
            .map(|c| c.tasks.load(Ordering::Relaxed))
            .sum();
        er_obs::counter_add("pool_jobs_total", executed);
        er_obs::counter_add(
            "pool_queued_jobs_total",
            self.queued.load(Ordering::Relaxed),
        );
        er_obs::counter_add(
            "pool_helped_jobs_total",
            self.helped.load(Ordering::Relaxed),
        );
        er_obs::gauge_set(
            "pool_max_queue_depth",
            self.max_queue_depth.load(Ordering::Relaxed) as f64,
        );
    }
}

/// Runs `job`, attributing its wall time and count to `worker` when
/// stats are being kept; a plain call otherwise.
fn run_attributed(stats: Option<&PoolStats>, worker: usize, job: impl FnOnce()) {
    match stats {
        Some(stats) => {
            let start = Instant::now();
            job();
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let cell = &stats.workers[worker];
            cell.busy_ns.fetch_add(ns, Ordering::Relaxed);
            cell.tasks.fetch_add(1, Ordering::Relaxed);
        }
        None => job(),
    }
}

/// A fixed-size pool of persistent worker threads.
///
/// Dropping the pool shuts the workers down and joins them; jobs already
/// queued still run first (scopes cannot outlive the pool, so in practice
/// the queue is empty by then).
pub struct WorkerPool {
    queue: Arc<Queue>,
    handles: Vec<sync::JoinHandle>,
    threads: usize,
    policy: DispatchPolicy,
    /// Present iff er-obs recording was on when the pool was built.
    stats: Option<Arc<PoolStats>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` total workers (the scoping thread
    /// counts as one, so this spawns `threads − 1` OS threads). `0` is
    /// treated as 1. The dispatch policy comes from the environment
    /// ([`DispatchPolicy::from_env`]).
    pub fn new(threads: usize) -> Self {
        Self::with_policy(threads, DispatchPolicy::from_env())
    }

    /// Creates a pool with an explicit [`DispatchPolicy`] instead of the
    /// environment default.
    pub fn with_policy(threads: usize, policy: DispatchPolicy) -> Self {
        let threads = threads.max(1);
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let stats = er_obs::recording().then(|| Arc::new(PoolStats::new(threads)));
        let handles = (1..threads)
            .map(|worker| {
                let queue = Arc::clone(&queue);
                let stats = stats.clone();
                sync::spawn_worker(move || worker_loop(&queue, stats.as_deref(), worker))
            })
            .collect();
        Self {
            queue,
            handles,
            threads,
            policy,
            stats,
        }
    }

    /// Total worker count, including the scoping thread.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool's serial/parallel cutover policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Decides how a region estimated at `work` elementary operations
    /// should run: inline on the caller thread when the pool is serial or
    /// the work is below the policy cutover, fanned out otherwise. Each
    /// decision bumps the `pool.dispatch.serial_inline` /
    /// `pool.dispatch.parallel` er-obs counter so the cutover is
    /// observable in `ER_OBS_OUT` output. Call once per phase run (not
    /// per iteration) so the counters track decisions, not loop trips.
    pub fn dispatch(&self, work: usize) -> DispatchMode {
        // `serial_below == usize::MAX` means "always inline", including
        // for `work == usize::MAX` (where `<` alone would be false).
        let below = self.policy.serial_below;
        let mode = if self.threads == 1 || work < below || below == usize::MAX {
            DispatchMode::SerialInline
        } else {
            DispatchMode::Parallel
        };
        match mode {
            DispatchMode::SerialInline => er_obs::counter_add("pool.dispatch.serial_inline", 1),
            DispatchMode::Parallel => er_obs::counter_add("pool.dispatch.parallel", 1),
        }
        mode
    }

    /// True when the pool has no background workers — [`Scope::submit`]
    /// runs jobs inline. Phases use this to skip parallel bookkeeping.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Runs `f` with a [`Scope`] that can submit borrowing jobs; returns
    /// after every submitted job has finished. A panic in any job is
    /// resurfaced here (the first one, if several).
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            tracker: Arc::new(Tracker::default()),
            _env: PhantomData,
        };
        let result = f(&scope);
        scope.join();
        result
    }

    /// Splits `0..len` into per-worker ranges (at most [`Self::threads`]
    /// of them, each at least `min_chunk` long) and runs `f` on each,
    /// in parallel. `f` must only touch state that is safe to share —
    /// for disjoint mutable output, use [`WorkerPool::scope`] with
    /// `chunks_mut` instead.
    pub fn for_each_range<F>(&self, len: usize, min_chunk: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let ranges = chunk_ranges(len, self.threads, min_chunk);
        if ranges.len() <= 1 {
            f(0..len);
            return;
        }
        let f = &f;
        self.scope(|s| {
            for r in ranges {
                s.submit(move || f(r));
            }
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue.state.lock().shutdown = true;
        self.queue.ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // Publish after joining: every worker has flushed its cells.
        if let Some(stats) = &self.stats {
            stats.publish();
        }
    }
}

fn worker_loop(queue: &Queue, stats: Option<&PoolStats>, worker: usize) {
    loop {
        let job = {
            let mut state = queue.state.lock();
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                queue.ready.wait(&mut state);
            }
        };
        match job {
            // Panics are caught inside the job wrapper (see `submit`), so
            // a panicking job never kills the worker.
            Some(job) => run_attributed(stats, worker, job),
            None => return,
        }
    }
}

/// Per-scope join state: outstanding job count plus the first panic.
#[derive(Default)]
struct Tracker {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Handle for submitting jobs that may borrow from `'env`; obtained via
/// [`WorkerPool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    tracker: Arc<Tracker>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl std::fmt::Debug for Scope<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("pool", &self.pool)
            .field("pending", &*self.tracker.pending.lock())
            .finish_non_exhaustive()
    }
}

impl<'env> Scope<'_, 'env> {
    /// Queues `job` for execution. On a serial pool the job runs inline.
    pub fn submit<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'env,
    {
        if self.pool.is_serial() {
            // Inline serial execution counts against worker 0 (the
            // scoping thread) so utilization stays comparable across
            // thread counts.
            run_attributed(self.pool.stats.as_deref(), 0, job);
            return;
        }
        *self.tracker.pending.lock() += 1;
        let tracker = Arc::clone(&self.tracker);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(job);
        // SAFETY: the scope joins every submitted job before returning
        // (`join` runs in `scope` and again, idempotently, from `Drop` if
        // the scope body unwinds), so all `'env` borrows inside `job`
        // outlive its execution.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        let depth = self.pool.queue.push(Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(job));
            if let Err(payload) = outcome {
                tracker.panic.lock().get_or_insert(payload);
            }
            let mut pending = tracker.pending.lock();
            *pending -= 1;
            if *pending == 0 {
                tracker.done.notify_all();
            }
        }));
        if let Some(stats) = self.pool.stats.as_deref() {
            stats.queued.fetch_add(1, Ordering::Relaxed);
            stats.note_depth(depth);
        }
    }

    /// Pops and runs one queued job (of any scope), attributing it to
    /// worker 0 as help-while-waiting work. Returns whether a job ran.
    fn help_one(&self) -> bool {
        let Some(job) = self.pool.queue.try_pop() else {
            return false;
        };
        let stats = self.pool.stats.as_deref();
        run_attributed(stats, 0, job);
        if let Some(stats) = stats {
            stats.helped.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Waits for all jobs of this scope, helping run queued work (of any
    /// scope) while waiting; then resurfaces the first job panic.
    fn join(&self) {
        loop {
            if *self.tracker.pending.lock() == 0 {
                break;
            }
            // Prefer helping over sleeping: run any queued job. It may
            // belong to another (possibly nested) scope — that scope's
            // tracker absorbs its result, so helping is always safe.
            if self.help_one() {
                continue;
            }
            let mut pending = self.tracker.pending.lock();
            if *pending == 0 {
                break;
            }
            // Our remaining jobs are running on other threads. They may
            // still enqueue nested work, so sleep with a timeout and loop
            // back to helping rather than blocking indefinitely.
            self.tracker
                .done
                .wait_for(&mut pending, Duration::from_millis(1));
        }
        if let Some(payload) = self.tracker.panic.lock().take() {
            resume_unwind(payload);
        }
    }
}

impl Drop for Scope<'_, '_> {
    fn drop(&mut self) {
        // Normally a no-op (scope() already joined); on unwind out of the
        // scope body this keeps borrowed data alive until jobs finish.
        // Swallow any job panic here — one panic is already in flight.
        loop {
            if *self.tracker.pending.lock() == 0 {
                break;
            }
            if self.help_one() {
                continue;
            }
            let mut pending = self.tracker.pending.lock();
            if *pending == 0 {
                break;
            }
            self.tracker
                .done
                .wait_for(&mut pending, Duration::from_millis(1));
        }
    }
}

/// Splits `0..len` into up to `parts` contiguous ranges of near-equal
/// length, none shorter than `min_chunk` (except a sole final remainder).
/// Returns fewer ranges — possibly one — when `len` is small. The split
/// depends only on `(len, parts, min_chunk)`, never on timing.
pub fn chunk_ranges(len: usize, parts: usize, min_chunk: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.max(1).min(len.div_ceil(min_chunk.max(1)));
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    ranges
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert!(pool.is_serial());
        let mut hits = 0;
        pool.scope(|s| {
            for _ in 0..10 {
                s.submit(|| {}); // inline: must not need Sync on `hits`
            }
            hits += 1;
        });
        assert_eq!(hits, 1);
    }

    #[test]
    fn jobs_write_disjoint_chunks() {
        let pool = WorkerPool::new(4);
        let mut out = vec![0usize; 10_000];
        pool.scope(|s| {
            for (i, chunk) in out.chunks_mut(617).enumerate() {
                s.submit(move || {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = i * 617 + j;
                    }
                });
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn scope_returns_value_and_joins_first() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        let r = pool.scope(|s| {
            for _ in 0..100 {
                s.submit(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            42
        });
        assert_eq!(r, 42);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = WorkerPool::new(2); // one background worker
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                let (pool, total) = (&pool, &total);
                outer.submit(move || {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.submit(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn job_panic_propagates_to_scope_caller() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.submit(|| panic!("job exploded"));
            });
        }));
        assert!(result.is_err());
        // Pool survives the panic and keeps working.
        let ok = AtomicUsize::new(0);
        pool.scope(|s| {
            s.submit(|| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn for_each_range_covers_everything_once() {
        let pool = WorkerPool::new(4);
        let seen = Mutex::new(vec![0u32; 1003]);
        pool.for_each_range(1003, 16, |r| {
            let mut seen = seen.lock();
            for i in r {
                seen[i] += 1;
            }
        });
        assert!(seen.lock().iter().all(|&c| c == 1));
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        for (len, parts, min_chunk) in
            [(0, 4, 1), (1, 4, 1), (10, 3, 1), (100, 7, 16), (64, 64, 64)]
        {
            let ranges = chunk_ranges(len, parts, min_chunk);
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered, "contiguous");
                covered = r.end;
            }
            assert_eq!(covered, len);
            if len > 0 {
                assert!(ranges.len() <= parts);
            }
        }
        assert_eq!(chunk_ranges(100, 4, 100).len(), 1);
        assert_eq!(chunk_ranges(100, 4, 50).len(), 2);
    }

    /// Exercises the stats plumbing end-to-end: recording on → pool
    /// keeps cells → drop publishes into the er-obs registry. Uses `>=`
    /// assertions because the registry is process-global and other
    /// tests may run pools inside this recording window.
    #[cfg(feature = "obs")]
    #[test]
    fn pool_publishes_worker_stats_when_recording() {
        er_obs::set_recording(true);
        {
            let pool = WorkerPool::new(3);
            pool.scope(|s| {
                for _ in 0..32 {
                    s.submit(|| {
                        std::hint::black_box(0u64);
                    });
                }
            });
        }
        let report = er_obs::snapshot();
        er_obs::set_recording(false);
        assert!(report.counter("pool_jobs_total") >= 32);
        assert!(report.counter("pool_queued_jobs_total") >= 32);
        let executed: u64 = report.workers.iter().map(|w| w.tasks).sum();
        assert!(executed >= 32);
        assert!(report.gauge("pool_max_queue_depth").is_some());
    }

    /// Dispatch decisions land in the er-obs registry, so the
    /// serial-inline vs pooled split is visible in `ER_OBS_OUT`
    /// JSON/Prometheus exports. `>=` because the registry is
    /// process-global and other tests dispatch inside this window.
    #[cfg(feature = "obs")]
    #[test]
    fn dispatch_counters_are_observable() {
        er_obs::set_recording(true);
        let pool = WorkerPool::with_policy(2, DispatchPolicy::new(100));
        assert_eq!(pool.dispatch(1), DispatchMode::SerialInline);
        assert_eq!(pool.dispatch(100), DispatchMode::Parallel);
        let report = er_obs::snapshot();
        er_obs::set_recording(false);
        assert!(report.counter("pool.dispatch.serial_inline") >= 1);
        assert!(report.counter("pool.dispatch.parallel") >= 1);
        assert!(report
            .to_prometheus()
            .contains("er_pool_dispatch_serial_inline"));
    }

    #[test]
    fn dispatch_policy_parses_env_values() {
        assert_eq!(
            DispatchPolicy::parse("serial"),
            Some(DispatchPolicy::always_serial())
        );
        assert_eq!(
            DispatchPolicy::parse("parallel"),
            Some(DispatchPolicy::always_parallel())
        );
        assert_eq!(
            DispatchPolicy::parse("4096"),
            Some(DispatchPolicy::new(4096))
        );
        assert_eq!(DispatchPolicy::parse(""), None);
        assert_eq!(DispatchPolicy::parse("bogus"), None);
    }

    #[test]
    fn dispatch_cuts_over_at_policy_threshold() {
        let pool = WorkerPool::with_policy(4, DispatchPolicy::new(1000));
        assert_eq!(pool.dispatch(0), DispatchMode::SerialInline);
        assert_eq!(pool.dispatch(999), DispatchMode::SerialInline);
        assert_eq!(pool.dispatch(1000), DispatchMode::Parallel);
        assert_eq!(pool.dispatch(usize::MAX), DispatchMode::Parallel);
        assert!(pool.dispatch(1000).is_parallel());
    }

    #[test]
    fn serial_pool_always_dispatches_inline() {
        let pool = WorkerPool::with_policy(1, DispatchPolicy::always_parallel());
        assert_eq!(pool.dispatch(usize::MAX), DispatchMode::SerialInline);
    }

    #[test]
    fn forced_policies_ignore_work_size() {
        let serial = WorkerPool::with_policy(4, DispatchPolicy::always_serial());
        assert_eq!(serial.dispatch(usize::MAX), DispatchMode::SerialInline);
        let parallel = WorkerPool::with_policy(4, DispatchPolicy::always_parallel());
        assert_eq!(parallel.dispatch(0), DispatchMode::Parallel);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // The determinism contract: disjoint-output jobs + serial
        // reductions give bit-identical results for any pool size.
        let fixed = |threads: usize| -> Vec<f64> {
            let pool = WorkerPool::new(threads);
            let mut out = vec![0.0f64; 4096];
            pool.scope(|s| {
                for (c, chunk) in out.chunks_mut(512).enumerate() {
                    s.submit(move || {
                        for (i, v) in chunk.iter_mut().enumerate() {
                            *v = ((c * 31 + i) as f64).sin().abs().powf(2.5);
                        }
                    });
                }
            });
            out
        };
        let base = fixed(1);
        for threads in [2, 4] {
            assert_eq!(base, fixed(threads));
        }
    }
}
