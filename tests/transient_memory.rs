//! Transient-memory contract of the census candidate path.
//!
//! Blocking and seeding build lists only to reduce them: LSH grouping
//! keeps the entries of buckets that collide, meta-blocking keeps a
//! small share of its weighted edges, and seeding scores the records
//! its candidate pairs name. This test bounds how much heap each stage
//! holds at once, so a return of a list that is built whole and then
//! thrown away (every `(band key, record)` entry, a global within-block
//! pair buffer, an edge list, a string tape over every record) turns
//! into a test failure rather than a silent rise in peak memory.
//!
//! At 20,000 census records (duplicate rate 0.2, the frequent-term
//! filter at its 5% default, one serial pool) it measures the heap peak
//! above entry of `BlockingStrategy::meta_default().candidate_graph`
//! and of `seed_similarities` over that graph, and bounds each in bytes
//! per record. Each bound is this code's own reading plus 25% headroom:
//! candidate graph 6.13 MB, bound 383 bytes per record (7.66 MB);
//! seeding 3.60 MB, bound 225 bytes per record (4.50 MB). The code that
//! sorted every band-key entry, filled every within-block pair into one
//! buffer, pushed every weighted edge into a list and taped every
//! record's text read 18.10 MB and 16.88 MB, far past both bounds.
//!
//! The counter tracks live bytes and their high-water mark for the
//! measuring thread only (a `const`-initialized `thread_local!`, as in
//! `tests/zero_alloc.rs`, so reading it from inside the allocator never
//! allocates), and both stages run on a serial pool, so every
//! allocation under test lands on that thread. `realloc` takes the
//! `GlobalAlloc` default, which allocates the new buffer before freeing
//! the old one, so a growing buffer counts both while it moves.
//!
//! This file deliberately holds a single `#[test]`: the counter design
//! assumes one measuring thread at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use er_pool::{DispatchPolicy, WorkerPool};
use unsupervised_er::datasets::generators::census;
use unsupervised_er::datasets::CensusConfig;
use unsupervised_er::pipeline::{seed_similarities, DEFAULT_MAX_DF_FRACTION};
use unsupervised_er::text::{BlockingStrategy, CorpusBuilder};

/// Records in the measured corpus.
const RECORDS: usize = 20_000;

/// Heap-peak bound of `meta_default().candidate_graph`, per record.
const CANDIDATE_GRAPH_BYTES_PER_RECORD: usize = 383;

/// Heap-peak bound of `seed_similarities`, per record.
const SEED_BYTES_PER_RECORD: usize = 225;

/// Delegates to the system allocator, tracking the measuring thread's
/// live bytes and their high-water mark while armed.
struct CountingAlloc;

thread_local! {
    /// Whether allocations on *this* thread are being measured.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Bytes allocated minus bytes freed since arming (negative when
    /// the measured code frees what was allocated before).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` seen since arming.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

// The workspace-wide `#![deny(unsafe_code)]` walls apply to the library
// crates; an integration test's `GlobalAlloc` shim is the exception, as
// in `tests/zero_alloc.rs`, and the xtask unsafe audit covers `src/`
// trees only.
// SAFETY: pure delegation to the system allocator plus thread-local
// counter updates; upholds the `GlobalAlloc` contract exactly as
// `System` does.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            let live = LIVE.with(|l| {
                l.set(l.get() + layout.size() as isize);
                l.get()
            });
            PEAK.with(|p| p.set(p.get().max(live)));
        }
        // SAFETY: same layout, delegated verbatim to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.with(Cell::get) {
            LIVE.with(|l| l.set(l.get() - layout.size() as isize));
        }
        // SAFETY: `ptr` came from `alloc` above with this exact layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the heap peak above entry, in
/// bytes, of the allocations made on this thread while it ran.
fn peak_above_entry<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, PEAK.with(Cell::get).max(0) as usize)
}

#[test]
fn census_candidate_path_heap_peaks_stay_bounded() {
    let dataset = census::generate(&CensusConfig {
        records: RECORDS,
        ..CensusConfig::default()
    });
    let corpus = CorpusBuilder::new()
        .extend_texts(dataset.texts())
        .max_df_fraction(DEFAULT_MAX_DF_FRACTION)
        .build();
    assert_eq!(corpus.len(), RECORDS);
    let pool = WorkerPool::with_policy(1, DispatchPolicy::always_serial());
    let strategy = BlockingStrategy::meta_default();

    let (graph, graph_peak) =
        peak_above_entry(|| strategy.candidate_graph(&corpus, &pool, None, None));
    let (seed, seed_peak) = peak_above_entry(|| seed_similarities(&corpus, &graph, &pool));
    eprintln!(
        "{RECORDS} records, {} candidate pairs: candidate_graph peak {graph_peak} bytes \
         ({} per record), seed_similarities peak {seed_peak} bytes ({} per record)",
        graph.pair_count(),
        graph_peak / RECORDS,
        seed_peak / RECORDS,
    );
    assert_eq!(seed.len(), graph.pair_count());
    assert!(
        graph.pair_count() > RECORDS / 10,
        "the census corpus must block"
    );

    let graph_bound = CANDIDATE_GRAPH_BYTES_PER_RECORD * RECORDS;
    assert!(
        graph_peak <= graph_bound,
        "candidate_graph held {graph_peak} bytes at once, over its bound of {graph_bound}"
    );
    let seed_bound = SEED_BYTES_PER_RECORD * RECORDS;
    assert!(
        seed_peak <= seed_bound,
        "seed_similarities held {seed_peak} bytes at once, over its bound of {seed_bound}"
    );
}
