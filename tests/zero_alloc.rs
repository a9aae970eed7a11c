//! Steady-state allocation contracts of the hot per-element loops.
//!
//! Four subsystems promise zero heap allocations once warm, and two
//! builds promise a number of allocations that does not grow with their
//! input:
//!
//! * **CliqueRank recurrence** — after a warm-up solve has grown the
//!   scratch arena, the pack buffers, and the edge-set CSR scratch to
//!   their high-water marks, repeating the solve on the same component
//!   must allocate nothing, on both the dense (packed matmul) and the
//!   edgewise sparse step, with the neighbor mask off, and on a
//!   triangle-free component whose recurrence exits early on either
//!   step.
//! * **Batch similarity engine** — after one pass over a pair batch has
//!   grown `SimScratch` (DP rows, bit-parallel masks, Monge-Elkan memo
//!   tables, the stamped non-ASCII mask rows), re-scoring the batch on
//!   every kernel must allocate nothing. The string tape build is
//!   excluded: it is a once-per-dataset cost by design.
//! * **ITER sweeps** — once a run's outcome has been handed back through
//!   `IterScratch::recycle`, the next `run_iter_into` allocates nothing:
//!   its working vectors and the live view of the graph (the local ids of
//!   the terms with `P_t > 0`, their `[x, acc]` slots, the rows of the
//!   pairs with `p > 0`) all reuse the scratch's capacity. One scratch
//!   runs in fusion order: all-ones first, then fewer live pairs.
//! * **Record interning** — once a vocabulary has seen a record's terms
//!   and its token buffer has grown to the record's longest token,
//!   `Vocabulary::intern_record` appending into a caller's token list
//!   with spare capacity allocates nothing: no `String` or `Vec` per
//!   record.
//!
//! * **CliqueRank per-component pass** — `run_cliquerank` costs a fixed
//!   number of allocations whatever the number of components: the
//!   component table is flat, a two-record component is decided in
//!   closed form with no solve, and nothing is allocated per component.
//!   It allocates as often on 1,000 two-record components as on 10,000
//!   (each graph plus one triangle, which takes the general solve).
//! * **CSR build** — `CsrGraph::from_undirected_edges` on a sorted edge
//!   list makes a fixed number of allocations whatever its size: every
//!   row is filled ascending and none is sorted.
//!
//! A counting global allocator pins all six contracts; any regression (a
//! stray `clone`, a `Vec` built inside the step loop, a mask row dropped
//! and rebuilt per pair) turns into a test failure rather than a silent
//! slowdown.
//!
//! The contracts are single-threaded by construction (`threads = 1`
//! configs, an always-serial pool), so the counter is **thread-scoped**:
//! only allocations made by the measuring thread count. A process-global
//! counter is not an option — the libtest harness's main thread lazily
//! initializes its `std::sync::mpmc` receive context (an `Arc` plus a
//! waker) on its first blocking `recv`, and that once-per-process
//! allocation lands inside the armed window often enough to flake the
//! gate. The thread-local is `const`-initialized so reading it from
//! inside the allocator can never itself allocate (no lazy TLS init, no
//! destructor registration).
//!
//! This file deliberately holds a single `#[test]`: the counter design
//! assumes one measuring thread at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use er_core::{
    run_cliquerank, run_iter_into, solve_component_into, BoostMode, CliqueRankConfig,
    CliqueScratch, IterConfig, IterScratch, Kernel,
};
use er_graph::{bipartite::PairNode, BipartiteGraph, BipartiteGraphBuilder, CsrGraph, RecordGraph};
use er_pool::{DispatchPolicy, WorkerPool};
use er_text::{BatchScorer, CorpusBuilder, SimKernel, TermId, Vocabulary};

/// Delegates to the system allocator, counting allocation calls while
/// armed. `realloc`/`alloc_zeroed` use the `GlobalAlloc` defaults, which
/// route through `alloc`, so growth is counted too.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether allocations on *this* thread are being measured.
    /// `const`-initialized: access from the allocator is a plain TLS
    /// read with no lazy-init allocation (`Cell<bool>` has no
    /// destructor to register either).
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

// The workspace-wide `#![deny(unsafe_code)]` walls apply to the library
// crates; this integration test is the one place a `GlobalAlloc` shim is
// unavoidable, and the xtask unsafe audit covers `src/` trees only.
// SAFETY: pure delegation to the system allocator plus atomic counter
// bumps; upholds the `GlobalAlloc` contract exactly as `System` does.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout, delegated verbatim to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this exact layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations performed on this thread by `f` while the counter is
/// armed. The measured paths run `threads = 1` / always-serial, so the
/// calling thread performs every allocation under test.
fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    ALLOCS.load(Ordering::SeqCst)
}

/// One connected component: a 24-node ring with chords, dense enough to
/// engage the packed matmul on the dense path and ragged enough (24 is
/// not a multiple of MR = 8 panels × NR = 4 columns in both directions)
/// to cross tile tails.
fn component_graph() -> RecordGraph {
    let n = 24u32;
    let mut pairs = Vec::new();
    let mut scores = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let d = j - i;
            if d == 1 || d == 2 || d == 7 {
                pairs.push(PairNode::new(i, j));
                scores.push(0.4 + 0.5 / (1.0 + d as f64));
            }
        }
    }
    RecordGraph::from_pair_scores(n as usize, &pairs, &scores)
}

/// A triangle-free component: a 24-node even cycle, whose recurrence
/// exits after its first step.
fn even_cycle() -> RecordGraph {
    let n = 24u32;
    let pairs: Vec<PairNode> = (0..n).map(|i| PairNode::new(i, (i + 1) % n)).collect();
    let scores: Vec<f64> = (0..n).map(|i| 0.4 + 0.05 * f64::from(i % 5)).collect();
    RecordGraph::from_pair_scores(n as usize, &pairs, &scores)
}

fn config(kernel: Kernel) -> CliqueRankConfig {
    CliqueRankConfig {
        kernel,
        boost: BoostMode::Fixed(0.5),
        ..Default::default()
    }
}

fn assert_steady_state_alloc_free(graph: &RecordGraph, cfg: &CliqueRankConfig, label: &str) {
    let comps = graph.components();
    let members = comps
        .iter()
        .find(|m| m.len() >= 2)
        .expect("graph has one non-trivial component");
    let mut local_of = vec![u32::MAX; graph.node_count()];
    for (li, &g) in members.iter().enumerate() {
        local_of[g as usize] = li as u32;
    }
    let mut out = vec![0.0f64; graph.pairs().len()];
    let mut scratch = CliqueScratch::default();

    // Warm-up: grows the arena, pack buffers, and sparse CSR scratch to
    // their high-water marks.
    solve_component_into(graph, members, &local_of, cfg, &mut out, &mut scratch);
    let baseline = out.clone();

    let allocs = count_allocs(|| {
        solve_component_into(graph, members, &local_of, cfg, &mut out, &mut scratch);
    });
    assert_eq!(
        allocs, 0,
        "{label}: steady-state recurrence must not allocate"
    );
    assert_eq!(out, baseline, "{label}: repeat solve must be bit-identical");
}

/// Warm batch scoring must be alloc-free on every kernel: the tape is
/// built once, the serial pool keeps the whole batch on the caller
/// thread, and one warm-up sweep grows the checked-out `SimScratch` (DP
/// rows, masks, memo tables — including the generation-stamped rows the
/// non-ASCII characters exercise) to its high-water mark.
fn assert_batch_scorer_steady_state() {
    let corpus = CorpusBuilder::new()
        .push_text("fenix argyle 8358 sunset blvd")
        .push_text("fenix 8358 sunset blvd hollywood")
        .push_text("café très münchen 8358")
        .push_text("cafe tres munchen 8358")
        .push_text("grill on the alley 9560 dayton way")
        .push_text("grill alley 9560 dayton")
        .build();
    let scorer = BatchScorer::new(&corpus);
    let idx: Vec<(u32, u32)> = (0..corpus.len() as u32)
        .flat_map(|a| ((a + 1)..corpus.len() as u32).map(move |b| (a, b)))
        .collect();
    let pool = WorkerPool::with_policy(1, DispatchPolicy::always_serial());
    let mut out = vec![0.0f64; idx.len()];

    // Warm-up: every kernel touches its own scratch regions.
    let mut baseline = Vec::new();
    for kernel in SimKernel::ALL {
        scorer.score_into(kernel, &idx, &mut out, &pool);
        baseline.push(out.clone());
    }

    for (kernel, expect) in SimKernel::ALL.into_iter().zip(&baseline) {
        let allocs = count_allocs(|| {
            scorer.score_into(kernel, &idx, &mut out, &pool);
        });
        assert_eq!(
            allocs,
            0,
            "{}: warm batch scoring must not allocate",
            kernel.name()
        );
        assert_eq!(
            &out,
            expect,
            "{}: repeat batch must be bit-identical",
            kernel.name()
        );
    }
}

/// 60 terms over 16 records, each term in 0–4 of them, so some terms
/// have `P_t = 0`.
fn iter_graph() -> BipartiteGraph {
    let postings: Vec<Vec<u32>> = (0..60u32)
        .map(|t| {
            let set: BTreeSet<u32> = (0..t % 5).map(|k| (t * 7 + k * 5) % 16).collect();
            set.into_iter().collect()
        })
        .collect();
    let mut builder = BipartiteGraphBuilder::new(16, postings.len());
    for (t, list) in postings.iter().enumerate() {
        builder = builder.postings(t as u32, list);
    }
    builder.build()
}

/// Warm ITER runs must be alloc-free: a first run on all-ones
/// probabilities grows the scratch's live view and working vectors to
/// the whole graph, as fusion's first round does, and every later run
/// recycles the previous outcome first and fits in that capacity. The
/// later runs go in fusion order, a quarter of the pairs dead and then
/// most of them, and around again.
fn assert_iter_steady_state() {
    let graph = iter_graph();
    let pool = WorkerPool::with_policy(1, DispatchPolicy::always_serial());
    let config = IterConfig::default();
    let n = graph.pair_count();
    let value = |p: usize| 0.25 + (p % 7) as f64 / 10.0;
    let ones = vec![1.0; n];
    let quarter_dead: Vec<f64> = (0..n)
        .map(|p| if p % 4 == 0 { 0.0 } else { value(p) })
        .collect();
    let mostly_dead: Vec<f64> = (0..n)
        .map(|p| if p % 4 == 0 { value(p) } else { 0.0 })
        .collect();
    let rounds = [
        &quarter_dead,
        &mostly_dead,
        &ones,
        &quarter_dead,
        &mostly_dead,
    ];
    let fresh: Vec<Vec<f64>> = rounds
        .iter()
        .map(|prob| {
            run_iter_into(&graph, prob, &config, &pool, &mut IterScratch::new()).term_weights
        })
        .collect();
    let mut scratch = IterScratch::new();
    let warm = run_iter_into(&graph, &ones, &config, &pool, &mut scratch);
    scratch.recycle(warm);
    let mut same = true;
    let allocs = count_allocs(|| {
        for (prob, want) in rounds.iter().zip(&fresh) {
            let out = run_iter_into(&graph, prob, &config, &pool, &mut scratch);
            same &= out
                .term_weights
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            scratch.recycle(out);
        }
    });
    assert_eq!(
        allocs, 0,
        "warm ITER runs in fusion order must not allocate"
    );
    assert!(same, "warm ITER runs must equal fresh runs bit for bit");
}

/// Warm record interning must be alloc-free: a warm-up pass interns
/// every term (growing the id table and the arena) and grows the token
/// buffer; re-interning the same texts into a token list with spare
/// capacity then allocates nothing. The texts cover
/// letters whose lowercase is longer than the original, repeats within
/// a record, and records with no tokens.
fn assert_interning_steady_state() {
    let texts = [
        "Fenix at the Argyle, 8358 Sunset Blvd.",
        "İSTANBUL ẞtrasse café TRÈS münchen",
        "",
        "  ;; -- ",
        "la la land la la",
        "fenix sunset İstanbul 8358",
    ];
    let mut vocab = Vocabulary::new();
    let mut warm = Vec::new();
    for text in texts {
        vocab.intern_record(text, &mut warm);
    }
    let df: Vec<u32> = vocab.iter().map(|(_, _, df)| df).collect();
    let mut tokens: Vec<TermId> = Vec::with_capacity(4 * warm.len());
    let allocs = count_allocs(|| {
        for _ in 0..3 {
            for text in texts {
                vocab.intern_record(text, &mut tokens);
            }
        }
    });
    assert_eq!(allocs, 0, "warm record interning must not allocate");
    assert_eq!(tokens, warm.repeat(3), "re-interning yields the same ids");
    let after: Vec<u32> = vocab.iter().map(|(_, _, df)| df).collect();
    assert_eq!(after, df.iter().map(|d| 4 * d).collect::<Vec<_>>());
}

/// `pairs` two-record components `{2k, 2k + 1}` with spread weights,
/// then one triangle.
fn pairs_and_triangle(pairs: u32) -> RecordGraph {
    let mut ps: Vec<PairNode> = (0..pairs)
        .map(|k| PairNode::new(2 * k, 2 * k + 1))
        .collect();
    let mut scores: Vec<f64> = (0..pairs)
        .map(|k| 0.05 + f64::from(k % 19) / 20.0)
        .collect();
    let t = 2 * pairs;
    ps.extend([
        PairNode::new(t, t + 1),
        PairNode::new(t, t + 2),
        PairNode::new(t + 1, t + 2),
    ]);
    scores.extend([0.9, 0.4, 0.7]);
    RecordGraph::from_pair_scores(t as usize + 3, &ps, &scores)
}

/// `run_cliquerank` allocates as often on 10,000 two-record components
/// as on 1,000: the per-component pass allocates nothing, and the
/// triangle's general solve is the same in both graphs.
fn assert_cliquerank_allocations_flat_in_components() {
    let pool = WorkerPool::with_policy(1, DispatchPolicy::always_serial());
    let cfg = CliqueRankConfig::default();
    let mut counts = Vec::new();
    for pairs in [1_000, 10_000] {
        let graph = pairs_and_triangle(pairs);
        let mut out = Vec::new();
        counts.push(count_allocs(|| out = run_cliquerank(&graph, &cfg, &pool)));
        let (pair_edges, triangle) = out.split_at(pairs as usize);
        assert!(pair_edges.iter().all(|&p| p == 1.0), "{pairs} pairs");
        assert!(
            triangle.iter().all(|&p| p > 0.0 && p <= 1.0),
            "{triangle:?}"
        );
    }
    assert_eq!(
        counts[0], counts[1],
        "run_cliquerank allocations grow with the component count"
    );
}

/// `CsrGraph::from_undirected_edges` on a sorted edge list allocates the
/// degree counts, the offsets and the two entry arrays, whatever its
/// size: every row comes out ascending, so none takes the sort buffer.
fn assert_sorted_csr_build_allocations_fixed() {
    let mut counts = Vec::new();
    for n in [1_000u32, 10_000] {
        // A path plus chords: rows with lower and upper neighbors.
        let mut edges = Vec::new();
        for u in 0..n {
            for d in [1, 3, 7] {
                if u + d < n {
                    edges.push((u, u + d, 0.5 + f64::from(d) / 10.0));
                }
            }
        }
        let mut graph = None;
        counts.push(count_allocs(|| {
            graph = Some(CsrGraph::from_undirected_edges(n as usize, &edges));
        }));
        assert_eq!(graph.map(|g| g.edge_count()), Some(edges.len()));
    }
    assert_eq!(counts, vec![4, 4], "sorted CSR build allocations");
}

#[test]
fn cliquerank_recurrence_steady_state_allocates_nothing() {
    let unmasked = CliqueRankConfig {
        neighbor_mask: false,
        ..config(Kernel::Dense)
    };
    assert_steady_state_alloc_free(
        &component_graph(),
        &config(Kernel::Dense),
        "dense packed path",
    );
    assert_steady_state_alloc_free(
        &component_graph(),
        &config(Kernel::Sparse),
        "edgewise sparse path",
    );
    assert_steady_state_alloc_free(&component_graph(), &unmasked, "unmasked dense path");
    assert_steady_state_alloc_free(&even_cycle(), &config(Kernel::Dense), "dense early exit");
    assert_steady_state_alloc_free(&even_cycle(), &config(Kernel::Sparse), "sparse early exit");
    assert_batch_scorer_steady_state();
    assert_iter_steady_state();
    assert_interning_steady_state();
    assert_cliquerank_allocations_flat_in_components();
    assert_sorted_csr_build_allocations_fixed();
}
