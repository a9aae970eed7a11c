//! Criterion microbenchmarks for the framework's hot kernels:
//! dense matmul (CliqueRank's inner loop), one ITER sweep, a CliqueRank
//! component solve, and RSS walks.
//!
//! Each kernel is measured on a 1-thread [`er_pool::WorkerPool`] (the
//! serial baseline) and at 2 and 4 threads, so a single run reports
//! the serial-vs-pool speedup. Because every parallel path is
//! bit-identical to the serial one, the variants compute the same
//! result; only the wall clock differs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use er_core::{run_cliquerank, run_iter, run_rss_subset, CliqueRankConfig, IterConfig, RssConfig};
use er_graph::bipartite::PairNode;
use er_graph::{BipartiteGraphBuilder, RecordGraph};
use er_matrix::{matmul_into, matmul_naive, Matrix, PackScratch};
use er_pool::WorkerPool;

/// Pool sizes benchmarked against the serial baseline.
const POOL_SIZES: [usize; 2] = [2, 4];

fn deterministic(n: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Matrix::from_fn(n, n, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    })
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for n in [64usize, 128, 256] {
        let a = deterministic(n, 1);
        let b = deterministic(n, 2);
        group.bench_function(format!("packed_{n}"), |bench| {
            bench.iter(|| a.matmul(&b));
        });
        // The zero-allocation variant the CliqueRank recurrence runs on:
        // output and pack buffers reused across calls.
        let mut scratch = PackScratch::default();
        let mut out = Matrix::zeros(n, n);
        group.bench_function(format!("packed_into_{n}"), |bench| {
            bench.iter(|| matmul_into(&a, &b, &mut out, None, &mut scratch));
        });
        if n <= 128 {
            group.bench_function(format!("naive_{n}"), |bench| {
                bench.iter(|| matmul_naive(&a, &b));
            });
        }
        for threads in POOL_SIZES {
            let pool = WorkerPool::new(threads);
            group.bench_function(format!("pooled_{n}_t{threads}"), |bench| {
                bench.iter(|| matmul_into(&a, &b, &mut out, Some(&pool), &mut scratch));
            });
        }
    }
    group.finish();
}

/// A synthetic clique-of-cliques record graph for walk kernels.
fn walk_graph(cliques: usize, size: usize) -> RecordGraph {
    let n = cliques * size;
    let mut pairs = Vec::new();
    let mut scores = Vec::new();
    for c in 0..cliques {
        let base = (c * size) as u32;
        for i in 0..size as u32 {
            for j in i + 1..size as u32 {
                pairs.push(PairNode::new(base + i, base + j));
                scores.push(1.0 + (i + j) as f64 * 0.01);
            }
        }
        if c > 0 {
            pairs.push(PairNode::new(base - 1, base));
            scores.push(0.05);
        }
    }
    RecordGraph::from_pair_scores(n, &pairs, &scores)
}

fn bench_cliquerank(c: &mut Criterion) {
    let graph = walk_graph(4, 24);
    let config = CliqueRankConfig::default();
    let serial = WorkerPool::new(1);
    let mut group = c.benchmark_group("cliquerank");
    group.bench_function("serial_4x24", |b| {
        b.iter(|| run_cliquerank(&graph, &config, &serial));
    });
    for threads in POOL_SIZES {
        let pool = WorkerPool::new(threads);
        group.bench_function(format!("pooled_4x24_t{threads}"), |b| {
            b.iter(|| run_cliquerank(&graph, &config, &pool));
        });
    }
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    use er_core::Kernel;
    // A sparse graph (chain of small cliques) where the edgewise kernel
    // should win, in one connected component.
    let sparse_graph = walk_graph(24, 4);
    let serial = WorkerPool::new(1);
    let mut group = c.benchmark_group("cliquerank_kernel");
    for (name, kernel) in [("dense", Kernel::Dense), ("sparse", Kernel::Sparse)] {
        let config = CliqueRankConfig {
            kernel,
            ..Default::default()
        };
        group.bench_function(format!("{name}_chain24x4"), |b| {
            b.iter(|| run_cliquerank(&sparse_graph, &config, &serial));
        });
    }
    group.finish();
}

fn bench_rss(c: &mut Criterion) {
    let graph = walk_graph(4, 24);
    let config = RssConfig {
        walks_per_edge: 10,
        ..Default::default()
    };
    let edges: Vec<u32> = (0..100.min(graph.pairs().len() as u32)).collect();
    let serial = WorkerPool::new(1);
    let mut group = c.benchmark_group("rss");
    group.bench_function("serial_100edges_10walks", |b| {
        b.iter(|| run_rss_subset(&graph, &config, &edges, &serial));
    });
    for threads in POOL_SIZES {
        let pool = WorkerPool::new(threads);
        group.bench_function(format!("pooled_100edges_10walks_t{threads}"), |b| {
            b.iter(|| run_rss_subset(&graph, &config, &edges, &pool));
        });
    }
    group.finish();
}

fn bench_iter(c: &mut Criterion) {
    // Bipartite graph: 200 records, 400 terms, skewed postings.
    let mut postings: Vec<Vec<u32>> = Vec::new();
    let mut state = 12345u64;
    let mut next = |m: u32| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as u32) % m
    };
    for t in 0..400usize {
        let df = 2 + (t % 7) as u32;
        let mut posting: Vec<u32> = (0..df).map(|_| next(200)).collect();
        posting.sort_unstable();
        posting.dedup();
        postings.push(posting);
    }
    let mut builder = BipartiteGraphBuilder::new(200, 400);
    for (t, p) in postings.iter().enumerate() {
        builder = builder.postings(t as u32, p);
    }
    let graph = builder.build();
    let prob = vec![1.0; graph.pair_count()];
    let config = IterConfig::default();
    let serial = WorkerPool::new(1);
    let mut group = c.benchmark_group("iter");
    group.bench_function("serial_200r_400t", |b| {
        b.iter_batched(
            || prob.clone(),
            |p| run_iter(&graph, &p, &config, &serial),
            BatchSize::SmallInput,
        );
    });
    for threads in POOL_SIZES {
        let pool = WorkerPool::new(threads);
        group.bench_function(format!("pooled_200r_400t_t{threads}"), |b| {
            b.iter_batched(
                || prob.clone(),
                |p| run_iter(&graph, &p, &config, &pool),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_matmul, bench_cliquerank, bench_kernels, bench_rss, bench_iter
}
criterion_main!(benches);
