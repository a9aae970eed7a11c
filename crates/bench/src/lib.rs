//! # er-bench
//!
//! Shared infrastructure for the benchmark targets that regenerate every
//! table and figure of the paper's evaluation section (see DESIGN.md §5
//! for the experiment index and EXPERIMENTS.md for recorded runs).
//!
//! Every bench target is a `harness = false` binary that prints the
//! paper-reported values next to the measured ones. The workload scale is
//! controlled by the `ER_SCALE` environment variable:
//!
//! * `ER_SCALE=ci` (default) — 40 % of paper scale, sized for a
//!   single-core CI box;
//! * `ER_SCALE=paper` — the full 858 / 2173 / 1865-record datasets;
//! * `ER_SCALE=<float>` — any custom factor.

#![deny(unsafe_code)]

use std::time::{Duration, Instant};

use er_core::FusionConfig;
use er_datasets::{
    generators, CensusConfig, Dataset, PaperConfig, ProductConfig, RestaurantConfig,
};
use er_eval::TruthPairs;
use er_graph::bipartite::PairNode;
use er_text::Corpus;
use unsupervised_er::pipeline::{self, Prepared};

/// Worker-thread count for pooled bench paths: `ER_THREADS` if set (the
/// knob CI already uses for the fusion benches), else the machine's
/// available parallelism. Every pooled path is bit-identical to its
/// serial twin, so this only moves wall clock, never results.
pub fn bench_threads() -> usize {
    std::env::var("ER_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or_else(er_core::default_threads, |t| t.max(1))
}

/// Workload scale factor from `ER_SCALE` (see crate docs).
pub fn scale_factor() -> f64 {
    match std::env::var("ER_SCALE").as_deref() {
        Ok("paper") => 1.0,
        Ok("ci") | Err(_) => 0.4,
        Ok(other) => other
            .parse()
            .unwrap_or_else(|_| panic!("ER_SCALE must be 'ci', 'paper' or a float, got {other:?}")),
    }
}

/// One benchmark dataset with its preprocessing cap and paper-reported
/// reference F1 values (Table II).
#[derive(Debug)]
pub struct BenchDataset {
    /// The generated dataset.
    pub dataset: Dataset,
    /// Frequent-term cap used for this benchmark. Mirrors the paper's
    /// per-dataset preprocessing: the Restaurant record graph is very
    /// sparse (aggressive filtering), while the Paper/Cora graph retains
    /// mid-frequency venue terms and the giant cluster's anchors
    /// (df ≈ 0.10 of the corpus), so its cap must exceed that.
    pub max_df_fraction: f64,
    /// Paper-reported F1 of ITER+CliqueRank on the real benchmark.
    pub paper_fusion_f1: f64,
}

/// Builds the three benchmark datasets at the given scale.
pub fn bench_datasets(scale: f64) -> Vec<BenchDataset> {
    vec![
        BenchDataset {
            dataset: generators::restaurant::generate(&RestaurantConfig::default().scaled(scale)),
            max_df_fraction: 0.035,
            paper_fusion_f1: 0.927,
        },
        BenchDataset {
            dataset: generators::product::generate(&ProductConfig::default().scaled(scale)),
            max_df_fraction: 0.05,
            paper_fusion_f1: 0.764,
        },
        BenchDataset {
            dataset: generators::paper::generate(&PaperConfig::default().scaled(scale)),
            max_df_fraction: 0.15,
            paper_fusion_f1: 0.890,
        },
    ]
}

/// The census dataset every census bench draws from: `records` records,
/// 20 % duplicates, seed `0xCE_0505`.
pub fn census(records: usize) -> Dataset {
    generators::census::generate(&CensusConfig {
        records,
        duplicate_rate: 0.2,
        seed: 0xCE_0505,
    })
}

/// Prepares a bench dataset (tokenize + candidate graph + truth).
pub fn prepare(bench: &BenchDataset) -> Prepared {
    pipeline::prepare_with(&bench.dataset, bench.max_df_fraction)
}

/// The fusion configuration used across benches: paper defaults
/// (α = 20, S = 20, η = 0.98, 5 rounds) with the machine's thread count.
pub fn fusion_config() -> FusionConfig {
    FusionConfig::default()
}

/// Best-of-`reps` wall time of `f`, in seconds.
pub fn time_min(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Formats a `Duration` compactly ("1.2s", "340ms").
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 60.0 {
        format!("{:.1}min", secs / 60.0)
    } else if secs >= 1.0 {
        format!("{secs:.1}s")
    } else {
        format!("{:.0}ms", secs * 1000.0)
    }
}

/// Prints a table header and underline.
pub fn print_header(title: &str, columns: &[(&str, usize)]) {
    println!("\n== {title}");
    let mut line = String::new();
    for (name, width) in columns {
        line.push_str(&format!("{name:<width$}  "));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len().min(100)));
}

/// Helper bundling the per-pair scores of a matcher for evaluation.
pub fn scored_pairs(pairs: &[PairNode], scores: &[f64]) -> Vec<er_eval::ScoredPair> {
    pairs
        .iter()
        .zip(scores)
        .map(|(p, &score)| er_eval::ScoredPair {
            a: p.a,
            b: p.b,
            score,
        })
        .collect()
}

/// Runs a baseline scorer through the paper's 1000-quantum optimal
/// threshold sweep.
pub fn sweep_baseline(
    scorer: &dyn er_baselines::PairScorer,
    corpus: &Corpus,
    pairs: &[PairNode],
    truth: &TruthPairs,
) -> er_eval::SweepResult {
    er_baselines::evaluate_scorer(scorer, corpus, pairs, truth)
}

/// Paper-reported Table II reference row.
#[derive(Debug)]
pub struct PaperTable2 {
    /// Method name as printed in Table II.
    pub method: &'static str,
    /// F1 per dataset: `[restaurant, product, paper]`; `None` where the
    /// original publication did not report the value.
    pub f1: [Option<f64>; 3],
}

/// The full Table II reference matrix.
pub const PAPER_TABLE2: &[PaperTable2] = &[
    PaperTable2 {
        method: "Jaccard",
        f1: [Some(0.836), Some(0.332), Some(0.792)],
    },
    PaperTable2 {
        method: "TF-IDF",
        f1: [Some(0.871), Some(0.658), Some(0.821)],
    },
    PaperTable2 {
        method: "Gaussian Mixture Model",
        f1: [Some(0.704), None, None],
    },
    PaperTable2 {
        method: "HGM+Bootstrap",
        f1: [Some(0.844), None, None],
    },
    PaperTable2 {
        method: "MLE",
        f1: [Some(0.904), None, None],
    },
    PaperTable2 {
        method: "SVM",
        f1: [Some(0.922), None, Some(0.824)],
    },
    PaperTable2 {
        method: "CrowdER",
        f1: [Some(0.934), Some(0.800), Some(0.824)],
    },
    PaperTable2 {
        method: "TransM",
        f1: [Some(0.930), Some(0.792), Some(0.740)],
    },
    PaperTable2 {
        method: "GCER",
        f1: [Some(0.930), Some(0.760), Some(0.785)],
    },
    PaperTable2 {
        method: "ACD",
        f1: [Some(0.934), Some(0.805), Some(0.820)],
    },
    PaperTable2 {
        method: "Power+",
        f1: [Some(0.934), None, Some(0.820)],
    },
    PaperTable2 {
        method: "SimRank",
        f1: [Some(0.645), Some(0.376), Some(0.730)],
    },
    PaperTable2 {
        method: "PageRank",
        f1: [Some(0.905), Some(0.564), Some(0.316)],
    },
    PaperTable2 {
        method: "Hybrid",
        f1: [Some(0.946), Some(0.593), Some(0.748)],
    },
    PaperTable2 {
        method: "ITER+CliqueRank",
        f1: [Some(0.927), Some(0.764), Some(0.890)],
    },
];

/// Formats an optional paper reference value.
pub fn fmt_ref(v: Option<f64>) -> String {
    v.map_or_else(|| "  -  ".to_owned(), |x| format!("{x:.3}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_build_at_tiny_scale() {
        let benches = bench_datasets(0.1);
        assert_eq!(benches.len(), 3);
        for b in &benches {
            let p = prepare(b);
            assert!(p.graph.pair_count() > 0, "{}", b.dataset.name);
            assert!(p.truth.total() > 0);
        }
    }

    #[test]
    fn reference_table_has_15_rows() {
        assert_eq!(PAPER_TABLE2.len(), 15);
        let fusion = PAPER_TABLE2.last().unwrap();
        assert_eq!(fusion.f1[2], Some(0.890));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_millis(250)), "250ms");
        assert_eq!(fmt_duration(Duration::from_secs_f64(2.34)), "2.3s");
        assert_eq!(fmt_duration(Duration::from_secs(90)), "1.5min");
    }
}
