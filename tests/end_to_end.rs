//! End-to-end integration tests: generator → pipeline → fusion →
//! evaluation, across all three benchmark families.
//!
//! Scales are kept small so the suite stays fast in debug builds; the
//! full-scale numbers live in EXPERIMENTS.md.

use er_core::{FusionConfig, Resolver};
use er_datasets::{generators, PaperConfig, ProductConfig, RestaurantConfig};
use unsupervised_er::pipeline;

fn quick(rounds: usize) -> FusionConfig {
    FusionConfig {
        rounds,
        threads: 1,
        ..Default::default()
    }
}

#[test]
fn restaurant_resolves_with_high_f1() {
    let d = generators::restaurant::generate(&RestaurantConfig::default().scaled(0.25));
    let prepared = pipeline::prepare_with(&d, 0.035);
    let outcome = Resolver::new(quick(2)).resolve(&prepared.graph);
    let c = er_eval::evaluate_pairs(outcome.matches.iter().copied(), &prepared.truth);
    assert!(c.f1() > 0.8, "restaurant F1 too low: {c:?}");
}

#[test]
fn product_resolves_cross_source_only() {
    let d = generators::product::generate(&ProductConfig::default().scaled(0.15));
    let prepared = pipeline::prepare_with(&d, 0.05);
    let outcome = Resolver::new(quick(2)).resolve(&prepared.graph);
    for &(a, b) in &outcome.matches {
        assert!(
            d.is_candidate(a, b),
            "match ({a},{b}) violates the cross-source policy"
        );
    }
    let c = er_eval::evaluate_pairs(outcome.matches.iter().copied(), &prepared.truth);
    assert!(c.f1() > 0.7, "product F1 too low: {c:?}");
}

#[test]
fn paper_recovers_skewed_clusters() {
    let d = generators::paper::generate(&PaperConfig::default().scaled(0.12));
    let prepared = pipeline::prepare_with(&d, 0.15);
    let outcome = Resolver::new(quick(2)).resolve(&prepared.graph);
    let c = er_eval::evaluate_pairs(outcome.matches.iter().copied(), &prepared.truth);
    assert!(c.f1() > 0.7, "paper F1 too low: {c:?}");
    // The giant cluster must be substantially reassembled.
    let clusters = d.entity_clusters();
    let giant = clusters.iter().max_by_key(|c| c.len()).unwrap();
    let best = outcome
        .clusters
        .iter()
        .map(|c| c.iter().filter(|r| giant.contains(r)).count())
        .max()
        .unwrap_or(0);
    assert!(
        best * 2 > giant.len(),
        "giant cluster fragmented: best {best} of {}",
        giant.len()
    );
}

#[test]
fn fusion_is_deterministic() {
    let d = generators::restaurant::generate(&RestaurantConfig::default().scaled(0.15));
    let prepared = pipeline::prepare_with(&d, 0.035);
    let a = Resolver::new(quick(2)).resolve(&prepared.graph);
    let b = Resolver::new(quick(2)).resolve(&prepared.graph);
    assert_eq!(a.matches, b.matches);
    assert_eq!(a.matching_probabilities, b.matching_probabilities);
    assert_eq!(a.term_weights, b.term_weights);
}

#[test]
fn probabilities_and_weights_are_well_formed() {
    let d = generators::product::generate(&ProductConfig::default().scaled(0.1));
    let prepared = pipeline::prepare_with(&d, 0.05);
    let outcome = Resolver::new(quick(2)).resolve(&prepared.graph);
    assert_eq!(
        outcome.matching_probabilities.len(),
        prepared.graph.pair_count()
    );
    for &p in &outcome.matching_probabilities {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    }
    for &w in &outcome.term_weights {
        assert!(
            (0.0..1.0).contains(&w) || w == 0.0,
            "weight out of range: {w}"
        );
    }
    // Clusters partition the records.
    let mut seen = vec![false; d.len()];
    for cluster in &outcome.clusters {
        for &r in cluster {
            assert!(!seen[r as usize], "record {r} in two clusters");
            seen[r as usize] = true;
        }
    }
    assert!(seen.iter().all(|&s| s));
}

#[test]
fn stricter_eta_yields_fewer_matches() {
    let d = generators::restaurant::generate(&RestaurantConfig::default().scaled(0.15));
    let prepared = pipeline::prepare_with(&d, 0.035);
    let mut counts = Vec::new();
    for eta in [0.5, 0.9, 0.98, 1.0] {
        let mut cfg = quick(1);
        cfg.eta = eta;
        let outcome = Resolver::new(cfg).resolve(&prepared.graph);
        counts.push(outcome.matches.len());
    }
    for w in counts.windows(2) {
        assert!(w[0] >= w[1], "match count must shrink with eta: {counts:?}");
    }
}

#[test]
fn tsv_round_trip_preserves_resolution() {
    let d = generators::restaurant::generate(&RestaurantConfig {
        records: 80,
        duplicate_pairs: 10,
        seed: 5,
    });
    let path = std::env::temp_dir().join("er_integration_roundtrip.tsv");
    er_datasets::loader::save_tsv(&d, &path).unwrap();
    let loaded =
        er_datasets::loader::load_tsv(&path, er_datasets::SourcePolicy::WithinSingleSource)
            .unwrap();
    let _ = std::fs::remove_file(&path);

    let run_a = {
        let p = pipeline::prepare_with(&d, 0.035);
        Resolver::new(quick(2)).resolve(&p.graph)
    };
    let run_b = {
        let p = pipeline::prepare_with(&loaded, 0.035);
        Resolver::new(quick(2)).resolve(&p.graph)
    };
    assert_eq!(run_a.matches, run_b.matches);
}
