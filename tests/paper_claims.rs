//! Integration tests pinning the paper's qualitative claims — the
//! relationships its evaluation section argues for, checked at reduced
//! scale on every run. (Quantitative tables live in the bench targets.)

use er_baselines::{JaccardScorer, PairScorer, TwIdfScorer};
use er_core::{run_iter, BoostMode, FusionConfig, IterConfig, Resolver};
use er_datasets::{generators, PaperConfig, ProductConfig, RestaurantConfig};
use er_eval::{evaluate_pairs, spearman_rho, term_discriminativeness};
use er_pool::WorkerPool;
use unsupervised_er::pipeline;

fn quick(rounds: usize) -> FusionConfig {
    FusionConfig {
        rounds,
        threads: 1,
        ..Default::default()
    }
}

/// §I / Table II: on product data, term-weight learning must beat raw
/// set overlap — model codes matter more than marketing words.
#[test]
fn fusion_beats_jaccard_on_product_data() {
    let d = generators::product::generate(&ProductConfig::default().scaled(0.15));
    let prepared = pipeline::prepare_with(&d, 0.05);
    let outcome = Resolver::new(quick(2)).resolve(&prepared.graph);
    let fusion_f1 = evaluate_pairs(outcome.matches.iter().copied(), &prepared.truth).f1();
    let pairs = prepared.graph.pairs().to_vec();
    let jaccard =
        er_baselines::evaluate_scorer(&JaccardScorer, &prepared.corpus, &pairs, &prepared.truth);
    assert!(
        fusion_f1 > jaccard.f1,
        "fusion {fusion_f1} must beat Jaccard {} on product data",
        jaccard.f1
    );
}

/// Table IV: ITER's weights rank terms by discrimination power far
/// better than PageRank salience does.
#[test]
fn iter_weights_outcorrelate_pagerank() {
    let d = generators::restaurant::generate(&RestaurantConfig::default().scaled(0.25));
    let prepared = pipeline::prepare_with(&d, 0.035);
    let graph = &prepared.graph;
    let truth = &prepared.truth;

    let mut gt = Vec::new();
    let mut idx = Vec::new();
    for t in 0..graph.term_count() as u32 {
        let pairs: Vec<(u32, u32)> = graph
            .pairs_of_term(t)
            .iter()
            .map(|&p| {
                let pair = graph.pair(p);
                (pair.a, pair.b)
            })
            .collect();
        if let Some(s) = term_discriminativeness(&pairs, |a, b| truth.is_match(a, b)) {
            gt.push(s);
            idx.push(t as usize);
        }
    }
    let iter_out = run_iter(
        graph,
        &vec![1.0; graph.pair_count()],
        &IterConfig::default(),
        &WorkerPool::new(1),
    );
    let pagerank = TwIdfScorer::default().term_salience(&prepared.corpus);
    let w_iter: Vec<f64> = idx.iter().map(|&t| iter_out.term_weights[t]).collect();
    let w_pr: Vec<f64> = idx.iter().map(|&t| pagerank[t]).collect();
    let rho_iter = spearman_rho(&w_iter, &gt);
    let rho_pr = spearman_rho(&w_pr, &gt);
    assert!(rho_iter > 0.6, "ITER correlation too weak: {rho_iter}");
    assert!(
        rho_iter > rho_pr + 0.3,
        "ITER ({rho_iter}) must clearly beat PageRank ({rho_pr})"
    );
}

/// §VI-B: without the bonus boost, big cliques cannot be resolved.
#[test]
fn boost_is_essential_for_big_cliques() {
    let d = generators::paper::generate(&PaperConfig::default().scaled(0.12));
    let prepared = pipeline::prepare_with(&d, 0.15);
    let with = Resolver::new(quick(1)).resolve(&prepared.graph);
    let mut cfg = quick(1);
    cfg.cliquerank.boost = BoostMode::Off;
    let without = Resolver::new(cfg).resolve(&prepared.graph);
    let f1_with = evaluate_pairs(with.matches.iter().copied(), &prepared.truth).f1();
    let f1_without = evaluate_pairs(without.matches.iter().copied(), &prepared.truth).f1();
    assert!(
        f1_with > f1_without + 0.2,
        "boost {f1_with} vs no boost {f1_without}"
    );
}

/// Table V: reinforcement must not degrade accuracy, and on product data
/// it must improve it.
#[test]
fn reinforcement_helps_product() {
    let d = generators::product::generate(&ProductConfig::default().scaled(0.15));
    let prepared = pipeline::prepare_with(&d, 0.05);
    let one = Resolver::new(quick(1)).resolve(&prepared.graph);
    let three = Resolver::new(quick(3)).resolve(&prepared.graph);
    let f1_one = evaluate_pairs(one.matches.iter().copied(), &prepared.truth).f1();
    let f1_three = evaluate_pairs(three.matches.iter().copied(), &prepared.truth).f1();
    assert!(
        f1_three + 0.02 >= f1_one,
        "reinforcement degraded: {f1_one} -> {f1_three}"
    );
}

/// §V-A: a term occurring only in matching pairs must end up weighted
/// above a term spread across many non-matching pairs.
#[test]
fn discriminative_terms_learn_higher_weights() {
    let d = generators::product::generate(&ProductConfig::default().scaled(0.1));
    let prepared = pipeline::prepare_with(&d, 0.05);
    let outcome = Resolver::new(quick(2)).resolve(&prepared.graph);
    let graph = &prepared.graph;
    let truth = &prepared.truth;
    // Mean weight of perfectly discriminative vs perfectly noisy terms.
    let (mut disc, mut noisy) = (Vec::new(), Vec::new());
    for t in 0..graph.term_count() as u32 {
        let pairs = graph.pairs_of_term(t);
        if pairs.len() < 2 {
            continue;
        }
        let matching = pairs
            .iter()
            .filter(|&&p| {
                let pair = graph.pair(p);
                truth.is_match(pair.a, pair.b)
            })
            .count();
        if matching == pairs.len() {
            disc.push(outcome.term_weights[t as usize]);
        } else if matching == 0 {
            noisy.push(outcome.term_weights[t as usize]);
        }
    }
    assert!(!disc.is_empty() && !noisy.is_empty());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&disc) > 2.0 * mean(&noisy),
        "discriminative {} vs noisy {}",
        mean(&disc),
        mean(&noisy)
    );
}

/// §IV: the matching probability is a universal criterion — the same
/// η = 0.98 works across domains (no per-dataset threshold tuning).
#[test]
fn universal_eta_works_across_domains() {
    let restaurant = generators::restaurant::generate(&RestaurantConfig::default().scaled(0.2));
    let product = generators::product::generate(&ProductConfig::default().scaled(0.12));
    for (d, cap) in [(&restaurant, 0.035), (&product, 0.05)] {
        let prepared = pipeline::prepare_with(d, cap);
        let outcome = Resolver::new(quick(2)).resolve(&prepared.graph);
        let c = evaluate_pairs(outcome.matches.iter().copied(), &prepared.truth);
        assert!(
            c.f1() > 0.7,
            "η = 0.98 must work unchanged on {}: {c:?}",
            d.name
        );
    }
}

/// The candidate policy is honored end to end: no same-source matches on
/// a two-source dataset, even with a permissive threshold.
#[test]
fn cross_source_policy_is_airtight() {
    let d = generators::product::generate(&ProductConfig::default().scaled(0.1));
    let prepared = pipeline::prepare_with(&d, 0.05);
    let mut cfg = quick(1);
    cfg.eta = 0.1; // deliberately permissive
    let outcome = Resolver::new(cfg).resolve(&prepared.graph);
    for &(a, b) in &outcome.matches {
        assert_ne!(
            d.records[a as usize].source, d.records[b as usize].source,
            "same-source match ({a},{b}) leaked through"
        );
    }
    // Silence the unused-import lint for PairScorer (used in other tests).
    let _: Option<&dyn PairScorer> = None;
}
