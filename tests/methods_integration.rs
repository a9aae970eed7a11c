//! Integration tests for the baseline families against generated data:
//! supervised classifiers on real pair features, crowd strategies with
//! budget accounting, and the closure evaluation harness.

use er_crowd::{crowder_resolve, transm_resolve, CrowdErConfig, NoisyOracle, TransMConfig};
use er_datasets::{generators, RestaurantConfig};
use er_eval::{evaluate_pairs, sweep_threshold_closure, ScoredPair};
use er_ml::{balanced_split, Classifier, FeatureExtractor, PegasosSvm, StandardScaler};
use unsupervised_er::pipeline;

fn restaurant() -> (er_datasets::Dataset, unsupervised_er::pipeline::Prepared) {
    let d = generators::restaurant::generate(&RestaurantConfig::default().scaled(0.25));
    let p = pipeline::prepare_with(&d, 0.035);
    (d, p)
}

#[test]
fn svm_on_real_features_beats_chance_by_far() {
    let (_, prepared) = restaurant();
    let pairs = prepared.graph.pairs().to_vec();
    let extractor = FeatureExtractor::new(&prepared.corpus);
    let features: Vec<Vec<f64>> = pairs.iter().map(|p| extractor.features(p.a, p.b)).collect();
    let labels: Vec<bool> = pairs
        .iter()
        .map(|p| prepared.truth.is_match(p.a, p.b))
        .collect();
    let split = balanced_split(&labels, 0.5, 3.0, 42);
    let scaler = StandardScaler::fit(&features);
    let scaled = scaler.transform_all(&features);
    let train_x: Vec<Vec<f64>> = split.train.iter().map(|&i| scaled[i].clone()).collect();
    let train_y: Vec<bool> = split.train.iter().map(|&i| labels[i]).collect();
    let mut svm = PegasosSvm::new();
    svm.fit(&train_x, &train_y);

    let test_truth = er_eval::TruthPairs::from_pairs(
        split
            .test
            .iter()
            .filter(|&&i| labels[i])
            .map(|&i| (pairs[i].a, pairs[i].b)),
    );
    let predicted = split
        .test
        .iter()
        .filter(|&&i| svm.predict(&scaled[i]))
        .map(|&i| (pairs[i].a, pairs[i].b));
    let c = evaluate_pairs(predicted, &test_truth);
    assert!(c.f1() > 0.7, "supervised SVM should do well here: {c:?}");
}

#[test]
fn perfect_crowd_reaches_near_perfect_f1_with_budget() {
    let (d, prepared) = restaurant();
    let pairs = prepared.graph.pairs().to_vec();
    // Machine scores: shared-term count (any monotone score works).
    let scored: Vec<(u32, u32, f64)> = pairs
        .iter()
        .map(|p| {
            (
                p.a,
                p.b,
                prepared
                    .corpus
                    .shared_term_count(p.a as usize, p.b as usize) as f64,
            )
        })
        .collect();
    let truth = &prepared.truth;
    let mut oracle = NoisyOracle::new(|a, b| truth.is_match(a, b), 1.0, 3);
    let out = crowder_resolve(
        &scored,
        &CrowdErConfig {
            machine_threshold: 1.0,
        },
        &mut oracle,
    );
    let c = evaluate_pairs(out.matches.iter().copied(), truth);
    assert!(c.precision() > 0.999, "perfect oracle cannot err: {c:?}");
    assert!(c.recall() > 0.85, "{c:?}");
    assert!(out.questions > 0 && out.questions <= pairs.len());
    let _ = d;
}

#[test]
fn transm_spends_less_than_crowder() {
    let (d, prepared) = restaurant();
    let pairs = prepared.graph.pairs().to_vec();
    let scored: Vec<(u32, u32, f64)> = pairs
        .iter()
        .map(|p| {
            (
                p.a,
                p.b,
                prepared
                    .corpus
                    .shared_term_count(p.a as usize, p.b as usize) as f64,
            )
        })
        .collect();
    let truth = &prepared.truth;
    let mut o1 = NoisyOracle::new(|a, b| truth.is_match(a, b), 1.0, 3);
    let crowder = crowder_resolve(
        &scored,
        &CrowdErConfig {
            machine_threshold: 1.0,
        },
        &mut o1,
    );
    let mut o2 = NoisyOracle::new(|a, b| truth.is_match(a, b), 1.0, 3);
    let transm = transm_resolve(
        d.len(),
        &scored,
        &TransMConfig {
            machine_threshold: 1.0,
        },
        &mut o2,
    );
    assert!(
        transm.questions <= crowder.questions,
        "transitivity must save questions: {} vs {}",
        transm.questions,
        crowder.questions
    );
}

#[test]
fn closure_sweep_agrees_with_pairwise_on_pair_only_truth() {
    // When every entity has at most 2 records, transitive closure adds
    // nothing, so the closure sweep and the plain sweep coincide.
    let (d, prepared) = restaurant();
    let pairs = prepared.graph.pairs().to_vec();
    let scores: Vec<f64> = pairs
        .iter()
        .map(|p| {
            prepared
                .corpus
                .shared_term_count(p.a as usize, p.b as usize) as f64
        })
        .collect();
    let scored: Vec<ScoredPair> = pairs
        .iter()
        .zip(&scores)
        .map(|(p, &s)| ScoredPair {
            a: p.a,
            b: p.b,
            score: s,
        })
        .collect();
    let labels = pipeline::entity_labels(&d);
    let closure = sweep_threshold_closure(&scored, &labels, 200);
    let plain = er_eval::sweep_threshold(&scored, &prepared.truth, 200);
    // Closure can only help (it may connect a cluster through a chain),
    // and for 2-record entities the chain is the pair itself.
    assert!(closure.f1 + 1e-9 >= plain.f1);
    assert!(
        (closure.f1 - plain.f1).abs() < 0.05,
        "{} vs {}",
        closure.f1,
        plain.f1
    );
}

#[test]
fn gcer_budget_controls_quality() {
    let (d, prepared) = restaurant();
    let pairs = prepared.graph.pairs().to_vec();
    let scored: Vec<(u32, u32, f64)> = pairs
        .iter()
        .map(|p| {
            (
                p.a,
                p.b,
                prepared
                    .corpus
                    .shared_term_count(p.a as usize, p.b as usize) as f64,
            )
        })
        .collect();
    let truth = &prepared.truth;
    let run = |budget: usize| {
        let mut oracle = er_crowd::NoisyOracle::new(|a, b| truth.is_match(a, b), 1.0, 11);
        let out = er_crowd::gcer_resolve(
            d.len(),
            &scored,
            &er_crowd::GcerConfig {
                budget,
                machine_threshold: 0.2,
            },
            &mut oracle,
        );
        (
            evaluate_pairs(out.matches.iter().copied(), truth).f1(),
            out.questions,
        )
    };
    let (f1_big, q_big) = run(10_000);
    let (f1_small, q_small) = run(5);
    assert!(q_small <= 5);
    assert!(q_big >= q_small);
    assert!(
        f1_big >= f1_small,
        "more budget must not hurt: {f1_small} -> {f1_big}"
    );
    assert!(f1_big > 0.9, "{f1_big}");
}

#[test]
fn acd_and_power_resolve_with_fewer_questions_than_crowder() {
    let (d, prepared) = restaurant();
    let pairs = prepared.graph.pairs().to_vec();
    let scored: Vec<(u32, u32, f64)> = pairs
        .iter()
        .map(|p| {
            (
                p.a,
                p.b,
                prepared
                    .corpus
                    .shared_term_count(p.a as usize, p.b as usize) as f64,
            )
        })
        .collect();
    let truth = &prepared.truth;
    let mut o1 = er_crowd::NoisyOracle::new(|a, b| truth.is_match(a, b), 1.0, 5);
    let crowder = crowder_resolve(
        &scored,
        &CrowdErConfig {
            machine_threshold: 0.2,
        },
        &mut o1,
    );
    let mut o2 = er_crowd::NoisyOracle::new(|a, b| truth.is_match(a, b), 1.0, 5);
    let acd = er_crowd::acd_resolve(
        d.len(),
        &scored,
        &er_crowd::AcdConfig {
            machine_threshold: 0.2,
            ..Default::default()
        },
        &mut o2,
    );
    let mut o3 = er_crowd::NoisyOracle::new(|a, b| truth.is_match(a, b), 1.0, 5);
    let power = er_crowd::power_resolve(
        d.len(),
        &scored,
        &er_crowd::PowerConfig {
            machine_threshold: 0.2,
            ..Default::default()
        },
        &mut o3,
    );
    assert!(
        acd.questions <= crowder.questions,
        "{} vs {}",
        acd.questions,
        crowder.questions
    );
    assert!(power.questions <= crowder.questions);
    let f1 = |m: &[(u32, u32)]| evaluate_pairs(m.iter().copied(), truth).f1();
    assert!(f1(&acd.matches) > 0.75, "{}", f1(&acd.matches));
    assert!(f1(&power.matches) > 0.6, "{}", f1(&power.matches));
}

#[test]
fn average_precision_ranks_fusion_probabilities_highly() {
    let (_, prepared) = restaurant();
    let cfg = er_core::FusionConfig {
        threads: 1,
        rounds: 2,
        ..Default::default()
    };
    let outcome = er_core::Resolver::new(cfg).resolve(&prepared.graph);
    let scored: Vec<ScoredPair> = prepared
        .graph
        .pairs()
        .iter()
        .zip(&outcome.matching_probabilities)
        .map(|(p, &score)| ScoredPair {
            a: p.a,
            b: p.b,
            score,
        })
        .collect();
    let ap = er_eval::average_precision(&scored, &prepared.truth);
    assert!(ap > 0.85, "fusion probabilities should rank well: {ap}");
    let curve = er_eval::pr_curve(&scored, &prepared.truth);
    assert!(!curve.is_empty());
}
