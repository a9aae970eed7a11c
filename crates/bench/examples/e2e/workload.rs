//! The four workloads: the fixed dataset each one resolves, the order
//! its seed gives the records, and the program settings that resolve it.

use unsupervised_er::datasets::generators::{census, paper, product};
use unsupervised_er::datasets::{
    scaled, CensusConfig, Dataset, PaperConfig, ProductConfig, Record,
};
use unsupervised_er::eval::TruthPairs;
use unsupervised_er::text::BlockingStrategy;

use crate::counts;
use crate::run::SplitMix;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 9;

/// The seed of a run that names none.
pub const DEFAULT_SEED: u64 = 0;

/// Paper's share of the generator's 1,865 records: 746, still one giant
/// record-graph component with CliqueRank near 90% of the resolve. The
/// full dataset takes 44 s to resolve on one thread, longer than a run's
/// window; at this size a window holds several resolves for a median.
const PAPER_SCALE: f64 = 0.4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperBatch,
    ProductBatch,
    CensusBatch,
    CensusStream,
}

/// How a batch workload is resolved.
#[derive(Debug)]
pub struct BatchSpec {
    pub max_df_fraction: f64,
    pub strategy: BlockingStrategy,
    /// Pairwise F1 below this counts the resolve as failed.
    pub f1_floor: f64,
}

/// The open-loop stream of `census-stream`.
#[derive(Debug)]
pub struct StreamSpec {
    /// Records ingested and resolved during set-up.
    pub preload: usize,
    /// Records that arrive during the measured window, at most.
    pub live: usize,
    /// Arrival rate, records per second.
    pub rate: f64,
    pub f1_floor: f64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperBatch,
        Workload::ProductBatch,
        Workload::CensusBatch,
        Workload::CensusStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBatch => "paper-batch",
            Workload::ProductBatch => "product-batch",
            Workload::CensusBatch => "census-batch",
            Workload::CensusStream => "census-stream",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the workload runs on. The batch workloads resolve on the
    /// caller alone: on a two-core host a second pool thread tripled the
    /// run-to-run spread of product-batch, and paper's, at 22–40% on two
    /// threads, fell to 10% on one. The stream runs one engine thread and
    /// one query reader.
    pub fn threads(self) -> usize {
        match self {
            Workload::CensusStream => 2,
            Workload::PaperBatch | Workload::ProductBatch | Workload::CensusBatch => 1,
        }
    }

    /// The workload's fixed dataset, from its generator's default seed.
    /// `scale` shrinks every count for the smoke tests; the benchmark
    /// always runs at 1.0.
    pub fn base(self, scale: f64) -> Dataset {
        match self {
            Workload::PaperBatch => {
                paper::generate(&PaperConfig::default().scaled(PAPER_SCALE * scale))
            }
            Workload::ProductBatch => product::generate(&ProductConfig::default().scaled(scale)),
            // 200,000 records: a fifth of the generator's default million.
            Workload::CensusBatch => census::generate(&CensusConfig::default().scaled(0.2 * scale)),
            Workload::CensusStream => {
                let s = self.stream_spec(scale).expect("the stream workload");
                census::generate(&CensusConfig {
                    records: s.preload + s.live,
                    ..CensusConfig::default()
                })
            }
        }
    }

    /// The records the program receives: the fixed dataset in an order
    /// drawn from `seed`, and the fingerprint of the dataset itself.
    ///
    /// The seed orders the records rather than regenerating them: across
    /// regenerated paper datasets the resolve time moved by a quarter and
    /// F1 by 0.08 (one giant component of changing density), which would
    /// measure the generator rather than the program. A new order still
    /// renumbers every record, term and pair, changes every summation
    /// order, and for the stream changes which records are preloaded and
    /// the order the rest arrive in.
    pub fn input(self, seed: u64, scale: f64) -> (Dataset, u64) {
        let base = self.base(scale);
        let hash = fingerprint(&base);
        (permute(base, seed), hash)
    }

    pub fn batch_spec(self) -> Option<BatchSpec> {
        let (max_df_fraction, strategy, f1_floor) = match self {
            Workload::PaperBatch => (0.15, BlockingStrategy::TokenGraph, 0.85),
            Workload::ProductBatch => (0.05, BlockingStrategy::TokenGraph, 0.80),
            Workload::CensusBatch => (0.05, BlockingStrategy::meta_default(), 0.98),
            Workload::CensusStream => return None,
        };
        Some(BatchSpec {
            max_df_fraction,
            strategy,
            f1_floor,
        })
    }

    pub fn stream_spec(self, scale: f64) -> Option<StreamSpec> {
        (self == Workload::CensusStream).then(|| StreamSpec {
            preload: scaled(20_000, scale),
            live: scaled(20_000, scale),
            rate: 1_000.0,
            f1_floor: 0.97,
        })
    }
}

/// `dataset` with its records shuffled (Fisher-Yates over a SplitMix64
/// stream from `seed`) and renumbered densely in their new order.
pub fn permute(dataset: Dataset, seed: u64) -> Dataset {
    let n = dataset.records.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u32 + 1) as usize);
    }
    let mut slots: Vec<Option<Record>> = dataset.records.into_iter().map(Some).collect();
    let records = order
        .iter()
        .enumerate()
        .map(|(id, &old)| Record {
            id: id as u32,
            ..slots[old].take().expect("each record moves once")
        })
        .collect();
    Dataset::new(dataset.name, records, dataset.policy)
}

/// The first `n` records as the program sees them: texts and sources,
/// with every ground-truth entity replaced by the record's own id so no
/// label can reach the resolver.
pub fn hide_labels(dataset: &Dataset, n: usize) -> Dataset {
    let records = dataset.records[..n]
        .iter()
        .map(|r| Record {
            entity: r.id,
            ..r.clone()
        })
        .collect();
    Dataset::new(dataset.name.clone(), records, dataset.policy)
}

/// Ground-truth matching pairs among the first `n` records, under the
/// dataset's candidate policy.
pub fn truth_prefix(dataset: &Dataset, n: usize) -> TruthPairs {
    let n = n as u32;
    TruthPairs::from_pairs(
        dataset
            .matching_pairs()
            .into_iter()
            .filter(|&(a, b)| a < n && b < n),
    )
}

pub fn fingerprint(dataset: &Dataset) -> u64 {
    counts::fingerprint(
        dataset
            .records
            .iter()
            .map(|r| (r.text.as_str(), r.source, r.entity)),
    )
}

/// Fingerprints of the workloads' datasets, one `workload hash` line
/// each (regenerate with `e2e --fingerprints`).
const FINGERPRINTS: &str = include_str!("fingerprints.txt");

/// The stored fingerprint of the workload's dataset.
pub fn expected_fingerprint(workload: Workload) -> Option<u64> {
    FINGERPRINTS.lines().find_map(|line| {
        let (name, hash) = line.split_once(' ')?;
        (name == workload.name())
            .then(|| u64::from_str_radix(hash.trim(), 16).ok())
            .flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("all"), None);
    }

    #[test]
    fn hidden_labels_keep_texts_and_sources() {
        let (d, _) = Workload::ProductBatch.input(3, 0.02);
        let h = hide_labels(&d, d.len());
        assert!(h.matching_pairs().is_empty(), "no label survives");
        assert!(d.texts().eq(h.texts()));
        assert_eq!(d.sources(), h.sources());
    }

    #[test]
    fn the_seed_orders_one_fixed_dataset() {
        let sorted = |d: &Dataset| {
            let mut r: Vec<(String, u8, u32)> = d
                .records
                .iter()
                .map(|r| (r.text.clone(), r.source, r.entity))
                .collect();
            r.sort_unstable();
            r
        };
        for w in Workload::ALL {
            let (a, ha) = w.input(11, 0.01);
            let (b, hb) = w.input(11, 0.01);
            let (c, hc) = w.input(12, 0.01);
            assert!(
                a.texts().eq(b.texts()),
                "{}: same seed, same input",
                w.name()
            );
            assert!(
                !a.texts().eq(c.texts()),
                "{}: another seed reorders",
                w.name()
            );
            assert!(ha == hb && hb == hc, "{}: one dataset", w.name());
            assert_eq!(sorted(&a), sorted(&c), "{}: the same records", w.name());
            assert_eq!(a.matching_pairs().len(), c.matching_pairs().len());
        }
    }

    #[test]
    fn stored_fingerprints_match_the_generators() {
        for w in Workload::ALL {
            let want = expected_fingerprint(w).expect("fingerprint stored");
            assert_eq!(fingerprint(&w.base(1.0)), want, "{}", w.name());
        }
    }
}
