//! What every workload run shares: its parameters, its outcome, the
//! metric tables, the query-latency sampler and peak memory.

use std::collections::BTreeMap;
use std::time::Instant;

use unsupervised_er::datasets::Dataset;
use unsupervised_er::eval::TruthPairs;

use crate::stats;
use crate::trace::Tracer;
use crate::workload::{self, Workload};

/// A metric: name, unit and which direction is better.
pub type Metric = (&'static str, &'static str, Better);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every run with tracing off.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s", Lower),
    ("resolve_s", "s", Lower),
    ("freshness_p50_ms", "ms", Lower),
    ("f1", "ratio", Higher),
    ("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics, reported by every run with tracing on.
pub const PER_LAYER: &[Metric] = &[
    ("tokenize.time_s", "s", Lower),
    ("tokenize.records_per_s", "1/s", Higher),
    ("blocking.time_s", "s", Lower),
    ("blocking.candidates", "count", Lower),
    ("blocking.candidates_per_record", "ratio", Lower),
    ("blocking.pair_completeness", "ratio", Higher),
    ("graph.time_s", "s", Lower),
    ("graph.enumerated_pairs", "count", Lower),
    ("graph.pairs", "count", Lower),
    ("graph.pair_yield", "ratio", Higher),
    ("seed.time_s", "s", Lower),
    ("seed.cells", "count", Lower),
    ("seed.gcups", "GCUPS", Higher),
    ("iter.time_s", "s", Lower),
    ("iter.iterations", "count", Lower),
    ("iter.edge_visits_per_s", "1/s", Higher),
    ("cliquerank.time_s", "s", Lower),
    ("cliquerank.record_graph_edges", "count", Lower),
    ("cliquerank.largest_component", "count", Lower),
    ("cliquerank.wedges", "count", Lower),
    ("cliquerank.wedges_per_s", "1/s", Higher),
    ("fusion.other_s", "s", Lower),
    ("serve.freshness_p99_ms", "ms", Lower),
    ("serve.query_p50_us", "us", Lower),
    ("serve.query_p99_us", "us", Lower),
    ("serve.epochs", "count", Higher),
    ("serve.epoch_p50_ms", "ms", Lower),
    ("serve.epoch_max_ms", "ms", Lower),
    ("serve.backlog_max", "count", Lower),
    ("serve.cache_hit_ratio", "ratio", Higher),
    ("serve.signature_reuse_ratio", "ratio", Higher),
    ("trace.coverage", "ratio", Higher),
    ("trace.overhead", "ratio", Lower),
];

/// Lookups per timed query group: one `Instant` pair per group keeps
/// clock overhead out of sub-microsecond lookups.
pub const QUERY_GROUP: u32 = 100;

/// A share of the measured layers below this is flagged (not failed).
pub const COVERAGE_FLOOR: f64 = 0.90;

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every input for the smoke tests; 1.0 otherwise.
    pub scale: f64,
}

/// One run's result.
#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub records: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, and flagged conditions.
    pub notes: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
}

impl Outcome {
    /// `fingerprint` is the hash of the workload's dataset as generated;
    /// a generator change must not silently change the workload.
    pub fn new(workload: Workload, dataset: &Dataset, fingerprint: u64, p: &Params) -> Self {
        let mut out = Self {
            workload,
            records: dataset.len(),
            attempted: 1,
            failed: 0,
            notes: Vec::new(),
            metrics: BTreeMap::new(),
            tracer: Tracer::new(p.trace),
        };
        // The table holds full-scale datasets; shrunken test inputs skip it.
        let want = workload::expected_fingerprint(workload);
        if p.scale == 1.0 && want != Some(fingerprint) {
            out.fail(format!(
                "dataset fingerprint {fingerprint:016x} is not the stored {}",
                want.map_or_else(|| "(none)".to_owned(), |w| format!("{w:016x}"))
            ));
        }
        out
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(why);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The metric table this run must fill.
    pub fn table(trace: bool) -> &'static [Metric] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Checks that exactly the table's metrics were set, each finite.
    pub fn validate(&mut self, trace: bool) {
        let mut want: Vec<&str> = Self::table(trace).iter().map(|m| m.0).collect();
        want.sort_unstable();
        let got: Vec<&str> = self.metrics.keys().copied().collect();
        assert_eq!(got, want, "metric set of {}", self.workload.name());
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(n, v)| format!("{n} = {v}"))
            .collect();
        for b in bad {
            self.fail(format!("non-finite metric {b}"));
        }
    }
}

/// Records the latency of query groups with bounded memory: when the
/// buffer fills, every other sample is dropped and the sampling stride
/// doubles, so the kept samples stay spread evenly over the whole run.
#[derive(Debug)]
pub struct Sampler {
    buf: Vec<u32>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl Sampler {
    /// The buffer is allocated and touched up front, so the sampler's
    /// share of peak memory does not depend on how many queries ran.
    pub fn new(cap: usize) -> Self {
        let mut buf = vec![u32::MAX; cap];
        buf.clear();
        Self {
            buf,
            cap,
            stride: 1,
            seen: 0,
        }
    }

    pub fn push(&mut self, value: u32) {
        let i = self.seen;
        self.seen += 1;
        if !i.is_multiple_of(self.stride) {
            return;
        }
        if self.buf.len() == self.cap {
            let kept = self.buf.len().div_ceil(2);
            for k in 0..kept {
                self.buf[k] = self.buf[2 * k];
            }
            self.buf.truncate(kept);
            self.stride *= 2;
            if !i.is_multiple_of(self.stride) {
                return;
            }
        }
        self.buf.push(value);
    }

    /// Per-query latencies in microseconds, sorted.
    pub fn query_us(&self) -> Vec<f64> {
        let per_query = |ns: u32| f64::from(ns) / f64::from(QUERY_GROUP) / 1e3;
        stats::sorted(&self.buf.iter().map(|&ns| per_query(ns)).collect::<Vec<_>>())
    }
}

/// Default capacity of a [`Sampler`]: 4 MiB of samples.
pub const SAMPLER_CAP: usize = 1 << 20;

/// SplitMix64: a seeded stream for query keys.
#[derive(Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }
}

/// Lookup keys among the first `records` records: half true duplicate
/// pairs (they are candidates, so a lookup finds them), half random
/// distinct pairs (almost never candidates, so a lookup misses).
pub fn query_keys(truth: &TruthPairs, records: usize, seed: u64) -> Vec<(u32, u32)> {
    const KEYS: usize = 1 << 16;
    let mut rng = SplitMix(seed ^ 0x51_u64.rotate_left(56));
    let mut dupes: Vec<(u32, u32)> = truth.iter().collect();
    dupes.sort_unstable();
    let n = records.max(2) as u32;
    (0..KEYS)
        .map(|k| {
            if k % 2 == 0 && !dupes.is_empty() {
                dupes[rng.below(dupes.len() as u32) as usize]
            } else {
                let a = rng.below(n);
                let b = (a + 1 + rng.below(n - 1)) % n;
                (a, b)
            }
        })
        .collect()
}

/// A query client: cycles through its keys, timing each group of
/// [`QUERY_GROUP`] lookups.
#[derive(Debug)]
pub struct Queries<'k> {
    keys: &'k [(u32, u32)],
    next: usize,
    pub sampler: Sampler,
    /// Lookups made.
    pub made: u64,
    /// Lookups that returned a probability outside [0, 1].
    pub invalid: u64,
}

impl<'k> Queries<'k> {
    pub fn new(keys: &'k [(u32, u32)]) -> Self {
        Self {
            keys,
            next: 0,
            sampler: Sampler::new(SAMPLER_CAP),
            made: 0,
            invalid: 0,
        }
    }

    /// One timed group of lookups.
    pub fn group(&mut self, lookup: &mut impl FnMut(u32, u32) -> Option<f64>) {
        let mut invalid = 0u64;
        let t = Instant::now();
        for _ in 0..QUERY_GROUP {
            let (a, b) = self.keys[self.next];
            self.next = (self.next + 1) % self.keys.len();
            let p = std::hint::black_box(lookup(a, b));
            invalid += u64::from(p.is_some_and(|p| !(0.0..=1.0).contains(&p)));
        }
        let ns = t.elapsed().as_nanos();
        self.sampler.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.made += u64::from(QUERY_GROUP);
        self.invalid += invalid;
    }

    /// Groups back to back until `until`.
    pub fn run_until(&mut self, until: Instant, lookup: &mut impl FnMut(u32, u32) -> Option<f64>) {
        while Instant::now() < until {
            self.group(lookup);
        }
    }

    /// Counts the lookups and, with tracing on, sets the lookup latency
    /// metrics.
    pub fn report(&self, out: &mut Outcome, trace: bool) {
        out.attempted += self.made;
        if self.invalid > 0 {
            out.failed += self.invalid;
            out.notes.push(format!(
                "{} lookups returned a probability outside [0, 1]",
                self.invalid
            ));
        }
        if trace {
            let us = self.sampler.query_us();
            set_percentile(out, "serve.query_p50_us", &us, 0.50);
            set_percentile(out, "serve.query_p99_us", &us, 0.99);
        }
    }
}

/// Sets `name` to the `p`-quantile of `sorted`; a percentile the samples
/// cannot support fails the run.
pub fn set_percentile(out: &mut Outcome, name: &'static str, sorted: &[f64], p: f64) {
    let v = stats::percentile(sorted, p);
    if v.is_none() {
        out.fail(format!(
            "{name}: {} samples cannot support it",
            sorted.len()
        ));
    }
    out.set(name, v.unwrap_or(f64::NAN));
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// `trace.coverage` is the share of a resolve's wall time that measured
/// layers explain; the rest is remainder layers (graph build, fusion
/// bookkeeping). Low coverage is flagged, not failed.
pub fn set_trace_metrics(out: &mut Outcome, coverage: f64, overhead: f64) {
    out.set("trace.coverage", coverage);
    if coverage < COVERAGE_FLOOR {
        out.notes.push(format!(
            "trace coverage {coverage:.2} is below {COVERAGE_FLOOR}"
        ));
    }
    out.set("trace.overhead", overhead);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_keeps_an_even_spread_in_bounded_memory() {
        let mut s = Sampler::new(8);
        for v in 0..100u32 {
            s.push(v);
        }
        // Stride grew to 16: samples 0, 16, 32, ... 96.
        assert_eq!(s.buf, vec![0, 16, 32, 48, 64, 80, 96]);
        assert!(s.buf.len() <= 8);
    }

    #[test]
    fn query_keys_are_distinct_record_pairs_in_range() {
        let truth = TruthPairs::from_pairs([(0, 5), (2, 9)]);
        let keys = query_keys(&truth, 10, 1);
        assert!(keys.iter().all(|&(a, b)| a != b && a < 10 && b < 10));
        assert!(keys.contains(&(0, 5)) && keys.contains(&(2, 9)));
    }
}
