//! Bipartite SimRank (§III-A, Eq. 1–2) — the first graph-theoretic
//! baseline.
//!
//! Two records are similar if they contain similar terms; two terms are
//! similar if they are contained in similar records — Jeh & Widom's
//! bipartite SimRank \[23\] applied to the record–term graph.
//!
//! # Pruned evaluation
//!
//! Dense SimRank needs `n² + m²` scores. The baseline only ever
//! thresholds record pairs that could possibly match — pairs sharing at
//! least one term — so we maintain sparse score sets restricted to
//! (a) record pairs with a common term and (b) term pairs co-occurring in
//! at least one record. Scores that would flow through pairs outside
//! these sets are treated as zero; for entity-resolution graphs this
//! prunes exactly the negligible long-range mass (documented deviation
//! from the dense definition, standard in SimRank practice).
//!
//! # CSR-flattened pair universes
//!
//! The recursion used to live in `HashMap<(u32, u32), f64>`s; at paper
//! scale (428 744 candidate pairs) the hash probes in the inner double
//! loop dominated the whole Table II harness. The kernel now builds each
//! pair universe **once** as a sorted slot array with a CSR index
//! ([`PairUniverse`]): first elements index a row-offset table, second
//! elements are binary-searchable within their row, and a symmetric
//! neighbor → pair-slot adjacency lets the inner recursion walk two
//! sorted `u32` slices with a moving cursor instead of hashing every
//! `(i, j)` key. Scores live in flat `f64` arrays double-buffered across
//! iterations inside a reusable [`SimRankScratch`] — the iteration loop
//! performs **zero** heap allocations at steady state (pinned by
//! `tests/zero_alloc_simrank.rs`).
//!
//! Every pair slot's score depends only on the previous buffer
//! (Jacobi-style, like the original), and its neighbor sum runs in the
//! same ascending order the HashMap version used, so the flattened kernel
//! is **bit-identical** to the retained [`mod@reference`] oracle and
//! invariant across worker-pool sizes (pruned contributions are exact
//! `+0.0`s, which cannot perturb a non-negative sum). The
//! `prop_simrank.rs` property tests pin both claims.

use er_pool::WorkerPool;

/// SimRank parameters. The paper sets `C1 = C2 = 0.8` (§VII-C).
#[derive(Debug, Clone, Copy)]
pub struct SimRankConfig {
    /// Decay on the record side (Eq. 1).
    pub c1: f64,
    /// Decay on the term side (Eq. 2).
    pub c2: f64,
    /// Number of iterations of the mutual recursion.
    pub iterations: usize,
}

impl Default for SimRankConfig {
    fn default() -> Self {
        Self {
            c1: 0.8,
            c2: 0.8,
            iterations: 5,
        }
    }
}

/// Minimum pair slots per worker chunk: SimRank slots are heavy (each
/// sums over a neighborhood product), so small chunks are still worth
/// shipping to a worker.
const MIN_CHUNK: usize = 128;

/// A sorted universe of unordered node pairs with a CSR index and a
/// symmetric neighbor → slot adjacency.
///
/// *Slot `s`* holds the pair `(firsts[s], seconds[s])` with
/// `firsts[s] < seconds[s]`; slots are sorted lexicographically, so all
/// pairs with first element `a` form the contiguous row
/// `row_offsets[a]..row_offsets[a + 1]` whose second elements are
/// ascending — [`PairUniverse::slot`] is one offset lookup plus a binary
/// search. The adjacency view stores, for every node, its partners in
/// ascending order together with the slot of each `{node, partner}`
/// pair, which is what lets the SimRank inner loops resolve scores by
/// index arithmetic over contiguous slices.
#[derive(Debug, Clone, Default)]
pub struct PairUniverse {
    n_nodes: usize,
    /// Row offsets by first element; length `n_nodes + 1`.
    row_offsets: Vec<usize>,
    /// Per-slot smaller endpoint (redundant with `row_offsets`, kept so
    /// kernels can address a slot without a row walk).
    firsts: Vec<u32>,
    /// Per-slot larger endpoint; ascending within each row.
    seconds: Vec<u32>,
    /// Symmetric adjacency offsets; length `n_nodes + 1`.
    adj_offsets: Vec<usize>,
    /// Adjacency partners, ascending per node.
    adj_partner: Vec<u32>,
    /// Slot of `{node, partner}` parallel to `adj_partner`.
    adj_slot: Vec<u32>,
}

impl PairUniverse {
    /// Builds the universe from candidate pairs (any order, duplicates
    /// allowed; every pair must satisfy `a < b < n_nodes`).
    pub fn from_pairs(n_nodes: usize, mut pairs: Vec<(u32, u32)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        assert!(
            (pairs.len() as u64) < u64::from(u32::MAX),
            "pair universe exceeds u32 slot space (u32::MAX is the diagonal sentinel)"
        );
        let mut row_offsets = vec![0usize; n_nodes + 1];
        let mut adj_counts = vec![0usize; n_nodes + 1];
        for &(a, b) in &pairs {
            debug_assert!(
                a < b && (b as usize) < n_nodes,
                "pair ({a}, {b}) out of range"
            );
            row_offsets[a as usize + 1] += 1;
            adj_counts[a as usize + 1] += 1;
            adj_counts[b as usize + 1] += 1;
        }
        for i in 0..n_nodes {
            row_offsets[i + 1] += row_offsets[i];
            adj_counts[i + 1] += adj_counts[i];
        }
        let adj_offsets = adj_counts;
        let mut cursor = adj_offsets.clone();
        let mut adj_partner = vec![0u32; 2 * pairs.len()];
        let mut adj_slot = vec![0u32; 2 * pairs.len()];
        let mut firsts = Vec::with_capacity(pairs.len());
        let mut seconds = Vec::with_capacity(pairs.len());
        // Slots are visited in ascending (first, second) order, so each
        // node's partner list fills ascending: partners below the node
        // arrive while their (smaller) first element's row is scanned,
        // partners above it while its own row is.
        for (slot, &(a, b)) in pairs.iter().enumerate() {
            firsts.push(a);
            seconds.push(b);
            for (node, partner) in [(a, b), (b, a)] {
                let at = cursor[node as usize];
                adj_partner[at] = partner;
                adj_slot[at] = slot as u32;
                cursor[node as usize] += 1;
            }
        }
        Self {
            n_nodes,
            row_offsets,
            firsts,
            seconds,
            adj_offsets,
            adj_partner,
            adj_slot,
        }
    }

    /// Number of pair slots.
    pub fn len(&self) -> usize {
        self.firsts.len()
    }

    /// True when the universe tracks no pairs.
    pub fn is_empty(&self) -> bool {
        self.firsts.is_empty()
    }

    /// Size of the node universe.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// The pair stored at `slot`.
    pub fn pair(&self, slot: usize) -> (u32, u32) {
        (self.firsts[slot], self.seconds[slot])
    }

    /// Slot of the unordered pair `{i, j}`, if tracked. The diagonal is
    /// never tracked.
    pub fn slot(&self, i: u32, j: u32) -> Option<usize> {
        if i == j || i as usize >= self.n_nodes || j as usize >= self.n_nodes {
            return None;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let start = self.row_offsets[a as usize];
        let end = self.row_offsets[a as usize + 1];
        self.seconds[start..end]
            .binary_search(&b)
            .ok()
            .map(|k| start + k)
    }

    /// Ascending partners of `node` across all tracked pairs.
    pub fn partners(&self, node: u32) -> &[u32] {
        &self.adj_partner[self.adj_offsets[node as usize]..self.adj_offsets[node as usize + 1]]
    }

    /// Slots of `{node, partner}` parallel to [`PairUniverse::partners`].
    pub fn partner_slots(&self, node: u32) -> &[u32] {
        &self.adj_slot[self.adj_offsets[node as usize]..self.adj_offsets[node as usize + 1]]
    }

    /// Iterates `(a, b)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.firsts
            .iter()
            .copied()
            .zip(self.seconds.iter().copied())
    }
}

/// Marks a diagonal hit (`y == x`, similarity exactly 1) in a
/// `ReplayIndex` source list. Never a valid slot:
/// [`PairUniverse::from_pairs`] rejects universes of `u32::MAX` slots.
const DIAGONAL: u32 = u32::MAX;

/// The frozen per-slot contribution sequence of one side's update rule.
///
/// The pair universes never change across iterations, so the set of
/// neighbor pairs contributing to a slot — and the *order* the reference
/// sums them in — is identical every iteration. This index records that
/// sequence once (`sources[offsets[s]..offsets[s + 1]]` lists, for slot
/// `s`, each contributing slot of the opposite universe in reference
/// order, with [`DIAGONAL`] marking `+1.0` self-similarity hits). The
/// iteration loop then replays it as a straight gather — no searching,
/// no branching on sortedness, just one indexed load per contribution —
/// which is where the kernel's speedup over the `HashMap` oracle comes
/// from: the oracle re-probes every `(x, y)` combination (hits *and*
/// misses) every iteration, the replay touches only the hits.
#[derive(Debug, Clone, Default)]
struct ReplayIndex {
    offsets: Vec<usize>,
    sources: Vec<u32>,
}

impl ReplayIndex {
    fn sources(&self, slot: usize) -> &[u32] {
        &self.sources[self.offsets[slot]..self.offsets[slot + 1]]
    }
}

/// Appends to `sources` the contribution sequence of one slot whose
/// endpoints have neighborhoods `xs` and `ys`: walking `xs` ascending
/// and, per `x`, the ascending `ys` against `x`'s ascending partner list
/// with a two-pointer cursor — exactly the reference oracle's summation
/// order. Untracked `(x, y)` pairs contribute an exact `+0.0` in the
/// oracle and are simply omitted here; `y == x` becomes a [`DIAGONAL`]
/// marker in place.
fn push_sources(pairs: &PairUniverse, xs: &[u32], ys: &[u32], sources: &mut Vec<u32>) {
    for &x in xs {
        let partners = pairs.partners(x);
        let slots = pairs.partner_slots(x);
        let mut k = 0usize;
        for &y in ys {
            if y == x {
                sources.push(DIAGONAL);
                continue;
            }
            while k < partners.len() && partners[k] < y {
                k += 1;
            }
            if k < partners.len() && partners[k] == y {
                sources.push(slots[k]);
            }
        }
    }
}

/// Transient dedup bitset over an `n × n` pair id space, used while
/// collecting candidate pairs (each pair recurs once per shared term).
/// Oversized universes get no bitmap; `insert` then always reports
/// fresh and `PairUniverse::from_pairs`' sort+dedup folds duplicates.
struct SeenPairs {
    n: usize,
    words: Vec<u64>,
}

impl SeenPairs {
    /// Bitmap memory cap, matching [`AdjBits::MAX_WORDS_BYTES`].
    const MAX_BYTES: usize = 256 << 20;

    fn new(n: usize) -> Self {
        let words = n
            .checked_mul(n)
            .map(|sq| sq.div_ceil(64))
            .filter(|&w| w.saturating_mul(8) <= Self::MAX_BYTES)
            .map(|w| vec![0u64; w])
            .unwrap_or_default();
        Self { n, words }
    }

    /// Marks `(a, b)` seen; true exactly on first sight (always true in
    /// the no-bitmap fallback).
    fn insert(&mut self, a: u32, b: u32) -> bool {
        if self.words.is_empty() {
            return true;
        }
        let idx = a as usize * self.n + b as usize;
        let word = &mut self.words[idx >> 6];
        let bit = 1u64 << (idx & 63);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

/// Rank-indexed adjacency bitset of one [`PairUniverse`]: per node `x`,
/// a bitmap of its partners plus a per-word running popcount, so a
/// membership probe is one bit test and, on a hit, the partner-list
/// index (hence the pair's slot) is one masked popcount — no cursor, no
/// comparisons. At the scales the kernel targets (a few thousand nodes
/// per side) the whole structure is L2-resident, which is what makes
/// the replay build's `|xs| · |ys|` probe pass cheap. Built transiently
/// during [`SimRankUniverse::build`] and dropped before it returns.
struct AdjBits {
    /// Words per node row (`ceil(n_nodes / 64)`).
    stride: usize,
    /// `n_nodes · stride` bitmap words, row-major by node.
    words: Vec<u64>,
    /// Per word: number of set bits in the node's earlier words.
    ranks: Vec<u32>,
}

impl AdjBits {
    /// Memory cap (bytes of bitmap) above which the build falls back to
    /// the two-pointer [`push_sources`] walk: 256 MiB covers every node
    /// count up to ~118 k while bounding transient memory.
    const MAX_WORDS_BYTES: usize = 256 << 20;

    fn build(pairs: &PairUniverse, n_nodes: usize) -> Option<Self> {
        let stride = n_nodes.div_ceil(64);
        let bytes = n_nodes.checked_mul(stride)?.checked_mul(8)?;
        if bytes > Self::MAX_WORDS_BYTES {
            return None;
        }
        let mut words = vec![0u64; n_nodes * stride];
        let mut ranks = vec![0u32; n_nodes * stride];
        for x in 0..n_nodes {
            let base = x * stride;
            for &y in pairs.partners(x as u32) {
                words[base + (y as usize >> 6)] |= 1u64 << (y & 63);
            }
            let mut seen = 0u32;
            for w in 0..stride {
                ranks[base + w] = seen;
                seen += words[base + w].count_ones();
            }
        }
        Some(Self {
            stride,
            words,
            ranks,
        })
    }
}

/// Bitset-probing variant of [`push_sources`]: identical emission
/// sequence (ascending `xs`, per `x` ascending `ys`, diagonal inline),
/// but each `(x, y)` probe is a bit test + rank popcount instead of a
/// cursor advance over `x`'s partner list.
fn push_sources_bits(
    pairs: &PairUniverse,
    bits: &AdjBits,
    xs: &[u32],
    ys: &[u32],
    sources: &mut Vec<u32>,
) {
    for &x in xs {
        let slots = pairs.partner_slots(x);
        let base = x as usize * bits.stride;
        let words = &bits.words[base..base + bits.stride];
        let ranks = &bits.ranks[base..base + bits.stride];
        for &y in ys {
            if y == x {
                sources.push(DIAGONAL);
                continue;
            }
            let word = words[y as usize >> 6];
            let bit = 1u64 << (y & 63);
            if word & bit != 0 {
                let idx = ranks[y as usize >> 6] + (word & (bit - 1)).count_ones();
                sources.push(slots[idx as usize]);
            }
        }
    }
}

/// `Σ` of slot `slot`'s recorded contribution sequence against the
/// opposite side's current `scores`. Adds the same values in the same
/// order as the reference oracle's nested loops, so the result is
/// bit-identical.
fn replay_sum(idx: &ReplayIndex, scores: &[f64], slot: usize) -> f64 {
    let mut sum = 0.0;
    for &src in idx.sources(slot) {
        sum += if src == DIAGONAL {
            1.0
        } else {
            scores[src as usize]
        };
    }
    sum
}

/// The frozen inputs of a SimRank run: both pair universes, CSR copies
/// of the postings (term → records) and term lists (record → terms),
/// and the two per-slot `ReplayIndex`es the iteration loop gathers
/// over. Build once, iterate many times.
#[derive(Debug, Clone, Default)]
pub struct SimRankUniverse {
    records: PairUniverse,
    terms: PairUniverse,
    post_offsets: Vec<usize>,
    post_records: Vec<u32>,
    rt_offsets: Vec<usize>,
    rt_terms: Vec<u32>,
    /// Per term-pair slot: contributing record-pair slots (Eq. 2).
    term_replay: ReplayIndex,
    /// Per record-pair slot: contributing term-pair slots (Eq. 1).
    rec_replay: ReplayIndex,
    /// Per term-pair slot: `(|I_a| · |I_b|) as f64`, Eq. 2's normalizer
    /// (constant across iterations, so computed once).
    term_norm: Vec<f64>,
    /// Per record-pair slot: `(|O_a| · |O_b|) as f64`, Eq. 1's normalizer.
    rec_norm: Vec<f64>,
}

impl SimRankUniverse {
    /// Builds the pruned pair universes.
    ///
    /// * `record_terms[r]` — sorted, deduplicated term ids of record `r`
    ///   (`O(ri)` in Eq. 1).
    /// * `n_terms` — size of the term universe.
    /// * `pair_filter` — optional candidate policy (e.g. cross-source
    ///   only); filtered record pairs are not tracked (score 0).
    pub fn build(
        record_terms: &[&[u32]],
        n_terms: usize,
        pair_filter: Option<&dyn Fn(u32, u32) -> bool>,
    ) -> Self {
        let _span = er_obs::span("simrank_universe_build");
        // Postings CSR: term -> ascending records.
        let mut post_offsets = vec![0usize; n_terms + 1];
        for terms in record_terms {
            for &t in *terms {
                post_offsets[t as usize + 1] += 1;
            }
        }
        for i in 0..n_terms {
            post_offsets[i + 1] += post_offsets[i];
        }
        let mut cursor = post_offsets.clone();
        let mut post_records = vec![0u32; post_offsets[n_terms]];
        for (r, terms) in record_terms.iter().enumerate() {
            debug_assert!(
                terms.windows(2).all(|w| w[0] < w[1]),
                "terms must be sorted+dedup"
            );
            for &t in *terms {
                post_records[cursor[t as usize]] = r as u32;
                cursor[t as usize] += 1;
            }
        }
        // Record-terms CSR (a flat copy of the input slices).
        let mut rt_offsets = Vec::with_capacity(record_terms.len() + 1);
        rt_offsets.push(0usize);
        let mut rt_terms = Vec::with_capacity(post_offsets[n_terms]);
        for terms in record_terms {
            rt_terms.extend_from_slice(terms);
            rt_offsets.push(rt_terms.len());
        }

        // Candidate record pairs: share >= 1 term and pass the filter.
        // A pair recurs once per shared term; the seen-bitset keeps each
        // occurrence after the first (and the filter call) off the list,
        // so the sort in `from_pairs` only handles unique pairs.
        let mut rec_seen = SeenPairs::new(record_terms.len());
        let mut rec_pairs: Vec<(u32, u32)> = Vec::new();
        for t in 0..n_terms {
            let recs = &post_records[post_offsets[t]..post_offsets[t + 1]];
            for (i, &a) in recs.iter().enumerate() {
                for &b in &recs[i + 1..] {
                    if !rec_seen.insert(a, b) {
                        continue;
                    }
                    if let Some(f) = pair_filter {
                        if !f(a, b) {
                            continue;
                        }
                    }
                    rec_pairs.push((a, b));
                }
            }
        }
        // Candidate term pairs: co-occur in >= 1 record.
        let mut term_seen = SeenPairs::new(n_terms);
        let mut term_pairs: Vec<(u32, u32)> = Vec::new();
        for terms in record_terms {
            for (i, &a) in terms.iter().enumerate() {
                for &b in &terms[i + 1..] {
                    if term_seen.insert(a, b) {
                        term_pairs.push((a, b));
                    }
                }
            }
        }
        let records = PairUniverse::from_pairs(record_terms.len(), rec_pairs);
        let terms = PairUniverse::from_pairs(n_terms, term_pairs);
        er_obs::gauge_set("simrank_record_pairs", records.len() as f64);
        er_obs::gauge_set("simrank_term_pairs", terms.len() as f64);

        // Record each slot's contribution sequence once; the iteration
        // loop replays it every pass instead of re-searching (the search
        // cost is paid once here instead of once per iteration). The
        // rank-bitset probe is the fast path; outsized universes fall
        // back to the two-pointer walk (same emission sequence).
        let rec_bits = AdjBits::build(&records, record_terms.len());
        let term_bits = AdjBits::build(&terms, n_terms);
        let mut term_replay = ReplayIndex {
            offsets: Vec::with_capacity(terms.len() + 1),
            sources: Vec::new(),
        };
        term_replay.offsets.push(0);
        let mut term_norm = Vec::with_capacity(terms.len());
        for slot in 0..terms.len() {
            let (ta, tb) = terms.pair(slot);
            let ia = &post_records[post_offsets[ta as usize]..post_offsets[ta as usize + 1]];
            let ib = &post_records[post_offsets[tb as usize]..post_offsets[tb as usize + 1]];
            match &rec_bits {
                Some(bits) => push_sources_bits(&records, bits, ia, ib, &mut term_replay.sources),
                None => push_sources(&records, ia, ib, &mut term_replay.sources),
            }
            term_replay.offsets.push(term_replay.sources.len());
            term_norm.push((ia.len() * ib.len()) as f64);
        }
        let mut rec_replay = ReplayIndex {
            offsets: Vec::with_capacity(records.len() + 1),
            sources: Vec::new(),
        };
        rec_replay.offsets.push(0);
        let mut rec_norm = Vec::with_capacity(records.len());
        for slot in 0..records.len() {
            let (ra, rb) = records.pair(slot);
            let oa = &rt_terms[rt_offsets[ra as usize]..rt_offsets[ra as usize + 1]];
            let ob = &rt_terms[rt_offsets[rb as usize]..rt_offsets[rb as usize + 1]];
            match &term_bits {
                Some(bits) => push_sources_bits(&terms, bits, oa, ob, &mut rec_replay.sources),
                None => push_sources(&terms, oa, ob, &mut rec_replay.sources),
            }
            rec_replay.offsets.push(rec_replay.sources.len());
            rec_norm.push((oa.len() * ob.len()) as f64);
        }

        Self {
            records,
            terms,
            post_offsets,
            post_records,
            rt_offsets,
            rt_terms,
            term_replay,
            rec_replay,
            term_norm,
            rec_norm,
        }
    }

    /// The record-pair universe.
    pub fn records(&self) -> &PairUniverse {
        &self.records
    }

    /// The term-pair universe.
    pub fn terms(&self) -> &PairUniverse {
        &self.terms
    }

    /// Ascending postings (records containing term `t`).
    pub fn postings(&self, t: u32) -> &[u32] {
        &self.post_records[self.post_offsets[t as usize]..self.post_offsets[t as usize + 1]]
    }

    /// Ascending term ids of record `r`.
    pub fn record_terms(&self, r: u32) -> &[u32] {
        &self.rt_terms[self.rt_offsets[r as usize]..self.rt_offsets[r as usize + 1]]
    }
}

/// Reusable score buffers for [`simrank_flat`]: the record scores are
/// double-buffered across iterations, the term scores are rewritten in
/// full each iteration before they are read.
///
/// A scratch may be reused across runs on *different* universes — every
/// run re-zeros exactly the slots it owns before iterating, so dirty
/// state from a previous (larger) run cannot leak (pinned by
/// `prop_simrank.rs`). Buffers grow to the high-water mark and are never
/// shrunk, which is what makes repeat runs allocation-free.
#[derive(Debug, Clone, Default)]
pub struct SimRankScratch {
    rec_prev: Vec<f64>,
    rec_next: Vec<f64>,
    terms: Vec<f64>,
}

impl SimRankScratch {
    /// Re-zeros the buffers for a run over `universe` (retaining
    /// capacity).
    fn prepare(&mut self, universe: &SimRankUniverse) {
        for (buf, len) in [
            (&mut self.rec_prev, universe.records.len()),
            (&mut self.rec_next, universe.records.len()),
            (&mut self.terms, universe.terms.len()),
        ] {
            buf.clear();
            buf.resize(len, 0.0);
        }
    }

    /// Record-pair scores of the last run, parallel to
    /// `universe.records()` slots.
    pub fn record_scores(&self) -> &[f64] {
        &self.rec_prev
    }

    /// Term-pair scores of the last run, parallel to `universe.terms()`
    /// slots.
    pub fn term_scores(&self) -> &[f64] {
        &self.terms
    }
}

/// Runs the flattened SimRank recursion over a prebuilt universe,
/// leaving the final scores in `scratch` ([`SimRankScratch::record_scores`]
/// / [`SimRankScratch::term_scores`]).
///
/// Each iteration is parallelized over pair-slot ranges on `pool`; every
/// slot is computed independently from the previous buffer with a serial
/// neighbor sum, so the result is bit-identical at any thread count. On a
/// serial pool the loop touches no allocator at steady state.
pub fn simrank_flat(
    universe: &SimRankUniverse,
    config: &SimRankConfig,
    scratch: &mut SimRankScratch,
    pool: &WorkerPool,
) {
    scratch.prepare(universe);
    // One dispatch decision for the whole run (each slot replays a
    // contribution list, ~8 ops apiece); sub-cutover universes iterate
    // inline with no per-iteration scope bookkeeping.
    let work = (universe.terms.len() + universe.records.len()).saturating_mul(8);
    let pool = pool.dispatch(work).is_parallel().then_some(pool);
    for _ in 0..config.iterations {
        // Terms from the previous record scores (Eq. 2), then records
        // from the fresh term scores (Eq. 1) — Jacobi-style, exactly the
        // reference oracle's order.
        update_slots(&mut scratch.terms, pool, &|slot| {
            term_pair_score(universe, &scratch.rec_prev, slot, config.c2)
        });
        update_slots(&mut scratch.rec_next, pool, &|slot| {
            record_pair_score(universe, &scratch.terms, slot, config.c1)
        });
        std::mem::swap(&mut scratch.rec_prev, &mut scratch.rec_next);
    }
}

/// Fills `out[slot] = score(slot)` for every slot, splitting the slot
/// range into deterministic chunks on `pool`. Chunks write disjoint
/// subslices and each slot's math is serial, so chunking never changes
/// bits. The serial path bypasses the pool entirely (no scope bookkeeping,
/// no allocation).
fn update_slots(out: &mut [f64], pool: Option<&WorkerPool>, score: &(dyn Fn(usize) -> f64 + Sync)) {
    let Some(pool) = pool.filter(|p| !p.is_serial()) else {
        for (slot, v) in out.iter_mut().enumerate() {
            *v = score(slot);
        }
        return;
    };
    let ranges = er_pool::chunk_ranges(out.len(), pool.threads(), MIN_CHUNK);
    // er-lint: allow(dispatch) -- pool param is pre-gated by the once-per-run dispatch decision in the caller
    pool.scope(|s| {
        let mut rest = out;
        for r in ranges {
            let (chunk, tail) = rest.split_at_mut(r.len());
            rest = tail;
            let start = r.start;
            s.submit(move || {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = score(start + k);
                }
            });
        }
    });
}

/// Eq. 2 for term-pair `slot`: `C2 / (|I_a||I_b|) · Σ_{ra ∈ I_a, rb ∈ I_b}
/// s(ra, rb)`, replayed from the prerecorded contribution sequence in
/// ascending `(ra, rb)` order like the oracle. Pruned record pairs
/// contribute an exact `+0.0` and were omitted at build time.
// er-lint: zero-alloc
fn term_pair_score(u: &SimRankUniverse, rec_scores: &[f64], slot: usize, c2: f64) -> f64 {
    let sum = replay_sum(&u.term_replay, rec_scores, slot);
    c2 * sum / u.term_norm[slot]
}

/// Eq. 1 for record-pair `slot`: `C1 / (|O_a||O_b|) · Σ_{ta ∈ O_a, tb ∈ O_b}
/// s(ta, tb)` over the fresh term scores, replayed the same way.
// er-lint: zero-alloc
fn record_pair_score(u: &SimRankUniverse, term_scores: &[f64], slot: usize, c1: f64) -> f64 {
    let sum = replay_sum(&u.rec_replay, term_scores, slot);
    c1 * sum / u.rec_norm[slot]
}

/// Sparse SimRank scores for record pairs and term pairs, in flat
/// slot-indexed form over the run's [`PairUniverse`]s.
#[derive(Debug, Clone)]
pub struct SimRankScores {
    records: PairUniverse,
    terms: PairUniverse,
    record_scores: Vec<f64>,
    term_scores: Vec<f64>,
}

impl SimRankScores {
    /// Record-pair similarity `sb(ri, rj)`; 1 on the diagonal, 0 for
    /// pruned/unconnected pairs.
    pub fn record(&self, i: u32, j: u32) -> f64 {
        if i == j {
            return 1.0;
        }
        self.records
            .slot(i, j)
            .map_or(0.0, |s| self.record_scores[s])
    }

    /// Term-pair similarity `sb(ti, tj)`.
    pub fn term(&self, i: u32, j: u32) -> f64 {
        if i == j {
            return 1.0;
        }
        self.terms.slot(i, j).map_or(0.0, |s| self.term_scores[s])
    }

    /// Number of tracked (non-pruned) record pairs.
    pub fn tracked_record_pairs(&self) -> usize {
        self.record_scores.len()
    }

    /// Iterates tracked record pairs with their scores, in sorted order.
    pub fn record_entries(&self) -> impl Iterator<Item = ((u32, u32), f64)> + '_ {
        self.records.iter().zip(self.record_scores.iter().copied()) // er-lint: allow(unordered_iteration) -- sorted Vec fields; they merely share names with the oracle's HashMaps
    }

    /// Iterates tracked term pairs with their scores, in sorted order.
    pub fn term_entries(&self) -> impl Iterator<Item = ((u32, u32), f64)> + '_ {
        self.terms.iter().zip(self.term_scores.iter().copied()) // er-lint: allow(unordered_iteration) -- sorted Vec fields; they merely share names with the oracle's HashMaps
    }
}

/// Runs pruned bipartite SimRank serially (see [`bipartite_simrank_pooled`]).
pub fn bipartite_simrank(
    record_terms: &[&[u32]],
    n_terms: usize,
    config: &SimRankConfig,
    pair_filter: Option<&dyn Fn(u32, u32) -> bool>,
) -> SimRankScores {
    bipartite_simrank_pooled(
        record_terms,
        n_terms,
        config,
        pair_filter,
        &WorkerPool::new(1),
    )
}

/// Runs pruned bipartite SimRank on the CSR-flattened kernel, iterating
/// on `pool`. Results are bit-identical at any pool size and to the
/// HashMap [`mod@reference`] oracle.
///
/// * `record_terms[r]` — sorted, deduplicated term ids of record `r`.
/// * `n_terms` — size of the term universe.
/// * `pair_filter` — optional candidate policy (e.g. cross-source only);
///   filtered pairs keep score 0.
pub fn bipartite_simrank_pooled(
    record_terms: &[&[u32]],
    n_terms: usize,
    config: &SimRankConfig,
    pair_filter: Option<&dyn Fn(u32, u32) -> bool>,
    pool: &WorkerPool,
) -> SimRankScores {
    let universe = SimRankUniverse::build(record_terms, n_terms, pair_filter);
    let mut scratch = SimRankScratch::default();
    simrank_flat(&universe, config, &mut scratch, pool);
    SimRankScores {
        records: universe.records,
        terms: universe.terms,
        record_scores: scratch.rec_prev,
        term_scores: scratch.terms,
    }
}

pub mod reference {
    //! The original `HashMap`-based mutual recursion, retained verbatim
    //! as the correctness oracle for the CSR-flattened kernel (bit-
    //! identity is test-enforced in `prop_simrank.rs`) and as the
    //! baseline the `simrank` gate of the `smoke` bench times against.
    //! Not a hot path — use [`super::bipartite_simrank`].

    use std::collections::HashMap;

    use super::SimRankConfig;

    /// Scores keyed by normalized `(min, max)` node-id pairs.
    pub type PairScores = HashMap<(u32, u32), f64>;

    /// Runs the HashMap recursion; returns `(record_scores, term_scores)`
    /// keyed by normalized `(min, max)` pairs.
    pub fn bipartite_simrank_reference(
        record_terms: &[&[u32]],
        n_terms: usize,
        config: &SimRankConfig,
        pair_filter: Option<&dyn Fn(u32, u32) -> bool>,
    ) -> (PairScores, PairScores) {
        // Postings: term -> sorted records.
        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); n_terms];
        for (r, terms) in record_terms.iter().enumerate() {
            for &t in *terms {
                postings[t as usize].push(r as u32);
            }
        }

        // Candidate record pairs: share >= 1 term and pass the filter.
        let mut record_scores: HashMap<(u32, u32), f64> = HashMap::new();
        for recs in &postings {
            for (i, &a) in recs.iter().enumerate() {
                for &b in &recs[i + 1..] {
                    if let Some(f) = pair_filter {
                        if !f(a, b) {
                            continue;
                        }
                    }
                    record_scores.entry((a, b)).or_insert(0.0);
                }
            }
        }
        // Candidate term pairs: co-occur in >= 1 record.
        let mut term_scores: HashMap<(u32, u32), f64> = HashMap::new();
        for terms in record_terms {
            for (i, &a) in terms.iter().enumerate() {
                for &b in &terms[i + 1..] {
                    term_scores.entry((a, b)).or_insert(0.0);
                }
            }
        }

        for _ in 0..config.iterations {
            // Update term scores from record scores (Eq. 2), reading the
            // previous record scores (Jacobi-style update).
            let mut new_terms = HashMap::with_capacity(term_scores.len());
            // er-lint: allow(unordered_iteration) -- fills a keyed map; insertion order never escapes the oracle
            for &(ta, tb) in term_scores.keys() {
                let (ia, ib) = (&postings[ta as usize], &postings[tb as usize]);
                if ia.is_empty() || ib.is_empty() {
                    continue;
                }
                let mut sum = 0.0;
                for &ra in ia {
                    for &rb in ib {
                        sum += lookup(&record_scores, ra, rb);
                    }
                }
                let score = config.c2 * sum / (ia.len() * ib.len()) as f64;
                new_terms.insert((ta, tb), score);
            }
            // Update record scores from the *new* term scores (Eq. 1).
            let mut new_records = HashMap::with_capacity(record_scores.len());
            // er-lint: allow(unordered_iteration) -- fills a keyed map; insertion order never escapes the oracle
            for &(ra, rb) in record_scores.keys() {
                let (oa, ob) = (record_terms[ra as usize], record_terms[rb as usize]);
                if oa.is_empty() || ob.is_empty() {
                    continue;
                }
                let mut sum = 0.0;
                for &ta in oa {
                    for &tb in ob {
                        sum += lookup(&new_terms, ta, tb);
                    }
                }
                let score = config.c1 * sum / (oa.len() * ob.len()) as f64;
                new_records.insert((ra, rb), score);
            }
            term_scores = new_terms;
            record_scores = new_records;
        }
        (record_scores, term_scores)
    }

    fn lookup(map: &HashMap<(u32, u32), f64>, i: u32, j: u32) -> f64 {
        if i == j {
            return 1.0;
        }
        let key = if i < j { (i, j) } else { (j, i) };
        map.get(&key).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records 0 and 1 are near-duplicates ({a,b,c} vs {a,b,d});
    /// record 2 is unrelated except sharing one term with 1 ({d,e}).
    fn sample() -> Vec<Vec<u32>> {
        vec![vec![0, 1, 2], vec![0, 1, 3], vec![3, 4]]
    }

    fn run(cfg: &SimRankConfig) -> SimRankScores {
        let data = sample();
        let slices: Vec<&[u32]> = data.iter().map(Vec::as_slice).collect();
        bipartite_simrank(&slices, 5, cfg, None)
    }

    #[test]
    fn duplicates_outscore_unrelated() {
        let s = run(&SimRankConfig::default());
        assert!(
            s.record(0, 1) > s.record(1, 2),
            "{} vs {}",
            s.record(0, 1),
            s.record(1, 2)
        );
        assert_eq!(s.record(0, 2), 0.0, "no shared term → pruned to 0");
    }

    #[test]
    fn diagonal_is_one_and_symmetric() {
        let s = run(&SimRankConfig::default());
        assert_eq!(s.record(1, 1), 1.0);
        assert_eq!(s.term(3, 3), 1.0);
        assert_eq!(s.record(0, 1), s.record(1, 0));
    }

    #[test]
    fn scores_bounded_by_decay() {
        let s = run(&SimRankConfig::default());
        assert!(s.record(0, 1) <= 0.8 + 1e-12, "off-diagonal ≤ C1");
        assert!(s.record(0, 1) > 0.0);
    }

    #[test]
    fn zero_iterations_gives_zero_offdiagonal() {
        let s = run(&SimRankConfig {
            iterations: 0,
            ..Default::default()
        });
        assert_eq!(s.record(0, 1), 0.0);
        assert_eq!(s.record(2, 2), 1.0);
    }

    #[test]
    fn pair_filter_prunes() {
        let data = sample();
        let slices: Vec<&[u32]> = data.iter().map(Vec::as_slice).collect();
        let filter = |a: u32, b: u32| !(a == 0 && b == 1 || a == 1 && b == 0);
        let s = bipartite_simrank(&slices, 5, &SimRankConfig::default(), Some(&filter));
        assert_eq!(s.record(0, 1), 0.0);
        assert!(s.record(1, 2) > 0.0);
    }

    #[test]
    fn identical_records_score_near_c1() {
        let data = [vec![0u32, 1], vec![0, 1]];
        let slices: Vec<&[u32]> = data.iter().map(Vec::as_slice).collect();
        let s = bipartite_simrank(
            &slices,
            2,
            &SimRankConfig {
                iterations: 20,
                ..Default::default()
            },
            None,
        );
        // Identical term sets: score converges toward C1 * avg term sim,
        // strictly positive and the maximum among pairs.
        assert!(s.record(0, 1) > 0.5, "{}", s.record(0, 1));
    }

    #[test]
    fn empty_input() {
        let s = bipartite_simrank(&[], 0, &SimRankConfig::default(), None);
        assert_eq!(s.tracked_record_pairs(), 0);
    }

    #[test]
    fn flat_matches_reference_bitwise() {
        let data = sample();
        let slices: Vec<&[u32]> = data.iter().map(Vec::as_slice).collect();
        let cfg = SimRankConfig::default();
        let flat = bipartite_simrank(&slices, 5, &cfg, None);
        let (rec_ref, term_ref) = reference::bipartite_simrank_reference(&slices, 5, &cfg, None);
        assert_eq!(flat.tracked_record_pairs(), rec_ref.len());
        for (key, score) in flat.record_entries() {
            assert_eq!(score.to_bits(), rec_ref[&key].to_bits(), "record {key:?}");
        }
        for (key, score) in flat.term_entries() {
            assert_eq!(score.to_bits(), term_ref[&key].to_bits(), "term {key:?}");
        }
    }

    #[test]
    fn pooled_matches_serial_bitwise() {
        let data = sample();
        let slices: Vec<&[u32]> = data.iter().map(Vec::as_slice).collect();
        let cfg = SimRankConfig::default();
        let serial = bipartite_simrank(&slices, 5, &cfg, None);
        for threads in [2, 4] {
            let pool = WorkerPool::new(threads);
            let pooled = bipartite_simrank_pooled(&slices, 5, &cfg, None, &pool);
            let a: Vec<u64> = serial.record_entries().map(|(_, s)| s.to_bits()).collect();
            let b: Vec<u64> = pooled.record_entries().map(|(_, s)| s.to_bits()).collect();
            assert_eq!(a, b, "threads={threads}");
        }
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let data = sample();
        let slices: Vec<&[u32]> = data.iter().map(Vec::as_slice).collect();
        let cfg = SimRankConfig::default();
        let pool = WorkerPool::new(1);
        let big = SimRankUniverse::build(&slices, 5, None);
        let mut scratch = SimRankScratch::default();
        simrank_flat(&big, &cfg, &mut scratch, &pool);

        // Re-run a smaller problem on the dirty scratch: must equal a
        // fresh-scratch run bit for bit.
        let small_data = [vec![0u32, 1], vec![0, 1]];
        let small: Vec<&[u32]> = small_data.iter().map(Vec::as_slice).collect();
        let u = SimRankUniverse::build(&small, 2, None);
        simrank_flat(&u, &cfg, &mut scratch, &pool);
        let mut fresh = SimRankScratch::default();
        simrank_flat(&u, &cfg, &mut fresh, &pool);
        assert_eq!(scratch.record_scores(), fresh.record_scores());
        assert_eq!(scratch.term_scores(), fresh.term_scores());
    }

    #[test]
    fn bitset_probe_matches_two_pointer_walk() {
        // LCG-drawn universe large enough for multi-word bitmap rows.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let n_nodes = 200usize;
        let pairs: Vec<(u32, u32)> = (0..600)
            .map(|_| (next() % n_nodes as u32, next() % n_nodes as u32))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        let universe = PairUniverse::from_pairs(n_nodes, pairs);
        let bits = AdjBits::build(&universe, n_nodes).expect("under the memory cap");
        for _ in 0..50 {
            let mut xs: Vec<u32> = (0..8).map(|_| next() % n_nodes as u32).collect();
            xs.sort_unstable();
            xs.dedup();
            let mut ys: Vec<u32> = (0..12).map(|_| next() % n_nodes as u32).collect();
            ys.sort_unstable();
            ys.dedup();
            let mut walked = Vec::new();
            push_sources(&universe, &xs, &ys, &mut walked);
            let mut probed = Vec::new();
            push_sources_bits(&universe, &bits, &xs, &ys, &mut probed);
            assert_eq!(walked, probed);
        }
    }

    #[test]
    fn pair_universe_slot_lookup() {
        let u = PairUniverse::from_pairs(5, vec![(1, 3), (0, 2), (1, 3), (0, 4)]);
        assert_eq!(u.len(), 3, "dedup");
        assert_eq!(u.slot(3, 1), u.slot(1, 3));
        assert!(u.slot(1, 3).is_some());
        assert!(u.slot(2, 2).is_none(), "diagonal untracked");
        assert!(u.slot(0, 1).is_none());
        assert_eq!(u.partners(1), &[3]);
        assert_eq!(u.partners(0), &[2, 4]);
        let pairs: Vec<_> = u.iter().collect();
        assert_eq!(pairs, vec![(0, 2), (0, 4), (1, 3)]);
    }
}
