//! A tokenized record corpus with frequent-term filtering and inverted
//! indexes — the data structure every algorithm in the framework consumes.
//!
//! §VII-A of the paper: *"we first tokenize the textual contents and then
//! remove the terms that are very frequent"*. The [`CorpusBuilder`] applies
//! that filter at build time so the bipartite graph, the baselines and the
//! feature extractors all see the same filtered term universe.

use std::time::{Duration, Instant};

use crate::streaming::StreamingCorpus;
use crate::tokenize::{to_u32, TermId, Vocabulary};

/// Rows of `T` stored flat (compressed sparse rows): row `i` is
/// `values[offsets[i]..offsets[i + 1]]`, so a table of `n` rows is two
/// allocations however many rows it has.
#[derive(Debug, Clone)]
pub(crate) struct Csr<T> {
    /// `n + 1` ascending offsets into `values`, starting at 0.
    offsets: Vec<u32>,
    /// Row `0`'s values, then row `1`'s, and so on.
    pub(crate) values: Vec<T>,
}

impl<T: Copy> Default for Csr<T> {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl<T: Copy> Csr<T> {
    fn with_capacity(rows: usize, values: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            offsets,
            values: Vec::with_capacity(values),
        }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `i`.
    pub(crate) fn row(&self, i: usize) -> &[T] {
        &self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Ends the row whose values were appended since the last row ended.
    pub(crate) fn close_row(&mut self) {
        self.offsets.push(to_u32(self.values.len()));
    }

    /// Keeps, in place and in order, the values `keep` accepts, closing
    /// up every row.
    fn retain(&mut self, keep: impl Fn(T) -> bool) {
        let mut kept = 0;
        let mut start = 0;
        for end in &mut self.offsets[1..] {
            for i in start..*end as usize {
                let v = self.values[i];
                if keep(v) {
                    self.values[kept] = v;
                    kept += 1;
                }
            }
            start = *end as usize;
            *end = kept as u32; // kept ≤ the old offset, which fits
        }
        self.values.truncate(kept);
    }
}

/// Immutable tokenized corpus.
///
/// Per record it stores both the **token list** (with duplicates, for term
/// frequency) and the **term set** (sorted, deduplicated, for set-based
/// similarity and the bipartite graph). An inverted index maps every term
/// to the sorted list of records containing it. Each of the three is one
/// flat table (compressed sparse rows: offsets plus values), two
/// allocations rather than one per record or term.
#[derive(Debug, Clone)]
pub struct Corpus {
    vocab: Vocabulary,
    tokens: Csr<TermId>,
    term_sets: Csr<TermId>,
    postings: Csr<u32>,
    removed_terms: Vec<TermId>,
}

impl Corpus {
    /// Applies the frequent-term filter to interned records and indexes
    /// them — the one constructor behind [`CorpusBuilder::build`] and
    /// [`crate::StreamingCorpus::materialize`].
    ///
    /// `interned` holds the vocabulary and each record's raw token list,
    /// with the document frequencies they were interned with. Terms
    /// occurring in more than `max(⌊f·n⌋, 2)` of the `n` records are
    /// removed when a `max_df_fraction` `f` is given; the clamp to 2
    /// keeps tiny corpora from losing every term, since a term must
    /// appear in two records to form any candidate pair.
    pub(crate) fn from_interned(interned: StreamingCorpus, max_df_fraction: Option<f64>) -> Self {
        let StreamingCorpus { vocab, mut tokens } = interned;
        let n = tokens.rows();
        let cap = max_df_fraction.map_or(u32::MAX, |f| ((f * n as f64).floor() as u32).max(2));

        let terms = vocab.len();
        let keep: Vec<bool> = (0..terms)
            .map(|i| vocab.doc_freq(TermId(i as u32)) <= cap)
            .collect();
        let removed_terms: Vec<TermId> = (0..terms)
            .filter(|&i| !keep[i])
            .map(|i| TermId(i as u32))
            .collect();
        tokens.retain(|t| keep[t.index()]);

        // A kept term's postings row holds one entry per record that
        // contains it: its document frequency. So the offsets come first
        // and one pass over the term sets fills every row in record order.
        let mut postings: Csr<u32> = Csr::with_capacity(terms, 0);
        let mut total = 0;
        for (i, &kept) in keep.iter().enumerate() {
            if kept {
                total += vocab.doc_freq(TermId(i as u32)) as usize;
            }
            postings.offsets.push(to_u32(total));
        }
        postings.values = vec![0; total];
        let mut next: Vec<u32> = postings.offsets[..terms].to_vec();
        let mut term_sets = Csr::with_capacity(n, total);
        let mut set = Vec::new();
        for r in 0..n {
            set.clear();
            set.extend_from_slice(tokens.row(r));
            set.sort_unstable();
            set.dedup();
            for &t in &set {
                let slot = &mut next[t.index()];
                postings.values[*slot as usize] = r as u32; // r < n, a checked u32
                *slot += 1;
            }
            term_sets.values.extend_from_slice(&set);
            term_sets.close_row();
        }

        Self {
            vocab,
            tokens,
            term_sets,
            postings,
            removed_terms,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.tokens.rows()
    }

    /// True when the corpus holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct terms in the vocabulary (including filtered ones).
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// The interning vocabulary (term strings and document frequencies).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Token list of record `r` (after frequent-term filtering), with
    /// duplicates and in original order.
    pub fn tokens(&self, r: usize) -> &[TermId] {
        self.tokens.row(r)
    }

    /// Sorted, deduplicated term set of record `r`.
    pub fn term_set(&self, r: usize) -> &[TermId] {
        self.term_sets.row(r)
    }

    /// Sorted record ids containing term `t` (empty for filtered terms).
    pub fn postings(&self, t: TermId) -> &[u32] {
        self.postings.row(t.index())
    }

    /// Terms removed by the frequent-term filter at build time.
    pub fn removed_terms(&self) -> &[TermId] {
        &self.removed_terms
    }

    /// Document frequency of `t` **after** filtering (0 if removed).
    pub fn filtered_doc_freq(&self, t: TermId) -> u32 {
        self.postings(t).len() as u32
    }

    /// Terms shared by records `i` and `j` (sorted merge of the two term
    /// sets — O(|i| + |j|)).
    pub fn shared_terms(&self, i: usize, j: usize) -> Vec<TermId> {
        intersect_sorted(self.term_set(i), self.term_set(j))
    }

    /// Number of terms shared by records `i` and `j` without allocating.
    pub fn shared_term_count(&self, i: usize, j: usize) -> usize {
        count_intersect_sorted(self.term_set(i), self.term_set(j))
    }

    /// Iterates `(TermId, postings)` over terms that survived filtering and
    /// occur in at least `min_records` records.
    pub fn terms_with_min_df(&self, min_records: usize) -> impl Iterator<Item = (TermId, &[u32])> {
        (0..self.vocab_len())
            .map(|i| (TermId(i as u32), self.postings.row(i)))
            .filter(move |(_, recs)| recs.len() >= min_records)
    }
}

/// Intersection of two sorted, deduplicated slices.
pub fn intersect_sorted(a: &[TermId], b: &[TermId]) -> Vec<TermId> {
    let mut out = Vec::new();
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() && ib < b.len() {
        match a[ia].cmp(&b[ib]) {
            std::cmp::Ordering::Less => ia += 1,
            std::cmp::Ordering::Greater => ib += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[ia]);
                ia += 1;
                ib += 1;
            }
        }
    }
    out
}

/// Size of the intersection of two sorted, deduplicated slices.
pub fn count_intersect_sorted(a: &[TermId], b: &[TermId]) -> usize {
    let mut n = 0;
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() && ib < b.len() {
        match a[ia].cmp(&b[ib]) {
            std::cmp::Ordering::Less => ia += 1,
            std::cmp::Ordering::Greater => ib += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                ia += 1;
                ib += 1;
            }
        }
    }
    n
}

/// Checks a frequent-term cap: a fraction of the corpus size in
/// `[0, 1]` (NaN fails). [`CorpusBuilder::max_df_fraction`] and
/// [`crate::StreamingCorpus::materialize`] panic through it, so callers
/// taking the cap from input check it up front.
pub fn validate_max_df_fraction(fraction: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&fraction) {
        Ok(())
    } else {
        Err(format!("max_df_fraction must be in [0, 1], got {fraction}"))
    }
}

/// Builds a [`Corpus`] from raw record texts.
///
/// Texts are interned as they arrive, into the accumulator a
/// [`StreamingCorpus`] keeps, so no text is copied and
/// [`CorpusBuilder::build`] and [`StreamingCorpus::materialize`] finish
/// through the same constructor.
#[derive(Debug, Default)]
pub struct CorpusBuilder {
    interned: StreamingCorpus,
    max_df_fraction: Option<f64>,
    /// Time spent interning while er-obs was recording: the share of the
    /// `corpus.build` span that ran before `build`.
    interning: Duration,
}

impl CorpusBuilder {
    /// Creates a builder with no frequent-term filtering.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one record's raw text.
    pub fn push_text(self, text: impl AsRef<str>) -> Self {
        self.extend_texts([text])
    }

    /// Adds many records' raw texts.
    pub fn extend_texts<I, S>(mut self, texts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let start = er_obs::recording().then(Instant::now);
        for text in texts {
            self.interned.push_record(text.as_ref());
        }
        if let Some(start) = start {
            self.interning += start.elapsed();
        }
        self
    }

    /// Removes terms whose document frequency exceeds `fraction` of the
    /// corpus size (§VII-A's "very frequent" filter). A typical value for
    /// the benchmark datasets is `0.1`.
    pub fn max_df_fraction(mut self, fraction: f64) -> Self {
        if let Err(e) = validate_max_df_fraction(fraction) {
            panic!("{e}"); // er-lint: allow(panic) -- an out-of-range cap is a caller bug; `validate_max_df_fraction` checks it up front
        }
        self.max_df_fraction = Some(fraction);
        self
    }

    /// Filters and indexes the interned records.
    ///
    /// Records one `corpus.build` span (the interning plus this call),
    /// adds the interned tokens to `corpus_tokens_total` and sets
    /// `corpus_terms` to the vocabulary size.
    pub fn build(self) -> Corpus {
        let start = Instant::now();
        let tokens = self.interned.tokens.values.len();
        let corpus = Corpus::from_interned(self.interned, self.max_df_fraction);
        er_obs::record_span("corpus.build", self.interning + start.elapsed());
        er_obs::counter_add("corpus_tokens_total", tokens as u64);
        er_obs::gauge_set("corpus_terms", corpus.vocab_len() as f64);
        corpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Corpus {
        CorpusBuilder::new()
            .push_text("fenix at the argyle 8358 sunset blvd")
            .push_text("fenix 8358 sunset blvd west hollywood")
            .push_text("grill on the alley 9560 dayton way")
            .build()
    }

    #[test]
    fn shared_terms_are_symmetric_and_correct() {
        let c = small_corpus();
        let s01 = c.shared_terms(0, 1);
        let s10 = c.shared_terms(1, 0);
        assert_eq!(s01, s10);
        let names: Vec<&str> = s01.iter().map(|&t| c.vocab().term(t)).collect();
        assert_eq!(names, vec!["fenix", "8358", "sunset", "blvd"]);
        assert_eq!(c.shared_term_count(0, 1), 4);
    }

    #[test]
    fn postings_are_sorted_record_ids() {
        let c = small_corpus();
        let fenix = c.vocab().get("fenix").unwrap();
        assert_eq!(c.postings(fenix), &[0, 1]);
        let the = c.vocab().get("the").unwrap();
        assert_eq!(c.postings(the), &[0, 2]);
    }

    #[test]
    fn frequent_term_filter_drops_common_terms() {
        let c = CorpusBuilder::new()
            .push_text("common alpha")
            .push_text("common beta")
            .push_text("common gamma")
            .push_text("common delta")
            .max_df_fraction(0.5)
            .build();
        let common = c.vocab().get("common").unwrap();
        assert!(
            c.postings(common).is_empty(),
            "filtered term has no postings"
        );
        assert_eq!(c.removed_terms(), &[common]);
        assert!(c.term_set(0).iter().all(|&t| t != common));
        assert_eq!(c.filtered_doc_freq(common), 0);
    }

    #[test]
    fn duplicate_tokens_kept_in_token_list_not_term_set() {
        let c = CorpusBuilder::new().push_text("la la land").build();
        assert_eq!(c.tokens(0).len(), 3);
        assert_eq!(c.term_set(0).len(), 2);
    }

    #[test]
    fn terms_with_min_df_filters() {
        let c = small_corpus();
        let multi: Vec<&str> = c
            .terms_with_min_df(2)
            .map(|(t, _)| c.vocab().term(t))
            .collect();
        assert!(multi.contains(&"fenix"));
        assert!(multi.contains(&"the"));
        assert!(!multi.contains(&"argyle"));
    }

    #[test]
    fn intersect_helpers_edge_cases() {
        assert!(intersect_sorted(&[], &[TermId(1)]).is_empty());
        assert_eq!(count_intersect_sorted(&[TermId(1)], &[TermId(1)]), 1);
        let a = [TermId(1), TermId(3), TermId(5)];
        let b = [TermId(2), TermId(3), TermId(6)];
        assert_eq!(intersect_sorted(&a, &b), vec![TermId(3)]);
    }

    #[test]
    fn empty_corpus() {
        let c = CorpusBuilder::new().build();
        assert!(c.is_empty());
        assert_eq!(c.vocab_len(), 0);
    }
}
