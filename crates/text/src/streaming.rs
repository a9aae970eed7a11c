//! Incremental corpus maintenance for the streaming ingest path.
//!
//! [`crate::CorpusBuilder`] is a batch construction: it sees every text
//! up front, computes the frequent-term cap once and emits an immutable
//! [`Corpus`]. A serving engine ingests records one at a time, so this
//! module keeps only what interning must carry across appends — the
//! [`Vocabulary`] (term ids and document frequencies) and each record's
//! unfiltered token list — and **materializes** a `Corpus` on demand.
//! The batch builder interns into this same accumulator.
//!
//! The frequent-term cap is `max(⌊f·n⌋, 2)` and therefore moves with
//! the record count `n`: a term can be filtered at one corpus size and
//! admitted at another. Interning is stable under appends, so the same
//! texts interned in the same order give the same vocabulary and token
//! lists as the batch builder's, and materialization runs the builder's
//! own filter (`Corpus::from_interned`) over them. The result is
//! therefore **identical** to what `CorpusBuilder` would build from the
//! same texts — the property the serving engine's incremental ≡ batch
//! bit-identity guarantee rests on (pinned by the tests below and
//! `tests/prop_streaming.rs`).

use crate::corpus::{validate_max_df_fraction, Corpus, Csr};
use crate::tokenize::{to_u32, TermId, Vocabulary};

/// An append-only corpus accumulator: ingest texts, materialize a
/// filtered [`Corpus`] snapshot whenever a resolve needs one.
///
/// It is flat: the vocabulary keeps every term's bytes in one arena and
/// the token lists are one offsets array plus one value array, so
/// cloning it for [`StreamingCorpus::materialize`] is a handful of
/// `memcpy`s.
#[derive(Debug, Default, Clone)]
pub struct StreamingCorpus {
    pub(crate) vocab: Vocabulary,
    /// Unfiltered token list per record (duplicates, original order).
    pub(crate) tokens: Csr<TermId>,
}

impl StreamingCorpus {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ingested records.
    pub fn len(&self) -> usize {
        self.tokens.rows()
    }

    /// True when nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The interning vocabulary (term ids are stable under appends).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Tokenizes and interns one record, returning its id.
    pub fn push_record(&mut self, text: &str) -> u32 {
        let r = to_u32(self.len());
        self.vocab.intern_record(text, &mut self.tokens.values);
        self.tokens.close_row();
        r
    }

    /// Materializes the filtered [`Corpus`] the batch
    /// [`crate::CorpusBuilder`] would produce from the same texts in the
    /// same order with the same `max_df_fraction` — same vocabulary,
    /// token lists, term sets, postings and removed-term list.
    pub fn materialize(&self, max_df_fraction: f64) -> Corpus {
        if let Err(e) = validate_max_df_fraction(max_df_fraction) {
            panic!("{e}"); // er-lint: allow(panic) -- an out-of-range cap is a caller bug; `validate_max_df_fraction` checks it up front
        }
        let _span = er_obs::span("streaming.materialize");
        Corpus::from_interned(self.clone(), Some(max_df_fraction))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;

    /// Field-by-field equality through the public accessors (Corpus has
    /// no `PartialEq` — this is the definition of "identical" we pin).
    fn assert_same(a: &Corpus, b: &Corpus) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.vocab_len(), b.vocab_len());
        for i in 0..a.vocab_len() {
            let t = TermId(i as u32);
            assert_eq!(a.vocab().term(t), b.vocab().term(t), "term {i}");
            assert_eq!(a.vocab().doc_freq(t), b.vocab().doc_freq(t), "df {i}");
            assert_eq!(a.postings(t), b.postings(t), "postings {i}");
        }
        for r in 0..a.len() {
            assert_eq!(a.tokens(r), b.tokens(r), "tokens {r}");
            assert_eq!(a.term_set(r), b.term_set(r), "term set {r}");
        }
        assert_eq!(a.removed_terms(), b.removed_terms());
    }

    fn texts() -> Vec<&'static str> {
        vec![
            "fenix at the argyle 8358 sunset blvd",
            "fenix 8358 sunset blvd west hollywood",
            "grill on the alley 9560 dayton way",
            "the grill alley 9560 dayton",
            "la la land sunset strip",
        ]
    }

    #[test]
    fn materialize_matches_batch_builder_at_every_prefix() {
        let mut s = StreamingCorpus::new();
        for (i, t) in texts().iter().enumerate() {
            assert_eq!(s.push_record(t), i as u32);
            let batch = CorpusBuilder::new()
                .extend_texts(texts()[..=i].iter().copied())
                .max_df_fraction(0.5)
                .build();
            assert_same(&s.materialize(0.5), &batch);
        }
    }

    #[test]
    fn df_cap_flips_terms_across_sizes() {
        // "the" appears in 3 of the first 4 records: kept while the cap
        // is ≥ 3, dropped when a growing corpus lowers... the fractional
        // cap grows with n, so instead pin the flip with a tight
        // fraction: cap(4 records, f=0.5) = 2 < 3 drops it; at f=0.9,
        // cap = 3 keeps it.
        let mut s = StreamingCorpus::new();
        for t in texts().iter().take(4) {
            s.push_record(t);
        }
        let the = s.vocab().get("the").unwrap();
        let strict = s.materialize(0.5);
        assert!(strict.postings(the).is_empty());
        assert!(strict.removed_terms().contains(&the));
        let loose = s.materialize(0.9);
        assert_eq!(loose.postings(the).len(), 3);
    }

    #[test]
    fn empty_streaming_corpus_materializes_empty() {
        let s = StreamingCorpus::new();
        let c = s.materialize(0.5);
        assert!(c.is_empty());
        assert_eq!(c.vocab_len(), 0);
    }
}
