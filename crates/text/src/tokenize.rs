//! Tokenization and term interning.
//!
//! Downstream graph algorithms (ITER's bipartite graph, SimRank, the term
//! co-occurrence graph) address terms by dense integer id, so tokenization
//! goes through a [`Vocabulary`] that interns each distinct term string to
//! a [`TermId`] and records corpus statistics (document frequency).

use std::collections::HashMap;

use crate::normalize::normalize_into;

/// Dense identifier of an interned term. Term ids are assigned in first-seen
/// order starting from zero, so they can index plain vectors.
///
/// `repr(transparent)`: `&[TermId]` is layout-compatible with `&[u32]`.
/// Index-based consumers (er-graph) take ids through `u32::from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<TermId> for u32 {
    #[inline]
    fn from(t: TermId) -> Self {
        t.0
    }
}

/// Splits already-normalized text on whitespace.
///
/// Single-character tokens are kept: in the Restaurant-style data, street
/// direction letters ("s", "w") carry signal, and dropping them is left to
/// the frequent-term filter which is driven by data rather than heuristics.
pub fn tokenize(normalized: &str) -> impl Iterator<Item = &str> {
    normalized.split_whitespace()
}

/// Normalizes `raw` and returns its tokens as owned strings.
///
/// Convenience for tests and one-off callers; bulk ingestion should go
/// through [`Vocabulary::intern_record`] which reuses buffers.
pub fn tokenize_normalized(raw: &str) -> Vec<String> {
    let mut buf = String::new();
    normalize_into(raw, &mut buf);
    tokenize(&buf).map(str::to_owned).collect()
}

/// An interning vocabulary mapping term strings to dense [`TermId`]s.
///
/// Tracks, for every term, its **document frequency** (number of records
/// containing it at least once), which drives both the IDF statistics of
/// the TF-IDF baseline and the frequent-term removal of §VII-A.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    by_term: HashMap<String, TermId>,
    terms: Vec<String>,
    doc_freq: Vec<u32>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Interns a single term, returning its id. Does **not** touch document
    /// frequency; use [`Vocabulary::intern_record`] for corpus ingestion.
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.by_term.get(term) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(term.to_owned());
        self.by_term.insert(term.to_owned(), id);
        self.doc_freq.push(0);
        id
    }

    /// Looks up a term without interning.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.by_term.get(term).copied()
    }

    /// Returns the string for `id`. Panics if `id` is out of range.
    pub fn term(&self, id: TermId) -> &str {
        &self.terms[id.index()]
    }

    /// Document frequency of `id`: the number of records passed to
    /// [`Vocabulary::intern_record`] that contained the term.
    pub fn doc_freq(&self, id: TermId) -> u32 {
        self.doc_freq[id.index()]
    }

    /// Tokenizes (raw text → normalize → split) and interns one record.
    ///
    /// Returns the record's **token list** (with duplicates, in order) —
    /// term multiplicity is needed by TF-IDF — and increments document
    /// frequency once per distinct term in the record.
    pub fn intern_record(&mut self, raw_text: &str) -> Vec<TermId> {
        let mut buf = String::new();
        normalize_into(raw_text, &mut buf);
        let mut tokens = Vec::new();
        for tok in tokenize(&buf) {
            tokens.push(self.intern(tok));
        }
        // Count each distinct term once for document frequency.
        let mut distinct: Vec<TermId> = tokens.clone();
        distinct.sort_unstable();
        distinct.dedup();
        for id in distinct {
            self.doc_freq[id.index()] += 1;
        }
        tokens
    }

    /// Iterates over `(TermId, term string, document frequency)`.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str, u32)> {
        self.terms
            .iter()
            .zip(self.doc_freq.iter())
            .enumerate()
            .map(|(i, (t, &df))| (TermId(i as u32), t.as_str(), df))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut v = Vocabulary::new();
        let a = v.intern("sunset");
        let b = v.intern("blvd");
        let a2 = v.intern("sunset");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(v.term(a), "sunset");
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn record_interning_counts_doc_freq_once_per_record() {
        let mut v = Vocabulary::new();
        let toks = v.intern_record("la la land");
        assert_eq!(toks.len(), 3);
        let la = v.get("la").unwrap();
        assert_eq!(v.doc_freq(la), 1, "duplicate within one record counts once");
        v.intern_record("la brea bakery");
        assert_eq!(v.doc_freq(la), 2);
    }

    #[test]
    fn tokenize_splits_on_whitespace_runs() {
        let toks: Vec<&str> = tokenize("a  b   c").collect();
        assert_eq!(toks, vec!["a", "b", "c"]);
    }

    #[test]
    fn tokenize_normalized_end_to_end() {
        assert_eq!(
            tokenize_normalized("Art's Deli, 12224 Ventura Blvd."),
            vec!["art", "s", "deli", "12224", "ventura", "blvd"]
        );
    }

    #[test]
    fn lookup_missing_term() {
        let v = Vocabulary::new();
        assert!(v.get("nothing").is_none());
        assert!(v.is_empty());
    }

    #[test]
    fn iter_yields_all_terms() {
        let mut v = Vocabulary::new();
        v.intern_record("alpha beta");
        v.intern_record("beta gamma");
        let entries: Vec<_> = v.iter().map(|(_, t, df)| (t.to_owned(), df)).collect();
        assert_eq!(
            entries,
            vec![
                ("alpha".to_owned(), 1),
                ("beta".to_owned(), 2),
                ("gamma".to_owned(), 1)
            ]
        );
    }
}
