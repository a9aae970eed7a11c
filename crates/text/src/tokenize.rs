//! Tokenization and term interning.
//!
//! Downstream graph algorithms (ITER's bipartite graph, SimRank, the term
//! co-occurrence graph) address terms by dense integer id, so tokenization
//! goes through a [`Vocabulary`] that interns each distinct term string to
//! a [`TermId`] and records corpus statistics (document frequency).

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use crate::normalize::push_folded;

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
    let mut tokens = Vec::new();
    for_each_token(raw, &mut String::new(), |t| tokens.push(t.to_owned()));
    tokens
}

/// Calls `f` with each token of `raw` in order: exactly the tokens of
/// `tokenize(&normalize(raw))`, without writing out the normalized text.
/// [`crate::normalize()`] maps every character that is not alphanumeric
/// to a space and lowercases the rest, and no lowercase form contains
/// whitespace, so a token is a maximal run of alphanumeric characters,
/// lowercased the same way.
fn for_each_token(raw: &str, token: &mut String, mut f: impl FnMut(&str)) {
    token.clear();
    for ch in raw.chars() {
        if !push_folded(ch, token) && !token.is_empty() {
            f(token);
            token.clear();
        }
    }
    if !token.is_empty() {
        f(token);
    }
}

/// Marks a free slot of the id table.
const EMPTY: u32 = u32::MAX;

/// Converts a count or offset the corpus stores as `u32`: term ids,
/// vocabulary arena offsets, record ids and the offsets of the corpus's
/// flat rows.
///
/// The limit is `u32::MAX − 1` (`u32::MAX` marks a free slot of the id
/// table): at most that many bytes of distinct term text (4 GiB), of
/// records, and of tokens, term-set entries or postings in one corpus.
/// Every distinct term but the empty one takes at least one arena byte,
/// so the arena limit is reached long before the id limit.
pub(crate) fn to_u32(n: usize) -> u32 {
    match u32::try_from(n) {
        Ok(v) if v != EMPTY => v,
        // er-lint: allow(panic) -- the documented u32 limit; a corpus past it cannot be indexed
        _ => panic!("corpus exceeds its u32 limit: {n} terms, arena bytes, records or row entries"),
    }
}

/// A term's document frequency and the stamp of the last record that
/// counted it.
#[derive(Debug, Default, Clone, Copy)]
struct DocFreq {
    count: u32,
    last_record: u32,
}

/// An interning vocabulary mapping term strings to dense [`TermId`]s.
///
/// Tracks, for every term, its **document frequency** (number of records
/// containing it at least once), which drives both the IDF statistics of
/// the TF-IDF baseline and the frequent-term removal of §VII-A.
///
/// Each term's bytes are stored once, in one arena string in id order.
/// Lookups go through an open-addressing table of `u32` ids hashed with
/// std's keyed [`RandomState`], so an adversarial text cannot flood it
/// any more than it could a `HashMap`; ids come from the arena order,
/// never from the table, so they do not depend on the keys.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    /// Every term's bytes, back to back in id order.
    arena: String,
    /// `ends[i]`: the arena offset one past term `i`.
    ends: Vec<u32>,
    /// `doc_freq[i]`: term `i`'s document frequency, beside the stamp of
    /// the last record that counted it (0: none yet), so interning a
    /// token touches one entry.
    doc_freq: Vec<DocFreq>,
    /// Records interned so far; the latest one's stamp.
    records: u32,
    /// Linear-probing table of ids ([`EMPTY`] marks a free slot): empty
    /// or a power of two long, and at most half full.
    slots: Vec<u32>,
    hasher: RandomState,
    /// The token being interned, lowercased.
    token: String,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Interns a single term, returning its id. Does **not** touch document
    /// frequency; use [`Vocabulary::intern_record`] for corpus ingestion.
    pub fn intern(&mut self, term: &str) -> TermId {
        let mut found = self.find(term);
        if found.is_err() && 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
            found = self.find(term);
        }
        match found {
            Ok(id) => id,
            Err(slot) => {
                let id = to_u32(self.len());
                self.arena.push_str(term);
                self.ends.push(to_u32(self.arena.len()));
                self.doc_freq.push(DocFreq::default());
                self.slots[slot] = id;
                TermId(id)
            }
        }
    }

    /// Looks up a term without interning.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.find(term).ok()
    }

    /// Returns the string for `id`. Panics if `id` is out of range.
    pub fn term(&self, id: TermId) -> &str {
        let i = id.index();
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.arena[start..self.ends[i] as usize]
    }

    /// Document frequency of `id`: the number of records passed to
    /// [`Vocabulary::intern_record`] that contained the term.
    pub fn doc_freq(&self, id: TermId) -> u32 {
        self.doc_freq[id.index()].count
    }

    /// Tokenizes (raw text → normalize → split) and interns one record,
    /// appending its **token list** (with duplicates, in order) to
    /// `tokens` — term multiplicity is needed by TF-IDF — and increments
    /// document frequency once per distinct term in the record.
    ///
    /// Once the vocabulary holds the record's terms and its token buffer
    /// has grown to the record's longest token, a call allocates only
    /// when `tokens` runs out of capacity.
    pub fn intern_record(&mut self, raw_text: &str, tokens: &mut Vec<TermId>) {
        self.records = to_u32(self.records as usize + 1);
        let stamp = self.records;
        let mut token = std::mem::take(&mut self.token);
        for_each_token(raw_text, &mut token, |tok| {
            let id = self.intern(tok);
            tokens.push(id);
            let df = &mut self.doc_freq[id.index()];
            if df.last_record != stamp {
                df.last_record = stamp;
                df.count += 1;
            }
        });
        self.token = token;
    }

    /// Iterates over `(TermId, term string, document frequency)`.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str, u32)> {
        self.doc_freq.iter().enumerate().map(|(i, df)| {
            let id = TermId(i as u32);
            (id, self.term(id), df.count)
        })
    }

    /// The id of `term`, or the free slot where it belongs (slot 0 of
    /// a table not yet grown, which [`Vocabulary::intern`] grows first).
    fn find(&self, term: &str) -> Result<TermId, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(term) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                id if self.term(TermId(id)) == term => return Ok(TermId(id)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Doubles the id table (16 slots at first) and re-inserts every id.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        let mask = len - 1;
        let mut slots = vec![EMPTY; len];
        for id in 0..self.len() {
            let mut slot = self.hasher.hash_one(self.term(TermId(id as u32))) as usize & mask;
            while slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            slots[slot] = id as u32;
        }
        self.slots = slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize_into;

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
        let mut toks = Vec::new();
        v.intern_record("la la land", &mut toks);
        assert_eq!(toks.len(), 3);
        let la = v.get("la").unwrap();
        assert_eq!(v.doc_freq(la), 1, "duplicate within one record counts once");
        v.intern_record("la brea bakery", &mut toks);
        assert_eq!(v.doc_freq(la), 2);
        assert_eq!(toks.len(), 6, "token lists append");
        assert_eq!(&toks[3..], &[la, TermId(2), TermId(3)]);
    }

    /// Terms `t0`, `t1`, … whose home slot in a `slots`-long table is
    /// `home`, under `v`'s hash keys.
    fn homed_at(v: &Vocabulary, slots: usize, home: usize, count: usize) -> Vec<String> {
        (0..)
            .map(|i| format!("t{i}"))
            .filter(|t| v.hasher.hash_one(t.as_str()) as usize & (slots - 1) == home)
            .take(count)
            .collect()
    }

    /// Every term maps to its id and back, every id sits in the table
    /// once, and the table is a power of two at most half full.
    fn assert_table_consistent(v: &Vocabulary, terms: &[String]) {
        assert_eq!(v.len(), terms.len());
        assert!(v.slots.len().is_power_of_two() && 2 * v.len() <= v.slots.len());
        for (i, t) in terms.iter().enumerate() {
            assert_eq!(v.get(t), Some(TermId(i as u32)), "{t}");
            assert_eq!(v.term(TermId(i as u32)), t);
        }
        let mut seen: Vec<u32> = v.slots.iter().copied().filter(|&id| id != EMPTY).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..terms.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn collision_chain_wraps_around_the_table_end() {
        // Seven terms homed at slot 14 of the first, 16-slot table fill
        // 14, 15 and wrap to 0–4; misses homed there probe the chain.
        let mut v = Vocabulary::new();
        v.intern("seed");
        assert_eq!(v.slots.len(), 16);
        let chain = homed_at(&v, 16, 14, 10);
        let mut terms = vec!["seed".to_owned()];
        for t in &chain[..6] {
            assert_eq!(v.intern(t), TermId(terms.len() as u32));
            terms.push(t.clone());
        }
        assert_eq!(v.slots.len(), 16, "7 of 16 slots: no growth yet");
        assert_table_consistent(&v, &terms);
        let displaced = (0..16)
            .filter(|&slot| {
                let id = v.slots[slot];
                id != EMPTY && v.hasher.hash_one(v.term(TermId(id))) as usize & 15 != slot
            })
            .count();
        assert!(displaced >= 5, "a chain of 6 homed terms displaces 5");
        for miss in &chain[6..] {
            assert_eq!(v.get(miss), None);
        }
        // Interning a hit never grows the table, even at the threshold.
        v.intern(&chain[6]);
        terms.push(chain[6].clone());
        assert_eq!(v.slots.len(), 16);
        assert_eq!(v.intern(&chain[0]), TermId(1));
        assert_eq!(v.slots.len(), 16);
        v.intern(&chain[7]);
        terms.push(chain[7].clone());
        assert_eq!(v.slots.len(), 32, "the 9th term grows the table");
        assert_table_consistent(&v, &terms);
    }

    #[test]
    fn id_table_survives_many_growths() {
        let mut v = Vocabulary::new();
        let mut terms = Vec::new();
        let mut sizes = vec![0];
        for i in 0..5_000 {
            let t = format!("{}{i}", ["x", "ü", "ẞ", ""][i % 4]);
            assert_eq!(v.intern(&t), TermId(i as u32));
            terms.push(t);
            if *sizes.last().unwrap() != v.slots.len() {
                sizes.push(v.slots.len());
                assert_table_consistent(&v, &terms);
            }
        }
        assert_eq!(
            sizes,
            [0, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384]
        );
        assert_table_consistent(&v, &terms);
        assert_eq!(v.get("x5000"), None);
        assert_eq!(v.arena.len(), terms.iter().map(String::len).sum::<usize>());
    }

    #[test]
    #[should_panic(expected = "corpus exceeds its u32 limit")]
    fn u32_limit_is_a_named_panic() {
        to_u32(u32::MAX as usize + 1);
    }

    #[test]
    #[should_panic(expected = "corpus exceeds its u32 limit")]
    fn the_empty_slot_marker_is_past_the_limit() {
        to_u32(u32::MAX as usize);
    }

    #[test]
    fn token_walk_matches_normalize_then_split_for_every_char() {
        // Every Unicode scalar value at both ends, between letters, doubled.
        let (mut text, mut normalized, mut token) = (String::new(), String::new(), String::new());
        let (mut walked, mut split) = (String::new(), String::new());
        for c in (0..=char::MAX as u32).filter_map(char::from_u32) {
            text.clear();
            text.extend([c, 'a', c, c, 'Z', c]);
            walked.clear();
            for_each_token(&text, &mut token, |t| {
                walked.push_str(t);
                walked.push('|');
            });
            normalize_into(&text, &mut normalized);
            split.clear();
            for t in tokenize(&normalized) {
                split.push_str(t);
                split.push('|');
            }
            assert_eq!(walked, split, "U+{:04X}", c as u32);
        }
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
        let mut toks = Vec::new();
        v.intern_record("alpha beta", &mut toks);
        v.intern_record("beta gamma", &mut toks);
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
