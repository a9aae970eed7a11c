//! An independent oracle for the corpus layout: a reference model built
//! the plain way — a `HashMap<String, u32>` vocabulary with one owned
//! string per term, one `Vec` per record and per term, and document
//! frequency from a cloned, sorted and deduplicated token list — must
//! agree field by field with both [`CorpusBuilder::build`] and
//! [`StreamingCorpus::materialize`], which share one flat
//! implementation and so cannot check each other.
//!
//! The texts mix upper- and lowercase letters, digits, letters whose
//! lowercase changes byte length (`İ`, two bytes, lowercases to three;
//! `ẞ`, three bytes, to two), non-ASCII whitespace and punctuation,
//! empty, whitespace-only and punctuation-only records, runs of
//! repeated records, and df caps that flip terms between kept and
//! dropped as the corpus grows. The model tokenizes through
//! `normalize` and `split_whitespace`, the two-pass definition the
//! interner's one-pass token walk must reproduce.

use std::collections::HashMap;

use er_text::{normalize, Corpus, CorpusBuilder, StreamingCorpus, TermId};
use proptest::prelude::*;

/// The corpus as a plain-collections model computes it.
#[derive(Debug)]
struct Reference {
    terms: Vec<String>,
    ids: HashMap<String, u32>,
    doc_freq: Vec<u32>,
    tokens: Vec<Vec<u32>>,
    term_sets: Vec<Vec<u32>>,
    postings: Vec<Vec<u32>>,
    removed: Vec<u32>,
}

impl Reference {
    fn new(texts: &[String], max_df_fraction: Option<f64>) -> Self {
        let mut terms: Vec<String> = Vec::new();
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut doc_freq: Vec<u32> = Vec::new();
        let mut tokens: Vec<Vec<u32>> = Vec::new();
        for text in texts {
            let normalized = normalize(text);
            let mut list = Vec::new();
            for tok in normalized.split_whitespace() {
                let id = *ids.entry(tok.to_owned()).or_insert_with(|| {
                    terms.push(tok.to_owned());
                    doc_freq.push(0);
                    (terms.len() - 1) as u32
                });
                list.push(id);
            }
            let mut distinct = list.clone();
            distinct.sort_unstable();
            distinct.dedup();
            for id in distinct {
                doc_freq[id as usize] += 1;
            }
            tokens.push(list);
        }

        let n = texts.len();
        let cap = max_df_fraction.map_or(u32::MAX, |f| ((f * n as f64).floor() as u32).max(2));
        let removed: Vec<u32> = (0..terms.len() as u32)
            .filter(|&t| doc_freq[t as usize] > cap)
            .collect();
        let mut term_sets = Vec::new();
        let mut postings = vec![Vec::new(); terms.len()];
        for (r, list) in tokens.iter_mut().enumerate() {
            list.retain(|&t| doc_freq[t as usize] <= cap);
            let mut set = list.clone();
            set.sort_unstable();
            set.dedup();
            for &t in &set {
                postings[t as usize].push(r as u32);
            }
            term_sets.push(set);
        }
        Self {
            terms,
            ids,
            doc_freq,
            tokens,
            term_sets,
            postings,
            removed,
        }
    }

    /// Strings the vocabulary must not hold: each term with a letter
    /// outside the alphabet appended, each term glued to the next one
    /// (neighbours in the arena), and the non-empty proper prefixes of
    /// each term — unless the model holds them.
    fn absent(&self) -> Vec<String> {
        let mut out = vec![String::new(), "q".to_owned(), "İ".to_owned()];
        for (i, t) in self.terms.iter().enumerate() {
            out.push(format!("{t}q"));
            if let Some(next) = self.terms.get(i + 1) {
                out.push(format!("{t}{next}"));
            }
            out.extend(t.char_indices().skip(1).map(|(at, _)| t[..at].to_owned()));
        }
        out.retain(|s| !self.ids.contains_key(s));
        out
    }
}

fn to_ids(list: &[TermId]) -> Vec<u32> {
    list.iter().map(|&t| t.0).collect()
}

/// Field-by-field agreement of `corpus` with the model.
fn check(corpus: &Corpus, model: &Reference) {
    let vocab = corpus.vocab();
    prop_assert_eq!(corpus.len(), model.tokens.len());
    prop_assert_eq!(corpus.vocab_len(), model.terms.len());
    prop_assert_eq!(vocab.len(), model.terms.len());
    for (i, term) in model.terms.iter().enumerate() {
        let t = TermId(i as u32);
        prop_assert_eq!(vocab.term(t), term.as_str());
        prop_assert_eq!(vocab.doc_freq(t), model.doc_freq[i]);
        prop_assert_eq!(vocab.get(term), Some(t));
        prop_assert_eq!(corpus.postings(t), model.postings[i].as_slice());
        prop_assert_eq!(corpus.filtered_doc_freq(t), model.postings[i].len() as u32);
    }
    for s in model.absent() {
        prop_assert_eq!(vocab.get(&s), None, "{:?} is not a term", s);
    }
    let iter: Vec<(u32, String, u32)> = vocab
        .iter()
        .map(|(t, s, df)| (t.0, s.to_owned(), df))
        .collect();
    let expect: Vec<(u32, String, u32)> = model
        .terms
        .iter()
        .zip(&model.doc_freq)
        .enumerate()
        .map(|(i, (s, &df))| (i as u32, s.clone(), df))
        .collect();
    prop_assert_eq!(iter, expect);
    for r in 0..model.tokens.len() {
        prop_assert_eq!(to_ids(corpus.tokens(r)), model.tokens[r].clone());
        prop_assert_eq!(to_ids(corpus.term_set(r)), model.term_sets[r].clone());
    }
    prop_assert_eq!(to_ids(corpus.removed_terms()), model.removed.clone());
    let multi: Vec<u32> = corpus.terms_with_min_df(2).map(|(t, _)| t.0).collect();
    let expect: Vec<u32> = (0..model.terms.len() as u32)
        .filter(|&t| model.postings[t as usize].len() >= 2)
        .collect();
    prop_assert_eq!(multi, expect);
}

/// Record texts over a small alphabet with `İ` and `ẞ`, so terms repeat
/// and df caps bite; some entries are degenerate records or runs of one
/// text repeated up to 12 times.
fn texts() -> impl Strategy<Value = Vec<String>> {
    let entry = (
        0u8..9,
        "[abAİẞ1]{1,3}( [abcBİẞ]{1,3}){0,5}",
        "[ \t\n\u{a0}\u{3000}]{1,3}",
        "[.,;:!?—、-]{1,4}",
        2usize..=12,
    );
    proptest::collection::vec(entry, 1..24).prop_map(|entries| {
        entries
            .into_iter()
            .flat_map(|(kind, text, blank, punct, run)| match kind {
                0 => vec![String::new()],
                1 => vec![blank],
                2 => vec![punct],
                3 => vec![text; run],
                4 => vec![format!("{punct}{text}{blank}{text}")],
                _ => vec![text],
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_and_materialize_match_the_reference_model(
        texts in texts(),
        df in 0.0f64..1.0,
    ) {
        // No cap, then the drawn cap.
        for cap in [None, Some(df)] {
            let mut builder = CorpusBuilder::new().extend_texts(&texts);
            if let Some(f) = cap {
                builder = builder.max_df_fraction(f);
            }
            check(&builder.build(), &Reference::new(&texts, cap));
        }
        // Every prefix of the stream: the cap max(⌊f·n⌋, 2) moves with
        // n, so terms flip between kept and dropped along the way.
        let mut stream = StreamingCorpus::new();
        for (i, text) in texts.iter().enumerate() {
            prop_assert_eq!(stream.push_record(text), i as u32);
            check(&stream.materialize(df), &Reference::new(&texts[..=i], Some(df)));
        }
    }
}

#[test]
fn lowercase_that_changes_byte_length_is_interned_as_normalized() {
    let texts = [
        "İSTANBUL ẞTRASSE".to_owned(),
        "ßtrasse, İstanbul".to_owned(),
    ];
    let corpus = CorpusBuilder::new().extend_texts(&texts).build();
    let model = Reference::new(&texts, None);
    check(&corpus, &model);
    assert_eq!(corpus.vocab_len(), 2);
    assert_eq!(corpus.vocab().term(TermId(0)), "i\u{307}stanbul");
    assert_eq!(corpus.vocab().term(TermId(1)), "ßtrasse");
    assert_eq!(corpus.postings(TermId(0)), &[0, 1]);
}

#[test]
fn a_one_megabyte_record_with_ten_thousand_distinct_tokens() {
    // 10⁴ distinct terms, each written 14 times in two spellings and
    // padded with punctuation: well over a megabyte in one record.
    let words: Vec<String> = (0..10_000).map(|i| format!("w{i:05}")).collect();
    let mut text = String::new();
    for rep in 0..14 {
        for w in &words {
            if rep % 2 == 0 {
                text.push_str(w);
            } else {
                text.push_str(&w.to_uppercase());
            }
            text.push_str(" ;");
        }
    }
    assert!(text.len() >= 1 << 20, "{} bytes", text.len());
    let texts = [text, "w00000 w09999 other".to_owned()];
    let corpus = CorpusBuilder::new().extend_texts(&texts).build();
    check(&corpus, &Reference::new(&texts, None));
    assert_eq!(corpus.vocab_len(), 10_001);
    assert_eq!(corpus.tokens(0).len(), 140_000);
    assert_eq!(corpus.term_set(0).len(), 10_000);
    assert_eq!(corpus.shared_term_count(0, 1), 2);
}
