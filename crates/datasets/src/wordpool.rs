//! Word pools and synthetic word generation.
//!
//! The generators need realistic-looking vocabulary at three frequency
//! tiers — exactly the statistics ITER's term-weight learning keys on:
//!
//! 1. **Discriminative identifiers** unique to one entity: model codes,
//!    phone numbers, street numbers ([`model_code`], [`phone`]).
//! 2. **Mid-frequency content words** shared by a handful of entities:
//!    names, streets, title words ([`synth_word`] over a seeded space).
//! 3. **High-frequency domain words** shared by many entities: cuisines,
//!    product types, venue boilerplate (the static pools below).

use rand::rngs::SmallRng;
use rand::Rng;

/// Street suffixes with their common abbreviations (Restaurant noise).
pub const STREET_SUFFIXES: &[(&str, &str)] = &[
    ("street", "st"),
    ("avenue", "ave"),
    ("boulevard", "blvd"),
    ("road", "rd"),
    ("drive", "dr"),
    ("lane", "ln"),
    ("place", "pl"),
    ("court", "ct"),
];

/// Cities (Restaurant).
pub const CITIES: &[&str] = &[
    "los angeles",
    "new york",
    "west hollywood",
    "santa monica",
    "san francisco",
    "atlanta",
    "brooklyn",
    "pasadena",
    "venice",
    "chicago",
    "studio city",
    "beverly hills",
];

/// Cuisines (Restaurant; high-frequency words).
pub const CUISINES: &[&str] = &[
    "american",
    "italian",
    "french",
    "chinese",
    "japanese",
    "mexican",
    "seafood",
    "steakhouse",
    "californian",
    "continental",
    "cajun",
    "delis",
    "pizza",
    "coffee",
    "bbq",
    "asian",
];

/// Product categories (Product; high-frequency words).
pub const PRODUCT_TYPES: &[&str] = &[
    "turntable",
    "speaker",
    "headphones",
    "receiver",
    "camcorder",
    "camera",
    "television",
    "microwave",
    "refrigerator",
    "washer",
    "dryer",
    "vacuum",
    "telephone",
    "keyboard",
    "monitor",
    "printer",
    "subwoofer",
    "amplifier",
];

/// Marketing filler words (Product descriptions; stop-word tier).
pub const MARKETING: &[&str] = &[
    "black",
    "white",
    "silver",
    "digital",
    "portable",
    "wireless",
    "compact",
    "premium",
    "series",
    "system",
    "home",
    "audio",
    "video",
    "remote",
    "control",
    "energy",
    "deluxe",
    "professional",
    "edition",
    "pack",
];

/// Research-topic words (Paper titles; mid-frequency).
pub const TOPIC_WORDS: &[&str] = &[
    "learning",
    "networks",
    "neural",
    "genetic",
    "algorithms",
    "reinforcement",
    "bayesian",
    "inference",
    "markov",
    "models",
    "classification",
    "clustering",
    "decision",
    "trees",
    "knowledge",
    "reasoning",
    "planning",
    "search",
    "optimization",
    "recognition",
    "speech",
    "vision",
    "language",
    "retrieval",
    "database",
    "parallel",
    "distributed",
    "adaptive",
    "evolutionary",
    "probabilistic",
    "temporal",
    "spatial",
    "hierarchical",
    "induction",
];

/// Publication venues with their abbreviations (Paper noise).
pub const VENUES: &[(&str, &str)] = &[
    (
        "proceedings of the international conference on machine learning",
        "icml",
    ),
    ("advances in neural information processing systems", "nips"),
    (
        "proceedings of the national conference on artificial intelligence",
        "aaai",
    ),
    ("machine learning journal", "mlj"),
    ("artificial intelligence journal", "aij"),
    (
        "international joint conference on artificial intelligence",
        "ijcai",
    ),
    ("conference on computational learning theory", "colt"),
    (
        "ieee transactions on pattern analysis and machine intelligence",
        "tpami",
    ),
];

/// Publisher imprints appended to the fullest citation renderings —
/// boilerplate shared across unrelated records, the raw material of the
/// overlap-metric confusion zone in citation data.
pub const PUBLISHERS: &[&str] = &[
    "morgan kaufmann san mateo",
    "mit press cambridge",
    "springer verlag berlin",
    "acm press new york",
    "ieee computer society press",
    "aaai press menlo park",
];

const CONSONANT_ONSETS: &[&str] = &[
    "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z", "br",
    "ch", "cl", "cr", "dr", "fl", "fr", "gr", "pl", "pr", "sh", "sl", "st", "th", "tr",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ai", "ea", "ia", "io", "ou"];
const CODAS: &[&str] = &["", "", "n", "r", "s", "t", "l", "m", "ck", "nd", "rt", "ng"];

/// Generates a pronounceable synthetic word of `syllables` syllables —
/// the mid-frequency vocabulary source (restaurant names, street names,
/// author surnames, brand names). Seed the RNG to get stable pools.
pub fn synth_word(rng: &mut SmallRng, syllables: usize) -> String {
    let mut w = String::new();
    for _ in 0..syllables.max(1) {
        w.push_str(CONSONANT_ONSETS[rng.random_range(0..CONSONANT_ONSETS.len())]);
        w.push_str(VOWELS[rng.random_range(0..VOWELS.len())]);
        w.push_str(CODAS[rng.random_range(0..CODAS.len())]);
    }
    w
}

/// Generates a pool of `count` distinct synthetic words.
pub fn synth_pool(rng: &mut SmallRng, count: usize, syllables: usize) -> Vec<String> {
    let mut pool = std::collections::BTreeSet::new();
    let mut guard = 0usize;
    while pool.len() < count {
        pool.insert(synth_word(rng, syllables));
        guard += 1;
        assert!(
            guard < count * 1000 + 1000,
            "synthetic word space exhausted for count={count}"
        );
    }
    pool.into_iter().collect()
}

/// Generates an alphanumeric model code like "pslx350h" — discriminative
/// identifiers that appear only in one entity's records.
pub fn model_code(rng: &mut SmallRng) -> String {
    let letters = rng.random_range(2..5usize);
    let mut code = String::new();
    for _ in 0..letters {
        code.push((b'a' + rng.random_range(0..26u8)) as char);
    }
    let digits = rng.random_range(2..5usize);
    for _ in 0..digits {
        code.push((b'0' + rng.random_range(0..10u8)) as char);
    }
    if rng.random_range(0.0..1.0) < 0.5 {
        code.push((b'a' + rng.random_range(0..26u8)) as char);
    }
    code
}

/// Real metro areas concentrate on a handful of area codes, so the first
/// phone group is high-frequency (and gets removed by the frequent-term
/// filter) while exchange and line groups stay discriminative.
const AREA_CODES: &[&str] = &[
    "213", "310", "212", "718", "404", "415", "312", "818", "626", "323",
];

/// Generates a 10-digit phone number rendered with separators
/// ("213 848 6677" after normalization). The area code comes from a
/// small realistic pool; the remaining seven digits are random.
pub fn phone(rng: &mut SmallRng) -> String {
    let mut digits = AREA_CODES[rng.random_range(0..AREA_CODES.len())].to_owned();
    for group in [3usize, 4] {
        digits.push(' ');
        for _ in 0..group {
            digits.push((b'0' + rng.random_range(0..10u8)) as char);
        }
    }
    digits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    #[test]
    fn synth_words_are_lowercase_alpha() {
        let mut r = rng();
        for _ in 0..50 {
            let w = synth_word(&mut r, 2);
            assert!(!w.is_empty());
            assert!(w.chars().all(|c| c.is_ascii_lowercase()), "{w}");
        }
    }

    #[test]
    fn pool_is_distinct_and_sized() {
        let mut r = rng();
        let pool = synth_pool(&mut r, 200, 2);
        assert_eq!(pool.len(), 200);
        let set: std::collections::HashSet<&String> = pool.iter().collect();
        assert_eq!(set.len(), 200);
    }

    #[test]
    fn model_codes_mix_letters_and_digits() {
        let mut r = rng();
        for _ in 0..30 {
            let c = model_code(&mut r);
            assert!(c.chars().any(|ch| ch.is_ascii_digit()), "{c}");
            assert!(c.chars().any(|ch| ch.is_ascii_lowercase()), "{c}");
            assert!(c.len() >= 4, "{c}");
        }
    }

    #[test]
    fn phone_shape() {
        let mut r = rng();
        let p = phone(&mut r);
        let groups: Vec<&str> = p.split(' ').collect();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].len(), 3);
        assert_eq!(groups[2].len(), 4);
    }

    #[test]
    fn deterministic_pools() {
        let mut a = rng();
        let mut b = rng();
        assert_eq!(synth_pool(&mut a, 50, 2), synth_pool(&mut b, 50, 2));
    }

    #[test]
    fn static_pools_nonempty_and_lowercase() {
        for (full, abbr) in STREET_SUFFIXES {
            assert!(full.len() > abbr.len());
        }
        for (full, abbr) in VENUES {
            assert!(!full.is_empty() && !abbr.is_empty());
        }
        assert!(CITIES.len() >= 10);
        assert!(TOPIC_WORDS.len() >= 30);
    }
}
