//! Text normalization applied before tokenization.
//!
//! The paper tokenizes raw record text and works with lowercase terms; the
//! benchmark datasets mix case, punctuation ("st.", "blvd,"), and
//! alphanumeric model codes ("pslx350h"). Normalization must preserve the
//! discriminative alphanumeric codes intact while folding punctuation, so
//! we map any character that is not alphanumeric to a space and lowercase
//! the rest. ASCII fast-path; non-ASCII letters are lowercased via Unicode.

/// Normalizes `input` for tokenization: lowercases and replaces every
/// non-alphanumeric character with a single space.
///
/// ```
/// assert_eq!(er_text::normalize("Sony PSLX350H, Turntable!"), "sony pslx350h  turntable ");
/// ```
pub fn normalize(input: &str) -> String {
    let mut out = String::new();
    normalize_into(input, &mut out);
    out
}

/// Normalizes into a caller-provided buffer, avoiding an allocation when
/// called in a loop over many records.
pub fn normalize_into(input: &str, out: &mut String) {
    out.clear();
    out.reserve(input.len());
    for ch in input.chars() {
        if !push_folded(ch, out) {
            out.push(' ');
        }
    }
}

/// Appends `ch` lowercased to `out` and returns true when it is
/// alphanumeric; returns false, appending nothing, for any other
/// character. No lowercase form contains whitespace.
pub(crate) fn push_folded(ch: char, out: &mut String) -> bool {
    if ch.is_ascii_alphanumeric() {
        out.push(ch.to_ascii_lowercase());
    } else if !ch.is_ascii() && ch.is_alphanumeric() {
        out.extend(ch.to_lowercase());
    } else {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_ascii() {
        assert_eq!(normalize("ABC def"), "abc def");
    }

    #[test]
    fn punctuation_becomes_space() {
        assert_eq!(normalize("a.b,c;d"), "a b c d");
    }

    #[test]
    fn preserves_alphanumeric_codes() {
        assert_eq!(normalize("PSLX350H"), "pslx350h");
        assert_eq!(normalize("TU-1500RD"), "tu 1500rd");
    }

    #[test]
    fn handles_unicode_letters() {
        assert_eq!(normalize("Café"), "café");
        assert_eq!(normalize("ÉLAN"), "élan");
    }

    #[test]
    fn empty_input() {
        assert_eq!(normalize(""), "");
    }

    #[test]
    fn normalize_into_matches_normalize() {
        let mut buf = String::new();
        for s in ["Hello, World!", "a1-B2_c3", "ünïcode TEXT"] {
            normalize_into(s, &mut buf);
            assert_eq!(buf, normalize(s));
        }
    }

    #[test]
    fn digits_survive() {
        assert_eq!(normalize("213/848-6677"), "213 848 6677");
    }
}
