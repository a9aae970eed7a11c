//! Rule `obs_naming`: every `er-obs` span/counter/gauge name literal is
//! `dotted.snake_case` and unique workspace-wide.
//!
//! The telemetry registry is stringly keyed: `er_obs::span("fusion")`,
//! `er_obs::counter_add("pool.dispatch.parallel", 1)`. Two phases in
//! two crates registering the same name silently merge in every
//! exported report, and a `CamelCase` or `kebab-case` name breaks the
//! Prometheus exposition mapping. Each name must match
//! `seg(.seg)*` where `seg` is `[a-z][a-z0-9_]*`, and a name may only
//! be registered from one file (re-emitting the same name from several
//! code paths *within* a file — e.g. the serial and pooled variants of
//! one phase — is explicitly fine and common).
//!
//! The uniqueness half needs the whole workspace, so the per-file pass
//! collects registrations and [`finish`] reports cross-file clashes
//! against the lexicographically first registering file.

use std::collections::BTreeMap;

use super::{at, code_indices, path_seg};
use crate::lint::lexer::Kind;
use crate::lint::source::SourceModel;
use crate::lint::Violation;

/// `er_obs::<fn>` entry points that register a name.
const EMITTERS: [&str; 5] = ["span", "record_span", "counter_add", "gauge_set", "time"];

/// One name registration, carried to the global uniqueness pass.
#[derive(Debug)]
pub struct Registration {
    pub name: String,
    pub path: String,
    pub line: usize,
    pub text: String,
    /// Already suppressed per-line/file; kept so [`finish`] honors it.
    pub allowed: bool,
}

pub fn check(m: &SourceModel<'_>, out: &mut Vec<Violation>, registrations: &mut Vec<Registration>) {
    // er-obs implements the registry; its internals and doc examples
    // use arbitrary names.
    if m.krate == "obs" {
        return;
    }
    let code = code_indices(m);
    for ci in 0..code.len() {
        if !m.toks[code[ci]].is_ident("er_obs") {
            continue;
        }
        let Some(emitter) = EMITTERS.iter().find(|e| path_seg(m, &code, ci + 1, e)) else {
            continue;
        };
        let open = at(m, &code, ci + 4);
        let lit = at(m, &code, ci + 5);
        let (Some(open), Some(lit)) = (open, lit) else {
            continue;
        };
        if !open.is_punct('(') || lit.kind != Kind::Str || !lit.text.starts_with('"') {
            continue;
        }
        let name = lit.text.trim_matches('"');
        if m.is_gated(lit.line) {
            continue;
        }
        if !well_formed(name) {
            m.report(
                out,
                "obs_naming",
                lit.line,
                format!(
                    "er_obs::{emitter} name `{name}` is not dotted.snake_case \
                     (segments `[a-z][a-z0-9_]*` joined by `.`)"
                ),
            );
        }
        registrations.push(Registration {
            name: name.to_owned(),
            path: m.rel_path.clone(),
            line: lit.line,
            text: m
                .lines
                .get(lit.line - 1)
                .map(|l| l.trim().to_owned())
                .unwrap_or_default(),
            allowed: m.is_allowed("obs_naming", lit.line),
        });
    }
}

/// Cross-file uniqueness: a name registered from more than one file is
/// flagged at every site outside the lexicographically first file, so
/// the report (and the fix) is deterministic.
pub fn finish(registrations: &[Registration]) -> Vec<Violation> {
    let mut by_name: BTreeMap<&str, Vec<&Registration>> = BTreeMap::new();
    for reg in registrations {
        by_name.entry(&reg.name).or_default().push(reg);
    }
    let mut out = Vec::new();
    for (name, regs) in by_name {
        let Some(home) = regs.iter().map(|r| r.path.as_str()).min() else {
            continue;
        };
        for reg in &regs {
            if reg.path != home && !reg.allowed {
                out.push(Violation {
                    rule: "obs_naming",
                    path: reg.path.clone(),
                    line: reg.line,
                    text: reg.text.clone(),
                    message: format!(
                        "er-obs name `{name}` is already registered by {home}; telemetry \
                         names are unique workspace-wide (same-file re-emission is fine) — \
                         pick a distinct name or allow with the shared-phase justification"
                    ),
                });
            }
        }
    }
    out
}

/// `seg(.seg)*`, `seg` = `[a-z][a-z0-9_]*`.
fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            let mut chars = seg.chars();
            chars.next().is_some_and(|c| c.is_ascii_lowercase())
                && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

#[cfg(test)]
mod tests {
    use super::well_formed;

    #[test]
    fn naming_convention() {
        for good in [
            "fusion",
            "pool.dispatch.parallel",
            "cliquerank_full",
            "a.b_c.d2",
        ] {
            assert!(well_formed(good), "{good} should pass");
        }
        for bad in [
            "",
            "Fusion",
            "pool.Dispatch",
            "kebab-case",
            "a..b",
            ".a",
            "a.",
            "2x",
        ] {
            assert!(!well_formed(bad), "{bad} should fail");
        }
    }
}
