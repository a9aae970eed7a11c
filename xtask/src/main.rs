//! Workspace automation, invoked as `cargo xtask <command>`.
//!
//! * `analyze` — the static-analysis gate: `rustfmt --check`, `clippy -D
//!   warnings` over every target (once over the whole workspace, once
//!   over the default members so the obs-off build is linted too), a
//!   `--no-default-features` build of
//!   every non-bench crate (the `obs` feature must compile out cleanly),
//!   a first-party unsafe audit (no `unsafe` outside `er-pool`; every
//!   `er-pool` unsafe site carries a `// SAFETY:` comment; every
//!   first-party crate opts into the workspace lint wall and denies
//!   `unsafe_code` unless it is the pool), and the `er-lint` domain
//!   rules (see below). The audit walks `src/`, `crates/*/src`,
//!   `crates/*/benches` and `xtask/src` — bench harnesses are
//!   first-party code too.
//! * `lint [--update-baseline] [--summary-out <path>]` — `er-lint`, the
//!   project-invariant rules: no HashMap/HashSet iteration on
//!   deterministic paths, no allocation in `// er-lint: zero-alloc`
//!   kernels, every pooled region under a `pool.dispatch(…)` decision,
//!   no `unwrap()`/`expect(`/`panic!` in library code, and
//!   `dotted.snake_case` unique er-obs names. Pre-existing violations
//!   are grandfathered in `xtask/lint_baseline.json`; new ones fail.
//! * `loom` — model-checks `er-pool` by rebuilding it with
//!   `RUSTFLAGS="--cfg loom"` so its `sync` shim swaps in the vendored
//!   loom scheduler.
//! * `miri [--strict]` — runs the pool tests under Miri when `cargo miri`
//!   is installed; otherwise skips (or fails, with `--strict`, for CI
//!   jobs that must not silently degrade).
//! * `san [--strict]` — AddressSanitizer/ThreadSanitizer over the
//!   er-pool and er-matrix suites on nightly (`-Z sanitizer`); skips
//!   unless a nightly toolchain is installed, like `miri`.
//! * `bench-diff` — the CI bench-regression gate over `er-obs/v1`
//!   `BENCH_*.json` files (see `bench_diff` module docs).
//! * `all` — analyze, loom, and miri in sequence.

#![deny(unsafe_code)]

mod bench_diff;
mod lint;
mod sources;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use sources::{workspace_sources, SourceKind};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strict = args.iter().any(|a| a == "--strict");
    let result = match args.first().map(String::as_str) {
        Some("analyze") => analyze(),
        Some("lint") => lint::cli(&args[1..], &workspace_root()),
        Some("loom") => loom(),
        Some("miri") => miri(strict),
        Some("san") => san(strict),
        Some("bench-diff") => bench_diff::cli(&args[1..]),
        Some("all") => analyze().and_then(|()| loom()).and_then(|()| miri(strict)),
        Some("help" | "--help" | "-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  analyze          rustfmt --check, clippy -D warnings (workspace, then default
                   members with obs off), no-default-features build,
                   first-party unsafe audit, er-lint domain rules
  lint             er-lint only: determinism / zero-alloc / dispatch / panic /
                   obs-naming rules against xtask/lint_baseline.json
                   (--update-baseline regenerates the baseline;
                    --summary-out <path> writes a markdown drift summary)
  loom             model-check er-pool (RUSTFLAGS=\"--cfg loom\")
  miri [--strict]  er-pool tests under Miri; skipped unless cargo-miri is installed
  san [--strict]   er-pool + er-matrix tests under Address/ThreadSanitizer
                   (nightly -Z sanitizer); skipped unless nightly is installed
                   (ER_SAN=address|thread|all selects which, default all)
  bench-diff       compare two er-obs BENCH_*.json files, fail on span regressions
                   (--baseline <path> --current <path> [--tolerance 20%]
                    [--min-seconds 0.05] [--summary-out <path>] [--gate-scaling]);
                   --gate-scaling also fails when any tN/t1 scaling ratio in
                   --current exceeds 1 + tolerance (runs even without a baseline)
  all [--strict]   analyze, then loom, then miri";

fn workspace_root() -> PathBuf {
    // xtask/ sits directly under the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask has a parent directory")
        .to_path_buf()
}

/// Runs a command from the workspace root, failing on non-zero exit.
fn run(mut cmd: Command) -> Result<(), String> {
    let pretty = format!("{cmd:?}").replace('"', "");
    eprintln!("xtask: running {pretty}");
    let status = cmd
        .current_dir(workspace_root())
        .status()
        .map_err(|e| format!("could not spawn `{pretty}`: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("`{pretty}` failed with {status}"))
    }
}

fn cargo(args: &[&str]) -> Command {
    let mut cmd = Command::new("cargo");
    cmd.args(args);
    cmd
}

fn analyze() -> Result<(), String> {
    run(cargo(&["fmt", "--all", "--", "--check"]))?;
    run(cargo(&[
        "clippy",
        "--workspace",
        "--all-targets",
        "--",
        "-D",
        "warnings",
    ]))?;
    // The default members again, without er-bench: its pinned `obs`
    // feature unifies into every crate under `--workspace`, so only this
    // pass lints the build where the er-obs stubs are compiled in.
    run(cargo(&["clippy", "--all-targets", "--", "-D", "warnings"]))?;
    check_no_default_features()?;
    audit_unsafe()?;
    audit_lint_wall()?;
    eprintln!("xtask: running er-lint");
    lint::run(&workspace_root(), false, None)?;
    eprintln!("xtask: analyze passed");
    Ok(())
}

/// The workspace must also build with every default feature off — in
/// particular with `er-obs/enabled` absent, so the telemetry layer's
/// no-op stubs stay compilable. `er-bench` is deliberately excluded: it
/// pins the `obs` feature on its first-party deps, and selecting it
/// would re-unify `enabled` into every crate, defeating the check.
fn check_no_default_features() -> Result<(), String> {
    run(cargo(&[
        "check",
        "--no-default-features",
        "-p",
        "unsupervised-er",
        "-p",
        "er-core",
        "-p",
        "er-pool",
        "-p",
        "er-graph",
        "-p",
        "er-matrix",
        "-p",
        "er-text",
        "-p",
        "er-obs",
    ]))
}

fn loom() -> Result<(), String> {
    let mut cmd = cargo(&["test", "-p", "er-pool", "--test", "loom_pool", "--release"]);
    let mut flags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !flags.split_whitespace().any(|f| f == "--cfg=loom") {
        flags.push_str(" --cfg loom");
    }
    cmd.env("RUSTFLAGS", flags.trim());
    run(cmd)?;
    eprintln!("xtask: loom model checking passed");
    Ok(())
}

fn miri(strict: bool) -> Result<(), String> {
    let available = Command::new("cargo")
        .args(["miri", "--version"])
        .current_dir(workspace_root())
        .output()
        .is_ok_and(|out| out.status.success());
    if !available {
        if strict {
            return Err("cargo-miri is not installed (required by --strict); \
                 install with `rustup +nightly component add miri`"
                .into());
        }
        eprintln!(
            "xtask: cargo-miri is not installed; skipping \
             (install with `rustup +nightly component add miri`, or pass --strict to fail)"
        );
        return Ok(());
    }
    run(cargo(&["miri", "test", "-p", "er-pool"]))?;
    eprintln!("xtask: miri passed");
    Ok(())
}

/// AddressSanitizer / ThreadSanitizer driver over the crates with the
/// concurrency- and aliasing-heavy suites (`er-pool`, `er-matrix`).
///
/// `-Z sanitizer` needs nightly, so like `miri` this skips (or fails
/// under `--strict`) when no nightly toolchain is installed, and it
/// only runs on x86_64/aarch64 Linux, the tier-1 sanitizer targets.
/// ThreadSanitizer additionally wants std itself instrumented
/// (`-Z build-std`), which needs the `rust-src` component; when that
/// is missing only AddressSanitizer runs. `ER_SAN=address|thread|all`
/// narrows the pass (default `all`).
fn san(strict: bool) -> Result<(), String> {
    let host_target = match (std::env::consts::ARCH, std::env::consts::OS) {
        ("x86_64", "linux") => "x86_64-unknown-linux-gnu",
        ("aarch64", "linux") => "aarch64-unknown-linux-gnu",
        (arch, os) => {
            let msg = format!("sanitizers need x86_64/aarch64 Linux (host is {arch}-{os})");
            if strict {
                return Err(msg);
            }
            eprintln!("xtask: {msg}; skipping");
            return Ok(());
        }
    };
    let nightly = Command::new("cargo")
        .args(["+nightly", "--version"])
        .current_dir(workspace_root())
        .output()
        .is_ok_and(|out| out.status.success());
    if !nightly {
        if strict {
            return Err("no nightly toolchain (required by --strict); \
                 install with `rustup toolchain install nightly`"
                .into());
        }
        eprintln!(
            "xtask: no nightly toolchain; skipping sanitizers \
             (install with `rustup toolchain install nightly`, or pass --strict to fail)"
        );
        return Ok(());
    }
    let which = std::env::var("ER_SAN").unwrap_or_else(|_| "all".into());
    let run_address = which == "all" || which == "address";
    let run_thread = which == "all" || which == "thread";
    if run_address {
        san_pass("address", host_target, false)?;
    }
    if run_thread {
        // TSan without an instrumented std reports races inside std's
        // own synchronization; only meaningful with -Z build-std.
        let has_src = Command::new("rustup")
            .args(["+nightly", "component", "list", "--installed"])
            .output()
            .is_ok_and(|out| {
                out.status.success()
                    && String::from_utf8_lossy(&out.stdout)
                        .lines()
                        .any(|l| l.starts_with("rust-src"))
            });
        if has_src {
            san_pass("thread", host_target, true)?;
        } else {
            let msg = "rust-src component missing: ThreadSanitizer needs `-Z build-std` \
                 (install with `rustup +nightly component add rust-src`)";
            if strict && which == "thread" {
                return Err(msg.into());
            }
            eprintln!("xtask: {msg}; skipping TSan");
        }
    }
    eprintln!("xtask: sanitizers passed");
    Ok(())
}

fn san_pass(sanitizer: &str, target: &str, build_std: bool) -> Result<(), String> {
    // --lib --tests: doctests compile through rustdoc, which does not
    // link the sanitizer runtime; the unit/integration suites are the
    // coverage that matters here.
    let mut args = vec![
        "+nightly",
        "test",
        "-p",
        "er-pool",
        "-p",
        "er-matrix",
        "--lib",
        "--tests",
    ];
    if build_std {
        args.extend(["-Z", "build-std"]);
    }
    args.extend(["--target", target]);
    let mut cmd = cargo(&args);
    let mut flags = std::env::var("RUSTFLAGS").unwrap_or_default();
    flags.push_str(&format!(" -Zsanitizer={sanitizer}"));
    cmd.env("RUSTFLAGS", flags.trim());
    // One suite at a time keeps TSan reports attributable.
    cmd.env("RUST_TEST_THREADS", "1");
    run(cmd)?;
    eprintln!("xtask: {sanitizer} sanitizer pass clean");
    Ok(())
}

/// True when a comment- and string-stripped line uses the `unsafe`
/// keyword (`unsafe_code` lint references don't count).
fn line_has_unsafe_code(code: &str) -> bool {
    let mut rest = code;
    while let Some(at) = rest.find("unsafe") {
        let before_ok = at == 0
            || !rest[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[at + "unsafe".len()..];
        let after_ok = !after
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        rest = after;
    }
    false
}

/// The audit's file set: everything first-party that compiles into a
/// build or bench — `src/`, `crates/*/src`, `crates/*/benches`,
/// `xtask/src`. Integration-test dirs are excluded: the counting
/// `GlobalAlloc` in `tests/zero_alloc.rs` legitimately implements an
/// unsafe trait, and tests run under `cargo test`'s own scrutiny.
fn audited_sources() -> Result<Vec<sources::SourceFile>, String> {
    let mut files = workspace_sources(&workspace_root())?;
    files.retain(|f| {
        matches!(
            f.kind,
            SourceKind::Lib | SourceKind::Bin | SourceKind::Bench | SourceKind::Xtask
        )
    });
    Ok(files)
}

/// No `unsafe` outside `er-pool`, and every pool unsafe site is preceded
/// by a `// SAFETY:` comment within its contiguous comment block (clippy's
/// `undocumented_unsafe_blocks` covers blocks; this also covers `unsafe
/// impl`/`unsafe fn`, and keeps the policy enforced even where clippy
/// does not run). Bench harnesses are the one exception to the ban:
/// their counting `GlobalAlloc` evidence allocators legitimately
/// implement an unsafe trait, so Bench-kind files are held to the same
/// SAFETY-comment standard as pool instead.
fn audit_unsafe() -> Result<(), String> {
    let mut errors = Vec::new();
    for file in audited_sources()? {
        let text = std::fs::read_to_string(&file.path)
            .map_err(|e| format!("read {}: {e}", file.path.display()))?;
        let raw: Vec<&str> = text.lines().collect();
        let code = lint::lexer::code_lines(&text);
        for (i, line) in code.iter().enumerate() {
            if !line_has_unsafe_code(line) {
                continue;
            }
            let at = format!("{}:{}", file.rel, i + 1);
            if file.krate != "pool" && file.kind != SourceKind::Bench {
                errors.push(format!(
                    "{at}: `unsafe` outside er-pool (the only crate allowed to use it)"
                ));
                continue;
            }
            // The SAFETY comment lives in the raw text the stripper
            // removed; look it up in the contiguous comment block above.
            let documented = raw[..i]
                .iter()
                .rev()
                .take_while(|l| {
                    let t = l.trim_start();
                    t.starts_with("//") || t.starts_with("#[")
                })
                .any(|l| l.contains("SAFETY:"));
            if !documented && !raw[i].contains("SAFETY:") {
                errors.push(format!(
                    "{at}: unsafe site without a `// SAFETY:` comment directly above it"
                ));
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!("unsafe audit failed:\n  {}", errors.join("\n  ")))
    }
}

/// Every first-party crate inherits `[lints] workspace = true` and its
/// root module denies `unsafe_code` — except er-pool, whose manifest
/// still inherits the lint wall but whose lib.rs may use unsafe (each
/// site is audited above instead).
fn audit_lint_wall() -> Result<(), String> {
    let root = workspace_root();
    let mut errors = Vec::new();
    let mut manifests = vec![root.join("Cargo.toml"), root.join("xtask/Cargo.toml")];
    let mut lib_roots = vec![("unsupervised-er".to_owned(), root.join("src/lib.rs"))];
    let crates = root.join("crates");
    let entries =
        std::fs::read_dir(&crates).map_err(|e| format!("read {}: {e}", crates.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", crates.display()))?;
        if !entry.path().is_dir() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        manifests.push(entry.path().join("Cargo.toml"));
        if name != "pool" {
            lib_roots.push((name, entry.path().join("src/lib.rs")));
        }
    }
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("read {}: {e}", manifest.display()))?;
        if !text.contains("[lints]") {
            errors.push(format!(
                "{}: missing `[lints]\\nworkspace = true` (the workspace lint wall)",
                manifest.display()
            ));
        }
    }
    for (name, lib) in lib_roots {
        let text =
            std::fs::read_to_string(&lib).map_err(|e| format!("read {}: {e}", lib.display()))?;
        if !text.contains("#![deny(unsafe_code)]") {
            errors.push(format!(
                "{}: {name} must carry `#![deny(unsafe_code)]` (only er-pool may use unsafe)",
                lib.display()
            ));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "lint-wall audit failed:\n  {}",
            errors.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn has_unsafe(src: &str) -> Vec<bool> {
        lint::lexer::code_lines(src)
            .iter()
            .map(|l| line_has_unsafe_code(l))
            .collect()
    }

    #[test]
    fn unsafe_detection_ignores_comments_and_lint_names() {
        assert_eq!(has_unsafe("let x = unsafe { *p };"), [true]);
        assert_eq!(has_unsafe("unsafe impl<T: Send> Send for M<T> {}"), [true]);
        assert_eq!(has_unsafe("// unsafe is mentioned here"), [false]);
        assert_eq!(has_unsafe("#![deny(unsafe_code)]"), [false]);
        assert_eq!(has_unsafe("let not_unsafe_thing = 3;"), [false]);
        assert_eq!(has_unsafe("call(); // unsafe in a tail comment"), [false]);
        assert_eq!(has_unsafe("let m = \"mentions unsafe\";"), [false]);
        assert_eq!(has_unsafe("let q = '\"'; let u = unsafe { f() };"), [true]);
        assert_eq!(
            has_unsafe("let s = \"spans\nunsafe lines\";"),
            [false, false]
        );
        assert_eq!(
            has_unsafe("/* unsafe in\nblock comment */ unsafe {}"),
            [false, true]
        );
        // Raw strings could derail a naive tracker into reading the
        // rest of the file as string content.
        assert_eq!(
            has_unsafe("let s = r#\"has \" unsafe\"#;\nunsafe { f() }"),
            [false, true]
        );
    }

    #[test]
    fn audits_cover_benches_and_xtask() {
        let files = audited_sources().unwrap();
        assert!(files.iter().any(|f| f.rel.starts_with("xtask/src/")));
        assert!(files
            .iter()
            .any(|f| f.rel.starts_with("crates/bench/benches/")));
        assert!(!files.iter().any(|f| f.rel.contains("/fixtures/")));
        assert!(!files.iter().any(|f| f.rel.starts_with("vendor/")));
    }

    #[test]
    fn audits_pass_on_this_workspace() {
        audit_unsafe().unwrap();
        audit_lint_wall().unwrap();
    }
}
