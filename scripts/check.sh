#!/usr/bin/env bash
# Lint gate: the static-analysis suite (rustfmt, clippy -D warnings,
# no-default-features build, first-party unsafe audit, er-lint domain
# rules — see xtask/src/main.rs and xtask/src/lint/), then the full
# test suite and the e2e benchmark harness's tests. CI runs this exact
# script (.github/workflows/ci.yml), so a clean local run means a clean
# CI run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo xtask analyze"
cargo xtask analyze

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# Vendored crates model external dependencies and keep their own doc
# hygiene; the gate covers first-party crates only.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet \
  --exclude criterion --exclude crossbeam --exclude loom \
  --exclude parking_lot --exclude proptest --exclude rand \
  --exclude serde --exclude serde_derive

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> cargo test -p er-bench --example e2e (benchmark harness tests)"
# `cargo test --workspace` builds examples but runs none of their tests.
cargo test --release -p er-bench --example e2e --quiet

echo "All checks passed."
