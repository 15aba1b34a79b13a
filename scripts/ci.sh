#!/usr/bin/env bash
# Hermetic CI gate: format, lint (clippy), build and test the whole
# workspace with the network forbidden.
# Exits nonzero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# The two line counts every CHANGES entry carries: crate sources and
# crate tests.
echo "==> loc: crates src $(find crates -path '*/src/*' -name '*.rs' | xargs cat | wc -l)," \
    "crates tests $(find crates -path '*/tests/*' -name '*.rs' | xargs cat | wc -l)"
run cargo fmt --all --check
run cargo clippy --offline --workspace --all-targets -- -D warnings
run cargo build --release --offline --workspace --bins
run env RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
run cargo test -q --offline --workspace
run cargo run -q --offline --release -p masc-conform -- --budget 30 --seed 4
# Serve protocol smoke: pipe a miss, a hit, and a shutdown through the
# real binary and check the wire answers; then a panicking job on three
# workers, closed by end of input instead of SHUTDOWN.
run scripts/serve_smoke.sh
# The driver's frozen harness: build it against this tree and run its own
# gate (fmt, clippy, unit tests, bitwise-verified --quick run + trace on
# all seven workloads, BENCHMARK.json name check), so a PR that removes a
# public item the harness imports fails here, not after merge.
run benchmark/check.sh

echo "==> ci: all checks passed"
