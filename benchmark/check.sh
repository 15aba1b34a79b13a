#!/usr/bin/env bash
# Gate for the benchmark crate itself: format, lints, unit tests, a --quick
# smoke of `run` and `trace`, and agreement between BENCHMARK.json and the
# names the binary emits. Runs offline; exits nonzero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo "==> $*"
    "$@"
}

bench() {
    run cargo run --release --offline --quiet -- "$@"
}

run cargo fmt --check
run cargo clippy --offline --release --all-targets -- -D warnings
run cargo test --offline --release --quiet
bench run --quick
bench trace --quick
# Every workload and metric name of BENCHMARK.json is emitted by `list`
# and the other way round, with the same unit, direction and bound.
bench check-names ../BENCHMARK.json

echo "==> benchmark: all checks passed"
