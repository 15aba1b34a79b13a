#!/usr/bin/env bash
# Regenerates every paper table/figure and stores the outputs under
# results/. Dataset generation is cached in $TMPDIR/masc-dataset-cache, so
# re-runs are fast. Expect about 3.5 minutes cold on a 2-vCPU box, release
# build included; table3 is a minute of it. At --scale 1.0 table3 currently
# aborts: its largest value streams exceed the decode-size caps of the
# rle, rANS and fpzip-like decoders in crates/codec and crates/baselines.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results
cargo build --release -p masc-bench --bins

run() {
  local name="$1"; shift
  echo "=== $name $* ==="
  ./target/release/"$name" "$@" | tee "results/$name.txt"
}

run table1 --scale 0.35
run table2 --scale 1.0
run table3 --scale 1.0
run fig1
run fig5 --scale 1.0
run fig6 --scale 1.0
run fig7
run ablation --scale 1.0
echo "all experiment outputs written to results/"
