#!/usr/bin/env bash
# Appends one row to the benchmark trajectory.
#
# Runs the frozen harness in its one-workload form
# (`--workload W --seed N --seconds S --trace 0`) on all seven workloads
# of BENCHMARK.json and appends one JSON line to
# results/benchmark_history.jsonl: the commit, the core count, the seed
# and, per workload, solve_s, peak_rss_mb, compress_ratio, the number
# of failed jobs and the harness's exact-repeat counts ("counts": name →
# count, `null` when the run printed none). Rows are only ever appended,
# so the file is the
# trajectory the numbers took from commit to commit.
#
# Each row also records "loadavg": [start, end], the 1-minute load
# average from /proc/loadavg when the script starts and after the last
# workload (each `null` where the file is missing), so a row measured in
# a busy spell can be told from a regression.
#
# usage: scripts/bench_history.sh [--seed N] [--seconds S]
#
# The commit is `git describe --always --dirty`, so run it on a committed
# tree: a row measured on uncommitted changes carries a `-dirty` suffix.
# Takes about 7 × (S + 10) seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
seconds=10
out=results/benchmark_history.jsonl
usage="usage: $0 [--seed N] [--seconds S]"
while [[ $# -gt 0 ]]; do
    [[ $# -ge 2 ]] || { echo "$usage" >&2; exit 2; }
    case "$1" in
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
    shift 2
done
commit=$(git describe --always --dirty 2>/dev/null || echo unknown)

# loadavg1: the 1-minute load average, or null without /proc/loadavg.
loadavg1() {
    local v
    v=$(cut -d' ' -f1 /proc/loadavg 2>/dev/null || true)
    echo "${v:-null}"
}
load_start=$(loadavg1)

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=benchmark/target/release/masc-benchmark

# metric NAME LINE: the "value" of metric NAME in a result line, or null.
metric() {
    local v
    v=$(grep -o "\"$1\": {[^}]*}" <<<"$2" | grep -o '"value": [^,}]*' | cut -d' ' -f2 || true)
    echo "${v:-null}"
}

# counts OUTPUT: the run's "exact-repeat counts: k=v ..." line as a JSON
# object, or null when the run printed no such line.
counts() {
    local line kv pairs=""
    line=$(grep -m1 'exact-repeat counts:' <<<"$1" || true)
    [[ -n "$line" ]] || { echo null; return; }
    for kv in ${line#*exact-repeat counts:}; do
        pairs+="${pairs:+, }\"${kv%%=*}\": ${kv#*=}"
    done
    echo "{$pairs}"
}

workloads=(mos_chain rc_mesh ram_fanout tensor_codec sweep_batch window_pit serve_replay)
body=""
for w in "${workloads[@]}"; do
    echo "==> $w" >&2
    # A run whose verification fails exits non-zero but still prints its
    # result line; record it rather than stop.
    run=$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) || true
    line=$(tail -n 1 <<<"$run")
    failed=$(grep -o '"failed": [0-9.]*' <<<"$line" | cut -d' ' -f2 || true)
    body+="${body:+, }\"$w\": {\"solve_s\": $(metric solve_s "$line"), \
\"peak_rss_mb\": $(metric peak_rss_mb "$line"), \
\"compress_ratio\": $(metric compress_ratio "$line"), \"failed\": ${failed:-null}, \
\"counts\": $(counts "$run")}"
done

load_end=$(loadavg1)

printf '{"commit": "%s", "nproc": %s, "seed": %s, "seconds": %s, "loadavg": [%s, %s], "workloads": {%s}}\n' \
    "$commit" "$(nproc)" "$seed" "$seconds" "$load_start" "$load_end" "$body" >>"$out"
echo "appended a row for $commit to $out" >&2
