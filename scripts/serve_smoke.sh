#!/usr/bin/env bash
# End-to-end smoke for the masc-serve binary: two identical SOLVEs, of
# which exactly one must miss and the other hit with zero forward steps,
# STATS, and SHUTDOWN with a clean BYE — all over the real stdin/stdout
# wire. The two jobs race for the cold slot, so either may be the miss.
# A second run on three workers panics one job and ends at plain end of
# input (no SHUTDOWN): the other jobs must still be answered, BYE must
# come last, and the binary must exit 0.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/masc-serve
if [[ ! -x "$BIN" ]]; then
    echo "serve smoke: $BIN not built (run cargo build --release first)" >&2
    exit 1
fi

DECK='I1 n0 0 DC 1e-3\nR0 n0 n1 1000\nC1 n1 0 1e-9\nRG1 n1 0 1e6\n.tran 0.2u 20u\n.end'
OUT=$("$BIN" <<EOF
SOLVE j1 final:n1 * $DECK
SOLVE j2 final:n1 * $DECK
STATS
SHUTDOWN
EOF
)

echo "$OUT"
MISSES=$(grep -cE '^OK j[12] miss steps=[1-9]' <<<"$OUT" || true)
HITS=$(grep -cE '^OK j[12] hit steps=0 ' <<<"$OUT" || true)
if [[ "$MISSES" != 1 || "$HITS" != 1 ]]; then
    echo "serve smoke: expected one miss and one zero-step hit, got $MISSES miss(es) and $HITS hit(s)" >&2
    exit 1
fi
grep -q '^STATS jobs=2 cold_runs=1 ' <<<"$OUT" || {
    echo "serve smoke: STATS did not report one cold run for two jobs" >&2
    exit 1
}
grep -q '^BYE$' <<<"$OUT" || {
    echo "serve smoke: shutdown did not answer BYE" >&2
    exit 1
}
# The two answers must agree on everything after the hit/miss and steps
# tokens (objective values and sensitivities are bit-identical).
P1=$(grep '^OK j1 ' <<<"$OUT" | cut -d' ' -f5-)
P2=$(grep '^OK j2 ' <<<"$OUT" | cut -d' ' -f5-)
if [[ "$P1" != "$P2" ]]; then
    echo "serve smoke: hit payload diverged from miss payload" >&2
    echo "  miss: $P1" >&2
    echo "  hit:  $P2" >&2
    exit 1
fi

# The panicking job is first in the queue, so its worker is the first
# free one and answers STATS after the panic has been counted. A captured
# backtrace can take longer than a cold solve, so none is captured.
if ! OUT2=$(RUST_BACKTRACE=0 "$BIN" --workers 3 --panic-on jb <<EOF
SOLVE jb final:n1 * $DECK
SOLVE j1 final:n1 * $DECK
SOLVE j2 final:n1 * $DECK
STATS
EOF
); then
    echo "serve smoke: the binary exited nonzero at end of input" >&2
    exit 1
fi
echo "$OUT2"
grep -q '^ERR jb panic ' <<<"$OUT2" || {
    echo "serve smoke: the panicking job was not answered with ERR jb panic" >&2
    exit 1
}
OKS=$(grep -cE '^OK j[12] ' <<<"$OUT2" || true)
if [[ "$OKS" != 2 ]]; then
    echo "serve smoke: expected both other jobs answered, got $OKS" >&2
    exit 1
fi
grep -qE '^STATS .*worker_panics=1 ' <<<"$OUT2" || {
    echo "serve smoke: STATS did not report one worker panic" >&2
    exit 1
}
if [[ "$(tail -n 1 <<<"$OUT2")" != BYE ]]; then
    echo "serve smoke: end of input did not end with BYE" >&2
    exit 1
fi
echo "serve smoke: ok"
