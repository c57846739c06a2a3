#!/usr/bin/env bash
# End-to-end daemon smoke: start taccd, drive a CONFIGURE/JOIN/MOVE/STATS
# sequence plus one forced OVERLOADED rejection through tacc_client, then
# SIGTERM and assert a graceful zero-exit drain. CI runs this against the
# ASan+UBSan build, so a clean exit is also a zero-leak assertion.
#
#   taccd_smoke.sh <path-to-taccd> <path-to-tacc_client>
set -euo pipefail

TACCD=${1:?usage: taccd_smoke.sh <taccd> <tacc_client>}
CLIENT=${2:?usage: taccd_smoke.sh <taccd> <tacc_client>}
SOCK=$(mktemp -u "${TMPDIR:-/tmp}/taccd_smoke_XXXXXX.sock")
OUT=$(mktemp "${TMPDIR:-/tmp}/taccd_smoke_out_XXXXXX")

cleanup() {
  kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -f "$SOCK" "$OUT"
}
trap cleanup EXIT

# Tiny admission queue so the forced-overload phase overflows reliably —
# with 2 shards, --max-queue=4 is two slots per shard: enough for the
# pipelined LINK_FAIL/LINK_RESTORE pair, small enough that the 6-deep
# overload pipeline below still overflows. 2 shards so the sharded
# admission path is what the sanitizers exercise.
"$TACCD" --socket="$SOCK" --shards=2 --threads=2 --max-queue=4 --timeout-ms=5000 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "FAIL: daemon never bound $SOCK"; exit 1; }

expect_ok() {
  echo "-> $*"
  "$CLIENT" --socket="$SOCK" "$@" | tee -a "$OUT" | grep -q '^OK' \
    || { echo "FAIL: expected OK from: $*"; exit 1; }
}

expect_ok PING
expect_ok CONFIGURE smoke 80 6 seed=7
expect_ok JOIN smoke 1.5 2.0
expect_ok MOVE smoke 0 2.5 1.5
expect_ok STATS smoke
expect_ok STATS

# Per-shard STATS breakdown: the daemon runs 2 shards, so the opt-in
# shards=1 reply must carry both shards' ledger blocks.
SHARD_LINE=$("$CLIENT" --socket="$SOCK" STATS shards=1)
echo "-> STATS shards=1: $SHARD_LINE"
printf '%s\n' "$SHARD_LINE" | grep -q 'shards=2' \
  || { echo "FAIL: global STATS did not report shards=2"; exit 1; }
printf '%s\n' "$SHARD_LINE" | grep -q 's0_accepted=' \
  || { echo "FAIL: STATS shards=1 missing shard 0 breakdown"; exit 1; }
printf '%s\n' "$SHARD_LINE" | grep -q 's1_accepted=' \
  || { echo "FAIL: STATS shards=1 missing shard 1 breakdown"; exit 1; }

# Backbone link churn: discover a live router-router link via LINKS, fail
# and restore it in place, and check STATS reports the engine epoch moving.
LINKS_LINE=$("$CLIENT" --socket="$SOCK" LINKS smoke limit=1)
echo "-> LINKS smoke limit=1: $LINKS_LINE"
LINK=$(printf '%s\n' "$LINKS_LINE" | sed -n 's/.*links=\([0-9]*-[0-9]*\).*/\1/p')
[ -n "$LINK" ] || { echo "FAIL: LINKS returned no backbone link"; exit 1; }
U=${LINK%-*}
V=${LINK#*-}
printf 'LINK_FAIL smoke %s %s\nLINK_RESTORE smoke %s %s\n' \
  "$U" "$V" "$U" "$V" | "$CLIENT" --socket="$SOCK" --stdin > "$OUT.links"
cat "$OUT.links"
[ "$(grep -c '^OK' "$OUT.links")" -eq 2 ] \
  || { echo "FAIL: LINK_FAIL/LINK_RESTORE round trip failed"; exit 1; }
# STATS snapshots flush per batch; query on a fresh connection after the
# link batch has fully responded.
STATS_LINE=$("$CLIENT" --socket="$SOCK" STATS smoke)
echo "-> STATS smoke: $STATS_LINE"
printf '%s\n' "$STATS_LINE" | grep -q 'link_updates=2' \
  || { echo "FAIL: STATS did not report link_updates=2"; exit 1; }
rm -f "$OUT.links"

# Delay-oracle observability: ORACLE_STATS names the backend, and every
# oracle= spec is served by the one exact store. One delay read is one
# query, so a JOIN must raise the cumulative queries counter (a reset
# would silently corrupt rate computations downstream), and an exact store
# never falls back from an envelope.
field() {
  printf '%s\n' "$1" | sed -n "s/.*[[:space:]]$2=\([0-9][0-9]*\).*/\1/p"
}

ORA1=$("$CLIENT" --socket="$SOCK" ORACLE_STATS smoke)
echo "-> ORACLE_STATS smoke: $ORA1"
printf '%s\n' "$ORA1" | grep -q 'backend=exact' \
  || { echo "FAIL: smoke session not on the exact backend"; exit 1; }
Q1=$(field "$ORA1" queries)
[ -n "$Q1" ] || { echo "FAIL: ORACLE_STATS missing queries="; exit 1; }
expect_ok JOIN smoke 2.2 1.1
ORA2=$("$CLIENT" --socket="$SOCK" ORACLE_STATS smoke)
echo "-> ORACLE_STATS smoke: $ORA2"
Q2=$(field "$ORA2" queries)
[ "$Q2" -gt "$Q1" ] \
  || { echo "FAIL: queries not increasing ($Q1 -> $Q2) after a JOIN"; exit 1; }

# A landmark spec is accepted and served exactly.
expect_ok CONFIGURE lmk 80 6 seed=7 oracle=landmark,k=4,eps=0.25
expect_ok JOIN lmk 1.2 3.4
LM1=$("$CLIENT" --socket="$SOCK" ORACLE_STATS lmk)
echo "-> ORACLE_STATS lmk: $LM1"
printf '%s\n' "$LM1" | grep -q 'backend=exact' \
  || { echo "FAIL: landmark spec not served by the exact store"; exit 1; }
LQ1=$(field "$LM1" queries)
[ -n "$LQ1" ] || { echo "FAIL: lmk ORACLE_STATS missing queries="; exit 1; }
expect_ok JOIN lmk 2.2 0.4
expect_ok JOIN lmk 0.4 2.8
LM2=$("$CLIENT" --socket="$SOCK" ORACLE_STATS lmk)
echo "-> ORACLE_STATS lmk: $LM2"
LQ2=$(field "$LM2" queries)
LF2=$(field "$LM2" exact_fallbacks)
[ "$LQ2" -gt "$LQ1" ] \
  || { echo "FAIL: lmk queries not increasing ($LQ1 -> $LQ2) after JOINs"; exit 1; }
[ "$LF2" = 0 ] \
  || { echo "FAIL: exact store reported exact_fallbacks=$LF2"; exit 1; }

# Forced OVERLOADED: pipeline a SLEEP that occupies the session plus more
# JOINs than the 2-deep admission queue can hold. The client exits 3 (some
# ERR responses) — what matters is that every request got exactly one
# response and at least one was OVERLOADED.
PIPELINE=$'SLEEP smoke 500\nJOIN smoke 1 1\nJOIN smoke 1 2\nJOIN smoke 2 1\nJOIN smoke 2 2\nJOIN smoke 3 3'
set +e
printf '%s\n' "$PIPELINE" | "$CLIENT" --socket="$SOCK" --stdin > "$OUT.pipeline"
PIPELINE_RC=$?
set -e
cat "$OUT.pipeline"
[ "$PIPELINE_RC" -eq 3 ] || { echo "FAIL: pipelined client exited $PIPELINE_RC (want 3: all responses received, some ERR)"; exit 1; }
[ "$(wc -l < "$OUT.pipeline")" -eq 6 ] || { echo "FAIL: expected 6 responses"; exit 1; }
grep -q 'ERR OVERLOADED' "$OUT.pipeline" || { echo "FAIL: no OVERLOADED rejection"; exit 1; }
rm -f "$OUT.pipeline"

# Graceful drain: SIGTERM must exit 0 (under ASan this asserts no leaks).
kill -TERM "$DAEMON_PID"
set +e
wait "$DAEMON_PID"
DAEMON_RC=$?
set -e
[ "$DAEMON_RC" -eq 0 ] || { echo "FAIL: taccd exited $DAEMON_RC on SIGTERM"; exit 1; }
[ ! -S "$SOCK" ] || { echo "FAIL: socket file not unlinked on shutdown"; exit 1; }

echo "taccd smoke passed"
