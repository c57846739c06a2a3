#!/usr/bin/env bash
# Replay-parity smoke: a WorkloadProvider stream rendered by tacc_workload
# must replay cleanly against a live taccd — every wire line answered OK
# (any NOT_FOUND/BAD_REQUEST means the adapter's slot mirror diverged from
# the daemon's real allocator) — and the response transcript must be
# byte-identical:
#   1. across two fresh daemons (same shard count): accepted/completed
#      counts match run over run;
#   2. across shard counts (--shards=1 vs --shards=4): the replayed stream
#      interleaves two sessions that hash to different shards, so their
#      requests complete on different worker pools in nondeterministic
#      order — the per-connection response sequencer must still deliver
#      replies strictly in request order, or the transcripts diverge.
#
# On any FAIL the script prints its evidence before exiting: the first 20
# diff lines of the transcripts it compared, and for every replay so far
# the client's exit code and stderr and the tail of the daemon's log.
#
#   taccd_replay_smoke.sh <taccd> <tacc_client> <tacc_workload>
set -euo pipefail

TACCD=${1:?usage: taccd_replay_smoke.sh <taccd> <tacc_client> <tacc_workload>}
CLIENT=${2:?usage: taccd_replay_smoke.sh <taccd> <tacc_client> <tacc_workload>}
WORKLOAD=${3:?usage: taccd_replay_smoke.sh <taccd> <tacc_client> <tacc_workload>}

WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/taccd_replay_XXXXXX")
DAEMON_PID=""

cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() { # fail <message> [<transcript-a> <transcript-b>]
  echo "FAIL: $1"
  if [ $# -ge 3 ]; then
    echo "--- diff $(basename "$2") $(basename "$3") (first 20 lines):"
    diff "$2" "$3" | head -20 || true
  fi
  local log run
  for log in "$WORKDIR"/replay_*.daemon.log; do
    [ -e "$log" ] || continue
    run=${log%.daemon.log}
    echo "--- $(basename "$run"): client exit $(cat "$run.rc" 2>/dev/null || echo 'none')"
    echo "--- first non-OK responses:"
    grep -n -m 5 -v '^OK' "$run" 2>/dev/null || true
    echo "--- client stderr:"
    cat "$run.err" 2>/dev/null || true
    echo "--- daemon log (last 20 lines):"
    tail -20 "$log"
  done
  exit 1
}

SPEC="steady,link_rate=0.5"
GEN_ARGS=(--workload="$SPEC" --events=400 --iot=60 --edge=8 --seed=77)

# The generator itself must be deterministic before replay parity means
# anything.
"$WORKLOAD" "${GEN_ARGS[@]}" > "$WORKDIR/stream_a.txt"
"$WORKLOAD" "${GEN_ARGS[@]}" > "$WORKDIR/stream_b.txt"
cmp -s "$WORKDIR/stream_a.txt" "$WORKDIR/stream_b.txt" \
  || fail "tacc_workload output differs across identical runs" \
          "$WORKDIR/stream_a.txt" "$WORKDIR/stream_b.txt"

# Second session with its own stream, then interleave the two line-by-line:
# the pipelined replay now alternates between sessions on one connection.
"$WORKLOAD" --workload="$SPEC" --events=400 --iot=60 --edge=8 --seed=78 \
            --session=wl2 > "$WORKDIR/stream_c.txt"
paste -d'\n' "$WORKDIR/stream_a.txt" "$WORKDIR/stream_c.txt" \
  | grep -v '^$' > "$WORKDIR/interleaved.txt"

replay() { # replay <transcript-out> <shards>
  local out=$1
  local shards=$2
  local sock
  sock=$(mktemp -u "$WORKDIR/taccd_XXXXXX.sock")
  # Pipelined replay submits the whole stream before reading responses, so
  # the admission queue must hold it all — backpressure is m3's concern.
  "$TACCD" --socket="$sock" --shards="$shards" --threads=2 \
           --timeout-ms=60000 --max-queue=8192 > "$out.daemon.log" 2>&1 &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  [ -S "$sock" ] || fail "daemon never bound $sock"

  local rc=0
  "$CLIENT" --socket="$sock" --stdin < "$WORKDIR/interleaved.txt" > "$out" \
    2> "$out.err" || rc=$?
  echo "$rc" > "$out.rc"
  # Exit 0 = every request answered OK. 3 would mean ERR responses (a slot
  # mirror or legality bug); anything else is a transport failure.
  [ "$rc" -eq 0 ] || fail "replay client exited $rc (want 0: all OK)"

  kill -TERM "$DAEMON_PID"
  local drc=0
  wait "$DAEMON_PID" || drc=$?
  DAEMON_PID=""
  [ "$drc" -eq 0 ] || fail "taccd exited $drc on SIGTERM"
}

replay "$WORKDIR/replay_1.txt" 1
replay "$WORKDIR/replay_2.txt" 1
replay "$WORKDIR/replay_s4.txt" 4

LINES=$(wc -l < "$WORKDIR/interleaved.txt")
RESPONSES=$(wc -l < "$WORKDIR/replay_1.txt")
[ "$RESPONSES" -eq "$LINES" ] \
  || fail "$LINES requests but $RESPONSES responses"

cmp -s "$WORKDIR/replay_1.txt" "$WORKDIR/replay_2.txt" \
  || fail "replay transcripts differ between fresh daemons" \
          "$WORKDIR/replay_1.txt" "$WORKDIR/replay_2.txt"

cmp -s "$WORKDIR/replay_1.txt" "$WORKDIR/replay_s4.txt" \
  || fail "transcripts differ between --shards=1 and --shards=4 (response ordering broke)" \
          "$WORKDIR/replay_1.txt" "$WORKDIR/replay_s4.txt"

echo "taccd replay smoke passed: $LINES requests ($SPEC, 2 sessions), all OK, transcripts identical at 1 and 4 shards"
