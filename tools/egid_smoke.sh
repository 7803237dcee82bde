#!/usr/bin/env bash
# End-to-end smoke test for the egid daemon: bad flags are refused → boot
# → load → checkpoint → kill -9 → restart (restore-on-boot) → verify state
# survived → closed connections release their threads → stream creation
# answers under saturating ingest → clean SIGTERM drain. CI runs this
# under `timeout` on every push; it is also handy locally:
#
#   tools/egid_smoke.sh build
#
# The only argument is the build directory holding the egid and loadgen
# binaries. Exits non-zero (with a FAIL line) on the first broken step.
set -u -o pipefail

BUILD_DIR=${1:-build}
EGID="$BUILD_DIR/egid"
LOADGEN="$BUILD_DIR/loadgen"
WORK=$(mktemp -d)
CKPT="$WORK/checkpoint.egis"
LOG="$WORK/egid.log"
EGID_PID=""
LOADGEN_PID=""

fail() {
  echo "FAIL: $*" >&2
  [[ -n $LOADGEN_PID ]] && kill "$LOADGEN_PID" 2>/dev/null
  if [[ -s $LOG ]]; then
    echo "--- egid log ($LOG) ---" >&2
    cat "$LOG" >&2
  else
    echo "--- egid log is empty ---" >&2
  fi
  [[ -n $EGID_PID ]] && kill -9 "$EGID_PID" 2>/dev/null
  rm -rf "$WORK"
  exit 1
}

[[ -x $EGID ]] || fail "egid binary not found at $EGID"
[[ -x $LOADGEN ]] || fail "loadgen binary not found at $LOADGEN"

# A negative size flag is a clean startup error, not an abort or a daemon
# that boots broken: cast to size_t, --buffer=-1 would overflow the ring
# allocation, --refit-interval=-1 would never refit, and
# --queue-capacity=-1 would switch backpressure off. So is a value that is
# not a whole number: --buffer=4k must not boot with a 4-point buffer, nor
# --window=abc with a window of 0. So is a port outside [0, 65535], which
# would wrap (--http-port=70000 listening on 4464, --ingest-port=-1 on
# 65535). The bad flag goes first, since the first of two --window flags
# wins. The timeout turns a daemon that boots anyway into a failure instead
# of a hang.
for BAD_FLAG in --buffer=-1 --refit-interval=-1 --queue-capacity=-1 \
                --buffer=4k --window=abc --http-port=70000 \
                --ingest-port=-1; do
  BAD_OUT=$(timeout 10 "$EGID" "$BAD_FLAG" --window=16 2>&1)
  BAD_STATUS=$?
  [[ $BAD_STATUS == 1 ]] \
    || fail "egid $BAD_FLAG exited $BAD_STATUS, not 1: $BAD_OUT"
  grep -q 'InvalidArgument' <<<"$BAD_OUT" \
    || fail "egid $BAD_FLAG did not report InvalidArgument: $BAD_OUT"
  echo "egid $BAD_FLAG refused to boot: $BAD_OUT"
done

# Launch and parse the ready banner for the ephemeral ports.
start_egid() {
  "$EGID" --window=16 --buffer=256 --refit-interval=64 \
          --checkpoint="$CKPT" >"$LOG" 2>&1 &
  EGID_PID=$!
  for _ in $(seq 100); do
    grep -q '^egid ready' "$LOG" 2>/dev/null && break
    kill -0 "$EGID_PID" 2>/dev/null \
      || fail "egid (pid $EGID_PID) died during startup; its captured output follows"
    sleep 0.1
  done
  # Fail fast with the daemon's own stderr on a boot timeout — a generic
  # downstream curl error would hide what the daemon was stuck on.
  grep -q '^egid ready' "$LOG" \
    || fail "egid (pid $EGID_PID) did not print its ready banner within 10s; its captured output follows"
  HTTP_PORT=$(sed -n 's/^egid ready http=\([0-9]*\).*/\1/p' "$LOG" | tail -1)
  INGEST_PORT=$(sed -n 's/.*ingest=\([0-9]*\).*/\1/p' "$LOG" | tail -1)
  [[ -n $HTTP_PORT && -n $INGEST_PORT ]] || fail "could not parse ports"
}

http() {  # http METHOD PATH -> body on stdout
  local body
  if ! body=$(curl -sS -X "$1" "http://127.0.0.1:$HTTP_PORT$2"); then
    # Distinguish "daemon died" (dump its output) from "daemon up but the
    # request failed" so a crash does not surface as a generic curl error.
    if kill -0 "$EGID_PID" 2>/dev/null; then
      fail "curl $1 $2 failed but egid (pid $EGID_PID) is still running"
    else
      fail "egid (pid $EGID_PID) died before $1 $2; its captured output follows"
    fi
  fi
  printf '%s\n' "$body"
}

start_egid
echo "egid up: http=$HTTP_PORT ingest=$INGEST_PORT pid=$EGID_PID"

# A small load: 50 streams, enough points to score but quick to drain.
"$LOADGEN" --http-port="$HTTP_PORT" --ingest-port="$INGEST_PORT" \
           --streams=50 --conns=4 --batch=20 --rounds=3 --json \
  || fail "loadgen run"

http POST /v1/flush | grep -q '"flushed":true' || fail "flush"
DESCRIBE=$(http GET /v1/streams/0)
echo "$DESCRIBE" | grep -q '"accepted":60' || fail "expected 60 accepted: $DESCRIBE"
echo "$DESCRIBE" | grep -q '"scored":60' || fail "expected 60 scored: $DESCRIBE"

# /metrics must be valid JSON (the telemetry dump feeds dashboards).
http GET /metrics | python3 -m json.tool >/dev/null || fail "/metrics is not JSON"

# Checkpoint, then die without any shutdown path at all.
http POST /v1/checkpoint | grep -q '"bytes"' || fail "checkpoint request"
[[ -s $CKPT ]] || fail "checkpoint file missing"
kill -9 "$EGID_PID"
wait "$EGID_PID" 2>/dev/null
echo "killed egid with SIGKILL, restarting from $CKPT"

# Second life: restore-on-boot must bring all 50 streams back, scored.
start_egid
grep -q 'streams=50' "$LOG" || fail "restore-on-boot lost streams: $(tail -1 "$LOG")"
DESCRIBE=$(http GET /v1/streams/0)
echo "$DESCRIBE" | grep -q '"scored":60' || fail "restored stream lost points: $DESCRIBE"
http GET /healthz | grep -q '"status":"ok"' || fail "healthz after restore"

# Closed connections must not keep their threads: 200 one-shot /healthz
# probes may grow the daemon's memory map by a few lines, not by a thread
# stack (two lines) per probe. The accept loops reap within 200 ms.
maps_lines() { wc -l <"/proc/$EGID_PID/maps"; }
MAPS_BEFORE=$(maps_lines)
for _ in $(seq 200); do
  curl -sS -o /dev/null "http://127.0.0.1:$HTTP_PORT/healthz" \
    || fail "healthz probe failed"
done
for _ in $(seq 20); do
  (( $(maps_lines) - MAPS_BEFORE < 64 )) && break
  sleep 0.1
done
MAPS_GROWTH=$(( $(maps_lines) - MAPS_BEFORE ))
(( MAPS_GROWTH < 64 )) \
  || fail "200 closed connections grew egid's memory map by $MAPS_GROWTH lines"
echo "200 closed connections grew egid's memory map by $MAPS_GROWTH lines"

# Stream creation must not starve behind saturated scoring. loadgen floods
# the ingest plane until it is killed (it sees queue_full rejects, so its
# exit status is ignored); once a queue is full, POST /v1/streams must
# still answer within 5 s.
"$LOADGEN" --http-port="$HTTP_PORT" --ingest-port="$INGEST_PORT" \
           --streams=50 --batch=500 --rounds=100000 --json \
           >"$WORK/saturate.json" 2>&1 &
LOADGEN_PID=$!
for _ in $(seq 100); do
  http GET /v1/streams/50 2>/dev/null | grep -q '"queued":[0-9]\{4\}' && break
  sleep 0.1
done
http GET /v1/streams/50 | grep -q '"queued":[0-9]\{4\}' \
  || fail "loadgen did not saturate stream 50: $(cat "$WORK/saturate.json")"
CREATED=$(curl -sS --max-time 5 -o /dev/null -w '%{http_code}' -X POST \
  -d '{"tenant":"smoke","name":"late"}' "http://127.0.0.1:$HTTP_PORT/v1/streams")
kill "$LOADGEN_PID" 2>/dev/null
wait "$LOADGEN_PID" 2>/dev/null
LOADGEN_PID=""
[[ $CREATED == 201 ]] \
  || fail "POST /v1/streams under saturating ingest answered '$CREATED', not 201 within 5 s"
echo "POST /v1/streams answered 201 under saturating ingest"
# Score the backlog now, so the SIGTERM drain below fits its 30 s wait.
http POST /v1/flush | grep -q '"flushed":true' || fail "flush after saturation"

# Clean shutdown: SIGTERM drains and exits 0.
kill -TERM "$EGID_PID"
for _ in $(seq 300); do
  kill -0 "$EGID_PID" 2>/dev/null || break
  sleep 0.1
done
if wait "$EGID_PID"; then
  echo "egid drained cleanly"
else
  fail "egid exited non-zero on SIGTERM"
fi

rm -rf "$WORK"
echo "PASS: egid smoke (bad flag, load, checkpoint, SIGKILL, restore, reaping, create under load, drain)"
