#!/usr/bin/env bash
# End-to-end smoke test for the gf-serve binary: launch it against the
# checked-in 20-user MovieLens fixture, drive every endpoint over real
# HTTP with curl, and fail on any non-expected status or malformed JSON.
# Run from the repository root; expects target/release/gf-serve to exist
# and `curl` + `jq` on PATH (both present on ubuntu-latest).
set -euo pipefail

BIN=target/release/gf-serve
FIXTURE=crates/datasets/tests/fixtures/ratings_20users.dat
PORT="${GF_SMOKE_PORT:-7878}"
BASE="http://127.0.0.1:${PORT}"
LOG=$(mktemp)

"$BIN" --port "$PORT" --data "$FIXTURE" --ell 4 --k 3 >"$LOG" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; cat "$LOG"' EXIT

# Wait for the listening line (the binary prints it once ready).
for _ in $(seq 1 100); do
  grep -q "listening on" "$LOG" && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died during startup"; exit 1; }
  sleep 0.1
done
grep -q "listening on" "$LOG" || { echo "server never became ready"; exit 1; }

# request METHOD PATH EXPECTED_STATUS [BODY] -> prints response body,
# fails on status mismatch or non-JSON payload.
request() {
  local method=$1 path=$2 expected=$3 body=${4:-}
  local out status
  if [ -n "$body" ]; then
    out=$(curl -sS -w '\n%{http_code}' -X "$method" -d "$body" "$BASE$path")
  else
    out=$(curl -sS -w '\n%{http_code}' -X "$method" "$BASE$path")
  fi
  status=${out##*$'\n'}
  out=${out%$'\n'*}
  if [ "$status" != "$expected" ]; then
    echo "FAIL: $method $path returned $status (expected $expected): $out" >&2
    exit 1
  fi
  jq -e . >/dev/null <<<"$out" || { echo "FAIL: $method $path returned malformed JSON: $out" >&2; exit 1; }
  echo "$out"
}

# stats_match_digest: once the writes drain, /v1/stats reports the
# snapshot's journal progress, so its rates_applied, users_admitted and
# items_admitted equal /v1/digest's applied, users_admitted and
# items_admitted.
stats_match_digest() {
  local stats digest
  stats=$(request GET /v1/stats 200)
  digest=$(request GET /v1/digest 200)
  jq -e --argjson d "$digest" '.pending == 0
    and .rates_applied == $d.applied
    and .users_admitted == $d.users_admitted
    and .items_admitted == $d.items_admitted' <<<"$stats" >/dev/null \
    || { echo "FAIL: /v1/stats progress differs from /v1/digest: $stats vs $digest" >&2; exit 1; }
}

echo "== /health =="
health=$(request GET /v1/health 200)
jq -e '.status == "ok" and .users == 20' <<<"$health" >/dev/null

echo "== /form (re-form under AV-SUM) =="
formed=$(request POST /v1/form 200 '{"semantics":"av","aggregation":"sum","ell":4}')
jq -e '.algorithm == "GRD-AV-SUM" and .groups <= 4 and .objective > 0' <<<"$formed" >/dev/null

echo "== /group/3 =="
group=$(request GET /v1/group/3 200)
jq -e '.user == 3 and (.members | index(3) != null) and (.top_k | length) <= 3' <<<"$group" >/dev/null

echo "== /group/3 pagination =="
paged=$(request GET "/v1/group/3?limit=1&offset=0" 200)
full_size=$(jq -r '.members | length' <<<"$group")
jq -e '(.members | length) <= 1 and .members_total == '"$full_size" <<<"$paged" >/dev/null
request GET "/v1/group/3?limit=bogus" 400 | jq -e '.error' >/dev/null

echo "== /recommend =="
gi=$(jq -r '.group' <<<"$group")
request GET "/v1/recommend/$gi?exclude_rated=false" 200 | jq -e '.top_k | length >= 1' >/dev/null

echo "== /rate (incremental update reaches a fresh snapshot) =="
# Baseline must be read *after* /form (which already bumped the version),
# immediately before the rate — otherwise this loop exits vacuously.
version=$(request GET /v1/health 200 | jq -r '.version')
request POST /v1/rate 202 '{"user":3,"item":1,"rating":5}' | jq -e '.accepted == true' >/dev/null
new_version=$version
for _ in $(seq 1 100); do
  new_version=$(request GET /v1/health 200 | jq -r '.version')
  [ "$new_version" -gt "$version" ] && break
  sleep 0.1
done
[ "$new_version" -gt "$version" ] || { echo "FAIL: /rate never produced a new snapshot"; exit 1; }
# The new snapshot must actually carry the applied rating.
request GET /v1/stats 200 | jq -e '.rates_applied >= 1' >/dev/null

echo "== /stats =="
# The path counters increment before `refresh_passes` (and before the
# snapshot install the earlier version-wait observed), so these checks
# cannot flake on a mid-pass read.
request GET /v1/stats 200 | jq -e '.rates_applied >= 1 and .form_runs >= 1
  and .refresh_incremental >= 1 and .refresh_cold == 0
  and (.refresh_incremental + .refresh_cold) >= .refresh_passes
  and .refresh_mode == "auto"' >/dev/null

echo "== error paths stay JSON =="
request GET /v1/group/9999 404 | jq -e '.error' >/dev/null
request POST /v1/rate 400 '{"user":0,"item":0,"rating":99}' | jq -e '.error' >/dev/null
request GET /v1/nope 404 | jq -e '.error' >/dev/null

# ---------------------------------------------------------------------------
# Growth smoke: a second instance under --grow admits a never-seen user on a
# never-seen item over real sockets — no restart — and serves their group
# once the background refresh lands.
# ---------------------------------------------------------------------------
kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true

GROW_PORT=$((PORT + 1))
BASE="http://127.0.0.1:${GROW_PORT}"
GROW_LOG=$(mktemp)
"$BIN" --port "$GROW_PORT" --synth 30x10 --ell 3 --k 2 --grow --max-users 200 --max-items 100 \
  >"$GROW_LOG" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; cat "$LOG" "$GROW_LOG"' EXIT

for _ in $(seq 1 100); do
  grep -q "listening on" "$GROW_LOG" && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "grow server died during startup"; exit 1; }
  sleep 0.1
done
grep -q "listening on" "$GROW_LOG" || { echo "grow server never became ready"; exit 1; }

echo "== growth: baseline shape =="
request GET /v1/stats 200 | jq -e '.n_users == 30 and .n_items == 10
  and .users_admitted == 0 and .items_admitted == 0' >/dev/null
# The never-seen user is unknown until the admission applies.
request GET /v1/group/42 404 | jq -e '.error' >/dev/null

echo "== growth: admit user 42 on item 25 via /rate =="
version=$(request GET /v1/health 200 | jq -r '.version')
request POST /v1/rate 202 '{"user":42,"item":25,"rating":4}' | jq -e '.accepted == true' >/dev/null
new_version=$version
for _ in $(seq 1 100); do
  new_version=$(request GET /v1/health 200 | jq -r '.version')
  [ "$new_version" -gt "$version" ] && break
  sleep 0.1
done
[ "$new_version" -gt "$version" ] || { echo "FAIL: admission never produced a new snapshot"; exit 1; }

echo "== growth: /group/42 resolves after refresh =="
request GET /v1/group/42 200 | jq -e '.user == 42 and (.members | index(42) != null)' >/dev/null
# A gap row admitted alongside (users 30..41 exist now, ratingless) serves too.
request GET /v1/group/35 200 | jq -e '.members_total >= 1' >/dev/null

echo "== growth: /stats counters advanced =="
request GET /v1/stats 200 | jq -e '.n_users == 43 and .n_items == 26
  and .users_admitted == 13 and .items_admitted == 16
  and .rates_applied >= 1' >/dev/null
stats_match_digest

echo "== growth: cap exhaustion is a clean 409 =="
request POST /v1/rate 409 '{"user":9999,"item":0,"rating":3}' | jq -e '.error' >/dev/null
request GET /v1/stats 200 | jq -e '.n_users == 43' >/dev/null

# ---------------------------------------------------------------------------
# Persist smoke: a durable (--data-dir) instance is rated, SIGKILLed
# mid-flight and rebooted on the same directory; the warm restart must
# replay every acknowledged rating and land on the identical /digest.
# ---------------------------------------------------------------------------
kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true

PERSIST_PORT=$((PORT + 2))
BASE="http://127.0.0.1:${PERSIST_PORT}"
DATA_DIR=$(mktemp -d)
PERSIST_LOG=$(mktemp)
# A huge checkpoint interval keeps recovery on the boot-checkpoint + full
# WAL-replay path, so the replayed count below is deterministic. The log
# is truncated per boot so readiness greps never match a previous boot.
start_persist_server() {
  "$BIN" --port "$PERSIST_PORT" --synth 30x10 --ell 3 --k 2 \
    --grow --max-users 200 --max-items 100 \
    --data-dir "$DATA_DIR" --wal-sync always --checkpoint-interval-ms 3600000 \
    >"$PERSIST_LOG" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    grep -q "listening on" "$PERSIST_LOG" && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "persist server died during startup"; cat "$PERSIST_LOG"; exit 1; }
    sleep 0.1
  done
  grep -q "listening on" "$PERSIST_LOG" || { echo "persist server never became ready"; exit 1; }
}
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$DATA_DIR"; cat "$LOG" "$GROW_LOG" "$PERSIST_LOG"' EXIT

echo "== persist: cold start writes the initial checkpoint =="
start_persist_server
grep -q "recovery: cold start" "$PERSIST_LOG" || { echo "FAIL: no cold-start recovery line"; exit 1; }

echo "== persist: journal three ratings (one admission) =="
request POST /v1/rate 202 '{"user":3,"item":1,"rating":5}' | jq -e '.accepted == true' >/dev/null
request POST /v1/rate 202 '{"user":7,"item":2,"rating":2}' | jq -e '.accepted == true' >/dev/null
request POST /v1/rate 202 '{"user":50,"item":20,"rating":4}' | jq -e '.accepted == true' >/dev/null
for _ in $(seq 1 100); do
  applied=$(request GET /v1/stats 200 | jq -r '.rates_applied')
  [ "$applied" -eq 3 ] && break
  sleep 0.1
done
[ "$applied" -eq 3 ] || { echo "FAIL: ratings never applied"; exit 1; }
request GET /v1/stats 200 | jq -e '.wal_records == 3 and .wal_seq == 3' >/dev/null
stats_match_digest
digest_before=$(request GET /v1/digest 200 | jq -r '.digest')
version_before=$(request GET /v1/digest 200 | jq -r '.version')

echo "== persist: kill -9, warm restart recovers every acked rating =="
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
start_persist_server
grep -q "recovery: checkpoint version 1 + 3 wal records replayed" "$PERSIST_LOG" \
  || { echo "FAIL: warm-restart recovery line missing/wrong"; exit 1; }
request GET /v1/stats 200 | jq -e '.recovery_replayed == 3 and .recovery_dropped_bytes == 0
  and .rates_applied == 3 and .users_admitted >= 1' >/dev/null
stats_match_digest
request GET /v1/digest 200 | jq -e '.digest == "'"$digest_before"'"
  and .version == '"$version_before" >/dev/null
request GET /v1/group/50 200 | jq -e '.user == 50 and (.members | index(50) != null)' >/dev/null

# ---------------------------------------------------------------------------
# Multi-grouping smoke: one instance serving several named groupings with
# different aggregation semantics over one shared matrix — boot-declared
# (--grouping) and socket-registered (POST /grouping) alike — every /rate
# fanning out to all of them.
# ---------------------------------------------------------------------------
kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true

MULTI_PORT=$((PORT + 3))
BASE="http://127.0.0.1:${MULTI_PORT}"
MULTI_LOG=$(mktemp)
"$BIN" --port "$MULTI_PORT" --data "$FIXTURE" --ell 4 --k 3 \
  --grouping fair:semantics=av,agg=sum \
  --grouping cons:semantics=cons,lambda=0.5 \
  >"$MULTI_LOG" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$DATA_DIR"; cat "$LOG" "$GROW_LOG" "$PERSIST_LOG" "$MULTI_LOG"' EXIT

for _ in $(seq 1 100); do
  grep -q "listening on" "$MULTI_LOG" && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "multi-grouping server died during startup"; exit 1; }
  sleep 0.1
done
grep -q "listening on" "$MULTI_LOG" || { echo "multi-grouping server never became ready"; exit 1; }

echo "== multi: boot registry has default + fair + cons =="
request GET /v1/health 200 | jq -e '.groupings == 3' >/dev/null
request GET /v1/stats 200 | jq -e '.groupings | keys == ["cons","default","fair"]
  and .default.algorithm == "GRD-LM-MIN"
  and .fair.algorithm == "GRD-AV-SUM"
  and .cons.algorithm == "GRD-CONS-MIN"' >/dev/null

echo "== multi: every grouping answers /group/{name}/{u} =="
request GET /v1/group/3 200 | jq -e '.grouping == "default" and .user == 3' >/dev/null
request GET /v1/group/fair/3 200 | jq -e '.grouping == "fair" and .user == 3
  and (.members | index(3) != null)' >/dev/null
request GET /v1/group/cons/3 200 | jq -e '.grouping == "cons" and .user == 3' >/dev/null
gi=$(request GET /v1/group/fair/3 200 | jq -r '.group')
request GET "/v1/recommend/fair/$gi?exclude_rated=false" 200 | jq -e '.top_k | length >= 1' >/dev/null

echo "== multi: POST /grouping registers a fourth live =="
request POST /v1/grouping 200 '{"name":"ldr","semantics":"ldr","k":2}' \
  | jq -e '.grouping == "ldr" and .algorithm == "GRD-LDR-MIN"' >/dev/null
request GET /v1/health 200 | jq -e '.groupings == 4' >/dev/null
request GET /v1/group/ldr/3 200 | jq -e '.grouping == "ldr"' >/dev/null

echo "== multi: unknown names 404 everywhere, /form never mints =="
request GET /v1/group/nope/3 404 | jq -e '.error' >/dev/null
request POST "/v1/form?name=nope" 404 | jq -e '.error' >/dev/null
request GET /v1/health 200 | jq -e '.groupings == 4' >/dev/null

echo "== multi: one /rate advances every grouping =="
fair_v=$(request GET /v1/stats 200 | jq -r '.groupings.fair.version')
cons_v=$(request GET /v1/stats 200 | jq -r '.groupings.cons.version')
request POST /v1/rate 202 '{"user":3,"item":1,"rating":1}' | jq -e '.accepted == true' >/dev/null
for _ in $(seq 1 100); do
  new_fair_v=$(request GET /v1/stats 200 | jq -r '.groupings.fair.version')
  [ "$new_fair_v" -gt "$fair_v" ] && break
  sleep 0.1
done
[ "$new_fair_v" -gt "$fair_v" ] || { echo "FAIL: /rate never advanced grouping 'fair'"; exit 1; }
request GET /v1/stats 200 | jq -e '.groupings.cons.version > '"$cons_v"'
  and .groupings.default.version == .groupings.fair.version' >/dev/null

echo "== multi: /form?name= re-forms one grouping, not the others =="
default_v=$(request GET /v1/stats 200 | jq -r '.groupings.default.version')
request POST "/v1/form?name=fair" 200 '{"ell":3}' \
  | jq -e '.grouping == "fair" and .groups <= 3' >/dev/null
request GET /v1/stats 200 | jq -e '.groupings.fair.version > .groupings.default.version
  and .groupings.default.version == '"$default_v" >/dev/null

echo "== multi: /digest carries one fingerprint per grouping =="
request GET /v1/digest 200 | jq -e '.groupings | keys == ["cons","default","fair","ldr"]
  and (to_entries | all(.value | test("^[0-9a-f]{16}$")))' >/dev/null

# ---------------------------------------------------------------------------
# Quality smoke: the /v1 surface closes the loop on the multi-grouping
# instance — candidate-filtered /v1/recommend, journaled /v1/feedback,
# and per-grouping quality counters advancing in /v1/stats.
# ---------------------------------------------------------------------------
echo "== quality: /v1 answers, the unversioned legacy path is a 404 =="
request GET /v1/health 200 | jq -e '.status == "ok"' >/dev/null
request GET /health 404 | jq -e '.error.code == "unknown_endpoint"' >/dev/null

echo "== quality: /v1/recommend filters rated items by default =="
gi=$(request GET /v1/group/fair/3 200 | jq -r '.group')
filtered=$(request GET "/v1/recommend/fair/$gi" 200)
jq -e '.excluded_rated == true and .grouping == "fair"' <<<"$filtered" >/dev/null
request GET "/v1/recommend/fair/$gi?exclude_rated=false&top_k=2" 200 \
  | jq -e '.excluded_rated == false and (.top_k | length) <= 2' >/dev/null
request GET "/v1/recommend/fair/$gi?exclude_rated=bogus" 400 \
  | jq -e '.error.code == "bad_request"' >/dev/null

echo "== quality: /v1/feedback journals and the quality block advances =="
before=$(request GET /v1/stats 200 | jq -r '.feedback_applied // 0')
request POST /v1/feedback 202 '{"user":3,"item":1}' | jq -e '.accepted == true' >/dev/null
request POST /v1/feedback 202 '{"user":5,"item":2,"grouping":"fair"}' \
  | jq -e '.accepted == true' >/dev/null
request POST /v1/feedback 404 '{"user":3,"item":1,"grouping":"nope"}' \
  | jq -e '.error.code == "unknown_grouping"' >/dev/null
for _ in $(seq 1 100); do
  applied=$(request GET /v1/stats 200 | jq -r '.feedback_applied // 0')
  [ "$applied" -ge $((before + 2)) ] && break
  sleep 0.1
done
[ "$applied" -ge $((before + 2)) ] || { echo "FAIL: feedback never applied"; exit 1; }
request GET /v1/stats 200 | jq -e '.quality.fair.window_events >= 2
  and .quality.default.window_events >= 1
  and (.quality | keys == ["cons","default","fair","ldr"])' >/dev/null

echo "== quality: the error envelope is uniform on /v1 =="
request GET /v1/nope 404 | jq -e '.error.code == "unknown_endpoint" and .error.message' >/dev/null
request GET /v1/group/abc 400 | jq -e '.error.code == "bad_request"' >/dev/null

# ---------------------------------------------------------------------------
# Net-transport smoke: boot the same corpus under --net epoll and
# --net blocking, drive the same endpoints, and assert the response
# bodies are byte-identical — the transports must be indistinguishable
# above the socket layer.
# ---------------------------------------------------------------------------
kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true

NET_ENDPOINTS=(
  "GET /v1/health"
  "GET /v1/group/3"
  "GET /v1/group/3?limit=1&offset=0"
  "GET /v1/group/9999"
  "GET /v1/nope"
  "GET /v1/group/abc"
)

# capture_transport MODE PORT OUTFILE — boots --net MODE, appends one
# "METHOD PATH -> body" line per endpoint, shuts down.
capture_transport() {
  local mode=$1 port=$2 outfile=$3
  local log; log=$(mktemp)
  "$BIN" --port "$port" --data "$FIXTURE" --ell 4 --k 3 --net "$mode" \
    --conn-timeout-ms 5000 >"$log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    grep -q "listening on" "$log" && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "--net $mode server died during startup"; cat "$log"; exit 1; }
    sleep 0.1
  done
  grep -q "listening on" "$log" || { echo "--net $mode server never became ready"; exit 1; }
  grep -q "net=$mode" "$log" || { echo "FAIL: listening line does not report net=$mode"; cat "$log"; exit 1; }
  : >"$outfile"
  local method path body
  for ep in "${NET_ENDPOINTS[@]}"; do
    method=${ep%% *}
    path=${ep#* }
    body=$(curl -sS -X "$method" "http://127.0.0.1:${port}${path}")
    jq -e . >/dev/null <<<"$body" || { echo "FAIL: --net $mode $method $path returned malformed JSON: $body" >&2; exit 1; }
    printf '%s %s -> %s\n' "$method" "$path" "$body" >>"$outfile"
  done
  kill "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
}

echo "== net: identical bodies under --net epoll and --net blocking =="
NET_PORT_A=$((PORT + 4))
NET_PORT_B=$((PORT + 5))
EPOLL_OUT=$(mktemp)
BLOCKING_OUT=$(mktemp)
capture_transport epoll "$NET_PORT_A" "$EPOLL_OUT"
capture_transport blocking "$NET_PORT_B" "$BLOCKING_OUT"
diff -u "$EPOLL_OUT" "$BLOCKING_OUT" \
  || { echo "FAIL: transports served different bodies"; exit 1; }

# ---------------------------------------------------------------------------
# Refresh-mode parity: the same corpus booted under --refresh cold and
# --refresh auto, two Step-1 workers each, takes the same /v1/rate writes
# and must serve byte-identical /v1/group bodies for every user — the
# refresh mode decides how a pass re-forms, never what it installs.
# ---------------------------------------------------------------------------
PARITY_WRITES=(
  '{"user":3,"item":1,"rating":5}'
  '{"user":7,"item":2,"rating":1}'
  '{"user":12,"item":4,"rating":4}'
  '{"user":0,"item":9,"rating":2}'
  '{"user":19,"item":0,"rating":3}'
)

# capture_refresh MODE PORT OUTFILE — boots --refresh MODE, applies
# PARITY_WRITES, appends one "GET /v1/group/U -> body" line per user,
# checks the refresh counters, shuts down.
capture_refresh() {
  local mode=$1 port=$2 outfile=$3
  local log; log=$(mktemp)
  BASE="http://127.0.0.1:${port}"
  "$BIN" --port "$port" --data "$FIXTURE" --ell 4 --k 3 --threads 2 --refresh "$mode" \
    >"$log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    grep -q "listening on" "$log" && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "--refresh $mode server died during startup"; cat "$log"; exit 1; }
    sleep 0.1
  done
  grep -q "listening on" "$log" || { echo "--refresh $mode server never became ready"; exit 1; }
  local w applied=0
  for w in "${PARITY_WRITES[@]}"; do
    request POST /v1/rate 202 "$w" | jq -e '.accepted == true' >/dev/null
  done
  for _ in $(seq 1 100); do
    applied=$(request GET /v1/stats 200 | jq -r '.rates_applied')
    [ "$applied" -eq "${#PARITY_WRITES[@]}" ] && break
    sleep 0.1
  done
  [ "$applied" -eq "${#PARITY_WRITES[@]}" ] || { echo "FAIL: --refresh $mode never applied the writes"; exit 1; }
  request GET /v1/stats 200 | jq -e '.refresh_mode == "'"$mode"'"' >/dev/null
  if [ "$mode" = cold ]; then
    request GET /v1/stats 200 | jq -e '.refresh_cold >= 1 and .refresh_incremental == 0' >/dev/null \
      || { echo "FAIL: --refresh cold took no cold pass"; exit 1; }
  fi
  : >"$outfile"
  local u
  for u in $(seq 0 19); do
    printf 'GET /v1/group/%s -> %s\n' "$u" "$(request GET "/v1/group/$u" 200)" >>"$outfile"
  done
  kill "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
}

echo "== refresh: identical groups under --refresh cold and --refresh auto =="
COLD_OUT=$(mktemp)
AUTO_OUT=$(mktemp)
capture_refresh cold $((PORT + 6)) "$COLD_OUT"
capture_refresh auto $((PORT + 7)) "$AUTO_OUT"
diff -u "$COLD_OUT" "$AUTO_OUT" \
  || { echo "FAIL: refresh modes served different groups"; exit 1; }
trap 'rm -rf "$DATA_DIR"' EXIT

# ---------------------------------------------------------------------------
# k-crossing admission: a catalogue smaller than --k grows past it. The
# admitting rating and the two plain ratings behind it all apply (one
# version each), the crossed grouping rebuilds cold, and /stats carries no
# split counter.
# ---------------------------------------------------------------------------
echo "== growth: an item admission that crosses k applies whole =="
KCROSS_PORT=$((PORT + 9))
BASE="http://127.0.0.1:${KCROSS_PORT}"
KCROSS_LOG=$(mktemp)
"$BIN" --port "$KCROSS_PORT" --synth 30x2 --k 3 --ell 3 --grow >"$KCROSS_LOG" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; cat "$KCROSS_LOG"; rm -rf "$DATA_DIR"' EXIT
for _ in $(seq 1 100); do
  grep -q "listening on" "$KCROSS_LOG" && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "k-crossing server died during startup"; exit 1; }
  sleep 0.1
done
grep -q "listening on" "$KCROSS_LOG" || { echo "k-crossing server never became ready"; exit 1; }
version=$(request GET /v1/stats 200 | jq -e -r 'select(.n_items == 2) | .version')
request POST /v1/rate 202 '{"user":0,"item":2,"rating":4}' >/dev/null
request POST /v1/rate 202 '{"user":1,"item":0,"rating":3}' >/dev/null
request POST /v1/rate 202 '{"user":2,"item":1,"rating":5}' >/dev/null
# `pending` drops when a pass drains the journal, before it installs, so
# wait for the version as well.
stats=""
for _ in $(seq 1 100); do
  stats=$(request GET /v1/stats 200)
  jq -e '.pending == 0 and .version >= '"$((version + 3))" <<<"$stats" >/dev/null && break
  sleep 0.1
done
jq -e '.pending == 0 and .version == '"$((version + 3))"' and .n_items == 3
  and .refresh_cold >= 1 and (has("admission_splits") | not)' <<<"$stats" >/dev/null \
  || { echo "FAIL: k-crossing admission: $stats"; exit 1; }
kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
trap 'rm -rf "$DATA_DIR"' EXIT

# ---------------------------------------------------------------------------
# A retired flag fails loudly: --max-swaps (the old capped repair budget)
# no longer exists, so a deployment still passing it must exit 2 with the
# usage line instead of booting with the flag silently ignored.
# ---------------------------------------------------------------------------
echo "== retired flag: --max-swaps is rejected =="
RETIRED_LOG=$(mktemp)
status=0
timeout 30 "$BIN" --max-swaps 1 --data "$FIXTURE" --port $((PORT + 8)) >"$RETIRED_LOG" 2>&1 \
  || status=$?
[ "$status" -eq 2 ] || { echo "FAIL: --max-swaps exited $status (expected 2)"; cat "$RETIRED_LOG"; exit 1; }
grep -q '^usage: gf-serve' "$RETIRED_LOG" \
  || { echo "FAIL: --max-swaps printed no usage line"; cat "$RETIRED_LOG"; exit 1; }
if grep -q "listening on" "$RETIRED_LOG"; then
  echo "FAIL: a server given --max-swaps started listening"; exit 1
fi
rm -f "$RETIRED_LOG"

echo "serve smoke: all checks passed"
