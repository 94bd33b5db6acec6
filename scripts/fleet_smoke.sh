#!/usr/bin/env bash
# Fleet smoke test for the sharded serving tier (DESIGN.md §10).
#
# Boots a 3-shard litefleet, drives feedback until the trainer publishes a
# retrained generation and the coordinator flips it fleet-wide, runs one
# tuning-session lifecycle on a follower-owned key (create → proposals →
# improving reports → close) and asserts the promotions are teed to the
# trainer and flip a new generation fleet-wide, then SIGKILLs one follower shard while liteload hammers the router and
# asserts:
#
#   (a) re-route: the dead shard's arc moves to ring successors — the load
#       run sees zero hard errors and the router counts ejections/re-routes,
#   (b) recovery: the supervisor respawns the shard on a fresh ephemeral
#       port and the health checker re-admits it (3/3 up again),
#   (c) convergence: after recovery every shard reports the same model
#       generation (the coordinator re-flips the restarted shard, which
#       came back at generation 0).
#
# A summary is written to fleet_report.txt (FLEET_REPORT overrides).
set -euo pipefail

cd "$(dirname "$0")/.."

report="${FLEET_REPORT:-fleet_report.txt}"
workdir="$(mktemp -d)"
pid=""
loadpid=""

cleanup() {
    for p in "$loadpid" "$pid"; do
        if [[ -n "$p" ]] && kill -0 "$p" 2>/dev/null; then
            kill "$p" 2>/dev/null || true
            wait "$p" 2>/dev/null || true
        fi
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "fleet-smoke: FAIL: $*" >&2
    [[ -n "$pid" ]] && tail -n 40 "$workdir/fleet.log" >&2
    [[ -f "$report" ]] && cat "$report" >&2
    exit 1
}

# metric FILE NAME → value (0 when the series does not exist yet).
metric() {
    awk -v n="$2" '$1==n {v=$2; found=1} END {print found ? v : 0}' "$1"
}

scrape() { curl -s "$1/metrics" -o "$2" || fail "scraping $1/metrics"; }

# healthz FIELD → python-free JSON field extraction via the fleet healthz
# body; generations prints every shard's generation, one per line.
fleet_health() { curl -s "$base/v1/healthz"; }
up_count()     { fleet_health | sed -n 's/.*"up":\([0-9]*\),"shards".*/\1/p'; }
generations()  { fleet_health | grep -o '"generation":[0-9]*' | cut -d: -f2; }

echo "fleet-smoke: building litefleet, liteserve and liteload…"
go build -o "$workdir/litefleet" ./cmd/litefleet
go build -o "$workdir/liteserve" ./cmd/liteserve
go build -o "$workdir/liteload" ./cmd/liteload

: >"$report"
echo "fleet smoke report — $(date -u +%Y-%m-%dT%H:%M:%SZ)" >>"$report"

############################################################################
echo "fleet-smoke: booting a 3-shard fleet"
fleetdir="$workdir/fleet"
log="$workdir/fleet.log"
"$workdir/litefleet" -addr 127.0.0.1:0 -shards 3 -dir "$fleetdir" \
    -configs 2 -train-sizes 1 -update-batch 4 -no-validation \
    -probe-interval 100ms -fail-after 2 -recover-after 2 >"$log" 2>&1 &
pid=$!

base=""
for _ in $(seq 1 240); do
    kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; fail "litefleet exited during boot"; }
    addr="$(sed -n 's/^litefleet: listening addr=\(.*\)$/\1/p' "$log" | head -n1)"
    [[ -n "$addr" ]] && { base="http://$addr"; break; }
    sleep 0.5
done
[[ -n "$base" ]] || fail "router never printed its listening addr"
echo "fleet-smoke: router at $base"

for _ in $(seq 1 240); do
    [[ "$(up_count)" == "3" ]] && break
    sleep 0.5
done
[[ "$(up_count)" == "3" ]] || fail "fleet never reached 3/3 shards up"
echo "fleet-smoke: 3/3 shards up"

############################################################################
echo "fleet-smoke: driving feedback until a retrained generation flips fleet-wide"
# update-batch is 4; feedback hashed to followers is teed to the trainer, so
# 8 posts across two keys guarantee at least one trainer retrain.
for i in $(seq 1 8); do
    app='{"app":"WordCount","size_mb":512,"cluster":"C"}'
    [[ $((i % 2)) == 0 ]] && app='{"app":"KMeans","size_mb":1024,"cluster":"B"}'
    code="$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
        -d "$app" "$base/v1/feedback")"
    [[ "$code" == "200" ]] || fail "POST /v1/feedback returned $code"
done

flipped_gen=""
for _ in $(seq 1 240); do
    gens="$(generations | sort -u)"
    if [[ "$(echo "$gens" | wc -l)" == "1" && "$gens" != "0" && "$(up_count)" == "3" ]]; then
        flipped_gen="$gens"
        break
    fi
    sleep 0.5
done
[[ -n "$flipped_gen" ]] || fail "fleet never converged on a retrained generation (generations: $(generations | tr '\n' ' '))"
echo "fleet-smoke: fleet converged on generation $flipped_gen"

############################################################################
echo "fleet-smoke: tuning session on a follower-owned key"

sess_id=""
sess_owner=""
for combo in '{"app":"WordCount","size_mb":512,"cluster":"C","strategy":"moderate","max_trials":10}' \
             '{"app":"KMeans","size_mb":1024,"cluster":"B","strategy":"moderate","max_trials":10}' \
             '{"app":"PageRank","size_mb":2048,"cluster":"A","strategy":"moderate","max_trials":10}' \
             '{"app":"TeraSort","size_mb":4096,"cluster":"C","strategy":"moderate","max_trials":10}'; do
    curl -s -D "$workdir/sess.hdr" -o "$workdir/sess.json" -X POST -H 'Content-Type: application/json' \
        -d "$combo" "$base/v1/tuning/sessions" || fail "creating session"
    owner="$(awk -F': ' 'tolower($1)=="x-lite-shard" {print $2}' "$workdir/sess.hdr" | tr -d '\r' | head -n1)"
    id="$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$workdir/sess.json")"
    if [[ -n "$id" && -n "$owner" && "$owner" != "shard0" ]]; then
        sess_id="$id"
        sess_owner="$owner"
        break
    fi
    [[ -n "$id" ]] && curl -s -o /dev/null -X DELETE "$base/v1/tuning/sessions/$id"
done
[[ -n "$sess_id" ]] || fail "no session key hashed to a follower shard"
echo "fleet-smoke: session $sess_id owned by follower $sess_owner"

# Drive the lifecycle: trial 0 measures the baseline, every later trial
# "measures" a strict improvement, so each one promotes through the
# feedback path. Reports stay far below the abort_after_seconds guard-rail.
promotions=0
for _ in $(seq 0 7); do
    curl -s -o "$workdir/prop.json" -X POST "$base/v1/tuning/sessions/$sess_id/proposal" \
        || fail "requesting proposal"
    trial="$(sed -n 's/.*"trial":\([0-9]*\).*/\1/p' "$workdir/prop.json" | head -n1)"
    [[ -n "$trial" ]] || fail "proposal carried no trial: $(cat "$workdir/prop.json")"
    curl -s -o "$workdir/result.json" -X POST -H 'Content-Type: application/json' \
        -d "{\"trial\":$trial,\"seconds\":$((100 - trial))}" \
        "$base/v1/tuning/sessions/$sess_id/result" || fail "reporting result"
    grep -q "\"session_id\":\"$sess_id\"" "$workdir/result.json" \
        || fail "result not acknowledged: $(cat "$workdir/result.json")"
    grep -q '"promoted":true' "$workdir/result.json" && promotions=$((promotions + 1))
done
[[ "$promotions" -ge 4 ]] || fail "session promoted $promotions wins, want >= 4 (one per improving trial)"

curl -s -o /dev/null -X DELETE "$base/v1/tuning/sessions/$sess_id" || fail "closing session"
curl -s "$base/v1/tuning/sessions" | grep -q "$sess_id" \
    || fail "closed session missing from the fleet-wide list"

# The promotions happened on a follower; the router tees each one to the
# trainer, whose update loop retrains and the coordinator flips the new
# generation fleet-wide — the promotion is visible everywhere.
scrape "$base" "$workdir/sess-post.metrics"
teed="$(metric "$workdir/sess-post.metrics" lite_fleet_session_promotions_teed_total)"
[[ "$teed" -ge "$promotions" ]] || fail "only $teed of $promotions promotions teed to the trainer"

session_gen=""
for _ in $(seq 1 240); do
    gens="$(generations | sort -u)"
    if [[ "$(echo "$gens" | wc -l)" == "1" && "$gens" -gt "$flipped_gen" ]]; then
        session_gen="$gens"
        break
    fi
    sleep 0.5
done
[[ -n "$session_gen" ]] || fail "promotions never produced a fleet-wide flip past generation $flipped_gen (generations: $(generations | tr '\n' ' '))"
echo "fleet-smoke: session promotions flipped the fleet to generation $session_gen"
flipped_gen="$session_gen"

############################################################################
echo "fleet-smoke: SIGKILLing a follower under load"
victim_pid="$(sed -n 's/.*shard id=shard1 pid=\([0-9]*\).*/\1/p' "$log" | head -n1)"
[[ -n "$victim_pid" ]] || fail "could not find shard1's pid in the supervisor log"

scrape "$base" "$workdir/pre.metrics"
restarts_before="$(metric "$workdir/pre.metrics" 'lite_fleet_shard_restarts_total{shard="shard1"}')"
ring_moves_before="$(metric "$workdir/pre.metrics" lite_fleet_ring_moves_total)"

"$workdir/liteload" -url "$base" -n 1200 -c 8 -keys 8 -timeout 5s >"$workdir/liteload.out" 2>/dev/null &
loadpid=$!
sleep 0.5
kill -9 "$victim_pid"
echo "fleet-smoke: killed shard1 (pid $victim_pid) mid-load"

wait "$loadpid" || true
loadpid=""

errors="$(awk '/^remote /{print $3}' "$workdir/liteload.out")"
down="$(awk '/^remote /{print $6}' "$workdir/liteload.out")"
[[ "$errors" == "0" ]] || fail "liteload saw $errors hard errors across the shard kill (want 0: arc must re-route)"
[[ "${down:-0}" == "0" ]] || fail "liteload saw $down connection failures — the router itself must stay up"

scrape "$base" "$workdir/post.metrics"
ejections="$(metric "$workdir/post.metrics" lite_fleet_ejections_total)"
rerouted="$(metric "$workdir/post.metrics" lite_fleet_rerouted_total)"
[[ "$ejections" -ge 1 ]] || fail "dead shard was never ejected (ejections=$ejections)"

############################################################################
echo "fleet-smoke: waiting for supervisor restart + re-admission + re-flip"
recovered=""
for _ in $(seq 1 240); do
    gens="$(generations | sort -u)"
    if [[ "$(up_count)" == "3" && "$(echo "$gens" | wc -l)" == "1" && "$gens" != "0" ]]; then
        recovered="$gens"
        break
    fi
    sleep 0.5
done
[[ -n "$recovered" ]] || fail "fleet never recovered to 3/3 up on one generation (up=$(up_count), generations: $(generations | tr '\n' ' '))"
[[ "$recovered" -ge "$flipped_gen" ]] || fail "fleet generation went backwards: $flipped_gen -> $recovered"

scrape "$base" "$workdir/final.metrics"
restarts_after="$(metric "$workdir/final.metrics" 'lite_fleet_shard_restarts_total{shard="shard1"}')"
ring_moves_after="$(metric "$workdir/final.metrics" lite_fleet_ring_moves_total)"
[[ "$restarts_after" -gt "$restarts_before" ]] || fail "supervisor never restarted shard1"
# The kill ejects shard1 (one ring move) and the supervisor's respawn
# re-admits it (a second): the ring must have moved at least twice.
[[ "$ring_moves_after" -ge $((ring_moves_before + 2)) ]] \
    || fail "ring moves $ring_moves_before -> $ring_moves_after, want >= +2 (eject + re-admit)"

code="$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d '{"app":"PageRank","size_mb":2048,"cluster":"A"}' "$base/v1/recommend")"
[[ "$code" == "200" ]] || fail "POST /v1/recommend after recovery returned $code"

# The unversioned routes are gone from the router too: the legacy path
# answers 404 with the error envelope instead of being proxied.
code="$(curl -s -o "$workdir/legacy.json" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d '{"app":"PageRank","size_mb":2048,"cluster":"A"}' "$base/recommend")"
[[ "$code" == "404" ]] && grep -q '"not_found"' "$workdir/legacy.json" \
    || fail "legacy POST /recommend did not answer the 404 envelope ($code): $(cat "$workdir/legacy.json")"

{
    echo ""
    echo "tuning session on follower $sess_owner ($sess_id):"
    echo "  promotions from improving trials: $promotions"
    echo "  promotions teed to the trainer:   $teed"
    echo "  fleet flipped to generation:      $flipped_gen (promotion visible fleet-wide)"
    echo ""
    echo "3-shard fleet, shard1 SIGKILLed under load (1200 reqs, 8 workers):"
    echo "  hard errors during the kill:  ${errors:-?} (want 0 — arc re-routed to successors)"
    echo "  router connection failures:   ${down:-0}"
    echo "  shard ejections:              $ejections"
    echo "  requests re-routed:           $rerouted"
    echo "  shard1 supervisor restarts:   $((restarts_after - restarts_before))"
    echo "  ring moves (eject+re-admit):  $((ring_moves_after - ring_moves_before))"
    echo "  generation before kill:       $flipped_gen"
    echo "  generation after recovery:    $recovered (single fleet-wide value)"
    echo ""
    echo "  liteload report across the kill window:"
    sed 's/^/    /' "$workdir/liteload.out"
    echo ""
    echo "fleet-smoke: OK"
} >>"$report"

kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
pid=""

cat "$report"
echo "fleet-smoke: OK (report: $report)"
