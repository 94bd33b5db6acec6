#!/usr/bin/env bash
# Chaos/recovery smoke test for the serving stack (DESIGN.md §9).
#
# Phase 1 — crash recovery: boot liteserve with the feedback WAL fsyncing
# every append, post feedback, SIGKILL the process mid-retrain, restart it
# on the same state and assert that (a) every acked-but-unfolded feedback
# record is recovered, (b) the snapshot left behind loads (the restart
# resumes the adapted model), and (c) serving works immediately after.
# liteload runs across the restart window and reports how many requests
# failed while the server was down (down column) and the time to first
# success after the restart (ttfs column).
#
# Phase 2 — poisoned update: restart with -chaos-corrupt-every 1 so every
# retrained candidate has NaN weights, post feedback, and assert the
# validation gate rejects the hot-swap: the serving generation does not
# move, the batch lands in the quarantine file, and retrain backoff arms.
#
# A summary is written to chaos_report.txt (CHAOS_REPORT overrides).
set -euo pipefail

cd "$(dirname "$0")/.."

report="${CHAOS_REPORT:-chaos_report.txt}"
workdir="$(mktemp -d)"
pid=""
loadpid=""

cleanup() {
    for p in "$pid" "$loadpid"; do
        if [[ -n "$p" ]] && kill -0 "$p" 2>/dev/null; then
            kill "$p" 2>/dev/null || true
            wait "$p" 2>/dev/null || true
        fi
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "chaos-smoke: FAIL: $*" >&2
    [[ -f "$report" ]] && cat "$report" >&2
    exit 1
}

# metric FILE NAME → value (0 when the series does not exist yet).
metric() {
    awk -v n="$2" '$1==n {v=$2; found=1} END {print found ? v : 0}' "$1"
}

# wait_ready LOGFILE PID → echoes the base URL once the server prints it.
wait_ready() {
    local logfile=$1 spid=$2 base=""
    for _ in $(seq 1 240); do
        if ! kill -0 "$spid" 2>/dev/null; then
            echo "chaos-smoke: liteserve exited early:" >&2
            cat "$logfile" >&2
            return 1
        fi
        base="$(sed -n 's|^liteserve: listening on \(http://[^ ]*\).*|\1|p' "$logfile" | head -n1)"
        [[ -n "$base" ]] && { echo "$base"; return 0; }
        sleep 0.5
    done
    echo "chaos-smoke: server never became ready:" >&2
    cat "$logfile" >&2
    return 1
}

scrape() { curl -s "$1/metrics" -o "$2" || fail "scraping $1/metrics"; }

echo "chaos-smoke: building liteserve and liteload…"
go build -o "$workdir/liteserve" ./cmd/liteserve
go build -o "$workdir/liteload" ./cmd/liteload

: >"$report"
echo "chaos smoke report — $(date -u +%Y-%m-%dT%H:%M:%SZ)" >>"$report"

############################################################################
echo "chaos-smoke: phase 1 — crash recovery"
wal1="$workdir/wal1"
snap1="$workdir/model1.json"
log1="$workdir/phase1-a.log"
# Validation off in this phase so feedback accounting is exactly
# records − folded; phase 2 exercises the gate.
serve_flags=(-configs 2 -train-sizes 1 -update-batch 4
    -wal-dir "$wal1" -wal-sync-every 1 -snapshot "$snap1" -no-validation)
"$workdir/liteserve" -addr 127.0.0.1:0 "${serve_flags[@]}" >"$log1" 2>&1 &
pid=$!
base="$(wait_ready "$log1" "$pid")" || fail "phase 1 boot"
addr="${base#http://}"
echo "chaos-smoke: phase 1 server at $base"

# 7 feedbacks against batch size 4: the first 4 may fold into generation 1,
# the last 3 can never fold before the kill — so with every append fsynced,
# recovery must replay between 3 and 7 records.
posted=7
for _ in $(seq 1 "$posted"); do
    code="$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
        -d '{"app":"WordCount","size_mb":512,"cluster":"C"}' "$base/v1/feedback")"
    [[ "$code" == "200" ]] || fail "phase 1 POST /v1/feedback returned $code"
done

scrape "$base" "$workdir/prekill.metrics"
records_prekill="$(metric "$workdir/prekill.metrics" lite_wal_records_total)"
folded_prekill="$(metric "$workdir/prekill.metrics" lite_feedback_folded_total)"
[[ "$records_prekill" == "$posted" ]] || fail "WAL acked $records_prekill records, posted $posted"

# SIGKILL while the first batch's retrain is (likely) in flight, with
# liteload running through the outage so the report shows the restart
# window from the client's side.
"$workdir/liteload" -url "$base" -n 2000 -c 2 -timeout 2s >"$workdir/liteload.out" 2>/dev/null &
loadpid=$!
sleep 0.3
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "chaos-smoke: SIGKILLed liteserve (records=$records_prekill folded=$folded_prekill)"

log2="$workdir/phase1-b.log"
"$workdir/liteserve" -addr "$addr" "${serve_flags[@]}" >"$log2" 2>&1 &
pid=$!
base2="$(wait_ready "$log2" "$pid")" || fail "phase 1 restart"
[[ "$base2" == "$base" ]] || fail "restart bound $base2, expected $base"

grep -q "resumed adapted model from snapshot" "$log2" \
    || fail "restart did not load the snapshot the crash left behind"
recovered="$(sed -n 's/^liteserve: WAL recovery: \([0-9]*\) records replayed.*/\1/p' "$log2" | head -n1)"
[[ -n "$recovered" ]] || fail "restart printed no WAL recovery line"
lo=$((posted - folded_prekill - 8)); [[ $lo -lt 3 ]] && lo=3
[[ "$recovered" -ge "$lo" && "$recovered" -le "$posted" ]] \
    || fail "recovered $recovered records, want between $lo and $posted (fsynced feedback must survive SIGKILL)"

code="$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d '{"app":"WordCount","size_mb":512,"cluster":"C"}' "$base/v1/recommend")"
[[ "$code" == "200" ]] || fail "POST /v1/recommend after restart returned $code"

wait "$loadpid" || true
loadpid=""
down="$(awk '/^remote /{print $6}' "$workdir/liteload.out")"

{
    echo ""
    echo "phase 1 (SIGKILL mid-retrain, restart on same WAL + snapshot):"
    echo "  feedback posted:            $posted"
    echo "  folded before kill:         $folded_prekill"
    echo "  WAL records recovered:      $recovered (bound: $lo..$posted)"
    echo "  snapshot resume:            ok (loadable after SIGKILL)"
    echo "  requests failed while down: ${down:--}"
    echo ""
    echo "  liteload report across the restart window:"
    sed 's/^/    /' "$workdir/liteload.out"
} >>"$report"

kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
pid=""

############################################################################
echo "chaos-smoke: phase 2 — poisoned update is rejected and quarantined"
wal2="$workdir/wal2"
snap2="$workdir/model2.json"
log3="$workdir/phase2.log"
cp "$snap1" "$snap2" # resume the adapted model: no boot training
"$workdir/liteserve" -addr 127.0.0.1:0 -update-batch 2 \
    -wal-dir "$wal2" -wal-sync-every 1 -snapshot "$snap2" \
    -validation-cases 2 -chaos-corrupt-every 1 >"$log3" 2>&1 &
pid=$!
base="$(wait_ready "$log3" "$pid")" || fail "phase 2 boot"
echo "chaos-smoke: phase 2 server at $base"

scrape "$base" "$workdir/pre.metrics"
gen_before="$(metric "$workdir/pre.metrics" lite_snapshot_generation)"

for _ in 1 2; do
    code="$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
        -d '{"app":"KMeans","size_mb":512,"cluster":"B"}' "$base/v1/feedback")"
    [[ "$code" == "200" ]] || fail "phase 2 POST /v1/feedback returned $code"
done

rejected=0
for _ in $(seq 1 240); do
    scrape "$base" "$workdir/post.metrics"
    rejected="$(metric "$workdir/post.metrics" lite_hotswap_rejected_total)"
    [[ "$rejected" -ge 1 ]] && break
    sleep 0.5
done
[[ "$rejected" -ge 1 ]] || fail "validation gate never rejected the poisoned candidate"

gen_after="$(metric "$workdir/post.metrics" lite_snapshot_generation)"
backoff="$(metric "$workdir/post.metrics" lite_retrain_backoff_seconds)"
quarantined="$(metric "$workdir/post.metrics" lite_feedback_quarantined_total)"
[[ "$gen_after" == "$gen_before" ]] \
    || fail "generation moved $gen_before -> $gen_after despite rejected swap"
[[ -s "$wal2/quarantine.jsonl" ]] || fail "rejected batch missing from quarantine file"
awk "BEGIN{exit !($backoff > 0)}" || fail "retrain backoff gauge is $backoff, want > 0"

code="$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d '{"app":"KMeans","size_mb":512,"cluster":"B"}' "$base/v1/recommend")"
[[ "$code" == "200" ]] || fail "serving broken after rejected swap ($code)"

{
    echo ""
    echo "phase 2 (every retrain candidate NaN-poisoned via -chaos-corrupt-every 1):"
    echo "  hot-swaps rejected:   $rejected"
    echo "  serving generation:   $gen_before (unchanged)"
    echo "  feedback quarantined: $quarantined ($(wc -l <"$wal2/quarantine.jsonl") quarantine entries)"
    echo "  retrain backoff:      ${backoff}s"
    echo ""
    echo "chaos-smoke: OK"
} >>"$report"

kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
pid=""

cat "$report"
echo "chaos-smoke: OK (report: $report)"
