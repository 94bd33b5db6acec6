#!/usr/bin/env bash
# Smoke test for liteserve: boot on a random port with a minimal
# boot-trained model, issue one /v1/recommend and one /v1/feedback request
# (asserting both answer 200), check that the removed unversioned routes
# answer 404 with the error envelope, then run a full /v1 tuning-session
# lifecycle and one error-envelope check.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
logfile="$workdir/liteserve.log"
pid=""

cleanup() {
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "serve-smoke: building liteserve…"
go build -o "$workdir/liteserve" ./cmd/liteserve

echo "serve-smoke: starting on a random port (quick boot-training, float32 serving)…"
# -f32 exercises the packed float32 inference plan end to end (DESIGN.md
# §12): every response below is served by the f32 tower kernel.
"$workdir/liteserve" -addr 127.0.0.1:0 -configs 2 -train-sizes 1 -f32 >"$logfile" 2>&1 &
pid=$!

# The server prints "liteserve: listening on http://ADDR (…)" once ready.
base=""
for _ in $(seq 1 120); do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: liteserve exited early:" >&2
        cat "$logfile" >&2
        exit 1
    fi
    base="$(sed -n 's|^liteserve: listening on \(http://[^ ]*\).*|\1|p' "$logfile" | head -n1)"
    [[ -n "$base" ]] && break
    sleep 0.5
done
if [[ -z "$base" ]]; then
    echo "serve-smoke: server never became ready:" >&2
    cat "$logfile" >&2
    exit 1
fi
echo "serve-smoke: server ready at $base"

code="$(curl -s -o "$workdir/recommend.json" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' \
    -d '{"app":"WordCount","size_mb":512,"cluster":"C"}' \
    "$base/v1/recommend")"
if [[ "$code" != "200" ]]; then
    echo "serve-smoke: POST /v1/recommend returned $code" >&2
    cat "$workdir/recommend.json" >&2
    exit 1
fi
echo "serve-smoke: /v1/recommend 200 ($(head -c 120 "$workdir/recommend.json")…)"

code="$(curl -s -o "$workdir/feedback.json" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' \
    -d '{"app":"WordCount","size_mb":512,"cluster":"C"}' \
    "$base/v1/feedback")"
if [[ "$code" != "200" ]]; then
    echo "serve-smoke: POST /v1/feedback returned $code" >&2
    cat "$workdir/feedback.json" >&2
    exit 1
fi
echo "serve-smoke: /v1/feedback 200 ($(cat "$workdir/feedback.json"))"

# The unversioned routes are gone: each answers 404 with the envelope.
for path in /recommend /feedback; do
    code="$(curl -s -o "$workdir/legacy.json" -w '%{http_code}' \
        -X POST -H 'Content-Type: application/json' \
        -d '{"app":"WordCount","size_mb":512,"cluster":"C"}' \
        "$base$path")"
    if [[ "$code" != "404" ]] || ! grep -q '"not_found"' "$workdir/legacy.json"; then
        echo "serve-smoke: legacy POST $path did not answer the 404 envelope ($code): $(cat "$workdir/legacy.json")" >&2
        exit 1
    fi
done
echo "serve-smoke: legacy /recommend and /feedback answer the 404 envelope"

# Full /v1 tuning-session lifecycle: create → baseline proposal → report →
# second proposal (now carrying the abort_after_seconds guard-rail) →
# report an improvement → close.
code="$(curl -s -o "$workdir/sess.json" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' \
    -d '{"app":"WordCount","size_mb":512,"cluster":"C","strategy":"moderate","max_trials":4}' \
    "$base/v1/tuning/sessions")"
if [[ "$code" != "201" ]]; then
    echo "serve-smoke: POST /v1/tuning/sessions returned $code" >&2
    cat "$workdir/sess.json" >&2
    exit 1
fi
sess_id="$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$workdir/sess.json")"
if [[ -z "$sess_id" ]]; then
    echo "serve-smoke: session create returned no id: $(cat "$workdir/sess.json")" >&2
    exit 1
fi
echo "serve-smoke: session created ($sess_id)"

for trial in 0 1; do
    code="$(curl -s -o "$workdir/prop.json" -w '%{http_code}' \
        -X POST "$base/v1/tuning/sessions/$sess_id/proposal")"
    if [[ "$code" != "200" ]]; then
        echo "serve-smoke: proposal returned $code: $(cat "$workdir/prop.json")" >&2
        exit 1
    fi
    if [[ "$trial" == "1" ]] && ! grep -q '"abort_after_seconds"' "$workdir/prop.json"; then
        echo "serve-smoke: post-baseline proposal missing the abort_after_seconds guard-rail: $(cat "$workdir/prop.json")" >&2
        exit 1
    fi
    code="$(curl -s -o "$workdir/result.json" -w '%{http_code}' \
        -X POST -H 'Content-Type: application/json' \
        -d "{\"trial\":$trial,\"seconds\":$((100 - trial))}" \
        "$base/v1/tuning/sessions/$sess_id/result")"
    if [[ "$code" != "200" ]]; then
        echo "serve-smoke: result returned $code: $(cat "$workdir/result.json")" >&2
        exit 1
    fi
done
if ! grep -q '"promoted":true' "$workdir/result.json"; then
    echo "serve-smoke: improving trial was not promoted: $(cat "$workdir/result.json")" >&2
    exit 1
fi
code="$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "$base/v1/tuning/sessions/$sess_id")"
if [[ "$code" != "200" ]]; then
    echo "serve-smoke: DELETE session returned $code" >&2
    exit 1
fi
echo "serve-smoke: session lifecycle OK (proposal → report → promotion → close)"

# A never-seen app with embeddable features must be served by the
# retrieval cold-start tier (DESIGN.md §13), not rejected with a 400: the
# boot-trained dataset seeds the retrieval store, and these WordCount-like
# tokens should land on a WordCount-family neighbour.
code="$(curl -s -o "$workdir/cold.json" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' \
    -d '{"app":"BrandNewLogCounter","size_mb":2048,"cluster":"C","features":{"code":"val lines = sc.textFile(inputPath)\nval words = lines.flatMap(line => line.split(\" \")).map(word => (word, 1L))\nval counts = words.reduceByKey(_ + _)\ncounts.saveAsTextFile(outputPath)","ops":["textFile","flatMap","map","reduceByKey"]}}' \
    "$base/v1/recommend")"
if [[ "$code" != "200" ]]; then
    echo "serve-smoke: never-seen-app /v1/recommend returned $code: $(cat "$workdir/cold.json")" >&2
    exit 1
fi
if ! grep -q '"tier":"retrieval"' "$workdir/cold.json"; then
    echo "serve-smoke: never-seen app was not served from the retrieval tier: $(cat "$workdir/cold.json")" >&2
    exit 1
fi
echo "serve-smoke: never-seen app served 200 from retrieval tier ($(head -c 120 "$workdir/cold.json")…)"

# Every /v1 failure answers with the unified error envelope.
code="$(curl -s -o "$workdir/err.json" -w '%{http_code}' \
    "$base/v1/tuning/sessions/no.1.C.00000000")"
if [[ "$code" != "404" ]] || ! grep -q '"error"' "$workdir/err.json" \
    || ! grep -q '"not_found"' "$workdir/err.json"; then
    echo "serve-smoke: unknown-id error was not the envelope ($code): $(cat "$workdir/err.json")" >&2
    exit 1
fi
echo "serve-smoke: error envelope OK ($(cat "$workdir/err.json" | head -c 120))"

echo "serve-smoke: OK"
