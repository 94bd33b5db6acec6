GO ?= go

.PHONY: build test vet race lint verify serve-smoke chaos-smoke fleet-smoke bench bench-parallel bench-regression clean

build:
	$(GO) build ./...

# Tests run shuffled so accidental inter-test ordering dependencies
# (shared state, leftover goroutines) surface in CI instead of in prod.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -shuffle=on ./...

# lint enforces the exported-comment rule (internal/tools/exportlint, a
# dependency-free revive/ST1020 equivalent): every exported symbol in the
# library packages must carry a godoc comment starting with its name.
lint:
	$(GO) run ./internal/tools/exportlint $(wildcard internal/*) pkg/api pkg/client

# verify is the tier-1 gate plus the serving-stack race check: everything
# must compile, every test pass, every exported symbol be documented, and
# the concurrent read/hot-swap paths be clean under the race detector. The
# serving benchmark is a module of its own (servebench/go.mod) that the root
# ./... skips, so it is vetted and short-tested separately: it compiles
# against serve.Options and must keep doing so.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) run ./internal/tools/exportlint $(wildcard internal/*) pkg/api pkg/client
	$(GO) test -shuffle=on ./...
	$(GO) test -race -shuffle=on ./internal/serve/... ./internal/core/... ./internal/fleet/... ./internal/retrieval/... ./internal/nn/...
	$(GO) -C servebench vet ./...
	$(GO) -C servebench test -short ./...

# serve-smoke boots liteserve on a random port, issues one /recommend and
# one /feedback request, and asserts both return 200.
serve-smoke:
	./scripts/serve_smoke.sh

# chaos-smoke SIGKILLs liteserve mid-retrain and asserts recovery: no
# fsynced feedback lost, snapshot loadable, poisoned updates rejected and
# quarantined. Writes chaos_report.txt (see DESIGN.md §9).
chaos-smoke:
	./scripts/chaos_smoke.sh

# fleet-smoke boots a 3-shard litefleet, SIGKILLs one shard under load and
# asserts re-route (zero client errors), supervisor restart + ring
# re-admission, and fleet-wide generation convergence after the hot-swap.
# Writes fleet_report.txt (see DESIGN.md §10).
fleet-smoke:
	./scripts/fleet_smoke.sh

bench:
	$(GO) test -bench=. -benchmem -benchtime 1x -timeout 45m

# bench-parallel runs only the scoring/training parallelism benchmarks and
# writes BENCH_parallel.json (see DESIGN.md §7 and README "Performance").
bench-parallel:
	./scripts/bench.sh

# bench-regression re-runs the single-core recommendation benchmark and
# fails if it regressed >2x against the committed BENCH_parallel.json
# baseline (see BENCHMARKS.md). Writes bench_regression.txt.
bench-regression:
	./scripts/bench_regression.sh

clean:
	$(GO) clean ./...
	rm -f lite-tuner.json chaos_report.txt fleet_report.txt bench_regression.txt
