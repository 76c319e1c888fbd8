GO ?= go

.PHONY: all build test race lint lint-ignores lint-graph bench bench-json bench-allocs bench-gate bench-baseline vet fmt clean crash scenarios fuzz perfbench-test examples

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race -count=1 ./...

# Durability gate: the full crash matrices (power cut at every journal
# write on both ends), torn-tail truncation, and journal-failure
# rejection tests, under the race detector.
crash:
	$(GO) test -race -count=1 -run 'Crash|Torn|Journal|Recovery|Corrupt' \
		./internal/wal/ ./internal/crashfs/ ./internal/venus/ ./internal/server/ ./internal/cml/ ./internal/group/

# Scenario gate: the declarative corpus (parse, validate, run, golden
# dumps, determinism) plus the generated chaos matrix — the crash-point
# x victim x link-churn sweep expanded from crash_matrix.scn — all
# under the race detector. `codascn run` then executes the runnable
# corpus through the CLI path as well.
scenarios:
	$(GO) test -race -count=1 ./internal/scenario/
	$(GO) run ./cmd/codascn validate internal/scenario/testdata/scenarios
	$(GO) run ./cmd/codascn matrix -run internal/scenario/testdata/scenarios/crash_matrix.scn

# Example gate: every examples/* program end to end, each under a
# 120 s real-time bound, so a simulation that freezes fails the target
# instead of hanging it.
EXAMPLES := $(notdir $(wildcard examples/*))
examples:
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
	$(GO) build -o "$$bin/" ./examples/... && \
	for e in $(EXAMPLES); do \
		echo "== examples/$$e"; \
		timeout 120 "$$bin/$$e" || { echo "examples/$$e: exit $$?" >&2; exit 1; }; \
	done

# Fuzz gate: each fuzzer for a fixed budget on top of its committed
# seed corpus (go test runs one -fuzz target per invocation).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDeliverData$$' -fuzztime $(FUZZTIME) ./internal/sftp/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeAck$$' -fuzztime $(FUZZTIME) ./internal/sftp/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodePacket$$' -fuzztime $(FUZZTIME) ./internal/rpc2/
	$(GO) test -run='^$$' -fuzz='^FuzzLoad$$' -fuzztime $(FUZZTIME) ./internal/cml/
	$(GO) test -run='^$$' -fuzz='^FuzzParseScenario$$' -fuzztime $(FUZZTIME) ./internal/scenario/

# perfbench is its own module (replace repro => ../), so `go test ./...`
# at the root does not reach it.
perfbench-test:
	cd perfbench && $(GO) test -count=1 ./...

# Same wall-clock budget as CI so a local `make lint` catches an
# analysis-time regression before the workflow does.
lint:
	$(GO) run ./cmd/codalint -deadline 60s ./...

# Audit of every //codalint:ignore suppression (file:line, analyzer,
# reason).
lint-ignores:
	$(GO) run ./cmd/codalint -ignores ./...

# Whole-program lock-order graph as Graphviz DOT (weak/conditional
# holds dashed). Pipe to `dot -Tsvg` to render.
lint-graph:
	$(GO) run ./cmd/codalint -lockgraph ./...

bench:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

# Machine-readable benchmark run: every figure's series plus a
# deterministic metrics-registry snapshot per run, as one JSON file.
bench-json:
	$(GO) run ./cmd/codabench -quick -json bench.json

# Alloc-fenced benchmark sweep. -benchtime=200x fixes the iteration
# count so AllocsPerOp (and B/op, where amortized growth is charged)
# is reproducible run to run — a prerequisite for gating it strictly.
# BenchmarkReplicatedReintegrate rides along: a whole-sim benchmark, but
# deterministic for the same reason, pinning the replicated
# reintegration path's allocation budget.
bench-allocs:
	$(GO) test -run='^$$' -bench='BenchmarkAlloc|BenchmarkReplicatedReintegrate' -benchmem -benchtime=200x ./... | tee bench_allocs.txt

# Perf gate: diff the sweep and the figure series against the
# committed bench_baseline.json. Fails on any AllocsPerOp growth and
# on >threshold_pct regression of B/op or a gated series; writes the
# full comparison table to bench_diff.txt for the CI artifact.
bench-gate: bench-json bench-allocs
	$(GO) run ./cmd/benchgate -baseline bench_baseline.json -bench bench_allocs.txt -json bench.json -diff bench_diff.txt

# Refresh the committed baseline after an intentional perf change.
# Review the resulting bench_baseline.json diff like any other code.
bench-baseline: bench-json bench-allocs
	$(GO) run ./cmd/benchgate -baseline bench_baseline.json -bench bench_allocs.txt -json bench.json -update

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
