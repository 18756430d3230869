# Developer entry points. Everything here is plain `go` tooling; the
# targets just record the invocations the project expects to stay green.

GO ?= go

.PHONY: all help test race short bench bench-smoke fuzz fuzz-smoke chaos crash vet

all: test

help:
	@echo "Targets:"
	@echo "  test        build everything and run the full suite (default)"
	@echo "  race        race-clean gate: vet + chaos sweep + short suite under -race (archive/recheck run unshortened)"
	@echo "  short       the suite minus campaign-scale tests"
	@echo "  bench       all benchmarks, five runs each with -benchmem; folds them into BENCH.json via cmd/benchjson"
	@echo "  bench-smoke every benchmark once (one iteration each): catches benchmark panics and failed assertions"
	@echo "  chaos       seeded transport-chaos suite under -race + wire fuzz smoke"
	@echo "  crash       subprocess SIGKILL matrix: 16 seeded kills of a real monitord under -race"
	@echo "  fuzz        brief fuzz passes (wire decoder, spec parser, archive segments)"
	@echo "  fuzz-smoke  10s each of the segment, wire, record-log, CAN-log, ledger, registry, spec-parser and stream-semantics fuzzers"
	@echo "  vet         go vet everything"

test:
	$(GO) build ./...
	$(GO) test ./...

# The fleet server, HIL benches and campaigns are concurrent; the suite
# must stay race-clean. `-short` skips the campaign-scale tests so the
# race run stays quick enough to use before every push. The chaos sweep
# rides along (transport resilience bugs are concurrency bugs), and vet
# runs first so cheap static findings surface before the slow sweep.
# The archive store and recheck engine are listed explicitly: their
# torn-tail recovery and pump-drain tests are exactly the concurrent
# durability paths the race gate exists for, and -count=1 keeps cached
# passes from masking them. core and speclang stay on the list: one
# monitor serves checks from many goroutines at once (campaigns,
# recheck shards), so the reference and online/offline differentials
# run uncached under the race detector. specreg is listed
# because the rollout controller races its poll loop against operator
# promote/rollback by design.
race: vet chaos crash
	$(GO) test -race -short ./...
	$(GO) test -race -count=1 ./internal/archive ./internal/recheck ./internal/durable ./internal/core ./internal/speclang ./internal/specreg

# The seeded transport-chaos suite (fault-injected connections, resume,
# drain) under the race detector, plus a short wire-decoder fuzz smoke —
# the robustness gate for the fleet path.
chaos:
	$(GO) test -race -run 'TestChaos|TestDrain|TestQuarantine|TestErrorBudget' -count=1 ./internal/fleet
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=10s ./internal/wire

# The crash-safety acceptance gate: SIGKILL a real monitord subprocess
# at 16 seeded uplink offsets (plus a chaos disconnect each), restart on
# the same state dir, and require byte-identical verdicts with zero
# duplicates — all under the race detector.
crash:
	$(GO) test -race -run 'TestCrashRecovery' -count=1 ./cmd/monitord

short:
	$(GO) test -short ./...

# Runs every benchmark five times and snapshots each one's medians and
# [min, max] ranges to BENCH.json, so performance work leaves a
# committed, diffable record. A change counts as faster or slower only
# where benchjson -compare flags it, i.e. where each side's median lies
# outside the other's range:
#   go test -bench=. -benchmem -count=5 -run='^$$' ./... | go run ./cmd/benchjson -compare BENCH.json
# The BENCH_PR*.json files are single-run history and are not rewritten.
bench:
	$(GO) test -bench=. -benchmem -count=5 -run=^$$ ./... | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH.json

# Every benchmark runs exactly one iteration. The benchmarks carry their
# own assertions (BenchmarkTableI fails unless six rules are violated),
# which no test run executes; this keeps them, and the benchmarks
# themselves, from rotting between `make bench` snapshots.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Brief fuzz passes over the parser/formatter, the wire codec and the
# archive segment reader.
fuzz: fuzz-smoke
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=10s ./internal/speclang

# The deserializers that face bytes an attacker (or a crash) wrote:
# the archive segment store recovering arbitrary tail damage, the wire
# decoder, the shared record log's torn-tail rule, the CAN capture reader
# that monitorctl opens operator-supplied logs with, the session ledger
# and spec registry folds over it — and, since `spec push` started
# accepting operator uploads into a running daemon, the spec parser and
# compiler (every refusal must be a positioned error, never a panic).
# The stream-semantics fuzzer pins the one rule evaluator against the
# reference semantics over random specs and traces. 10 seconds each —
# the smoke level CI can afford on every run.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzSegment -fuzztime=10s ./internal/archive
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=10s ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzRecordLog -fuzztime=10s ./internal/recordlog
	$(GO) test -run=^$$ -fuzz=FuzzReadLog -fuzztime=10s ./internal/can
	$(GO) test -run=^$$ -fuzz=FuzzLedgerFold -fuzztime=10s ./internal/durable
	$(GO) test -run=^$$ -fuzz=FuzzRegistryFold -fuzztime=10s ./internal/specreg
	$(GO) test -run=^$$ -fuzz=FuzzSpecParser -fuzztime=10s ./internal/speclang
	$(GO) test -run=^$$ -fuzz=FuzzStreamSemantics -fuzztime=10s ./internal/speclang

vet:
	$(GO) vet ./...
