# Development targets for the detobj reproduction.

GO ?= go

.PHONY: all check build vet fmt lint lint-sarif lint-recovery race test test-short bench bench-smoke experiments fuzz chaos clean

all: build vet lint test

# The full pre-merge gate: static analysis and the race detector in one
# invocation, alongside the build, vet, gofmt and the test suite.
check: build vet fmt lint race test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail on any file gofmt would rewrite, as CI's Gofmt step does.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Run the determinism & model-integrity analyzer suite (see README
# "Static analysis"; `go run ./cmd/detlint -list-rules` prints the
# catalogue), the v5 persistence/recovery rules included; nonzero exit
# on any unannotated finding. Run a subset with `go run ./cmd/detlint
# -rules slotdiscipline,nodeterminism ./...`.
lint:
	$(GO) run ./cmd/detlint ./...

# Just the persistence & recovery-safety rules — the local mirror of
# CI's recovery-gate job.
lint-recovery:
	$(GO) run ./cmd/detlint -rules persistsplit,journaldiscipline,restartcoverage ./...

# Same suite, also writing a SARIF 2.1.0 log for code-scanning upload.
lint-sarif:
	$(GO) run ./cmd/detlint -sarif detlint.sarif ./...

# Run the short test suite under the race detector.
race:
	$(GO) test -race -short ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Run the full benchmark suite and distill it into the next-numbered
# BENCH_N.json via cmd/benchjson, which pairs the .../seq and .../red
# sub-benchmarks and reports the reduced engines' speedup and
# allocation ratio. The target number is derived from the newest
# committed BENCH_N.json (plus one), so the filename never drifts from
# the tree the way a hardcoded number does. The JSON records
# numcpu/gomaxprocs so committed numbers are honest about the machine
# they were measured on.
BENCH_NEXT = $(shell ls BENCH_*.json 2>/dev/null | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$$/\1/p' | sort -n | tail -1 | awk '{print $$1+1}')
bench:
	$(GO) test -bench=. -benchmem . | tee bench.out
	$(GO) run ./cmd/benchjson -o BENCH_$(if $(BENCH_NEXT),$(BENCH_NEXT),1).json < bench.out
	rm -f bench.out

# One iteration per benchmark — a CI-sized check that the harness and
# the benchjson pipeline work end to end.
bench-smoke:
	$(GO) test -bench=. -benchtime 1x -benchmem . | $(GO) run ./cmd/benchjson -o -

# Regenerate every experiment table from EXPERIMENTS.md.
experiments:
	$(GO) run ./cmd/detobj run all

# Sweep seeds through the simulator's chaos harness (see README
# "Robustness & chaos testing"); failures print the reproducing seed.
# The crash-restart soak hammers the recoverable WRN with every restart
# adversary stack and audits the exactly-once journal per seed.
chaos:
	$(GO) run -race ./cmd/detobj run -runs 25 chaos
	$(GO) test -race -run 'TestSoakChaosAdversaries|TestSoakBoundedNeverHangs|TestSoakCrashRestartRecoverable' .

# Short fuzzing passes over the property targets.
fuzz:
	$(GO) test -fuzz FuzzWRNAgainstReference -fuzztime 30s ./internal/wrn/
	$(GO) test -fuzz FuzzAlg2Schedules -fuzztime 30s ./internal/wrn/
	$(GO) test -fuzz FuzzCheckAgainstBruteForce -fuzztime 30s ./internal/linearize/
	$(GO) test -fuzz FuzzSourceMatchesMathRand -fuzztime 30s ./internal/sim/
	$(GO) test -fuzz FuzzRewindMatchesFreshRun -fuzztime 30s ./internal/sim/
	$(GO) test -fuzz FuzzVerifyReplayUnderFaults -fuzztime 30s ./internal/sim/

clean:
	$(GO) clean -testcache
	rm -f detlint.sarif
