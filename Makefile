GO ?= go

.PHONY: build test fmt vet shadow lint lint-baseline staticcheck govulncheck race fuzz check bench benchtest microbench chaos

# Accepted-findings baseline for qpiplint. When the file exists, `make
# lint` fails only on findings not recorded in it; `make lint-baseline`
# re-records the current findings (review the diff before committing).
LINT_BASELINE := internal/analysis/baseline.json

# Official performance measurement repetitions.
BENCH_REPEATS ?= 5

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# fmt fails when any file (the nested benchmark module included) is not
# gofmt-clean, and names the offenders.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

# shadow is optional tooling (x/tools vet pass for shadowed variables):
# run it when installed, note the skip when not.
shadow:
	@if command -v shadow >/dev/null 2>&1; then \
		$(GO) vet -vettool=$$(command -v shadow) ./...; \
	else \
		echo "shadow: not installed, skipping (scripts/install-tools.sh installs it)"; \
	fi

# qpiplint is the repo's own determinism / datapath analyzer suite
# (cmd/qpiplint, DESIGN §12). It is built from this tree, so it is never
# "not installed" — a build failure fails the gate loudly rather than
# skipping the lint.
lint:
	@$(GO) build -o bin/qpiplint ./cmd/qpiplint || \
		{ echo "lint: FAILED to build cmd/qpiplint — the lint gate cannot run" >&2; exit 1; }
	@if [ -f $(LINT_BASELINE) ]; then \
		echo "bin/qpiplint -baseline $(LINT_BASELINE) ./..."; \
		bin/qpiplint -baseline $(LINT_BASELINE) ./...; \
	else \
		bin/qpiplint ./...; \
	fi

# Re-record the accepted-findings baseline. A finding in the baseline is
# grandfathered (make lint reports only new ones); shrink it over time,
# don't grow it casually.
lint-baseline:
	@$(GO) build -o bin/qpiplint ./cmd/qpiplint || \
		{ echo "lint-baseline: FAILED to build cmd/qpiplint" >&2; exit 1; }
	bin/qpiplint -write-baseline $(LINT_BASELINE) ./...
	@echo "wrote $(LINT_BASELINE); review the diff before committing"

# staticcheck is optional tooling: run it when installed, note the skip
# when not (CI images without it still pass the gate on vet + tests).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (go vet + qpiplint still enforced)"; \
	fi

# govulncheck is optional tooling: advisory scan, run when installed.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck: not installed, skipping (scripts/install-tools.sh installs it)"; \
	fi

race:
	$(GO) test -race ./...

# The benchmark (benchmark/, BENCHMARK.json) is a nested module the root
# `go test ./...` cannot see. Its own tests (~5 s: every workload at scale
# 0.01, determinism, the compare tables) also prove on every gate run that
# the public APIs it compiles against are still source-compatible.
benchtest:
	cd benchmark && $(GO) test ./...

# Short smoke run of every fuzz target (header parsers, the checksum, the
# datapath FIFO against its reference queue); the committed seed corpora
# also run as part of plain `go test`. The fuzz cache dir is created up
# front: a fresh GOCACHE otherwise fails the first -fuzz run.
fuzz:
	@mkdir -p "$$($(GO) env GOCACHE)/fuzz"
	$(GO) test -run=Fuzz -fuzz=FuzzParse4 -fuzztime=5s ./internal/inet
	$(GO) test -run=Fuzz -fuzz=FuzzParse6 -fuzztime=5s ./internal/inet
	$(GO) test -run=Fuzz -fuzz=FuzzSum -fuzztime=5s ./internal/inet
	$(GO) test -run=Fuzz -fuzz=FuzzParseHeader -fuzztime=5s ./internal/tcp
	$(GO) test -run=Fuzz -fuzz=FuzzParse -fuzztime=5s ./internal/udp
	$(GO) test -run=Fuzz -fuzz=FuzzVerify4 -fuzztime=5s ./internal/udp
	$(GO) test -run=Fuzz -fuzz=FuzzRing -fuzztime=5s ./internal/pool

# The verification gate: gofmt, go vet, the optional shadow pass, the repo's own
# qpiplint suite (mandatory — proves the determinism and datapath
# invariants, DESIGN §12), optional staticcheck and govulncheck, the full
# suite under the race detector, the plain suite (also exercises the fuzz
# seed corpora and the golden files under testdata/golden), the shard-barrier
# race run (the parallel runner and the sequential/sharded equivalence
# matrix under -race, beyond the all-package race target above), and the
# scale guard (sharded runs fire the identical event count and hit the
# speedup floor for however many cores this host actually has), and the
# connection-density guard (SRQ pooling must beat private receive queues
# on per-connection memory at high QP counts without a CPU regression,
# and churn must leave no residual connection state). benchtest runs the
# nested benchmark module's own suite.
check: fmt vet shadow lint staticcheck govulncheck race test benchtest chaos
	$(GO) test -race -count=1 -run 'TestParallel|TestRunPingPong|TestRunUntilLimit|TestFreeRun|TestShardPanic' ./qpip/ ./internal/sim/par/
	$(GO) run ./cmd/qpipbench -exp scaleguard -bytes 4194304
	$(GO) run ./cmd/qpipbench -exp collective -coll-nodes 2,8 -coll-iters 2 >/dev/null
	$(GO) run ./cmd/qpipbench -exp collguard -coll-iters 2
	$(GO) run ./cmd/qpipbench -exp connguard

# Run the microbenchmarks, then regenerate BENCH_PR7.json: the
# parallel-scaling table (sequential baseline vs sharded placements,
# events cross-checked identical, gomaxprocs recorded per row). Then
# BENCH_PR8.json: the collectives sweep (host-based vs NIC-offloaded
# barrier and ring allreduce across ring/mesh/fat-tree topologies).
# Then BENCH_PR9.json: the connection-density sweep (incast / churn /
# many-client NBD at 64->8192 connections, SRQ vs private receive
# queues vs the host stacks).
bench: microbench
	$(GO) run ./cmd/qpipbench -exp perfscale -bytes 8388608 \
		-perf-repeats $(BENCH_REPEATS) -json BENCH_PR7.json
	$(GO) run ./cmd/qpipbench -exp collective -json BENCH_PR8.json
	$(GO) run ./cmd/qpipbench -exp connscale -json BENCH_PR9.json

microbench:
	$(GO) test -bench=. -benchmem ./internal/sim/ ./internal/tcp/ ./internal/fabric/ ./internal/inet/ ./internal/pool/

# The fixed-seed failure matrix: link-level chaos (drops, corruption,
# duplication, flaps) through the frame-chaos experiment, then the
# node-level crash/flap/partition matrix — adapter crash/restart, both
# ends crashing, sustained flaps, asymmetric partitions — each verified
# bytes-exactly-once and trace-identical across reruns, and the recovery
# sweep end to end (exits nonzero if any point is not byte-exact).
chaos:
	$(GO) test -run 'TestRecoveryChaos|TestRecoveryFaultFree' -count=1 ./internal/nbd/
	$(GO) run ./cmd/qpipbench -exp chaos
	$(GO) run ./cmd/qpipbench -exp recovery -bytes 1048576 >/dev/null
