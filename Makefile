GO ?= go

.PHONY: build test fmt vet shadow lint staticcheck govulncheck race fuzz check benchtest microbench chaos cover

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# fmt fails when any file (the nested benchmark module included) is not
# gofmt-clean, and names the offenders.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# The arm64 pass type-checks the build without the amd64 checksum kernel
# (internal/inet/sum_other.go), so it keeps compiling; the native pass also
# checks the kernel's argument layout against its Go declaration (asmdecl).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# shadow is optional tooling (x/tools vet pass for shadowed variables):
# run it when installed, note the skip when not.
shadow:
	@if command -v shadow >/dev/null 2>&1; then \
		$(GO) vet -vettool=$$(command -v shadow) ./...; \
	else \
		echo "shadow: not installed, skipping (scripts/install-tools.sh installs it)"; \
	fi

# qpiplint is the repo's own determinism / datapath analyzer suite
# (cmd/qpiplint, DESIGN §12, §17): six analyzers over the whole program,
# plus stale-allow reports. It is built from this tree, so it is never
# "not installed" — a build failure fails the gate loudly rather than
# skipping the lint. Tier-1 runs the same check (cmd/qpiplint's
# TestTreeIsLintClean); this target prints the findings directly.
lint:
	@$(GO) build -o bin/qpiplint ./cmd/qpiplint || \
		{ echo "lint: FAILED to build cmd/qpiplint — the lint gate cannot run" >&2; exit 1; }
	bin/qpiplint ./...

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
# datapath FIFO against its reference queue, the TCP endpoint table
# against its reference model); the committed seed corpora
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
	$(GO) test -run=Fuzz -fuzz=FuzzEndpoints -fuzztime=5s ./internal/tcp

# The verification gate: gofmt, go vet, the optional shadow pass, the repo's own
# qpiplint suite (mandatory — proves the determinism and datapath
# invariants, DESIGN §12), optional staticcheck and govulncheck, the full
# suite under the race detector, and the plain suite (also exercises the
# fuzz seed corpora and the golden files under testdata/golden, which pin
# every qpipbench report). A sharded world runs on one goroutine, so the
# race target covers the parallel runner and the sequential/sharded
# equivalence matrix with no extra run. benchtest runs the nested
# benchmark module's own suite; wall clock belongs to the benchmark, not
# this gate. cover fails on protocol code no test executes.
check: fmt vet shadow lint staticcheck govulncheck race test benchtest chaos cover

# Coverage gate: the whole suite under -coverpkg=./..., failing
# on any function in the protocol packages that no test executes (one
# with no statements passes once a test enters it); there is no allow
# list. Stdlib Go tooling plus awk; profiles land in bin/.
cover:
	GO=$(GO) scripts/cover.sh

# The microbenchmarks of the simulator's hot paths, the parallel runner's
# mail-bounded epoch among them.
microbench:
	$(GO) test -bench=. -benchmem ./internal/sim/ ./internal/tcp/ ./internal/fabric/ ./internal/inet/ ./internal/pool/ ./internal/sim/par/

# The fixed-seed node-level failure matrix: adapter crash/restart, both
# ends crashing, sustained flaps, asymmetric partitions — each verified
# bytes-exactly-once and trace-identical across reruns. The link-level
# chaos sweep and the recovery sweep are pinned by tier-1 golden files
# (internal/bench/testdata/golden).
chaos:
	$(GO) test -run 'TestRecoveryChaos|TestRecoveryFaultFree' -count=1 ./internal/nbd/
