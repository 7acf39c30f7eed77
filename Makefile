# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go
BIN ?= bin

.PHONY: all build test race loc fuzz chaos-smoke cover-transport cover-plan bench-smoke bench-stack bench-stack-check bench-kernels bench-kernels-check bench-kernels-update profile-factor launch-smoke serve-smoke trace-smoke batch-smoke session-smoke vet clean

all: build

# Build every package and place the command binaries in $(BIN).
build:
	$(GO) build ./...
	$(GO) build -o $(BIN)/ ./cmd/...

test:
	$(GO) test ./...

# Full suite under the race detector; -short skips the slowest
# subprocess integration tests (CI runs this).
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# The line count every simplicity PR quotes: non-test Go outside bench/.
loc:
	@find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l

# Brief fuzz of the wire decoders, the inter-rank packet dispatcher (into
# fresh storage and into a landing), the (V,T) packet that carries every
# transformation and gathered log entry, the job spec, the job frame and the
# check's sketch packet (must never panic;
# regression corpora under internal/transport/testdata,
# internal/wire/testdata, internal/batch/testdata,
# internal/session/testdata, internal/service/testdata and
# internal/qr/testdata).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzConsumeDimMat -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalPacket -fuzztime 10s ./internal/pulsar
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzRequestReader -fuzztime 10s ./internal/batch
	$(GO) test -run '^$$' -fuzz FuzzResultReader -fuzztime 10s ./internal/batch
	$(GO) test -run '^$$' -fuzz FuzzCheckpointReader -fuzztime 10s ./internal/session
	$(GO) test -run '^$$' -fuzz FuzzAppendReader -fuzztime 10s ./internal/session
	$(GO) test -run '^$$' -fuzz FuzzMachineModel -fuzztime 10s ./internal/simulate
	$(GO) test -run '^$$' -fuzz FuzzJobSpec -fuzztime 10s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzJobFrame -fuzztime 10s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzDecodeSketch -fuzztime 10s ./internal/qr
	$(GO) test -run '^$$' -fuzz FuzzVTPacket -fuzztime 10s ./internal/qr

# Deterministic fault-injection proof: a factorization over real TCP
# with seeded chaos (delays, mid-run socket cuts on both links that TCP's
# redial-and-resume repairs, a rank kill) completes and matches the
# sequential oracle elementwise; and a sender left idle by a cut still
# repairs its link.
chaos-smoke:
	$(GO) test -run 'TestChaosTCP|TestTCPIdleSenderRepairsSeveredLink' -count=1 -v ./internal/transport

# Coverage gate for the resilience-critical transport package: fails if
# line coverage drops below the recorded floor (ten runs read 93.6-93.8
# since Chaos lost its retransmit protocol and a test cuts a link
# mid-write; which fault paths a run takes moves it by a few tenths).
COVER_FLOOR_TRANSPORT = 93.2
cover-transport:
	@cov=$$($(GO) test -count=1 -cover ./internal/transport | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	echo "internal/transport coverage: $$cov% (floor $(COVER_FLOOR_TRANSPORT)%)"; \
	awk -v c="$$cov" -v f="$(COVER_FLOOR_TRANSPORT)" 'BEGIN { exit !(c+0 >= f+0) }' || \
	{ echo "coverage regression: $$cov% < $(COVER_FLOOR_TRANSPORT)%"; exit 1; }

# Coverage gate for the planner and its simulator: the decision logic is
# the safety argument (chosen never slower than the default), so its
# coverage must not rot.
COVER_FLOOR_PLAN = 90.0
COVER_FLOOR_SIMULATE = 88.0
cover-plan:
	@cov=$$($(GO) test -count=1 -cover ./internal/plan | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	echo "internal/plan coverage: $$cov% (floor $(COVER_FLOOR_PLAN)%)"; \
	awk -v c="$$cov" -v f="$(COVER_FLOOR_PLAN)" 'BEGIN { exit !(c+0 >= f+0) }' || \
	{ echo "coverage regression: $$cov% < $(COVER_FLOOR_PLAN)%"; exit 1; }
	@cov=$$($(GO) test -count=1 -cover ./internal/simulate | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	echo "internal/simulate coverage: $$cov% (floor $(COVER_FLOOR_SIMULATE)%)"; \
	awk -v c="$$cov" -v f="$(COVER_FLOOR_SIMULATE)" 'BEGIN { exit !(c+0 >= f+0) }' || \
	{ echo "coverage regression: $$cov% < $(COVER_FLOOR_SIMULATE)%"; exit 1; }

# Quick benchmark pass: the real-hardware tree comparison and one
# distributed run over local TCP processes.
bench-smoke: build
	$(GO) test -run '^$$' -bench BenchmarkRealTreeComparison -benchtime 1x .
	$(BIN)/qrfactor -launch 2 -m 1024 -n 128 -nb 32 -ib 8 -check

# The stack benchmark (bench/README.md): six end-to-end workloads from
# pulsarqr.Factor to a 2-rank fleet, three untraced runs and one traced run
# each, written to bench/out/results.json (~8 min).
bench-stack:
	$(GO) run ./bench

# Compare the last bench-stack run with the committed baseline; exits
# non-zero when any workload × end-to-end metric reads `regressed`. The
# baseline's host is recorded in it — on another host read the verdicts as
# a guide, not a gate.
bench-stack-check:
	$(GO) run ./bench -compare bench/BASELINE.json bench/out/results.json

# Kernel/BLAS throughput benchmarks, benchstat-friendly (fixed count and
# pinned benchtime so runs are comparable):
#   make bench-kernels > new.txt && benchstat BENCH_kernels.json new.txt
# BENCH_kernels.json holds the committed baseline from the recorded host.
# The tile kernels run at the default tile (qr.DefaultOptions) and the
# level-1/2 rows at the panel kernels' inner-block shapes for it, so the
# gate watches the shape the library runs.
BENCH_TIME ?= 200ms
BENCH_COUNT ?= 5
BENCH_BLAS = BenchmarkGemm|BenchmarkTrmm|BenchmarkPack|BenchmarkD(dot|axpy|nrm2x|gemvT)
BENCH_TILE = BenchmarkD(geqrt|tsqrt|ttqrt|tpqr2|ormqr|tsmqr|ttmqr)$$
bench-kernels:
	$(GO) test -run '^$$' -bench '$(BENCH_BLAS)' -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) ./internal/blas
	$(GO) test -run '^$$' -bench '$(BENCH_TILE)' -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) ./internal/kernels

# Regression gate: rerun the kernel benchmarks and fail if any kernel's
# median ns/op regressed more than 20% against BENCH_kernels.json (see
# scripts/benchcheck; BENCH_TOLERANCE overrides the band).
BENCH_TOLERANCE ?= 0.20
bench-kernels-check:
	@$(MAKE) --no-print-directory bench-kernels > bench-fresh.txt && \
	$(GO) run ./scripts/benchcheck -baseline BENCH_kernels.json -threshold $(BENCH_TOLERANCE) bench-fresh.txt; \
	rc=$$?; rm -f bench-fresh.txt; exit $$rc

# Regenerate the committed baseline from a fresh run on this host:
#   make bench-kernels-update && git diff BENCH_kernels.json
bench-kernels-update:
	@$(MAKE) --no-print-directory bench-kernels > bench-fresh.txt && \
	$(GO) run ./scripts/benchcheck -update -baseline BENCH_kernels.json bench-fresh.txt; \
	rc=$$?; rm -f bench-fresh.txt; exit $$rc

# The CPU profile kernel issues quote: BenchmarkFactor is the op of the
# factor_tall / factor_square workloads (pulsarqr.Factor at DefaultOptions,
# 2 threads, then R()), profiled for 5 s. SHAPE=tall|square; the profile
# and the test binary stay behind as factor-$(SHAPE).prof / factor.test
# (both gitignored) for `go tool pprof -list`.
SHAPE ?= tall
profile-factor:
	$(GO) test -run '^$$' -bench 'BenchmarkFactor/$(SHAPE)' -benchtime 5s -cpuprofile factor-$(SHAPE).prof -o factor.test .
	$(GO) tool pprof -top -nodecount 15 factor.test factor-$(SHAPE).prof

# Multi-process runs over local TCP, checked elementwise against the
# sequential reference: the old 64/16 tile stated explicitly, the default
# path with no tile flags at all, and a flag the launched ranks must be
# handed for the check to pass (-fixed; rank 0 prints the options it ran).
launch-smoke: build
	$(BIN)/qrfactor -launch 3 -m 2048 -n 256 -nb 64 -ib 16 -check
	$(BIN)/qrfactor -launch 3 -m 2048 -n 256 -check
	out=$$($(BIN)/qrfactor -launch 2 -m 512 -n 64 -nb 32 -ib 8 -fixed -check) && echo "$$out" && \
	echo "$$out" | grep -q 'boundary=fixed'

# End-to-end check of the factorization service: qrserve + 2 launched
# agent processes, 3 concurrent HTTP jobs, metrics and clean shutdown.
serve-smoke: build
	sh scripts/serve_smoke.sh $(BIN)

# End-to-end check of distributed tracing: a 2-process traced TCP run,
# shard gather at rank 0, qrtrace -merge analysis, Chrome JSON export.
trace-smoke: build
	sh scripts/trace_smoke.sh $(BIN)

# End-to-end check of the batched small-matrix path: a 10k-matrix batch
# through POST /v1/batch with checksum, metrics and goroutine-leak
# verification (BATCH_SMOKE_COUNT overrides the batch size).
batch-smoke: build
	sh scripts/batch_smoke.sh $(BIN)

# End-to-end check of durable streaming sessions: open a session, stream
# 3 appends (checkpoint every append), kill -9 the server, restart over
# the same checkpoint directory, verify the restored R bitwise.
session-smoke: build
	sh scripts/session_smoke.sh $(BIN)

clean:
	rm -rf $(BIN)
