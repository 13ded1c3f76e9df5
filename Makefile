GO ?= go

.PHONY: all build vet test race check bench bench-smoke profile fuzz fuzz-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the CI gate: everything must build, vet clean, and pass the full
# test suite (including the fuzz seed corpus, which plain `go test` replays)
# under the race detector.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	# Multi-shard smoke: two peered brokers, skewed submission, asserts at
	# least one migration and every job completing (also part of the suite
	# above; kept explicit so sharding regressions fail loudly).
	$(GO) test -race -run 'TestShardGroupExchangeSmoke' -count 1 ./internal/broker/
	# Batching smoke under race: the batched control plane (the default) and
	# its -no-batch ablation must stay bit-identical, live and sharded.
	$(GO) test -race -run 'TestDifferentialBatching' -count 1 ./internal/broker/
	# Core-count sweep under race: broker behavior must not depend on
	# GOMAXPROCS, so the whole package (coalescing, the engine stress test,
	# the goroutine-leak test) runs at 1, 2 and 4 Ps on every runner.
	$(GO) test -race -cpu 1,2,4 -count 1 ./internal/broker/

# bench runs the headline benchmarks with allocation reporting: interpreter
# hot paths, the broker data-plane throughput pair (coalescing on/off), and
# the wire send path. Compare runs across commits with benchstat
# (golang.org/x/perf/cmd/benchstat); the experiment-level numbers behind
# BENCH_PR2.json / BENCH_PR3.json regenerate via
# `go run ./cmd/tasklet-bench -exp e8|e9 -json <file>`.
bench:
	$(GO) test -run XXX -bench 'BenchmarkVM_|BenchmarkE1_SpinVM|BenchmarkAblation_Optimize|BenchmarkAblation_Memo|BenchmarkBrokerThroughput|BenchmarkAblation_Coalesce|BenchmarkAblation_Batch' -benchmem .
	$(GO) test -run XXX -bench 'BenchmarkConnSend|BenchmarkLegacySend|BenchmarkBatch' -benchmem ./internal/wire/
	$(GO) test -run XXX -bench BenchmarkSchedulerPick -benchmem ./internal/scheduler/
	$(GO) test -run XXX -bench BenchmarkBrokerPlacement -benchmem ./internal/broker/
	$(GO) test -run XXX -bench BenchmarkLifecycleEngine -benchmem ./internal/lifecycle/
	$(GO) test -run XXX -bench 'BenchmarkRing|BenchmarkPlanPull' -benchmem ./internal/shard/

# profile captures CPU, mutex and block profiles from the saturating
# broker-throughput benchmark — the broker's hot path. Inspect with
# `go tool pprof $(PROFILEDIR)/cpu.out` (or mutex.out / block.out) plus the
# test binary left beside them; mutex samples on b.mu and the engine mutex
# are the first thing to look at when throughput regresses.
PROFILEDIR ?= profiles
profile:
	mkdir -p $(PROFILEDIR)
	$(GO) test -run XXX -bench 'BenchmarkBrokerThroughput$$' -benchmem \
		-cpuprofile $(PROFILEDIR)/cpu.out \
		-mutexprofile $(PROFILEDIR)/mutex.out \
		-blockprofile $(PROFILEDIR)/block.out \
		-o $(PROFILEDIR)/bench.test .

# bench-smoke compiles and runs every throughput/ablation benchmark exactly
# once (-benchtime=1x) — the CI gate that keeps the bench harness building
# and executing without paying for statistically meaningful timings.
bench-smoke:
	$(GO) test -run XXX -bench 'BenchmarkBrokerThroughput|BenchmarkAblation_' -benchtime 1x .
	$(GO) test -run XXX -bench . -benchtime 1x ./internal/wire/
	$(GO) test -run XXX -bench BenchmarkSchedulerPick -benchtime 1x ./internal/scheduler/
	$(GO) test -run XXX -bench 'BenchmarkBrokerPlacement/P=(100|1000)$$/' -benchtime 1x ./internal/broker/
	$(GO) test -run XXX -bench BenchmarkLifecycleEngine -benchtime 1x ./internal/lifecycle/
	$(GO) test -run XXX -bench . -benchtime 1x ./internal/shard/

# fuzz gives the program decoder + differential interpreter fuzzer a short
# budget; lengthen FUZZTIME for deeper runs.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzProgramUnmarshal -fuzztime $(FUZZTIME) ./internal/tvm/

# fuzz-smoke gives every fuzzer in the repo a short budget — the CI-sized
# sweep that catches regressions in the decoders and the compiler without
# the cost of a real fuzzing campaign.
SMOKETIME ?= 10s
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzProgramUnmarshal -fuzztime $(SMOKETIME) ./internal/tvm/
	$(GO) test -run XXX -fuzz FuzzDecodeValue -fuzztime $(SMOKETIME) ./internal/tvm/
	$(GO) test -run XXX -fuzz FuzzCompile -fuzztime $(SMOKETIME) ./internal/tasklang/
	$(GO) test -run XXX -fuzz FuzzUnmarshal -fuzztime $(SMOKETIME) ./internal/wire/
	$(GO) test -run XXX -fuzz FuzzLifecycle -fuzztime $(SMOKETIME) ./internal/lifecycle/

clean:
	$(GO) clean ./...
