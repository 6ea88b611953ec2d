GO ?= go

.PHONY: tier1 race bench bench-ann bench-sim bench-broker check fuzz-smoke chaos

# tier1 is the gating check: vet, build, and the full test suite.
tier1:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

# race runs the concurrency-sensitive packages (the parallel experiment
# engine including the sharded-engine paths, the parallel ANN trainer, the
# simulation kernel including the sharded conservative-time engine, the
# transports including the crucible matrix and its sharded cells, the
# broker, membership, the chaos engine, the adaptation loop (core + dds
# hot-swap path), and the integration failure suite) under the race
# detector.
race:
	$(GO) test -race ./internal/experiment ./internal/ann/... ./internal/sim/... \
		./internal/transport/... ./internal/broker/... ./internal/membership \
		./internal/netem/... ./internal/core/... ./internal/dds/... \
		./internal/integration

# fuzz-smoke gives every fuzz target a short budget; CI runs this to keep
# the corpora honest without burning minutes.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzDecode$$ -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run NONE -fuzz FuzzDecodeRepair -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run NONE -fuzz FuzzDecodeNak -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run NONE -fuzz FuzzDecodeSymbol -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run NONE -fuzz FuzzParseSpec -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run NONE -fuzz FuzzFountDecode -fuzztime $(FUZZTIME) ./internal/transport/fountcast
	$(GO) test -run NONE -fuzz FuzzMatch -fuzztime $(FUZZTIME) ./internal/broker
	$(GO) test -run NONE -fuzz FuzzServerCommand -fuzztime $(FUZZTIME) ./internal/broker
	$(GO) test -run NONE -fuzz FuzzRouteCommand -fuzztime $(FUZZTIME) ./internal/broker
	$(GO) test -run NONE -fuzz FuzzClientRead -fuzztime $(FUZZTIME) ./internal/broker
	$(GO) test -run NONE -fuzz FuzzLoad -fuzztime $(FUZZTIME) ./internal/ann
	$(GO) test -run NONE -fuzz FuzzSchedule -fuzztime $(FUZZTIME) ./internal/netem/chaos
	$(GO) test -run NONE -fuzz FuzzShardedKernel -fuzztime $(FUZZTIME) ./internal/netem/chaos
	$(GO) test -run NONE -fuzz FuzzKernelOrder -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run NONE -fuzz FuzzRebind -fuzztime $(FUZZTIME) ./internal/transport/conformance

# chaos runs the full transport crucible from the command line.
chaos:
	$(GO) run ./cmd/adamant-verify -chaos

# bench runs the allocation pins of one emulated run and of Ricochet's
# repair path, then the allocation-sensitive micro benchmarks with
# allocation counters.
bench:
	$(GO) test -run 'TestEmulatedRunAllocs|TestRepairAllocs' -v ./internal/experiment/ ./internal/transport/ricochet/
	$(GO) test -bench 'BenchmarkSchedule' -benchmem -run NONE ./internal/sim/
	$(GO) test -bench 'BenchmarkPacket' -benchmem -run NONE ./internal/wire/
	$(GO) test -bench 'BenchmarkRunMany|BenchmarkEndToEndSim' -benchmem -benchtime 3x -run NONE .

# bench-ann asserts the zero-alloc inference kernels (-benchmem) and
# regenerates BENCH_ann.json, the sub-10us query-latency report.
bench-ann:
	$(GO) test -bench 'BenchmarkRun|BenchmarkTrainEpoch' -benchmem -run NONE ./internal/ann/
	$(GO) test -bench 'BenchmarkANN' -benchmem -benchtime 100x -run NONE .
	$(GO) run ./cmd/adamant-bench -ann -dataset data/training.csv -out BENCH_ann.json

# bench-sim asserts the zero-alloc scheduler hot paths (-benchmem) and
# regenerates BENCH_sim.json, the event-core throughput report comparing
# the wheel+heap scheduler against the container/heap baseline, plus the
# shard-scaling storm table (group sizes 50-1000 at 1 and 8 workers, with
# intermediate widths for the curve).
bench-sim:
	$(GO) test -bench 'BenchmarkSchedule' -benchmem -run NONE ./internal/sim/
	$(GO) test -bench . -benchmem -benchtime 2x -run NONE ./internal/sim/bench/
	$(GO) run ./cmd/adamant-bench -sim -shard-workers 1,2,4,8 -shard-groups 50,200,500,1000 -out BENCH_sim.json

# bench-broker asserts the zero-alloc publish and delivery paths (the
# client's receive path and payload ownership included), the
# wire byte-identity of the vectored data plane, and the >=2x
# routing+delivery speedup over the seed broker at 10k subscriptions,
# then regenerates BENCH_broker.json: the open-loop load-latency curve
# (offered rate walked to the saturation knee on both data planes) plus
# the fan-out sweep (group size x payload size) and the seed comparison.
bench-broker:
	$(GO) test -run 'TestPublishZeroAlloc|TestClientDeliveryAllocs|TestClientMsgOwnership|TestDeliveryAllocs|TestWireByteIdentityAcrossDataPlanes|TestFanoutSpeedup' -v ./internal/broker/...
	$(GO) test -bench 'BenchmarkClient' -benchmem -run NONE ./internal/broker/
	$(GO) test -bench 'BenchmarkFanout' -benchtime 200x -run NONE ./internal/broker/bench/
	$(GO) run ./cmd/adamant-fleet -compare -ll -out BENCH_broker.json -v

check: tier1 race
