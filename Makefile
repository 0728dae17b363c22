# Development targets. The module needs only the Go toolchain.

GO ?= go

.PHONY: build test race bench bench-gate bench-serve bench-fleet bench-explore golden

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race . ./internal/trace ./internal/tracecache ./internal/pipeline ./internal/telemetry ./internal/ring ./internal/otrace ./internal/otrace/federate ./internal/otrace/flight ./internal/serve ./internal/fleet ./internal/fleet/chaos ./internal/explore

# Pinned benchmark invocation: a single CPU, a fixed benchtime and a
# single count make successive runs (and the committed baseline vs a
# gate run) comparable — allocs/op in particular amortizes one-time
# warmup over the same iteration budget everywhere. BENCH_FLAGS is
# recorded inside the JSON so a mismatched comparison is self-evident.
BENCH_FLAGS = -bench Core -benchmem -run NONE -count 1 -cpu 1 -benchtime 2s
BENCH_PKGS = . ./internal/rename ./internal/wakeup ./internal/bypass \
	./internal/telemetry ./internal/pipeline ./internal/otrace ./internal/fleet

# bench reruns the BenchmarkCore* hot-path microbenchmarks (rename map
# lookup, wake-up broadcast pricing, bypass arbitration, counter
# increments, the pipeline hot loop, grid dispatch) and rewrites
# the committed baseline at the repository root.
bench:
	$(GO) test $(BENCH_FLAGS) $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -params "$(BENCH_FLAGS)" > BENCH_core.json
	@echo wrote BENCH_core.json

# bench-gate reruns the same pinned benchmarks and fails if any of
# them regressed against the committed baseline. Wall time gets a
# loose tolerance (CI machines differ from whoever recorded the
# baseline); allocation counts are deterministic and gated tightly.
bench-gate:
	$(GO) test $(BENCH_FLAGS) $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -params "$(BENCH_FLAGS)" > /tmp/BENCH_core.new.json
	$(GO) run ./cmd/benchjson -compare -tolerance 1.0 -tolerance-allocs 0.1 \
		BENCH_core.json /tmp/BENCH_core.new.json

# bench-serve load-tests the serving layer: a local wsrsd daemon, a
# wsrsload closed-loop concurrency ramp with a 50% duplicate mix
# (exercising the content-addressed cache and request coalescing), and
# the p50/p95/p99 + throughput report committed at the repository root
# alongside BENCH_core.json.
bench-serve:
	$(GO) build -o /tmp/wsrsd ./cmd/wsrsd
	$(GO) build -o /tmp/wsrsload ./cmd/wsrsload
	/tmp/wsrsd -listen 127.0.0.1:18980 & \
	WSRSD_PID=$$!; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18980/readyz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	/tmp/wsrsload -addr http://127.0.0.1:18980 -levels 1,2,4,8 -n 32 -dup 0.5 \
		-warmup 2000 -measure 10000 -out BENCH_serve.json; \
	STATUS=$$?; \
	kill -TERM $$WSRSD_PID 2>/dev/null; wait $$WSRSD_PID; exit $$STATUS
	@echo wrote BENCH_serve.json

# bench-fleet measures the scatter/gather coordinator: fresh
# in-process fleets (real wsrsd cores behind chaos proxies on
# loopback) at each backend count, one fixed grid scattered across
# them and verified byte-identical to a direct local run, then the
# widest fleet again with one backend hard-killed mid-job. The run
# fails if any fleet result diverges from the local baseline.
bench-fleet:
	$(GO) run ./cmd/wsrsload -fleet 1,2,3 -measure 200000 -out BENCH_fleet.json
	@echo wrote BENCH_fleet.json

# bench-explore measures design-space exploration throughput: the CI
# smoke space explored twice in-process — with and without the
# analytic M/M/c pre-filter — points/sec for each, the pre-filter
# speedup, and a hard failure if the pre-filter changed the frontier
# (it must only ever remove dominated points). The report is committed
# as BENCH_explore.json alongside the other baselines.
bench-explore:
	$(GO) run ./cmd/wsrsexplore -bench -quiet -out BENCH_explore.json

golden:
	$(GO) test -run Golden -update .
