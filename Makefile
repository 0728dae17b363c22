# Development targets. The module needs only the Go toolchain.

GO ?= go

.PHONY: build test race bench-gate golden

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race . ./internal/trace ./internal/tracecache ./internal/pipeline ./internal/telemetry ./internal/ring ./internal/otrace ./internal/otrace/federate ./internal/otrace/flight ./internal/serve ./internal/fleet ./internal/fleet/chaos ./internal/explore

# bench-gate runs the repository benchmark (bench/, see its README) on
# the parent commit and on this checkout, and fails if -compare reads
# an end-to-end metric of either engine workload as worse than its
# BENCHMARK.json bound, or if any run fails its output checks. An
# "unresolved" verdict passes: on a shared 2-vCPU host the run-to-run
# spread can exceed the bounds. The parent is a detached worktree of
# HEAD^, removed on exit. Three pairs of 20 s runs per workload,
# alternating which side runs first, take about six minutes.
bench-gate:
	@set -eu; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"; git worktree prune' EXIT; \
	trap 'exit 1' INT TERM; \
	git worktree add --quiet --detach "$$tmp/parent" HEAD^; \
	mkdir -p "$$tmp/runs/parent" "$$tmp/runs/change"; \
	run() { \
		dir=.; if [ "$$1" = parent ]; then dir="$$tmp/parent"; fi; \
		echo "bench-gate: $$2 pair $$3, $$1"; \
		(cd "$$dir" && bash bench/run.sh -workload "$$2" -seed 1 -seconds 20 -trace 0 \
			-out "$$tmp/runs/$$1/$$2-$$3.json"); \
	}; \
	for w in engine-compute engine-memory; do \
		for i in 1 2 3; do \
			if [ $$((i % 2)) = 1 ]; then run parent $$w $$i; run change $$w $$i; \
			else run change $$w $$i; run parent $$w $$i; fi; \
		done; \
	done; \
	bash bench/run.sh -compare "$$tmp/runs/parent" "$$tmp/runs/change"

golden:
	$(GO) test -run Golden -update .
