# Convenience targets mirroring .github/workflows/ci.yml.
# The workspace is dependency-free: everything runs with --offline.

CARGO ?= cargo

.PHONY: all ci fmt fmt-check clippy no-raw-print build test test-all timing-guard bench-json bench-json-smoke bench-incremental bench-incremental-smoke bench-cache bench-cache-smoke bench-delegation bench-delegation-smoke bench-sat bench-sat-smoke bench-micro bench-micro-smoke bench-shard bench-shard-smoke perfbench obs-smoke replay-demo chaos clean

all: ci

## ci: everything CI runs — format check, clippy, print hygiene,
## tier-1 build + tests.
ci: fmt-check clippy no-raw-print test

fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all --check

clippy:
	$(CARGO) clippy --offline --workspace --all-targets -- -D warnings

## no-raw-print: library sources must route output through flowplace-obs
## or a Write sink, never raw print macros (binaries are exempt).
no-raw-print:
	./scripts/no_raw_print.sh

build:
	$(CARGO) build --release --offline

## test: the tier-1 gate (root-package tests against the release build).
test: build
	$(CARGO) test -q --offline

## test-all: every crate in the workspace.
test-all:
	$(CARGO) test -q --offline --workspace

## timing-guard: tier-1 tests under the 2x wall-clock budget
## (scripts/test_timing_baseline.txt) — what CI runs.
timing-guard: build
	./scripts/test_timing_guard.sh

## bench-json: machine-readable pipeline benchmark (BENCH_pipeline.json),
## serial vs parallel+portfolio on the 256/1k/4k ClassBench scenarios.
bench-json:
	$(CARGO) run --release --offline -p flowplace-bench --bin pipeline -- --threads 4

## bench-json-smoke: single-sample schema-validation run (CI), plus the
## obs telemetry smoke (the flowplace.obs.v1 validator gates both dumps),
## the cache-tier smoke (the flowplace.bench.cache.v1 validator), the
## delegation smoke (the flowplace.bench.delegation.v1 validator), the
## CDCL solver smoke (the flowplace.bench.sat.v1 validator, which also
## enforces baseline/modern placement identity), the hot-path micro
## smoke (the flowplace.bench.micro.v1 validator), and the sharded
## controller smoke (the flowplace.bench.shard.v1 validator, which
## also enforces sharded-vs-unsharded byte identity and zero
## overgrants).
bench-json-smoke: obs-smoke bench-cache-smoke bench-delegation-smoke bench-sat-smoke bench-micro-smoke bench-shard-smoke
	$(CARGO) run --release --offline -p flowplace-bench --bin pipeline -- --smoke

## obs-smoke: chaos replay emitting span-trace and metrics dumps; the
## CLI validates both against flowplace.obs.v1 before writing, and the
## summarize pass re-validates on read.
obs-smoke:
	$(CARGO) run --release --offline --bin flowplace -- \
		ctrl replay traces/chaos.trace --batch 4 \
		--faults traces/chaos.faults --fault-seed 42 \
		--reject-rate 0.1 --crash-rate 0.02 --recover-rate 0.5 \
		--trace-out OBS_trace.json --metrics-out OBS_metrics.json
	$(CARGO) run --release --offline --bin flowplace -- \
		obs summarize OBS_trace.json OBS_metrics.json

## bench-incremental: cold vs warm controller epoch re-solves
## (BENCH_incremental.json) over checkpoint/rollback update streams;
## asserts warm stays byte-identical to cold after every epoch.
bench-incremental:
	$(CARGO) run --release --offline -p flowplace-bench --bin incremental_bench

## bench-incremental-smoke: short schema-validation run (CI).
bench-incremental-smoke:
	$(CARGO) run --release --offline -p flowplace-bench --bin incremental_bench -- --smoke

## bench-cache: TCAM-as-cache hit rate and controller load vs cache
## size (BENCH_cache.json) under Zipf traffic on the 256/1k/4k
## ClassBench scenarios; aborts on any dependency-violating eviction.
bench-cache:
	$(CARGO) run --release --offline -p flowplace-bench --bin cache_bench

## bench-cache-smoke: short schema-validation run (CI).
bench-cache-smoke:
	$(CARGO) run --release --offline -p flowplace-bench --bin cache_bench -- --smoke

## bench-delegation: drop-all avoidance rate and delegated-rule overhead
## vs capacity-revocation pressure (BENCH_delegation.json) on the
## 256/1k/4k ClassBench scenarios; each cell runs the identical storm
## with the rung on and off and aborts unless both arms audit fail-closed.
bench-delegation:
	$(CARGO) run --release --offline -p flowplace-bench --bin delegation_bench

## bench-delegation-smoke: short schema-validation run (CI).
bench-delegation-smoke:
	$(CARGO) run --release --offline -p flowplace-bench --bin delegation_bench -- --smoke

## bench-sat: modern CDCL (glucose restarts + learnt-DB reduction) vs
## baseline CDCL (Luby, no reduction) on the SAT placement engine
## (BENCH_sat.json) over the 256/1k/4k ClassBench scenarios; the
## validator aborts unless both arms decoded identical placements.
bench-sat:
	$(CARGO) run --release --offline -p flowplace-bench --bin sat_bench

## bench-sat-smoke: short schema-validation run (CI).
bench-sat-smoke:
	$(CARGO) run --release --offline -p flowplace-bench --bin sat_bench -- --smoke

## bench-micro: hot-path micro benchmarks (BENCH_micro.json) — arena
## allocation counts, batch-vs-scalar classification throughput, and
## verify-replay / epoch latency on the 4k ClassBench scenario; fails
## unless the batch kernel holds its 2x throughput contract.
bench-micro:
	$(CARGO) run --release --offline -p flowplace-bench --bin micro_bench

## bench-micro-smoke: short schema-validation run (CI).
bench-micro-smoke:
	$(CARGO) run --release --offline -p flowplace-bench --bin micro_bench -- --smoke

## bench-shard: sharded-controller throughput and p99 epoch latency vs
## shard count (BENCH_shard.json) under tenant-burst churn; every row
## must be byte-identical to the unsharded controller with zero
## arbiter overgrants, and the full run fails unless 4 shards deliver
## >= 2x 1-shard event throughput on the 4k scenario.
bench-shard:
	$(CARGO) run --release --offline -p flowplace-bench --bin shard_bench

## bench-shard-smoke: short schema-validation run (CI).
bench-shard-smoke:
	$(CARGO) run --release --offline -p flowplace-bench --bin shard_bench -- --smoke

## perfbench: the repo benchmark (BENCHMARK.json, perfbench/README.md):
## builds perfbench/ into .bench_build and runs one workload, e.g.
## `make perfbench W=place SEED=8191 TRACE=1`. W is place, churn or
## storm; TRACE=1 adds the per-layer metrics. The JSON result is the
## last line of stdout.
W ?= place
SEED ?= 1
SECONDS ?= 30
TRACE ?= 0
perfbench:
	python3 perfbench/run.py --workload $(W) --seed $(SEED) --seconds $(SECONDS) --trace $(TRACE)

## replay-demo: run the controller on the shipped 50+-event trace.
replay-demo:
	$(CARGO) run --release --offline --bin flowplace -- ctrl replay traces/controller_demo.trace

## chaos: replay the committed chaos trace under the pinned fault seed;
## exits non-zero unless the fail-closed audit is green.
chaos:
	$(CARGO) run --release --offline --bin flowplace -- \
		ctrl replay traces/chaos.trace --batch 4 \
		--faults traces/chaos.faults --fault-seed 42 \
		--reject-rate 0.1 --crash-rate 0.02 --recover-rate 0.5

clean:
	$(CARGO) clean
