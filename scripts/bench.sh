#!/usr/bin/env bash
# Run the benchmark suite and emit machine-readable results so the perf
# trajectory is tracked across PRs.
#
# Usage:
#   scripts/bench.sh                 # runtime benches -> BENCH_runtime.json
#   scripts/bench.sh --all           # every bench    -> BENCH_all.json
#   REPRO_BENCH_PROFILE=paper scripts/bench.sh   # full paper protocol
#
# The simulation-engine benches (compiled vs interp throughput, verdict
# cache) are additionally emitted on their own as BENCH_sim.json (override with BENCH_SIM_JSON=), and the
# LLM-pool benches (routed vs direct overhead, tokens/trial) as
# BENCH_llm.json (override with BENCH_LLM_JSON=), the
# sandbox budget-check overhead (tracked vs UNTRACKED on both engines
# and the clean corpus, <5% gate) as BENCH_sandbox.json (override with
# BENCH_SANDBOX_JSON=), the repair-engine functional workload (templates
# simulated/sec, trace-diff localization latency, fix rate by bug class)
# as BENCH_repair.json (override with BENCH_REPAIR_JSON=), and the
# repair-service load benchmark (p50/p99 latency, jobs/sec, shed rate
# via scripts/loadgen.py) as BENCH_service.json (override with
# BENCH_SERVICE_JSON=).
#
# The chaos (fault-injection) suite and a fuzz smoke run first: perf
# numbers for a runtime whose failure paths are broken, or a compiler
# front-end that crashes on hostile input, are not worth recording.
# Skip them with REPRO_BENCH_SKIP_CHAOS=1 / REPRO_BENCH_SKIP_FUZZ=1.
#
# The runtime benches include the durable-run journal overhead
# (fsync'd append cost and ms-per-trial of a --run-dir run vs a plain
# one) under extra_info in the emitted BENCH_*.json.
#
# Extra pytest arguments can follow the optional --all flag.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${REPRO_BENCH_SKIP_CHAOS:-0}" != "1" ]]; then
    echo "running fault-injection (chaos) suite..."
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m pytest tests/test_faults.py -m chaos -q
fi

if [[ "${REPRO_BENCH_SKIP_FUZZ:-0}" != "1" ]]; then
    echo "running compiler front-end fuzz smoke (200 iterations)..."
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m repro.cli fuzz --seed 0 --iterations 200
fi

profile="${REPRO_BENCH_PROFILE:-quick}"
target="benchmarks/test_bench_runtime.py"
out="${BENCH_JSON:-BENCH_runtime.json}"
if [[ "${1:-}" == "--all" ]]; then
    shift
    target="benchmarks/"
    out="${BENCH_JSON:-BENCH_all.json}"
fi

# Dedicated simulation-engine artifact: compiled-vs-interp throughput
# (simulated cycles/sec under extra_info) and verdict-cache warm-vs-cold,
# so the simulator speedup is tracked on its own across PRs.
sim_out="${BENCH_SIM_JSON:-BENCH_sim.json}"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" REPRO_BENCH_PROFILE="$profile" \
    python -m pytest benchmarks/test_bench_runtime.py \
    -k "sim_" --benchmark-only \
    --benchmark-json "$sim_out"
echo "simulation benchmark written to $sim_out"

# Dedicated sandbox artifact: budget-check overhead of the tracked
# engines vs the UNTRACKED baseline (per-engine drives plus the clean
# corpus differential, <5% corpus gate), so the cost of the crash-proof
# sandbox is tracked on its own across PRs.
sandbox_out="${BENCH_SANDBOX_JSON:-BENCH_sandbox.json}"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" REPRO_BENCH_PROFILE="$profile" \
    python -m pytest benchmarks/test_bench_runtime.py \
    -k "sandbox_overhead" --benchmark-only \
    --benchmark-json "$sandbox_out"
echo "sandbox benchmark written to $sandbox_out"

# Dedicated LLM-pool artifact: routed-vs-direct overhead and estimated
# tokens/cost per trial, so the backend-pool cost axis is tracked on
# its own across PRs.
llm_out="${BENCH_LLM_JSON:-BENCH_llm.json}"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" REPRO_BENCH_PROFILE="$profile" \
    python -m pytest benchmarks/test_bench_runtime.py \
    -k "llm_pool" --benchmark-only \
    --benchmark-json "$llm_out"
echo "LLM pool benchmark written to $llm_out"

# Dedicated repair-engine artifact: the Table-4 functional workload
# (template-search throughput, localization latency, fix rate by bug
# class), so the repair-kernel trajectory is tracked on its own across
# PRs.
repair_out="${BENCH_REPAIR_JSON:-BENCH_repair.json}"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" REPRO_BENCH_PROFILE="$profile" \
    python -m pytest benchmarks/test_bench_runtime.py \
    -k "repair_engine" --benchmark-only \
    --benchmark-json "$repair_out"
echo "repair benchmark written to $repair_out"

# Repair-service load benchmark: a spawned server driven by the
# deterministic load generator; p50/p99 latency, jobs/sec, shed rate
# and cache hit rates land in BENCH_service.json (override with
# BENCH_SERVICE_JSON=; skip with REPRO_BENCH_SKIP_SERVICE=1).
if [[ "${REPRO_BENCH_SKIP_SERVICE:-0}" != "1" ]]; then
    service_out="${BENCH_SERVICE_JSON:-BENCH_service.json}"
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python scripts/loadgen.py --out "$service_out"
    echo "service benchmark written to $service_out"
fi

# The main run goes last: every pytest session rewrites the tracked
# benchmark_results.txt, so the broadest table set must be the one that
# lands in the file.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" REPRO_BENCH_PROFILE="$profile" \
    python -m pytest "$target" --benchmark-only \
    --benchmark-json "$out" "$@"
echo "benchmark results written to $out (profile: $profile)"
