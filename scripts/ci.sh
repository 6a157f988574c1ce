#!/usr/bin/env bash
# One-command CI gate: tier-1 tests, the chaos (fault-injection) suite,
# the pool-chaos drills (outage of each LLM tier: cheap heals via
# failover, strong trips the breaker, whole-ladder propagates), a
# 200-iteration compiler front-end fuzz smoke (its digest pinned in
# tests/data/fuzz_smoke_digest.sha256), the simulator
# differential (compiled engine vs interpreter over every corpus
# reference, verdicts and traces bit-identical), the sandbox gate (the
# hostile-testbench corpus under both engines: every runaway/oscillator/
# bomb design must come back as a typed limit/crashed verdict with both
# engines agreeing, then again under one shared verdict cache with every
# verdict repeating and no reference recorded for replay), the repair-engine differential (legacy hand-rolled
# ReAct/simfix loops vs their RepairEngine rewrites, corpus-wide,
# transcript-digest-identical), the durable-run resume smoke (run,
# SIGKILL, resume, compare report digests), and the repair-service smoke
# (serve, SIGTERM drain mid-load, resume, replay digest-identical).
# Exits non-zero if any stage fails; later stages still run so one log
# shows every break.
#
# Usage:
#   scripts/ci.sh                # all nine stages
#   FUZZ_ITERATIONS=1000 scripts/ci.sh   # deeper fuzz stage (digest not pinned)
set -uo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
iterations="${FUZZ_ITERATIONS:-200}"
status=0

echo "== tier-1 tests =="
python -m pytest -q || status=1

echo "== chaos (fault-injection) suite =="
python -m pytest tests/test_faults.py -m chaos -q || status=1

echo "== pool chaos (per-tier LLM outages, breaker armed) =="
python -m pytest tests/test_pool.py -m chaos -q || status=1

echo "== fuzz smoke ($iterations iterations, seed 0) =="
fuzz_log="$(python -m repro.cli fuzz --seed 0 --iterations "$iterations")" || status=1
echo "$fuzz_log"
# The default run is pinned: the same seed and iteration count must
# give the committed digest.  A deeper FUZZ_ITERATIONS run is not.
if [[ "$iterations" == 200 ]]; then
    pinned="$(cat tests/data/fuzz_smoke_digest.sha256)"
    if ! grep -qx "digest: $pinned" <<<"$fuzz_log"; then
        echo "fuzz smoke: digest differs from tests/data/fuzz_smoke_digest.sha256" >&2
        status=1
    fi
fi

echo "== simulator differential (compiled engine vs interp, full corpus) =="
python scripts/sim_diff.py || status=1

echo "== sandbox gate (hostile corpus, both engines, default budgets) =="
python scripts/sandbox_gate.py || status=1

echo "== repair-engine differential (legacy vs engine, corpus-wide) =="
python scripts/repair_diff.py || status=1

echo "== resume smoke (run, kill -9, resume, compare digests) =="
python scripts/resume_smoke.py || status=1

echo "== service smoke (serve, SIGTERM drain mid-load, resume, replay) =="
python scripts/service_smoke.py || status=1

if [[ "$status" -eq 0 ]]; then
    echo "CI: all stages passed"
else
    echo "CI: FAILED (see stage output above)" >&2
fi
exit "$status"
