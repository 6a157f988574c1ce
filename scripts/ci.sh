#!/usr/bin/env bash
# One-command CI gate: tier-1 tests (the chaos-marked fault-injection
# and pool-outage suites included: no marker is deselected), a
# 200-iteration compiler front-end fuzz smoke (its digest pinned in
# tests/data/fuzz_smoke_digest.sha256), the simulator
# differential (compiled engine vs interpreter over every corpus
# reference, verdicts and traces bit-identical), the sandbox gate (the
# hostile-testbench corpus under both engines: every runaway/oscillator/
# bomb design must come back as a typed limit/crashed verdict with both
# engines agreeing, then again under one shared verdict cache with every
# verdict repeating and no reference recorded for replay), the durable-
# run resume smoke (run, SIGKILL, resume, compare report digests), the
# repair-service smoke (serve, SIGTERM drain mid-load, resume, replay
# digest-identical) and the tracer smoke (a one-second traced
# perfbench syntax-react run: perfbench/tracer.py rebinds src/ names by
# string, so a rename there breaks only the traced benchmark; the stage
# fails unless the run passes and the model-step, compile and retrieval
# spans all recorded calls).  The repair-engine differential is no
# longer a stage of its own: the ReAct and simulation-debugging
# transcripts are pinned by a frozen digest checked in tier-1
# (tests/data/repair_digest.sha256).
# Exits non-zero if any stage fails; later stages still run so one log
# shows every break.
#
# Usage:
#   scripts/ci.sh                # all seven stages
#   FUZZ_ITERATIONS=1000 scripts/ci.sh   # deeper fuzz stage (digest not pinned)
set -uo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
iterations="${FUZZ_ITERATIONS:-200}"
status=0

echo "== tier-1 tests =="
python -m pytest -q || status=1

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

echo "== resume smoke (run, kill -9, resume, compare digests) =="
python scripts/resume_smoke.py || status=1

echo "== service smoke (serve, SIGTERM drain mid-load, resume, replay) =="
python scripts/service_smoke.py || status=1

echo "== tracer smoke (traced perfbench syntax-react, seed 1, 1 s) =="
trace_log="$(python3 perfbench/run.py --workload syntax-react --seed 1 --seconds 1 --trace 1)" || status=1
grep '^# self time' <<<"$trace_log"
for metric in llm.step.calls diagnostics.compile.calls rag.retrieve.calls; do
    line="$(grep -F "# $metric = " <<<"$trace_log")"
    echo "${line:-# $metric missing}"
    if ! grep -Eq ' = [1-9][0-9]* count$' <<<"$line"; then
        echo "tracer smoke: $metric recorded no calls" >&2
        status=1
    fi
done

if [[ "$status" -eq 0 ]]; then
    echo "CI: all stages passed"
else
    echo "CI: FAILED (see stage output above)" >&2
fi
exit "$status"
