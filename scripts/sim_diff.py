#!/usr/bin/env python
"""Simulator differential gate: compiled engine must equal the interpreter.

Compiles every golden reference in the VerilogEval-style corpus and runs
the full differential testbench plus an output-tracing simulation on each
design **twice**:

* **interp**   -- the AST-walking 4-state :class:`repro.sim.Simulator`,
  the reference semantics;
* **compiled** -- :class:`repro.sim.CompiledSimulator`, the closure-
  lowered two-state fast path with per-process interpreter fallback.

Both runs happen under ``scoped(verdict_cache=None)`` so every
simulation is really executed (no memoized verdict can mask an engine
bug).  Any divergence in the testbench verdict (pass/fail, sample and
mismatch counts, recorded mismatches, failure reason) or in the traced
output waveforms (bit-identical, X/Z included) is reported and the script
exits non-zero -- this is the dataset-scale counterpart of the
``simulator-differential`` fuzz invariant, run as a CI stage.  Per-engine
simulated-cycles/sec throughput is printed so the fast path's speedup is
visible in CI logs.

Usage:
    scripts/sim_diff.py [--limit N] [--samples N] [--seed N]
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from repro.dataset import verilogeval  # noqa: E402
from repro.diagnostics import compile_source  # noqa: E402
from repro.scope import scoped  # noqa: E402
from repro.sim import (  # noqa: E402
    run_differential,
    simulate_with_traces,
)

ENGINES = ("interp", "compiled")


def _verdict_fingerprint(result) -> tuple:
    """Everything observable about one TestbenchResult, as a plain tuple."""
    return (
        result.passed,
        result.samples,
        result.mismatch_count,
        tuple(
            (m.sample, m.output, m.expected, m.actual)
            for m in result.mismatches
        ),
        result.failure_reason,
    )


def _trace_fingerprint(traces) -> tuple:
    """Bit-exact snapshot of a (candidate, reference) trace pair."""
    out = []
    for trace in traces:
        for name in trace.signals:
            for i in range(trace.length):
                value = trace.value_at(name, i)
                out.append(
                    (name, i)
                    if value is None
                    else (name, i, value.width, value.bits,
                          value.xmask, value.signed)
                )
    return tuple(out)


def main() -> int:
    """Run the dataset-scale engine differential; 0 = bit-identical."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--limit", type=int, default=0,
        help="check only the first N designs (0 = all)",
    )
    parser.add_argument(
        "--samples", type=int, default=64,
        help="stimulus vectors / clock cycles per testbench run",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    corpus = verilogeval()
    designs = []
    for problem in corpus:
        result = compile_source(problem.reference, name=problem.id)
        if result.ok and result.elaborated is not None:
            designs.append((problem.id, result.elaborated))
    if args.limit:
        designs = designs[: args.limit]
    print(
        f"simulator differential: {len(designs)} corpus references "
        f"x {len(ENGINES)} engines, {args.samples} samples each"
    )

    divergences = 0
    elapsed = dict.fromkeys(ENGINES, 0.0)
    cycles = dict.fromkeys(ENGINES, 0)
    with scoped(verdict_cache=None):
        for name, design in designs:
            verdicts = {}
            traces = {}
            for engine in ENGINES:
                start = time.perf_counter()
                verdicts[engine] = _verdict_fingerprint(
                    run_differential(
                        design, design, samples=args.samples,
                        seed=args.seed, engine=engine,
                    )
                )
                traces[engine] = _trace_fingerprint(
                    simulate_with_traces(
                        design, design, samples=args.samples,
                        seed=args.seed, engine=engine,
                    )
                )
                elapsed[engine] += time.perf_counter() - start
                cycles[engine] += 2 * args.samples  # testbench + traced run
            if verdicts["interp"] != verdicts["compiled"]:
                divergences += 1
                print(
                    f"VERDICT DIVERGENCE at {name}:\n"
                    f"  interp:   {verdicts['interp']!r}\n"
                    f"  compiled: {verdicts['compiled']!r}",
                    file=sys.stderr,
                )
            if traces["interp"] != traces["compiled"]:
                divergences += 1
                print(f"TRACE DIVERGENCE at {name}", file=sys.stderr)

    for engine in ENGINES:
        rate = cycles[engine] / elapsed[engine] if elapsed[engine] else 0.0
        print(
            f"  {engine:>8}: {elapsed[engine]:.1f}s "
            f"({rate:,.0f} simulated cycles/sec)"
        )
    if elapsed["compiled"]:
        print(
            f"  speedup: {elapsed['interp'] / elapsed['compiled']:.1f}x"
        )
    if divergences:
        print(f"FAILED: {divergences} divergence(s)", file=sys.stderr)
        return 1
    print("simulator differential: compiled engine bit-identical to interp")
    return 0


if __name__ == "__main__":
    sys.exit(main())
