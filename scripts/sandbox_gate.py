#!/usr/bin/env python
"""Hostile-testbench sandbox gate: no hang, no crash, typed verdicts.

Runs every design in ``tests/data/sim_hostile/`` -- runaway procedural
loops, oscillating combinational nets, $display floods, trace bombs and
absurd cycle counts -- through the sandboxed harness its pragma names
(:func:`repro.sim.run_differential` or :func:`repro.sim.make_sim_feedback`)
under the **default** production budgets, once per engine:

* **interp**   -- the AST-walking 4-state :class:`repro.sim.Simulator`;
* **compiled** -- :class:`repro.sim.CompiledSimulator`.

Each file's first line is a ``// hostile:`` pragma naming the harness
mode, the sample count and the budget expected to fire, e.g.::

    // hostile: mode=feedback samples=1500 kind=trace_bytes

The gate asserts, for every file and both engines:

* the run returns (bounded wall clock -- a hang here is the exact
  failure mode the sandbox exists to prevent);
* the verdict is a typed ``limit`` or ``crashed`` classification, never
  a raw exception;
* the exhausted budget matches the pragma's ``kind``;
* both engines agree on the (category, kind) pair -- the dataset-scale
  counterpart of the ``sandbox-differential`` fuzz invariant.

The first pass runs with no verdict cache.  A second pass reruns the
corpus under one shared :class:`repro.sim.VerdictCache`, where the
reference-tape path is live, and asserts that every verdict repeats its
(category, kind, phase) and that no hostile design is ever taped.
Wall-clock watchdog verdicts are exempt from the repeat check: they
depend on host speed.

Exit code 0 iff every assertion holds for every file.

Usage:
    scripts/sandbox_gate.py [--corpus DIR] [--budget SECONDS]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, "src")

from repro.diagnostics import compile_source  # noqa: E402
from repro.scope import scoped  # noqa: E402
from repro.sim import (  # noqa: E402
    VerdictCache,
    make_sim_feedback,
    run_differential,
)

ENGINES = ("interp", "compiled")

#: Pragma ``mode`` -> the sandboxed harness it runs.
HARNESSES = {"diff": run_differential, "feedback": make_sim_feedback}

DEFAULT_CORPUS = Path(__file__).resolve().parent.parent / (
    "tests/data/sim_hostile"
)


def parse_pragma(text: str, name: str) -> dict:
    """Parse the ``// hostile:`` header into {mode, samples, kind}."""
    head = text.splitlines()[0] if text else ""
    if not head.startswith("// hostile:"):
        raise ValueError(f"{name}: missing '// hostile:' pragma on line 1")
    pragma = {}
    for token in head.replace("// hostile:", "").split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"{name}: bad pragma token {token!r}")
        pragma[key] = value
    pragma.setdefault("mode", "diff")
    if pragma["mode"] not in HARNESSES:
        raise ValueError(f"{name}: unknown pragma mode {pragma['mode']!r}")
    pragma["samples"] = int(pragma.get("samples", 16))
    # Budget kinds use spaces ("trace bytes"); pragmas use underscores.
    pragma["kind"] = pragma.get("kind", "").replace("_", " ")
    return pragma


def main() -> int:
    """Run the hostile corpus under both engines; 0 = sandbox held."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--corpus", type=Path, default=DEFAULT_CORPUS,
        help="directory of '// hostile:'-tagged .v files",
    )
    parser.add_argument(
        "--budget", type=float, default=30.0,
        help="per-run wall-clock allowance (the sandbox must return "
        "well inside this; the default production watchdog is 10s)",
    )
    args = parser.parse_args()

    files = sorted(args.corpus.glob("*.v"))
    if not files:
        print(f"no hostile corpus at {args.corpus}", file=sys.stderr)
        return 1
    print(
        f"sandbox gate: {len(files)} hostile designs x {len(ENGINES)} "
        f"engines, default budgets"
    )

    failures = 0

    def fail(message: str) -> None:
        nonlocal failures
        failures += 1
        print(f"FAIL: {message}", file=sys.stderr)

    designs = []
    for path in files:
        text = path.read_text()
        try:
            pragma = parse_pragma(text, path.name)
        except ValueError as exc:
            fail(str(exc))
            continue
        result = compile_source(text, name=path.name)
        if not result.ok or result.elaborated is None:
            fail(f"{path.name}: does not elaborate: "
                 f"{result.log.splitlines()[0] if result.log else '?'}")
            continue
        designs.append((path.name, pragma, result.elaborated))

    def run(name, pragma, design, engine):
        """One checked sandboxed run; its verdict, or None if it escaped."""
        start = time.perf_counter()
        try:
            verdict = HARNESSES[pragma["mode"]](
                design, design, samples=pragma["samples"], engine=engine,
            ).verdict
        except BaseException as exc:
            fail(f"{name} [{engine}]: escaped the sandbox: "
                 f"{type(exc).__name__}: {exc}")
            return None
        took = time.perf_counter() - start
        print(f"  {name:>18} [{engine:>8}]: "
              f"{verdict.summary()} ({took:.2f}s)")
        if took > args.budget:
            fail(f"{name} [{engine}]: {took:.1f}s exceeds the "
                 f"{args.budget:.0f}s gate allowance")
        if verdict.category not in ("limit", "crashed"):
            fail(f"{name} [{engine}]: hostile design yielded "
                 f"{verdict.summary()!r}, expected limit/crashed")
        elif pragma["kind"] and verdict.kind != pragma["kind"]:
            fail(f"{name} [{engine}]: budget {verdict.kind!r} "
                 f"fired, pragma expects {pragma['kind']!r}")
        return verdict

    first = {}
    with scoped(verdict_cache=None):
        for name, pragma, design in designs:
            verdicts = {}
            for engine in ENGINES:
                verdict = run(name, pragma, design, engine)
                if verdict is not None:
                    verdicts[engine] = first[name, engine] = verdict
            if len(verdicts) == len(ENGINES):
                iv, cv = verdicts["interp"], verdicts["compiled"]
                if (iv.category, iv.kind) != (cv.category, cv.kind):
                    fail(f"{name}: engines disagree: "
                         f"interp={iv.summary()!r} "
                         f"compiled={cv.summary()!r}")

    print("sandbox gate: second pass under one shared verdict cache")
    shared = VerdictCache()
    with scoped(verdict_cache=shared):
        for name, pragma, design in designs:
            for engine in ENGINES:
                verdict = run(name, pragma, design, engine)
                if len(shared.tapes):
                    fail(f"{name} [{engine}]: a hostile reference was taped")
                    shared.clear()
                before = first.get((name, engine))
                if verdict is None or before is None:
                    continue
                if "wall clock" in (verdict.kind, before.kind):
                    continue
                again = (verdict.category, verdict.kind, verdict.phase)
                if again != (before.category, before.kind, before.phase):
                    fail(f"{name} [{engine}]: verdict changed under the "
                         f"shared cache: {before.summary()!r} -> "
                         f"{verdict.summary()!r}")

    if failures:
        print(f"FAILED: {failures} sandbox violation(s)", file=sys.stderr)
        return 1
    print("sandbox gate: every hostile design contained, engines agree, "
          "verdicts repeat under a shared cache with no tape recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
