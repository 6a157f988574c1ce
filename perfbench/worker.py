"""One pass of a batch workload, run in a fresh process.

Usage: ``python3 perfbench/worker.py '<json spec>'`` (``run.py`` builds
the spec).  A fresh process per pass means every pass starts with cold
program caches, as a batch user's run does.  The last line of stdout is
the pass result as JSON.

Set-up time runs from the parent's spawn timestamp (``spawned_at``,
``time.monotonic``, which is system-wide on Linux) to the moment the
first repair can be submitted: the interpreter, the ``repro`` imports
and the ``RTLFixer()`` or problem set.  Loading the benchmark's own
inputs comes after it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from common import peak_rss_mb, program_counters


def syntax_pass(spec: dict) -> dict:
    """Serial ``RTLFixer.fix`` calls over a slice of the syntax dataset,
    every entry once per trial seed (the paper's n=10 protocol)."""
    from repro.core import RTLFixer

    fixer = RTLFixer()
    setup_s = time.monotonic() - spec["spawned_at"]
    tracer = _tracer(spec)
    from repro.dataset.curate import SyntaxDataset

    lo, hi = spec["entries"]
    entries = SyntaxDataset.load(spec["dataset"]).entries[lo:hi]
    latencies, finals, errors = [], set(), []
    outcomes = hashlib.sha256()
    fixed = 0
    start = time.perf_counter()
    for entry in entries:
        for trial_seed in spec["trial_seeds"]:
            began = time.perf_counter()
            try:
                with tracer.span("bench.repair"):
                    result = fixer.with_seed(trial_seed).fix(
                        entry.code, description=entry.description
                    )
            except Exception as exc:  # a crashed repair is counted, not fatal
                result = None
                errors.append(f"{entry.problem_id}/{trial_seed}: {exc!r}")
            latencies.append((time.perf_counter() - began) * 1e3)
            if result is None:
                continue
            outcomes.update(
                f"{result.success}|{result.iterations}|{result.final_code}\0".encode()
            )
            if result.success:
                fixed += 1
                finals.add(result.final_code)
    wall_s = time.perf_counter() - start
    out = _finish(spec, tracer, setup_s, wall_s, latencies, errors)
    out.update(
        attempted=len(entries) * len(spec["trial_seeds"]), fixed=fixed,
        digest=outcomes.hexdigest(), check_failures=[],
    )
    if spec["check"]:
        from repro.diagnostics import compile_source

        out["check_failures"] = [
            f"fixed output does not recompile clean:\n{code}"
            for code in sorted(finals)
            if not compile_source(code, flavor=fixer.config.compiler).ok
        ]
    return out


def table4_pass(spec: dict) -> dict:
    """``run_table4`` per problem, serial, ``jobs=1``.  ``mutants[i]``
    counts the mutants unit ``i`` repaired (0 when both seeded bugs
    turned out equivalent to the reference, so nothing needed repair)."""
    from repro.dataset.corpus import verilogeval
    from repro.dataset.problem import ProblemSet
    from repro.eval.experiments import run_table4

    problems = {problem.id: problem for problem in verilogeval()}
    setup_s = time.monotonic() - spec["spawned_at"]
    tracer = _tracer(spec)
    latencies, errors, mutants = [], [], []
    outcomes = hashlib.sha256()
    fixed = template_fixed = templates_tried = 0
    start = time.perf_counter()
    for seed, problem_id in spec["units"]:
        began = time.perf_counter()
        with tracer.span("bench.repair"):
            result = run_table4(
                ProblemSet("bench", [problems[problem_id]]), seed=seed,
                jobs=1, on_error="collect",
            )
        latencies.append((time.perf_counter() - began) * 1e3)
        errors.extend(f"{problem_id}: {failure}" for failure in result.failures)
        outcomes.update(f"{seed}|{problem_id}|{result.digest()}\0".encode())
        tried, by_template, by_llm = result.totals()
        mutants.append(tried)
        fixed += by_template + by_llm
        template_fixed += by_template
        templates_tried += result.templates_tried
    wall_s = time.perf_counter() - start
    out = _finish(spec, tracer, setup_s, wall_s, latencies, errors)
    out.update(
        attempted=sum(mutants), fixed=fixed, digest=outcomes.hexdigest(),
        mutants=mutants,
        template_fixed=template_fixed, templates_tried=templates_tried,
        check_failures=[],
    )
    return out


def _tracer(spec: dict):
    from tracer import Tracer

    tracer = Tracer()
    if spec["trace"]:
        tracer.install()
    else:
        tracer.enabled = False
    return tracer


def _finish(spec, tracer, setup_s, wall_s, latencies, errors) -> dict:
    """The pass's timings and counters, plus its spans when traced."""
    tracer.enabled = False
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_ms": latencies,
        "errors": errors,
        "rss_mb": peak_rss_mb(),
        "counters": program_counters(),
    }
    if spec["trace"]:
        out["layers"] = tracer.aggregate()
        tracer.write(spec["spans_path"])
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    passes = {"syntax": syntax_pass, "table4": table4_pass}
    print(json.dumps(passes[spec["kind"]](spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
