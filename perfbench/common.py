"""Paths, statistics and process helpers shared by the benchmark's files."""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes (dataset cache, spans, run records,
#: and the interpreter's bytecode caches of the program).
WORK = os.path.join(BENCH_DIR, "_work")
PYCACHE = os.path.join(WORK, "pycache")


def work_path(*parts: str) -> str:
    """A path under the benchmark's work directory (parents created)."""
    path = os.path.join(WORK, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def child_env() -> dict:
    """Environment for child processes: ``repro`` importable from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Bytecode caches are written (set-up is timed warm, as an installed
    # package runs) but kept under the work directory.
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(spec: dict, timeout: float = 170.0) -> dict:
    """Run ``worker.py`` on ``spec`` in a fresh process; its last stdout
    line is the JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=timeout, env=child_env(),
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {spec['kind']} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p50(values: list) -> float:
    return statistics.median(values)


def p90(values: list) -> float:
    """90th percentile, interpolated between the closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_probe_s(samples: int = 5) -> float:
    """Best-of-``samples`` time of a fixed pure-Python workload (calls,
    dict, string and list work) that is independent of the program:
    how fast the host runs the interpreter right now.  The collector is
    off while it runs, so the caller's own heap cannot slow it."""
    gc.disable()
    try:
        return min(_probe_once() for _ in range(samples))
    finally:
        gc.enable()


def _probe_once() -> float:
    start = time.perf_counter()
    table: dict[str, int] = {}
    for i in range(50000):
        key = f"k{i % 509}"
        table[key] = table.get(key, 0) + len(key)
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    "".join(k for k, _ in ranked).split("k")
    return time.perf_counter() - start


def program_counters() -> dict:
    """This process's counters, read from the program's own stats
    objects: compile cache, verdict cache, sandbox and token ledger."""
    from repro.runtime.accounting import get_active_token_counter
    from repro.runtime.cache import get_active_cache
    from repro.sim.sandbox import get_active_sandbox_stats
    from repro.sim.verdict import get_active_verdict_cache

    compile_stats = get_active_cache().stats
    verdict_stats = get_active_verdict_cache().stats
    return {
        "compile_hits": compile_stats.hits,
        "compile_misses": compile_stats.misses,
        "verdict_hits": verdict_stats.hits,
        "verdict_misses": verdict_stats.misses,
        "limit_verdicts": get_active_sandbox_stats().limit_verdicts,
        "escalations": get_active_token_counter().total("escalations"),
    }


#: Curation seed of the syntax dataset.  Every run uses this one
#: dataset and takes its variety from the workload seed (trial seeds,
#: request draws): curating takes 17-35 s, and a dataset per workload
#: seed made the dataset's share of unfixable entries, not the program,
#: set throughput (24% spread over seeds 1-10).
DATASET_SEED = 0


def syntax_dataset() -> str:
    """Path of the 212-entry syntax dataset, curated by the program's own
    §3.4 pipeline at ``DATASET_SEED`` and cached under the work
    directory (outside every timed region)."""
    path = work_path("datasets", f"syntax-seed{DATASET_SEED}.json")
    if not os.path.exists(path):
        from repro.eval.experiments import default_dataset

        partial = f"{path}.{os.getpid()}.tmp"
        default_dataset(seed=DATASET_SEED).save(partial)
        os.replace(partial, path)
    return path
