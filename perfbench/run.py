"""The repository's benchmark: end-to-end and per-layer repair performance.

Usage (from the repository root)::

    python3 perfbench/run.py --workload syntax-react --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``syntax-react``      -- ``batch.py``: serial ``RTLFixer.fix`` over the
  syntax dataset x 10 trial seeds;
* ``functional-table4`` -- ``batch.py``: ``run_table4`` per problem;
* ``service-open``      -- ``serving.py``: ``rtlfixer serve`` under an
  open then a closed loop.

``--trace 0`` measures the end-to-end metrics with tracing off; their
timings are scaled to a reference host speed (``REFERENCE_PROBE_S``).
``--trace 1`` makes a separate traced run and reports the per-layer
metrics: span counts and self times recorded by ``tracer.py`` around
each layer's public entry points, counters from the program's own stats
objects, and the tracer's overhead.  Inputs come from ``--seed`` only.
Every output is checked; a failed check or a failed repair makes the
run incorrect (exit code 1).  Everything written goes under
``perfbench/_work``.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

from common import PYCACHE, ROOT, SRC, work_path

WORKLOADS = ("syntax-react", "functional-table4", "service-open")
STAGES = ("preprocess", "lex", "parse", "elaborate", "render")
#: End-to-end timings are reported at the speed of a reference host: one
#: on which ``common.host_probe_s()`` takes this long.  A shared 2-vCPU
#: x86 host was measured drifting by 30% or more over minutes, with every
#: timing of a run drifting along (the probe's time and a run's median
#: latency correlated at 0.89); scaling by the probe taken during the run
#: halved the spread between runs.  Raw values are printed and recorded.
REFERENCE_PROBE_S = 0.010
TIMES = ("setup_s", "latency_p50_ms", "latency_p90_ms")
RATES = ("repairs_per_s",)


def at_reference_speed(summary: dict) -> None:
    """Scale ``summary``'s timings to the reference host, in place."""
    scale = REFERENCE_PROBE_S / summary["host_probe_s"]
    summary["raw"] = {k: summary[k] for k in TIMES + RATES}
    for k in TIMES:
        summary[k] *= scale
    for k in RATES:
        summary[k] /= scale


def environment(args: argparse.Namespace) -> dict:
    """What a result must be read next to: cores, interpreter, code."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def layer_metrics(layers: dict, counters: dict, overhead: float,
                  templates: tuple[int, int], service: dict) -> dict:
    """Every per-layer metric (``templates`` = (tried, template fixes))."""

    def calls(name: str) -> int:
        return layers.get(name, [0, 0.0])[0]

    def self_s(name: str) -> float:
        return layers.get(name, [0, 0.0])[1]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, float] = {}
    for name in ("verilog.compile_source_cold", "verilog.session_compile",
                 "diagnostics.compile", "llm.step", "rag.retrieve",
                 "sim.run_sandboxed", "repair.oracle_check", "repair.localize",
                 "repair.template_propose"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    for stage in STAGES:
        metrics[f"verilog.stage.{stage}.self_s"] = self_s(f"verilog.stage.{stage}")
    for name in ("llm.pool_step", "agents.react_run", "repair.engine_run"):
        metrics[f"{name}.self_s"] = self_s(name)
    metrics["runtime.compile_cache.hit_ratio"] = ratio(
        counters["compile_hits"], counters["compile_hits"] + counters["compile_misses"]
    )
    metrics["sim.verdict_cache.hit_ratio"] = ratio(
        counters["verdict_hits"], counters["verdict_hits"] + counters["verdict_misses"]
    )
    metrics["sim.limit_verdicts"] = counters["limit_verdicts"]
    metrics["llm.pool.escalations"] = counters["escalations"]
    metrics["repair.templates_per_fix"] = ratio(*templates)
    metrics.update(service)
    metrics["trace.overhead_ratio"] = overhead
    return metrics


def traced(workload: str, raw: dict) -> tuple[dict, dict]:
    """``(per-layer metrics, span totals)`` of a traced run."""
    if workload == "service-open":
        import serving

        untraced, traced_run = raw["runs"][0], raw["traced"]
        layers = traced_run["trace"]["layers"]
        overhead = sum(traced_run["closed_walls_s"]) / sum(untraced["closed_walls_s"])
        metrics = layer_metrics(
            layers, traced_run["trace"]["counters"], overhead, (0, 0),
            serving.service_layers(raw),
        )
        return metrics, layers
    import batch

    layers, counters, overhead, templates = batch.traced_layers(raw)
    service = {
        "service.queue_wait_p50_ms": 0.0,
        "service.exec_p50_ms": 0.0,
        "service.transport_p50_ms": 0.0,
    }
    metrics = layer_metrics(layers, counters, overhead, templates, service)
    return metrics, layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's source ({SRC}/repro) is missing; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    sys.pycache_prefix = PYCACHE
    sys.path.insert(0, SRC)
    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True))

    if args.workload == "service-open":
        import serving

        raw = serving.run_service(args.seed, args.seconds, bool(args.trace))
        summary = serving.summarize(raw)
    else:
        import batch

        raw = batch.run_batch(args.workload, args.seed, args.seconds, bool(args.trace))
        summary = batch.summarize(raw)

    if args.trace:
        values, layers = traced(args.workload, raw)
        wanted = declared["per_layer"]
        spans = {k: v for k, v in layers.items() if k != "bench.repair"}
        total = sum(v[1] for v in layers.values())
        top = sorted(spans.items(), key=lambda kv: -kv[1][1])[:5]
        for name, (count, self_time) in top:
            print(f"# self time: {name:32s} {self_time:9.4f} s "
                  f"({self_time / total:6.1%}, {count} calls)")
        if top:
            print(f"# top self-time layer on {args.workload}: {top[0][0]}")
        if args.workload == "service-open":
            print("# per request: queue wait {:.3f} ms, exec {:.3f} ms, "
                  "transport {:.3f} ms (p50)".format(
                      values["service.queue_wait_p50_ms"],
                      values["service.exec_p50_ms"],
                      values["service.transport_p50_ms"]))
    else:
        at_reference_speed(summary)
        values = summary
        wanted = declared["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    extras = {k: v for k, v in summary.items()
              if k not in metrics and k not in ("errors", "check_failures")}
    print("# run " + json.dumps(extras, sort_keys=True))
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    problems = summary["errors"] + summary["check_failures"]
    for problem in problems[:20]:
        print(f"# FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": summary["repairs"],
        "failed": len(summary["errors"]),
        "metrics": metrics,
    }
    record = work_path(
        "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record, "w") as handle:
        json.dump({"env": env, "run": extras, "problems": problems,
                   **result}, handle, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
