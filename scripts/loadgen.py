#!/usr/bin/env python
"""Deterministic load generator for the repair service.

Spawns an ``rtlfixer serve`` instance (or targets a running one with
``--port``), replays a seeded multi-tenant workload against it at a
fixed client-side concurrency, and emits a machine-readable benchmark
artifact (``BENCH_service.json``) with:

* latency percentiles (p50/p99) and throughput (jobs/sec) for the
  *admitted* jobs,
* the shed rate and the per-reason shed breakdown,
* the journal-replay and compile-cache hit rates,
* the final ``/stats`` ledger (zero ``crashed`` is asserted).

Two drill modes on top of the plain benchmark:

* ``--overload``: offered load is sized at ~2x the server's capacity
  (small queues, slow jobs), so a healthy run MUST shed -- the script
  fails if nothing was shed, if any admitted job crashed, or if any
  rejection was untyped;
* ``--chaos``: the spawned server gets a mid-load backend outage window
  (``--chaos-outage``); the script asserts the service degraded
  (backend errors and/or breaker sheds), healed (jobs succeed after the
  window), and never crashed.

Usage:
    PYTHONPATH=src python scripts/loadgen.py                 # benchmark
    PYTHONPATH=src python scripts/loadgen.py --overload
    PYTHONPATH=src python scripts/loadgen.py --chaos
    PYTHONPATH=src python scripts/loadgen.py --out BENCH_service.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service.client import ServiceClient  # noqa: E402

#: Seeded workload: small broken modules the simulated backend can
#: repair quickly; per-job seeds make every submission a distinct
#: journal key.
SNIPPETS = [
    "module top_module(input [7:0] in, output [7:0] out);\n"
    "assign out[8] = in[0];\nendmodule\n",
    "module adder(input [3:0] a, input [3:0] b, output [4:0] s);\n"
    "assign s = a + b\nendmodule\n",
    "module mux(input a, input b, input sel, output y);\n"
    "assign y = sel ? a : b;\nendmodule\n",
]

TENANTS = ["tenant-a", "tenant-b", "tenant-c"]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample set)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def spawn_server(args: argparse.Namespace) -> tuple[subprocess.Popen, int]:
    """Start ``rtlfixer serve`` and wait for its SERVING line."""
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", "0",
        "--capacity", str(args.capacity),
        "--queue-per-tenant", str(args.queue_per_tenant),
        "--max-queued", str(args.max_queued),
        "--work-delay", str(args.work_delay),
        "--breaker-threshold", str(args.breaker_threshold),
        "--probe-interval", "2",
    ]
    if args.chaos:
        cmd += ["--chaos-outage", args.chaos_outage]
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), "..", "src")
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    # stderr goes to a file, not a pipe nobody drains, so a server that
    # exits before SERVING (a rejected option) can say why.
    log = tempfile.TemporaryFile("w+")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=log, env=env, text=True,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line.startswith("SERVING"):
            return proc, int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        if not line and proc.poll() is not None:
            break
    proc.kill()
    code = proc.wait()
    log.seek(0)
    last = (log.read().strip().splitlines() or ["(no stderr)"])[-1]
    raise RuntimeError(
        f"server did not print a SERVING line (exit {code}: {last})"
    )


async def drive(args: argparse.Namespace, port: int) -> dict:
    """Fire the workload and collect the measurements."""
    client = ServiceClient("127.0.0.1", port, timeout=120.0)
    semaphore = asyncio.Semaphore(args.concurrency)
    outcomes: list[dict] = []

    async def one_job(index: int) -> None:
        """Submit job ``index`` and record its outcome + latency."""
        tenant = TENANTS[index % len(TENANTS)]
        code = SNIPPETS[index % len(SNIPPETS)]
        async with semaphore:
            started = time.monotonic()
            status, result = await client.repair(
                code=code, tenant=tenant, seed=args.seed + index,
                deadline_s=args.deadline_s,
            )
            outcomes.append({
                "http": status,
                "status": result.get("status", "?"),
                "reason": result.get("reason"),
                "latency_s": time.monotonic() - started,
            })

    started = time.monotonic()
    await asyncio.gather(*(one_job(i) for i in range(args.jobs)))
    wall_s = time.monotonic() - started
    _, stats = await client.stats()
    return {"outcomes": outcomes, "wall_s": wall_s, "stats": stats}


def summarize(args: argparse.Namespace, measured: dict) -> dict:
    """Reduce raw outcomes to the benchmark artifact payload."""
    outcomes = measured["outcomes"]
    admitted = [o for o in outcomes if o["status"] not in ("overloaded", "?")]
    shed = [o for o in outcomes if o["status"] == "overloaded"]
    latencies = [o["latency_s"] for o in admitted]
    service = measured["stats"]["service"]
    cache = measured["stats"].get("compile_cache") or {}
    submitted = max(1, service["submitted"])
    shed_reasons: dict[str, int] = {}
    for entry in shed:
        reason = entry["reason"] or "untyped"
        shed_reasons[reason] = shed_reasons.get(reason, 0) + 1
    return {
        "benchmark": "service_loadgen",
        "mode": ("chaos" if args.chaos
                 else "overload" if args.overload else "steady"),
        "jobs_offered": len(outcomes),
        "jobs_admitted": len(admitted),
        "jobs_shed": len(shed),
        "shed_rate": len(shed) / max(1, len(outcomes)),
        "shed_reasons": shed_reasons,
        "latency_p50_s": round(percentile(latencies, 0.50), 6),
        "latency_p99_s": round(percentile(latencies, 0.99), 6),
        "jobs_per_sec": round(len(admitted) / max(1e-9, measured["wall_s"]), 3),
        "wall_s": round(measured["wall_s"], 3),
        "replay_hit_rate": service["replayed"] / submitted,
        "compile_cache_hit_rate": cache.get("hit_rate", 0.0),
        "service": service,
        "params": {
            "capacity": args.capacity,
            "concurrency": args.concurrency,
            "work_delay": args.work_delay,
            "queue_per_tenant": args.queue_per_tenant,
            "max_queued": args.max_queued,
            "seed": args.seed,
        },
    }


def check(args: argparse.Namespace, summary: dict) -> list[str]:
    """The drill assertions; returns a list of failures (empty = pass)."""
    failures: list[str] = []
    service = summary["service"]
    if service["crashed"]:
        failures.append(f"{service['crashed']} job(s) CRASHED (must be 0)")
    if summary["shed_reasons"].get("untyped"):
        failures.append("untyped overload rejection observed")
    if args.overload:
        if summary["jobs_shed"] == 0:
            failures.append(
                "overload drill shed nothing (offered load should exceed "
                "capacity)"
            )
        if service["completed"] - service["deadline_expired"] <= 0:
            failures.append("overload drill completed no admitted jobs")
    if args.chaos:
        degraded = (
            service["backend_errors"] > 0
            or service["shed"].get("breaker_open", 0) > 0
        )
        if not degraded:
            failures.append(
                "chaos drill saw no backend errors or breaker sheds "
                "(outage window did not bite)"
            )
        if service["fixed"] == 0:
            failures.append("chaos drill never healed (no job succeeded)")
    return failures


def main() -> int:
    """Run the drill / benchmark; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port", type=int, default=None,
                        help="target a running server instead of spawning")
    parser.add_argument("--jobs", type=int, default=36)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--capacity", type=int, default=2)
    parser.add_argument("--queue-per-tenant", type=int, default=4)
    parser.add_argument("--max-queued", type=int, default=8)
    parser.add_argument("--work-delay", type=float, default=0.05)
    parser.add_argument("--deadline-s", type=float, default=30.0)
    parser.add_argument("--breaker-threshold", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--overload", action="store_true",
                        help="assert the 2x-capacity overload contract")
    parser.add_argument("--chaos", action="store_true",
                        help="inject a mid-load backend outage and assert "
                        "shed-then-heal")
    parser.add_argument("--chaos-outage", default="4:6",
                        help="outage window START:COUNT for --chaos")
    parser.add_argument("--out", default=None, metavar="JSON",
                        help="write the benchmark artifact here")
    args = parser.parse_args()
    if args.overload:
        # Size the drill so shedding is guaranteed by construction:
        # more concurrent submissions than capacity + every queue slot
        # can absorb (~2x), with jobs slow enough that the backlog
        # cannot drain between waves.
        args.concurrency = max(
            args.concurrency, 2 * (args.capacity + args.max_queued)
        )
        args.jobs = max(args.jobs, 2 * args.concurrency)
        args.work_delay = max(args.work_delay, 0.1)

    proc = None
    if args.port is None:
        proc, port = spawn_server(args)
    else:
        port = args.port
    try:
        measured = asyncio.run(drive(args, port))
    finally:
        if proc is not None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
    summary = summarize(args, measured)
    failures = check(args, summary)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    print(
        f"offered={summary['jobs_offered']} admitted={summary['jobs_admitted']} "
        f"shed={summary['jobs_shed']} ({summary['shed_rate']:.0%}) "
        f"p50={summary['latency_p50_s'] * 1000:.1f}ms "
        f"p99={summary['latency_p99_s'] * 1000:.1f}ms "
        f"throughput={summary['jobs_per_sec']}/s "
        f"crashed={summary['service']['crashed']}"
    )
    if proc is not None and proc.returncode != 0:
        failures.append(f"server exited {proc.returncode} (want 0 after drain)")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("loadgen: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
