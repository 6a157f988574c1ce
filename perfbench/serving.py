"""The ``service-open`` workload: ``rtlfixer serve`` under load.

The server runs with ``--capacity 2`` and a two-rung simulated LLM pool,
with no work delay, no chaos and no journal.  One asyncio client process
drives it with three equal-weight tenants; requests are entries of the
syntax dataset drawn by the workload seed, each with its own repair
seed.  Every server lifetime serves two phases:

1. an open loop of ``OPEN_REQUESTS`` sent at ``OPEN_RATE`` requests/s,
   each timed from the moment it was due, so a stall also charges the
   requests queued behind it; the generator's own lateness is recorded;
2. a closed loop of ``CLOSED_CHUNKS`` x ``CLOSED_CHUNK_REQUESTS`` with
   ``nproc`` in flight, measuring capacity.

An untraced run repeats that lifetime with a fresh server and the same
requests until ``--seconds`` have passed (at least ``MIN_REPEATS``
times); each request's latency and each closed-loop chunk's wall are
the best of the repeats, which drops the stretches in which the shared host runs
slow.  Set-up time is server spawn until its ``SERVING`` line, the best
of every spawn.  A traced run serves the same requests from one
untraced and one traced server (``serve_traced.py``); the ratio of
their closed-loop walls is the tracer's overhead.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import signal
import subprocess
import sys
import time

from common import (
    BENCH_DIR, ROOT, child_env, host_probe_s, p50, p90, syntax_dataset, work_path,
)

POOL = "cheap=gpt-3.5-sim,strong=gpt-4-sim"
CAPACITY = 2
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
#: About a sixth of the saturated capacity on a 2-core x86 box (~330
#: repairs/s): requests rarely queue, and a host that runs at half speed
#: for a few seconds does not push the queue into saturation.
OPEN_RATE = 50.0
OPEN_REQUESTS = 250
#: The closed loop runs in chunks, each timed on its own, so a slow
#: stretch of the host spoils one chunk of one repeat, not the phase.
CLOSED_CHUNKS = 4
CLOSED_CHUNK_REQUESTS = 150
#: Requests in flight in the closed loop: one per core.
INFLIGHT = os.cpu_count() or 1
MIN_REPEATS = 3
#: Server spawns that only measure set-up time.
SETUP_SPAWNS = 4
#: Served requests re-run directly to check served == direct.
DIRECT_CHECKS = 12
#: Terminal statuses of the service protocol (anything else is untyped).
TYPED = {"fixed", "not_fixed", "overloaded", "deadline_exceeded",
         "backend_error", "error"}


class Requests:
    """Request ``i`` of the workload at ``seed``; a pure function of
    ``(seed, i)``."""

    def __init__(self, seed: int):
        from repro.dataset.curate import SyntaxDataset

        self.seed = seed
        self.codes = [entry.code for entry in SyntaxDataset.load(syntax_dataset())]

    def __call__(self, i: int) -> dict:
        rng = random.Random(f"service|{self.seed}|{i}")
        return {
            "tenant": TENANTS[i % len(TENANTS)],
            "code": rng.choice(self.codes),
            "seed": self.seed * 1_000_000 + i,
        }


def spawn_server(traced_out: str = "") -> tuple[subprocess.Popen, int, float]:
    """Start ``rtlfixer serve``; returns ``(process, port, setup_s)``.
    ``traced_out`` starts it under the tracer, writing spans there."""
    cmd = [sys.executable]
    if traced_out:
        cmd += [os.path.join(BENCH_DIR, "serve_traced.py"), traced_out]
    else:
        cmd += ["-m", "repro.cli"]
    cmd += ["serve", "--port", "0", "--capacity", str(CAPACITY), "--llm-pool", POOL]
    started = time.monotonic()
    with open(work_path("server-stderr.log"), "a") as log:
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=log, env=child_env(), cwd=ROOT,
            text=True,
        )
    try:
        while time.monotonic() - started < 60:
            ready, _, _ = select.select([proc.stdout], [], [], 1.0)
            if not ready:
                continue
            line = proc.stdout.readline()
            if line.startswith("SERVING"):
                setup_s = time.monotonic() - started
                return proc, int(line.rsplit(":", 1)[1].strip().rstrip("/")), setup_s
            if not line:
                break
        raise RuntimeError(f"server did not print SERVING (exit {proc.poll()})")
    except BaseException:
        stop_server(proc)
        raise


def stop_server(proc: subprocess.Popen) -> int:
    """SIGTERM (graceful drain), then wait; kill if it does not exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    return proc.returncode


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set size (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


async def _send(client, index: int, request: dict, due: float) -> dict:
    loop = asyncio.get_running_loop()
    sent = loop.time()
    try:
        http, result = await client.repair(**request)
    except (OSError, asyncio.TimeoutError, ValueError) as exc:
        http, result = 0, {"status": "client_error", "message": repr(exc)}
    done = loop.time()
    return {
        "index": index, "http": http, "result": result,
        "latency_ms": (done - due) * 1e3, "service_ms": (done - sent) * 1e3,
        "late_ms": (sent - due) * 1e3,
    }


async def open_loop(client, requests: Requests) -> list[dict]:
    """Requests ``0 .. OPEN_REQUESTS-1`` sent on a fixed schedule
    regardless of replies."""
    loop = asyncio.get_running_loop()
    t0 = loop.time() + 0.01
    tasks = []
    for i in range(OPEN_REQUESTS):
        due = t0 + i / OPEN_RATE
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(_send(client, i, requests(i), due)))
    return await asyncio.gather(*tasks)


async def closed_loop(client, requests: Requests) -> tuple[list[dict], list[float]]:
    """``INFLIGHT`` callers, each sending its next request when its last
    one is answered, over ``CLOSED_CHUNKS`` chunks of requests; returns
    ``(outcomes, chunk walls)``."""
    loop = asyncio.get_running_loop()
    outcomes: list[dict] = []
    walls: list[float] = []
    for chunk in range(CLOSED_CHUNKS):
        first = OPEN_REQUESTS + chunk * CLOSED_CHUNK_REQUESTS
        indices = iter(range(first, first + CLOSED_CHUNK_REQUESTS))
        start = loop.time()

        async def caller() -> None:
            for i in indices:
                outcomes.append(await _send(client, i, requests(i), loop.time()))

        await asyncio.gather(*(caller() for _ in range(INFLIGHT)))
        walls.append(loop.time() - start)
    return sorted(outcomes, key=lambda o: o["index"]), walls


async def _drive(port: int, requests: Requests) -> dict:
    from repro.service.client import ServiceClient

    client = ServiceClient("127.0.0.1", port, timeout=60.0)
    opened = await open_loop(client, requests)
    closed, walls = await closed_loop(client, requests)
    _, stats = await client.stats()
    return {"open": opened, "closed": closed, "closed_walls_s": walls,
            "stats": stats}


def serve_once(requests: Requests, traced_out: str = "") -> dict:
    """One server lifetime: spawn, both load phases, drain."""
    probe_s = host_probe_s()
    proc, port, setup_s = spawn_server(traced_out)
    try:
        measured = asyncio.run(_drive(port, requests))
        measured["rss_mb"] = peak_rss_mb(proc.pid)
    finally:
        exit_code = stop_server(proc)
    measured["setup_s"] = setup_s
    measured["exit_code"] = exit_code
    measured["probe_s"] = probe_s
    if traced_out:
        with open(traced_out) as handle:
            measured["trace"] = json.load(handle)
    return measured


def run_service(seed: int, seconds: float, trace: bool) -> dict:
    """Run ``service-open``; returns ``{"runs": [...], "traced": ...,
    "setups": [...], "probes": [...], "check_failures": [...]}``."""
    requests = Requests(seed)
    setups, probes = [], []
    traced = None
    if trace:
        runs = [serve_once(requests)]
        traced = serve_once(
            requests, traced_out=work_path("spans", f"service-open-seed{seed}.json")
        )
    else:
        for _ in range(SETUP_SPAWNS):
            probes.append(host_probe_s())
            proc, _, setup_s = spawn_server()
            stop_server(proc)
            setups.append(setup_s)
        runs = []
        deadline = time.monotonic() + seconds
        while len(runs) < MIN_REPEATS or time.monotonic() < deadline:
            runs.append(serve_once(requests))
    return {
        "runs": runs,
        "traced": traced,
        "setups": setups + [run["setup_s"] for run in runs],
        "probes": probes + [run["probe_s"] for run in runs],
        "check_failures": _check(runs + ([traced] if traced else []), requests, seed),
    }


def _check(runs: list[dict], requests: Requests, seed: int) -> list[str]:
    """Every answer typed, nothing crashed, clean drains, the same
    answer to a request from every server, and a seeded sample of
    answers digest-equal to a direct ``RTLFixer`` run."""
    from repro.core import RTLFixer
    from repro.service.protocol import RepairRequest, result_digest

    failures = []
    for run in runs:
        outcomes = run["open"] + run["closed"]
        untyped = [o for o in outcomes if o["result"].get("status") not in TYPED]
        if untyped:
            failures.append(f"{len(untyped)} untyped answer(s), e.g. {untyped[0]['result']}")
        if run["stats"]["service"]["crashed"]:
            failures.append(f"{run['stats']['service']['crashed']} crashed job(s)")
        if run["exit_code"] != 0:
            failures.append(f"server exited {run['exit_code']} after drain")
    answers = [
        [o["result"].get("result_digest") for o in run["open"] + run["closed"]]
        for run in runs
    ]
    if any(other != answers[0] for other in answers[1:]):
        failures.append("servers answered the same requests differently")
    answered = [
        o for o in runs[0]["open"] + runs[0]["closed"]
        if o["result"].get("status") in ("fixed", "not_fixed")
    ]
    for outcome in random.Random(f"direct|{seed}").sample(
        answered, min(DIRECT_CHECKS, len(answered))
    ):
        request = requests(outcome["index"])
        config = RepairRequest(
            tenant=request["tenant"], code=request["code"], seed=request["seed"]
        ).to_config(max_retries=2, step_timeout=None, llm_pool=POOL)
        direct = RTLFixer(config=config).fix(request["code"])
        expected = result_digest({
            "status": "fixed" if direct.success else "not_fixed",
            "iterations": direct.iterations,
            "final_code": direct.final_code,
        })
        if expected != outcome["result"]["result_digest"]:
            failures.append(f"request {outcome['index']}: served != direct")
    return failures


def failed(outcome: dict) -> bool:
    """Crashed, untyped, 5xx, shed or otherwise not a repair answer."""
    return outcome["http"] != 200 or outcome["result"].get("status") not in (
        "fixed", "not_fixed"
    )


def summarize(raw: dict) -> dict:
    """End-to-end numbers: open-loop latency and closed-loop throughput,
    best of the repeats."""
    runs = raw["runs"]
    best_ms = [min(values) for values in zip(
        *([o["latency_ms"] for o in run["open"]] for run in runs)
    )]
    first = runs[0]["open"] + runs[0]["closed"]
    every = [o for run in runs + ([raw["traced"]] if raw["traced"] else [])
             for o in run["open"] + run["closed"]]
    return {
        "setup_s": min(raw["setups"]),
        "repairs_per_s": CLOSED_CHUNKS * CLOSED_CHUNK_REQUESTS / sum(
            min(walls) for walls in zip(*(run["closed_walls_s"] for run in runs))
        ),
        "latency_p50_ms": p50(best_ms),
        "latency_p90_ms": p90(best_ms),
        "fix_rate": sum(o["result"].get("status") == "fixed" for o in first) / len(first),
        "peak_rss_mb": p50([run["rss_mb"] for run in runs]),
        "repairs": len(every),
        "errors": [
            f"request {o['index']}: {o['http']} {o['result'].get('status')}"
            for o in every if failed(o)
        ],
        "check_failures": raw["check_failures"],
        "repeats": len(runs),
        "host_probe_s": min(raw["probes"]),
        "generator_late_p50_ms": p50([o["late_ms"] for o in runs[0]["open"]]),
        "generator_late_max_ms": max(o["late_ms"] for o in runs[0]["open"]),
        "open_rate_per_s": OPEN_RATE,
        "inflight": INFLIGHT,
    }


def service_layers(raw: dict) -> dict:
    """Queue wait, execution and transport medians of the untraced
    server's open loop (transport = latency since sending − queue wait −
    execution)."""
    answered = [o for o in raw["runs"][0]["open"] if not failed(o)]
    queue = [o["result"]["queue_wait_s"] * 1e3 for o in answered]
    execute = [o["result"]["exec_s"] * 1e3 for o in answered]
    transport = [o["service_ms"] - q - e for o, q, e in zip(answered, queue, execute)]
    return {
        "service.queue_wait_p50_ms": p50(queue),
        "service.exec_p50_ms": p50(execute),
        "service.transport_p50_ms": p50(transport),
    }
