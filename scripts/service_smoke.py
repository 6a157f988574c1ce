#!/usr/bin/env python
"""CI smoke drill for the repair service: serve, drain, resume.

One self-contained pass over the service's whole lifecycle contract:

1. start ``rtlfixer serve`` with a journal (``--run-dir``), wait for
   the SERVING line;
2. submit a batch of jobs concurrently and SIGTERM the server while
   they are in flight;
3. assert the two-stage drain held: every submission got a typed
   answer (result or ``draining`` shed -- never a dropped connection),
   and the server exited 0;
4. restart the server on the same run directory with ``--resume``,
   resubmit every job that completed before the drain, and assert each
   replays from the journal (``replayed: true``) with a
   ``result_digest`` identical to the pre-drain answer;
5. assert each server's ``# service:`` drain line adds up: every
   submission was admitted, shed or replayed, and every admitted or
   replayed one completed.

Exit code 0 when every assertion holds.  Used as a ci.sh stage.

Usage:
    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import IO

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service.client import ServiceClient  # noqa: E402

BROKEN = (
    "module top_module(input [7:0] in, output [7:0] out);\n"
    "assign out[8] = in[0];\nendmodule\n"
)
JOBS = 10


def start_server(run_dir: str, resume: bool) -> tuple[subprocess.Popen, int, IO]:
    """Spawn one journaled server; returns (process, port, stderr file)."""
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", "0", "--capacity", "2",
        "--work-delay", "0.15",
        "--run-dir", run_dir,
    ]
    if resume:
        cmd.append("--resume")
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
            return proc, int(line.rsplit(":", 1)[1].strip()), log
        if not line and proc.poll() is not None:
            break
    proc.kill()
    code = proc.wait()
    log.seek(0)
    last = (log.read().strip().splitlines() or ["(no stderr)"])[-1]
    raise RuntimeError(
        f"server did not print a SERVING line (exit {code}: {last})"
    )


def check_drain_ledger(log: IO, label: str) -> list[str]:
    """The failures of one drained server's ``# service:`` line."""
    log.seek(0)
    lines = [line for line in log.read().splitlines()
             if line.startswith("# service:")]
    if not lines:
        return [f"{label}: no '# service:' drain line on stderr"]
    ledger = dict(pair.split("=", 1) for pair in lines[-1].split()[2:])
    try:
        count = {key: int(ledger[key]) for key in (
            "submitted", "admitted", "total_shed", "replayed", "completed",
        )}
    except (KeyError, ValueError) as exc:
        return [f"{label}: unreadable drain line {lines[-1]!r} ({exc})"]
    failures = []
    if count["submitted"] != count["admitted"] + count["total_shed"] + count["replayed"]:
        failures.append(f"{label}: submitted != admitted + total_shed + "
                        f"replayed in {lines[-1]!r}")
    if count["completed"] != count["admitted"] + count["replayed"]:
        failures.append(f"{label}: completed != admitted + replayed in "
                        f"{lines[-1]!r}")
    print(f"{label} drain ledger: {' '.join(f'{k}={v}' for k, v in count.items())}")
    return failures


async def submit_batch(port: int, proc: subprocess.Popen) -> list[dict]:
    """Submit the batch, SIGTERM the server mid-load, gather answers."""
    client = ServiceClient("127.0.0.1", port, timeout=120.0)

    async def one(index: int) -> dict:
        """One submission; connection errors count as dropped."""
        try:
            status, result = await client.repair(
                code=BROKEN, tenant="smoke", seed=index
            )
            return {"index": index, "http": status, **result}
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
            return {"index": index, "status": "dropped", "error": str(exc)}

    tasks = [asyncio.create_task(one(i)) for i in range(JOBS)]
    # Let a few jobs land, then pull the plug mid-load.
    await asyncio.sleep(0.5)
    proc.send_signal(signal.SIGTERM)
    return list(await asyncio.gather(*tasks))


async def resubmit(port: int, indices: list[int]) -> list[dict]:
    """Resubmit completed jobs against the resumed server."""
    client = ServiceClient("127.0.0.1", port, timeout=120.0)
    results = []
    for index in indices:
        status, result = await client.repair(
            code=BROKEN, tenant="smoke", seed=index
        )
        results.append({"index": index, "http": status, **result})
    return results


def main() -> int:
    """Run the drill; prints PASS/FAIL per assertion."""
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="service_smoke_") as run_dir:
        proc, port, log = start_server(run_dir, resume=False)
        answers = asyncio.run(submit_batch(port, proc))
        exit_code = proc.wait(timeout=120)
        if exit_code != 0:
            failures.append(f"drained server exited {exit_code}, want 0")
        failures += check_drain_ledger(log, "pre-drain")
        dropped = [a for a in answers if a["status"] == "dropped"]
        if dropped:
            failures.append(
                f"{len(dropped)} submission(s) dropped without a typed "
                f"answer: {dropped[:3]}"
            )
        completed = {
            a["index"]: a for a in answers
            if a["status"] in ("fixed", "not_fixed")
        }
        shed = [a for a in answers if a["status"] == "overloaded"]
        for entry in shed:
            if entry.get("reason") not in ("draining", "tenant_queue_full",
                                           "server_queue_full"):
                failures.append(f"untyped/unexpected shed: {entry}")
        print(
            f"pre-drain: {len(completed)} completed, {len(shed)} shed "
            f"(typed), exit={exit_code}"
        )
        if not completed:
            failures.append("no job completed before the drain bit")
        # Stage 2: resume and replay.
        proc2, port2, log2 = start_server(run_dir, resume=True)
        try:
            replays = asyncio.run(resubmit(port2, sorted(completed)))
        finally:
            proc2.send_signal(signal.SIGTERM)
            exit2 = proc2.wait(timeout=120)
        if exit2 != 0:
            failures.append(f"resumed server exited {exit2}, want 0")
        failures += check_drain_ledger(log2, "post-resume")
        for replay in replays:
            original = completed[replay["index"]]
            if not replay.get("replayed"):
                failures.append(
                    f"job seed={replay['index']} re-executed instead of "
                    "replaying from the journal"
                )
            if replay.get("result_digest") != original.get("result_digest"):
                failures.append(
                    f"job seed={replay['index']} digest mismatch: "
                    f"{original.get('result_digest')} -> "
                    f"{replay.get('result_digest')}"
                )
        print(f"post-resume: {len(replays)} replayed digest-identical")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("service smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
