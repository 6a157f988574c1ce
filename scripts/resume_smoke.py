#!/usr/bin/env python
"""CI resume smoke: run a tiny durable report, SIGKILL it mid-run,
resume it, and verify the resumed report JSON is byte-identical to an
uninterrupted baseline (the durable-run acceptance check, as a
standalone script so ``scripts/ci.sh`` can gate on it).

The killed run uses ``--jobs 2``, so it has pool workers when it dies:
every one of them must exit on its own within
:data:`WORKER_GRACE_S` seconds (they are found through Linux ``/proc``).

Usage:  PYTHONPATH=src python scripts/resume_smoke.py [workdir]

Exits 0 on success (digests match), 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

#: Tiny-but-nontrivial scale (~200 work units): enough that a kill lands
#: mid-run, small enough to finish in seconds.
TINY_SCALE = [
    "--dataset-size", "3", "--dataset-samples", "2", "--repeats", "1",
    "--n-samples", "2", "--sim-samples", "4", "--simfix-samples", "1",
    "--no-gpt4",
]

#: Journaled trials to wait for before killing the durable run.
KILL_AFTER_RECORDS = 10

#: Seconds the killed run's pool workers get to notice and exit.
WORKER_GRACE_S = 5.0


def _cmd(run_dir: str, json_out: str, *extra: str) -> list[str]:
    """argv for one tiny durable report subprocess."""
    return [
        sys.executable, "-m", "repro.cli", "report",
        "--run-dir", run_dir, "--json", json_out, *TINY_SCALE, *extra,
    ]


def _digest(path: str) -> str:
    """SHA-256 of a file's bytes."""
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _stat_fields(pid: int) -> list[str]:
    """``/proc/<pid>/stat`` after the command name: state, ppid, ...
    (empty once the process is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return []


def _children(pid: int) -> list[int]:
    """The live processes whose parent is ``pid``."""
    return [
        int(entry) for entry in os.listdir("/proc")
        if entry.isdigit() and _stat_fields(int(entry))[1:2] == [str(pid)]
    ]


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie has exited)."""
    fields = _stat_fields(pid)
    return bool(fields) and fields[0] != "Z"


def _survivors(workers: list[int]) -> list[int]:
    """The ``workers`` still alive after :data:`WORKER_GRACE_S`."""
    deadline = time.monotonic() + WORKER_GRACE_S
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.1)
    return [pid for pid in workers if _alive(pid)]


def _wait_for_journal(journal_path: str, proc: subprocess.Popen) -> None:
    """Block until the journal holds enough records to kill mid-run."""
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                f"resume smoke: run exited early (rc={proc.returncode}) "
                f"before {KILL_AFTER_RECORDS} trials were journaled"
            )
        if os.path.exists(journal_path):
            with open(journal_path, "rb") as handle:
                if handle.read().count(b"\n") >= KILL_AFTER_RECORDS:
                    return
        time.sleep(0.05)
    raise SystemExit("resume smoke: journal never grew; is the run stuck?")


def main() -> int:
    """Run the kill/resume scenario; return a process exit code."""
    workdir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="resume-smoke-"
    )
    cleanup = len(sys.argv) <= 1
    baseline_dir = os.path.join(workdir, "baseline")
    baseline_json = os.path.join(workdir, "baseline.json")
    killed_dir = os.path.join(workdir, "killed")
    killed_json = os.path.join(workdir, "killed.json")
    try:
        print("resume smoke: uninterrupted baseline run...")
        subprocess.run(
            _cmd(baseline_dir, baseline_json), check=True, timeout=600
        )

        print("resume smoke: durable run at --jobs 2, SIGKILL mid-flight...")
        proc = subprocess.Popen(
            _cmd(killed_dir, killed_json, "--jobs", "2"),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            _wait_for_journal(os.path.join(killed_dir, "journal.jsonl"), proc)
            workers = _children(proc.pid)
        finally:
            proc.kill()
            proc.wait(timeout=60)
        if not workers:
            print("resume smoke: FAILED -- the --jobs 2 run had no pool "
                  "workers to check", file=sys.stderr)
            return 1
        survivors = _survivors(workers)
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        if survivors:
            print(f"resume smoke: FAILED -- pool workers {survivors} outlived "
                  f"the killed run by {WORKER_GRACE_S:.0f} s", file=sys.stderr)
            return 1
        print(f"resume smoke: all {len(workers)} pool worker(s) exited "
              "after the kill")

        print("resume smoke: resuming the killed run...")
        subprocess.run(
            _cmd(killed_dir, killed_json, "--resume"), check=True, timeout=600
        )

        baseline = _digest(baseline_json)
        resumed = _digest(killed_json)
        print(f"resume smoke: baseline sha256 {baseline}")
        print(f"resume smoke: resumed  sha256 {resumed}")
        if baseline != resumed:
            print("resume smoke: FAILED -- resumed report differs from "
                  "the uninterrupted baseline", file=sys.stderr)
            return 1
        print("resume smoke: OK (byte-identical report after kill+resume)")
        return 0
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
