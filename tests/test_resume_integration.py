"""End-to-end resume integration: SIGKILL a durable ``rtlfixer report``
subprocess mid-run, resume it, and verify the final report JSON is
byte-identical to an uninterrupted baseline.  Also prosecutes the CLI's
durable-run exit codes and the graceful-shutdown signal contract."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.runtime import Journal

#: Tiny-but-nontrivial scale: enough work units (~200) that a kill
#: reliably lands mid-run, small enough to finish in seconds.
TINY_SCALE = [
    "--dataset-size", "3", "--dataset-samples", "2", "--repeats", "1",
    "--n-samples", "2", "--sim-samples", "4", "--simfix-samples", "1",
    "--no-gpt4",
]


def _report_cmd(run_dir: str, json_out: str, *extra: str) -> list[str]:
    """The subprocess argv for a tiny durable report run."""
    return [
        sys.executable, "-m", "repro.cli", "report",
        "--run-dir", run_dir, "--json", json_out, *TINY_SCALE, *extra,
    ]


def _env() -> dict:
    """Subprocess environment with the library importable."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _wait_for_journal(journal_path: str, min_records: int, proc) -> None:
    """Poll until the journal holds ``min_records`` durable trials (the
    subprocess is mid-run) or the subprocess exits early."""
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            pytest.fail(
                f"report subprocess exited (rc={proc.returncode}) before "
                f"reaching {min_records} journaled trials"
            )
        if os.path.exists(journal_path):
            with open(journal_path, "rb") as handle:
                if handle.read().count(b"\n") >= min_records:
                    return
        time.sleep(0.05)
    pytest.fail("journal never reached the kill threshold")


@pytest.mark.slow
class TestKillResumeIdentical:
    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path):
        """The acceptance scenario: kill -9 mid-run, resume, and the
        report JSON digest equals an uninterrupted run's."""
        env = _env()
        baseline_dir = str(tmp_path / "baseline")
        baseline_json = str(tmp_path / "baseline.json")
        result = subprocess.run(
            _report_cmd(baseline_dir, baseline_json),
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stderr

        killed_dir = str(tmp_path / "killed")
        killed_json = str(tmp_path / "killed.json")
        proc = subprocess.Popen(
            _report_cmd(killed_dir, killed_json),
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            _wait_for_journal(
                os.path.join(killed_dir, "journal.jsonl"), 10, proc
            )
            proc.kill()  # SIGKILL: no chance to flush or clean up
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert not os.path.exists(killed_json)  # died before the report

        journal = Journal(os.path.join(killed_dir, "journal.jsonl"))
        partial = len(journal)
        journal.close()
        assert partial >= 10

        result = subprocess.run(
            _report_cmd(killed_dir, killed_json, "--resume"),
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stderr
        # the resumed run replayed the killed run's trials...
        assert f"# resume: replayed={partial} " in result.stderr
        # ...and its report is byte-identical to the uninterrupted one
        assert _digest(killed_json) == _digest(baseline_json)
        assert _digest(os.path.join(killed_dir, "report.json")) == _digest(
            os.path.join(baseline_dir, "report.json")
        )

    def test_sigterm_exits_resumable_with_message(self, tmp_path):
        """First SIGTERM: drain, journal, exit 128+15 with a resume hint."""
        env = _env()
        run_dir = str(tmp_path / "run")
        journal_path = os.path.join(run_dir, "journal.jsonl")
        proc = subprocess.Popen(
            _report_cmd(run_dir, str(tmp_path / "out.json")),
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _wait_for_journal(journal_path, 5, proc)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 128 + signal.SIGTERM
        assert "SIGTERM received" in stderr
        assert "--resume" in stderr  # the resume hint names the flag
        # the journal survived and is a valid prefix
        journal = Journal(journal_path)
        assert len(journal) >= 5
        journal.close()


class TestReportExitCodes:
    def test_resume_requires_run_dir(self, capsys):
        assert main(["report", "--resume", *TINY_SCALE]) == 2
        assert "--run-dir" in capsys.readouterr().err

    def test_breaker_requires_collect(self, capsys):
        code = main(["report", "--breaker-threshold", "3", *TINY_SCALE])
        assert code == 2
        assert "collect" in capsys.readouterr().err

    def test_manifest_mismatch_is_exit_2(self, tmp_path, capsys):
        """Resuming with a different scale than the journaled run fails
        fast with the checkpoint-misuse exit code."""
        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        with open(os.path.join(run_dir, "manifest.json"), "w") as handle:
            json.dump({"kind": "full_report", "scale": {"other": True}}, handle)
        code = main([
            "report", "--run-dir", run_dir, "--resume", *TINY_SCALE,
        ])
        assert code == 2
        assert "different configuration" in capsys.readouterr().err
