"""Smoke test for the one-call reproduction report (small scale)."""

import dataclasses
import hashlib
import itertools
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.errors import RunInterrupted
from repro.eval import ReportScale, run_full_report
from repro.eval import runner as eval_runner
from repro.eval.report import FullReport
from repro.llm.pool import RoutingSpec
from repro.runtime import FaultSpec, executor
from repro.scope import scoped
from repro.sim.limits import SimLimits


@pytest.fixture(scope="module")
def report():
    scale = ReportScale(
        dataset_size=24, dataset_samples_per_problem=4,
        repeats=1, n_samples=4, sim_samples=12,
        include_gpt4=False, simfix_samples_per_problem=1,
    )
    stages = []
    result = run_full_report(scale=scale, progress=stages.append)
    result._stages = stages  # type: ignore[attr-defined]
    return result


class TestFullReport:
    def test_all_sections_populated(self, report):
        assert report.table1
        assert report.table2
        assert report.table3
        assert report.figure4
        assert report.figure5
        assert report.figure6
        assert report.simfix

    def test_progress_stages_reported(self, report):
        assert any("Table 1" in s for s in report._stages)
        assert any("extension" in s for s in report._stages)

    def test_table1_carries_paper_values(self, report):
        cell = report.table1[("react", "quartus", True)]
        assert cell["paper"] == 0.985
        assert 0.0 <= cell["measured"] <= 1.0

    def test_table2_structure(self, report):
        cell = report.table2["human/all"]
        assert set(cell) >= {"pass@1", "pass@1_fixed", "paper"}
        assert cell["pass@1_fixed"] >= cell["pass@1"]

    def test_figure4_compositions_sum_to_one(self, report):
        for bench_data in report.figure4.values():
            for key in ("before", "after"):
                assert sum(bench_data[key].values()) == pytest.approx(1.0)

    def test_json_serializable(self, report):
        payload = json.loads(report.to_json())
        assert "table1" in payload and "scale" in payload

    def test_markdown_rendering(self, report):
        text = report.to_markdown()
        assert text.startswith("# Reproduction report")
        assert "table1" in text

    def test_rendered_sections_nonempty(self, report):
        for name in ("table1", "table2", "table3", "figure7", "simfix"):
            assert report.rendered[name].strip(), name

    def test_is_fullreport(self, report):
        assert isinstance(report, FullReport)


def _run_telemetry(jobs, **options):
    """A tiny pooled report under a 6-cycle simulation budget."""
    scale = ReportScale(
        dataset_size=4, dataset_samples_per_problem=2, repeats=1,
        n_samples=1, sim_samples=4, include_gpt4=False,
        simfix_samples_per_problem=1, table4_samples_per_problem=1,
    )
    routing = RoutingSpec.parse(
        "cheap=gpt-3.5-sim,strong=gpt-4-sim", escalate_after=2
    )
    with scoped(sim_limits=SimLimits(max_cycles=6)):
        return run_full_report(scale=scale, jobs=jobs, routing=routing, **options)


#: sha256 of ``to_json()`` of :func:`_run_telemetry`'s report, the same
#: at every job count.  Rewrite it only for an intended change to a
#: report result.
REPORT_DIGEST = Path(__file__).parent / "data" / "report_tiny_digest.sha256"


@pytest.fixture(scope="module")
def telemetry_reports():
    """The tiny report at ``jobs=1`` and at ``jobs=2``."""
    return _run_telemetry(1), _run_telemetry(2)


def _lookups(stats):
    return (stats["hits"] + stats["misses"] + stats["coalesced_waits"]
            + stats["uncacheable"])


class TestTelemetry:
    def test_process_worker_counts_come_home(self, telemetry_reports):
        """A process worker counts into its own copies of the run's
        caches and ledgers; the run's telemetry must still be what a
        serial run counts (the hit/miss split may differ: each worker
        holds its own caches)."""
        serial_report, parallel_report = telemetry_reports
        serial, parallel = serial_report.telemetry, parallel_report.telemetry
        for cache in ("compile_cache", "verdict_cache"):
            assert _lookups(parallel[cache]) == _lookups(serial[cache]), cache
        assert serial["sandbox"]["limit_verdicts"] > 0
        assert parallel["sandbox"] == serial["sandbox"]
        assert serial["llm"]["calls"] > 0
        assert parallel["llm"] == serial["llm"]
        assert parallel_report.to_json() == serial_report.to_json()

    def test_report_json_is_pinned(self, telemetry_reports):
        pinned = REPORT_DIGEST.read_text().strip()
        for report in telemetry_reports:
            assert hashlib.sha256(report.to_json().encode()).hexdigest() == pinned

    def test_one_line_per_section(self, report):
        lines = report.summary_lines()
        assert [line.split(":")[0] for line in lines] == [
            "# compile_cache", "# verdict_cache", "# sandbox", "# failures",
        ]
        assert f"misses={report.telemetry['compile_cache']['misses']}" in lines[0]
        assert "\n".join(lines) in report.to_markdown()


class _CountingPool(ProcessPoolExecutor):
    """A process pool that counts how many were opened."""

    opened = 0

    def __init__(self, *args, **kwargs):
        type(self).opened += 1
        super().__init__(*args, **kwargs)


def _poisoned_trial(unit):
    raise RuntimeError("poisoned trial")


class TestOnePoolPerReport:
    """A parallel report runs on one worker pool and leaves no worker
    process behind, however it ends."""

    def test_one_pool_for_every_stage(self, monkeypatch):
        monkeypatch.setattr(_CountingPool, "opened", 0)
        monkeypatch.setattr(executor, "ProcessPoolExecutor", _CountingPool)
        _run_telemetry(2)
        assert _CountingPool.opened == 1
        assert multiprocessing.active_children() == []

    def test_no_worker_left_after_a_raising_unit(self, monkeypatch):
        monkeypatch.setattr(eval_runner, "_run_fix_trial", _poisoned_trial)
        with pytest.raises(RuntimeError, match="poisoned trial"):
            _run_telemetry(2, on_error="raise")
        assert multiprocessing.active_children() == []

    def test_no_worker_left_after_an_interrupt(self):
        polls = itertools.count()
        with pytest.raises(RunInterrupted):
            _run_telemetry(2, should_stop=lambda: next(polls) >= 3)
        assert multiprocessing.active_children() == []


@pytest.mark.chaos
class TestModelOutage:
    """With every model call failing, ``on_error="collect"`` still
    returns a report: each stage, Figure 6 included, counts its failed
    trials instead of raising."""

    def test_figure6_trials_are_isolated(self):
        scale = ReportScale(
            dataset_size=4, dataset_samples_per_problem=2, repeats=1,
            n_samples=1, sim_samples=4, include_gpt4=False,
            simfix_samples_per_problem=1, table4_samples_per_problem=1,
        )
        routing = dataclasses.replace(
            RoutingSpec.parse("cheap=gpt-3.5-sim"),
            chaos={"cheap": FaultSpec(rate=1.0)},
        )
        report = run_full_report(scale=scale, routing=routing, on_error="collect")
        assert report.failures["figure6"] == 4  # max(4, repeats) trials
        # Figure 7's failed trials are Table 1's, so the total counts
        # them once.
        assert 0 < report.failures["figure7"] <= report.failures["table1"]
        assert report.failed_units == (
            sum(report.failures.values()) - report.failures["figure7"]
        )
        assert report.figure6["fix_rate"] == 0.0
        assert "index -17" in report.figure6["log"]
