"""Evaluation: metrics (fix rate, pass@k), the experiment runner, and
per-table/figure experiment drivers."""

from .experiments import (
    FIG5_CODE,
    FIG6_CODE,
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    Figure7Result,
    Table1Result,
    Table2Result,
    Table3Result,
    default_dataset,
    figure5_logs,
    figure6_failure_case,
    run_figure7,
    run_table1,
    run_table2,
    run_table3,
)
from .experiments import SimFixExtensionResult, run_simfix_extension
from .figures import bar_chart, composition_figure, histogram_figure
from .metrics import fix_rate, fix_rate_single, pass_at_k_single
from .report import FullReport, ReportScale, run_full_report
from .runner import (
    FixExperimentResult,
    evaluate_code,
    evaluate_sample,
    run_fix_experiment,
)
from .tables import render_table

__all__ = [
    "FIG5_CODE",
    "FIG6_CODE",
    "Figure7Result",
    "FixExperimentResult",
    "FullReport",
    "ReportScale",
    "SimFixExtensionResult",
    "bar_chart",
    "composition_figure",
    "histogram_figure",
    "run_full_report",
    "run_simfix_extension",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "Table1Result",
    "Table2Result",
    "Table3Result",
    "default_dataset",
    "evaluate_code",
    "evaluate_sample",
    "figure5_logs",
    "figure6_failure_case",
    "fix_rate",
    "fix_rate_single",
    "pass_at_k_single",
    "render_table",
    "run_figure7",
    "run_fix_experiment",
    "run_table1",
    "run_table2",
    "run_table3",
]
