#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run, and save
the paper-vs-measured report as JSON + markdown.

Run:  python examples/run_all_experiments.py [--small]

The default scale takes several minutes; --small finishes in about one.
"""

import sys

from repro.eval.report import ReportScale, run_full_report


def main() -> None:
    small = "--small" in sys.argv
    scale = (
        ReportScale(
            dataset_size=60, dataset_samples_per_problem=6,
            repeats=2, n_samples=6, sim_samples=16, include_gpt4=False,
            simfix_samples_per_problem=1,
        )
        if small
        else ReportScale()
    )

    report = run_full_report(scale=scale, progress=lambda s: print(f"[{s}]"))

    for name, text in report.rendered.items():
        print(f"\n{'=' * 70}\n{name}\n{'=' * 70}")
        print(text)
    print()
    print("\n".join(report.summary_lines()))

    with open("reproduction_report.json", "w") as f:
        f.write(report.to_json())
    with open("reproduction_report.md", "w") as f:
        f.write(report.to_markdown())
    print("\nwrote reproduction_report.json / reproduction_report.md")


if __name__ == "__main__":
    main()
