"""Shared fixtures for the benchmark harness.

Profiles (select with REPRO_BENCH_PROFILE):

* ``quick`` (default) -- full 212-entry dataset, 3 repeated trials, 10
  generation samples per problem: minutes, same qualitative shapes;
* ``paper`` -- the paper's full protocol (10 repeats, n=20 samples).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import pytest

from repro.dataset import build_syntax_dataset, verilogeval
from repro.dataset.curate import SyntaxDataset


@dataclass(frozen=True)
class BenchProfile:
    name: str
    repeats: int
    n_samples: int
    sim_samples: int
    dataset_samples_per_problem: int
    target_size: int


PROFILES = {
    "quick": BenchProfile(
        name="quick", repeats=3, n_samples=10, sim_samples=24,
        dataset_samples_per_problem=20, target_size=212,
    ),
    "paper": BenchProfile(
        name="paper", repeats=10, n_samples=20, sim_samples=48,
        dataset_samples_per_problem=20, target_size=212,
    ),
    "smoke": BenchProfile(
        name="smoke", repeats=1, n_samples=4, sim_samples=12,
        dataset_samples_per_problem=6, target_size=60,
    ),
}


@pytest.fixture(scope="session")
def profile() -> BenchProfile:
    name = os.environ.get("REPRO_BENCH_PROFILE", "quick")
    if name not in PROFILES:
        raise ValueError(f"REPRO_BENCH_PROFILE must be one of {sorted(PROFILES)}")
    return PROFILES[name]


@pytest.fixture(scope="session")
def syntax_dataset(profile) -> SyntaxDataset:
    """The VerilogEval-syntax-equivalent dataset (212 entries)."""
    return build_syntax_dataset(
        verilogeval(),
        samples_per_problem=profile.dataset_samples_per_problem,
        target_size=profile.target_size,
        seed=0,
    )


_RESULTS_FILE = os.path.join(os.path.dirname(__file__), "..", "benchmark_results.txt")
_HEADER = ("Regenerated tables/figures (see EXPERIMENTS.md for "
           "paper-vs-measured commentary)\n")
_RULE = "=" * 72
_SECTION = re.compile(rf"\n{_RULE}\n(.*)\n{_RULE}\n")


def report(title: str, text: str) -> None:
    """Print a rendered table (visible with ``pytest -s``) and persist it
    to ``benchmark_results.txt``: the section with the same title is
    replaced in place and a new title is appended, so running any subset
    of the benches keeps every other table."""
    block = f"\n{_RULE}\n{title}\n{_RULE}\n{text}\n"
    print(block)
    try:
        with open(_RESULTS_FILE) as f:
            content = f.read()
    except FileNotFoundError:
        content = ""
    found = [(m.start(), m.group(1)) for m in _SECTION.finditer(content)]
    head = content[:found[0][0]] if found else _HEADER
    ends = [start for start, _ in found[1:]] + [len(content)]
    sections = {name: content[start:end] for (start, name), end in zip(found, ends)}
    sections[title] = block
    with open(_RESULTS_FILE, "w") as f:
        f.write(head + "".join(sections.values()))
