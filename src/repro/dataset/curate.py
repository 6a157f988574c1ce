"""VerilogEval-syntax dataset curation (paper §3.4).

Pipeline, exactly as described:

1. **Sampling** -- draw completions for every VerilogEval problem from
   the (simulated) gpt-3.5 generation model, with both prompting styles;
2. **Filtering** -- extract code from markdown blocks, validate the
   module statement, drop samples with extraneous language or empty
   module bodies, and *retain only samples that fail compilation*;
3. **Clustering** -- DBSCAN with Jaccard distance groups similar
   implementations; representatives keep the error variety broad.

The result is the reproduction's equivalent of the 212-sample
VerilogEval-syntax benchmark.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from ..core.rulefix import rule_fix, validate_module_text
from .cluster import cluster_codes
from .generate import GenerationModel
from .problem import Problem, ProblemSet

#: Size of the paper's dataset; the default target here.
PAPER_DATASET_SIZE = 212


@dataclass(frozen=True)
class SyntaxEntry:
    """One erroneous implementation in the debugging dataset."""

    problem_id: str
    benchmark: str
    description: str
    code: str
    #: Error categories observed by the compiler (Quartus taxonomy).
    categories: tuple[str, ...]
    seed: int = 0


@dataclass
class CurationStats:
    sampled: int = 0
    compiled_ok: int = 0
    no_module: int = 0
    empty_body: int = 0
    failing_kept: int = 0
    clusters: int = 0
    final: int = 0


@dataclass
class SyntaxDataset:
    """The VerilogEval-syntax-equivalent debugging dataset."""

    entries: list[SyntaxEntry] = field(default_factory=list)
    stats: CurationStats = field(default_factory=CurationStats)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def category_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for entry in self.entries:
            for category in entry.categories:
                hist[category] = hist.get(category, 0) + 1
        return dict(sorted(hist.items(), key=lambda kv: -kv[1]))

    # -- persistence ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "entries": [asdict(e) for e in self.entries],
                "stats": asdict(self.stats),
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "SyntaxDataset":
        data = json.loads(text)
        entries = [
            SyntaxEntry(
                problem_id=e["problem_id"],
                benchmark=e["benchmark"],
                description=e["description"],
                code=e["code"],
                categories=tuple(e["categories"]),
                seed=e.get("seed", 0),
            )
            for e in data["entries"]
        ]
        stats = CurationStats(**data.get("stats", {}))
        return SyntaxDataset(entries=entries, stats=stats)

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    @staticmethod
    def load(path: str) -> "SyntaxDataset":
        with open(path) as f:
            return SyntaxDataset.from_json(f.read())


def build_syntax_dataset(
    problems: ProblemSet,
    samples_per_problem: int = 20,
    benchmarks: tuple[str, ...] = ("human", "machine"),
    target_size: int = PAPER_DATASET_SIZE,
    seed: int = 0,
    eps: float = 0.3,
    temperature: float = 0.4,
) -> SyntaxDataset:
    """Run the full §3.4 curation pipeline."""
    model = GenerationModel(temperature=temperature, seed=seed)
    stats = CurationStats()
    failing: list[SyntaxEntry] = []

    for problem in problems:
        for benchmark in benchmarks:
            for sample in model.sample_n(problem, samples_per_problem, benchmark):
                stats.sampled += 1
                entry = _filter_sample(problem, benchmark, sample.raw, sample.seed, stats)
                if entry is not None:
                    failing.append(entry)
    stats.failing_kept = len(failing)

    representatives = _cluster_and_select(failing, stats, eps)
    final = _fit_to_target(representatives, failing, target_size)
    stats.final = len(final)
    return SyntaxDataset(entries=final, stats=stats)


def _filter_sample(
    problem: Problem, benchmark: str, raw: str, seed: int, stats: CurationStats
) -> SyntaxEntry | None:
    from ..runtime.cache import cached_compile

    fixed = rule_fix(raw)
    if not fixed.has_module:
        stats.no_module += 1
        return None
    if not validate_module_text(fixed.code):
        stats.empty_body += 1
        return None
    result = cached_compile(fixed.code)
    if result.ok:
        stats.compiled_ok += 1
        return None
    return SyntaxEntry(
        problem_id=problem.id,
        benchmark=benchmark,
        description=problem.description(benchmark),
        code=fixed.code,
        categories=tuple(c.value for c in result.categories),
        seed=seed,
    )


def _cluster_and_select(
    failing: list[SyntaxEntry], stats: CurationStats, eps: float
) -> list[SyntaxEntry]:
    """Cluster per problem and keep one representative per cluster."""
    by_problem: dict[str, list[SyntaxEntry]] = {}
    for entry in failing:
        by_problem.setdefault(entry.problem_id, []).append(entry)

    representatives: list[SyntaxEntry] = []
    for entries in by_problem.values():
        result = cluster_codes([e.code for e in entries], eps=eps)
        stats.clusters += result.n_clusters
        representatives.extend(entries[i] for i in result.representatives())
    return representatives


def _fit_to_target(
    representatives: list[SyntaxEntry],
    pool: list[SyntaxEntry],
    target_size: int,
) -> list[SyntaxEntry]:
    """Deterministically trim (evenly spread) or top up to target size."""
    if len(representatives) == target_size:
        return list(representatives)
    if len(representatives) > target_size:
        step = len(representatives) / target_size
        return [representatives[int(i * step)] for i in range(target_size)]
    chosen = list(representatives)
    seen_codes = {e.code for e in chosen}
    for entry in pool:
        if len(chosen) >= target_size:
            break
        if entry.code not in seen_codes:
            chosen.append(entry)
            seen_codes.add(entry.code)
    return chosen
