#!/usr/bin/env python
"""Repair-engine differential gate: engine agents must equal the legacy loops.

The repair-engine refactor rewrote :class:`repro.agents.react.ReActAgent`
and :class:`repro.agents.simfix.SimDebugAgent` as thin configurations of
the generic :class:`repro.repair.engine.RepairEngine`.  The contract is
**bit-identity**: same transcripts, same results, same digests as the
pre-refactor hand-rolled loops, which live on verbatim in
:mod:`repro.repair.legacy` as the reference implementation.

This gate prosecutes that contract corpus-wide:

* **syntax** -- every entry of the curated VerilogEval-syntax dataset,
  debugged by the legacy and the engine-backed ReAct loop under each
  (flavor, RAG, seed) configuration;
* **functional** -- every corpus problem, logic-mutated at several
  seeds, repaired by the legacy and the engine-backed simulation-
  debugging loop.

Each pair of runs is compared by :func:`repro.repair.result_digest`
(success, final code, iteration count, mismatch bookkeeping and every
transcript turn).  Any divergence is reported and the script exits
non-zero -- run as a CI stage by ``scripts/ci.sh``.

Usage:
    scripts/repair_diff.py [--dataset-size N] [--problems N] [--seeds N]
"""

import argparse
import random
import sys
import time

sys.path.insert(0, "src")

from repro.agents import ReActAgent, SimDebugAgent  # noqa: E402
from repro.dataset.corpus import verilogeval  # noqa: E402
from repro.dataset.curate import build_syntax_dataset  # noqa: E402
from repro.dataset.mutate import force_behavior_change, mutate_logic  # noqa: E402
from repro.diagnostics import Compiler  # noqa: E402
from repro.llm import SimulatedLLM, SimulatedLogicDebugger  # noqa: E402
from repro.rag import ExactTagRetriever, build_default_database  # noqa: E402
from repro.repair import result_digest  # noqa: E402
from repro.repair.legacy import (  # noqa: E402
    LegacyReActAgent,
    LegacySimDebugAgent,
)
from repro.runtime import CompileCache  # noqa: E402
from repro.scope import scoped  # noqa: E402

#: (flavor, use_rag, model seed) configurations for the syntax half.
REACT_CONFIGS = (
    ("quartus", True, 0),
    ("quartus", False, 1),
    ("iverilog", True, 2),
    ("iverilog", False, 3),
)


def diff_react(dataset_size: int) -> tuple[int, int]:
    """Legacy vs engine ReAct over the curated syntax dataset."""
    database = build_default_database()
    dataset = build_syntax_dataset(
        verilogeval(), samples_per_problem=4, target_size=dataset_size
    )
    runs = mismatches = 0
    for flavor, use_rag, seed in REACT_CONFIGS:
        legacy = LegacyReActAgent(
            model=SimulatedLLM(seed=seed),
            compiler=Compiler(flavor=flavor),
            retriever=ExactTagRetriever(database, flavor) if use_rag else None,
        )
        engine = ReActAgent(
            model=SimulatedLLM(seed=seed),
            compiler=Compiler(flavor=flavor),
            retriever=ExactTagRetriever(database, flavor) if use_rag else None,
        )
        for entry in dataset:
            runs += 1
            want = result_digest(legacy.run(entry.code))
            got = result_digest(engine.run(entry.code))
            if want != got:
                mismatches += 1
                print(
                    f"MISMATCH react {entry.problem_id} "
                    f"(flavor={flavor}, rag={use_rag}, seed={seed}): "
                    f"{want[:12]} != {got[:12]}"
                )
    return runs, mismatches


def diff_simfix(problem_limit: int, seeds: int) -> tuple[int, int]:
    """Legacy vs engine simulation debugging over mutated references."""
    problems = list(verilogeval())
    if problem_limit:
        problems = problems[:problem_limit]
    runs = mismatches = 0
    for seed in range(seeds):
        for problem in problems:
            rng = random.Random(f"repair-diff|{seed}|{problem.id}")
            buggy = mutate_logic(problem.reference, rng)
            if buggy == problem.reference:
                buggy = force_behavior_change(problem.reference)
                if buggy is None:
                    continue
            legacy = LegacySimDebugAgent(
                model=SimulatedLogicDebugger(seed=seed)
            )
            engine = SimDebugAgent(model=SimulatedLogicDebugger(seed=seed))
            runs += 1
            want = result_digest(
                legacy.run(buggy, problem.reference, problem.difficulty)
            )
            got = result_digest(
                engine.run(buggy, problem.reference, problem.difficulty)
            )
            if want != got:
                mismatches += 1
                print(
                    f"MISMATCH simfix {problem.id} (seed={seed}): "
                    f"{want[:12]} != {got[:12]}"
                )
    return runs, mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dataset-size", type=int, default=48,
                        help="curated syntax entries for the ReAct half")
    parser.add_argument("--problems", type=int, default=0,
                        help="corpus problems for the functional half "
                        "(0 = all)")
    parser.add_argument("--seeds", type=int, default=2,
                        help="mutation/model seeds for the functional half")
    args = parser.parse_args()

    started = time.perf_counter()
    with scoped(compile_cache=CompileCache()):
        react_runs, react_bad = diff_react(args.dataset_size)
        sim_runs, sim_bad = diff_simfix(args.problems, args.seeds)
    elapsed = time.perf_counter() - started

    total_bad = react_bad + sim_bad
    print(
        f"repair differential: {react_runs} react + {sim_runs} simfix "
        f"legacy-vs-engine pairs in {elapsed:.1f}s"
    )
    if total_bad:
        print(f"FAILED: {total_bad} digest mismatch(es)")
        return 1
    print("OK: every engine run is digest-identical to the legacy loop")
    return 0


if __name__ == "__main__":
    sys.exit(main())
