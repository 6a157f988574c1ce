#!/usr/bin/env python
"""Pipeline differential gate: warm sessions must equal cold compiles.

Builds the 212-sample VerilogEval-syntax dataset (plus every golden
reference) and compiles each source twice per flavour:

* **cold** -- :func:`repro.diagnostics.compile_source`, no caches: the
  monolithic reference implementation;
* **warm** -- one long-lived :class:`repro.verilog.pipeline.CompileSession`
  shared across *all* sources under one shared
  :class:`~repro.verilog.pipeline.StageCache`, so every compile after the
  first exercises artifact reuse, incremental lexing and segment replay.

Any :func:`~repro.verilog.pipeline.result_fingerprint` divergence (log
text, diagnostics, spans, ok/crashed flags, module sets) is reported and
the script exits non-zero -- this is the dataset-scale counterpart of the
``pipeline-differential`` fuzz invariant, run as a CI stage.

Usage:
    scripts/pipeline_diff.py [--limit N] [--samples-per-problem N]
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from repro.dataset import build_syntax_dataset, verilogeval  # noqa: E402
from repro.diagnostics import compile_source  # noqa: E402
from repro.scope import scoped  # noqa: E402
from repro.verilog.pipeline import (  # noqa: E402
    CompileSession,
    StageCache,
    result_fingerprint,
)

FLAVORS = ("iverilog", "quartus")


def main() -> int:
    """Run the dataset-scale differential; 0 = bit-identical throughout."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--limit", type=int, default=0,
        help="check only the first N sources (0 = all)",
    )
    parser.add_argument(
        "--samples-per-problem", type=int, default=20,
        help="curation width for the syntax dataset (paper: 20)",
    )
    args = parser.parse_args()

    corpus = verilogeval()
    dataset = build_syntax_dataset(
        corpus, samples_per_problem=args.samples_per_problem
    )
    sources = [entry.code for entry in dataset]
    sources += [problem.reference for problem in corpus]
    if args.limit:
        sources = sources[: args.limit]
    print(
        f"pipeline differential: {len(sources)} sources "
        f"({len(dataset)} dataset samples + references) x {len(FLAVORS)} flavours"
    )

    session = CompileSession()
    stage_cache = StageCache()
    divergences = 0
    start = time.perf_counter()
    for index, code in enumerate(sources):
        for flavor in FLAVORS:
            with scoped(compile_cache=None, stage_cache=None):
                cold = compile_source(code, flavor=flavor)
            with scoped(compile_cache=None, stage_cache=stage_cache):
                warm = session.compile(code, flavor=flavor)
            if result_fingerprint(warm) != result_fingerprint(cold):
                divergences += 1
                print(
                    f"DIVERGENCE at source {index} ({flavor}):\n"
                    f"  cold: {result_fingerprint(cold)!r}\n"
                    f"  warm: {result_fingerprint(warm)!r}",
                    file=sys.stderr,
                )
    elapsed = time.perf_counter() - start

    stats = stage_cache.stats
    print(
        f"checked {len(sources)} sources in {elapsed:.1f}s: "
        f"{stats.segments_reused} segments and {stats.tokens_reused} tokens "
        f"reused, stage hit rate {stats.hit_rate:.1%}"
    )
    if divergences:
        print(f"FAILED: {divergences} divergence(s)", file=sys.stderr)
        return 1
    print("pipeline differential: warm sessions bit-identical to cold compiles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
