"""Run ``rtlfixer serve`` under the benchmark's tracer.

Usage: ``python3 perfbench/serve_traced.py OUT serve [serve flags...]``

Installs the span wrappers, then hands the remaining arguments to
``repro.cli.main``.  When the server has drained (SIGTERM), it writes
the per-layer span totals and the program's counters to ``OUT`` (JSON)
and the spans themselves to ``OUT.spans.jsonl``.
"""

from __future__ import annotations

import json
import sys

from common import program_counters
from tracer import Tracer


def main() -> int:
    out = sys.argv[1]
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as cli_main

    code = cli_main(sys.argv[2:])
    tracer.enabled = False
    tracer.write(out + ".spans.jsonl")
    with open(out, "w") as handle:
        json.dump({"layers": tracer.aggregate(), "counters": program_counters()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
