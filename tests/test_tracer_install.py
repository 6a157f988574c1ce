"""The benchmark's span tracer must install against ``src/``.

``perfbench/tracer.py`` rebinds every module-level alias of the traced
functions and fails loudly when a required alias is gone.  Installing it
here turns a ``src/`` change that drops such an alias into a test
failure rather than a failed benchmark run.  The test only imports the
tracer; it writes nothing under ``perfbench/`` (``-B``: no bytecode).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path.insert(0, "perfbench")
from tracer import REQUIRED_ALIASES, Tracer
Tracer().install()
print("installed", len(REQUIRED_ALIASES))
"""


def test_tracer_installs_against_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", INSTALL],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("installed ")


STAGE_SPANS = """
import sys
sys.path.insert(0, "perfbench")
from tracer import Tracer
tracer = Tracer()
tracer.install()
from repro.diagnostics import compile_source
compile_source("module m(input a, output b);\\n  assign b = a;\\nendmodule\\n")
names = {span[0]: span[2] for span in tracer.spans}
parents = {span[0]: span[1] for span in tracer.spans}
for span_id, name in names.items():
    if name.startswith("verilog.stage."):
        ancestor = parents[span_id]
        while ancestor and names[ancestor] != "verilog.compile_source_cold":
            ancestor = parents[ancestor]
        if ancestor:
            print(name)
"""


def test_cold_compile_records_stage_spans():
    """One traced ``compile_source`` call records every stage span
    nested under its ``verilog.compile_source_cold`` span."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", STAGE_SPANS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(proc.stdout.split()) == [
        f"verilog.stage.{stage}"
        for stage in sorted(("preprocess", "lex", "parse", "elaborate", "render"))
    ]
