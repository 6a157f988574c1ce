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
