#!/usr/bin/env python3
"""List the functions in ``src/repro`` that no production entry point reaches.

Copies the repository to a temporary directory and runs every production
entry point there -- the fuzz smoke and the other ``scripts/ci.sh`` script
stages, the three perfbench workloads, small ``rtlfixer report`` / ``fix``
/ ``compile`` / ``dataset`` runs, the ``loadgen.py`` drills, every example
and the benchmark suite -- with a ``sys.setprofile`` hook in every Python
process.  The hook is a generated ``sitecustomize`` on ``PYTHONPATH``, so
subprocesses load it too; it re-arms itself after ``fork`` and appends
each newly entered ``src/repro`` function to a per-process log as soon as
it is entered, so a killed worker still reports what it ran.

Reached functions are keyed by ``(co_filename, co_firstlineno)``, never
by code object: code objects compare by content, not by file, so identical
helpers in different modules would collapse into one.

The output lists every module-level function and method (class bodies
included, nested functions excluded) that no process entered, with its
size in lines and how often its name occurs in ``src/`` (its own ``def``
excluded), ``tests/`` and the other Python code.  An entry point that
exits non-zero is reported with the tail of its output, not fatal.  Some
do so by design (``compile`` of the broken sample exits 1), and some
because the hook slows the interpreter down: ``sandbox_gate.py``'s
hostile designs hit the wall clock before their pragma budget, and
``sim_diff.py``'s 10 s wall budget on ``conway_neighbors`` and the
benchmark suite's timing gates can fire.  So this is not a CI stage.

Usage (from the repository root; about 8 minutes on 2 CPUs)::

    python scripts/reach.py [--only NAME ...] [--keep DIR]
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
#: Folders copied into the scratch tree, besides every top-level file.
COPIED = ("src", "scripts", "perfbench", "examples", "benchmarks", "tests")
OTHER_CODE = ("scripts", "perfbench", "examples", "benchmarks")

BROKEN_V = """\
module top_module (
  input [3:0] in,
  output reg [3:0] out
);
always @(posedge clk) begin
  out <= in
end
endmodule
"""

SMALL_REPORT = [
    "--dataset-size", "6", "--dataset-samples", "2", "--repeats", "1",
    "--n-samples", "2", "--sim-samples", "4", "--simfix-samples", "1",
    "--table4-samples", "1",
]

#: (name, argv) for every production entry point, run from the copy's root.
ENTRY_POINTS: list[tuple[str, list[str]]] = [
    ("fuzz-smoke", ["-m", "repro.cli", "fuzz", "--seed", "0",
                    "--iterations", "200"]),
    ("sim-diff", ["scripts/sim_diff.py"]),
    ("sandbox-gate", ["scripts/sandbox_gate.py"]),
    ("resume-smoke", ["scripts/resume_smoke.py"]),
    ("service-smoke", ["scripts/service_smoke.py"]),
    *[
        (f"perfbench-{w}", ["perfbench/run.py", "--workload", w, "--seed", "1",
                            "--seconds", "2", "--trace", "0"])
        for w in ("syntax-react", "functional-table4", "service-open")
    ],
    ("report-jobs1", ["-m", "repro.cli", "report", "--jobs", "1",
                      "--json", "report1.json", "--no-gpt4", *SMALL_REPORT]),
    ("report-jobs2", ["-m", "repro.cli", "report", "--jobs", "2",
                      "--json", "report2.json", *SMALL_REPORT]),
    ("report-durable", ["-m", "repro.cli", "report", "--jobs", "2",
                        "--run-dir", "run-dir", "--on-error", "collect",
                        "--breaker-threshold", "3",
                        "--sim-limits", "cycles=2000,wall=5",
                        "--llm-pool", "cheap=gpt-3.5-sim,strong=gpt-4-sim",
                        "--llm-escalate-after", "2",
                        "--no-gpt4", *SMALL_REPORT]),
    ("fix", ["-m", "repro.cli", "fix", "broken.v", "--transcript"]),
    ("fix-oneshot", ["-m", "repro.cli", "fix", "broken.v",
                     "--prompting", "oneshot", "--compiler", "iverilog"]),
    ("compile", ["-m", "repro.cli", "compile", "broken.v"]),
    ("compile-quartus", ["-m", "repro.cli", "compile", "broken.v",
                         "--compiler", "quartus"]),
    ("dataset", ["-m", "repro.cli", "dataset", "dataset.json",
                 "--size", "12", "--samples", "3"]),
    ("loadgen", ["scripts/loadgen.py", "--jobs", "12"]),
    ("loadgen-overload", ["scripts/loadgen.py", "--overload"]),
    ("loadgen-chaos", ["scripts/loadgen.py", "--chaos"]),
    ("example-quickstart", ["examples/quickstart.py"]),
    ("example-build-syntax-dataset", ["examples/build_syntax_dataset.py",
                                      "example_dataset.json"]),
    ("example-compare-compilers", ["examples/compare_compilers.py"]),
    ("example-debug-simulation", ["examples/debug_simulation.py"]),
    ("example-failure-analysis", ["examples/failure_analysis.py"]),
    ("example-fix-verilogeval", ["examples/fix_verilogeval.py"]),
    ("example-run-all-experiments", ["examples/run_all_experiments.py",
                                     "--small"]),
    ("pytest-benchmarks", ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "benchmarks"]),
]

HOOK = '''\
"""Profile hook of scripts/reach.py: log every src/repro function entered."""
import os
import sys
import threading

_PREFIX = {prefix!r}
_OUT = {out!r}
_seen = {{}}
_log = None


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if id(code) in _seen:
        return
    _seen[id(code)] = code  # kept alive, so its id is never reused
    if code.co_filename.startswith(_PREFIX):
        _log.write(f"{{code.co_filename}}\\t{{code.co_firstlineno}}\\n")


def _arm():
    global _log
    _log = open(os.path.join(_OUT, f"{{os.getpid()}}.log"), "a", buffering=1)
    sys.setprofile(_hook)
    threading.setprofile(_hook)


_arm()
os.register_at_fork(after_in_child=_arm)
'''


def defined_functions(src_root: str) -> dict[tuple[str, int], tuple[str, int]]:
    """``(path relative to src_root, first line) -> (qualified name, lines)``
    for every module-level function and method under ``src_root/repro``.

    The first line is the one ``co_firstlineno`` reports: the first
    decorator's line for a decorated function.
    """
    found: dict[tuple[str, int], tuple[str, int]] = {}

    def visit(body, rel: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(rel, first)] = (prefix + node.name, node.end_lineno - first + 1)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, rel, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.Try)):
                for block in (node.body, node.orelse,
                              getattr(node, "finalbody", []),
                              *[h.body for h in getattr(node, "handlers", [])]):
                    visit(block, rel, prefix)

    for folder, dirs, files in os.walk(os.path.join(src_root, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), path)
                visit(tree.body, os.path.relpath(path, src_root), "")
    return found


def python_sources(*tops: str) -> list[str]:
    """The text of every ``.py`` file under the given repository folders."""
    texts = []
    for top in tops:
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = [d for d in dirs if d not in ("__pycache__", "_work")]
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(folder, name), encoding="utf-8") as handle:
                        texts.append(handle.read())
    return texts


def reference_counts(name: str, corpora: dict[str, list[str]]) -> dict[str, int]:
    """Occurrences of ``name`` as a word in each corpus, ``def`` lines excluded."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    define = re.compile(rf"^\s*(?:async\s+)?def\s+{re.escape(name)}\b", re.M)
    return {
        label: sum(len(word.findall(t)) - len(define.findall(t)) for t in texts)
        for label, texts in corpora.items()
    }


def run_entry_points(work: str, only: list[str]) -> set[tuple[str, int]]:
    """Run the entry points in ``work`` under the hook; the reached keys."""
    hook_dir = os.path.join(work, "_reach_hook")
    log_dir = os.path.join(work, "_reach_logs")
    os.makedirs(hook_dir)
    os.makedirs(log_dir)
    prefix = os.path.join(work, "src", "repro") + os.sep
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as handle:
        handle.write(HOOK.format(prefix=prefix, out=log_dir))
    with open(os.path.join(work, "broken.v"), "w") as handle:
        handle.write(BROKEN_V)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(work, "src"), hook_dir]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for name, argv in ENTRY_POINTS:
        if only and name not in only:
            continue
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, *argv], cwd=work, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
        print(f"# {name}: {status} in {time.monotonic() - start:.0f} s",
              file=sys.stderr, flush=True)
        if proc.returncode != 0:
            for line in proc.stdout.strip().splitlines()[-3:]:
                print(f"#   {line}", file=sys.stderr)
    reached = set()
    src_root = os.path.join(work, "src")
    for log in os.listdir(log_dir):
        with open(os.path.join(log_dir, log)) as handle:
            for line in handle:
                path, _, lineno = line.rstrip("\n").rpartition("\t")
                reached.add((os.path.relpath(path, src_root), int(lineno)))
    return reached


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", default=[], metavar="NAME",
                        help="run only these entry points (see ENTRY_POINTS)")
    parser.add_argument("--keep", metavar="DIR", default=None,
                        help="run in DIR (must not exist) and keep it")
    args = parser.parse_args()
    unknown = set(args.only) - {name for name, _ in ENTRY_POINTS}
    if unknown:
        parser.error(f"unknown entry points: {', '.join(sorted(unknown))}")

    work = args.keep or tempfile.mkdtemp(prefix="reach-")
    if args.keep:
        os.makedirs(work)
    try:
        for name in os.listdir(ROOT):
            if os.path.isfile(os.path.join(ROOT, name)):
                shutil.copy2(os.path.join(ROOT, name), work)
        for top in COPIED:
            shutil.copytree(
                os.path.join(ROOT, top), os.path.join(work, top),
                ignore=shutil.ignore_patterns("__pycache__", "_work", "*.pyc"),
            )
        reached = run_entry_points(work, args.only)
        # From the traced copy, not the live tree: an edit to src/
        # during the run must not shift the line keys.
        defined = defined_functions(os.path.join(work, "src"))
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)

    unreached = sorted(key for key in defined if key not in reached)
    corpora = {
        "src": python_sources("src"),
        "tests": python_sources("tests"),
        "other": python_sources(*OTHER_CODE),
    }
    for rel, line in unreached:
        qualname, size = defined[(rel, line)]
        refs = reference_counts(qualname.rpartition(".")[2], corpora)
        print(f"{rel}:{line}\t{qualname}\t{size} lines\t"
              + " ".join(f"{k}={v}" for k, v in refs.items()))
    print(f"# unreached: {len(unreached)} of {len(defined)} functions",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
