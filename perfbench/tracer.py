"""Span tracer for the benchmark's traced runs.

It wraps the public entry points of each layer of ``repro`` from the
outside, so no code under ``src/`` changes.  A span records its name,
start and end, its parent span and its thread.  Each thread keeps its
own span stack (``rtlfixer serve`` runs repairs on worker threads), and
a span's self time is its duration minus the time its child spans cover.
Spans are kept in memory and written out when the run ends.

>>> tracer = Tracer()
>>> tracer.install()        # after which every call into a layer is a span
>>> ...
>>> tracer.enabled = False  # stop recording (e.g. before output checks)
>>> tracer.aggregate()      # {name: [calls, self_s]}
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from contextlib import contextmanager

#: Methods traced: (module, class, method, span name).  A span name of
#: ``None`` means "named after the stage": ``verilog.stage.<self.name>``.
METHODS = (
    ("repro.agents.react", "ReActAgent", "run", "agents.react_run"),
    ("repro.repair.engine", "RepairEngine", "run", "repair.engine_run"),
    ("repro.diagnostics.compiler", "Compiler", "compile", "diagnostics.compile"),
    ("repro.verilog.pipeline", "CompileSession", "compile", "verilog.session_compile"),
    ("repro.verilog.pipeline", "_CachedStage", "run", None),
    ("repro.verilog.pipeline", "ElaborateStage", "run", None),
    ("repro.verilog.pipeline", "RenderStage", "run", None),
    ("repro.llm.simulated", "SimulatedRepairSession", "step", "llm.step"),
    ("repro.llm.simfix", "LogicDebugSession", "step", "llm.step"),
    ("repro.llm.pool", "PooledRepairSession", "step", "llm.pool_step"),
    ("repro.llm.simfix", "PooledLogicSession", "step", "llm.pool_step"),
    ("repro.repair.oracles", "SimOracle", "check", "repair.oracle_check"),
    ("repro.repair.localizers", "TraceDiffLocalizer", "localize", "repair.localize"),
    ("repro.repair.templates", "TemplateSession", "propose", "repair.template_propose"),
)

#: Module-level functions traced: (defining module, name, span name).
#: Every module that imported the function by name is rebound too.
FUNCTIONS = (
    ("repro.diagnostics.compiler", "compile_source", "verilog.compile_source_cold"),
    ("repro.sim.sandbox", "run_sandboxed", "sim.run_sandboxed"),
)

#: Aliases that must be rebound after :meth:`Tracer.install`; a miss
#: here means a layer would escape the trace, so install fails loudly.
REQUIRED_ALIASES = (
    ("repro.diagnostics", "compile_source"),
    ("repro.llm.simulated", "compile_source"),
    ("repro.sim.testbench", "run_sandboxed"),
    ("repro.sim.feedback", "run_sandboxed"),
    ("repro.repair.localizers", "run_sandboxed"),
)


class Tracer:
    """In-memory span recorder with per-thread span stacks."""

    def __init__(self) -> None:
        self.enabled = True
        #: ``(span_id, parent_id, name, thread_id, start, end, self_s)``
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> list:
        stack = self._stack()
        frame = [next(self._ids), stack[-1][0] if stack else 0, 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, start: float) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        self.spans.append(
            (frame[0], frame[1], name, threading.get_ident(), start, end,
             duration - frame[2])
        )

    @contextmanager
    def span(self, name: str):
        """A span around a block (the benchmark's per-request root)."""
        if not self.enabled:
            yield
            return
        frame = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, name, start)

    def wrap(self, fn, name):
        """``fn`` recorded as a span; ``name`` is a string or a callable
        computing it from the call's ``self``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args[0])
            frame = tracer._enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, span_name, start)

        return traced

    def install(self) -> None:
        """Wrap every traced entry point and rebind every alias of the
        traced functions across the already-imported ``repro`` modules."""
        import repro

        # Import the whole package first, so every module that binds a
        # traced function by name exists when the aliases are rebound.
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        for module_name, class_name, method, span_name in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            name = span_name or (lambda stage: f"verilog.stage.{stage.name}")
            setattr(cls, method, self.wrap(cls.__dict__[method], name))
        retrievers = importlib.import_module("repro.rag.retrievers")
        for cls in vars(retrievers).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == retrievers.__name__
                and "retrieve" in cls.__dict__
                and not getattr(cls, "_is_protocol", False)
            ):
                cls.retrieve = self.wrap(cls.__dict__["retrieve"], "rag.retrieve")
        for module_name, func_name, span_name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), func_name)
            traced = self.wrap(original, span_name)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
        for module_name, attr in REQUIRED_ALIASES:
            value = getattr(sys.modules[module_name], attr)
            if getattr(value, "__wrapped__", None) is None:
                raise RuntimeError(f"{module_name}.{attr} was not rebound")

    def aggregate(self) -> dict:
        """``{span name: [calls, self seconds]}`` over recorded spans."""
        totals: dict[str, list] = {}
        for span in self.spans:
            entry = totals.setdefault(span[2], [0, 0.0])
            entry[0] += 1
            entry[1] += span[6]
        return totals

    def write(self, path: str) -> None:
        """Write the spans as JSON lines:
        ``[id, parent, name, thread, start, end]``."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(list(span[:6])) + "\n")
