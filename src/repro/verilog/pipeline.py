"""The staged compile pipeline: every compile of the front end runs here.

:func:`~repro.diagnostics.compiler.compile_source` -- and through it the
:class:`~repro.diagnostics.compiler.Compiler` facade and the
whole-result :class:`~repro.runtime.CompileCache` -- runs
``CompileSession(name, limits).compile(code, flavor, include_files)``.
That call drives five stage objects, in order, over one
:class:`PipelineState`:

* **preprocess** -- directive expansion (macros, includes);
* **lex** -- tokenization of the preprocessed text;
* **parse** -- the token stream into a :class:`~repro.verilog.ast.Design`;
* **elaborate** -- semantic analysis of the parsed design; skipped, with
  an "empty design" diagnostic, when no module parsed;
* **render** -- assembles the deduplicated
  :class:`~repro.diagnostics.compiler.CompileResult` (log rendering
  itself stays lazy on the result).

Every stage charges one shared :class:`~repro.verilog.limits.LimitTracker`
and reports into one :class:`~repro.diagnostics.engine.DiagnosticEngine`
(stage provenance, deduplication).  :meth:`CompileSession.compile` is the
front end's single never-crash boundary.

The compiled simulator lowers an elaborated design once more
(``sim-lower``, :func:`repro.sim.compile.lowered_for`); that step hangs
off **elaborate**'s output and is memoized on the design itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..diagnostics.codes import ErrorCategory
from ..diagnostics.diagnostic import Diagnostic
from ..diagnostics.engine import DiagnosticEngine
from ..errors import ResourceLimitExceeded
from . import ast
from .elaborate import ElabDesign, elaborate
from .lexer import tokenize
from .limits import DEFAULT_LIMITS, LimitTracker, ResourceLimits
from .parser import Parser
from .preprocessor import preprocess
from .source import SourceFile, Span
from .tokens import Token

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..diagnostics.compiler import CompileResult


@dataclass
class PipelineState:
    """Mutable dataflow record threaded through the stages of one
    compile (inputs at the top, stage outputs filled in as the pipeline
    advances)."""

    raw: SourceFile
    flavor: str
    include_files: Optional[dict]
    engine: DiagnosticEngine
    #: the one budget tracker every stage charges.
    tracker: LimitTracker
    #: preprocess output (the file every later stage consumes).
    pre: Optional[SourceFile] = None
    #: lex output.
    tokens: Optional[list[Token]] = None
    #: parse output.
    design: Optional[ast.Design] = None
    #: elaborate output (None when the design is empty).
    elaborated: Optional[ElabDesign] = None
    #: final assembled result (set by the render stage).
    result: Optional["CompileResult"] = None


# The benchmark's span tracer wraps CompileSession.compile,
# _CachedStage.run, ElaborateStage.run and RenderStage.run by name and
# names each stage span after the stage's ``name``; keep those names.
class _CachedStage:
    """Base of the three analysis stages (preprocess, lex, parse): runs
    :meth:`compute` inside the engine's stage scope."""

    name = "?"

    def compute(self, state: PipelineState) -> None:
        """Advance ``state`` through this stage."""
        raise NotImplementedError

    def run(self, state: PipelineState) -> None:
        """Run :meth:`compute` with this stage's provenance."""
        with state.engine.stage(self.name):
            self.compute(state)


class PreprocessStage(_CachedStage):
    """Directive expansion."""

    name = "preprocess"

    def compute(self, state: PipelineState) -> None:
        """Publish the preprocessed source and its diagnostics."""
        pre = preprocess(
            state.raw, include_files=state.include_files, tracker=state.tracker
        )
        state.engine.extend(self.name, pre.diagnostics)
        state.pre = pre.source


class LexStage(_CachedStage):
    """Tokenization of the preprocessed text."""

    name = "lex"

    def compute(self, state: PipelineState) -> None:
        """Publish the token stream (diagnostics go to the engine)."""
        state.tokens = tokenize(
            state.pre, state.engine.sink(self.name), tracker=state.tracker
        )


class ParseStage(_CachedStage):
    """Parsing of the token stream into a design."""

    name = "parse"

    def compute(self, state: PipelineState) -> None:
        """Publish the parsed design (diagnostics go to the engine)."""
        state.design = Parser(
            state.tokens, state.engine.sink(self.name), tracker=state.tracker
        ).parse_design()


class ElaborateStage:
    """Elaboration of the parsed design; skipped when no module parsed."""

    name = "elaborate"

    def run(self, state: PipelineState) -> None:
        """Elaborate, or report the empty design once (unless an earlier
        stage already produced an explanation)."""
        engine = state.engine
        if not state.design.modules:
            if engine.empty:
                engine.emit(
                    "parse",
                    Diagnostic(
                        ErrorCategory.SYNTAX_NEAR, None, {"near": "empty design"}
                    ),
                )
            return
        with engine.stage(self.name):
            state.elaborated = elaborate(
                state.design, engine.sink(self.name), tracker=state.tracker
            )


class RenderStage:
    """Result assembly.  Log rendering itself stays lazy on
    :class:`~repro.diagnostics.compiler.CompileResult`."""

    name = "render"

    def run(self, state: PipelineState) -> None:
        """Assemble the final deduplicated result from the engine."""
        with state.engine.stage(self.name):
            state.result = state.engine.result(
                state.pre, state.flavor,
                design=state.design, elaborated=state.elaborated,
            )


#: The stages every compile runs, in order.
STAGES = (
    PreprocessStage(), LexStage(), ParseStage(), ElaborateStage(), RenderStage(),
)


class CompileSession:
    """Runs the compile pipeline for one file name and one set of budgets.

    Holds no state between compiles: each :meth:`compile` starts from a
    fresh tracker and diagnostic engine.
    """

    def __init__(
        self, name: str = "main.v", limits: Optional[ResourceLimits] = None
    ):
        self.name = name
        #: Budgets for every compile (None = the defaults).
        self.limits = limits if limits is not None else DEFAULT_LIMITS

    def compile(
        self,
        code: str,
        flavor: str = "iverilog",
        include_files: Optional[dict] = None,
    ) -> "CompileResult":
        """Compile ``code`` through every stage.

        The front end's never-crash, never-hang boundary: budgets are
        enforced cooperatively inside every stage and a cooperative
        :class:`~repro.errors.ResourceLimitExceeded` unwind becomes a
        ``RESOURCE_LIMIT`` diagnostic; any other exception becomes an
        ``INTERNAL`` diagnostic on a ``crashed=True`` result.
        """
        engine = DiagnosticEngine()
        state = PipelineState(
            raw=SourceFile(self.name, code), flavor=flavor,
            include_files=include_files, engine=engine,
            tracker=LimitTracker(limits=self.limits),
        )
        head = Span(state.raw, 0, min(1, len(code))) if code else None
        try:
            return self._run(state)
        except ResourceLimitExceeded as exc:
            # A stage unwound cooperatively: an ordinary limit
            # diagnostic, not a crash.
            engine.limit_violation(exc, head)
        except Exception as exc:  # the catch-all crash boundary
            engine.internal_error(exc, head)
        return engine.result(state.raw, flavor)

    def _run(self, state: PipelineState) -> "CompileResult":
        """Admit the source against its byte budget, then run
        :data:`STAGES` over ``state``."""
        engine = state.engine
        raw = state.raw
        with engine.stage("driver"):
            if not state.tracker.charge(
                "source bytes", len(raw.text.encode("utf-8", "replace"))
            ):
                state.tracker.report_overflow(
                    "source bytes",
                    Span(raw, 0, 1) if raw.text else None,
                    engine.sink("driver"),
                )
                return engine.result(raw, state.flavor)
        for stage in STAGES:
            stage.run(state)
        return state.result
