"""Compiler facade: source text in, diagnostics + rendered log out.

This is the tool the agents invoke.  The underlying analysis (lexer →
preprocessor → parser → elaborator) is identical for every flavour; the
flavour only controls how much *information* the rendered feedback
carries, which is precisely the variable the paper's feedback-quality
ablation manipulates:

* ``simple``   -- no compiler log at all, just a fixed instruction;
* ``iverilog`` -- terse logs, 7 distinguishable categories;
* ``quartus``  -- verbose tagged logs, all 11 categories + hints.

Every compile runs :func:`compile_source`, a cold run of the staged
pipeline in :mod:`repro.verilog.pipeline`; the :class:`Compiler` facade
the agents hold puts the whole-result
:class:`~repro.runtime.CompileCache` in front of it.  Because the
flavour touches only rendering, the cache keeps one analysis per source
and hands out per-flavour views of it (:meth:`CompileResult.with_flavor`);
each result or view renders its log once, on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Literal, Optional

from .codes import ErrorCategory
from .diagnostic import Diagnostic, Severity, sort_key
from .engine import SIMPLE_FEEDBACK, render_log

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle with
    # repro.verilog, whose modules import the diagnostics catalog.
    from ..verilog.ast import Design
    from ..verilog.elaborate import ElabDesign
    from ..verilog.limits import ResourceLimits
    from ..verilog.source import SourceFile

CompilerFlavor = Literal["simple", "iverilog", "quartus"]

__all__ = [
    "CompilerFlavor",
    "SIMPLE_FEEDBACK",
    "CompileResult",
    "Compiler",
    "compile_source",
]


@dataclass
class CompileResult:
    """Outcome of one compiler invocation."""

    source: "SourceFile"
    flavor: CompilerFlavor
    diagnostics: list[Diagnostic] = field(default_factory=list)
    design: Optional["Design"] = None
    elaborated: Optional["ElabDesign"] = None
    #: True when the front-end hit an unexpected internal failure and
    #: the crash was converted into an ``INTERNAL`` diagnostic at the
    #: :func:`compile_source` boundary.  A crashed result is never
    #: ``ok`` -- agents treat it as (degraded) compiler feedback.
    crashed: bool = False
    #: The rendered :attr:`log`, filled on first read.
    _log: Optional[str] = field(default=None, init=False, repr=False, compare=False)
    #: Views of this analysis under other flavours (:meth:`with_flavor`).
    _views: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        if self.crashed:
            return False
        return not any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def categories(self) -> list[ErrorCategory]:
        """Error categories present, in source order."""
        seen: list[ErrorCategory] = []
        for diag in sorted(self.errors, key=sort_key):
            if diag.category not in seen:
                seen.append(diag.category)
        return seen

    @property
    def log(self) -> str:
        """The feedback text an agent would see for this flavour.

        Rendered on the first read and stored: a result is immutable, so
        every later read returns the same string."""
        log = self._log
        if log is None:
            log = self._log = render_log(self)
        return log

    def with_flavor(self, flavor: CompilerFlavor) -> "CompileResult":
        """This analysis as the ``flavor`` compiler would report it.

        The view shares ``source``, ``diagnostics``, ``design``,
        ``elaborated`` and ``crashed`` with this result and differs only
        in ``flavor`` (hence in :attr:`log`).  Each flavour's view is
        built once and kept here, so repeated calls return the same
        object; two threads racing on the first call may each build a
        view, and both get the one stored first.
        """
        if flavor == self.flavor:
            return self
        view = self._views.get(flavor)
        if view is None:
            view = self._views.setdefault(flavor, replace(self, flavor=flavor))
        return view


class Compiler:
    """Reusable compiler with a fixed flavour, file name and limits.

    Stateless between calls: :meth:`compile` is a
    :func:`~repro.runtime.cache.cached_compile` of the source under this
    compiler's settings, so repeated revisions are served from the
    active compile cache and misses run :func:`compile_source`.
    """

    def __init__(
        self,
        flavor: CompilerFlavor = "iverilog",
        file_name: str = "main.v",
        limits: "ResourceLimits | None" = None,
    ):
        if flavor not in ("simple", "iverilog", "quartus"):
            raise ValueError(f"unknown compiler flavor: {flavor!r}")
        self.flavor: CompilerFlavor = flavor
        self.file_name = file_name
        #: Resource budgets enforced on every compile (None = defaults).
        self.limits = limits
        # Imported here, once per compiler rather than once per compile:
        # repro.runtime imports this module.
        from ..runtime.cache import cached_compile

        self._cached_compile = cached_compile

    def compile(self, code: str) -> CompileResult:
        """Compile ``code`` under this compiler's flavour and limits."""
        return self._cached_compile(
            code, name=self.file_name, flavor=self.flavor, limits=self.limits
        )


def compile_source(
    code: str,
    name: str = "main.v",
    flavor: CompilerFlavor = "iverilog",
    include_files: dict[str, str] | None = None,
    limits: "ResourceLimits | None" = None,
) -> CompileResult:
    """Run the full front end over ``code`` and collect diagnostics.

    Always compiles cold, through the staged pipeline
    (:class:`~repro.verilog.pipeline.CompileSession`), which is the
    library's *never-crash, never-hang* boundary: whatever the input,
    the result is a :class:`CompileResult` carrying diagnostics.
    Resource budgets (``limits``, default
    :data:`~repro.verilog.limits.DEFAULT_LIMITS`) are enforced
    cooperatively inside every stage and violations surface as
    ``RESOURCE_LIMIT`` diagnostics; any *unexpected* exception becomes
    an ``INTERNAL`` diagnostic on a result with ``crashed=True`` --
    graceful degradation, not an abort.
    """
    # Deferred import: repro.verilog imports the diagnostics catalog.
    from ..verilog.pipeline import CompileSession

    return CompileSession(name, limits).compile(code, flavor, include_files)
