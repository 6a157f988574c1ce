"""Diagnostic assembly: one compile's diagnostics into its result and log.

Each compile (:class:`repro.verilog.pipeline.CompileSession`) keeps its
diagnostics in one plain list that every front-end stage appends to, in
emission order.  This module turns that list into what the agents see:

* **deduplication** -- :func:`dedup_diagnostics` merges repeated reports
  of one problem (same category, file, span start and args), keeping the
  first occurrence;
* **escalation** -- :func:`internal_error` turns an unexpected crash
  into an ``INTERNAL`` diagnostic, and the session assembles that
  result with ``crashed=True``; budget overflows need no escalation,
  since every stage reports them as ordinary ``RESOURCE_LIMIT``
  diagnostics (:meth:`repro.verilog.limits.LimitTracker.report_overflow`);
* **assembly** -- :func:`assemble_result` builds the
  :class:`~repro.diagnostics.compiler.CompileResult` and stamps the
  design digest of an error-free elaboration;
* **rendering** -- :func:`render_log` is the single
  iverilog/Quartus/simple renderer entry point (with the never-crash
  fallback), used by :class:`~repro.diagnostics.compiler.CompileResult`.

This module deliberately does *not* import anything from
``repro.verilog``: spans and sources are passed in by the pipeline, so
the diagnostics package stays import-cycle-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from . import iverilog_style, quartus_style
from .codes import ErrorCategory
from .diagnostic import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .compiler import CompileResult

#: The fixed instruction used as "feedback" at the lowest quality level
#: (paper §4.3.1: "Correct the syntax error in the code.").
SIMPLE_FEEDBACK = "Correct the syntax error in the code."


def dedup_key(diag: Diagnostic) -> tuple:
    """The identity under which duplicate diagnostics are merged.

    Category + span file name + span start + stringified args: two
    stages (or one stage re-probing after error recovery) reporting the
    same problem at the same location collapse to the first occurrence,
    while the same problem at the same offset of two different files
    (a source and one of its includes) stays two diagnostics.
    """
    span = diag.span
    return (
        diag.category,
        span.file.name if span else None,
        span.start if span else None,
        tuple(sorted((k, str(v)) for k, v in diag.args.items())),
    )


def dedup_diagnostics(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """Drop duplicate diagnostics, preserving first-occurrence order."""
    seen: set[tuple] = set()
    out: list[Diagnostic] = []
    for diag in diagnostics:
        key = dedup_key(diag)
        if key in seen:
            continue
        seen.add(key)
        out.append(diag)
    return out


def render_log(result: "CompileResult") -> str:
    """Render the agent-facing feedback text for ``result``.

    The single renderer entry point for every flavour; the never-crash
    contract extends here, so a renderer bug degrades to a one-line
    internal-error message instead of an exception.
    """
    if result.ok:
        return ""
    if result.flavor == "simple":
        return SIMPLE_FEEDBACK
    try:
        if result.flavor == "iverilog":
            return iverilog_style.render(result.diagnostics)
        return quartus_style.render(result.diagnostics)
    except Exception:  # never-crash contract extends to rendering
        name = result.source.name if result.source is not None else "main.v"
        return f"{name}:0: internal error: diagnostic rendering failed"


def internal_error(exc: BaseException, span) -> Diagnostic:
    """The ``INTERNAL`` diagnostic reporting an unexpected crash."""
    detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
    return Diagnostic(ErrorCategory.INTERNAL, span, {"detail": detail})


def assemble_result(
    source, flavor, diagnostics, *, crashed=False, design=None, elaborated=None
) -> "CompileResult":
    """The :class:`~repro.diagnostics.compiler.CompileResult` of one
    compile: ``diagnostics`` deduplicated, ``crashed`` carried."""
    from .compiler import CompileResult
    from .diagnostic import Severity

    diagnostics = dedup_diagnostics(diagnostics)
    if (
        elaborated is not None
        and getattr(elaborated, "digest", None) is None
        and not crashed
        and not any(d.severity is Severity.ERROR for d in diagnostics)
    ):
        # Stamp the design's content identity.  Every compile
        # converges here, and only error-free elaborations get a
        # digest: with no errors, elaboration is a pure function of the
        # preprocessed text, so the digest is a sound cache key for
        # anything derived from the design (compiled simulators,
        # testbench verdicts).  Error-bearing results may be
        # partially elaborated under resource limits and stay
        # ``None`` = uncacheable.
        import hashlib

        text = getattr(source, "text", None)
        if isinstance(text, str):
            elaborated.digest = hashlib.sha256(
                text.encode("utf-8", "surrogatepass")
            ).hexdigest()

    return CompileResult(
        source=source,
        flavor=flavor,
        diagnostics=diagnostics,
        design=design,
        elaborated=elaborated,
        crashed=crashed,
    )
