"""The never-crash simulation sandbox boundary.

The compiler front-end has had a never-crash boundary since the
resource-budget work (:func:`repro.diagnostics.compile_source` converts
overflows and internal errors into ``RESOURCE_LIMIT`` / ``INTERNAL``
diagnostics); this module gives the *simulator* the same treatment.
:func:`run_sandboxed` wraps one harness body and converts

* a :class:`~repro.errors.SimLimitExceeded` budget overflow into a
  typed ``limit`` :class:`SimVerdict` (the RESOURCE_LIMIT analogue),
* any other internal exception into a typed ``crashed`` verdict (the
  INTERNAL analogue),

both with engine + phase attribution, while ordinary
:class:`~repro.errors.SimulationError` failures stay ``fail`` verdicts
(design-caused, expected) and three families deliberately **propagate**:

* :class:`~repro.errors.DeadlineExceededError` -- the ambient service
  deadline fired at the ``sim-cycle`` seam; the service must see it
  typed (504), never converted into a crashed verdict;
* :class:`~repro.errors.InjectedFault` /
  :class:`~repro.errors.LLMTimeoutError` -- chaos faults are transient
  and must reach the retry/isolation layer untouched;
* ``KeyboardInterrupt`` / ``SystemExit`` -- shutdown is not a verdict.

``ok`` / ``fail`` verdicts are memoizable; ``limit`` / ``crashed`` /
chaos-injected verdicts never are (:attr:`SimVerdict.cacheable`), so the
:class:`~repro.sim.verdict.VerdictCache` only ever holds results that
are pure functions of design content and stimulus.

Both harnesses run their bodies through :func:`run_sandboxed`, so
:func:`~repro.sim.testbench.run_differential` and
:func:`~repro.sim.feedback.make_sim_feedback` always return a result
whose ``.verdict`` is typed -- never an exception (deadline expiry and
chaos faults still propagate, by design).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from ..errors import (
    DeadlineExceededError,
    InjectedFault,
    LLMTimeoutError,
    SimLimitExceeded,
    SimulationError,
)
from ..scope import current

#: Verdict categories, mirroring the compiler's diagnostic taxonomy:
#: ``ok``/``fail`` are ordinary outcomes, ``limit`` is RESOURCE_LIMIT's
#: analogue, ``crashed`` is INTERNAL's.
SIM_VERDICT_CATEGORIES = ("ok", "fail", "limit", "crashed")


@dataclass(frozen=True)
class SimVerdict:
    """Typed outcome classification of one sandboxed simulation."""

    category: str
    engine: str = ""
    #: Where the run was when the outcome fired (``construct``,
    #: ``cycle``, ``trace``, ``interface``, ``chaos``).
    phase: str = ""
    #: The exhausted budget kind for ``limit`` verdicts; the exception
    #: type name for ``crashed`` ones.
    kind: str = ""
    detail: str = ""
    #: True when the verdict was fabricated by chaos injection (never
    #: memoized, never trusted as a real outcome).
    injected: bool = False

    @property
    def ok(self) -> bool:
        return self.category == "ok"

    @property
    def cacheable(self) -> bool:
        """Only genuine ok/fail outcomes may enter the verdict cache."""
        return self.category in ("ok", "fail") and not self.injected

    def summary(self) -> str:
        head = f"{self.category}[{self.engine}]" if self.engine else self.category
        parts = [head]
        if self.phase:
            parts.append(f"phase={self.phase}")
        if self.kind:
            parts.append(f"kind={self.kind}")
        if self.injected:
            parts.append("injected")
        return " ".join(parts)


@dataclass
class SandboxStats:
    """Counters for sandbox interventions (the ``sandbox`` telemetry).

    Volatile execution telemetry: surfaced on stderr and in the markdown
    report but excluded from ``to_json`` so resume digests stay
    byte-identical.
    """

    limit_verdicts: int = 0
    crashed_verdicts: int = 0
    #: Subset of ``limit_verdicts`` where the wall-clock watchdog fired.
    watchdog_fires: int = 0
    #: Ambient deadlines that expired mid-simulation (``sim-cycle``).
    deadline_fires: int = 0
    #: Chaos faults drawn at the simulator seam (raised or fabricated).
    chaos_faults: int = 0

    def record(self, verdict: SimVerdict) -> None:
        if verdict.injected:
            return  # chaos fabrications are counted as chaos_faults
        if verdict.category == "limit":
            self.limit_verdicts += 1
            if verdict.kind == "wall clock":
                self.watchdog_fires += 1
        elif verdict.category == "crashed":
            self.crashed_verdicts += 1

    def as_dict(self) -> dict:
        return {
            "limit_verdicts": self.limit_verdicts,
            "crashed_verdicts": self.crashed_verdicts,
            "watchdog_fires": self.watchdog_fires,
            "deadline_fires": self.deadline_fires,
            "chaos_faults": self.chaos_faults,
        }


#: Process-wide default, active from import so ad-hoc harness calls are
#: always counted somewhere; reports scope their own instance.
DEFAULT_SANDBOX_STATS = SandboxStats()


def get_active_sandbox_stats() -> Optional[SandboxStats]:
    """The stats sink sandboxed harnesses currently count into."""
    return current().get("sandbox_stats", DEFAULT_SANDBOX_STATS)


def classify_exception(exc: BaseException, engine: str) -> SimVerdict:
    """The :class:`SimVerdict` for one in-sandbox exception.

    Only meaningful for exception families the sandbox converts; the
    propagating families (deadline, chaos, shutdown) must be filtered by
    the caller first -- :func:`run_sandboxed` does.
    """
    if isinstance(exc, SimLimitExceeded):
        return SimVerdict(
            category="limit",
            engine=engine,
            phase=exc.phase,
            kind=exc.kind,
            detail=str(exc),
        )
    if isinstance(exc, SimulationError):
        return SimVerdict(
            category="fail", engine=engine, phase=exc.phase, detail=str(exc)
        )
    return SimVerdict(
        category="crashed",
        engine=engine,
        kind=type(exc).__name__,
        detail=str(exc),
    )


def run_sandboxed(
    fn: Callable[[], Any], engine: str
) -> Tuple[Any, Optional[SimVerdict]]:
    """Run one harness body under the never-crash boundary.

    Returns ``(result, None)`` on success or ``(None, verdict)`` when
    the body raised a convertible exception; deadline expiry, chaos
    faults and shutdown propagate (see module docstring).
    """
    stats = get_active_sandbox_stats()
    try:
        return fn(), None
    except DeadlineExceededError:
        if stats is not None:
            stats.deadline_fires += 1
        raise
    except (InjectedFault, LLMTimeoutError):
        raise
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:
        verdict = classify_exception(exc, engine)
        if stats is not None:
            stats.record(verdict)
        return None, verdict
