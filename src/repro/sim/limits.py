"""Cooperative resource budgets for the simulation engines.

The simulator runs *untrusted* designs: every syntactically-valid-but-
buggy candidate an LLM emits goes straight into the differential
testbench, and hostile shapes (runaway procedural loops, oscillating
combinational nets, trace bombs, giant cycle counts) can hang a run or
blow up memory.  :class:`SimLimits` is the simulator-side counterpart of
:class:`repro.verilog.limits.ResourceLimits` and the one home of every
simulation budget, the combinational settle bound included: it bounds
every dimension in which a pathological design can consume unbounded
work, and
:class:`SimLimitTracker` enforces the bounds *cooperatively* inside both
engines' dispatch loops -- an overflow raises
:class:`~repro.errors.SimLimitExceeded`, which the sandbox boundary
(:mod:`repro.sim.sandbox`) converts into a typed ``limit`` verdict
instead of letting it escape as a crash.

Two presets ship with the library:

* :data:`DEFAULT_SIM_LIMITS` -- generous bounds no legitimate
  VerilogEval-scale testbench run comes near, sized so a hostile design
  is cut off in a couple of seconds at worst;
* :data:`FUZZ_SIM_LIMITS` -- tight bounds used by the built-in fuzzer so
  a thousand adversarial simulations finish in seconds.

The budgets participate in every simulation verdict cache key (their
``repr`` is hashed into :func:`repro.sim.verdict.verdict_key` by the
harnesses), so runs under different limits can never alias.  The
limits a harness applies when none are passed are the runtime scope's
``sim_limits`` field (:mod:`repro.scope`; ``rtlfixer report
--sim-limits``), else :data:`DEFAULT_SIM_LIMITS`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

from ..errors import SimLimitExceeded
from ..scope import check


@dataclass(frozen=True)
class SimLimits:
    """Bounds on the work one simulator instance may perform.

    All integer budgets are enforced deterministically (identical
    consumption on the interpreting and compiled engines, so the two
    always agree on which budget fires); the wall-clock watchdog is the
    only non-deterministic backstop and is sized so the deterministic
    budgets always trip first on anything but a pathologically slow
    host.
    """

    #: Maximum :meth:`~repro.sim.simulator.Simulator.step` calls over the
    #: simulator's lifetime (construction counts as one cycle).
    max_cycles: int = 5_000
    #: Maximum process evaluations (continuous assigns, port
    #: connections, combinational and triggered sequential blocks) per
    #: cycle; the pool refills every cycle.
    max_events_per_cycle: int = 200_000
    #: Maximum procedural statement executions per process invocation
    #: (the runaway-loop bound, formerly a module constant).
    max_stmt_executions: int = 200_000
    #: Maximum (signal, sample) entries recorded across all traces fed
    #: by one tracker (the traced-feedback harness).
    max_trace_entries: int = 65_536
    #: Maximum total bytes of traced signal data.
    max_trace_bytes: int = 1_048_576
    #: Maximum ``$display``/``$write``/``$strobe`` lines captured.
    max_display_lines: int = 4_096
    #: Cooperative wall-clock watchdog (seconds), polled every few dozen
    #: cycles and every few thousand procedural statements.
    wall_clock_s: float = 10.0
    #: Maximum delta-cycle passes one
    #: :meth:`~repro.sim.simulator.Simulator.settle` runs before the
    #: combinational logic counts as an unsettled loop (``settle
    #: passes``).  No ``--sim-limits`` key sets it.
    max_settle_passes: int = 200

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "wall_clock_s":
                # A NaN watchdog would never fire: NaN compares False.
                if (
                    not isinstance(value, (int, float))
                    or not math.isfinite(value)
                    or value <= 0
                ):
                    raise ValueError(
                        f"wall_clock_s must be a finite positive number, got {value!r}"
                    )
                continue
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(
                    f"{spec.name} must be a positive int, got {value!r}"
                )


#: Production defaults: generous for real testbench runs (<= ~130 cycles,
#: a handful of outputs), hard wall for hostile designs.
DEFAULT_SIM_LIMITS = SimLimits()

#: Tight limits for fuzzing.  ``max_stmt_executions`` deliberately stays
#: at the production default: the statement budget is shared with the
#: compiled engine only through interpreter fallback (single loops past
#: the lowering cap always bail), so tightening it would let nested
#: fast-path loops diverge from the interpreter's accounting.
FUZZ_SIM_LIMITS = SimLimits(
    max_cycles=512,
    max_events_per_cycle=20_000,
    max_stmt_executions=200_000,
    max_trace_entries=2_048,
    max_trace_bytes=65_536,
    max_display_lines=256,
    wall_clock_s=10.0,
    max_settle_passes=64,
)


class _Untracked:
    """Sentinel: build the simulator with **no** budget tracker at all.

    Exists for the sandbox-overhead benchmark (the untracked baseline
    the <5% budget-check overhead is measured against); production paths
    always track.  An untracked simulator still bounds its settle loop,
    at the default ``max_settle_passes``."""

    __slots__ = ()

    def __repr__(self) -> str:  # stable for cache keys, just in case
        return "UNTRACKED"


UNTRACKED = _Untracked()

#: ``--sim-limits`` spec aliases -> :class:`SimLimits` field names.
_SPEC_KEYS = {
    "cycles": "max_cycles",
    "events": "max_events_per_cycle",
    "stmts": "max_stmt_executions",
    "trace-entries": "max_trace_entries",
    "trace-bytes": "max_trace_bytes",
    "display": "max_display_lines",
    "wall": "wall_clock_s",
}


def parse_sim_limits(spec: str) -> SimLimits:
    """Parse a ``--sim-limits`` spec string.

    Accepts the preset names ``default`` and ``fuzz``, or a
    comma-separated ``key=value`` list over the keys
    ``cycles``, ``events``, ``stmts``, ``trace-entries``,
    ``trace-bytes``, ``display`` and ``wall`` (wall is float seconds),
    e.g. ``"cycles=2000,wall=5"``.  Unspecified keys keep their
    defaults.  Raises ``ValueError`` on anything malformed.
    """
    text = spec.strip()
    if text == "default":
        return DEFAULT_SIM_LIMITS
    if text == "fuzz":
        return FUZZ_SIM_LIMITS
    overrides: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        key = key.strip()
        if not sep or key not in _SPEC_KEYS:
            raise ValueError(
                f"bad --sim-limits entry {part!r}; expected one of "
                f"{sorted(_SPEC_KEYS)} as key=value"
            )
        field_name = _SPEC_KEYS[key]
        try:
            value = float(raw) if key == "wall" else int(raw)
        except ValueError:
            raise ValueError(f"bad --sim-limits value for {key!r}: {raw!r}")
        overrides[field_name] = value
    if not overrides:
        raise ValueError(f"empty --sim-limits spec {spec!r}")
    return replace(DEFAULT_SIM_LIMITS, **overrides)


class SimLimitTracker:
    """Mutable per-simulation budget enforcement for :class:`SimLimits`.

    Counters are plain decrementing ints (not the compiler tracker's
    dict-of-kinds) because they sit on the engines' innermost dispatch
    loops; the overhead budget for the whole sandbox is <5% on a clean
    corpus.  One tracker may be shared by several simulators (the
    differential harnesses run candidate and reference under one budget
    pool).  ``phase`` is mutated by the owning simulator (``construct``
    / ``cycle`` / ``trace``) and stamped into every overflow for verdict
    attribution.
    """

    #: Cycles between wall-clock polls in :meth:`begin_cycle`.  Reading
    #: the clock every cycle costs more than every deterministic budget
    #: check combined; per-cycle work is itself bounded by the event and
    #: statement budgets, so a 64-cycle poll stride keeps the watchdog's
    #: latency bounded too.
    TICK_STRIDE = 64

    __slots__ = (
        "limits",
        "phase",
        "cycles_left",
        "events_left",
        "display_left",
        "trace_entries_left",
        "trace_bytes_left",
        "events_per_cycle",
        "stride_left",
        "_stride",
        "_tick_in",
        "_clock",
        "_deadline_at",
    )

    def __init__(
        self,
        limits: Optional[SimLimits] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.limits = limits if limits is not None else DEFAULT_SIM_LIMITS
        self.phase = "construct"
        #: Cycles left as of the last stride end (see :meth:`begin_cycle`).
        self.cycles_left = self.limits.max_cycles
        self.events_per_cycle = self.limits.max_events_per_cycle
        self.events_left = self.events_per_cycle
        self.display_left = self.limits.max_display_lines
        self.trace_entries_left = self.limits.max_trace_entries
        self.trace_bytes_left = self.limits.max_trace_bytes
        # The first cycle ends a one-cycle stride: it polls the clock.
        self.stride_left = self._stride = self._tick_in = 1
        self._clock = clock
        self._deadline_at = clock() + self.limits.wall_clock_s

    def _overflow(self, kind: str, limit: float, phase: Optional[str] = None):
        raise SimLimitExceeded(
            kind, limit, phase=self.phase if phase is None else phase
        )

    def begin_cycle(self) -> None:
        """Charge one simulated cycle, refill the per-cycle event pool
        and poll the watchdog every :data:`TICK_STRIDE` cycles.

        Cycles are counted in strides: ``stride_left`` reaches zero at
        the first cycle past the budget or due a poll, whichever comes
        first, and only that cycle runs :meth:`end_stride`.

        ``CompiledSimulator.step`` (:mod:`repro.sim.engine`) inlines
        these three lines, saving a call per cycle that the sandbox
        overhead gate would otherwise measure: change both together
        (``test_stepped_simulator_lands_on_the_same_cycles`` drives
        each engine's step against this method)."""
        self.stride_left -= 1
        if self.stride_left <= 0:
            self.end_stride()
        self.events_left = self.events_per_cycle

    def end_stride(self) -> None:
        """Charge the stride's cycles (raising past the budget), poll
        the watchdog when due, and size the next stride."""
        self.cycles_left -= self._stride
        if self.cycles_left < 0:
            self._overflow("simulated cycles", self.limits.max_cycles)
        self._tick_in -= self._stride
        if self._tick_in <= 0:
            self._tick_in = self.TICK_STRIDE
            self.tick()
        self._stride = self.stride_left = min(self._tick_in, self.cycles_left + 1)

    def charge_events(self, amount: int) -> None:
        """Charge ``amount`` process evaluations against this cycle.

        The engines' settle and step loops charge inline instead:
        ``events_left -= amount``, then ``charge_events(0)`` to raise
        once the pool is below zero."""
        self.events_left -= amount
        if self.events_left < 0:
            self._overflow("sim events", self.limits.max_events_per_cycle)

    def charge_display(self) -> None:
        """Charge one captured ``$display`` line."""
        self.display_left -= 1
        if self.display_left < 0:
            self._overflow("display lines", self.limits.max_display_lines)

    def charge_trace(self, entries: int, nbytes: int) -> None:
        """Charge recorded trace entries/bytes (phase ``trace``)."""
        self.trace_entries_left -= entries
        if self.trace_entries_left < 0:
            self._overflow(
                "trace entries", self.limits.max_trace_entries, phase="trace"
            )
        self.trace_bytes_left -= nbytes
        if self.trace_bytes_left < 0:
            self._overflow(
                "trace bytes", self.limits.max_trace_bytes, phase="trace"
            )

    def tick(self) -> None:
        """Cooperative wall-clock watchdog check."""
        if self._clock() > self._deadline_at:
            self._overflow("wall clock", self.limits.wall_clock_s)


class BoundedDisplayLog(list):
    """A ``$display`` sink that charges the tracker per appended line.

    A plain ``list`` subclass so every existing consumer (fuzz log
    comparisons, feedback rendering, tests) keeps working unchanged.
    """

    def __init__(self, tracker: Optional[SimLimitTracker] = None):
        super().__init__()
        self.tracker = tracker

    def append(self, line) -> None:
        tracker = self.tracker
        if tracker is not None:
            tracker.charge_display()
        super().append(line)


# ---------------------------------------------------------------------------
# Scoped default (CLI --sim-limits / RTLFixerConfig.sim_limits)
# ---------------------------------------------------------------------------


@check("sim_limits")
def _check_sim_limits(limits: SimLimits) -> None:
    """``scoped(sim_limits=...)`` accepts only a :class:`SimLimits`."""
    if not isinstance(limits, SimLimits):
        raise ValueError("sim limits must be a SimLimits instance")
