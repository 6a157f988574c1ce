"""Waveform tracing: record signal values over time and render them as
text.

The paper's §5 describes feeding LLMs "text-formatted waveform-like
comparisons of error versus solution output" when attempting to debug
*simulation* errors.  A :class:`Trace` captures per-step values for a
set of signals, and :func:`render_comparison` aligns a failing trace
against the golden one and marks mismatching samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .simulator import Simulator
from .values import Logic


@dataclass
class Trace:
    """Recorded values: signal name -> list of per-sample values."""

    signals: list[str]
    samples: dict[str, list[Logic]] = field(default_factory=dict)
    #: Optional :class:`~repro.sim.limits.SimLimitTracker`; when set,
    #: every recorded (signal, sample) entry charges the trace budgets
    #: (trace bombs -- many wide outputs -- stop here instead of eating
    #: memory).  Excluded from equality/repr: a trace's identity is its
    #: recorded data.
    tracker: object = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in self.signals:
            self.samples.setdefault(name, [])

    def record(self, sim: Simulator) -> None:
        """Capture the current value of every traced signal."""
        tracker = self.tracker
        for name in self.signals:
            value = sim.get(name)
            if tracker is not None:
                tracker.charge_trace(1, (value.width + 7) >> 3)
            self.samples[name].append(value)

    def append(self, name: str, value: Logic) -> None:
        if self.tracker is not None:
            self.tracker.charge_trace(1, (value.width + 7) >> 3)
        self.samples.setdefault(name, []).append(value)
        if name not in self.signals:
            self.signals.append(name)

    @property
    def length(self) -> int:
        if not self.signals:
            return 0
        return max((len(self.samples[s]) for s in self.signals), default=0)

    def value_at(self, name: str, index: int) -> Logic | None:
        values = self.samples.get(name, [])
        if 0 <= index < len(values):
            return values[index]
        return None


def _cell(value: Logic | None) -> str:
    if value is None:
        return "-"
    if value.xmask:
        return "x" * ((value.width + 3) // 4) if value.width > 1 else "x"
    if value.width == 1:
        return str(value.bits)
    return f"{value.bits:0{(value.width + 3) // 4}x}"


def render_comparison(
    actual: Trace,
    expected: Trace,
    signals: list[str] | None = None,
    max_samples: int = 24,
) -> str:
    """Side-by-side comparison with mismatch markers.

    This is the feedback format handed to the simulation-debugging agent
    (paper §5): per traced output, the expected row, the actual row, and
    a marker row flagging the samples that differ."""
    signals = signals or [s for s in expected.signals if s in actual.signals]
    steps = min(max(actual.length, expected.length), max_samples)
    blocks = []
    mismatch_total = 0
    for name in signals:
        exp_cells = []
        act_cells = []
        marks = []
        for i in range(steps):
            exp = expected.value_at(name, i)
            act = actual.value_at(name, i)
            exp_cells.append(f"{_cell(exp):>4}")
            act_cells.append(f"{_cell(act):>4}")
            same = exp is not None and act is not None and exp.same_as(act)
            if not same:
                mismatch_total += 1
            marks.append("   ^" if not same else "    ")
        blocks.append(
            f"signal {name}:\n"
            f"  expected {' '.join(exp_cells)}\n"
            f"  actual   {' '.join(act_cells)}\n"
            f"  mismatch {' '.join(marks)}"
        )
    header = f"{mismatch_total} mismatching sample(s) across {len(signals)} signal(s)"
    return header + "\n" + "\n".join(blocks)
