"""Golden-model differential testbench.

Functional correctness is judged the way VerilogEval does it: simulate
the candidate implementation and the reference implementation on the
same stimulus and compare outputs.  The stimulus generator understands
the corpus conventions: a ``clk`` input gets a clock, ``reset`` /
``areset`` / ``rst`` inputs get a reset pulse (held deasserted when
there is no clock), everything else is driven with seeded random
vectors.

Both harnesses -- this differential and the §5 traced feedback
(:mod:`repro.sim.feedback`) -- share one stimulus schedule
(:func:`drive`), one memo path through the verdict cache
(:func:`memoized`) and one reference tape per stimulus: the golden
reference's first completed run under the active
:class:`~repro.sim.verdict.VerdictCache` is recorded as a
:class:`ReferenceTape`, and later runs of either harness with the same
key replay the tape against the live budget tracker instead of
simulating the reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..errors import SimulationError, TransientError
from ..scope import current
from ..verilog.elaborate import ElabDesign, PortInfo
from ..verilog.limits import ResourceLimits
from .engine import DEFAULT_SIM_ENGINE, make_simulator
from .limits import DEFAULT_SIM_LIMITS, UNTRACKED, SimLimits, SimLimitTracker
from .sandbox import DEFAULT_SANDBOX_STATS, SimVerdict, run_sandboxed
from .simulator import Simulator
from .values import Logic
from .verdict import DEFAULT_VERDICT_CACHE, verdict_key

CLOCK_NAMES = ("clk", "clock")
RESET_NAMES = ("reset", "rst", "areset", "arst", "resetn", "rst_n")


@dataclass
class Mismatch:
    sample: int
    output: str
    expected: str
    actual: str


@dataclass
class TestbenchResult:
    """Outcome of one differential run."""

    passed: bool
    samples: int = 0
    mismatch_count: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    #: Non-empty when the candidate could not be simulated at all
    #: (port interface mismatch, runaway loop, unsupported construct).
    failure_reason: str = ""
    #: Sandbox classification of the run (``ok``/``fail``/``limit``/
    #: ``crashed``); ``limit``/``crashed`` results are never memoized.
    verdict: Optional[SimVerdict] = None

    def summary(self) -> str:
        if self.passed:
            return f"PASS ({self.samples} samples)"
        if self.failure_reason:
            return f"FAIL ({self.failure_reason})"
        return f"FAIL ({self.mismatch_count}/{self.samples} samples mismatched)"


def check_interface(candidate: ElabDesign, reference: ElabDesign) -> str:
    """Return an error string if the candidate's ports do not match the
    reference module's ports (name, direction, width); '' when fine."""
    ref_top = reference.top_module()
    cand_top = candidate.top_module()
    if cand_top is None:
        return "candidate has no modules"
    ref_ports = {p.name: p for p in ref_top.ports}
    cand_ports = {p.name: p for p in cand_top.ports}
    for name, ref_port in ref_ports.items():
        cand_port = cand_ports.get(name)
        if cand_port is None:
            return f"missing port {name!r}"
        if cand_port.direction != ref_port.direction:
            return f"port {name!r} direction mismatch"
        if cand_port.width != ref_port.width:
            return f"port {name!r} width {cand_port.width} != {ref_port.width}"
    extra = set(cand_ports) - set(ref_ports)
    if extra:
        return f"unexpected extra ports: {sorted(extra)}"
    return ""


@dataclass(frozen=True)
class ReferenceTape:
    """One completed reference run, for replay by either harness.

    ``records[0]`` is the construction, each later record one
    :meth:`~repro.sim.simulator.Simulator.step`: the ``$display`` lines
    the reference charged to the shared budget tracker in it, and its
    output values after it (``None`` where the harness read none; a
    ``None`` value is an output net the design lacks).  Replay charges
    one ``begin_cycle`` per record plus those lines; the harness's own
    trace records charge the trace budgets.  The reference's event use
    needs no replay: every ``begin_cycle`` refills the per-cycle event
    pool, so it never reaches the candidate.
    """

    inputs: tuple[PortInfo, ...]
    outputs: tuple[PortInfo, ...]
    records: tuple[tuple[int, Optional[tuple]], ...]


class _RecordingReference:
    """A live reference simulator that records its :class:`ReferenceTape`."""

    def __init__(self, sim: Simulator, cache, key: Optional[str]):
        self._sim = sim
        self._cache = cache
        self._key = key
        self.inputs = sim.inputs
        self.outputs = sim.outputs
        self._records = [[len(sim.display_log), None]]

    def step(self, inputs=None) -> None:
        log = self._sim.display_log
        before = len(log)
        self._sim.step(inputs)
        self._records.append([len(log) - before, None])

    def get(self, name: str) -> Logic:
        record = self._records[-1]
        if record[1] is None:
            values = self._sim.state.values
            record[1] = tuple(values.get(port.name) for port in self.outputs)
        return self._sim.get(name)

    def completed(self) -> None:
        """Store the tape: the harness run finished without raising."""
        if self._cache is not None:
            self._cache.put_tape(self._key, ReferenceTape(
                inputs=tuple(self.inputs),
                outputs=tuple(self.outputs),
                records=tuple(tuple(record) for record in self._records),
            ))


class _ReplayedReference:
    """A :class:`ReferenceTape` played back against the live tracker:
    every budget charge the reference made, in order, and its recorded
    outputs, without simulating."""

    def __init__(self, tape: ReferenceTape, tracker: Optional[SimLimitTracker]):
        self.inputs = tape.inputs
        self.outputs = tape.outputs
        self._index = {port.name: i for i, port in enumerate(tape.outputs)}
        self._records = iter(tape.records)
        self._tracker = tracker
        self._advance("construct")

    def _advance(self, phase: str) -> None:
        lines, self._values = next(self._records)
        tracker = self._tracker
        if tracker is not None:
            tracker.phase = phase
            tracker.begin_cycle()
            for _ in range(lines):
                tracker.charge_display()

    def step(self, inputs=None) -> None:
        self._advance("cycle")

    def get(self, name: str) -> Logic:
        value = self._values[self._index[name]]
        if value is None:
            raise SimulationError(
                f"no such net: {name!r}",
                phase=getattr(self._tracker, "phase", ""),
            )
        return value

    def completed(self) -> None:
        """Nothing to store: the tape is already in the cache."""


def reference_run(
    reference: ElabDesign,
    samples: int,
    seed: int,
    engine: str,
    limits: Optional[ResourceLimits],
    sim_limits,
    tracker: Optional[SimLimitTracker],
):
    """The reference side of one harness run: a replay of its tape when
    the active verdict cache holds one, else a live simulator that
    records the tape once the run :meth:`completed`.

    The tape key is the reference digest, ``samples``, ``seed``, the
    engine, ``limits`` and ``repr(sim_limits)``; it names no harness,
    because both drive the reference with the same schedule.  Under
    ``scoped(verdict_cache=None)`` every reference is simulated.
    """
    cache = current().get("verdict_cache", DEFAULT_VERDICT_CACHE)
    key = None
    if cache is not None:
        key = verdict_key(
            "tape", (getattr(reference, "digest", None),),
            engine, limits, samples, seed, repr(sim_limits),
        )
        tape = cache.get_tape(key)
        if tape is not None:
            return _ReplayedReference(tape, tracker)
    sim = make_simulator(
        reference, engine=engine, limits=limits,
        sim_limits=sim_limits, sim_tracker=tracker,
    )
    return _RecordingReference(sim, cache, key)


def _chaos_verdict(site: str, chaos_key: str, engine: str) -> Optional[SimVerdict]:
    """Consult the ambient simulation fault injector, if any.

    Returns ``None`` (no fault), a fabricated ``injected`` verdict for
    ``garbage`` faults, or re-raises the injector's raising kinds after
    counting them.  The chaos key deliberately excludes the engine so
    both engines draw the same fault for the same work.
    """
    scope = current()
    injector = scope.get("sim_injector")
    if injector is None:
        return None
    stats = scope.get("sandbox_stats", DEFAULT_SANDBOX_STATS)
    try:
        kind = injector.fire(site, chaos_key)
    except TransientError:
        if stats is not None:
            stats.chaos_faults += 1
        raise
    if kind != "garbage":
        return None
    if stats is not None:
        stats.chaos_faults += 1
    return SimVerdict(
        category="crashed",
        engine=engine,
        phase="chaos",
        detail="chaos: garbled simulation verdict",
        injected=True,
    )


def memoized(
    kind: str,
    run: Callable,
    failed: Callable[[SimVerdict, int], object],
    candidate: ElabDesign,
    reference: ElabDesign,
    samples: int,
    seed: int,
    cap: int,
    engine: Optional[str],
    limits: Optional[ResourceLimits],
    sim_limits: Optional[SimLimits],
    chaos: bool = True,
):
    """The memo path of both harnesses: ``run(candidate, reference,
    samples, seed, cap, engine, limits, sim_limits)`` with the engine and
    sandbox budgets resolved from the scope, memoized in the active
    :class:`~repro.sim.verdict.VerdictCache`.

    ``kind`` (``"diff"``/``"feedback"``) names the harness in the verdict
    key and its chaos site (``sim.<kind>``).  With ``chaos``, an injected
    ``garbage`` fault returns ``failed(verdict, samples)`` before the
    lookup.  ``cap`` is the harness's recording cap.  The sandbox budgets
    join the key, and only cacheable (``ok``/``fail``) results are stored
    -- ``limit``/``crashed`` outcomes depend on budgets and environment,
    not just content.
    """
    scope = current()
    if engine is None:
        engine = scope.get("sim_engine", DEFAULT_SIM_ENGINE)
    if sim_limits is None:
        sim_limits = scope.get("sim_limits", DEFAULT_SIM_LIMITS)
    digests = (getattr(candidate, "digest", None), getattr(reference, "digest", None))
    if chaos:
        verdict = _chaos_verdict(
            f"sim.{kind}", f"{digests[0]}|{digests[1]}|{samples}|{seed}", engine
        )
        if verdict is not None:
            return failed(verdict, samples)
    cache = scope.get("verdict_cache", DEFAULT_VERDICT_CACHE)
    key = None
    if cache is not None:
        key = verdict_key(
            kind, digests, engine, limits,
            samples, seed, cap, repr(sim_limits),
        )
        cached = cache.get(key)
        if cached is not None:
            return cached
    result = run(
        candidate, reference, samples, seed, cap, engine, limits, sim_limits
    )
    if cache is not None and result.verdict.cacheable:
        cache.put(key, result)
    return result


def drive(cand_sim, ref_sim, samples: int, seed: int) -> Iterator[int]:
    """The stimulus schedule both harnesses share: step the pair on
    identical seeded stimulus and yield each sample index to compare.

    A design without a clock gets one random vector per sample with any
    reset held deasserted.  A clocked design gets one cycle per sample
    -- inputs set with the clock low, then a rising edge -- with reset
    asserted for the first two cycles, which are not compared.  The
    reference run is :meth:`completed` once every sample is observed.
    """
    # Lazy: the service package sits above the sim package.
    from ..service.deadline import current_deadline

    deadline = current_deadline()
    rng = random.Random(seed)
    inputs = ref_sim.inputs
    clock = next((p.name for p in inputs if p.name in CLOCK_NAMES), None)
    resets = [p.name for p in inputs if p.name in RESET_NAMES]
    data = [p for p in inputs if p.name != clock and p.name not in resets]
    reset_cycles = 2 if resets and clock is not None else 0
    for sample in range(samples):
        if deadline is not None:
            deadline.check(stage="sim-cycle")
        in_reset = sample < reset_cycles
        levels = {  # an active-low reset's name ends in "n"
            name: int(name.endswith("n") != in_reset) for name in resets
        }
        vector = {port.name: _random_vector(rng, port.width) for port in data}
        if clock is None:
            stimulus: dict[str, Logic | int] = {**vector, **levels}
        else:
            stimulus = {**levels, **vector, clock: 0}
        cand_sim.step(dict(stimulus))
        ref_sim.step(dict(stimulus))
        if clock is not None:
            cand_sim.step({clock: 1})
            ref_sim.step({clock: 1})
        if not in_reset:
            yield sample
    ref_sim.completed()


def _failed_result(verdict: SimVerdict, samples: int) -> TestbenchResult:
    return TestbenchResult(
        passed=False, failure_reason=verdict.detail, verdict=verdict
    )


def run_differential(
    candidate: ElabDesign,
    reference: ElabDesign,
    samples: int = 64,
    seed: int = 0,
    max_mismatches_recorded: int = 4,
    engine: Optional[str] = None,
    limits: Optional[ResourceLimits] = None,
    sim_limits: Optional[SimLimits] = None,
) -> TestbenchResult:
    """Drive both designs with identical stimulus and compare outputs.

    ``samples`` is the number of random input vectors (combinational) or
    clock cycles (sequential).  The whole verdict is memoized in the
    active :class:`~repro.sim.verdict.VerdictCache` keyed by the design
    digests and every stimulus parameter (:func:`memoized`) --
    simulation is deterministic, so a repeated (candidate, reference,
    stimulus) triple returns the recorded verdict without simulating.
    """
    return memoized(
        "diff", _run_differential_uncached, _failed_result,
        candidate, reference, samples, seed, max_mismatches_recorded,
        engine, limits, sim_limits,
    )


def _run_differential_uncached(
    candidate: ElabDesign,
    reference: ElabDesign,
    samples: int,
    seed: int,
    max_mismatches_recorded: int,
    engine: str,
    limits: Optional[ResourceLimits],
    sim_limits: SimLimits,
) -> TestbenchResult:
    interface_error = check_interface(candidate, reference)
    if interface_error:
        return _failed_result(SimVerdict(
            category="fail", engine=engine,
            phase="interface", detail=interface_error,
        ), samples)

    # One budget pool for the whole harness invocation: candidate and
    # reference share a tracker, so the pair cannot take more than one
    # run's worth of resources between them.
    tracker = None if sim_limits is UNTRACKED else SimLimitTracker(sim_limits)

    def body() -> TestbenchResult:
        cand_sim = make_simulator(
            candidate, engine=engine, limits=limits,
            sim_limits=sim_limits, sim_tracker=tracker,
        )
        ref_sim = reference_run(
            reference, samples, seed, engine, limits, sim_limits, tracker
        )
        outputs = [p.name for p in ref_sim.outputs]
        result = TestbenchResult(passed=True)
        for sample in drive(cand_sim, ref_sim, samples, seed):
            _compare(
                cand_sim, ref_sim, outputs, sample, result,
                max_mismatches_recorded,
            )
        return result

    result, verdict = run_sandboxed(body, engine)
    if verdict is not None:
        return _failed_result(verdict, samples)
    result.passed = result.mismatch_count == 0 and not result.failure_reason
    result.verdict = SimVerdict(
        category="ok" if result.passed else "fail", engine=engine
    )
    return result


def _random_vector(rng: random.Random, width: int) -> int:
    # Mix uniform randomness with corner values so narrow comparisons
    # (all-zeros, all-ones) are exercised early.
    choice = rng.random()
    if choice < 0.1:
        return 0
    if choice < 0.2:
        return (1 << width) - 1
    return rng.getrandbits(width)


def _compare(
    cand_sim: Simulator,
    ref_sim: Simulator,
    outputs: list[str],
    sample: int,
    result: TestbenchResult,
    limit: int,
) -> None:
    result.samples += 1
    for name in outputs:
        expected = ref_sim.get(name)
        actual = cand_sim.get(name)
        if not expected.same_as(actual):
            result.mismatch_count += 1
            if len(result.mismatches) < limit:
                result.mismatches.append(
                    Mismatch(
                        sample=sample, output=name,
                        expected=str(expected), actual=str(actual),
                    )
                )
            break  # one mismatch per sample is enough
