"""Golden-model differential testbench.

Functional correctness is judged the way VerilogEval does it: simulate
the candidate implementation and the reference implementation on the
same stimulus and compare outputs.  The stimulus generator understands
the corpus conventions: a ``clk`` input gets a clock, ``reset`` /
``areset`` / ``rst`` inputs get a reset pulse, everything else is driven
with seeded random vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..errors import TransientError
from ..scope import current
from ..verilog.elaborate import ElabDesign
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
    digests and every stimulus parameter -- simulation is deterministic,
    so a repeated (candidate, reference, stimulus) triple returns the
    recorded verdict without simulating.  The sandbox budgets join the
    key (runs under different ``sim_limits`` never alias), and only
    ``ok``/``fail`` verdicts are memoized -- ``limit``/``crashed``
    outcomes depend on budgets and environment, not just content.
    """
    scope = current()
    effective_engine = engine
    if effective_engine is None:
        effective_engine = scope.get("sim_engine", DEFAULT_SIM_ENGINE)
    effective_sim = sim_limits
    if effective_sim is None:
        effective_sim = scope.get("sim_limits", DEFAULT_SIM_LIMITS)

    chaos = _chaos_verdict(
        "sim.diff",
        f"{getattr(candidate, 'digest', None)}|"
        f"{getattr(reference, 'digest', None)}|{samples}|{seed}",
        effective_engine,
    )
    if chaos is not None:
        return TestbenchResult(
            passed=False, failure_reason=chaos.detail, verdict=chaos
        )

    cache = scope.get("verdict_cache", DEFAULT_VERDICT_CACHE)
    key = None
    if cache is not None:
        key = verdict_key(
            "diff",
            (getattr(candidate, "digest", None), getattr(reference, "digest", None)),
            effective_engine,
            limits,
            samples, seed, max_mismatches_recorded, repr(effective_sim),
        )
        cached = cache.get(key)
        if cached is not None:
            return cached

    result = _run_differential_uncached(
        candidate, reference, samples, seed, max_mismatches_recorded,
        effective_engine, limits, effective_sim,
    )
    if cache is not None and result.verdict is not None and result.verdict.cacheable:
        cache.put(key, result)
    return result


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
        return TestbenchResult(
            passed=False,
            failure_reason=interface_error,
            verdict=SimVerdict(
                category="fail", engine=engine,
                phase="interface", detail=interface_error,
            ),
        )

    # Lazy: the service package sits above the sim package.
    from ..service.deadline import current_deadline

    deadline = current_deadline()
    # One budget pool for the whole harness invocation: candidate and
    # reference share a tracker, so the pair cannot take more than one
    # run's worth of resources between them.
    tracker = None if sim_limits is UNTRACKED else SimLimitTracker(sim_limits)

    def body() -> TestbenchResult:
        cand_sim = make_simulator(
            candidate, engine=engine, limits=limits,
            sim_limits=sim_limits, sim_tracker=tracker,
        )
        ref_sim = make_simulator(
            reference, engine=engine, limits=limits,
            sim_limits=sim_limits, sim_tracker=tracker,
        )

        rng = random.Random(seed)
        ref_inputs = ref_sim.inputs
        clock = next((p.name for p in ref_inputs if p.name in CLOCK_NAMES), None)
        resets = [p.name for p in ref_inputs if p.name in RESET_NAMES]
        data_inputs = [
            p for p in ref_inputs if p.name != clock and p.name not in resets
        ]
        outputs = [p.name for p in ref_sim.outputs]

        result = TestbenchResult(passed=True)
        if clock is None:
            _run_combinational(
                cand_sim, ref_sim, data_inputs, resets, outputs,
                samples, rng, result, max_mismatches_recorded, deadline,
            )
        else:
            _run_sequential(
                cand_sim, ref_sim, clock, data_inputs, resets, outputs,
                samples, rng, result, max_mismatches_recorded, deadline,
            )
        return result

    result, verdict = run_sandboxed(body, engine)
    if verdict is not None:
        return TestbenchResult(
            passed=False, failure_reason=verdict.detail, verdict=verdict
        )
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


def _run_combinational(
    cand_sim, ref_sim, data_inputs, resets, outputs,
    samples, rng, result, limit, deadline=None,
) -> None:
    for sample in range(samples):
        if deadline is not None:
            deadline.check(stage="sim-cycle")
        stimulus: dict[str, Logic | int] = {}
        for port in data_inputs:
            stimulus[port.name] = _random_vector(rng, port.width)
        for name in resets:
            stimulus[name] = 0 if not name.endswith("n") else 1
        cand_sim.step(dict(stimulus))
        ref_sim.step(dict(stimulus))
        _compare(cand_sim, ref_sim, outputs, sample, result, limit)


def _run_sequential(
    cand_sim, ref_sim, clock, data_inputs, resets, outputs,
    samples, rng, result, limit, deadline=None,
) -> None:
    reset_cycles = 2 if resets else 0
    for cycle in range(samples):
        if deadline is not None:
            deadline.check(stage="sim-cycle")
        stimulus: dict[str, Logic | int] = {}
        in_reset = cycle < reset_cycles
        for name in resets:
            active = 1 if not name.endswith("n") else 0
            stimulus[name] = active if in_reset else active ^ 1
        for port in data_inputs:
            stimulus[port.name] = _random_vector(rng, port.width)
        stimulus[clock] = 0
        cand_sim.step(dict(stimulus))
        ref_sim.step(dict(stimulus))
        cand_sim.step({clock: 1})
        ref_sim.step({clock: 1})
        if not in_reset:
            _compare(cand_sim, ref_sim, outputs, cycle, result, limit)
