"""Event/cycle simulator for the supported Verilog subset.

Used to judge *functional* correctness (the paper's pass@k metric) by
differential simulation against a reference implementation.

Two engines share one semantics: the interpreting
:class:`~repro.sim.simulator.Simulator` walks the AST in full 4-state
logic, and the compiled :class:`~repro.sim.engine.CompiledSimulator`
runs closure-lowered processes on a two-state fast path with
per-invocation fallback to the interpreter (see :mod:`repro.sim.compile`).
:func:`~repro.sim.engine.make_simulator` builds the compiled engine
unless the caller names the interpreter, which stays as the reference
the compiled engine is held bit-identical to; whole testbench verdicts
are memoized content-addressed in :mod:`repro.sim.verdict`.

Both engines run inside the crash-proof, resource-bounded sandbox:
:mod:`repro.sim.limits` defines the cooperative budget set
(:class:`~repro.sim.limits.SimLimits`, the settle bound included) and
:mod:`repro.sim.sandbox` the never-crash boundary that converts budget
overflows and internal errors into typed ``limit``/``crashed``
:class:`~repro.sim.sandbox.SimVerdict` outcomes instead of exceptions.
"""

from .compile import LoweredDesign, Unlowerable, lower_design, lowered_for
from .limits import (
    DEFAULT_SIM_LIMITS,
    FUZZ_SIM_LIMITS,
    UNTRACKED,
    BoundedDisplayLog,
    SimLimits,
    SimLimitTracker,
    parse_sim_limits,
)
from .sandbox import (
    DEFAULT_SANDBOX_STATS,
    SIM_VERDICT_CATEGORIES,
    SandboxStats,
    SimVerdict,
    classify_exception,
    run_sandboxed,
)
from .engine import SIM_ENGINES, CompiledSimulator, make_simulator
from .eval import EvalContext, Evaluator, NetState
from .exec import StmtExecutor
from .feedback import SimFeedback, make_sim_feedback, simulate_with_traces
from .simulator import Simulator
from .trace import Trace, render_comparison
from .testbench import (
    CLOCK_NAMES,
    RESET_NAMES,
    Mismatch,
    TestbenchResult,
    check_interface,
    run_differential,
)
from .values import Logic
from .verdict import (
    DEFAULT_VERDICT_CACHE,
    VerdictCache,
    verdict_key,
)

__all__ = [
    "BoundedDisplayLog",
    "CLOCK_NAMES",
    "CompiledSimulator",
    "DEFAULT_SANDBOX_STATS",
    "DEFAULT_SIM_LIMITS",
    "DEFAULT_VERDICT_CACHE",
    "FUZZ_SIM_LIMITS",
    "SIM_VERDICT_CATEGORIES",
    "SandboxStats",
    "SimLimitTracker",
    "SimLimits",
    "SimVerdict",
    "UNTRACKED",
    "EvalContext",
    "Evaluator",
    "Logic",
    "LoweredDesign",
    "Mismatch",
    "NetState",
    "RESET_NAMES",
    "SIM_ENGINES",
    "SimFeedback",
    "Simulator",
    "StmtExecutor",
    "TestbenchResult",
    "Trace",
    "Unlowerable",
    "VerdictCache",
    "check_interface",
    "classify_exception",
    "lower_design",
    "lowered_for",
    "make_sim_feedback",
    "make_simulator",
    "parse_sim_limits",
    "render_comparison",
    "run_differential",
    "run_sandboxed",
    "simulate_with_traces",
    "verdict_key",
]
