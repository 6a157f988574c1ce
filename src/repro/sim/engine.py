"""The compiled simulation engine.

:class:`CompiledSimulator` is a drop-in :class:`~repro.sim.simulator.Simulator`
that swaps the per-delta-cycle AST walk for the lowered closures built by
:mod:`repro.sim.compile`.  Three ideas carry the speedup:

* **two-state speculation** -- every process first runs its lowered
  closure, which operates on raw known bit patterns and *bails* (returns
  ``None``) the moment it touches an X/Z bit or any other 4-state
  corner.  A bailed process has its speculative writes rolled back from
  an undo log and is re-run on the interpreter, so results are
  bit-identical by construction.  Demotion is per-invocation, not
  sticky: the same process speculates again next delta cycle, so a
  design that starts all-X at reset recovers the fast path as soon as
  its nets take known values.
* **change tracking instead of snapshots** -- the interpreter's settle
  loop copies and compares the whole value dict every pass;
  :class:`_TrackingDict` records first-seen old values per pass, making
  the fixpoint check O(writes) instead of O(nets).
* **content-addressed lowering** -- the closure tables are cached per
  design digest in the active stage cache (see
  :func:`repro.sim.compile.lowered_for`), so repeated simulations of the
  same design (testbench reruns, fuzz iterations, repair loops) skip the
  lowering pass entirely.

:func:`make_simulator` is the engine-selecting constructor every harness
(testbench, feedback, fuzz, CLI) routes through; the process-wide
default is ``compiled`` and can be overridden with
``scoped(sim_engine=...)`` (:mod:`repro.scope`) or the
``REPRO_SIM_ENGINE`` environment variable.
"""

from __future__ import annotations

import os
from typing import Optional

from ..errors import SimLimitExceeded, SimulationError
from ..scope import check, current
from ..verilog.elaborate import ElabDesign
from ..verilog.limits import ResourceLimits
from .compile import LoweredDesign, lowered_for
from .eval import Evaluator
from .exec import NbaUpdate, StmtExecutor
from .limits import SimLimits, SimLimitTracker
from .simulator import Simulator, _edge_fired
from .values import Logic

#: Engines selectable through :func:`make_simulator`.
SIM_ENGINES = ("compiled", "interp")

_MISSING = object()


class _TrackingDict(dict):
    """A value dict that records per-pass first-seen old values.

    ``begin_pass()`` opens a pass; every ``d[k] = v`` during the pass
    remembers the value ``k`` had when the pass started (or ``_MISSING``
    for new keys); ``changed()`` reports whether any key differs from
    its pass-start value.  Replaces the settle loop's full-dict snapshot
    compare with bookkeeping proportional to the writes actually made.
    """

    __slots__ = ("epoch",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.epoch: dict = {}

    def __setitem__(self, key, value):
        if key not in self.epoch:
            self.epoch[key] = super().get(key, _MISSING)
        super().__setitem__(key, value)

    def begin_pass(self) -> None:
        self.epoch.clear()

    def changed(self) -> bool:
        for key, old in self.epoch.items():
            if old is _MISSING or super().get(key, _MISSING) != old:
                return True
        return False


class CompiledSimulator(Simulator):
    """A :class:`Simulator` running lowered processes with interpreter
    fallback; externally indistinguishable from the base class."""

    def _post_build(self) -> None:
        self.state.values = _TrackingDict(self.state.values)
        #: fast-path invocations vs. bail-and-reinterpret fallbacks,
        #: for tests and telemetry.
        self.fast_runs = 0
        self.demotions = 0
        self._undo: list = []
        self._lowered: LoweredDesign = lowered_for(self)
        # One reusable executor per process for NBA fallback commits
        # (complex l-values re-resolve indices at commit time through
        # the interpreter's own assign path).
        self._seq_ex = [StmtExecutor(proc.ctx) for proc in self._seq]
        self._input_ports = {
            p.name: (p.width, p.signed) for p in self.inputs
        }
        # Fused comb schedule: one (fast_fn|None, is_stmt, fallback) row
        # per process, in the interpreter's execution order, so the
        # settle loop runs without per-pass enumerate/index bookkeeping.
        lowered = self._lowered
        ops = []
        for i, (ctx, assign) in enumerate(self._assigns):
            ops.append((
                lowered.assigns[i], False,
                self._make_assign_fallback(ctx, assign.rhs, assign.lvalue),
            ))
        for i, conn in enumerate(self._connections):
            ops.append((
                lowered.connections[i], False,
                self._make_assign_fallback(
                    conn.src_ctx, conn.src_expr, conn.dst_lvalue, conn.dst_ctx
                ),
            ))
        for i, proc in enumerate(self._comb):
            ops.append((
                lowered.comb[i], True, self._make_proc_fallback(proc),
            ))
        self._comb_ops = ops

    def _make_assign_fallback(self, src_ctx, rhs, lvalue, dst_ctx=None):
        """Interpreter re-run of one continuous assign / port connection."""
        def fallback():
            executor = StmtExecutor(dst_ctx if dst_ctx is not None else src_ctx)
            value = Evaluator(src_ctx).eval_rhs(
                rhs, executor._lvalue_width(lvalue)
            )
            executor.assign(lvalue, value)
        return fallback

    def _make_proc_fallback(self, proc):
        """Interpreter re-run of one combinational always block."""
        def fallback():
            StmtExecutor(proc.ctx, display=self.display_log).exec_stmt(
                proc.block.body
            )
        return fallback

    def set_input(self, name, value) -> None:
        """Port-table :meth:`Simulator.set_input` (no linear port scan,
        no redundant resize for int stimulus)."""
        port = self._input_ports.get(name)
        if port is None:
            raise SimulationError(f"no such input port: {name!r}")
        width, signed = port
        if isinstance(value, int):
            self.state.values[name] = Logic.from_int(value, width, signed)
        else:
            self.state.values[name] = value.resize(width, signed)

    # -- speculation ------------------------------------------------------

    def _rollback(self) -> None:
        values = self.state.values
        arrays = self.state.arrays
        for entry in reversed(self._undo):
            if entry[0] == 0:
                values[entry[1]] = entry[2]
            else:
                arrays[entry[1]][entry[2]] = entry[3]
        self._undo.clear()
        self.demotions += 1

    def _comb_pass(self) -> None:
        values = self.state.values
        arrays = self.state.arrays
        undo = self._undo
        fast = 0
        for fn, is_stmt, fallback in self._comb_ops:
            if fn is not None:
                ok = (
                    fn(values, arrays, undo, None, None)
                    if is_stmt
                    else fn(values, arrays, undo)
                )
                if ok is not None:
                    if undo:
                        undo.clear()
                    fast += 1
                    continue
                self._rollback()
            fallback()
        self.fast_runs += fast

    def settle(self) -> None:
        """Change-tracked fixpoint; same bound and failure mode as the
        interpreter's snapshot-compare settle."""
        values = self.state.values
        budget = self.limits.max_settle_passes
        tracker = self.sim_tracker
        passes = 0
        for _ in range(budget):
            values.begin_pass()
            self._comb_pass()
            passes += 1
            if not values.changed():
                # Same bulk charge as the interpreter (one event per
                # process evaluation per pass, settled pass counts are
                # identical), so both engines exhaust identically.
                if tracker is not None:
                    tracker.events_left -= passes * self._n_comb_ops
                    if tracker.events_left < 0:
                        tracker.charge_events(0)  # raises "sim events"
                return
        raise SimLimitExceeded(
            "settle passes",
            budget,
            message="combinational logic did not settle after "
            f"{budget} passes (loop? raise max_settle_passes if legitimate)",
            phase=getattr(self.sim_tracker, "phase", ""),
        )

    # -- clock region -----------------------------------------------------

    def _sample_edges(self) -> dict:
        values = self.state.values
        arrays = self.state.arrays
        sampled: dict = {}
        lowered = self._lowered
        for pi, proc in enumerate(self._seq):
            fns = lowered.edges[pi]
            for i, (_, expr) in enumerate(proc.edges):
                fn = fns[i]
                bit = None
                if fn is not None:
                    raw = fn(values, arrays)
                    if raw is not None:
                        bit = (raw & 1, True)
                if bit is None:
                    value = Evaluator(proc.ctx).eval(expr)
                    b = value.bit(0)
                    bit = (b.bits, b.xmask == 0)
                sampled[id(proc) * 64 + i] = bit
        return sampled

    def step(self, inputs=None) -> None:
        tracker = self.sim_tracker
        if tracker is not None:
            tracker.phase = "cycle"
            tracker.begin_cycle()
        if inputs:
            values = self.state.values
            ports = self._input_ports
            for name, value in inputs.items():
                port = ports.get(name)
                if port is None:
                    raise SimulationError(f"no such input port: {name!r}")
                if isinstance(value, int):
                    values[name] = Logic.from_int(value, port[0], port[1])
                else:
                    values[name] = value.resize(port[0], port[1])
        self.settle()
        new_edges = self._sample_edges()
        triggered: list[int] = []
        for pi, proc in enumerate(self._seq):
            for i, (edge, _) in enumerate(proc.edges):
                key = id(proc) * 64 + i
                old = self._edge_state.get(key)
                new = new_edges[key]
                if old is None:
                    continue
                if _edge_fired_fast(edge, old, new):
                    triggered.append(pi)
                    break
        if tracker is not None and triggered:
            tracker.charge_events(len(triggered))
        nba: list[NbaUpdate] = []
        values = self.state.values
        arrays = self.state.arrays
        undo = self._undo
        lowered = self._lowered
        for pi in triggered:
            proc = self._seq[pi]
            fn = lowered.seq[pi]
            if fn is not None:
                mark = len(nba)
                if fn(values, arrays, undo, nba, self._seq_ex[pi]) is not None:
                    undo.clear()
                    self.fast_runs += 1
                    continue
                del nba[mark:]
                self._rollback()
            StmtExecutor(proc.ctx, nba=nba, display=self.display_log).exec_stmt(
                proc.block.body
            )
        for update in nba:
            # Fast-path NBAs are bare (flat, Logic) tuples; interpreter
            # fallbacks queue NbaUpdate objects.  One ordered list keeps
            # standard NBA commit ordering across both.
            if type(update) is tuple:
                values[update[0]] = update[1]
            else:
                update.apply()
        self.settle()
        self._edge_state = self._sample_edges()


def _edge_fired_fast(edge: str, old: tuple, new: tuple) -> bool:
    """(bit, known) form of :func:`repro.sim.simulator._edge_fired`."""
    old_bit, old_known = old
    new_bit, new_known = new
    if edge == "posedge":
        return (new_known and new_bit == 1) and not (old_known and old_bit == 1)
    return (new_known and new_bit == 0) and not (old_known and old_bit == 0)


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------

#: The engine used when neither the caller nor the runtime scope names
#: one: ``REPRO_SIM_ENGINE`` when it names a known engine, else compiled.
DEFAULT_SIM_ENGINE = "compiled"
if os.environ.get("REPRO_SIM_ENGINE") in SIM_ENGINES:
    DEFAULT_SIM_ENGINE = os.environ["REPRO_SIM_ENGINE"]


@check("sim_engine")
def _check_engine(engine: str) -> None:
    """Reject an unknown engine name (also run on ``scoped(sim_engine=)``)."""
    if engine not in SIM_ENGINES:
        raise ValueError(
            f"unknown sim engine {engine!r}; expected one of {SIM_ENGINES}"
        )


def make_simulator(
    design: ElabDesign,
    top: Optional[str] = None,
    engine: Optional[str] = None,
    limits: Optional[ResourceLimits] = None,
    sim_limits: Optional[SimLimits] = None,
    sim_tracker: Optional[SimLimitTracker] = None,
) -> Simulator:
    """Construct a simulator using ``engine`` (default: the process-wide
    default, normally ``compiled``).  Every harness routes through this
    so one flag switches the whole stack.  ``sim_limits``/``sim_tracker``
    configure the sandbox budgets (see :mod:`repro.sim.limits`); a
    shared tracker pools budgets across several simulators."""
    if engine is None:
        engine = current().get("sim_engine", DEFAULT_SIM_ENGINE)
    _check_engine(engine)
    cls = CompiledSimulator if engine == "compiled" else Simulator
    return cls(
        design, top=top, limits=limits,
        sim_limits=sim_limits, sim_tracker=sim_tracker,
    )
