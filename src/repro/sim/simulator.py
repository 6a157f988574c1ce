"""Cycle-oriented 4-state simulator for elaborated designs.

The simulator flattens the instance hierarchy and runs a classic
two-region model per :meth:`Simulator.step`:

1. **settle** -- continuous assigns, instance port connections and
   combinational always blocks are re-evaluated to a fixpoint
   (delta cycles, with a bound to catch combinational loops);
2. **clock** -- edge-sensitive always blocks whose edge fired
   (relative to the previous step) run with nonblocking updates queued,
   the queue is committed, and the design settles again.

This matches what VerilogEval's testbenches observe: drive inputs, step
the clock, sample outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimLimitExceeded, SimulationError
from ..scope import current
from ..verilog import ast
from ..verilog.elaborate import ElabDesign, ElabModule, PortInfo
from ..verilog.limits import DEFAULT_LIMITS, ResourceLimits
from .eval import EvalContext, Evaluator, NetState
from .exec import NbaUpdate, StmtExecutor
from .limits import (
    DEFAULT_SIM_LIMITS,
    UNTRACKED,
    BoundedDisplayLog,
    SimLimits,
    SimLimitTracker,
)
from .values import Logic


@dataclass
class _SeqProcess:
    ctx: EvalContext
    block: ast.AlwaysBlock
    #: (edge, watched expression) pairs, evaluated in the owning context.
    edges: list[tuple[str, ast.Expr]]


@dataclass
class _CombProcess:
    ctx: EvalContext
    block: ast.AlwaysBlock


@dataclass
class _Connection:
    """Continuous link for instance ports (both directions)."""

    src_ctx: EvalContext
    src_expr: ast.Expr
    dst_ctx: EvalContext
    dst_lvalue: ast.Expr


class Simulator:
    """Simulates the top module of an elaborated design."""

    def __init__(
        self,
        design: ElabDesign,
        top: str | None = None,
        limits: ResourceLimits | None = None,
        sim_limits: SimLimits | None = None,
        sim_tracker: SimLimitTracker | None = None,
    ):
        self.design = design
        #: Cooperative budgets; ``max_settle_passes`` bounds delta cycles.
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        #: Sandbox budgets (:class:`~repro.sim.limits.SimLimits`).  Pass
        #: ``sim_tracker`` to share one budget pool across simulators
        #: (the differential harnesses do); pass
        #: :data:`~repro.sim.limits.UNTRACKED` as ``sim_limits`` to
        #: disable tracking entirely (benchmark baseline only).
        if sim_tracker is not None:
            self.sim_tracker = sim_tracker
        elif sim_limits is UNTRACKED:
            self.sim_tracker = None
        else:
            if sim_limits is None:
                sim_limits = current().get("sim_limits", DEFAULT_SIM_LIMITS)
            self.sim_tracker = SimLimitTracker(sim_limits)
        top_name = top or design.top
        if top_name is None or top_name not in design.modules:
            top_module = design.top_module()
            if top_module is None:
                raise SimulationError(
                    "design has no modules to simulate", phase="construct"
                )
            top_name = top_module.name
        self.top = design.modules[top_name]
        self.state = NetState()
        #: Output captured from $display/$write/$strobe calls (budgeted
        #: against ``max_display_lines`` when tracked).
        self.display_log: list[str] = BoundedDisplayLog(self.sim_tracker)
        self._assigns: list[tuple[EvalContext, ast.ContinuousAssign]] = []
        self._connections: list[_Connection] = []
        self._comb: list[_CombProcess] = []
        self._seq: list[_SeqProcess] = []
        self._initials: list[tuple[EvalContext, ast.InitialBlock]] = []
        self._build(self.top, prefix="", depth=0)
        #: Process evaluations one settle pass performs (event charging).
        self._n_comb_ops = (
            len(self._assigns) + len(self._connections) + len(self._comb)
        )
        self._post_build()
        tracker = self.sim_tracker
        if tracker is not None:
            tracker.phase = "construct"
            tracker.begin_cycle()  # construction counts as one cycle
        self._run_initials()
        self.settle()
        self._edge_state = self._sample_edges()

    def _post_build(self) -> None:
        """Hook for subclasses: runs after the net list is built but
        before initial blocks execute (the compiled engine swaps in its
        lowered processes here)."""

    # -- construction -----------------------------------------------------

    def _build(self, module: ElabModule, prefix: str, depth: int) -> None:
        if depth > 16:
            raise SimulationError(
                "instance hierarchy too deep (recursive?)", phase="construct"
            )
        ctx = EvalContext(state=self.state, module=module, prefix=prefix)
        ctx.tracker = self.sim_tracker

        for name, symbol in module.scope.symbols.items():
            if symbol.kind in ("parameter", "function"):
                continue
            flat = prefix + name
            if symbol.array is not None:
                lo, hi = symbol.array
                self.state.arrays[flat] = [
                    Logic.all_x(max(symbol.width, 1)) for _ in range(hi - lo + 1)
                ]
            else:
                self.state.values[flat] = Logic.all_x(
                    max(symbol.width, 1), symbol.signed
                )

        for assign in module.assigns:
            self._assigns.append((ctx, assign))
        for block in module.always:
            edges = self._edge_list(block)
            if edges:
                self._seq.append(_SeqProcess(ctx=ctx, block=block, edges=edges))
            else:
                self._comb.append(_CombProcess(ctx=ctx, block=block))
        for initial in module.initials:
            self._initials.append((ctx, initial))

        for inst in module.instances:
            child = self.design.modules.get(inst.module_name)
            if child is None:
                continue  # elaboration already reported this
            if inst.param_values:
                from ..verilog.elaborate import specialize_module

                child = specialize_module(
                    self.design, inst.module_name, inst.param_values
                )
            child_prefix = f"{prefix}{inst.instance_name}."
            self._build(child, child_prefix, depth + 1)
            child_ctx = EvalContext(state=self.state, module=child, prefix=child_prefix)
            child_ctx.tracker = self.sim_tracker
            for port in child.ports:
                expr = inst.port_map.get(port.name)
                if expr is None:
                    continue
                port_ident = ast.Identifier(span=expr.span, name=port.name)
                if port.direction == "input":
                    self._connections.append(
                        _Connection(src_ctx=ctx, src_expr=expr,
                                    dst_ctx=child_ctx, dst_lvalue=port_ident)
                    )
                elif port.direction == "output":
                    self._connections.append(
                        _Connection(src_ctx=child_ctx, src_expr=port_ident,
                                    dst_ctx=ctx, dst_lvalue=expr)
                    )

    @staticmethod
    def _edge_list(block: ast.AlwaysBlock) -> list[tuple[str, ast.Expr]]:
        if block.sensitivity is None or block.sensitivity.star:
            return []
        return [
            (item.edge, item.expr)
            for item in block.sensitivity.items
            if item.edge is not None
        ]

    def _run_initials(self) -> None:
        nba: list[NbaUpdate] = []
        for ctx, initial in self._initials:
            executor = StmtExecutor(ctx, nba=nba, display=self.display_log)
            executor.exec_stmt(initial.body)
        for update in nba:
            update.apply()

    def _error(self, message: str) -> SimulationError:
        """A :class:`SimulationError` stamped with the run's live phase."""
        return SimulationError(
            message, phase=getattr(self.sim_tracker, "phase", "")
        )

    # -- port metadata ------------------------------------------------------

    @property
    def inputs(self) -> list[PortInfo]:
        return [p for p in self.top.ports if p.direction == "input"]

    @property
    def outputs(self) -> list[PortInfo]:
        return [p for p in self.top.ports if p.direction == "output"]

    # -- state access ---------------------------------------------------------

    def get(self, name: str) -> Logic:
        """Read a (flat-named) net's current value."""
        value = self.state.values.get(name)
        if value is None:
            raise self._error(f"no such net: {name!r}")
        return value

    def set_input(self, name: str, value: Logic | int) -> None:
        """Drive a top-level input port."""
        port = next((p for p in self.inputs if p.name == name), None)
        if port is None:
            raise self._error(f"no such input port: {name!r}")
        if isinstance(value, int):
            value = Logic.from_int(value, port.width, port.signed)
        self.state.values[name] = value.resize(port.width, port.signed)

    # -- execution ---------------------------------------------------------

    def settle(self) -> None:
        """Propagate combinational logic to a fixpoint.

        Bounded by the cooperative ``max_settle_passes`` budget from
        :class:`~repro.verilog.limits.ResourceLimits`; hitting the bound
        raises :class:`~repro.errors.SimulationError`, which every
        harness (testbench, feedback, fuzz) degrades into an ordinary
        failed verdict rather than a crash.
        """
        budget = self.limits.max_settle_passes
        tracker = self.sim_tracker
        passes = 0
        for _ in range(budget):
            before = self.state.snapshot()
            self._comb_pass()
            passes += 1
            if self.state.values == before:
                # One bulk charge per settle (pass counts are identical
                # across engines), inlined to keep the budget check off
                # the hot path; the pass bound above caps the work a
                # single settle can do before the charge lands.
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

    def _comb_pass(self) -> None:
        for ctx, assign in self._assigns:
            executor = StmtExecutor(ctx)
            value = Evaluator(ctx).eval_rhs(
                assign.rhs, executor._lvalue_width(assign.lvalue)
            )
            executor.assign(assign.lvalue, value)
        for conn in self._connections:
            executor = StmtExecutor(conn.dst_ctx)
            value = Evaluator(conn.src_ctx).eval_rhs(
                conn.src_expr, executor._lvalue_width(conn.dst_lvalue)
            )
            executor.assign(conn.dst_lvalue, value)
        for proc in self._comb:
            StmtExecutor(proc.ctx, display=self.display_log).exec_stmt(proc.block.body)

    def _sample_edges(self) -> dict[int, Logic]:
        sampled: dict[int, Logic] = {}
        for proc in self._seq:
            for i, (_, expr) in enumerate(proc.edges):
                sampled[id(proc) * 64 + i] = Evaluator(proc.ctx).eval(expr)
        return sampled

    def step(self, inputs: dict[str, Logic | int] | None = None) -> None:
        """Apply ``inputs``, settle, fire any clock edges, settle again."""
        tracker = self.sim_tracker
        if tracker is not None:
            tracker.phase = "cycle"
            tracker.begin_cycle()
        if inputs:
            for name, value in inputs.items():
                self.set_input(name, value)
        self.settle()
        new_edges = self._sample_edges()
        triggered: list[_SeqProcess] = []
        for proc in self._seq:
            for i, (edge, _) in enumerate(proc.edges):
                key = id(proc) * 64 + i
                old = self._edge_state.get(key)
                new = new_edges[key]
                if old is None:
                    continue
                if _edge_fired(edge, old, new):
                    triggered.append(proc)
                    break
        if tracker is not None and triggered:
            tracker.charge_events(len(triggered))
        nba: list[NbaUpdate] = []
        for proc in triggered:
            StmtExecutor(proc.ctx, nba=nba, display=self.display_log).exec_stmt(proc.block.body)
        for update in nba:
            update.apply()
        self.settle()
        self._edge_state = self._sample_edges()


def _edge_fired(edge: str, old: Logic, new: Logic) -> bool:
    old_bit = old.bit(0)
    new_bit = new.bit(0)
    old_known_1 = old_bit.xmask == 0 and old_bit.bits == 1
    old_known_0 = old_bit.xmask == 0 and old_bit.bits == 0
    new_known_1 = new_bit.xmask == 0 and new_bit.bits == 1
    new_known_0 = new_bit.xmask == 0 and new_bit.bits == 0
    if edge == "posedge":
        return new_known_1 and not old_known_1
    return new_known_0 and not old_known_0
