"""The compiled simulation engine.

:class:`CompiledSimulator` is a drop-in :class:`~repro.sim.simulator.Simulator`
that swaps the per-delta-cycle AST walk for the lowered closures built by
:mod:`repro.sim.compile`.  Four ideas carry the speedup:

* **a slot store of plain ints** -- every flat net has a slot (numbered
  by :func:`repro.sim.compile.lower_design`).  ``known[slot]`` holds the
  net's bits when it is fully known at its static width and signedness,
  else ``None``, and the 4-state :class:`~repro.sim.values.Logic` then
  sits in a side list.  Lowered closures read and write only ``known``;
  a value is boxed to ``Logic`` only where it leaves the engine, through
  the name-keyed view ``state.values`` that the interpreter fallback,
  initial blocks, interpreter NBAs and :meth:`Simulator.get` use.
* **two-state speculation** -- every process first runs its lowered
  closure, which *bails* (returns ``None``) the moment it touches an X/Z
  net or any other 4-state corner.  A bailed process has its
  speculative writes rolled back to the write-log mark taken before it
  ran and is re-run on the interpreter, so results are bit-identical by
  construction.  Demotion is per-invocation, not sticky: the same
  process speculates again next delta cycle, so a design that starts
  all-X at reset recovers the fast path as soon as its nets take known
  values.
* **one write log** -- every write in a settle pass, lowered or
  interpreted, appends ``(slot, old)``.  The same log rolls back a
  bailed closure and answers the fixpoint check: a pass changed
  something iff some slot differs from its first-logged old value, which
  is O(writes) instead of the interpreter's O(nets) snapshot compare.
* **a quiescent second settle** -- when no process fired in a step and
  the last pass of its first settle ran every combinational op on the
  fast path, the second settle would rerun the same closures on
  unchanged state.  It is skipped and charged its one pass of events,
  exactly as the interpreter would charge it.  A design whose
  combinational logic writes a memory word never skips: the fixpoint
  check compares nets only, so that pass may have changed a word.

The closure tables themselves are memoized per design digest on the
elaborated design (:func:`repro.sim.compile.lowered_for`), so repeated
simulations of the same design (testbench reruns, fuzz iterations,
repair loops) skip the lowering pass entirely.

:func:`make_simulator` is the engine-selecting constructor every harness
(testbench, feedback) routes through.  It builds the compiled engine
unless the caller names ``interp``, the reference that
``scripts/sim_diff.py`` holds the compiled engine bit-identical to.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Optional

from ..errors import SimLimitExceeded
from ..verilog.elaborate import ElabDesign
from .compile import LoweredDesign, lowered_for
from .eval import Evaluator
from .exec import StmtExecutor
from .limits import SimLimits, SimLimitTracker
from .simulator import Simulator
from .values import Logic

#: Engines selectable through :func:`make_simulator`.
SIM_ENGINES = ("compiled", "interp")

_MISSING = object()


class _SlotStore(Mapping):
    """A compiled simulator's net values, and their name-keyed view.

    ``known`` and ``boxed`` are indexed by slot: ``known[slot]`` is the
    net's bits when it is fully known with the slot's static type
    (``types[slot]``), else ``None`` and ``boxed[slot]`` holds the
    ``Logic``.  Each value has exactly one form, so comparing forms
    compares values.  Mapping reads box on demand and keep the box in
    ``shown[slot]``, reused while ``known[slot]`` still holds its bits
    (lowered writes and :meth:`rollback` touch only ``known``, so every
    read checks); mapping writes log ``(slot, old)`` like lowered writes
    do.  ``stash`` keeps a slot's pass-start ``boxed`` value the first
    time a pass replaces it (a logged old of ``None`` means "whatever
    ``boxed`` held").  A name with
    no net (an interpreter write to an undeclared name) gets a boxed-only
    slot of its own.
    """

    __slots__ = (
        "slots", "types", "known", "boxed", "shown", "log", "stash", "_own",
    )

    def __init__(self, lowered: LoweredDesign, nets: dict):
        self.slots = lowered.slots
        self.types = lowered.types
        self.known: list = [None] * len(self.types)
        self.boxed: list = [None] * len(self.types)
        self.shown: list = [None] * len(self.types)
        self.log: list = []
        self.stash: dict = {}
        self._own = False
        for name, value in nets.items():
            self[name] = value
        self.log.clear()
        self.stash.clear()

    def __getitem__(self, name: str) -> Logic:
        return self._box(self.slots[name])

    def get(self, name: str, default=None):
        slot = self.slots.get(name)
        return default if slot is None else self._box(slot)

    def _box(self, slot: int) -> Logic:
        bits = self.known[slot]
        if bits is None:
            return self.boxed[slot]
        value = self.shown[slot]
        if value is None or value.bits != bits:
            width, signed = self.types[slot]
            value = self.shown[slot] = Logic(width, bits, 0, signed)
        return value

    def __iter__(self):
        return iter(self.slots)

    def __len__(self) -> int:
        return len(self.slots)

    def __setitem__(self, name: str, value: Logic) -> None:
        slot = self.slots.get(name)
        if slot is None:
            slot = self._add(name)
        known = self.known
        self.log.append((slot, known[slot]))
        if not value.xmask and (value.width, value.signed) == self.types[slot]:
            known[slot] = value.bits
            self.shown[slot] = value
            return
        if slot not in self.stash:
            self.stash[slot] = self.boxed[slot]
        self.boxed[slot] = value
        known[slot] = None

    def _add(self, name: str) -> int:
        if not self._own:  # the slot map is shared with the lowering
            self.slots = dict(self.slots)
            self.types = list(self.types)
            self._own = True
        slot = len(self.known)
        self.slots[name] = slot
        self.types.append(None)  # matches no value: always boxed
        self.known.append(None)
        self.boxed.append(_MISSING)
        self.shown.append(None)
        return slot

    def changed(self) -> bool:
        """Whether any slot differs from its first-logged old value, so a
        net that goes A -> B -> A within a pass is no change."""
        log = self.log
        if not log:
            return False
        known = self.known
        seen = set()
        for slot, old in log:
            if slot is None or slot in seen:
                continue  # a memory word, or not the first entry
            cur = known[slot]
            if cur != old:
                return True
            if cur is None and slot in self.stash:
                if self.stash[slot] != self.boxed[slot]:
                    return True
            seen.add(slot)
        return False

    def rollback(self, mark: int) -> None:
        """Undo every logged write after ``mark``, newest first."""
        log = self.log
        known = self.known
        for slot, old in reversed(log[mark:]):
            if slot is None:
                words, index, word = old
                words[index] = word
            else:
                known[slot] = old
        del log[mark:]


class CompiledSimulator(Simulator):
    """A :class:`Simulator` running lowered processes with interpreter
    fallback; externally indistinguishable from the base class."""

    def _post_build(self) -> None:
        #: fast-path invocations vs. bail-and-reinterpret fallbacks,
        #: for tests and telemetry.
        self.fast_runs = 0
        self.demotions = 0
        lowered = self._lowered = lowered_for(self)
        store = self._store = _SlotStore(lowered, self.state.values)
        self.state.values = store
        self._known = store.known
        self._log = store.log
        #: Only lowered closures ran since the last settle's fixpoint
        #: pass (see :meth:`step`).
        self._quiet = False
        #: A comb memory-word write changes state the fixpoint check
        #: does not compare, so such a design never skips a settle.
        self._can_skip = not lowered.comb_writes_words
        # One reusable executor per process for NBA fallback commits
        # (complex l-values re-resolve indices at commit time through
        # the interpreter's own assign path).
        self._seq_ex = [StmtExecutor(proc.ctx) for proc in self._seq]
        # Port table: (slot, mask, width, signed); the slot is None when
        # the port's type is not its net's, so its values stay boxed.
        self._input_ports = {}
        for p in self.inputs:
            slot = lowered.slots.get(p.name)
            if slot is not None and lowered.types[slot] != (p.width, p.signed):
                slot = None
            mask = (1 << p.width) - 1 if slot is not None else 0
            self._input_ports[p.name] = (slot, mask, p.width, p.signed)
        # Fused comb schedule: one (fast_fn|None, is_stmt, fallback) row
        # per process, in the interpreter's execution order, so the
        # settle loop runs without per-pass enumerate/index bookkeeping.
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
        # Edge rows in the interpreter's (process, edge) order:
        # (process index, level the edge moves to, fast fn, ctx, expr).
        self._edge_rows = [
            (pi, 1 if edge == "posedge" else 0, lowered.edges[pi][i],
             proc.ctx, expr)
            for pi, proc in enumerate(self._seq)
            for i, (edge, expr) in enumerate(proc.edges)
        ]

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
        """Port-table :meth:`Simulator.set_input`: int stimulus goes
        straight into the port's slot."""
        port = self._input_ports.get(name)
        if port is None:
            raise self._error(f"no such input port: {name!r}")
        slot, mask, width, signed = port
        if not isinstance(value, int):
            self._store[name] = value.resize(width, signed)
        elif slot is None:
            self._store[name] = Logic.from_int(value, width, signed)
        else:
            self._known[slot] = value & mask

    # -- speculation ------------------------------------------------------

    def _rollback(self, mark: int) -> None:
        self._store.rollback(mark)
        self.demotions += 1

    def _comb_pass(self) -> bool:
        """One settle pass; True when every comb op ran on the fast
        path and none can write a memory word (such a pass changes
        nothing the fixpoint check does not see)."""
        log = self._log
        log.clear()
        stash = self._store.stash
        if stash:
            stash.clear()
        known = self._known
        arrays = self.state.arrays
        fast = 0
        for fn, is_stmt, fallback in self._comb_ops:
            if fn is not None:
                mark = len(log)
                ok = (
                    fn(known, arrays, log, None, None)
                    if is_stmt
                    else fn(known, arrays, log)
                )
                if ok is not None:
                    fast += 1
                    continue
                self._rollback(mark)
            fallback()
        self.fast_runs += fast
        return fast == len(self._comb_ops) and self._can_skip

    def settle(self) -> None:
        """Change-tracked fixpoint; same bound and failure mode as the
        interpreter's snapshot-compare settle."""
        budget = self.settle_passes
        tracker = self.sim_tracker
        store = self._store
        passes = 0
        for _ in range(budget):
            quiet = self._comb_pass()
            passes += 1
            if not store.changed():
                self._quiet = quiet
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

    def _sample_edges(self) -> list:
        """Bit 0 of every edge expression in row order (``None`` when
        unknown).  An interpreted sample clears ``_quiet``: only lowered
        closures are known to have no side effects."""
        known = self._known
        arrays = self.state.arrays
        sampled = []
        for _, _, fn, ctx, expr in self._edge_rows:
            if fn is not None:
                raw = fn(known, arrays)
                if raw is not None:
                    sampled.append(raw & 1)
                    continue
            self._quiet = False
            bit = Evaluator(ctx).eval(expr).bit(0)
            sampled.append(None if bit.xmask else bit.bits)
        return sampled

    def step(self, inputs=None) -> None:
        tracker = self.sim_tracker
        if tracker is not None:
            tracker.phase = "cycle"
            # SimLimitTracker.begin_cycle, inlined (no call per cycle).
            tracker.stride_left -= 1
            if tracker.stride_left <= 0:
                tracker.end_stride()
            tracker.events_left = tracker.events_per_cycle
        known = self._known
        if inputs:
            ports = self._input_ports
            for name, value in inputs.items():
                port = ports.get(name)
                if port is not None and port[0] is not None and isinstance(value, int):
                    known[port[0]] = value & port[1]
                else:
                    self.set_input(name, value)
        self.settle()
        new_edges = self._sample_edges()
        old_edges = self._edge_state
        triggered: list[int] = []
        last = -1
        for k, (pi, level, _, _, _) in enumerate(self._edge_rows):
            # An edge fires when it reaches its level from anything
            # else; a process runs once, on its first fired edge.
            if pi != last and new_edges[k] == level and old_edges[k] != level:
                triggered.append(pi)
                last = pi
        if not triggered and self._quiet:
            # Nothing fired, and only lowered closures ran since the
            # fixpoint pass: the second settle would rerun that pass on
            # unchanged state.  Charge its one pass; the edge sample
            # cannot change either.
            if tracker is not None:
                tracker.events_left -= self._n_comb_ops
                if tracker.events_left < 0:
                    tracker.charge_events(0)  # raises "sim events"
            self._edge_state = new_edges
            return
        if tracker is not None and triggered:
            tracker.events_left -= len(triggered)
            if tracker.events_left < 0:
                tracker.charge_events(0)  # raises "sim events"
        nba: list = []
        arrays = self.state.arrays
        log = self._log
        lowered = self._lowered
        for pi in triggered:
            fn = lowered.seq[pi]
            if fn is not None:
                mark = len(nba)
                log_mark = len(log)
                if fn(known, arrays, log, nba, self._seq_ex[pi]) is not None:
                    self.fast_runs += 1
                    continue
                del nba[mark:]
                self._rollback(log_mark)
            proc = self._seq[pi]
            StmtExecutor(proc.ctx, nba=nba, display=self.display_log).exec_stmt(
                proc.block.body
            )
        for update in nba:
            # Fast-path NBAs are bare (slot, bits) tuples; interpreter
            # fallbacks queue NbaUpdate objects.  One ordered list keeps
            # standard NBA commit ordering across both.
            if type(update) is tuple:
                known[update[0]] = update[1]
            else:
                update.apply()
        self.settle()
        self._edge_state = self._sample_edges()


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------


def make_simulator(
    design: ElabDesign,
    top: Optional[str] = None,
    engine: str = "compiled",
    sim_limits: Optional[SimLimits] = None,
    sim_tracker: Optional[SimLimitTracker] = None,
) -> Simulator:
    """Construct a simulator using ``engine`` (one of
    :data:`SIM_ENGINES`).  ``sim_limits``/``sim_tracker`` configure the
    sandbox budgets (see :mod:`repro.sim.limits`); a shared tracker
    pools budgets across several simulators."""
    if engine not in SIM_ENGINES:
        raise ValueError(
            f"unknown sim engine {engine!r}; expected one of {SIM_ENGINES}"
        )
    cls = CompiledSimulator if engine == "compiled" else Simulator
    return cls(design, top=top, sim_limits=sim_limits, sim_tracker=sim_tracker)
