"""Procedural statement execution for the simulator.

A :class:`StmtExecutor` runs the body of an always/initial block or a
function.  Blocking assignments update state immediately; nonblocking
assignments are queued on ``nba`` and applied by the simulator after
every triggered process has run (standard NBA semantics).

Like :mod:`repro.sim.eval`, this is the 4-state reference semantics:
:mod:`repro.sim.compile` lowers statement bodies into speculative
closures and re-runs the original AST through :class:`StmtExecutor`
whenever a closure bails, so the two paths must stay in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import SimLimitExceeded, SimulationError
from ..verilog import ast
from ..verilog.elaborate import const_eval
from .eval import EvalContext, Evaluator, _decl_width
from .values import Logic

#: Fallback per-executor statement budget when the owning context has no
#: :class:`~repro.sim.limits.SimLimitTracker` (tracked simulators use
#: ``SimLimits.max_stmt_executions`` instead).
_LOOP_BUDGET = 200_000


@dataclass
class NbaUpdate:
    """A pending nonblocking update: apply(value) commits it."""

    apply: Callable[[], None]


_FORMAT_RE = None  # compiled lazily below


def _format_display(args: list[ast.Expr], evaluator) -> str:
    """Render $display arguments: a leading format string consumes the
    remaining arguments via %d/%b/%h/%o/%s/%c/%0d specifiers; without a
    format string, values print space-separated in decimal."""
    import re as _re

    global _FORMAT_RE
    if _FORMAT_RE is None:
        _FORMAT_RE = _re.compile(r"%0?[dbhoxsc]|%%")

    if args and isinstance(args[0], ast.StringLit):
        template = args[0].value
        values = [evaluator.eval(a) for a in args[1:]]
        cursor = {"i": 0}

        def repl(match: "_re.Match[str]") -> str:
            spec = match.group(0)
            if spec == "%%":
                return "%"
            if cursor["i"] >= len(values):
                return spec
            value = values[cursor["i"]]
            cursor["i"] += 1
            return _render_value(value, spec[-1])

        return _FORMAT_RE.sub(repl, template)
    values = [evaluator.eval(a) for a in args]
    return " ".join(_render_value(v, "d") for v in values)


def _render_value(value: Logic, spec: str) -> str:
    if value.xmask:
        return "x"
    if spec == "b":
        return f"{value.bits:b}"
    if spec in ("h", "x"):
        return f"{value.bits:x}"
    if spec == "o":
        return f"{value.bits:o}"
    if spec == "c":
        return chr(value.bits & 0x7F)
    if spec == "s":
        width_bytes = max(1, value.width // 8)
        raw = value.bits.to_bytes(width_bytes, "big")
        return raw.lstrip(b"\0").decode("ascii", "replace")
    return str(value.to_signed_int() if value.signed else value.bits)


class StmtExecutor:
    """Executes procedural statements against a NetState."""
    def __init__(
        self,
        ctx: EvalContext,
        frame: dict[str, Logic] | None = None,
        nba: list[NbaUpdate] | None = None,
        in_function: bool = False,
        display: list[str] | None = None,
    ):
        self.ctx = ctx
        self.frame = frame if frame is not None else {}
        self.evaluator = Evaluator(ctx, self.frame)
        #: When None (functions, comb contexts) nonblocking assigns are
        #: applied immediately; otherwise they are queued here.
        self.nba = nba
        self.in_function = in_function
        #: $display output sink (None = discard).
        self.display = display
        #: Budgets come from the owning simulator's tracker when present
        #: (and then include the periodic wall-clock watchdog poll).
        self.tracker = getattr(ctx, "tracker", None)
        self._budget_limit = (
            self.tracker.limits.max_stmt_executions
            if self.tracker is not None
            else _LOOP_BUDGET
        )
        self._budget = self._budget_limit

    def _error(self, message: str) -> SimulationError:
        """A :class:`SimulationError` stamped with the run's live phase."""
        return SimulationError(message, phase=getattr(self.tracker, "phase", ""))

    # -- statement dispatch ------------------------------------------------

    def exec_stmt(self, stmt: ast.Stmt) -> None:
        budget = self._budget - 1
        self._budget = budget
        if budget < 0:
            raise SimLimitExceeded(
                "stmt executions",
                self._budget_limit,
                message="procedural loop budget exceeded (runaway loop?)",
                phase=getattr(self.tracker, "phase", ""),
            )
        if budget & 4095 == 0 and self.tracker is not None:
            self.tracker.tick()
        if isinstance(stmt, ast.NullStmt):
            return
        if isinstance(stmt, ast.Block):
            for decl in stmt.decls:
                if decl.name not in self.frame:
                    self.frame[decl.name] = Logic.all_x(
                        _decl_width(decl, self.ctx.module.params),
                        signed=decl.signed or decl.net_kind in ("integer", "int"),
                    )
            for child in stmt.stmts:
                self.exec_stmt(child)
            return
        if isinstance(stmt, ast.ProcAssign):
            self._exec_assign(stmt)
            return
        if isinstance(stmt, ast.If):
            cond = self.evaluator.eval(stmt.cond)
            if cond.is_true():
                self.exec_stmt(stmt.then)
            elif stmt.other is not None:
                self.exec_stmt(stmt.other)
            return
        if isinstance(stmt, ast.Case):
            self._exec_case(stmt)
            return
        if isinstance(stmt, ast.For):
            self._exec_for(stmt)
            return
        if isinstance(stmt, ast.While):
            while self.evaluator.eval(stmt.cond).is_true():
                self.exec_stmt(stmt.body)
            return
        if isinstance(stmt, ast.Repeat):
            count = self.evaluator.eval(stmt.count)
            times = count.to_int() if count.is_fully_known else 0
            for _ in range(min(times, _LOOP_BUDGET)):
                self.exec_stmt(stmt.body)
            return
        if isinstance(stmt, ast.TaskCall):
            self._exec_task(stmt)
            return
        raise self._error(f"cannot execute statement {type(stmt).__name__}")

    def _exec_task(self, stmt: ast.TaskCall) -> None:
        if self.display is None:
            return
        if stmt.name in ("$display", "$write", "$strobe"):
            self.display.append(_format_display(stmt.args, self.evaluator))

    # -- case ----------------------------------------------------------

    def _exec_case(self, stmt: ast.Case) -> None:
        subject = self.evaluator.eval(stmt.subject)
        default: Optional[ast.Stmt] = None
        for item in stmt.items:
            if not item.labels:
                default = item.body
                continue
            for label in item.labels:
                value = self.evaluator.eval(label)
                if self._case_match(stmt.kind, subject, value):
                    self.exec_stmt(item.body)
                    return
        if default is not None:
            self.exec_stmt(default)

    @staticmethod
    def _case_match(kind: str, subject: Logic, label: Logic) -> bool:
        width = max(subject.width, label.width)
        s = subject.resize(width)
        l = label.resize(width)
        if kind == "case":
            return s.bits == l.bits and s.xmask == l.xmask
        mask = (1 << width) - 1
        # casez: z bits (xmask set, bits set) on either side are wildcards;
        # casex: any x or z bit on either side is a wildcard.
        dont_care = (s.xmask & s.bits) | (l.xmask & l.bits)
        if kind == "casex":
            dont_care |= s.xmask | l.xmask
        care = mask & ~dont_care
        return (s.bits & care) == (l.bits & care) and (
            (s.xmask & care) == (l.xmask & care)
        )

    def _exec_for(self, stmt: ast.For) -> None:
        if stmt.inline_decl is not None and stmt.inline_decl not in self.frame:
            self.frame[stmt.inline_decl] = Logic.from_int(0, 32, signed=True)
        if stmt.init is not None:
            self._exec_assign(stmt.init)
        while True:
            if stmt.cond is not None:
                if not self.evaluator.eval(stmt.cond).is_true():
                    return
            self.exec_stmt(stmt.body)
            if stmt.step is not None:
                self._exec_assign(stmt.step)
            else:
                return
            self._budget -= 1
            if self._budget < 0:
                raise self._error("for-loop budget exceeded")

    # -- assignment -----------------------------------------------------------

    def _exec_assign(self, stmt: ast.ProcAssign) -> None:
        value = self.evaluator.eval_rhs(stmt.rhs, self._lvalue_width(stmt.lvalue))
        if stmt.blocking or self.nba is None:
            self.assign(stmt.lvalue, value)
        else:
            # Capture the *current* RHS value; commit later.
            self.nba.append(NbaUpdate(apply=self._make_commit(stmt.lvalue, value)))

    def _make_commit(self, lvalue: ast.Expr, value: Logic) -> Callable[[], None]:
        def commit() -> None:
            self.assign(lvalue, value)

        return commit

    def assign(self, lvalue: ast.Expr, value: Logic) -> None:
        """Blocking-style write of ``value`` into ``lvalue``."""
        if isinstance(lvalue, ast.Concat):
            # Parts from MSB to LSB.
            offset = sum(self._lvalue_width(p) for p in lvalue.parts)
            for part in lvalue.parts:
                width = self._lvalue_width(part)
                offset -= width
                self.assign(part, value.slice(offset + width - 1, offset))
            return
        if isinstance(lvalue, ast.Identifier):
            self._write_ident(lvalue.name, value)
            return
        if isinstance(lvalue, ast.Select):
            self._write_select(lvalue, value)
            return
        if isinstance(lvalue, ast.RangeSelect):
            self._write_range(lvalue, value)
            return
        if isinstance(lvalue, ast.IndexedSelect):
            self._write_indexed(lvalue, value)
            return
        raise self._error(f"unsupported l-value {type(lvalue).__name__}")

    def _lvalue_width(self, expr: ast.Expr) -> int:
        params = self.ctx.module.params
        if isinstance(expr, ast.Identifier):
            if expr.name in self.frame:
                return self.frame[expr.name].width
            symbol = self.ctx.symbol(expr.name)
            return symbol.width if symbol is not None else 1
        if isinstance(expr, ast.Select):
            return 1
        if isinstance(expr, ast.RangeSelect):
            msb = const_eval(expr.msb, params)
            lsb = const_eval(expr.lsb, params)
            if msb is None or lsb is None:
                return 1
            return abs(msb - lsb) + 1
        if isinstance(expr, ast.IndexedSelect):
            width = const_eval(expr.width, params)
            return width if width else 1
        if isinstance(expr, ast.Concat):
            return sum(self._lvalue_width(p) for p in expr.parts)
        return 1

    def _write_ident(self, name: str, value: Logic) -> None:
        if name in self.frame:
            current = self.frame[name]
            self.frame[name] = value.resize(current.width, current.signed)
            return
        symbol = self.ctx.symbol(name)
        width = symbol.width if symbol is not None else value.width
        signed = symbol.signed if symbol is not None else False
        self.ctx.state.values[self.ctx.flat(name)] = value.resize(width, signed)

    def _current(self, name: str) -> Logic:
        return self.evaluator.read_ident(name)

    def _write_select(self, lvalue: ast.Select, value: Logic) -> None:
        if not isinstance(lvalue.base, ast.Identifier):
            raise self._error("unsupported nested l-value select")
        name = lvalue.base.name
        symbol = self.ctx.symbol(name)
        index = self.evaluator.eval(lvalue.index)
        if not index.is_fully_known:
            return  # X index: write is lost
        idx = index.to_int()
        if symbol is not None and symbol.array is not None:
            flat = self.ctx.flat(name)
            words = self.ctx.state.arrays.get(flat)
            if words is None:
                return
            lo, hi = symbol.array
            if lo <= idx <= hi:
                words[idx - lo] = value.resize(max(symbol.width, 1))
            return
        current = self._current(name)
        offset = self.evaluator._bit_offset(symbol, idx)
        self._write_ident(name, current.set_bit(offset, value.resize(1)))

    def _write_range(self, lvalue: ast.RangeSelect, value: Logic) -> None:
        if not isinstance(lvalue.base, ast.Identifier):
            raise self._error("unsupported nested l-value select")
        name = lvalue.base.name
        symbol = self.ctx.symbol(name)
        msb = const_eval(lvalue.msb, self.ctx.module.params)
        lsb = const_eval(lvalue.lsb, self.ctx.module.params)
        if msb is None or lsb is None:
            return
        hi = self.evaluator._bit_offset(symbol, msb)
        lo = self.evaluator._bit_offset(symbol, lsb)
        if hi < lo:
            hi, lo = lo, hi
        current = self._current(name)
        self._write_ident(name, current.set_slice(hi, lo, value))

    def _write_indexed(self, lvalue: ast.IndexedSelect, value: Logic) -> None:
        if not isinstance(lvalue.base, ast.Identifier):
            raise self._error("unsupported nested l-value select")
        name = lvalue.base.name
        symbol = self.ctx.symbol(name)
        start = self.evaluator.eval(lvalue.start)
        width_val = self.evaluator.eval(lvalue.width)
        if not (start.is_fully_known and width_val.is_fully_known):
            return
        width = max(width_val.to_int(), 1)
        offset = self.evaluator._bit_offset(symbol, start.to_int())
        hi, lo = (offset + width - 1, offset) if lvalue.ascending else (offset, offset - width + 1)
        current = self._current(name)
        self._write_ident(name, current.set_slice(hi, lo, value))
