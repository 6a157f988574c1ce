"""Expression evaluation and l-value assignment for the simulator.

An :class:`EvalContext` binds one module *instance* (elaborated module +
hierarchical name prefix) to the shared :class:`NetState`.  Procedural
execution adds a ``frame`` of local variables (function arguments,
block-local integers, SystemVerilog ``for (int i ...)`` variables).

This is the full 4-state (0/1/X/Z) evaluator and the semantic reference
for the compiled engine: :mod:`repro.sim.compile` lowers the common
expression shapes into two-state closures that must agree bit-for-bit
with :class:`Evaluator`, and anything they cannot prove known-valued
bails back here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import SimulationError
from ..verilog import ast
from ..verilog.elaborate import ElabModule, const_eval
from ..verilog.symbols import Symbol
from . import ops
from .values import Logic

_DEFAULT_WIDTH = 32


@dataclass
class NetState:
    """Flat value storage for a whole design hierarchy."""

    values: dict[str, Logic] = field(default_factory=dict)
    arrays: dict[str, list[Logic]] = field(default_factory=dict)

    def snapshot(self) -> dict[str, Logic]:
        return dict(self.values)


@dataclass
class EvalContext:
    state: NetState
    module: ElabModule
    prefix: str = ""
    #: natural_width memo keyed by AST node id (module-level exprs only;
    #: the AST is held alive by the design, so ids are stable).
    width_cache: dict[int, int] = field(default_factory=dict)
    #: The owning simulator's :class:`~repro.sim.limits.SimLimitTracker`
    #: (None when untracked).  Carried on the context so every
    #: :class:`~repro.sim.exec.StmtExecutor` -- including the ones
    #: spawned for function calls and compiled-engine fallbacks --
    #: inherits the same budgets without per-callsite threading.
    tracker: object = None

    def flat(self, name: str) -> str:
        return self.prefix + name

    def symbol(self, name: str) -> Optional[Symbol]:
        return self.module.symbol(name)


#: Operators whose operand width is determined by the assignment context
#: (LRM "context-determined" operands).
_CONTEXT_BINOPS = frozenset(["+", "-", "*", "/", "%", "&", "|", "^", "^~", "~^"])
_CONTEXT_UNOPS = frozenset(["+", "-", "~"])


class Evaluator:
    """Evaluates expressions for one instance context.

    Width handling follows Verilog's context-determined rules: the width
    of an assignment's RHS is max(lvalue width, natural expression
    width), pushed down through arithmetic/bitwise/ternary operators so
    that e.g. an 8-bit + 8-bit addition assigned to a 9-bit target keeps
    its carry.
    """

    def __init__(self, ctx: EvalContext, frame: dict[str, Logic] | None = None):
        self.ctx = ctx
        self.frame = frame if frame is not None else {}

    def _error(self, message: str) -> SimulationError:
        """A :class:`SimulationError` stamped with the run's live phase."""
        return SimulationError(
            message, phase=getattr(self.ctx.tracker, "phase", "")
        )

    # -- width analysis ----------------------------------------------------

    def natural_width(self, expr: ast.Expr) -> int:
        """Self/context-determined natural width of an expression.

        Memoized per AST node while no local frame is active (frame
        variables can change an identifier's width)."""
        if not self.frame:
            cached = self.ctx.width_cache.get(id(expr))
            if cached is not None:
                return cached
        width = self._natural_width(expr)
        if not self.frame:
            self.ctx.width_cache[id(expr)] = width
        return width

    def _natural_width(self, expr: ast.Expr) -> int:
        if isinstance(expr, ast.Number):
            return max(expr.width if expr.width is not None else _DEFAULT_WIDTH, 1)
        if isinstance(expr, ast.StringLit):
            return max(8 * len(expr.value.encode()), 8)
        if isinstance(expr, ast.Identifier):
            if expr.name in self.frame:
                return self.frame[expr.name].width
            symbol = self.ctx.symbol(expr.name)
            return max(symbol.width, 1) if symbol is not None else 1
        if isinstance(expr, ast.Select):
            symbol = self._base_symbol(expr.base)
            if symbol is not None and symbol.array is not None:
                return max(symbol.width, 1)
            return 1
        if isinstance(expr, ast.RangeSelect):
            msb = const_eval(expr.msb, self.ctx.module.params)
            lsb = const_eval(expr.lsb, self.ctx.module.params)
            if msb is None or lsb is None:
                return 1
            return abs(msb - lsb) + 1
        if isinstance(expr, ast.IndexedSelect):
            width = const_eval(expr.width, self.ctx.module.params)
            return max(width, 1) if width else 1
        if isinstance(expr, ast.Concat):
            return max(sum(self.natural_width(p) for p in expr.parts), 1)
        if isinstance(expr, ast.Replicate):
            count = const_eval(expr.count, self.ctx.module.params) or 1
            inner = sum(self.natural_width(p) for p in expr.value.parts)
            return max(count * inner, 1)
        if isinstance(expr, ast.Unary):
            if expr.op in _CONTEXT_UNOPS:
                return self.natural_width(expr.operand)
            return 1  # reductions and !
        if isinstance(expr, ast.Binary):
            if expr.op in _CONTEXT_BINOPS:
                return max(self.natural_width(expr.lhs), self.natural_width(expr.rhs))
            if expr.op in ("<<", ">>", "<<<", ">>>", "**"):
                return self.natural_width(expr.lhs)
            return 1  # comparisons, logical
        if isinstance(expr, ast.Ternary):
            return max(self.natural_width(expr.then), self.natural_width(expr.other))
        if isinstance(expr, ast.SystemCall):
            if expr.name in ("$signed", "$unsigned") and expr.args:
                return self.natural_width(expr.args[0])
            return _DEFAULT_WIDTH
        if isinstance(expr, ast.FuncCall):
            decl = self.ctx.module.functions.get(expr.name)
            if decl is not None:
                return _range_width(decl.range, self.ctx.module.params)
            return 1
        return 1

    # -- reads ----------------------------------------------------------

    def eval(self, expr: ast.Expr, width: int | None = None) -> Logic:
        """Evaluate ``expr``; ``width`` is the context width pushed down
        from an enclosing assignment or operator (None = self-determined).
        """
        value = self._eval(expr, width)
        if width is not None and value.width < width:
            value = value.resize(width)
        return value

    def eval_rhs(self, expr: ast.Expr, target_width: int) -> Logic:
        """Evaluate the RHS of an assignment to a ``target_width`` lvalue."""
        context = max(target_width, self.natural_width(expr))
        return self.eval(expr, context)

    def _eval(self, expr: ast.Expr, width: int | None) -> Logic:
        if isinstance(expr, ast.Number):
            nat = expr.width if expr.width is not None else _DEFAULT_WIDTH
            return Logic(max(nat, 1), expr.bits, expr.xmask, expr.signed)
        if isinstance(expr, ast.StringLit):
            data = expr.value.encode() or b"\0"
            return Logic(8 * len(data), int.from_bytes(data, "big"))
        if isinstance(expr, ast.Identifier):
            return self.read_ident(expr.name)
        if isinstance(expr, ast.Select):
            return self._eval_select(expr)
        if isinstance(expr, ast.RangeSelect):
            return self._eval_range_select(expr)
        if isinstance(expr, ast.IndexedSelect):
            return self._eval_indexed_select(expr)
        if isinstance(expr, ast.Concat):
            return ops.concat([self.eval(p) for p in expr.parts])
        if isinstance(expr, ast.Replicate):
            count = self.eval(expr.count)
            value = ops.concat([self.eval(p) for p in expr.value.parts])
            return ops.replicate(count.to_int() if count.is_fully_known else 0, value)
        if isinstance(expr, ast.Unary):
            if expr.op in _CONTEXT_UNOPS:
                return ops.unary(expr.op, self.eval(expr.operand, width))
            return ops.unary(expr.op, self.eval(expr.operand))
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, width)
        if isinstance(expr, ast.Ternary):
            return ops.ternary(
                self.eval(expr.cond),
                self.eval(expr.then, width),
                self.eval(expr.other, width),
            )
        if isinstance(expr, ast.SystemCall):
            return self._eval_system_call(expr)
        if isinstance(expr, ast.FuncCall):
            return self._eval_func_call(expr)
        raise self._error(f"cannot evaluate expression node {type(expr).__name__}")

    def _eval_binary(self, expr: ast.Binary, width: int | None) -> Logic:
        if expr.op in _CONTEXT_BINOPS:
            context = max(
                width or 1,
                self.natural_width(expr.lhs),
                self.natural_width(expr.rhs),
            )
            return ops.binary(
                expr.op, self.eval(expr.lhs, context), self.eval(expr.rhs, context)
            )
        if expr.op in ("<", "<=", ">", ">=", "==", "!="):
            # Comparison operands size to each other, not to the context.
            inner = max(self.natural_width(expr.lhs), self.natural_width(expr.rhs))
            return ops.binary(
                expr.op, self.eval(expr.lhs, inner), self.eval(expr.rhs, inner)
            )
        if expr.op in ("<<", ">>", "<<<", ">>>", "**"):
            return ops.binary(expr.op, self.eval(expr.lhs, width), self.eval(expr.rhs))
        return ops.binary(expr.op, self.eval(expr.lhs), self.eval(expr.rhs))

    def read_ident(self, name: str) -> Logic:
        if name in self.frame:
            return self.frame[name]
        symbol = self.ctx.symbol(name)
        if symbol is not None and symbol.kind == "parameter":
            value = symbol.value if symbol.value is not None else 0
            return Logic.from_int(value, _DEFAULT_WIDTH, signed=True)
        flat = self.ctx.flat(name)
        value = self.ctx.state.values.get(flat)
        if value is not None:
            return value
        width = symbol.width if symbol is not None else 1
        return Logic.all_x(max(width, 1), symbol.signed if symbol else False)

    def _base_symbol(self, expr: ast.Expr) -> Optional[Symbol]:
        if isinstance(expr, ast.Identifier):
            return self.ctx.symbol(expr.name)
        return None

    def _bit_offset(self, symbol: Optional[Symbol], index: int) -> int:
        """Map a declared index to a bit offset (handles [0:7] vectors)."""
        if symbol is None or symbol.msb is None or symbol.lsb is None:
            return index
        if symbol.msb >= symbol.lsb:
            return index - symbol.lsb
        return symbol.lsb - index

    def _eval_select(self, expr: ast.Select) -> Logic:
        index = self.eval(expr.index)
        if isinstance(expr.base, ast.Identifier):
            name = expr.base.name
            symbol = self.ctx.symbol(name)
            flat = self.ctx.flat(name)
            if symbol is not None and symbol.array is not None:
                words = self.ctx.state.arrays.get(flat)
                if not index.is_fully_known or words is None:
                    return Logic.all_x(max(symbol.width, 1))
                word = index.to_int()
                lo, hi = symbol.array
                if not lo <= word <= hi:
                    return Logic.all_x(max(symbol.width, 1))
                return words[word - lo]
            base = self.read_ident(name)
            if not index.is_fully_known:
                return Logic.all_x(1)
            return base.bit(self._bit_offset(symbol, index.to_int()))
        base = self.eval(expr.base)
        if not index.is_fully_known:
            return Logic.all_x(1)
        return base.bit(index.to_int())

    def _eval_range_select(self, expr: ast.RangeSelect) -> Logic:
        base = self.eval(expr.base)
        symbol = self._base_symbol(expr.base)
        msb = const_eval(expr.msb, self.ctx.module.params)
        lsb = const_eval(expr.lsb, self.ctx.module.params)
        if msb is None or lsb is None:
            m = self.eval(expr.msb)
            l = self.eval(expr.lsb)
            if not (m.is_fully_known and l.is_fully_known):
                return Logic.all_x(1)
            msb, lsb = m.to_int(), l.to_int()
        hi = self._bit_offset(symbol, msb)
        lo = self._bit_offset(symbol, lsb)
        if hi < lo:
            hi, lo = lo, hi
        return base.slice(hi, lo)

    def _eval_indexed_select(self, expr: ast.IndexedSelect) -> Logic:
        base = self.eval(expr.base)
        symbol = self._base_symbol(expr.base)
        start = self.eval(expr.start)
        width_val = self.eval(expr.width)
        if not (start.is_fully_known and width_val.is_fully_known):
            return Logic.all_x(1)
        width = max(width_val.to_int(), 1)
        offset = self._bit_offset(symbol, start.to_int())
        if expr.ascending:
            return base.slice(offset + width - 1, offset)
        return base.slice(offset, offset - width + 1)

    def _eval_system_call(self, expr: ast.SystemCall) -> Logic:
        name = expr.name
        if name == "$signed" and expr.args:
            return self.eval(expr.args[0]).as_signed()
        if name == "$unsigned" and expr.args:
            return self.eval(expr.args[0]).as_unsigned()
        if name == "$clog2" and expr.args:
            value = self.eval(expr.args[0])
            if not value.is_fully_known:
                return Logic.all_x(_DEFAULT_WIDTH)
            v = value.to_int()
            return Logic.from_int(max(0, (v - 1).bit_length()) if v > 0 else 0, _DEFAULT_WIDTH)
        if name in ("$time", "$stime", "$realtime"):
            return Logic.from_int(0, 64)
        if name == "$random":
            # Deterministic pseudo-random: hash of call-site position.
            return Logic.from_int(hash(expr.span.start) & 0xFFFFFFFF, 32)
        raise self._error(f"unsupported system function {name}")

    def _eval_func_call(self, expr: ast.FuncCall) -> Logic:
        decl = self.ctx.module.functions.get(expr.name)
        if decl is None:
            raise self._error(f"call to unknown function {expr.name!r}")
        # Imported here to avoid a circular import at module load.
        from .exec import StmtExecutor

        frame: dict[str, Logic] = {}
        params = self.ctx.module.params
        for port, arg in zip(decl.inputs, expr.args):
            width = _decl_width(port, params)
            frame[port.name] = self.eval(arg).resize(width, port.signed)
        for local in decl.decls:
            frame[local.name] = Logic.all_x(
                _decl_width(local, params),
                signed=local.signed or local.net_kind in ("integer", "int"),
            )
        ret_width = _range_width(decl.range, params)
        frame[decl.name] = Logic.all_x(ret_width)
        executor = StmtExecutor(self.ctx, frame=frame, in_function=True)
        executor.exec_stmt(decl.body)
        return frame[decl.name].resize(ret_width, decl.signed)


def _range_width(rng: Optional[ast.Range], params: dict[str, int]) -> int:
    if rng is None:
        return 1
    msb = const_eval(rng.msb, params)
    lsb = const_eval(rng.lsb, params)
    if msb is None or lsb is None:
        return 1
    return abs(msb - lsb) + 1


def _decl_width(decl: ast.NetDecl, params: dict[str, int]) -> int:
    if decl.range is not None:
        return _range_width(decl.range, params)
    if decl.net_kind in ("integer", "int", "genvar"):
        return _DEFAULT_WIDTH
    return 1
