"""Closure lowering: compile elaborated processes to two-state closures.

The interpretive simulator walks the AST for every process on every
delta cycle, paying per-node ``isinstance`` dispatch, per-lookup dict
resolution of hierarchical names, and a :class:`~repro.sim.values.Logic`
allocation per intermediate value.  This module lowers each process --
continuous assign, instance port connection, combinational or
edge-sensitive always block -- **once per design** into a specialized
Python closure operating on a *two-state* integer plane:

* every net read resolves through a pre-computed flat name and yields
  the raw ``bits`` integer of the stored :class:`Logic` (bailing out the
  moment an X/Z bit is observed);
* every operator is specialized at lowering time against the statically
  known operand widths and signedness, replicating the width-context
  rules of :class:`~repro.sim.eval.Evaluator` and the operator semantics
  of :mod:`repro.sim.ops` exactly for fully-known values;
* every write constructs at most one ``Logic`` (skipped entirely when
  the stored value is unchanged).

The contract with the engine (:mod:`repro.sim.engine`) is *bail-safe
speculation*: a lowered closure either completes with results
bit-identical to the interpreter, or returns ``None`` ("bail") after
recording every write it performed in an undo log.  The engine then
rolls the speculative writes back and re-runs the process on the
existing 4-state interpreter -- the fast path never needs to model X/Z
propagation, division by zero, out-of-range indexing or any other
4-state corner, it just refuses to run them.  Constructs with no fast
lowering at all (frames/local declarations, function calls, ``$display``,
X/Z literals outside case labels, ...) are detected at lowering time and
leave the process permanently interpreted.

Lowered designs are content-addressed: :func:`lowered_for` caches the
per-design closure tables in the active
:class:`~repro.verilog.pipeline.StageCache` under the ``sim-lower``
stage, keyed by the design digest stamped at elaboration -- a sixth
pipeline stage hanging off ``elaborate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..scope import current
from ..verilog import ast
from ..verilog.elaborate import ElabModule, const_eval
from ..verilog.pipeline import DEFAULT_STAGE_CACHE, Artifact, _digest
from ..verilog.symbols import Symbol
from .exec import NbaUpdate, StmtExecutor
from .values import Logic

#: Stage name under which lowered designs are cached in the StageCache.
SIM_LOWER_STAGE = "sim-lower"

_DEFAULT_WIDTH = 32

#: Per-loop iteration bound for lowered For/While/Repeat bodies.  A loop
#: that runs longer bails to the interpreter, which applies (and, past
#: its own budget, diagnoses) the authoritative loop limits.
_FAST_LOOP_CAP = 4096


class Unlowerable(Exception):
    """Raised during lowering when a construct has no fast translation."""


# ---------------------------------------------------------------------------
# Small integer helpers (known-value mirrors of Logic.resize / to_signed_int)
# ---------------------------------------------------------------------------


def _mask(width: int) -> int:
    return (1 << width) - 1


def _ext(bits: int, from_w: int, to_w: int, signed: bool) -> int:
    """Known-value ``Logic.resize``: truncate-mask or (sign-)extend."""
    if to_w <= from_w:
        return bits & _mask(to_w)
    if signed and (bits >> (from_w - 1)) & 1:
        return bits | (_mask(to_w) ^ _mask(from_w))
    return bits


def _sv(bits: int, width: int) -> int:
    """Two's-complement reading of a known bit pattern."""
    if (bits >> (width - 1)) & 1:
        return bits - (1 << width)
    return bits


def _widened_fn(fn, from_w: int, to_w: int, signed: bool):
    """Compose :func:`_ext` onto ``fn`` at lowering time.

    Every lowered value keeps its bits masked to its own width, so
    widening an unsigned value is the identity -- only genuine
    sign-extension needs a wrapper.  Called with ``to_w >= from_w``."""
    if to_w <= from_w or not signed:
        return fn
    sign = 1 << (from_w - 1)
    extm = _mask(to_w) ^ _mask(from_w)

    def widened(values, arrays):
        b = fn(values, arrays)
        if b is None or not (b & sign):
            return b
        return b | extm

    return widened


def _set_slice_bits(
    cur_bits: int, cur_x: int, cur_w: int, hi: int, lo: int, vbits: int, vw: int
) -> tuple[int, int]:
    """Known-value mirror of ``Logic.set_slice`` over the bit planes.

    Bits of the target range beyond ``vw`` become X (reads past the end
    of the value read X); out-of-range target positions are ignored.
    """
    t_lo = max(lo, 0)
    t_hi = min(hi, cur_w - 1)
    if t_hi < t_lo:
        return cur_bits, cur_x
    window = (_mask(t_hi - t_lo + 1)) << t_lo
    # Positions whose source bit exists in the value (i = p - lo < vw).
    known_hi = min(t_hi, lo + vw - 1)
    if known_hi >= t_lo:
        known = (_mask(known_hi - t_lo + 1)) << t_lo
    else:
        known = 0
    placed = ((vbits >> (t_lo - lo)) << t_lo) & known
    bits = (cur_bits & ~window) | placed
    x = (cur_x & ~window) | (window & ~known)
    return bits, x


# ---------------------------------------------------------------------------
# Lowering context
# ---------------------------------------------------------------------------


@dataclass
class _LowerCtx:
    """Static per-instance naming context (mirror of EvalContext)."""

    module: ElabModule
    prefix: str

    def flat(self, name: str) -> str:
        return self.prefix + name

    def symbol(self, name: str) -> Optional[Symbol]:
        return self.module.symbol(name)

    @property
    def params(self) -> dict:
        return self.module.params


class _Val:
    """A lowered expression: closure + static width/signedness.

    ``fn(values, arrays)`` returns the known bit pattern as an int, or
    ``None`` to bail.  ``const`` holds the value when it is known at
    lowering time (enables constant folding up the tree).
    """

    __slots__ = ("fn", "width", "signed", "const")

    def __init__(self, fn, width: int, signed: bool, const: Optional[int] = None):
        self.fn = fn
        self.width = width
        self.signed = signed
        self.const = const


def _const(value: int, width: int, signed: bool) -> _Val:
    value &= _mask(width)
    return _Val(lambda values, arrays: value, width, signed, const=value)


def _fold(val: _Val, children: list[_Val]) -> _Val:
    """Constant-fold ``val`` when every child is a lowering-time constant."""
    if val.const is not None:
        return val
    if children and all(c.const is not None for c in children):
        folded = val.fn(None, None)
        if folded is None:
            # A constant that the fast plane cannot represent (e.g. a
            # constant division by zero evaluates to X): no fast path.
            raise Unlowerable("constant folds to an unknown value")
        return _const(folded, val.width, val.signed)
    return val


# ---------------------------------------------------------------------------
# Natural width (static mirror of Evaluator._natural_width, frame-free)
# ---------------------------------------------------------------------------


def _nat_width(ctx: _LowerCtx, expr: ast.Expr) -> int:
    if isinstance(expr, ast.Number):
        return max(expr.width if expr.width is not None else _DEFAULT_WIDTH, 1)
    if isinstance(expr, ast.StringLit):
        return max(8 * len(expr.value.encode()), 8)
    if isinstance(expr, ast.Identifier):
        symbol = ctx.symbol(expr.name)
        return max(symbol.width, 1) if symbol is not None else 1
    if isinstance(expr, ast.Select):
        symbol = _base_symbol(ctx, expr.base)
        if symbol is not None and symbol.array is not None:
            return max(symbol.width, 1)
        return 1
    if isinstance(expr, ast.RangeSelect):
        msb = const_eval(expr.msb, ctx.params)
        lsb = const_eval(expr.lsb, ctx.params)
        if msb is None or lsb is None:
            return 1
        return abs(msb - lsb) + 1
    if isinstance(expr, ast.IndexedSelect):
        width = const_eval(expr.width, ctx.params)
        return max(width, 1) if width else 1
    if isinstance(expr, ast.Concat):
        return max(sum(_nat_width(ctx, p) for p in expr.parts), 1)
    if isinstance(expr, ast.Replicate):
        count = const_eval(expr.count, ctx.params) or 1
        inner = sum(_nat_width(ctx, p) for p in expr.value.parts)
        return max(count * inner, 1)
    if isinstance(expr, ast.Unary):
        if expr.op in ("+", "-", "~"):
            return _nat_width(ctx, expr.operand)
        return 1
    if isinstance(expr, ast.Binary):
        if expr.op in _CONTEXT_BINOPS:
            return max(_nat_width(ctx, expr.lhs), _nat_width(ctx, expr.rhs))
        if expr.op in ("<<", ">>", "<<<", ">>>", "**"):
            return _nat_width(ctx, expr.lhs)
        return 1
    if isinstance(expr, ast.Ternary):
        return max(_nat_width(ctx, expr.then), _nat_width(ctx, expr.other))
    if isinstance(expr, ast.SystemCall):
        if expr.name in ("$signed", "$unsigned") and expr.args:
            return _nat_width(ctx, expr.args[0])
        return _DEFAULT_WIDTH
    if isinstance(expr, ast.FuncCall):
        decl = ctx.module.functions.get(expr.name)
        if decl is not None:
            from .eval import _range_width

            return _range_width(decl.range, ctx.params)
        return 1
    return 1


def _base_symbol(ctx: _LowerCtx, expr: ast.Expr) -> Optional[Symbol]:
    if isinstance(expr, ast.Identifier):
        return ctx.symbol(expr.name)
    return None


_CONTEXT_BINOPS = frozenset(["+", "-", "*", "/", "%", "&", "|", "^", "^~", "~^"])


# ---------------------------------------------------------------------------
# Expression lowering (mirror of Evaluator.eval / _eval)
# ---------------------------------------------------------------------------


def lower_expr(ctx: _LowerCtx, expr: ast.Expr, width: Optional[int]) -> _Val:
    """Lower ``expr`` under context ``width`` (mirror of Evaluator.eval)."""
    val = _lower(ctx, expr, width)
    if width is not None and val.width < width:
        fn, fw, signed = val.fn, val.width, val.signed
        if val.const is not None:
            return _const(_ext(val.const, fw, width, signed), width, signed)
        return _Val(_widened_fn(fn, fw, width, signed), width, signed)
    return val


def _lower(ctx: _LowerCtx, expr: ast.Expr, width: Optional[int]) -> _Val:
    if isinstance(expr, ast.Number):
        if expr.xmask:
            raise Unlowerable("x/z literal")  # detected at lowering time
        nat = max(expr.width if expr.width is not None else _DEFAULT_WIDTH, 1)
        return _const(expr.bits, nat, expr.signed)
    if isinstance(expr, ast.StringLit):
        data = expr.value.encode() or b"\0"
        return _const(int.from_bytes(data, "big"), 8 * len(data), False)
    if isinstance(expr, ast.Identifier):
        return _lower_ident(ctx, expr.name)
    if isinstance(expr, ast.Select):
        return _lower_select(ctx, expr)
    if isinstance(expr, ast.RangeSelect):
        return _lower_range_select(ctx, expr)
    if isinstance(expr, ast.IndexedSelect):
        return _lower_indexed_select(ctx, expr)
    if isinstance(expr, ast.Concat):
        return _lower_concat(ctx, expr.parts)
    if isinstance(expr, ast.Replicate):
        return _lower_replicate(ctx, expr)
    if isinstance(expr, ast.Unary):
        return _lower_unary(ctx, expr, width)
    if isinstance(expr, ast.Binary):
        return _lower_binary(ctx, expr, width)
    if isinstance(expr, ast.Ternary):
        return _lower_ternary(ctx, expr, width)
    if isinstance(expr, ast.SystemCall):
        return _lower_system_call(ctx, expr)
    raise Unlowerable(f"no fast lowering for {type(expr).__name__}")


def _lower_ident(ctx: _LowerCtx, name: str) -> _Val:
    symbol = ctx.symbol(name)
    if symbol is None:
        raise Unlowerable(f"undeclared identifier {name!r}")
    if symbol.kind == "parameter":
        value = symbol.value if symbol.value is not None else 0
        return _const(value, _DEFAULT_WIDTH, True)
    flat = ctx.flat(name)
    w = max(symbol.width, 1)

    def read(values, arrays, _flat=flat):
        v = values.get(_flat)
        if v is None or v.xmask:
            return None
        return v.bits

    return _Val(read, w, symbol.signed)


def _lower_select(ctx: _LowerCtx, expr: ast.Select) -> _Val:
    idx = lower_expr(ctx, expr.index, None)
    if isinstance(expr.base, ast.Identifier):
        name = expr.base.name
        symbol = ctx.symbol(name)
        if symbol is None:
            raise Unlowerable("select from undeclared identifier")
        if symbol.array is not None:
            flat = ctx.flat(name)
            lo, hi = symbol.array
            aw = max(symbol.width, 1)

            def read_word(values, arrays, _i=idx.fn, _f=flat, _lo=lo, _hi=hi):
                i = _i(values, arrays)
                if i is None or not _lo <= i <= _hi:
                    return None
                words = arrays.get(_f)
                if words is None:
                    return None
                word = words[i - _lo]
                if word.xmask or word.signed:
                    # signed words carry dynamic signedness the static
                    # plane cannot type; let the interpreter handle them.
                    return None
                return word.bits

            return _Val(read_word, aw, False)
        if symbol.kind in ("parameter", "function"):
            raise Unlowerable("bit-select of a parameter")
        base = _lower_ident(ctx, name)
        mode, ref = _offset_rule(symbol)
        bw = base.width

        def read_bit(values, arrays, _b=base.fn, _i=idx.fn, _m=mode, _r=ref, _w=bw):
            i = _i(values, arrays)
            if i is None:
                return None
            off = i - _r if _m == 0 else (_r - i if _m == 1 else i)
            b = _b(values, arrays)
            if b is None or not 0 <= off < _w:
                return None
            return (b >> off) & 1

        return _Val(read_bit, 1, False)
    base = lower_expr(ctx, expr.base, None)
    bw = base.width

    def read_dyn(values, arrays, _b=base.fn, _i=idx.fn, _w=bw):
        i = _i(values, arrays)
        b = _b(values, arrays)
        if i is None or b is None or not 0 <= i < _w:
            return None
        return (b >> i) & 1

    return _Val(read_dyn, 1, False)


def _offset_rule(symbol: Optional[Symbol]) -> tuple[int, int]:
    """Static form of Evaluator._bit_offset: (mode, ref).

    mode 0: offset = index - ref; mode 1: offset = ref - index;
    mode 2: offset = index (no declared range).
    """
    if symbol is None or symbol.msb is None or symbol.lsb is None:
        return (2, 0)
    if symbol.msb >= symbol.lsb:
        return (0, symbol.lsb)
    return (1, symbol.lsb)


def _lower_range_select(ctx: _LowerCtx, expr: ast.RangeSelect) -> _Val:
    msb = const_eval(expr.msb, ctx.params)
    lsb = const_eval(expr.lsb, ctx.params)
    if msb is None or lsb is None:
        raise Unlowerable("non-constant part-select bounds")
    base = lower_expr(ctx, expr.base, None)
    symbol = _base_symbol(ctx, expr.base)
    mode, ref = _offset_rule(symbol)
    hi = msb - ref if mode == 0 else (ref - msb if mode == 1 else msb)
    lo = lsb - ref if mode == 0 else (ref - lsb if mode == 1 else lsb)
    if hi < lo:
        hi, lo = lo, hi
    if lo < 0 or hi >= base.width:
        raise Unlowerable("part-select reads past the vector")
    w = hi - lo + 1
    m = _mask(w)

    def read(values, arrays, _b=base.fn, _lo=lo, _m=m):
        b = _b(values, arrays)
        if b is None:
            return None
        return (b >> _lo) & _m

    return _fold(_Val(read, w, False), [base])


def _lower_indexed_select(ctx: _LowerCtx, expr: ast.IndexedSelect) -> _Val:
    cw = const_eval(expr.width, ctx.params)
    if not cw:
        raise Unlowerable("non-constant indexed-select width")
    w = max(cw, 1)
    base = lower_expr(ctx, expr.base, None)
    start = lower_expr(ctx, expr.start, None)
    symbol = _base_symbol(ctx, expr.base)
    mode, ref = _offset_rule(symbol)
    bw = base.width
    m = _mask(w)
    asc = expr.ascending

    def read(values, arrays, _b=base.fn, _s=start.fn):
        s = _s(values, arrays)
        b = _b(values, arrays)
        if s is None or b is None:
            return None
        off = s - ref if mode == 0 else (ref - s if mode == 1 else s)
        lo = off if asc else off - w + 1
        if lo < 0 or lo + w > bw:
            return None
        return (b >> lo) & m

    return _Val(read, w, False)


def _lower_concat(ctx: _LowerCtx, parts: list[ast.Expr]) -> _Val:
    vals = [lower_expr(ctx, p, None) for p in parts]
    total = max(sum(v.width for v in vals), 1)
    pairs = [(v.fn, v.width) for v in vals]

    def read(values, arrays, _pairs=tuple(pairs)):
        out = 0
        for fn, w in _pairs:
            b = fn(values, arrays)
            if b is None:
                return None
            out = (out << w) | b
        return out

    return _fold(_Val(read, total, False), vals)


def _lower_replicate(ctx: _LowerCtx, expr: ast.Replicate) -> _Val:
    count = const_eval(expr.count, ctx.params)
    if count is None:
        raise Unlowerable("non-constant replication count")
    inner = _lower_concat(ctx, expr.value.parts)
    if count <= 0:
        return _const(0, 1, False)
    w = inner.width
    total = max(count * w, 1)

    def read(values, arrays, _fn=inner.fn, _w=w, _n=count):
        b = _fn(values, arrays)
        if b is None:
            return None
        out = 0
        for _ in range(_n):
            out = (out << _w) | b
        return out

    return _fold(_Val(read, total, False), [inner])


def _lower_unary(ctx: _LowerCtx, expr: ast.Unary, width: Optional[int]) -> _Val:
    op = expr.op
    if op in ("+", "-", "~"):
        a = lower_expr(ctx, expr.operand, width)
        if op == "+":
            return a
        w, s, m = a.width, a.signed, _mask(a.width)
        if op == "-":
            out = _Val(
                lambda values, arrays, _f=a.fn: None
                if (b := _f(values, arrays)) is None
                else (-b) & m,
                w, s,
            )
        else:
            out = _Val(
                lambda values, arrays, _f=a.fn: None
                if (b := _f(values, arrays)) is None
                else (~b) & m,
                w, s,
            )
        return _fold(out, [a])
    a = lower_expr(ctx, expr.operand, None)
    w, m = a.width, _mask(a.width)
    if op == "!":
        fn = lambda values, arrays, _f=a.fn: None if (b := _f(values, arrays)) is None else int(b == 0)  # noqa: E731
    elif op in ("&", "~&"):
        inv = op == "~&"
        fn = lambda values, arrays, _f=a.fn: None if (b := _f(values, arrays)) is None else int(b == m) ^ inv  # noqa: E731
    elif op in ("|", "~|"):
        inv = op == "~|"
        fn = lambda values, arrays, _f=a.fn: None if (b := _f(values, arrays)) is None else int(b != 0) ^ inv  # noqa: E731
    elif op in ("^", "~^", "^~"):
        inv = op != "^"
        fn = lambda values, arrays, _f=a.fn: None if (b := _f(values, arrays)) is None else (bin(b).count("1") & 1) ^ inv  # noqa: E731
    else:
        raise Unlowerable(f"unknown unary operator {op!r}")
    return _fold(_Val(fn, 1, False), [a])


def _lower_binary(ctx: _LowerCtx, expr: ast.Binary, width: Optional[int]) -> _Val:
    op = expr.op
    if op in _CONTEXT_BINOPS:
        context = max(
            width or 1, _nat_width(ctx, expr.lhs), _nat_width(ctx, expr.rhs)
        )
        a = lower_expr(ctx, expr.lhs, context)
        b = lower_expr(ctx, expr.rhs, context)
        if op in ("+", "-", "*", "/", "%"):
            return _fold(_lower_arith(op, a, b), [a, b])
        return _fold(_lower_bitwise(op, a, b), [a, b])
    if op in ("<", "<=", ">", ">=", "==", "!="):
        inner = max(_nat_width(ctx, expr.lhs), _nat_width(ctx, expr.rhs))
        a = lower_expr(ctx, expr.lhs, inner)
        b = lower_expr(ctx, expr.rhs, inner)
        return _fold(_lower_compare(op, a, b), [a, b])
    if op in ("<<", ">>", "<<<", ">>>"):
        a = lower_expr(ctx, expr.lhs, width)
        b = lower_expr(ctx, expr.rhs, None)
        return _fold(_lower_shift(op, a, b), [a, b])
    if op == "**":
        a = lower_expr(ctx, expr.lhs, width)
        b = lower_expr(ctx, expr.rhs, None)
        return _fold(_lower_arith("**", a, b), [a, b])
    if op in ("===", "!=="):
        a = lower_expr(ctx, expr.lhs, None)
        b = lower_expr(ctx, expr.rhs, None)
        w = max(a.width, b.width)
        want = op == "==="

        def identity(values, arrays, _a=a.fn, _b=b.fn, _aw=a.width, _bw=b.width,
                     _as=a.signed, _bs=b.signed):
            x = _a(values, arrays)
            y = _b(values, arrays)
            if x is None or y is None:
                return None
            same = _ext(x, _aw, w, _as) == _ext(y, _bw, w, _bs)
            return int(same is want)

        return _fold(_Val(identity, 1, False), [a, b])
    if op in ("&&", "||"):
        a = lower_expr(ctx, expr.lhs, None)
        b = lower_expr(ctx, expr.rhs, None)
        conj = op == "&&"

        def logical(values, arrays, _a=a.fn, _b=b.fn):
            x = _a(values, arrays)
            y = _b(values, arrays)
            if x is None or y is None:
                return None
            if conj:
                return int(bool(x) and bool(y))
            return int(bool(x) or bool(y))

        return _fold(_Val(logical, 1, False), [a, b])
    raise Unlowerable(f"unknown binary operator {op!r}")


def _lower_arith(op: str, a: _Val, b: _Val) -> _Val:
    w = max(a.width, b.width)
    s = a.signed and b.signed
    m = _mask(w)
    aw, bw = a.width, b.width

    # The ring operations are sign-agnostic modulo 2^w: specialize them
    # without the two's-complement detour or per-call op dispatch.
    if op in ("+", "-", "*"):
        fa, fb = a.fn, b.fn
        if op == "+":
            def arith(values, arrays):
                x = fa(values, arrays)
                if x is None:
                    return None
                y = fb(values, arrays)
                return None if y is None else (x + y) & m
        elif op == "-":
            def arith(values, arrays):
                x = fa(values, arrays)
                if x is None:
                    return None
                y = fb(values, arrays)
                return None if y is None else (x - y) & m
        else:
            def arith(values, arrays):
                x = fa(values, arrays)
                if x is None:
                    return None
                y = fb(values, arrays)
                return None if y is None else (x * y) & m
        return _Val(arith, w, s)

    def arith(values, arrays, _a=a.fn, _b=b.fn):
        x = _a(values, arrays)
        y = _b(values, arrays)
        if x is None or y is None:
            return None
        if s:
            av = _sv(x, aw)
            bv = _sv(y, bw)
        else:
            av, bv = x, y
        if op == "+":
            r = av + bv
        elif op == "-":
            r = av - bv
        elif op == "*":
            r = av * bv
        elif op == "/":
            if bv == 0:
                return None
            r = abs(av) // abs(bv)
            if (av < 0) != (bv < 0):
                r = -r
        elif op == "%":
            if bv == 0:
                return None
            r = abs(av) % abs(bv)
            if av < 0:
                r = -r
        else:  # **
            if bv < 0:
                r = 0 if abs(av) != 1 else (1 if av == 1 or bv % 2 == 0 else -1)
            elif bv > 4096:
                r = 0
            else:
                r = av**bv
        return r & m

    return _Val(arith, w, s)


def _lower_bitwise(op: str, a: _Val, b: _Val) -> _Val:
    w = max(a.width, b.width)
    s = a.signed and b.signed
    m = _mask(w)
    fa = _widened_fn(a.fn, a.width, w, a.signed)
    fb = _widened_fn(b.fn, b.width, w, b.signed)

    if op == "&":
        def bitwise(values, arrays):
            x = fa(values, arrays)
            if x is None:
                return None
            y = fb(values, arrays)
            return None if y is None else x & y
    elif op == "|":
        def bitwise(values, arrays):
            x = fa(values, arrays)
            if x is None:
                return None
            y = fb(values, arrays)
            return None if y is None else x | y
    elif op == "^":
        def bitwise(values, arrays):
            x = fa(values, arrays)
            if x is None:
                return None
            y = fb(values, arrays)
            return None if y is None else x ^ y
    else:  # ^~ / ~^
        def bitwise(values, arrays):
            x = fa(values, arrays)
            if x is None:
                return None
            y = fb(values, arrays)
            return None if y is None else ~(x ^ y) & m

    return _Val(bitwise, w, s)


def _lower_compare(op: str, a: _Val, b: _Val) -> _Val:
    w = max(a.width, b.width)
    s = a.signed and b.signed
    aw, bw = a.width, b.width

    def compare(values, arrays, _a=a.fn, _b=b.fn):
        x = _a(values, arrays)
        y = _b(values, arrays)
        if x is None or y is None:
            return None
        if s:
            av = _sv(x, aw)
            bv = _sv(y, bw)
        else:
            av, bv = x, y
        if op == "==":
            return int(av == bv)
        if op == "!=":
            return int(av != bv)
        if op == "<":
            return int(av < bv)
        if op == "<=":
            return int(av <= bv)
        if op == ">":
            return int(av > bv)
        return int(av >= bv)

    return _Val(compare, 1, False)


def _lower_shift(op: str, a: _Val, b: _Val) -> _Val:
    w, s = a.width, a.signed
    m = _mask(w)
    fa, fb = a.fn, b.fn

    if op in ("<<", "<<<"):
        def shift(values, arrays):
            x = fa(values, arrays)
            if x is None:
                return None
            amt = fb(values, arrays)
            if amt is None:
                return None
            return (x << (w if amt > w else amt)) & m
    elif op == ">>" or not s:
        # ">>>" on an unsigned operand is a plain logical shift; the
        # interpreter's amount clamp only bounds work, not the result.
        clamped = op != ">>>"

        def shift(values, arrays):
            x = fa(values, arrays)
            if x is None:
                return None
            amt = fb(values, arrays)
            if amt is None:
                return None
            if clamped and amt > w:
                amt = w
            return x >> amt
    else:
        def shift(values, arrays):
            x = fa(values, arrays)
            if x is None:
                return None
            amt = fb(values, arrays)
            if amt is None:
                return None
            if amt > w:
                amt = w
            bits = x >> amt
            if (x >> (w - 1)) & 1 and amt:
                bits |= (_mask(amt)) << (w - amt)
            return bits

    return _Val(shift, w, s)


def _lower_ternary(ctx: _LowerCtx, expr: ast.Ternary, width: Optional[int]) -> _Val:
    cond = lower_expr(ctx, expr.cond, None)
    then = lower_expr(ctx, expr.then, width)
    other = lower_expr(ctx, expr.other, width)
    if then.signed != other.signed:
        raise Unlowerable("ternary branches disagree on signedness")
    w = max(then.width, other.width)
    s = then.signed
    tw, ow = then.width, other.width

    ft = _widened_fn(then.fn, tw, w, s)
    fo = _widened_fn(other.fn, ow, w, s)

    def pick(values, arrays, _c=cond.fn):
        c = _c(values, arrays)
        if c is None:
            return None
        return ft(values, arrays) if c else fo(values, arrays)

    return _fold(_Val(pick, w, s), [cond, then, other])


def _lower_system_call(ctx: _LowerCtx, expr: ast.SystemCall) -> _Val:
    name = expr.name
    if name == "$signed" and expr.args:
        a = lower_expr(ctx, expr.args[0], None)
        return _Val(a.fn, a.width, True, const=a.const)
    if name == "$unsigned" and expr.args:
        a = lower_expr(ctx, expr.args[0], None)
        return _Val(a.fn, a.width, False, const=a.const)
    if name == "$clog2" and expr.args:
        a = lower_expr(ctx, expr.args[0], None)

        def clog2(values, arrays, _f=a.fn):
            v = _f(values, arrays)
            if v is None:
                return None
            return max(0, (v - 1).bit_length()) if v > 0 else 0

        return _fold(_Val(clog2, _DEFAULT_WIDTH, False), [a])
    if name in ("$time", "$stime", "$realtime"):
        return _const(0, 64, False)
    if name == "$random":
        return _const(hash(expr.span.start) & 0xFFFFFFFF, 32, False)
    raise Unlowerable(f"unsupported system function {name}")


# ---------------------------------------------------------------------------
# L-value lowering (mirrors of StmtExecutor._lvalue_width / assign)
# ---------------------------------------------------------------------------


def _lvalue_width(ctx: _LowerCtx, expr: ast.Expr) -> int:
    if isinstance(expr, ast.Identifier):
        symbol = ctx.symbol(expr.name)
        return symbol.width if symbol is not None else 1
    if isinstance(expr, ast.Select):
        return 1
    if isinstance(expr, ast.RangeSelect):
        msb = const_eval(expr.msb, ctx.params)
        lsb = const_eval(expr.lsb, ctx.params)
        if msb is None or lsb is None:
            return 1
        return abs(msb - lsb) + 1
    if isinstance(expr, ast.IndexedSelect):
        width = const_eval(expr.width, ctx.params)
        return width if width else 1
    if isinstance(expr, ast.Concat):
        return sum(_lvalue_width(ctx, p) for p in expr.parts)
    return 1


def _lower_writer(
    ctx: _LowerCtx, lvalue: ast.Expr, vw: int, vsigned: bool
) -> Callable:
    """A writer closure ``write(values, arrays, undo, bits) -> True|None``
    mirroring ``StmtExecutor.assign`` for a known RHS bit pattern of
    static width ``vw`` / signedness ``vsigned``.

    Writers bail (returning ``None``) only *before* any state change of
    their own; partially applied concat writers rely on the undo log.
    """
    if isinstance(lvalue, ast.Concat):
        subs = []
        offset = sum(_lvalue_width(ctx, p) for p in lvalue.parts)
        for part in lvalue.parts:
            pw = _lvalue_width(ctx, part)
            offset -= pw
            # Slices of a known value are known and unsigned.
            subs.append((offset, pw, _mask(pw), _lower_writer(ctx, part, pw, False)))

        def write_concat(values, arrays, undo, bits):
            for off, pw, pm, sub in subs:
                if sub(values, arrays, undo, (bits >> off) & pm) is None:
                    return None
            return True

        return write_concat
    if isinstance(lvalue, ast.Identifier):
        symbol = ctx.symbol(lvalue.name)
        if symbol is None or symbol.kind in ("parameter", "function"):
            raise Unlowerable("write to undeclared or constant name")
        if symbol.array is not None:
            raise Unlowerable("whole-array write")
        flat = ctx.flat(lvalue.name)
        sw = symbol.width
        ssigned = symbol.signed

        # _ext specialized at lowering time: truncation is a mask,
        # widening is the identity unless it genuinely sign-extends.
        msk = _mask(sw)
        sign = (1 << (vw - 1)) if (vsigned and sw > vw) else 0
        extm = (_mask(sw) ^ _mask(vw)) if sign else 0

        def write_ident(values, arrays, undo, bits):
            nb = (bits | extm) if (bits & sign) else (bits & msk)
            cur = values.get(flat)
            if cur is None:
                return None
            # Skip-if-same only when the stored value matches the new
            # one on every field Logic.__eq__ compares (settle's
            # fixpoint check relies on full equality).
            if (cur.xmask == 0 and cur.bits == nb
                    and cur.width == sw and cur.signed == ssigned):
                return True
            undo.append((0, flat, cur))
            values[flat] = Logic(sw, nb, 0, ssigned)
            return True

        return write_ident
    if isinstance(lvalue, ast.Select):
        return _lower_select_writer(ctx, lvalue, vw, vsigned)
    if isinstance(lvalue, ast.RangeSelect):
        return _lower_range_writer(ctx, lvalue, vw)
    if isinstance(lvalue, ast.IndexedSelect):
        return _lower_indexed_writer(ctx, lvalue, vw)
    raise Unlowerable(f"unsupported l-value {type(lvalue).__name__}")


def _require_scalar_base(ctx: _LowerCtx, lvalue) -> tuple[str, Symbol]:
    if not isinstance(lvalue.base, ast.Identifier):
        raise Unlowerable("nested l-value select")
    name = lvalue.base.name
    symbol = ctx.symbol(name)
    if symbol is None or symbol.kind in ("parameter", "function"):
        raise Unlowerable("select-write to undeclared or constant name")
    return name, symbol


def _lower_select_writer(ctx: _LowerCtx, lvalue: ast.Select, vw: int, vsigned: bool):
    name, symbol = _require_scalar_base(ctx, lvalue)
    idx = lower_expr(ctx, lvalue.index, None)
    flat = ctx.flat(name)
    if symbol.array is not None:
        lo, hi = symbol.array
        aw = max(symbol.width, 1)

        def write_word(values, arrays, undo, bits, _i=idx.fn):
            i = _i(values, arrays)
            if i is None:
                return None
            words = arrays.get(flat)
            if words is None:
                return True  # interpreter drops writes to missing arrays
            if lo <= i <= hi:
                undo.append((1, flat, i - lo, words[i - lo]))
                words[i - lo] = Logic(aw, _ext(bits, vw, aw, vsigned), 0, vsigned)
            return True  # out-of-range writes are silently dropped

        return write_word
    mode, ref = _offset_rule(symbol)
    sw = symbol.width
    ssigned = symbol.signed

    def write_bit(values, arrays, undo, bits, _i=idx.fn):
        i = _i(values, arrays)
        if i is None:
            return None
        cur = values.get(flat)
        if cur is None:
            return None
        off = i - ref if mode == 0 else (ref - i if mode == 1 else i)
        if not 0 <= off < sw:
            return True  # set_bit ignores out-of-range writes
        sel = 1 << off
        nb = (cur.bits & ~sel) | ((bits & 1) << off)
        nx = cur.xmask & ~sel
        if (nb == cur.bits and nx == cur.xmask
                and cur.width == sw and cur.signed == ssigned):
            return True
        undo.append((0, flat, cur))
        values[flat] = Logic(sw, nb, nx, ssigned)
        return True

    return write_bit


def _lower_range_writer(ctx: _LowerCtx, lvalue: ast.RangeSelect, vw: int):
    name, symbol = _require_scalar_base(ctx, lvalue)
    flat = ctx.flat(name)
    sw = symbol.width
    ssigned = symbol.signed
    msb = const_eval(lvalue.msb, ctx.params)
    lsb = const_eval(lvalue.lsb, ctx.params)
    if msb is None or lsb is None:
        # The interpreter silently drops part-select writes with
        # non-constant bounds; mirror that exactly.
        return lambda values, arrays, undo, bits: True
    mode, ref = _offset_rule(symbol)
    hi = msb - ref if mode == 0 else (ref - msb if mode == 1 else msb)
    lo = lsb - ref if mode == 0 else (ref - lsb if mode == 1 else lsb)
    if hi < lo:
        hi, lo = lo, hi

    def write_range(values, arrays, undo, bits):
        cur = values.get(flat)
        if cur is None:
            return None
        nb, nx = _set_slice_bits(cur.bits, cur.xmask, sw, hi, lo, bits, vw)
        if (nb == cur.bits and nx == cur.xmask
                and cur.width == sw and cur.signed == ssigned):
            return True
        undo.append((0, flat, cur))
        values[flat] = Logic(sw, nb, nx, ssigned)
        return True

    return write_range


def _lower_indexed_writer(ctx: _LowerCtx, lvalue: ast.IndexedSelect, vw: int):
    name, symbol = _require_scalar_base(ctx, lvalue)
    flat = ctx.flat(name)
    sw = symbol.width
    ssigned = symbol.signed
    start = lower_expr(ctx, lvalue.start, None)
    width_val = lower_expr(ctx, lvalue.width, None)
    mode, ref = _offset_rule(symbol)
    asc = lvalue.ascending

    def write_indexed(values, arrays, undo, bits, _s=start.fn, _w=width_val.fn):
        s = _s(values, arrays)
        wv = _w(values, arrays)
        if s is None or wv is None:
            return None
        w = max(wv, 1)
        off = s - ref if mode == 0 else (ref - s if mode == 1 else s)
        hi, lo = (off + w - 1, off) if asc else (off, off - w + 1)
        cur = values.get(flat)
        if cur is None:
            return None
        nb, nx = _set_slice_bits(cur.bits, cur.xmask, sw, hi, lo, bits, vw)
        if (nb == cur.bits and nx == cur.xmask
                and cur.width == sw and cur.signed == ssigned):
            return True
        undo.append((0, flat, cur))
        values[flat] = Logic(sw, nb, nx, ssigned)
        return True

    return write_indexed


# ---------------------------------------------------------------------------
# Statement lowering (mirror of StmtExecutor.exec_stmt)
# ---------------------------------------------------------------------------
#
# Statement closures have signature
#     stmt(values, arrays, undo, nba, ex) -> True | None
# where ``undo`` collects speculative writes, ``nba`` is the shared
# nonblocking queue (None in combinational contexts) and ``ex`` is a
# per-simulator StmtExecutor used only to commit nonblocking writes to
# complex l-values with exact interpreter semantics.


def lower_stmt(ctx: _LowerCtx, stmt: ast.Stmt, seq: bool) -> Callable:
    """Lower one statement to ``fn(values, arrays, undo, nba, ex) -> True|None``.

    ``seq`` selects non-blocking-assignment handling for edge-sensitive
    processes.  Raises :class:`Unlowerable` for constructs the fast path
    does not cover; the returned closure itself returns ``None`` (bail)
    when it meets X/Z at run time."""
    if isinstance(stmt, ast.NullStmt):
        return lambda values, arrays, undo, nba, ex: True
    if isinstance(stmt, ast.Block):
        if stmt.decls:
            raise Unlowerable("block-local declarations need a frame")
        children = [lower_stmt(ctx, child, seq) for child in stmt.stmts]

        def run_block(values, arrays, undo, nba, ex):
            for child in children:
                if child(values, arrays, undo, nba, ex) is None:
                    return None
            return True

        return run_block
    if isinstance(stmt, ast.ProcAssign):
        return _lower_assign(ctx, stmt, seq)
    if isinstance(stmt, ast.If):
        cond = lower_expr(ctx, stmt.cond, None)
        then = lower_stmt(ctx, stmt.then, seq)
        other = lower_stmt(ctx, stmt.other, seq) if stmt.other is not None else None

        def run_if(values, arrays, undo, nba, ex, _c=cond.fn):
            c = _c(values, arrays)
            if c is None:
                return None
            if c:
                return then(values, arrays, undo, nba, ex)
            if other is not None:
                return other(values, arrays, undo, nba, ex)
            return True

        return run_if
    if isinstance(stmt, ast.Case):
        return _lower_case(ctx, stmt, seq)
    if isinstance(stmt, ast.For):
        return _lower_for(ctx, stmt, seq)
    if isinstance(stmt, ast.While):
        cond = lower_expr(ctx, stmt.cond, None)
        body = lower_stmt(ctx, stmt.body, seq)

        def run_while(values, arrays, undo, nba, ex, _c=cond.fn):
            n = 0
            while True:
                c = _c(values, arrays)
                if c is None:
                    return None
                if not c:
                    return True
                if body(values, arrays, undo, nba, ex) is None:
                    return None
                n += 1
                if n > _FAST_LOOP_CAP:
                    return None  # let the interpreter police the budget

        return run_while
    if isinstance(stmt, ast.Repeat):
        count = lower_expr(ctx, stmt.count, None)
        body = lower_stmt(ctx, stmt.body, seq)

        def run_repeat(values, arrays, undo, nba, ex, _c=count.fn):
            times = _c(values, arrays)
            if times is None or times > _FAST_LOOP_CAP:
                return None
            for _ in range(times):
                if body(values, arrays, undo, nba, ex) is None:
                    return None
            return True

        return run_repeat
    raise Unlowerable(f"no fast lowering for {type(stmt).__name__}")


def _lower_assign(ctx: _LowerCtx, stmt: ast.ProcAssign, seq: bool) -> Callable:
    tw = _lvalue_width(ctx, stmt.lvalue)
    context = max(tw, _nat_width(ctx, stmt.rhs))
    val = lower_expr(ctx, stmt.rhs, context)
    vw, vsigned = val.width, val.signed
    if stmt.blocking or not seq:
        writer = _lower_writer(ctx, stmt.lvalue, vw, vsigned)

        def run_assign(values, arrays, undo, nba, ex, _v=val.fn):
            b = _v(values, arrays)
            if b is None:
                return None
            return writer(values, arrays, undo, b)

        return run_assign
    # Nonblocking in an edge-triggered process: capture the value now,
    # commit after every triggered process ran (standard NBA ordering).
    if isinstance(stmt.lvalue, ast.Identifier):
        symbol = ctx.symbol(stmt.lvalue.name)
        if symbol is None or symbol.kind in ("parameter", "function"):
            raise Unlowerable("nonblocking write to undeclared name")
        if symbol.array is not None:
            raise Unlowerable("whole-array write")
        flat = ctx.flat(stmt.lvalue.name)
        sw = symbol.width
        ssigned = symbol.signed

        # _ext specialized at lowering time (see write_ident).
        msk = _mask(sw)
        sign = (1 << (vw - 1)) if (vsigned and sw > vw) else 0
        extm = (_mask(sw) ^ _mask(vw)) if sign else 0

        def queue_ident(values, arrays, undo, nba, ex, _v=val.fn):
            b = _v(values, arrays)
            if b is None:
                return None
            nb = (b | extm) if (b & sign) else (b & msk)
            # A bare (flat, Logic) tuple, not an NbaUpdate: the engine's
            # commit loop applies tuples directly, saving a closure and
            # an object per queued update on the dominant NBA shape.
            nba.append((flat, Logic(sw, nb, 0, ssigned)))
            return True

        return queue_ident
    lvalue = stmt.lvalue
    _lower_writer(ctx, lvalue, vw, vsigned)  # validate lowerable now

    def queue_complex(values, arrays, undo, nba, ex, _v=val.fn):
        b = _v(values, arrays)
        if b is None:
            return None
        pending = Logic(vw, b, 0, vsigned)
        # Complex l-values (memory words, bit selects) resolve their
        # indices at commit time in the interpreter; reuse its assign
        # path verbatim for exact semantics.
        nba.append(NbaUpdate(apply=lambda: ex.assign(lvalue, pending)))
        return True

    return queue_complex


def _lower_case(ctx: _LowerCtx, stmt: ast.Case, seq: bool) -> Callable:
    subject = lower_expr(ctx, stmt.subject, None)
    sw, ssigned = subject.width, subject.signed
    kind = stmt.kind
    entries = []  # ("default", body) | ("match", matchers, body)
    for item in stmt.items:
        body = lower_stmt(ctx, item.body, seq)
        if not item.labels:
            entries.append(("default", None, body))
            continue
        matchers = [
            _label_matcher(ctx, label, kind, sw, ssigned) for label in item.labels
        ]
        entries.append(("match", matchers, body))

    # Last default wins (interpreter semantics) and a default never
    # outranks a label match, so it can be resolved at lowering time.
    default = None
    match_entries = []
    for tag, matchers, body in entries:
        if tag == "default":
            default = body
        else:
            match_entries.append((matchers, body))

    def run_case(values, arrays, undo, nba, ex, _s=subject.fn):
        s = _s(values, arrays)
        if s is None:
            return None
        for matchers, body in match_entries:
            for matcher in matchers:
                m = matcher(values, arrays, s)
                if m is None:
                    return None
                if m:
                    return body(values, arrays, undo, nba, ex)
        if default is not None:
            return default(values, arrays, undo, nba, ex)
        return True

    return run_case


def _label_matcher(ctx: _LowerCtx, label: ast.Expr, kind: str, sw: int, ssigned: bool):
    """A ``matcher(values, arrays, subject_bits) -> 1|0|None`` mirror of
    StmtExecutor._case_match against a *known* subject.

    Constant labels -- including casez/casex patterns with x/z wildcard
    bits -- are folded into a precomputed care-mask compare; runtime
    labels compare resized known values.
    """
    if isinstance(label, ast.Number):
        lw = max(label.width if label.width is not None else _DEFAULT_WIDTH, 1)
        lb = label.bits & _mask(lw)
        lx = label.xmask & _mask(lw)
        w = max(sw, lw)
        # Resize the label to the common width (x/sign-extension).
        if lw < w:
            ext = _mask(w) ^ _mask(lw)
            if (lx >> (lw - 1)) & 1:
                lx |= ext
                if (lb >> (lw - 1)) & 1:
                    lb |= ext
            elif label.signed and (lb >> (lw - 1)) & 1:
                lb |= ext
        full = _mask(w)
        if kind == "case":
            if lx:
                return lambda values, arrays, s: 0  # never matches known subject
            target = lb

            def match_exact(values, arrays, s):
                return int(_ext(s, sw, w, ssigned) == target)

            return match_exact
        dont_care = lx & lb  # z bits are wildcards in casez
        if kind == "casex":
            dont_care |= lx
        care = full & ~dont_care
        if lx & care:
            return lambda values, arrays, s: 0  # x bits can't match known subject
        target = lb & care

        def match_masked(values, arrays, s):
            return int((_ext(s, sw, w, ssigned) & care) == target)

        return match_masked
    lowered = lower_expr(ctx, label, None)
    lw, lsigned = lowered.width, lowered.signed
    w = max(sw, lw)

    def match_dynamic(values, arrays, s, _l=lowered.fn):
        lv = _l(values, arrays)
        if lv is None:
            return None
        return int(_ext(s, sw, w, ssigned) == _ext(lv, lw, w, lsigned))

    return match_dynamic


def _lower_for(ctx: _LowerCtx, stmt: ast.For, seq: bool) -> Callable:
    if stmt.inline_decl is not None:
        raise Unlowerable("inline loop declaration needs a frame")
    init = _lower_assign(ctx, stmt.init, seq) if stmt.init is not None else None
    cond = lower_expr(ctx, stmt.cond, None) if stmt.cond is not None else None
    step = _lower_assign(ctx, stmt.step, seq) if stmt.step is not None else None
    body = lower_stmt(ctx, stmt.body, seq)
    cond_fn = cond.fn if cond is not None else None

    def run_for(values, arrays, undo, nba, ex):
        if init is not None and init(values, arrays, undo, nba, ex) is None:
            return None
        n = 0
        while True:
            if cond_fn is not None:
                c = cond_fn(values, arrays)
                if c is None:
                    return None
                if not c:
                    return True
            if body(values, arrays, undo, nba, ex) is None:
                return None
            if step is None:
                return True
            if step(values, arrays, undo, nba, ex) is None:
                return None
            n += 1
            if n > _FAST_LOOP_CAP:
                return None

    return run_for


# ---------------------------------------------------------------------------
# Design lowering + stage-cache integration
# ---------------------------------------------------------------------------


@dataclass
class LoweredDesign:
    """Per-design closure tables, index-aligned with the simulator's
    process lists (``_assigns``/``_connections``/``_comb``/``_seq``).

    ``None`` entries mark processes with no fast lowering; they run on
    the interpreter permanently.  Closures capture only plain data
    (flat names, widths, masks) extracted from the elaborated design,
    so one lowered design serves every simulator instance of any design
    with the same content digest.
    """

    assigns: list  # assign_fn(values, arrays, undo) -> True|None
    connections: list
    comb: list  # stmt_fn(values, arrays, undo, nba, ex) -> True|None
    seq: list
    edges: list  # per seq process: list of expr_fn(values, arrays) | None

    @property
    def fast_processes(self) -> int:
        return sum(
            1
            for group in (self.assigns, self.connections, self.comb, self.seq)
            for fn in group
            if fn is not None
        )

    @property
    def total_processes(self) -> int:
        return sum(
            len(group)
            for group in (self.assigns, self.connections, self.comb, self.seq)
        )


def _lower_assign_process(src_ctx: _LowerCtx, rhs, dst_ctx: _LowerCtx, lvalue):
    """Lower one continuous assign / port connection (RHS evaluated in
    ``src_ctx``, l-value written in ``dst_ctx``)."""
    tw = _lvalue_width(dst_ctx, lvalue)
    context = max(tw, _nat_width(src_ctx, rhs))
    val = lower_expr(src_ctx, rhs, context)
    writer = _lower_writer(dst_ctx, lvalue, val.width, val.signed)

    def run(values, arrays, undo, _v=val.fn):
        b = _v(values, arrays)
        if b is None:
            return None
        return writer(values, arrays, undo, b)

    return run


def lower_design(sim) -> LoweredDesign:
    """Lower every process of a built :class:`~repro.sim.simulator.Simulator`.

    Works off the simulator's flattened process lists so hierarchy,
    parameter specialization and port connections are already resolved;
    each lowered entry is index-aligned with those lists.
    """
    assigns = []
    for ctx, assign in sim._assigns:
        lctx = _LowerCtx(ctx.module, ctx.prefix)
        try:
            assigns.append(_lower_assign_process(lctx, assign.rhs, lctx, assign.lvalue))
        except Unlowerable:
            assigns.append(None)
    connections = []
    for conn in sim._connections:
        src = _LowerCtx(conn.src_ctx.module, conn.src_ctx.prefix)
        dst = _LowerCtx(conn.dst_ctx.module, conn.dst_ctx.prefix)
        try:
            connections.append(
                _lower_assign_process(src, conn.src_expr, dst, conn.dst_lvalue)
            )
        except Unlowerable:
            connections.append(None)
    comb = []
    for proc in sim._comb:
        lctx = _LowerCtx(proc.ctx.module, proc.ctx.prefix)
        try:
            comb.append(lower_stmt(lctx, proc.block.body, seq=False))
        except Unlowerable:
            comb.append(None)
    seq = []
    edges = []
    for proc in sim._seq:
        lctx = _LowerCtx(proc.ctx.module, proc.ctx.prefix)
        try:
            seq.append(lower_stmt(lctx, proc.block.body, seq=True))
        except Unlowerable:
            seq.append(None)
        proc_edges = []
        for _, expr in proc.edges:
            try:
                proc_edges.append(lower_expr(lctx, expr, None).fn)
            except Unlowerable:
                proc_edges.append(None)
        edges.append(proc_edges)
    return LoweredDesign(
        assigns=assigns, connections=connections, comb=comb, seq=seq, edges=edges
    )


def lowered_for(sim) -> LoweredDesign:
    """The (possibly cached) :class:`LoweredDesign` for a built simulator.

    Content-addressed on the design digest stamped at elaboration plus
    the simulated top module; designs without a digest (error-bearing or
    hand-constructed) are lowered fresh each time.
    """
    digest = getattr(sim.design, "digest", None)
    cache = current().get("stage_cache", DEFAULT_STAGE_CACHE)
    if digest is None or cache is None:
        return lower_design(sim)
    key = _digest(SIM_LOWER_STAGE, digest, sim.top.name)
    artifact = cache.get(SIM_LOWER_STAGE, key)
    if artifact is not None:
        return artifact.payload[0]
    lowered = lower_design(sim)
    cache.put(Artifact(stage=SIM_LOWER_STAGE, key=key, payload=(lowered,)))
    return lowered
