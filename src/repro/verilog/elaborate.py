"""Semantic elaboration of a parsed design.

Builds symbol tables with parameters resolved to constants, expands
``generate`` loops, and runs the semantic checks whose failures make up
the paper's error taxonomy:

* undeclared identifiers (incl. inside event expressions -- the Fig. 5
  ``posedge clk`` case);
* constant indices outside a vector's declared range, including indices
  that only become constant after unrolling ``for`` loops with static
  bounds (the Fig. 6 Conway-life failure case);
* invalid l-values (procedural assignment to a wire, any assignment to
  an input port, continuous assignment to a reg);
* duplicate declarations;
* port-connection mismatches on instantiations.

The result, :class:`ElabDesign`, is what the simulator consumes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

from ..diagnostics.codes import ErrorCategory
from ..diagnostics.diagnostic import Diagnostic, Severity
from . import ast
from .limits import LimitTracker
from .parser import expand_siblings
from .symbols import Scope, Symbol

_MAX_UNROLL = 4096


@dataclass
class PortInfo:
    name: str
    direction: str
    width: int
    msb: int
    lsb: int
    signed: bool = False


@dataclass
class ResolvedInstance:
    instance_name: str
    module_name: str
    #: port name -> connected expression (None = unconnected)
    port_map: dict[str, Optional[ast.Expr]]
    span: object = None
    #: parameter overrides (#(.W(8))), constant-evaluated.
    param_values: dict[str, int] = field(default_factory=dict)


@dataclass
class ElabModule:
    """A module after elaboration: resolved symbols and process lists."""

    name: str
    scope: Scope
    params: dict[str, int]
    ports: list[PortInfo]
    #: The AST this module was elaborated from (needed to re-elaborate
    #: with per-instance parameter overrides).
    source: Optional[ast.Module] = None
    assigns: list[ast.ContinuousAssign] = field(default_factory=list)
    always: list[ast.AlwaysBlock] = field(default_factory=list)
    initials: list[ast.InitialBlock] = field(default_factory=list)
    functions: dict[str, ast.FunctionDecl] = field(default_factory=dict)
    instances: list[ResolvedInstance] = field(default_factory=list)

    def symbol(self, name: str) -> Optional[Symbol]:
        return self.scope.lookup(name)


@dataclass
class ElabDesign:
    modules: dict[str, ElabModule] = field(default_factory=dict)
    top: Optional[str] = None
    #: Content digest of the preprocessed source this design was
    #: elaborated from; stamped by the diagnostic engine on error-free
    #: results only.  ``None`` means "identity unknown" and disables
    #: digest-keyed caching (compiled-simulator stage, verdict cache).
    digest: Optional[str] = None
    #: The compiled simulator's lowered closure tables, per simulated
    #: top module (:func:`repro.sim.compile.lowered_for`); filled only
    #: on designs that carry a digest.  Closures do not pickle, so a
    #: design stays in the process that simulated it.
    lowered: dict = field(default_factory=dict, repr=False, compare=False)

    def top_module(self) -> Optional[ElabModule]:
        if self.top and self.top in self.modules:
            return self.modules[self.top]
        return next(iter(self.modules.values()), None)


# ---------------------------------------------------------------------------
# Constant expression evaluation
# ---------------------------------------------------------------------------


#: No constant may be wider than this: an operator whose result could
#: exceed it (``7 ** 30000000``, ``1 << 4000000000``) is not constant,
#: which keeps ``compile_source``'s never-hang boundary.
MAX_CONST_BITS = 65536


def _pow(a: int, b: int) -> Optional[int]:
    if b < 0:
        return 0
    # |a| ** b needs at least b * (bit_length - 1) + 1 bits.
    if abs(a) > 1 and b * (abs(a).bit_length() - 1) >= MAX_CONST_BITS:
        return None
    return a**b


def _shl(a: int, b: int) -> Optional[int]:
    if a and b >= 0 and a.bit_length() + b > MAX_CONST_BITS:
        return None
    return a << b


_UNARY_OPS = {
    "-": lambda v: -v,
    "+": lambda v: v,
    "!": lambda v: int(v == 0),
    "~": lambda v: ~v,
}

_BINARY_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b if b else None,
    "%": lambda a, b: a % b if b else None,
    "**": _pow,
    "<<": _shl,
    ">>": lambda a, b: a >> b,
    "<<<": _shl,
    ">>>": lambda a, b: a >> b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
}


def const_eval(expr: ast.Expr, env: dict[str, int] | None = None) -> Optional[int]:
    """Evaluate a constant expression to a Python int, or None if it is
    not compile-time constant.  ``env`` supplies parameter / genvar /
    unrolled-loop-variable values."""
    env = env or {}
    if isinstance(expr, ast.Number):
        return expr.bits if expr.is_fully_known else None
    if isinstance(expr, ast.Identifier):
        return env.get(expr.name)
    if isinstance(expr, ast.Unary):
        val = const_eval(expr.operand, env)
        op = _UNARY_OPS.get(expr.op)
        if val is None or op is None:
            return None
        return op(val)
    if isinstance(expr, ast.Binary):
        lhs = const_eval(expr.lhs, env)
        rhs = const_eval(expr.rhs, env)
        op = _BINARY_OPS.get(expr.op)
        if lhs is None or rhs is None or op is None:
            return None
        try:
            value = op(lhs, rhs)
        except (ValueError, OverflowError):
            return None
        if value is not None and value.bit_length() > MAX_CONST_BITS:
            return None
        return value
    if isinstance(expr, ast.Ternary):
        cond = const_eval(expr.cond, env)
        if cond is None:
            return None
        return const_eval(expr.then if cond else expr.other, env)
    if isinstance(expr, ast.SystemCall) and expr.name == "$clog2" and expr.args:
        val = const_eval(expr.args[0], env)
        if val is None or val <= 0:
            return None
        return max(0, (val - 1).bit_length())
    return None


# ---------------------------------------------------------------------------
# Elaborator
# ---------------------------------------------------------------------------


class Elaborator:
    """Walks a parsed design building ElabModules and running checks."""
    def __init__(
        self,
        design: ast.Design,
        sink: list[Diagnostic],
        tracker: LimitTracker | None = None,
    ):
        self.design = design
        self.sink = sink
        #: Resource budgets (statement / instance counts); a private
        #: default-limits tracker keeps elaboration bounded even when the
        #: caller did not supply one.
        self.tracker = tracker if tracker is not None else LimitTracker()

    def _over_budget(self, kind: str, span) -> bool:
        """Charge one unit of ``kind``; True (with a one-shot diagnostic)
        once the budget is exhausted."""
        if self.tracker.charge(kind):
            return False
        self.tracker.report_overflow(kind, span, self.sink)
        return True

    def error(self, category: ErrorCategory, span, **args: object) -> None:
        self.sink.append(Diagnostic(category, span, dict(args)))

    def elaborate(self) -> ElabDesign:
        out = ElabDesign(top=self.design.top)
        for name, module in self.design.modules.items():
            out.modules[name] = self._elaborate_module(module)
        self._check_instances(out)
        return out

    # -- module-level ----------------------------------------------------

    def _elaborate_module(
        self, module: ast.Module, overrides: dict[str, int] | None = None
    ) -> ElabModule:
        scope = Scope()
        params: dict[str, int] = dict(overrides or {})
        elab = ElabModule(
            name=module.name, scope=scope, params=params, ports=[], source=module
        )

        items = self._expand_generates(expand_siblings(module.items), params)

        # Pass 1: declarations.  Parameters go first -- port ranges may
        # depend on them (``#(parameter W = 8)(input [W-1:0] d, ...)``).
        for item in items:
            if isinstance(item, ast.ParamDecl):
                self._declare_param(scope, params, item)
        for port in module.ports:
            self._declare_port(scope, params, port, elab)
        for item in items:
            if isinstance(item, ast.NetDecl):
                self._declare_net(scope, params, item)
            elif isinstance(item, ast.FunctionDecl):
                self._declare_function(scope, params, item, elab)

        # Pass 2: collect processes and run checks.
        for item in items:
            if isinstance(item, ast.ContinuousAssign):
                elab.assigns.append(item)
                self._check_continuous_assign(elab, item)
            elif isinstance(item, ast.AlwaysBlock):
                elab.always.append(item)
                self._check_always(elab, item)
            elif isinstance(item, ast.InitialBlock):
                elab.initials.append(item)
                self._check_stmt(elab, item.body, Scope(parent=elab.scope), procedural=True)
            elif isinstance(item, ast.Instantiation):
                self._collect_instance(elab, item)
        # NetDecl initialisers behave like continuous assigns on wires.
        for item in items:
            if isinstance(item, ast.NetDecl) and item.init is not None:
                self._check_expr(elab, item.init, elab.scope)
                if item.net_kind == "wire":
                    span = item.span
                    elab.assigns.append(
                        ast.ContinuousAssign(
                            lvalue=ast.Identifier(span=span, name=item.name),
                            rhs=item.init, span=span,
                        )
                    )
        return elab

    def _expand_generates(self, items: list, params: dict[str, int]) -> list:
        """Unroll GenerateFor items by substituting the genvar."""
        # Parameters must be known before unrolling; do a quick pre-pass.
        pre_params: dict[str, int] = {}
        for item in items:
            if isinstance(item, ast.ParamDecl):
                value = const_eval(item.value, pre_params)
                if value is not None:
                    pre_params[item.name] = value
        out: list = []
        for item in items:
            if not isinstance(item, ast.GenerateFor):
                out.append(item)
                continue
            for gen in [item] + item.__dict__.get("_siblings", []):
                out.extend(self._unroll_generate(gen, pre_params))
        return out

    def _unroll_generate(self, gen: ast.GenerateFor, params: dict[str, int]) -> list:
        init = const_eval(gen.init, params)
        if init is None:
            self.error(ErrorCategory.SYNTAX_NEAR, gen.span, near="'generate'")
            return []
        value = init
        produced: list = []
        for _ in range(_MAX_UNROLL):
            env = dict(params)
            env[gen.genvar] = value
            cond = const_eval(gen.cond, env)
            if cond is None or not cond:
                break
            for item in gen.items:
                if self._over_budget("elaborated statements", gen.span):
                    return produced
                clone = copy.deepcopy(item)
                _substitute_ident(clone, gen.genvar, value)
                if isinstance(clone, ast.Instantiation):
                    clone.instance_name = f"{clone.instance_name}_{value}"
                produced.append(clone)
            step = const_eval(gen.step, env)
            if step is None:
                break
            value = step
        return produced

    # -- declarations ------------------------------------------------------

    def _declare_port(
        self, scope: Scope, params: dict[str, int],
        port: ast.PortDecl, elab: ElabModule,
    ) -> None:
        msb, lsb = self._resolve_range(port.range, params)
        symbol = Symbol(
            name=port.name, kind=port.net_kind, span=port.span,
            msb=msb, lsb=lsb, signed=port.signed, direction=port.direction,
        )
        if not scope.declare(symbol):
            self.error(ErrorCategory.DUPLICATE_DECL, port.span, name=port.name, what="port")
            return
        width = symbol.width
        elab.ports.append(
            PortInfo(
                name=port.name, direction=port.direction, width=width,
                msb=msb if msb is not None else width - 1,
                lsb=lsb if lsb is not None else 0,
                signed=port.signed,
            )
        )

    def _declare_param(self, scope: Scope, params: dict[str, int], item: ast.ParamDecl) -> None:
        # Instance overrides (pre-seeded into ``params``) beat defaults;
        # localparams are never overridable.
        if item.name in params and not item.local:
            value: Optional[int] = params[item.name]
        else:
            value = const_eval(item.value, params)
        symbol = Symbol(
            name=item.name, kind="parameter", span=item.span, value=value,
        )
        if not scope.declare(symbol):
            self.error(ErrorCategory.DUPLICATE_DECL, item.span, name=item.name, what="parameter")
            return
        if value is not None:
            params[item.name] = value

    def _declare_net(self, scope: Scope, params: dict[str, int], item: ast.NetDecl) -> None:
        msb, lsb = self._resolve_range(item.range, params)
        existing = scope.lookup(item.name)
        if existing is not None and existing.is_port:
            # Non-ANSI style: `output q; reg q;` upgrades the port kind.
            if existing.kind == "wire" and item.net_kind in ("reg", "logic", "integer"):
                existing.kind = item.net_kind
                if msb is not None and existing.msb is None:
                    existing.msb, existing.lsb = msb, lsb
                return
            self.error(ErrorCategory.DUPLICATE_DECL, item.span, name=item.name, what="net")
            return
        array = None
        if item.array_range is not None:
            a_msb, a_lsb = self._resolve_range(item.array_range, params)
            if a_msb is not None and a_lsb is not None:
                array = (min(a_msb, a_lsb), max(a_msb, a_lsb))
        symbol = Symbol(
            name=item.name, kind=item.net_kind, span=item.span,
            msb=msb, lsb=lsb,
            signed=item.signed or item.net_kind in ("integer", "int"),
            array=array,
        )
        if not scope.declare(symbol):
            self.error(ErrorCategory.DUPLICATE_DECL, item.span, name=item.name, what="net")

    def _declare_function(
        self, scope: Scope, params: dict[str, int],
        item: ast.FunctionDecl, elab: ElabModule,
    ) -> None:
        msb, lsb = self._resolve_range(item.range, params)
        symbol = Symbol(
            name=item.name, kind="function", span=item.span,
            msb=msb, lsb=lsb, signed=item.signed,
        )
        if not scope.declare(symbol):
            self.error(ErrorCategory.DUPLICATE_DECL, item.span, name=item.name, what="function")
            return
        elab.functions[item.name] = item
        fn_scope = scope.child()
        for decl in item.inputs + item.decls:
            d_msb, d_lsb = self._resolve_range(decl.range, params)
            fn_scope.declare(
                Symbol(name=decl.name, kind=decl.net_kind, span=decl.span,
                       msb=d_msb, lsb=d_lsb, signed=decl.signed)
            )
        # The function name is the implicit return variable.
        fn_scope.declare(
            Symbol(name=item.name, kind="reg", span=item.span, msb=msb, lsb=lsb)
        )
        stub = ElabModule(name=elab.name, scope=fn_scope, params=params, ports=[])
        stub.functions = elab.functions
        self._check_stmt(stub, item.body, fn_scope, procedural=True)

    def _resolve_range(
        self, rng: Optional[ast.Range], params: dict[str, int]
    ) -> tuple[Optional[int], Optional[int]]:
        if rng is None:
            return None, None
        msb = const_eval(rng.msb, params)
        lsb = const_eval(rng.lsb, params)
        return msb, lsb

    # -- checks ------------------------------------------------------------

    def _check_continuous_assign(self, elab: ElabModule, item: ast.ContinuousAssign) -> None:
        self._check_lvalue(elab, item.lvalue, elab.scope, procedural=False)
        self._check_expr(elab, item.rhs, elab.scope)
        self._warn_literal_truncation(elab, item.lvalue, item.rhs)

    def _warn_literal_truncation(
        self, elab: ElabModule, lvalue: ast.Expr, rhs: ast.Expr
    ) -> None:
        """Quartus-style warning: an explicitly-sized literal wider than
        its target gets silently truncated."""
        if not isinstance(rhs, ast.Number) or rhs.width is None:
            return
        if not isinstance(lvalue, ast.Identifier):
            return
        symbol = elab.scope.lookup(lvalue.name)
        if symbol is None or symbol.kind in ("parameter", "function"):
            return
        target = symbol.width
        if rhs.width > target:
            self.sink.append(
                Diagnostic(
                    ErrorCategory.WIDTH_TRUNCATION,
                    rhs.span,
                    {
                        "name": lvalue.name,
                        "from_width": rhs.width,
                        "to_width": target,
                    },
                    severity=Severity.WARNING,
                )
            )

    def _check_always(self, elab: ElabModule, item: ast.AlwaysBlock) -> None:
        if item.sensitivity is not None:
            for sens in item.sensitivity.items:
                self._check_event_expr(elab, sens)
        scope = Scope(parent=elab.scope)
        self._check_stmt(elab, item.body, scope, procedural=True)

    def _check_event_expr(self, elab: ElabModule, sens: ast.SensItem) -> None:
        for expr in ast.walk_exprs(sens.expr):
            if isinstance(expr, ast.Identifier) and expr.name != "_error_":
                if elab.scope.lookup(expr.name) is None:
                    self.error(
                        ErrorCategory.UNDECLARED_ID, expr.span,
                        name=expr.name, what="event",
                    )

    def _check_stmt(self, elab: ElabModule, stmt: ast.Stmt, scope: Scope, procedural: bool) -> None:
        if self._over_budget("elaborated statements", getattr(stmt, "span", None)):
            return
        if isinstance(stmt, ast.Block):
            inner = scope.child()
            for decl in stmt.decls:
                msb, lsb = self._resolve_range(decl.range, elab.params)
                if not inner.declare(
                    Symbol(name=decl.name, kind=decl.net_kind, span=decl.span, msb=msb, lsb=lsb)
                ):
                    self.error(ErrorCategory.DUPLICATE_DECL, decl.span, name=decl.name, what="net")
            for child in stmt.stmts:
                self._check_stmt(elab, child, inner, procedural)
        elif isinstance(stmt, ast.ProcAssign):
            self._check_lvalue(elab, stmt.lvalue, scope, procedural=procedural)
            self._check_expr(elab, stmt.rhs, scope)
            self._warn_literal_truncation(elab, stmt.lvalue, stmt.rhs)
        elif isinstance(stmt, ast.If):
            self._check_expr(elab, stmt.cond, scope)
            self._check_stmt(elab, stmt.then, scope, procedural)
            if stmt.other is not None:
                self._check_stmt(elab, stmt.other, scope, procedural)
        elif isinstance(stmt, ast.Case):
            self._check_expr(elab, stmt.subject, scope)
            for case_item in stmt.items:
                for lab in case_item.labels:
                    self._check_expr(elab, lab, scope)
                self._check_stmt(elab, case_item.body, scope, procedural)
        elif isinstance(stmt, ast.For):
            self._check_for(elab, stmt, scope, procedural)
        elif isinstance(stmt, (ast.While, ast.Repeat)):
            self._check_expr(elab, stmt.cond if isinstance(stmt, ast.While) else stmt.count, scope)
            self._check_stmt(elab, stmt.body, scope, procedural)
        elif isinstance(stmt, ast.TaskCall):
            for arg in stmt.args:
                if not isinstance(arg, ast.StringLit):
                    self._check_expr(elab, arg, scope)

    def _check_for(self, elab: ElabModule, stmt: ast.For, scope: Scope, procedural: bool) -> None:
        inner = scope
        if stmt.inline_decl is not None:
            inner = scope.child()
            inner.declare(
                Symbol(name=stmt.inline_decl, kind="int", span=stmt.span)
            )
        if stmt.init is not None:
            self._check_lvalue(elab, stmt.init.lvalue, inner, procedural=procedural)
            self._check_expr(elab, stmt.init.rhs, inner)
        if stmt.cond is not None:
            self._check_expr(elab, stmt.cond, inner)
        if stmt.step is not None:
            self._check_expr(elab, stmt.step.rhs, inner)
        self._check_stmt(elab, stmt.body, inner, procedural)
        self._check_unrolled_indices(elab, stmt, inner)

    def _check_unrolled_indices(self, elab: ElabModule, stmt: ast.For, scope: Scope) -> None:
        """Quartus-style synthesis check: unroll static loops (including
        nested ones, with composed environments) and verify every index
        expression that becomes constant (Fig. 6 case).

        Each select is reported at most once and ``const_eval`` is pure,
        so the unroll stops as soon as every select that could ever be
        reported has been: a runaway loop (``i = i - 1``) costs a few
        iterations, not the whole budget."""
        pending = {
            id(expr) for expr in self._loop_selects(stmt)
            if self._checked_symbol(expr, scope) is not None
        }
        if pending:
            budget = [_MAX_UNROLL]
            self._unroll_and_check(stmt, scope, dict(elab.params), pending, budget)

    @staticmethod
    def _index_parts(stmt: ast.Stmt) -> tuple[list[ast.Expr], list[ast.Stmt]]:
        """The expressions the unrolled-index check reads in ``stmt``
        itself, and the child statements it descends into."""
        if isinstance(stmt, ast.Block):
            return [], list(stmt.stmts)
        if isinstance(stmt, ast.If):
            return [stmt.cond], [stmt.then] + ([stmt.other] if stmt.other else [])
        if isinstance(stmt, ast.Case):
            return [], [item.body for item in stmt.items]
        if isinstance(stmt, (ast.While, ast.Repeat, ast.For)):
            return [], [stmt.body]
        if isinstance(stmt, ast.ProcAssign):
            return [stmt.lvalue, stmt.rhs], []
        return [], []

    def _loop_selects(self, stmt: ast.Stmt):
        """Every ``Select`` the unrolled-index check can visit under
        ``stmt``, in any iteration."""
        exprs, children = self._index_parts(stmt)
        for root in exprs:
            for expr in ast.walk_exprs(root):
                if isinstance(expr, ast.Select):
                    yield expr
        for child in children:
            if child is not None:
                yield from self._loop_selects(child)

    def _unroll_and_check(
        self, stmt: ast.For, scope: Scope,
        env: dict[str, int], pending: set[int], budget: list[int],
    ) -> None:
        if stmt.init is None or stmt.cond is None or stmt.step is None:
            return
        if not isinstance(stmt.init.lvalue, ast.Identifier):
            return
        var = stmt.init.lvalue.name
        value = const_eval(stmt.init.rhs, env)
        if value is None:
            return
        while budget[0] > 0 and pending:
            budget[0] -= 1
            inner_env = dict(env)
            inner_env[var] = value
            cond = const_eval(stmt.cond, inner_env)
            if cond is None or not cond:
                return
            self._check_indices_in_env(stmt.body, scope, inner_env, pending, budget)
            nxt = const_eval(stmt.step.rhs, inner_env)
            if nxt is None or nxt == value:
                return
            value = nxt

    def _check_indices_in_env(
        self, stmt: ast.Stmt, scope: Scope,
        env: dict[str, int], pending: set[int], budget: list[int],
    ) -> None:
        """Report the selects in ``pending`` that ``env`` drives out of
        range, removing them from ``pending``."""
        if isinstance(stmt, ast.For):
            self._unroll_and_check(stmt, scope, env, pending, budget)
            return
        exprs, children = self._index_parts(stmt)
        for root in exprs:
            for expr in ast.walk_exprs(root):
                if id(expr) in pending and self._select_out_of_range(expr, scope, env):
                    pending.discard(id(expr))
        for child in children:
            if child is not None:
                self._check_indices_in_env(child, scope, env, pending, budget)

    @staticmethod
    def _checked_symbol(expr: ast.Select, scope: Scope) -> Optional[Symbol]:
        """The symbol whose range ``expr`` is checked against, or None
        when the unrolled-index check never reports ``expr``."""
        if not isinstance(expr.base, ast.Identifier):
            return None
        symbol = scope.lookup(expr.base.name)
        if symbol is None or symbol.kind in ("parameter", "function"):
            return None
        return symbol

    def _select_out_of_range(
        self, expr: ast.Select, scope: Scope, env: dict[str, int]
    ) -> bool:
        symbol = self._checked_symbol(expr, scope)
        if symbol is None:
            return False
        index = const_eval(expr.index, env)
        if index is None:
            return False
        if symbol.array is not None:
            lo, hi = symbol.array
            in_range = lo <= index <= hi
        else:
            in_range = symbol.index_in_range(index)
        if in_range:
            return False
        self.error(
            ErrorCategory.INDEX_RANGE, expr.span,
            name=expr.base.name, index=index,
            range=symbol.range_str() or "[0:0]",
        )
        return True

    def _check_lvalue(self, elab: ElabModule, expr: ast.Expr, scope: Scope, procedural: bool) -> None:
        if isinstance(expr, ast.Concat):
            for part in expr.parts:
                self._check_lvalue(elab, part, scope, procedural)
            return
        base = expr
        while isinstance(base, (ast.Select, ast.RangeSelect, ast.IndexedSelect)):
            # Index sub-expressions are ordinary reads.
            if isinstance(base, ast.Select):
                self._check_expr(elab, base.index, scope)
            elif isinstance(base, ast.RangeSelect):
                self._check_expr(elab, base.msb, scope)
                self._check_expr(elab, base.lsb, scope)
            else:
                self._check_expr(elab, base.start, scope)
                self._check_expr(elab, base.width, scope)
            base = base.base
        if not isinstance(base, ast.Identifier) or base.name == "_error_":
            return
        symbol = scope.lookup(base.name)
        if symbol is None:
            self.error(ErrorCategory.UNDECLARED_ID, base.span, name=base.name, what="lvalue")
            return
        if symbol.direction == "input":
            self.error(
                ErrorCategory.INVALID_LVALUE, base.span,
                name=base.name, reason="input port",
            )
        elif procedural and not symbol.is_variable and symbol.kind != "parameter":
            self.error(
                ErrorCategory.INVALID_LVALUE, base.span,
                name=base.name, reason="wire in procedural block",
            )
        elif not procedural and symbol.is_variable and symbol.kind != "genvar":
            self.error(
                ErrorCategory.INVALID_LVALUE, base.span,
                name=base.name, reason="reg in continuous assignment",
            )
        elif symbol.kind == "parameter":
            self.error(
                ErrorCategory.INVALID_LVALUE, base.span,
                name=base.name, reason="parameter",
            )
        # Constant index checks on the l-value itself.
        self._check_static_selects(elab, expr, scope)

    def _check_expr(self, elab: ElabModule, expr: ast.Expr, scope: Scope) -> None:
        for node in ast.walk_exprs(expr):
            if isinstance(node, ast.Identifier) and node.name != "_error_":
                if scope.lookup(node.name) is None:
                    self.error(ErrorCategory.UNDECLARED_ID, node.span, name=node.name, what="signal")
            elif isinstance(node, ast.FuncCall):
                symbol = scope.lookup(node.name)
                if symbol is None:
                    self.error(ErrorCategory.UNDECLARED_ID, node.span, name=node.name, what="function")
                elif symbol.kind != "function":
                    self.error(ErrorCategory.SYNTAX_NEAR, node.span, near=f"'{node.name}('")
        self._check_static_selects(elab, expr, scope)

    def _check_static_selects(self, elab: ElabModule, expr: ast.Expr, scope: Scope) -> None:
        for node in ast.walk_exprs(expr):
            if isinstance(node, ast.Select):
                self._select_out_of_range(node, scope, elab.params)
            elif isinstance(node, ast.RangeSelect) and isinstance(node.base, ast.Identifier):
                symbol = scope.lookup(node.base.name)
                if symbol is None or not symbol.is_vector:
                    continue
                msb = const_eval(node.msb, elab.params)
                lsb = const_eval(node.lsb, elab.params)
                for index in (msb, lsb):
                    if index is not None and not symbol.index_in_range(index):
                        self.error(
                            ErrorCategory.INDEX_RANGE, node.span,
                            name=node.base.name, index=index,
                            range=symbol.range_str(),
                        )
                        break

    # -- instances ---------------------------------------------------------

    def _collect_instance(self, elab: ElabModule, item: ast.Instantiation) -> None:
        if self._over_budget("elaborated instances", item.span):
            return
        for conn in item.connections:
            if conn.expr is not None:
                self._check_expr(elab, conn.expr, elab.scope)
        elab.instances.append(
            ResolvedInstance(
                instance_name=item.instance_name,
                module_name=item.module_name,
                port_map={},
                span=item.span,
            )
        )
        # Defer port-name resolution to _check_instances (needs all modules).
        elab.instances[-1].__dict__["_raw"] = item

    def _check_instances(self, design: ElabDesign) -> None:
        for elab in design.modules.values():
            for inst in elab.instances:
                raw: ast.Instantiation = inst.__dict__.pop("_raw")
                target = design.modules.get(inst.module_name)
                if target is None:
                    self.error(
                        ErrorCategory.UNDECLARED_ID, raw.span,
                        name=inst.module_name, what="module",
                    )
                    continue
                for override in raw.param_overrides:
                    if override.name is None or override.expr is None:
                        continue
                    value = const_eval(override.expr, elab.params)
                    if value is not None:
                        inst.param_values[override.name] = value
                resolve_instance_ports(inst, raw, target, report=self.error)


def resolve_instance_ports(
    inst: ResolvedInstance,
    raw: ast.Instantiation,
    target: ElabModule,
    report=None,
) -> None:
    """Fill ``inst.port_map`` from raw connections against the target
    module's declared ports, reporting mismatches via ``report``."""
    port_names = [p.name for p in target.ports]
    named = any(c.name is not None for c in raw.connections)
    if named:
        for conn in raw.connections:
            if conn.name is None:
                continue
            if conn.name not in port_names:
                if report is not None:
                    report(
                        ErrorCategory.PORT_MISMATCH, conn.span,
                        port=conn.name, module=inst.module_name,
                    )
                continue
            inst.port_map[conn.name] = conn.expr
    else:
        if len(raw.connections) > len(port_names) and report is not None:
            report(
                ErrorCategory.PORT_MISMATCH, raw.span,
                port=f"#{len(raw.connections)}", module=inst.module_name,
            )
        for name, conn in zip(port_names, raw.connections):
            inst.port_map[name] = conn.expr


def specialize_module(
    design: ElabDesign, module_name: str, overrides: dict[str, int]
) -> ElabModule:
    """Re-elaborate a module with per-instance parameter overrides
    applied (``sub #(.W(8)) u1 (...)``)."""
    base = design.modules[module_name]
    if base.source is None:
        return base
    sink: list[Diagnostic] = []  # already validated at design elaboration
    elaborator = Elaborator(ast.Design(), sink)
    specialized = elaborator._elaborate_module(base.source, overrides)
    for inst in specialized.instances:
        raw = inst.__dict__.pop("_raw")
        for override in raw.param_overrides:
            if override.name is not None and override.expr is not None:
                value = const_eval(override.expr, specialized.params)
                if value is not None:
                    inst.param_values[override.name] = value
        target = design.modules.get(inst.module_name)
        if target is not None:
            resolve_instance_ports(inst, raw, target)
    return specialized


def _substitute_ident(node: object, name: str, value: int) -> None:
    """Replace Identifier(name) with a Number(value) throughout an AST
    fragment, in place.  Used when unrolling generate loops."""
    if isinstance(node, ast.Identifier):
        return  # handled by the parent via fields below
    if not hasattr(node, "__dict__"):
        return
    for field_name, field_value in list(vars(node).items()):
        if isinstance(field_value, ast.Identifier) and field_value.name == name:
            setattr(node, field_name, ast.Number(span=field_value.span, bits=value, width=32))
        elif isinstance(field_value, list):
            for i, element in enumerate(field_value):
                if isinstance(element, ast.Identifier) and element.name == name:
                    field_value[i] = ast.Number(span=element.span, bits=value, width=32)
                else:
                    _substitute_ident(element, name, value)
        elif hasattr(field_value, "__dict__"):
            _substitute_ident(field_value, name, value)


def elaborate(
    design: ast.Design,
    sink: list[Diagnostic] | None = None,
    tracker: LimitTracker | None = None,
) -> ElabDesign:
    """Elaborate a parsed design, reporting problems into ``sink``.

    ``tracker`` carries the statement/instance budgets; one with default
    limits is created when omitted so elaboration is always bounded.
    """
    return Elaborator(
        design, sink if sink is not None else [], tracker=tracker
    ).elaborate()
