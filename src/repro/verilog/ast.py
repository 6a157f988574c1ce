"""AST node definitions for the supported Verilog subset.

Nodes are plain dataclasses.  Every node carries a :class:`Span` so
that later stages (elaboration, simulation, the repair strategies) can
point diagnostics and edits back at concrete source locations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional, Union

from .source import Span

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    span: Span


@dataclass
class Number(Expr):
    """Integer literal.  ``bits``/``xmask`` encode 4-state: a bit position
    set in ``xmask`` is X (if the matching ``bits`` bit is 0) or Z (if 1).
    """

    bits: int
    xmask: int = 0
    width: Optional[int] = None  # None: unsized decimal literal
    signed: bool = False
    zmask_is_z: bool = False  # retained for round-tripping 'z literals

    @property
    def is_fully_known(self) -> bool:
        return self.xmask == 0


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class Identifier(Expr):
    name: str = ""


@dataclass
class Select(Expr):
    """Single bit-select or memory word-select: ``base[index]``."""

    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class RangeSelect(Expr):
    """Constant part-select ``base[msb:lsb]``."""

    base: Expr = None  # type: ignore[assignment]
    msb: Expr = None  # type: ignore[assignment]
    lsb: Expr = None  # type: ignore[assignment]


@dataclass
class IndexedSelect(Expr):
    """Indexed part-select ``base[start +: width]`` / ``base[start -: width]``."""

    base: Expr = None  # type: ignore[assignment]
    start: Expr = None  # type: ignore[assignment]
    width: Expr = None  # type: ignore[assignment]
    ascending: bool = True


@dataclass
class Concat(Expr):
    parts: list[Expr] = field(default_factory=list)


@dataclass
class Replicate(Expr):
    count: Expr = None  # type: ignore[assignment]
    value: Concat = None  # type: ignore[assignment]


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    op: str = ""
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass
class Ternary(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    other: Expr = None  # type: ignore[assignment]


@dataclass
class FuncCall(Expr):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class SystemCall(Expr):
    """``$signed(...)``, ``$unsigned(...)``, ``$clog2(...)`` ..."""

    name: str = ""
    args: list[Expr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    span: Span


@dataclass
class NullStmt(Stmt):
    pass


@dataclass
class Block(Stmt):
    name: Optional[str] = None
    decls: list["NetDecl"] = field(default_factory=list)
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class ProcAssign(Stmt):
    """Procedural assignment, blocking (``=``) or nonblocking (``<=``)."""

    lvalue: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]
    blocking: bool = True


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    other: Optional[Stmt] = None


@dataclass
class CaseItem:
    labels: list[Expr]  # empty list means `default`
    body: Stmt


@dataclass
class Case(Stmt):
    kind: Literal["case", "casez", "casex"] = "case"
    subject: Expr = None  # type: ignore[assignment]
    items: list[CaseItem] = field(default_factory=list)


@dataclass
class For(Stmt):
    init: Optional[ProcAssign] = None
    cond: Optional[Expr] = None
    step: Optional[ProcAssign] = None
    body: Stmt = None  # type: ignore[assignment]
    #: Name declared inline (SystemVerilog ``for (int i = 0; ...)``).
    inline_decl: Optional[str] = None


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class Repeat(Stmt):
    count: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class TaskCall(Stmt):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Module items
# ---------------------------------------------------------------------------

Direction = Literal["input", "output", "inout"]
NetKind = Literal["wire", "reg", "logic", "integer", "int", "genvar", "real"]


@dataclass
class Range:
    """Declared packed range ``[msb:lsb]`` (expressions, usually constant)."""

    msb: Expr
    lsb: Expr
    span: Span


@dataclass
class PortDecl:
    direction: Direction
    net_kind: NetKind  # wire unless declared reg/logic
    range: Optional[Range]
    name: str
    signed: bool
    span: Span
    #: True when the reg/logic keyword appeared explicitly.
    explicit_kind: bool = False


@dataclass
class NetDecl:
    net_kind: NetKind
    range: Optional[Range]
    name: str
    span: Span
    signed: bool = False
    #: Unpacked (memory) dimension, e.g. ``reg [7:0] mem [0:255]``.
    array_range: Optional[Range] = None
    init: Optional[Expr] = None


@dataclass
class ParamDecl:
    name: str
    value: Expr
    span: Span
    local: bool = False
    range: Optional[Range] = None


@dataclass
class ContinuousAssign:
    lvalue: Expr
    rhs: Expr
    span: Span


@dataclass
class SensItem:
    edge: Optional[Literal["posedge", "negedge"]]
    expr: Expr
    span: Span


@dataclass
class SensList:
    """``@*`` / ``@(*)`` is represented with ``star=True`` and no items."""

    items: list[SensItem]
    star: bool
    span: Span


@dataclass
class AlwaysBlock:
    kind: Literal["always", "always_comb", "always_ff", "always_latch"]
    sensitivity: Optional[SensList]
    body: Stmt
    span: Span


@dataclass
class InitialBlock:
    body: Stmt
    span: Span


@dataclass
class FunctionDecl:
    name: str
    range: Optional[Range]
    inputs: list[NetDecl]
    decls: list[NetDecl]
    body: Stmt
    span: Span
    signed: bool = False


@dataclass
class PortConnection:
    """``.name(expr)`` (named) or positional (``name is None``)."""

    name: Optional[str]
    expr: Optional[Expr]
    span: Span


@dataclass
class Instantiation:
    module_name: str
    instance_name: str
    connections: list[PortConnection]
    span: Span
    param_overrides: list[PortConnection] = field(default_factory=list)


@dataclass
class GenerateFor:
    """Module-level ``for`` over a genvar with a body of module items."""

    genvar: str
    init: Expr
    cond: Expr
    step: Expr
    label: Optional[str]
    items: list["ModuleItem"]
    span: Span


ModuleItem = Union[
    PortDecl,
    NetDecl,
    ParamDecl,
    ContinuousAssign,
    AlwaysBlock,
    InitialBlock,
    FunctionDecl,
    Instantiation,
    GenerateFor,
]


@dataclass
class Module:
    name: str
    ports: list[PortDecl]
    items: list[ModuleItem]
    span: Span
    #: Port declaration order (names), for positional connections.
    port_order: list[str] = field(default_factory=list)


@dataclass
class Design:
    """One or more modules from a single compilation unit."""

    modules: dict[str, Module] = field(default_factory=dict)
    #: Name of the module to treat as top (first declared by default).
    top: Optional[str] = None

    def top_module(self) -> Optional[Module]:
        if self.top is not None and self.top in self.modules:
            return self.modules[self.top]
        return next(iter(self.modules.values()), None)


def walk_exprs(expr: Expr):
    """Yield ``expr`` and all sub-expressions, depth-first."""
    yield expr
    children: list[Expr] = []
    if isinstance(expr, Select):
        children = [expr.base, expr.index]
    elif isinstance(expr, RangeSelect):
        children = [expr.base, expr.msb, expr.lsb]
    elif isinstance(expr, IndexedSelect):
        children = [expr.base, expr.start, expr.width]
    elif isinstance(expr, Concat):
        children = list(expr.parts)
    elif isinstance(expr, Replicate):
        children = [expr.count, expr.value]
    elif isinstance(expr, Unary):
        children = [expr.operand]
    elif isinstance(expr, Binary):
        children = [expr.lhs, expr.rhs]
    elif isinstance(expr, Ternary):
        children = [expr.cond, expr.then, expr.other]
    elif isinstance(expr, (FuncCall, SystemCall)):
        children = list(expr.args)
    for child in children:
        if child is not None:
            yield from walk_exprs(child)
