"""Recursive-descent parser for the supported Verilog subset.

The parser is *error-tolerant*: syntax problems are reported as
diagnostics in the shared sink and parsing continues with local
recovery, so a single run reports multiple independent errors the way
iverilog and Quartus do.  The categories it distinguishes --
MISSING_SEMICOLON, UNBALANCED_BLOCK, C_STYLE_SYNTAX, EVENT_EXPR,
BAD_LITERAL and the generic SYNTAX_NEAR -- are exactly the syntactic
error classes exercised by the paper's debugging dataset.
"""

from __future__ import annotations

from typing import NoReturn

from ..diagnostics.codes import ErrorCategory
from ..diagnostics.diagnostic import Diagnostic
from . import ast
from .limits import LimitTracker
from .literal import ParsedLiteral, parse_literal
from .source import SourceFile, Span
from .tokens import Token, TokenKind

#: Binary operator precedence, higher binds tighter.
_BINARY_PREC: dict[str, int] = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4, "^~": 4, "~^": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
    "**": 11,
}

_UNARY_OPS = frozenset(["!", "~", "&", "~&", "|", "~|", "^", "~^", "^~", "+", "-"])

_C_STYLE_OPS = frozenset(["++", "--", "+=", "-=", "*=", "/=", "<<=", ">>="])

_NET_KINDS = frozenset(["wire", "reg", "logic", "integer", "int", "genvar", "real"])

_MAX_ERRORS = 25

_PUNCT = TokenKind.PUNCT
_KEYWORD = TokenKind.KEYWORD
_IDENT = TokenKind.IDENT
_EOF = TokenKind.EOF


class _GiveUp(Exception):
    """Internal signal: too many cascading errors, or nesting past the
    depth budget; abandon the parse.  Only :meth:`Parser.parse_design`
    catches it, and it returns at once without reading parser state."""


class Parser:
    """Parses a token stream into a :class:`repro.verilog.ast.Design`.

    ``tokens`` ends with its one EOF token, as :func:`tokenize` returns
    it, so stepping past any other token stays in range.  Each recursion
    level charges one unit of ``max_parse_depth`` (read once, here),
    checked at the token where it opens and released by a plain
    assignment on return; see DESIGN.md, "Front-end hot paths".
    """

    def __init__(
        self,
        tokens: list[Token],
        sink: list[Diagnostic],
        tracker: LimitTracker | None = None,
    ):
        self.tokens = tokens
        self.pos = 0
        self.sink = sink
        self._error_count = 0
        #: the position at which recovery last reported, to suppress a
        #: duplicate diagnostic for the same token; any step forward (and
        #: ``advance`` at EOF) clears it.
        self._recovered_at = -1
        #: Resource budgets; a private tracker with default limits keeps
        #: deeply-nested input from blowing the Python stack even when the
        #: caller did not supply one.
        self.tracker = tracker if tracker is not None else LimitTracker()
        self._max_depth = self.tracker.limits.limit_for("parse nesting depth")
        self._depth = 0
        #: literal text -> parsed value; a design repeats its literals.
        self._literals: dict[str, ParsedLiteral] = {}

    # -- recursion guard ----------------------------------------------

    def _too_deep(self) -> NoReturn:
        """Report the exhausted ``max_parse_depth`` budget at the current
        token (once) and abandon the parse -- e.g. the 10k-deep
        parenthesis bomb stops well clear of Python's recursion limit."""
        self.tracker.report_overflow(
            "parse nesting depth", self.tokens[self.pos].span, self.sink
        )
        raise _GiveUp()

    # -- token helpers -------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        """Consume and return the current token; EOF is never consumed."""
        pos = self.pos
        tok = self.tokens[pos]
        if tok.kind is not _EOF:
            self.pos = pos + 1
        self._recovered_at = -1
        return tok

    def at_eof(self) -> bool:
        return self.tokens[self.pos].kind is _EOF

    def accept_punct(self, value: str) -> Token | None:
        pos = self.pos
        tok = self.tokens[pos]
        if tok.value == value and tok.kind is _PUNCT:
            self.pos = pos + 1
            return tok
        return None

    def accept_keyword(self, value: str) -> Token | None:
        pos = self.pos
        tok = self.tokens[pos]
        if tok.value == value and tok.kind is _KEYWORD:
            self.pos = pos + 1
            return tok
        return None

    # -- diagnostics ---------------------------------------------------

    def error(self, category: ErrorCategory, span: Span, **args: object) -> None:
        if self._error_count >= _MAX_ERRORS:
            raise _GiveUp()
        self._error_count += 1
        self.sink.append(Diagnostic(category, span, dict(args)))

    def syntax_near(self) -> None:
        token = self.tokens[self.pos]
        self.error(ErrorCategory.SYNTAX_NEAR, token.span, near=token.describe())

    def _recover(self) -> None:
        """Report a syntax error at the current token unless recovery
        already did so there."""
        if self._recovered_at != self.pos:
            self.syntax_near()
        self._recovered_at = self.pos

    def expect_punct(self, value: str) -> Token:
        pos = self.pos
        tok = self.tokens[pos]
        if tok.value == value and tok.kind is _PUNCT:
            self.pos = pos + 1
            return tok
        if value == ";":
            # A distinct, retrievable category: the most common slip.
            prev = self.tokens[max(0, pos - 1)]
            self.error(ErrorCategory.MISSING_SEMICOLON, prev.span, before=tok.describe())
            return prev
        self._recover()
        return tok

    def expect_keyword(self, value: str) -> Token:
        tok = self.accept_keyword(value)
        if tok is not None:
            return tok
        tok = self.tokens[self.pos]
        if value in ("end", "endmodule", "endcase", "endfunction", "endgenerate"):
            self.error(
                ErrorCategory.UNBALANCED_BLOCK, tok.span,
                expected=value, near=tok.describe(),
            )
            self._recovered_at = self.pos
        else:
            self._recover()
        return tok

    def expect_ident(self) -> str:
        pos = self.pos
        tok = self.tokens[pos]
        if tok.kind is _IDENT:
            self.pos = pos + 1
            return tok.value
        self._recover()
        return "_error_"

    # -- entry point ----------------------------------------------------

    def parse_design(self) -> ast.Design:
        design = ast.Design()
        try:
            while not self.at_eof():
                if self.cur.is_keyword("module"):
                    module = self.parse_module()
                    if module.name not in design.modules:
                        design.modules[module.name] = module
                        if design.top is None:
                            design.top = module.name
                    else:
                        self.error(
                            ErrorCategory.DUPLICATE_DECL, module.span,
                            name=module.name, what="module",
                        )
                else:
                    self.syntax_near()
                    self.advance()
        except _GiveUp:
            pass
        return design

    # -- module ----------------------------------------------------------

    def parse_module(self) -> ast.Module:
        start = self.expect_keyword("module")
        name = self.expect_ident()
        ports: list[ast.PortDecl] = []
        port_order: list[str] = []
        items: list[ast.ModuleItem] = []

        if self.cur.is_punct("#"):
            self.advance()
            self.expect_punct("(")
            items.extend(self._parse_param_port_list())
        if self.accept_punct("("):
            ports, port_order = self._parse_port_list()
        self.expect_punct(";")

        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.kind is _EOF or tok.value == "endmodule" and tok.kind is _KEYWORD:
                break
            if tok.value == "module" and tok.kind is _KEYWORD:
                # A new module header before endmodule: missing endmodule.
                self.error(
                    ErrorCategory.UNBALANCED_BLOCK, tok.span,
                    expected="endmodule", near="'module'",
                )
                break
            before = self.pos
            item = self.parse_module_item(ports, port_order)
            if item is not None:
                items.append(item)
            if self.pos == before:
                self.syntax_near()
                self.advance()
        end = self.cur
        self.expect_keyword("endmodule")
        span = start.span.to(end.span)
        return ast.Module(name=name, ports=ports, items=items, span=span, port_order=port_order)

    def _parse_param_port_list(self) -> list[ast.ParamDecl]:
        params: list[ast.ParamDecl] = []
        while not self.at_eof() and not self.cur.is_punct(")"):
            self.accept_keyword("parameter")
            rng = self._parse_optional_range()
            name_tok = self.cur
            name = self.expect_ident()
            self.expect_punct("=")
            value = self.parse_expr()
            params.append(ast.ParamDecl(name=name, value=value, span=name_tok.span, range=rng))
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return params

    def _parse_port_list(self) -> tuple[list[ast.PortDecl], list[str]]:
        ports: list[ast.PortDecl] = []
        order: list[str] = []
        direction: str | None = None
        net_kind = "wire"
        explicit = False
        signed = False
        rng: ast.Range | None = None
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            kind = tok.kind
            if kind is _EOF or tok.value == ")" and kind is _PUNCT:
                break
            if kind is _KEYWORD and tok.value in ("input", "output", "inout"):
                direction = tok.value
                self.pos += 1
                tok = tokens[self.pos]
                explicit = tok.kind is _KEYWORD and tok.value in _NET_KINDS
                if explicit:
                    self.pos += 1
                net_kind = tok.value if explicit else "wire"
                signed = self.accept_keyword("signed") is not None
                rng = self._parse_optional_range()
            elif kind is _IDENT:
                self.pos += 1
                order.append(tok.value)
                if direction is not None:
                    ports.append(
                        ast.PortDecl(
                            direction=direction, net_kind=net_kind, range=rng,  # type: ignore[arg-type]
                            name=tok.value, signed=signed, span=tok.span, explicit_kind=explicit,
                        )
                    )
                if not self.accept_punct(","):
                    break
            else:
                self.syntax_near()
                self.advance()
        self.expect_punct(")")
        return ports, order

    # -- module items ------------------------------------------------------

    def parse_module_item(
        self, ports: list[ast.PortDecl], port_order: list[str]
    ) -> ast.ModuleItem | None:
        depth = self._depth
        if depth >= self._max_depth:
            self._too_deep()
        self._depth = depth + 1
        tok = self.tokens[self.pos]
        item = None
        if tok.kind is _KEYWORD:
            handler = _ITEM_PARSERS.get(tok.value)
            if handler is not None:
                item = handler(self)
            elif tok.value in ("input", "output", "inout"):
                self._parse_nonansi_port(ports, port_order)
            else:
                self.syntax_near()
                self.advance()
        elif tok.kind is _IDENT:
            item = self._parse_instantiation()
        elif tok.value == ";" and tok.kind is _PUNCT:
            self.pos += 1
        else:
            self.syntax_near()
            self.advance()
        self._depth = depth
        return item

    def _parse_optional_range(self) -> ast.Range | None:
        start = self.tokens[self.pos]
        if start.value != "[" or start.kind is not _PUNCT:
            return None
        self.pos += 1
        msb = self.parse_expr()
        self.expect_punct(":")
        lsb = self.parse_expr()
        end = self.cur
        self.expect_punct("]")
        return ast.Range(msb=msb, lsb=lsb, span=start.span.to(end.span))

    def _parse_nonansi_port(
        self, ports: list[ast.PortDecl], port_order: list[str]
    ) -> None:
        direction = self.advance().value
        net_kind = "wire"
        explicit = False
        if self.cur.kind is TokenKind.KEYWORD and self.cur.value in _NET_KINDS:
            net_kind = self.advance().value
            explicit = True
        signed = self.accept_keyword("signed") is not None
        rng = self._parse_optional_range()
        while True:
            tok = self.cur
            name = self.expect_ident()
            decl = ast.PortDecl(
                direction=direction, net_kind=net_kind, range=rng,  # type: ignore[arg-type]
                name=name, signed=signed, span=tok.span, explicit_kind=explicit,
            )
            existing = next((i for i, p in enumerate(ports) if p.name == name), None)
            if existing is not None:
                ports[existing] = decl
            else:
                ports.append(decl)
                if name not in port_order:
                    port_order.append(name)
            if not self.accept_punct(","):
                break
        self.expect_punct(";")

    def _parse_net_decl(self) -> ast.NetDecl:
        kind_tok = self.advance()
        signed = self.accept_keyword("signed") is not None
        rng = self._parse_optional_range()
        decls: list[ast.NetDecl] = []
        while True:
            tok = self.cur
            name = self.expect_ident()
            array_range = self._parse_optional_range()
            init = None
            if self.accept_punct("="):
                init = self.parse_expr()
            decls.append(
                ast.NetDecl(
                    net_kind=kind_tok.value, range=rng, name=name, span=tok.span,  # type: ignore[arg-type]
                    signed=signed, array_range=array_range, init=init,
                )
            )
            if not self.accept_punct(","):
                break
        self.expect_punct(";")
        # Represent multi-name declarations by chaining extras through a
        # synthetic container: caller expects a single item, so we return
        # the first and stash the rest as siblings.
        first = decls[0]
        if len(decls) > 1:
            first.__dict__["_siblings"] = decls[1:]
        return first

    def _parse_param(self) -> ast.ParamDecl:
        local = self.advance().value == "localparam"
        rng = self._parse_optional_range()
        tok = self.cur
        name = self.expect_ident()
        self.expect_punct("=")
        value = self.parse_expr()
        extras: list[ast.ParamDecl] = []
        while self.accept_punct(","):
            etok = self.cur
            ename = self.expect_ident()
            self.expect_punct("=")
            evalue = self.parse_expr()
            extras.append(ast.ParamDecl(name=ename, value=evalue, span=etok.span, local=local, range=rng))
        self.expect_punct(";")
        decl = ast.ParamDecl(name=name, value=value, span=tok.span, local=local, range=rng)
        if extras:
            decl.__dict__["_siblings"] = extras
        return decl

    def _parse_continuous_assign(self) -> ast.ContinuousAssign:
        start = self.advance()  # 'assign'
        self._skip_delay()
        lvalue = self._parse_primary()
        self.expect_punct("=")
        rhs = self.parse_expr()
        extras: list[ast.ContinuousAssign] = []
        while self.accept_punct(","):
            lv2 = self._parse_primary()
            self.expect_punct("=")
            rhs2 = self.parse_expr()
            extras.append(ast.ContinuousAssign(lvalue=lv2, rhs=rhs2, span=start.span))
        self.expect_punct(";")
        item = ast.ContinuousAssign(lvalue=lvalue, rhs=rhs, span=start.span.to(rhs.span))
        if extras:
            item.__dict__["_siblings"] = extras
        return item

    def _skip_delay(self) -> None:
        if self.accept_punct("#"):
            if self.accept_punct("("):
                self.parse_expr()
                self.expect_punct(")")
            elif self.cur.kind in (TokenKind.NUMBER, TokenKind.REAL):
                self.advance()

    def _parse_always(self) -> ast.AlwaysBlock:
        kind_tok = self.advance()
        sens: ast.SensList | None = None
        if self.cur.is_punct("@") or self.cur.is_punct("@*"):
            sens = self._parse_sensitivity()
        elif kind_tok.value == "always":
            # A bare `always` without any event control is a simulation
            # infinite loop; flag it as a bad event expression.
            self.error(ErrorCategory.EVENT_EXPR, kind_tok.span, reason="missing event control")
        body = self.parse_stmt()
        return ast.AlwaysBlock(
            kind=kind_tok.value, sensitivity=sens, body=body,  # type: ignore[arg-type]
            span=kind_tok.span.to(body.span),
        )

    def _parse_sensitivity(self) -> ast.SensList:
        at = self.advance()
        if at.value == "@*":
            return ast.SensList(items=[], star=True, span=at.span)
        if self.accept_punct("*"):
            return ast.SensList(items=[], star=True, span=at.span)
        if not self.accept_punct("("):
            self.error(ErrorCategory.EVENT_EXPR, at.span, reason="expected '(' after '@'")
            return ast.SensList(items=[], star=True, span=at.span)
        if self.accept_punct("*"):
            self.expect_punct(")")
            return ast.SensList(items=[], star=True, span=at.span)
        items: list[ast.SensItem] = []
        if self.cur.is_punct(")"):
            self.error(ErrorCategory.EVENT_EXPR, at.span, reason="empty event control")
            self.advance()
            return ast.SensList(items=[], star=True, span=at.span)
        while True:
            edge = None
            tok = self.cur
            if tok.is_keyword("posedge") or tok.is_keyword("negedge"):
                edge = self.advance().value
                if self.cur.is_punct(")") or self.cur.is_keyword("or") or self.cur.is_punct(","):
                    self.error(
                        ErrorCategory.EVENT_EXPR, tok.span,
                        reason=f"missing expression after '{edge}'",
                    )
                    expr: ast.Expr = ast.Identifier(span=tok.span, name="_error_")
                else:
                    expr = self.parse_expr()
            else:
                expr = self.parse_expr()
            items.append(ast.SensItem(edge=edge, expr=expr, span=tok.span))  # type: ignore[arg-type]
            if self.accept_keyword("or") or self.accept_punct(","):
                continue
            break
        self.expect_punct(")")
        return ast.SensList(items=items, star=False, span=at.span)

    def _parse_initial(self) -> ast.InitialBlock:
        start = self.advance()
        body = self.parse_stmt()
        return ast.InitialBlock(body=body, span=start.span.to(body.span))

    def _parse_function(self) -> ast.FunctionDecl:
        start = self.advance()  # 'function'
        self.accept_keyword("automatic")
        signed = self.accept_keyword("signed") is not None
        rng = self._parse_optional_range()
        name = self.expect_ident()
        inputs: list[ast.NetDecl] = []
        if self.accept_punct("("):
            while not self.at_eof() and not self.cur.is_punct(")"):
                self.accept_keyword("input")
                in_signed = self.accept_keyword("signed") is not None
                in_rng = self._parse_optional_range()
                tok = self.cur
                in_name = self.expect_ident()
                inputs.append(
                    ast.NetDecl(net_kind="reg", range=in_rng, name=in_name,
                                span=tok.span, signed=in_signed)
                )
                if not self.accept_punct(","):
                    break
            self.expect_punct(")")
        self.expect_punct(";")
        decls: list[ast.NetDecl] = []
        while self.cur.kind is TokenKind.KEYWORD and self.cur.value in ("input", "reg", "integer", "int", "logic"):
            is_input = self.cur.value == "input"
            decl = self._parse_function_local()
            target = inputs if is_input else decls
            target.extend(decl)
        body = self.parse_stmt()
        self.expect_keyword("endfunction")
        return ast.FunctionDecl(
            name=name, range=rng, inputs=inputs, decls=decls, body=body,
            span=start.span.to(body.span), signed=signed,
        )

    def _parse_function_local(self) -> list[ast.NetDecl]:
        kind = self.advance().value
        if kind == "input":
            kind = "reg"
        signed = self.accept_keyword("signed") is not None
        rng = self._parse_optional_range()
        out: list[ast.NetDecl] = []
        while True:
            tok = self.cur
            name = self.expect_ident()
            out.append(ast.NetDecl(net_kind=kind, range=rng, name=name, span=tok.span, signed=signed))  # type: ignore[arg-type]
            if not self.accept_punct(","):
                break
        self.expect_punct(";")
        return out

    def _parse_generate(self) -> ast.GenerateFor | None:
        self.advance()  # 'generate'
        item: ast.GenerateFor | None = None
        while not self.at_eof() and not self.cur.is_keyword("endgenerate"):
            if self.cur.is_keyword("for"):
                gen = self._parse_generate_for()
                if item is None:
                    item = gen
                else:
                    item.__dict__.setdefault("_siblings", []).append(gen)
            elif self.cur.is_keyword("genvar"):
                self._parse_net_decl()
            else:
                self.syntax_near()
                self.advance()
        self.expect_keyword("endgenerate")
        return item

    def _parse_generate_for(self) -> ast.GenerateFor:
        start = self.advance()  # 'for'
        self.expect_punct("(")
        genvar = self.expect_ident()
        self.expect_punct("=")
        init = self.parse_expr()
        self.expect_punct(";")
        cond = self.parse_expr()
        self.expect_punct(";")
        self.expect_ident()
        self.expect_punct("=")
        step = self.parse_expr()
        self.expect_punct(")")
        label: str | None = None
        items: list[ast.ModuleItem] = []
        if self.accept_keyword("begin"):
            if self.accept_punct(":"):
                label = self.expect_ident()
            while not self.at_eof() and not self.cur.is_keyword("end"):
                before = self.pos
                item = self.parse_module_item([], [])
                if item is not None:
                    items.append(item)
                if self.pos == before:
                    self.syntax_near()
                    self.advance()
            self.expect_keyword("end")
        else:
            item = self.parse_module_item([], [])
            if item is not None:
                items.append(item)
        return ast.GenerateFor(
            genvar=genvar, init=init, cond=cond, step=step, label=label,
            items=items, span=start.span,
        )

    def _parse_instantiation(self) -> ast.Instantiation | None:
        module_tok = self.advance()
        param_overrides: list[ast.PortConnection] = []
        if self.accept_punct("#"):
            self.expect_punct("(")
            param_overrides = self._parse_connection_list()
        inst_tok = self.cur
        if inst_tok.kind is not TokenKind.IDENT:
            self.syntax_near()
            return None
        inst_name = self.advance().value
        self.expect_punct("(")
        connections = self._parse_connection_list()
        self.expect_punct(";")
        return ast.Instantiation(
            module_name=module_tok.value, instance_name=inst_name,
            connections=connections, span=module_tok.span.to(inst_tok.span),
            param_overrides=param_overrides,
        )

    def _parse_connection_list(self) -> list[ast.PortConnection]:
        conns: list[ast.PortConnection] = []
        while not self.at_eof() and not self.cur.is_punct(")"):
            tok = self.cur
            if self.accept_punct("."):
                name = self.expect_ident()
                self.expect_punct("(")
                expr = None if self.cur.is_punct(")") else self.parse_expr()
                self.expect_punct(")")
                conns.append(ast.PortConnection(name=name, expr=expr, span=tok.span))
            else:
                expr = self.parse_expr()
                conns.append(ast.PortConnection(name=None, expr=expr, span=tok.span))
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return conns

    # -- statements -----------------------------------------------------

    def parse_stmt(self) -> ast.Stmt:
        depth = self._depth
        if depth >= self._max_depth:
            self._too_deep()
        self._depth = depth + 1
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind is _IDENT:
            stmt = self._parse_assignment_stmt()
        elif kind is _KEYWORD and tok.value in _STMT_PARSERS:
            stmt = _STMT_PARSERS[tok.value](self)
        elif kind is _PUNCT and tok.value == ";":
            self.pos += 1
            stmt = ast.NullStmt(span=tok.span)
        elif kind is _PUNCT and tok.value in ("#", "@"):
            self._skip_timing_control()
            stmt = self.parse_stmt()
        elif kind is _PUNCT and tok.value == "{":
            stmt = self._parse_assignment_stmt()
        elif kind is TokenKind.SYSTEM_IDENT:
            stmt = self._parse_task_call()
        else:
            self.syntax_near()
            self.advance()
            stmt = ast.NullStmt(span=tok.span)
        self._depth = depth
        return stmt

    def _skip_timing_control(self) -> None:
        if self.accept_punct("#"):
            if self.cur.kind in (TokenKind.NUMBER, TokenKind.REAL):
                self.advance()
            return
        if self.accept_punct("@"):
            if self.accept_punct("("):
                depth = 1
                while not self.at_eof() and depth:
                    if self.cur.is_punct("("):
                        depth += 1
                    elif self.cur.is_punct(")"):
                        depth -= 1
                    self.advance()
            elif self.cur.kind is TokenKind.IDENT:
                self.advance()

    def _parse_block(self) -> ast.Block:
        start = self.advance()  # 'begin'
        name: str | None = None
        if self.accept_punct(":"):
            name = self.expect_ident()
        decls: list[ast.NetDecl] = []
        stmts: list[ast.Stmt] = []
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.kind is _EOF:
                break
            if tok.kind is _KEYWORD:
                if tok.value == "end":
                    break
                if tok.value in ("endmodule", "endcase"):
                    # begin-block left open
                    self.error(
                        ErrorCategory.UNBALANCED_BLOCK, tok.span,
                        expected="end", near=tok.describe(),
                    )
                    span = start.span.to(tok.span)
                    return ast.Block(span=span, name=name, decls=decls, stmts=stmts)
                if tok.value in ("reg", "integer", "int", "logic"):
                    decl = self._parse_net_decl()
                    decls.append(decl)
                    decls.extend(decl.__dict__.get("_siblings", []))
                    continue
            before = self.pos
            stmts.append(self.parse_stmt())
            if self.pos == before:
                self.advance()
        end = tokens[self.pos]
        self.expect_keyword("end")
        if self.accept_punct(":"):
            self.expect_ident()
        return ast.Block(span=start.span.to(end.span), name=name, decls=decls, stmts=stmts)

    def _parse_if(self) -> ast.If:
        start = self.advance()
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        then = self.parse_stmt()
        other: ast.Stmt | None = None
        if self.accept_keyword("else"):
            other = self.parse_stmt()
        return ast.If(span=start.span.to(then.span), cond=cond, then=then, other=other)

    def _parse_case(self) -> ast.Case:
        start = self.advance()
        kind = start.value
        self.expect_punct("(")
        subject = self.parse_expr()
        self.expect_punct(")")
        items: list[ast.CaseItem] = []
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.kind is _EOF:
                break
            if tok.kind is _KEYWORD:
                if tok.value == "endcase":
                    break
                if tok.value == "endmodule":
                    self.error(
                        ErrorCategory.UNBALANCED_BLOCK, tok.span,
                        expected="endcase", near="'endmodule'",
                    )
                    break
                if tok.value == "default":
                    self.pos += 1
                    self.accept_punct(":")
                    items.append(ast.CaseItem(labels=[], body=self.parse_stmt()))
                    continue
            labels = [self.parse_expr()]
            while self.accept_punct(","):
                labels.append(self.parse_expr())
            self.expect_punct(":")
            items.append(ast.CaseItem(labels=labels, body=self.parse_stmt()))
        self.expect_keyword("endcase")
        return ast.Case(span=start.span, kind=kind, subject=subject, items=items)  # type: ignore[arg-type]

    def _parse_for(self) -> ast.For:
        start = self.advance()
        self.expect_punct("(")
        inline_decl: str | None = None
        if self.cur.kind is TokenKind.KEYWORD and self.cur.value in ("int", "integer"):
            self.advance()
            inline_decl = self.cur.value if self.cur.kind is TokenKind.IDENT else None
        init = self._parse_for_assign()
        self.expect_punct(";")
        cond = self.parse_expr()
        self.expect_punct(";")
        step = self._parse_for_assign()
        self.expect_punct(")")
        body = self.parse_stmt()
        return ast.For(
            span=start.span.to(body.span), init=init, cond=cond, step=step,
            body=body, inline_decl=inline_decl,
        )

    def _parse_for_assign(self) -> ast.ProcAssign | None:
        if self.cur.is_punct(";") or self.cur.is_punct(")"):
            return None
        tok = self.cur
        lvalue = self._parse_primary()
        if self.cur.kind is TokenKind.PUNCT and self.cur.value in _C_STYLE_OPS:
            return self._recover_c_style(lvalue)
        self.expect_punct("=")
        rhs = self.parse_expr()
        return ast.ProcAssign(span=tok.span.to(rhs.span), lvalue=lvalue, rhs=rhs, blocking=True)

    def _recover_c_style(self, lvalue: ast.Expr) -> ast.ProcAssign:
        """Report C-style ``i++`` / ``i += k`` and recover to Verilog form."""
        op_tok = self.advance()
        self.error(ErrorCategory.C_STYLE_SYNTAX, op_tok.span, op=op_tok.value)
        span = lvalue.span.to(op_tok.span)
        if op_tok.value in ("++", "--"):
            one = ast.Number(span=op_tok.span, bits=1, width=None)
            rhs: ast.Expr = ast.Binary(span=span, op=op_tok.value[0], lhs=lvalue, rhs=one)
        else:
            amount = self.parse_expr()
            rhs = ast.Binary(span=span, op=op_tok.value[0], lhs=lvalue, rhs=amount)
        return ast.ProcAssign(span=span, lvalue=lvalue, rhs=rhs, blocking=True)

    def _parse_while(self) -> ast.While:
        start = self.advance()
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        body = self.parse_stmt()
        return ast.While(span=start.span.to(body.span), cond=cond, body=body)

    def _parse_repeat(self) -> ast.Repeat:
        start = self.advance()
        self.expect_punct("(")
        count = self.parse_expr()
        self.expect_punct(")")
        body = self.parse_stmt()
        return ast.Repeat(span=start.span.to(body.span), count=count, body=body)

    def _parse_task_call(self) -> ast.TaskCall:
        tok = self.advance()
        args = self._parse_args() if self.accept_punct("(") else []
        self.expect_punct(";")
        return ast.TaskCall(span=tok.span, name=tok.value, args=args)

    def _parse_assignment_stmt(self) -> ast.Stmt:
        tokens = self.tokens
        tok = tokens[self.pos]
        lvalue = self._parse_primary()
        op = tokens[self.pos]
        if op.kind is _PUNCT:
            if op.value == "<=" or op.value == "=":
                self.pos += 1
                self._skip_delay()
                rhs = self.parse_expr()
                self.expect_punct(";")
                return ast.ProcAssign(tok.span.to(rhs.span), lvalue, rhs, op.value == "=")
            if op.value in _C_STYLE_OPS:
                stmt = self._recover_c_style(lvalue)
                self.expect_punct(";")
                return stmt
        self.syntax_near()
        self.advance()
        return ast.NullStmt(span=tok.span)

    # -- expressions -----------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        """An expression: a conditional over binary operators.  Its depth
        level is checked by the two :meth:`_parse_binary` opens at the
        same token.  (An lvalue is a :meth:`_parse_primary`.)"""
        depth = self._depth
        self._depth = depth + 1
        cond = self._parse_binary(0)
        tok = self.tokens[self.pos]
        if tok.value == "?" and tok.kind is _PUNCT:
            self.pos += 1
            then = self.parse_expr()
            self.expect_punct(":")
            other = self.parse_expr()
            cond = ast.Ternary(cond.span.to(other.span), cond, then, other)
        self._depth = depth
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        """Operators of precedence ``min_prec`` and up, by precedence
        climbing: one depth level for this call, one for its operand and
        one per prefix operator on the operand."""
        level = self._depth + 1
        depth = level + 1
        limit = self._max_depth
        if depth > limit:
            self._too_deep()
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        if tok.kind is _IDENT and tokens[pos + 1].value not in ("(", "["):
            # The commonest operand, a bare name, without the call.
            self.pos = pos + 1
            lhs = ast.Identifier(tok.span, tok.value)
        elif tok.value in _UNARY_OPS and tok.kind is _PUNCT:
            prefix: list[Token] = []
            while tok.value in _UNARY_OPS and tok.kind is _PUNCT:
                prefix.append(tok)
                self.pos += 1
                depth += 1
                if depth > limit:
                    self._too_deep()
                tok = tokens[self.pos]
            self._depth = depth
            lhs = self._parse_primary()
            for tok in reversed(prefix):
                lhs = ast.Unary(tok.span.to(lhs.span), tok.value, lhs)
        else:
            self._depth = depth
            lhs = self._parse_primary()
        self._depth = level
        while True:
            tok = tokens[self.pos]
            prec = _BINARY_PREC.get(tok.value)
            if prec is None or prec < min_prec or tok.kind is not _PUNCT:
                self._depth = level - 1
                return lhs
            self.pos += 1
            # '**' is right-associative; everything else left.
            rhs = self._parse_binary(prec if tok.value == "**" else prec + 1)
            lhs = ast.Binary(lhs.span.to(rhs.span), tok.value, lhs, rhs)

    def _parse_primary(self) -> ast.Expr:
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        kind = tok.kind
        if kind is _IDENT:
            self.pos = pos + 1
            follow = tokens[pos + 1]
            if follow.kind is _PUNCT:
                if follow.value == "(":
                    self.pos = pos + 2
                    return ast.FuncCall(tok.span, tok.value, self._parse_args())
                if follow.value == "[":
                    return self._parse_selects(ast.Identifier(tok.span, tok.value))
            return ast.Identifier(tok.span, tok.value)
        if kind is TokenKind.NUMBER or kind is TokenKind.REAL:
            self.pos = pos + 1
            lit = self._literals.get(tok.value)
            if lit is None:
                lit = self._literals[tok.value] = parse_literal(tok.value)
            return ast.Number(tok.span, lit.bits, lit.xmask, lit.width, lit.signed)
        if kind is _PUNCT:
            if tok.value == "(":
                self.pos = pos + 1
                inner = self.parse_expr()
                self.expect_punct(")")
                return self._parse_selects(inner)
            if tok.value == "{":
                return self._parse_concat()
        elif kind is TokenKind.STRING:
            self.pos = pos + 1
            return ast.StringLit(span=tok.span, value=tok.value.strip('"'))
        elif kind is TokenKind.SYSTEM_IDENT:
            self.pos = pos + 1
            args = self._parse_args() if self.accept_punct("(") else []
            return ast.SystemCall(span=tok.span, name=tok.value, args=args)
        self.syntax_near()
        self.advance()
        return ast.Number(span=tok.span, bits=0, width=1)

    def _parse_args(self) -> list[ast.Expr]:
        """A comma-separated argument list after its ``(``, and the ``)``."""
        args: list[ast.Expr] = []
        while not self.at_eof() and not self.cur.is_punct(")"):
            args.append(self.parse_expr())
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return args

    def _parse_selects(self, base: ast.Expr) -> ast.Expr:
        tokens = self.tokens
        while True:
            start = tokens[self.pos]
            if start.value != "[" or start.kind is not _PUNCT:
                return base
            self.pos += 1
            first = self.parse_expr()
            sep = tokens[self.pos]
            if sep.kind is _PUNCT and sep.value == ":":
                self.pos += 1
                lsb = self.parse_expr()
                end = tokens[self.pos]
                self.expect_punct("]")
                base = ast.RangeSelect(start.span.to(end.span), base, first, lsb)
            elif sep.kind is _PUNCT and sep.value in ("+:", "-:"):
                self.pos += 1
                width = self.parse_expr()
                end = tokens[self.pos]
                self.expect_punct("]")
                base = ast.IndexedSelect(
                    span=start.span.to(end.span), base=base, start=first,
                    width=width, ascending=sep.value == "+:",
                )
            else:
                end = sep
                self.expect_punct("]")
                base = ast.Select(start.span.to(end.span), base, first)

    def _parse_concat(self) -> ast.Expr:
        start = self.advance()  # '{'
        first = self.parse_expr()
        if self.cur.is_punct("{"):
            # Replication {N{...}}
            self.advance()
            parts = [self.parse_expr()]
            while self.accept_punct(","):
                parts.append(self.parse_expr())
            self.expect_punct("}")
            inner = ast.Concat(span=start.span, parts=parts)
            end = self.cur
            self.expect_punct("}")
            return ast.Replicate(span=start.span.to(end.span), count=first, value=inner)
        parts = [first]
        while self.accept_punct(","):
            parts.append(self.parse_expr())
        end = self.cur
        self.expect_punct("}")
        return self._parse_selects(ast.Concat(span=start.span.to(end.span), parts=parts))


#: Module items and statements by leading keyword.
_ITEM_PARSERS = {
    "assign": Parser._parse_continuous_assign,
    "always": Parser._parse_always,
    "always_comb": Parser._parse_always,
    "always_ff": Parser._parse_always,
    "always_latch": Parser._parse_always,
    "initial": Parser._parse_initial,
    "parameter": Parser._parse_param,
    "localparam": Parser._parse_param,
    "function": Parser._parse_function,
    "generate": Parser._parse_generate,
    **dict.fromkeys(_NET_KINDS, Parser._parse_net_decl),
}
_STMT_PARSERS = {
    "begin": Parser._parse_block,
    "if": Parser._parse_if,
    "case": Parser._parse_case,
    "casez": Parser._parse_case,
    "casex": Parser._parse_case,
    "for": Parser._parse_for,
    "while": Parser._parse_while,
    "repeat": Parser._parse_repeat,
}


def parse(
    source: SourceFile,
    sink: list[Diagnostic] | None = None,
    tracker: LimitTracker | None = None,
) -> ast.Design:
    """Tokenize and parse ``source`` into a Design, collecting diagnostics.

    ``tracker`` carries the token and nesting-depth budgets; one with
    default limits is created when omitted so parsing is always bounded.
    """
    from .lexer import tokenize

    sink = sink if sink is not None else []
    tokens = tokenize(source, sink, tracker=tracker)
    return Parser(tokens, sink, tracker=tracker).parse_design()


def expand_siblings(items: list) -> list:
    """Flatten items that carry chained ``_siblings`` declarations."""
    out = []
    for item in items:
        out.append(item)
        out.extend(item.__dict__.get("_siblings", []) if hasattr(item, "__dict__") else [])
    return out
