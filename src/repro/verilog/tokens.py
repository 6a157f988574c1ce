"""Token definitions for the Verilog lexer."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .source import Span


class TokenKind(enum.Enum):
    IDENT = "identifier"
    SYSTEM_IDENT = "system identifier"  # $display, $signed, ...
    NUMBER = "number"  # any integer literal, incl. based literals
    REAL = "real number"
    STRING = "string"
    KEYWORD = "keyword"
    PUNCT = "punctuation"  # operators and delimiters
    EOF = "end of file"


#: Reserved words of the supported Verilog-2005 (+ small SystemVerilog) subset.
KEYWORDS: frozenset[str] = frozenset(
    """
    module endmodule input output inout wire reg logic integer int genvar real
    parameter localparam assign always always_comb always_ff always_latch
    initial begin end if else case casez casex endcase default for while
    repeat forever posedge negedge or and not function endfunction task
    endtask generate endgenerate signed unsigned deassign force release
    wait disable event
    """.split()
)

#: Multi-character punctuation, longest first so the lexer can greedily match.
MULTI_PUNCT: tuple[str, ...] = (
    "<<<=", ">>>=",
    "===", "!==", "<<<", ">>>", "<<=", ">>=", "<->",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "**",
    "~&", "~|", "~^", "^~", "+:", "-:", "++", "--", "+=", "-=", "*=", "/=",
    "->", "@*",
)

SINGLE_PUNCT: frozenset[str] = frozenset("+-*/%><!~&|^=?:;,.(){}[]@#")


@dataclass(eq=True, unsafe_hash=True, slots=True)
class Token:
    """One lexed token.

    A token lives only from the lexer to the parser of one compile; the
    AST and the diagnostics keep its frozen :class:`Span`, never the
    token.  So this is a plain slots class, whose generated ``__init__``
    stores each field directly -- the lexer builds one per token.
    Equality and the hash are over the fields, as for a frozen class.
    """

    kind: TokenKind
    value: str
    span: Span

    def is_punct(self, value: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.value == value

    def is_keyword(self, value: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.value == value

    def describe(self) -> str:
        """Human-readable rendering used in 'syntax error near X' messages."""
        if self.kind is TokenKind.EOF:
            return "end of file"
        return repr(self.value)
