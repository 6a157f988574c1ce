"""Hand-written lexer for the supported Verilog subset.

The lexer is error-tolerant: malformed constructs produce a
:class:`~repro.diagnostics.diagnostic.Diagnostic` in the supplied sink
and a best-effort replacement token, so that parsing (and therefore
diagnosis of *further* errors) can continue -- mirroring how real
compilers report several errors per run.

Most tokens come from one match of :data:`_MASTER`: the trivia before a
token and the token itself, when it is an identifier, a keyword, a
plain decimal number or punctuation.  Everything else -- based
literals, reals, strings, ``$``/``\\`` identifiers, unknown characters
and end of file -- falls back to a per-kind method.
"""

from __future__ import annotations

import re

from ..diagnostics.codes import ErrorCategory
from ..diagnostics.diagnostic import Diagnostic
from .source import _SET_SPAN, SourceFile, Span
from .tokens import KEYWORDS, MULTI_PUNCT, SINGLE_PUNCT, Token, TokenKind

_BASE_DIGITS = {
    "b": "01xz?",
    "o": "01234567xz?",
    "d": "0123456789",
    "h": "0123456789abcdef" + "xz?",
}

_IDENT_CONT = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789$"
)
_DIGITS = set("0123456789")

#: Leading trivia, then (1) an identifier or keyword, (2) a well-formed
#: based literal, (3) a plain decimal number or (4) punctuation, longest
#: operator first; the empty last alternative leaves the token to a
#: fallback method.  A based literal is well formed when its digit run
#: -- the longest run of characters :meth:`Lexer._lex_based_literal`
#: would take -- holds a digit and nothing its base forbids; any other
#: is left to that method, which reports it.  A number followed by
#: ``'``, ``.digit`` or (after backtracking) a digit or ``_`` is not
#: plain.
_MASTER = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*(?:[^*]|\*(?!/))*(?:\*/)?)*"
    r"(?:([A-Za-z_][A-Za-z0-9_$]*)"
    r"|((?:[0-9][0-9_]*)?'[sS]?"
    r"(?:[bB]_*[01xXzZ?][01xXzZ?_]*"
    r"|[oO]_*[0-7xXzZ?][0-7xXzZ?_]*"
    r"|[dD]_*[0-9][0-9_]*"
    r"|[hH]_*[0-9a-fA-FxXzZ?][0-9a-fA-FxXzZ?_]*)"
    r"(?![0-9a-fA-FxXzZ?_]))"
    r"|([0-9][0-9_]*)(?!['0-9_]|\.[0-9])"
    r"|(" + "|".join(re.escape(op) for op in MULTI_PUNCT)
    + "|[" + re.escape("".join(sorted(SINGLE_PUNCT))) + "])"
    r"|)"
)
#: Token kind by :data:`_MASTER` group number; group 1 is an identifier
#: or a keyword, told apart by :data:`KEYWORDS`.
_GROUP_KINDS = (None, None, TokenKind.NUMBER, TokenKind.NUMBER, TokenKind.PUNCT)

_new = object.__new__
_SET_FILE, _SET_START, _SET_END = _SET_SPAN


class Lexer:
    """Tokenizes one :class:`SourceFile`, reporting problems to ``sink``.

    With a :class:`~repro.verilog.limits.LimitTracker` attached, the
    token stream is budgeted: once ``max_tokens`` is exhausted the lexer
    reports a single ``RESOURCE_LIMIT`` diagnostic and terminates the
    stream with EOF instead of chewing through megabytes of garbage.
    """

    def __init__(
        self,
        source: SourceFile,
        sink: list[Diagnostic],
        tracker=None,
    ):
        self.source = source
        self.text = source.text
        self.pos = 0
        self.sink = sink
        self.tracker = tracker

    def tokenize(self) -> list[Token]:
        tokens: list[Token] = []
        text, source, tracker = self.text, self.source, self.tracker
        match = _MASTER.match
        # The token budget is charged in bulk: ``budget`` tokens (EOF
        # included) fit, and the first one over it ends the stream where
        # the last token ended, exactly as a per-token charge would.
        # Every token but EOF takes at least one character, so the text
        # left bounds the count too.
        budget = len(text) - self.pos + 1
        if tracker is not None:
            left = tracker.limits.limit_for("tokens") - tracker.spent.get("tokens", 0)
            budget = min(budget, left)
        keywords, ident, keyword = KEYWORDS, TokenKind.IDENT, TokenKind.KEYWORD
        append = tokens.append
        pos = self.pos
        for _ in range(budget):
            m = match(text, pos)
            group = m.lastindex
            if group is None:
                token = self._lex_other(m.end())
                append(token)
                if token.kind is TokenKind.EOF:
                    if tracker is not None:
                        tracker.charge("tokens", len(tokens))
                    return tokens
                pos = self.pos
                continue
            start, pos = m.span(group)
            value = text[start:pos]
            if group == 1:
                kind = keyword if value in keywords else ident
            else:
                kind = _GROUP_KINDS[group]
            # ``Span(source, start, pos)``, without its ``__init__`` frame.
            span = _new(Span)
            _SET_FILE(span, source)
            _SET_START(span, start)
            _SET_END(span, pos)
            append(Token(kind, value, span))
        self.pos = pos
        tracker.charge("tokens", len(tokens) + 1)
        tracker.report_overflow("tokens", self._span(self.pos, self.pos + 1), self.sink)
        tokens.append(Token(TokenKind.EOF, "", self._span(self.pos)))
        return tokens

    # -- internals ---------------------------------------------------

    def _span(self, start: int, end: int | None = None) -> Span:
        return Span(self.source, start, self.pos if end is None else end)

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.text[idx] if idx < len(self.text) else ""

    def _lex_other(self, start: int) -> Token:
        """A token :data:`_MASTER` leaves to a per-kind method; ``start``
        is past the trivia."""
        self.pos = start
        if start >= len(self.text):
            return Token(TokenKind.EOF, "", self._span(start))
        ch = self.text[start]
        if ch in _DIGITS:
            return self._lex_number(start)
        if ch == "'":
            return self._lex_based_literal(start, size_digits="")
        if ch == '"':
            return self._lex_string(start)
        if ch == "$":
            return self._lex_system_ident(start)
        if ch == "\\":
            return self._lex_escaped_ident(start)
        return self._lex_unknown(start)

    def _lex_escaped_ident(self, start: int) -> Token:
        self.pos += 1  # backslash
        while self._peek() not in ("", " ", "\t", "\r", "\n"):
            self.pos += 1
        value = self.text[start + 1 : self.pos]
        if not value:
            self.sink.append(
                Diagnostic(ErrorCategory.SYNTAX_NEAR, self._span(start), {"near": "\\"})
            )
            value = "_"
        return Token(TokenKind.IDENT, value, self._span(start))

    def _lex_system_ident(self, start: int) -> Token:
        self.pos += 1  # $
        while self._peek() in _IDENT_CONT:
            self.pos += 1
        value = self.text[start : self.pos]
        if value == "$":
            self.sink.append(
                Diagnostic(ErrorCategory.SYNTAX_NEAR, self._span(start), {"near": "$"})
            )
        return Token(TokenKind.SYSTEM_IDENT, value, self._span(start))

    def _lex_string(self, start: int) -> Token:
        self.pos += 1
        while self._peek() not in ("", '"', "\n"):
            if self._peek() == "\\":
                self.pos += 1
            self.pos += 1
        if self._peek() == '"':
            self.pos += 1
        else:
            self.sink.append(
                Diagnostic(
                    ErrorCategory.SYNTAX_NEAR,
                    self._span(start),
                    {"near": "unterminated string"},
                )
            )
        return Token(TokenKind.STRING, self.text[start : self.pos], self._span(start))

    def _lex_number(self, start: int) -> Token:
        """A sized based literal or a real: the digits are followed by
        ``'`` or ``.digit``, since :data:`_MASTER` takes plain decimals."""
        while self._peek() in _DIGITS or self._peek() == "_":
            self.pos += 1
        if self._peek() == "'":
            return self._lex_based_literal(start, size_digits=self.text[start : self.pos])
        self.pos += 1  # the '.'
        while self._peek() in _DIGITS or self._peek() == "_":
            self.pos += 1
        return Token(TokenKind.REAL, self.text[start : self.pos], self._span(start))

    def _lex_based_literal(self, start: int, size_digits: str) -> Token:
        self.pos += 1  # the apostrophe
        signed = False
        if self._peek() in ("s", "S"):
            signed = True
            self.pos += 1
        base_ch = self._peek().lower()
        if base_ch not in _BASE_DIGITS:
            self.sink.append(
                Diagnostic(
                    ErrorCategory.BAD_LITERAL,
                    self._span(start),
                    {"literal": self.text[start : self.pos + 1]},
                )
            )
            return Token(TokenKind.NUMBER, "0", self._span(start))
        self.pos += 1
        digit_start = self.pos
        while self._peek().lower() in "0123456789abcdefxz?_" and self._peek() != "":
            self.pos += 1
        digits = self.text[digit_start : self.pos].lower().replace("_", "")
        valid = _BASE_DIGITS[base_ch]
        literal = self.text[start : self.pos]
        if not digits or any(d not in valid for d in digits):
            self.sink.append(
                Diagnostic(
                    ErrorCategory.BAD_LITERAL, self._span(start), {"literal": literal}
                )
            )
            return Token(TokenKind.NUMBER, "0", self._span(start))
        del signed  # recorded in the literal text; value parsing happens later
        return Token(TokenKind.NUMBER, literal, self._span(start))

    def _lex_unknown(self, start: int) -> Token:
        ch = self.text[start]
        self.pos += 1
        self.sink.append(
            Diagnostic(ErrorCategory.SYNTAX_NEAR, self._span(start), {"near": ch})
        )
        # Substitute a harmless token so parsing continues.
        return Token(TokenKind.PUNCT, ";", self._span(start))


def tokenize(
    source: SourceFile, sink: list[Diagnostic] | None = None, tracker=None
) -> list[Token]:
    """Convenience wrapper: tokenize ``source``, optionally collecting
    diagnostics into ``sink`` (discarded when not provided) and charging
    the token budget of ``tracker``."""
    return Lexer(source, sink if sink is not None else [], tracker=tracker).tokenize()
