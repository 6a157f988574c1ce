"""Unit tests for the Verilog lexer."""

import hashlib
import random
from pathlib import Path

from repro.diagnostics import ErrorCategory
from repro.verilog import SourceFile, tokenize
from repro.verilog.lexer import Lexer
from repro.verilog.limits import LimitTracker, ResourceLimits
from repro.verilog.tokens import TokenKind

DATA = Path(__file__).parent / "data"


def lex(code: str):
    sink = []
    tokens = tokenize(SourceFile("t.v", code), sink)
    return tokens, sink


def kinds(code: str):
    tokens, _ = lex(code)
    return [t.kind for t in tokens[:-1]]  # drop EOF


def values(code: str):
    tokens, _ = lex(code)
    return [t.value for t in tokens[:-1]]


class TestBasics:
    def test_empty_input_is_just_eof(self):
        tokens, sink = lex("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF
        assert sink == []

    def test_identifiers_and_keywords(self):
        tokens, _ = lex("module foo endmodule")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[1].kind is TokenKind.IDENT
        assert tokens[1].value == "foo"
        assert tokens[2].kind is TokenKind.KEYWORD

    def test_identifier_with_dollar_and_digits(self):
        assert values("a1_$x") == ["a1_$x"]

    def test_escaped_identifier(self):
        tokens, sink = lex("\\my+sig  rest")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].value == "my+sig"
        assert sink == []

    def test_system_identifier(self):
        tokens, _ = lex("$display")
        assert tokens[0].kind is TokenKind.SYSTEM_IDENT
        assert tokens[0].value == "$display"

    def test_string_literal(self):
        tokens, sink = lex('"hello world"')
        assert tokens[0].kind is TokenKind.STRING
        assert sink == []

    def test_unterminated_string_reports(self):
        _, sink = lex('"oops')
        assert sink
        assert sink[0].category is ErrorCategory.SYNTAX_NEAR


class TestComments:
    def test_line_comment_skipped(self):
        assert values("a // comment here\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_consumes_rest(self):
        assert values("a /* never closed") == ["a"]


class TestNumbers:
    def test_plain_decimal(self):
        tokens, _ = lex("42")
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].value == "42"

    def test_sized_hex(self):
        tokens, sink = lex("8'hFF")
        assert tokens[0].value == "8'hFF"
        assert sink == []

    def test_sized_binary_with_x(self):
        _, sink = lex("4'b10x1")
        assert sink == []

    def test_underscores_allowed(self):
        tokens, sink = lex("16'b1010_1010_1111_0000")
        assert sink == []
        assert tokens[0].kind is TokenKind.NUMBER

    def test_signed_literal(self):
        _, sink = lex("8'sd12")
        assert sink == []

    def test_real_number(self):
        tokens, _ = lex("3.14")
        assert tokens[0].kind is TokenKind.REAL

    def test_invalid_binary_digit_flags_bad_literal(self):
        _, sink = lex("4'b1021")
        assert [d.category for d in sink] == [ErrorCategory.BAD_LITERAL]

    def test_invalid_hex_digit_flags_bad_literal(self):
        _, sink = lex("8'hGG")
        assert [d.category for d in sink] == [ErrorCategory.BAD_LITERAL]

    def test_missing_digits_flags_bad_literal(self):
        _, sink = lex("4'b;")
        assert [d.category for d in sink] == [ErrorCategory.BAD_LITERAL]

    def test_bad_base_char_flags_bad_literal(self):
        _, sink = lex("4'q1010")
        assert sink[0].category is ErrorCategory.BAD_LITERAL

    def test_bad_literal_recovers_with_zero_token(self):
        tokens, _ = lex("4'b1021 + 1")
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].value == "0"
        assert tokens[1].value == "+"


class TestOperators:
    def test_multi_char_operators_greedy(self):
        assert values("a <= b") == ["a", "<=", "b"]
        assert values("a <<< 2") == ["a", "<<<", "2"]
        assert values("a === b") == ["a", "===", "b"]

    def test_c_style_tokens_lexed(self):
        # The lexer passes these through; the *parser* flags them.
        assert values("i++") == ["i", "++"]
        assert values("i += 2") == ["i", "+=", "2"]

    def test_at_star(self):
        assert values("@*") == ["@*"]

    def test_part_select_operators(self):
        assert values("a[3 +: 4]") == ["a", "[", "3", "+:", "4", "]"]

    def test_unknown_character_reports_syntax(self):
        _, sink = lex("a \x01 b")
        assert sink
        assert sink[0].category is ErrorCategory.SYNTAX_NEAR


class TestSpans:
    def test_token_spans_point_into_source(self):
        code = "module foo;\nendmodule"
        tokens, _ = lex(code)
        assert tokens[0].span.line == 1
        assert tokens[0].span.text == "module"
        assert tokens[3].span.line == 2

    def test_tokens_compare_and_hash_by_field(self):
        (a, _), (b, _) = lex("x"), lex("x")
        assert a[0] == b[0] and a[0] is not b[0]
        assert hash(a[0]) == hash(b[0]) == hash((a[0].kind, "x", a[0].span))
        assert a[0] != lex("y")[0][0] and a[0] != lex(" x")[0][0]

    def test_line_col_resolution(self):
        src = SourceFile("x.v", "ab\ncd\nef")
        assert src.line_col(0) == (1, 1)
        assert src.line_col(3) == (2, 1)
        assert src.line_col(7) == (3, 2)
        assert src.line_text(2) == "cd"

    def test_line_starts(self):
        assert SourceFile("e.v", "")._line_starts == (0,)
        assert SourceFile("crlf.v", "a\r\nb\r\n\r\nc")._line_starts == (0, 3, 6, 8)
        assert SourceFile("n.v", "\n\n")._line_starts == (0, 1, 2)
        text = (DATA / "crash_corpus" / "nul_bytes.v").read_bytes().decode(
            "utf-8", "replace"
        )
        assert SourceFile("nul_bytes.v", text)._line_starts == (0, 33, 52, 65)


#: sha256 over the token stream (kind, value, span offsets), the lex
#: diagnostics and ``tracker.spent`` of every source in
#: ``token_digest_sources()`` under three token budgets.
TOKEN_DIGEST = DATA / "token_digest.sha256"

#: Default, then two budgets that overflow mid-stream.
TOKEN_BUDGETS = (ResourceLimits(), ResourceLimits(max_tokens=5),
                 ResourceLimits(max_tokens=37))


def token_digest_sources() -> list[str]:
    """The syntax dataset, the corpus references, the crash and
    hostile-simulation corpora, and seeded byte/token-splice mutants of
    the references."""
    from repro.dataset import rtllm, verilogeval
    from repro.eval.experiments import default_dataset
    from repro.runtime.fuzz import _mut_byte_splice, _mut_token_splice

    references = [p.reference for p in verilogeval()]
    references += [p.reference for p in rtllm()]
    sources = [entry.code for entry in default_dataset()] + references
    for folder in ("crash_corpus", "sim_hostile"):
        for path in sorted((DATA / folder).glob("*.v")):
            sources.append(path.read_bytes().decode("utf-8", "replace"))
    rng = random.Random("token-digest")
    for index in range(600):
        mutate = (_mut_byte_splice, _mut_token_splice)[index % 2]
        sources.append(mutate(rng, rng.choice(references), {}))
    return sources


def token_digest() -> str:
    hasher = hashlib.sha256()
    for code in token_digest_sources():
        for limits in TOKEN_BUDGETS:
            sink = []
            tracker = LimitTracker(limits)
            tokens = Lexer(SourceFile("t.v", code), sink, tracker=tracker).tokenize()
            for t in tokens:
                hasher.update(
                    f"{t.kind.name}|{t.value}|{t.span.start}|{t.span.end}\n".encode()
                )
            for d in sink:
                args = sorted(d.args.items())
                hasher.update(
                    f"{d.category.name}|{d.span.start}|{d.span.end}|{args}\n".encode()
                )
            hasher.update(f"{sorted(tracker.spent.items())}\0".encode())
    return hasher.hexdigest()


def test_frozen_token_digest():
    """The lexer's output is frozen: a lexer speed-up must not move a
    token, a span offset, a diagnostic or a budget unit.  Regenerate the
    data file only for an intended lexer change, by writing
    ``token_digest()``."""
    assert token_digest() == TOKEN_DIGEST.read_text().strip()
