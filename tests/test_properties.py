"""Property-based tests (hypothesis) on core data structures and
invariants: 4-state Logic algebra, literal parsing, front-end crash
safety, clustering metrics, and pass@k."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.cluster import jaccard_distance, shingles
from repro.diagnostics import compile_source
from repro.eval import pass_at_k_single
from repro.sim import Logic
from repro.sim import ops
from repro.verilog import SourceFile, parse_literal, tokenize
from repro.verilog.tokens import TokenKind

widths = st.integers(min_value=1, max_value=64)


@st.composite
def logic_values(draw, width=None):
    w = draw(widths) if width is None else width
    bits = draw(st.integers(min_value=0, max_value=(1 << w) - 1))
    xmask = draw(st.integers(min_value=0, max_value=(1 << w) - 1))
    signed = draw(st.booleans())
    return Logic(w, bits, xmask, signed)


def _widened_same(a, b) -> bool:
    """``Logic.same_as`` by its definition: widen both, compare planes."""
    width = max(a.width, b.width)
    x, y = a.resize(width), b.resize(width)
    return x.bits == y.bits and x.xmask == y.xmask


class TestLogicProperties:
    @given(logic_values())
    def test_bits_and_xmask_stay_in_width(self, v):
        assert v.bits < (1 << v.width)
        assert v.xmask < (1 << v.width)

    @given(logic_values())
    def test_resize_roundtrip_preserves_value(self, v):
        wider = v.resize(v.width + 8)
        back = wider.resize(v.width)
        assert back.bits == v.bits and back.xmask == v.xmask

    @given(logic_values())
    def test_double_negation(self, v):
        # Z bits legitimately collapse to X through operators, so compare
        # known bits and unknown positions rather than exact encoding.
        out = ops.unary("~", ops.unary("~", v))
        assert out.xmask == v.xmask
        mask = (1 << v.width) - 1
        known = ~v.xmask & mask
        assert out.bits & known == v.bits & known

    @given(logic_values(), logic_values())
    def test_same_as_matches_widened_compare(self, a, b):
        assert a.same_as(b) == _widened_same(a, b)
        assert b.same_as(a) == _widened_same(b, a)

    @given(widths.flatmap(lambda w: st.tuples(logic_values(w), logic_values(w))))
    def test_same_as_equal_width_fast_path(self, pair):
        a, b = pair
        assert a.same_as(b) == _widened_same(a, b)
        assert a.same_as(Logic(a.width, a.bits, a.xmask, not a.signed))

    @given(logic_values(), logic_values())
    def test_and_commutes(self, a, b):
        assert ops.binary("&", a, b).same_as(ops.binary("&", b, a))

    @given(logic_values(), logic_values())
    def test_or_commutes(self, a, b):
        assert ops.binary("|", a, b).same_as(ops.binary("|", b, a))

    @given(logic_values(), logic_values())
    def test_add_commutes(self, a, b):
        assert ops.binary("+", a, b).same_as(ops.binary("+", b, a))

    @given(logic_values())
    def test_xor_self_is_zero_when_known(self, v):
        out = ops.binary("^", v, v)
        if v.is_fully_known:
            assert out.bits == 0 and out.xmask == 0

    @given(logic_values())
    def test_and_with_zero_is_zero(self, v):
        zero = Logic.from_int(0, v.width)
        out = ops.binary("&", v, zero)
        assert out.bits == 0 and out.xmask == 0

    @given(logic_values())
    def test_known_ops_never_produce_x(self, v):
        if not v.is_fully_known:
            return
        other = Logic.from_int(3, v.width)
        for op in ("+", "-", "*", "&", "|", "^", "<<", ">>"):
            assert ops.binary(op, v, other).xmask == 0

    @given(logic_values(), st.integers(min_value=0, max_value=70))
    def test_bit_read_in_or_out_of_range(self, v, index):
        bit = v.bit(index)
        assert bit.width == 1
        if index >= v.width:
            assert bit.has_x

    @given(logic_values())
    def test_concat_slice_roundtrip(self, v):
        doubled = ops.concat([v, v])
        assert doubled.slice(v.width - 1, 0).same_as(v)
        assert doubled.slice(2 * v.width - 1, v.width).same_as(v)

    @given(logic_values(), logic_values(), st.booleans())
    def test_ternary_known_condition_selects(self, a, b, cond):
        out = ops.ternary(Logic(1, int(cond)), a, b)
        expected = a if cond else b
        assert out.same_as(expected.resize(max(a.width, b.width)))


class TestLiteralProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=32))
    def test_hex_literal_roundtrip(self, value, width):
        value &= (1 << width) - 1
        text = f"{width}'h{value:x}"
        lit = parse_literal(text)
        assert lit.width == width
        assert lit.bits == value
        assert lit.xmask == 0

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_binary_literal_roundtrip(self, value):
        text = f"16'b{value:016b}"
        lit = parse_literal(text)
        assert lit.bits == value

    @given(st.text(alphabet="0123456789'bdhsxz_", max_size=12))
    def test_parse_literal_never_crashes(self, text):
        lit = parse_literal(text)
        assert lit.bits >= 0 and lit.xmask >= 0


class TestFrontEndRobustness:
    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=300))
    def test_compile_never_crashes_on_arbitrary_text(self, text):
        result = compile_source(text)
        assert result.diagnostics is not None

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="modulewirebeginend ()[];=<+*@{}&|^~!?:#'0123456789abq\n", max_size=400))
    def test_compile_never_crashes_on_verilogish_soup(self, text):
        result = compile_source(text)
        # And rendering both flavours never crashes either.
        _ = result.log
        _ = compile_source(text, flavor="quartus").log

    @settings(max_examples=80, deadline=None)
    @given(st.text(max_size=200))
    def test_lexer_terminates_with_eof(self, text):
        tokens = tokenize(SourceFile("t.v", text))
        assert tokens[-1].kind is TokenKind.EOF


class TestJaccardProperties:
    @given(st.text(max_size=80), st.text(max_size=80))
    def test_symmetric_and_bounded(self, a, b):
        dist = jaccard_distance(shingles(a), shingles(b))
        assert 0.0 <= dist <= 1.0
        assert dist == jaccard_distance(shingles(b), shingles(a))

    @given(st.text(max_size=80))
    def test_identity(self, a):
        assert jaccard_distance(shingles(a), shingles(a)) == 0.0

    @given(st.text(max_size=40), st.text(max_size=40), st.text(max_size=40))
    def test_triangle_inequality(self, a, b, c):
        sa, sb, sc = shingles(a), shingles(b), shingles(c)
        assert jaccard_distance(sa, sc) <= (
            jaccard_distance(sa, sb) + jaccard_distance(sb, sc) + 1e-9
        )


class TestPassAtKProperties:
    @given(st.integers(1, 50), st.data())
    def test_bounded_and_monotone(self, n, data):
        c = data.draw(st.integers(0, n))
        k = data.draw(st.integers(1, n))
        value = pass_at_k_single(n, c, k)
        assert 0.0 <= value <= 1.0
        if k < n:
            assert pass_at_k_single(n, c, k + 1) >= value - 1e-12
