"""Parsing of Verilog integer literal text into 4-state values.

Shared by the parser (building :class:`~repro.verilog.ast.Number` nodes)
and by repair strategies that need to reason about literal widths.
"""

from __future__ import annotations

from dataclasses import dataclass

_BASE_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}
_BITS_PER_DIGIT = {"b": 1, "o": 3, "h": 4}


@dataclass(frozen=True)
class ParsedLiteral:
    bits: int
    xmask: int
    width: int | None  # None for unsized plain decimals
    signed: bool

    @property
    def is_fully_known(self) -> bool:
        return self.xmask == 0


def parse_literal(text: str) -> ParsedLiteral:
    """Parse literal text like ``8'hFF``, ``4'b10x1``, ``'d12``, ``42``.

    Assumes the lexer already validated digits; malformed input falls
    back to zero rather than raising, because the lexer substitutes a
    ``0`` token after reporting BAD_LITERAL.
    """
    text = text.replace("_", "").strip()
    if "'" not in text:
        try:
            return ParsedLiteral(int(text or "0", 10), 0, None, True)
        except ValueError:
            return ParsedLiteral(0, 0, None, True)

    size_text, _, rest = text.partition("'")
    if not size_text.isdigit():
        size_text = ""
    signed = False
    if rest[:1] in ("s", "S"):
        signed = True
        rest = rest[1:]
    base_ch = rest[:1].lower()
    digits = rest[1:].lower()
    if base_ch not in _BASE_RADIX or not digits:
        return ParsedLiteral(0, 0, int(size_text) if size_text else None, signed)

    if base_ch == "d":
        try:
            value = int(digits, 10)
        except ValueError:  # 'dx / 'dz
            width = int(size_text) if size_text else 32
            mask = (1 << width) - 1
            return ParsedLiteral(mask if digits[:1] == "z" else 0, mask, width, signed)
        width = int(size_text) if size_text else 32
        return ParsedLiteral(value & ((1 << width) - 1), 0, width, signed)

    bits_per = _BITS_PER_DIGIT[base_ch]
    bits = 0
    xmask = 0
    for ch in digits:
        bits <<= bits_per
        xmask <<= bits_per
        digit_mask = (1 << bits_per) - 1
        if ch in "x?":
            xmask |= digit_mask
        elif ch == "z":
            xmask |= digit_mask
            bits |= digit_mask
        else:
            try:
                bits |= int(ch, _BASE_RADIX[base_ch])
            except ValueError:
                # Digit illegal for the base: the lexer reports these as
                # BAD_LITERAL; treat the digit as X here.
                xmask |= digit_mask
    natural_width = len(digits) * bits_per
    width = int(size_text) if size_text else max(natural_width, 1)
    mask = (1 << width) - 1
    if width < natural_width:
        bits &= mask
        xmask &= mask
    elif xmask >> (natural_width - 1) & 1 if natural_width else 0:
        # X/Z in the MSB digit extends left when the literal is widened.
        ext = mask ^ ((1 << natural_width) - 1)
        xmask |= ext
        if bits >> (natural_width - 1) & 1:
            bits |= ext
    return ParsedLiteral(bits & mask, xmask & mask, width, signed)
