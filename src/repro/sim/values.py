"""Four-state logic values for simulation.

A :class:`Logic` is an immutable fixed-width vector where each bit is
0, 1, X or Z, encoded as two integers: ``bits`` (the 0/1 plane) and
``xmask`` (bit set = unknown; the corresponding ``bits`` bit selects X
vs Z, but for evaluation X and Z behave identically).

Semantics follow Verilog's self-determined rules closely enough for
differential testing: any X input to an arithmetic operator poisons the
whole result; bitwise operators propagate X per-bit with the usual
short-circuits (``0 & x = 0``, ``1 | x = 1``).
"""

from __future__ import annotations

__all__ = ["Logic", "X", "ZERO", "ONE"]


def _mask(width: int) -> int:
    return (1 << width) - 1


class Logic:
    """An immutable 4-state vector value.

    A plain slotted class rather than a dataclass: Logic construction is
    the simulator's hottest operation (tens of thousands per settle)."""

    __slots__ = ("width", "bits", "xmask", "signed")

    def __init__(self, width: int, bits: int, xmask: int = 0, signed: bool = False):
        if width <= 0:
            raise ValueError(f"Logic width must be positive, got {width}")
        mask = (1 << width) - 1
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "bits", bits & mask)
        object.__setattr__(self, "xmask", xmask & mask)
        object.__setattr__(self, "signed", signed)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Logic values are immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Logic):
            return NotImplemented
        return (
            self.width == other.width
            and self.bits == other.bits
            and self.xmask == other.xmask
            and self.signed == other.signed
        )

    def __hash__(self) -> int:
        return hash((self.width, self.bits, self.xmask, self.signed))

    def __repr__(self) -> str:
        return (
            f"Logic(width={self.width}, bits={self.bits}, "
            f"xmask={self.xmask}, signed={self.signed})"
        )

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_int(value: int, width: int, signed: bool = False) -> "Logic":
        """A fully-known value from a Python int (masked to width)."""
        return Logic(width=width, bits=value & _mask(width), signed=signed)

    @staticmethod
    def all_x(width: int, signed: bool = False) -> "Logic":
        """A value with every bit unknown."""
        return Logic(width=width, bits=0, xmask=_mask(width), signed=signed)

    # -- predicates -----------------------------------------------------

    @property
    def is_fully_known(self) -> bool:
        return self.xmask == 0

    @property
    def has_x(self) -> bool:
        return self.xmask != 0

    def is_true(self) -> bool | None:
        """Truthiness for conditions: True/False, or None when unknown.

        A value with some X bits is still *true* if any known bit is 1
        (matches Verilog: a condition is taken when the value contains a
        1 somewhere... strictly Verilog treats any-X-result specially,
        but known-1 dominates)."""
        if self.bits & ~self.xmask:
            return True
        if self.xmask:
            return None
        return False

    # -- conversions ------------------------------------------------------

    def to_int(self) -> int:
        """Unsigned integer value; X bits read as 0."""
        return self.bits & ~self.xmask & _mask(self.width)

    def to_signed_int(self) -> int:
        """Two's-complement integer value; X bits read as 0."""
        raw = self.to_int()
        if self.signed and raw >> (self.width - 1):
            raw -= 1 << self.width
        return raw

    # -- width adjustment ---------------------------------------------------

    def resize(self, width: int, signed: bool | None = None) -> "Logic":
        """Truncate or extend to ``width``.  Extension is sign- or
        x-extending as appropriate."""
        signed = self.signed if signed is None else signed
        if width == self.width:
            return Logic(width, self.bits, self.xmask, signed)
        if width < self.width:
            return Logic(width, self.bits, self.xmask, signed)
        ext = _mask(width) ^ _mask(self.width)
        msb = self.width - 1
        bits, xmask = self.bits, self.xmask
        if (xmask >> msb) & 1:
            xmask |= ext
            if (bits >> msb) & 1:
                bits |= ext
        elif self.signed and (bits >> msb) & 1:
            bits |= ext
        return Logic(width, bits, xmask, signed)

    def as_unsigned(self) -> "Logic":
        """Same bits, unsigned interpretation ($unsigned)."""
        return Logic(self.width, self.bits, self.xmask, False)

    def as_signed(self) -> "Logic":
        """Same bits, signed interpretation ($signed)."""
        return Logic(self.width, self.bits, self.xmask, True)

    # -- bit access ---------------------------------------------------------

    def bit(self, index: int) -> "Logic":
        """Single-bit read; out-of-range reads X (Verilog semantics)."""
        if not 0 <= index < self.width:
            return Logic.all_x(1)
        return Logic(1, (self.bits >> index) & 1, (self.xmask >> index) & 1)

    def slice(self, high: int, low: int) -> "Logic":
        """Bit-range read [high:low] in *bit offsets*; out-of-range X."""
        width = high - low + 1
        if width <= 0:
            return Logic.all_x(1)
        if low >= 0 and high < self.width:
            mask = (1 << width) - 1
            return Logic(width, (self.bits >> low) & mask, (self.xmask >> low) & mask)
        out_bits = 0
        out_x = 0
        for i in range(width):
            src = low + i
            if 0 <= src < self.width:
                out_bits |= ((self.bits >> src) & 1) << i
                out_x |= ((self.xmask >> src) & 1) << i
            else:
                out_x |= 1 << i
        return Logic(width, out_bits, out_x)

    def set_bit(self, index: int, value: "Logic") -> "Logic":
        """Copy with one bit replaced (out-of-range writes ignored)."""
        if not 0 <= index < self.width:
            return self
        bit = 1 << index
        bits = (self.bits & ~bit) | ((value.bits & 1) << index)
        xmask = (self.xmask & ~bit) | ((value.xmask & 1) << index)
        return Logic(self.width, bits, xmask, self.signed)

    def set_slice(self, high: int, low: int, value: "Logic") -> "Logic":
        """Copy with bit range [high:low] replaced."""
        out = self
        for i in range(high - low + 1):
            out = out.set_bit(low + i, value.bit(i))
        return out

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        if self.xmask == 0:
            ndigits = (self.width + 3) // 4
            return f"{self.width}'h{self.bits:0{ndigits}x}"
        chars = []
        for i in reversed(range(self.width)):
            if (self.xmask >> i) & 1:
                chars.append("z" if (self.bits >> i) & 1 else "x")
            else:
                chars.append(str((self.bits >> i) & 1))
        return f"{self.width}'b{''.join(chars)}"

    def same_as(self, other: "Logic") -> bool:
        """Bit-exact equality including X positions (=== semantics),
        after widening both to the larger width."""
        if self.width == other.width:
            return self.bits == other.bits and self.xmask == other.xmask
        width = max(self.width, other.width)
        a = self.resize(width)
        b = other.resize(width)
        return a.bits == b.bits and a.xmask == b.xmask


X = Logic.all_x(1)
ZERO = Logic(1, 0)
ONE = Logic(1, 1)
