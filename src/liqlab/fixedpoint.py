"""Exact signed fixed-point numbers with 18 fractional digits.

Values are stored as plain integers scaled by 10**18, mirroring on-chain
integer math so that results are deterministic across platforms. Addition
and subtraction are exact. Multiplication and division round half-even at
the 18th fractional digit (add/sub never need rounding; a product of two
scale-18 values carries up to 36 fractional digits, so it is rounded back
to scale). Magnitudes are capped at the 256-bit signed integer range and
exceeding it raises ``OverflowError`` instead of wrapping.

Floats are rejected everywhere: they are not exact and would silently
poison downstream results. Construct from ``int``, ``str``, or ``Dec``.

Multiplication and division are ``_mul`` and ``_div`` on the scaled
integers; the ``Dec`` operators only convert types around them, so hot
paths that work on the scaled integers call them and get the ``Dec``
expressions' raws.
"""

from __future__ import annotations

import re

DIGITS = 18
SCALE = 10**DIGITS
_BOUND = 2**255  # |raw| must stay strictly below this, mirroring int256
# a raw of more digits than 2**255 has is out of range
_RAW_DIGITS = len(str(_BOUND))
# an optional sign, then ASCII digits with an optional point followed by
# digits; the lookahead asks for at least one digit
_DECIMAL = re.compile(r"([+-]?)(?=\.?[0-9])([0-9]*)(?:\.([0-9]+))?")


def _round_div(n: int, d: int) -> int:
    """Round n/d to the nearest integer, ties to even. Requires d > 0."""
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    return q


def _checked(raw: int) -> int:
    if raw >= _BOUND or raw <= -_BOUND:
        # a product of two in-range raws has fewer than 512 bits; only an int
        # argument can be larger, and printing it could pass the interpreter's
        # limit on int-to-str conversion
        shown = raw if raw.bit_length() <= 512 else f"integer of {raw.bit_length()} bits"
        raise OverflowError(f"fixed-point magnitude exceeds 2**255: {shown}")
    return raw


def _mul(a: int, b: int) -> int:
    """The raw of ``Dec.from_raw(a) * Dec.from_raw(b)``: the product rounded
    half-even back to scale and checked."""
    raw = _round_div(a * b, SCALE)
    return raw if -_BOUND < raw < _BOUND else _checked(raw)


def _div(a: int, b: int) -> int:
    """The raw of ``Dec.from_raw(a) / Dec.from_raw(b)``: the quotient
    rounded half-even to scale and checked; a zero divisor raises."""
    if b == 0:
        raise ZeroDivisionError("division by zero")
    n = a * SCALE
    if b < 0:
        n, b = -n, -b
    raw = _round_div(n, b)
    return raw if -_BOUND < raw < _BOUND else _checked(raw)


def _parse(text: str) -> int:
    """The checked raw value of a decimal string.

    The grammar: surrounding whitespace, an optional sign, ASCII digits, and
    an optional point followed by at most ``DIGITS`` digits; at least one
    digit. Leading zeros are allowed. A value past 2**255 raw is an
    ``OverflowError``, raised without converting a digit string longer than
    2**255's, so no input meets the interpreter's int-string limit.
    """
    match = _DECIMAL.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a decimal string: {text!r}")
    sign, whole, frac = match.groups("")
    if len(frac) > DIGITS:
        raise ValueError(f"more than {DIGITS} fractional digits: {text!r}")
    digits = whole + frac.ljust(DIGITS, "0")
    if len(digits) >= _RAW_DIGITS:  # only so long a number can be out of range
        digits = digits.lstrip("0") or "0"
        if len(digits) > _RAW_DIGITS:
            raise OverflowError(
                "fixed-point magnitude exceeds 2**255: "
                f"integer part of {len(digits) - DIGITS} digits"
            )
    raw = int(digits)
    if raw >= _BOUND:
        _checked(-raw if sign == "-" else raw)  # raises
    return -raw if sign == "-" else raw


class Dec:
    """An exact decimal number with 18 fractional digits."""

    __slots__ = ("_raw",)

    def __init__(self, value: "Dec | int | str" = 0):
        if isinstance(value, str):  # the loader's and the CLI's case
            self._raw = _parse(value)
        elif isinstance(value, Dec):
            self._raw = value._raw
        elif isinstance(value, bool):
            raise TypeError("cannot construct Dec from bool")
        elif isinstance(value, int):
            self._raw = _checked(value * SCALE)
        elif isinstance(value, float):
            raise TypeError("floats are not exact; construct Dec from str or int")
        else:
            raise TypeError(f"cannot construct Dec from {type(value).__name__}")

    @classmethod
    def from_raw(cls, raw: int) -> "Dec":
        """Build a Dec from its scaled integer representation."""
        d = object.__new__(cls)
        d._raw = _checked(raw)
        return d

    @property
    def raw(self) -> int:
        return self._raw

    @classmethod
    def mul_div(cls, a: "Dec", b: "Dec", c: "Dec") -> "Dec":
        """a*b/c with a single half-even rounding (exact intermediate product)."""
        if c._raw == 0:
            raise ZeroDivisionError("mul_div by zero")
        n = a._raw * b._raw
        d = c._raw
        if d < 0:
            n, d = -n, -d
        return cls.from_raw(_round_div(n, d))

    # -- coercion ------------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Dec):
            return other
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, int):
            return Dec(other)
        if isinstance(other, float):
            raise TypeError("floats are not exact; convert to Dec explicitly")
        return NotImplemented

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dec.from_raw(self._raw + other._raw)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dec.from_raw(self._raw - other._raw)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dec.from_raw(other._raw - self._raw)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dec.from_raw(_mul(self._raw, other._raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dec.from_raw(_div(self._raw, other._raw))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __neg__(self):
        return Dec.from_raw(-self._raw)

    def __pos__(self):
        return self

    def __abs__(self):
        return Dec.from_raw(abs(self._raw))

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if type(other) is not Dec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._raw == other._raw

    def __lt__(self, other):
        if type(other) is not Dec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._raw < other._raw

    def __le__(self, other):
        if type(other) is not Dec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._raw <= other._raw

    def __gt__(self, other):
        if type(other) is not Dec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._raw > other._raw

    def __ge__(self, other):
        if type(other) is not Dec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._raw >= other._raw

    def __hash__(self):
        # integral values hash like the matching int, so Dec(5) == 5 stays safe
        whole, frac = divmod(self._raw, SCALE)
        if frac == 0:
            return hash(whole)
        return hash(("liqlab.Dec", self._raw))

    def __bool__(self):
        return self._raw != 0

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        sign = "-" if self._raw < 0 else ""
        whole, frac = divmod(abs(self._raw), SCALE)
        if frac == 0:
            return f"{sign}{whole}"
        return f"{sign}{whole}." + str(frac).zfill(DIGITS).rstrip("0")

    def __repr__(self):
        return f"Dec('{self}')"


ZERO = Dec(0)
ONE = Dec(1)
ULP = Dec.from_raw(1)  # one unit in the 18th fractional digit
