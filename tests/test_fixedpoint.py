import json
import operator
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from liqlab import Dec, load_scenario
from liqlab.cli import main
from liqlab.errors import InvalidScenarioError
from liqlab.fixedpoint import DIGITS, SCALE, ULP, ZERO, _BOUND

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestConstruction:
    def test_parse_integers_and_decimals(self):
        assert Dec("3500").raw == 3500 * SCALE
        assert Dec("1.095299").raw == 1_095_299 * 10**12
        assert Dec("-0.5").raw == -(SCALE // 2)
        assert Dec(".5").raw == SCALE // 2
        assert Dec(42).raw == 42 * SCALE
        assert Dec("0.000000000000000001").raw == 1

    def test_parse_rejects_garbage(self):
        for bad in ("", ".", "1.2.3", "abc", "1,5", "1e5", "5."):
            with pytest.raises(ValueError):
                Dec(bad)

    def test_parse_rejects_excess_fraction_digits(self):
        with pytest.raises(ValueError):
            Dec("0.0000000000000000001")  # 19 digits

    def test_rejects_floats_and_bools(self):
        with pytest.raises(TypeError):
            Dec(0.1)
        with pytest.raises(TypeError):
            Dec(True)
        with pytest.raises(TypeError):
            Dec(1) + 0.5

    def test_str_is_canonical(self):
        assert str(Dec("1.10")) == "1.1"
        assert str(Dec("-0")) == "0"
        assert str(Dec("420")) == "420"
        assert str(Dec("-2.050")) == "-2.05"
        assert str(ULP) == "0.000000000000000001"


class TestArithmetic:
    def test_add_sub_exact(self):
        assert Dec("0.1") + Dec("0.2") == Dec("0.3")
        assert Dec("1") - Dec("0.000000000000000001") == Dec("0.999999999999999999")

    def test_mul_exact_when_representable(self):
        assert Dec("4200") * Dec("1.1") == Dec("4620")
        assert Dec("0.75") * Dec("1.08") == Dec("0.81")

    def test_mul_rounds_half_even(self):
        # 3e-18 * 0.5 = 1.5e-18, tie rounds to the even digit 2e-18
        assert Dec.from_raw(3) * Dec("0.5") == Dec.from_raw(2)
        assert Dec.from_raw(1) * Dec("0.5") == ZERO

    def test_div_rounds_half_even(self):
        assert str(Dec(1) / Dec(3)) == "0.333333333333333333"
        assert str(Dec(2) / Dec(3)) == "0.666666666666666667"
        assert str(Dec(625) / Dec(19)) == "32.894736842105263158"
        assert Dec(-3) / Dec(2) == Dec("-1.5")
        assert Dec.from_raw(1) / Dec(2) == ZERO  # 0.5e-18 ties to even 0
        assert Dec.from_raw(3) / Dec(2) == Dec.from_raw(2)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Dec(1) / ZERO
        with pytest.raises(ZeroDivisionError):
            Dec.mul_div(Dec(1), Dec(1), ZERO)

    def test_mul_div_single_rounding(self):
        # a*b/a returns b exactly even when a*b alone would round
        a, b = Dec("110"), Dec("95")
        assert Dec.mul_div(a, b, a) == b
        third = Dec(1) / Dec(3)
        assert Dec.mul_div(third, Dec(3), Dec(1)) == Dec.from_raw(third.raw * 3)

    @pytest.mark.parametrize("raw, divisor", [
        (1, -2), (3, -2), (5, -2), (7, -2),  # ties, to the even neighbour
        (10**18, -3), (2 * 10**18, -3), (-(10**18), -3), (10**18, -7),
    ])
    def test_mul_div_by_a_negative_divisor_is_the_positive_one_negated(self, raw, divisor):
        a = Dec.from_raw(raw)
        assert Dec.mul_div(a, Dec(1), Dec(divisor)) == -(a / Dec(-divisor))

    def test_overflow_is_an_error(self):
        big = Dec.from_raw(2**254)
        with pytest.raises(OverflowError):
            big * Dec(4)
        with pytest.raises(OverflowError):
            big + big
        with pytest.raises(OverflowError):
            Dec(2**200)

    def test_int_coercion(self):
        assert Dec(2) * 3 == Dec(6)
        assert 10 - Dec("2.5") == Dec("7.5")
        assert 1 / Dec(4) == Dec("0.25")


class TestComparisons:
    def test_ordering(self):
        assert Dec("1.5") < Dec(2) <= Dec(2) < Dec("2.1")
        assert max(Dec(3), Dec("3.000000000000000001")) == Dec.from_raw(3 * SCALE + 1)

    def test_equality_and_hash_with_ints(self):
        assert Dec(5) == 5
        assert hash(Dec(5)) == hash(5)
        assert Dec("5.5") != 5


X = Dec("1.5")
BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}
FLOAT_REFUSED = (TypeError, "floats are not exact; convert to Dec explicitly")


def _pairs(*outcomes):
    """One operand's (``X op operand``, ``operand op X``) outcomes, in
    ``BINARY`` order; a lone outcome holds for every operator and order."""
    if len(outcomes) == 1:
        outcomes = [(outcomes[0], outcomes[0])] * len(BINARY)
    return dict(zip(BINARY, outcomes))


# the operand rule: a Dec or an int, not a bool; a float is refused; any
# other type is left to Python, so == is False and < is a TypeError; an int
# past the range overflows
_FOREIGN = _pairs(
    *[(TypeError, TypeError)] * 4, (False, False), (True, True), *[(TypeError, TypeError)] * 4
)
OPERAND_TABLE = [
    (Dec("-2.25"), _pairs(
        (Dec("-0.75"), Dec("-0.75")), (Dec("3.75"), Dec("-3.75")),
        (Dec("-3.375"), Dec("-3.375")), (Dec("-0.666666666666666667"), Dec("-1.5")),
        (False, False), (True, True), (False, True), (False, True), (True, False), (True, False),
    )),
    (0, _pairs(
        (Dec("1.5"), Dec("1.5")), (Dec("1.5"), Dec("-1.5")), (Dec(0), Dec(0)),
        (ZeroDivisionError, Dec(0)),
        (False, False), (True, True), (False, True), (False, True), (True, False), (True, False),
    )),
    (3, _pairs(
        (Dec("4.5"), Dec("4.5")), (Dec("-1.5"), Dec("1.5")), (Dec("4.5"), Dec("4.5")),
        (Dec("0.5"), Dec(2)),
        (False, False), (True, True), (True, False), (True, False), (False, True), (False, True),
    )),
    (2**250, _pairs(OverflowError)),
    (True, _FOREIGN),
    (0.5, _pairs(FLOAT_REFUSED)),
    ("1", _FOREIGN),
    (None, _FOREIGN),
]


def _assert_outcome(compute, expected):
    if isinstance(expected, (Dec, bool)):
        result = compute()
        assert type(result) is type(expected) and result == expected
        return
    kind, message = expected if isinstance(expected, tuple) else (expected, None)
    with pytest.raises(kind) as info:
        compute()
    assert message is None or str(info.value) == message


@pytest.mark.parametrize(
    "operand, symbol, forward, reflected",
    [(operand, symbol, *pair)
     for operand, pairs in OPERAND_TABLE for symbol, pair in pairs.items()],
    ids=[f"{'2**250' if type(operand) is int and operand > 2**64 else repr(operand)} {symbol}"
         for operand, pairs in OPERAND_TABLE for symbol in pairs],
)
def test_operand_rule(operand, symbol, forward, reflected):
    op = BINARY[symbol]
    _assert_outcome(lambda: op(X, operand), forward)
    _assert_outcome(lambda: op(operand, X), reflected)


def test_unary_operators():
    _assert_outcome(lambda: -X, Dec("-1.5"))
    _assert_outcome(lambda: +X, X)
    _assert_outcome(lambda: +Dec("-2.25"), Dec("-2.25"))
    _assert_outcome(lambda: abs(X), X)
    _assert_outcome(lambda: abs(Dec("-2.25")), Dec("2.25"))
    _assert_outcome(lambda: -Dec.from_raw(1 - 2**255), Dec.from_raw(2**255 - 1))


@pytest.mark.parametrize("value, expected", [
    (Dec("-2.25"), Dec("-2.25")),
    (3, Dec("3")),
    (2**250, OverflowError),
    (True, (TypeError, "cannot construct Dec from bool")),
    (0.5, (TypeError, "floats are not exact; construct Dec from str or int")),
    (None, (TypeError, "cannot construct Dec from NoneType")),
    (b"1", (TypeError, "cannot construct Dec from bytes")),
])
def test_construction_rule(value, expected):
    _assert_outcome(lambda: Dec(value), expected)


small_raws = st.integers(min_value=-(10**24), max_value=10**24)


@given(a=small_raws, b=small_raws)
def test_add_sub_roundtrip(a, b):
    x, y = Dec.from_raw(a), Dec.from_raw(b)
    assert (x + y) - y == x


@given(a=small_raws)
def test_str_roundtrip(a):
    x = Dec.from_raw(a)
    assert Dec(str(x)) == x


@given(a=st.integers(-(10**9), 10**9), b=st.integers(-(10**9), 10**9))
def test_integer_products_exact(a, b):
    assert Dec(a) * Dec(b) == Dec(a * b)


# -- the decimal grammar against the earlier parser ----------------------------


def _reference_checked(raw: int) -> int:
    if raw >= _BOUND or raw <= -_BOUND:
        raise OverflowError(f"fixed-point magnitude exceeds 2**255: {raw}")
    return raw


def _reference_parse(text: str) -> int:
    """The parser ``Dec(str)`` used before the one-pass grammar, kept as the
    reference: it converts every digit it reads."""
    s = text.strip()
    negative = s.startswith("-")
    if s[:1] in ("+", "-"):
        s = s[1:]
    whole, dot, frac = s.partition(".")
    if (dot and not frac) or (not whole and not frac):
        raise ValueError(f"not a decimal string: {text!r}")
    for part in (whole, frac):
        if part and not (part.isascii() and part.isdigit()):
            raise ValueError(f"not a decimal string: {text!r}")
    if len(frac) > DIGITS:
        raise ValueError(f"more than {DIGITS} fractional digits: {text!r}")
    raw = int(whole or "0") * SCALE + int(frac.ljust(DIGITS, "0") or "0")
    return _reference_checked(-raw if negative else raw)


def _outcome(parse, text):
    """The raw value ``parse`` returns, or the type and message it raises."""
    try:
        return parse(text)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _reference_outcome(text):
    """The reference's outcome with no int-string limit, where the running
    interpreter has one, so a long run of leading zeros reads as its value."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return _outcome(_reference_parse, text)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return _outcome(_reference_parse, text)
    finally:
        set_limit(limit)


def _too_long(outcome) -> bool:
    """True when the reference overflowed on a number of more digits than
    2**255 has."""
    if not (isinstance(outcome, tuple) and outcome[0] is OverflowError):
        return False
    return len(outcome[1].rsplit(" ", 1)[1].lstrip("-")) > len(str(_BOUND))


# every character that str.strip removes lies at or below U+3000
SPACES = [c for c in map(chr, range(0x3001)) if c.isspace()]
ascii_digits = st.sampled_from("0123456789")


def digit_runs(size):
    """ASCII digits, every length up to ``size`` equally likely, and in one
    run in four non-ASCII digits that str.isdigit accepts."""
    ascii_run = st.integers(0, size).flatmap(
        lambda n: st.text(ascii_digits, min_size=n, max_size=n)
    )
    mixed = st.text(ascii_digits | st.sampled_from("\u0663\u06f7\u0967\uff10\u00b2"), max_size=size)
    return st.one_of(ascii_run, ascii_run, ascii_run, mixed)


decimal_texts = st.builds(
    lambda lead, sign, zeros, whole, point, frac, trail: (
        lead + sign + "0" * zeros + whole + point + frac + trail
    ),
    lead=st.text(st.sampled_from(SPACES), max_size=2),
    sign=st.sampled_from(["", "", "", "+", "-", "-", "--", "+-"]),
    # runs of leading zeros on both sides of the int-string limit of 4300
    zeros=st.integers(0, 30) | st.integers(4250, 4350),
    # an integer part of up to 58 digits always fits, one of 60 never does
    whole=digit_runs(20) | st.text(ascii_digits, min_size=55, max_size=80),
    point=st.sampled_from(["", "", ".", ".", ".", ".."]),
    frac=digit_runs(25),
    trail=st.text(st.sampled_from(SPACES + ["\n"]), max_size=2),
)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(*[decimal_texts] * 3, st.text(max_size=12)))
@example("0" * 5000 + "1")
@example("1." + "5" * 18)
@example("1." + "5" * 19)
@example("9" * 59 + ".999999999999999999")
@example("-" + "5" * 77)
@example("1" * 100)
@example("\u3000+.5\n")
# what a parser without a regex can get wrong: int() reads "1_0", isdigit()
# accepts "²" and "٣", and a point, a sign or a split needs digits around it
@example("1_0")
@example("\u00b2")
@example("\u0663.5")
@example("5.")
@example(".")
@example("+")
@example("-.")
@example("+-1")
@example("1.2.3")
@example("0x1f")
@example(" .5\t")
def test_parser_matches_the_reference(text):
    expected = _reference_outcome(text)
    actual = _outcome(lambda t: Dec(t).raw, text)
    if _too_long(expected):
        # rejected without converting the digits, so the message gives the
        # length of the integer part, not the number
        assert actual[0] is OverflowError
        assert actual[1].startswith("fixed-point magnitude exceeds 2**255: integer part of ")
    else:
        assert actual == expected


class TestIntStringLimit:
    def test_leading_zeros_parse_to_their_value(self):
        assert Dec("0" * 5000 + "1") == Dec(1)
        assert Dec(" -" + "0" * 5000 + "2.50\n") == Dec("-2.5")
        assert Dec("0" * 5000 + "." + "0" * 17 + "1") == ULP

    @pytest.mark.parametrize("digits", [78, 100, 5000])
    def test_every_out_of_range_string_is_an_overflow(self, digits):
        with pytest.raises(OverflowError) as info:
            Dec("1" * digits)
        assert str(info.value) == (
            f"fixed-point magnitude exceeds 2**255: integer part of {digits} digits"
        )

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit in this Python"
    )
    def test_lowered_limit_changes_no_outcome(self, capsys):
        args = ["strategy", "--d", "100", "--lt", "0.75", "--ls", "0.08", "--cf", "0.5"]
        assert main(args + ["--c", "125"]) == 0
        plan = capsys.readouterr().out
        doc = json.loads((FIXTURES / "eth_price_drop.json").read_text())
        expected = load_scenario(doc)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert Dec("0" * 5000 + "1") == Dec(1)
            with pytest.raises(OverflowError, match="integer part of 5000 digits"):
                Dec("1" * 5000)
            with pytest.raises(OverflowError, match="integer of 2386 bits"):
                Dec(10**700)
            # the loader: the same value, or the field's named overflow
            doc["positions"][0]["collateral"]["ETH"] = "0" * 5000 + "3"
            assert load_scenario(doc) == expected
            doc["positions"][0]["collateral"]["ETH"] = "9" * 5000
            with pytest.raises(InvalidScenarioError) as info:
                load_scenario(doc)
            assert (info.value.field, info.value.problem) == (
                "positions[0].collateral.ETH",
                "fixed-point magnitude exceeds 2**255: integer part of 5000 digits",
            )
            # a CLI flag: the same plan, or a flag error
            assert main(args + ["--c", "0" * 5000 + "125"]) == 0
            assert capsys.readouterr().out == plan
            assert main(args + ["--c", "1" * 5000]) == 1
            assert "argument --c: fixed-point magnitude exceeds 2**255" in capsys.readouterr().err
        finally:
            sys.set_int_max_str_digits(limit)
