"""Shared test helpers: tolerant Dec comparisons, instance generators, and
what the library and its Dec-expression ports return or raise."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from liqlab import Dec, RiskParams
from liqlab.errors import LiqlabError

TOL6 = Dec("0.000001")
TOL9 = Dec("0.000000001")
TOL12 = Dec("0.000000000001")
TWO_ULP = Dec.from_raw(2)


def assert_close(actual: Dec, expected: Dec, tol: Dec) -> None:
    assert abs(actual - expected) <= tol, f"{actual} vs {expected} (tol {tol})"


def rel_close(actual: Dec, expected: Dec, rel: Dec) -> bool:
    """|actual - expected| <= rel * max(|actual|, |expected|); exact match passes."""
    if actual == expected:
        return True
    scale = max(abs(actual), abs(expected))
    return abs(actual - expected) <= rel * scale


def random_valid_instance(rng: random.Random, margin_pct: int = 5):
    """A liquidatable over-collateralized instance inside the improvement band.

    Samples LT in [0.50, 0.90] and LS in [0.02, 0.15] (both at 2 fractional
    digits) with LT*(1+LS) < 1, CF from {0.5, 1}, then a collateral value with
    CR strictly inside (1+LS, 1/LT), keeping ``margin_pct`` percent of the
    band away from both ends so closed-form comparisons are not dominated by
    18th-digit rounding. Returns (c, d, lt, params).
    """
    one = Dec(1)
    while True:
        lt = Dec(rng.randint(50, 90)) / Dec(100)
        ls = Dec(rng.randint(2, 15)) / Dec(100)
        if lt * (one + ls) < one:
            break
    cf = Dec("0.5") if rng.random() < 0.5 else Dec(1)
    params = RiskParams(lt={}, ls=ls, cf=cf)
    d = Dec(rng.randint(100, 1_000_000))
    lo = (one + ls) * d
    hi = d / lt
    span = hi.raw - lo.raw
    margin = span * margin_pct // 100
    c = Dec.from_raw(rng.randrange(lo.raw + margin + 1, hi.raw - margin))
    return c, d, lt, params


def unclamped_instance(rng: random.Random):
    """Like random_valid_instance but resampled until the closed-form first
    repay stays at or under the close-factor cap."""
    one = Dec(1)
    while True:
        c, d, lt, params = random_valid_instance(rng)
        r_star = (d - lt * c) / (one - lt * (one + params.ls))
        if r_star <= params.cf * d:
            return c, d, lt, params


RAW_BOUND = 2**255  # a raw's magnitude must stay below this


def raw_magnitudes(low: int = 0):
    """Raws of at least ``low`` from small to the edge of the Dec range: the
    products of the larger ones cross 2**255, and the largest are within
    2e18 of it, where even adding one (``ONE + x``) overflows."""
    return st.one_of(
        st.integers(max(low, 0), 10**24),
        st.integers(max(low, 2**150), 2**170),
        st.integers(max(low, 2**240), RAW_BOUND - 1),
        st.integers(RAW_BOUND - 2 * 10**18, RAW_BOUND - 1),
    )


def answer(fn, *args):
    """What ``fn(*args)`` returns, a refusal it returns unraised, or the
    error it raises, in a form that compares across implementations."""
    try:
        result = fn(*args)
    except (LiqlabError, OverflowError, ZeroDivisionError) as exc:
        return "raised", type(exc), str(exc)
    if isinstance(result, LiqlabError):
        return "refused", type(result), str(result)
    return result
