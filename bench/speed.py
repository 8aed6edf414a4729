"""Wall times rescaled by how fast the machine runs at the moment they are taken.

On a shared host the same operation on the same input can take 1.9 times
longer from one few-second stretch to the next, and the slow stretches come
and go with other tenants' load. A median of raw wall times therefore moves
with the host, not with the program.

Each timed call is bracketed by probes: short runs of a fixed reference
kernel that lives here and never calls liqlab. The call's wall time is
divided by the mean of the probe times around it and multiplied by
``NOMINAL_PROBE_S``, so it reads as seconds on a machine on which one probe
takes ``NOMINAL_PROBE_S``. The kernel does the kind of work liqlab does
(small objects, 18-digit fixed-point integer arithmetic, big-integer
fractions, dict lookups, string formatting, JSON), so both slow down together when the host is busy.
Because the kernel is fixed, any change to liqlab shows in full.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from fractions import Fraction

# the probe time on a 2-vCPU Xeon host with Python 3.11 in a quiet stretch;
# a fixed constant, so rescaled times read as seconds on that host when quiet
NOMINAL_PROBE_S = 0.0021
# kernel passes per probe; the probe time is their median
PROBE_PASSES = 3

_SCALE = 10**18


class _Fixed:
    """A minimal 18-digit fixed-point number, for the reference kernel only."""

    __slots__ = ("raw",)

    def __init__(self, raw: int):
        self.raw = raw

    def __add__(self, other):
        if not isinstance(other, _Fixed):
            return NotImplemented
        return _Fixed(self.raw + other.raw)

    def __mul__(self, other):
        if not isinstance(other, _Fixed):
            return NotImplemented
        q, r = divmod(self.raw * other.raw, _SCALE)
        if 2 * r > _SCALE or (2 * r == _SCALE and q & 1):
            q += 1
        return _Fixed(q)

    def __str__(self):
        whole, frac = divmod(self.raw, _SCALE)
        return f"{whole}.{frac:018d}"


class Probe:
    """The reference kernel and the rescaling of wall times by it."""

    def __init__(self):
        rng = random.Random("speed-probe")
        assets = ("ETH", "WBTC", "USDC", "DAI")
        self._prices = {a: _Fixed(rng.randint(1, 10**6) * 10**16) for a in assets}
        self._book = [
            {a: _Fixed(rng.randint(1, 10**7) * 10**14) for a in rng.sample(assets, 2)}
            for _ in range(120)
        ]
        self._ratios = [(rng.randint(1, 10**9), rng.randint(1, 10**6)) for _ in range(80)]
        self._document = json.dumps(
            [{"owner": f"b{i:05d}", "amount": str(rng.randint(1, 10**9) / 1000), "blocks": [i, i + 1]}
             for i in range(240)]
        )

    def _kernel(self) -> str:
        """Value every position of the fixed book three times, sum a series of
        fractions and round-trip a JSON document."""
        rows = []
        for _ in range(3):
            for position in self._book:
                total = _Fixed(0)
                for asset, amount in position.items():
                    total = total + amount * self._prices[asset]
                rows.append(str(total))
        rows.sort()
        acc = Fraction(0)
        for numerator, denominator in self._ratios:
            x = Fraction(numerator, denominator)
            acc += x * x / (x + 1)
        rows.append(str(acc))
        return json.dumps(json.loads(self._document)) + ",".join(rows)

    def probe(self) -> float:
        """Median wall time of ``PROBE_PASSES`` kernel passes, in seconds."""
        samples = []
        for _ in range(PROBE_PASSES):
            start = time.perf_counter()
            self._kernel()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    def scaled(self, elapsed: float, before: float, after: float) -> float:
        """``elapsed`` wall seconds, taken between probes ``before`` and ``after``,
        as seconds on a machine where one probe takes ``NOMINAL_PROBE_S``."""
        return elapsed * NOMINAL_PROBE_S / ((before + after) / 2)
