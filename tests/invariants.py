"""Engine invariants checked while a scenario runs.

``CheckedRun`` is the engine's own run with three additions. After every
scan it values each position afresh from the book, with
``core.value_sums`` at the block's snapshot, and asserts that the sums the
engine keeps by deltas are those. Around each landed fixed-spread call on a
position whose health ``bc/d`` stood above ``LT·(1 + LS)``, with ``LT``
the seized asset's threshold, it asserts that a debt left behind is
healthier than before, within the rounding of the seized balance's term.
At each auction settlement it asserts that the collateral left is worth the
refund and the debt left is worth what the winner did not pay,
``max(d - paid, 0)``, each within the rounding of its balances. The
rounding of one balance is one rounding of its kept amount and one of its
value, so ``1 + ceil(price / 2)`` raw units, with the price in USD per
whole unit. It reads the run's state through the class it extends, so the
engine exposes nothing for it.

``check_run`` adds the per-event checks to a checked run of a scenario
document, and asserts that the naive reference engine
(``reference_engine.run_reference``) gives the same log, or the same error.
The reference visits every block, re-sums the collateral volume in each
and values every position afresh, so that one comparison covers the block
clock, the volume series and the final book. Run as a script, it checks
every run of the output sweep (``tools/sweep_digests.py``):

    PYTHONPATH=src python3 tests/invariants.py
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from liqlab import Dec, Mechanism, load_scenario
from liqlab.core import value_sums
from liqlab.errors import LiqlabError
from liqlab.fixedpoint import SCALE
from liqlab.sim import EventLog, _Run

import reference_engine
from helpers import assert_fixed_spread_arithmetic

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _slack(price) -> int:
    """The rounding of one balance's term at the raw ``price``, in raw USD."""
    return 1 + -(-price // (2 * SCALE))


class CheckedRun(_Run):
    def _scan(self) -> int:
        total = super()._scan()
        for owner in self.terms:
            # building the Position also checks that no balance is negative
            sums = value_sums(self._position(owner), self.oracle, self.scenario.params)
            assert tuple(self._sums(owner)) == sums, owner
        return total

    def _liquidate(self, block, agent_id, owner, sums, desired=None, pair=None) -> bool:
        if pair is None:
            pair = self._choose_pair(owner)
        # the sums are live: read them before the book changes
        _, bc, d = sums
        landed = super()._liquidate(block, agent_id, owner, sums, desired, pair)
        _, bc_after, d_after = sums
        if landed and d_after > 0:
            k = pair[1]  # the seized slot
            params = self.scenario.params
            lt = params.lt[self.assets[k]].raw
            if bc * SCALE * SCALE > lt * (SCALE + params.ls.raw) * d:
                assert (bc_after + _slack(self.prices[k])) * d > bc * d_after, owner
        return landed

    def _settle(self, owner, settlement, sums) -> None:
        # the sums are live: read the debt before the book changes
        d = sums[2]
        slack = [
            sum(_slack(self.prices[slot]) for slot in balances)
            for balances in self.terms[owner][:2]
        ]
        super()._settle(owner, settlement, sums)
        c_left, _, d_left = sums
        assert abs(c_left - settlement.borrower_refund_usd.raw) <= slack[0], owner
        assert abs(d_left - max(d - settlement.paid_usd.raw, 0)) <= slack[1], owner


def run_checked(scenario) -> EventLog:
    """``run_scenario(scenario)``, checking the invariants above."""
    return CheckedRun(scenario).run()


def _outcome(run, scenario):
    """The run's log, or the type and message of the ``LiqlabError`` that
    ended it."""
    try:
        return run(scenario)
    except LiqlabError as exc:
        return type(exc), str(exc)


def check_run(doc):
    """Load ``doc`` and run it under ``CheckedRun``, and assert that the
    reference engine gives the same events, volume series and final
    positions, or the same error; when it completes, assert that every
    fixed-spread event carries its own arithmetic and that every auction
    event seizes something, and return the log. A document or run that ends
    in a ``LiqlabError`` returns None: the sweep's digest records the
    error."""
    try:
        scenario = load_scenario(doc)
    except LiqlabError:
        return None
    log = _outcome(run_checked, scenario)
    assert _outcome(reference_engine.run_reference, scenario) == log
    if not isinstance(log, EventLog):
        return None
    for ev in log.events:
        if ev.mechanism is Mechanism.FIXED_SPREAD:
            assert_fixed_spread_arithmetic(ev, scenario)
        else:
            assert ev.seized_usd > Dec(0)
    return log


def load_sweep():
    """``tools/sweep_digests.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("sweep_digests", TOOLS / "sweep_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    completed = events = 0
    runs = list(load_sweep().runs())
    for key, doc, _ in runs:
        try:
            log = check_run(doc)
        except AssertionError:
            print(f"invariant broken on {key}", file=sys.stderr)
            raise
        if log is not None:
            completed += 1
            events += len(log.events)
    print(f"{len(runs)} sweep runs checked: {completed} completed, {events} events")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
