"""Engine invariants checked while a scenario runs.

``CheckedRun`` is the engine's own run with one addition: after every scan
it values each position afresh from the book, with ``core.value_sums`` at
the block's snapshot, and asserts that the sums the engine keeps by deltas
are those, and that the scan's total is their re-sum. After the run it
asserts that the log records that total at each block that scanned, and
keeps it until the next one. At each auction settlement it asserts that
the collateral left is worth the refund and the debt left is worth what the
winner did not pay, ``max(d - paid, 0)``, each within the rounding of its
balances: one rounding of each kept amount and one of its value, so
``1 + ceil(price / 2)`` raw units per balance, with the price in USD per
whole unit. It reads the run's state through the class it extends, so the
engine exposes nothing for it.

``EveryBlockRun`` is the engine's run with its block clock stopped: it
visits every block from 0 to the horizon, where the engine jumps over the
blocks in which it finds that nothing can happen.

``check_run`` adds the per-event checks to a checked run of a scenario
document, and asserts that ``EveryBlockRun`` gives the same log, or the same
error. Run as a script, it checks every run of the output sweep
(``tools/sweep_digests.py``):

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
from liqlab.sim import EventLog, StepSeries, _Run

from helpers import assert_fixed_spread_arithmetic

TOOLS = Path(__file__).resolve().parent.parent / "tools"


class CheckedRun(_Run):
    def __init__(self, scenario):
        super().__init__(scenario)
        self.scanned = None  # the last scan's fresh total, until its block is known
        self.totals = {}  # block -> the fresh total of the scan made in it

    def _scan(self) -> int:
        total = super()._scan()
        fresh = 0
        for owner in self.order:
            # building the Position also checks that no balance is negative
            sums = value_sums(self._position(owner), self.oracle, self.scenario.params)
            assert tuple(self._sums(owner)) == sums, owner
            fresh += sums[0]
        assert total == fresh
        self.scanned = fresh
        return total

    def _settle(self, owner, settlement, sums) -> None:
        # the sums are live: read the debt before the book changes
        d = sums[2]
        slack = [
            sum(1 + -(-self.prices[slot] // (2 * SCALE)) for slot in balances)
            for balances in self.terms[owner][:2]
        ]
        super()._settle(owner, settlement, sums)
        c_left, _, d_left = sums
        assert abs(c_left - settlement.borrower_refund_usd.raw) <= slack[0], owner
        assert abs(d_left - max(d - settlement.paid_usd.raw, 0)) <= slack[1], owner

    def _settle_auctions(self, block):
        # every block that scans goes on to its settlements
        if self.scanned is not None:
            self.totals[block], self.scanned = self.scanned, None
        super()._settle_auctions(block)

    def run(self) -> EventLog:
        log = super().run()
        # block 0 always scans; a block that does not keeps the last total
        recorded = StepSeries(
            list(self.totals), [Dec.from_raw(t) for t in self.totals.values()],
            self.scenario.blocks,
        )
        assert log.collateral_volume_by_block == recorded
        return log


class EveryBlockRun(_Run):
    def _settle_auctions(self, block):
        super()._settle_auctions(block)
        # a bound at the next block wakes it, so every block runs its agents
        # and checks each open auction's deadline
        self.next_deadline = block + 1


def run_checked(scenario) -> EventLog:
    """``run_scenario(scenario)``, checking the invariants above."""
    return CheckedRun(scenario).run()


def _outcome(run_class, scenario):
    """The run's log, or the type and message of the ``LiqlabError`` that
    ended it."""
    try:
        return run_class(scenario).run()
    except LiqlabError as exc:
        return type(exc), str(exc)


def check_run(doc):
    """Load ``doc`` and run it under ``CheckedRun``, and assert that
    ``EveryBlockRun`` gives the same events, volume series and final
    positions, or the same error; when it completes, assert that every
    fixed-spread event carries its own arithmetic and that every auction
    event seizes something, and return the log. A document or run that ends
    in a ``LiqlabError`` returns None: the sweep's digest records the
    error."""
    try:
        scenario = load_scenario(doc)
    except LiqlabError:
        return None
    log = _outcome(CheckedRun, scenario)
    assert _outcome(EveryBlockRun, scenario) == log
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
