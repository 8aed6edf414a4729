"""Engine invariants checked while a scenario runs.

``CheckedRun`` is the engine's own run with one addition: after every scan
it values each position afresh from the book, with ``core.value_sums`` at
the block's snapshot, and asserts that the sums the engine keeps by deltas
are those, and that the scan's total is their re-sum. After the run it
asserts that the log records that total at each block that scanned, and
keeps it until the next one. It reads the run's state through the class it
extends, so the engine exposes nothing for it.
"""

from __future__ import annotations

from liqlab import Dec
from liqlab.core import value_sums
from liqlab.sim import EventLog, StepSeries, _Run


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


def run_checked(scenario) -> EventLog:
    """``run_scenario(scenario)``, checking the invariants above."""
    return CheckedRun(scenario).run()
