"""A tier-1 slice of the byte-identical output sweep.

``tools/sweep_digests.py`` (loaded read-only) defines 693 runs and
``tools/sweep_digests.txt`` records one digest per run; the full sweep runs
in CI. Here every run of a fixture and of seed 0 must reproduce its recorded
digest and pass ``invariants.check_run``: it runs under
``invariants.CheckedRun``, which checks the sums the engine keeps after
every scan, the health each fixed-spread call leaves and the book each
auction settlement leaves, and the naive reference engine must give the
same log or error; when it completes every fixed-spread event must carry
its own arithmetic and every auction event must seize something. CI runs
``check_run`` on every run of the sweep.
"""

from __future__ import annotations

import pytest

from invariants import TOOLS, check_run, load_sweep

SWEEP = load_sweep()
RECORDED = dict(
    line.split() for line in (TOOLS / "sweep_digests.txt").read_text(encoding="utf-8").splitlines()
)
SLICE = [run for run in SWEEP.runs() if run[0].startswith("fixture/") or "/seed00/" in run[0]]


def test_the_slice_covers_the_fixtures_and_seed_0():
    assert len(SLICE) == 50
    assert len(RECORDED) == 693


@pytest.mark.parametrize("key, doc, scans", SLICE, ids=[run[0] for run in SLICE])
def test_run_reproduces_its_recorded_digest(key, doc, scans):
    assert SWEEP.digest(doc, scans) == RECORDED[key]
    check_run(doc)
