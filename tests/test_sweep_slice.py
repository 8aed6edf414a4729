"""A tier-1 slice of the byte-identical output sweep.

``tools/sweep_digests.py`` (loaded read-only) defines 682 runs and
``tools/sweep_digests.txt`` records one digest per run; the full sweep runs
in CI. Here every run of a fixture and of seed 0 must reproduce its recorded
digest, and on each of those runs that completes every fixed-spread event
must carry its own arithmetic and every auction event must seize something.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from liqlab import Dec, Mechanism, load_scenario, run_scenario
from liqlab.errors import LiqlabError

from helpers import assert_fixed_spread_arithmetic

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _sweep():
    spec = importlib.util.spec_from_file_location("sweep_digests", TOOLS / "sweep_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SWEEP = _sweep()
RECORDED = dict(
    line.split() for line in (TOOLS / "sweep_digests.txt").read_text(encoding="utf-8").splitlines()
)
SLICE = [run for run in SWEEP.runs() if run[0].startswith("fixture/") or "/seed00/" in run[0]]


def test_the_slice_covers_the_fixtures_and_seed_0():
    assert len(SLICE) == 47
    assert len(RECORDED) == 682


@pytest.mark.parametrize("key, doc, scans", SLICE, ids=[run[0] for run in SLICE])
def test_run_reproduces_its_recorded_digest(key, doc, scans):
    assert SWEEP.digest(doc, scans) == RECORDED[key]
    try:
        scenario = load_scenario(doc)
        log = run_scenario(scenario)
    except LiqlabError:
        return  # the digest recorded the error
    for ev in log.events:
        if ev.mechanism is Mechanism.FIXED_SPREAD:
            assert_fixed_spread_arithmetic(ev, scenario)
        else:
            assert ev.seized_usd > Dec(0)
