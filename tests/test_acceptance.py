"""Acceptance gate: every numbered criterion runs and must pass.

Each test prints the criterion's own report line, so `pytest -s` (or the
`hypergrowth verify --suite all` command) shows one pass/fail line per
criterion.
"""

import pytest

from hypergrowth import ideals
from hypergrowth.verify import ALL_CRITERIA, run_one


@pytest.mark.parametrize("number", range(1, len(ALL_CRITERIA) + 1),
                         ids=lambda i: f"criterion-{i:02d}")
def test_criterion(number):
    res = run_one(number)
    print(res.line())
    assert res.number == number
    assert res.passed, res.detail


def test_count_is_thirteen():
    assert len(ALL_CRITERIA) == 13


def test_criterion_13_catches_a_broken_path(monkeypatch):
    """Criterion 13 checks the engine's paths against each other, so a
    fault in any one of them turns it red."""
    lane_count = ideals._lane_count

    def count_one_more(*args):
        count, nodes = lane_count(*args)
        return (None if count is None else count + 1), nodes

    def drop_a_parent(parent_filter):
        return lambda parents, *rest: parent_filter(parents[1:], *rest)

    mutants = {"_lane_count": count_one_more,
               "_lane_filter": drop_a_parent(ideals._lane_filter),
               "_scan_filter": drop_a_parent(ideals._scan_filter)}
    for name, mutant in mutants.items():
        with monkeypatch.context() as m:
            m.setattr(ideals, name, mutant)
            assert not run_one(13).passed, name
    assert run_one(13).passed
