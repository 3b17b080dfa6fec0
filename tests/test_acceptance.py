"""Acceptance gate: every numbered criterion runs and must pass.

Each test prints the criterion's own report line, so `pytest -s` (or the
`hypergrowth verify --suite all` command) shows one pass/fail line per
criterion.
"""

import pytest

from hypergrowth import ideals
from hypergrowth.verify import ALL_CRITERIA, run_one


# the report lines of `hypergrowth verify --suite all`, which are part of
# its output contract
LINES = (
    ("criterion  1 [pass] sequence tables: "
     "G(1..11) and F(1..8) match their fixed tables"),
    ("criterion  2 [pass] disjoint-interval family counts: "
     "enumeration = recurrence = composition count, n <= 12"),
    ("criterion  3 [pass] single-marked-interval counts: "
     "|X_n| = n - 1 for n = 3..12"),
    ("criterion  4 [pass] initial-pair family counts: "
     "|X_n| = 2^(n-2) for n = 2..10"),
    ("criterion  5 [pass] reference selections: "
     "all five fixed embeddings reproduce and validate"),
    ("criterion  6 [pass] alternation inequalities: "
     "10^4 flat + 10^3 deep random matrices, zero violations"),
    ("criterion  7 [pass] chain and corner-walk bijection: "
     "counts C(2m,m) and exact round trips, m <= 6"),
    ("criterion  8 [pass] exhaustive small embeddings: "
     "all strings (length <= 7) and chains (m <= 5) verified"),
    ("criterion  9 [pass] wealthy family round trips: "
     "every variant recognized, closures hold, r <= 5"),
    ("criterion 10 [pass] worked row example: "
     "row 00011**11*010 alternates at columns {3, 11, 12}"),
    ("criterion 11 [pass] dichotomy window scan: "
     "16 single-coloring bases, exact n <= 6, no violations"),
    ("criterion 12 [pass] deletion and string censuses: "
     "deletions distinct r<=7; string counts hit F_n; F_n > G_n for 4 < n <= 40"),
    ("criterion 13 [pass] parallel determinism: "
     "worker count never changes any reported count"),
)


@pytest.mark.parametrize("number", range(1, len(ALL_CRITERIA) + 1),
                         ids=lambda i: f"criterion-{i:02d}")
def test_criterion(number):
    res = run_one(number)
    print(res.line())
    assert res.number == number
    assert res.passed, res.detail
    assert res.line() == LINES[number - 1]


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
