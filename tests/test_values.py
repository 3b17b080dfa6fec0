"""The value classes of core and ideals against frozen dataclass references.

Each reference is a frozen dataclass with the class's name and fields, as
the classes were written before they became slotted, so equality,
hashing, repr and the errors on assignment compare directly.  Fields are
drawn from small seeded spaces, so equal and unequal pairs both occur.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError, make_dataclass
from math import comb

import pytest

from hypergrowth.core import (Coloring, ColoringPattern, Homogeneity,
                              _EdgeColors)
from hypergrowth.ideals import (BUILTIN_NAMES, DichotomyVerdict,
                                GrowthRecord, IdealSpec)
from hypergrowth.rng import Lcg

FIELDS = {
    _EdgeColors: ("k", "l", "n", "colors"),
    Coloring: ("k", "l", "n", "colors"),
    ColoringPattern: ("k", "l", "n", "colors"),
    Homogeneity: ("homogeneous", "color", "witness"),
    IdealSpec: ("kind", "k", "l", "basis", "name"),
    GrowthRecord: ("digest", "k", "counts", "exact", "nodes"),
    DichotomyVerdict: ("theorem", "classification", "window", "caveat",
                       "details"),
}
CLASSES = list(FIELDS)


def draw(rng, lo, hi):
    """An integer in [lo, hi] from the high bits of the next LCG draw."""
    return lo + (rng.next_u64() * (hi - lo + 1) >> 64)


def pick(rng, options):
    return options[draw(rng, 0, len(options) - 1)]


def coloring_args(rng, wild=False, k=2, l=2):
    n = draw(rng, 1, 3)
    top = l if wild else l - 1  # l stands for the wildcard
    cols = [draw(rng, 0, top) for _ in range(comb(n, k))]
    return k, l, n, tuple(None if c == l else c for c in cols)


def sample_args(cls, rng):
    """Positional arguments of one valid instance of cls."""
    if cls in (_EdgeColors, Coloring):
        return coloring_args(rng)
    if cls is ColoringPattern:
        return coloring_args(rng, wild=True)
    if cls is Homogeneity:
        return (pick(rng, (True, False)), pick(rng, (None, 0, 1)),
                pick(rng, (None, ((1, 2), (1, 3)))))
    if cls is IdealSpec:
        if draw(rng, 0, 1):
            return "builtin", 3, 2, (), pick(rng, BUILTIN_NAMES)
        basis = tuple(Coloring(*coloring_args(rng, k=3))
                      for _ in range(draw(rng, 0, 1)))
        return "avoid", 3, 2, basis, None
    if cls is GrowthRecord:
        top = draw(rng, 1, 2)
        return (pick(rng, ("00ff", "ab12")), 3,
                {n: n for n in range(1, top + 1)},
                {n: n < 2 for n in range(1, top + 1)}, draw(rng, 0, 1))
    return (pick(rng, ("constant", "quasi_fibonacci")),
            pick(rng, ("constant", "linear")), (1, draw(rng, 2, 3)),
            "window-relative", pick(rng, ((), (("tail", "true"),))))


def reference(cls):
    return make_dataclass(cls.__name__, FIELDS[cls], frozen=True)


def pairs(cls, seed, count=12):
    """(value, reference) pairs, each built from its own copy of the fields."""
    rng = Lcg(seed)
    ref = reference(cls)
    out = []
    for _ in range(count):
        args = sample_args(cls, rng)
        out.append((cls(*copy.deepcopy(args)), ref(*copy.deepcopy(args))))
    return out


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestValueContract:
    def test_eq_hash_repr_match_reference(self, cls):
        values = pairs(cls, seed=17 + CLASSES.index(cls))
        seen = set()
        for a, ra in values:
            assert repr(a) == repr(ra)
            if cls is not GrowthRecord:
                assert hash(a) == hash(ra)
            for b, rb in values:
                assert (a == b) == (ra == rb)
                assert (a != b) == (ra != rb)
                if a is not b:
                    seen.add(ra == rb)
        assert seen == {True, False}  # equal and unequal pairs both occurred

    def test_assignment_and_deletion_raise_as_reference(self, cls):
        (value, ref), = pairs(cls, seed=3, count=1)
        for name in (*FIELDS[cls], "other"):
            for act in (lambda o: setattr(o, name, 0),
                        lambda o: delattr(o, name)):
                with pytest.raises(FrozenInstanceError) as want:
                    act(ref)
                with pytest.raises(AttributeError) as got:
                    act(value)
                assert str(got.value) == str(want.value)
        assert value == pairs(cls, seed=3, count=1)[0][0]

    def test_keyword_construction_and_match_args(self, cls):
        assert cls.__match_args__ == FIELDS[cls]
        for value, _ in pairs(cls, seed=5, count=4):
            fields = {f: getattr(value, f) for f in FIELDS[cls]}
            assert cls(**fields) == value

    def test_pickle_and_copy_round_trip(self, cls):
        for value, _ in pairs(cls, seed=11, count=4):
            copies = [pickle.loads(pickle.dumps(value, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            copies += [copy.copy(value), copy.deepcopy(value)]
            for c in copies:
                assert type(c) is cls and c == value

    def test_no_instance_dict(self, cls):
        for value, _ in pairs(cls, seed=13, count=3):
            assert not hasattr(value, "__dict__")
            with pytest.raises(TypeError):
                vars(value)


def test_coloring_never_equals_pattern():
    rng = Lcg(29)
    for _ in range(12):
        args = coloring_args(rng)
        c, p, s = Coloring(*args), ColoringPattern(*args), _EdgeColors(*args)
        assert c != p and p != c and c != s and p != s
        assert not (c == p or p == c)


def test_ideal_spec_defaults():
    spec = IdealSpec(kind="avoid", k=3, l=2)
    assert spec.basis == () and spec.name is None
    assert spec == IdealSpec("avoid", 3, 2, (), None) == IdealSpec.avoid(
        [], 3, 2)
    named = IdealSpec(kind="builtin", k=3, l=2, name="S")
    assert named == IdealSpec.builtin("S", 3)


def test_growth_record_is_unhashable():
    rec = GrowthRecord("00ff", 3, {1: 1}, {1: True}, 0)
    ref = reference(GrowthRecord)("00ff", 3, {1: 1}, {1: True}, 0)
    for obj in (rec, ref):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(obj)


def test_match_statement_reads_fields():
    match Coloring(3, 2, 4, (0, 1, 1, 0)):
        case Coloring(k, l, n, colors):
            assert (k, l, n, colors) == (3, 2, 4, (0, 1, 1, 0))
        case _:
            pytest.fail("Coloring pattern did not match")
