"""Ideal descriptions, growth engine, verdicts, tame census, cache."""

import hashlib
import io
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest

from hypergrowth import ideals, sequences
from hypergrowth.core import (Coloring, ColoringPattern,
                              IncompatibleColoringsError, _colex_table,
                              all_edges, contains, restrict_normalize,
                              reverse)
from hypergrowth.ideals import (BUILTIN_NAMES, GrowthRecord, IdealSpec,
                                avoid_growth, avoid_members, builtin_count,
                                builtin_counts, builtin_exceeds_digits,
                                builtin_member,
                                builtin_members, builtin_pattern_basis,
                                census_distinct, dichotomy_verdict, fnv1a64,
                                growth, ideal_spec_from_text,
                                ideal_spec_to_text, load_cache, update_cache)
from hypergrowth.rng import Lcg
from hypergrowth.sequences import (sequence_exceeds_digits, sequence_F,
                                   sequence_G, sequence_Gk, sequence_value)
from hypergrowth.structure import _tame_split_tables, count_p_tame, is_p_tame


FIXTURES = Path(__file__).parent / "fixtures"


def reference_load_cache(path):
    """The cache parser before load_cache kept its last parse: text mode."""
    out = {}
    if not os.path.exists(path):
        return out
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                digest, n, count, exact = line.split("\t")
                out[(digest, int(n))] = (int(count), exact == "1")
            except ValueError:
                continue
    return out


def reference_update_cache(path, digest, counts, exact):
    """update_cache as an append model: the exact rows that differ from
    the file's parse, on a fresh line at its end."""
    entries = reference_load_cache(path)
    block = "".join(f"{digest}\t{n}\t{cnt}\t1\n"
                    for n, cnt in counts.items() if exact.get(n)
                    and entries.get((digest, n)) != (cnt, True))
    if block:
        data = Path(path).read_bytes() if os.path.exists(path) else b""
        if data and not data.endswith(b"\n"):
            block = "\n" + block
        with open(path, "ab") as fh:
            fh.write(block.encode("utf-8"))


# A child process that, once told to go, makes 300 cache updates, each
# with its own digest: sys.argv[1] is the cache, sys.argv[2] the writer.
CACHE_WRITER = """
import sys
from hypergrowth.ideals import update_cache
print("ready", flush=True)
sys.stdin.readline()
w = int(sys.argv[2])
for i in range(300):
    update_cache(sys.argv[1], f"{w:08x}{i:08x}", {1: i, 2: w},
                 {1: True, 2: True})
"""


def rewrite_keeping_stat(path, data):
    """Overwrite path in place and put its mtime back, as a fast writer can."""
    st = os.stat(path)
    assert len(data) == st.st_size
    with open(path, "r+b") as fh:
        fh.write(data)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


def compositions_oracle(n, k):
    """Count compositions of n into parts 1 and k by direct recursion."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    return compositions_oracle(n - 1, k) + compositions_oracle(n - k, k)


def brute_avoiders(basis, k, l, n):
    """All colorings of [n] containing no basis element, by containment."""
    return _brute_avoiders(tuple(basis), k, l, n)


# memoized: two tests read the same slow three-colour case
@lru_cache(maxsize=None)
def _brute_avoiders(basis, k, l, n):
    out = []
    edges = list(all_edges(n, k))
    for cols in product(range(l), repeat=len(edges)):
        c = Coloring(k, l, n, cols)
        if all(contains(b, c) is None for b in basis):
            out.append(c)
    return out


class TestSequences:
    def test_slow_recurrence_table(self):
        assert [sequence_G(n) for n in range(1, 12)] == \
            [1, 1, 2, 3, 4, 6, 9, 13, 19, 28, 41]
        assert sequence_G(0) == 1

    def test_fibonacci_table(self):
        assert [sequence_F(n) for n in range(1, 9)] == \
            [1, 1, 2, 3, 5, 8, 13, 21]
        with pytest.raises(ValueError):
            sequence_F(0)

    def test_part_counts_match_oracle(self):
        for k in (2, 3, 4):
            for n in range(0, 13):
                assert sequence_Gk(k, n) == compositions_oracle(n, k)

    def test_two_part_case_shifts_fibonacci(self):
        for n in range(1, 15):
            assert sequence_Gk(2, n) == sequence_F(n + 1)

    def test_keeps_only_the_last_k_values(self):
        for k in range(2, 7):
            vals = [1] * k
            for m in range(k, 301):
                vals.append(vals[-1] + vals[m - k])
            assert [sequence_Gk(k, n) for n in range(301)] == vals

    def test_memory_stays_flat(self):
        tracemalloc.start()
        try:
            sequence_Gk(3, 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_huge_part_is_one_below_it(self):
        huge = 10 ** 20
        assert [sequence_Gk(huge, n) for n in range(6)] == [1] * 6
        assert sequence_Gk(huge, huge - 1) == 1
        assert builtin_counts(IdealSpec.builtin("S", huge), 5) == \
            {n: 1 for n in range(1, 6)}

    def test_validation(self):
        with pytest.raises(ValueError):
            sequence_Gk(1, 5)
        with pytest.raises(ValueError):
            sequence_Gk(3, -1)

    def test_dispatch(self):
        assert sequence_value("G", 11) == 41
        assert sequence_value("F", 8) == 21
        assert sequence_value("Gk", 7, k=3) == sequence_G(7)
        assert sequence_value("Gk(4)", 8) == sequence_Gk(4, 8)
        with pytest.raises(ValueError):
            sequence_value("Gk", 5)
        with pytest.raises(ValueError):
            sequence_value("H", 5)

    def test_digit_bound_never_refuses_a_printable_value(self):
        for name, k in (("F", None), ("G", None), ("Gk", 2), ("Gk", 4),
                        ("Gk", 9)):
            for n in range(1, 1200, 7):
                digits = len(str(sequence_value(name, n, k)))
                for limit in (digits - 1, digits, digits + 1):
                    if sequence_exceeds_digits(name, n, limit, k):
                        assert limit < digits, (name, k, n, limit)

    def test_digit_bound_is_tight(self):
        # the bound refuses within 2 % of the first n past the limit
        for name, k in (("F", None), ("G", None), ("Gk", 5)):
            first = next(n for n in range(1, 10 ** 4)
                         if len(str(sequence_value(name, n, k))) > 150)
            refused = next(n for n in range(1, 10 ** 4)
                           if sequence_exceeds_digits(name, n, 150, k))
            assert first <= refused <= first * 1.02, (name, first, refused)

    def test_digit_bound_needs_no_value(self):
        assert sequence_exceeds_digits("G", 10 ** 11, 4300)
        assert sequence_exceeds_digits("Gk(4)", 10 ** 400, 10 ** 30)
        assert not sequence_exceeds_digits("F", 20500, 4300)
        # out-of-range parts decide nothing; the value's own checks report
        assert not sequence_exceeds_digits("Gk", 10 ** 6, 10, k=1)
        with pytest.raises(ValueError, match="G is defined"):
            sequence_exceeds_digits("G", -1, 10)


class TestDigest:
    def test_hash_reference_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_builtin_digests_are_stable(self):
        assert IdealSpec.builtin("S", 3).digest() == "c028cd4d566b40e1"
        assert IdealSpec.builtin("lineartight", 3).digest() == \
            "5e820aeb0bb74e33"
        assert IdealSpec.builtin("w1tight", 3).digest() == "82eaa221eab6f266"

    def test_basis_order_does_not_matter(self):
        a = Coloring.from_map(3, 2, 4, {(1, 2, 3): 1})
        b = Coloring.from_map(3, 2, 4, {(2, 3, 4): 1})
        assert IdealSpec.avoid([a, b]).digest() == \
            IdealSpec.avoid([b, a]).digest()
        assert IdealSpec.avoid([a]).digest() != IdealSpec.avoid([b]).digest()


class TestIdealSpec:
    def test_text_round_trip(self):
        a = Coloring.from_map(3, 2, 4, {(1, 2, 3): 1})
        spec = IdealSpec.avoid([a])
        assert ideal_spec_from_text(ideal_spec_to_text(spec)) == spec
        b = IdealSpec.builtin("S", 4)
        assert ideal_spec_from_text(ideal_spec_to_text(b)) == b
        assert ideal_spec_from_text("ideal builtin k=4 name=S\n") == b
        assert ideal_spec_from_text("ideal avoid l=2 k=3\n") == \
            IdealSpec.avoid([], k=3, l=2)

    @pytest.mark.parametrize("name, spec", [
        ("avoid.is", IdealSpec.avoid([Coloring.from_map(3, 2, 4,
                                                        {(1, 2, 3): 1}),
                                      Coloring.constant(3, 2, 5, 0)])),
        ("builtin_s.is", IdealSpec.builtin("S", 3)),
    ])
    def test_golden_files(self, name, spec):
        golden = (FIXTURES / name).read_bytes()
        assert ideal_spec_from_text(golden.decode()) == spec
        assert ideal_spec_to_text(spec).encode() == golden

    def test_validation(self):
        with pytest.raises(ValueError):
            IdealSpec.builtin("T", 3)
        with pytest.raises(ValueError):
            IdealSpec.builtin("w1tight", 4)
        with pytest.raises(ValueError):
            IdealSpec("builtin", 3, 3, (), "S")
        with pytest.raises(ValueError):
            IdealSpec("builtin", 3, 2,
                      (Coloring.constant(3, 2, 4, 0),), "S")
        with pytest.raises(ValueError):
            IdealSpec("sideways", 3, 2)
        with pytest.raises(IncompatibleColoringsError):
            IdealSpec.avoid([Coloring.constant(3, 2, 4, 0),
                             Coloring.constant(3, 3, 4, 0)])
        with pytest.raises(ValueError):
            IdealSpec.avoid([])
        assert IdealSpec.avoid([], k=3, l=2).basis == ()
        for text, msg in (("ideal avoid k=1 l=2\n", "uniformity k must be >= 2"),
                          ("ideal avoid k=3 l=0\n", "color count l must be >= 2"),
                          ("ideal builtin name=lineartight k=1\n",
                           "uniformity k must be >= 2")):
            with pytest.raises(ValueError, match=msg):
                ideal_spec_from_text(text)
        with pytest.raises(ValueError, match="color count l must be >= 2"):
            IdealSpec("builtin", 3, 1, (), "S")

    def test_text_rejects_malformed(self):
        with pytest.raises(ValueError):
            ideal_spec_from_text("")
        with pytest.raises(ValueError):
            ideal_spec_from_text("ideal sideways k=3 l=2\n")
        with pytest.raises(ValueError):
            ideal_spec_from_text("ideal builtin name=S k=3\nbits 0\n")
        for head in ("ideal avoid k=3 l=2 l=3", "ideal avoid k=3 k=4 l=2",
                     "ideal builtin name=S k=3 k=4",
                     "ideal builtin name=S name=lineartight k=3"):
            with pytest.raises(ValueError, match="repeated field"):
                ideal_spec_from_text(head + "\n")
        for head in ("ideal avoid k=3 l", "ideal builtin name=S k3"):
            with pytest.raises(ValueError, match="malformed field"):
                ideal_spec_from_text(head + "\n")

    def test_rejects_patterns(self):
        # a pattern has no spec text, so a spec holding one has no digest
        pat = ColoringPattern.from_map(3, 2, 4, {(2, 3, 4): 1})
        with pytest.raises(ValueError, match="not a Coloring"):
            IdealSpec.avoid([pat])
        with pytest.raises(ValueError, match="not a Coloring"):
            growth(IdealSpec.avoid([Coloring.constant(3, 2, 4, 0), pat]), 5)
        counts, exact, _ = avoid_growth([pat], 3, 2, 5)
        assert (counts[5], exact[5]) == (64, True)


class TestBuiltinFamilies:
    def test_member_lists_match_closed_forms(self):
        for name, k in (("S", 3), ("S", 4), ("lineartight", 3),
                        ("lineartight", 4), ("w1tight", 3)):
            spec = IdealSpec.builtin(name, k)
            for n in range(1, 8):
                members = builtin_members(spec, n)
                assert len(members) == builtin_count(spec, n)
                assert len({m.colors for m in members}) == len(members)
                assert all(builtin_member(spec, m) for m in members)

    def test_predicate_sweep_is_exhaustive(self):
        for name in BUILTIN_NAMES:
            spec = IdealSpec.builtin(name, 3)
            for n in (4, 5):
                edges = list(all_edges(n, 3))
                hits = sum(
                    builtin_member(spec, Coloring(3, 2, n, cols))
                    for cols in product((0, 1), repeat=len(edges)))
                assert hits == builtin_count(spec, n)

    def test_predicate_shape_check(self):
        with pytest.raises(IncompatibleColoringsError):
            builtin_member(IdealSpec.builtin("S", 3),
                           Coloring.constant(4, 2, 5, 0))

    def test_counts_in_one_pass_match_closed_forms(self):
        for name in BUILTIN_NAMES:
            for k in (3,) if name == "w1tight" else (2, 3, 4, 5):
                spec = IdealSpec.builtin(name, k)
                assert builtin_counts(spec, 300) == \
                    {n: builtin_count(spec, n) for n in range(1, 301)}
                assert builtin_counts(spec, 1) == {1: 1}

    def test_exceeds_digits_is_a_close_lower_bound(self):
        for name, k in (("S", 2), ("S", 3), ("S", 5), ("lineartight", 3),
                        ("w1tight", 3)):
            spec = IdealSpec.builtin(name, k)
            counts = builtin_counts(spec, 700)
            for digits in (1, 20, 60):
                said = [n for n in counts
                        if builtin_exceeds_digits(spec, n, digits)]
                long = [n for n, cnt in counts.items()
                        if len(str(cnt)) > digits]
                # never too soon, and for the growing families at most k
                # levels late
                assert said == long[len(long) - len(said):]
                if name != "lineartight":
                    assert len(long) - len(said) <= k, (name, k, digits)
            # a huge n costs nothing and cannot overflow a float
            if name == "lineartight":
                assert not builtin_exceeds_digits(spec, 10 ** 400, 0)
            else:
                assert builtin_exceeds_digits(spec, 10 ** 400, 10 ** 6)

    def test_pattern_basis_recounts_families(self):
        for name in BUILTIN_NAMES:
            spec = IdealSpec.builtin(name, 3)
            pats = builtin_pattern_basis(spec)
            counts, exact, _ = avoid_growth(pats, 3, 2, 8)
            for n in range(1, 9):
                assert exact[n]
                assert counts[n] == builtin_count(spec, n), (name, n)

    def test_pattern_basis_other_arity(self):
        spec = IdealSpec.builtin("S", 4)
        counts, _, _ = avoid_growth(builtin_pattern_basis(spec), 4, 2, 8)
        assert [counts[n] for n in range(1, 9)] == \
            [sequence_Gk(4, n) for n in range(1, 9)]


class TestGrowthEngine:
    def test_free_ideal_counts_everything(self):
        counts, exact, _ = avoid_growth([], 3, 2, 5)
        assert all(exact.values())
        assert [counts[n] for n in range(1, 6)] == \
            [2 ** comb(n, 3) for n in range(1, 6)]
        counts3, _, _ = avoid_growth([], 3, 3, 4)
        assert [counts3[n] for n in range(1, 5)] == \
            [3 ** comb(n, 3) for n in range(1, 5)]

    def test_matches_brute_force_two_colors(self):
        for bits, want in ((0, 768), (1, 753), (6, 750)):
            cols = tuple(bits >> i & 1 for i in range(4))
            base = Coloring(3, 2, 4, cols)
            counts, _, _ = avoid_growth([base], 3, 2, 5)
            assert counts == {1: 1, 2: 1, 3: 2, 4: 15, 5: want}
            assert counts[5] == len(brute_avoiders([base], 3, 2, 5))

    def test_matches_brute_force_three_colors(self):
        base = Coloring(3, 3, 4, (0, 1, 2, 0))
        counts, _, _ = avoid_growth([base], 3, 3, 5)
        assert counts[5] == 55539
        assert counts[5] == len(brute_avoiders([base], 3, 3, 5))

    def test_empty_coloring_in_basis_zeroes_levels(self):
        basis = [Coloring(3, 2, 2, ())]
        counts, exact, _ = avoid_growth(basis, 3, 2, 4)
        assert counts == {1: 1, 2: 0, 3: 0, 4: 0}
        assert all(exact.values())

    def test_basis_shape_mismatch(self):
        with pytest.raises(IncompatibleColoringsError):
            avoid_growth([Coloring.constant(3, 2, 4, 0)], 3, 3, 4)

    def test_budget_drops_whole_levels(self):
        base = Coloring(3, 2, 4, (0, 0, 0, 0))
        counts, exact, nodes = avoid_growth([base], 3, 2, 6, budget=1)
        assert counts == {1: 1, 2: 1}
        assert exact == {1: True, 2: True, 3: False, 4: False,
                         5: False, 6: False}
        assert nodes == 0
        counts, exact, nodes = avoid_growth([base], 3, 2, 6, budget=50)
        assert counts == {1: 1, 2: 1, 3: 2, 4: 15}
        assert exact[4] and not exact[5] and not exact[6]
        assert nodes == 30
        counts, exact, nodes = avoid_growth([base], 3, 2, 6, budget=5000)
        assert counts == {1: 1, 2: 1, 3: 2, 4: 15, 5: 768}
        assert nodes == 1772
        # the counted last level spends exactly the walk's 1179654 nodes
        counts, exact, nodes = avoid_growth([base], 3, 2, 6, budget=1179654)
        assert exact[6] and counts[6] == 477965 and nodes == 1179654
        counts, exact, nodes = avoid_growth([base], 3, 2, 6, budget=1179653)
        assert exact[5] and not exact[6] and 6 not in counts
        assert nodes == 1772

    def test_members_are_downward_closed(self):
        base = Coloring(3, 2, 4, (0, 1, 1, 0))
        small = {c.colors for c in avoid_members([base], 3, 2, 4)}
        for c in avoid_members([base], 3, 2, 5):
            for drop in range(1, 6):
                keep = [v for v in range(1, 6) if v != drop]
                assert restrict_normalize(c, keep).colors in small

    def test_members_match_brute_force(self):
        # l=4 packs two bits per edge; the field value 3 is a real colour
        for base, n in ((Coloring(3, 2, 4, (1, 0, 0, 1)), 5),
                        (Coloring(3, 3, 4, (0, 1, 2, 0)), 5),
                        (Coloring(2, 4, 3, (3, 0, 3)), 4)):
            k, l = base.k, base.l
            got = avoid_members([base], k, l, n)
            want = brute_avoiders([base], k, l, n)
            assert sorted(c.colors for c in got) == \
                sorted(c.colors for c in want)

    def test_members_budget_is_cumulative(self):
        # levels 1..5 of base 0000 spend 1772 nodes in all
        base = Coloring(3, 2, 4, (0, 0, 0, 0))
        assert len(avoid_members([base], 3, 2, 5, budget=1772)) == 768
        with pytest.raises(RuntimeError):
            avoid_members([base], 3, 2, 5, budget=1771)

    @pytest.mark.parametrize("n", [0, -2])
    def test_members_need_a_vertex(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            avoid_members([Coloring(3, 2, 4, (0, 0, 0, 0))], 3, 2, n)

    def test_deep_levels_do_not_recurse(self):
        # level 48 has C(47,2) = 1081 new edges, far past the recursion limit
        counts, exact, nodes = avoid_growth(
            [Coloring.constant(3, 2, 3, 0)], 3, 2, 48)
        assert exact == {n: True for n in range(1, 49)}
        assert counts == {n: 1 for n in range(1, 49)}
        assert nodes == 2 * comb(48, 3)

    def test_growth_wraps_engine_and_closed_forms(self):
        rec = growth(IdealSpec.builtin("S", 3), 12)
        assert rec.nodes == 0
        assert [rec.counts[n] for n in range(1, 13)] == \
            [sequence_G(n) for n in range(1, 13)]
        base = Coloring(3, 2, 4, (0, 0, 0, 0))
        rec2 = growth(IdealSpec.avoid([base]), 5)
        assert rec2.counts[5] == 768
        assert rec2.nodes > 0
        assert rec2.digest == IdealSpec.avoid([base]).digest()
        with pytest.raises(ValueError):
            growth(IdealSpec.builtin("S", 3), 0)


# |Avoid(b)_5|, |Avoid(b)_6| for the 16 single four-vertex bases b (k=3,
# l=2), keyed by the base's colours in lexicographic edge order
WINDOW_COUNTS = {
    "0000": (768, 477965), "1111": (768, 477965),
    "1000": (753, 434468), "0001": (753, 434468),
    "0111": (753, 434468), "1110": (753, 434468),
    "0100": (756, 443693), "0010": (756, 443693),
    "1011": (756, 443693), "1101": (756, 443693),
    "1100": (748, 419326), "0011": (748, 419326),
    "1010": (752, 431490), "0101": (752, 431490),
    "1001": (750, 425770), "0110": (750, 425770),
}


def draw(rng, lo, hi):
    """An integer in [lo, hi] from the high bits of the next LCG draw.

    Lcg.randint reduces the raw state modulo the span, and the low bits
    of this LCG have short periods: randint(0, 1) alternates.
    """
    return lo + (rng.next_u64() * (hi - lo + 1) >> 64)


def pick(rng, seq):
    """An element of seq, chosen through draw."""
    return seq[draw(rng, 0, len(seq) - 1)]


def random_basis(rng, k, l, size, wildcards):
    """Random basis elements on k+1 vertices, with one wildcard if asked."""
    out = []
    for _ in range(size):
        cols = [draw(rng, 0, l - 1) for _ in range(k + 1)]
        if wildcards:
            cols[draw(rng, 0, k)] = None
        cls = ColoringPattern if wildcards else Coloring
        out.append(cls(k, l, k + 1, tuple(cols)))
    return out


def reference_level_templates(basis, n, k, w):
    """Every injection template of level n, listed afresh: one per basis
    element and choice of the other image vertices in [n-1]."""
    rows = _colex_table(n, k)
    field = (1 << w) - 1

    def rank(pos, sub):
        return sum(rows[i][sub[p]] for i, p in enumerate(pos))

    out = []
    for b in basis:
        if b.n > n:
            continue
        old, new_edges = [], []
        for e, col in zip(b.edges(), b.colors):
            if col is not None:
                pos = tuple(v - 1 for v in e if v != b.n)
                (new_edges if e[-1] == b.n else old).append((pos, col))
        for sub in combinations(range(1, n), b.n - 1):
            sel = want = 0
            for pos, col in old:
                sel |= field << rank(pos, sub) * w
                want |= col << rank(pos, sub) * w
            new = tuple((rank(pos, sub), col) for pos, col in new_edges)
            last = max((j for j, _ in new), default=-1)
            out.append((sel, want, last, new))
    return out


def reference_chunk_extend(parents, templates, shift, nnew, l, cap, build,
                           plan=None):
    """The engine's level step parent by parent: one frontier each.

    Each parent's new-edge colourings are found by their own frontier and
    spliced onto the parent; nodes accumulate over the level's parents,
    and the walk stops with no result as soon as they exceed the cap.
    There is one path, so ``plan`` is not read.
    """
    keep, done = ideals._new_edge_tables(templates, nnew, l)
    w = (l - 1).bit_length()
    out = [] if build else 0
    nodes = 0
    for parent in parents:
        active = 0
        for i, (sel, want, last, _) in enumerate(templates):
            if parent & sel == want:
                if last < 0:
                    break
                active |= 1 << i
        else:
            frontier = {active: [0] if build else 1}
            for j, finished in enumerate(done):
                nodes += l * (sum(map(len, frontier.values())) if build
                              else sum(frontier.values()))
                if nodes > cap:
                    return None, nodes
                nxt = {}
                for state, held in frontier.items():
                    for col, mask in enumerate(keep[j]):
                        matched = state & mask
                        if matched & finished:
                            continue
                        if build:
                            nxt.setdefault(matched, []).extend(
                                p | col << j * w for p in held)
                        else:
                            nxt[matched] = nxt.get(matched, 0) + held
                frontier = nxt
            if build:
                out.extend(parent | p << shift
                           for held in frontier.values() for p in held)
            else:
                out += sum(frontier.values())
    return [out] if build else out, nodes


def reference_keys(parents, templates):
    """The parent filter parent by parent: each parent's set of active
    templates, tested against each template in turn, or None for a
    parent dropped at the first matching template without new edges."""
    keys = []
    for parent in parents:
        active = 0
        for i, (sel, want, last, _) in enumerate(templates):
            if parent & sel == want:
                if last < 0:
                    active = None
                    break
                active |= 1 << i
        keys.append(active)
    return keys


# Every path the engine has: the lanes _plan picks, lanes wherever a level
# fits them, and no lanes at all
PLANS = (ideals._plan, ideals._fits, lambda *shape: (0, 0))


def on_every_path(run, plans=PLANS):
    """run(plan) for each plan; the results must all be equal."""
    got = [run(plan) for plan in plans]
    assert all(res == got[0] for res in got[1:])
    return got[0]


def growth_on_every_path(basis, k, l, n_max, budget=ideals.DEFAULT_BUDGET,
                         plans=PLANS):
    """avoid_growth's (counts, exact, nodes), the same on every path."""
    return on_every_path(lambda plan: ideals._grow(
        basis, k, l, n_max, budget, False, plan)[:3], plans)


def filter_on_every_path(parents, templates, nbits):
    """Check the scan, and the packed lanes wherever _fits gives them a
    width, against the reference filter: one key per parent, in the
    parents' order, the filter's dead key exactly for the dead parents.
    Returns that width, or 0."""
    want = reference_keys(parents, templates)
    runs = [ideals._scan_filter(parents, templates)]
    width = ideals._fits(len(parents), len(templates), nbits, 2, 0)[0]
    if width:
        runs.append(ideals._lane_filter(parents, templates, width))
    for keys, dead in runs:
        assert [None if key == dead else key for key in keys] == want
        assert dead not in want
    return width


def completions(b):
    """Every coloring that fills the wildcards of b, b itself if none."""
    free = [i for i, col in enumerate(b.colors) if col is None]
    for fill in product(range(b.l), repeat=len(free)):
        cols = list(b.colors)
        for i, col in zip(free, fill):
            cols[i] = col
        yield Coloring(b.k, b.l, b.n, tuple(cols))


class TestInclusionOracles:
    """Counts must respect ideal inclusion, which needs no closed form.

    A builtin family X none of whose members completes a basis element
    lies inside Avoid(B), since X is downward closed: an engine that
    over-prunes falls below X's count.  A larger basis can only shrink the
    ideal: an engine that under-prunes more as the basis grows breaks
    that.  Only levels counted exactly, within the budget, are compared.
    """

    def test_builtin_floor(self):
        rng = Lcg(5)
        checked = 0
        for i in range(30):
            k = (2, 3, 3, 4)[i % 4]
            n_max = 8 if k == 2 else 6
            basis = random_basis(rng, k, 2, draw(rng, 1, 3), draw(rng, 0, 1))
            counts, exact, _ = avoid_growth(basis, k, 2, n_max, budget=50000)
            for name in BUILTIN_NAMES:
                if name == "w1tight" and k != 3:
                    continue
                spec = IdealSpec.builtin(name, k)
                if any(builtin_member(spec, c)
                       for b in basis for c in completions(b)):
                    continue
                for n in range(1, n_max + 1):
                    if exact[n]:
                        checked += 1
                        assert counts[n] >= builtin_count(spec, n), \
                            (name, basis, n)
        assert checked >= 150

    def test_larger_basis_smaller_ideal(self):
        rng = Lcg(9)
        checked = 0
        for i in range(24):
            k, l, n_max = ((3, 2, 6), (3, 3, 5), (2, 3, 6))[i % 3]
            bigger = random_basis(rng, k, l, draw(rng, 2, 4), draw(rng, 0, 1))
            smaller = bigger[:]
            del smaller[draw(rng, 0, len(smaller) - 1)]
            cb, eb, _ = avoid_growth(bigger, k, l, n_max, budget=50000)
            cs, es, _ = avoid_growth(smaller, k, l, n_max, budget=50000)
            for n in range(1, n_max + 1):
                if eb[n] and es[n]:
                    checked += 1
                    assert cb[n] <= cs[n], (bigger, smaller, n)
        assert checked >= 100

    def test_first_dichotomy_never_violated(self):
        rng = Lcg(13)
        for i in range(36):
            k, l = 2 + i % 3, 2 + i // 3 % 2
            basis = random_basis(rng, k, l, draw(rng, 1, 3), draw(rng, 0, 1))
            counts, exact, nodes = avoid_growth(basis, k, l, k + 5,
                                                budget=30000)
            rec = GrowthRecord("0" * 16, k, counts, exact, nodes)
            v = dichotomy_verdict(rec, "constant")
            assert v.classification != "violation", (basis, counts, exact)


def small_basis(rng, k, l):
    """1-3 random elements on k..k+2 vertices, some of them patterns."""
    out = []
    for _ in range(draw(rng, 1, 3)):
        n = draw(rng, k, k + 2)
        cols = [draw(rng, 0, l - 1) for _ in range(comb(n, k))]
        if draw(rng, 0, 2) == 0:
            cols[draw(rng, 0, len(cols) - 1)] = None
            out.append(ColoringPattern(k, l, n, tuple(cols)))
        else:
            out.append(Coloring(k, l, n, tuple(cols)))
    return out


def permute_colors(b, perm):
    return type(b)(b.k, b.l, b.n,
                   tuple(None if c is None else perm[c] for c in b.colors))


def extension(rng, b):
    """A coloring that contains b: b's colours on a random increasing image
    in one or two more vertices, random colours on every other edge."""
    n = b.n + draw(rng, 1, 2)
    images = list(range(1, n + 1))
    while len(images) > b.n:
        del images[draw(rng, 0, len(images) - 1)]
    pinned = {tuple(images[v - 1] for v in e): c
              for e, c in zip(b.edges(), b.colors) if c is not None}
    return Coloring.from_function(
        b.k, b.l, n, lambda e: pinned[e] if e in pinned else draw(rng, 0, b.l - 1))


class TestSymmetryOracle:
    """|Avoid(B)_n| is unchanged by reversing every element of B, by any
    permutation of the colours, and by adding an element that contains
    one already in B.  Only levels exact on both sides are compared, and
    the test requires enough of them where B removes some colourings but
    not all."""

    def test_counts_are_invariant(self):
        rng = Lcg(27)
        checked = 0
        for i in range(20):
            k, l = 2 + i % 2, 2 + i // 2 % 2
            n_max = 8 if k == 2 else 6
            basis = small_basis(rng, k, l)
            counts, exact, _ = avoid_growth(basis, k, l, n_max, budget=200000)
            b = pick(rng, basis)
            bigger = extension(rng, b)
            assert contains(b, bigger) is not None
            variants = [[reverse(e) for e in basis], basis + [bigger]]
            variants += [[permute_colors(e, perm) for e in basis]
                         for perm in permutations(range(l))]
            for other in variants:
                got, got_exact, _ = avoid_growth(other, k, l, n_max,
                                                 budget=200000)
                for n in range(1, n_max + 1):
                    if exact[n] and got_exact[n]:
                        assert got[n] == counts[n], (basis, other, n)
                        checked += 0 < counts[n] < l ** comb(n, k)
        assert checked >= 250


class TestFinalLevelCount:
    """The last level is counted without members; it must match the walk."""

    def test_window_bases_counts_and_nodes(self):
        nodes_total = 0
        for key, (at5, at6) in WINDOW_COUNTS.items():
            base = Coloring(3, 2, 4, tuple(int(ch) for ch in key))
            counts, exact, nodes = avoid_growth([base], 3, 2, 6)
            assert all(exact.values())
            assert counts == {1: 1, 2: 1, 3: 2, 4: 15, 5: at5, 6: at6}
            nodes_total += nodes
        assert nodes_total == 18104216

    def test_count_matches_materialized_members(self):
        rng = Lcg(11)
        cases = [(3, 2, False), (3, 2, True), (2, 2, False), (2, 2, True),
                 (3, 2, True), (3, 3, True), (2, 4, True)]
        for k, l, wildcards in cases:
            basis = random_basis(rng, k, l, rng.randint(1, 3), wildcards)
            counts, exact, _ = avoid_growth(basis, k, l, 5)
            assert exact[5]
            assert counts[5] == len(avoid_members(basis, k, l, 5))

class TestMergedFrontier:
    """One frontier per level must do what a frontier per parent did."""

    def test_matches_per_parent_engine(self, monkeypatch):
        rng = Lcg(23)
        cap = 20000
        dropped = 0
        for case in range(48):
            k, l = 2 + case % 3, 2 + case // 3 % 3
            basis = random_basis(rng, k, l, rng.randint(1, 3),
                                 rng.bit() == 1)
            n_max = k + rng.randint(2, 3)

            def both(budget, build_last):
                new = on_every_path(lambda plan: ideals._grow(
                    basis, k, l, n_max, budget, build_last, plan))
                with monkeypatch.context() as m:
                    m.setattr(ideals, "_chunk_extend", reference_chunk_extend)
                    ref = ideals._grow(basis, k, l, n_max, budget, build_last)
                assert new == ref, (case, budget, build_last)
                return ref

            _, _, nodes, _ = both(cap, False)
            # nodes - 1 overflows the last exact level partway through
            for budget in {cap, nodes, max(1, nodes - 1),
                           rng.randint(1, cap)}:
                for build_last in (False, True):
                    _, exact, _, _ = both(budget, build_last)
                    dropped += not all(exact.values())
        assert dropped > 0

    @pytest.mark.parametrize("base, n, want", [
        (Coloring(3, 2, 4, (1, 0, 0, 1)), 6, 425770),
        (Coloring(3, 3, 4, (0, 1, 2, 0)), 5, 55539)])
    def test_budget_boundary(self, base, n, want):
        k, l = base.k, base.l
        _, _, total = avoid_growth([base], k, l, n)
        for build_last in (False, True):
            counts, exact, nodes, members = ideals._grow(
                [base], k, l, n, total, build_last)
            assert exact[n] and counts[n] == want and nodes == total
            if build_last:
                assert len(members) == want
            counts, exact, nodes, _ = ideals._grow(
                [base], k, l, n, total - 1, build_last)
            assert exact[n - 1] and not exact[n] and n not in counts
            assert nodes < total


class TestEmptyLevel:
    """After a level with no members the loop reports every later level
    as an exact 0 and stops.  Those levels cost no nodes, so they are
    exact under a spent budget too; a level dropped for want of budget
    still drops every later one."""

    # both colours of the one edge on [3]: level 3 and every later one
    # are empty
    ONE_EDGE = [Coloring(3, 2, 3, (0,)), Coloring(3, 2, 3, (1,))]

    @pytest.mark.parametrize("basis, k, levels, nodes, short", [
        (ONE_EDGE, 3, [1, 1, 0], 2, 0),
        # both monochromatic triangles: R(3, 3) = 6, so level 6 is empty
        ([Coloring(2, 2, 3, (0, 0, 0)), Coloring(2, 2, 3, (1, 1, 1))], 2,
         [1, 2, 6, 18, 12, 0], 650, 410)])
    def test_pinned(self, basis, k, levels, nodes, short):
        # budgets T and T - 1, T = nodes: the empty level spends the
        # budget and every later level is a free exact 0, or the empty
        # level is dropped with every later one
        full = dict(enumerate(levels + [0] * (12 - len(levels)), 1))
        for budget, counts, spent in (
                (ideals.DEFAULT_BUDGET, full, nodes),
                (nodes, full, nodes),
                (nodes - 1, dict(enumerate(levels[:-1], 1)), short)):
            exact = {n: n in counts for n in range(1, 13)}
            for build_last in (False, True):
                got = on_every_path(lambda plan: ideals._grow(
                    basis, k, 2, 12, budget, build_last, plan)[:3])
                assert got == (counts, exact, spent), budget

    def test_long_runs_stop_at_once(self):
        start = time.perf_counter()
        counts, exact, nodes = avoid_growth(self.ONE_EDGE, 3, 2, 200)
        assert time.perf_counter() - start < 1.0
        assert all(exact.values()) and nodes == 2
        assert [counts[n] for n in (1, 2)] == [1, 1]
        assert not any(counts[n] for n in range(3, 201))

    @pytest.mark.parametrize("basis, levels", [
        ([Coloring(3, 2, 1, ())], range(1, 5)),
        ([Coloring(3, 2, 2, ())], range(2, 5)),
        ([ColoringPattern(3, 2, 4, (None,) * 4)], range(4, 6)),
        (ONE_EDGE, range(3, 6))])
    def test_empty_level_has_no_members(self, basis, levels):
        for n in levels:
            assert avoid_members(basis, 3, 2, n) == [], n
            got = on_every_path(lambda plan: ideals._grow(
                basis, 3, 2, n, ideals.DEFAULT_BUDGET, True, plan))
            assert got[0][n] == 0 and got[1][n] and got[3] == [], n


def mixed_basis(rng, k, l, size, wildcards):
    """Random basis elements on k to k+3 vertices, some with wildcards."""
    out = []
    for _ in range(size):
        n = draw(rng, k, k + 3)
        cols = [draw(rng, 0, l - 1) for _ in range(comb(n, k))]
        if wildcards and draw(rng, 0, 1):
            for _ in range(draw(rng, 1, len(cols))):
                cols[draw(rng, 0, len(cols) - 1)] = None
            out.append(ColoringPattern(k, l, n, tuple(cols)))
        else:
            out.append(Coloring(k, l, n, tuple(cols)))
    return out


class TestIncrementalTemplates:
    """Each level adds only its new templates to one list; every level's
    frontier must still get all of that level's templates."""

    def levels_seen(self, monkeypatch, basis, k, l, n_max):
        """The template list that each level's _chunk_extend receives;
        the stub gives every level one parent, so all levels run."""
        seen = []

        def stub(parents, templates, shift, nnew, l, cap, build, plan):
            assert nnew == comb(len(seen), k - 1)
            seen.append(list(templates))
            return ([[0]], 0) if build else (1, 0)

        monkeypatch.setattr(ideals, "_chunk_extend", stub)
        ideals._grow(basis, k, l, n_max, 1, False)
        return seen

    def test_levels_match_full_listing(self, monkeypatch):
        rng = Lcg(61)
        larger = patterns = 0
        for case in range(36):
            k, l = 2 + case % 3, 2 + case // 3 % 3
            basis = mixed_basis(rng, k, l, draw(rng, 1, 3), case % 2 == 1)
            n_max = k + 6
            seen = self.levels_seen(monkeypatch, basis, k, l, n_max)
            assert len(seen) == n_max
            w = (l - 1).bit_length()
            for n, got in enumerate(seen, 1):
                want = reference_level_templates(basis, n, k, w)
                assert Counter(got) == Counter(want), (case, n)
            larger += any(b.n > k + 1 for b in basis)
            patterns += any(isinstance(b, ColoringPattern) for b in basis)
        assert larger > 0 and patterns > 0

    def test_empty_element_is_a_template_without_new_edges(self):
        rng = Lcg(67)
        for k in (2, 3, 4):
            basis = mixed_basis(rng, k, 3, 2, True)
            basis.append(Coloring(k, 3, k - 1, ()))
            templates = []
            for n in range(1, k + 5):
                templates += ideals._new_templates(
                    ideals._split_basis(basis), n, k, 2)
                assert ((0, 0, -1, ()) in templates) == (n >= k - 1), (k, n)
                assert Counter(templates) == Counter(
                    reference_level_templates(basis, n, k, 2)), (k, n)
            # the element kills every parent of level k - 1, so that level
            # and every later one are exact 0s; no level below k costs a
            # node, so this holds under any budget
            zero = dict.fromkeys(range(k - 1, k + 5), 0)
            counts = {**dict.fromkeys(range(1, k - 1), 1), **zero}
            for budget in (0, ideals.DEFAULT_BUDGET):
                for build_last in (False, True):
                    assert ideals._grow(basis, k, 3, k + 4, budget,
                                        build_last) == (
                        counts, dict.fromkeys(counts, True), 0, []), k


class TestBudgetReplay:
    """A run given its own ``nodes`` as the budget returns the same
    record: a level is exact exactly when its nodes fit in what is left."""

    def test_own_nodes_replay_the_run(self):
        rng = Lcg(73)
        spent = empty = 0
        for case in range(60):
            # level k + 2 of k = 4 has 15 edges, so l = 3 would be slow
            k, l = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2))[case % 5]
            basis = mixed_basis(rng, k, l, draw(rng, 1, 2), case % 2 == 1)
            extra = case % 3
            if extra == 1:
                basis.append(Coloring(k, l, draw(rng, 1, k - 1), ()))
            elif extra == 2:
                # every colouring of the one edge on [k]: level k is empty
                basis += [Coloring(k, l, k, (c,)) for c in range(l)]
            n_max = k + 2
            total = growth_on_every_path(basis, k, l, n_max)[2]
            # a negative budget drops even level 1, which costs no nodes
            for budget in sorted({0, 1, total // 3, max(total - 1, 0), total,
                                  ideals.DEFAULT_BUDGET}):
                for build_last in (False, True):
                    run = on_every_path(lambda plan: ideals._grow(
                        basis, k, l, n_max, budget, build_last, plan))
                    replay = on_every_path(lambda plan: ideals._grow(
                        basis, k, l, n_max, run[2], build_last, plan))
                    assert replay == run, (case, budget, build_last)
                    spent += not all(run[1].values())
                    empty += 0 in run[0].values()
        assert spent > 0 and empty > 0


class TestMemberOrder:
    """Only the returned level is sorted; its order is part of the API."""

    def test_only_the_returned_level_is_sorted(self):
        rng = Lcg(71)
        for k, l in ((2, 2), (3, 2), (2, 3), (3, 4)):
            basis = random_basis(rng, k, l, 2, l > 2)
            built = ideals._grow(basis, k, l, k + 2, 10 ** 9, True)
            members = built[3]
            assert len(members) == built[0][k + 2] > 1
            assert all(a < b for a, b in zip(members, members[1:]))
            counted = ideals._grow(basis, k, l, k + 2, 10 ** 9, False)
            assert counted[:3] == built[:3] and counted[3] == []

    def test_avoid_members_order_is_pinned(self):
        # base 0011 at n = 6: the colour tuples of all 419,326 members,
        # in the order avoid_members returns them
        members = avoid_members([Coloring(3, 2, 4, (0, 0, 1, 1))], 3, 2, 6)
        assert len(members) == 419326
        digest = hashlib.sha256(bytes(c for m in members for c in m.colors))
        assert digest.hexdigest() == (
            "25b0329171b39f806c726fa099b4e33b"
            "7658076c03ebe8c185c3e75c038f62ef")


class TestLaneCount:
    """A counted level in superset-sum lanes must match the dict frontier:
    counts, exactness and nodes, so budgets drop the same levels."""

    def test_matches_dict_frontier(self):
        rng = Lcg(41)
        widths = []

        def fits(*shape):
            # _fits, keeping the count lanes it hands out
            got = ideals._fits(*shape)
            widths.append(got[1])
            return got

        plans = (ideals._plan, fits, PLANS[2])
        dropped = 0
        for case in range(60):
            k, l = 2 + case % 3, 2 + case // 3 % 3
            # at most 12 templates at the counted level, so 2^T lanes stay
            # small when the choice is forced
            while True:
                basis = random_basis(rng, k, l, draw(rng, 1, 2),
                                     draw(rng, 0, 1) == 1)
                n_max = k + draw(rng, 1, 3)
                if len(reference_level_templates(
                        basis, n_max, k, (l - 1).bit_length())) <= 12:
                    break
            _, _, nodes = growth_on_every_path(basis, k, l, n_max,
                                               plans=plans)
            for budget in (nodes, max(1, nodes - 1)):
                _, exact, _ = growth_on_every_path(basis, k, l, n_max,
                                                   budget, plans)
                dropped += not exact[n_max]
        assert dropped > 0
        # every case counted its last level in lanes at least twice, in
        # lanes of 1, 2 and 4 bytes
        calls = [width for width in widths if width]
        assert len(calls) >= 2 * 60 and {1, 2, 4} <= set(calls)

    @pytest.mark.parametrize("basis, k, l, n_max, last", [
        # T = 0: the last level is below the basis's size
        ([Coloring(3, 2, 5, (0,) * 10)], 3, 2, 4, 16),
        # a pattern with no colour on an edge through its last vertex: its
        # templates have no new edges, and a matching parent has no child
        ([ColoringPattern(2, 3, 3, (1, None, None))], 2, 3, 4, 8 * 27),
        ([ColoringPattern(3, 4, 4, (2, None, None, None)),
          Coloring(3, 4, 4, (0, 1, 2, 3))], 3, 4, 5, None),
        # both colours of the only edge on 2 vertices: level 2 is empty,
        # so level 3 has no parents
        ([Coloring(2, 2, 2, (0,)), Coloring(2, 2, 2, (1,))], 2, 2, 3, 0)])
    def test_edge_cases(self, basis, k, l, n_max, last):
        counts, exact, nodes = growth_on_every_path(basis, k, l, n_max)
        assert all(exact.values())
        if last is not None:
            assert counts[n_max] == last
        for budget in (nodes, nodes - 1):
            if budget > 0:
                growth_on_every_path(basis, k, l, n_max, budget)

    def test_empty_parent_list_and_no_templates(self):
        templates = reference_level_templates(
            [Coloring(3, 3, 4, (0, 1, 2, 0))], 5, 3, 2)
        for tpl in (templates, []):
            assert on_every_path(lambda plan: ideals._chunk_extend(
                [], tpl, comb(4, 3) * 2, comb(4, 2), 3, 10 ** 9,
                False, plan)) == (0, 0)
        # one parent, nothing to avoid: every colouring of the 6 new edges,
        # l nodes for each of the l**j prefixes at depth j
        assert on_every_path(lambda plan: ideals._chunk_extend(
            [0], [], comb(4, 3) * 2, comb(4, 2), 3, 10 ** 9,
            False, plan)) == (3 ** 6, 3 * (3 ** 6 - 1) // 2)

    def test_mask_cache_is_bounded(self):
        assert ideals._lane_masks.cache_parameters()["maxsize"] == 8
        assert ideals._lane_masks(3, 1) is ideals._lane_masks(3, 1)
        # the most templates _plan gives count lanes at each lane size keep
        # their masks under _LANE_BYTES, so the cache stays under 8 MB
        sizes = []
        for nparents in (127, 2 ** 15 - 1, 2 ** 31 - 1, 2 ** 63 - 1):
            size = max(t for t in range(70)
                       if ideals._plan(nparents, t, 0, 2, 0)[1])
            width = ideals._plan(nparents, size, 0, 2, 0)[1]
            masks = ideals._lane_masks.__wrapped__(size, width)
            assert len(masks) == size
            assert sum(map(sys.getsizeof, masks)) <= ideals._LANE_BYTES
            sizes.append((size, width))
        assert sizes == [(9, 1), (14, 2), (13, 4), (12, 8)]

    def test_cap_keeps_n7_window_count_at_dict_peak(self, monkeypatch):
        """Traced, the n=7 window level allocates no more than on the
        dict path.  The parent filter runs untraced (traced, it alone
        takes half a minute), and a budget just below the first depth's
        nodes stops either path right after its set-up, which is where a
        lane count allocates its lanes and masks."""
        base = Coloring(3, 2, 4, (0, 0, 0, 0))
        parents = ideals._grow([base], 3, 2, 6, 10 ** 12, True)[3]
        templates = reference_level_templates([base], 7, 3, 1)
        shape = (len(parents), len(templates), comb(6, 3), 2, comb(6, 2))
        assert ideals._plan(*shape) == (4, 0)
        filtered = ideals._lane_filter(parents, templates, 4)
        monkeypatch.setattr(ideals, "_lane_filter", lambda *args: filtered)
        monkeypatch.setattr(ideals, "_scan_filter", lambda *args: filtered)
        cap = 2 * len(parents) - 1

        def traced_peak(plan):
            tracemalloc.start()
            try:
                got = ideals._chunk_extend(parents, templates, comb(6, 3),
                                           comb(6, 2), 2, cap, False, plan)
                return got, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chosen, chosen_peak = traced_peak(ideals._plan)
        on_dict, dict_peak = traced_peak(PLANS[2])
        assert chosen == on_dict == (None, 2 * len(parents))
        assert chosen_peak <= dict_peak + (64 << 10)


def random_parents(rng, k, l, n, size):
    """``size`` members-to-be of level n - 1: every edge's colour field
    drawn from [0, top], top drawn per parent, so parents with few
    colours and parents with many are both common."""
    w = (l - 1).bit_length()
    out = []
    for _ in range(size):
        top = draw(rng, 0, l - 1)
        out.append(sum(draw(rng, 0, top) << i * w
                       for i in range(comb(n - 1, k))))
    return out


class TestLaneFilter:
    """The parent filter in packed lanes must return the scan's keys: the
    same set for each parent, and the dead key for the same parents."""

    def test_matches_scan(self):
        rng = Lcg(53)
        widths = []
        scanned = dead = 0
        for case in range(18):
            k, l = 2 + case % 3, 2 + case // 3 % 3
            basis = random_basis(rng, k, l, draw(rng, 1, 2),
                                 draw(rng, 0, 1) == 1)
            if case % 2:
                # coloured only off its last vertex: its templates have no
                # new edges and kill the parents they match
                basis.append(ColoringPattern(
                    k, l, k + 1, (draw(rng, 1, l - 1),) + (None,) * k))
            w = (l - 1).bit_length()
            # up the levels until the lanes would need more than 8 bytes
            for n in range(k + 1, 20):
                templates = reference_level_templates(basis, n, k, w)
                parents = random_parents(rng, k, l, n, draw(rng, 32, 96))
                width = filter_on_every_path(parents, templates,
                                             comb(n - 1, k) * w)
                widths.append(width)
                dead += None in reference_keys(parents, templates)
                if not width and len(parents) * len(templates) >= 128:
                    scanned += 1
                    break
        # lanes of every size, and levels just past 8 bytes keep the scan
        assert {1, 2, 4, 8} <= set(widths) and scanned == 18 and dead > 0

    def test_edge_cases(self):
        rng = Lcg(59)
        basis = [Coloring(2, 3, 3, (1, 2, 0)),
                 ColoringPattern(2, 3, 3, (2, None, None))]
        templates = reference_level_templates(basis, 6, 2, 2)
        parents = random_parents(rng, 2, 3, 6, 40)
        # T = 0, an empty parent list, one template of each kind
        for ps, tpl in ((parents, []), ([], templates),
                        (parents, templates[:1]),
                        (parents, templates[-1:]),
                        (parents * 4, templates[-1:]),
                        # sels above every parent's highest field
                        ([p & 3 for p in parents] * 4, templates[-4:])):
            # C(5, 2) fields of 2 bits hold every parent and sel
            assert filter_on_every_path(ps, tpl, comb(5, 2) * 2)
        # a template that reads no field matches every parent
        for last, key in ((0, 1), (-1, -1)):
            assert filter_on_every_path([5] * 64, [(0, 0, last, ())], 3)
            assert ideals._scan_filter([5] * 64, [(0, 0, last, ())]) == (
                [key] * 64, -1)


class TestPlan:
    """_plan's (filter, count) lane widths at the shapes the engine meets;
    0 keeps the scan or the dict.  The widths read the level's shape
    alone; whether a level is built is _chunk_extend's to read."""

    def test_window_levels_choose_lanes(self):
        # n = 6: 10 templates over 768 parents
        assert ideals._plan(768, 10, comb(5, 3), 2, comb(5, 2)) == (2, 4)
        # n = 7: 20 templates over 477,965 parents, whose count masks alone
        # would take 160 MB in the 8-byte lanes its prefixes need
        assert ideals._plan(477965, 20, comb(6, 3), 2, comb(6, 2)) == (4, 0)
        assert ideals._fits(477965, 0, comb(6, 3), 2, comb(6, 2)) == (4, 8)
        # more templates than 2 plus the parents' bit length: the dict
        assert ideals._plan(15, 7, 0, 2, 3) == (0, 0)
        assert ideals._plan(15, 6, 0, 2, 3) == (0, 1)

    def test_built_level_never_counts_in_lanes(self, monkeypatch):
        """The window level n = 6 gets count lanes from _plan; built, it
        groups its parents in lists and never calls _lane_count, and its
        members and nodes are the dict path's."""
        base = Coloring(3, 2, 4, (0, 0, 0, 0))
        parents = ideals._grow([base], 3, 2, 5, 10 ** 12, True)[3]
        templates = reference_level_templates([base], 6, 3, 1)
        shape = (comb(5, 3), comb(5, 2), 2, 10 ** 9)
        assert ideals._plan(len(parents), len(templates), comb(5, 3), 2,
                            comb(5, 2)) == (2, 4)
        calls = []
        lane_count = ideals._lane_count

        def counted(*args):
            calls.append(args[-1])
            return lane_count(*args)

        monkeypatch.setattr(ideals, "_lane_count", counted)
        lists, nodes = on_every_path(lambda plan: ideals._chunk_extend(
            parents, templates, *shape, True, plan))
        assert calls == []
        count = on_every_path(lambda plan: ideals._chunk_extend(
            parents, templates, *shape, False, plan))
        assert calls == [4, 4] and count == (sum(map(len, lists)), nodes)

    def test_levels_choose_filter(self):
        base = Coloring(3, 2, 4, (0, 0, 0, 0))
        # window n = 6: 768 parents of 10 bits, 10 templates
        parents = ideals._grow([base], 3, 2, 5, 10 ** 12, True)[3]
        templates = reference_level_templates([base], 6, 3, 1)
        assert ideals._plan(len(parents), len(templates), comb(5, 3), 2,
                            comb(5, 2)) == (2, 4)
        # window n = 7 takes 4-byte lanes, checked on its 477,965 parents
        # in test_cap_keeps_n7_window_count_at_dict_peak
        # the S pattern basis at n = 12: parents of C(11, 3) = 165 bits
        basis = builtin_pattern_basis(IdealSpec.builtin("S", 3))
        parents = ideals._grow(basis, 3, 2, 11, 10 ** 12, True)[3]
        templates = reference_level_templates(basis, 12, 3, 1)
        assert len(parents) * len(templates) >= 128
        assert ideals._plan(len(parents), len(templates), comb(11, 3), 2,
                            comb(11, 2)) == (0, 0)
        # tiny levels: 16 parents, or 31 parents with 4 templates
        assert ideals._plan(16, len(templates), comb(11, 3), 2, 0) == (0, 0)
        assert ideals._plan(31, 4, 0, 2, 0) == (0, 1)
        assert ideals._plan(32, 4, 0, 2, 0) == (1, 1)
        # one parent and no templates packs nothing; every path counts
        # its 2^6 colourings
        assert ideals._plan(1, 0, comb(4, 3), 2, comb(4, 2)) == (0, 1)
        assert on_every_path(lambda plan: ideals._chunk_extend(
            [0], [], comb(4, 3), comb(4, 2), 2, 10 ** 9, False,
            plan)) == (2 ** 6, 2 ** 7 - 2)

    def test_cli_mix_level_counts_in_lanes(self):
        # a cli-mix growth spec, one four-vertex element counted to n = 5:
        # too few parents to pack, few enough templates to count in lanes
        base = Coloring(3, 2, 4, (0, 1, 1, 0))
        parents = ideals._grow([base], 3, 2, 4, 10 ** 12, True)[3]
        templates = reference_level_templates([base], 5, 3, 1)
        assert (len(parents), len(templates)) == (15, 4)
        assert ideals._plan(15, 4, comb(4, 3), 2, comb(4, 2)) == (0, 2)


class TestGrowthCache:
    def test_round_trip_and_prefix_serving(self, tmp_path):
        path = str(tmp_path / "growth.tsv")
        base = Coloring(3, 2, 4, (0, 0, 0, 0))
        spec = IdealSpec.avoid([base])
        first = growth(spec, 5, cache=path)
        assert first.nodes > 0
        again = growth(spec, 5, cache=path)
        assert again.nodes == 0
        assert again.counts == first.counts
        shorter = growth(spec, 3, cache=path)
        assert shorter.nodes == 0
        assert shorter.counts == {1: 1, 2: 1, 3: 2}

    def test_extension_recomputes_and_upserts(self, tmp_path):
        path = str(tmp_path / "growth.tsv")
        base = Coloring(3, 2, 4, (0, 0, 0, 0))
        spec = IdealSpec.avoid([base])
        growth(spec, 4, cache=path)
        longer = growth(spec, 5, cache=path)
        assert longer.nodes > 0
        served = growth(spec, 5, cache=path)
        assert served.nodes == 0 and served.counts[5] == 768

    def test_non_exact_levels_not_persisted(self, tmp_path):
        path = str(tmp_path / "growth.tsv")
        base = Coloring(3, 2, 4, (0, 0, 0, 0))
        spec = IdealSpec.avoid([base])
        growth(spec, 6, budget=50, cache=path)
        entries = load_cache(path)
        assert (spec.digest(), 4) in entries
        assert (spec.digest(), 5) not in entries

    def test_non_exact_row_is_a_miss_and_is_overwritten(self, tmp_path):
        path = tmp_path / "growth.tsv"
        spec = IdealSpec.avoid([Coloring(3, 2, 4, (0, 0, 0, 0))])
        dg = spec.digest()
        path.write_text("".join(f"{dg}\t{n}\t{c}\t1\n"
                                for n, c in ((1, 1), (2, 1), (3, 2), (4, 15)))
                        + f"{dg}\t5\t999\t0\n")
        rec = growth(spec, 5, cache=str(path))
        assert rec.counts[5] == 768 and rec.exact[5] and rec.nodes > 0
        assert load_cache(str(path))[(dg, 5)] == (768, True)
        served = growth(spec, 5, cache=str(path))
        assert served.nodes == 0 and served.counts[5] == 768

    def test_merge_keeps_other_digests(self, tmp_path):
        path = str(tmp_path / "growth.tsv")
        update_cache(path, "a" * 16, {1: 1, 2: 5}, {1: True, 2: True})
        update_cache(path, "b" * 16, {1: 7}, {1: True})
        got = load_cache(path)
        assert got[("a" * 16, 2)] == (5, True)
        assert got[("b" * 16, 1)] == (7, True)

    def test_missing_file_is_empty(self, tmp_path):
        assert load_cache(str(tmp_path / "nope.tsv")) == {}

    def test_malformed_rows_are_skipped(self, tmp_path):
        path = tmp_path / "growth.tsv"
        path.write_bytes(b"garbage\n" + b"a" * 16 + b"\tx\t1\t1\n"
                         + b"\xff\xfe\t1\n" + b"b" * 16 + b"\t3\t7\t1\n")
        assert load_cache(str(path)) == {("b" * 16, 3): (7, True)}

    def test_update_appends_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "growth.tsv"
        path.write_text("garbage\n")
        update_cache(str(path), "a" * 16, {1: 1}, {1: True})
        # the garbage row stays on disk and is skipped on read
        assert path.read_text() == "garbage\n" + "a" * 16 + "\t1\t1\t1\n"
        assert load_cache(str(path)) == {("a" * 16, 1): (1, True)}
        assert [p.name for p in tmp_path.iterdir()] == ["growth.tsv"]

    def test_new_file_gets_the_default_mode(self, tmp_path):
        update_cache(str(tmp_path / "growth.tsv"), "a" * 16, {1: 1},
                     {1: True})
        (tmp_path / "plain.txt").write_text("")
        assert os.stat(tmp_path / "growth.tsv").st_mode == \
            os.stat(tmp_path / "plain.txt").st_mode

    def test_golden_file(self, tmp_path):
        # digests of builtin S(3) and of Avoid of the constant base 0000
        s_dg, a_dg = "c028cd4d566b40e1", "31825e93d456a39b"
        want = {(a_dg, 1): (1, True), (a_dg, 2): (1, True),
                (a_dg, 3): (2, True), (a_dg, 4): (15, True)}
        g = [1, 1, 2, 3, 4, 6, 9, 13, 19, 28, 41]
        want.update({(s_dg, n): (g[n - 1], True) for n in range(1, 12)})
        assert load_cache(str(FIXTURES / "cache.tsv")) == want
        path = str(tmp_path / "growth.tsv")
        update_cache(path, s_dg, {n: g[n - 1] for n in range(1, 7)},
                     {n: True for n in range(1, 7)})
        update_cache(path, a_dg, {1: 1, 2: 1, 3: 2, 4: 15, 5: 768},
                     {1: True, 2: True, 3: True, 4: True, 5: False})
        update_cache(path, s_dg, {n: g[n - 1] for n in range(1, 12)},
                     {n: True for n in range(1, 12)})
        # append order: S 1..6, A 1..4 (5 is not exact), then only the
        # S levels the file lacked, 7..11
        rows = (FIXTURES / "cache.tsv").read_bytes().splitlines(keepends=True)
        a_rows, s_rows = rows[:4], rows[4:]
        assert Path(path).read_bytes() == b"".join(
            s_rows[:6] + a_rows + s_rows[6:])
        assert load_cache(path) == want

    def test_hostile_bytes_match_reference(self, tmp_path):
        tokens = [b"\t", b"\n", b"\r", b"\r\n", b"\x0c", b"\x1c", b"\x85",
                  "\x85".encode(), "\u2028".encode(), b"\x00", b"\xff",
                  b"\xc3", b"\xe2\x80", "\u0663".encode(), "\uff17".encode(),
                  b" ", b"0", b"1", b"7", b"12", b"-3", b"+4", b"1_0", b"x",
                  b"a" * 16]
        rng = Lcg(2028)

        def valid_row():
            return b"\t".join([pick(rng, [b"a" * 16, b"b" * 16]),
                               str(draw(rng, 1, 12)).encode(),
                               str(draw(rng, 0, 99)).encode(),
                               pick(rng, [b"0", b"1"])])

        path = str(tmp_path / "growth.tsv")
        hits = 0
        for _ in range(2500):
            rows = []
            for _ in range(draw(rng, 0, 8)):
                kind = draw(rng, 0, 6)
                if kind == 0:
                    rows.append(b"")
                elif kind == 1 and rows:
                    rows.append(pick(rng, rows))
                elif kind == 2:
                    rows.append(b"".join(pick(rng, tokens)
                                         for _ in range(draw(rng, 1, 12))))
                elif kind == 5:
                    # two rows that only a wider line split separates
                    rows.append(valid_row() + pick(rng, tokens) + valid_row())
                else:
                    fields = valid_row().split(b"\t")
                    i = draw(rng, 0, 3)
                    if kind == 3:
                        fields[i] = pick(rng, tokens)
                    elif kind == 4:
                        cut = draw(rng, 0, len(fields[i]))
                        fields[i] = (fields[i][:cut] + pick(rng, tokens)
                                     + fields[i][cut:])
                    rows.append(b"\t".join(fields))
            ends = [b"\n", b"\r\n", b"\r"]
            data = b"".join(r + pick(rng, ends) for r in rows)
            if draw(rng, 0, 4) == 0:
                data = data.rstrip(b"\r\n")
            Path(path).write_bytes(data)
            want = reference_load_cache(path)
            assert load_cache(path) == want, data
            assert load_cache(path) == want, data
            hits += bool(want)
        assert hits > 1000

    def test_rewrite_with_same_size_and_mtime_is_seen(self, tmp_path):
        path = str(tmp_path / "growth.tsv")
        update_cache(path, "a" * 16, {1: 1, 2: 5}, {1: True, 2: True})
        assert load_cache(path)[("a" * 16, 2)] == (5, True)
        rewrite_keeping_stat(path, ("b" * 16 + "\t1\t1\t1\n"
                                    + "b" * 16 + "\t2\t6\t1\n").encode())
        assert load_cache(path) == {("b" * 16, 1): (1, True),
                                    ("b" * 16, 2): (6, True)}

    def test_returned_dict_is_the_callers(self, tmp_path):
        path = str(tmp_path / "growth.tsv")
        update_cache(path, "a" * 16, {1: 1}, {1: True})
        want = {("a" * 16, 1): (1, True)}
        for _ in range(2):
            got = load_cache(path)
            assert got == want
            got[("z" * 16, 9)] = (0, False)
            del got[("a" * 16, 1)]
        assert load_cache(path) == want

    def test_earlier_result_unchanged_by_append(self, tmp_path):
        """An append is parsed into the last parse's own entries; a
        load_cache result taken before it must not see the new rows."""
        path = str(tmp_path / "growth.tsv")
        update_cache(path, "a" * 16, {1: 1, 2: 5}, {1: True, 2: True})
        before = load_cache(path)
        snapshot = dict(before)
        update_cache(path, "a" * 16, {2: 6, 3: 9}, {2: True, 3: True})
        after = load_cache(path)
        assert before == snapshot
        assert after == {("a" * 16, 1): (1, True), ("a" * 16, 2): (6, True),
                         ("a" * 16, 3): (9, True)}
        with open(path, "ab") as fh:
            fh.write(("b" * 16 + "\t1\t2\t1\n").encode())
        assert load_cache(path) == {**after, ("b" * 16, 1): (2, True)}
        assert before == snapshot
        assert len(after) == 3

    def test_threads_appending_and_reading(self, tmp_path, monkeypatch):
        """Threads append and read one file, and every parsed line yields
        the interpreter lock; every read sees the thread's own rows, and
        the last parse equals a fresh one, so no row was lost or parsed
        out of order into the shared entries."""
        path = str(tmp_path / "growth.tsv")
        errors = []

        def yielding_lines(text, newline):
            for line in io.StringIO(text, newline=newline):
                time.sleep(0)
                yield line

        monkeypatch.setattr(ideals, "io",
                            SimpleNamespace(StringIO=yielding_lines))

        def work(t):
            try:
                for i in range(20):
                    # each thread rewrites its own key, so order matters
                    update_cache(path, f"{t:016x}", {1: i, 2 + i: i},
                                 {1: True, 2 + i: True})
                    got = load_cache(path)
                    if got.get((f"{t:016x}", 1)) != (i, True):
                        errors.append((t, i))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        want = reference_load_cache(path)
        assert len(want) == 4 * 21
        assert ideals._read_cache(path)[1] == want
        assert load_cache(path) == want

    def test_two_paths_used_alternately(self, tmp_path):
        first, second = str(tmp_path / "one.tsv"), str(tmp_path / "two.tsv")
        Path(first).write_text("a" * 16 + "\t1\t3\t1\n")
        Path(second).write_text("b" * 16 + "\t1\t4\t1\n")
        st = os.stat(first)
        os.utime(second, ns=(st.st_atime_ns, st.st_mtime_ns))
        for _ in range(3):
            assert load_cache(first) == {("a" * 16, 1): (3, True)}
            assert load_cache(second) == {("b" * 16, 1): (4, True)}

    def test_deleted_file_loads_empty(self, tmp_path):
        path = str(tmp_path / "growth.tsv")
        update_cache(path, "a" * 16, {1: 1}, {1: True})
        assert load_cache(path)
        os.remove(path)
        assert load_cache(path) == {}

    def test_update_keeps_external_rewrite(self, tmp_path):
        path = str(tmp_path / "growth.tsv")
        update_cache(path, "a" * 16, {1: 2}, {1: True})
        rewrite_keeping_stat(path, ("c" * 16 + "\t1\t3\t1\n").encode())
        update_cache(path, "b" * 16, {1: 4}, {1: True})
        want = {("b" * 16, 1): (4, True), ("c" * 16, 1): (3, True)}
        assert reference_load_cache(path) == want
        assert load_cache(path) == want

    def test_unusual_digests_read_back_as_written(self, tmp_path):
        path = str(tmp_path / "growth.tsv")
        for digest in ("a\tb", " lead", "two\nlines", "", "\u2028x"):
            update_cache(path, digest, {1: 1}, {1: True})
            assert load_cache(path) == reference_load_cache(path)
        update_cache(path, "a" * 16, {True: 5}, {True: True})
        assert load_cache(path) == reference_load_cache(path)

    def test_unchanged_file_is_not_parsed_again(self, tmp_path, monkeypatch):
        path = tmp_path / "growth.tsv"
        path.write_text("".join(f"{'c' * 16}\t{n}\t{n}\t1\n"
                                for n in range(1, 30)))
        spec = IdealSpec.avoid([Coloring(3, 2, 4, (0, 0, 0, 0))])
        first = growth(spec, 5, cache=str(path))
        assert first.nodes > 0
        parsed = []
        string_io = io.StringIO

        def recording(text, newline):
            parsed.append(text)
            return string_io(text, newline=newline)

        monkeypatch.setattr(ideals, "io", SimpleNamespace(StringIO=recording))
        # the hit after this process's own append parses only that block
        again = growth(spec, 5, cache=str(path))
        assert again.nodes == 0 and again.counts == first.counts
        assert parsed == ["".join(f"{spec.digest()}\t{n}\t{c}\t1\n"
                                  for n, c in first.counts.items())]
        # a hit on unchanged bytes parses nothing
        parsed.clear()
        assert growth(spec, 5, cache=str(path)).nodes == 0
        assert load_cache(str(path)) == reference_load_cache(str(path))
        assert parsed == []

    def test_updates_match_reference(self, tmp_path):
        rng = Lcg(4242)

        ours, theirs = tmp_path / "ours.tsv", tmp_path / "theirs.tsv"
        digests = [f"{rng.next_u64():016x}" for _ in range(12)]
        odd = ["a\tb", " lead", "", "two\nlines", "\u2028x", "tail "]
        junk = [b"garbage", b"x\t1\t2", b"\xff\xfe\t1\t1\t1",
                b"a" * 16 + b"\tfive\t1\t1", b"\r", b"\t\t\t"]
        plain_calls = odd_calls = rewrites = torn = 0
        for _ in range(600):
            kind = draw(rng, 0, 9)
            if kind == 0:
                # another writer: unsorted, duplicate and malformed rows
                rows = []
                for _ in range(draw(rng, 0, 6)):
                    if draw(rng, 0, 2) == 0:
                        rows.append(pick(rng, junk))
                    elif rows and rng.bit():
                        rows.append(pick(rng, rows))
                    else:
                        rows.append(b"\t".join([
                            pick(rng, digests).encode(),
                            str(draw(rng, 1, 9)).encode(),
                            str(draw(rng, 0, 999)).encode(),
                            pick(rng, [b"0", b"1"])]))
                data = b"".join(r + pick(rng, [b"\n", b"\r\n"]) for r in rows)
                if data and draw(rng, 0, 3) == 0:
                    # a torn last row
                    data = data[:draw(rng, 0, len(data) - 1)]
                    torn += not data.endswith(b"\n")
                for path in (ours, theirs):
                    path.write_bytes(data)
                rewrites += 1
            elif kind == 1 and ours.exists():
                ours.unlink()
                theirs.unlink()
                rewrites += 1
            else:
                digest = pick(rng, odd) if kind == 2 else pick(rng, digests)
                top = draw(rng, 1, 9)
                counts = {n: draw(rng, 0, 10 ** draw(rng, 1, 12))
                          for n in range(1, top + 1)}
                exact = {n: draw(rng, 0, 4) > 0 for n in counts}
                if kind == 3:
                    counts = {True: 5}
                    exact = {True: True}
                plain = kind not in (2, 3)
                plain_calls += plain
                odd_calls += not plain
                merged = reference_load_cache(str(theirs))
                update_cache(str(ours), digest, counts, exact)
                reference_update_cache(str(theirs), digest, counts, exact)
                if plain:
                    # the appended rows win over older ones: a merge
                    merged.update({(digest, n): (cnt, True)
                                   for n, cnt in counts.items() if exact[n]})
                    assert load_cache(str(ours)) == merged
            assert ours.exists() == theirs.exists()
            if ours.exists():
                assert ours.read_bytes() == theirs.read_bytes()
            assert load_cache(str(ours)) == reference_load_cache(str(theirs))
        assert plain_calls > 300 and odd_calls > 50 and rewrites > 50
        assert torn > 5

    def test_failed_write_keeps_rows_unread(self, tmp_path, monkeypatch):
        path = str(tmp_path / "growth.tsv")
        update_cache(path, "a" * 16, {1: 2}, {1: True})
        before = Path(path).read_bytes()
        real_write = os.write

        def no_write(fd, data):
            raise OSError("disk full")

        monkeypatch.setattr(ideals.os, "write", no_write)
        with pytest.raises(OSError):
            update_cache(path, "b" * 16, {1: 3}, {1: True})
        monkeypatch.undo()
        assert Path(path).read_bytes() == before
        assert load_cache(path) == {("a" * 16, 1): (2, True)}
        assert [p.name for p in tmp_path.iterdir()] == ["growth.tsv"]

        def one_byte(fd, data):
            return real_write(fd, data[:1])

        # partial writes resume where they stopped
        monkeypatch.setattr(ideals.os, "write", one_byte)
        update_cache(path, "c" * 16, {1: 4, 2: 5}, {1: True, 2: True})
        monkeypatch.undo()
        assert Path(path).read_bytes() == before + (
            "c" * 16 + "\t1\t4\t1\n" + "c" * 16 + "\t2\t5\t1\n").encode()
        assert load_cache(path) == reference_load_cache(path) == {
            ("a" * 16, 1): (2, True), ("c" * 16, 1): (4, True),
            ("c" * 16, 2): (5, True)}

    def test_unchanged_file_formats_only_new_rows(self, tmp_path,
                                                  monkeypatch):
        path = str(tmp_path / "growth.tsv")
        old = "".join(f"{dg * 16}\t{n}\t{n * 7}\t1\n"
                      for dg in "ezc" for n in range(1, 20))
        Path(path).write_text(old)
        formatted = []
        row = ideals._cache_row

        def counting_row(key, value):
            formatted.append(key)
            return row(key, value)

        monkeypatch.setattr(ideals, "_cache_row", counting_row)
        update_cache(path, "b" * 16, {1: 3, 2: 4}, {1: True, 2: True})
        update_cache(path, "d" * 16, {1: 5, 2: 6, 3: 7},
                     {1: True, 2: False, 3: True})
        update_cache(path, "z" * 16, {4: 8}, {4: True})
        # a row the file already holds is neither formatted nor written
        update_cache(path, "e" * 16, {3: 21, 4: 9}, {3: True, 4: True})
        new = [(("b" * 16, 1), 3), (("b" * 16, 2), 4), (("d" * 16, 1), 5),
               (("d" * 16, 3), 7), (("z" * 16, 4), 8), (("e" * 16, 4), 9)]
        assert formatted == [key for key, _ in new]
        want = {(dg * 16, n): (n * 7, True) for dg in "ezc"
                for n in range(1, 20)}
        want.update({key: (cnt, True) for key, cnt in new})
        assert reference_load_cache(path) == want
        assert Path(path).read_bytes() == old.encode() + b"".join(
            f"{dg}\t{n}\t{cnt}\t1\n".encode() for (dg, n), cnt in new)


    def test_torn_tail_serves_no_wrong_hit(self, tmp_path):
        spec = IdealSpec.avoid([Coloring(3, 2, 4, (0, 0, 0, 0))])
        dg = spec.digest()
        want = growth(spec, 5).counts
        head = "".join(f"{'c' * 16}\t{n}\t{n * 101}\t1\n"
                       for n in range(1, 12)).encode()
        block = b"".join(ideals._cache_row((dg, n), (cnt, True))
                         for n, cnt in want.items())
        path = tmp_path / "growth.tsv"
        for cut in range(len(block) + 1):
            # a writer stopped after `cut` bytes of its block
            path.write_bytes(head + block[:cut])
            for n, row in load_cache(str(path)).items():
                if n[0] == dg and row[1]:
                    assert row[0] == want[n[1]], block[:cut]
            rec = growth(spec, 5, cache=str(path))
            assert rec.counts == want and all(rec.exact.values())
            # a hit only once the last row lacks nothing but its newline
            assert (rec.nodes == 0) == (cut >= len(block) - 1)
            # the recount's rows land whole after the torn one
            got = load_cache(str(path))
            assert got == reference_load_cache(str(path))
            assert {key: row for key, row in got.items() if key[0] == dg} \
                == {(dg, n): (cnt, True) for n, cnt in want.items()}
            assert len(got) == 11 + 5
            assert growth(spec, 5, cache=str(path)).nodes == 0

    def test_appended_chunks_match_reference(self, tmp_path):
        rng = Lcg(77)
        digests = [b"a" * 16, "\u00e9\u0663".encode() * 4, b"\xe2\x80x"]
        numbers = [b"1", b"23", "\u0663".encode(), b"\xff"]
        ends = [b"\n", b"\r\n", b"\r", b"\x85", "\u2028".encode()]

        def row():
            fields = [pick(rng, digests), pick(rng, numbers),
                      pick(rng, numbers), pick(rng, [b"0", b"1"])]
            del fields[draw(rng, 0, 7):draw(rng, 4, 5)]  # most rows whole
            return b"\t".join(fields)

        path = str(tmp_path / "growth.tsv")
        seen = {"suffix": 0, "cr|lf": 0, "utf-8": 0, "rows": 0}
        for _ in range(300):
            stream = b"".join(row() + pick(rng, ends)
                              for _ in range(draw(rng, 1, 12)))
            if rng.bit():
                stream = stream.rstrip(b"\r\n")  # no final newline
            # cut anywhere, or after a line end, between \r and \n, or
            # inside a UTF-8 sequence
            marks = [range(len(stream) + 1)] + [
                [i for i in range(1, len(stream)) if test(i)] or [0]
                for test in (lambda i: stream[i - 1] == 10,
                             lambda i: stream[i - 1:i + 1] == b"\r\n",
                             lambda i: stream[i] & 0xC0 == 0x80)]
            cuts = sorted({pick(rng, pick(rng, marks)) for _ in range(4)})
            Path(path).write_bytes(b"")
            load_cache(path)
            for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
                before, chunk = stream[:lo], stream[lo:hi]
                seen["suffix"] += before.endswith(b"\n")
                seen["cr|lf"] += before.endswith(b"\r") and chunk[:1] == b"\n"
                seen["utf-8"] += chunk[:1] != b"" and chunk[0] & 0xC0 == 0x80
                with open(path, "ab") as fh:
                    fh.write(chunk)
                want = reference_load_cache(path)
                assert load_cache(path) == want, stream[:hi]
                assert load_cache(path) == want, stream[:hi]
                seen["rows"] += bool(want)
        assert min(seen.values()) > 100, seen

    def test_concurrent_writers_lose_no_row(self, tmp_path):
        path = str(tmp_path / "growth.tsv")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent
                                              / "src"))
        procs = [subprocess.Popen([sys.executable, "-c", CACHE_WRITER,
                                   path, str(w)], env=env, text=True,
                                  stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE)
                 for w in (1, 2)]
        for proc in procs:
            assert proc.stdout.readline() == "ready\n"
        for proc in procs:
            # both start updating at once
            proc.stdin.write("go\n")
            proc.stdin.flush()
        for proc in procs:
            proc.communicate(timeout=120)
            assert proc.returncode == 0
        want = {(f"{w:08x}{i:08x}", n): (i if n == 1 else w, True)
                for w in (1, 2) for i in range(300) for n in (1, 2)}
        assert load_cache(path) == reference_load_cache(path) == want


class TestDichotomyVerdicts:
    def test_linear_floor_family(self):
        rec = growth(IdealSpec.builtin("lineartight", 3), 10)
        v = dichotomy_verdict(rec, "constant")
        assert v.classification == "linear-floor satisfied"
        assert v.window == (1, 10)
        d = dict(v.details)
        assert d["floor_equality"] == "true"
        assert d["constant_tail"] == "false"
        assert "window-relative" in v.caveat

    def test_quasi_fibonacci_equality(self):
        rec = growth(IdealSpec.builtin("S", 3), 10)
        v = dichotomy_verdict(rec, "quasi_fibonacci")
        assert v.classification == "quasi-fibonacci floor met with equality"
        d = dict(v.details)
        assert d == {"eq_G": "true", "ge_G": "true", "poly_exponent": "2",
                     "ratio_max": "2", "ratio_min": "1"}

    def test_quasi_fibonacci_strict(self):
        rec = growth(IdealSpec.builtin("w1tight", 3), 8)
        v = dichotomy_verdict(rec, "quasi_fibonacci")
        assert v.classification == "quasi-fibonacci floor met"
        assert dict(v.details)["eq_G"] == "false"

    def test_constant_tail(self):
        basis = [Coloring.constant(3, 2, 3, 0), Coloring.constant(3, 2, 3, 1)]
        rec = growth(IdealSpec.avoid(basis), 5)
        assert rec.counts == {1: 1, 2: 1, 3: 0, 4: 0, 5: 0}
        v = dichotomy_verdict(rec, "constant")
        assert v.classification == "constant-tail candidate"
        assert dict(v.details)["tail_value"] == "0"

    def test_violation_shape(self):
        fake = GrowthRecord("0" * 16, 3, {3: 1, 4: 1, 5: 2},
                            {3: True, 4: True, 5: True}, 0)
        v = dichotomy_verdict(fake, "constant")
        assert v.classification == "violation"

    def test_window_skips_inexact_levels(self):
        rec = GrowthRecord("0" * 16, 3, {1: 1, 2: 1, 3: 2},
                           {1: True, 2: True, 3: False}, 0)
        v = dichotomy_verdict(rec, "constant")
        assert v.window == (1, 2)

    def test_validation(self):
        empty = GrowthRecord("0" * 16, 3, {}, {1: False}, 0)
        with pytest.raises(ValueError):
            dichotomy_verdict(empty, "constant")
        rec = growth(IdealSpec.builtin("S", 3), 4)
        with pytest.raises(ValueError):
            dichotomy_verdict(rec, "linear")


def reference_quasi_fibonacci(record):
    """The quasi_fibonacci verdict as first written: G recomputed for every
    level, the exponent found by trying c = 0, 1, 2, ..., and every ratio
    reduced.  Returns (classification, window, details)."""
    ns = sorted(n for n, ok in record.exact.items()
                if ok and n in record.counts)
    cnt = record.counts
    ge = all(cnt[n] >= sequence_G(n) for n in ns)
    eq = all(cnt[n] == sequence_G(n) for n in ns)
    c = 0
    while not all(cnt[n] <= n ** c for n in ns if n >= 2):
        c += 1
    details = {"ge_G": str(ge).lower(), "eq_G": str(eq).lower(),
               "poly_exponent": str(c)}
    ratios = [Fraction(cnt[b], cnt[a]) for a, b in zip(ns, ns[1:])
              if cnt[a] > 0]
    if ratios:
        details["ratio_min"] = str(min(ratios))
        details["ratio_max"] = str(max(ratios))
    if eq:
        classification = "quasi-fibonacci floor met with equality"
    elif ge:
        classification = "quasi-fibonacci floor met"
    else:
        classification = "below quasi-fibonacci floor within window"
    return classification, (ns[0], ns[-1]), tuple(sorted(details.items()))


def random_record(rng):
    """A hand-made record whose counts sit on and next to the verdict's
    edges: 0, 1, n**c - 1, n**c, n**c + 1, G_n, G_n + 1 and huge values;
    some levels are inexact or missing."""
    lo = draw(rng, 1, 6)
    counts, exact = {}, {}
    for n in range(lo, lo + draw(rng, 0, 30) + 1):
        c = draw(rng, 0, 6)
        choice = draw(rng, 0, 8)
        counts[n] = (0, 1, n ** c - 1, n ** c, n ** c + 1, sequence_G(n),
                     sequence_G(n) + 1, rng.next_u64() ** 3,
                     draw(rng, 0, 50))[choice]
        exact[n] = draw(rng, 0, 5) > 0
        if draw(rng, 0, 9) == 0:
            del counts[n]
    counts.setdefault(lo, 1)
    exact[lo] = True  # at least one exact level
    return GrowthRecord("0" * 16, 3, counts, exact, 0)


class TestQuasiFibonacciVerdict:
    """The verdict reads G in one pass and finds the exponent from bit
    lengths; it must say what the level-by-level reading said."""

    @staticmethod
    def same_as_reference(rec):
        v = dichotomy_verdict(rec, "quasi_fibonacci")
        assert (v.classification, v.window, v.details) == \
            reference_quasi_fibonacci(rec)

    def test_random_records(self):
        rng = Lcg(83)
        for _ in range(300):
            self.same_as_reference(random_record(rng))

    def test_builtin_records(self):
        for name, k, n_max in (("S", 3, 400), ("S", 4, 200),
                               ("lineartight", 3, 200), ("w1tight", 3, 60),
                               ("S", 2, 100)):
            self.same_as_reference(growth(IdealSpec.builtin(name, k), n_max))

    def test_one_pass_of_the_recurrence(self, monkeypatch):
        rec = growth(IdealSpec.builtin("S", 3), 300)
        calls = []
        real = sequences._gk_values

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sequences, "_gk_values", counted)
        dichotomy_verdict(rec, "quasi_fibonacci")
        assert len(calls) <= 1


class TestCensus:
    def test_distinct_count(self):
        a = Coloring.constant(3, 2, 4, 0)
        b = Coloring.from_map(3, 2, 4, {(1, 2, 3): 1})
        assert census_distinct([a, b, a]) == 2
        assert census_distinct([]) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            census_distinct([Coloring.constant(3, 2, 4, 0),
                             Coloring.constant(3, 2, 5, 0)])


class TestTameCensus:
    def test_small_values(self):
        assert [count_p_tame(n, 3) for n in range(1, 6)] == \
            [1, 1, 2, 16, 1024]

    def test_agrees_with_direct_classifier(self):
        for p in (3, 4):
            for n in (3, 4, 5):
                edges = list(all_edges(n, 3))
                direct = sum(
                    is_p_tame(Coloring(3, 2, n, cols), p).tame
                    for cols in product((0, 1), repeat=len(edges)))
                assert direct == count_p_tame(n, p)

    def test_six_vertex_census(self):
        assert count_p_tame(6, 3) == 1031116

    def test_pinned_values(self):
        # every colouring of [n] is tame for n <= 5, and for n = 6 at p >= 4
        want = {n: [v] * 4 for n, v in ((1, 1), (2, 1), (3, 2), (4, 16),
                                         (5, 1024))}
        want[6] = [1031116, 1048576, 1048576, 1048576]
        assert {n: [count_p_tame(n, p) for p in range(3, 7)]
                for n in range(1, 7)} == want

    def test_pinned_split_tables(self):
        assert {(n, a): _tame_split_tables(n, a)
                for n in range(4, 7) for a in range(3, n)} == {
            (4, 3): ({1: 2, 2: 12}, {1: 1}),
            (5, 3): ({1: 2, 2: 110}, {1: 2, 2: 4, 3: 2}),
            (5, 4): ({1: 2, 2: 48, 3: 76}, {1: 1}),
            (6, 3): ({1: 2, 2: 376, 3: 518}, {1: 2, 2: 214, 3: 296}),
            (6, 4): ({1: 2, 2: 850, 3: 7212}, {1: 2, 2: 6, 3: 6, 4: 2}),
            (6, 5): ({1: 2, 2: 116, 3: 596, 4: 1332}, {1: 1})}

    def test_six_vertex_census_above_three(self):
        # every colouring of [6] is p-tame for p >= 4
        for p in (4, 5, 6):
            assert count_p_tame(6, p) == 1048576

    def test_known_wild_coloring(self):
        c = Coloring.from_map(3, 2, 6, {(1, 2, 6): 1, (1, 4, 6): 1})
        rep = is_p_tame(c, 3)
        assert not rep.tame
        assert rep.witness.condition == 4

    def test_threshold_monotone(self):
        assert count_p_tame(5, 4) >= count_p_tame(5, 3)

    def test_census_stays_under_polynomial_ceiling(self):
        # the bounded-complexity count must sit below n^(10 p^6)
        p = 3
        for n in range(1, 7):
            assert count_p_tame(n, p) <= n ** (10 * p ** 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            count_p_tame(7, 3)
        with pytest.raises(ValueError):
            count_p_tame(0, 3)
        with pytest.raises(ValueError):
            count_p_tame(5, 2)
