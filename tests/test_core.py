"""Colorings, containment, restriction: checked against brute-force oracles."""

import inspect
import sys
import tracemalloc
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

from hypergrowth.core import (Coloring, ColoringPattern,
                              IncompatibleColoringsError, InvalidEdgeError,
                              _colex_table, all_edges, coloring_from_text, coloring_to_text,
                              contains, edge_index, edge_unindex, homogeneity,
                              injection_witnesses, relabel,
                              restrict_normalize, reverse)
from hypergrowth.rng import Lcg

FIXTURES = Path(__file__).parent / "fixtures"


def rank_oracle(edge, n, k):
    return sorted(combinations(range(1, n + 1), k)).index(tuple(sorted(edge)))


def draw(rng, lo, hi):
    """An integer in [lo, hi] from the high bits of the next LCG draw.

    Lcg.randint reduces the raw state modulo the span, and the low bits
    of this LCG have short periods: randint(0, 1) alternates.
    """
    return lo + (rng.next_u64() * (hi - lo + 1) >> 64)


def random_coloring(rng, k, l, n):
    nedges = len(list(all_edges(n, k)))
    return Coloring(k, l, n, tuple(draw(rng, 0, l - 1) for _ in range(nedges)))


def random_pattern(rng, k, l, n):
    """A ColoringPattern with about a third of its edges unspecified."""
    nedges = len(list(all_edges(n, k)))
    return ColoringPattern(k, l, n, tuple(
        None if draw(rng, 0, 2) == 0 else draw(rng, 0, l - 1)
        for _ in range(nedges)))


def random_subset(rng, n):
    size = rng.randint(1, n)
    subset = []
    while len(subset) < size:
        v = rng.randint(1, n)
        if v not in subset:
            subset.append(v)
    return subset


def random_bijection(rng, n):
    """A uniform permutation of [n] as a dict, by Fisher-Yates."""
    perm = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = draw(rng, 0, i)
        perm[i], perm[j] = perm[j], perm[i]
    return dict(zip(range(1, n + 1), perm))


def wild_cases(rng, count):
    """Random patterns with wildcards, l = 3 and k = 2..4, n from 1 to k+4."""
    for _ in range(count):
        k = draw(rng, 2, 4)
        yield random_pattern(rng, k, 3, draw(rng, 1, k + 4))


def contains_oracle(small, big):
    """All increasing injections, smallest first."""
    for f in combinations(range(1, big.n + 1), small.n):
        if all(small.color(e) is None
               or big.color(tuple(f[v - 1] for v in e)) == small.color(e)
               for e in small.edges()):
            return f
    return None


class TestEdgeIndexing:
    def test_matches_enumeration_order(self):
        for n, k in ((5, 3), (6, 2), (7, 4), (4, 4), (9, 3), (2, 2), (5, 5),
                     (12, 2), (12, 3), (8, 5), (12, 5)):
            for i, e in enumerate(all_edges(n, k)):
                assert edge_index(e, n, k) == i == rank_oracle(e, n, k)
                assert edge_unindex(i, n, k) == e

    def test_colex_table_matches_binomial_sums(self):
        for k in range(2, 6):
            for n in range(1, 13):
                rows = _colex_table(n, k)
                ranks = []
                for e in all_edges(n, k):
                    # every prefix too: template build reads k-1 rows
                    for p in range(1, k + 1):
                        assert sum(map(tuple.__getitem__, rows, e[:p])) == \
                            sum(comb(v - 1, i + 1)
                                for i, v in enumerate(e[:p]))
                    ranks.append(sum(map(tuple.__getitem__, rows, e)))
                assert sorted(ranks) == list(range(comb(n, k)))

    def test_accepts_any_vertex_order(self):
        assert edge_index((5, 1, 3), 5, 3) == edge_index((1, 3, 5), 5, 3)

    def test_rejects_bad_edges(self):
        with pytest.raises(InvalidEdgeError):
            edge_index((1, 2), 5, 3)
        with pytest.raises(InvalidEdgeError):
            edge_index((1, 2, 2), 5, 3)
        with pytest.raises(InvalidEdgeError):
            edge_index((0, 1, 2), 5, 3)
        with pytest.raises(InvalidEdgeError):
            edge_index((1, 2, 6), 5, 3)
        with pytest.raises(InvalidEdgeError):
            edge_unindex(10, 5, 3)


class TestColoring:
    def test_header_validation(self):
        with pytest.raises(ValueError):
            Coloring(1, 2, 3, ())
        with pytest.raises(ValueError):
            Coloring(3, 1, 3, (0,))
        with pytest.raises(ValueError):
            Coloring(3, 2, 0, ())
        with pytest.raises(ValueError):
            Coloring(3, 2, 4, (0, 1, 2, 0))
        with pytest.raises(ValueError):
            Coloring(3, 2, 4, (0, 1, 0))

    def test_empty_below_k(self):
        c = Coloring(3, 2, 2, ())
        assert c.empty and list(c.edges()) == []

    def test_from_map_and_constant(self):
        c = Coloring.from_map(3, 2, 4, {(2, 3, 4): 1})
        assert c.colors == (0, 0, 0, 1)
        assert Coloring.constant(3, 2, 4, 1).colors == (1, 1, 1, 1)

    def test_from_function(self):
        c = Coloring.from_function(3, 2, 5, lambda e: e[0] % 2)
        assert c.color((2, 3, 5)) == 0 and c.color((1, 4, 5)) == 1

    def test_pattern_wildcards(self):
        p = ColoringPattern.from_map(3, 2, 4, {(1, 2, 3): 1})
        assert p.color((1, 2, 3)) == 1 and p.color((1, 2, 4)) is None

    @pytest.mark.parametrize("bad", [2, -1, 0.5, 1.0, "1", None])
    def test_public_constructor_checks_every_color(self, bad):
        # None is a pattern's wildcard, so only Coloring rejects it
        for cls in (Coloring,) if bad is None else (Coloring, ColoringPattern):
            with pytest.raises(ValueError,
                               match=rf"^color {bad!r} outside 0..1$"):
                cls(3, 2, 4, (0, 1, bad, 0))

    def test_bool_color_accepted(self):
        for cls in (Coloring, ColoringPattern):
            assert cls(3, 2, 3, (True,)) == cls(3, 2, 3, (1,))

    def test_trusted_equals_and_hashes_like_public(self):
        rng = Lcg(7)
        for k, l, n in ((2, 2, 1), (3, 2, 2), (3, 2, 6), (2, 3, 5), (4, 3, 6)):
            public = random_coloring(rng, k, l, n)
            trusted = Coloring._trusted(k, l, n, public.colors)
            assert trusted == public and hash(trusted) == hash(public)
            assert repr(trusted) == repr(public)
            for field in Coloring.__match_args__:
                assert getattr(trusted, field) == getattr(public, field)
            assert not hasattr(trusted, "__dict__")
            assert not hasattr(public, "__dict__")

    def test_classes_are_siblings(self):
        # the tracer wraps each class's color once, and equality is per class
        assert not issubclass(Coloring, ColoringPattern)
        assert not issubclass(ColoringPattern, Coloring)
        for k, l, n, cols in ((3, 2, 4, (0, 1, 1, 0)), (2, 3, 1, ()),
                              (2, 3, 3, (2, 0, 1))):
            c, p = Coloring(k, l, n, cols), ColoringPattern(k, l, n, cols)
            assert c != p and p != c
            assert c == Coloring(k, l, n, cols)
            assert p == ColoringPattern(k, l, n, cols)


class TestRestriction:
    def test_definition_oracle(self):
        rng = Lcg(0)
        for _ in range(50):
            n = rng.randint(3, 8)
            c = random_coloring(rng, 3, 2, n)
            vs = sorted(random_subset(rng, n))
            r = restrict_normalize(c, vs)
            assert r.n == len(vs)
            for e in r.edges():
                assert r.color(e) == c.color(tuple(vs[v - 1] for v in e))
        for c in wild_cases(rng, 60):
            vs = sorted(random_subset(rng, c.n))
            r = restrict_normalize(c, reversed(vs))
            assert type(r) is ColoringPattern
            assert (r.k, r.l, r.n) == (c.k, c.l, len(vs))
            assert len(r.colors) == len(list(r.edges()))
            for e in r.edges():
                assert r.color(e) == c.color(tuple(vs[v - 1] for v in e))

    def test_small_subset_is_empty(self):
        r = restrict_normalize(Coloring.constant(3, 2, 5, 1), (2, 4))
        assert r.n == 2 and r.empty

    def test_rejects_outside_subset(self):
        with pytest.raises(ValueError):
            restrict_normalize(Coloring.constant(3, 2, 5, 0), (3, 4, 6))

    def test_full_subset_is_identity(self):
        c = Coloring.from_map(3, 2, 5, {(1, 2, 5): 1, (2, 3, 4): 1})
        assert restrict_normalize(c, range(1, 6)) == c


class TestSymmetries:
    def test_reverse_involution(self):
        rng = Lcg(7)
        for _ in range(25):
            c = random_coloring(rng, 3, 3, rng.randint(3, 7))
            assert reverse(reverse(c)) == c

    def test_reverse_definition(self):
        c = Coloring.from_map(3, 2, 5, {(1, 2, 3): 1})
        assert reverse(c).color((3, 4, 5)) == 1
        assert reverse(c).color((1, 2, 3)) == 0
        rng = Lcg(11)
        for c in wild_cases(rng, 40):
            r = reverse(c)
            assert type(r) is ColoringPattern and reverse(r) == c
            for e in r.edges():
                assert r.color(e) == c.color(tuple(c.n - x + 1 for x in e))

    def test_relabel_matches_reverse(self):
        rng = Lcg(3)
        for _ in range(10):
            n = rng.randint(3, 7)
            c = random_coloring(rng, 3, 2, n)
            assert relabel(c, {v: n - v + 1 for v in range(1, n + 1)}) == reverse(c)
        for c in wild_cases(rng, 40):
            lab = random_bijection(rng, c.n)
            r = relabel(c, lab)
            assert type(r) is ColoringPattern and (r.k, r.l, r.n) == \
                (c.k, c.l, c.n)
            # the result colors the image of each edge as c colors the edge
            for e in c.edges():
                assert r.color(tuple(lab[x] for x in e)) == c.color(e)
            back = {w: v for v, w in lab.items()}
            assert relabel(r, back) == c

    def test_relabel_rejects_non_bijection(self):
        c = Coloring.constant(3, 2, 4, 0)
        # a repeated image, a missed vertex, and an image outside [n]
        for lab in ({1: 1, 2: 1, 3: 3, 4: 4}, {1: 1}, {1: 2, 2: 1, 3: 3},
                    {1: 1, 2: 2, 3: 3, 4: 5}):
            with pytest.raises(ValueError, match="not a bijection"):
                relabel(c, lab)


class TestHomogeneity:
    def test_constant_all_subsets(self):
        c = Coloring.constant(3, 2, 6, 1)
        h = homogeneity(c, (1, 3, 4, 6))
        assert h.homogeneous and h.color == 1

    def test_vacuous_below_k(self):
        h = homogeneity(Coloring.constant(3, 2, 6, 1), (2, 5))
        assert h.homogeneous and h.color is None

    def test_witness_pair(self):
        c = Coloring.from_map(3, 2, 5, {(1, 2, 4): 1})
        h = homogeneity(c, (1, 2, 4, 5))
        assert not h.homogeneous
        e1, e2 = h.witness
        assert c.color(e1) != c.color(e2)


def random_small(rng, big, m):
    """A small side on m vertices: a restriction of big, possibly with
    wildcards or changed colours, or an unrelated random coloring."""
    kind = draw(rng, 0, 2)
    if kind == 0:
        return random_coloring(rng, big.k, big.l, m)
    vs = rng.choice(list(combinations(range(1, big.n + 1), m)))
    base = restrict_normalize(big, vs)
    if kind == 1:
        return base
    cols = []
    for c in base.colors:
        pick = draw(rng, 0, 5)
        cols.append(None if pick < 2
                    else draw(rng, 0, big.l - 1) if pick == 2 else c)
    return ColoringPattern(big.k, big.l, m, tuple(cols))


def reference_contains(small, big):
    """The search as it stood before rows were keyed by itemgetter and
    based by _rank_table: one tuple and one edge_index per row build."""
    if small.k != big.k or small.l != big.l:
        raise IncompatibleColoringsError(
            f"(k,l)=({small.k},{small.l}) vs ({big.k},{big.l})")
    m, n, k, l = small.n, big.n, small.k, small.l
    if m > n:
        return None
    by_max = [[] for _ in range(m + 1)]
    for e, col in zip(small.edges(), small.colors):
        if col is not None:
            by_max[e[-1]].append((e[:-1], col))
    colors = big.colors
    rows = {}
    images = [0] * (m + 1)
    left = [0] * (m + 1)
    i, lo = 1, 1
    while True:
        cand = (1 << (n - m + i + 1)) - (1 << lo)
        for pre, want in by_max[i]:
            p = tuple(map(images.__getitem__, pre))
            row = rows.get(p)
            if row is None:
                row = [0] * l
                bit = 1 << (p[-1] + 1)
                base = edge_index(p + (p[-1] + 1,), n, k)
                for c in colors[base:base + n - p[-1]]:
                    row[c] |= bit
                    bit <<= 1
                rows[p] = row
            cand &= row[want]
            if not cand:
                break
        while not cand:
            i -= 1
            if i == 0:
                return None
            cand = left[i]
        low = cand & -cand
        left[i] = cand ^ low
        images[i] = low.bit_length() - 1
        if i == m:
            return tuple(images[1:])
        i, lo = i + 1, images[i] + 1


def planted(rng, big, m):
    """big restricted to m distinct random vertices."""
    vs = set()
    while len(vs) < m:
        vs.add(rng.randint(1, big.n))
    return restrict_normalize(big, vs)


class TestContainsParity:
    """contains against reference_contains: the same witness, not just
    some witness, at the host sizes the CLI sees."""

    def check(self, small, big, seen):
        got = contains(small, big)
        assert got == reference_contains(small, big), (small, big)
        seen["found" if got else "absent"] += 1

    def test_k3_hosts_20_to_40(self):
        rng = Lcg(20)
        seen = {"found": 0, "absent": 0}
        for n in range(20, 41, 2):
            big = random_coloring(rng, 3, 2, n)
            self.check(planted(rng, big, rng.randint(6, 8)), big, seen)
            # 56 random edges: absent from a random host but for ~1e-9
            self.check(random_coloring(rng, 3, 2, 8), big, seen)
        assert seen == {"found": 11, "absent": 11}, seen

    def test_k2_scalar_row_keys(self):
        rng = Lcg(2)
        seen = {"found": 0, "absent": 0}
        for n in (12, 20, 30):
            for l, m in ((2, 10), (3, 7)):
                big = random_coloring(rng, 2, l, n)
                self.check(planted(rng, big, rng.randint(4, m)), big, seen)
                self.check(random_coloring(rng, 2, l, m), big, seen)
        assert seen == {"found": 6, "absent": 6}, seen

    def test_k4_l3_patterns_small_and_full(self):
        rng = Lcg(4)
        seen = {"found": 0, "absent": 0}
        kinds = {"pattern": 0, "m<k": 0, "m==n": 0}
        for n in (4, 6, 8, 10, 12):
            big = random_coloring(rng, 4, 3, n)
            for m in sorted({2, 3, rng.randint(4, n), n}):
                for _ in range(3):
                    small = random_small(rng, big, m)
                    self.check(small, big, seen)
                    kinds["pattern"] += isinstance(small, ColoringPattern)
                    kinds["m<k"] += m < 4
                    kinds["m==n"] += m == n
        assert min(seen.values()) >= 10 and min(kinds.values()) >= 10, (
            seen, kinds)

    def test_k5_three_vertex_heads(self):
        rng = Lcg(5)
        seen = {"found": 0, "absent": 0}
        for n in (5, 7, 9, 11):
            big = random_coloring(rng, 5, 2, n)
            for m in sorted({1, 4, 5, rng.randint(5, n), n}):
                for _ in range(4):
                    self.check(random_small(rng, big, m), big, seen)
        assert min(seen.values()) >= 10, seen

    def test_colours_above_a_byte(self):
        rng = Lcg(300)
        seen = {"found": 0, "absent": 0}
        for k, n in ((2, 24), (3, 12)):
            for _ in range(6):
                big = random_coloring(rng, k, 300, n)
                assert max(big.colors) > 255
                for m in (k + 1, k + 3, n):
                    self.check(random_small(rng, big, m), big, seen)
        assert min(seen.values()) >= 10, seen

    def test_heads_without_specified_edges(self):
        """Every edge on some heads left open: those heads get no slot,
        and the edges of the other heads still decide the witness."""
        rng = Lcg(7)
        seen = {"found": 0, "absent": 0}
        for k, n in ((3, 14), (4, 10)):
            for _ in range(10):
                big = random_coloring(rng, k, 2, n)
                m = rng.randint(k + 1, k + 3)
                base = restrict_normalize(big, range(n - m + 1, n + 1))
                # heads of the form (1, ...) or ending at vertex 3 are open
                open_heads = [e[:k - 2] for e in base.edges()
                              if e[0] == 1 or e[k - 3] == 3]
                assert open_heads
                cols = [None if e[:k - 2] in open_heads
                        else (c if draw(rng, 0, 3) else 1 - c)
                        for e, c in zip(base.edges(), base.colors)]
                self.check(ColoringPattern(k, 2, m, tuple(cols)), big, seen)
        assert min(seen.values()) >= 3, seen

    def test_node_dies_on_hoisted_edge(self):
        """The edge (1, 3) is ANDed at the node that places vertex 2."""
        # only (4, 5) has colour 1, so no image of 1 in the window 1..3
        # has a colour-1 edge to a later vertex: each node dies there
        big = Coloring.from_map(2, 2, 5, {(4, 5): 1})
        pat = ColoringPattern.from_map(2, 2, 3, {(1, 3): 1})
        assert contains(pat, big) is None
        # (1, 3) alone: the image of 2 must stay below 3
        big = Coloring.from_map(2, 2, 5, {(1, 3): 1})
        assert contains(pat, big) == (1, 2, 3)
        tight = ColoringPattern.from_map(2, 2, 4, {(1, 4): 1, (2, 3): 0})
        for hosts in range(40):
            rng = Lcg(hosts)
            big = random_coloring(rng, 2, 2, 8)
            assert contains(tight, big) == reference_contains(tight, big) \
                == contains_oracle(tight, big)

    def test_early_witness_reads_little_of_the_host(self):
        """Rows and head lists are built on first use, so a witness at
        (1, 2, 3) costs far less memory than the 280,840-edge host."""
        rng = Lcg(120)
        big = random_coloring(rng, 3, 2, 120)
        small = restrict_normalize(big, (1, 2, 3))
        tracemalloc.start()
        try:
            got = contains(small, big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (1, 2, 3)
        assert peak < 64 * 1024, peak


class TestContainment:
    def test_oracle_agreement_and_lex_first(self):
        rng = Lcg(11)
        seen = {"found": 0, "absent": 0, "pattern": 0, "edgeless": 0,
                "m==n": 0}
        for k in (2, 3, 4, 5):
            for l in (2, 3):
                for n in list(range(1, 10)) * 3:
                    for m in sorted({1, max(1, k - 1), rng.randint(1, n), n}):
                        if m > n:
                            continue
                        big = random_coloring(rng, k, l, n)
                        small = random_small(rng, big, m)
                        got = contains(small, big)
                        assert got == contains_oracle(small, big), (small, big)
                        if got is None:
                            seen["absent"] += 1
                        else:
                            seen["found"] += 1
                            assert injection_witnesses(small, big, got)
                        seen["pattern"] += isinstance(small, ColoringPattern)
                        seen["edgeless"] += m < k
                        seen["m==n"] += m == n
        assert min(seen.values()) >= 60, seen

    def test_deep_search_does_not_recurse(self):
        c = Coloring.constant(2, 2, 400, 0)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            got = contains(c, c)
        finally:
            sys.setrecursionlimit(limit)
        assert got == tuple(range(1, 401))

    def test_empty_small_always_embeds(self):
        small = Coloring(3, 2, 2, ())
        big = Coloring.constant(3, 2, 5, 0)
        assert contains(small, big) == (1, 2)

    def test_too_large_small(self):
        assert contains(Coloring.constant(3, 2, 6, 0),
                        Coloring.constant(3, 2, 5, 0)) is None

    def test_pattern_ignores_wildcards(self):
        rng = Lcg(5)
        for _ in range(40):
            big = random_coloring(rng, 3, 2, 6)
            pat = ColoringPattern.from_map(
                3, 2, 4, {(1, 2, 4): draw(rng, 0, 1)})
            assert contains(pat, big) == contains_oracle(pat, big)

    def test_incompatible_operands(self):
        with pytest.raises(IncompatibleColoringsError):
            contains(Coloring.constant(2, 2, 3, 0), Coloring.constant(3, 2, 4, 0))
        with pytest.raises(IncompatibleColoringsError):
            contains(Coloring.constant(3, 3, 3, 0), Coloring.constant(3, 2, 4, 0))

    def test_witness_checker_rejects_bad_injections(self):
        big = Coloring.constant(3, 2, 5, 0)
        small = Coloring.constant(3, 2, 3, 0)
        assert injection_witnesses(small, big, (1, 2, 4))
        assert not injection_witnesses(small, big, (2, 1, 4))
        assert not injection_witnesses(small, big, (1, 2))
        assert not injection_witnesses(small, big, (1, 2, 6))
        # the right shape, but one image edge has the other colour
        big = Coloring.from_map(3, 2, 5, {(1, 2, 4): 1})
        assert not injection_witnesses(small, big, (1, 2, 4))
        assert injection_witnesses(small, big, (1, 2, 5))


class TestTextFormat:
    def test_bits_round_trip(self):
        rng = Lcg(2)
        for _ in range(20):
            c = random_coloring(rng, 3, 2, rng.randint(1, 6))
            assert coloring_from_text(coloring_to_text(c)) == c

    def test_edge_lines_round_trip(self):
        rng = Lcg(4)
        for _ in range(20):
            c = random_coloring(rng, 3, 3, rng.randint(3, 5))
            text = coloring_to_text(c)
            assert "bits" not in text
            assert coloring_from_text(text) == c

    def test_known_form(self):
        c = Coloring.from_map(3, 2, 4, {(2, 3, 4): 1})
        assert coloring_to_text(c) == "coloring k=3 l=2 n=4\nbits 0001\n"
        assert coloring_from_text("coloring n=4 l=2 k=3\nbits 0001\n") == c
        c3 = Coloring.from_function(3, 3, 4, lambda e: sum(e) % 3)
        assert coloring_to_text(c3) == ("coloring k=3 l=3 n=4\n"
                                        "1 2 3 0\n1 2 4 1\n"
                                        "1 3 4 2\n2 3 4 0\n")

    def test_golden_bits_file(self):
        golden = (FIXTURES / "parity6.col").read_bytes()
        parity = Coloring.from_function(3, 2, 6, lambda e: e[0] % 2)
        assert coloring_from_text(golden.decode()) == parity
        assert coloring_to_text(parity).encode() == golden

    @pytest.mark.parametrize("text,message", [
        ("coloring k=3 l=2 n=4\nbits 0\u066101\n", "expected 4 bits"),
        ("coloring k=3 l=2 n=4\nbits 000\uff11\n", "expected 4 bits"),
        ("coloring k=3 l=2 n=4\nbits 001\n", "expected 4 bits"),
        ("coloring k=3 l=2 n=4\nbits 00010\n", "expected 4 bits"),
        ("coloring k=3 l=2 n=40\nbits 01\n", "expected C(40,3) bits"),
        ("coloring k=3 l=3 n=4\nbits 0001\n", "bits form only valid for l=2"),
        ("coloring k=3 l=3 n=3\n1 2 3 3\n", "color 3 outside 0..2"),
        ("coloring k=3 l=3 n=3\n1 2 3 -1\n", "color -1 outside 0..2"),
        ("coloring k=3 l=3 n=3\n1 2 3 x\n",
         "invalid literal for int() with base 10: 'x'"),
    ])
    def test_boundary_messages(self, text, message):
        with pytest.raises(ValueError) as err:
            coloring_from_text(text)
        assert str(err.value) == message

    def test_bulk_bits_writer_matches_join(self):
        rng = Lcg(9)
        for k, n, _ in product((2, 3, 4), range(1, 10), range(2)):
            c = random_coloring(rng, k, 2, n)
            old = [f"coloring k={k} l=2 n={n}"]
            if not c.empty:
                old.append("bits " + "".join(str(b) for b in c.colors))
            assert coloring_to_text(c) == "\n".join(old) + "\n"
            assert coloring_from_text(coloring_to_text(c)) == c

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            coloring_from_text("coloring k=3 l=2 n=4\nbits 001\n")
        with pytest.raises(ValueError):
            coloring_from_text("nonsense\n")
        with pytest.raises(ValueError):
            coloring_from_text("coloring k=3 l=2 n=4\nbits 0001\nbits 0001\n")
        with pytest.raises(ValueError):
            coloring_from_text(
                "coloring k=3 l=3 n=3\n1 2 3 1\n1 2 3 2\n")
        for head in ("coloring k=3 l=2 n=4 n=5", "coloring k=3 k=3 l=2 n=4",
                     "coloring n=4 l=2 k=3 l=2"):
            with pytest.raises(ValueError, match="repeated field"):
                coloring_from_text(head + "\nbits 0001\n")
        with pytest.raises(ValueError, match="malformed field"):
            coloring_from_text("coloring k=3 l=2 n\nbits 0001\n")
        for text in ("coloring k=3 l=2 n=4\nbits\n",
                     "coloring k=3 l=2 n=4\nbitsy 0000\n",
                     "coloring k=3 l=2 n=4\nbits 00 01\n",
                     "coloring k=3 l=3 n=4\n1 2 3 0\n1 2 4 0\n1 3 4 0\n",
                     # fails before allocating C(n, k) slots
                     "coloring k=3 l=3 n=1000000\n1 2 3 0\n"):
            with pytest.raises(ValueError):
                coloring_from_text(text)
