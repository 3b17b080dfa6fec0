"""Shape classifiers: nuclear splits, tameness, rich/simple/wealthy recognition."""

from itertools import combinations
from math import comb

import pytest

from hypergrowth import structure
from hypergrowth.constructions import (make_rich, make_wealthy,
                                       slice_to_pair_coloring)
from hypergrowth.core import (Coloring, ColoringPattern, _rank_table,
                              edge_index, homogeneity, restrict_normalize,
                              reverse)
from hypergrowth.matrices import Metrics3, StarMatrix3, metrics3
from hypergrowth.rng import Lcg
from hypergrowth.structure import (WEALTHY_FAMILIES, SizeMismatchError,
                                   SimplicityViolation, TameReport,
                                   TameViolation, WealthyVariant,
                                   _crossing_sizes, count_p_tame,
                                   crossing_matrix,
                                   is_c_simple, is_p_tame, is_r_rich,
                                   is_wealthy, nuclear_decomposition,
                                   pair_wealthy_type2, rich_deletions,
                                   rich_window_edges, variant_from_text,
                                   variant_to_text,
                                   w41_vertices_from_nuclear,
                                   wealthy_assignment, wealthy_size,
                                   wealthy_variants)


def draw(rng, lo, hi):
    """An integer in [lo, hi] from the high bits of the next LCG draw.

    Lcg.randint reduces the raw state modulo the span, and the low bits
    of this LCG have short periods: randint(0, 1) alternates.
    """
    return lo + (rng.next_u64() * (hi - lo + 1) >> 64)


def random_coloring(rng, k, l, n):
    edges = list(combinations(range(1, n + 1), k))
    return Coloring(k, l, n, tuple(draw(rng, 0, l - 1) for _ in edges))


def blocky_coloring(rng, k, l, n):
    """Homogeneous blocks, random crossing edges and a few flips."""
    block = [0] * (n + 1)
    for v in range(2, n + 1):
        block[v] = block[v - 1] + (draw(rng, 0, 3) == 0)
    tint = [draw(rng, 0, l - 1) for _ in range(n + 1)]
    cols = [tint[block[e[0]]] if block[e[0]] == block[e[-1]]
            else draw(rng, 0, l - 1)
            for e in combinations(range(1, n + 1), k)]
    for _ in range(draw(rng, 0, 2)):
        if cols:
            cols[draw(rng, 0, len(cols) - 1)] = draw(rng, 0, l - 1)
    return Coloring(k, l, n, tuple(cols))


# the rich window shapes (f, g, h) whose members cli-mix classifies
RICH_SHAPES = ((0, 1, 2), (1, 1, 1), (2, 1, 0), (0, 2, 1), (1, 2, 0))


def parity_coloring(n):
    """Color every triple by the parity of its least vertex."""
    return Coloring.from_function(3, 2, n, lambda e: e[0] % 2)


class TestNuclearDecomposition:
    def test_constant_is_one_interval(self):
        nd = nuclear_decomposition(Coloring.constant(3, 2, 7, 1))
        assert nd.intervals == ((1, 7),)
        assert nd.colors == (1,)
        assert nd.length == 1

    def test_short_tail_has_no_color(self):
        c = Coloring.from_map(3, 2, 10,
                              {(2, 3, 4): 1, (5, 6, 7): 1, (8, 9, 10): 1})
        nd = nuclear_decomposition(c)
        assert nd.intervals == ((1, 3), (4, 6), (7, 9), (10, 10))
        assert nd.colors == (0, 0, 0, None)

    def test_alternating_blocks(self):
        nd = nuclear_decomposition(parity_coloring(12))
        assert nd.intervals == ((1, 3), (4, 6), (7, 9), (10, 12))
        assert nd.colors == (1, 0, 1, 0)

    def test_partition_and_maximality(self):
        rng = Lcg(2024)
        for _ in range(40):
            n = rng.randint(3, 11)
            c = random_coloring(rng, 3, 2, n)
            nd = nuclear_decomposition(c)
            # contiguous cover of [n]
            assert nd.intervals[0][0] == 1
            assert nd.intervals[-1][1] == n
            for (a, b), (a2, _) in zip(nd.intervals, nd.intervals[1:]):
                assert a2 == b + 1
            for (a, b), col in zip(nd.intervals, nd.colors):
                hom = homogeneity(c, range(a, b + 1))
                assert hom.homogeneous
                assert hom.color == col
            # greedy means every part but the last refuses one more vertex
            for (a, b) in nd.intervals[:-1]:
                assert not homogeneity(c, range(a, b + 2)).homogeneous

    def test_internal_intervals_span_an_edge(self):
        rng = Lcg(55)
        for _ in range(40):
            n = rng.randint(3, 11)
            nd = nuclear_decomposition(random_coloring(rng, 3, 2, n))
            for (a, b), col in zip(nd.intervals[:-1], nd.colors[:-1]):
                assert b - a + 1 >= 3
                assert col is not None


    def test_matches_color_oracle(self):
        def oracle(c):
            # the greedy scan reading one edge at a time through c.color
            parts, cols, start = [], [], 1
            while start <= c.n:
                end, col = start, None
                while end < c.n:
                    seen = {c.color(rest + (end + 1,))
                            for rest in combinations(range(start, end + 1),
                                                     c.k - 1)}
                    if col is not None:
                        seen.add(col)
                    if len(seen) > 1:
                        break
                    col = seen.pop() if seen else None
                    end += 1
                parts.append((start, end))
                cols.append(col)
                start = end + 1
            return tuple(parts), tuple(cols)

        rng = Lcg(909)
        cases = []
        for k in (2, 3, 4):
            for l in (2, 3):
                for n in range(1, 13):
                    cases.append(Coloring.constant(k, l, n, l - 1))
                    cases.append(Coloring.from_function(
                        k, l, n, lambda e, l=l: e[0] % l))
                    cases.append(random_coloring(rng, k, l, n))
                    cases += [blocky_coloring(rng, k, l, n)
                              for _ in range(4)]
        long_parts = 0
        for c in cases:
            nd = nuclear_decomposition(c)
            assert (nd.intervals, nd.colors) == oracle(c), c
            long_parts += sum(b - a >= c.k for a, b in nd.intervals)
        assert len(cases) == 504 and long_parts > 150

class TestCrossingMatrix:
    def test_entries_and_stars(self):
        c = Coloring.from_map(3, 2, 6, {(1, 2, 3): 1, (2, 3, 4): 1})
        m = crossing_matrix(c, (1, 2), (2, 3), (3, 4))
        assert m.to_text() == ("matrix3 r=2 s=2 t=2\n"
                               "1*\n**\n00\n*1\n")

    def test_stars_exactly_at_repeats(self):
        rng = Lcg(99)
        c = random_coloring(rng, 3, 2, 8)
        xs, ys, zs = (1, 3, 5), (2, 3, 6), (5, 6, 7)
        m = crossing_matrix(c, xs, ys, zs)
        for i, x in enumerate(xs, start=1):
            for j, y in enumerate(ys, start=1):
                for kk, z in enumerate(zs, start=1):
                    if len({x, y, z}) == 3:
                        assert m.at(i, j, kk) == c.color((x, y, z))
                    else:
                        assert m.at(i, j, kk) is None

    def test_matches_color_oracle(self):
        def oracle(c, x, y, z):
            return tuple(tuple(tuple(c.color((a, b, d))
                                     if len({a, b, d}) == 3 else None
                                     for d in sorted(set(z)))
                               for b in sorted(set(y)))
                         for a in sorted(set(x)))

        rng = Lcg(2026)
        cases = []
        for case in range(420):
            n = 3 + case % 14
            c = random_coloring(rng, 3, 2 + case % 2, n)
            if case % 4 == 1:  # l = 3 with colours 0 and 1 only
                c = Coloring(3, 3, n, random_coloring(rng, 3, 2, n).colors)
            shape = case % 3
            if shape == 0:    # singletons
                sets = [(rng.randint(1, n),) for _ in range(3)]
            elif shape == 1:  # repeats within a set, overlaps across sets
                sets = [tuple(rng.randint(1, n)
                              for _ in range(rng.randint(1, 6)))
                        for _ in range(3)]
            else:             # one interval used twice, as tameness does
                a = rng.randint(1, n)
                iv = tuple(range(a, rng.randint(a, n) + 1))
                other = tuple(range(rng.randint(1, n), n + 1))
                sets = [iv, iv, other] if rng.bit() else [other, iv, iv]
            cases.append((c, sets))
        c3 = random_coloring(rng, 3, 3, 3)
        for sets in ([(1,), (2,), (3,)], [(3,), (1,), (2,)], [(1, 2, 3)] * 3,
                     [(2,), (2,), (2,)], [(1, 3), (2,), (1, 2, 3)]):
            cases.append((c3, sets))
        stars = colored = rejected = 0
        for c, sets in cases:
            want = oracle(c, *sets)
            cells = [x for plane in want for shaft in plane for x in shaft]
            if 2 in cells:  # matrix entries are 0, 1 or a star
                with pytest.raises(ValueError):
                    crossing_matrix(c, *sets)
                rejected += 1
                continue
            assert crossing_matrix(c, *sets).entries == want, (c, sets)
            stars += cells.count(None)
            colored += len(cells) - cells.count(None)
        assert stars > 2000 and colored > 10000 and rejected > 40

    def test_base_sets_are_sorted_and_deduplicated(self):
        rng = Lcg(7)
        c = random_coloring(rng, 3, 2, 6)
        a = crossing_matrix(c, (2, 1, 2), (3, 4), (5, 6))
        b = crossing_matrix(c, (1, 2), (3, 4), (5, 6))
        assert a.entries == b.entries

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            crossing_matrix(Coloring.constant(4, 2, 6, 0), (1,), (2,), (3,))
        c = Coloring.constant(3, 2, 6, 0)
        with pytest.raises(ValueError):
            crossing_matrix(c, (), (1,), (2,))
        with pytest.raises(ValueError):
            crossing_matrix(c, (0, 1), (2,), (3,))
        with pytest.raises(ValueError):
            crossing_matrix(c, (1,), (2,), (6, 7))


class TestTameness:
    def test_constant_is_tame(self):
        rep = is_p_tame(Coloring.constant(3, 2, 9, 0), 3)
        assert rep.tame
        assert rep.conditions == (True,) * 5
        assert rep.witness is None

    def test_too_many_intervals(self):
        c = Coloring.from_map(3, 2, 10,
                              {(2, 3, 4): 1, (5, 6, 7): 1, (8, 9, 10): 1})
        rep = is_p_tame(c, 3)
        assert rep.conditions == (False, True, True, True, True)
        assert not rep.tame
        w = rep.witness
        assert (w.condition, w.intervals, w.metric, w.value) == \
            (1, (), "length", 4)

    def test_triple_alternation_violation(self):
        c = Coloring.from_map(3, 2, 10, {(2, 3, 5): 1, (6, 7, 8): 1,
                                         (2, 6, 9): 1, (4, 6, 9): 1})
        assert nuclear_decomposition(c).intervals == ((1, 4), (5, 7), (8, 10))
        rep = is_p_tame(c, 3)
        assert rep.conditions == (True, False, True, True, True)
        w = rep.witness
        assert (w.condition, w.intervals, w.metric, w.value) == \
            (2, (1, 2, 3), "al", 4)

    def test_doubled_pair_violation(self):
        # alternating colors along one interval against a fixed pair
        c = Coloring.from_map(3, 2, 9, {(i, 5, 8): i % 2 for i in (1, 2, 3, 4)})
        assert nuclear_decomposition(c).intervals == ((1, 7), (8, 9))
        rep = is_p_tame(c, 3)
        assert rep.conditions == (True, True, True, False, False)
        w = rep.witness
        assert (w.condition, w.intervals, w.metric, w.value) == \
            (4, (1, 1, 2), "al", 4)

    def test_evaluates_all_conditions(self):
        # the report carries every failing condition, not just the first
        c = Coloring.from_map(3, 2, 9, {(i, 5, 8): i % 2 for i in (1, 2, 3, 4)})
        rep = is_p_tame(c, 3)
        assert rep.conditions[3] is False and rep.conditions[4] is False
        assert rep.witness.condition == 4

    def test_higher_threshold_recovers(self):
        c = Coloring.from_map(3, 2, 9, {(i, 5, 8): i % 2 for i in (1, 2, 3, 4)})
        assert is_p_tame(c, 5).tame

    def test_input_validation(self):
        with pytest.raises(ValueError):
            is_p_tame(Coloring.constant(3, 2, 6, 0), 2)
        with pytest.raises(ValueError):
            is_p_tame(Coloring.constant(2, 2, 6, 0), 3)
        with pytest.raises(ValueError):
            is_p_tame(Coloring.constant(3, 3, 6, 0), 3)

    def test_pair_matrices_match_direct_metrics(self):
        rng = Lcg(321)
        for _ in range(10):
            c = random_coloring(rng, 3, 2, rng.randint(6, 9))
            nd = nuclear_decomposition(c)
            if nd.length < 2:
                continue
            ivs = [tuple(range(a, b + 1)) for a, b in nd.intervals]
            rep = is_p_tame(c, 3)
            ok = True
            for u, v in combinations(range(nd.length), 2):
                for sets in ((ivs[u], ivs[u], ivs[v]),
                             (ivs[u], ivs[v], ivs[v])):
                    if metrics3(crossing_matrix(c, *sets)).al > 3:
                        ok = False
            assert rep.conditions[3] == ok


def reference_metrics3(m):
    """metrics3 as it read every cell through m.at."""
    def alternations(seq):
        return [i + 1 for i in range(len(seq) - 1)
                if seq[i] is not None and seq[i + 1] is not None
                and seq[i] != seq[i + 1]]

    r, s, t = m.dims
    best = 0
    rset, cset, sset = set(), set(), set()
    for j in range(1, s + 1):
        for k in range(1, t + 1):
            alt = alternations([m.at(i, j, k) for i in range(1, r + 1)])
            best = max(best, len(alt))
            rset.update(alt)
    for i in range(1, r + 1):
        for k in range(1, t + 1):
            alt = alternations([m.at(i, j, k) for j in range(1, s + 1)])
            best = max(best, len(alt))
            cset.update(alt)
    for i in range(1, r + 1):
        for j in range(1, s + 1):
            alt = alternations([m.at(i, j, k) for k in range(1, t + 1)])
            best = max(best, len(alt))
            sset.update(alt)
    return Metrics3(best + 1, tuple(sorted(rset)), tuple(sorted(cset)),
                    tuple(sorted(sset)))


def reference_tame_reports(c, ps):
    """is_p_tame for each p, from c.color and reference_metrics3."""
    def metrics(x, y, z):
        entries = tuple(tuple(tuple(c.color((a, b, d))
                                    if len({a, b, d}) == 3 else None
                                    for d in z) for b in y) for a in x)
        return reference_metrics3(
            StarMatrix3(len(x), len(y), len(z), entries))

    ivs = [tuple(range(a, b + 1))
           for a, b in nuclear_decomposition(c).intervals]
    s = len(ivs)
    triples = [((u + 1, v + 1, w + 1), metrics(ivs[u], ivs[v], ivs[w]))
               for u, v, w in combinations(range(s), 3)]
    pairs = []
    for u, v in combinations(range(s), 2):
        pairs.append(((u + 1, u + 1, v + 1), metrics(ivs[u], ivs[u], ivs[v])))
        pairs.append(((u + 1, v + 1, v + 1), metrics(ivs[u], ivs[v], ivs[v])))
    reports = []
    for p in ps:
        found = [[] for _ in range(5)]
        if s > p:
            found[0].append(TameViolation(1, (), "length", s))
        for cond, group in ((2, triples), (4, pairs)):
            for idx, m in group:
                if m.al > p:
                    found[cond - 1].append(TameViolation(cond, idx, "al", m.al))
            for idx, m in group:
                for metric, line_set in (("rows", m.r_set), ("cols", m.c_set)):
                    if len(line_set) > p:
                        found[cond].append(TameViolation(
                            cond + 1, idx, metric, len(line_set)))
        witness = next((f[0] for f in found if f), None)
        reports.append(TameReport(p, tuple(not f for f in found), witness))
    return reports


class TestTamenessParity:
    def test_metrics3_matches_cell_reads(self):
        rng = Lcg(5150)
        alternating = 0
        for _ in range(1500):
            dims = tuple(rng.randint(1, 5) for _ in range(3))
            stars = rng.randint(0, 4)
            entries = tuple(tuple(tuple(
                None if draw(rng, 0, 9) < stars else rng.bit()
                for _ in range(dims[2])) for _ in range(dims[1]))
                for _ in range(dims[0]))
            m = StarMatrix3(*dims, entries)
            want = reference_metrics3(m)
            assert metrics3(m) == want, entries
            alternating += want.al > 1
        assert alternating > 1000

    def test_reports_match_color_oracle(self):
        cases = [make_wealthy(fam, r) for fam in WEALTHY_FAMILIES
                 for r in (3, 6, 9)]
        cases += [make_rich(3, r, *shape) for shape in RICH_SHAPES
                  for r in (4, 8)]
        rng = Lcg(1717)
        for i in range(300):
            n = rng.randint(3, 16)
            cases.append(random_coloring(rng, 3, 2, n) if i % 2
                         else blocky_coloring(rng, 3, 2, n))
        assert len(cases) == 337
        tame = witnessed = 0
        for c in cases:
            got = [is_p_tame(c, 3), is_p_tame(c, 5)]
            assert got == reference_tame_reports(c, (3, 5)), c
            tame += sum(rep.tame for rep in got)
            witnessed += sum(rep.witness is not None
                             and rep.witness.condition > 1 for rep in got)
        assert tame > 50 and witnessed > 50


class TestTameReader:
    """is_p_tame and the tame census read the metrics of each crossing
    matrix from colour ranks; the public crossing_matrix and metrics3 are
    the reference.  crossing_matrix reads each entry with Coloring.color,
    so the reference shares no rank arithmetic with the reader."""

    @staticmethod
    def public(c, sets):
        m = metrics3(crossing_matrix(c, *sets))
        return m.al, len(m.r_set), len(m.c_set)

    @staticmethod
    def read(c, sets):
        cb = (bytes(2 if x is None else x for x in c.colors)
              if isinstance(c, ColoringPattern) else bytes(c.colors))
        return _crossing_sizes(cb, _rank_table(c.n, 3), *sets)

    def test_matches_public_metrics(self):
        rng = Lcg(4242)
        seen = {"shapes": set(), "single": 0, "flat": 0, "wild": 0}
        for case in range(500):
            n = draw(rng, 3, 14)
            c = (random_coloring(rng, 3, 2, n) if case % 3
                 else blocky_coloring(rng, 3, 2, n))
            if case % 5 == 0:  # a pattern: unspecified edges are stars
                c = ColoringPattern(3, 2, n, tuple(
                    None if draw(rng, 0, 3) == 0 else x for x in c.colors))
                seen["wild"] += 1
            # consecutive intervals I < J < K, some of one vertex
            a = draw(rng, 1, n - 1)
            ivs = []
            while a <= n and len(ivs) < 3:
                b = a if draw(rng, 0, 3) == 0 else draw(rng, a, n)
                ivs.append(range(a, b + 1))
                a = b + 1
            shapes = []
            if len(ivs) > 1:
                i, j = ivs[:2]
                shapes = [(i, i, j), (i, j, j)]
            if len(ivs) == 3:
                shapes.append(tuple(ivs))
            for sets in shapes:
                got = self.read(c, sets)
                assert got == self.public(c, sets), (c, sets)
                seen["shapes"].add((sets[0] == sets[1], sets[1] == sets[2]))
                seen["single"] += min(map(len, sets)) == 1
                seen["flat"] += got[0] == 1
        assert len(seen["shapes"]) == 3
        assert seen["single"] > 100 and seen["flat"] > 100
        assert seen["wild"] == 100

    def test_line_with_many_alternations(self):
        # colour = parity of the least vertex: the row (y, z) = (n-1, n)
        # alternates between any two consecutive x < n-1
        n = 300
        c = Coloring(3, 2, n, tuple(b"".join(
            bytes([a % 2]) * comb(n - a, 2) for a in range(1, n + 1))))
        head, last = range(1, n), range(n, n + 1)
        for sets in ((head, head, last), (head, last, last)):
            assert self.read(c, sets) == self.public(c, sets)
        assert self.read(c, (head, head, last)) == (n - 2, n - 3, n - 3)

    def test_reports_match_reference_for_p_3_to_6(self):
        cases = [make_wealthy(fam, r) for fam in WEALTHY_FAMILIES
                 for r in (3, 6, 9)]
        cases += [make_rich(3, r, *shape) for shape in RICH_SHAPES
                  for r in (4, 8)]
        rng = Lcg(6262)
        for i in range(60):
            n = draw(rng, 3, 14)
            cases.append(random_coloring(rng, 3, 2, n) if i % 2
                         else blocky_coloring(rng, 3, 2, n))
        cases.append(make_wealthy("W3.3", 6, wildcard=True))
        ps = (3, 4, 5, 6)
        above = 0
        for c in cases:
            got = [is_p_tame(c, p) for p in ps]
            assert got == reference_tame_reports(c, ps), c
            above += sum(rep.witness is not None and rep.witness.condition > 1
                         for rep in got[1:])
        assert above > 20
        # the pattern's stars still leave a violation
        assert is_p_tame(cases[-1], 3).witness == \
            TameViolation(5, (1, 1, 2), "rows", 6)

    def test_no_matrix_objects(self, monkeypatch):
        c = make_wealthy("W4.1", 9)

        def refuse(*args):
            raise AssertionError("a matrix object was built")

        monkeypatch.setattr(StarMatrix3, "__post_init__", refuse)
        monkeypatch.setattr(structure, "crossing_matrix", refuse)
        assert is_p_tame(c, 3) == TameReport(
            3, (False, True, True, True, True),
            TameViolation(1, (), "length", 10))
        assert is_p_tame(c, 10).tame
        structure._tame_split_tables.cache_clear()
        assert count_p_tame(6, 3) == 1031116


class TestRichness:
    def test_window_edges_frozen(self):
        assert rich_window_edges(3, 4, 0, 1, 2) == \
            ((1, 5, 6), (2, 5, 6), (3, 5, 6))
        assert rich_window_edges(3, 4, 1, 1, 1) == \
            ((1, 2, 6), (1, 3, 6), (1, 4, 6))
        assert rich_window_edges(3, 4, 0, 3, 0) == \
            ((1, 2, 3), (2, 3, 4), (3, 4, 5))

    def test_window_edges_validation(self):
        with pytest.raises(ValueError):
            rich_window_edges(3, 4, 1, 1, 2)
        with pytest.raises(ValueError):
            rich_window_edges(3, 4, 2, 0, 1)
        with pytest.raises(ValueError):
            rich_window_edges(3, 2, 0, 3, 0)

    def test_recognizes_sliding_pattern(self):
        c = Coloring.from_map(3, 2, 6, {(3, 5, 6): 1})
        w = is_r_rich(c, 4)
        assert (w.r, w.f, w.g, w.h) == (4, 0, 1, 2)
        assert w.colors == (0, 1)
        assert w.edges == ((1, 5, 6), (2, 5, 6), (3, 5, 6))

    def test_scan_returns_first_shape(self):
        # at r = k several shapes coincide; the (f, g, h)-lex first wins
        c = Coloring.from_map(3, 2, 4, {(2, 3, 4): 1})
        w = is_r_rich(c, 3)
        assert (w.f, w.g, w.h) == (0, 1, 2)

    def test_exact_recovery_with_neutral_filler(self):
        from hypergrowth.constructions import make_rich
        for f in range(3):
            for g in range(1, 4 - f):
                h = 3 - f - g
                c = make_rich(3, 4, f, g, h, a=0, b=1, filler=2, l=3)
                w = is_r_rich(c, 4)
                assert (w.f, w.g, w.h) == (f, g, h)
                assert w.colors == (0, 1)

    def test_wrong_size_or_small_r(self):
        assert is_r_rich(Coloring.constant(3, 2, 5, 0), 4) is None
        assert is_r_rich(Coloring.constant(3, 2, 2, 0), 2) is None

    def test_right_size_without_a_window(self):
        # 2r - k + 1 = 6 vertices, but no window ends in a second colour
        assert is_r_rich(Coloring.constant(3, 2, 6, 0), 4) is None

    def test_deletions_are_distinct(self):
        from hypergrowth.constructions import make_rich
        for r in (4, 5, 6):
            c = make_rich(3, r, 1, 1, 1, a=0, b=1)
            dels = rich_deletions(c, r, 1, 1, 1)
            assert len(dels) == r - 1
            assert len(set(dels)) == r - 1
            assert {d.n for d in dels} == {r}

    def test_deletions_size_check(self):
        with pytest.raises(SizeMismatchError):
            rich_deletions(Coloring.constant(3, 2, 5, 0), 4, 0, 1, 2)


class TestSimplicity:
    def test_small_colorings_pass_vacuously(self):
        assert is_c_simple(Coloring.constant(3, 2, 9, 1), 3) is None

    def test_middle_inhomogeneity(self):
        v = is_c_simple(Coloring.from_map(3, 2, 10, {(4, 5, 6): 1}), 3)
        assert v.condition == "C1"
        assert v.edges == ((4, 5, 6), (4, 5, 7))
        assert v.colors == (1, 0)

    def test_completion_dependence(self):
        v = is_c_simple(Coloring.from_map(3, 2, 14, {(1, 2, 7): 1}), 3)
        assert v.condition == "C2"
        assert v.vertices == (1, 2)
        assert v.pivots == (7, 8)
        assert v.colors == (1, 0)

    def test_boundary_edges_are_unconstrained(self):
        # an edge entirely outside the deep middle cannot violate anything
        assert is_c_simple(Coloring.from_map(3, 2, 14, {(1, 2, 12): 1}), 3) \
            is None

    def test_narrow_boundary_rejected(self):
        with pytest.raises(ValueError):
            is_c_simple(Coloring.constant(3, 2, 9, 0), 2)

    def test_constant_always_simple(self):
        for n in range(1, 16):
            assert is_c_simple(Coloring.constant(3, 2, n, 0), 3) is None


def reference_is_c_simple(c, cpar):
    """is_c_simple as it stood when every read went through c.color."""
    k, n = c.k, c.n
    if cpar < k:
        raise ValueError("boundary width must be at least k")
    if n <= 2 * cpar + k:
        return None
    mid = homogeneity(c, range(cpar + 1, n - cpar + 1))
    if not mid.homogeneous:
        e1, e2 = mid.witness
        return SimplicityViolation("C1", edges=(e1, e2),
                                   colors=(c.color(e1), c.color(e2)))
    boundary = list(range(1, cpar + 1)) + list(range(n - cpar + 1, n + 1))
    wlo, whi = 2 * cpar + 1, n - 2 * cpar
    for v1 in boundary:
        others = [u for u in range(1, n + 1) if u != v1]
        for rest in combinations(others, k - 2):
            vs = (v1,) + rest
            used = set(vs)
            ref_w = ref_col = None
            for w in range(wlo, whi + 1):
                if w in used:
                    continue
                col = c.color(vs + (w,))
                if ref_w is None:
                    ref_w, ref_col = w, col
                elif col != ref_col:
                    return SimplicityViolation("C2", vertices=vs,
                                               pivots=(ref_w, w),
                                               colors=(ref_col, col))
    return None


def reference_homogeneity(c, subset):
    """homogeneity by c.color on every edge: the same verdict and witness."""
    vs = sorted(set(subset))
    if len(vs) < c.k:
        return (True, None, None)
    edges = list(combinations(vs, c.k))
    for e in edges[1:]:
        if c.color(e) != c.color(edges[0]):
            return (False, None, (edges[0], e))
    return (True, c.color(edges[0]), None)


def controlled_coloring(rng, k, l, n, cpar, flip):
    """Constant on the middle [cpar+1, n-cpar]; any other edge is coloured
    by its vertices outside the deep middle, so no completion changes it.

    flip "middle" recolours one edge inside the middle (a C1 witness);
    "completion" one edge with a boundary and a deep-middle vertex (a C2
    witness once the deep middle has two vertices outside the edge).
    """
    deep = range(2 * cpar + 1, n - 2 * cpar + 1)
    table = {}
    edges = list(combinations(range(1, n + 1), k))
    cols = []
    for e in edges:
        if cpar < e[0] and e[-1] <= n - cpar:
            cols.append(0)
        else:
            key = tuple(v for v in e if v not in deep)
            if key not in table:
                table[key] = draw(rng, 0, l - 1)
            cols.append(table[key])
    inside = {"middle": lambda e: cpar < e[0] and e[-1] <= n - cpar,
              "completion": lambda e: (e[0] <= cpar or e[-1] > n - cpar)
              and any(v in deep for v in e)}
    if flip in inside:
        pick = [i for i, e in enumerate(edges) if inside[flip](e)]
        i = pick[draw(rng, 0, len(pick) - 1)]
        cols[i] = (cols[i] + draw(rng, 1, l - 1)) % l
    return Coloring(k, l, n, tuple(cols))


class TestSimplicityParity:
    """is_c_simple and homogeneity read colours by rank; their verdicts,
    witnesses and colours must match the c.color versions exactly."""

    def test_random_k2_to_4(self):
        rng = Lcg(313)
        seen = {"C1": 0, "C2": 0, None: 0}
        for _ in range(120):
            k = draw(rng, 2, 4)
            l = draw(rng, 2, 3)
            cpar = draw(rng, k, k + 1)
            kind = draw(rng, 0, 3)
            if kind == 0:
                n = 2 * cpar + k + draw(rng, 0, 2 * cpar - k + 3)
                c = random_coloring(rng, k, l, n)
            else:
                # a deep middle [2cpar+1, n-2cpar] of 3 or 4 vertices
                n = 4 * cpar + draw(rng, 3, 4)
                c = controlled_coloring(rng, k, l, n, cpar,
                                        (None, "middle", "completion")[kind - 1])
            got = is_c_simple(c, cpar)
            assert got == reference_is_c_simple(c, cpar), (c, cpar)
            seen[got and got.condition] += 1
            subset = [v for v in range(1, n + 1) if draw(rng, 0, 2)]
            h = homogeneity(c, subset)
            assert (h.homogeneous, h.color, h.witness) == \
                reference_homogeneity(c, subset), (c, subset)
        assert min(seen.values()) >= 20, seen


class TestWealthyVariants:
    def test_variant_counts(self):
        expect = {"W1'": 4, "W1''": 2, "W2.1": 48, "W2.2": 48,
                  "W3.1": 96, "W3.2": 96, "W3.3": 2, "W4.1": 1, "W4.2": 4}
        for fam, want in expect.items():
            vs = wealthy_variants(fam, 3)
            assert len(vs) == want
            assert len(set(vs)) == want

    def test_sizes(self):
        assert [wealthy_size(f, 3) for f in WEALTHY_FAMILIES] == \
            [3, 3, 7, 7, 9, 9, 10, 12, 12]
        with pytest.raises(ValueError):
            wealthy_size("W5", 3)
        with pytest.raises(ValueError):
            wealthy_size("W1'", 0)

    def test_text_round_trip(self):
        for fam in WEALTHY_FAMILIES:
            for v in wealthy_variants(fam, 3):
                assert variant_from_text(fam, variant_to_text(fam, v)) == v

    def test_text_order_is_scan_order(self):
        texts = {fam: [variant_to_text(fam, v) for v in wealthy_variants(fam, 3)]
                 for fam in WEALTHY_FAMILIES}
        assert texts["W1'"] == ["colors:01,rev:0", "colors:01,rev:1",
                                "colors:10,rev:0", "colors:10,rev:1"]
        assert texts["W1''"] == ["colors:01", "colors:10"]
        assert texts["W3.3"] == ["rev:0", "rev:1"]
        assert texts["W4.1"] == ["plain"]
        assert texts["W4.2"] == ["rev:0,blockswap:0", "rev:0,blockswap:1",
                                 "rev:1,blockswap:0", "rev:1,blockswap:1"]
        for fam, rev in (("W2.1", "00"), ("W2.2", "00"),
                         ("W3.1", "000"), ("W3.2", "000")):
            last = "1" * len(rev)
            assert len(texts[fam]) == 12 * 2 ** len(rev)
            assert texts[fam][:3] == [f"swap:0,rev:{rev},perm:123",
                                      f"swap:0,rev:{rev},perm:132",
                                      f"swap:0,rev:{rev},perm:213"]
            assert texts[fam][-3:] == [f"swap:1,rev:{last},perm:231",
                                       f"swap:1,rev:{last},perm:312",
                                       f"swap:1,rev:{last},perm:321"]

    def test_text_fields_in_any_order(self):
        assert variant_from_text("W1'", "rev:0,colors:01") == \
            WealthyVariant(colors=(0, 1))
        assert variant_from_text("W2.1", "perm:213,rev:01,swap:1") == \
            WealthyVariant(swap=True, reversals=(False, True), perm=(2, 1, 3))
        assert variant_from_text("W4.2", "blockswap:1,rev:0") == \
            WealthyVariant(block_swap=True)

    def test_text_rejects_malformed(self):
        with pytest.raises(ValueError):
            variant_from_text("W4.1", "rev:0")
        with pytest.raises(ValueError):
            variant_from_text("W1'", "colors:01,rev:0,rev:1")
        with pytest.raises(ValueError):
            variant_from_text("W1''", "colors:\u0660\u0661")
        with pytest.raises(ValueError):
            variant_from_text("W1'", "colors:12,rev:0")
        with pytest.raises(ValueError):
            variant_from_text("W1'", "colors:01")
        with pytest.raises(ValueError):
            variant_from_text("W2.1", "swap:0,rev:00,perm:123,extra:1")
        with pytest.raises(ValueError):
            variant_from_text("W2.1", "swap:2,rev:00,perm:123")
        with pytest.raises(ValueError):
            variant_from_text("W3.3", "rev")

    def test_variant_field_validation(self):
        with pytest.raises(ValueError):
            is_wealthy(Coloring.constant(3, 2, 3, 0), "W1'", 3,
                       WealthyVariant(colors=(0, 1), swap=True))
        with pytest.raises(ValueError):
            is_wealthy(Coloring.constant(3, 2, 7, 0), "W2.1", 3,
                       WealthyVariant(swap=False, reversals=(False,),
                                      perm=(1, 2, 3)))


class TestWealthyRecognition:
    def test_witness_report_format(self):
        v = wealthy_variants("W2.1", 2)[0]
        c = Coloring.from_map(3, 2, 5, wealthy_assignment("W2.1", 2, v))
        w = is_wealthy(c, "W2.1", 2)
        assert w.to_text() == ("wealthy family=W2.1 r=2 "
                               "variant=swap:0,rev:00,perm:123 "
                               "base=[1,2]|[3,4]|[5]")

    def test_default_variant_is_the_first(self):
        for fam in WEALTHY_FAMILIES:
            first = wealthy_variants(fam, 3)[0]
            assert wealthy_assignment(fam, 3) == \
                wealthy_assignment(fam, 3, first)

    def test_alternating_pair_family(self):
        asg = wealthy_assignment("W1'", 6, WealthyVariant(colors=(1, 0)))
        assert asg == {(1, 2, 3): 0, (1, 2, 4): 1, (1, 2, 5): 0, (1, 2, 6): 1}
        w = is_wealthy(Coloring.from_map(3, 2, 6, asg), "W1'", 6)
        assert w is not None
        assert w.variant.colors == (1, 0)

    def test_tiny_sizes_always_qualify(self):
        # with r <= 2 the alternating families impose no constraints
        for r in (1, 2):
            assert is_wealthy(Coloring.constant(3, 2, r, 0), "W1'", r)
            assert is_wealthy(Coloring.constant(3, 2, r, 0), "W1''", r)

    def test_round_trip_every_variant(self):
        for fam in WEALTHY_FAMILIES:
            r = 3
            for v in wealthy_variants(fam, r):
                c = Coloring.from_map(3, 2, wealthy_size(fam, r),
                                      wealthy_assignment(fam, r, v))
                targeted = is_wealthy(c, fam, r, v)
                assert targeted is not None, (fam, v)
                assert targeted.variant == v
                scanned = is_wealthy(c, fam, r)
                assert scanned is not None, (fam, v)

    def test_every_pinned_edge_is_checked(self):
        # equation families: flipping any one pinned edge loses the variant
        for fam in ("W1'", "W1''", "W2.1", "W2.2", "W3.1", "W3.2"):
            r = 3
            for v in wealthy_variants(fam, r):
                asg = wealthy_assignment(fam, r, v)
                for e in asg:
                    c = Coloring.from_map(3, 2, wealthy_size(fam, r),
                                          {**asg, e: 1 - asg[e]})
                    assert is_wealthy(c, fam, r, v) is None, (fam, v, e)

    def test_reversal_closure(self):
        for fam in WEALTHY_FAMILIES:
            r = 3
            v = wealthy_variants(fam, r)[0]
            c = Coloring.from_map(3, 2, wealthy_size(fam, r),
                                  wealthy_assignment(fam, r, v))
            assert is_wealthy(reverse(c), fam, r) is not None, fam

    def test_swap_closure_for_matrix_families(self):
        for fam in ("W2.1", "W2.2", "W3.1", "W3.2"):
            v = wealthy_variants(fam, 3)[0]
            c = Coloring.from_map(3, 2, wealthy_size(fam, 3),
                                  wealthy_assignment(fam, 3, v))
            flipped = Coloring(3, 2, c.n, tuple(1 - x for x in c.colors))
            assert is_wealthy(flipped, fam, 3) is not None, fam

    def test_monochromatic_rejected_by_quadruple_family(self):
        assert is_wealthy(Coloring.constant(3, 2, 8, 0), "W4.1", 2) is None
        assert is_wealthy(Coloring.constant(3, 2, 8, 1), "W4.1", 2) is None

    def test_existential_families_report_triples(self):
        v = wealthy_variants("W3.3", 2)[0]
        c = Coloring.from_map(3, 2, 7, wealthy_assignment("W3.3", 2, v))
        w = is_wealthy(c, "W3.3", 2)
        assert w.triples is not None and len(w.triples) == 2
        apex = 7
        for (a, b, d), i in zip(w.triples, (1, 2)):
            block = {3 * i - 2, 3 * i - 1, 3 * i}
            assert {a, b, d} <= block
            assert c.color((a, b, apex)) != c.color((a, d, apex))

    def test_second_pair_order(self):
        # (1,2,4) and (1,3,4) agree, so the triple leads with b2
        c = Coloring.from_map(3, 2, 4, {(1, 2, 4): 1, (1, 3, 4): 1,
                                        (2, 3, 4): 0})
        assert is_wealthy(c, "W3.3", 1).to_text() == \
            "wealthy family=W3.3 r=1 variant=rev:0 triples=2,1,3"

    def test_size_mismatch_raises(self):
        with pytest.raises(SizeMismatchError):
            is_wealthy(Coloring.constant(3, 2, 6, 0), "W2.1", 2)

    def test_wrong_arity_raises(self):
        with pytest.raises(ValueError):
            is_wealthy(Coloring.constant(2, 2, 5, 0), "W1'", 5)
        with pytest.raises(ValueError):
            is_wealthy(Coloring.constant(3, 3, 5, 0), "W1'", 5)


class TestPairBlocks:
    """W3.3's first variant puts the apex at the last vertex, so its check
    reads the same blocks as pair_wealthy_type2 on the slice there."""

    def test_w33_agrees_with_the_pair_slice(self):
        rng = Lcg(97)
        members = 0
        for i in range(400):
            r = 1 + i % 4
            n = 3 * r + 1
            if draw(rng, 0, 1):
                c = random_coloring(rng, 3, 2, n)
            else:
                # a member with a few flips: near the edge of the family
                cols = list(make_wealthy("W3.3", r,
                                         filler=draw(rng, 0, 1)).colors)
                for _ in range(draw(rng, 0, 3)):
                    cols[draw(rng, 0, len(cols) - 1)] ^= 1
                c = Coloring(3, 2, n, tuple(cols))
            w = is_wealthy(c, "W3.3", r, wealthy_variants("W3.3", r)[0])
            got = pair_wealthy_type2(slice_to_pair_coloring(c), r)
            assert (None if w is None else w.triples) == got
            members += got is not None
        assert 150 <= members <= 350

    def test_second_pair_order(self):
        ones = {(1, 2), (1, 3), (4, 6), (5, 6)}
        c = Coloring.from_function(2, 2, 6, lambda e: int(e in ones))
        assert pair_wealthy_type2(c, 2) == ((2, 1, 3), (4, 5, 6))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            pair_wealthy_type2(Coloring.constant(2, 2, 5, 0), 2)


def reference_apex_cells(family, r, v):
    """((apex,), (b1, b2, b3)) for i = 1..r of a W3.3 or W4.2 variant."""
    for i in range(1, r + 1):
        block = (3 * i - 2, 3 * i - 1, 3 * i)
        if family == "W3.3":
            n = 3 * r + 1
            if v.reverse:
                yield (1,), tuple(n - x + 1 for x in block)
            else:
                yield (n,), block
        elif v.block_swap:
            yield (3 * r + (r - i + 1 if v.reverse else i),), block
        else:
            yield (r - i + 1 if v.reverse else i,), tuple(r + x for x in block)


def reference_unbalanced_triples(c, cells):
    """(a, b, d) per (apex, block) cell, a = b1 if its two edges apex + pair
    differ in color, else b2 if its do; None at the first cell where
    neither does, as then all three edges share a color.  apex is () for
    a pair coloring."""
    color = c.color
    out = []
    for apex, (b1, b2, b3) in cells:
        col12 = color(apex + (b1, b2))
        if col12 != color(apex + (b1, b3)):
            out.append((b1, b2, b3))
        elif col12 != color(apex + (b2, b3)):
            out.append((b2, b1, b3))
        else:
            return None
    return tuple(out)


def reference_assignment(family, r, v):
    if family == "W4.1":
        out = {}
        for i in range(1, r + 1):
            q = (4 * i - 3, 4 * i - 2, 4 * i - 1, 4 * i)
            out[(q[0], q[1], q[2])] = 0
            out[(q[0], q[1], q[3])] = 1
            out[(q[0], q[2], q[3])] = 1
            out[(q[1], q[2], q[3])] = 1
        return out
    out = {}
    for apex, (b1, b2, b3) in reference_apex_cells(family, r, v):
        out[tuple(sorted(apex + (b1, b2)))] = 0
        out[tuple(sorted(apex + (b1, b3)))] = 1
        out[tuple(sorted(apex + (b2, b3)))] = 1
    return out


def reference_check(c, family, r, v):
    """The witness text of one existential variant, or None."""
    if family == "W4.1":
        for i in range(1, r + 1):
            q = (4 * i - 3, 4 * i - 2, 4 * i - 1, 4 * i)
            seen = {c.color(e) for e in combinations(q, 3)}
            if len(seen) == 1:
                return None
        trips = None
    else:
        trips = reference_unbalanced_triples(
            c, reference_apex_cells(family, r, v))
        if trips is None:
            return None
    return structure.WealthyWitness(
        family, r, v, structure._wealthy_base_sets(family, r, v),
        trips).to_text()


class TestExistentialParity:
    """W3.3, W4.1 and W4.2 against an independent statement of their rules:
    three-edge (apex, block) cells, W4.1's own quadruple test and its
    hard-coded member cells."""

    FAMILIES = ("W3.3", "W4.1", "W4.2")

    @staticmethod
    def text(w):
        return None if w is None else w.to_text()

    def cases(self, rng, family, r):
        """Each variant's members, their flips of every pinned edge and of
        a few other edges, and random colorings."""
        n = wealthy_size(family, r)
        for v in wealthy_variants(family, r):
            pinned = [edge_index(e, n, 3)
                      for e in wealthy_assignment(family, r, v)]
            for filler in (0, 1):
                cols = list(make_wealthy(family, r, v, filler).colors)
                yield Coloring(3, 2, n, tuple(cols))
                others = [draw(rng, 0, len(cols) - 1) for _ in range(8)]
                for i in pinned + others:
                    cols[i] ^= 1
                    yield Coloring(3, 2, n, tuple(cols))
                    cols[i] ^= 1
        for _ in range(60):
            yield random_coloring(rng, 3, 2, n)

    def test_assignment(self):
        for family in self.FAMILIES:
            for r in range(1, 5):
                for v in wealthy_variants(family, r):
                    assert list(wealthy_assignment(family, r, v).items()) == \
                        list(reference_assignment(family, r, v).items())

    def test_recognition(self):
        rng = Lcg(31)
        seen = set()
        for family in self.FAMILIES:
            for r in range(1, 5):
                variants = wealthy_variants(family, r)
                for c in self.cases(rng, family, r):
                    want = [reference_check(c, family, r, v)
                            for v in variants]
                    for v, w in zip(variants, want):
                        assert self.text(is_wealthy(c, family, r, v)) == w
                    scan = next((w for w in want if w is not None), None)
                    assert self.text(is_wealthy(c, family, r)) == scan
                    seen.add(scan is None)
        assert seen == {True, False}

    def test_pair_blocks(self):
        rng = Lcg(32)
        found = set()
        for i in range(300):
            r = 1 + i % 4
            c = random_coloring(rng, 2, 2, 3 * r)
            want = reference_unbalanced_triples(
                c, (((), (3 * j - 2, 3 * j - 1, 3 * j))
                    for j in range(1, r + 1)))
            assert pair_wealthy_type2(c, r) == want
            found.add(want is None)
        assert found == {True, False}


class TestQuadrupleExtraction:
    def test_from_alternating_blocks(self):
        c = parity_coloring(12)
        vs = w41_vertices_from_nuclear(c, 2)
        assert vs == (1, 2, 3, 4, 7, 8, 9, 10)
        sub = restrict_normalize(c, vs)
        assert is_wealthy(sub, "W4.1", 2) is not None

    def test_random_long_decompositions(self):
        rng = Lcg(1234)
        built = 0
        while built < 5:
            c = random_coloring(rng, 3, 2, 14)
            nd = nuclear_decomposition(c)
            if nd.length < 4:
                continue
            built += 1
            vs = w41_vertices_from_nuclear(c, 2)
            assert len(vs) == 8 and len(set(vs)) == 8
            sub = restrict_normalize(c, vs)
            assert is_wealthy(sub, "W4.1", 2) is not None

    def test_needs_enough_intervals(self):
        with pytest.raises(ValueError):
            w41_vertices_from_nuclear(Coloring.constant(3, 2, 8, 0), 2)
        with pytest.raises(ValueError):
            w41_vertices_from_nuclear(Coloring.constant(4, 2, 8, 0), 2)
