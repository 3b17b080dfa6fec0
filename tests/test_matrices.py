"""Star matrices: metrics, fullness, pattern search, slices, bound sampling."""

import time
from itertools import combinations, product

import pytest

from hypergrowth.matrices import (DimensionMismatchError, StarMatrix2,
                                  StarMatrix3, al_23d, cross, find_pattern2,
                                  fullness, identity_similar, identity_strong,
                                  layer, matrix2_from_text, matrix3_from_text,
                                  metrics2, metrics3, pattern_variants,
                                  upper_similar, upper_strong)
from hypergrowth.rng import Lcg


def line_alt_count(seq):
    """Independent alternation counter."""
    total = 0
    for a, b in zip(seq, seq[1:]):
        if a is not None and b is not None and a != b:
            total += 1
    return total


def metrics2_oracle(m):
    al = 1
    rset, cset = set(), set()
    for i in range(1, m.rows + 1):
        line = [m.at(i, j) for j in range(1, m.cols + 1)]
        al = max(al, 1 + line_alt_count(line))
        for j in range(1, m.cols):
            if line[j - 1] is not None and line[j] is not None \
                    and line[j - 1] != line[j]:
                rset.add(j)
    for j in range(1, m.cols + 1):
        line = [m.at(i, j) for i in range(1, m.rows + 1)]
        al = max(al, 1 + line_alt_count(line))
        for i in range(1, m.rows):
            if line[i - 1] is not None and line[i] is not None \
                    and line[i - 1] != line[i]:
                cset.add(i)
    return al, tuple(sorted(rset)), tuple(sorted(cset))


def draw(rng, lo, hi):
    """An integer in [lo, hi] from the high bits of the next LCG draw.

    Lcg.randint reduces the raw state modulo the span, and the low bits
    of this LCG have short periods: randint(0, 1) alternates.
    """
    return lo + (rng.next_u64() * (hi - lo + 1) >> 64)


def random_matrix2(rng, maxdim, stars=False):
    r = rng.randint(1, maxdim)
    s = rng.randint(1, maxdim)
    pool = (0, 1, None) if stars else (0, 1)
    return StarMatrix2(r, s, tuple(tuple(pool[draw(rng, 0, len(pool) - 1)]
                                         for _ in range(s))
                                   for _ in range(r)))


def random_matrix3(rng, maxdim, stars=False):
    dims = tuple(rng.randint(1, maxdim) for _ in range(3))
    pool = (0, 1, None) if stars else (0, 1)
    return StarMatrix3.build(
        dims, lambda i, j, k: pool[draw(rng, 0, len(pool) - 1)])


class TestStarMatrix2:
    def test_from_rows_and_text(self):
        m = StarMatrix2.from_rows(["01*", "110"])
        assert m.at(1, 3) is None and m.at(2, 1) == 1
        assert matrix2_from_text(m.to_text()) == m
        assert matrix2_from_text("matrix2 s=3 r=2\n01*\n110\n") == m
        for bad in ("", "matrix2 r=1 s=2 r=1\n01\n", "matrix2 r=1 s=2 x=3\n01\n",
                    "matrix2 r=1\n01\n", "matrix2 r=1 s=2\n0x\n",
                    "matrix2 r s=2\n01\n"):
            with pytest.raises(ValueError):
                matrix2_from_text(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            StarMatrix2(2, 2, ((0, 1),))
        with pytest.raises(ValueError):
            StarMatrix2(1, 2, ((0, 2),))
        with pytest.raises(ValueError):
            StarMatrix2(0, 0, ())

    def test_flips_and_swap(self):
        m = StarMatrix2.from_rows(["01", "1*"])
        assert m.vflip().entries == ((1, None), (0, 1))
        assert m.hflip().entries == ((1, 0), (None, 1))
        assert m.transpose().entries == ((0, 1), (1, None))
        assert m.swap_colors().entries == ((1, 0), (0, None))
        assert m.vflip().vflip() == m and m.hflip().hflip() == m

    def test_submatrix(self):
        m = StarMatrix2.from_rows(["abc".replace("a", "0")
                                   .replace("b", "1").replace("c", "*"),
                                   "110", "011"])
        sub = m.submatrix((1, 3), (2, 3))
        assert sub.entries == ((1, None), (1, 1))


class TestStarMatrix3:
    def test_submatrix_reads_the_selected_entries(self):
        rng = Lcg(29)
        for _ in range(30):
            m = random_matrix3(rng, 4, stars=True)
            sels = [sorted({draw(rng, 1, d) for _ in range(draw(rng, 1, d))})
                    for d in m.dims]
            sub = m.submatrix(*sels)
            assert sub.dims == tuple(map(len, sels))
            for idx in product(*(range(1, len(sel) + 1) for sel in sels)):
                assert sub.at(*idx) == m.at(*(sel[i - 1]
                                              for sel, i in zip(sels, idx)))

    @pytest.mark.parametrize("head", [
        "matrix3 r=3000000 s=1 t=0", "matrix3 r=1000000000 s=1000000000 t=0",
        "matrix3 r=0 s=2 t=2", "matrix3 r=-1 s=2 t=-2"])
    def test_text_zero_axis_raises_before_the_body(self, head):
        # the header is refused before any entry is built, whatever r * s
        start = time.perf_counter()
        with pytest.raises(ValueError, match="dimensions must be positive"):
            matrix3_from_text(head + "\n")
        assert time.perf_counter() - start < 1.0


class TestIndexAndEntryRule:
    """Each 1-based accessor reads entries[i - 1]; any other index raises."""

    def test_matrix2_indices(self):
        rng = Lcg(35)
        for _ in range(40):
            m = random_matrix2(rng, 6, stars=True)
            for i, j in product(range(1, m.rows + 1), range(1, m.cols + 1)):
                assert m.at(i, j) == m.entries[i - 1][j - 1]
                assert m.row(i) == m.entries[i - 1]
                assert m.col(j) == tuple(row[j - 1] for row in m.entries)
                assert m.submatrix([i], [j]).entries == ((m.at(i, j),),)
            for bad in (0, -1, m.rows + 1):
                for call in (lambda: m.at(bad, 1), lambda: m.row(bad),
                             lambda: m.submatrix([bad], [1])):
                    with pytest.raises(IndexError):
                        call()
            for bad in (0, -1, m.cols + 1):
                for call in (lambda: m.at(1, bad), lambda: m.col(bad),
                             lambda: m.submatrix([1], [bad])):
                    with pytest.raises(IndexError):
                        call()

    def test_matrix3_indices(self):
        rng = Lcg(36)
        for _ in range(20):
            m = random_matrix3(rng, 4, stars=True)
            for idx in product(*(range(1, d + 1) for d in m.dims)):
                i, j, k = idx
                assert m.at(*idx) == m.entries[i - 1][j - 1][k - 1]
                sub = m.submatrix(*([x] for x in idx))
                assert sub.entries == (((m.at(*idx),),),)
            for axis, d in enumerate(m.dims):
                for bad in (0, -1, d + 1):
                    idx = [1, 1, 1]
                    idx[axis] = bad
                    with pytest.raises(IndexError):
                        m.at(*idx)
                    with pytest.raises(IndexError):
                        m.submatrix(*([x] for x in idx))

    def test_shape_and_entry_errors(self):
        row = (0, 1)
        plane = (row, row)
        for make in (lambda: StarMatrix2(2, 2, (row, (0,))),
                     lambda: StarMatrix2(2, 2, (row,)),
                     lambda: StarMatrix2(1, 2, ((0, [1]),)),
                     lambda: StarMatrix2.from_rows(["01", "1"]),
                     lambda: StarMatrix3(1, 2, 2, ()),
                     lambda: StarMatrix3(1, 2, 2, ((row,),)),
                     lambda: StarMatrix3(1, 2, 2, ((row, (0,)),)),
                     lambda: StarMatrix3(1, 2, 2, ((row, (0, 2)),)),
                     lambda: StarMatrix3(0, 2, 2, (plane,)),
                     lambda: matrix2_from_text("matrix2 r=2 s=2\n01\n"),
                     lambda: matrix2_from_text("matrix2 r=1 s=2\n011\n"),
                     lambda: matrix3_from_text("matrix3 r=1 s=2 t=1\n02\n"),
                     lambda: matrix3_from_text("matrix3 r=1 s=2 t=1\n0*\n1\n")):
            with pytest.raises(ValueError):
                make()
        assert StarMatrix3(1, 2, 2, (plane,)).at(1, 2, 2) == 1

    def test_from_rows_rejects_other_characters(self):
        for rows in (["01", "1x"], ["0 1"], ["*", "2"], ["-"]):
            with pytest.raises(ValueError):
                StarMatrix2.from_rows(rows)
        assert StarMatrix2.from_rows(["0*", "1*"]).entries == \
            ((0, None), (1, None))


class TestMetrics2:
    def test_identity3_example(self):
        met = metrics2(StarMatrix2.identity(3))
        assert met.al == 3
        assert met.r_set == (1, 2) and met.c_set == (1, 2)

    def test_star_breaks_alternation(self):
        assert metrics2(StarMatrix2.from_rows(["0*1"])).al == 1

    def test_prescribed_row_positions(self):
        met = metrics2(StarMatrix2.from_rows(["00011**11*010"]))
        assert met.r_set == (3, 11, 12)
        assert met.al == 4

    def test_oracle_agreement(self):
        rng = Lcg(0)
        for trial in range(300):
            m = random_matrix2(rng, 7, stars=trial % 2 == 0)
            met = metrics2(m)
            assert (met.al, met.r_set, met.c_set) == metrics2_oracle(m)

    def test_alternation_bound_sampled(self):
        # |R| and |C| against the alternation number, random binary matrices
        rng = Lcg(1)
        for _ in range(2000):
            m = random_matrix2(rng, 12)
            met = metrics2(m)
            nr, nc = len(met.r_set), len(met.c_set)
            assert nr <= (met.al - 1) * (2 * nc + 1)
            assert nc <= (met.al - 1) * (2 * nr + 1)


class TestMetrics3:
    def test_oracle_agreement(self):
        rng = Lcg(2)
        for trial in range(120):
            m = random_matrix3(rng, 5, stars=trial % 2 == 0)
            met = metrics3(m)
            r, s, t = m.dims
            al = 1
            rset, cset, sset = set(), set(), set()
            for j in range(1, s + 1):
                for k in range(1, t + 1):
                    line = [m.at(i, j, k) for i in range(1, r + 1)]
                    al = max(al, 1 + line_alt_count(line))
                    rset.update(i for i in range(1, r)
                                if line[i - 1] is not None
                                and line[i] is not None and line[i - 1] != line[i])
            for i in range(1, r + 1):
                for k in range(1, t + 1):
                    line = [m.at(i, j, k) for j in range(1, s + 1)]
                    al = max(al, 1 + line_alt_count(line))
                    cset.update(j for j in range(1, s)
                                if line[j - 1] is not None
                                and line[j] is not None and line[j - 1] != line[j])
            for i in range(1, r + 1):
                for j in range(1, s + 1):
                    line = [m.at(i, j, k) for k in range(1, t + 1)]
                    al = max(al, 1 + line_alt_count(line))
                    sset.update(k for k in range(1, t)
                                if line[k - 1] is not None
                                and line[k] is not None and line[k - 1] != line[k])
            assert met.al == al
            assert met.r_set == tuple(sorted(rset))
            assert met.c_set == tuple(sorted(cset))
            assert met.s_set == tuple(sorted(sset))

    def test_three_axis_bound_sampled(self):
        rng = Lcg(3)
        for _ in range(250):
            m = random_matrix3(rng, 6)
            met = metrics3(m)
            nr, nc, ns = len(met.r_set), len(met.c_set), len(met.s_set)
            lam = met.al - 1
            assert ns <= lam * (max(nr, nc) + 1) ** 2
            assert nr <= lam * (max(nc, ns) + 1) ** 2
            assert nc <= lam * (max(nr, ns) + 1) ** 2

    def test_text_round_trip(self):
        rng = Lcg(4)
        m = random_matrix3(rng, 4, stars=True)
        assert matrix3_from_text(m.to_text()) == m
        for _ in range(40):
            text = random_matrix3(rng, 4, stars=True).to_text()
            assert matrix3_from_text(text).to_text() == text
        # every line's length is checked, not only one line per shaft
        for bad in ("", "matrix3 r=1 s=1 t=1 t=1\n0\n",
                    "matrix3 r=1 s=1 t=1 x=3\n0\n", "matrix3 r=1 s=1\n0\n",
                    "matrix3 r=1 s=2 t=1\n0x\n",
                    "matrix3 r=1 s=2 t=2\n01\n011\n",
                    "matrix3 r=1 s=2 t=2\n011\n01\n",
                    "matrix3 r=1 s=2 t=2\n011\n011\n"):
            with pytest.raises(ValueError):
                matrix3_from_text(bad)


def sdr_oracle(eligible):
    """Brute-force distinct representatives over all assignments."""
    if not eligible:
        return True
    universe = sorted({v for row in eligible for v in row})
    if len(universe) < len(eligible):
        return False
    for assign in product(*eligible) if all(eligible) else [None]:
        if assign is None:
            return False
        if len(set(assign)) == len(assign):
            return True
    return False


class TestFullness:
    def test_identity_not_full(self):
        f = fullness(StarMatrix2.identity(3))
        assert not f.r_full and not f.c_full

    def test_full_example(self):
        m = StarMatrix2.from_rows(["0101", "1010", "0110"])
        f = fullness(m)
        assert f.r_full
        assert len(set(f.row_assignment)) == 3

    def test_oracle_agreement(self):
        rng = Lcg(5)
        for _ in range(200):
            m = random_matrix2(rng, 5, stars=True)
            f = fullness(m)
            row_elig = []
            for i in range(1, m.rows + 1):
                line = [m.at(i, j) for j in range(1, m.cols + 1)]
                row_elig.append([j for j in range(1, m.cols)
                                 if line[j - 1] is not None
                                 and line[j] is not None
                                 and line[j - 1] != line[j]])
            assert f.r_full == sdr_oracle(row_elig)
            if f.r_full:
                assert len(set(f.row_assignment)) == m.rows
                for i, j in enumerate(f.row_assignment, start=1):
                    a, b = m.at(i, j), m.at(i, j + 1)
                    assert a is not None and b is not None and a != b

    def test_greedy_counterexample(self):
        # leftmost-first private positions fail where matching succeeds
        m = StarMatrix2.from_rows(["0100", "0101"])
        f = fullness(m)
        assert f.r_full
        assert sorted(f.row_assignment) == [1, 2] or sorted(f.row_assignment) == [1, 3] \
            or len(set(f.row_assignment)) == 2


class TestPatternClasses:
    def test_variant_counts(self):
        for r in (3, 4, 5):
            assert len(pattern_variants(identity_strong(r))) == 4
            assert len(pattern_variants(identity_similar(r))) == 4
            assert len(pattern_variants(upper_strong(r))) == 4
            assert len(pattern_variants(upper_similar(r))) == 8

    def test_degenerate_r2_counts(self):
        # color swap of the 2x2 identity equals its vertical flip
        assert len(pattern_variants(identity_strong(2))) == 2
        assert len(pattern_variants(identity_similar(2))) == 2
        assert len(pattern_variants(upper_strong(2))) == 4
        assert len(pattern_variants(upper_similar(2))) == 8

    def test_variants_distinct(self):
        for pc in (identity_strong(3), identity_similar(3),
                   upper_strong(3), upper_similar(3)):
            mats = [m.entries for _, m in pattern_variants(pc)]
            assert len(set(mats)) == len(mats)

    def test_plain_first(self):
        tags = [t for t, _ in pattern_variants(upper_similar(2))]
        assert tags[0] == "plain"

    def test_bad_class(self):
        with pytest.raises(ValueError):
            from hypergrowth.matrices import PatternClass
            PatternClass("diag", 3, True)


def submatrix_oracle(hay, pat):
    for rs in combinations(range(1, hay.rows + 1), pat.rows):
        for cs in combinations(range(1, hay.cols + 1), pat.cols):
            if hay.submatrix(rs, cs).entries == pat.entries:
                return rs, cs
    return None


class TestFindPattern2:
    def test_oracle_agreement(self):
        rng = Lcg(6)
        for _ in range(150):
            hay = random_matrix2(rng, 6)
            pat = random_matrix2(rng, 3)
            got = find_pattern2(hay, pat)
            want = submatrix_oracle(hay, pat)
            assert (got is None) == (want is None)
            if got is not None:
                assert hay.submatrix(got.rows, got.cols).entries == pat.entries
                assert got.variant == "explicit"

    def test_first_match_deterministic(self):
        hay = StarMatrix2.from_rows(["11", "11"])
        got = find_pattern2(hay, StarMatrix2.from_rows(["1"]))
        assert got.rows == (1,) and got.cols == (1,)

    def test_class_search_reports_variant(self):
        hay = StarMatrix2.identity(4).swap_colors()
        got = find_pattern2(hay, identity_strong(4))
        assert got is not None and got.variant == "swap"

    def test_too_large_pattern(self):
        assert find_pattern2(StarMatrix2.identity(2),
                             StarMatrix2.identity(3)) is None


class TestSlices:
    def build_example(self):
        # entry encodes its coordinates: i + 2j + 4k mod 2 keeps it binary
        return StarMatrix3.build((2, 3, 4),
                                 lambda i, j, k: (i + 2 * j + 3 * k) % 2)

    def test_layer_conventions(self):
        m = self.build_example()
        l1 = layer(m, 1, 2)
        assert (l1.rows, l1.cols) == (4, 3)
        assert all(l1.at(a, b) == m.at(2, b, a)
                   for a in range(1, 5) for b in range(1, 4))
        l2 = layer(m, 2, 3)
        assert (l2.rows, l2.cols) == (4, 2)
        assert all(l2.at(a, b) == m.at(b, 3, a)
                   for a in range(1, 5) for b in range(1, 3))
        l3 = layer(m, 3, 4)
        assert (l3.rows, l3.cols) == (3, 2)
        assert all(l3.at(a, b) == m.at(b, a, 4)
                   for a in range(1, 4) for b in range(1, 3))

    def test_layer_range_errors(self):
        m = self.build_example()
        with pytest.raises(IndexError):
            layer(m, 1, 3)
        with pytest.raises(ValueError):
            layer(m, 4, 1)

    def test_cross_diagonal(self):
        m = StarMatrix3.build((3, 3, 2), lambda i, j, k: (i * j + k) % 2)
        d = cross(m, (1, 2), "d")
        assert (d.rows, d.cols) == (2, 3)
        assert all(d.at(a, b) == m.at(b, b, a)
                   for a in range(1, 3) for b in range(1, 4))
        ad = cross(m, (1, 2), "ad")
        assert all(ad.at(a, b) == m.at(b, 3 - b + 1, a)
                   for a in range(1, 3) for b in range(1, 4))

    def test_cross_other_pairs(self):
        m = StarMatrix3.build((3, 2, 3), lambda i, j, k: (i + j * k) % 2)
        d13 = cross(m, (1, 3), "d")
        assert (d13.rows, d13.cols) == (2, 3)
        assert all(d13.at(a, b) == m.at(b, a, b)
                   for a in range(1, 3) for b in range(1, 4))
        m2 = StarMatrix3.build((2, 3, 3), lambda i, j, k: (i * j + 2 * k) % 2)
        d23 = cross(m2, (2, 3), "d")
        assert (d23.rows, d23.cols) == (3, 2)
        assert all(d23.at(a, b) == m2.at(b, a, a)
                   for a in range(1, 4) for b in range(1, 3))
        ad23 = cross(m2, (2, 3), "ad")
        assert all(ad23.at(a, b) == m2.at(b, a, 3 - a + 1)
                   for a in range(1, 4) for b in range(1, 3))

    def test_cross_dimension_mismatch(self):
        m = self.build_example()
        with pytest.raises(DimensionMismatchError):
            cross(m, (1, 2), "d")
        with pytest.raises(ValueError):
            cross(m, (2, 1), "d")

    def test_layer_formulas_and_errors(self):
        # every axis and index against the docstring table, then each error
        rng = Lcg(27)
        for _ in range(40):
            m = random_matrix3(rng, 4, stars=True)
            r, s, t = m.dims
            formulas = {1: (r, (t, s), lambda z, a, b: m.at(z, b, a)),
                        2: (s, (t, r), lambda z, a, b: m.at(b, z, a)),
                        3: (t, (s, r), lambda z, a, b: m.at(b, a, z))}
            for axis, (extent, (rows, cols), at) in formulas.items():
                for z in range(1, extent + 1):
                    got = layer(m, axis, z)
                    assert (got.rows, got.cols) == (rows, cols)
                    assert got.entries == tuple(
                        tuple(at(z, a, b) for b in range(1, cols + 1))
                        for a in range(1, rows + 1))
                for z in (0, extent + 1):
                    with pytest.raises(IndexError, match="layer index"):
                        layer(m, axis, z)
            for axis in (0, 4):
                with pytest.raises(ValueError, match="axis must be"):
                    layer(m, axis, 1)

    def test_cross_formulas_and_errors(self):
        rng = Lcg(28)
        formulas = {
            ((1, 2), "d"): lambda m, a, b: m.at(b, b, a),
            ((1, 2), "ad"): lambda m, a, b: m.at(b, m.dim2 - b + 1, a),
            ((1, 3), "d"): lambda m, a, b: m.at(b, a, b),
            ((1, 3), "ad"): lambda m, a, b: m.at(b, a, m.dim3 - b + 1),
            ((2, 3), "d"): lambda m, a, b: m.at(b, a, a),
            ((2, 3), "ad"): lambda m, a, b: m.at(b, a, m.dim3 - a + 1),
        }
        for _ in range(60):
            r, s, t = (draw(rng, 1, 4) for _ in range(3))
            dims = (r, r, t) if draw(rng, 0, 1) else (r, s, r)
            if draw(rng, 0, 2) == 0:
                dims = (r, s, s)
            pool = (0, 1, None)
            m = StarMatrix3.build(dims, lambda i, j, k: pool[draw(rng, 0, 2)])
            for (pair, mode), at in formulas.items():
                x, y = pair
                if m.dims[x - 1] != m.dims[y - 1]:
                    with pytest.raises(DimensionMismatchError,
                                       match=f"axes {x} and {y} differ"):
                        cross(m, pair, mode)
                    continue
                got = cross(m, pair, mode)
                free = m.dim3 if pair == (1, 2) else m.dim2
                assert (got.rows, got.cols) == (free, m.dim1)
                assert got.entries == tuple(
                    tuple(at(m, a, b) for b in range(1, m.dim1 + 1))
                    for a in range(1, free + 1))
            with pytest.raises(ValueError, match="mode must be"):
                cross(m, (1, 2), "x")
            with pytest.raises(ValueError, match="mode must be"):
                cross(m, (2, 1), "x")  # the mode is checked first
            for pair in ((2, 1), (1, 1), (3, 2), [1, 2]):
                with pytest.raises(ValueError, match="pair must be"):
                    cross(m, pair, "d")

    def test_al_23d(self):
        m = StarMatrix3.build((2, 3, 3),
                              lambda i, j, k: (j + k + i) % 2 if j == k else 0)
        # diagonals: x=1: entries (1,1),(2,2),(3,3) -> (1+1+1)%2.. compute oracle
        best = 0
        for x in (1, 2):
            diag = [m.at(x, i, i) for i in (1, 2, 3)]
            best = max(best, line_alt_count(diag))
        assert al_23d(m) == best + 1
        with pytest.raises(DimensionMismatchError):
            al_23d(self.build_example())
