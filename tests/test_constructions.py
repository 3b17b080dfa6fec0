"""Generators: chains, embeddings, rich/wealthy builders, restriction colorings."""

from itertools import product
from math import comb

import pytest

from hypergrowth.constructions import (Chain, SoutheastPath, chain_path,
                                       chain_to_path, embed_chain,
                                       embed_string, enumerate_chains,
                                       enumerate_paths, make_disobedient,
                                       make_rich, make_string_coloring,
                                       make_wealthy, path_to_chain,
                                       slice_to_pair_coloring)
from hypergrowth.core import Coloring, ColoringPattern, contains
from hypergrowth.matrices import StarMatrix2, find_pattern2
from hypergrowth.structure import (WealthyVariant, is_r_rich, is_wealthy,
                                   pair_wealthy_type2)


def no_adjacent_ones(length):
    for t in product("01", repeat=length):
        s = "".join(t)
        if "11" not in s:
            yield s


def brute_chains(m):
    """Chains as arbitrary point subsets filtered for double monotonicity."""
    cells = [(r, c) for r in range(1, m + 1) for c in range(1, m + 1)]
    count = 0
    for mask in range(1 << len(cells)):
        pts = sorted(cells[i] for i in range(len(cells)) if mask >> i & 1)
        ok = all(a[0] < b[0] and a[1] < b[1] for a, b in zip(pts, pts[1:]))
        if ok:
            count += 1
    return count


class TestChains:
    def test_validation(self):
        with pytest.raises(ValueError):
            Chain(0, ())
        with pytest.raises(ValueError):
            Chain(3, ((1, 1), (1, 2)))
        with pytest.raises(ValueError):
            Chain(3, ((2, 2), (1, 1)))
        with pytest.raises(ValueError):
            Chain(3, ((1, 4),))

    def test_indicator_and_padding(self):
        ch = Chain(2, ((1, 2),))
        assert ch.indicator().entries == ((0, 1), (0, 0))
        assert ch.padded().entries == ((0, 1, 0), (0, 0, 0), (0, 0, 1))
        for m in range(1, 5):
            for ch in enumerate_chains(m):
                want = [[int((i, j) in ch.points or i == j == m + 1)
                         for j in range(1, m + 2)] for i in range(1, m + 2)]
                assert ch.padded().entries == tuple(map(tuple, want))

    def test_counts_match_binomials(self):
        for m in range(1, 6):
            chains = list(enumerate_chains(m))
            assert len(chains) == comb(2 * m, m)
            assert len(set(chains)) == len(chains)
            assert Chain(m, ()) in chains

    def test_counts_match_brute_force(self):
        for m in (1, 2, 3):
            assert len(list(enumerate_chains(m))) == brute_chains(m)

    def test_path_counts_and_steps(self):
        for m in range(1, 6):
            paths = list(enumerate_paths(m))
            assert len(paths) == comb(2 * m, m)
            assert len(set(paths)) == len(paths)
            for p in paths:
                s = p.steps()
                assert s.count("E") == m and s.count("S") == m

    def test_path_validation(self):
        with pytest.raises(ValueError):
            SoutheastPath(1, ((1, 1), (2, 2), (2, 2)))
        with pytest.raises(ValueError):
            SoutheastPath(1, ((1, 1), (1, 2)))
        with pytest.raises(ValueError):
            SoutheastPath(1, ((1, 2), (2, 2), (2, 2)))

    def test_bijection_round_trip(self):
        for m in range(1, 5):
            for ch in enumerate_chains(m):
                assert path_to_chain(chain_to_path(ch)) == ch
            for p in enumerate_paths(m):
                assert chain_to_path(path_to_chain(p)) == p

    def test_dispatcher(self):
        ch = Chain(2, ((1, 1),))
        p = chain_path("chain_to_path", ch)
        assert chain_path("path_to_chain", p) == ch
        with pytest.raises(ValueError):
            chain_path("chain_to_path", p)
        with pytest.raises(ValueError):
            chain_path("path_to_chain", ch)
        with pytest.raises(ValueError):
            chain_path("sideways", ch)

    def test_corner_free_subcounts(self):
        # avoiding the last row and column leaves a smaller square's chains
        for m in (2, 3, 4, 5):
            chains = list(enumerate_chains(m))
            no_last_col = [c for c in chains
                           if all(p[1] != m for p in c.points)]
            both_free = [c for c in no_last_col
                         if all(p[0] != m for p in c.points)]
            assert len(no_last_col) >= comb(2 * m - 2, m - 1)
            assert len(both_free) == comb(2 * m - 2, m - 1)


class TestChainEmbedding:
    def test_reference_chain(self):
        emb = embed_chain(Chain(9, ((1, 2), (3, 4), (4, 6), (8, 8))))
        assert emb.host_order == 15
        assert emb.aug_rows == (2, 4, 5, 7, 9, 10, 11, 12, 14, 15)
        assert emb.aug_cols == (1, 2, 3, 5, 6, 7, 8, 12, 13, 15)

    def test_identity_chain_selects_everything(self):
        ch = Chain(4, tuple((i, i) for i in range(1, 5)))
        emb = embed_chain(ch)
        assert emb.host_order == 5
        assert emb.aug_rows == emb.aug_cols == (1, 2, 3, 4, 5)
        assert emb.rows == emb.cols == (1, 2, 3, 4)

    def test_all_small_chains_verified_both_ways(self):
        for m in (1, 2, 3, 4):
            for ch in enumerate_chains(m):
                emb = embed_chain(ch)
                k = len(ch.points)
                assert emb.host_order == 2 * m + 1 - k
                aug = StarMatrix2.identity(emb.host_order)
                assert aug.submatrix(emb.aug_rows, emb.aug_cols).entries \
                    == ch.padded().entries
                bare = StarMatrix2.identity(2 * m - k)
                assert bare.submatrix(emb.rows, emb.cols).entries \
                    == ch.indicator().entries

    def test_independent_pattern_search_agrees(self):
        ch = Chain(3, ((1, 2), (3, 3)))
        emb = embed_chain(ch)
        host = StarMatrix2.identity(emb.host_order)
        m = find_pattern2(host, ch.padded())
        assert m is not None
        assert host.submatrix(m.rows, m.cols).entries == ch.padded().entries

    def test_parameter_checks(self):
        ch = Chain(3, ((1, 1),))
        with pytest.raises(ValueError):
            embed_chain(ch, n=4)
        with pytest.raises(ValueError):
            embed_chain(ch, k_pts=2)


class TestStringEmbedding:
    def test_reference_identity_selection(self):
        emb = embed_string("0100101", "identity")
        assert emb.host_order == 8
        assert emb.rows == (2, 4, 5, 7)
        assert emb.cols == (1, 2, 5, 7)
        assert emb.matrix.entries == ((0, 1, 0, 0), (0, 0, 0, 0),
                                      (0, 0, 1, 0), (0, 0, 0, 1))

    def test_reference_upper_selection(self):
        emb = embed_string("01110", "upper")
        assert emb.host_order == 9
        assert emb.rows == (3, 4, 9)
        assert emb.cols == (1, 4, 7)
        assert emb.matrix.entries == ((0, 1, 1), (0, 1, 1), (0, 0, 0))

    def test_zero_string_rule(self):
        emb = embed_string("00000", "identity")
        assert emb.rows == (2, 4, 6)
        assert emb.cols == (1, 3, 5)
        assert all(x == 0 for row in emb.matrix.entries for x in row)

    def test_identity_mode_exhaustive(self):
        for length in (1, 3, 5, 7):
            for t in product("01", repeat=length):
                s = "".join(t)
                if "11" in s:
                    with pytest.raises(ValueError):
                        embed_string(s, "identity")
                    continue
                emb = embed_string(s, "identity")
                host = StarMatrix2.identity(emb.host_order)
                assert host.submatrix(emb.rows, emb.cols).entries \
                    == emb.matrix.entries

    def test_upper_mode_exhaustive(self):
        for length in (1, 3, 5, 7):
            for t in product("01", repeat=length):
                s = "".join(t)
                n = (length + 1) // 2
                a = [int(s[2 * i]) for i in range(n)]
                b = [int(s[2 * i + 1]) for i in range(n - 1)]
                bad = any(a[i] == 1 and b[i] == 0 for i in range(n - 1)) or \
                    any(b[i] == 0 and a[i + 1] == 1 for i in range(n - 1))
                if bad:
                    with pytest.raises(ValueError):
                        embed_string(s, "upper")
                    continue
                emb = embed_string(s, "upper")
                host = StarMatrix2.upper(emb.host_order)
                assert host.submatrix(emb.rows, emb.cols).entries \
                    == emb.matrix.entries

    def test_input_validation(self):
        with pytest.raises(ValueError):
            embed_string("0110", "identity")
        with pytest.raises(ValueError):
            embed_string("", "identity")
        with pytest.raises(ValueError):
            embed_string("012", "identity")
        with pytest.raises(ValueError):
            embed_string("010", "diagonal")
        assert embed_string((0, 1, 0), "identity").w == "010"


class TestRichAndWealthyGenerators:
    def test_full_window_example(self):
        c = make_rich(3, 3, 0, 3, 0)
        assert c.n == 4
        assert c.color((1, 2, 3)) == 0
        assert c.color((2, 3, 4)) == 1
        assert c.color((1, 2, 4)) == 0 and c.color((1, 3, 4)) == 0

    def test_round_trip(self):
        c = make_rich(3, 5, 0, 1, 2)
        w = is_r_rich(c, 5)
        assert (w.f, w.g, w.h) == (0, 1, 2)

    def test_equal_colors_rejected(self):
        with pytest.raises(ValueError):
            make_rich(3, 4, 0, 1, 2, a=1, b=1)

    def test_wildcard_mode(self):
        pat = make_rich(3, 4, 0, 1, 2, wildcard=True)
        assert isinstance(pat, ColoringPattern)
        assert pat.color((1, 5, 6)) == 0
        assert pat.color((3, 5, 6)) == 1
        assert pat.color((1, 2, 3)) is None

    def test_single_edge_family(self):
        c = make_wealthy("W3.1", 1)
        assert c.n == 3
        assert c.color((1, 2, 3)) == 1

    def test_alternating_family_assignment(self):
        c = make_wealthy("W1'", 6, WealthyVariant(colors=(1, 0)))
        for i in (3, 4, 5, 6):
            assert c.color((1, 2, i)) == (1 if i % 2 == 0 else 0)

    def test_quadruple_family_with_one_filler_is_interval_member(self):
        c = make_wealthy("W4.1", 2, filler=1)
        zero_edges = {(1, 2, 3), (5, 6, 7)}
        want = Coloring.from_function(
            3, 2, 8, lambda e: 0 if e in zero_edges else 1)
        assert c == want

    def test_every_family_output_recognized(self):
        for fam in ("W1'", "W1''", "W2.1", "W2.2", "W3.1", "W3.2",
                    "W3.3", "W4.1", "W4.2"):
            assert is_wealthy(make_wealthy(fam, 2), fam, 2) is not None

    def test_wildcard_wealthy(self):
        pat = make_wealthy("W2.1", 2, wildcard=True)
        assert isinstance(pat, ColoringPattern)
        assert pat.color((1, 3, 5)) == 1
        assert pat.color((1, 2, 3)) is None


class TestStringColoring:
    def test_reference_restriction(self):
        res = make_string_coloring("01010001010", 1, 13)
        assert res.vertex_set == (1, 17, 20, 21, 26, 27, 32, 35, 38,
                                  39, 44, 45, 50)
        assert res.c_set == (20, 26, 32, 35, 38, 44, 50)
        assert res.d_set == (21, 27, 39, 45)
        assert res.host.n == 52
        for i, ch in enumerate(res.w, start=2):
            assert res.member.color((1, i, i + 1)) == int(ch)

    def test_constant_string(self):
        res = make_string_coloring("000", 1, 5)
        assert res.d_set == ()
        assert all(res.member.color((1, i, i + 1)) == 0 for i in (2, 3, 4))

    def test_both_target_colors(self):
        res = make_string_coloring("101", 0, 5)
        assert [res.member.color((1, i, i + 1)) for i in (2, 3, 4)] == [1, 0, 1]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            make_string_coloring("011", 1, 10)
        with pytest.raises(ValueError):
            make_string_coloring("100", 0, 10)
        with pytest.raises(ValueError):
            make_string_coloring("", 1, 10)
        with pytest.raises(ValueError):
            make_string_coloring("010", 2, 10)
        with pytest.raises(ValueError):
            make_string_coloring("01010", 1, 6)
        with pytest.raises(ValueError):
            make_string_coloring("012", 1, 10)

    def test_valid_string_count_is_fibonacci(self):
        # strings of length n-2 without adjacent marked letters
        fib = {1: 1, 2: 1}
        for i in range(3, 9):
            fib[i] = fib[i - 1] + fib[i - 2]
        for n in range(3, 9):
            assert len(list(no_adjacent_ones(n - 2))) == fib[n]


class TestDisobedient:
    def test_smallest_case(self):
        res = make_disobedient(5, (1,), (1,))
        assert res.spec.m == 1 and res.spec.eps == 0
        assert res.spec.t_positions == (1,)
        assert res.spec.vertex_set == (1, 2, 4, 5, 10)
        assert res.spec.f_triples == ((1, 3, 4),)
        assert res.host.n == 12
        assert res.member.n == 5
        assert res.member.color((1, 3, 4)) == 0

    def test_reference_case(self):
        res = make_disobedient(26, (1, 2, 6, 7, 9), (2, 3, 4, 6, 8))
        assert res.host.n == 64
        assert len(res.spec.vertex_set) == 26
        assert res.spec.t_positions == (2, 3, 7, 9, 12)
        assert res.spec.f_triples == ((1, 13, 14), (2, 15, 16), (6, 17, 18),
                                      (7, 20, 21), (9, 23, 24))
        for e in res.spec.f_triples:
            assert res.member.color(e) == 0

    def test_marked_triple_formula(self):
        res = make_disobedient(12, (1, 4), (2, 3), host_r=8)
        m, eps = res.spec.m, res.spec.eps
        assert (m, eps) == (2, 2)
        for i, (a, b) in enumerate(zip(res.spec.a_set, res.spec.b_set),
                                   start=1):
            want = (a, 2 * m + eps + b + i - 1, 2 * m + eps + b + i)
            assert res.spec.f_triples[i - 1] == want

    def test_layout_partitions_the_slots(self):
        # c_0 d_0 t_1 c_1 d_1 ... t_m c_m d_m runs through [1, r] in order,
        # |c_i| is the gap alpha_i of A and |d_i| the gap beta_i of B
        from itertools import combinations
        for m in (1, 2, 3):
            bs = list(combinations(range(1, 2 * m + 1), m))
            for eps in range(5):
                n = 5 * m + eps
                for j, A in enumerate(combinations(range(1, 2 * m + eps + 1), m)):
                    if m == 3 and j % 10:
                        continue
                    B = bs[j % len(bs)]
                    spec = make_disobedient(n, A, B).spec
                    assert spec.n == n
                    slots = list(spec.c_blocks[0] + spec.d_blocks[0])
                    for i in range(m):
                        slots += [spec.t_positions[i], *spec.c_blocks[i + 1],
                                  *spec.d_blocks[i + 1]]
                    assert slots == list(range(1, 3 * m + eps + 1))
                    af = (0,) + A + (2 * m + eps + 1,)
                    bf = (0,) + B + (2 * m + 1,)
                    for i in range(m + 1):
                        assert len(spec.c_blocks[i]) == af[i + 1] - af[i] - 1
                        assert len(spec.d_blocks[i]) == bf[i + 1] - bf[i] - 1

    def test_census_is_injective(self):
        from itertools import combinations
        members = []
        for A in combinations(range(1, 5), 2):
            for B in combinations(range(1, 5), 2):
                members.append(make_disobedient(10, A, B).member)
        assert len(members) == 36
        assert len(set(members)) == 36

    def test_host_matches_its_definition(self):
        # crossing triples (one vertex in [R]) are 1 except the marked
        # {i, R+3i-2, R+3i-1}, which are 0; every other triple is filler
        for n, A, B, host_r, filler in ((5, (1,), (1,), None, 0),
                                        (12, (1, 4), (2, 3), 9, 1),
                                        (19, (1, 4, 7), (2, 3, 6), None, 0)):
            res = make_disobedient(n, A, B, host_r, filler)
            big_r = res.host.n // 4

            def want(e):
                x, y, z = e
                if not x <= big_r < y:
                    return filler
                return 0 if (y, z) == (big_r + 3 * x - 2, big_r + 3 * x - 1) else 1

            assert res.host == Coloring.from_function(3, 2, 4 * big_r, want)
        for bad in (2, -1):
            with pytest.raises(ValueError, match=rf"^color {bad} outside 0..1$"):
                make_disobedient(12, (1, 4), (2, 3), filler=bad)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            make_disobedient(10, (1, 2), (1,))
        with pytest.raises(ValueError):
            make_disobedient(12, (1,), (1,))
        with pytest.raises(ValueError):
            make_disobedient(10, (1, 5), (1, 2))
        with pytest.raises(ValueError):
            make_disobedient(10, (1, 2), (1, 5))
        with pytest.raises(ValueError):
            make_disobedient(10, (1, 2), (1, 2), host_r=5)


class TestPairSlice:
    def test_constant(self):
        p = slice_to_pair_coloring(Coloring.constant(3, 2, 5, 0))
        assert p == Coloring.constant(2, 2, 4, 0)

    def test_reads_last_vertex_edges(self):
        c = Coloring.from_map(3, 2, 4, {(1, 2, 4): 1})
        p = slice_to_pair_coloring(c)
        assert p.color((1, 2)) == 1
        assert p.color((1, 3)) == 0 and p.color((2, 3)) == 0

    def test_distinguishes_last_vertex_colorings(self):
        c1 = Coloring.from_map(3, 2, 5, {(1, 2, 5): 1})
        c2 = Coloring.from_map(3, 2, 5, {(1, 3, 5): 1})
        assert slice_to_pair_coloring(c1) != slice_to_pair_coloring(c2)

    def test_validation(self):
        with pytest.raises(ValueError):
            slice_to_pair_coloring(Coloring.constant(2, 2, 5, 0))
        with pytest.raises(ValueError):
            slice_to_pair_coloring(Coloring.constant(3, 2, 1, 0))

    def test_block_witnesses(self):
        p = Coloring.from_map(2, 2, 6, {(1, 2): 1, (5, 6): 1})
        got = pair_wealthy_type2(p, 2)
        assert got == ((1, 2, 3), (5, 4, 6))

    def test_monochromatic_block_fails(self):
        p = Coloring.from_map(2, 2, 6, {(1, 2): 1})
        assert pair_wealthy_type2(p, 2) is None

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            pair_wealthy_type2(Coloring.constant(3, 2, 6, 0), 2)
        with pytest.raises(ValueError):
            pair_wealthy_type2(Coloring.constant(2, 2, 5, 0), 2)


class TestDiagonalPathContainments:
    @staticmethod
    def staircase_coloring(w):
        """Crossing coloring on 2m+1 vertices reading the staircase of w."""
        m = (len(w) + 1) // 2
        emb = embed_string(w, "identity")
        asg = {}
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                asg[(i, m + j, 2 * m + 1)] = emb.matrix.at(i, j)
        return Coloring.from_map(3, 2, 2 * m + 1, asg)

    def test_every_small_string_embeds(self):
        for m in (1, 2, 3):
            host = make_wealthy("W2.1", 2 * m)
            seen = set()
            for w in no_adjacent_ones(2 * m - 1):
                small = self.staircase_coloring(w)
                seen.add(small)
                assert contains(small, host) is not None, w
            fib = [1, 1]
            while len(fib) < 2 * m + 2:
                fib.append(fib[-1] + fib[-2])
            assert len(seen) == fib[2 * m]
