"""Acceptance checks: one callable per criterion, each returning a result row.

Every check recomputes its own expectations from scratch (closed forms,
brute-force enumerations, independent recurrences) rather than trusting
the modules under test, so a regression anywhere in the library turns
exactly one of these rows red.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .constructions import (Chain, chain_to_path, embed_chain, embed_string,
                            enumerate_chains, enumerate_paths,
                            make_disobedient, make_rich, make_string_coloring,
                            make_wealthy, path_to_chain)
from .core import Coloring, injection_witnesses, reverse
from .ideals import (DEFAULT_BUDGET, GrowthRecord, IdealSpec, _fits, _levels,
                     _plan, avoid_growth, builtin_members,
                     builtin_pattern_basis, census_distinct,
                     dichotomy_verdict)
from .matrices import (StarMatrix2, StarMatrix3, matrix2_from_text, metrics2,
                       metrics3)
from .rng import Lcg
from .sequences import sequence_F, sequence_G
from .structure import (WEALTHY_FAMILIES, is_r_rich, is_wealthy,
                        rich_deletions, wealthy_assignment, wealthy_size,
                        wealthy_variants)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{tag}] {self.name}: {self.detail}"


def _result(number: int, name: str, failures: list[str],
            ok_detail: str) -> CriterionResult:
    if failures:
        return CriterionResult(number, name, False, "; ".join(failures[:4]))
    return CriterionResult(number, name, True, ok_detail)


def check_sequence_tables() -> CriterionResult:
    failures = []
    want_g = (1, 1, 2, 3, 4, 6, 9, 13, 19, 28, 41)
    got_g = tuple(sequence_G(n) for n in range(1, 12))
    if got_g != want_g:
        failures.append(f"slow recurrence gave {got_g}")
    want_f = (1, 1, 2, 3, 5, 8, 13, 21)
    got_f = tuple(sequence_F(n) for n in range(1, 9))
    if got_f != want_f:
        failures.append(f"fibonacci gave {got_f}")
    return _result(1, "sequence tables", failures,
                   "G(1..11) and F(1..8) match their fixed tables")


def _composition_count(n: int, k: int) -> int:
    # j parts of size k among n - (k-1)j parts total
    return sum(comb(n - (k - 1) * j, j) for j in range(n // k + 1))


def check_interval_family_counts() -> CriterionResult:
    failures = []
    spec = IdealSpec.builtin("S", 3)
    for n in range(1, 13):
        members = builtin_members(spec, n)
        if len({m.colors for m in members}) != len(members):
            failures.append(f"duplicate members at n={n}")
        g = sequence_G(n)
        if len(members) != g:
            failures.append(f"n={n}: {len(members)} members, G={g}")
        indep = _composition_count(n, 3)
        if indep != g:
            failures.append(f"n={n}: composition count {indep} != G={g}")
    return _result(2, "disjoint-interval family counts", failures,
                   "enumeration = recurrence = composition count, n <= 12")


def check_single_interval_counts() -> CriterionResult:
    failures = []
    spec = IdealSpec.builtin("lineartight", 3)
    for n in range(3, 13):
        members = builtin_members(spec, n)
        if len(members) != n - 1:
            failures.append(f"n={n}: {len(members)} members, wanted {n - 1}")
        if len({m.colors for m in members}) != len(members):
            failures.append(f"duplicate members at n={n}")
    return _result(3, "single-marked-interval counts", failures,
                   "|X_n| = n - 1 for n = 3..12")


def check_initial_pair_counts() -> CriterionResult:
    failures = []
    spec = IdealSpec.builtin("w1tight", 3)
    for n in range(2, 11):
        members = builtin_members(spec, n)
        if len(members) != 2 ** (n - 2):
            failures.append(f"n={n}: {len(members)} members")
        if len({m.colors for m in members}) != len(members):
            failures.append(f"duplicate members at n={n}")
    return _result(4, "initial-pair family counts", failures,
                   "|X_n| = 2^(n-2) for n = 2..10")


def check_reference_selections() -> CriterionResult:
    failures = []
    emb = embed_string("0100101", "identity")
    if (emb.host_order, emb.rows, emb.cols) != \
            (8, (2, 4, 5, 7), (1, 2, 5, 7)):
        failures.append("staircase selection in the order-8 identity moved")
    host = StarMatrix2.identity(emb.host_order)
    if host.submatrix(emb.rows, emb.cols).entries != emb.matrix.entries:
        failures.append("identity-mode submatrix check failed")

    emb2 = embed_string("01110", "upper")
    if (emb2.host_order, emb2.rows, emb2.cols) != (9, (3, 4, 9), (1, 4, 7)):
        failures.append("staircase selection in the order-9 upper host moved")
    host2 = StarMatrix2.upper(emb2.host_order)
    if host2.submatrix(emb2.rows, emb2.cols).entries != emb2.matrix.entries:
        failures.append("upper-mode submatrix check failed")

    ch = Chain(9, ((1, 2), (3, 4), (4, 6), (8, 8)))
    emb3 = embed_chain(ch)
    if emb3.host_order != 15:
        failures.append(f"chain host order {emb3.host_order}")
    if emb3.aug_rows != (2, 4, 5, 7, 9, 10, 11, 12, 14, 15) or \
            emb3.aug_cols != (1, 2, 3, 5, 6, 7, 8, 12, 13, 15):
        failures.append("chain selection moved")
    aug = StarMatrix2.identity(15).submatrix(emb3.aug_rows, emb3.aug_cols)
    if aug.entries != ch.padded().entries:
        failures.append("chain submatrix check failed")

    sc = make_string_coloring("01010001010", 1, 13)
    want_s = (1, 17, 20, 21, 26, 27, 32, 35, 38, 39, 44, 45, 50)
    if sc.vertex_set != want_s:
        failures.append(f"string restriction picked {sc.vertex_set}")
    if not injection_witnesses(sc.member, sc.host, sc.vertex_set):
        failures.append("string restriction containment check failed")

    dd = make_disobedient(26, (1, 2, 6, 7, 9), (2, 3, 4, 6, 8))
    if dd.host.n != 64 or len(dd.spec.vertex_set) != 26:
        failures.append(f"two-set restriction host {dd.host.n}, "
                        f"|S|={len(dd.spec.vertex_set)}")
    if not injection_witnesses(dd.member, dd.host, dd.embedding):
        failures.append("two-set restriction containment check failed")
    return _result(5, "reference selections", failures,
                   "all five fixed embeddings reproduce and validate")


def _random_matrix2(rng: Lcg, max_dim: int) -> StarMatrix2:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return StarMatrix2(rows, cols, tuple(
        tuple(rng.bit() for _ in range(cols)) for _ in range(rows)))


def _random_matrix3(rng: Lcg, max_dim: int) -> StarMatrix3:
    dims = tuple(rng.randint(1, max_dim) for _ in range(3))
    return StarMatrix3.build(dims, lambda i, j, k: rng.bit())


def check_alternation_inequalities(seed: int = 0) -> CriterionResult:
    failures = []
    rng = Lcg(601 + seed)
    for trial in range(10_000):
        met = metrics2(_random_matrix2(rng, 12))
        nr, nc = len(met.r_set), len(met.c_set)
        lam = met.al - 1
        if nr > lam * (2 * nc + 1) or nc > lam * (2 * nr + 1):
            failures.append(f"flat bound broken at trial {trial}")
            break
    rng = Lcg(602 + seed)
    for trial in range(1_000):
        met = metrics3(_random_matrix3(rng, 8))
        nr, nc, ns = len(met.r_set), len(met.c_set), len(met.s_set)
        lam = met.al - 1
        if nr > lam * (max(nc, ns) + 1) ** 2 or \
                nc > lam * (max(nr, ns) + 1) ** 2 or \
                ns > lam * (max(nr, nc) + 1) ** 2:
            failures.append(f"deep bound broken at trial {trial}")
            break
    return _result(6, "alternation inequalities", failures,
                   "10^4 flat + 10^3 deep random matrices, zero violations")


def check_chain_path_bijection() -> CriterionResult:
    failures = []
    for m in range(1, 7):
        chains = list(enumerate_chains(m))
        paths = list(enumerate_paths(m))
        if len(chains) != comb(2 * m, m) or len(paths) != comb(2 * m, m):
            failures.append(f"m={m}: {len(chains)} chains, {len(paths)} paths")
        if any(path_to_chain(chain_to_path(c)) != c for c in chains):
            failures.append(f"m={m}: round trip broke")
        if any(chain_to_path(path_to_chain(p)) != p for p in paths):
            failures.append(f"m={m}: reverse round trip broke")
        if m >= 2:
            shrunk = sum(
                1 for c in chains
                if all(p[0] != m and p[1] != m for p in c.points))
            if shrunk != comb(2 * m - 2, m - 1):
                failures.append(f"m={m}: corner-free subcount {shrunk}")
    return _result(7, "chain and corner-walk bijection", failures,
                   "counts C(2m,m) and exact round trips, m <= 6")


def check_embedding_sweeps() -> CriterionResult:
    failures = []
    for length in (1, 3, 5, 7):
        for t in product("01", repeat=length):
            s = "".join(t)
            n = (length + 1) // 2
            a = [int(s[2 * i]) for i in range(n)]
            b = [int(s[2 * i + 1]) for i in range(n - 1)]
            if "11" not in s:
                emb = embed_string(s, "identity")
                host = StarMatrix2.identity(emb.host_order)
                got = host.submatrix(emb.rows, emb.cols)
                if got.entries != emb.matrix.entries:
                    failures.append(f"identity embed lost {s}")
                if any(emb.matrix.at(i, i) != a[i - 1]
                       for i in range(1, n + 1)) or \
                        any(emb.matrix.at(i, i + 1) != b[i - 1]
                            for i in range(1, n)):
                    failures.append(f"staircase entries wrong for {s}")
            ok_upper = not (
                any(a[i] == 1 and b[i] == 0 for i in range(n - 1)) or
                any(b[i] == 0 and a[i + 1] == 1 for i in range(n - 1)))
            if ok_upper:
                emb = embed_string(s, "upper")
                host = StarMatrix2.upper(emb.host_order)
                if host.submatrix(emb.rows, emb.cols).entries \
                        != emb.matrix.entries:
                    failures.append(f"upper embed lost {s}")
    for m in range(1, 6):
        for ch in enumerate_chains(m):
            emb = embed_chain(ch)
            k = len(ch.points)
            aug = StarMatrix2.identity(emb.host_order)
            if aug.submatrix(emb.aug_rows, emb.aug_cols).entries \
                    != ch.padded().entries:
                failures.append(f"chain embed lost {ch}")
            bare = StarMatrix2.identity(2 * m - k)
            if bare.submatrix(emb.rows, emb.cols).entries \
                    != ch.indicator().entries:
                failures.append(f"bare chain embed lost {ch}")
    return _result(8, "exhaustive small embeddings", failures,
                   "all strings (length <= 7) and chains (m <= 5) verified")


def check_wealthy_round_trips() -> CriterionResult:
    failures = []
    for fam in WEALTHY_FAMILIES:
        for r in range(1, 6):
            for v in wealthy_variants(fam, r):
                c = Coloring.from_map(3, 2, wealthy_size(fam, r),
                                      wealthy_assignment(fam, r, v))
                w = is_wealthy(c, fam, r, v)
                if w is None or w.variant != v:
                    failures.append(f"{fam} r={r} variant lost")
                    break
                if is_wealthy(c, fam, r) is None:
                    failures.append(f"{fam} r={r} scan missed a member")
                    break
        canonical = make_wealthy(fam, 3)
        if fam in ("W1'", "W1''", "W4.1", "W4.2"):
            if is_wealthy(reverse(canonical), fam, 3) is None:
                failures.append(f"{fam} not closed under reversal")
        else:
            for v in wealthy_variants(fam, 3):
                img = Coloring.from_map(3, 2, canonical.n,
                                        wealthy_assignment(fam, 3, v))
                if is_wealthy(img, fam, 3) is None:
                    failures.append(f"{fam} variant image rejected")
                    break
    return _result(9, "wealthy family round trips", failures,
                   "every variant recognized, closures hold, r <= 5")


def check_row_alternation_example() -> CriterionResult:
    failures = []
    m = matrix2_from_text("matrix2 r=1 s=13\n00011**11*010\n")
    met = metrics2(m)
    if met.r_set != (3, 11, 12):
        failures.append(f"row contributed {met.r_set}")
    return _result(10, "worked row example", failures,
                   "row 00011**11*010 alternates at columns {3, 11, 12}")


def _window_bases() -> list[Coloring]:
    """The 16 four-vertex bases, k=3, l=2: edge i of base bits has bit i."""
    return [Coloring(3, 2, 4, tuple(bits >> i & 1 for i in range(4)))
            for bits in range(16)]


def check_dichotomy_window() -> CriterionResult:
    failures = []
    for bits, base in enumerate(_window_bases()):
        counts, exact, _ = avoid_growth([base], 3, 2, 6)
        rec = GrowthRecord(IdealSpec.avoid([base]).digest(), 3, counts,
                           exact, 0)
        v = dichotomy_verdict(rec, "constant")
        if v.classification == "violation":
            failures.append(f"base {bits:04b} violates the window shape")
        if not exact.get(6):
            failures.append(f"base {bits:04b} did not finish n=6")
    return _result(11, "dichotomy window scan", failures,
                   "16 single-coloring bases, exact n <= 6, no violations")


def check_deletion_and_string_censuses() -> CriterionResult:
    failures = []
    for r in range(4, 8):
        for f in range(3):
            for g in range(1, 4 - f):
                h = 3 - f - g
                c = make_rich(3, r, f, g, h)
                dels = rich_deletions(c, r, f, g, h)
                if census_distinct(dels) != r - 1:
                    failures.append(f"deletions collide at r={r} "
                                    f"shape ({f},{g},{h})")
    for n in range(2, 19):
        length = n - 2
        strings = ["".join(t) for t in product("01", repeat=length)]
        no00 = sum("00" not in s for s in strings)
        no11 = sum("11" not in s for s in strings)

        def blocked(s, first, second):
            # forbids `first` starting at odd 1-based positions and
            # `second` starting at even ones
            for i in range(len(s) - 1):
                pat = s[i:i + 2]
                if i % 2 == 0 and pat == first:
                    return True
                if i % 2 == 1 and pat == second:
                    return True
            return False

        parity_a = sum(not blocked(s, "01", "10") for s in strings)
        parity_b = sum(not blocked(s, "10", "01") for s in strings)
        fn = sequence_F(n)
        if not no00 == no11 == parity_a == parity_b == fn:
            failures.append(
                f"n={n}: counts {no00},{no11},{parity_a},{parity_b} vs {fn}")
    for n in range(1, 41):
        fn, gn = sequence_F(n), sequence_G(n)
        if not 2 ** n > fn >= gn:
            failures.append(f"n={n}: ordering broke")
        if n > 4 and fn <= gn:
            failures.append(f"n={n}: strictness broke")
    return _result(12, "deletion and string censuses", failures,
                   "deletions distinct r<=7; string counts hit F_n; "
                   "F_n > G_n for 4 < n <= 40")


def check_parallel_determinism() -> CriterionResult:
    # counts never depend on how a level is computed: the paths _plan
    # picks, lanes wherever they fit and no lanes must agree.  The row
    # keeps its name and summary, and with them verify's output bytes.
    failures = []
    pats = builtin_pattern_basis(IdealSpec.builtin("S", 3))
    counts = avoid_growth(pats, 3, 2, 12)[0]
    if [counts[n] for n in range(1, 13)] != \
            [sequence_G(n) for n in range(1, 13)]:
        failures.append("interval-family recount off the recurrence")
    cases = [("interval-family recount", pats, 12)] + [
        (f"window base {bits:04b}", [base], 6)
        for bits, base in enumerate(_window_bases())]
    for name, basis, n_max in cases:
        runs = [list(_levels(basis, 3, 2, n_max, DEFAULT_BUDGET, False, plan))
                for plan in (_plan, _fits, lambda *shape: (0, 0))]
        if any(run != runs[0] for run in runs):
            failures.append(f"{name} differs between paths")
    return _result(13, "parallel determinism", failures,
                   "worker count never changes any reported count")


ALL_CRITERIA = (
    check_sequence_tables,
    check_interval_family_counts,
    check_single_interval_counts,
    check_initial_pair_counts,
    check_reference_selections,
    check_alternation_inequalities,
    check_chain_path_bijection,
    check_embedding_sweeps,
    check_wealthy_round_trips,
    check_row_alternation_example,
    check_dichotomy_window,
    check_deletion_and_string_censuses,
    check_parallel_determinism,
)


def run_one(number: int, seed: int = 0) -> CriterionResult:
    if not 1 <= number <= len(ALL_CRITERIA):
        raise ValueError(f"criterion number must be in 1..{len(ALL_CRITERIA)}")
    fn = ALL_CRITERIA[number - 1]
    if fn is check_alternation_inequalities:
        return fn(seed)
    return fn()


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [run_one(i, seed) for i in range(1, len(ALL_CRITERIA) + 1)]
