"""Structural classifiers for colored triple systems.

Everything here inspects a single coloring and either certifies a shape
(rich, simple, wealthy, tame) or reports how the shape fails; the tame
census counts the tame colorings of a small [n].  The shapes are
parametrized families; recognizers scan a fixed canonical order of
symmetry variants so that recognition is deterministic and the returned
witness pins down which variant matched.

Most of the module is specific to k = 3 (triples) with two colors; the
rich and simple classifiers work for any uniformity.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations, permutations, product
from math import comb
from typing import Optional, Sequence

from .core import (Coloring, Edge, _rank_table, edge_index, homogeneity,
                   parse_fields, restrict_normalize)
from .matrices import StarMatrix3


class SizeMismatchError(ValueError):
    """Coloring has the wrong vertex count for the requested shape."""


# --- nuclear decomposition ----------------------------------------------------


@dataclass(frozen=True)
class NuclearDecomposition:
    """Greedy split of [n] into maximal homogeneous intervals.

    intervals are inclusive (start, end) pairs covering [n] left to right;
    colors holds each interval's single internal color, None when the
    interval is too short to contain an edge.  Every interval except
    possibly the last stops because adjoining the next vertex would break
    homogeneity, so internal intervals always span at least one edge.
    """

    intervals: tuple[tuple[int, int], ...]
    colors: tuple[Optional[int], ...]

    @property
    def length(self) -> int:
        return len(self.intervals)


def nuclear_decomposition(c: Coloring) -> NuclearDecomposition:
    """Left-to-right greedy: each part is the longest homogeneous run.

    Colors are read from c.colors by the lexicographic rank of the core
    module docstring.  For a sorted (k-1)-set R of [n], the edges R + (w,)
    with w > max R have the consecutive ranks offset(R) + w, the last term
    of the rank being T[k-1][w] = n - w.  A part [start, end] keeps the
    offsets of every (k-1)-set inside it, so trying the next vertex reads
    one entry per set.
    """
    n, k, colors = c.n, c.k, c.colors
    t = _rank_table(n, k)
    top = t[0][0] - 1 - n

    def offset(rest: Edge) -> int:
        return top - sum(map(tuple.__getitem__, t, rest))

    parts: list[tuple[int, int]] = []
    cols: list[Optional[int]] = []
    start = 1
    while start <= n:
        end = start
        col: Optional[int] = None
        offsets = [offset(rest) for rest in combinations((start,), k - 1)]
        while end < n:
            nxt = end + 1
            tentative = col
            broke = False
            for off in offsets:
                cc = colors[off + nxt]
                if tentative is None:
                    tentative = cc
                elif cc != tentative:
                    broke = True
                    break
            if broke:
                break
            col = tentative
            end = nxt
            offsets += [offset(rest + (nxt,))
                        for rest in combinations(range(start, nxt), k - 2)]
        parts.append((start, end))
        cols.append(col)
        start = end + 1
    return NuclearDecomposition(tuple(parts), tuple(cols))


def crossing_matrix(c: Coloring, x: Sequence[int], y: Sequence[int],
                    z: Sequence[int]) -> StarMatrix3:
    """Three-dimensional color matrix of a vertex-set triple.

    Entry (i, j, k) is the color of {x_i, y_j, z_k}; when the three
    vertices are not pairwise distinct the entry is a star.  The sets may
    overlap arbitrarily.
    """
    if c.k != 3:
        raise ValueError("crossing matrices need k = 3")
    xs, ys, zs = sorted(set(x)), sorted(set(y)), sorted(set(z))
    for vs in (xs, ys, zs):
        if not vs:
            raise ValueError("base sets must be nonempty")
        if vs[0] < 1 or vs[-1] > c.n:
            raise ValueError(f"base set not inside [{c.n}]")
    return StarMatrix3(len(xs), len(ys), len(zs), tuple(
        tuple(tuple(c.color((a, b, d)) if len({a, b, d}) == 3 else None
                    for d in zs)
              for b in ys)
        for a in xs))


# Two entries (0, 1 or 2 = star) XOR to 1 exactly at an alternation, and
# _lines ORs 4 into the last entry of every line.  The table keeps the 1s
# and turns each marked entry (4..7) into the separator 4; the deletion
# drops 0, 2 and 3.
_ALTERNATIONS = bytes(1 if v == 1 else 4 if v >= 4 else 0 for v in range(256))


def _lines(b: int, size: int, s: int, length: int) -> bytes:
    """Every line of stride s and the given length of a matrix held as the
    int b (byte p = entry p), one after another: each entry XOR the next
    one on its line, the last entry marked."""
    ends = (bytes(s * (length - 1)) + b"\4" * s) * (size // (s * length))
    d = ((b ^ b >> 8 * s) | int.from_bytes(ends, "little")).to_bytes(size, "little")
    return b"".join([d[q::s] for q in range(s)])


def _crossing_sizes(cb, t, xs: range, ys: range,
                    zs: range) -> tuple[int, int, int]:
    """al, |r_set| and |c_set| of metrics3(crossing_matrix(c, xs, ys, zs)).

    cb holds c's colours, one byte per edge rank and 2 for an unspecified
    edge; t is _rank_table(n, 3).  The intervals come in a tame shape:
    xs < ys < zs, xs = ys < zs or xs < ys = zs.  The matrix is one byte per
    entry (2 = star), entry (i, j, k) at byte (i*|ys| + j)*|zs| + k.  An
    edge x < y < z has rank C(n,3) - 1 - t0[x] - t1[y] - (n - z), so a
    shaft's entries with z above x and y are one slice of cb; for ys = zs
    the entries with z < y mirror those with z > y.  A line's alternations
    are the 1s of the matrix XOR itself shifted by the line's stride.
    """
    nx, ny, nz = len(xs), len(ys), len(zs)
    t0, t1 = t[0], t[1]
    off = t0[0] - len(t0) + zs[0]  # (x, y, z): off - t0[x] - t1[y] + z - zs[0]
    size = nx * ny * nz
    star = b"\2" * nz
    if ys[0] < zs[0]:
        buf = b"".join([cb[(s := off - t0[x] - t1[y]):s + nz] if x < y
                        else cb[(s := off - t0[y] - t1[x]):s + nz] if y < x
                        else star for x in xs for y in ys])
    else:  # the entries with z > y, stars below
        buf = b"".join([star[:(d := y + 1 - zs[0])]
                        + cb[(s := off - t0[x] - t1[y]) + d:s + nz]
                        for x in xs for y in ys])
    if 0 not in buf or 1 not in buf:  # no line can alternate
        return 1, 0, 0
    b = int.from_bytes(buf, "little")
    if ys[0] == zs[0]:
        plane = nz * nz
        lower = b"".join([buf[q:q + plane:nz] for i in range(0, size, plane)
                          for q in range(i, i + nz)])
        # each entry is a star on at least one side, and 2 ^ 2 ^ 2 = 2
        b ^= (int.from_bytes(lower, "little")
              ^ int.from_bytes(b"\2" * size, "little"))
    rows = _lines(b, size, ny * nz, nx)
    cols = _lines(b, size, nz, ny)
    most = max(map(len, (rows + cols + _lines(b, size, 1, nz)).translate(
        _ALTERNATIONS, b"\0\2\3").split(b"\4")))
    return (most + 1, sum(1 in rows[a::nx] for a in range(nx - 1)),
            sum(1 in cols[a::ny] for a in range(ny - 1)))


# --- tameness -----------------------------------------------------------------


@dataclass(frozen=True)
class TameViolation:
    """First failure found for one tameness condition.

    intervals holds the 1-based indices of the nuclear intervals whose
    crossing matrix misbehaved (empty for the decomposition-length
    condition); metric names the offending quantity.
    """

    condition: int
    intervals: tuple[int, ...]
    metric: str
    value: int


@dataclass(frozen=True)
class TameReport:
    p: int
    conditions: tuple[bool, bool, bool, bool, bool]
    witness: Optional[TameViolation]

    @property
    def tame(self) -> bool:
        return all(self.conditions)


def is_p_tame(c: Coloring, p: int) -> TameReport:
    """Bounded-complexity test against the nuclear decomposition.

    Five conditions, all relative to the threshold p: (1) at most p nuclear
    intervals; (2) crossing matrices of interval triples have alternation
    number at most p; (3) those matrices have at most p row and column
    alternation positions; (4) and (5) the same two bounds for the doubled
    matrices of interval pairs.  All five are evaluated in full; the witness
    is the first violation in condition-then-lexicographic order.  The
    metrics are read by _crossing_sizes (a pattern's None is a star).
    """
    if c.k != 3 or c.l != 2:
        raise ValueError("tameness is defined for k = 3, l = 2")
    if p < 3:
        raise ValueError("threshold p must be at least 3")
    nd = nuclear_decomposition(c)
    ivs = [range(a, b + 1) for a, b in nd.intervals]
    try:
        cb = bytes(c.colors)
    except TypeError:  # a pattern: its unspecified edges are stars
        cb = bytes(2 if x is None else x for x in c.colors)
    t = _rank_table(c.n, 3)
    s = len(ivs)
    conds = [True] * 5
    firsts: list[Optional[TameViolation]] = [None] * 5

    def record(cond: int, which: tuple[int, ...], metric: str, value: int):
        conds[cond - 1] = False
        if firsts[cond - 1] is None:
            firsts[cond - 1] = TameViolation(cond, which, metric, value)

    if s > p:
        record(1, (), "length", s)

    pairs = (idx for u, v in combinations(range(1, s + 1), 2)
             for idx in ((u, u, v), (u, v, v)))
    # conditions 2 and 3 read the interval triples, 4 and 5 the pairs
    for cond, idxs in ((2, combinations(range(1, s + 1), 3)), (4, pairs)):
        for idx in idxs:
            al, rows, cols = _crossing_sizes(cb, t,
                                             *(ivs[i - 1] for i in idx))
            if al > p:
                record(cond, idx, "al", al)
            if rows > p:
                record(cond + 1, idx, "rows", rows)
            if cols > p:
                record(cond + 1, idx, "cols", cols)

    witness = next((w for w in firsts if w is not None), None)
    return TameReport(p, tuple(conds), witness)


def count_p_tame(n: int, p: int) -> int:
    """Exhaustive count of p-tame two-colorings of [n], n <= 6, summed over
    the end a of the first nuclear interval A = [1, a].

    [1, 3] holds one edge, so it is always homogeneous and a >= 3.  For
    n <= 6 the rest B = [a+1, n] then has at most three vertices and at
    most one edge, so it is the second and last interval.  Two intervals
    meet conditions 1-3; 4 and 5 read the doubled crossing matrices
    M_{A,A,B} and M_{A,B,B}, whose cells are disjoint sets of cross edges.
    A coloring with split a is a colour c inside A, a tame key of each
    matrix, the AAB key with some edge (x, y, a+1) not of colour c (the
    greedy break), and any colours inside B:

        count = 2 + sum over a = 3..n-1 of N_AAB(a) * N_ABB(a) * 2^C(n-a, 3)

    The 2 is the two constant colorings (a = n).  A tame AAB key counts
    once for each c its break edges do not all match, which is the number
    of distinct colours among them.  The keys come from _tame_split_tables,
    built once per (n, a) for every p, which reads each key's metrics from
    a colour buffer without building the matrix.
    """
    if p < 3:
        raise ValueError("threshold p must be at least 3")
    if not 1 <= n <= 6:
        raise ValueError("exhaustive census capped at n <= 6")
    if n < 3:
        return 1
    total = 2
    for a in range(3, n):
        aab, abb = _tame_split_tables(n, a)
        n_aab = sum(cnt for size, cnt in aab.items() if size <= p)
        n_abb = sum(cnt for size, cnt in abb.items() if size <= p)
        total += n_aab * n_abb * 2 ** comb(n - a, 3)
    return total


@lru_cache(maxsize=None)  # at most six (n, a) pairs: 3 <= a < n <= 6
def _tame_split_tables(n: int, a: int) -> tuple[dict[int, int],
                                                dict[int, int]]:
    """count_p_tame's keys of the split a, tallied by the least p that
    finds them tame.

    A key meets conditions 4 and 5 exactly when the largest of al,
    |r_set| and |c_set| of its matrix is at most p, so that largest value
    does not depend on p.  The first table maps it to the summed number
    of break colours of the M_{A,A,B} keys that have it, the second to
    the number of M_{A,B,B} keys that have it.  Bit i of a key is the
    colour of the i-th cell; the keys are written by rank into one colour
    buffer and read back by _crossing_sizes.
    """
    xs, zs = range(1, a + 1), range(a + 1, n + 1)
    t = _rank_table(n, 3)
    cb = bytearray(comb(n, 3))

    def tally(ys: range) -> dict[int, int]:
        # every colouring of the cells of M_{A,ys,B}
        cells = sorted({tuple(sorted(e)) for e in product(xs, ys, zs)
                        if len(set(e)) == 3})
        ranks = [edge_index(e, n, 3) for e in cells]
        brk = sum(1 << i for i, e in enumerate(cells) if e[2] == a + 1)
        table: dict[int, int] = {}
        for key in range(1 << len(cells)):
            for i, r in enumerate(ranks):
                cb[r] = key >> i & 1
            size = max(_crossing_sizes(cb, t, xs, ys, zs))
            hit = key & brk  # M_{A,B,B} has no break edge: weight 1
            table[size] = table.get(size, 0) + ((hit != 0) + (hit != brk) or 1)
        return table

    return tally(xs), tally(zs)


# --- richness -----------------------------------------------------------------


@dataclass(frozen=True)
class RichWitness:
    """Sliding-window shape: r - k + 1 equal windows, then one that differs.

    The window E_i keeps f fixed left vertices, a sliding middle block of
    g vertices offset by i, and h fixed right vertices.
    """

    r: int
    f: int
    g: int
    h: int
    colors: tuple[int, int]
    edges: tuple[Edge, ...]


def rich_window_edges(k: int, r: int, f: int, g: int, h: int) -> tuple[Edge, ...]:
    """The r - k + 2 window edges of shape (f, g, h) on [2r - k + 1]."""
    if min(f, h) < 0 or g < 1 or f + g + h != k:
        raise ValueError(f"bad window shape ({f},{g},{h}) for k={k}")
    if r < k:
        raise ValueError("window shapes need r >= k")
    n = 2 * r - k + 1
    fixed_left = tuple(range(1, f + 1))
    fixed_right = tuple(range(n - h + 1, n + 1))
    out = []
    for i in range(1, r - k + 3):
        out.append(fixed_left + tuple(range(f + i, f + g + i)) + fixed_right)
    return tuple(out)


def is_r_rich(c: Coloring, r: int) -> Optional[RichWitness]:
    """First window shape, in (f, g, h) order, realizing the rich pattern."""
    k = c.k
    if r < k or c.n != 2 * r - k + 1:
        return None
    for f in range(k):
        for g in range(1, k - f + 1):
            h = k - f - g
            edges = rich_window_edges(k, r, f, g, h)
            a = c.color(edges[0])
            if any(c.color(e) != a for e in edges[1:-1]):
                continue
            b = c.color(edges[-1])
            if b == a:
                continue
            return RichWitness(r, f, g, h, (a, b), edges)
    return None


def rich_deletions(c: Coloring, r: int, f: int, g: int, h: int) -> list[Coloring]:
    """Smaller colorings obtained by deleting j middle-left and the matching
    number of middle-right vertices, j = 0 .. r - k + 1.

    Applied to a coloring carrying the (f, g, h) rich pattern these are
    pairwise distinct, which is what makes rich colorings force growth.
    """
    k = c.k
    n = c.n
    if n != 2 * r - k + 1:
        raise SizeMismatchError(f"expected {2 * r - k + 1} vertices, got {n}")
    out = []
    for j in range(r - k + 2):
        dropped = set(range(f + 1, f + j + 1))
        right_cut = r - k + 1 - j
        dropped.update(range(n - h - right_cut + 1, n - h + 1))
        keep = [v for v in range(1, n + 1) if v not in dropped]
        out.append(restrict_normalize(c, keep))
    return out


# --- simplicity ---------------------------------------------------------------


@dataclass(frozen=True)
class SimplicityViolation:
    """How a coloring fails to be boundary-controlled.

    condition "C1": two differing edges inside the middle zone.
    condition "C2": a boundary-anchored vertex tuple whose color depends on
    the choice of deep-middle completion vertex.
    """

    condition: str
    edges: Optional[tuple[Edge, Edge]] = None
    vertices: Optional[tuple[int, ...]] = None
    pivots: Optional[tuple[int, int]] = None
    colors: Optional[tuple[int, int]] = None


def is_c_simple(c: Coloring, cpar: int) -> Optional[SimplicityViolation]:
    """None when the coloring is controlled by its cpar-vertex boundary.

    Two requirements for n > 2*cpar + k: the middle [cpar+1, n-cpar] is
    homogeneous, and any k-1 distinct vertices whose first member sits in
    the boundary give the same color no matter which deep-middle vertex
    completes them.  Small colorings pass vacuously.

    Colors are read from c.colors by the lexicographic rank of the core
    module docstring.  For a sorted (k-1)-set S and a vertex w that would
    sit at position j of the sorted edge S + {w}, the rank is offs[j] -
    T[j][w]: S's members below w keep their positions, those above move
    up by one.
    """
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
    colors = c.colors
    t = _rank_table(n, k)
    top = t[0][0] - 1
    boundary = list(range(1, cpar + 1)) + list(range(n - cpar + 1, n + 1))
    wlo, whi = 2 * cpar + 1, n - 2 * cpar
    for v1 in boundary:
        others = [u for u in range(1, n + 1) if u != v1]
        for rest in combinations(others, k - 2):
            vs = (v1,) + rest
            srt = sorted(vs)
            offs = [top - sum(map(tuple.__getitem__, t, srt[:j]))
                    - sum(map(tuple.__getitem__, t[j + 1:], srt[j:]))
                    for j in range(k)]
            ref_w = ref_col = None
            for w in range(wlo, whi + 1):
                j = bisect_left(srt, w)
                if j < k - 1 and srt[j] == w:
                    continue
                col = colors[offs[j] - t[j][w]]
                if ref_w is None:
                    ref_w, ref_col = w, col
                elif col != ref_col:
                    return SimplicityViolation("C2", vertices=vs,
                                               pivots=(ref_w, w),
                                               colors=(ref_col, col))
    return None


# --- wealthy families ---------------------------------------------------------
#
# Nine families of colorings on r, 2r+1, 3r, 3r+1 or 4r vertices.  Each is
# closed under a small symmetry group; the group elements are enumerated as
# explicit variants so recognition can report which image matched.


@dataclass(frozen=True)
class WealthyVariant:
    """One symmetry image of a wealthy family's defining shape.

    Each family reads only the fields that its entry in ``_WEALTHY`` lists;
    the others keep their defaults.  That table also gives each field's
    values in scan order and its key in the variant text.
    """

    swap: bool = False
    reversals: tuple[bool, ...] = ()
    perm: tuple[int, ...] = ()
    reverse: bool = False
    block_swap: bool = False
    colors: Optional[tuple[int, int]] = None


_FLAG = (False, True)
_COLORS = ("colors", "colors", ((0, 1), (1, 0)))
_REV = ("rev", "reverse", _FLAG)


def _block_fields(blocks: int) -> tuple:
    return (("swap", "swap", _FLAG),
            ("rev", "reversals", tuple(product(_FLAG, repeat=blocks))),
            ("perm", "perm", tuple(permutations((1, 2, 3)))))


# family -> (a, b, fields): a member has n = a*r + b vertices, and the
# variants are the product of the field values, first field outermost.  A
# field is (text key, WealthyVariant attribute, values in scan order).
_WEALTHY = {
    "W1'": (1, 0, (_COLORS, _REV)),
    "W1''": (1, 0, (_COLORS,)),
    "W2.1": (2, 1, _block_fields(2)),
    "W2.2": (2, 1, _block_fields(2)),
    "W3.1": (3, 0, _block_fields(3)),
    "W3.2": (3, 0, _block_fields(3)),
    "W3.3": (3, 1, (_REV,)),
    "W4.1": (4, 0, ()),
    "W4.2": (4, 0, (_REV, ("blockswap", "block_swap", _FLAG))),
}

WEALTHY_FAMILIES = tuple(_WEALTHY)


def _family(family: str) -> tuple:
    if family not in _WEALTHY:
        raise ValueError(f"unknown wealthy family {family!r}")
    return _WEALTHY[family]


def _field_text(x) -> str:
    return "".join(map(_field_text, x)) if isinstance(x, tuple) else str(int(x))


@cache
def _variant_texts(family: str) -> dict[WealthyVariant, str]:
    """Every variant of the family in scan order, mapped to its text."""
    _, _, fields = _family(family)
    out = {}
    for values in product(*(vals for _, _, vals in fields)):
        v = WealthyVariant(**{attr: x for (_, attr, _), x in zip(fields, values)})
        out[v] = ",".join(f"{key}:{_field_text(x)}"
                          for (key, _, _), x in zip(fields, values)) or "plain"
    return out


@cache
def _text_variants(family: str) -> dict[str, WealthyVariant]:
    return {text: v for v, text in _variant_texts(family).items()}


def wealthy_size(family: str, r: int) -> int:
    if r < 1:
        raise ValueError("family parameter r must be >= 1")
    a, b, _ = _family(family)
    return a * r + b


def wealthy_variants(family: str, r: int) -> tuple[WealthyVariant, ...]:
    """All symmetry variants of a family, in canonical scan order."""
    wealthy_size(family, r)
    return tuple(_variant_texts(family))


def variant_to_text(family: str, v: WealthyVariant) -> str:
    """The variant's text; ValueError for a variant the family lacks."""
    text = _variant_texts(family).get(v)
    if text is None:
        raise ValueError(f"{v} is not a {family} variant")
    return text


def variant_from_text(family: str, text: str) -> WealthyVariant:
    """Variant from its key:value fields, in any order, each exactly once."""
    variants = _text_variants(family)
    if text not in variants:
        _, _, fields = _family(family)
        keys = tuple(key for key, _, _ in fields)
        kv = parse_fields(text.split(","), keys, ":")
        canonical = ",".join(f"{key}:{kv[key]}" for key in keys)
        if canonical not in variants:
            raise ValueError(f"no {family} variant {text!r}")
        text = canonical
    return variants[text]


def _block_starts(sizes: tuple[int, ...], perm: tuple[int, ...]) -> dict[int, int]:
    # perm lists the old block numbers in their new left-to-right order
    starts = {}
    pos = 1
    for b in perm:
        starts[b] = pos
        pos += sizes[b - 1]
    return starts


def _groups(family: str, r: int, v: WealthyVariant):
    """(block, edges) for i = 1..r of a W3.3, W4.1 or W4.2 variant; a
    member needs no group's edges to share one color.

    W3.3 and W4.2 join an apex to each pair of a block (b1, b2, b3), in
    combinations(block, 2) order.  W4.1 takes the four triples of the
    quadruple 4i-3..4i and has no block.  The canonical member colors
    each group's first edge 0 and the others 1.
    """
    for i in range(1, r + 1):
        if family == "W4.1":
            yield None, combinations(range(4 * i - 3, 4 * i + 1), 3)
            continue
        block = (3 * i - 2, 3 * i - 1, 3 * i)
        if family == "W3.3":
            n = 3 * r + 1
            if v.reverse:
                apex, block = 1, tuple(n - x + 1 for x in block)
            else:
                apex = n
        elif v.block_swap:
            apex = 3 * r + (r - i + 1 if v.reverse else i)
        else:
            apex = r - i + 1 if v.reverse else i
            block = tuple(r + x for x in block)
        yield block, [tuple(sorted((apex,) + pair))
                      for pair in combinations(block, 2)]


def _unbalanced_triples(c: Coloring, groups) -> Optional[tuple]:
    """None at the first group whose edges share one color, else one
    (a, b, d) per group with a block (b1, b2, b3): (b1, b2, b3) when the
    group's first two edges differ in color, else (b2, b1, b3)."""
    color = c.color
    out = []
    for block, (e1, e2, *rest) in groups:
        col = color(e1)
        same = col == color(e2)
        if same and all(color(e) == col for e in rest):
            return None
        if block:
            b1, b2, b3 = block
            out.append((b2, b1, b3) if same else block)
    return tuple(out)


def pair_wealthy_type2(c: Coloring, r: int) -> Optional[tuple[tuple[int, int, int], ...]]:
    """Triple blocks {3i-2, 3i-1, 3i} of a pair coloring, none monochromatic.

    Returns one (a, b, c) per block with the pairs through a colored
    differently, or None when some block's three pairs share a color.
    """
    if c.k != 2:
        raise ValueError("needs a pair coloring")
    if c.n != 3 * r:
        raise SizeMismatchError(f"expected {3 * r} vertices, got {c.n}")
    blocks = ((3 * i - 2, 3 * i - 1, 3 * i) for i in range(1, r + 1))
    return _unbalanced_triples(c, ((b, combinations(b, 2)) for b in blocks))


def wealthy_assignment(family: str, r: int,
                       v: Optional[WealthyVariant] = None) -> dict[Edge, int]:
    """Edge colors pinned by a family variant.

    For the equation families (W1', W1'', W2.x, W3.1, W3.2) this is the
    full defining constraint set; membership means matching every entry.
    For the existential families (W3.3, W4.1, W4.2) it is one canonical
    satisfying assignment used by the generator: the first edge of each
    of the groups that recognition checks colored 0, the others 1.
    """
    if v is None:
        v = wealthy_variants(family, r)[0]
    variant_to_text(family, v)  # raises for a variant the family lacks
    return dict(_wealthy_cells(family, r, v))


def _wealthy_cells(family: str, r: int, v: WealthyVariant):
    """(edge, color) pairs of wealthy_assignment, generated one at a time."""
    n = wealthy_size(family, r)
    if family == "W1'":
        a, b = v.colors
        for i in range(3, r + 1):
            e = (1, 2, i)
            if v.reverse:
                e = tuple(sorted(n - x + 1 for x in e))
            yield e, a if i % 2 == 0 else b
    elif family == "W1''":
        a, b = v.colors
        for i in range(2, r):
            yield (1, i, r), a if i % 2 == 0 else b
    elif family in ("W2.1", "W2.2"):
        starts = _block_starts((r, r, 1), v.perm)
        rev1, rev2 = v.reversals
        apex = starts[3]
        for i in range(1, r + 1):
            p1 = starts[1] + (r - i if rev1 else i - 1)
            for j in range(1, r + 1):
                p2 = starts[2] + (r - j if rev2 else j - 1)
                hit = (i == j) if family == "W2.1" else (i <= j)
                yield tuple(sorted((p1, p2, apex))), int(hit) ^ int(v.swap)
    elif family in ("W3.1", "W3.2"):
        starts = _block_starts((r, r, r), v.perm)
        rev1, rev2, rev3 = v.reversals
        for i in range(1, r + 1):
            p1 = starts[1] + (r - i if rev1 else i - 1)
            p2 = starts[2] + (r - i if rev2 else i - 1)
            for j in range(1, r + 1):
                p3 = starts[3] + (r - j if rev3 else j - 1)
                hit = (i == j) if family == "W3.1" else (i <= j)
                yield tuple(sorted((p1, p2, p3))), int(hit) ^ int(v.swap)
    else:
        for _, (first, *rest) in _groups(family, r, v):
            yield first, 0
            for e in rest:
                yield e, 1


def _wealthy_base_sets(family: str, r: int,
                       v: WealthyVariant) -> Optional[tuple[tuple[int, int], ...]]:
    if family in ("W2.1", "W2.2"):
        starts = _block_starts((r, r, 1), v.perm)
        return ((starts[1], starts[1] + r - 1),
                (starts[2], starts[2] + r - 1),
                (starts[3], starts[3]))
    if family in ("W3.1", "W3.2"):
        return ((1, r), (r + 1, 2 * r), (2 * r + 1, 3 * r))
    if family == "W4.2":
        if v.block_swap:
            return ((3 * r + 1, 4 * r), (1, 3 * r))
        return ((1, r), (r + 1, 4 * r))
    return None


@dataclass(frozen=True)
class WealthyWitness:
    """Certificate that a coloring realizes a wealthy family variant.

    base_sets lists the block intervals the variant lives on (families
    without distinguished blocks leave it None); triples records, for W3.3
    and W4.2, one (a, b, c) per index i with the edges through a and b
    versus a and c colored differently.  W4.1's quadruples have no block,
    so it reports no triples.

    W2.x and W4.2 list their blocks in role order: W2.x its blocks 1
    and 2 and then the apex, wherever perm puts them, and W4.2 its r
    apices before its 3r triple vertices, also when blockswap moves the
    apices to the end.  W3.x lists its three blocks in position order,
    whatever perm: perm 213 with r = 2 gives base=[3,4]|[1,2]|[5] for
    W2.1 but base=[1,2]|[3,4]|[5,6] for W3.1.
    """

    family: str
    r: int
    variant: WealthyVariant
    base_sets: Optional[tuple[tuple[int, int], ...]] = None
    triples: Optional[tuple[tuple[int, int, int], ...]] = None

    def to_text(self) -> str:
        parts = [f"wealthy family={self.family} r={self.r}",
                 f"variant={variant_to_text(self.family, self.variant)}"]
        if self.base_sets is not None:
            blocks = "|".join(f"[{a},{b}]" if a != b else f"[{a}]"
                              for a, b in self.base_sets)
            parts.append(f"base={blocks}")
        if self.triples is not None:
            trips = "|".join(",".join(str(x) for x in t) for t in self.triples)
            parts.append(f"triples={trips}")
        return " ".join(parts)


def _check_variant(c: Coloring, family: str, r: int, v: WealthyVariant):
    """(base_sets, triples) when c realizes the variant, else None."""
    if family in ("W1'", "W1''", "W2.1", "W2.2", "W3.1", "W3.2"):
        # cells are checked as generated: a mismatch usually shows early
        for e, want in _wealthy_cells(family, r, v):
            if c.color(e) != want:
                return None
        return _wealthy_base_sets(family, r, v), None
    trips = _unbalanced_triples(c, _groups(family, r, v))
    return None if trips is None else (_wealthy_base_sets(family, r, v),
                                       trips or None)


def is_wealthy(c: Coloring, family: str, r: int,
               variant: Optional[WealthyVariant] = None) -> Optional[WealthyWitness]:
    """Recognize a wealthy family member; None when no variant matches.

    With variant=None all variants are scanned in canonical order and the
    first match is reported; passing a variant checks exactly that one.
    A coloring of the wrong size raises SizeMismatchError rather than
    returning None, since size mismatch is a call error, not a near miss.
    """
    if c.k != 3 or c.l != 2:
        raise ValueError("wealthy families are defined for k = 3, l = 2")
    n = wealthy_size(family, r)
    if c.n != n:
        raise SizeMismatchError(f"{family} with r={r} needs {n} vertices, "
                                f"got {c.n}")
    if variant is not None:
        variant_to_text(family, variant)  # raises for a variant the family lacks
        candidates: tuple[WealthyVariant, ...] = (variant,)
    else:
        candidates = wealthy_variants(family, r)
    for v in candidates:
        res = _check_variant(c, family, r, v)
        if res is not None:
            return WealthyWitness(family, r, v, res[0], res[1])
    return None


def w41_vertices_from_nuclear(c: Coloring, r: int) -> tuple[int, ...]:
    """4r vertices whose restriction realizes W4.1, from a long decomposition.

    Needs at least 2r nuclear intervals.  Quadruple i takes three vertices
    of interval 2i-1 together with the first vertex of interval 2i: the
    greedy break guarantees an edge across the boundary whose color differs
    from the interval's own, so the quadruple is not monochromatic.
    """
    if c.k != 3:
        raise ValueError("needs k = 3")
    nd = nuclear_decomposition(c)
    if nd.length < 2 * r:
        raise ValueError(f"need at least {2 * r} nuclear intervals, "
                         f"have {nd.length}")
    out: list[int] = []
    for i in range(1, r + 1):
        a0, b0 = nd.intervals[2 * i - 2]
        col = nd.colors[2 * i - 2]
        nxt = nd.intervals[2 * i - 1][0]
        found = None
        for x, y in combinations(range(a0, b0 + 1), 2):
            if c.color((x, y, nxt)) != col:
                found = (x, y)
                break
        assert found is not None
        x, y = found
        z = min(u for u in range(a0, b0 + 1) if u not in (x, y))
        out.extend(sorted((x, y, z, nxt)))
    return tuple(out)
