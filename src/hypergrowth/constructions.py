"""Constructive generators: every explicit object the library reasons about.

Chains and their lattice-path bijection, embeddings of chain and string
data into identity / upper-triangular hosts, rich and wealthy colorings,
string-driven and two-set-driven restriction colorings, and the pair
coloring obtained by slicing at the last vertex.

Generators take an explicit filler color for the edges the shape leaves
free, or build a wildcard pattern instead so callers can do containment
searches that ignore those edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional, Sequence, Union

from .core import (AnyColoring, Coloring, ColoringPattern, Edge, edge_index,
                   restrict_normalize)
from .matrices import StarMatrix2
from .structure import (WealthyVariant, rich_window_edges, wealthy_assignment,
                        wealthy_size)

GridPoint = tuple[int, int]


# --- chains and southeast paths -----------------------------------------------


@dataclass(frozen=True)
class Chain:
    """Point set in the m x m grid, strictly increasing in both coordinates.

    points are (row, col) pairs; the empty chain is allowed.
    """

    m: int
    points: tuple[GridPoint, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("ambient size m must be >= 1")
        prev = (0, 0)
        for p in self.points:
            r, c = p
            if not (prev[0] < r <= self.m and prev[1] < c <= self.m):
                raise ValueError(f"point {p} breaks the chain order in [{self.m}]^2")
            prev = p

    def indicator(self) -> StarMatrix2:
        """m x m binary matrix with 1s exactly at the chain's points."""
        cells = set(self.points)
        return StarMatrix2.build(self.m, self.m,
                                 lambda i, j: 1 if (i, j) in cells else 0)

    def padded(self) -> StarMatrix2:
        """(m+1) x (m+1) indicator with an extra 1 in the bottom-right corner."""
        return Chain(self.m + 1, self.points + ((self.m + 1, self.m + 1),)).indicator()


@dataclass(frozen=True)
class SoutheastPath:
    """Monotone corner walk from (1,1) to (m+1,m+1), east or south steps."""

    m: int
    corners: tuple[GridPoint, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("ambient size m must be >= 1")
        if len(self.corners) != 2 * self.m + 1:
            raise ValueError(f"expected {2 * self.m + 1} corners")
        if self.corners[0] != (1, 1) or self.corners[-1] != (self.m + 1, self.m + 1):
            raise ValueError("path must run from (1,1) to (m+1,m+1)")
        for a, b in zip(self.corners, self.corners[1:]):
            d = (b[0] - a[0], b[1] - a[1])
            if d not in ((0, 1), (1, 0)):
                raise ValueError(f"illegal step {a} -> {b}")

    def steps(self) -> str:
        """Step letters: E for east (col+1), S for south (row+1)."""
        out = []
        for a, b in zip(self.corners, self.corners[1:]):
            out.append("E" if b[1] > a[1] else "S")
        return "".join(out)


def enumerate_chains(m: int):
    """All chains in [m]^2, smallest point count first, then lexicographic."""
    rng = range(1, m + 1)
    for size in range(m + 1):
        for rows in combinations(rng, size):
            for cols in combinations(rng, size):
                yield Chain(m, tuple(zip(rows, cols)))


def _walk(steps: str) -> tuple[GridPoint, ...]:
    """Corners of the walk from (1,1) taking E (col+1) and S (row+1) steps."""
    corners = [(1, 1)]
    for step in steps:
        r, c = corners[-1]
        corners.append((r, c + 1) if step == "E" else (r + 1, c))
    return tuple(corners)


def enumerate_paths(m: int):
    """All southeast paths in the (m+1) x (m+1) corner grid."""
    for east_at in combinations(range(2 * m), m):
        steps = "".join("E" if i in east_at else "S" for i in range(2 * m))
        yield SoutheastPath(m, _walk(steps))


def chain_to_path(chain: Chain) -> SoutheastPath:
    """Left-turn encoding: point (r, c) becomes a south-then-east turn at (r+1, c)."""
    m = chain.m
    steps = []
    row = col = 1
    for r, c in chain.points:
        steps.append("E" * (c - col) + "S" * (r + 1 - row) + "E")
        row, col = r + 1, c + 1
    steps.append("E" * (m + 1 - col) + "S" * (m + 1 - row))
    return SoutheastPath(m, _walk("".join(steps)))


def path_to_chain(path: SoutheastPath) -> Chain:
    """Inverse of chain_to_path: read the south-then-east turns."""
    pts = []
    s = path.steps()
    for i in range(len(s) - 1):
        if s[i] == "S" and s[i + 1] == "E":
            r, c = path.corners[i + 1]
            pts.append((r - 1, c))
    return Chain(path.m, tuple(pts))


def chain_path(direction: str, value: Union[Chain, SoutheastPath]):
    if direction == "chain_to_path":
        if not isinstance(value, Chain):
            raise ValueError("chain_to_path expects a Chain")
        return chain_to_path(value)
    if direction == "path_to_chain":
        if not isinstance(value, SoutheastPath):
            raise ValueError("path_to_chain expects a SoutheastPath")
        return path_to_chain(value)
    raise ValueError(f"unknown direction {direction!r}")


# --- chain embedding into identities ------------------------------------------


@dataclass(frozen=True)
class ChainEmbedding:
    """Selections realizing a chain's indicator inside identity hosts.

    aug_rows/aug_cols place the padded indicator (extra all-zero last row
    and column except a corner 1) inside the identity of order 2m+1-k;
    rows/cols drop the last pick of each and place the bare indicator
    inside the identity of order 2m-k.
    """

    chain: Chain
    host_order: int
    aug_rows: tuple[int, ...]
    aug_cols: tuple[int, ...]

    @property
    def rows(self) -> tuple[int, ...]:
        return self.aug_rows[:-1]

    @property
    def cols(self) -> tuple[int, ...]:
        return self.aug_cols[:-1]


def embed_chain(chain: Chain, n: Optional[int] = None,
                k_pts: Optional[int] = None) -> ChainEmbedding:
    """Block-by-block placement of a chain inside a small identity matrix.

    The grid is cut at the chain's points into consecutive index blocks;
    inside block i the walk from the previous point advances by (dr, dc),
    and the block contributes dr row picks and dc column picks arranged so
    the only 1 of the block lands exactly on the point.  The result is
    checked against the padded indicator before returning.
    """
    m = chain.m
    k = len(chain.points)
    if n is not None and n != m:
        raise ValueError(f"chain lives in [{m}]^2, not [{n}]^2")
    if k_pts is not None and k_pts != k:
        raise ValueError(f"chain has {k} points, not {k_pts}")
    host = 2 * m + 1 - k
    pts = ((0, 0),) + chain.points + ((m + 1, m + 1),)
    rows: list[int] = []
    cols: list[int] = []
    for i in range(1, k + 2):
        pr, pc = pts[i - 1]
        dr = pts[i][0] - pr
        dc = pts[i][1] - pc
        b = pr + pc - (i - 2)  # first host index of block i
        rows.extend(range(b + dc - 1, b + dr + dc - 1))
        cols.extend(range(b, b + dc - 1))
        cols.append(b + dr + dc - 2)
    emb = ChainEmbedding(chain, host, tuple(rows), tuple(cols))
    got = StarMatrix2.identity(host).submatrix(emb.aug_rows, emb.aug_cols)
    assert got.entries == chain.padded().entries, "chain embedding failed"
    return emb


# --- string embedding into identity / upper hosts ------------------------------


@dataclass(frozen=True)
class StringEmbedding:
    """Placement of a string's staircase matrix inside a host pattern.

    The staircase of a binary string w of odd length 2n-1 is the n x n
    matrix with diagonal w_1, w_3, ... and superdiagonal w_2, w_4, ....
    Mode "identity" fills the rest with 0 and lands in the identity of
    order 2n; mode "upper" fills above the superdiagonal with 1, below the
    diagonal with 0, and lands in the all-ones upper triangle of order 3n.
    """

    w: str
    mode: str
    matrix: StarMatrix2
    host_order: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]


def _string_bits(w: Union[str, Sequence[int]]) -> str:
    s = "".join(str(int(ch)) for ch in w) if not isinstance(w, str) else w
    if set(s) - {"0", "1"}:
        raise ValueError("string must be binary")
    return s


def embed_string(w: Union[str, Sequence[int]], mode: str) -> StringEmbedding:
    s = _string_bits(w)
    if len(s) % 2 == 0:
        raise ValueError("string length must be odd")
    n = (len(s) + 1) // 2
    a = [int(s[2 * i - 2]) for i in range(1, n + 1)]   # diagonal, 1-based
    b = [int(s[2 * i - 1]) for i in range(1, n)]       # superdiagonal
    if mode == "identity":
        if "11" in s:
            raise ValueError("identity mode rejects strings containing 11")
        mat = StarMatrix2.build(n, n, lambda i, j: (
            a[i - 1] if i == j else b[i - 1] if j == i + 1 else 0))
        rows = tuple(2 * i - a[i - 1] for i in range(1, n + 1))
        cols = (1,) + tuple(2 * i + 1 - b[i - 1] for i in range(1, n))
        host = StarMatrix2.identity(2 * n)
    elif mode == "upper":
        for i in range(1, n):
            if a[i - 1] == 1 and b[i - 1] == 0:
                raise ValueError("upper mode rejects 10 at odd positions")
            if b[i - 1] == 0 and a[i] == 1:
                raise ValueError("upper mode rejects 01 at even positions")
        mat = StarMatrix2.build(n, n, lambda i, j: (
            a[i - 1] if i == j else b[i - 1] if j == i + 1 else
            1 if j > i + 1 else 0))
        rows = tuple(3 * i - 2 * a[i - 1] for i in range(1, n + 1))
        cols = (1,) + tuple(3 * i - 1 + 2 * b[i - 1] for i in range(1, n))
        host = StarMatrix2.upper(3 * n)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    got = host.submatrix(rows, cols)
    assert got.entries == mat.entries, "string embedding failed"
    return StringEmbedding(s, mode, mat, host.rows, rows, cols)


# --- rich and wealthy generators ------------------------------------------------


def make_rich(k: int, r: int, f: int, g: int, h: int, a: int = 0, b: int = 1,
              filler: int = 0, l: Optional[int] = None,
              wildcard: bool = False) -> AnyColoring:
    """Coloring on [2r-k+1] whose (f,g,h) windows are a,...,a,b."""
    if a == b:
        raise ValueError("window colors a and b must differ")
    edges = rich_window_edges(k, r, f, g, h)
    if l is None:
        l = max(a, b, filler) + 1 if max(a, b, filler) >= 2 else 2
    assign: dict[Edge, int] = {e: a for e in edges[:-1]}
    assign[edges[-1]] = b
    n = 2 * r - k + 1
    if wildcard:
        return ColoringPattern.from_map(k, l, n, assign)
    return Coloring.from_map(k, l, n, assign, filler)


def make_wealthy(family: str, r: int, variant: Optional[WealthyVariant] = None,
                 filler: int = 0, wildcard: bool = False) -> AnyColoring:
    """Canonical member of a wealthy family variant (first variant if None)."""
    assign = wealthy_assignment(family, r, variant)
    n = wealthy_size(family, r)
    if wildcard:
        return ColoringPattern.from_map(3, 2, n, assign)
    return Coloring.from_map(3, 2, n, assign, filler)


# --- crossing hosts and their restrictions --------------------------------------


def _crossing_host(big_r: int, marked: dict[Edge, int], cross_color: int,
                   filler: int) -> Coloring:
    # crossing = exactly one vertex in [big_r]; those of each x <= big_r
    # run through consecutive ranks, (x, big_r+1, big_r+2) to (x, n-1, n)
    if not isinstance(filler, int) or not 0 <= filler <= 1:
        raise ValueError(f"color {filler!r} outside 0..1")
    n = 4 * big_r
    cols = bytearray([filler]) * comb(n, 3)
    run = comb(n - big_r, 2)
    for x in range(1, big_r + 1):
        start = edge_index((x, big_r + 1, big_r + 2), n, 3)
        cols[start:start + run] = bytes([cross_color]) * run
    for e, col in marked.items():
        cols[edge_index(e, n, 3)] = col
    return Coloring._trusted(3, 2, n, tuple(cols))


@dataclass(frozen=True)
class StringColoringResult:
    """Restriction coloring driven by a binary string.

    c_set and d_set are the chosen host vertices for the string's s- and
    t-positions; vertex_set is the full restricted set (including 1 and
    the anchor r+4).  member satisfies member({1, i, i+1}) = w_{i-1}.
    """

    w: str
    t: int
    r: int
    c_set: tuple[int, ...]
    d_set: tuple[int, ...]
    vertex_set: tuple[int, ...]
    host: Coloring
    member: Coloring


def make_string_coloring(w: Union[str, Sequence[int]], t: int, r: int,
                         filler: int = 0) -> StringColoringResult:
    """Realize a binary string as consecutive-triple colors at the first vertex.

    The host on 4r vertices colors the crossing triples {1, r+3j-2, r+3j-1}
    with t and every other crossing triple with s = 1-t.  Picking vertex
    3i+r+4 when w_i = s and 3i+r+2 when w_i = t makes consecutive picks
    land on a marked pair exactly when w_i = t, so the restriction reads
    the string back off its consecutive triples.
    """
    if t not in (0, 1):
        raise ValueError("t must be 0 or 1")
    ws = _string_bits(w)
    if not ws:
        raise ValueError("string must be nonempty")
    if str(t) * 2 in ws:
        raise ValueError(f"string may not contain {t}{t}")
    q = len(ws)
    if r < q + 2:
        raise ValueError(f"need r >= {q + 2} for a string of length {q}")
    s = 1 - t
    marked = {(1, r + 3 * j - 2, r + 3 * j - 1): t for j in range(2, r + 1)}
    host = _crossing_host(r, marked, s, filler)
    c_set = tuple(3 * i + r + 4 for i in range(1, q + 1) if int(ws[i - 1]) == s)
    d_set = tuple(3 * i + r + 2 for i in range(1, q + 1) if int(ws[i - 1]) == t)
    vertex_set = tuple(sorted({1, r + 4} | set(c_set) | set(d_set)))
    member = restrict_normalize(host, vertex_set)
    for i in range(2, q + 2):
        assert member.color((1, i, i + 1)) == int(ws[i - 2]), \
            "string coloring readback failed"
    return StringColoringResult(ws, t, r, c_set, d_set, vertex_set, host, member)


@dataclass(frozen=True)
class DisobedientSpec:
    """Derived layout for the two-set restriction coloring.

    t_positions interleave the gap blocks c_blocks (low-part picks) and
    d_blocks (high-part picks); vertex_set is the union of the picks in
    the host on 4*host_r vertices; f_triples are the member's zero-colored
    crossing triples, in member coordinates.
    """

    m: int
    eps: int
    a_set: tuple[int, ...]
    b_set: tuple[int, ...]
    t_positions: tuple[int, ...]
    c_blocks: tuple[tuple[int, ...], ...]
    d_blocks: tuple[tuple[int, ...], ...]
    vertex_set: tuple[int, ...]
    f_triples: tuple[tuple[int, int, int], ...]

    @property
    def n(self) -> int:
        return 5 * self.m + self.eps


@dataclass(frozen=True)
class DisobedientResult:
    spec: DisobedientSpec
    member: Coloring
    host: Coloring
    embedding: tuple[int, ...]


def make_disobedient(n: int, A: Sequence[int], B: Sequence[int],
                     host_r: Optional[int] = None,
                     filler: int = 0) -> DisobedientResult:
    """Coloring on [n] whose zero-colored crossing triples encode (A, B).

    Writes n = 5m + eps; A picks m positions among the low 2m + eps, B
    picks m among 2m.  The member restricts a host whose crossing triples
    are 1 except the aligned pairs {i, R+3i-2, R+3i-1}; the chosen vertex
    set turns exactly the triples F_i = {a_i, 2m+eps+b_i+i-1, ...+i} zero,
    so distinct (A, B) give distinct members.
    """
    a = tuple(sorted(set(A)))
    b = tuple(sorted(set(B)))
    m = len(a)
    if len(b) != m or m < 1:
        raise ValueError("A and B must have equal positive size")
    eps = n - 5 * m
    if not 0 <= eps <= 4:
        raise ValueError(f"n={n} is not 5*{m}+eps with eps in 0..4")
    if a[0] < 1 or a[-1] > 2 * m + eps:
        raise ValueError(f"A must sit inside [{2 * m + eps}]")
    if b[0] < 1 or b[-1] > 2 * m:
        raise ValueError(f"B must sit inside [{2 * m}]")
    r = 3 * m + eps
    big_r = r if host_r is None else host_r
    if big_r < r:
        raise ValueError(f"host_r must be at least {r}")

    af = (0,) + a + (2 * m + eps + 1,)
    alpha = [af[i + 1] - af[i] - 1 for i in range(m + 1)]
    t_pos = tuple(a[i - 1] + b[i - 1] - i for i in range(1, m + 1))
    # the t positions cut [1, r] into blocks: c_i then d_i between t_i and t_{i+1}
    ts = (0,) + t_pos + (r + 1,)
    c_blocks = tuple(tuple(range(t + 1, t + 1 + x)) for t, x in zip(ts, alpha))
    d_blocks = tuple(tuple(range(t + 1 + x, u)) for t, x, u in zip(ts, alpha, ts[1:]))

    # low picks: t positions and c blocks; high: R+3j-2 (t and d) and R+3j-1 (t)
    verts = set(t_pos).union(*c_blocks)
    verts.update(big_r + 3 * j - 2 for j in t_pos + sum(d_blocks, ()))
    verts.update(big_r + 3 * j - 1 for j in t_pos)
    vertex_set = tuple(sorted(verts))
    if len(vertex_set) != n:
        raise AssertionError(f"picked {len(vertex_set)} vertices, wanted {n}")

    marked = {(i, big_r + 3 * i - 2, big_r + 3 * i - 1): 0
              for i in range(1, big_r + 1)}
    host = _crossing_host(big_r, marked, 1, filler)
    member = restrict_normalize(host, vertex_set)

    rank = {v: i + 1 for i, v in enumerate(vertex_set)}
    f_triples = []
    for i in range(1, m + 1):
        ti = t_pos[i - 1]
        lo = rank[ti]
        mid = rank[big_r + 3 * ti - 2]
        assert lo == a[i - 1], "low image identity failed"
        assert mid == 2 * m + eps + b[i - 1] + i - 1, "high image identity failed"
        f_triples.append((lo, mid, mid + 1))

    spec = DisobedientSpec(m, eps, a, b, t_pos, c_blocks, d_blocks,
                           vertex_set, tuple(f_triples))
    return DisobedientResult(spec, member, host, vertex_set)


# --- pair coloring slice --------------------------------------------------------


def slice_to_pair_coloring(c: Coloring) -> Coloring:
    """Pair coloring on [n-1] reading each pair together with the last vertex."""
    if c.k != 3:
        raise ValueError("slicing needs k = 3")
    if c.n < 2:
        raise ValueError("slicing needs n >= 2")
    n = c.n
    return Coloring.from_function(2, c.l, n - 1,
                                  lambda e: c.color((e[0], e[1], n)))
