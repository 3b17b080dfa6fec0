"""Edge-colored ordered complete k-uniform hypergraphs and their containment order.

Vertices are the 1-based integers [n] = {1, ..., n}; colors are 0-based,
{0, ..., l-1}.  A coloring assigns a color to every k-subset ("edge") of
[n].  Edges are stored by their rank in the lexicographic order of sorted
vertex tuples, so a coloring is just (k, l, n) plus a tuple of C(n, k)
colors.  A coloring with n < k has no edges; such empty colorings are
legal and compare contained in everything of at least their size.  A
pattern stores the same way, with None for an unspecified edge.

Ranks come from one cached table per (n, k), T[p][v] = C(n-v, k-p): the
edges after a sorted edge e agree with it before some position p and are
larger at p, C(n-e_p, k-p) of them, so rank(e) = C(n,k) - 1 - sum T[p][e_p].

Containment: (m, phi) is contained in (n, chi) when some increasing
injection f of [m] into [n] maps every edge E to an edge f(E) with
chi(f(E)) = phi(E).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import (Callable, Iterable, Iterator, Mapping, Optional,
                    Sequence, Union)


class InvalidEdgeError(ValueError):
    """Edge is not a k-subset of [n]."""


class IncompatibleColoringsError(ValueError):
    """Operands disagree on uniformity k or color count l."""


Edge = tuple[int, ...]


def _check_edge(edge: Iterable[int], n: int, k: int) -> Edge:
    e = tuple(sorted(edge))
    if len(e) != k:
        raise InvalidEdgeError(f"expected {k} vertices, got {len(e)}")
    if len(set(e)) != k:
        raise InvalidEdgeError(f"repeated vertex in {e}")
    if e[0] < 1 or e[-1] > n:
        raise InvalidEdgeError(f"edge {e} not inside [{n}]")
    return e


def all_edges(n: int, k: int) -> Iterator[Edge]:
    """All k-subsets of [n] in lexicographic (storage) order."""
    return combinations(range(1, n + 1), k)


@cache
def _rank_table(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """T[p][v] = C(n-v, k-p); see the module docstring for the rank."""
    return tuple(tuple(comb(n - v, k - p) for v in range(n + 1))
                 for p in range(k + 1))


@cache
def _colex_table(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """X[i][v] = C(v-1, i+1), v <= n: the colex rank of a sorted edge e is
    sum X[i][e_i], and that of its first p vertices reads the first p rows.
    """
    return tuple((0, *(comb(v, i + 1) for v in range(n))) for i in range(k))


def edge_index(edge: Iterable[int], n: int, k: int) -> int:
    """0-based rank of a k-subset of [n] in lexicographic order."""
    e = _check_edge(edge, n, k)
    t = _rank_table(n, k)
    return t[0][0] - 1 - sum(map(tuple.__getitem__, t, e))


def edge_unindex(rank: int, n: int, k: int) -> Edge:
    """Inverse of edge_index."""
    if not 0 <= rank < comb(n, k):
        raise InvalidEdgeError(f"rank {rank} out of range for C({n},{k})")
    out = []
    v = 1
    for step in _rank_table(n, k)[1:]:
        # step[v] edges start with the vertices so far and then v
        while rank >= step[v]:
            rank -= step[v]
            v += 1
        out.append(v)
        v += 1
    return tuple(out)


def _validate_header(k: int, l: int, n: int) -> int:
    if k < 2:
        raise ValueError("uniformity k must be >= 2")
    if l < 2:
        raise ValueError("color count l must be >= 2")
    if n < 1:
        raise ValueError("vertex count n must be >= 1")
    return comb(n, k) if n >= k else 0


class _FrozenError(AttributeError):
    """Assignment to or deletion of an attribute of a value class, with
    the messages of the standard library's frozen data classes."""


class _Value:
    """Base of the immutable value classes of core and ideals.

    A subclass names its fields in order as both __slots__ and
    __match_args__, and its __init__ fills each slot, past the raising
    __setattr__, with _setattr or, where it is hot, the slot's own
    descriptor.  Two values are equal when they have the same class and
    equal fields; hash, repr and pickling read the fields in order.
    Instances have no __dict__, so neither vars() nor the data-class
    helpers (fields, replace, asdict) apply to them.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}"
                           for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise _FrozenError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _FrozenError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, as no slot can be set
        return type(self), self._fields()


# object's store, bound once: a frozen value's __init__ sets its fields
_setattr = object.__setattr__


class _EdgeColors(_Value):
    """The store Coloring and ColoringPattern share: (k, l, n) and one
    colour per edge of [n] in lexicographic edge order.

    Each public class adds only its own rules.  Neither derives from the
    other, so a Coloring never equals a ColoringPattern with the same
    fields.  _wild lets a colour be None (unspecified).  Instances are
    immutable and slotted (see _Value); __eq__ and __hash__ read the four
    fields directly, as colourings are compared and hashed in bulk.
    """

    __slots__ = __match_args__ = ("k", "l", "n", "colors")
    k: int
    l: int
    n: int
    colors: tuple[Optional[int], ...]

    _wild = False

    def __init__(self, k: int, l: int, n: int,
                 colors: tuple[Optional[int], ...]):
        want = _validate_header(k, l, n)
        if len(colors) != want:
            raise ValueError(f"expected {want} colors, got {len(colors)}")
        # wildcards leave first, so a Coloring's loop tests no None
        cols = [c for c in colors if c is not None] if self._wild else colors
        for c in cols:
            if not isinstance(c, int) or not 0 <= c < l:
                raise ValueError(f"color {c!r} outside 0..{l - 1}")
        _set_k(self, k)
        _set_l(self, l)
        _set_n(self, n)
        _set_colors(self, colors)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.l, self.n, self.colors) == (
                other.k, other.l, other.n, other.colors)
        return NotImplemented

    def __hash__(self):
        return hash((self.k, self.l, self.n, self.colors))

    @property
    def empty(self) -> bool:
        return self.n < self.k

    def color(self, edge: Iterable[int]) -> Optional[int]:
        return self.colors[edge_index(edge, self.n, self.k)]

    def edges(self) -> Iterator[Edge]:
        return all_edges(self.n, self.k)

    @classmethod
    def _from_map(cls, k: int, l: int, n: int,
                  assign: Mapping[Iterable[int], int],
                  filler: Optional[int]):
        m = _validate_header(k, l, n)
        cols = [filler] * m
        for edge, c in assign.items():
            cols[edge_index(edge, n, k)] = c
        return cls(k, l, n, tuple(cols))


# the slots' own setters, the fastest store past _Value.__setattr__
_set_k = _EdgeColors.k.__set__
_set_l = _EdgeColors.l.__set__
_set_n = _EdgeColors.n.__set__
_set_colors = _EdgeColors.colors.__set__


class Coloring(_EdgeColors):
    """An edge l-coloring of the complete k-uniform hypergraph on [n]; an
    immutable slotted value.

    Colours are checked once, where they enter: the public constructors
    and the text parser's edge-line form check every colour.  Only
    producers whose colours are valid by construction call _trusted,
    which skips the per-colour loop: the parser's ``bits`` form after its
    digit and count checks, and the engine's decode in avoid_members.
    """

    __slots__ = ()

    @classmethod
    def _trusted(cls, k: int, l: int, n: int,
                 colors: tuple[int, ...]) -> "Coloring":
        """An unchecked Coloring: the caller vouches for the header, the
        length and every colour.  Equal to, and hashes like, cls(...)."""
        c = object.__new__(cls)
        # __init__'s four slot stores, without its checks
        _set_k(c, k)
        _set_l(c, l)
        _set_n(c, n)
        _set_colors(c, colors)
        return c

    @classmethod
    def constant(cls, k: int, l: int, n: int, color: int = 0) -> "Coloring":
        m = _validate_header(k, l, n)
        if not 0 <= color < l:
            raise ValueError(f"color {color} outside 0..{l - 1}")
        return cls(k, l, n, (color,) * m)

    @classmethod
    def from_map(cls, k: int, l: int, n: int, assign: Mapping[Iterable[int], int],
                 filler: int = 0) -> "Coloring":
        """Coloring with the given edge colors, filler everywhere else."""
        return cls._from_map(k, l, n, assign, filler)

    @classmethod
    def from_function(cls, k: int, l: int, n: int,
                      fn: Callable[[Edge], int]) -> "Coloring":
        _validate_header(k, l, n)
        return cls(k, l, n, tuple(fn(e) for e in all_edges(n, k)))


class ColoringPattern(_EdgeColors):
    """Partially specified coloring; a None color matches anything.  An
    immutable slotted value.

    Used as the small side of containment searches when only some edges
    of a generated shape are pinned down.
    """

    __slots__ = ()

    _wild = True

    @classmethod
    def from_map(cls, k: int, l: int, n: int,
                 assign: Mapping[Iterable[int], int]) -> "ColoringPattern":
        return cls._from_map(k, l, n, assign, None)


AnyColoring = Union[Coloring, ColoringPattern]


def _pullback(c: AnyColoring, images: Sequence[int]) -> AnyColoring:
    """The colouring of [m], m = len(images), whose edge E has c's colour
    on {images[v - 1] : v in E}.

    combinations picks positions in lexicographic order, so it yields the
    image of each edge of [m] in storage order.
    """
    return type(c)(c.k, c.l, len(images), tuple(
        c.colors[edge_index(fe, c.n, c.k)] for fe in combinations(images, c.k)))


def restrict_normalize(c: AnyColoring, subset: Iterable[int]) -> AnyColoring:
    """Restrict to a vertex subset and relabel it order-isomorphically to [|subset|]."""
    vs = sorted(set(subset))
    if not vs:
        raise ValueError("subset must be nonempty")
    if vs[0] < 1 or vs[-1] > c.n:
        raise ValueError(f"subset not inside [{c.n}]")
    return _pullback(c, vs)


def reverse(c: AnyColoring) -> AnyColoring:
    """Mirror image: edge E gets the color of {n - x + 1 : x in E}."""
    return _pullback(c, range(c.n, 0, -1))


def relabel(c: AnyColoring, new_label: Mapping[int, int]) -> AnyColoring:
    """Push the coloring through a vertex bijection of [n].

    new_label maps old vertex to new vertex; the result colors each edge F
    the way c colored its preimage.  reverse(c) is relabel with
    v -> n - v + 1.
    """
    lab = {v: new_label[v] for v in range(1, c.n + 1)}
    if sorted(lab.values()) != list(range(1, c.n + 1)):
        raise ValueError("relabeling is not a bijection of [n]")
    # the old vertices ordered by new label: the preimage of 1, 2, ..., n
    return _pullback(c, sorted(lab, key=lab.__getitem__))


class Homogeneity(_Value):
    """Verdict on a vertex subset: all edges inside share one color, or not.
    An immutable slotted value.

    homogeneous + color=None means the subset is too small to span an edge,
    so the verdict holds vacuously with no established color.
    """

    __slots__ = __match_args__ = ("homogeneous", "color", "witness")
    homogeneous: bool
    color: Optional[int]
    witness: Optional[tuple[Edge, Edge]]

    def __init__(self, homogeneous: bool, color: Optional[int],
                 witness: Optional[tuple[Edge, Edge]]):
        _setattr(self, "homogeneous", homogeneous)
        _setattr(self, "color", color)
        _setattr(self, "witness", witness)


def homogeneity(c: AnyColoring, subset: Iterable[int]) -> Homogeneity:
    """Check whether every k-subset of the given vertices has the same color."""
    vs = sorted(set(subset))
    if vs and (vs[0] < 1 or vs[-1] > c.n):
        raise ValueError(f"subset not inside [{c.n}]")
    if len(vs) < c.k:
        return Homogeneity(True, None, None)
    colors = c.colors
    t = _rank_table(c.n, c.k)
    top = t[0][0] - 1
    first = None
    ref = None
    for e in combinations(vs, c.k):
        col = colors[top - sum(map(tuple.__getitem__, t, e))]
        if first is None:
            first, ref = e, col
        elif col != ref:
            return Homogeneity(False, None, (first, e))
    return Homogeneity(True, ref, None)


def injection_witnesses(small: AnyColoring, big: Coloring,
                        images: Iterable[int]) -> bool:
    """True iff the increasing injection given by images realizes containment."""
    f = tuple(images)
    if small.k != big.k or small.l != big.l:
        raise IncompatibleColoringsError(
            f"(k,l)=({small.k},{small.l}) vs ({big.k},{big.l})")
    if len(f) != small.n or len(set(f)) != len(f):
        return False
    if any(f[i] >= f[i + 1] for i in range(len(f) - 1)):
        return False
    if f and (f[0] < 1 or f[-1] > big.n):
        return False
    for e, want in zip(small.edges(), small.colors):
        if want is None:
            continue
        if big.color(tuple(f[v - 1] for v in e)) != want:
            return False
    return True


def contains(small: AnyColoring, big: Coloring) -> Optional[tuple[int, ...]]:
    """Search for an increasing injection realizing small inside big.

    Returns the lexicographically first witness injection (as the tuple of
    images of 1..m) or None.  Pattern colorings may leave edges
    unspecified (None); those are never checked.

    Candidates are bit masks over the host vertices.  For a sorted host
    prefix P of k-1 vertices, a row holds one int per colour with bit w
    set when big gives the edge P + (w,) that colour.  The ranks of
    P + (w,) are consecutive in w, so a row is one slice of big.colors.
    Rows are kept in one list per host head, the first k-2 images of P,
    indexed by P's last image; entry 0, which no vertex uses, holds the
    head's part of the rank sum.  The lists are keyed by the head's
    images (an int when k = 3; k = 2 has the one empty head).  The list
    of each small head h is fetched once, when h's last vertex is placed,
    so a small edge (h..., b, i) is tested by list reads and one AND: no
    tuple key, hash or dict probe.  Head lists and rows are built on
    first use, so a search that stops early reads only the part of big
    it tests.

    The candidates for the image of vertex i are the window lo..n-(m-i)
    ANDed with the row of every small edge whose largest vertex is i, so
    a branch dies as soon as its mask is empty.  The rows of the edges of
    vertex i + 1 whose b is below i do not depend on the image of i: they
    are ANDed once per node at depth i, and the images of i are kept
    below the largest candidate they leave.  The search walks set bits
    from low to high with an explicit stack of remaining masks, so it
    does not recurse and the first full injection it reaches is the
    lexicographically first one.
    """
    if small.k != big.k or small.l != big.l:
        raise IncompatibleColoringsError(
            f"(k,l)=({small.k},{small.l}) vs ({big.k},{big.l})")
    m, n, k, l = small.n, big.n, small.k, small.l
    if m > n:
        return None
    colors = big.colors
    t = _rank_table(n, k)
    # rank of P + (P[-1] + 1,) is top + P[-1] - sum T[j][P[j]], j < k-1,
    # as T[k-1][v] = n - v
    top = t[0][0] - n
    lists: dict[Union[int, Edge], list] = {}

    def head_list(hv: Edge) -> list:
        return [top - sum(map(tuple.__getitem__, t, hv))] + [None] * n

    # slot per small head; (slot, head images getter) by the head's last
    # vertex; (slot, b, colour) by the depth whose node ANDs the row
    slots: dict[Edge, int] = {}
    fetch: list[list[tuple[int, Callable]]] = [[] for _ in range(m + 1)]
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(m + 1)]
    hoisted: list[list[tuple[int, int, int]]] = [[] for _ in range(m + 1)]
    for e, col in zip(small.edges(), small.colors):
        if col is None:
            continue
        head, b, i = e[:-2], e[-2], e[-1]
        s = slots.get(head)
        if s is None:
            s = slots[head] = len(slots)
            if head:
                fetch[head[-1]].append((s, itemgetter(*head)))
        (hoisted[i - 1] if b < i - 1 else checks[i]).append((s, b, col))
    # the lists of the current heads, by slot; the empty head is fixed
    cur = [None if h else head_list(()) for h in slots]

    def build(hl: list, v: int) -> list[int]:
        row = [0] * l
        bit = 1 << (v + 1)
        base = hl[0] + v - t[k - 2][v]
        for c in colors[base:base + n - v]:
            row[c] |= bit
            bit <<= 1
        hl[v] = row
        return row

    images = [0] * (m + 1)
    left = [0] * (m + 1)  # candidates not yet tried, per depth
    # per depth: the window up to n-(m-i), and that window ANDed with the
    # rows that the node one level up hoisted
    window = [(1 << (n - m + i + 1)) - 1 for i in range(m + 1)]
    ahead = window[:]
    i, lo = 1, 1
    while True:
        cand = ahead[i] >> lo << lo
        for s, b, want in checks[i]:
            hl = cur[s]
            v = images[b]
            cand &= (hl[v] or build(hl, v))[want]
            if not cand:
                break
        if cand and hoisted[i]:
            nxt = window[i + 1]
            for s, b, want in hoisted[i]:
                hl = cur[s]
                v = images[b]
                nxt &= (hl[v] or build(hl, v))[want]
                if not nxt:
                    break
            ahead[i + 1] = nxt
            # the image of i must leave a candidate for i + 1 above it
            cand &= (1 << (nxt.bit_length() - 1)) - 1 if nxt else 0
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
        for s, get in fetch[i]:
            key = get(images)
            hl = lists.get(key)
            if hl is None:
                hl = lists[key] = head_list((key,) if k == 3 else key)
            cur[s] = hl
        i, lo = i + 1, images[i] + 1


# --- text format ------------------------------------------------------------
#
# coloring k=<k> l=<l> n=<n>
# followed, when n >= k, by either one "bits <C(n,k) digits 0/1>" line (l = 2,
# colors in lexicographic edge order) or exactly C(n, k) "v1 ... vk c" lines.

_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def coloring_to_text(c: Coloring) -> str:
    lines = [f"coloring k={c.k} l={c.l} n={c.n}"]
    if not c.empty:
        if c.l == 2:
            bits = bytes(c.colors).translate(_TO_DIGITS).decode()
            lines.append("bits " + bits)
        else:
            for e, col in zip(c.edges(), c.colors):
                lines.append(" ".join(str(v) for v in e) + f" {col}")
    return "\n".join(lines) + "\n"


def parse_fields(fields: list[str], keys: tuple[str, ...],
                 sep: str = "=") -> dict[str, str]:
    """Fields key<sep>value, each of the given keys exactly once."""
    out = {}
    for f in fields:
        if sep not in f:
            raise ValueError(f"malformed field {f!r}")
        key, _, val = f.partition(sep)
        if key not in keys:
            raise ValueError(f"unexpected field {key!r}")
        if key in out:
            raise ValueError(f"repeated field {key!r}")
        out[key] = val
    missing = [k for k in keys if k not in out]
    if missing:
        raise ValueError(f"missing fields {missing}")
    return out


def coloring_from_lines(lines: list[str], start: int = 0) -> tuple[Coloring, int]:
    """Parse one coloring block; returns (coloring, next line index)."""
    if start >= len(lines):
        raise ValueError("expected a coloring header")
    head = lines[start].split()
    if not head or head[0] != "coloring":
        raise ValueError(f"expected 'coloring' header, got {lines[start]!r}")
    kv = parse_fields(head[1:], ("k", "l", "n"))
    k, l, n = int(kv["k"]), int(kv["l"]), int(kv["n"])
    _validate_header(k, l, min(n, 1))  # the k, l, n checks, no C(n, k)
    pos = start + 1
    if n < k:
        return Coloring(k, l, n, ()), pos
    parts = lines[pos].split() if pos < len(lines) else []
    bits = parts[:1] == ["bits"]
    # The block lists at most `bound` edges, so C(n, k) is counted only
    # until it passes bound: C(n-m+i, i), m = min(k, n-k), at least
    # doubles with each i, so that takes bound.bit_length() + 1 steps
    # however large C(n, k) is.
    bound = len(parts[1]) if bits and len(parts) == 2 else len(lines) - pos
    m = min(k, n - k)
    nedges, i = 1, 0
    while i < m and nedges <= bound:
        i += 1
        nedges = nedges * (n - m + i) // i
    exact = i == m
    if bits:
        if l != 2:
            raise ValueError("bits form only valid for l=2")
        if len(parts) != 2 or nedges != bound or set(parts[1]) - {"0", "1"}:
            raise ValueError(f"expected {nedges if exact else f'C({n},{k})'}"
                             " bits")
        # only ASCII 0/1 are left, so one translate decodes them
        return Coloring._trusted(
            k, l, n, tuple(parts[1].encode().translate(_FROM_DIGITS))), pos + 1
    if nedges > bound:
        raise ValueError("truncated coloring block")
    cols: list[Optional[int]] = [None] * nedges
    for line in lines[pos:pos + nedges]:
        parts = line.split()
        if len(parts) != k + 1:
            raise ValueError(f"bad edge line {line!r}")
        e = [int(x) for x in parts[:k]]
        idx = edge_index(e, n, k)
        if cols[idx] is not None:
            raise ValueError(f"duplicate edge {e}")
        cols[idx] = int(parts[k])
    return Coloring(k, l, n, tuple(cols)), pos + nedges  # type: ignore[arg-type]


def coloring_from_text(text: str) -> Coloring:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    c, pos = coloring_from_lines(lines)
    if pos != len(lines):
        raise ValueError("trailing content after coloring block")
    return c
