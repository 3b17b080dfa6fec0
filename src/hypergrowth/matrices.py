"""Matrices over {0, 1, *}: alternation metrics, submatrix search, slices.

Entries are 0, 1, or None (rendered "*" in text form).  All indices in
the public API are 1-based, matching the vertex convention elsewhere,
and every one is checked: an index outside 1..dim raises IndexError
rather than wrapping to the far end.

An "alternation" is an adjacent pair of entries inside one line that is
exactly {0, 1}; stars never participate.  The alternation number al of a
matrix is 1 plus the largest number of alternations carried by a single
line.

Line orientation differs by dimension, deliberately:
  * 2D: a row fixes the first coordinate and varies the second.
    R(N) collects column indices j such that some row alternates at
    (j, j+1); C(N) collects row indices i such that some column
    alternates at (i, i+1).  So R(N) lives in [s-1], C(N) in [r-1].
  * 3D: a row varies the FIRST coordinate (columns the second, shafts
    the third), and R(M) / C(M) / S(M) collect first / second / third
    coordinates of alternations, living in [r-1] / [s-1] / [t-1].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Optional, Sequence, Union

from .core import parse_fields

Entry = Optional[int]


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions for the requested operation."""


_CHAR = {0: "0", 1: "1", None: "*"}
_ENTRY = {"0": 0, "1": 1, "*": None}
_ENTRIES = frozenset((0, 1, None))


def _check_block(entries, dims: tuple[int, ...]) -> None:
    """ValueError unless entries nest to the lengths dims, outermost first,
    and every innermost line holds only 0, 1 and None (one set test a line)."""
    if min(dims) < 1:
        raise ValueError("dimensions must be positive")
    planes = (entries,)
    for d in dims[:-2]:  # down to the 2D planes of the last two axes
        for block in planes:
            if len(block) != d:
                raise ValueError(f"entries do not match dimensions {dims}")
        planes = tuple(chain.from_iterable(planes))
    rows, cols = dims[-2:]
    for plane in planes:
        if len(plane) != rows:
            raise ValueError(f"entries do not match dimensions {dims}")
        for line in plane:
            if len(line) != cols:
                raise ValueError(f"entries do not match dimensions {dims}")
            try:
                if _ENTRIES.issuperset(line):
                    continue
            except TypeError:  # an unhashable entry
                pass
            raise ValueError(f"line {line!r} has an entry not in {{0, 1, *}}")


def _pick(seq: Sequence, i: int):
    """seq at the 1-based index i; IndexError outside 1..len(seq)."""
    if not 1 <= i <= len(seq):
        raise IndexError(f"index {i} outside 1..{len(seq)}")
    return seq[i - 1]


@dataclass(frozen=True)
class StarMatrix2:
    rows: int
    cols: int
    entries: tuple[tuple[Entry, ...], ...]

    def __post_init__(self):
        _check_block(self.entries, (self.rows, self.cols))

    def at(self, i: int, j: int) -> Entry:
        return _pick(self.row(i), j)

    def row(self, i: int) -> tuple[Entry, ...]:
        return _pick(self.entries, i)

    def col(self, j: int) -> tuple[Entry, ...]:
        return tuple(_pick(row, j) for row in self.entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "StarMatrix2":
        ent = tuple(tuple(_ENTRY.get(ch, ch) for ch in row)
                    if isinstance(row, str) else tuple(row) for row in rows)
        return cls(len(ent), len(ent[0]) if ent else 0, ent)

    @classmethod
    def build(cls, rows: int, cols: int, fn) -> "StarMatrix2":
        """Entries from a function of 1-based (row, column)."""
        return cls(rows, cols, tuple(tuple(fn(i, j) for j in range(1, cols + 1))
                                     for i in range(1, rows + 1)))

    @classmethod
    def identity(cls, r: int) -> "StarMatrix2":
        return cls(r, r, tuple(tuple(1 if i == j else 0 for j in range(r))
                               for i in range(r)))

    @classmethod
    def upper(cls, r: int) -> "StarMatrix2":
        """Upper unitriangular shape: 1 on and above the diagonal."""
        return cls(r, r, tuple(tuple(1 if i <= j else 0 for j in range(r))
                               for i in range(r)))

    def transpose(self) -> "StarMatrix2":
        return StarMatrix2(self.cols, self.rows,
                           tuple(zip(*self.entries)))

    def vflip(self) -> "StarMatrix2":
        return StarMatrix2(self.rows, self.cols, tuple(reversed(self.entries)))

    def hflip(self) -> "StarMatrix2":
        return StarMatrix2(self.rows, self.cols,
                           tuple(tuple(reversed(row)) for row in self.entries))

    def swap_colors(self) -> "StarMatrix2":
        return StarMatrix2(self.rows, self.cols,
                           tuple(tuple(None if x is None else 1 - x for x in row)
                                 for row in self.entries))

    def submatrix(self, rowsel: Iterable[int], colsel: Iterable[int]) -> "StarMatrix2":
        rs = [self.row(i) for i in rowsel]
        cs = tuple(colsel)
        return StarMatrix2(len(rs), len(cs),
                           tuple(tuple(_pick(row, j) for j in cs) for row in rs))

    def to_text(self) -> str:
        lines = [f"matrix2 r={self.rows} s={self.cols}"]
        for row in self.entries:
            lines.append("".join(_CHAR[x] for x in row))
        return "\n".join(lines) + "\n"


def _matrix_from_text(text: str, name: str,
                      keys: tuple[str, ...]) -> tuple[list[int], list[tuple]]:
    """Header dimensions and entry lines of a matrix text block."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if not head or head[0] != name:
        raise ValueError(f"expected {name!r} header")
    kv = parse_fields(head[1:], keys)
    body = [tuple(_ENTRY.get(ch, ch) for ch in ln) for ln in lines[1:]]
    return [int(kv[k]) for k in keys], body


def matrix2_from_text(text: str) -> StarMatrix2:
    (r, s), ent = _matrix_from_text(text, "matrix2", ("r", "s"))
    return StarMatrix2(r, s, tuple(ent))


@dataclass(frozen=True)
class StarMatrix3:
    dim1: int
    dim2: int
    dim3: int
    entries: tuple[tuple[tuple[Entry, ...], ...], ...]  # [i][j][k], 0-based

    def __post_init__(self):
        _check_block(self.entries, self.dims)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.dim1, self.dim2, self.dim3)

    def at(self, i: int, j: int, k: int) -> Entry:
        return _pick(_pick(_pick(self.entries, i), j), k)

    @classmethod
    def build(cls, dims: tuple[int, int, int], fn) -> "StarMatrix3":
        r, s, t = dims
        return cls(r, s, t,
                   tuple(tuple(tuple(fn(i, j, k) for k in range(1, t + 1))
                               for j in range(1, s + 1))
                         for i in range(1, r + 1)))

    def submatrix(self, sel1: Iterable[int], sel2: Iterable[int],
                  sel3: Iterable[int]) -> "StarMatrix3":
        a, b, c = tuple(sel1), tuple(sel2), tuple(sel3)
        return StarMatrix3.build((len(a), len(b), len(c)),
                                 lambda i, j, k: self.at(a[i - 1], b[j - 1], c[k - 1]))

    def to_text(self) -> str:
        lines = [f"matrix3 r={self.dim1} s={self.dim2} t={self.dim3}"]
        for k in range(1, self.dim3 + 1):
            for i in range(1, self.dim1 + 1):
                lines.append("".join(_CHAR[self.at(i, j, k)]
                                     for j in range(1, self.dim2 + 1)))
        return "\n".join(lines) + "\n"


def matrix3_from_text(text: str) -> StarMatrix3:
    (r, s, t), body = _matrix_from_text(text, "matrix3", ("r", "s", "t"))
    if min(r, s, t) < 1:
        raise ValueError("dimensions must be positive")
    if len(body) != r * t:
        raise ValueError(f"expected {r * t} body lines")
    # line k * r + i holds entries[i][.][k]; the constructor checks s
    return StarMatrix3(r, s, t, tuple(tuple(zip(*body[i::r], strict=True))
                                      for i in range(r)))


# --- alternation metrics -----------------------------------------------------


def _alternations(seq: Sequence[Entry]) -> list[int]:
    """1-based start positions of adjacent {0,1} pairs in a line."""
    return [i for i, (a, b) in enumerate(zip(seq, seq[1:]), 1)
            if a != b and a is not None and b is not None]


@dataclass(frozen=True)
class Metrics2:
    al: int
    r_set: tuple[int, ...]  # column indices, subset of [cols-1]
    c_set: tuple[int, ...]  # row indices, subset of [rows-1]


def _scan(lines: Iterable[Sequence[Entry]]) -> tuple[int, set[int]]:
    """Most alternations in one line, and every alternation position."""
    best = 0
    found: set[int] = set()
    for line in lines:
        if 0 in line and 1 in line:  # else the line cannot alternate
            alt = _alternations(line)
            best = max(best, len(alt))
            found.update(alt)
    return best, found


def metrics2(m: StarMatrix2) -> Metrics2:
    rbest, rset = _scan(m.entries)
    cbest, cset = _scan(zip(*m.entries))
    return Metrics2(max(rbest, cbest) + 1, tuple(sorted(rset)),
                    tuple(sorted(cset)))


@dataclass(frozen=True)
class Metrics3:
    al: int
    r_set: tuple[int, ...]
    c_set: tuple[int, ...]
    s_set: tuple[int, ...]


def metrics3(m: StarMatrix3) -> Metrics3:
    ent = m.entries
    # a row varies i, a column j and a shaft k; zip(*stack) gives the
    # lines across a stack of lines
    rbest, rset = _scan(line for j in range(m.dim2)
                        for line in zip(*(plane[j] for plane in ent)))
    cbest, cset = _scan(line for plane in ent for line in zip(*plane))
    sbest, sset = _scan(shaft for plane in ent for shaft in plane)
    return Metrics3(max(rbest, cbest, sbest) + 1, tuple(sorted(rset)),
                    tuple(sorted(cset)), tuple(sorted(sset)))


# --- fullness ----------------------------------------------------------------


@dataclass(frozen=True)
class Fullness:
    r_full: bool
    c_full: bool
    row_assignment: Optional[tuple[int, ...]]  # per row: its private column index
    col_assignment: Optional[tuple[int, ...]]


def _distinct_representatives(eligible: list[list[int]]) -> Optional[list[int]]:
    """System of distinct representatives via augmenting paths, or None."""
    owner: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        for v in eligible[i]:
            if v in seen:
                continue
            seen.add(v)
            if v not in owner or augment(owner[v], seen):
                owner[v] = i
                return True
        return False

    for i in range(len(eligible)):
        if not augment(i, set()):
            return None
    pick = [0] * len(eligible)
    for v, i in owner.items():
        pick[i] = v
    return pick


def fullness(m: StarMatrix2) -> Fullness:
    """R-fullness: one private alternating column position per row (C-full dually)."""
    row_elig = [_alternations(row) for row in m.entries]
    col_elig = [_alternations(col) for col in zip(*m.entries)]
    rpick = _distinct_representatives(row_elig)
    cpick = _distinct_representatives(col_elig)
    return Fullness(rpick is not None, cpick is not None,
                    tuple(rpick) if rpick else None,
                    tuple(cpick) if cpick else None)


# --- pattern search ----------------------------------------------------------


@dataclass(frozen=True)
class PatternClass:
    """A named family of square 0/1 targets closed under the stated flips.

    kind "identity" or "upper"; strong variants exclude the horizontal
    flip.  Each concrete target in the family carries a tag built from
    the transformation names (vflip / hflip / swap), "plain" for none.
    """

    kind: str
    r: int
    strong: bool

    def __post_init__(self):
        if self.kind not in ("identity", "upper"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.r < 1:
            raise ValueError("pattern size must be >= 1")


def identity_strong(r: int) -> PatternClass:
    return PatternClass("identity", r, True)


def identity_similar(r: int) -> PatternClass:
    return PatternClass("identity", r, False)


def upper_strong(r: int) -> PatternClass:
    return PatternClass("upper", r, True)


def upper_similar(r: int) -> PatternClass:
    return PatternClass("upper", r, False)


def pattern_variants(pc: PatternClass) -> list[tuple[str, StarMatrix2]]:
    """Distinct targets of the class, first-named tag kept on duplicates."""
    base = (StarMatrix2.identity(pc.r) if pc.kind == "identity"
            else StarMatrix2.upper(pc.r))
    out: list[tuple[str, StarMatrix2]] = []
    seen = set()
    hflips = (False,) if pc.strong else (False, True)
    for sw in (False, True):
        for hf in hflips:
            for vf in (False, True):
                mat = base
                names = []
                if vf:
                    mat = mat.vflip()
                    names.append("vflip")
                if hf:
                    mat = mat.hflip()
                    names.append("hflip")
                if sw:
                    mat = mat.swap_colors()
                    names.append("swap")
                if mat.entries not in seen:
                    seen.add(mat.entries)
                    out.append(("+".join(names) if names else "plain", mat))
    return out


@dataclass(frozen=True)
class Match2:
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    variant: str


def _greedy_cols(hay: StarMatrix2, rowsel: tuple[int, ...],
                 pat: StarMatrix2) -> Optional[tuple[int, ...]]:
    # with rows fixed, column choice is subsequence matching: leftmost wins
    haycols = [tuple(hay.entries[i - 1][j] for i in rowsel)
               for j in range(hay.cols)]
    patcols = [tuple(pat.entries[i][j] for i in range(pat.rows))
               for j in range(pat.cols)]
    picked = []
    nxt = 0
    for want in patcols:
        while nxt < len(haycols) and haycols[nxt] != want:
            nxt += 1
        if nxt == len(haycols):
            return None
        picked.append(nxt + 1)
        nxt += 1
    return tuple(picked)


def find_pattern2(hay: StarMatrix2,
                  pattern: Union[StarMatrix2, PatternClass]) -> Optional[Match2]:
    """Exhaustive search for a pattern as a (star-exact) submatrix of hay.

    Row selections are tried in lexicographic order, class variants in
    their listed order, and columns greedily leftmost, so the first match
    returned is deterministic.
    """
    if isinstance(pattern, StarMatrix2):
        variants = [("explicit", pattern)]
    else:
        variants = pattern_variants(pattern)
    pr = variants[0][1].rows
    pc = variants[0][1].cols
    if pr > hay.rows or pc > hay.cols:
        return None
    for rowsel in combinations(range(1, hay.rows + 1), pr):
        for name, mat in variants:
            colsel = _greedy_cols(hay, rowsel, mat)
            if colsel is not None:
                return Match2(rowsel, colsel, name)
    return None


# --- slices of 3D matrices ---------------------------------------------------


def _section(plane) -> StarMatrix2:
    """The 2D matrix whose entry (a, b) is plane[b][a]."""
    return StarMatrix2(len(plane[0]), len(plane), tuple(zip(*plane)))


def layer(m: StarMatrix3, axis: int, index: int) -> StarMatrix2:
    """2D slice at a fixed coordinate, with the swapped index convention:

      axis 1: N(a, b) = M(z, b, a)   (t x s)
      axis 2: N(a, b) = M(b, z, a)   (t x r)
      axis 3: N(a, b) = M(b, a, z)   (s x r)

    That is the plane of entries at coordinate z, transposed.
    """
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    if not 1 <= index <= m.dims[axis - 1]:
        raise IndexError("layer index out of range")
    z = index - 1
    ent = m.entries
    if axis == 1:
        return _section(ent[z])
    if axis == 2:
        return _section([plane[z] for plane in ent])
    return _section([[shaft[z] for shaft in plane] for plane in ent])


def cross(m: StarMatrix3, pair: tuple[int, int], mode: str) -> StarMatrix2:
    """Diagonal (mode "d") or antidiagonal (mode "ad") cross-section.

    The two named axes must have equal extent; they are traversed together
    (antidiagonally for "ad") while the remaining axis supplies the other
    index of the result:

      d  (1,2): N(a,b) = M(b, b, a)        ad (1,2): N(a,b) = M(b, s-b+1, a)
      d  (1,3): N(a,b) = M(b, a, b)        ad (1,3): N(a,b) = M(b, a, t-b+1)
      d  (2,3): N(a,b) = M(b, a, a)        ad (2,3): N(a,b) = M(b, a, t-a+1)

    That is the diagonal plane, first coordinate outermost, transposed.
    """
    if mode not in ("d", "ad"):
        raise ValueError("mode must be 'd' or 'ad'")
    if pair not in ((1, 2), (1, 3), (2, 3)):
        raise ValueError("pair must be (1,2), (1,3) or (2,3)")
    x, y = pair
    n = m.dims[y - 1]
    if m.dims[x - 1] != n:
        raise DimensionMismatchError(f"axes {x} and {y} differ in extent")
    at = range(n)[::-1] if mode == "ad" else range(n)  # "ad" runs axis y backwards
    ent = m.entries
    if pair == (1, 2):
        return _section([plane[p] for plane, p in zip(ent, at)])
    if pair == (1, 3):
        return _section([[shaft[p] for shaft in plane] for plane, p in zip(ent, at)])
    return _section([[shaft[p] for shaft, p in zip(plane, at)] for plane in ent])


def al_23d(m: StarMatrix3) -> int:
    """Alternation number along the joint (2,3)-diagonal, per first coordinate."""
    # column x of the (2,3) diagonal cross-section is M(x, i, i), i = 1..s
    best, _ = _scan(zip(*cross(m, (2, 3), "d").entries))
    return best + 1
