"""Finitely described ideals and their growth functions.

An ideal is a downward-closed class of colorings: closed under taking
restrictions to vertex subsets.  Two descriptions are supported: Avoid
(everything not containing any coloring from a finite basis) and Builtin
(three families with known growth: disjoint-interval systems S(k), the
single-flipped-interval family, and the first-pair-free family).

Growth |X_n| is computed exactly.  For Avoid the computation extends the
members of X_{n-1} by vertex n with an iterative frontier over the colors
of the new edges, one edge per step, dropping a color prefix as soon as a
basis element embeds through an injection whose image uses vertex n;
older embeddings were excluded at the previous level, so the enumeration
is complete by induction.  Prefixes that still match the same templates
have the same future and are merged, also when they extend different
members, so one frontier serves a whole level.  The templates keep
their colex ranks from level to level, so each level only adds its new
ones.  The frontier starts from each parent's set of active templates.
Only the levels below the last are enumerated, since the next level
extends them; the last level is counted, the merged prefixes carrying a
multiplicity instead of a list.  _plan picks, per level, whether the
parent filter and the count run in the lanes of one big int or parent by
parent and on a dict.  Members are ints holding each edge's color in a
(l-1).bit_length()-bit field, so one engine serves every color count.
Everything is big-integer exact; no floating point enters any count.
"""

from __future__ import annotations

import io
import os
import sys
import threading
from array import array
from collections import Counter
from functools import cmp_to_key, lru_cache
from itertools import combinations
from math import comb, log10
from typing import Optional, Sequence

from .core import (AnyColoring, Coloring, ColoringPattern,
                   IncompatibleColoringsError, _colex_table, _setattr,
                   _validate_header, _Value, all_edges, coloring_from_lines,
                   coloring_to_text, parse_fields)

DEFAULT_BUDGET = 10 ** 8

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_FNV_MASK = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _FNV_MASK
    return h


# --- ideal descriptions -----------------------------------------------------------

BUILTIN_NAMES = ("S", "lineartight", "w1tight")


class IdealSpec(_Value):
    """Finite description of an ideal: a forbidden basis or a named family.
    An immutable slotted value (see core._Value)."""

    __slots__ = __match_args__ = ("kind", "k", "l", "basis", "name")
    kind: str
    k: int
    l: int
    basis: tuple[Coloring, ...]
    name: Optional[str]

    def __init__(self, kind: str, k: int, l: int,
                 basis: tuple[Coloring, ...] = (), name: Optional[str] = None):
        _validate_header(k, l, 1)  # the k, l checks of a coloring
        if kind == "avoid":
            for b in basis:
                if not isinstance(b, Coloring):  # a pattern has no spec text
                    raise ValueError(f"basis element {type(b).__name__} is not "
                                     "a Coloring")
                if (b.k, b.l) != (k, l):
                    raise IncompatibleColoringsError(
                        f"basis element has (k,l)=({b.k},{b.l}), "
                        f"spec has ({k},{l})")
        elif kind == "builtin":
            if name not in BUILTIN_NAMES:
                raise ValueError(f"unknown builtin {name!r}")
            if l != 2:
                raise ValueError("builtin families are two-colored")
            if name == "w1tight" and k != 3:
                raise ValueError("w1tight is a k=3 family")
            if basis:
                raise ValueError("builtin specs carry no basis")
        else:
            raise ValueError(f"unknown spec kind {kind!r}")
        _setattr(self, "kind", kind)
        _setattr(self, "k", k)
        _setattr(self, "l", l)
        _setattr(self, "basis", basis)
        _setattr(self, "name", name)

    @classmethod
    def avoid(cls, basis: Sequence[Coloring], k: Optional[int] = None,
              l: Optional[int] = None) -> "IdealSpec":
        basis = tuple(basis)
        if not basis and (k is None or l is None):
            raise ValueError("empty basis needs explicit k and l")
        if k is None:
            k = basis[0].k
        if l is None:
            l = basis[0].l
        return cls("avoid", k, l, basis)

    @classmethod
    def builtin(cls, name: str, k: int) -> "IdealSpec":
        return cls("builtin", k, 2, (), name)

    def canonical_text(self) -> str:
        if self.kind == "builtin":
            return f"ideal builtin name={self.name} k={self.k}\n"
        head = f"ideal avoid k={self.k} l={self.l}\n"
        return head + "".join(sorted(coloring_to_text(b) for b in self.basis))

    def digest(self) -> str:
        return f"{fnv1a64(self.canonical_text().encode()):016x}"


def ideal_spec_to_text(spec: IdealSpec) -> str:
    return spec.canonical_text()


def ideal_spec_from_text(text: str) -> IdealSpec:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty ideal spec")
    head = lines[0].split()
    if head[:2] == ["ideal", "avoid"]:
        fields = parse_fields(head[2:], ("k", "l"))
        k, l = int(fields["k"]), int(fields["l"])
        basis = []
        pos = 1
        while pos < len(lines):
            c, pos = coloring_from_lines(lines, pos)
            basis.append(c)
        return IdealSpec.avoid(basis, k, l)
    if head[:2] == ["ideal", "builtin"]:
        fields = parse_fields(head[2:], ("name", "k"))
        if len(lines) > 1:
            raise ValueError("builtin spec has trailing content")
        return IdealSpec.builtin(fields["name"], int(fields["k"]))
    raise ValueError(f"bad ideal header {lines[0]!r}")


# --- builtin families -------------------------------------------------------------


def _interval_families(n: int, k: int):
    """All sets of pairwise disjoint k-element intervals in [n]."""

    def rec(start: int):
        yield ()
        for s in range(start, n - k + 2):
            head = tuple(range(s, s + k))
            for rest in rec(s + k):
                yield (head,) + rest

    return rec(1)


def builtin_members(spec: IdealSpec, n: int) -> list[Coloring]:
    """Direct enumeration of a builtin family's members on [n]."""
    k = spec.k
    if n < k:
        return [Coloring(k, 2, n, ())]
    out = []
    if spec.name == "S":
        for fam in _interval_families(n, k):
            out.append(Coloring.from_map(k, 2, n, {e: 0 for e in fam}, filler=1))
    elif spec.name == "lineartight":
        out.append(Coloring.constant(k, 2, n, 0))
        for s in range(1, n - k + 2):
            e = tuple(range(s, s + k))
            out.append(Coloring.from_map(k, 2, n, {e: 1}, filler=0))
    else:  # w1tight, k = 3
        free = list(range(3, n + 1))
        for bits in range(1 << len(free)):
            assign = {(1, 2, free[i]): 1 for i in range(len(free))
                      if bits >> i & 1}
            out.append(Coloring.from_map(3, 2, n, assign, filler=0))
    return out


def builtin_member(spec: IdealSpec, c: Coloring) -> bool:
    """Membership predicate, independent of the enumerations above."""
    if (c.k, c.l) != (spec.k, 2):
        raise IncompatibleColoringsError("coloring does not match the family")
    if c.empty:
        return True
    if spec.name == "S":
        zeros = [e for e, col in zip(c.edges(), c.colors) if col == 0]
        used: set[int] = set()
        for e in zeros:
            if e[-1] - e[0] != spec.k - 1:
                return False
            if used & set(e):
                return False
            used.update(e)
        return True
    if spec.name == "lineartight":
        ones = [e for e, col in zip(c.edges(), c.colors) if col == 1]
        if len(ones) > 1:
            return False
        return all(e[-1] - e[0] == spec.k - 1 for e in ones)
    for e, col in zip(c.edges(), c.colors):
        if col == 1 and (e[0] != 1 or e[1] != 2):
            return False
    return True


def builtin_count(spec: IdealSpec, n: int) -> int:
    if spec.name == "S":
        from .sequences import sequence_Gk
        return sequence_Gk(spec.k, n)
    if spec.name == "lineartight":
        return 1 + max(0, n - spec.k + 1)
    return 1 if n < 2 else 2 ** (n - 2)


def builtin_counts(spec: IdealSpec, n_max: int) -> dict[int, int]:
    """builtin_count(spec, n) for n = 1..n_max, S by one pass of its
    recurrence rather than one per level."""
    if spec.name != "S":
        return {n: builtin_count(spec, n) for n in range(1, n_max + 1)}
    from .sequences import _gk_values
    return dict(zip(range(1, n_max + 1), _gk_values(spec.k, 1, n_max)))


def builtin_exceeds_digits(spec: IdealSpec, n: int, digits: int) -> bool:
    """True when builtin_count(spec, n) surely has more than ``digits``
    decimal digits; decided without computing it, and a False says
    nothing.

    S reads sequence_exceeds_digits.  w1tight's 2**(n-2) has more than
    ``digits`` digits once (n-2) * log10(2) >= digits, tested with
    log10(2) taken a little low.  lineartight's n-k+2 is never reported.
    """
    if spec.name == "S":
        from .sequences import sequence_exceeds_digits
        return sequence_exceeds_digits("Gk", n, digits, spec.k)
    if spec.name == "w1tight":
        # int-float comparison is exact, so a huge n cannot overflow
        return n - 2 >= digits / (log10(2) * (1 - 1e-9))
    return False


def builtin_pattern_basis(spec: IdealSpec) -> tuple[ColoringPattern, ...]:
    """Wildcard forbidden patterns generating the same ideal as the builtin.

    Lets the extension engine recount a builtin family independently of
    the closed-form counts: members are exactly the colorings avoiding
    every pattern here.
    """
    k = spec.k
    pats: list[ColoringPattern] = []
    if spec.name in ("S", "lineartight"):
        col = 0 if spec.name == "S" else 1
        # a marked edge with a gap after position j is not an interval
        for j in range(1, k):
            verts = tuple(v for v in range(1, k + 2) if v != j + 1)
            pats.append(ColoringPattern.from_map(k, 2, k + 1, {verts: col}))
        # two marked intervals overlapping in t vertices
        for t in range(1, k):
            n = 2 * k - t
            e1 = tuple(range(1, k + 1))
            e2 = tuple(range(k - t + 1, n + 1))
            pats.append(ColoringPattern.from_map(k, 2, n, {e1: col, e2: col}))
        if spec.name == "lineartight":
            # two disjoint marked intervals
            e1 = tuple(range(1, k + 1))
            e2 = tuple(range(k + 1, 2 * k + 1))
            pats.append(ColoringPattern.from_map(k, 2, 2 * k, {e1: 1, e2: 1}))
    else:
        pats.append(ColoringPattern.from_map(3, 2, 4, {(2, 3, 4): 1}))
        pats.append(ColoringPattern.from_map(3, 2, 4, {(1, 3, 4): 1}))
    return tuple(pats)


# --- growth by pruned extension ----------------------------------------------------


class GrowthRecord(_Value):
    """Counts |X_n| with per-level exactness; partial when budget ran out.
    An immutable slotted value, unhashable as its dicts are."""

    __slots__ = __match_args__ = ("digest", "k", "counts", "exact", "nodes")
    digest: str
    k: int
    counts: dict[int, int]
    exact: dict[int, bool]
    nodes: int

    def __init__(self, digest: str, k: int, counts: dict[int, int],
                 exact: dict[int, bool], nodes: int):
        _setattr(self, "digest", digest)
        _setattr(self, "k", k)
        _setattr(self, "counts", counts)
        _setattr(self, "exact", exact)
        _setattr(self, "nodes", nodes)


def _split_basis(basis: Sequence[AnyColoring]) -> list:
    """The elements as _new_templates reads them, (size, old, new):
    coloured edges as (0-based positions in the other images, colour), a
    new edge without its last vertex; an empty element has neither."""
    out = []
    for b in basis:
        old, new_edges = [], []
        for e, col in zip(b.edges(), b.colors):
            if col is not None:
                pos = tuple(v - 1 for v in e if v != b.n)
                (new_edges if e[-1] == b.n else old).append((pos, col))
        out.append((b.n, old, new_edges))
    return out


def _new_templates(split: list, n: int, k: int, w: int) -> list:
    """The injection templates that level n adds to level n-1's.

    A template of level n is one (basis element, choice of the other image
    vertices), the last image pinned to vertex n, as (sel, want, last,
    new).  Colours sit in ``w``-bit fields at bit ``colex_rank * w``, so a
    parent realizes the basis colours over its old edges exactly when
    ``parent & sel == want``.  ``new`` holds the (depth, colour) pairs
    over the new edges (those containing n), depth being the new edge's
    colex rank without n, and ``last`` is the largest depth, where the
    frontier checks the template.  A colex rank reads only the edge's own
    vertices, never n, so a choice of other images gives the same template
    at every level from the one after its largest image on.  Level n's
    templates are therefore level n-1's plus the ones listed here, whose
    largest other image is n-1; a one-vertex element has none, so level 1
    adds its template.  An element without coloured edges gives (0, 0,
    -1, ()), which kills every parent.  Ranks are sums over the rows of
    core's cached colex table.
    """
    rows = _colex_table(n, k)
    getitem = tuple.__getitem__
    field = (1 << w) - 1
    out = []
    for size, old, new_edges in split:
        if size > n or size == 1 < n:
            continue
        for head in combinations(range(1, n - 1), max(size - 2, 0)):
            image = (*head, n - 1).__getitem__
            sel = want = 0
            for pos, col in old:
                at = sum(map(getitem, rows, map(image, pos))) * w
                sel |= field << at
                want |= col << at
            new = tuple((sum(map(getitem, rows, map(image, pos))), col)
                        for pos, col in new_edges)
            last = max((j for j, _ in new), default=-1)
            out.append((sel, want, last, new))
    return out


def _new_edge_tables(templates: list, nnew: int, l: int):
    """The frontier's tables over a level's templates, bit i for template i.

    keep[j][c]: templates that colour c at depth j leaves matched, those
    that read no colour there and those that want c; done[j]: templates
    whose last new edge is at depth j.
    """
    keep = [[0] * l for _ in range(nnew)]
    done = [0] * nnew
    for i, (_, _, last, new) in enumerate(templates):
        if last >= 0:
            done[last] |= 1 << i
        for idx, col in new:
            keep[idx][col] |= 1 << i
    full = (1 << len(templates)) - 1
    for row in keep:
        # a template reads at most one colour per depth
        free = full ^ sum(row)
        for col in range(l):
            row[col] |= free
    return keep, done


def _scan_filter(parents, templates) -> tuple[list, int]:
    """The parent filter: each parent's set of active templates as a bit
    set, in the parents' order, and the key of a dead parent, -1.

    A template whose old part the parent realizes is active; one without
    new edges embeds outright, and such a parent is dead: it has no
    children.  Each parent is tested against each template in turn.
    """
    checks = [(sel, want, last, 1 << i)
              for i, (sel, want, last, _) in enumerate(templates)]
    keys: list[int] = []
    append = keys.append
    for parent in parents:
        active = 0
        for sel, want, last, tbit in checks:
            if parent & sel == want:
                if last < 0:
                    active = -1
                    break
                active |= tbit
        append(active)
    return keys, -1


# Lanes and masks of one lane count together stay under this many bytes.
_LANE_BYTES = 1 << 20
# array typecodes by item size, for lanes of 1, 2, 4 or 8 bytes
_LANE_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}
# The parent filter packs a level with at least this many parents and
# parent-template pairs; see _plan.
_FILTER_MIN_PARENTS = 32
_FILTER_MIN_PAIRS = 128


def _lane_size(nbits: int) -> int:
    """Bytes in the least of the 1, 2, 4 and 8-byte lanes that holds
    ``nbits`` >= 1 bits, or 0 when 8 bytes are too few."""
    width = 1 << ((nbits + 7) // 8 - 1).bit_length()
    return width if width <= 8 else 0


def _fits(nparents, ntemplates, nbits, l, nnew) -> tuple[int, int]:
    """(filter_bytes, count_bytes): bytes per lane of _lane_filter and of
    _lane_count wherever a level fits in them, else 0.

    A filter lane holds a parent below a spare top bit, and then the
    parent's key: a bit per template, or all ones for a dead parent.  So
    it needs one bit more than ``nbits``, a bound on the bit length of
    every parent and ``sel`` (the engine passes its C(n-1, k) * w
    old-edge bits), and than the number T of templates, in at most 8
    bytes.  A count lane holds up to every prefix, nparents * l**nnew, in
    at most 8 bytes, and the T masks, the live lane ints and their
    temporaries fit in _LANE_BYTES.
    """
    filter_bytes = _lane_size(max(nbits, ntemplates) + 1)
    count_bytes = _lane_size(max(1, nparents * l ** nnew).bit_length())
    if (ntemplates + 8 << ntemplates) * count_bytes > _LANE_BYTES:
        count_bytes = 0
    return filter_bytes, count_bytes


def _plan(nparents, ntemplates, nbits, l, nnew) -> tuple[int, int]:
    """_fits's lane widths where lanes beat the scan and the dict, else 0.

    Packing the filter costs about 4 us per call and 0.3 us per template;
    the scan costs about 0.16 us per parent and 0.07 us per parent and
    template (2-vCPU VM, Python 3.11).  Measured on lanes of every size,
    the two tie near 32 parents with 2 templates and 64 parents with 1,
    so a level with fewer parents than _FILTER_MIN_PARENTS or fewer pairs
    than _FILTER_MIN_PAIRS, T = 0 included, keeps the scan.  Count lanes
    pay off while there are not many more of them, 2^T, than parents.
    """
    filter_bytes, count_bytes = _fits(nparents, ntemplates, nbits, l, nnew)
    if (nparents < _FILTER_MIN_PARENTS
            or nparents * ntemplates < _FILTER_MIN_PAIRS):
        filter_bytes = 0
    if ntemplates > 2 + nparents.bit_length():
        count_bytes = 0
    return filter_bytes, count_bytes


def _lane_filter(parents, templates, width) -> tuple[array, int]:
    """_scan_filter's sets with one lane of ``width`` bytes per parent.

    All parents sit in one int, parent i in lane i; ``ones`` has a 1 at
    the foot of every lane and ``top`` at its spare top bit.  For a
    template, lane i of (big & sel*ones) ^ want*ones is below the top bit
    and is 0 exactly when parent i matches, so adding top - ones carries
    into the top bit just for the parents that miss.  A live template's
    misses are shifted to bit i of their lanes, and a template without
    new edges clears the top bit of ``alive`` for the parents it kills.
    Flipping the live bits gives each lane its active set; dead lanes
    become all ones, a value no set reaches, which is the dead key.
    """
    bits = 8 * width
    code = _LANE_TYPECODES[width]
    packed = array(code, parents)
    if sys.byteorder == "big":
        packed.byteswap()
    big = int.from_bytes(packed.tobytes(), "little")
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * len(parents),
                          "little")
    top = ones << bits - 1
    fill = top - ones
    missed = live = 0
    alive = top
    for i, (sel, want, last, _) in enumerate(templates):
        miss = ((big & sel * ones) ^ want * ones) + fill & top
        if last < 0:
            alive &= miss
        else:
            missed |= miss >> bits - 1 - i
            live |= 1 << i
    dead = (1 << bits) - 1
    flat = missed ^ live * ones | ((top ^ alive) >> bits - 1) * dead
    keys = array(code, flat.to_bytes(width * len(parents), "little"))
    if sys.byteorder == "big":
        keys.byteswap()
    return keys, dead


# _fits keeps one shape's masks under _LANE_BYTES, so the cache holds at
# most 8 * _LANE_BYTES
@lru_cache(maxsize=8)
def _lane_masks(size: int, width: int) -> tuple[int, ...]:
    """_lane_count's masks for ``size`` templates in lanes of ``width``
    bytes: mask t is all ones in the lanes of the sets that lack template
    t.  They depend on nothing else, so the last 8 shapes are kept."""
    masks = []
    for t in range(size):
        run = width << t
        masks.append(int.from_bytes(
            (b"\xff" * run + bytes(run)) * (1 << size - t - 1), "little"))
    return tuple(masks)


def _lane_count(frontier: dict, templates, nnew, l, cap, width):
    """Count a level from its filtered parents in superset-sum lanes.

    One int holds a lane of ``width`` bytes per set U of templates, lane U
    at byte ``U * width``; after the zeta transform lane U holds how many
    prefixes still match a superset of U, so lane 0 holds them all.  A
    colour at depth j keeps the lanes of the sets without a template that
    wants another colour there (an AND with that template's mask), and a
    template finishing at j with this colour is excluded by one Moebius
    step, lane U minus lane U+t; the colours' results add up to the next
    depth's lanes.  Each step leaves a superset sum of non-negative
    counts, so lane U is at least lane U+t, no subtraction borrows
    across lanes, and no lane outgrows the prefix bound of _fits.
    Nodes and the cap are charged from lane 0 as the dict frontier
    charges them.  Returns (count, nodes), or (None, nodes) past the cap.
    """
    size = len(templates)
    bits = 8 * width
    masks = _lane_masks(size, width)
    packed = array(_LANE_TYPECODES[width], bytes(width << size))
    for state, mult in frontier.items():
        packed[state] = mult
    if sys.byteorder == "big":
        packed.byteswap()
    lanes = int.from_bytes(packed.tobytes(), "little")
    for t, mask in enumerate(masks):
        lanes += (lanes >> (bits << t)) & mask
    # (template, colour, whether depth j is its last) for each read at j
    reads: list[list] = [[] for _ in range(nnew)]
    for t, (_, _, last, new) in enumerate(templates):
        for j, col in new:
            reads[j].append((t, col, j == last))
    lane0 = (1 << bits) - 1
    nodes = 0
    for j in range(nnew):
        nodes += l * (lanes & lane0)
        if nodes > cap:
            return None, nodes
        by_col = [lanes] * l
        for t, want, final in reads[j]:
            mask = masks[t]
            for col in range(l):
                if col != want:
                    by_col[col] &= mask
            if final:
                h = by_col[want]
                by_col[want] = (h & mask) - ((h >> (bits << t)) & mask)
        lanes = sum(by_col)
    return lanes & lane0, nodes


def _chunk_extend(parents, templates, shift, nnew, l, cap, build,
                  plan=_plan):
    """Extend a level's parents by one frontier; (result, nodes).

    ``templates`` and ``parents`` may come in any order: a state is a set
    of templates, so neither order changes the result's members or nodes.
    One frontier serves every parent.  It starts from each parent's set
    of active templates, those whose old part the parent realizes, and
    runs over the new-edge depths, keying each surviving prefix by the
    set of active templates it still matches, which is all that later
    depths read of it; prefixes with one set are merged, across parents
    too.  The filter keys each parent, and the keys are grouped here, in
    the order of each set's first parent.  With ``build``, a state lists
    its prefixes, each a parent int with the new colours in ``w``-bit
    fields (depth j at bit ``shift + j * w``), so colour 0 leaves a
    prefix as it is, and the result is those (unsorted) lists of members.
    Counting, a state holds its number of prefixes and the result is
    their total.  ``plan`` (_plan, unless a test or check forces a path)
    gives the filter's and the count's lane widths, 0 for _scan_filter or
    the dict below, with the same result and nodes either way; only a
    counted level reads the count's.  ``nodes`` grows by ``l`` per prefix
    and depth, the sum of the nodes of each parent's depth-first walk.  Once it
    exceeds ``cap`` the walk stops and the result is None, so a budget
    drops the same levels as that walk.
    """
    filter_bytes, count_bytes = plan(len(parents), len(templates), shift,
                                     l, nnew)
    if filter_bytes:
        keys, dead = _lane_filter(parents, templates, filter_bytes)
    else:
        keys, dead = _scan_filter(parents, templates)
    if build:
        frontier: dict = {}
        for key, parent in zip(keys, parents):
            if key != dead:
                frontier.setdefault(key, []).append(parent)
    else:
        frontier = Counter(keys)
        frontier.pop(dead, None)
        if count_bytes:
            return _lane_count(frontier, templates, nnew, l, cap, count_bytes)
    w = (l - 1).bit_length()
    keep, done = _new_edge_tables(templates, nnew, l)
    nodes = 0
    for j, finished in enumerate(done):
        nodes += l * (sum(map(len, frontier.values())) if build
                      else sum(frontier.values()))
        if nodes > cap:
            return None, nodes
        nxt: dict = {}
        # a template still matched at its last edge embeds; counting or
        # building is chosen once per depth, not per colour
        if build:
            at = shift + j * w
            for state, prefixes in frontier.items():
                for col, mask in enumerate(keep[j]):
                    matched = state & mask
                    if not matched & finished:
                        if col:
                            bits = col << at
                            nxt.setdefault(matched, []).extend(
                                [p | bits for p in prefixes])
                        else:
                            nxt.setdefault(matched, []).extend(prefixes)
        else:
            for state, mult in frontier.items():
                for mask in keep[j]:
                    matched = state & mask
                    if not matched & finished:
                        nxt[matched] = nxt.get(matched, 0) + mult
        frontier = nxt
    if build:
        return list(frontier.values()), nodes
    return sum(frontier.values()), nodes


def _levels(basis: Sequence[AnyColoring], k: int, l: int, n_max: int,
            budget: int, build_last: bool, plan=_plan):
    """The level loop: a record (n, count, nodes, members) per exact level.

    Levels below n_max are built, as member ints in no particular order,
    the parents of the next level; level n_max is counted, members None,
    unless ``build_last``.  An empty level is (n, 0, 0, []): with nothing
    to extend it costs no nodes.  One template list grows by
    _new_templates at every level.  A level is exact when its ``nodes``
    fit in what is left of ``budget``; the loop returns before the first
    that does not fit.  A level runs only when its record is read, so a
    consumer that stops early is charged nothing for the levels it skips.
    """
    for b in basis:
        if (b.k, b.l) != (k, l):
            raise IncompatibleColoringsError("basis does not match (k, l)")
    w = (l - 1).bit_length()
    split = _split_basis(basis)
    parents: list[int] = [0]
    templates: list = []
    for n in range(1, n_max + 1):
        if not parents:
            yield n, 0, 0, parents
            continue
        templates += _new_templates(split, n, k, w)
        build = build_last or n < n_max
        result, nodes = _chunk_extend(
            parents, templates, comb(n - 1, k) * w, comb(n - 1, k - 1), l,
            budget, build, plan)
        if nodes > budget:
            return
        budget -= nodes
        if build:
            parents = [m for ps in result for m in ps]
            yield n, len(parents), nodes, parents
        else:
            yield n, result, nodes, None


def avoid_growth(basis: Sequence[AnyColoring], k: int, l: int, n_max: int,
                 budget: int = DEFAULT_BUDGET):
    """Exact levelwise counts for the ideal avoiding the given basis.

    Basis entries may be wildcard patterns.  Returns (counts, exact, nodes).
    The node budget is spent level by level: a level is exact when its
    nodes fit in what is left, and the first that does not fit is dropped
    with every later one.  So a level that costs no nodes (n < k, or one
    whose parents all die, or one after an empty level) is exact even
    once the budget is spent, and a run given its own ``nodes`` as the
    budget returns the same record.
    """
    counts: dict[int, int] = {}
    nodes = 0
    for n, count, cost, _ in _levels(basis, k, l, n_max, budget, False):
        counts[n] = count
        nodes += cost
    exact = {n: n in counts for n in range(1, n_max + 1)}
    return counts, exact, nodes


def growth(spec: IdealSpec, n_max: int, budget: int = DEFAULT_BUDGET,
           cache: Optional[str] = None) -> GrowthRecord:
    """Growth record for an ideal description; consults the cache if given."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    digest = spec.digest()
    if cache is not None:
        # a hit needs every level's row, each flagged exact; a row that is
        # not exact is a miss, and the recount's update overwrites it
        got = _read_cache(cache)[1]
        rows = [got.get((digest, n)) for n in range(1, n_max + 1)]
        if all(row is not None and row[1] for row in rows):
            counts = {n: row[0] for n, row in enumerate(rows, 1)}
            return GrowthRecord(digest, spec.k,
                                counts, {n: True for n in counts}, 0)
    if spec.kind == "builtin":
        counts = builtin_counts(spec, n_max)
        exact = {n: True for n in counts}
        nodes = 0
    else:
        counts, exact, nodes = avoid_growth(spec.basis, spec.k, spec.l,
                                            n_max, budget)
    if cache is not None:
        update_cache(cache, digest, counts, exact)
    return GrowthRecord(digest, spec.k, counts, exact, nodes)


def avoid_members(basis: Sequence[AnyColoring], k: int, l: int, n: int,
                  budget: int = DEFAULT_BUDGET) -> list[Coloring]:
    """Materialized X_n of an Avoid ideal (small n only).

    Runs the level loop of avoid_growth, so the node budget is spent
    cumulatively over levels 1..n; RuntimeError if it runs out first.
    The members come in ascending order of their engine ints, which hold
    each edge's colour in colex edge order, the last edge highest.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    got = 0
    for got, _, _, members in _levels(basis, k, l, n, budget, True):
        pass
    if got != n:
        raise RuntimeError("budget exhausted while materializing members")
    members.sort()
    w = (l - 1).bit_length()
    field = (1 << w) - 1
    # member ints hold colours in colex edge order; storage is lex.  Each
    # colour is a w-bit field of an engine int, valid by construction.
    rows = _colex_table(n, k)
    shifts = [sum(map(tuple.__getitem__, rows, e)) * w
              for e in all_edges(n, k)]
    return [Coloring._trusted(k, l, n, tuple(m >> at & field for at in shifts))
            for m in members]


# --- dichotomy verdicts -------------------------------------------------------------


class DichotomyVerdict(_Value):
    """Window-relative reading of a growth record; never an asymptotic claim.
    An immutable slotted value."""

    __slots__ = __match_args__ = ("theorem", "classification", "window",
                                  "caveat", "details")
    theorem: str
    classification: str
    window: tuple[int, int]
    caveat: str
    details: tuple[tuple[str, str], ...]

    def __init__(self, theorem: str, classification: str,
                 window: tuple[int, int], caveat: str,
                 details: tuple[tuple[str, str], ...]):
        _setattr(self, "theorem", theorem)
        _setattr(self, "classification", classification)
        _setattr(self, "window", window)
        _setattr(self, "caveat", caveat)
        _setattr(self, "details", details)


_CAVEAT = "window-relative: counts outside the computed range are unknown"


def dichotomy_verdict(record: GrowthRecord, theorem: str) -> DichotomyVerdict:
    """Classify a record against one of the two growth dichotomy shapes.

    theorem "constant": a downward-closed class either settles on a
    constant or grows at least linearly (floor n - k + 2 for n >= k);
    "violation" here means both readings fail on exact data, which no
    correct computation should produce.  theorem "quasi_fibonacci":
    pointwise comparison against the G sequence and small power fits.
    """
    ns = sorted(n for n, ok in record.exact.items() if ok and n in record.counts)
    if not ns:
        raise ValueError("record has no exact counts")
    window = (ns[0], ns[-1])
    k = record.k
    cnt = record.counts
    details: dict[str, str] = {}
    if theorem == "constant":
        tail = ns[-3:]
        constant_tail = len(tail) == 3 and len({cnt[n] for n in tail}) == 1
        floor_ns = [n for n in ns if n >= k]
        floor_ok = all(cnt[n] >= n - k + 2 for n in floor_ns)
        floor_eq = bool(floor_ns) and all(cnt[n] == n - k + 2 for n in floor_ns)
        details["constant_tail"] = str(constant_tail).lower()
        details["linear_floor"] = str(floor_ok).lower()
        details["floor_equality"] = str(floor_eq).lower()
        if constant_tail:
            details["tail_value"] = str(cnt[ns[-1]])
            classification = "constant-tail candidate"
        elif floor_ok:
            classification = "linear-floor satisfied"
        else:
            classification = "violation"
    elif theorem == "quasi_fibonacci":
        # imported here: fractions (and decimal, which it loads) would add
        # ~2 ms to every process start for this one branch, and a start
        # that only counts never runs sequences
        from fractions import Fraction

        from .sequences import _as_gk, _gk_values
        part, lo = _as_gk("G", ns[0], None)
        g = dict(zip(range(lo, ns[-1] + 1), _gk_values(part, lo, ns[-1])))
        ge = all(cnt[n] >= g[n] for n in ns)
        eq = all(cnt[n] == g[n] for n in ns)
        c = 0  # the least c with cnt[n] <= n ** c at every n >= 2
        for n in ns:
            if n >= 2 and cnt[n] > n ** c:
                # n ** e < 2 ** (e * n.bit_length()) <= cnt[n] for e >= 1
                # up to this start, so no smaller exponent can do
                c = max(c, (cnt[n].bit_length() - 1) // n.bit_length())
                while cnt[n] > n ** c:
                    c += 1
        details["ge_G"] = str(ge).lower()
        details["eq_G"] = str(eq).lower()
        details["poly_exponent"] = str(c)
        ratios = [(cnt[b], cnt[a]) for a, b in zip(ns, ns[1:]) if cnt[a] > 0]
        if ratios:
            # compared by cross products; only the two reported are reduced
            key = cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])
            details["ratio_min"] = str(Fraction(*min(ratios, key=key)))
            details["ratio_max"] = str(Fraction(*max(ratios, key=key)))
        if eq:
            classification = "quasi-fibonacci floor met with equality"
        elif ge:
            classification = "quasi-fibonacci floor met"
        else:
            classification = "below quasi-fibonacci floor within window"
    else:
        raise ValueError(f"unknown theorem {theorem!r}")
    return DichotomyVerdict(theorem, classification, window, _CAVEAT,
                            tuple(sorted(details.items())))


# --- census helpers ------------------------------------------------------------------


def census_distinct(colorings: Sequence[AnyColoring]) -> int:
    """Number of pairwise distinct color maps in a list of same-shape colorings."""
    if not colorings:
        return 0
    shape = (colorings[0].k, colorings[0].l, colorings[0].n)
    for c in colorings:
        if (c.k, c.l, c.n) != shape:
            raise ValueError("census needs colorings of one shape")
    return len({c.colors for c in colorings})


# --- growth cache ---------------------------------------------------------------------


# The last cache bytes parsed, with their entries: a read of the same
# bytes skips the parse, and a read of those bytes with rows appended
# parses only the appended text.  Keyed by content, not by path or
# os.stat, because coarse mtimes and reused inodes can hide a rewrite.
# Appended rows go into the slot's own dict, so parses hold the lock:
# two threads must not extend one dict with interleaved rows.
_CacheEntries = dict[tuple[str, int], tuple[int, bool]]
_cache_slot: tuple[bytes, _CacheEntries] = (b"", {})
_cache_lock = threading.Lock()


def _read_cache(path: str) -> tuple[bytes, _CacheEntries]:
    """The file's bytes and their entries, parsing only what is new.

    A missing file reads as empty.  When the file only grew, the appended
    rows go into the slot's own dict, so entries returned earlier gain
    them too: the caller must neither change the entries nor keep them.
    """
    global _cache_slot
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = b""
    with _cache_lock:
        old, entries = _cache_slot
        if data == old:
            return old, entries
        if data.startswith(old) and old[-1:] in (b"", b"\n"):
            # rows appended after a whole line: the old rows parse as
            # before.  The slot stays empty until the new rows are in, so
            # a parse cut short by an exception is redone in full.
            _cache_slot = (b"", {})
            text = data[len(old):]
        else:
            entries, text = {}, data
        for line in io.StringIO(text.decode("utf-8", errors="replace"),
                                newline=None):
            line = line.strip()
            if not line:
                continue
            try:
                digest, n, count, exact = line.split("\t")
                entries[(digest, int(n))] = (int(count), exact == "1")
            except ValueError:
                continue
        _cache_slot = (data, entries)
    return data, entries


def load_cache(path: str) -> dict[tuple[str, int], tuple[int, bool]]:
    """Cached counts by (digest, n); malformed rows are skipped.

    The file is read on every call, so rows written by other processes
    are always seen; when it only grew, after a complete line, since the
    last parse in this process, only the appended bytes are parsed.  A
    missing file reads as empty.  Rows are UTF-8 (undecodable bytes
    replaced) with universal newlines; a later row overrides an earlier
    one with the same key.
    """
    return dict(_read_cache(path)[1])


def _cache_row(key: tuple[str, int], value: tuple[int, bool]) -> bytes:
    (dg, n), (cnt, ex) = key, value
    return f"{dg}\t{n}\t{cnt}\t{1 if ex else 0}\n".encode("utf-8")


def update_cache(path: str, digest: str, counts: dict[int, int],
                 exact: dict[int, bool]):
    """Append the exact counts whose rows the cache lacks or holds otherwise.

    The new rows go out as one block through an O_APPEND descriptor, so
    rows that other processes append meanwhile are kept, and a reader sees
    whole rows up to at most one torn last row, which parses as malformed
    or not exact.  The block starts on a fresh line even after such a row.
    """
    data, entries = _read_cache(path)
    block = b"".join(_cache_row((digest, n), (cnt, True))
                     for n, cnt in counts.items() if exact.get(n)
                     and entries.get((digest, n)) != (cnt, True))
    if not block:
        return
    if data and not data.endswith(b"\n"):
        block = b"\n" + block
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        view = memoryview(block)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)
