"""Closed-form counting sequences.

G_n = G_{n-1} + G_{n-3} is the tight lower bound of the second growth
dichotomy; F (Fibonacci) and the family Gk, compositions into parts 1
and k, are its relatives.  Each is one pass of a linear recurrence in
exact integers.  This layer imports no package module, so the sequence
verb runs it without core or ideals.
"""

from __future__ import annotations

from math import log, log10
from typing import Iterator, Optional


def sequence_G(n: int) -> int:
    """G_1, G_2, G_3, ... = 1, 1, 2, 3, 4, 6, 9, ...

    G_n = G_{n-1} + G_{n-3} with G_0 = G_1 = G_2 = 1: the compositions of n
    into parts 1 and 3.
    """
    return sequence_value("G", n)


def sequence_F(n: int) -> int:
    return sequence_value("F", n)


def sequence_Gk(k: int, n: int) -> int:
    """Compositions of n into parts 1 and k: a(n) = a(n-1) + a(n-k), a(0) = 1.

    For k = 2 this equals F(n+1), the count of compositions into parts
    {1, 2}.
    """
    if k < 2:
        raise ValueError("part size k must be >= 2")
    if n < 0:
        raise ValueError("Gk is defined for n >= 0")
    return next(_gk_values(k, n, n))


def _gk_values(part: int, first: int, last: int) -> Iterator[int]:
    """sequence_Gk(part, m) for m = first..last, 0 <= first.

    Every m < part has the value 1.  The ring of the last part values is
    built only when m reaches part, so a huge part costs nothing below it.
    """
    for _ in range(first, min(last + 1, part)):
        yield 1
    if last >= part:
        ring = [1] * part  # a(m) at index m % part
        for m in range(part, last + 1):
            ring[m % part] += ring[(m - 1) % part]
            if m >= first:
                yield ring[m % part]


def _as_gk(name: str, n: int, k: Optional[int]) -> tuple[int, int]:
    """(part, m) with sequence_value(name, n, k) == sequence_Gk(part, m)."""
    if name == "F":
        if n < 1:
            raise ValueError("F is defined for n >= 1")
        return 2, n - 1
    if name == "G":
        if n < 0:
            raise ValueError("G is defined for n >= 0")
        return 3, n
    if name == "Gk":
        if k is None:
            raise ValueError("sequence Gk needs k")
        return k, n
    if name.startswith("Gk(") and name.endswith(")"):
        return int(name[3:-1]), n
    raise ValueError(f"unknown sequence {name!r}")


def sequence_value(name: str, n: int, k: Optional[int] = None) -> int:
    """Dispatch by sequence name: F, G, Gk (k given separately or as Gk(k))."""
    return sequence_Gk(*_as_gk(name, n, k))


def sequence_exceeds_digits(name: str, n: int, digits: int,
                            k: Optional[int] = None) -> bool:
    """True when sequence_value(name, n, k) surely has more than ``digits``
    decimal digits; decided without computing the value.

    Gk(part, m) >= r**(m - part + 1) for the root r > 1 of x**part =
    x**(part-1) + 1: the power is at most 1 for m < part, and r**(m-part)
    + r**(m-2*part+1) = r**(m-2*part+1) * (r**(part-1) + 1) carries the
    bound through the recurrence.  log10 r is taken a little low, so a
    value is never reported too long; a False says nothing.
    """
    part, m = _as_gk(name, n, k)
    if not 2 <= part < 2 ** 52:
        return False  # past 2**52, r - 1 is below a float's resolution
    # (part-1) ln x + ln(x-1) rises through 0 at r, and logs cannot
    # overflow for a large part; keep the low end of the bracket
    lo, hi = 1.0, 2.0
    for _ in range(64):
        mid = (lo + hi) / 2
        if (part - 1) * log(mid) + log(mid - 1) < 0:
            lo = mid
        else:
            hi = mid
    low_log10 = log10(lo) * (1 - 1e-9)
    # int-float comparison is exact, so a huge m cannot overflow
    return low_log10 > 0 and m - part + 1 >= digits / low_log10
