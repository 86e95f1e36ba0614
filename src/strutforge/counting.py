"""Exact diagram/relation counts for the single-Y subspace.

Everything here is closed-form big-integer and exact-rational arithmetic:
u(n, k) counts diagrams with one Y-component and n struts on k colors,
r(n, k) counts the strut-recoloring relations among them, and their ratio
decides when relations must outnumber diagrams.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, NoCrossingError, Value, _set


def u(n: int, k: int) -> int:
    """Number of one-Y diagrams with n struts on k colors."""
    if k < 3:
        raise DomainError(f"u(n, k) needs k >= 3, got k={k}")
    if n < 0:
        raise DomainError(f"u(n, k) needs n >= 0, got n={n}")
    s = math.comb(k, 2)
    return math.comb(k, 3) * math.comb(s + n - 1, n)


def r(n: int, k: int) -> int:
    """Number of relation configurations: an ordered special strut plus
    n+1 further struts."""
    if k < 2:
        raise DomainError(f"r(n, k) needs k >= 2, got k={k}")
    if n < 0:
        raise DomainError(f"r(n, k) needs n >= 0, got n={n}")
    s = math.comb(k, 2)
    return k * (k - 1) * math.comb(s + n, n + 1)


def ratio(n: int, k: int) -> Fraction:
    """r(n, k) / u(n, k) in closed form, exactly."""
    if k < 3:
        raise DomainError(f"ratio(n, k) needs k >= 3, got k={k}")
    if n < 0:
        raise DomainError(f"ratio(n, k) needs n >= 0, got n={n}")
    return Fraction(6 * (math.comb(k, 2) + n), (k - 2) * (n + 1))


def ratio_limit(k: int) -> Fraction:
    """Limit of ratio(n, k) as n grows: 6/(k-2)."""
    if k < 3:
        raise DomainError(f"ratio_limit(k) needs k >= 3, got k={k}")
    return Fraction(6, k - 2)


def crossing_n(k: int) -> tuple[Fraction, int]:
    """Strut count where the relation/diagram ratio equals 1.

    Solves 6*(C(k,2) + n) = (k-2)*(n+1) for n and returns the exact
    rational root with its ceiling.  Only defined for k >= 9: below that
    the limit of the ratio is at least 1 and there is no crossing.
    """
    if k <= 8:
        raise NoCrossingError(
            f"ratio(n, {k}) stays >= 1 for all n (limit {ratio_limit(max(k, 3))})"
            if k >= 3 else f"crossing_n(k) needs k >= 9, got k={k}")
    root = Fraction((k - 2) - 6 * math.comb(k, 2), 8 - k)
    return root, math.ceil(root)


def existence_bound(n: int, k: int) -> int:
    """u(n, k) - r(n, k); when positive it lower-bounds the quotient
    dimension, certifying a nontrivial invariant of type n + 2."""
    return u(n, k) - r(n, k)


class CountReport(Value):
    """Exact counts for one (n, k) cell."""

    __slots__ = ("n", "k", "u", "r", "ratio", "existence_bound")
    n: int
    k: int
    u: int
    r: int
    ratio: Fraction
    existence_bound: int

    def __init__(self, n: int, k: int, u: int, r: int, ratio: Fraction,
                 existence_bound: int) -> None:
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "u", u)
        _set(self, "r", r)
        _set(self, "ratio", ratio)
        _set(self, "existence_bound", existence_bound)

    @property
    def invariant_type(self) -> int:
        """Degree of the diagrams counted: n struts plus one Y."""
        return self.n + 2


def count_report(n: int, k: int) -> CountReport:
    return CountReport(n=n, k=k, u=u(n, k), r=r(n, k), ratio=ratio(n, k),
                       existence_bound=existence_bound(n, k))
