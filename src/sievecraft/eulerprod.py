"""Rigorous interval evaluation of the Euler-product main terms."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import kernels, localdens, numutil
from .poly import BinForm, IntPoly, discriminant, require_squarefree


@dataclass
class EulerEstimate:
    """Interval [lower, upper] containing the infinite product, and the
    truncated part T, the product of the factors 1 - hits[i] / primes[i]^k,
    rounded to nearest as `nearest`.  T is kept exact as num / den (not in
    lowest terms), built on first access."""

    lower: float
    upper: float
    nearest: float
    B: int
    primes: list[int]
    hits: list[int]
    k: int
    status: str = "ok"  # ok | widened | zero_density

    @cached_property
    def num(self) -> int:
        return _product(p**self.k - h for p, h in zip(self.primes, self.hits))

    @cached_property
    def den(self) -> int:
        return _product(self.primes) ** self.k

    @property
    def truncated(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def factors(self) -> list[tuple[int, Fraction]]:
        return [(p, Fraction(p**self.k - h, p**self.k)) for p, h in zip(self.primes, self.hits)]


def ratio_down(num: int, den: int) -> float:
    """The largest float <= num / den (den > 0), without reducing the
    fraction: int true division rounds correctly, and one cross-multiplication
    with the float's own ratio tells which side of num / den it fell."""
    x = num / den
    a, b = x.as_integer_ratio()
    return x if a * den <= num * b else math.nextafter(x, -math.inf)


def ratio_up(num: int, den: int) -> float:
    """The smallest float >= num / den (den > 0); see ratio_down."""
    x = num / den
    a, b = x.as_integer_ratio()
    return x if a * den >= num * b else math.nextafter(x, math.inf)


def float_down(q: Fraction) -> float:
    """The largest float <= q."""
    return ratio_down(q.numerator, q.denominator)


def float_up(q: Fraction) -> float:
    """The smallest float >= q."""
    return ratio_up(q.numerator, q.denominator)


def _prime_factors(d: int, what: str) -> list[int]:
    f = numutil.factorize(abs(d)) if d != 0 else None
    if f is None or not f.complete:
        raise ValueError(f"could not factor the {what}")
    return [p for p, _ in f.pairs]


def _bad_primes_univ(P: IntPoly) -> list[int]:
    d = abs(discriminant(P)) * abs(P.lead) * max(P.content(), 1)
    return _prime_factors(d, "discriminant for tail control")


def _product(xs) -> int:
    """Product of many small integers: sequential products of blocks of
    256, then a balanced tree over the blocks."""
    it = iter(xs)
    parts = []
    while block := list(itertools.islice(it, 256)):
        parts.append(math.prod(block))
    while len(parts) > 1:
        parts = [math.prod(parts[i : i + 2]) for i in range(0, len(parts), 2)]
    return parts[0] if parts else 1


# bits of the fixed-point enclosure of the truncated product, and the factors
# multiplied into it per floor / ceiling step
_PRECISION = 192
_ENCLOSURE_BLOCK = 32


def _enclosure(qs: list[int], nums: list[int]) -> tuple[int, int]:
    """Integers lo <= 2^_PRECISION * prod nums[i] / qs[i] <= hi (all
    qs[i] > 0): the product of the |nums[i]| of each block of factors
    floored into lo and ceiled into hi, then the sign applied.  Each block
    adds at most 2 to hi - lo where its factors are at most 1 in size, so
    hi - lo <= 2 * #blocks wherever every |nums[i]| <= qs[i]."""
    lo = hi = 1 << _PRECISION
    for i in range(0, len(qs), _ENCLOSURE_BLOCK):
        n, q = abs(math.prod(nums[i : i + _ENCLOSURE_BLOCK])), math.prod(qs[i : i + _ENCLOSURE_BLOCK])
        lo, hi = lo * n // q, -(-hi * n // q)
    return (-hi, -lo) if sum(n < 0 for n in nums) % 2 else (lo, hi)


def rounded(rnd, lo: int, hi: int, exact) -> float:
    """rnd(x) for an x with lo <= 2^_PRECISION * x <= hi, where rnd(num,
    den) (den > 0) rounds num / den monotonically: rounded from both ends,
    and only where they differ from exact(), which returns x as an
    unreduced (num, den) (Ziv's strategy), so the float is that of x."""
    x = rnd(lo, 1 << _PRECISION)
    return x if x == rnd(hi, 1 << _PRECISION) else rnd(*exact())


def _estimate(
    primes: list[int], hits: list[int], k: int, B: int, status: str, tail_lo: Fraction
) -> EulerEstimate:
    """The product T of the factors 1 - hits/p^k over the primes (each
    0 <= hits[i] <= primes[i]^k), to nearest, and the interval
    [T * tail_lo, T] around it, rounded outward from the fixed-point
    enclosure of T by `rounded`."""
    qs = [p**k for p in primes]
    nums = [q - h for q, h in zip(qs, hits)]
    if min(nums) <= 0:
        i = next(i for i, n in enumerate(nums) if n <= 0)
        return EulerEstimate(0.0, 0.0, 0.0, B, primes[: i + 1], hits[: i + 1], k, "zero_density")
    a, b = max(tail_lo, Fraction(0)).as_integer_ratio()
    lo, hi = _enclosure(qs, nums)
    est = EulerEstimate(0.0, 0.0, 0.0, B, primes, hits, k, status)
    est.lower = rounded(ratio_down, lo * a // b, -(-hi * a // b), lambda: (est.num * a, est.den * b))
    est.upper = rounded(ratio_up, lo, hi, lambda: (est.num, est.den))
    est.nearest = rounded(operator.truediv, lo, hi, lambda: (est.num, est.den))
    return est


def _root_counts(coeffs, B: int, bad: list[int]) -> tuple[list[int], list[int | None], str]:
    """The primes <= B plus the bad primes beyond B, per prime the number of
    roots of coeffs mod p (None at every bad prime, which the caller
    lifts), and the status."""
    primes = kernels.prime_sieve(B)
    good = ~np.isin(primes, [p for p in bad if p <= B])
    counts = np.full(primes.size, None, dtype=object)
    counts[good] = kernels.root_counts_mod_primes(coeffs, primes[good])
    beyond = sorted(p for p in bad if p > B)
    return primes.tolist() + beyond, counts.tolist() + [None] * len(beyond), "widened" if beyond else "ok"


def density_univ(P: IntPoly, B: int, m: int = 2) -> EulerEstimate:
    """Interval for prod_p (1 - ell(p^m)/p^m).

    The truncated part runs over p <= B plus every prime dividing
    Disc(P)*lead(P)*content(P) (so all tail primes satisfy
    ell(p^m) = ell(p) <= deg P); the tail lower bound uses
    sum_{p>B} p^-m < B^(1-m)/(m-1).  At the primes <= B that divide none
    of these, ell(p^m) = ell(p) too, read from the roots mod p; only the
    bad primes are lifted.
    """
    require_squarefree(P)
    if P.degree < 1 or B < 2 or m < 2:
        raise ValueError("need deg P >= 1, B >= 2, m >= 2")
    bad = _bad_primes_univ(P)
    primes, counts, status = _root_counts(P.coeffs, B, bad)
    ell = [localdens.count_roots_mod_pk(P, p, m) if n is None else n for p, n in zip(primes, counts)]
    # tail: all remaining primes are > B and do not divide Disc*lead*cont,
    # so ell(p^m) <= deg and each factor >= 1 - deg/p^m > 0
    tail_lo = 1 - Fraction(P.degree, (m - 1) * B ** (m - 1))
    return _estimate(primes, ell, m, B, status, tail_lo)


def chart_data(F: BinForm) -> int:
    """The content of F times the leading coefficient and the discriminant
    of either chart F(x, 1), F(1, z).  At every prime not dividing it both
    charts have only simple roots mod p, so the coprime pair count mod p^2
    is (#roots of F(x, 1) mod p + [z | F]) * (p^2 - p)."""
    d = max(F.content(), 1)
    for chart in (F.on_x_chart(), F.on_z_chart()):
        d *= chart.lead * (discriminant(chart) if chart.degree >= 1 else 1)
    return d


def _chart_primes(F: BinForm) -> list[int]:
    """The primes of chart_data(F)."""
    return _prime_factors(chart_data(F), "form discriminant data")


def density_form(F: BinForm, B: int, coprime: bool = False) -> EulerEstimate:
    """Interval for prod_p (1 - ell2(p^2)/p^4) (all pairs), or, with
    coprime=True, prod_p (1 - (p^2 + cc_p)/p^4) with cc_p the coprime
    pair count: the exact per-prime density of coprime pairs with
    square-free value, normalized per unit of all pairs.

    For primes away from Disc*lead the two factor families coincide.
    """
    require_squarefree(F)
    if F.degree < 1:
        raise ValueError("degree must be >= 1")
    if B < 2:
        raise ValueError("B must be >= 2")
    bad = _chart_primes(F)
    primes, counts, status = _root_counts(F.on_x_chart().coeffs, B, bad)
    at_infinity = 1 if F.coeffs[-1] == 0 else 0  # z | F: F(1, z) has the root 0
    hits = []
    for p, n in zip(primes, counts):
        if n is None:
            cc = localdens.coprime_count_form(F, p)
        else:
            cc = (n + at_infinity) * (p * p - p)
        hits.append(p * p + cc if coprime else cc + localdens._noncoprime_count(F, p))
    # tail: ell2(p^2) = cc + p^2 <= 2*deg*(p^2 - p) + p^2 <= (2*deg+1)*p^2
    tail_lo = 1 - Fraction(2 * F.degree + 1, B)
    return _estimate(primes, hits, 4, B, status, tail_lo)
