"""The abstract truncated sieve on finite instances: soils (P, A, r, f)
with multiplicative weight h, the M-truncated Mobius estimator, and the
two exact error bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence


def mu(subset_size: int) -> int:
    """mu(S) = (-1)^#S."""
    return -1 if subset_size % 2 else 1


def _submasks(d: int):
    """Every submask of the bitmask d, from d itself down to 0."""
    sub = d
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & d


def _pairs(S: "SoilSpec", M: int):
    """Every pair (d, d' subset of d) with h(d) <= M, in one fixed order."""
    for d in S.subsets_up_to(M):
        for sub in _submasks(d):
            yield d, sub


def _band(S: "SoilSpec", M: int) -> tuple[list[int], int]:
    """(the d with M < h(d) <= M^2, the sum of S_{p} over h({p}) > M^2)."""
    mid = [d for d in S.subsets_up_to(M * M) if S.h(d) > M]
    return mid, sum(S.S(1 << i) for i, w in enumerate(S.weights) if w > M * M)


class SoilSpec:
    """A finite soil: labelled primes with weights h({p}) >= 2, a finite
    ground set A, a map r: a -> subset of P, and a bounded weight
    f(a, d).  h extends multiplicatively to subsets, which gives (h1)
    with equality and (h2).  Subsets are bitmasks internally; the f and
    r callbacks see frozensets of labels."""

    def __init__(
        self,
        primes: Sequence[tuple[Hashable, int]],
        ground: Sequence,
        r: Callable[[object], Iterable[Hashable]],
        f: Callable[[object, frozenset], complex],
    ):
        if len({lab for lab, _ in primes}) != len(primes):
            raise ValueError("duplicate prime labels")
        if any(w < 2 for _, w in primes):
            raise ValueError("weights h({p}) must be >= 2")
        if len(primes) > 64:
            raise ValueError("at most 64 primes supported")
        self.labels = [lab for lab, _ in primes]
        self.weights = [int(w) for _, w in primes]
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.ground = list(ground)
        self._f = f
        self._fcache: dict[tuple[int, int], complex] = {}
        self.rmask = []
        for a in self.ground:
            m = 0
            for lab in r(a):
                m |= 1 << self.index[lab]
            self.rmask.append(m)

    # -- subsets ------------------------------------------------------------

    def mask_of(self, subset: Iterable[Hashable]) -> int:
        m = 0
        for lab in subset:
            m |= 1 << self.index[lab]
        return m

    def labels_of(self, mask: int) -> frozenset:
        return frozenset(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    def h(self, mask: int) -> int:
        out = 1
        for i, w in enumerate(self.weights):
            if mask >> i & 1:
                out *= w
        return out

    def h_total(self) -> int:
        return math.prod(self.weights)

    def subsets_up_to(self, M: int) -> list[int]:
        """All masks d with h(d) <= M, by weight-ordered DFS (never a
        blind 2^|P| scan when M is small)."""
        order = sorted(range(len(self.weights)), key=lambda i: self.weights[i])
        out: list[int] = []

        def rec(pos: int, mask: int, hval: int) -> None:
            out.append(mask)
            for i in range(pos, len(order)):
                w = self.weights[order[i]]
                if hval * w > M:
                    break
                rec(i + 1, mask | 1 << order[i], hval * w)

        rec(0, 0, 1)
        return out

    # -- sums ---------------------------------------------------------------

    def feval(self, ai: int, mask: int) -> complex:
        key = (ai, mask)
        v = self._fcache.get(key)
        if v is None:
            v = self._f(self.ground[ai], self.labels_of(mask))
            self._fcache[key] = v
        return v

    def direct_sum(self) -> complex:
        return sum(self.feval(i, m) for i, m in enumerate(self.rmask))

    def A_sum(self, d1: int, d2: int) -> complex:
        """A_{d1,d2} = sum over a with r(a) containing d1 of f(a, d2)."""
        if d2 & ~d1:
            raise ValueError("d2 must be a subset of d1")
        return sum(
            self.feval(i, d2) for i, m in enumerate(self.rmask) if m & d1 == d1
        )

    def S(self, d: int) -> int:
        """S_d = #{a : r(a) contains d}."""
        return sum(1 for m in self.rmask if m & d == d)

    def max_abs_f(self) -> float:
        """max |f(a, d')| over every pair that any A_{d,d'} or the direct
        sum can touch (d' a subset of r(a))."""
        best = 0.0
        for i, m in enumerate(self.rmask):
            if m.bit_count() > 20:
                raise ValueError("r(a) too large to scan subsets")
            for sub in _submasks(m):
                best = max(best, abs(self.feval(i, sub)))
        return best

    def truncated_estimate(self, M: int) -> complex:
        """sum_{h(d)<=M} sum_{d' subset d} mu(d-d') A_{d,d'}."""
        if M < 1:
            raise ValueError("M must be >= 1")
        total: complex = 0
        for d, sub in _pairs(self, M):
            total += mu((d ^ sub).bit_count()) * self.A_sum(d, sub)
        return total

    def ridd_bound(self, M: int) -> float:
        """(sum_{M<h(d)<=M^2} (3^#d+3) S_d + sum_{h({p})>M^2} S_{p}) max|f|.

        Valid for nonnegative f: the term |f(a,r(a)) - f(a,pi(r(a)))| is
        bounded by max f only when 0 <= f <= max f (signed f would need an
        extra factor of 2 on the h({p}) > M^2 sum)."""
        if M < 1:
            raise ValueError("M must be >= 1")
        mid, big = _band(self, M)
        return (sum((3 ** d.bit_count() + 3) * self.S(d) for d in mid) + big) * self.max_abs_f()


@dataclass
class SieveBoundConstants:
    """The (A1)/(A2) data: S_d <= C0 X C1^#d / h(d) + C0 C2^#d, and for
    h(d1) <= M0, A_{d1,d2} = X g(d1,d2)/h(d1) + r_{d1,d2} with |g| <= C4
    and |f| <= C3."""

    X: float
    C0: float
    C1: float
    C2: float
    C3: float
    C4: float
    M0: int
    g: Callable[[int, int], complex]
    resid: Callable[[int, int], complex]


def _sum_base_over_h(S: SoilSpec, base: float, M: int) -> float:
    """sum over all d with h(d) > M of base^#d / h(d), via the closed
    form prod_p (1 + base/h({p})) minus the enumerated head."""
    total = math.prod(1 + base / w for w in S.weights)
    head = sum(base ** d.bit_count() / S.h(d) for d in S.subsets_up_to(M))
    return max(0.0, total - head)


def yugo_bound(S: SoilSpec, c: SieveBoundConstants, M: int) -> float:
    """The four-term error bound for the X-weighted main term, exact
    over the finite prime set."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if M > c.M0:
        raise ValueError("M exceeds M0")
    t1 = c.X * (
        c.C4 * _sum_base_over_h(S, 2.0, M)
        + c.C3 * c.C0 * (_sum_base_over_h(S, 3.0 * c.C1, M) + 3 * _sum_base_over_h(S, c.C1, M))
    )
    mid, big = _band(S, M)
    t2 = 0.0
    for d in mid:
        t2 += c.C0 * c.C2 ** d.bit_count() * (3 ** d.bit_count() + 3)
    t2 *= c.C3
    t3 = 0.0
    for d, sub in _pairs(S, M):
        t3 += abs(c.resid(d, sub))
    return t1 + t2 + t3 + c.C3 * big


def main_term(S: SoilSpec, c: SieveBoundConstants, M: int) -> complex:
    """X sum_{h(d)<=M} sum_{d' subset d} mu(d-d') g(d,d')/h(d)."""
    total: complex = 0
    for d, sub in _pairs(S, M):
        total += mu((d ^ sub).bit_count()) * c.g(d, sub) / S.h(d)
    return c.X * total


def verify_assumptions(S: SoilSpec, c: SieveBoundConstants, tol: float = 1e-9) -> bool:
    """Check (A1) on every subset and (A2) (with the supplied g and
    residuals, |g| <= C4, |f| <= C3) on every pair with h(d1) <= M0."""
    n = len(S.weights)
    if n > 20:
        raise ValueError("prime set too large for exhaustive verification")
    if S.max_abs_f() > c.C3 + tol:
        return False
    for d in range(1 << n):
        k = d.bit_count()
        if S.S(d) > c.C0 * c.X * c.C1**k / S.h(d) + c.C0 * c.C2**k + tol:
            return False
    for d1, sub in _pairs(S, c.M0):
        gv = c.g(d1, sub)
        if abs(gv) > c.C4 + tol:
            return False
        lhs = S.A_sum(d1, sub)
        rhs = c.X * gv / S.h(d1) + c.resid(d1, sub)
        if abs(lhs - rhs) > tol * max(1.0, abs(lhs)):
            return False
    return True


def squarefree_soil(values: Sequence[int], primes: Sequence[int]) -> SoilSpec:
    """The square-free counting soil: ground set a list of integer
    values, r(a) = {p : p^2 | a}, h({p}) = p^2, f = 1 iff d is empty.
    Its direct sum counts values with no p^2 divisor, p in primes."""

    def r(a):
        return [p for p in primes if a % (p * p) == 0]

    def f(a, d):
        return 1 if not d else 0

    return SoilSpec([(p, p * p) for p in primes], values, r, f)
