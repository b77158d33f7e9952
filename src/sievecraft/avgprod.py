"""Averaging products of local factors u_p(n) (each depending only on
n mod p and v_p(P(n))) against the product of their local integrals,
with optional multipliers."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import census, eulerprod, kernels, localdens, modp, numutil
from .poly import BinForm, IntPoly, discriminant, require_squarefree

J_CAP = 24


@dataclass
class LocalFactorSpec:
    """A family of local factors: rule(p, class mod p, j) -> value with
    |value| <= 1.  Families used in averages must satisfy the paper's
    hypothesis u_p = 1 whenever v_p(P(n)) <= 1, and with general=False
    the rule is read only at v_p >= 2, on both the empirical and the
    predicted side (the predictions check the hypothesis at every prime
    they integrate); set general=True only for direct local_integral
    evaluation of unrestricted rules.  Kind "indicator" or "signed" with
    general=False declares a rule of v_p only, u_p = 0 or (-1)^(v_p) on v_p
    >= 2 and 1 below: such a class-free family is counted, not read, where
    the number of roots mod p or the census mask (census.free_mask) do."""

    poly: IntPoly | None
    rule: Callable[[int, int, int], complex]
    kind: str = "custom"
    general: bool = False

    @property
    def class_free(self) -> bool:
        return not self.general and self.kind in ("indicator", "signed")

    def check_trivial_low(self, p: int) -> None:
        """Raise ValueError unless rule(p, i, j) = 1 at every class i mod p
        and j <= 1.  The indicator and signed families are 1 there by
        construction, and general families need not be."""
        if self.general or self.class_free:
            return
        for i in range(p):
            for j in (0, 1):
                if self.rule(p, i, j) != 1:
                    raise ValueError("family must have u = 1 when v_p <= 1")


def squarefree_indicator_family(P: IntPoly) -> LocalFactorSpec:
    """u_p(n) = 0 if p^2 | P(n) else 1; the product over p is the
    square-free indicator of P(n)."""
    return LocalFactorSpec(P, lambda p, i, j: 0 if j >= 2 else 1, kind="indicator")


def signed_valuation_family(P: IntPoly) -> LocalFactorSpec:
    """u_p(n) = (-1)^(v_p(P(n))) on v_p >= 2, and 1 on v_p <= 1 (the
    low valuations are left trivial so the product stays finite)."""
    return LocalFactorSpec(P, lambda p, i, j: (-1) ** j if j >= 2 else 1, kind="signed")


def local_integral(u: LocalFactorSpec, p: int, j_cap: int = J_CAP):
    """integral of u_p over Z_p: sum over classes i mod p and
    valuations j <= j_cap of mu{x = i (p), v_p(P(x)) = j} * rule(p,i,j).
    A family with general=False is read only at v_p >= 2: its hypothesis
    u_p = 1 on v_p <= 1 is checked at p, and that mass counts with value 1.
    Returns (value, slack) with slack bounding the discarded j > j_cap
    mass.  Exact (a Fraction) when the rule values are int or Fraction;
    float and complex values are summed exactly and rounded once.
    Raises ValueError unless u.poly is square-free."""
    require_squarefree(u.poly)
    (value,), (slack,) = _local_integrals(u.poly, u, [p], j_cap)
    return value, float(slack)


def _local_integrals(
    P: IntPoly, u: LocalFactorSpec, primes: list[int], j_cap: int = J_CAP, a: int = 0, m: int = 1
) -> tuple[list, list[Fraction]]:
    """The values and the exact slacks of the local integrals of u at the
    primes; at the primes dividing m the integral is taken against the
    measure of {x = a mod p^(v_p(m))}.  A general family's rule is read at
    every level v_p = j from low = 0; any other family's from low = 2, after
    its hypothesis is checked at p, with the mass of v_p < 2 counting as 1.

    At a prime outside Disc*lead*content*m every root mod p is simple and
    lifts uniquely, so mu{x = r (p), v_p(P(x)) >= j} = p^-j for j >= 1.  A
    class-free family reads there only the number r of roots mod p, its
    integral in closed form (_closed_form) and its slack r / p^k, k = j_cap
    + 1; any other family the masses of its classes, from one batch of
    roots mod p.  Every other prime is lifted once to depth k."""
    (ps, rs, nums, dens), rest = _integrals(P, u, primes, j_cap, a, m)
    for p, r, num, den in zip(ps.tolist(), rs.tolist(), nums, dens):
        rest[p] = Fraction(num, den), Fraction(r, p ** (j_cap + 1))
    return [rest[p][0] for p in primes], [rest[p][1] for p in primes]


def _integrals(P: IntPoly, u: LocalFactorSpec, primes, j_cap: int, a: int, m: int):
    """((ps, rs, nums, dens), rest): the integrals of _local_integrals, in
    closed form at the primes ps, and rest[p] = (value, slack) elsewhere."""
    if j_cap < 0:
        raise ValueError("j_cap must be >= 0")
    low = 0 if u.general else 2
    k = j_cap + 1
    primes = np.asarray(primes, dtype=np.int64)
    d = discriminant(P) * P.lead * P.content()
    lifted = (kernels._residues(d, primes) == 0) | (kernels._residues(m, primes) == 0)
    simple, roots_of = primes[~lifted], {}
    closed = (simple[:0], simple[:0], [], [])
    if u.class_free:
        rs = kernels.root_counts_mod_primes(P.coeffs, simple)
        closed, primes = (simple, rs, *_closed_form(u.kind, simple, rs, k)), primes[lifted]
    else:
        starts, roots = (arr.tolist() for arr in kernels.roots_mod_primes(P.coeffs, simple))
        roots_of = {p: roots[starts[t] : starts[t + 1]] for t, p in enumerate(simple.tolist())}
    rest = {}
    for p in primes.tolist():
        u.check_trivial_low(p)
        if p in roots_of:  # a simple root r is one class mod p^j at every level j >= 1
            levels, e = [[(r, j) for r in roots_of[p]] for j in range(1, k + 1)], 0
        else:
            levels, e = localdens._lift_levels(P, p, k), numutil.valuation(m, p) if m % p == 0 else 0
        masses, den = localdens.class_masses(levels, p, a, e)
        total, tail = den // p**e, sum(masses[k].values())  # total = den * mu{x = a mod p^e}
        weights = [(i, j, w - masses[j + 1].get(i, 0)) for j in range(low, k) for i, w in masses[j].items()]
        rest[p] = _integrate(u.rule, p, weights, total - tail, den), Fraction(tail, den)
    return closed, rest


def _closed_form(kind: str, ps: np.ndarray, rs: np.ndarray, k: int) -> tuple[list[int], list[int]]:
    """(nums, dens): the integrals nums[i] / dens[i] below level k at p =
    ps[i] with r = rs[i] simple roots, where mu{v_p = j} = r (p - 1) / p^(j +
    1) for 1 <= j < k: the indicator's u = 0 at j >= 2 leaves 1 - r /
    p^min(k, 2); the signed family's u = -1 at the t odd j in [3, k) leaves 1
    - r c / p^k, c = 1 + 2 (p - 1) sum p^(k - 1 - j) = 1 + 2 p^(k - 2 - 2t)
    (p^(2t) - 1) / (p + 1) (1 / 1 at r = 0)."""
    if kind == "indicator":  # p^2 in int64 below p = 2^31
        q = ps.astype(object if ps.max(initial=0) >> 31 else np.int64) ** min(k, 2)
        return (q - rs.astype(q.dtype)).tolist(), q.tolist()
    t, nums, dens = max(0, (k - 2) // 2), [1] * ps.size, [1] * ps.size
    for i, p, r in zip(np.flatnonzero(rs).tolist(), ps[rs > 0].tolist(), rs[rs > 0].tolist()):
        c = 1 + 2 * p ** max(k - 2 - 2 * t, 0) * (p ** (2 * t) - 1) // (p + 1)
        nums[i], dens[i] = p**k - r * c, p**k
    return nums, dens


def _integrate(rule, p: int, weights: list[tuple[int, int, int]], below_cap: int, den: int):
    """(below_cap + sum over (i, j, w) in weights of (rule(p, i, j) - 1) *
    w) / den, where below_cap = den * mu{v_p < k} and w = den * mu{x = i
    (p), v_p = j}: the integral below the cap, with value 1 on the levels
    the weights leave out.  int and Fraction values give a Fraction; float
    and complex values are summed as exact rationals and rounded once."""
    re, im, kind = below_cap, 0, Fraction
    for i, j, w in weights:
        if not w:
            continue
        v = rule(p, i, j)
        if type(v) is not int:
            if isinstance(v, complex):
                kind = complex
                im += Fraction(v.imag) * w
                v = v.real
            elif isinstance(v, float) and kind is Fraction:
                kind = float
            v = Fraction(v)
        re += (v - 1) * w
    value = Fraction(re, den)
    if kind is complex:
        return complex(float(value), float(Fraction(im, den)))
    if kind is float:
        return float(value)
    return value


@dataclass
class AverageReport:
    """Empirical average, the truncated product of local integrals it is
    compared against, and the two slack terms of the desk-scale
    inequality.  predicted_lo/predicted_hi are the real part of the
    prediction -/+ tail_slack, rounded outward."""

    empirical: complex
    predicted: complex | None
    N: int
    B: int
    tail_slack: float = 0.0
    delta_term: float = 0.0
    predicted_lo: float | None = None
    predicted_hi: float | None = None

    def to_dict(self) -> dict:
        return {
            "empirical_re": complex(self.empirical).real,
            "empirical_im": complex(self.empirical).imag,
            "predicted_lo": self.predicted_lo,
            "predicted_hi": self.predicted_hi,
            "tail_slack": self.tail_slack,
            "delta_term": self.delta_term,
            "N": self.N,
            "B": self.B,
        }


def _prediction(values: list, slacks: list[Fraction], closed=None) -> dict:
    """The AverageReport fields of T = prod values with the tail bound
    S = sum slacks: T to nearest, S rounded up, T -/+ S rounded outward.
    closed = (ps, rs, nums, dens) of _integrals adds the factors nums[i] /
    dens[i] to T and rs[i] / ps[i]^(J_CAP + 1) to S.  T is enclosed by
    eulerprod._enclosure, S by one floor per term (0 for r / p^k at p^J_CAP >
    2^_PRECISION, as r <= p), and eulerprod.rounded forms the exact T and S
    only where the two ends of an enclosure disagree.  Float and complex
    values (never with closed) keep their float product, whose real part is
    enclosed as one factor."""
    ps, rs, nums, dens = closed or (np.zeros(0, dtype=np.int64),) * 2 + ([], [])
    predicted = None
    if not all(isinstance(v, Fraction) for v in values):
        predicted = complex(math.prod(values, start=Fraction(1)))
        values = [Fraction(predicted.real)]
    nums, dens = nums + [v.numerator for v in values], dens + [v.denominator for v in values]
    t_lo, t_hi = eulerprod._enclosure(dens, nums)
    k, at = J_CAP + 1, np.flatnonzero(rs)
    near = at[ps[at] < 1 << (eulerprod._PRECISION // J_CAP + 1)].tolist()
    s_lo = sum((s.numerator << eulerprod._PRECISION) // s.denominator for s in slacks)
    s_lo += sum((int(rs[i]) << eulerprod._PRECISION) // int(ps[i]) ** k for i in near)
    s_hi = s_lo + len(slacks) + at.size  # a ceiling is at most its floor + 1
    t = functools.cache(lambda: (eulerprod._product(nums), eulerprod._product(dens)))
    s = functools.cache(
        lambda: sum([*slacks, *(Fraction(int(rs[i]), int(ps[i]) ** k) for i in at)]).as_integer_ratio()
    )

    def shifted(sign: int):  # T + sign * S, unreduced
        (tn, td), (sn, sd) = t(), s()
        return tn * sd + sign * sn * td, td * sd

    if predicted is None:
        predicted = complex(eulerprod.rounded(operator.truediv, t_lo, t_hi, t))
    return {
        "predicted": predicted,
        "tail_slack": eulerprod.rounded(eulerprod.ratio_up, s_lo, s_hi, s),
        "predicted_lo": eulerprod.rounded(eulerprod.ratio_down, t_lo - s_hi, t_hi - s_lo, lambda: shifted(-1)),
        "predicted_hi": eulerprod.rounded(eulerprod.ratio_up, t_lo + s_lo, t_hi + s_hi, lambda: shifted(1)),
    }


def _products(rule, cells, ps, vs, rem, cls):
    """prod[c] over the cells c of a square profile block (entries (cells,
    ps, vs), remainders rem): the product of rule(p, cls(c, p), v) over the
    entries of c in entry order, then of rule(q, cls(c, q), 2) where rem[c]
    = q^2, and 0 where rem[c] = 0.  One rule call per distinct (p, class,
    v): a class <= p < k = 1 + max p <= 2^22 and v < 64 keep the key below
    2^50.  return_index selects numpy's stable sort: its quicksort maps
    about 0.2 MB more of numpy's code into the process (peak RSS)."""
    k = int(ps.max(initial=0)) + 1
    keys, _, inv = np.unique((ps * k + cls(cells, ps)) * 64 + vs, return_index=True, return_inverse=True)
    vals = np.array([rule(t // 64 // k, t // 64 % k, t % 64) for t in keys.tolist()], dtype=complex)
    prod = np.ones(rem.size, dtype=complex)
    np.multiply.at(prod, cells, vals[inv])
    q = census._square_root(rem)
    at = np.flatnonzero(q)
    for c, p, i in zip(at.tolist(), q[at].tolist(), cls(at, q[at]).tolist()):
        prod[c] *= rule(p, i, 2)
    prod[rem == 0] = 0
    return prod


def _fsum(sums) -> complex:
    """math.fsum of the np.sum of each block (or view), real and imaginary
    parts apart: the one summation of every average."""
    return complex(math.fsum(np.real(sums)), math.fsum(np.imag(sums)))


def _product_blocks(P: IntPoly, u: LocalFactorSpec, n: int, threshold: int | None = None):
    """Blocks (lo, prod, delta) of the value square profile of P over 1..N:
    prod[x - lo] = prod_p u_p(x), 0 at the roots of P (flagged apart), and
    delta census.exceptional_count of the block with a threshold, else 0.
    The indicator's product is 1 exactly where census.free_mask is set, so
    it finds v_p (square_entries) only for delta."""
    b = kernels.trial_bound(P.coeffs, n)
    u.check_trivial_low(2)
    u.check_trivial_low(3)
    indicator = u.class_free and u.kind == "indicator"
    for lo, cells, ps, rem in kernels.value_power_blocks(P.coeffs, n, b, 2):
        prod = census.free_mask(cells, rem).astype(complex) if indicator else None  # before rem is divided
        if prod is None or threshold is not None:
            cells, ps, vs = kernels.square_entries(cells, ps, rem)
        if prod is None:
            prod = _products(u.rule, cells, ps, vs, rem, lambda c, p: (c + lo) % p)
        yield lo, prod, 0 if threshold is None else census.exceptional_count(cells, ps, rem, threshold)


def _total(P: IntPoly, u: LocalFactorSpec, n: int, weight=None, threshold: int | None = None):
    """(sum over x = 1..N of s(x) prod_p u_p(x), total delta), s = weight(xs)
    at a block's x or 1, summed by _fsum."""
    if n < 1:
        raise ValueError("need N >= 1")
    sums, delta = [], 0
    for lo, prod, d in _product_blocks(P, u, n, threshold):
        if weight is not None:
            prod *= weight(np.arange(lo, lo + prod.size))
        sums.append(np.sum(prod))
        delta += d
    return _fsum(sums), delta


def truncated_product(u: LocalFactorSpec, b: int):
    """(prod_{p<=B} local_integral, accumulated truncation slack rounded up)."""
    require_squarefree(u.poly)
    values, slacks = _local_integrals(u.poly, u, kernels.prime_sieve(b).tolist())
    return math.prod(values, start=Fraction(1)), eulerprod.float_up(sum(slacks, Fraction(0)))


def _predict(P: IntPoly, u: LocalFactorSpec, b: int, a: int = 0, m: int = 1) -> dict:
    """_prediction over p <= b, the head deg P / b one more slack (a, m: see _local_integrals)."""
    closed, rest = _integrals(P, u, kernels.prime_sieve(b), J_CAP, a, m)
    values, slacks = [v for v, _ in rest.values()], [s for _, s in rest.values()]
    return _prediction(values, [Fraction(P.degree, b), *slacks], closed)


def empirical_average(
    P: IntPoly, u: LocalFactorSpec, n: int, b_pred: int = 10**3
) -> AverageReport:
    """(1/N) sum_{x=1..N} prod_p u_p(x), compared against the product of
    local integrals over p <= b_pred."""
    require_squarefree(P)
    if P.degree < 1:
        raise ValueError("degree must be >= 1")
    total, delta = _total(P, u, n, threshold=math.isqrt(n))
    return AverageReport(
        empirical=total / n, N=n, B=b_pred, delta_term=2 * delta / n, **_predict(P, u, b_pred)
    )


def poncho_inequality(P: IntPoly, n: int, u: LocalFactorSpec, b_pred: int = 10**3) -> dict:
    """All three quantities of the desk-scale averaging inequality:
    |empirical - truncated product| <= tail mass + exceptional term.
    Requires b_pred >= sqrt(N) so the large-prime term is controlled by
    the exceptional census."""
    if b_pred < math.isqrt(n):
        raise ValueError("b_pred must be >= sqrt(N)")
    rep = empirical_average(P, u, n, b_pred)
    lhs = abs(rep.empirical - rep.predicted)
    rhs = rep.tail_slack + rep.delta_term
    return {
        "empirical": rep.empirical,
        "truncated": rep.predicted,
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs <= rhs + 1e-12,
    }


# ---------------------------------------------------------------------------
# Bivariate averages


def squarefree_indicator_form_family(F: BinForm) -> LocalFactorSpec:
    return LocalFactorSpec(None, lambda p, i, j: 0 if j >= 2 else 1, kind="indicator")


def empirical_average_form(
    F: BinForm, u: LocalFactorSpec, n: int, sector=None
) -> AverageReport:
    """Average of prod_p u_p over coprime pairs in [-N,N]^2 (optionally
    intersected with a sector), the rule read at the pairs counted only, in
    the folded box of census._box_blocks: (-x, -z) has the class and the v_p
    of (x, z).  The prediction (indicator kind only) is the product over p
    of the normalized coprime-region integrals."""
    require_squarefree(F)
    sums, pairs = [], 0
    for xs, zs, (cells, ps, rem), views in census._box_blocks(F, -n, n, True, sector):
        cells, ps, vs = kernels.square_entries(cells, ps, rem)
        def cls(c, p):  # x z^-1 mod p, the class p where p | z
            z = zs[c // xs.size] % p
            return np.where(z != 0, xs[c % xs.size] % p * modp.inverse(z, p) % p, p)
        counted = views[0][1] | views[-1][1]
        keep = counted[cells]  # with rem 0 off them: the rule is read at counted pairs only
        prod = _products(u.rule, cells[keep], ps[keep], vs[keep], rem * counted, cls)
        for _, ok in views:
            sums.append(np.sum(prod[ok]))
            pairs += int(np.count_nonzero(ok))
    if pairs == 0:
        raise ValueError("empty averaging domain")
    prediction = {"predicted": None}
    if u.kind == "indicator":
        # per-pair density: each factor renormalized by the local
        # coprime mass 1 - 1/p^2
        est = eulerprod.density_form(F, 10**3, coprime=True)
        values = [f / (1 - Fraction(1, p * p)) for p, f in est.factors]
        prediction = _prediction(values, [Fraction(2 * F.degree + 1, 10**3)])
    return AverageReport(empirical=_fsum(sums) / pairs, N=n, B=10**3, **prediction)


# ---------------------------------------------------------------------------
# Multipliers


@dataclass
class MultiplierSpec:
    """Bounded multiplier s(n).  Only the progression kind carries a
    canonical family of local measures and hence a prediction."""

    kind: str  # progression | mobius-experimental | custom
    s: Callable[[int], complex] | None = None
    a: int = 0
    m: int = 1


def average_with_multiplier(
    P: IntPoly, u: LocalFactorSpec, mult: MultiplierSpec, n: int, b_pred: int = 10**3
) -> AverageReport:
    """(1/N) sum s(x) prod_p u_p(x); for the progression kind the
    prediction prod_p (integral of u_p against the progression measure)
    is computed exactly over p <= b_pred."""
    require_squarefree(P)
    if P.degree < 1:
        raise ValueError("degree must be >= 1")
    if mult.kind == "progression" and mult.m == 0:
        raise ValueError("progression modulus must be nonzero")
    if mult.kind == "custom" and mult.s is None:
        raise ValueError("custom multiplier needs a callback")
    weight = {
        "progression": lambda xs: xs % mult.m == mult.a % mult.m,
        "mobius-experimental": numutil.mobius_segment,
        "custom": lambda xs: np.array([mult.s(x) for x in xs.tolist()], dtype=complex),
    }.get(mult.kind)
    if weight is None:
        raise ValueError(f"unknown multiplier kind {mult.kind!r}")
    empirical = _total(P, u, n, weight)[0] / n
    prediction = {"predicted": None}
    if mult.kind == "progression":
        prediction = _predict(P, u, b_pred, mult.a, mult.m)
    return AverageReport(empirical=empirical, N=n, B=b_pred, **prediction)
