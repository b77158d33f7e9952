"""Averaging products of local factors u_p(n) (each depending only on
n mod p and v_p(P(n))) against the product of their local integrals,
with optional multipliers."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import census, eulerprod, kernels, localdens, numutil
from .poly import BinForm, IntPoly, is_squarefree_poly

J_CAP = 24


@dataclass
class LocalFactorSpec:
    """A family of local factors: rule(p, class mod p, j) -> value with
    |value| <= 1.  Families used in averages must satisfy the paper's
    hypothesis u_p = 1 whenever v_p(P(n)) <= 1; set general=True only
    for direct local_integral evaluation of unrestricted rules."""

    poly: IntPoly | None
    rule: Callable[[int, int, int], complex]
    kind: str = "custom"
    general: bool = False

    def check_trivial_low(self, p: int) -> None:
        if self.general:
            return
        for i in (0, 1 % p):
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
    return LocalFactorSpec(
        P, lambda p, i, j: (-1) ** j if j >= 2 else 1, kind="signed"
    )


def _mass_ge_by_class(P: IntPoly, p: int, j: int) -> dict[int, Fraction]:
    """{i mod p: mu{x = i (p), v_p(P(x)) >= j}}, classes with zero mass
    omitted (j >= 1)."""
    out: dict[int, Fraction] = {}
    for r, e in localdens._roots_mod_pk(P, p, j):
        if e == 0:
            for i in range(p):
                out[i] = out.get(i, Fraction(0)) + Fraction(1, p)
        else:
            i = r % p
            out[i] = out.get(i, Fraction(0)) + Fraction(1, p**e)
    return out


def local_integral(u: LocalFactorSpec, p: int, j_cap: int = J_CAP):
    """integral of u_p over Z_p: sum over classes i mod p and
    valuations j <= j_cap of mu{x = i (p), v_p(P(x)) = j} * rule(p,i,j).
    Returns (value, slack) with slack bounding the discarded j > j_cap
    mass.  Exact (Fraction) arithmetic whenever the rule values are.
    Raises ValueError unless u.poly is square-free."""
    if not is_squarefree_poly(u.poly):
        raise ValueError("P must be square-free")
    ge = [None]  # ge[j] for j >= 1
    for j in range(1, j_cap + 2):
        d = _mass_ge_by_class(u.poly, p, j)
        ge.append(d)
        if not d:
            ge.extend({} for _ in range(j_cap + 1 - j))
            break
    total = Fraction(0)
    for i in range(p):
        m0 = Fraction(1, p) - ge[1].get(i, Fraction(0))
        if m0:
            total = total + m0 * u.rule(p, i, 0)
    for j in range(1, j_cap + 1):
        for i, m in ge[j].items():
            mj = m - ge[j + 1].get(i, Fraction(0))
            if mj:
                total = total + mj * u.rule(p, i, j)
    tail = sum(ge[j_cap + 1].values(), Fraction(0))
    return total, float(tail)


@dataclass
class AverageReport:
    """Empirical average, the truncated product of local integrals it is
    compared against, and the two slack terms of the desk-scale
    inequality."""

    empirical: complex
    predicted: complex | None
    N: int
    B: int
    tail_slack: float = 0.0
    delta_term: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "empirical_re": complex(self.empirical).real,
                "empirical_im": complex(self.empirical).imag,
                "predicted_lo": None
                if self.predicted is None
                else complex(self.predicted).real - self.tail_slack,
                "predicted_hi": None
                if self.predicted is None
                else complex(self.predicted).real + self.tail_slack,
                "tail_slack": self.tail_slack,
                "delta_term": self.delta_term,
                "N": self.N,
                "B": self.B,
            }
        )


def _product_values(P: IntPoly, u: LocalFactorSpec, n: int) -> tuple[np.ndarray, int]:
    """prod_p u_p(x) for x = 1..N (index x in the returned array; the
    value at roots of P is 0 by convention and flagged separately)."""
    vmax = sum(abs(a) * n**i for i, a in enumerate(P.coeffs))
    b = census._trial_bound(max(vmax, 8))
    u.check_trivial_low(2)
    u.check_trivial_low(3)
    xs, ps, vs, rem = kernels.value_square_profile(P.coeffs, n, b)
    prod = np.ones(n + 1, dtype=complex)
    for t in range(len(xs)):
        x = int(xs[t])
        p = int(ps[t])
        prod[x] *= u.rule(p, x % p, int(vs[t]))
    sq = census._is_square(rem)
    for x in np.nonzero(sq)[0]:
        p = math.isqrt(int(rem[x]))
        prod[x] *= u.rule(p, int(x) % p, 2)
    prod[rem == 0] = 0
    return prod, b


def truncated_product(u: LocalFactorSpec, b: int):
    """(prod_{p<=B} local_integral, accumulated truncation slack)."""
    total = Fraction(1)
    slack = 0.0
    for p in kernels.prime_sieve(b):
        v, s = local_integral(u, int(p))
        total = total * v
        slack += s
    return total, slack


def empirical_average(
    P: IntPoly, u: LocalFactorSpec, n: int, b_pred: int = 10**3
) -> AverageReport:
    """(1/N) sum_{x=1..N} prod_p u_p(x), compared against the product of
    local integrals over p <= b_pred."""
    if not is_squarefree_poly(P):
        raise ValueError("P must be square-free")
    prod, b = _product_values(P, u, n)
    empirical = complex(np.sum(prod[1:]) / n)
    predicted, slack = truncated_product(u, b_pred)
    tail = P.degree / b_pred + slack
    delta = 2 * census.delta_census_univ(P, n, math.isqrt(n)) / n
    return AverageReport(
        empirical=empirical,
        predicted=complex(predicted),
        N=n,
        B=b_pred,
        tail_slack=tail,
        delta_term=delta,
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
    intersected with a sector).  The prediction (indicator kind only) is
    the product over p of the normalized coprime-region integrals."""
    if not is_squarefree_poly(F):
        raise ValueError("F must be square-free")
    total = 0.0 + 0.0j
    pairs = 0
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            if math.gcd(x, y) != 1:
                continue
            if sector is not None and not sector.contains(x, y):
                continue
            pairs += 1
            v = F(x, y)
            if v == 0:
                continue
            f = numutil.factorize(abs(v))
            if not f.complete:
                raise OverflowError("value too large to factor")
            w = 1.0 + 0.0j
            for p, e in f.pairs:
                if e >= 2:
                    # class of x*y^-1 mod p; p | y maps to the extra
                    # "infinity" class, indexed p
                    cls = x * pow(y, -1, p) % p if y % p else p
                    w *= u.rule(p, cls, e)
            total += w
    if pairs == 0:
        raise ValueError("empty averaging domain")
    predicted = None
    tail = 0.0
    if u.kind == "indicator":
        # per-pair density: each factor renormalized by the local
        # coprime mass 1 - 1/p^2
        est = eulerprod.density_form(F, 10**3, coprime=True)
        pred = Fraction(1)
        for p, f in est.factors:
            pred *= f / (1 - Fraction(1, int(p) ** 2))
        predicted = float(pred)
        tail = (2 * F.degree + 1) / 10**3
    return AverageReport(
        empirical=total / pairs, predicted=predicted, N=n, B=10**3, tail_slack=tail
    )


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
    prod, b = _product_values(P, u, n)
    xs = np.arange(n + 1)
    if mult.kind == "progression":
        weights = (xs % mult.m == mult.a % mult.m).astype(complex)
    elif mult.kind == "mobius-experimental":
        weights = numutil.mobius_table(n).astype(complex)
    elif mult.kind == "custom":
        if mult.s is None:
            raise ValueError("custom multiplier needs a callback")
        weights = np.array([0] + [mult.s(x) for x in range(1, n + 1)], dtype=complex)
    else:
        raise ValueError(f"unknown multiplier kind {mult.kind!r}")
    empirical = complex(np.sum(weights[1:] * prod[1:]) / n)
    predicted = None
    tail = 0.0
    if mult.kind == "progression":
        total = Fraction(1)
        slack = 0.0
        for p in kernels.prime_sieve(b_pred):
            p = int(p)
            e = numutil.valuation(mult.m, p) if mult.m % p == 0 else 0
            if e == 0:
                v, s = local_integral(u, p)
            else:
                v = Fraction(0)
                for j in range(J_CAP + 1):
                    pm = localdens.progression_measure(P, p, j, mult.a, e)
                    for i, mmass in pm.items():
                        if mmass:
                            v = v + mmass * u.rule(p, i, j)
                s = 0.0
                for r, e2 in localdens.roots_mod_pk(P, p, J_CAP + 1):
                    lo = min(e2, e) if e2 else e
                    if (r - mult.a) % p**lo == 0:
                        s += 1.0 / p ** max(e2, e)
            total = total * v
            slack += s
        predicted = complex(total)
        tail = P.degree / b_pred + slack
    return AverageReport(
        empirical=empirical, predicted=predicted, N=n, B=b_pred, tail_slack=tail
    )
