import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from sievecraft import cli, eulerprod, kernels, localdens
from sievecraft.eulerprod import density_form, density_univ, float_down, float_up, ratio_down, ratio_up
from sievecraft.poly import IntPoly, is_squarefree_poly, parse


def test_density_univ_squarefree_constant():
    # P = x: the product is prod_p (1 - 1/p^2) = 6/pi^2
    est = density_univ(parse("x"), 10**4)
    target = 6 / math.pi**2
    assert est.lower <= target <= est.upper
    assert est.upper - est.lower < 1e-3
    assert est.status == "ok"
    # frozen endpoints [DERIVED]
    assert abs(est.lower - 0.6078722758071436) < 1e-15
    assert abs(est.upper - 0.6079330691140551) < 1e-15


def test_density_univ_truncated_exact():
    est = density_univ(parse("x"), 10)
    # exact truncated product over p in {2,3,5,7}
    expect = Fraction(1)
    for p in (2, 3, 5, 7):
        expect *= 1 - Fraction(1, p * p)
    assert est.truncated == expect
    assert dict(est.factors)[3] == 1 - Fraction(1, 9)


def test_density_univ_widened():
    # bad prime 101 (disc of x^2 - 101... use lead): P = 101*x + 1
    est = density_univ(parse("101*x + 1"), 10)
    assert est.status == "widened"
    assert any(p == 101 for p, _ in est.factors)


def test_density_univ_zero_density():
    # content 4: every value is divisible by 2^2
    est = density_univ(parse("4*x + 4"), 10)
    assert est.status == "zero_density"
    assert est.lower == est.upper == 0.0


def test_density_univ_validation():
    with pytest.raises(ValueError):
        density_univ(parse("x^2 - 2*x + 1"), 100)
    with pytest.raises(ValueError):
        density_univ(parse("x"), 1)
    with pytest.raises(ValueError):
        density_univ(parse("x"), 100, m=1)


def test_density_form_allpairs_vs_coprime_factors():
    F = parse("x^3 + 2*z^3", kind="form")
    est_all = density_form(F, 50)
    est_cop = density_form(F, 50, coprime=True)
    fa = dict(est_all.factors)
    fc = dict(est_cop.factors)
    # good primes: the two factor families coincide
    for p in fa:
        if p not in (2, 3):  # 2, 3 divide Disc data of x^3 + 2
            assert fa[p] == fc[p], p
    assert 0 < est_cop.lower <= est_cop.upper < 1


def test_density_form_factor_oracle():
    # x*z: ell2(p^2) = 2(p^2-p)(p+1) + ... frozen via localdens oracle 65
    F = parse("x*z", kind="form")
    est = density_form(F, 10)
    assert dict(est.factors)[5] == 1 - Fraction(65, 625)


def test_density_form_interval_contains_truncation_refinement():
    F = parse("x^3 + 2*z^3", kind="form")
    lo = density_form(F, 30)
    hi = density_form(F, 300)
    # the refined interval nests inside the coarse one
    assert lo.lower - 1e-12 <= hi.lower and hi.upper <= lo.upper + 1e-12


def _oracle_product(primes, factor):
    out = Fraction(1)
    for p in primes:
        out *= factor(p)
    return out


@pytest.mark.parametrize(
    "text,B,m",
    [
        ("x^3 + 2", 500, 2),
        ("3*x^2 + 5*x - 7", 300, 2),
        ("4*x^2 + 2", 200, 2),
        ("x^4 - x + 12", 400, 3),
        ("101*x + 1", 60, 2),
        ("x^5 - 5*x^3 + 4*x + 45", 300, 2),
    ],
)
def test_density_univ_truncated_vs_lifting(text, B, m):
    # every factor lifted per prime, including the good ones the
    # estimate reads from the roots mod p
    P = parse(text)
    est = density_univ(P, B, m)
    primes = [p for p, _ in est.factors]
    assert set(kernels.prime_sieve(B).tolist()) <= set(primes)
    expect = _oracle_product(
        primes, lambda p: 1 - Fraction(localdens.count_roots_mod_pk(P, p, m), p**m)
    )
    assert est.truncated == expect


@pytest.mark.parametrize(
    "text,B",
    [("x^3 + 2*z^3", 300), ("x*z", 100), ("x^2*z + x*z^2", 100), ("3*x^3 - 5*x*z^2 + 7*z^3", 200)],
)
def test_density_form_truncated_vs_lifting(text, B):
    F = parse(text, kind="form")
    for coprime in (False, True):
        est = density_form(F, B, coprime=coprime)
        primes = [p for p, _ in est.factors]
        if coprime:
            factor = lambda p: 1 - Fraction(p * p + localdens.coprime_count_form(F, p), p**4)
        else:
            factor = lambda p: 1 - Fraction(localdens.ell_form(F, p), p**4)
        assert est.truncated == _oracle_product(primes, factor)


def test_density_form_widened_by_chart_primes():
    # x*z*(x^2 + 47 z^2): z | F, and 47 divides Disc(F(x, 1)), so the
    # product must reach 47 although B = 40
    F = parse("x^3*z + 47*x*z^3", kind="form")
    est = density_form(F, 40)
    assert est.status == "widened"
    assert 47 in dict(est.factors)


def _check_enclosure(est, tail_lo):
    t = est.truncated
    assert Fraction(est.upper) >= t
    assert Fraction(math.nextafter(est.upper, -math.inf)) < t
    lo = t * max(tail_lo, Fraction(0))
    assert Fraction(est.lower) <= lo
    assert Fraction(math.nextafter(est.lower, math.inf)) > lo


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-12, 12), min_size=2, max_size=5),
    st.integers(2, 3000),
    st.sampled_from([2, 3]),
)
def test_density_univ_outward_enclosure(coeffs, B, m):
    assume(coeffs[-1] != 0)
    P = IntPoly(coeffs)
    assume(is_squarefree_poly(P))
    est = density_univ(P, B, m)
    assume(est.status != "zero_density")
    _check_enclosure(est, 1 - Fraction(P.degree, (m - 1) * B ** (m - 1)))


@pytest.mark.parametrize("B", [10, 50, 123, 1000, 10**4])
def test_density_form_outward_enclosure(B):
    F = parse("x^3 + 2*z^3", kind="form")
    for coprime in (False, True):
        est = density_form(F, B, coprime=coprime)
        _check_enclosure(est, 1 - Fraction(2 * F.degree + 1, B))


# numerators and denominators of a few bits and of more than 1000 bits
_SIZES = st.sampled_from([8, 60, 1001, 1100])


@st.composite
def _ratios(draw):
    """(n, d), d > 0, with n / d inside the float range: random integers of
    mixed sizes, or a float's own ratio times a common factor of up to 2^1100
    (so that the exact case comes unreduced)."""
    if draw(st.booleans()):
        n = draw(st.integers(-(2 ** draw(_SIZES)), 2 ** draw(_SIZES)))
        d = draw(st.integers(1, 2 ** draw(_SIZES)))
        assume(abs(n) < d * 2**1023)
        return n, d
    a, b = draw(st.floats(allow_nan=False, allow_infinity=False)).as_integer_ratio()
    m = draw(st.integers(1, 2**1100))
    return a * m, b * m


@settings(max_examples=400, deadline=None)
@given(_ratios())
def test_ratio_rounding_vs_fraction(nd):
    # num / den unreduced rounds outward to the same floats as the reduced
    # Fraction, and those are the nearest floats on either side of it
    n, d = nd
    q = Fraction(n, d)
    lo, hi = ratio_down(n, d), ratio_up(n, d)
    assert (lo, hi) == (float_down(q), float_up(q))
    assert Fraction(lo) <= q <= Fraction(hi)
    above, below = math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)
    assert math.isinf(above) or Fraction(above) > q
    assert math.isinf(below) or Fraction(below) < q


# ---------------------------------------------------------------------------
# _estimate: the floats from the fixed-point enclosure, or from num / den

_EST_PRIMES = kernels.prime_sieve(10**5).tolist() + [2**31 - 1, 2**61 - 1]


@st.composite
def _factor_lists(draw):
    """(primes, hits, k, tail_lo): hits mostly small, as at good primes,
    sometimes anywhere in [0, p^k], which drives the product towards 0 (and
    to zero density at h = p^k); the tail bound may be negative."""
    k = draw(st.sampled_from([2, 3, 4]))
    primes = draw(st.lists(st.sampled_from(_EST_PRIMES), min_size=1, max_size=300))
    wide = draw(st.booleans())
    hits = [draw(st.integers(0, p**k if wide else min(6, p**k))) for p in primes]
    tail_lo = 1 - Fraction(draw(st.integers(0, 10**6)), draw(st.integers(1, 10**6)))
    return primes, hits, k, tail_lo


def _check_estimate(primes, hits, k, tail_lo):
    est = eulerprod._estimate(primes, hits, k, 10**5, "ok", tail_lo)
    t = Fraction(1)
    for i, (p, h) in enumerate(zip(primes, hits)):
        if h >= p**k:
            assert est.status == "zero_density" and est.primes == primes[: i + 1]
            assert (est.lower, est.upper, est.nearest) == (0.0, 0.0, 0.0)
            assert est.truncated == 0
            return
        t *= Fraction(p**k - h, p**k)
    assert est.status == "ok"
    assert est.lower == float_down(t * max(tail_lo, Fraction(0)))
    assert est.upper == float_up(t)
    assert est.nearest == float(t)
    assert est.truncated == t


@pytest.mark.parametrize("precision", [eulerprod._PRECISION, 3])
@settings(max_examples=150, deadline=None)
@given(_factor_lists())
def test_estimate_vs_fraction(precision, case):
    # a 3-bit enclosure decides almost nothing: the exact fallback runs
    with mock.patch.object(eulerprod, "_PRECISION", precision):
        _check_estimate(*case)


def test_estimate_fallback_only_when_undecided():
    P = parse("x^3 + 2")
    exact = density_univ(P, 1000)
    assert "num" not in vars(exact)  # decided by the enclosure
    with mock.patch.object(eulerprod, "_PRECISION", 3):
        est = density_univ(P, 1000)
    assert "num" in vars(est)
    assert (est.lower, est.upper, est.nearest) == (exact.lower, exact.upper, exact.nearest)


def test_density_without_exact_product(capsys):
    # at B = 1e5 the enclosure decides every float: the 145k-bit products
    # are never formed, yet stay available on demand
    with mock.patch.object(eulerprod, "_product", side_effect=AssertionError("exact product formed")):
        assert cli.run(["density", "--poly", "x^3 + 2", "--B", "100000"]) == 0
        est = density_univ(parse("x^3 + 2"), 100000)
    assert '"status": "ok"' in capsys.readouterr().out
    num = math.prod(p * p - h for p, h in zip(est.primes, est.hits))
    assert est.truncated == Fraction(num, math.prod(est.primes) ** 2)
