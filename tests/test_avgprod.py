import hashlib
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from test_census import exceptional_count_alt
from test_kernels import BLOCK_SIZES, square_roots, value_polys, value_square_blocks, value_square_profile_alt

from sievecraft import avgprod, census, eulerprod, kernels, localdens, numutil
from sievecraft.avgprod import (
    LocalFactorSpec,
    MultiplierSpec,
    average_with_multiplier,
    empirical_average,
    empirical_average_form,
    local_integral,
    poncho_inequality,
    signed_valuation_family,
    squarefree_indicator_family,
    squarefree_indicator_form_family,
    truncated_product,
)
from sievecraft.poly import IntPoly, is_squarefree_poly, parse


def test_local_integral_trivial_family():
    # u = 1 everywhere: integral is exactly 1, no slack mass is lost
    u = LocalFactorSpec(parse("x^3 + 2"), lambda p, i, j: 1, general=True)
    for p in (2, 3, 5):
        v, slack = local_integral(u, p)
        assert v + Fraction(slack) >= 1 - Fraction(1, p**avgprod.J_CAP)
        assert float(v) + slack == pytest.approx(1.0)
    with pytest.raises(ValueError):
        local_integral(u, 2, -1)


def test_local_integral_indicator():
    u = squarefree_indicator_family(parse("x"))
    v, slack = local_integral(u, 3)
    assert v == Fraction(8, 9)  # [DERIVED] 1 - 1/9 (only x = 0 mod 9)
    assert slack < 1e-10
    # x^3 + 2 has no root mod 9, so its factor at 3 is exactly 1
    u2 = squarefree_indicator_family(parse("x^3 + 2"))
    v2, slack2 = local_integral(u2, 3)
    assert v2 == 1 and slack2 == 0.0
    # matches 1 - ell(p^2)/p^2 from the lifting module for several p
    from sievecraft import localdens

    for p in (2, 3, 5, 7, 11):
        v, slack = local_integral(u2, p)
        ell = localdens.count_roots_mod_pk(parse("x^3 + 2"), p, 2)
        assert v == 1 - Fraction(ell, p * p)


def test_local_integral_signed_geometric():
    # [PAPER] u = (-1)^j with P = x at p = 2: the full integral is 1/3;
    # the J_CAP truncation gives the exact dyadic partial sum
    u = LocalFactorSpec(parse("x"), lambda p, i, j: (-1) ** j, general=True)
    v, slack = local_integral(u, 2)
    assert v == Fraction(11184811, 33554432)
    assert abs(float(v) - Fraction(1, 3)) < 2.0**-24
    assert slack <= 2.0**-24


def test_family_invariant_enforced():
    u = LocalFactorSpec(parse("x"), lambda p, i, j: (-1) ** j)  # not general
    with pytest.raises(ValueError):
        u.check_trivial_low(2)
    signed_valuation_family(parse("x")).check_trivial_low(2)  # ok


def test_empirical_average_indicator():
    # indicator family: the average is the square-free density of P(x)
    P = parse("x")
    rep = empirical_average(P, squarefree_indicator_family(P), 10**5)
    assert rep.empirical.real == pytest.approx(0.60794)  # [DERIVED] 60794/1e5
    assert rep.empirical.imag == 0
    assert abs(rep.empirical.real - rep.predicted.real) <= rep.tail_slack + rep.delta_term
    assert rep.to_dict()["N"] == 100000


def test_empirical_average_matches_census():
    # the exact count over N, to nearest, with N across at least 3 blocks
    # of the value profile
    from sievecraft.census import count_powerfree_values

    for spec, n in [
        ("x^3 + 2", 9000), ("10007*x + 10007", 10000), ("12*x^3 + 24", 8193), ("4*x^2 + 12", 12289)
    ]:
        assert n > 2 * kernels._VALUE_BLOCK
        P = parse(spec)
        rep = empirical_average(P, squarefree_indicator_family(P), n)
        assert rep.empirical == complex(count_powerfree_values(P, n).observed) / n
    # the content prime 10007 lies beyond the trial bound 48: 10007 (x + 1)
    # is square-free at 7 of x = 1..10, as x + 1 is
    P = parse("10007*x + 10007")
    rep = empirical_average(P, squarefree_indicator_family(P), 10)
    assert rep.empirical == 0.7 and rep.delta_term == 0
    # the trivial progression weighs every x: the same exact 7/10, to nearest
    P = parse("x")
    mult = MultiplierSpec(kind="progression", a=0, m=1)
    rep = average_with_multiplier(P, squarefree_indicator_family(P), mult, 10)
    assert rep.empirical == 0.7


def test_poncho_inequality():
    for spec in ("x", "x^2 + 1", "x^3 + 2"):
        P = parse(spec)
        u = squarefree_indicator_family(P)
        out = poncho_inequality(P, 10**4, u, b_pred=10**3)
        assert out["holds"], (spec, out)
    with pytest.raises(ValueError):
        poncho_inequality(parse("x"), 10**7, squarefree_indicator_family(parse("x")))


def test_signed_family_average():
    P = parse("x^3 + 2")
    u = signed_valuation_family(P)
    out = poncho_inequality(P, 10**4, u, b_pred=10**3)
    assert out["holds"]


def test_empirical_average_form():
    F = parse("x*z", kind="form")
    rep = empirical_average_form(F, squarefree_indicator_form_family(F), 60)
    # [DERIVED] frozen values
    assert rep.empirical.real == pytest.approx(0.4723230490018149)
    assert rep.predicted.real == pytest.approx(0.471800362645699)
    assert abs(rep.empirical.real - rep.predicted.real) <= rep.tail_slack
    # consistency with the census ratio
    from sievecraft.census import count_squarefree_form

    cen = count_squarefree_form(F, 60, "full-box", coprime=True)
    from sievecraft.lattice import Lattice2, count_coprime

    pairs = count_coprime(Lattice2(1, 1, 0), 60)
    assert rep.empirical.real == pytest.approx(cen.observed / pairs)
    # a constant form is refused, and so is a negative N
    with pytest.raises(ValueError, match="degree"):
        empirical_average_form(parse("6", kind="form"), squarefree_indicator_form_family(F), 60)
    with pytest.raises(ValueError, match="N >= 0"):
        empirical_average_form(F, squarefree_indicator_form_family(F), -2)


def empirical_average_form_alt(F, u, n, sector=None):
    """Independent recount of empirical_average_form by factoring the value
    at every coprime pair, summed as the folded box is read: the rows z =
    0..N in blocks of kernels._VALUE_BLOCK // (2N + 1) rows (at least one),
    per block the pairs (x, z), then the mirrors (-x, -z) of its rows z > 0,
    each view in row-major order; np.sum per block and view, math.fsum
    across.  Returns (mean, exact sum of the products, pairs, the rule calls
    of one call per distinct (p, class, v) with p <= B per block and one
    per pair with a prime q > B, q^2 | F, at the pairs counted only)."""
    b = kernels.trial_bound(F.coeffs, n, n)
    rows = max(1, kernels._VALUE_BLOCK // (2 * n + 1))

    def counted(x, y):
        return math.gcd(x, y) == 1 and (sector is None or sector.contains(x, y))

    sums, exact, pairs, calls = [], 0, 0, Counter()
    for z0 in range(0, n + 1, rows):
        block = [(x, y) for y in range(z0, min(z0 + rows, n + 1)) for x in range(-n, n + 1)]
        views = [[c for c in block if counted(*c)], [c for c in block if c[1] > 0 and counted(-c[0], -c[1])]]
        prod, keys = {}, set()
        for x, y in set(views[0]) | set(views[1]):
            v = F(x, y)
            if v == 0:
                prod[x, y] = (0j, 0)
                continue
            w, values = 1.0 + 0.0j, []
            for p, e in numutil.factorize(abs(v)).pairs:
                if e >= 2:
                    cls = x * pow(y, -1, p) % p if y % p else p
                    values.append(u.rule(p, cls, e))
                    w *= values[-1]
                    if p <= b:
                        keys.add((p, cls, e))
                    else:
                        calls[p, cls, e] += 1
            prod[x, y] = (w, math.prod(values))
        calls.update(keys)
        for view in views:
            pairs += len(view)
            sums.append(np.sum(np.array([prod[c][0] for c in view], dtype=complex)))
            exact += sum(prod[c][1] for c in view)
    total = complex(math.fsum(np.real(sums)), math.fsum(np.imag(sums)))
    return total / pairs, exact, pairs, calls


def test_empirical_average_form_vs_pair_loop(monkeypatch):
    # bit-identical to the pair loop summed by folded blocks and views, for
    # every rule kind, also across blocks of rows; the integer families give
    # the exact mean, and the rule is read once per distinct (p, class, v)
    # of a block and once per large prime, at the pairs counted only
    from sievecraft.lattice import Sector

    def wave(p, i, j):
        return complex(math.cos(p * i + j), math.sin(p + j) / 3) if j >= 2 else 1

    def check(F, u, n, sector=None):
        calls = Counter()

        def rule(p, i, j):
            calls[p, i, j] += 1
            return u.rule(p, i, j)

        rep = empirical_average_form(F, LocalFactorSpec(None, rule, u.kind, u.general), n, sector)
        mean, exact, pairs, expect = empirical_average_form_alt(F, u, n, sector)
        assert rep.empirical == mean
        assert calls == expect
        if u.kind in ("indicator", "signed"):
            assert rep.empirical == exact / pairs

    for spec, n in (("x*z", 60), ("x^3 + 2*z^3", 25), ("4*x^3 + x*z^2 + 6*z^3", 18), ("x", 9)):
        F = parse(spec, kind="form")
        for u in (
            squarefree_indicator_form_family(F),
            LocalFactorSpec(None, lambda p, i, j: (-1) ** j if j >= 2 else 1, kind="signed"),
            LocalFactorSpec(None, wave, general=True),
        ):
            # the last sector holds rows z > 0 whose mirror alone is counted
            for sector in (None, Sector((1, 1), (-1, 2)), Sector((-1, 0), (1, 1))):
                check(F, u, n, sector)
    monkeypatch.setattr(kernels, "_VALUE_BLOCK", 100)
    F = parse("x^3 + 2*z^3", kind="form")
    check(F, LocalFactorSpec(None, wave, general=True), 25)


def test_average_with_multiplier_progression():
    P = parse("x")
    u = squarefree_indicator_family(P)
    mult = MultiplierSpec(kind="progression", a=1, m=3)
    rep = average_with_multiplier(P, u, mult, 10**5)
    # [DERIVED] brute force: squarefree x = 1 mod 3 up to 1e5 -> 22795
    assert rep.empirical.real == pytest.approx(0.22795)
    assert abs(rep.empirical.real - rep.predicted.real) <= rep.tail_slack + 0.01


def test_average_with_multiplier_zero_modulus():
    P = parse("x")
    mult = MultiplierSpec(kind="progression", a=1, m=0)
    with pytest.raises(ValueError, match="modulus"):
        average_with_multiplier(P, squarefree_indicator_family(P), mult, 100)


def test_average_with_multiplier_progression_brute():
    P = parse("x^2 + 1")
    u = squarefree_indicator_family(P)
    n = 5000
    mult = MultiplierSpec(kind="progression", a=2, m=4)
    rep = average_with_multiplier(P, u, mult, n)
    brute = sum(
        1 for x in range(1, n + 1) if x % 4 == 2 and numutil.mobius(x * x + 1) != 0
    )
    assert rep.empirical.real == pytest.approx(brute / n)


def test_average_with_multiplier_other_kinds():
    P = parse("x")
    u = squarefree_indicator_family(P)
    rep = average_with_multiplier(P, u, MultiplierSpec(kind="mobius-experimental"), 3000)
    assert rep.predicted is None
    rep = average_with_multiplier(
        P, u, MultiplierSpec(kind="custom", s=lambda x: 1.0), 3000
    )
    assert rep.predicted is None
    brute = sum(1 for x in range(1, 3001) if numutil.mobius(x) != 0)
    assert rep.empirical.real == pytest.approx(brute / 3000)
    with pytest.raises(ValueError):
        average_with_multiplier(P, u, MultiplierSpec(kind="nope"), 100)


def test_truncated_product_indicator():
    P = parse("x")
    u = squarefree_indicator_family(P)
    v, slack = truncated_product(u, 100)
    expect = Fraction(1)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        expect *= 1 - Fraction(1, p * p)
    assert v == expect
    # the only discarded mass is the v_p > J_CAP tail, ~ sum p^-25
    assert 0 <= slack < 1e-7


# ---------------------------------------------------------------------------
# Local integrals against an enumeration of residues mod p^(j_cap + 1)


@st.composite
def _bad_prime_polys(draw):
    """c * prod (a_k x - b_k) * q: the roots b_k / a_k come from a short
    range, so they collide mod 2, 3 and 5 and Disc is divisible by them;
    c and the a_k put 2, 3 and 5 into the content and the lead."""
    c = draw(st.sampled_from([1, 2, 3, 5, 6, 10, 30, 4, 9]))
    factors = draw(
        st.lists(
            st.tuples(st.sampled_from([1, 1, 2, 3, 5]), st.integers(-6, 6)),
            min_size=1,
            max_size=3,
        )
    )
    q = draw(st.sampled_from([[1], [1, 0, 1], [2, 0, 1], [5, 1, 1], [-3, 0, 1]]))
    coeffs = [c * a for a in q]
    for a, b in factors:  # coeffs *= (a x - b)
        coeffs = [a * hi - b * lo for lo, hi in zip(coeffs + [0], [0] + coeffs)]
    P = IntPoly(coeffs)
    assume(is_squarefree_poly(P))
    return P


def _rules():
    values = st.one_of(
        st.lists(st.integers(-1, 1), min_size=7, max_size=7),
        st.lists(st.fractions(-1, 1, max_denominator=12), min_size=7, max_size=7),
        st.lists(st.floats(-1, 1), min_size=7, max_size=7),
        st.lists(
            st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False),
            min_size=7,
            max_size=7,
        ),
    )
    return values.map(lambda vals: lambda p, i, j: vals[(3 * i + 5 * j + p) % 7])


def _low_trivial(rule):
    """rule on v_p >= 2 and the int 1 below, as the paper's hypothesis asks."""
    return lambda p, i, j: rule(p, i, j) if j >= 2 else 1


def _enumerated_integral(P, rule, p, j_cap):
    """(integral, slack) summed over x mod p^(j_cap + 1), where
    v_p(P(x)) <= j_cap is already fixed; float and complex values are
    summed exactly and rounded once, to the type of the values."""
    mod = p ** (j_cap + 1)
    re = im = Fraction(0)
    kinds = set()
    slack = 0
    for x in range(mod):
        y = P(x)
        if y % mod == 0:
            slack += 1
            continue
        v = rule(p, x % p, numutil.valuation(y, p))
        kinds.add(type(v))
        if isinstance(v, complex):
            re, im = re + Fraction(v.real), im + Fraction(v.imag)
        else:
            re += Fraction(v)
    value = re / mod
    if complex in kinds:
        value = complex(float(value), float(im / mod))
    elif float in kinds:
        value = float(value)
    return value, float(Fraction(slack, mod))


@settings(max_examples=120, deadline=None)
@given(_bad_prime_polys(), _rules(), st.sampled_from([2, 3, 5, 7]), st.integers(1, 6))
def test_local_integral_vs_enumeration(P, rule, p, j_cap):
    while p ** (j_cap + 1) > 3000:
        j_cap -= 1
    got = local_integral(LocalFactorSpec(P, rule, general=True), p, j_cap)
    want = _enumerated_integral(P, rule, p, j_cap)
    assert got == want and type(got[0]) is type(want[0])
    # a family with u = 1 on v_p <= 1, read only from v_p = 2 on
    rule = _low_trivial(rule)
    got = local_integral(LocalFactorSpec(P, rule), p, j_cap)
    want = _enumerated_integral(P, rule, p, j_cap)
    assert got == want and type(got[0]) is type(want[0])


@settings(max_examples=60, deadline=None)
@given(
    _bad_prime_polys(),
    st.one_of(st.sampled_from(["indicator", "signed"]), _rules()),
    st.sampled_from([1, 2, 3, 4, 6, 9, 10, 12, 25, 30]),
    st.integers(0, 29),
)
def test_integrals_from_level_two_vs_full_sweep(P, family, m, a):
    # a family with u = 1 on v_p <= 1, read from level 2 on (closed-form
    # masses at the simple primes, the lifted masses from level 2 at the
    # others) against the same rule swept over every level and class
    if family == "indicator":
        u = squarefree_indicator_family(P)
    elif family == "signed":
        u = signed_valuation_family(P)
    else:
        u = LocalFactorSpec(P, _low_trivial(family))
    full = LocalFactorSpec(P, u.rule, general=True)
    primes = kernels.prime_sieve(60).tolist()
    got = avgprod._local_integrals(P, u, primes, avgprod.J_CAP, a, m)
    want = avgprod._local_integrals(P, full, primes, avgprod.J_CAP, a, m)
    assert got == want
    assert [type(v) for v in got[0]] == [type(v) for v in want[0]]


def test_non_general_family_checked_at_every_prime():
    # u = 1 on v_p <= 1 fails only at p = 5, beyond the primes 2 and 3 the
    # empirical side checks: every prediction read from level 2 refuses it
    def rule(p, i, j):
        if (p, i, j) == (5, 0, 0):
            return 0.5
        return 0 if j >= 2 else 1

    P = parse("x")
    u = LocalFactorSpec(P, rule)
    with pytest.raises(ValueError, match="u = 1"):
        truncated_product(u, 10)
    with pytest.raises(ValueError, match="u = 1"):
        empirical_average(P, u, 100, 10)
    with pytest.raises(ValueError, match="u = 1"):
        average_with_multiplier(P, u, MultiplierSpec(kind="progression", a=1, m=3), 100, 10)

    # and at every class mod p, not only at 0 and 1
    def rule_at_2(p, i, j):
        if (p, i, j) == (5, 2, 0):
            return 0.5
        return 0 if j >= 2 else 1

    u = LocalFactorSpec(P, rule_at_2)
    with pytest.raises(ValueError, match="u = 1"):
        local_integral(u, 5)
    with pytest.raises(ValueError, match="u = 1"):
        truncated_product(u, 10)


def _exact_slack(P, b):
    """The exact sum over p <= b of mu{v_p(P(x)) > J_CAP}."""
    k = avgprod.J_CAP + 1
    return sum(
        Fraction(localdens.count_roots_mod_pk(P, p, k), p**k) for p in kernels.prime_sieve(b).tolist()
    )


def _digest(q):
    return hashlib.sha256(f"{q.numerator:x}/{q.denominator:x}".encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "spec,family,digest,slack",
    [
        # [DERIVED] frozen from the per-depth Fraction lifting this module
        # used before the masses were read from one lifting per prime
        ("x", "indicator", "9bda270dcdb281e3", 2.980350262643866e-08),
        ("x", "signed", "793f69aa4ed27fbd", 2.980350262643866e-08),
        # the slack is the float just above the exact sum (a float sum of
        # the terms rounded to nearest gave 6.710886400283777e-18, below it)
        ("x^2 + 1", "indicator", "36413bf02f715b07", 6.7108864002837776e-18),
        ("x^2 + 1", "signed", "a7fe0408e0a794a1", 6.7108864002837776e-18),
        ("x^3 + 2", "indicator", "36e1c7b5f0baf775", 3.3554432092297733e-18),
        ("x^3 + 2", "signed", "9d69bbe7767353ad", 3.3554432092297733e-18),
    ],
)
def test_truncated_product_frozen(spec, family, digest, slack):
    P = parse(spec)
    u = squarefree_indicator_family(P) if family == "indicator" else signed_valuation_family(P)
    v, s = truncated_product(u, 1000)
    assert (_digest(v), s) == (digest, slack)
    assert Fraction(s) >= _exact_slack(P, 1000)


# ---------------------------------------------------------------------------
# The reported interval, rounded outward from the exact values


def _rational_family(P):
    """u_p = 1 on v_p <= 1, 0 on even and -1/2 on odd v_p >= 2: the local
    integral of 4x^2 + 4 at 2 (v_2 = 2 at even x, 3 at odd x) is -1/4, and
    0 on the progression x = 0 mod 2."""
    return LocalFactorSpec(P, lambda p, i, j: 1 if j <= 1 else Fraction(-(j % 2), 2))


def _check_outward(rep, t, tail):
    assert Fraction(rep.tail_slack) >= tail
    assert Fraction(math.nextafter(rep.tail_slack, -math.inf)) < tail
    assert Fraction(rep.predicted_lo) <= t - tail
    assert Fraction(math.nextafter(rep.predicted_lo, math.inf)) > t - tail
    assert Fraction(rep.predicted_hi) >= t + tail
    assert Fraction(math.nextafter(rep.predicted_hi, -math.inf)) < t + tail


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-12, 12), min_size=2, max_size=4),
    st.integers(2, 300),
    st.sampled_from([squarefree_indicator_family, signed_valuation_family, _rational_family]),
)
def test_empirical_average_outward(coeffs, b, family):
    assume(coeffs[-1] != 0)
    P = IntPoly(coeffs)
    assume(is_squarefree_poly(P))
    u = family(P)
    rep = empirical_average(P, u, 200, b)
    t, _ = truncated_product(u, b)
    _check_outward(rep, t, Fraction(P.degree, b) + _exact_slack(P, b))


@pytest.mark.parametrize("b", [10, 97, 1000])
def test_progression_outward(b):
    # P = x, x = 1 mod 3, indicator: the factor at 3 is mu{x = 1 (3)} = 1/3,
    # at every other p it is 1 - p^-2 with the slack p^-25 of x = 0 (p^25)
    rep = average_with_multiplier(
        parse("x"), squarefree_indicator_family(parse("x")),
        MultiplierSpec(kind="progression", a=1, m=3), 300, b,
    )
    others = [p for p in kernels.prime_sieve(b).tolist() if p != 3]
    t = Fraction(1, 3) * math.prod(1 - Fraction(1, p * p) for p in others)
    tail = Fraction(1, b) + sum(Fraction(1, p**25) for p in others)
    _check_outward(rep, t, tail)


@pytest.mark.parametrize("spec", ["x^3 + 2", "4*x^2 + 4"])
def test_prediction_exact_fallback_identical(spec):
    # a 3-bit enclosure decides almost nothing, so every float falls back to
    # the exact product and sum; at full precision none is formed
    P = parse(spec)
    families = [
        squarefree_indicator_family(P),
        signed_valuation_family(P),
        _rational_family(P),
        LocalFactorSpec(P, lambda p, i, j: 1 if j <= 1 else 0.5),
    ]

    def reports():
        return [
            rep
            for u in families
            for rep in [empirical_average(P, u, 300, 200)]
            + [average_with_multiplier(P, u, MultiplierSpec(kind="progression", a=a, m=2), 300, 200) for a in (0, 1)]
        ]

    with mock.patch.object(eulerprod, "_product", wraps=eulerprod._product) as product:
        want = reports()
        assert not product.called
        with mock.patch.object(eulerprod, "_PRECISION", 3):
            assert reports() == want
        assert product.called
    if spec == "4*x^2 + 4":  # the rational family: negative, then zero, then negative
        assert [r.predicted.real < 0 for r in want[6:9]] == [True, False, True]
        assert want[7].predicted == 0


# ---------------------------------------------------------------------------
# Entry points


def test_square_free_checked_for_every_multiplier():
    P = parse("x^2")
    u = squarefree_indicator_family(P)
    for mult in (
        MultiplierSpec(kind="progression", a=1, m=3),
        MultiplierSpec(kind="mobius-experimental"),
        MultiplierSpec(kind="custom", s=lambda x: 1.0),
    ):
        with pytest.raises(ValueError, match="square-free"):
            average_with_multiplier(P, u, mult, 100)
    with pytest.raises(ValueError, match="square-free"):
        truncated_product(u, 100)


def product_values_alt(P, u, n, threshold):
    """Independent recount of avgprod._product_blocks as (prod, delta),
    prod[x] for x = 1..N, from the whole-range profile: every entry, in the
    profile's order (ascending p for each x), then the prime q > B of a
    square remainder q^2."""
    b = kernels.trial_bound(P.coeffs, n)
    profile = value_square_profile_alt(P.coeffs, n, b)
    xs, ps, vs, rem = profile
    prod = np.ones(n + 1, dtype=complex)
    for t in range(len(xs)):
        x = int(xs[t])
        p = int(ps[t])
        prod[x] *= u.rule(p, x % p, int(vs[t]))
    for x, p in square_roots(rem).items():
        prod[x] *= u.rule(p, x % p, 2)
    prod[rem == 0] = 0
    return prod, exceptional_count_alt(profile, threshold)


def _wave(p, i, j):
    return complex(math.cos(p * i + j), math.sin(p + j) / 3) if j >= 2 else 1


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(value_polys(), BLOCK_SIZES, st.sampled_from(["indicator", "signed", "wave"]))
def test_product_values_vs_whole_range(case, size, family):
    # the streamed blocks of products are bit-identical to the ones read
    # from the whole-range profile, and their total is the math.fsum of the
    # oracle's block sums
    P, n = case
    u = {
        "indicator": squarefree_indicator_family(P),
        "signed": signed_valuation_family(P),
        "wave": LocalFactorSpec(P, _wave),
    }[family]
    with mock.patch.object(kernels, "_VALUE_BLOCK", size):
        blocks = list(avgprod._product_blocks(P, u, n, math.isqrt(n)))
        total, delta = avgprod._total(P, u, n, threshold=math.isqrt(n))
    expect, expect_delta = product_values_alt(P, u, n, math.isqrt(n))
    assert [lo for lo, _, _ in blocks] == list(range(1, n + 1, size))
    assert np.concatenate([prod for _, prod, _ in blocks]).tobytes() == expect[1:].tobytes()
    sums = [np.sum(expect[lo : lo + size]) for lo in range(1, n + 1, size)]
    assert total == complex(math.fsum(np.real(sums)), math.fsum(np.imag(sums)))
    assert delta == sum(d for _, _, d in blocks) == expect_delta


def product_values_loop(P, u, n):
    """avgprod._product_blocks' products with one rule call per profile entry,
    in entry order, block by block; with the number of entries and the
    number of rule calls at v >= 2 a fill that reads each distinct (p, x
    mod p, v) of a block once makes."""
    b = kernels.trial_bound(P.coeffs, n)
    prod = np.ones(n + 1, dtype=complex)
    entries = once = 0
    for lo, xs, ps, vs, rem in value_square_blocks(P.coeffs, n, b):
        keys = set()
        for x, p, v in zip(xs.tolist(), ps.tolist(), vs.tolist()):
            prod[x] *= u.rule(p, x % p, v)
            keys.add((p, x % p, v))
        q = census._square_root(rem)
        at = np.flatnonzero(q)
        entries += xs.size
        once += len(keys) + at.size
        for x, p in zip((at + lo).tolist(), q[at].tolist()):
            prod[x] *= u.rule(p, x % p, 2)
        prod[lo : lo + rem.size][rem == 0] = 0
    return prod, entries, once


@pytest.mark.parametrize(
    "spec,n",
    [("x", 3000), ("12*x^3 + 24", 2000), ("4*x^2 + 12", 3000), ("30*x^2 - 30", 2500), ("18*x^2 + 2*x", 2000)],
)
def test_product_values_vs_entry_loop(spec, n):
    # the same complex products as the per-entry loop, in the same order,
    # with one rule call per distinct (p, x mod p, v) of a block
    P = parse(spec)
    calls = []

    def rule(p, i, j):
        calls.append((p, i, j))
        return _wave(p, i, j)

    u = LocalFactorSpec(P, rule)
    with mock.patch.object(kernels, "_VALUE_BLOCK", 700):
        expect, entries, once = product_values_loop(P, u, n)
        calls.clear()
        prod = np.concatenate([prod for _, prod, _ in avgprod._product_blocks(P, u, n)])
    assert prod.tobytes() == expect[1:].tobytes()
    # the hypothesis checks read v_p <= 1 only
    assert sum(j >= 2 for _, _, j in calls) == once < entries


def test_empirical_average_profiles_once(monkeypatch):
    calls = []
    blocks = kernels.value_power_blocks

    def counted(*args):
        calls.append(args)
        return blocks(*args)

    monkeypatch.setattr(kernels, "value_power_blocks", counted)
    P = parse("x^3 + 2")
    rep = empirical_average(P, squarefree_indicator_family(P), 5000)
    assert len(calls) == 1
    assert rep.delta_term == 2 * census.delta_census_univ(P, 5000) / 5000


# ---------------------------------------------------------------------------
# The class-free families: counted, not read through their rule


@pytest.mark.parametrize("size", [kernels._VALUE_BLOCK, 700])
@pytest.mark.parametrize(
    "spec,n", [("x", 9000), ("x^3 + 2", 9000), ("12*x^3 + 24", 8193), ("4*x^2 + 12", 12289), ("10007*x + 10007", 10000)]
)
def test_indicator_mask_vs_rule_path(spec, n, size, monkeypatch):
    # the indicator's products, read from the census mask, are byte for
    # byte and delta for delta those of its rule read through _products
    # (kind custom), across several blocks, with and without a threshold
    monkeypatch.setattr(kernels, "_VALUE_BLOCK", size)
    assert n > 2 * size
    P = parse(spec)
    u = squarefree_indicator_family(P)
    for threshold in (None, math.isqrt(n)):
        got = list(avgprod._product_blocks(P, u, n, threshold))
        want = list(avgprod._product_blocks(P, LocalFactorSpec(P, u.rule), n, threshold))
        assert [(lo, prod.tobytes(), d) for lo, prod, d in got] == [(lo, prod.tobytes(), d) for lo, prod, d in want]


@pytest.mark.parametrize("j_cap", [0, 1, 2, 5, 24])
@pytest.mark.parametrize("family", [squarefree_indicator_family, signed_valuation_family])
def test_closed_form_vs_sweep(family, j_cap):
    # the integrals read from the root counts in closed form equal, value
    # for value and type for type, the general sweep over every level and
    # class; x^2 + x has r = p = 2 roots at 2
    primes = kernels.prime_sieve(3000).tolist()
    for spec, a, m in (("x^3 + 2", 0, 1), ("x^3 + 2", 2, 15), ("x^2 + x", 0, 1)):
        P = parse(spec)
        u = family(P)
        got = avgprod._local_integrals(P, u, primes, j_cap, a, m)
        want = avgprod._local_integrals(P, LocalFactorSpec(P, u.rule, general=True), primes, j_cap, a, m)
        assert got == want
        assert [type(v) for v in got[0]] == [type(v) for v in want[0]]


def test_class_free_prediction_reads_no_roots(monkeypatch):
    # the two class-free families read root counts, never the roots mod p,
    # and their predictions are unchanged by it
    def no_roots(*args):
        raise AssertionError("roots_mod_primes called")

    P = parse("12*x^3 + 24")
    cases = [(f(P), a, m) for f in (squarefree_indicator_family, signed_valuation_family) for a, m in ((0, 1), (1, 3))]
    want = [avgprod._predict(P, u, 1000, a, m) for u, a, m in cases]
    monkeypatch.setattr(kernels, "roots_mod_primes", no_roots)
    assert [avgprod._predict(P, u, 1000, a, m) for u, a, m in cases] == want
