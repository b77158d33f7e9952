import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from sievecraft.poly import (
    BinForm,
    IntPoly,
    ParseError,
    discriminant,
    factor_rational,
    format_poly,
    is_squarefree_poly,
    parse,
)


def test_parse_and_eval():
    p = parse("x^3 + 2")
    assert p.coeffs == (2, 0, 0, 1)
    assert p(3) == 29
    assert parse("2*x^2 - x + 5")(2) == 11
    assert parse("x*x*x - x")(5) == 120


def test_parse_form():
    f = parse("x^3 + 2*z^3", kind="form")
    assert isinstance(f, BinForm)
    assert f(1, 1) == 3 and f(2, 1) == 10
    g = parse("x*y", kind="form")  # y is a synonym for z
    assert g(3, 4) == 12


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("x +")
    with pytest.raises(ParseError):
        parse("x^2 + z", kind="form")  # not homogeneous
    with pytest.raises(ParseError):
        parse("w + 1")


def test_format_roundtrip():
    rng = random.Random(4)
    for _ in range(100):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        if all(c == 0 for c in coeffs):
            continue
        p = IntPoly(coeffs)
        assert parse(str(p)).coeffs == p.coeffs
        assert parse(format_poly(p.coeffs, "x")).coeffs == p.coeffs


def test_discriminant_known():
    assert discriminant(parse("x^2 + 1")) == -4
    assert discriminant(parse("x^3 - 2")) == -108
    assert discriminant(parse("x^2 - 2*x + 1")) == 0
    assert discriminant(parse("3*x + 1")) == 1


def test_is_squarefree():
    assert is_squarefree_poly(parse("x^3 + 2"))
    assert not is_squarefree_poly(parse("x^2 - 2*x + 1"))
    assert is_squarefree_poly(parse("x*z", kind="form"))
    assert not is_squarefree_poly(parse("x^2*z", kind="form"))
    # degree 1, and content (a constant factor is not a repeated factor)
    for spec in ("x", "3*x + 1", "4*x + 4", "-9*x", "6*x^2 + 12", "4*x^3 + 8"):
        assert is_squarefree_poly(parse(spec)), spec
    for spec in ("4*x^2 - 8*x + 4", "2*x^3 - 4*x^2 + 2*x", "-12*x^2", "9*x^4 + 18*x^2 + 9"):
        assert not is_squarefree_poly(parse(spec)), spec
    # against the multiplicities of the rational factorization
    rng = random.Random(5)
    for _ in range(40):
        p = IntPoly([rng.choice([1, 2, 3, 4, 6])])
        for _ in range(rng.randint(1, 3)):
            p = p * IntPoly([rng.randint(-3, 3), rng.choice([1, 2, -3])])
        _, _, factors = factor_rational(p)
        assert is_squarefree_poly(p) == all(m == 1 for _, m in factors), p.coeffs


def test_factor_rational_examples():
    sign, cont, factors = factor_rational(parse("x^2 - 1"))
    degs = sorted(f.degree for f, _ in factors)
    assert degs == [1, 1] and sign == 1 and cont == 1
    _, _, factors = factor_rational(parse("x^3 - 2"))
    assert len(factors) == 1 and factors[0][0].degree == 3


def test_factor_rational_roundtrip():
    rng = random.Random(7)
    done = 0
    while done < 60:
        coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(2, 6))]
        if not coeffs[-1]:
            continue
        p = IntPoly(coeffs)
        if p.degree < 1:
            continue
        sign, cont, factors = factor_rational(p)
        prod = IntPoly([sign * cont])
        for f, m in factors:
            assert f.lead > 0
            for _ in range(m):
                prod = prod * f
        assert prod.coeffs == p.coeffs
        done += 1


_COEFFS = st.lists(st.one_of(st.integers(-30, 30), st.integers(-(10**30), 10**30)), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(_COEFFS, st.integers(1, 12), st.sampled_from(["", "first", "last", "both"]))
def test_binform_content_is_intpoly_content(coeffs, scale, zero):
    # the form censuses read their content primes from BinForm.content
    c = [a * scale for a in coeffs]
    if zero in ("first", "both"):
        c[0] = 0
    if zero in ("last", "both"):
        c[-1] = 0
    assume(any(c))
    got = BinForm(tuple(c)).content()
    assert got == IntPoly(tuple(c)).content() == IntPoly(tuple(c[::-1])).content()
    assert got > 0 and all(a % got == 0 for a in c)


_FORM_COEFFS = st.lists(st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-9, 9)), min_size=2, max_size=7)


@settings(max_examples=200, deadline=None)
@given(_FORM_COEFFS, st.sampled_from(["", "first", "last", "both"]))
def test_form_format_roundtrip(coeffs, zero):
    # every form census prints its form with str(F)
    if zero in ("first", "both"):
        coeffs[0] = 0
    if zero in ("last", "both"):
        coeffs[-1] = 0
    assume(any(coeffs))
    F = BinForm(tuple(coeffs))
    assert parse(str(F), kind="form") == F
    assert format_poly(F.coeffs, "x", "z") == str(F)


def test_form_format_frozen():
    for text, printed in [
        ("x^3 + 2*z^3", "x^3 + 2*z^3"),
        ("-x^2*z + x*z^2", "-x^2*z + x*z^2"),
        ("2*x + 3*z", "2*x + 3*z"),
        ("x*z", "x*z"),
        ("z^3 - x^3", "-x^3 + z^3"),
        ("x^4 - 3*x^2*z^2 + 0*z^4 - z^4", "x^4 - 3*x^2*z^2 - z^4"),
    ]:
        assert str(parse(text, kind="form")) == printed, text


# a factor: low-to-high coefficients, a scale (a negative lead, content > 1)
# and a multiplicity
_FACTOR = st.tuples(
    st.lists(st.integers(-5, 5), min_size=2, max_size=3).filter(lambda c: c[-1] != 0),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
    st.integers(1, 2),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_FACTOR, min_size=1, max_size=3))
def test_factor_rational_rebuilds_product(parts):
    p = IntPoly((1,))
    for coeffs, scale, m in parts:
        for _ in range(m):
            p = p * IntPoly(tuple(scale * a for a in coeffs))
    assume(p.degree <= 8)
    sign, content, factors = factor_rational(p)
    assert sign == (1 if p.lead > 0 else -1) and content == p.content()
    prod = IntPoly((sign * content,))
    for f, m in factors:
        assert f.degree >= 1 and f.lead > 0 and f.content() == 1
        for _ in range(m):
            prod = prod * f
    assert prod == p
