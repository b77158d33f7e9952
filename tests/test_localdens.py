import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sievecraft import localdens, numutil
from sievecraft.poly import BinForm, IntPoly, is_squarefree_poly, parse


def _brute_count(P, p, k):
    mod = p**k
    return sum(1 for x in range(mod) if P(x) % mod == 0)


def _random_squarefree_polys(rng, count, degmax=4, cmax=30):
    from sievecraft.poly import is_squarefree_poly

    out = []
    while len(out) < count:
        coeffs = [rng.randint(-cmax, cmax) for _ in range(rng.randint(2, degmax + 1))]
        if not coeffs[-1]:
            continue
        p = IntPoly(coeffs)
        if p.degree >= 1 and is_squarefree_poly(p):
            out.append(p)
    return out


def test_lifting_vs_exhaustive_small():
    rng = random.Random(21)
    polys = _random_squarefree_polys(rng, 40)
    for P in polys:
        for p in (2, 3, 5, 7):
            for k in (1, 2, 3, 4):
                got = localdens.count_roots_mod_pk(P, p, k)
                assert got == _brute_count(P, p, k), (P.coeffs, p, k)
    # (x - 2)(x^47 - 1) = (x - 2)(x - 1)^47 mod 47: the root 1, of
    # multiplicity 47, lifts to 47 classes mod 47^2
    P = parse("x^48 - 2*x^47 - x + 2")
    for k, count in ((1, 2), (2, 48)):
        assert localdens.count_roots_mod_pk(P, 47, k) == _brute_count(P, 47, k) == count


def test_singular_lifting_expands_only_solving_children():
    # (x - 2)(x^11 - 1) at p = 89: 2^11 = 1 mod 89, so 2 is a double root
    # there; against every x mod 89^3 in int64
    P = parse("x^12 - 2*x^11 - x + 2")
    p = 89
    mod = p**3
    x = np.arange(mod, dtype=np.int64)
    y = np.zeros(mod, dtype=np.int64)
    for a in reversed(P.coeffs):
        y = (y * x + a) % mod
    v = sum((y % p**j == 0).astype(np.int64) for j in (1, 2, 3))  # min(v_p, 3)
    for k in (1, 2, 3):
        assert localdens.count_roots_mod_pk(P, p, k) == np.count_nonzero(v >= k) // p ** (3 - k)
    cover = {c for r, e in localdens.roots_mod_pk(P, p, 3) for c in range(r % p**e, mod, p**e)}
    assert cover == set(np.flatnonzero(v == 3).tolist())
    masses, den = localdens.class_masses(localdens._lift_levels(P, p, 3), p)
    assert den == mod
    for j in range(4):
        by_class = np.bincount(x[v >= j] % p, minlength=p)
        assert masses[j] == {i: int(c) for i, c in enumerate(by_class) if c}
    # a class per root and level, not the p children of the double root
    assert all(len(level) <= P.degree for level in localdens._lift_levels(P, p, 8))


def _assert_cover(P, p, k, classes):
    # disjoint classes that cover exactly the solutions mod p^k
    mod = p**k
    seen = set()
    for r, e in classes:
        assert 0 <= e <= k
        pe = p**e
        members = set(range(r % pe, mod, pe))
        assert not members & seen
        seen |= members
    assert seen == {x for x in range(mod) if P(x) % mod == 0}, (P.coeffs, p, k)


def test_classes_are_disjoint_and_valid():
    rng = random.Random(22)
    polys = _random_squarefree_polys(rng, 25)
    # contents 4, 9 and 12 and negative leads: the whole-space levels of the
    # content come from the same walk as the roots
    polys += [IntPoly([c * s * a for a in P.coeffs]) for P, c, s in zip(polys, (4, 9, 12) * 3, (-1, 1, -1))]
    for P in polys:
        for p, k in ((2, 5), (3, 4), (5, 3)):
            _assert_cover(P, p, k, localdens.roots_mod_pk(P, p, k))
            for j, classes in enumerate(localdens._lift_levels(P, p, k), 1):
                _assert_cover(P, p, j, classes)


def test_deep_lifting_has_no_recursion_limit():
    # x^2 + 7 at p = 2: the chain of singular classes is one level deeper
    # per m, past Python's recursion limit; the 4 roots of x^2 = -7 mod 2^m
    # for m >= 3
    assert localdens.count_roots_mod_pk(parse("x^2 + 7"), 2, 1100) == 4


def test_sols_bound_holds():
    rng = random.Random(23)
    for P in _random_squarefree_polys(rng, 30):
        for p in (2, 3, 5, 7, 11):
            bound = localdens.sols_bound(P, p)
            for k in (1, 2, 3):
                assert localdens.count_roots_mod_pk(P, p, k) <= bound


def test_sols_bound_content_example():
    # P = -6x + 9 has 3 roots mod 3 (content is divisible by 3)
    P = IntPoly([9, -6])
    assert localdens.count_roots_mod_pk(P, 3, 1) == 3
    assert localdens.sols_bound(P, 3) >= 3


def test_roots_requires_squarefree():
    with pytest.raises(ValueError):
        localdens.roots_mod_pk(parse("x^2 - 2*x + 1"), 3, 2)


def test_ell_form_oracle():
    # [DERIVED] exhaustive counts over (Z/p^2)^2
    F = parse("x*z", kind="form")
    assert localdens.ell_form(F, 5) == 65
    G = parse("x^3 + 2*z^3", kind="form")

    def brute(form, p):
        m = p * p
        return sum(1 for x in range(m) for y in range(m) if form(x, y) % m == 0)

    for form, p in ((F, 2), (F, 3), (F, 5), (G, 2), (G, 5), (G, 7)):
        assert localdens.ell_form(form, p) == brute(form, p)


def test_coprime_count_form_oracle():
    def brute(form, p):
        m = p * p
        return sum(
            1
            for x in range(m)
            for y in range(m)
            if form(x, y) % m == 0 and (x % p or y % p)
        )

    for spec, p in (("x*z", 5), ("x^3 + 2*z^3", 3), ("x^2 + z^2", 5), ("x^2*z + x*z^2", 2)):
        F = parse(spec, kind="form")
        assert localdens.coprime_count_form(F, p) == brute(F, p)


def test_solution_classes_form_cover():
    # classes partition the coprime solutions of p^n | F
    rngcases = [("x*z", 2, 3), ("x^3 + 2*z^3", 3, 2), ("x^2 - 2*z^2", 7, 2)]
    for spec, p, n in rngcases:
        F = parse(spec, kind="form")
        classes = localdens.solution_classes_form(F, p, n)
        m = p**n
        covered = {}
        for x in range(m):
            for y in range(m):
                if (x % p or y % p) and F(x, y) % m == 0:
                    hits = []
                    for axis, r, e in classes:
                        pe = p**e
                        if axis == "x" and y % p and (x - r * y) % pe == 0:
                            hits.append((axis, r, e))
                        if axis == "y" and x % p and (y - r * x) % pe == 0:
                            hits.append((axis, r, e))
                    assert len(hits) == 1, (spec, p, n, x, y, hits)
                    covered[(x, y)] = hits[0]
        # each class hit at least once
        assert set(covered.values()) == set(classes)


def test_valuation_measure_telescopes():
    P = parse("x^3 + 2")
    for p in (2, 3, 5):
        total = sum(localdens.valuation_measure(P, p, j) for j in range(10))
        tail = Fraction(localdens.count_roots_mod_pk(P, p, 10), p**10)
        assert total + tail == 1
        assert sum(_class_measure(P, p, 3).values()) == localdens.valuation_measure(P, p, 3)


def test_valuation_measure_brute():
    P = parse("x^3 + 2")
    p, j = 3, 2
    # mu({v_p = j}) over Z/p^(j+1): count x with v exactly j, weight p^-(j+1)
    m = p ** (j + 1)
    cnt = sum(
        1
        for x in range(m)
        if P(x) % p**j == 0 and P(x) % p ** (j + 1) != 0
    )
    assert localdens.valuation_measure(P, p, j) == Fraction(cnt, m)


def test_progression_measure():
    P = parse("x^3 + 2")
    p, j, a, e = 3, 1, 1, 2
    sigma = _class_measure(P, p, j, a, e)
    # brute force over Z/p^(j+e+2)
    depth = j + e + 2
    m = p**depth
    exact = [x for x in range(m) if P(x) != 0 and numutil.valuation(P(x), p) == j]
    for i in range(p):
        cnt = sum(1 for x in exact if x % p == i and x % p**e == a % p**e)
        assert sigma[i] == Fraction(cnt, m), i
    assert _class_measure(P, p, j) == {
        i: Fraction(sum(1 for x in exact if x % p == i), m) for i in range(p)
    }
    assert localdens.valuation_measure(P, p, j) == Fraction(len(exact), m)


@st.composite
def _bad_prime_polys(draw):
    """c * prod (a_k x - b_k) * q with roots from a short range, so that
    2, 3 and 5 divide Disc, the content or the lead."""
    c = draw(st.sampled_from([1, 2, 3, 5, 6, 10, 4, 9]))
    factors = draw(
        st.lists(
            st.tuples(st.sampled_from([1, 1, 2, 3, 5]), st.integers(-6, 6)),
            min_size=1,
            max_size=3,
        )
    )
    q = draw(st.sampled_from([[1], [1, 0, 1], [2, 0, 1], [-3, 0, 1]]))
    coeffs = [c * a for a in q]
    for a, b in factors:  # coeffs *= (a x - b)
        coeffs = [a * hi - b * lo for lo, hi in zip(coeffs + [0], [0] + coeffs)]
    P = IntPoly(coeffs)
    assume(is_squarefree_poly(P))
    return P


def _class_measure(P, p, j, a=0, e=0):
    """{i: mu{x = i (p), v_p(P(x)) = j, x = a (p^e)}} from the masses of
    one lifting walk, as avgprod reads them."""
    masses, den = localdens.class_masses(localdens._lift_levels(P, p, j + 1), p, a, e)
    return {i: Fraction(masses[j].get(i, 0) - masses[j + 1].get(i, 0), den) for i in range(p)}


def _enumerated_measure(P, p, j, a=0, e=0):
    """{i: mu{x = i (p), v_p(P(x)) = j, x = a (p^e)}} over x mod
    p^max(j + 1, e), where v_p(P(x)) = j is already decided."""
    mod = p ** max(j + 1, e)
    cnt = dict.fromkeys(range(p), 0)
    for x in range(a % p**e, mod, p**e):
        y = P(x)
        if y % mod and numutil.valuation(y, p) == j:
            cnt[x % p] += 1
    return {i: Fraction(c, mod) for i, c in cnt.items()}


@settings(max_examples=80, deadline=None)
@given(
    _bad_prime_polys(),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(0, 5),
    st.integers(0, 50),
    st.integers(0, 3),
)
def test_measures_vs_enumeration(P, p, j, a, e):
    while p ** max(j + 1, e) > 3000:
        j -= 1
    assume(j >= 0)
    by_class = _enumerated_measure(P, p, j)
    assert _class_measure(P, p, j) == by_class
    assert _class_measure(P, p, j, a, e) == _enumerated_measure(P, p, j, a, e)
    assert localdens.valuation_measure(P, p, j) == sum(by_class.values())


def test_roots_mod_pk_merges_at_every_level():
    # (x^2 - 1)(x - 8) mod 8: x = 0 (8) and every odd x, the class 1 (2)
    # made of 1 (4) and 3 (4), which sit above the deepest level
    P = parse("x^3 - 8*x^2 - x + 8")
    assert localdens.roots_mod_pk(P, 2, 3) == [(0, 3), (1, 1)]


@settings(max_examples=80, deadline=None)
@given(_bad_prime_polys(), st.sampled_from([2, 3, 5]), st.integers(1, 4))
def test_roots_mod_pk_fully_merged(P, p, k):
    # no p classes r mod p^e share r mod p^(e-1), except the roots mod p of
    # the primitive part, left unmerged; the classes cover the solutions
    classes = localdens.roots_mod_pk(P, p, k)
    siblings = {}
    for r, e in classes:
        if e >= 1:
            siblings.setdefault((r % p ** (e - 1), e), []).append(r)
    if k - localdens._content_valuation(P, p) != 1:
        assert all(len(rs) < p for rs in siblings.values())
    mod = p**k
    cover = {x for r, e in classes for x in range(r % p**e, mod, p**e)}
    assert cover == {x for x in range(mod) if P(x) % mod == 0}
    assert localdens.count_roots_mod_pk(P, p, k) == _brute_count(P, p, k)


@st.composite
def _forms_with_content(draw):
    """c * G for a square-free binary form G of degree 1-4 with small
    coefficients and content c = 2..18, so that p^2 | c at 2 and 3."""
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=5))
    c = draw(st.integers(2, 18))
    assume(any(coeffs))
    F = BinForm(tuple(c * a for a in coeffs))
    assume(is_squarefree_poly(F))
    return F


@settings(max_examples=80, deadline=None)
@given(_forms_with_content(), st.sampled_from([2, 3, 5]), st.integers(1, 3))
def test_form_counts_with_content_vs_enumeration(F, p, n):
    # the pair counts mod p^2 and the coprime solution classes mod p^n of a
    # form whose content p may divide, against enumeration of all pairs
    sols = [(x, y) for x in range(p * p) for y in range(p * p) if F(x, y) % (p * p) == 0]
    coprime = [(x, y) for x, y in sols if x % p or y % p]
    assert localdens.coprime_count_form(F, p) == len(coprime)
    assert localdens.ell_form(F, p) == len(sols)
    classes = localdens.solution_classes_form(F, p, n)
    m = p**n
    covered = set()
    for x in range(m):
        for y in range(m):
            if not (x % p or y % p):
                continue
            hits = [
                (axis, r, e)
                for axis, r, e in classes
                if (axis == "x" and y % p and (x - r * y) % p**e == 0)
                or (axis == "y" and x % p and (y - r * x) % p**e == 0)
            ]
            assert len(hits) == (1 if F(x, y) % m == 0 else 0), (x, y, hits)
            covered.update(hits)
    assert covered == set(classes)
