import json
import math

import numpy as np
import pytest

from sievecraft import census, localdens, numutil
from sievecraft.census import (
    count_powerfree_values,
    count_squarefree_form,
    delta_census_form,
    delta_census_univ,
    r_alpha_sum,
    splitting_type,
    twist_census,
)
from sievecraft.poly import parse


def delta_census_univ_alt(P, n, threshold=None):
    """Independent recount of delta_census_univ by looping over the
    primes p in (threshold, sqrt(max |P|)] and scanning the arithmetic
    progressions of roots mod p^2.  Intended for N <= 2000."""
    if threshold is None:
        threshold = math.isqrt(n)
    vmax = sum(abs(a) * n**i for i, a in enumerate(P.coeffs))
    hit = set()
    for p in range(threshold + 1, math.isqrt(vmax) + 1):
        if not numutil.is_prime(p):
            continue
        p2 = p * p
        for r, e in localdens.roots_mod_pk(P, p, 2):
            mod = p**e if e else 1
            x = r % mod if mod > 1 else 1
            if x == 0:
                x = mod
            for v in range(x, n + 1, mod):
                if P(v) != 0 and P(v) % p2 == 0:
                    hit.add(v)
    return len(hit)


def _brute_powerfree(P, n, m):
    cnt = 0
    for x in range(1, n + 1):
        v = abs(P(x))
        if v == 0:
            continue
        if all(e < m for _, e in numutil.factorize(v).pairs):
            cnt += 1
    return cnt


def test_is_square_helper():
    v = np.array([0, 1, 2, 4, 9, 15, 16, 10**12, 10**12 + 1, (10**6 + 3) ** 2])
    got = census._is_square(v)
    expect = [x > 1 and math.isqrt(x) ** 2 == x for x in v.tolist()]
    assert got.tolist() == expect


def test_count_powerfree_frozen():
    # [DERIVED] brute-force oracles
    assert count_powerfree_values(parse("x"), 100, 2).observed == 61
    assert count_powerfree_values(parse("x"), 100, 3).observed == 85
    assert count_powerfree_values(parse("x^3 + 2"), 50, 2).observed == 47


def test_count_powerfree_vs_brute():
    for spec in ("x^3 + 2", "x^2 + 1", "2*x^3 + 3*x + 1", "x^2 - x"):
        P = parse(spec)
        for m in (2, 3):
            rep = count_powerfree_values(P, 200, m)
            assert rep.observed == _brute_powerfree(P, 200, m), (spec, m)


def test_count_powerfree_zeros_and_report():
    rep = count_powerfree_values(parse("x^2 - x"), 100, 2)  # P(1) = 0
    assert rep.zeros == 1
    data = json.loads(rep.to_json())
    assert data["observed"] == rep.observed
    assert data["N"] == 100
    assert rep.main_lo <= rep.main_hi


def test_count_squarefree_form_frozen():
    # [DERIVED] brute-force oracles
    F1 = parse("x", kind="form")
    rep = count_squarefree_form(F1, 30, "positive-quadrant", coprime=False)
    assert rep.observed == 570
    rep = count_squarefree_form(F1, 30, "positive-quadrant", coprime=True)
    assert rep.observed == 391
    rep = count_squarefree_form(parse("x*z", kind="form"), 10, "full-box")
    assert rep.observed == 132
    rep = count_squarefree_form(parse("x^3 + 2*z^3", kind="form"), 12, "full-box")
    assert rep.observed == 348


def test_count_squarefree_form_vs_brute():
    F = parse("x^3 + 2*z^3", kind="form")
    n = 8
    brute = sum(
        1
        for x in range(-n, n + 1)
        for y in range(-n, n + 1)
        if math.gcd(x, y) == 1
        and F(x, y) != 0
        and numutil.mobius(abs(F(x, y))) != 0
    )
    assert count_squarefree_form(F, n, "full-box").observed == brute


def test_delta_census_univ_dual():
    # two independent counting methods agree; values frozen [DERIVED]
    frozen = {
        "x^3 + 2": (2, 7),
        "x^2 + 1": (4, 4),
        "x^3 - x + 7": (4, 5),
        "2*x^3 + 3*x + 1": (2, 7),
    }
    for spec, (d100, d500) in frozen.items():
        P = parse(spec)
        assert delta_census_univ(P, 100) == d100 == delta_census_univ_alt(P, 100)
        assert delta_census_univ(P, 500) == d500 == delta_census_univ_alt(P, 500)


def test_delta_census_form_frozen():
    F = parse("x^3 + 2*z^3", kind="form")
    count, profile = delta_census_form(F, 30)
    assert count == 14
    assert profile == {31: 8, 43: 4, 71: 2}


def test_twist_census():
    F = parse("x^3 + 2*z^3", kind="form")
    t = twist_census(F, 15)
    # [DERIVED] frozen twist counts
    assert t.table[3] == 3
    assert t.table[10] == 2
    # conservation: every coprime pair lands in exactly one bucket
    assert sum(t.table.values()) + t.zeros == t.pairs
    # every key is a square-free kernel
    for d in t.table:
        assert numutil.mobius(abs(d)) != 0
    csv = t.to_csv()
    assert csv.startswith("d,S_d\n") and "\n3,3\n" in csv
    with pytest.raises(ValueError):
        twist_census(parse("x*z", kind="form"), 5)


def test_splitting_type():
    P = parse("x^3 - 2")
    assert splitting_type(P, 5) == [1, 2]
    assert splitting_type(P, 7) == [3]
    assert splitting_type(P, 31) == [1, 1, 1]
    with pytest.raises(ValueError):
        splitting_type(P, 3)  # ramified
    with pytest.raises(ValueError):
        splitting_type(parse("x^2 - 1"), 5)  # reducible


def test_splitting_type_brute():
    # degrees multiset agrees with a brute-force factor count mod p:
    # number of roots = number of degree-1 factors
    P = parse("x^5 - x + 1")
    for p in (7, 11, 13, 101):
        degs = splitting_type(P, p)
        assert sum(degs) == 5
        roots = sum(1 for x in range(p) if P(x) % p == 0)
        assert degs.count(1) == roots


def test_r_alpha_sum():
    P = parse("x^3 - 2")
    total, table = r_alpha_sum(P, 1.0, 100)
    assert total == 84.0
    assert r_alpha_sum(P, 1.0, 1)[0] == 1.0
    assert [xi for xi, _ in table] == [25, 50, 100]
    # alpha = 0: R is the indicator of split square-free d, so the sum
    # is monotone in X
    t1, _ = r_alpha_sum(P, 0.0, 200)
    t2, _ = r_alpha_sum(P, 0.0, 400)
    assert 1 <= t1 <= t2


def test_r_alpha_sum_brute():
    # brute force: d square-free, every p | d has a root of P mod p
    P = parse("x^3 - 2")
    X = 300
    total = 0.0
    for d in range(1, X + 1):
        if numutil.mobius(d) == 0:
            continue
        extra = 0
        ok = True
        for p, _ in numutil.factorize(d).pairs:
            roots = sum(1 for x in range(p) if P(x) % p == 0)
            if roots == 0:
                ok = False
                break
            # distinct irreducible factors of x^3 - 2 mod p (unramified
            # p: 1 root -> (1,2) two factors; 3 roots -> three factors)
            if p == 2:
                nfac = 1  # x^3 - 2 = x^3 mod 2: square-free part is x
            elif p == 3:
                nfac = 1  # (x+1)^3 mod 3
            else:
                nfac = {1: 2, 3: 3}[roots]
            extra += nfac - 1
        if ok:
            total += 2.0**extra
    got, _ = r_alpha_sum(P, 1.0, X)
    assert got == pytest.approx(total)
