import math
import random

import numpy as np
import pytest

from sievecraft.lattice import (
    Lattice2,
    Sector,
    count_coprime,
    from_congruence,
    from_generators,
    min_maxnorm,
    penult_estimate,
    solution_lattices,
)
from sievecraft.poly import parse

Z2 = Lattice2(1, 1, 0)


def test_hnf_validation():
    with pytest.raises(ValueError):
        Lattice2(0, 1, 0)
    with pytest.raises(ValueError):
        Lattice2(2, 1, 2)


def test_from_generators_membership():
    rng = random.Random(31)
    for _ in range(200):
        v1 = (rng.randint(-6, 6), rng.randint(-6, 6))
        v2 = (rng.randint(-6, 6), rng.randint(-6, 6))
        if v1[0] * v2[1] - v1[1] * v2[0] == 0:
            continue
        L = from_generators(v1, v2)
        assert L.index == abs(v1[0] * v2[1] - v1[1] * v2[0])
        members = {
            (i * v1[0] + j * v2[0], i * v1[1] + j * v2[1])
            for i in range(-8, 9)
            for j in range(-8, 9)
        }
        for x in range(-6, 7):
            for y in range(-6, 7):
                if (x, y) in members:
                    assert L.contains(x, y), (v1, v2, x, y)
        # density check: one point per fundamental domain
        m = L.index
        cnt = sum(L.contains(x, y) for x in range(m) for y in range(m))
        assert cnt == m


def test_from_congruence():
    L = from_congruence(2, 5, "x")
    for x in range(-10, 11):
        for y in range(-10, 11):
            assert L.contains(x, y) == ((x - 2 * y) % 5 == 0)
    assert L.index == 5
    assert min_maxnorm(L) == 2
    Ly = from_congruence(3, 7, "y")
    for x in range(-10, 11):
        for y in range(-10, 11):
            assert Ly.contains(x, y) == ((y - 3 * x) % 7 == 0)
    # direct congruence check wins: (1,1) satisfies x = 1*y mod 3
    assert from_congruence(1, 3, "x").contains(1, 1)


def test_is_primitive():
    assert Lattice2(2, 3, 1).is_primitive()
    assert not Lattice2(2, 2, 0).is_primitive()


def test_min_maxnorm():
    assert min_maxnorm(from_congruence(0, 5, "x")) == 1  # (0, 1)
    assert min_maxnorm(Z2) == 1
    rng = random.Random(32)
    for _ in range(100):
        d1 = rng.randint(1, 30)
        d2 = rng.randint(1, 30)
        s = rng.randrange(d1)
        L = Lattice2(d1, d2, s)
        m = min_maxnorm(L)
        brute = min(
            max(abs(x), abs(y))
            for x in range(-d1, d1 + 1)
            for y in range(-d1, d1 + 1)
            if (x, y) != (0, 0) and L.contains(x, y)
        )
        assert m == brute, (d1, d2, s)


def test_sector_contains_and_mask():
    rng = random.Random(33)
    for _ in range(100):
        a = (rng.randint(-5, 5), rng.randint(-5, 5))
        b = (rng.randint(-5, 5), rng.randint(-5, 5))
        if a == (0, 0) or b == (0, 0):
            continue
        S = Sector(a, b)
        for y in range(-6, 7):
            xs = np.arange(-6, 7, dtype=np.int64)
            m = S.mask(xs, y)
            for i, x in enumerate(xs):
                assert m[i] == S.contains(int(x), y), (a, b, int(x), y)


def test_sector_partition():
    # a sector and its complement partition the nonzero plane
    a, b = (2, 1), (-1, 3)
    S = Sector(a, b)
    T = Sector(b, a)
    for x in range(-5, 6):
        for y in range(-5, 6):
            if (x, y) == (0, 0):
                continue
            assert S.contains(x, y) != T.contains(x, y), (x, y)


def test_sector_box_area():
    n = 100
    full = Sector()
    assert full.box_area(n) == 4.0 * n * n
    # quadrant
    q = Sector((1, 0), (0, 1))
    assert abs(q.box_area(n) - n * n) < 1e-9
    # half plane
    h = Sector((1, 0), (-1, 0))
    assert abs(h.box_area(n) - 2.0 * n * n) < 1e-9
    # complementary sectors tile the box
    rng = random.Random(34)
    for _ in range(50):
        a = (rng.randint(-5, 5), rng.randint(-5, 5))
        b = (rng.randint(-5, 5), rng.randint(-5, 5))
        if a == (0, 0) or b == (0, 0) or a[0] * b[1] == a[1] * b[0]:
            continue
        got = Sector(a, b).box_area(n) + Sector(b, a).box_area(n)
        assert abs(got - 4.0 * n * n) < 1e-6


def test_sector_area_vs_lattice_count():
    # Monte-Carlo-free check: counting all of Z^2 in a sector matches
    # its box area to O(N) boundary error
    S = Sector((3, 1), (-2, 5))
    n = 200
    cnt = sum(
        S.mask(np.arange(-n, n + 1, dtype=np.int64), y).sum()
        for y in range(-n, n + 1)
    )
    assert abs(cnt - S.box_area(n)) < 10 * n


def test_count_coprime_frozen():
    # [DERIVED] brute force oracles
    assert count_coprime(Z2, 2) == 16
    assert count_coprime(Z2, 1) == 8
    L = from_congruence(0, 5, "x")
    brute = sum(
        1
        for x in range(-7, 8)
        for y in range(-7, 8)
        if x % 5 == 0 and math.gcd(x, y) == 1
    )
    assert count_coprime(L, 7) == brute


def test_count_coprime_random_vs_brute():
    rng = random.Random(35)
    for _ in range(40):
        d1 = rng.randint(1, 6)
        d2 = rng.randint(1, 6)
        s = rng.randrange(d1)
        L = Lattice2(d1, d2, s)
        n = rng.randint(1, 12)
        sect = None
        if rng.random() < 0.5:
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            b = (rng.randint(-3, 3), rng.randint(-3, 3))
            if a != (0, 0) and b != (0, 0):
                sect = Sector(a, b)
        brute = sum(
            1
            for x in range(-n, n + 1)
            for y in range(-n, n + 1)
            if L.contains(x, y)
            and math.gcd(x, y) == 1
            and (sect is None or sect.contains(x, y))
        )
        assert count_coprime(L, n, sect) == brute, (d1, d2, s, n, sect)


def test_penult_estimate():
    # Z^2: 4N^2 * 6/pi^2; ratio to the exact count tends to 1
    n = 400
    est = penult_estimate(Z2, n)
    got = count_coprime(Z2, n)
    assert abs(got / est - 1) < 0.01
    with pytest.raises(ValueError):
        penult_estimate(Lattice2(2, 2, 0), 10)


def test_empty_thin_sector():
    S = Sector((999, 998), (1000, 999))
    assert count_coprime(Z2, 50, S) == 0


def test_solution_lattices_cover():
    # coprime parts of the lattices partition the coprime solutions
    for spec, p, n in (("x*z", 2, 3), ("x^3 + 2*z^3", 3, 2), ("x^2 - 2*z^2", 7, 2)):
        F = parse(spec, kind="form")
        lats = solution_lattices(F, p, n)
        m = p**n
        for x in range(m):
            for y in range(m):
                if x % p == 0 and y % p == 0:
                    continue
                hits = sum(1 for L in lats if L.contains(x, y))
                if F(x, y) % m == 0:
                    assert hits == 1, (spec, x, y)
                else:
                    assert hits == 0, (spec, x, y)
        assert len(lats) <= 2 * F.degree


def test_solution_lattices_whole_x_chart():
    # x^4 - x^2 z^2 + 4 z^4 = 0 mod 4 at every x when z = 1: the x chart is
    # one whole-space class, which must not take in the pairs with 2 | z
    # (there F = x^4 = 1 mod 4 for odd x)
    F = parse("x^4 - x^2*z^2 + 4*z^4", kind="form")
    for p, k in ((2, 2), (2, 3), (3, 1)):
        lats = solution_lattices(F, p, k)
        n = 12
        box = [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1) if math.gcd(x, y) == 1]
        for x, y in box:
            hits = sum(1 for L in lats if L.contains(x, y))
            assert hits == (1 if F(x, y) % p**k == 0 else 0), (p, k, x, y)
        brute = sum(1 for x, y in box if F(x, y) % p**k == 0)
        assert sum(count_coprime(L, n) for L in lats) == brute
