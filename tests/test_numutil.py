import random

import numpy as np
import pytest
from hypothesis import given, strategies as st
from test_kernels import squarefree_mask

from sievecraft import numutil


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if numutil.is_prime(n)} == primes


def test_is_prime_large():
    assert numutil.is_prime(2**61 - 1)
    assert not numutil.is_prime(2**67 - 1)
    # strong pseudoprime to every base up to 37, caught by the base 41
    assert not numutil.is_prime(318665857834031151167461)


@given(st.integers(min_value=2, max_value=10**6))
def test_factorize_roundtrip(n):
    f = numutil.factorize(n)
    assert f.complete
    assert f.value() == n
    assert all(numutil.is_prime(p) for p, _ in f.pairs)


def test_valuation():
    assert numutil.valuation(48, 2) == 4
    assert numutil.valuation(-27, 3) == 3
    assert numutil.valuation(5, 7) == 0
    with pytest.raises(ValueError):
        numutil.valuation(0, 2)
    with pytest.raises(ValueError):
        numutil.valuation(12, 4)


def test_mobius():
    assert numutil.mobius(1) == 1
    assert numutil.mobius(30) == -1
    assert numutil.mobius(12) == 0


def trial_division(n):
    """(prime, exponent) pairs of n >= 1 by trial division."""
    pairs, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            pairs.append((p, e))
        p += 1 if p == 2 else 2
    return pairs + [(n, 1)] * (n > 1)


def test_factorize_against_trial_division():
    # random n <= 1e12, and squares of primes above the trial bound
    rng = random.Random(7)
    squares = [p * p for p in (1031, 65537, 999983)]
    for n in [rng.randint(1, 10**12) for _ in range(300)] + squares:
        f = numutil.factorize(n)
        assert f.complete and f.pairs == trial_division(n), n


def test_factorize_large(monkeypatch):
    # two ten-digit primes, Disc = 4*10^21 + 27, a cube, and the least
    # strong pseudoprime to the bases 2..37; a prime above the Miller-Rabin
    # bound that is_prime cannot certify stays opaque, and so does a
    # composite that rho does not split within its step budget
    q, r = 10**9 + 7, 10**9 + 9
    assert numutil.factorize(-4 * q * r).pairs == [(2, 2), (q, 1), (r, 1)]
    assert numutil.factorize(-4 * q * r).value() == -4 * q * r
    assert numutil.factorize(4 * 10**21 + 27).pairs == [(17, 1), (50671, 1), (42914567, 1), (108204883, 1)]
    assert numutil.factorize(5 * q**3).pairs == [(5, 1), (q, 3)]
    assert numutil.factorize(318665857834031151167461).pairs == [(399165290221, 1), (798330580441, 1)]
    m = 2**89 - 1
    f = numutil.factorize(3 * m)
    assert (f.pairs, f.opaque, f.complete) == ([(3, 1)], m, False)
    monkeypatch.setattr(numutil, "_RHO_STEPS", 64)
    f = numutil.factorize(4 * q * r)
    assert (f.pairs, f.opaque, f.complete) == ([(2, 2)], q * r, False)


def test_tables_against_scalar():
    n = 3000
    tab = squarefree_mask(n)
    for k in range(1, n + 1):
        assert tab[k] == (1 if numutil.mobius(k) != 0 else 0)


def test_mobius_segment():
    # segments of 1, 7 and 4096 consecutive values from 1 on
    n = 5000
    mu = [numutil.mobius(k) for k in range(1, n + 1)]
    for size in (1, 7, 4096):
        los = range(1, n + 1, size)
        segs = [numutil.mobius_segment(np.arange(lo, min(lo + size, n + 1))) for lo in los]
        assert np.concatenate(segs).tolist() == mu


def test_squarefree_count_oracle():
    # [DERIVED] brute-force oracle: 61 square-free integers <= 100
    assert int(squarefree_mask(100).sum()) == 61
