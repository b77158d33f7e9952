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


def test_tables_against_scalar():
    n = 3000
    tab = squarefree_mask(n)
    mu = numutil.mobius_table(n)
    spf = numutil.spf_table(n)
    for k in range(1, n + 1):
        assert tab[k] == (1 if numutil.mobius(k) != 0 else 0)
        assert mu[k] == numutil.mobius(k)
        if k >= 2:
            assert spf[k] == numutil.factorize(k).pairs[0][0]


def test_mobius_segment():
    # segments of 1, 7 and 4096 consecutive values from 1 on, and the table
    # that is filled by segments
    n = 5000
    mu = [numutil.mobius(k) for k in range(1, n + 1)]
    for size in (1, 7, 4096):
        los = range(1, n + 1, size)
        segs = [numutil.mobius_segment(np.arange(lo, min(lo + size, n + 1))) for lo in los]
        assert np.concatenate(segs).tolist() == mu
    assert numutil.mobius_table(n)[1:].tolist() == mu


def test_squarefree_count_oracle():
    # [DERIVED] brute-force oracle: 61 square-free integers <= 100
    assert int(squarefree_mask(100).sum()) == 61
