"""Elementary arithmetic functions: v_p, mu, factorization by trial
division, the Mobius and smallest-prime-factor tables, and mu over a
segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass
class Factorization:
    """Sign and sorted (prime, exponent) pairs; ``opaque`` holds any
    composite cofactor that trial division could not resolve."""

    sign: int
    pairs: list[tuple[int, int]] = field(default_factory=list)
    opaque: int = 1

    def value(self) -> int:
        v = self.sign * self.opaque
        for p, e in self.pairs:
            v *= p**e
        return v

    @property
    def complete(self) -> bool:
        return self.opaque == 1


def factorize(n: int, trial_bound: int | None = None) -> Factorization:
    """Factor n by trial division up to ``trial_bound`` (default: full,
    i.e. up to isqrt of the shrinking remainder), then primality and
    perfect-power checks on what is left."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    m = abs(n)
    pairs: list[tuple[int, int]] = []
    p = 2
    limit = trial_bound if trial_bound is not None else math.isqrt(m)
    while p <= limit and p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
            if trial_bound is None:
                limit = math.isqrt(m)
        p += 1 if p == 2 else 2
    opaque = 1
    if m > 1:
        if is_prime(m):
            pairs.append((m, 1))
        else:
            r = math.isqrt(m)
            if r * r == m and is_prime(r):
                pairs.append((r, 2))
            else:
                opaque = m
    pairs.sort()
    return Factorization(sign, pairs, opaque)


def valuation(n: int, p: int) -> int:
    """v_p(n): the exact power of the prime p dividing n (n != 0)."""
    if n == 0:
        raise ValueError("v_p(0) undefined")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def mobius(n: int) -> int:
    if n <= 0:
        raise ValueError("n must be positive")
    f = factorize(n)
    if not f.complete:
        raise ValueError(f"could not fully factor {n}")
    if any(e >= 2 for _, e in f.pairs):
        return 0
    return -1 if len(f.pairs) % 2 else 1


def mobius_table(n: int) -> np.ndarray:
    """int8 array of mu(i) for i = 0..N (entry 0 unused, set to 0), filled
    by segments of 4096 values."""
    mu = np.zeros(n + 1, dtype=np.int8)
    for lo in range(1, n + 1, 4096):
        hi = min(lo + 4096, n + 1)
        mu[lo:hi] = mobius_segment(np.arange(lo, hi))
    return mu


def mobius_segment(xs: np.ndarray) -> np.ndarray:
    """int8 array of mu(x) at xs, consecutive integers from 1 up, by the
    primes up to sqrt(max xs): x is square-free where no p^2 divides it,
    and then x over its distinct prime factors among them is 1 or one
    further prime."""
    lo, w = int(xs[0]), xs.size
    primes = kernels.prime_sieve(math.isqrt(int(xs[-1])))
    idx, hp = kernels._hits(-lo % primes, primes, w)
    div = np.ones(w, dtype=np.int64)
    np.multiply.at(div, idx, hp)
    # the parity of the number of distinct prime factors
    odd = (np.bincount(idx, minlength=w) + (xs > div)) % 2
    mu = (1 - 2 * odd).astype(np.int8)
    mu[kernels._hits(-lo % primes**2, primes**2, w)[0]] = 0
    return mu


def spf_table(n: int) -> np.ndarray:
    """Smallest prime factor for 0..N (spf[0]=0, spf[1]=1, spf[p]=p)."""
    spf = np.arange(n + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            sl = spf[p * p :: p]
            sl[sl == np.arange(p * p, n + 1, p)] = p
    return spf
