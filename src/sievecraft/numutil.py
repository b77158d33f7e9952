"""Elementary arithmetic functions: primality, factorization (trial
division, then Pollard's rho), v_p, mu, and mu over a segment.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels

# Miller-Rabin with these bases is exact below _MR_EXACT (Sorenson and
# Webster, Math. Comp. 86, 2017)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981
# factorize divides by the primes below _TRIAL, then runs rho for at most
# _RHO_STEPS steps per cofactor, one gcd per _RHO_BLOCK steps
_TRIAL = 1 << 10
_TRIAL_PRIMES = kernels.prime_sieve(_TRIAL).tolist()
_RHO_STEPS = 1 << 22
_RHO_BLOCK = 128


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < _MR_EXACT (about 3.3e24);
    above it a True is only probable."""
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
    """Sign and sorted (prime, exponent) pairs; ``opaque`` holds the
    cofactor that factorize could not resolve into certified primes."""

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


def factorize(n: int) -> Factorization:
    """Factor n: trial division by the primes below _TRIAL, then Pollard's
    rho in Brent's form on a composite cofactor.  A cofactor stays opaque
    where rho finds no factor within _RHO_STEPS steps, or where it is at
    least _MR_EXACT and is_prime cannot certify it."""
    if n == 0:
        raise ValueError("cannot factor 0")
    exps: dict[int, int] = {}
    m = abs(n)
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            m //= p
            exps[p] = exps.get(p, 0) + 1
    opaque = 1
    rest = [m] if m > 1 else []
    while rest:  # each piece has no prime factor below _TRIAL
        m = rest.pop()
        r = math.isqrt(m)
        if r * r == m:
            rest += [r, r]
        elif m < _TRIAL * _TRIAL or is_prime(m):
            if m < _MR_EXACT:
                exps[m] = exps.get(m, 0) + 1
            else:
                opaque *= m
        elif (d := _rho(m)) is None:
            opaque *= m
        else:
            rest += [d, m // d]
    return Factorization(1 if n > 0 else -1, sorted(exps.items()), opaque)


def _rho(n: int) -> int | None:
    """A proper factor of the odd composite n by Pollard's rho in Brent's
    form (R. P. Brent, BIT 20, 1980), walking x -> x^2 + c for c = 1, 2, ...
    and taking one gcd per _RHO_BLOCK steps; None after _RHO_STEPS steps."""
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, _RHO_BLOCK):
                ys = y
                for _ in range(min(_RHO_BLOCK, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            steps += 2 * r
            if g == 1 and steps > _RHO_STEPS:
                return None
            r *= 2
        if g == n:  # the block overshot: step again from its start
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g < n:  # else the cycle closed modulo n itself: next c
            return g


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


def mobius_segment(xs: np.ndarray) -> np.ndarray:
    """int8 array of mu(x) at xs, consecutive integers from 1 up, by the
    primes up to sqrt(max xs): x is square-free where no p^2 divides it,
    and then x over its distinct prime factors among them is 1 or one
    further prime."""
    lo, w = int(xs[0]), xs.size
    primes = kernels.prime_sieve(math.isqrt(int(xs[-1])))
    idx, _, div = kernels._prime_product(xs, *kernels._hits(-lo % primes, primes, w))
    # the parity of the number of distinct prime factors
    odd = (np.bincount(idx, minlength=w) + (xs > div)) % 2
    mu = (1 - 2 * odd).astype(np.int8)
    mu[kernels._hits(-lo % primes**2, primes**2, w)[0]] = 0
    return mu
