"""Arithmetic over Z/p for many primes at once, one prime per column.

A residue array holds one value mod p_j in column j; a polynomial array
holds one polynomial over Z/p_j in column j, coefficients low to high down
the rows, so that each coefficient is one contiguous row over the primes.

The callers keep every p_j < 2^26 and every degree <= 1024: then a product
of two residues is < 2^52, and up to 2^11 such products sum in int64 before
a reduction.  A squaring mod a monic f of degree k <= 1024 adds at most k
products to a coefficient and its top-down reduction at most k - 1 more,
(2k - 1) 2^52 < 2^63.
"""

from __future__ import annotations

import math

import numpy as np


def power(a, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a^e mod p, column-wise, for exponents e >= 0 (one per column)."""
    out = np.ones_like(p)
    base = a % p
    for _ in range(int(e.max(initial=0)).bit_length()):
        out = np.where(e & 1, out * base % p, out)
        base = base * base % p
        e = e >> 1
    return out


def inverse(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a^(p-2) mod p: the inverse of each unit a mod its prime."""
    return power(a, p - 2, p)


def sqrt(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A square root of each nonzero square a mod its odd prime p, by
    Tonelli-Shanks (Cohen, A Course in Computational Algebraic Number
    Theory, 1.5.1): with p - 1 = q 2^s, q odd, x = a^((q+1)/2) has x^2 = a t
    with t = a^q of order dividing 2^(s-1), and each step clears the top
    bit of that order by powers of c = n^q, n a non-residue, whose order is
    2^s.  At p = 3 mod 4 (s = 1) x is a^((p+1)/4) and no step runs."""
    q, s = p - 1, np.zeros_like(p)
    while (even := q & 1 == 0).any():
        q = np.where(even, q >> 1, q)
        s += even
    y = power(a, (q - 1) // 2, p)
    x = y * a % p
    t = y * x % p
    c = power(_nonresidue(p, s >= 2), q, p)
    for k in range(int(s.max()), 1, -1):
        # at the primes with s >= k: t has order dividing 2^(k-1) and c
        # order 2^k, so t^(2^(k-2)) = -1 exactly where c^2 must enter t
        tt = t
        for _ in range(k - 2):
            tt = tt * tt % p
        on = s >= k
        flip = on & (tt != 1)
        x = np.where(flip, x * c % p, x)
        c = np.where(on, c * c % p, c)
        t = np.where(flip, t * c % p, t)
    return x


def _nonresidue(p: np.ndarray, need: np.ndarray) -> np.ndarray:
    """The least prime that is a quadratic non-residue mod p, by Euler's
    criterion over 2, 3, 5, ..., where need is set, and 1 elsewhere."""
    out = np.ones_like(p)
    todo = np.flatnonzero(need)
    n = 2
    while todo.size:
        pt = p[todo]
        hit = power(n, (pt - 1) // 2, pt) == pt - 1
        out[todo[hit]] = n
        todo = todo[~hit]
        n += 1
        while any(n % r == 0 for r in range(2, math.isqrt(n) + 1)):
            n += 1
    return out


def _reduce(a: np.ndarray, mod: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a modulo the monic polynomials (mod, leading 1 implied), column-wise,
    top-down with one % per lead coefficient and one at the end; overwrites
    a, whose entries may be any sums of up to 2^11 - k residue products."""
    k = mod.shape[0]
    for top in range(a.shape[0] - 1, k - 1, -1):
        a[top - k : top] -= a[top] % p * mod
    return a[:k] % p


def powmod(a, e: np.ndarray, mod: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(x + a)^e modulo (mod, p), column-wise, by left-to-right
    square-and-multiply over the bits of the per-column exponents e; the
    shift a is 0 or one residue per column.

    The square sums the symmetric products out_i out_j without a reduction;
    the multiply by x + a is a shift, a times the column and one reduction
    step x^k = -mod, taken everywhere and kept where the bit is set."""
    k = mod.shape[0]
    out = np.zeros_like(mod)
    out[0] = 1
    sq = np.empty((2 * k - 1, p.size), dtype=np.int64)
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        twice = out + out
        np.multiply(out, out, out=sq[::2])
        sq[1::2] = 0
        for i in range(k - 1):
            sq[2 * i + 1 : i + k] += out[i] * twice[i + 1 :]
        out = _reduce(sq, mod, p)
        step = mod * -out[k - 1]
        step[1:] += out[:-1]
        if np.ndim(a):
            step += a * out
        step %= p
        out = np.where((e >> bit) & 1 == 1, step, out)
    return out


def _degrees(a: np.ndarray) -> np.ndarray:
    """Degree of each column, -1 for the zero polynomial."""
    deg = np.full(a.shape[1], -1, dtype=np.int64)
    for j in range(a.shape[0]):
        deg[a[j] != 0] = j
    return deg


def gcd(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise gcd(a, b) over Z/p and its degree, up to a unit factor;
    overwrites a and b.

    Euclid on pseudo-remainders: a <- lead(b) a - lead(a) x^s b lowers
    deg a without an inverse."""
    da, db = _degrees(a), _degrees(b)
    rows = np.arange(a.shape[0])[:, None]
    while True:
        live = db >= 0
        if not live.any():
            return a, da
        step = np.nonzero(live & (da >= db))[0]
        swap = np.nonzero(live & (da < db))[0]
        if step.size:
            src = rows - (da[step] - db[step])
            shifted = np.take_along_axis(b[:, step], np.maximum(src, 0), axis=0)
            shifted[src < 0] = 0
            la, lb = a[da[step], step], b[db[step], step]
            a[:, step] = (lb * a[:, step] - la * shifted) % p[step]
            da[step] = _degrees(a[:, step])
        if swap.size:
            a[:, swap], b[:, swap] = b[:, swap], a[:, swap]
            da[swap], db[swap] = db[swap], da[swap]
