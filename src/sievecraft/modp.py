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
    Theory, 1.5.1): _tonelli_shanks at r = 2, a^((p+1)/4) at p = 3 mod 4."""
    return _tonelli_shanks(a, p, 2)[0]


def cbrt(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The three cube roots, one row each, of each nonzero cube a mod its
    prime p = 1 mod 3: x, x w and x w^2 from _tonelli_shanks at r = 3."""
    x, w = _tonelli_shanks(a, p, 3)
    xw = x * w % p
    return np.stack([x, xw, xw * w % p])


def _tonelli_shanks(a: np.ndarray, p: np.ndarray, r: int):
    """(x, w) for each nonzero r-th power a mod its prime p, r = 2 or 3
    dividing p - 1 (Adleman, Manders and Miller, "On taking roots in finite
    fields", FOCS 1977): x^r = a, and w = h^((p-1)/r), h the least prime
    r-th power non-residue, a primitive r-th root of unity (-1 at r = 2,
    where h is sought only at s >= 2).  With p - 1 = q r^s, r not dividing
    q, and r e = 1 mod q, x = a^e has x^r = a t, t = a^(re-1) of order
    dividing r^(s-1), and each step clears the top factor r of that order
    by powers of c = h^q, whose order is r^s."""

    def rth(v):
        return v * v % p if r == 2 else v * v % p * v % p

    q, s = p - 1, np.zeros_like(p)
    i = np.flatnonzero(q % r == 0)
    while i.size:
        q[i] //= r
        s[i] += 1
        i = i[q[i] % r == 0]
    y = power(a, (1 + (r - q % r) * q) // r - 1, p)
    x = y * a % p
    t = x * y % p if r == 2 else x * x % p * y % p
    h = _nonresidue(p, s >= (2 if r == 2 else 1), r)
    c = power(h, q, p)
    w = p - 1 if r == 2 else power(h, (p - 1) // 3, p)
    for k in range(int(s.max(initial=0)), 1, -1):
        # at the primes with s >= k: t has order dividing r^(k-1) and c
        # order r^k, so t^(r^(k-2)) = w^i asks for c^(r-i) in x, c^(r(r-i)) in t
        tt = t
        for _ in range(k - 2):
            tt = rth(tt)
        on = s >= k
        m = np.where(on & (tt != 1), c, 1)
        if r == 3:
            m = np.where(on & (tt == w), c * c % p, m)
        x, t = x * m % p, t * rth(m) % p
        c = np.where(on, rth(c), c)
    return x, w


def _nonresidue(p: np.ndarray, need: np.ndarray, r: int = 2) -> np.ndarray:
    """The least prime that is an r-th power non-residue mod p, r | p - 1,
    by Euler's criterion n^((p-1)/r) != 1 over 2, 3, 5, ..., where need is
    set, and 1 elsewhere."""
    out = np.ones_like(p)
    todo = np.flatnonzero(need)
    n = 2
    while todo.size:
        pt = p[todo]
        hit = power(n, (pt - 1) // r, pt) != 1
        out[todo[hit]] = n
        todo = todo[~hit]
        n += 1
        while any(n % f == 0 for f in range(2, math.isqrt(n) + 1)):
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
