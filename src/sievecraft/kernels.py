"""The numpy kernels under the censuses, densities and averages.

* ``prime_sieve`` -- all primes up to N,
* ``poly_roots_mod_p`` -- roots of an integer polynomial mod one prime, and
  ``roots_mod_primes`` -- the roots mod every prime of a list at once,
  vectorised over the primes, and ``root_counts_mod_primes`` -- only their
  number,
* ``distinct_factor_degrees`` -- the degrees of the distinct irreducible
  factors of an integer polynomial mod one prime,
* ``value_power_blocks`` -- for P and x = 1..N, the pairs (x, p) with p^m |
  P(x) and p <= B, marked from the classes mod p^m, and for m = 2 |P(x)|
  divided once by each p <= B dividing it, streamed in blocks of x,
* ``form_power_blocks`` -- the same census stream for m = 2 and a binary
  form F(x, z) over a box of pairs, read from the roots of F(t, 1) mod p,
  in blocks of rows, at every pair or only at the coprime ones,
* ``square_entries`` -- the v_p step of both streams: v_p >= 2 at their
  cells, found by repeated division there only, and the remainder freed of
  every prime <= B,
* ``form_values`` -- the values of a binary form over a grid,
* ``trial_bound`` -- the trial bound B of both profiles, the least with B^3
  above every |value|.
"""

from __future__ import annotations

import math

import numpy as np

from . import modp
from .poly import IntPoly

# the pure numpy kernels, the only implementation; benchmark runs record it
BACKEND = "py"

_INT64_SAFE = 2**62


def prime_sieve(n: int) -> np.ndarray:
    """All primes <= n as an int64 array."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


# ---------------------------------------------------------------------------
# Polynomial arithmetic over Z/p (dense lists, low degree)


def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmod(coeffs, p: int) -> list[int]:
    return _ptrim([int(a) % p for a in coeffs])


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pdivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by b over Z/p (b nonzero)."""
    r = a[:]
    q = [0] * (len(a) - len(b) + 1)
    inv = pow(b[-1], p - 2, p)
    while len(r) >= len(b):
        c = r[-1] * inv % p
        shift = len(r) - len(b)
        q[shift] = c
        for i, bi in enumerate(b):
            r[shift + i] = (r[shift + i] - c * bi) % p
        _ptrim(r)
    return _ptrim(q), r


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [x * inv % p for x in a]
    return a


def _pderiv(a: list[int], p: int) -> list[int]:
    return _ptrim([i * a[i] % p for i in range(1, len(a))])


def _ppowmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base^e modulo (mod, p)."""
    result = [1]
    base = _pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), mod, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _psub(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % p
    return _ptrim(out)


def _peval(c: list[int], x: int, m: int) -> int:
    """c(x) mod m."""
    acc = 0
    for a in reversed(c):
        acc = (acc * x + a) % m
    return acc


def _extract_roots(s: list[int], p: int, out: list[int]) -> None:
    """Roots of s, a product of distinct monic linear factors mod p."""
    deg = len(s) - 1
    if deg == 0:
        return
    if deg == 1:
        out.append((-s[0]) % p)
        return
    # split by gcd with (x+a)^((p-1)/2) - 1 for successive shifts a
    a = 0
    while True:
        h = _ppowmod([a, 1], (p - 1) // 2, s, p)
        h = _psub(h, [1], p)
        g = _pgcd(h, s, p)
        if 0 < len(g) - 1 < deg:
            _extract_roots(g, p, out)
            _extract_roots(_pdivmod(s, g, p)[0], p, out)
            return
        a += 1


def poly_roots_mod_p(coeffs, p: int) -> list[int]:
    """Sorted roots of the polynomial (low-to-high coeffs) mod the prime p.

    Raises ValueError if the polynomial vanishes identically mod p.
    """
    c = _pmod(coeffs, p)
    if not c:
        raise ValueError("polynomial vanishes identically mod p")
    if len(c) == 1:
        return []
    if p <= 43:
        return [x for x in range(p) if _peval(c, x, p) == 0]
    # gcd(x^p - x, c): the product of x - r over the distinct roots r
    lin = _pgcd(_psub(_ppowmod([0, 1], p, c, p), [0, 1], p), c, p)
    roots: list[int] = []
    _extract_roots(lin, p, roots)
    return sorted(roots)


def distinct_factor_degrees(coeffs, p: int) -> list[int]:
    """Sorted degrees of the distinct irreducible factors of the polynomial
    (low-to-high coeffs) mod the prime p, one per factor: the
    distinct-degree factorisation of its radical; [] where it is constant
    or vanishes mod p."""
    f = _pmod(coeffs, p)
    if len(f) < 2:
        return []
    f = _radical_mod_p(f, p)
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    degs: list[int] = []
    w = [0, 1]  # x
    k = 0
    while len(f) - 1 >= 1:
        k += 1
        if 2 * k > len(f) - 1:
            degs.append(len(f) - 1)
            break
        w = _ppowmod(w, p, f, p)
        g = _pgcd(_psub(w, [0, 1], p), f, p)
        if len(g) - 1 >= 1:
            degs.extend([k] * ((len(g) - 1) // k))
            f = _pdivmod(f, g, p)[0]
            w = _pdivmod(w, f, p)[1]
    return sorted(degs)


def _radical_mod_p(f: list[int], p: int) -> list[int]:
    """Product of the distinct irreducible factors of f over F_p."""
    if len(f) - 1 < 1:
        return [1]
    fd = _pderiv(f, p)
    if not fd:
        # f = g(x^p) = g(x)^p over F_p (a^p = a): recurse on the p-th root
        return _radical_mod_p(_ptrim(f[::p]), p)
    g = _pgcd(f, fd, p)
    w = _pdivmod(f, g, p)[0]  # distinct factors of multiplicity not div. by p
    # strip the w-factors out of g; what remains is a p-th power
    while True:
        c = _pgcd(g, w, p)
        if len(c) - 1 < 1:
            break
        g = _pdivmod(g, c, p)[0]
    return _pmul(w, _radical_mod_p(g, p), p)


# ---------------------------------------------------------------------------
# Roots mod many primes at once
#
# Column j of every array below is a polynomial over Z/p_j, in the layout of
# modp, whose int64 arithmetic needs p_j < 2^26 and degree <= 1024.

_SCALAR_MAX_P = 43  # poly_roots_mod_p scans all residues up to here
_BATCH_P_LIMIT = 1 << 26
_BATCH_MAX_DEG = 1024
# primes per block of the x^p and gcd stage, and factors per chunk of the
# split: their temporary arrays hold at most 2048 * (deg + 1) int64, so the
# batch adds little to a run's peak memory
_BATCH_ROWS = 1024
_NO_ROOT = np.iinfo(np.int64).max
# round j of the split tries the shift a = j * _SHIFT_STEP + 1 mod p: a prime
# above every batched p, so the shifts run through distinct residues in an
# order unrelated to their size (a = 0 never splits x^d + c, and small
# consecutive shifts tend to fail on the same factors)
_SHIFT_STEP = 2147483659


def roots_mod_primes(coeffs, primes) -> tuple[np.ndarray, np.ndarray]:
    """Sorted roots of the polynomial (low-to-high coeffs) modulo each prime.

    Returns CSR-style int64 arrays (starts, roots): the roots mod primes[i]
    are roots[starts[i]:starts[i+1]], the list poly_roots_mod_p(coeffs,
    primes[i]) gives.  Primes up to 43, primes dividing the leading
    coefficient and primes >= 2^26 (and every prime, above degree 1024) go
    through poly_roots_mod_p, which raises ValueError where the polynomial
    vanishes identically; all the others are solved together, with every
    partial sum in int64: x^p mod (f, p) by square-and-multiply, then
    gcd(x^p - x, f), split by _split_linear into factors of degree <= 2 by
    Cantor-Zassenhaus with (x + a)^((p-1)/2) at the shifts a = j *
    _SHIFT_STEP + 1 mod p, j = 0, 1, ... (both powers come from one
    modp.powmod), and the quadratic factors solved by square roots mod p.
    """
    primes, scalar, sel, g, dg = _linear_parts(coeffs, primes)
    d = g.shape[0] - 1
    # row i: the roots mod primes[i], then _NO_ROOT in the unused slots
    table = np.full((primes.size, max(d, 1)), _NO_ROOT, dtype=np.int64)
    for i, r in scalar:
        table[i, : len(r)] = r
    if sel.size:
        table[sel] = _split_linear(g, dg, primes[sel])
    # sort each row by compare-exchange of its few columns
    for i in range(d):
        for j in range(i + 1, d):
            lo = np.minimum(table[:, i], table[:, j])
            table[:, j] = np.maximum(table[:, i], table[:, j])
            table[:, i] = lo
    found = table != _NO_ROOT
    starts = np.zeros(primes.size + 1, dtype=np.int64)
    np.cumsum(found.sum(axis=1), out=starts[1:])
    return starts, table[found]


def root_counts_mod_primes(coeffs, primes) -> np.ndarray:
    """The number of distinct roots of the polynomial modulo each prime, as
    int64: the lengths of the rows of roots_mod_primes, on the same paths,
    but a batched prime reads its count as the degree of gcd(x^p - x, f)
    and skips the split."""
    primes, scalar, sel, _, dg = _linear_parts(coeffs, primes)
    counts = np.zeros(primes.size, dtype=np.int64)
    counts[sel] = dg
    for i, r in scalar:
        counts[i] = len(r)
    return counts


def _linear_parts(coeffs, primes):
    """The front half of roots_mod_primes and root_counts_mod_primes.

    Returns (primes, scalar, sel, g, dg): primes as an int64 array; scalar,
    the pairs (i, poly_roots_mod_p(coeffs, primes[i])) of the primes off the
    batch; sel, the indices of the batched primes; and column j of g, with
    dg[j] its degree, the linear part gcd(x^p - x, f) mod p = primes[sel[j]]
    of the monic f = coeffs / lead.  g has deg + 1 rows."""
    c = [int(a) for a in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    d = len(c) - 1
    primes = np.asarray(primes, dtype=np.int64).reshape(-1)
    batch = (primes > _SCALAR_MAX_P) & (primes < _BATCH_P_LIMIT) & (d <= _BATCH_MAX_DEG)
    batch &= _residues(c[-1], primes) != 0
    scalar = [(i, poly_roots_mod_p(c, int(primes[i]))) for i in np.nonzero(~batch)[0].tolist()]
    # a nonzero constant has no roots: its batched primes stay out of sel
    sel = np.nonzero(batch)[0] if d >= 1 else np.zeros(0, dtype=np.int64)
    p = primes[sel]
    g = np.empty((d + 1, p.size), dtype=np.int64)
    dg = np.empty(p.size, dtype=np.int64)
    if p.size:
        inv = modp.inverse(_residues(c[-1], p), p)
        for lo in range(0, p.size, _BATCH_ROWS):
            hi = min(lo + _BATCH_ROWS, p.size)
            mod = np.stack([_residues(a, p[lo:hi]) for a in c[:-1]]) * inv[lo:hi] % p[lo:hi]
            g[:, lo:hi], dg[lo:hi] = _linear_part(mod, p[lo:hi])
    return primes, scalar, sel, g, dg


def _residues(a: int, primes: np.ndarray) -> np.ndarray:
    if -_INT64_SAFE < a < _INT64_SAFE:
        return np.int64(a) % primes
    return np.array([a % int(p) for p in primes], dtype=np.int64)


def _linear_part(mod: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gcd(x^p - x, f) and its degree, one column per prime, for the monic f
    whose lower coefficients are the columns of mod: the product of the
    distinct linear factors of f mod p."""
    d = mod.shape[0]
    f = np.concatenate([mod, np.ones((1, p.size), dtype=np.int64)])
    xp_minus_x = np.zeros_like(f)
    xp_minus_x[:d] = modp.powmod(0, p, mod, p)
    xp_minus_x[1] -= 1
    return modp.gcd(f, xp_minus_x % p, p)


def _split_linear(g: np.ndarray, dg: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The roots of the columns of g, each a product of distinct linear
    factors mod p, one row per prime, _NO_ROOT in the unused slots.

    Each round makes the pending factors monic with one modp.inverse, reads
    the roots -c of the factors x + c, sets aside those of degree 2, and
    splits those of degree k >= 3, grouped by k, by Cantor-Zassenhaus at the
    shift a = j * _SHIFT_STEP + 1 mod p of round j: gcd with (x+a)^((p-1)/2)
    - 1 and + 1, and the root -a itself.  The rounds stop when no factor of
    degree >= 3 is left; then the roots (-b +- sqrt(b^2 - 4c)) / 2 of all
    the factors x^2 + b x + c come from one modp.sqrt.  A factor of degree
    k owns k slots of its row, from `slot` on, and hands them on to the
    factors it splits into."""
    table = np.full((p.size, g.shape[0] - 1), _NO_ROOT, dtype=np.int64)
    idx, slot, h, dh = np.arange(p.size), np.zeros(p.size, dtype=np.int64), g, dg
    quads = [(np.zeros(0, dtype=np.int64),) * 4]  # (idx, slot, b, c) of x^2 + b x + c
    j = 0
    while True:
        live = dh >= 1
        idx, slot, h, dh = idx[live], slot[live], h[:, live], dh[live]
        if not idx.size:
            break
        pi = p[idx]
        h *= modp.inverse(h[dh, np.arange(idx.size)], pi)
        h %= pi
        lin = dh == 1
        table[idx[lin], slot[lin]] = -h[0, lin] % pi[lin]
        quad = dh == 2
        quads.append((idx[quad], slot[quad], h[1, quad], h[0, quad]))
        parts = []
        for k in sorted(set(dh[dh >= 3].tolist())):
            group = np.nonzero(dh == k)[0]
            for lo in range(0, group.size, _BATCH_ROWS):
                at = group[lo : lo + _BATCH_ROWS]
                i, s, pk = idx[at], slot[at], pi[at]
                a = (j * _SHIFT_STEP + 1) % pk
                w = modp.powmod(a, (pk - 1) // 2, h[:k, at], pk)
                # gcd(f, w - 1) and gcd(f, w + 1) side by side
                f2 = np.tile(h[:, at], 2)
                w2 = np.zeros_like(f2)
                w2[:k] = np.tile(w, 2)
                p2 = np.tile(pk, 2)
                w2[0] = (w2[0] + np.repeat([-1, 1], at.size)) % p2
                val = np.zeros(at.size, dtype=np.int64)
                for row in range(k, -1, -1):
                    val = (val * (pk - a) + f2[row, : at.size]) % pk
                hg, dhg = modp.gcd(f2, w2, p2)
                dplus, dminus = dhg[: at.size], dhg[at.size :]
                parts.append((i, s, hg[:, : at.size], dplus))
                parts.append((i, s + dplus, hg[:, at.size :], dminus))
                hit = np.nonzero(val == 0)[0]
                table[i[hit], (s + dplus + dminus)[hit]] = (pk - a)[hit] % pk[hit]
        if not parts:
            break
        idx, slot, h, dh = (np.concatenate(x, axis=-1) for x in zip(*parts))
        j += 1
    i, s, b, c = (np.concatenate(x) for x in zip(*quads))
    if i.size:
        pq = p[i]
        r = modp.sqrt((b * b - 4 * c) % pq, pq)
        half = (pq + 1) // 2  # 1/2 mod p
        table[i, s] = (pq - b + r) * half % pq
        table[i, s + 1] = (2 * pq - b - r) * half % pq
    return table


# ---------------------------------------------------------------------------
# Value profile sieves


# values per block of the streamed univariate profile; every temporary of a
# block stays below 128 KB, so under a malloc mmap threshold of that size the
# blocks reuse heap memory instead of faulting in fresh pages each time
_VALUE_BLOCK = 1 << 12


def square_entries(cells: np.ndarray, ps: np.ndarray, rem: np.ndarray):
    """The entries (cells, ps, vs) of one block of a census stream for m =
    2, univariate or of a form: v_p = vs[i] >= 2 for p = ps[i] at the value
    of cells[i], less the cells where rem is 0.  rem, the values divided
    once by each p <= B that divides them, still holds p^(v_p - 1) at a
    cell, so v_p is found by repeated division there, and only there; rem
    is then divided in place by those powers, which leaves it free of every
    prime <= B."""
    if not rem.all():  # a zero value lies in every class
        keep = rem[cells] != 0
        cells, ps = cells[keep], ps[keep]
    g = rem[cells]  # p^(v_p - 1) | g, v_p >= 2: _strip counts on from 2
    vs = np.full(cells.size, 2, dtype=np.int64)
    np.floor_divide.at(rem, cells, g // _strip(g.copy(), ps, vs))
    return cells, ps, vs


def value_power_blocks(coeffs, n: int, b: int, m: int):
    """The m-th-power-free census of P over x = 1..N with trial bound B, as
    a stream of blocks: yields (lo, cells, ps, rem) for the blocks [lo, hi)
    that cover 1..N.  p^m | P(x) for the prime p = ps[i] <= B at x = lo +
    cells[i], and for no other p <= B at an x with P(x) != 0; the entries
    of each x come in ascending p.  rem is 0 exactly where P(x) = 0; for m
    = 2 rem[x - lo] is |P(x)| divided once by each p <= B that divides it,
    so off the cells it holds no prime factor <= B, and for m >= 3 it is
    |P(x)|.

    The classes x = r mod p^e, e <= m, with p^m | P(x) on them come from
    localdens.power_classes before the first block; each block marks them,
    and for m = 2 divides each value by the product of the p <= B that
    divide it: those of the root classes mod p of the primitive part, and
    the content's.  Nothing finds v_p."""
    from . import localdens  # localdens imports this module

    if m > 2:  # a p^m above every |P(x)| divides no nonzero value
        b = min(b, int(_value_bound(coeffs, n, 1) ** (1 / m)) + 1)
    primes, cps, cp, roots = _profile_setup(coeffs, b, n, 1)
    cr = np.where(roots == 0, cp, roots)  # x = 0 lies outside 1..N: r = 0 is r = p
    cprod = math.prod(cps.tolist())
    first, step, prime = localdens.power_classes(IntPoly(tuple(coeffs)), m, n, primes, cp, roots)
    for lo, vals in _abs_values(coeffs, n):
        if m == 2:  # before the cells: the hits mod p are freed first
            vals //= _prime_product(vals, *_hits((cr - lo) % cp, cp, vals.size))[2]
            if cprod > 1:
                vals //= cprod
        cells, ps = _hits((first - lo) % step, step, vals.size, prime=prime)
        yield lo, cells, ps, vals


def _abs_values(coeffs, n: int):
    """(lo, |P(x)| for lo <= x < hi) as an int64 array, for the blocks
    [lo, hi) of _VALUE_BLOCK values that cover 1..N."""
    for lo in range(1, n + 1, _VALUE_BLOCK):
        x = np.arange(lo, min(lo + _VALUE_BLOCK, n + 1), dtype=np.int64)
        vals = np.zeros(x.size, dtype=np.int64)
        for a in reversed(coeffs):
            vals *= x
            vals += a
        yield lo, np.abs(vals, out=vals)


def form_power_blocks(
    coeffs, xlo: int, xhi: int, zlo: int, zhi: int, b: int, rows: int, coprime: bool = False
):
    """The square-free census of the binary form F(x, z) = sum a_i x^i
    z^(d-i) (coeffs[i] = a_i) over the pairs xlo <= x <= xhi, zlo <= z <=
    zhi, with trial bound B, as a stream of blocks of `rows` consecutive z.

    Yields (zs, cells, ps, rem) per block, zs its z values; the pair (x, z)
    is cell (z - zs[0]) * W + (x - xlo) of the block, W = xhi - xlo + 1.
    p^2 | F(x, z) != 0 for the prime p = ps[i] <= B at cells[i] (content
    included), and for no other p <= B at a pair with F != 0; the entries
    of each cell come in ascending p.  rem[cell] is |F(x, z)| divided once
    by each p <= B that divides it, 0 exactly where F(x, z) = 0, so off the
    cells it holds no prime factor <= B.

    The roots r of F(t, 1) mod every p <= B are found once, before the
    first block, and so are the classes of cells where p divides F: x = r z
    mod p in the rows with p not dividing z; in the rows with p | z, where
    F = a_d x^d mod p, the whole row if p | a_d, else x = 0 mod p; the
    whole row in both kinds of rows if p divides the content.  In each
    block every (class, row) pair is marked at once, each value is divided
    by the product of the p that hit it, and the hits whose p still divides
    the remainder are the cells.  Nothing finds v_p.  Values |F| must stay
    below 2^62 (int64 arithmetic).

    With coprime set, the class x = 0 of the rows with p | z is skipped at
    the primes p not dividing a_d: its cells are the pairs with p | gcd(x,
    z).  The cells and rem are then exact at every pair with gcd(x, z) = 1
    and unspecified at the other pairs (rem stays in 0 <= rem <= |F|, 0
    exactly where F = 0).
    """
    top = max(abs(xlo), abs(xhi), abs(zlo), abs(zhi), 1)
    primes, cps, cp, roots = _profile_setup(coeffs, b, top, top)
    d = len(coeffs) - 1
    lead = int(coeffs[d])
    w = xhi - xlo + 1
    xs = np.arange(xlo, xhi + 1, dtype=np.int64)
    # the classes, prime-major: x = r z mod p for each root r, then one class
    # of the rows with p | z (x = 0 mod p, or the whole row where p | a_d); a
    # content prime has the whole row in both kinds of rows instead
    rp = primes[(lead % primes == 0) | (not coprime)] if d else cps
    cp = np.concatenate([cp, cps, rp])
    order = np.argsort(cp, kind="stable")
    cp, cr = cp[order], np.concatenate([roots, np.zeros(cps.size + rp.size, dtype=np.int64)])[order]
    unit = order < roots.size + cps.size  # the classes of the rows with p not dividing z
    # step 1 for a whole row: a content prime's, or p | a_d in the rows with p | z
    step = np.where((order < roots.size) | (~unit & (lead % cp != 0)), cp, 1)
    k = 0
    for z0 in range(zlo, zhi + 1, rows):
        zs = np.arange(z0, min(z0 + rows, zhi + 1), dtype=np.int64)
        vals = form_values(coeffs, xs, zs).ravel()
        np.abs(vals, out=vals)
        # the first column of each (class, row) pair, W where the class skips
        # the row; z mod p keeps r z below p^2
        zp = zs % cp[:, None]
        first = np.where((zp != 0) == unit[:, None], (cr[:, None] * zp - xlo) % step[:, None], w)
        if zs.size != k:  # a shorter last block makes these again
            k = zs.size
            base = np.tile(np.arange(k) * w, cp.size)  # the first cell of each pair's row
            ksteps, kprimes = np.repeat(step, k), np.repeat(cp, k)
        idx, hp, div = _prime_product(vals, *_hits(first.ravel(), ksteps, w, base, kprimes))
        vals //= div  # each hit p once: p | vals[idx] still iff p^2 | F
        deep = vals[idx] % hp == 0
        yield zs, idx[deep], hp[deep], vals


def form_values(coeffs, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """F(x, z) = sum coeffs[i] x^i z^(d-i) as an int64 array, one row per
    z in zs and one column per x in xs (values must fit in int64)."""
    vals = np.zeros((zs.size, xs.size), dtype=np.int64)
    zpow = np.ones((zs.size, 1), dtype=np.int64)
    for k, a in enumerate(reversed(coeffs)):  # Horner in x: a_(d-k) z^k
        if k:
            vals *= xs
            zpow = zpow * zs[:, None]
        vals += a * zpow
    return vals


def _primitive(coeffs) -> tuple[list[int], int]:
    coeffs = [int(a) for a in coeffs]
    cont = 0
    for a in coeffs:
        cont = math.gcd(cont, a)
    if cont == 0:
        raise ValueError("zero polynomial")
    return [a // cont for a in coeffs], cont


def _value_bound(coeffs, xmax: int, zmax: int) -> int:
    """sum |coeffs[i]| xmax^i zmax^(d-i), a bound on the values at |x| <=
    xmax, |z| <= zmax (coeffs[i] of x^i z^(d-i); zmax = 1 for P(x)).
    Raises OverflowError where it reaches 2^62: the profiles compute in
    int64."""
    d = len(coeffs) - 1
    vmax = sum(abs(int(a)) * xmax**i * zmax ** (d - i) for i, a in enumerate(coeffs))
    if vmax >= _INT64_SAFE:
        raise OverflowError("values exceed the int64 budget; reduce N")
    return vmax


def trial_bound(coeffs, xmax: int, zmax: int = 1) -> int:
    """The least B with B^3 > _value_bound(coeffs, xmax, zmax): after the
    primes <= B every remainder of a square profile is 1, q, q^2 or q*q'
    with primes q, q' > B, and one exact square test finds the q^2.  The
    budget is checked first, so the float cube root is taken below 2^62,
    where it is never above B."""
    vmax = _value_bound(coeffs, xmax, zmax)
    b = int(vmax ** (1 / 3))
    while b**3 <= vmax:
        b += 1
    return b


def _profile_setup(coeffs, b: int, xmax: int, zmax: int):
    """What the square profiles and the census stream read before their
    first block: (primes, cps, cp, roots), with primes those <= B, cps
    those of them that divide the content, and roots the roots of the
    primitive part mod the other primes from roots_mod_primes,
    prime-major, with their primes cp.  A content prime divides every
    value, so its roots mark no class.

    Raises OverflowError, before any prime is sieved, where the values at
    |x| <= xmax, |z| <= zmax may reach 2^62 (_value_bound)."""
    _value_bound(coeffs, xmax, zmax)
    prim, cont = _primitive(coeffs)
    primes = prime_sieve(b)
    starts, roots = roots_mod_primes(prim, primes)
    cp = np.repeat(primes, np.diff(starts))
    other = cont % cp != 0
    return primes, primes[cont % primes == 0], cp[other], roots[other]


def _strip(val: np.ndarray, hp: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Divide each value of val, in place, by the highest power of its
    prime hp (one prime per value, dividing it once) that divides it, and
    return val.  Adds the further powers to the counts v, in place."""
    val //= hp
    live = np.flatnonzero(val % hp == 0)
    while live.size:  # only the values p still divides
        q = hp[live]
        val[live] //= q
        v[live] += 1
        live = live[val[live] % q == 0]
    return val


def _hits(first, step, w: int, base=None, prime=None):
    """The hits of the classes c, class by class: the cells base[c] +
    first[c] + t step[c] for t >= 0 with first[c] + t step[c] < w, and the
    prime of each, prime[c] (step[c] where prime is None)."""
    cnt = np.maximum((w - 1 - first) // step + 1, 0)
    skip = np.cumsum(cnt) - cnt
    hs = np.repeat(step, cnt)
    start = first - skip * step
    idx = np.repeat(start if base is None else start + base, cnt) + np.arange(hs.size) * hs
    return idx, hs if prime is None else np.repeat(prime, cnt)


def _prime_product(vals: np.ndarray, idx: np.ndarray, hp: np.ndarray):
    """(idx, hp, div): the hits, prime hp dividing vals[idx], less those at
    the values 0, and div, the product of the primes that hit each value."""
    if not vals.all():
        keep = vals[idx] != 0
        idx, hp = idx[keep], hp[keep]
    div = np.ones(vals.size, dtype=np.int64)
    np.multiply.at(div, idx, hp)
    return idx, hp, div
