"""The numpy kernels under the censuses, densities and averages.

* ``prime_sieve`` -- all primes up to N,
* ``poly_roots_mod_p`` -- roots of an integer polynomial mod one prime, and
  ``roots_mod_primes`` -- the roots mod every prime of a list at once,
  vectorised over the primes,
* ``value_square_blocks`` -- for P and x = 1..N, the exact pairs (p,
  v_p(P(x))) with v >= 2 and p <= B, and the remainder of |P(x)| after
  removing all prime factors <= B, streamed in blocks of x,
* ``form_square_blocks`` -- the same profile for a binary form F(x, z) over a
  box of pairs, read from the roots of F(t, 1) mod p, in blocks of rows,
* ``form_values`` -- the values of a binary form over a grid.
"""

from __future__ import annotations

import math

import numpy as np

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


def _prem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b over Z/p (b nonzero)."""
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, p - 2, p)
    while len(a) - 1 >= db and a:
        q = a[-1] * inv % p
        shift = len(a) - 1 - db
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - q * bi) % p
        _ptrim(a)
    return a


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _prem(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [x * inv % p for x in a]
    return a


def _pderiv(a: list[int], p: int) -> list[int]:
    return _ptrim([i * a[i] % p for i in range(1, len(a))])


def _ppowmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base^e modulo (mod, p)."""
    result = [1]
    base = _prem(base, mod, p)
    while e:
        if e & 1:
            result = _prem(_pmul(result, base, p), mod, p)
        base = _prem(_pmul(base, base, p), mod, p)
        e >>= 1
    return result


def _psub(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % p
    return _ptrim(out)


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
            _extract_roots(_pquo(s, g, p), p, out)
            return
        a += 1


def _pquo(a: list[int], b: list[int], p: int) -> list[int]:
    """Exact quotient of a by b over Z/p."""
    a = a[:]
    out = [0] * (len(a) - len(b) + 1)
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, p - 2, p)
    while len(a) - 1 >= db and a:
        q = a[-1] * inv % p
        shift = len(a) - 1 - db
        out[shift] = q
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - q * bi) % p
        _ptrim(a)
    return _ptrim(out)


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
    # remove repeated factors, then isolate the linear part
    g = _pgcd(c, _pderiv(c, p), p)
    sf = _pquo(c, g, p) if len(g) > 1 else c
    xp = _ppowmod([0, 1], p, sf, p)
    lin = _pgcd(_psub(xp, [0, 1], p), sf, p)
    roots: list[int] = []
    if len(lin) > 1:
        _extract_roots(lin, p, roots)
    return sorted(roots)


def _peval(c: list[int], x: int, p: int) -> int:
    acc = 0
    for a in reversed(c):
        acc = (acc * x + a) % p
    return acc


# ---------------------------------------------------------------------------
# Roots mod many primes at once
#
# Row i of every array below is a polynomial over Z/p_i, coefficients low to
# high.  All residues are < p_i < 2^31, so every product of two residues fits
# in int64 and is reduced before it is added to anything.

_SCALAR_MAX_P = 43  # poly_roots_mod_p scans all residues up to here
_BATCH_P_LIMIT = 1 << 31
# primes per block of the x^p and gcd stage: its temporary arrays hold at
# most 1024 * (2 deg - 1) int64, so the batch adds little to a run's peak
# memory
_BATCH_ROWS = 1024
_NO_ROOT = np.iinfo(np.int64).max


def roots_mod_primes(coeffs, primes) -> tuple[np.ndarray, np.ndarray]:
    """Sorted roots of the polynomial (low-to-high coeffs) modulo each prime.

    Returns CSR-style int64 arrays (starts, roots): the roots mod primes[i]
    are roots[starts[i]:starts[i+1]], the list poly_roots_mod_p(coeffs,
    primes[i]) gives.  Primes up to 43, primes dividing the leading
    coefficient and primes >= 2^31 go through poly_roots_mod_p (which raises
    ValueError where the polynomial vanishes identically); all the others
    are solved together: x^p mod (f, p) by square-and-multiply, then
    gcd(x^p - x, f), split into linear factors by Cantor-Zassenhaus.
    """
    c = [int(a) for a in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    d = len(c) - 1
    primes = np.asarray(primes, dtype=np.int64).reshape(-1)
    # row i: the roots mod primes[i], then _NO_ROOT in the unused slots
    table = np.full((primes.size, max(d, 1)), _NO_ROOT, dtype=np.int64)
    batch = (primes > _SCALAR_MAX_P) & (primes < _BATCH_P_LIMIT)
    batch &= _residues(c[-1], primes) != 0
    for i in np.nonzero(~batch)[0].tolist():
        r = poly_roots_mod_p(c, int(primes[i]))
        table[i, : len(r)] = r
    sel = np.nonzero(batch)[0]
    if sel.size and d >= 1:
        p = primes[sel]
        gs, dgs = [], []
        for lo in range(0, p.size, _BATCH_ROWS):
            pc = p[lo : lo + _BATCH_ROWS]
            g, dg = _linear_part(np.stack([_residues(a, pc) for a in c], axis=1), pc)
            gs.append(g)
            dgs.append(dg)
        table[sel] = _split_linear(np.concatenate(gs), np.concatenate(dgs), p)
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


def _residues(a: int, primes: np.ndarray) -> np.ndarray:
    if -_INT64_SAFE < a < _INT64_SAFE:
        return np.int64(a) % primes
    return np.array([a % int(p) for p in primes], dtype=np.int64)


def _linear_part(f: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gcd(x^p - x, f) and its degree, one row per prime, lead(f) a unit
    mod p: the product of the distinct linear factors of f mod p."""
    d = f.shape[1] - 1
    mod = f[:, :d] * _inverse(f[:, d], p)[:, None] % p[:, None]
    x = np.zeros((p.size, d + 1), dtype=np.int64)
    x[:, 1] = 1
    xp = _powmod(_reduce(x, mod, p), p, mod, p)
    xp_minus_x = np.concatenate([xp, np.zeros((p.size, 1), dtype=np.int64)], axis=1)
    xp_minus_x[:, 1] = (xp_minus_x[:, 1] - 1) % p
    return _gcd(_monic_full(mod), xp_minus_x, p)


def _monic_full(mod: np.ndarray) -> np.ndarray:
    """The monic polynomials whose lower coefficients are the rows of mod."""
    return np.concatenate([mod, np.ones((mod.shape[0], 1), dtype=np.int64)], axis=1)


def _inverse(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a^(p-2) mod p: the inverse of each unit a mod its prime."""
    e = p - 2
    out = np.ones_like(a)
    base = a % p
    for _ in range(int(e.max()).bit_length()):
        out = out * (1 + (e & 1) * (base - 1)) % p  # times base where e is odd
        base = base * base % p
        e = e >> 1
    return out


def _reduce(a: np.ndarray, mod: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a modulo the monic polynomials (mod, leading 1 implied), row-wise;
    overwrites a."""
    k = mod.shape[1]
    pc = p[:, None]
    for top in range(a.shape[1] - 1, k - 1, -1):
        lead = a[:, top] % p
        a[:, top - k : top] -= lead[:, None] * mod % pc
    return a[:, :k] % pc


def _mulmod(a: np.ndarray, b: np.ndarray, mod: np.ndarray, p: np.ndarray) -> np.ndarray:
    k = mod.shape[1]
    pc = p[:, None]
    prod = np.zeros((p.size, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        prod[:, i : i + k] += a[:, i : i + 1] * b % pc
    return _reduce(prod, mod, p)


def _powmod(base: np.ndarray, e: np.ndarray, mod: np.ndarray, p: np.ndarray) -> np.ndarray:
    """base^e modulo (mod, p), row-wise, by left-to-right square-and-multiply
    over the bits of the per-row exponents e."""
    out = np.zeros_like(mod)
    out[:, 0] = 1
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        out = _mulmod(out, out, mod, p)
        odd = ((e >> bit) & 1) == 1
        out[odd] = _mulmod(out[odd], base[odd], mod[odd], p[odd])
    return out


def _degrees(a: np.ndarray) -> np.ndarray:
    """Degree of each row, -1 for the zero polynomial."""
    deg = np.full(a.shape[0], -1, dtype=np.int64)
    for j in range(a.shape[1]):
        deg[a[:, j] != 0] = j
    return deg


def _gcd(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise gcd(a, b) over Z/p and its degree, up to a unit factor.

    Euclid on pseudo-remainders: a <- lead(b) a - lead(a) x^s b lowers
    deg a without an inverse."""
    a, b = a.copy(), b.copy()
    da, db = _degrees(a), _degrees(b)
    cols = np.arange(a.shape[1])
    while True:
        live = db >= 0
        if not live.any():
            return a, da
        step = np.nonzero(live & (da >= db))[0]
        swap = np.nonzero(live & (da < db))[0]
        if step.size:
            pc = p[step, None]
            src = cols[None, :] - (da[step] - db[step])[:, None]
            shifted = np.take_along_axis(b[step], np.maximum(src, 0), axis=1)
            shifted[src < 0] = 0
            la = a[step, da[step]][:, None]
            lb = b[step, db[step]][:, None]
            a[step] = (lb * a[step] % pc - la * shifted % pc) % pc
            da[step] = _degrees(a[step])
        if swap.size:
            a[swap], b[swap] = b[swap], a[swap]
            da[swap], db[swap] = db[swap], da[swap]


def _split_linear(g: np.ndarray, dg: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The roots of the rows of g, each a product of distinct linear factors
    mod p, one row per prime, _NO_ROOT in the unused slots.

    Pending factors of degree k >= 2 are grouped by k and split together by
    shift a = 0, 1, ...: gcd with (x+a)^((p-1)/2) - 1 and + 1, and the root
    -a itself.  A factor of degree k owns k slots of its row, from `slot`
    on, and hands them on to the factors it splits into."""
    table = np.full((p.size, g.shape[1] - 1), _NO_ROOT, dtype=np.int64)
    pending: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}

    def emit(idx: np.ndarray, slot: np.ndarray, h: np.ndarray, dh: np.ndarray) -> None:
        for k in sorted(set(dh[dh >= 1].tolist())):
            at = np.nonzero(dh == k)[0]
            i = idx[at]
            pi = p[i]
            mono = h[at, :k] * _inverse(h[at, k], pi)[:, None] % pi[:, None]
            if k == 1:
                table[i, slot[at]] = -mono[:, 0] % pi
            else:
                pending.setdefault(k, []).append((i, slot[at], mono))

    emit(np.arange(p.size), np.zeros(p.size, dtype=np.int64), g, dg)
    a = 0
    while pending:
        groups, pending = pending, {}
        for k, parts in groups.items():
            idx, slot, mod = (np.concatenate(part) for part in zip(*parts))
            pi = p[idx]
            shift = np.zeros_like(mod)
            shift[:, 0] = a % pi
            shift[:, 1] = 1
            w = _powmod(shift, (pi - 1) // 2, mod, pi)
            full = _monic_full(mod)
            for sign in (1, -1):
                h = np.concatenate([w, np.zeros((idx.size, 1), dtype=np.int64)], axis=1)
                h[:, 0] = (h[:, 0] - sign) % pi
                hg, dh = _gcd(full, h, pi)
                emit(idx, slot, hg, dh)
                slot = slot + dh
            val = np.zeros(idx.size, dtype=np.int64)
            for col in range(k, -1, -1):
                val = (val * (-a % pi) + full[:, col]) % pi
            hit = np.nonzero(val == 0)[0]
            table[idx[hit], slot[hit]] = -a % pi[hit]
        a += 1
    return table


# ---------------------------------------------------------------------------
# Value profile sieves


# values per block of the streamed univariate profile; every temporary of a
# block stays below 128 KB, so under a malloc mmap threshold of that size the
# blocks reuse heap memory instead of faulting in fresh pages each time
_VALUE_BLOCK = 1 << 12


def value_square_blocks(coeffs, n: int, b: int):
    """Square-part profile of P(x) for x = 1..N with trial bound B, as a
    stream of blocks of consecutive x.

    Yields (lo, xs, ps, vs, rem) for the blocks [lo, hi) that cover 1..N:
      * xs, ps, vs: int64 arrays with v_p(P(x)) = v >= 2 and p <= B for
        lo <= x < hi (content contributions included); the entries of each
        x come in ascending p,
      * rem: int64 array of length hi - lo; rem[x - lo] = |P(x)| with all
        prime factors <= B removed, 0 where P(x) = 0.

    The roots of P mod every p <= B are found once, before the first block.
    In each block every root class x = r mod p is marked from its first hit
    lo + ((r - lo) mod p) on, all classes at once; v_p is found by repeated
    division at every hit, and the remainder by one division of each value
    by the product of its p^v.  Values |P(x)| must stay below 2^62 (int64
    arithmetic); a prime of the content beyond B raises ValueError.
    """
    prim, cont = _primitive(coeffs)
    if sum(abs(a) * n**i for i, a in enumerate(prim)) >= _INT64_SAFE:
        raise OverflowError("|P(x)| exceeds int64 range; reduce N")
    primes = prime_sieve(b)
    vcont = _content_valuations(cont, primes)
    if math.prod(p**v for p, v in vcont.items()) != cont:
        # a content prime beyond B would corrupt rem; desk-scale inputs
        # always have tiny content, so refuse rather than mishandle
        raise ValueError("content has a prime factor beyond B")
    starts, roots = roots_mod_primes(prim, primes)
    # the root classes, prime-major; x = 0 lies outside 1..N, so r = 0 is r = p
    cp = np.repeat(primes, np.diff(starts))
    cr = np.where(roots == 0, cp, roots)
    cv = np.zeros(cp.size, dtype=np.int64)  # v_p(content) at each class
    for p, v in vcont.items():
        cv[cp == p] = v
    # content primes whose square divides every value
    square = [p for p, v in vcont.items() if v >= 2]
    size = _VALUE_BLOCK
    for lo in range(1, n + 1, size):
        w = min(size, n + 1 - lo)
        x = np.arange(lo, lo + w, dtype=np.int64)
        vals = np.zeros(w, dtype=np.int64)
        for a in reversed(prim):
            vals *= x
            vals += a
        np.abs(vals, out=vals)
        # hit t of class c is the cell first[c] + t p[c], t < cnt[c]
        first = (cr - lo) % cp
        cnt = np.maximum((w - 1 - first) // cp + 1, 0)
        skip = np.cumsum(cnt) - cnt
        hp = np.repeat(cp, cnt)
        idx = np.repeat(first - skip * cp, cnt) + np.arange(hp.size) * hp
        keep = vals[idx] != 0
        idx, hp = idx[keep], hp[keep]
        v = np.ones(idx.size, dtype=np.int64)
        if vcont:
            v += np.repeat(cv, cnt)[keep]
        sub = vals[idx] // hp
        pv = hp.copy()
        live = np.flatnonzero(sub % hp == 0)
        while live.size:  # only the hits p still divides
            q = hp[live]
            sub[live] //= q
            v[live] += 1
            pv[live] *= q
            live = live[sub[live] % q == 0]
        div = np.ones(w, dtype=np.int64)
        np.multiply.at(div, idx, pv)
        hit = v >= 2
        xs, ps, vs = x[idx[hit]], hp[hit], v[hit]
        if square:
            xs, ps, vs = _content_entries(xs, ps, vs, idx, hp, vals, square, vcont, lo)
        vals //= div
        yield lo, xs, ps, vs, vals


def _content_entries(xs, ps, vs, idx, hp, vals, square, vcont, lo):
    """The block's entries with (x, p, v_p(content)) added at every nonzero
    value outside the root classes of each content prime p whose square
    divides the content, kept in ascending p for each x."""
    parts = [(xs, ps, vs)]
    for p in square:
        rest = vals != 0
        rest[idx[hp == p]] = False
        at = np.flatnonzero(rest) + lo
        parts.append((at, np.full(at.size, p, dtype=np.int64), np.full(at.size, vcont[p], dtype=np.int64)))
    xs, ps, vs = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(ps, kind="stable")
    return xs[order], ps[order], vs[order]


def form_square_blocks(coeffs, xlo: int, xhi: int, zlo: int, zhi: int, b: int, rows: int):
    """Square-part profile of the binary form F(x, z) = sum a_i x^i z^(d-i)
    (coeffs[i] = a_i) over the pairs xlo <= x <= xhi, zlo <= z <= zhi, with
    trial bound B, as a stream of blocks of `rows` consecutive z.

    Yields (zs, cells, ps, vs, rem) per block, zs its z values; the pair
    (x, z) is cell (z - zs[0]) * W + (x - xlo) of the block, W = xhi - xlo
    + 1.  v_p(F) = v >= 2 with p <= B (content included) at the listed
    cells, and rem[cell] = |F(x, z)| with all prime factors <= B removed, 0
    where F(x, z) = 0.

    The roots r of F(t, 1) mod every p <= B are found once, before the
    first block.  The cells where p divides F are read from them: x = r z
    in the rows with p not dividing z; in the rows with p | z, where F =
    a_d x^d mod p, the whole row if p | a_d, else x = 0.  Values |F| must
    stay below 2^62 (int64 arithmetic).
    """
    prim, cont = _primitive(coeffs)
    d = len(prim) - 1
    w = xhi - xlo + 1
    vmax = sum(abs(a) for a in prim) * cont * max(abs(xlo), abs(xhi), abs(zlo), abs(zhi), 1) ** d
    if vmax >= _INT64_SAFE:
        raise OverflowError("|F(x, z)| exceeds int64 range; reduce N")
    xs = np.arange(xlo, xhi + 1, dtype=np.int64)
    primes = prime_sieve(b)
    vcont = _content_valuations(cont, primes)
    # the content's primes beyond B belong to the remainder
    beyond = cont // math.prod(p**v for p, v in vcont.items())
    starts, all_roots = roots_mod_primes(prim, primes)

    def profile(zs):
        vals = form_values(prim, xs, zs).ravel()
        np.abs(vals, out=vals)
        nonzero = vals != 0
        out: list[tuple] = []
        for i, p in enumerate(primes.tolist()):
            unit = zs % p != 0
            at = np.flatnonzero(unit)
            roots = all_roots[starts[i] : starts[i + 1]]
            classes = [_progressions(at * w, (roots * zs[at, None] - xlo) % p, p, w)]
            at = np.flatnonzero(~unit)
            if at.size and d >= 1:
                if prim[d] % p == 0:
                    classes.append((at[:, None] * w + np.arange(w)).ravel())
                else:
                    classes.append(_progressions(at * w, np.full((at.size, 1), -xlo % p), p, w))
            _divide_out(vals, nonzero, classes, p, vcont.get(p, 0), out)
        vals[nonzero] *= beyond
        return _entries(out) + (vals,)

    for z0 in range(zlo, zhi + 1, rows):
        zs = np.arange(z0, min(z0 + rows, zhi + 1), dtype=np.int64)
        yield (zs, *profile(zs))


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


def _content_valuations(c: int, primes: np.ndarray) -> dict[int, int]:
    """{p: v_p(c)} for the given primes dividing c >= 1."""
    out = {}
    if c > 1:
        for p in primes.tolist():
            while c % p == 0:
                c //= p
                out[p] = out.get(p, 0) + 1
    return out


def _progressions(base: np.ndarray, first: np.ndarray, p: int, w: int) -> np.ndarray:
    """The cells base[i] + first[i, j] + t p for t >= 0 with first[i, j] +
    t p < w (first < p): the class x = first mod p of each row i."""
    cols = first[..., None] + p * np.arange(-(-w // p), dtype=np.int64)
    return (base[:, None, None] + cols)[cols < w]


def _divide_out(vals, nonzero, classes, p: int, vcont: int, out: list) -> None:
    """Divide every power of the prime p out of vals at the cells of
    classes, disjoint arrays of flat indices that hold every nonzero cell
    whose primitive value p divides, and append (cells, p, v) to out where
    v = vcont + v_p >= 2; with vcont >= 2 every other nonzero cell gets v =
    vcont as well."""
    for idx in classes:
        idx = idx[nonzero[idx]]
        if idx.size == 0:
            continue
        sub = vals[idx] // p
        v = np.full(idx.size, 1 + vcont, dtype=np.int64)
        live = np.flatnonzero(sub % p == 0)
        while live.size:  # only the cells p still divides
            sub[live] //= p
            v[live] += 1
            live = live[sub[live] % p == 0]
        vals[idx] = sub
        hit = v >= 2
        if hit.any():
            out.append((idx[hit], p, v[hit]))
    if vcont >= 2:
        rest = nonzero.copy()
        for idx in classes:
            rest[idx] = False
        idx = np.flatnonzero(rest)
        if idx.size:
            out.append((idx, p, np.full(idx.size, vcont, dtype=np.int64)))


def _entries(out: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cells, ps, vs) as int64 arrays from the groups _divide_out made."""
    if not out:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    cells = np.concatenate([c for c, _, _ in out])
    ps = np.repeat(np.array([p for _, p, _ in out], dtype=np.int64), [c.size for c, _, _ in out])
    return cells, ps, np.concatenate([v for _, _, v in out])
