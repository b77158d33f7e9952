"""Reference values for the benchmark's operations, computed without sievecraft.

Every value here comes from the benchmark's own arithmetic: brute-force roots
mod p in numpy, a Hensel step to p^2, division of values by small primes
followed by a math.isqrt square test on the cofactor, the Mobius sum for
P = x, and exact products of integers for the Euler products.  Nothing is
read from a stored copy of the program's output.

Print the references of one workload for a seed:

    python3 perfbench/reference.py --workload density --seed 1
"""

from __future__ import annotations

import argparse
import json
import math
from fractions import Fraction

import numpy as np

DIGITS = 30  # decimals kept in the stored intervals of exact products
INT64_SAFE = 2**62


# ---------------------------------------------------------------------------
# Integers and polynomials (coefficient lists, c[i] is the coefficient of x^i)


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


def prime_factors(n: int) -> list[int]:
    n, out, p = abs(n), [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def peval(c: list[int], x: int) -> int:
    acc = 0
    for a in reversed(c):
        acc = acc * x + a
    return acc


def trim(c: list[int]) -> list[int]:
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def discriminant(c: list[int]) -> int:
    """(-1)^(d(d-1)/2) Res(P, P') / lead, with Res the Sylvester determinant."""
    d = len(c) - 1
    if d == 1:
        return 1
    dc = [i * c[i] for i in range(1, d + 1)]
    n = 2 * d - 1
    hi, dhi = c[::-1], dc[::-1]
    rows = [[0] * i + hi + [0] * (n - d - 1 - i) for i in range(d - 1)]
    rows += [[0] * i + dhi + [0] * (n - d - i) for i in range(d)]
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            for j in range(k, n):
                m[r][j] -= f * m[k][j]
    res = int(det)
    return (-1 if (d * (d - 1) // 2) % 2 else 1) * res // c[-1]


def value_table(c: list[int], n: int) -> np.ndarray | None:
    """P(0), ..., P(n-1) as int64, or None when they could overflow."""
    if sum(abs(a) * n**i for i, a in enumerate(c)) >= INT64_SAFE:
        return None
    x = np.arange(n, dtype=np.int64)
    vals = np.zeros(n, dtype=np.int64)
    for a in reversed(c):
        vals = vals * x + a
    return vals


def roots_mod_p(c: list[int], p: int, table: np.ndarray | None) -> list[int]:
    """All r in [0, p) with P(r) = 0 mod p, by evaluating P at every residue."""
    if table is not None and len(table) >= p:
        vals = table[:p] % p
    else:
        x = np.arange(p, dtype=np.int64)
        vals = np.zeros(p, dtype=np.int64)
        for a in reversed(c):
            vals = (vals * x + a) % p
    return np.flatnonzero(vals == 0).tolist()


def lifts_mod_p2(c: list[int], p: int, r: int) -> list[int]:
    """Roots mod p^2 above the root r mod p (one Hensel step).

    P(r + tp) = P(r) + tp P'(r) mod p^2: a simple root has exactly one lift,
    a singular root has p lifts if p^2 | P(r) and none otherwise."""
    p2 = p * p
    fr = peval(c, r) % p2
    dfr = peval([i * c[i] for i in range(1, len(c))], r) % p
    if dfr:
        t = (-(fr // p) * pow(dfr, -1, p)) % p
        return [r + t * p]
    return [r + t * p for t in range(p)] if fr == 0 else []


def ell_p2(c: list[int], p: int, table: np.ndarray | None) -> int:
    """#{x mod p^2 : p^2 | P(x)}."""
    return sum(len(lifts_mod_p2(c, p, r)) for r in roots_mod_p(c, p, table))


def interval(num: int, den: int) -> list[str]:
    """Decimal strings lo <= num/den <= hi, 10^-DIGITS apart."""
    q = num * 10**DIGITS // den
    return [f"{q}e-{DIGITS}", f"{q + 1}e-{DIGITS}"]


# ---------------------------------------------------------------------------
# Euler products


def density_univ(c: list[int], b: int) -> dict:
    """Exact T = prod (1 - ell(p^2)/p^2) over p <= B and the primes of
    Disc*lead beyond B, and the exact lower end T*(1 - deg/B)."""
    deg = len(c) - 1
    bad = prime_factors(discriminant(c) * c[-1])
    primes = sorted(set(primes_upto(b)) | {p for p in bad if p > b})
    table = value_table(c, primes[-1] + 1)
    num = den = 1
    for p in primes:
        num *= p * p - ell_p2(c, p, table)
        den *= p * p
    return {
        "T": interval(num, den),
        "L": interval(num * (b - deg), den * b),
        "primes": len(primes),
    }


def charts(f: list[int]) -> tuple[list[int], list[int]]:
    """F(t, 1) and F(1, s) for the form F(x, z) = sum f[i] x^i z^(d-i)."""
    return trim(f), trim(f[::-1])


def coprime_count_form(f: list[int], p: int) -> int:
    """#{(x, z) mod p^2, not both divisible by p : p^2 | F(x, z)}.

    A pair with z a unit is (tz, z); one with p | z and x a unit is (x, sx)
    with p | s.  Each chart class carries p^2 - p unit multiples."""
    fx, fz = charts(f)
    n1 = ell_p2(fx, p, None)
    n2 = len(lifts_mod_p2(fz, p, 0)) if peval(fz, 0) % p == 0 else 0
    n = (n1 + n2) * (p * p - p)
    if p <= 7:  # the chart count against every pair mod p^2
        g = np.arange(p * p, dtype=np.int64)
        x, z = np.meshgrid(g, g)
        vals = sum(a * x**i * z ** (len(f) - 1 - i) for i, a in enumerate(f))
        brute = np.count_nonzero((vals % (p * p) == 0) & ((x % p != 0) | (z % p != 0)))
        assert brute == n, (p, brute, n)
    return n


def density_form_coprime(f: list[int], b: int) -> dict:
    """Exact T = prod (1 - (p^2 + cc_p)/p^4), over p <= B and the bad primes
    of the form beyond B, and the exact lower end T*(1 - (2 deg + 1)/B)."""
    deg = len(f) - 1
    d = f[-1] * f[0]
    for ch in charts(f):
        disc = discriminant(ch) if len(ch) > 2 else 0
        if disc:
            d *= disc
    primes = sorted(set(primes_upto(b)) | {p for p in prime_factors(d) if p > b})
    num = den = 1
    for p in primes:
        num *= p**4 - p * p - coprime_count_form(f, p)
        den *= p**4
    return {"T": interval(num, den), "L": interval(num * (b - 2 * deg - 1), den * b)}


def as_float(iv: list[str]) -> float:
    return float(Fraction(iv[0]))


# ---------------------------------------------------------------------------
# Censuses


def squarefree_upto(n: int) -> np.ndarray:
    """Boolean array, entry x (1..n) true iff x is square-free."""
    sf = np.ones(n + 1, dtype=bool)
    sf[0] = False
    for p in primes_upto(math.isqrt(n)):
        sf[p * p :: p * p] = False
    return sf


def mobius_sum(n: int) -> int:
    """#{x <= N square-free} = sum_{d <= sqrt N} mu(d) floor(N/d^2)."""
    r = math.isqrt(n)
    mu = np.ones(r + 1, dtype=np.int64)
    for p in primes_upto(r):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return sum(int(mu[d]) * (n // (d * d)) for d in range(1, r + 1))


def icbrt_above(v: int) -> int:
    """Least L with L^3 > v."""
    lo = max(1, round(v ** (1 / 3)) - 2)
    while lo**3 <= v:
        lo += 1
    while lo > 1 and (lo - 1) ** 3 > v:
        lo -= 1
    return lo


def cofactor_squares(rem: np.ndarray, lim: int) -> np.ndarray:
    """rem has no prime factor <= lim and rem < lim^3, so it is 1, q, q^2
    or qq'; return q where rem = q^2 (found with math.isqrt), else 0."""
    out = np.zeros(rem.size, dtype=np.int64)
    for i in np.flatnonzero(rem > lim * lim).tolist():
        q = math.isqrt(int(rem[i]))
        if q * q == rem[i]:
            out[i] = q
    return out


def census_univ(c: list[int], n: int) -> dict:
    """p^2-sieve over x = 1..N: returns the square-free count, the zeros and
    the delta count (some prime p > sqrt N with p^2 | P(x))."""
    vmax = sum(abs(a) * n**i for i, a in enumerate(c))
    lim = icbrt_above(vmax)
    table = value_table(c, max(lim, n) + 1)
    assert table is not None, "values exceed int64"
    vals = table[1 : n + 1]
    zero = vals == 0
    rem = np.abs(vals)
    square = np.zeros(n, dtype=bool)  # some p^2 | P(x), p <= lim
    big = np.zeros(n, dtype=bool)  # some p^2 | P(x), p > sqrt N
    thr = math.isqrt(n)
    for p in primes_upto(lim):
        for r in roots_mod_p(c, p, table):
            idx = np.arange((r - 1) % p, n, p)
            sub = rem[idx]
            while True:
                m = (sub % p == 0) & (sub != 0)
                if not m.any():
                    break
                sub[m] //= p
            rem[idx] = sub
            for s in lifts_mod_p2(c, p, r):
                square[(s - 1) % (p * p) :: p * p] = True
                if p > thr:
                    big[(s - 1) % (p * p) :: p * p] = True
    q = cofactor_squares(rem, lim)  # a prime q > lim with q^2 | P(x)
    square |= q > 0
    big |= q > thr
    return {
        "observed": int(np.count_nonzero(~square & ~zero)),
        "zeros": int(np.count_nonzero(zero)),
        "delta": int(np.count_nonzero(big & ~zero)),
    }


def coprime_pairs(f: list[int], n: int) -> np.ndarray:
    """F(x, z) over the coprime pairs of [-N, N]^2, as int64."""
    g = np.arange(-n, n + 1, dtype=np.int64)
    x, z = np.meshgrid(g, g)
    keep = np.gcd(x, z) == 1
    x, z = x[keep], z[keep]
    deg = len(f) - 1
    assert sum(abs(a) for a in f) * n**deg < INT64_SAFE
    return sum(a * x**i * z ** (deg - i) for i, a in enumerate(f))


def census_form(f: list[int], n: int) -> dict:
    """Coprime pairs in [-N, N]^2 with F square-free and nonzero, by dividing
    out the primes below the cube root and testing the cofactor."""
    vals = coprime_pairs(f, n)
    zeros = int(np.count_nonzero(vals == 0))
    rem = np.abs(vals[vals != 0])
    lim = icbrt_above(int(rem.max()))
    square = np.zeros(rem.size, dtype=bool)
    for p in primes_upto(lim):
        v = np.zeros(rem.size, dtype=np.int64)
        while True:
            m = rem % p == 0
            if not m.any():
                break
            rem[m] //= p
            v += m
        square |= v >= 2
    square |= cofactor_squares(rem, lim) > 0
    return {"observed": int(np.count_nonzero(~square)), "zeros": zeros}


def delta_form(f: list[int], n: int) -> dict:
    """Coprime pairs with p^2 | F for some prime p > N, and the per-prime counts."""
    vals = np.abs(coprime_pairs(f, n))
    vals = vals[vals != 0]
    hit = np.zeros(vals.size, dtype=bool)
    profile = {}
    for p in primes_upto(math.isqrt(int(vals.max()))):
        if p > n:
            m = vals % (p * p) == 0
            if m.any():
                profile[str(p)] = int(np.count_nonzero(m))
                hit |= m
    return {"count": int(np.count_nonzero(hit)), "profile": profile}


def squarefree_kernel(v: np.ndarray) -> np.ndarray:
    """d with |v| = d y^2 and d square-free (v nonzero)."""
    d = np.abs(v)
    for p in primes_upto(math.isqrt(int(d.max()))):
        while True:
            m = d % (p * p) == 0
            if not m.any():
                break
            d[m] //= p * p
    return d


def twists(f: list[int], n: int) -> dict:
    """S(d) over the coprime pairs, d the signed square-free kernel of F."""
    vals = coprime_pairs(f, n)
    nz = vals[vals != 0]
    d = np.sign(nz) * squarefree_kernel(nz)
    keys, counts = np.unique(d, return_counts=True)
    return {
        "table": {str(k): int(c) for k, c in zip(keys.tolist(), counts.tolist())},
        "zeros": int(np.count_nonzero(vals == 0)),
        "pairs": int(vals.size),
    }


# ---------------------------------------------------------------------------
# Averages


def progression_count(n: int, a: int, m: int) -> int:
    """#{x <= N square-free, x = a mod m} (the progression of P = x)."""
    return int(np.count_nonzero(squarefree_upto(n)[a % m :: m]))


def progression_product(c: list[int], b: int, a: int, m: int) -> float:
    """prod_{p <= B} mu_p{x = a mod p^e, p^2 does not divide P(x)}, e = v_p(m)."""
    num = den = 1
    for p in primes_upto(b):
        e = 0
        while m % p ** (e + 1) == 0:
            e += 1
        if e == 0:
            num *= p * p - ell_p2(c, p, None)
            den *= p * p
        else:
            k = max(e, 2)
            xs = range(a % p**e, p**k, p**e)
            num *= sum(1 for x in xs if peval(c, x) % (p * p))
            den *= p**k
    return float(Fraction(num, den))


def reference(op: dict) -> dict:
    """The reference values of one operation (see workloads.make_ops)."""
    kind, c = op["kind"], op.get("coeffs")
    if kind == "census-x":
        return {"observed": mobius_sum(op["N"]), "zeros": 0, **density_univ(c, 10**4)}
    if kind == "census-poly":
        return {**census_univ(c, op["N"]), **density_univ(c, 10**4)}
    if kind in ("density-enclosure", "density-poly"):
        return density_univ(c, op["B"])
    if kind == "density-form":
        return density_form_coprime(c, op["B"])
    if kind == "avgprod-indicator":
        return {**census_univ(c, op["N"]), **density_univ(c, op["B"])}
    if kind == "avgprod-progression":
        return {
            "observed": progression_count(op["N"], op["a"], op["m"]),
            "predicted": progression_product(c, op["B"], op["a"], op["m"]),
        }
    if kind == "census-form":
        return {**census_form(c, op["N"]), **density_form_coprime(c, op["B"])}
    if kind == "delta-form":
        return delta_form(c, op["N"])
    if kind == "twists":
        return twists(c, op["N"])
    raise ValueError(f"unknown operation kind {kind!r}")


def main() -> None:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = ap.parse_args()
    for op in workloads.make_ops(args.workload, args.seed):
        print(json.dumps({"argv": op["argv"], "reference": reference(op)}))


if __name__ == "__main__":
    main()
