"""The benchmark's workloads: the sievecraft CLI operations each one runs.

Each operation is a dict with the CLI ``argv``, a ``kind`` that names its
reference (reference.py) and its checks (checks.py), and the integer
parameters both of those read: ``coeffs`` (c[i] is the coefficient of x^i;
for forms, of x^i z^(d-i)), ``N``, ``B`` and the progression ``a``, ``m``.
"""

from __future__ import annotations

import math
import random

from reference import discriminant, peval, prime_factors

DEFAULT_SEED = 1


def fmt(c: list[int], var: str = "x", form: bool = False) -> str:
    """'x^3 + 2' style text for the CLI parser (forms in x and z)."""
    deg = len(c) - 1
    terms = []
    for i in range(deg, -1, -1):
        a = c[i]
        if a == 0:
            continue
        mono = [f"{var}^{i}" if i > 1 else var if i == 1 else ""]
        if form and deg - i:
            mono.append(f"z^{deg - i}" if deg - i > 1 else "z")
        mono = "*".join(m for m in mono if m)
        mag = abs(a)
        body = mono if mag == 1 and mono else f"{mag}*{mono}" if mono else str(mag)
        terms.append(("-" if a < 0 else "+", body))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return text + "".join(f" {s} {b}" for s, b in terms[1:])


def _has_integer_root(c: list[int]) -> bool:
    c0 = abs(c[0])
    if c0 == 0:
        return True
    return any(peval(c, s * d) == 0 for d in range(1, c0 + 1) if c0 % d == 0 for s in (1, -1))


def _nonsquare(d: int) -> bool:
    return d < 0 or math.isqrt(d) ** 2 != d


def seed_quadratic(rng: random.Random) -> list[int]:
    """x^2 + bx + c with no root mod 2, 3, 5 or 7 (so irreducible).

    Monic with small b, c keeps max P(x) at N = 10^6 in (10^12, 1.95 * 10^12),
    so the census trial bound B (12501) and the primes sieved are the same for
    every seed.  Without roots mod the small primes, few values have a square
    factor, as for x^2 + 1; the share of hits, and with it the profile's
    arrays and the pass's peak memory, hardly depends on the seed."""
    while True:
        c = [rng.randint(1, 200), rng.randint(-9, 9), 1]
        if all(peval(c, x) % p for p in (2, 3, 5, 7) for x in range(p)):
            return c


def seed_cubic(rng: random.Random, b: int) -> list[int]:
    """x^3 + ax^2 + bx + c, irreducible with a non-square discriminant (Galois
    group S3), so the share of primes with 0, 1 and 3 roots -- and with it
    the work per prime -- is the same for every seed; every prime of Disc is
    <= B, so the product runs over exactly the primes <= B."""
    while True:
        c = [rng.randint(1, 15), rng.randint(-6, 6), rng.randint(-3, 3), 1]
        disc = discriminant(c)
        if (
            not _has_integer_root(c)
            and _nonsquare(disc)
            and max(prime_factors(disc)) <= b
        ):
            return c


CUBIC = [2, 0, 0, 1]  # x^3 + 2
FORM = [2, 0, 0, 1]  # x^3 + 2 z^3


def _op(kind: str, argv: list[str], coeffs: list[int], **params) -> dict:
    return {"kind": kind, "argv": argv, "coeffs": coeffs, **params}


def census_poly(rng: random.Random) -> list[dict]:
    quad = seed_quadratic(rng)
    return [
        _op("census-poly", ["census", "--poly", fmt(CUBIC), "--N", "100000"], CUBIC, N=100_000),
        _op("census-poly", ["census", "--poly", "x^2 + 1", "--N", "1000000"], [1, 0, 1], N=10**6),
        _op("census-x", ["census", "--poly", "x", "--N", "1000000"], [0, 1], N=10**6),
        _op("census-poly", ["census", "--poly", fmt(quad), "--N", "1000000"], quad, N=10**6),
    ]


def density(rng: random.Random) -> list[dict]:
    cubic = seed_cubic(rng, 30_000)
    form = ["density", "--form", fmt(FORM, form=True), "--coprime", "--B", "10000"]
    return [
        _op("density-enclosure", ["density", "--poly", fmt(CUBIC), "--B", "100000"], CUBIC, B=100_000),
        _op("density-form", form, FORM, B=10_000),
        _op("density-poly", ["density", "--poly", fmt(cubic), "--B", "30000"], cubic, B=30_000),
    ]


def avgprod(rng: random.Random) -> list[dict]:
    # avgprod's default prediction bound --B is 1000
    indicator = ["avgprod", "--poly", fmt(CUBIC), "--N", "50000"]
    progression = ["avgprod", "--poly", "x", "--N", "100000", "--progression", "1,3"]
    return [
        _op("avgprod-indicator", indicator, CUBIC, N=50_000, B=1000),
        _op("avgprod-progression", progression, [0, 1], N=100_000, B=1000, a=1, m=3),
    ]


def census_form(rng: random.Random) -> list[dict]:
    text = fmt(FORM, form=True)
    return [
        _op("census-form", ["census", "--form", text, "--N", "500"], FORM, N=500, B=1000),
        _op("delta-form", ["delta", "--form", text, "--N", "100"], FORM, N=100),
        _op("twists", ["twists", "--form", text, "--N", "60"], FORM, N=60),
    ]


WORKLOADS = {
    "census-poly": census_poly,
    "density": density,
    "avgprod": avgprod,
    "census-form": census_form,
}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The operations of one pass of the workload; the same seed gives the
    same operations."""
    return WORKLOADS[workload](random.Random(seed))
