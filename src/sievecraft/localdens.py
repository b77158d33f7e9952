"""Local solution counting by p-adic lifting: ell(p^m) for univariate
polynomials, pair counts mod p^2 for binary forms, the valuation measures
mu_p({v_p(P(x)) = j}) and, by class mod p and progression, the masses
they are read from.  Each public count is defined only for square-free P
and passes through poly.require_squarefree."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import kernels, modp, numutil
from .poly import BinForm, IntPoly, discriminant, require_squarefree


def roots_mod_pk(P: IntPoly, p: int, k: int) -> list[tuple[int, int]]:
    """Solution classes of P(x) = 0 mod p^k.

    Returns disjoint classes (r, e) with 0 <= e <= k, each meaning
    {x mod p^k : x = r mod p^e}, e = 0 standing for every x; the solution
    count is sum of p^(k-e).  The classes are the last level of
    _lift_levels, with p sibling classes merged into their parent.
    Raises ValueError unless P is square-free.
    """
    require_squarefree(P)
    classes = _lift_levels(P, p, k)[-1]
    # the roots mod p of the primitive part stay unmerged: all p of them
    # would merge into the class of every x, which solution_classes_form
    # takes for a content class
    return classes if k - _content_valuation(P, p) == 1 else _merge_classes(classes, p)


def _content_valuation(P: IntPoly, p: int) -> int:
    cont = P.content()
    return numutil.valuation(cont, p) if cont % p == 0 else 0


def _lift_levels(P: IntPoly, p: int, k: int) -> list[list[tuple[int, int]]]:
    """The solution classes of P(x) = 0 mod p^j for every j = 1..k, from
    one walk of the lifting tree: levels[j - 1] lists disjoint classes
    (r, e), each {x : x = r mod p^e}, with e = 0 standing for every x.
    A class stays one class while it solves as a whole, and is expanded
    only at its children that solve one level deeper, the roots mod p of
    the Taylor quotient P(r + p^e t) / p^j (Lemma-bounded depth for
    square-free P)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    levels: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    # node (r, e, j, q): the class r mod p^e solves mod p^j as a whole, and
    # q(t) = P(r + p^e t) / p^j has integer coefficients: x = r + p^e t
    # solves mod p^(j+1) iff q(t) = 0 mod p, which depends on t mod p only
    stack = [(0, 0, 0, list(P.coeffs))]
    while stack:
        r, e, j, q = stack.pop()
        if j:
            levels[j - 1].append((r, e))
        if j == k:
            continue
        qp = [c % p for c in q]
        if not any(qp):  # the whole class solves one level deeper
            stack.append((r, e, j + 1, [c // p for c in q]))
            continue
        # reversed, so that each level lists its classes in depth-first order
        for t in reversed(kernels.poly_roots_mod_p(qp, p)):
            stack.append((r + t * p**e, e + 1, j + 1, [c // p for c in _shift(q, t, p)]))
    return levels


def _shift(coeffs: list[int], r: int, s: int) -> list[int]:
    """Coefficients of P(r + s t) in t."""
    q: list[int] = []
    for a in reversed(coeffs):
        # q = q * (r + s t) + a
        new = [0] * (len(q) + 1)
        for i, c in enumerate(q):
            new[i] += c * r
            new[i + 1] += c * s
        new[0] += a
        q = new
    return q


def _merge_classes(classes: list[tuple[int, int]], p: int) -> list[tuple[int, int]]:
    """Merge p sibling classes (r mod p^e sharing r mod p^(e-1)) into one,
    at every level, until no p siblings are left."""
    merged = set(classes)
    while True:
        groups: dict[tuple[int, int], list[int]] = {}
        for r, e in merged:
            if e >= 1:
                groups.setdefault((r % p ** (e - 1), e), []).append(r)
        full = [(base, e, rs) for (base, e), rs in groups.items() if len(rs) == p]
        if not full:
            return sorted(merged)
        for base, e, rs in full:
            merged.difference_update((r, e) for r in rs)
            merged.add((base, e - 1))


def count_roots_mod_pk(P: IntPoly, p: int, k: int) -> int:
    """Exact #{x in Z/p^k : p^k | P(x)}, summed over the lifting tree's
    classes at depth k.  Raises ValueError unless P is square-free."""
    require_squarefree(P)
    return sum(p ** (k - e) for _, e in _lift_levels(P, p, k)[-1])


def power_classes(P: IntPoly, m: int, n: int, primes, cp, roots):
    """(first, step, prime): the classes x = r mod p^e, e <= m, on which
    p^m | P(x), over the primes p of the array primes, from the roots of
    the primitive part of P mod p (one per entry of roots, its prime in
    cp), as int64 arrays of their least positive members first <= N, steps
    min(p^e, N) and primes p, prime-major: each x lies in its classes in
    ascending p.  Each simple root lifts to one class mod p^m by Newton
    steps r - P(r) P'(r)^-1, in int64 where m = 2 and p^3 < 2^63, else in
    Python ints; at the primes with a singular root or dividing the lead
    (and so the content) they are _lift_levels'.  Coefficients must be <
    2^62."""
    dp = np.zeros_like(roots)  # P'(r) mod p
    for i in range(P.degree, 0, -1):
        dp = (dp * roots + i * (P.coeffs[i] % cp)) % cp
    walk = np.concatenate([cp[dp == 0], primes[P.lead % primes == 0]])  # the content divides the lead
    simple = ~np.isin(cp, walk)
    p, r = cp[simple], roots[simple]
    inv = modp.inverse(dp[simple], p)
    fast = (p < 1 << 21) & (m == 2)
    q = p[fast] ** 2
    val = np.zeros_like(q)
    for a in reversed(P.coeffs):
        val = (val * r[fast] + a % q) % q
    lift = (r[fast] - val * inv[fast]) % q
    classes = [(t, s**e, s) for s in set(walk.tolist()) for t, e in _lift_levels(P, s, m)[m - 1]]
    # iterated, not listed: lists of every root held 15 MB at B = 10^6, m = 3
    for t, s, i in zip(r[~fast], p[~fast], inv[~fast]):
        t, s, i = int(t), int(s), int(i)
        for j in range(2, m + 1):
            t = (t - P(t) * i) % s**j
        if (t or s**m) <= n:
            classes.append((t, s**m, s))
    # the least positive member, r or p^e, capped at N + 1 (dropped below)
    rest = np.array([(min(t or pe, n + 1), min(pe, n), s) for t, pe, s in classes], dtype=np.int64).reshape(-1, 3)
    first = np.concatenate([np.where(lift == 0, q, lift), rest[:, 0]])
    prime = np.concatenate([p[fast], rest[:, 2]])
    keep = np.flatnonzero(first <= n)
    keep = keep[np.argsort(prime[keep], kind="stable")]
    return first[keep], np.concatenate([np.minimum(q, n), rest[:, 1]])[keep], prime[keep]


def sols_bound(P: IntPoly, p: int) -> int:
    """Upper bound max(p^v * deg P, p^(3v)), v = v_p(Disc P), times
    p^(v_p(content)): the content factor is invisible to the degree-1
    discriminant convention but scales the solution count directly."""
    disc = discriminant(P)
    v = numutil.valuation(disc, p) if disc % p == 0 else 0
    return p ** _content_valuation(P, p) * max(p**v * P.degree, p ** (3 * v))


# ---------------------------------------------------------------------------
# Binary forms


def ell_form(F: BinForm, p: int) -> int:
    """#{(x,y) mod p^2 : p^2 | F(x,y)}."""
    return coprime_count_form(F, p) + _noncoprime_count(F, p)


def _noncoprime_count(F: BinForm, p: int) -> int:
    """Pairs (x,y) mod p^2 with p|x, p|y and p^2 | F(x,y)."""
    d = F.degree
    if d >= 2:
        return p * p
    # linear form a1*x + a0*z: need p | a1*a + a0*b over (a,b) in (Z/p)^2
    a0 = F.coeffs[0] % p
    a1 = F.coeffs[1] % p
    if a0 == 0 and a1 == 0:
        return p * p
    return p


def coprime_count_form(F: BinForm, p: int) -> int:
    """#{(x,y) mod p^2 : p^2 | F(x,y), not (p|x and p|y)}: each class of
    the slope mod p^e takes p^(2 - e) slopes mod p^2, each with p^2 - p
    unit multiples."""
    return (p * p - p) * sum(p ** (2 - e) for *_, e in solution_classes_form(F, p, 2))


def solution_classes_form(F: BinForm, p: int, n: int) -> list[tuple[str, int, int]]:
    """Coprime solution classes of p^n | F as congruences.

    Returns tuples (axis, r, e): axis 'x' means x = r*y mod p^e (y a unit),
    axis 'y' means y = r*x mod p^e with p | r (x a unit).  Their coprime
    parts are disjoint and cover {(x,y) coprime to p : p^n | F(x,y)}.
    """
    require_squarefree(F)
    out = []
    for r, e in roots_mod_pk(F.on_x_chart(), p, n):
        if e == 0:
            # every x solves: x = r*y mod p for each r, not a congruence mod
            # 1, which would also take in the pairs with p | y
            out.extend(("x", r, 1) for r in range(p))
        else:
            out.append(("x", r, e))
    for r, e in roots_mod_pk(F.on_z_chart(), p, n):
        if e == 0:
            out.append(("y", 0, 1))  # all r'; multiples of p form r'=0 mod p
        elif r % p == 0:
            out.append(("y", r, e))
    return out


# ---------------------------------------------------------------------------
# Valuation measures


def valuation_measure(P: IntPoly, p: int, j: int) -> Fraction:
    """mu_p({x in Z_p : v_p(P(x)) = j}) = c_j/p^j - c_(j+1)/p^(j+1): the
    per-class masses of one walk of the lifting tree, summed."""
    if j < 0:
        raise ValueError("j must be >= 0")
    require_squarefree(P)
    masses, den = class_masses(_lift_levels(P, p, j + 1), p)
    return Fraction(sum(masses[j].values()) - sum(masses[j + 1].values()), den)


def class_masses(
    levels: list[list[tuple[int, int]]], p: int, a: int = 0, e: int = 0
) -> tuple[list[dict[int, int]], int]:
    """(masses, den) with masses[j][i] * den = mu_p({x = i mod p,
    v_p(P(x)) >= j, x = a mod p^e}) for j = 0..k, read from the solution
    classes levels[j - 1] of P mod p^j (as _lift_levels gives them: the
    whole-space class (0, 0) alone in its level); den = p^max(k, e), and
    e = 0 leaves x unconstrained."""
    den_exp = max(len(levels), e)
    pw = [p**t for t in range(den_exp + 1)]
    masses = []
    for classes in [[(0, 0)]] + levels:
        if classes == [(0, 0)]:  # every x: the p classes mod p, or only the class of a
            masses.append(
                dict.fromkeys(range(p), pw[den_exp - 1]) if e == 0 else {a % p: pw[den_exp - e]}
            )
            continue
        m: dict[int, int] = {}
        for r, f in classes:
            if (r - a) % pw[min(f, e)] == 0:
                m[r % p] = m.get(r % p, 0) + pw[den_exp - max(f, e)]
        masses.append(m)
    return masses, pw[den_exp]
