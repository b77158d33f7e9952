"""Local solution counting by p-adic lifting: ell(p^m) for univariate
polynomials, pair counts mod p^2 for binary forms, and the valuation
measures mu_p({v_p(P(x)) = j})."""

from __future__ import annotations

import math
from fractions import Fraction

from . import kernels, numutil
from .poly import BinForm, IntPoly, discriminant, is_squarefree_poly

M_CAP = 24


def _require_squarefree(P: IntPoly | BinForm) -> None:
    if not is_squarefree_poly(P):
        kind = "form" if isinstance(P, BinForm) else "polynomial"
        raise ValueError(f"{kind} must be square-free")


def roots_mod_pk(P: IntPoly, p: int, k: int) -> list[tuple[int, int]]:
    """Solution classes of P(x) = 0 mod p^k.

    Returns disjoint classes (r, e) with 1 <= e <= k, each meaning
    {x mod p^k : x = r mod p^e}; the solution count is sum of p^(k-e).
    Lifting: simple roots lift by Newton iteration, singular roots are
    expanded one level at a time (Lemma-bounded depth for square-free P).
    Raises ValueError unless P is square-free.
    """
    _require_squarefree(P)
    return _roots_mod_pk(P, p, k)


def _roots_mod_pk(P: IntPoly, p: int, k: int) -> list[tuple[int, int]]:
    """roots_mod_pk for a P the caller has already checked square-free."""
    if k < 1:
        raise ValueError("k must be >= 1")
    cont = P.content()
    vc = numutil.valuation(cont, p) if cont % p == 0 else 0
    prim = [a // cont * (1 if P.lead > 0 else -1) for a in P.coeffs]
    if vc >= k:
        return [(0, 0)]  # every residue: class of exponent 0
    k2 = k - vc
    classes = _roots_mod_pk_primitive(prim, p, k2)
    # a class mod p^e inside Z/p^k2 is the same congruence inside Z/p^k
    return classes


def _roots_mod_pk_primitive(coeffs: list[int], p: int, k: int) -> list[tuple[int, int]]:
    roots1 = kernels.poly_roots_mod_p(coeffs, p)
    if k == 1:
        return [(r, 1) for r in roots1]
    dcoeffs = [i * a for i, a in enumerate(coeffs) if i >= 1]
    out: list[tuple[int, int]] = []

    def lift(r: int, j: int) -> None:
        if j == k:
            out.append((r, k))
            return
        pj = p**j
        dval = _eval_mod(dcoeffs, r, p)
        if dval != 0:
            # simple root: unique lift to p^k by Newton iteration
            x = r
            prec = j
            while prec < k:
                prec = min(2 * prec, k)
                mod = p**prec
                fx = _eval_mod(coeffs, x, mod)
                dfx = _eval_mod(dcoeffs, x, mod)
                dinv = pow(dfx, -1, mod)  # unit since dval != 0 mod p
                x = (x - fx * dinv) % mod
            out.append((x, k))
            return
        # singular: expand one level
        pj1 = pj * p
        fr = _eval_mod(coeffs, r, pj1)
        if fr % pj != 0:
            raise AssertionError("lift invariant broken")
        u = (fr // pj) % p
        if u != 0:
            return  # no lift
        # all p children solve mod p^(j+1); check the whole-class shortcut
        if _class_is_solution(coeffs, r, j, p, k):
            out.append((r, j))
            return
        for t in range(p):
            lift((r + t * pj) % pj1, j + 1)

    for r in roots1:
        lift(r, 1)
    return _merge_classes(out, p, k)


def _eval_mod(coeffs: list[int], x: int, mod: int) -> int:
    acc = 0
    for a in reversed(coeffs):
        acc = (acc * x + a) % mod
    return acc


def _class_is_solution(coeffs: list[int], r: int, e: int, p: int, k: int) -> bool:
    """Sufficient test that p^k | P(x) for every x = r mod p^e:
    all Taylor coefficients of P(r + p^e t) divisible by p^k."""
    pk = p**k
    pe = p**e
    # Taylor shift: Q(t) = P(r + pe*t)
    q = [0]
    for a in reversed(coeffs):
        # q = q * (r + pe*t) + a
        new = [0] * (len(q) + 1)
        for i, c in enumerate(q):
            new[i] += c * r
            new[i + 1] += c * pe
        new[0] += a
        q = new
    return all(c % pk == 0 for c in q)


def _merge_classes(classes: list[tuple[int, int]], p: int, k: int) -> list[tuple[int, int]]:
    """Merge p sibling classes (r mod p^e sharing r mod p^(e-1)) into one."""
    classes = sorted(set(classes))
    changed = True
    while changed:
        changed = False
        bye = max((e for _, e in classes), default=0)
        if bye == 0:
            break
        groups: dict[tuple[int, int], list[int]] = {}
        for r, e in classes:
            if e == bye and e >= 1:
                pe1 = p ** (e - 1)
                groups.setdefault((r % pe1, e), []).append(r)
        merged = set(classes)
        for (rbase, e), members in groups.items():
            if len(members) == p:
                for r in members:
                    merged.discard((r, e))
                merged.add((rbase, e - 1))
                changed = True
        classes = sorted(merged)
    return classes


def class_count(classes: list[tuple[int, int]], p: int, k: int) -> int:
    return sum(p ** (k - e) for _, e in classes)


def count_roots_mod_pk(P: IntPoly, p: int, k: int) -> int:
    """Exact #{x in Z/p^k : p^k | P(x)} by recursive lifting."""
    _require_squarefree(P)
    return _count_roots_mod_pk(P, p, k)


def _count_roots_mod_pk(P: IntPoly, p: int, k: int) -> int:
    return class_count(_roots_mod_pk(P, p, k), p, k)


def sols_bound(P: IntPoly, p: int) -> int:
    """Upper bound max(p^v * deg P, p^(3v)), v = v_p(Disc P), times
    p^(v_p(content)): the content factor is invisible to the degree-1
    discriminant convention but scales the solution count directly."""
    disc = discriminant(P)
    v = numutil.valuation(disc, p) if disc % p == 0 else 0
    cont = P.content()
    vc = numutil.valuation(cont, p) if cont % p == 0 else 0
    return p**vc * max(p**v * P.degree, p ** (3 * v))


# ---------------------------------------------------------------------------
# Binary forms


def _form_badprimes_guard(F: BinForm, p: int) -> None:
    if F.content() % p == 0:
        raise ValueError("form content divisible by p unsupported")


def ell_form(F: BinForm, p: int) -> int:
    """#{(x,y) mod p^2 : p^2 | F(x,y)}."""
    _require_squarefree(F)
    return _coprime_count_form(F, p) + _noncoprime_count(F, p)


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
    """#{(x,y) mod p^2 : p^2 | F(x,y), not (p|x and p|y)}."""
    _require_squarefree(F)
    return _coprime_count_form(F, p)


def _coprime_count_form(F: BinForm, p: int) -> int:
    _form_badprimes_guard(F, p)
    n1 = _count_roots_mod_pk(F.on_x_chart(), p, 2)
    # roots r' of F(1, r') mod p^2 with p | r'
    n2 = 0
    for r, e in _roots_mod_pk(F.on_z_chart(), p, 2):
        if e == 0:
            n2 += p  # whole space: residues with p | r' number p
        elif r % p == 0:
            n2 += p ** (2 - e) if e >= 1 else 0
        # e >= 1 classes with r not divisible by p contain no multiples of p
    return (n1 + n2) * (p * p - p)


def solution_classes_form(F: BinForm, p: int, n: int) -> list[tuple[str, int, int]]:
    """Coprime solution classes of p^n | F as congruences.

    Returns tuples (axis, r, e): axis 'x' means x = r*y mod p^e (y a unit),
    axis 'y' means y = r*x mod p^e with p | r (x a unit).  Their coprime
    parts are disjoint and cover {(x,y) coprime to p : p^n | F(x,y)}.
    """
    _require_squarefree(F)
    _form_badprimes_guard(F, p)
    out = []
    for r, e in _roots_mod_pk(F.on_x_chart(), p, n):
        out.append(("x", r, e))
    for r, e in _roots_mod_pk(F.on_z_chart(), p, n):
        if e == 0:
            out.append(("y", 0, 1))  # all r'; multiples of p form r'=0 mod p
        elif r % p == 0:
            out.append(("y", r, e))
    return out


# ---------------------------------------------------------------------------
# Valuation measures


def valuation_measure(P: IntPoly, p: int, j: int) -> Fraction:
    """mu_p({x in Z_p : v_p(P(x)) = j}) = c_j/p^j - c_(j+1)/p^(j+1)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    _require_squarefree(P)
    cj = 1 if j == 0 else _count_roots_mod_pk(P, p, j)
    cj1 = _count_roots_mod_pk(P, p, j + 1)
    return Fraction(cj, p**j) - Fraction(cj1, p ** (j + 1))


def valuation_measure_by_class(P: IntPoly, p: int, j: int) -> dict[int, Fraction]:
    """Refinement of valuation_measure by residue class x = i mod p."""
    _require_squarefree(P)
    out = {i: _mass_ge(P, p, j, i) - _mass_ge(P, p, j + 1, i) for i in range(p)}
    return out


def _mass_ge(P: IntPoly, p: int, j: int, i: int, constraint: tuple[int, int] | None = None) -> Fraction:
    """mu_p({v_p(P(x)) >= j, x = i mod p [, x = a mod p^e]})."""
    if j == 0:
        base = Fraction(1, p)
        if constraint is not None:
            a, e = constraint
            if e >= 1 and a % p != i:
                return Fraction(0)
            return Fraction(1, p ** max(e, 1))
        return base
    total = Fraction(0)
    for r, e in _roots_mod_pk(P, p, j):
        if e == 0:
            # whole space is a solution class
            m = Fraction(1, p)
        elif r % p != i:
            continue
        else:
            m = Fraction(1, p**e)
        if constraint is not None:
            a, ec = constraint
            if e == 0:
                m = Fraction(1, p ** max(ec, 1)) if a % p == i else Fraction(0)
            else:
                lo = min(e, ec)
                if (r - a) % p**lo != 0:
                    continue
                m = Fraction(1, p ** max(e, ec))
        total += m
    return total


def progression_measure(P: IntPoly, p: int, j: int, a: int, e: int) -> dict[int, Fraction]:
    """mu_p({v_p(P(x)) = j, x = i mod p, x = a mod p^e}) per class i."""
    _require_squarefree(P)
    return {
        i: _mass_ge(P, p, j, i, (a, e)) - _mass_ge(P, p, j + 1, i, (a, e))
        for i in range(p)
    }
