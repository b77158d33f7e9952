"""Exact desk-scale censuses: power-free value counts, exceptional-set
counts delta(N), twist tables d*y^2 = F(x,z), splitting types mod p, and
the R(alpha, d) sums."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import eulerprod, kernels, numutil
from .poly import BinForm, IntPoly, discriminant, factor_rational, require_squarefree

# pairs in one form census; every box the old 2^31-entry square-free table
# admitted for a form of degree >= 2 has (2N + 1)^2 <= 92681^2 < 2^33 pairs
_CELL_CAP = 1 << 33


@dataclass
class CensusReport:
    """One census run: parameters, the exact observed count, and the
    Euler-product main-term interval it is compared against."""

    params: dict
    observed: int
    main_lo: float
    main_hi: float
    zeros: int = 0
    method: str = ""

    @property
    def main_mid(self) -> float:
        return (self.main_lo + self.main_hi) / 2

    @property
    def discrepancy(self) -> float:
        return self.observed - self.main_mid

    @property
    def discrepancy_rel(self) -> float | None:
        """discrepancy / main_mid; None (JSON null) for a zero main term."""
        return self.discrepancy / self.main_mid if self.main_mid else None

    def to_dict(self) -> dict:
        return {
            **self.params,
            "observed": self.observed,
            "main_lo": self.main_lo,
            "main_hi": self.main_hi,
            "discrepancy_rel": self.discrepancy_rel,
            "zeros": self.zeros,
            "method": self.method,
        }


def _square_root(v: np.ndarray) -> np.ndarray:
    """Elementwise s where v = s^2 > 1, else 0, exact for 0 <= v < 2^62:
    at v = s^2 the float sqrt is within 2^-21 of s, so it rounds to s, and
    at any other v the int64 check r * r == v fails."""
    r = np.rint(np.sqrt(v)).astype(np.int64)
    r *= (r * r == v) & (v > 1)
    return r


def count_powerfree_values(P: IntPoly, n: int, m: int = 2) -> CensusReport:
    """Exact #{1 <= x <= N : P(x) != 0, P(x) free of m-th powers}.

    Small primes are handled by the residue-marking sieve; a single
    square remainder test catches the large primes, valid because the
    trial bound B (kernels.trial_bound) satisfies |P(x)| < B^3.  For m >=
    3 the census sieves with, and reports, the lower kernels.power_bound.
    """
    require_squarefree(P)
    if P.degree < 1:
        raise ValueError("degree must be >= 1")
    if n < 1 or m < 2:
        raise ValueError("need N >= 1 and m >= 2")
    b = kernels.power_bound(P.coeffs, n, kernels.trial_bound(P.coeffs, n), m)
    counts = _count_values(P.coeffs, n, m, b)
    est = eulerprod.density_univ(P, 10**4, m)
    return _report({"poly": str(P), "N": n, "m": m, "B": b}, counts, n, est, "profile-sieve")


def _report(params: dict, counts: tuple[int, int], scale: int, est, method: str) -> CensusReport:
    """The report of a census with (observed, zeros) = counts and the main
    term scale * [est.lower, est.upper], rounded outward to floats."""
    lo, hi = (scale * Fraction(e) for e in (est.lower, est.upper))
    return CensusReport(params, counts[0], eulerprod.float_down(lo), eulerprod.float_up(hi), counts[1], method)


def _count_values(coeffs, n: int, m: int, b: int) -> tuple[int, int]:
    """(x in 1..N with P(x) nonzero and free of m-th powers, x with P(x) =
    0), read block by block from kernels.value_power_blocks with trial
    bound b."""
    observed = 0
    zeros = 0
    for lo, cells, _, rem in kernels.value_power_blocks(coeffs, n, b, m):
        zeros += int(np.count_nonzero(rem == 0))
        observed += int(np.count_nonzero(free_mask(cells, rem, m)))
    return observed, zeros


def free_mask(cells: np.ndarray, rem: np.ndarray, m: int = 2) -> np.ndarray:
    """The nonzero m-th-power-free values of a census block: rem != 0, no
    cell, and for m = 2 rem no square > 1 (for m >= 3 every p > B has p^m
    above every value, kernels.power_bound)."""
    ok = rem != 0
    if m == 2:
        ok &= _square_root(rem) == 0
    ok[cells] = False
    return ok


def count_squarefree_form(
    F: BinForm,
    n: int,
    convention: str = "full-box",
    coprime: bool = True,
    sector=None,
) -> CensusReport:
    """Exact count of pairs with F square-free and nonzero, over
    {1..N}^2 (positive-quadrant) or [-N,N]^2 (full-box), optionally
    restricted to coprime pairs and to a sector."""
    require_squarefree(F)
    if convention not in ("full-box", "positive-quadrant"):
        raise ValueError("unknown convention")
    lo = 1 if convention == "positive-quadrant" else -n
    counts = _count_pairs(F, lo, n, coprime, sector)
    est = eulerprod.density_form(F, 10**3, coprime=coprime)
    scale = n * n if convention == "positive-quadrant" else 4 * n * n
    params = {"form": str(F), "N": n, "convention": convention, "coprime": coprime}
    return _report(params, counts, scale, est, "row-scan")


def _count_pairs(F: BinForm, lo: int, n: int, coprime: bool, sector) -> tuple[int, int]:
    """(pairs with F square-free and nonzero, pairs with F = 0) over the
    box lo <= x, z <= N: the pairs of the views of _box_blocks."""
    observed = zeros = 0
    for _, _, (cells, _, rem), views in _box_blocks(F, lo, n, coprime, sector):
        zero, free = rem == 0, free_mask(cells, rem)
        for _, ok in views:
            zeros += int(np.count_nonzero(ok & zero))
            observed += int(np.count_nonzero(ok & free))
    return observed, zeros


def _box_blocks(F: BinForm, lo: int, n: int, coprime: bool = True, sector=None):
    """The census stream of the form over the box lo <= x, z <= N in blocks
    of about _VALUE_BLOCK pairs (whole rows): (xs, zs, (cells, ps, rem),
    views) from kernels.form_power_blocks, exact at the coprime pairs only
    if coprime is set.  views lists (s, ok): ok masks the cells (x, z)
    whose pair (s x, s z) a census counts, each view within the first if
    no sector is given.  A full box (lo = -N) is folded by (x, z) -> (-x,
    -z), which keeps gcd(x, z) and |F|: a row z > 0 stands for itself (s =
    1) and its mirror (s = -1), the row z = 0 for itself only.  Refuses a
    constant F or N < 0 (ValueError), and a box that may reach 2^62 or
    holds over _CELL_CAP pairs (OverflowError), before any array is made."""
    if F.degree < 1:
        raise ValueError("degree must be >= 1")
    if n < 0:
        raise ValueError("need N >= 0")
    width = n - lo + 1
    if width <= 0:
        return
    top = max(n, -lo, 1)
    b = kernels.trial_bound(F.coeffs, top, top)
    if width * width > _CELL_CAP:
        raise OverflowError(f"the box holds more than 2^33 pairs ({width}^2)")
    xs = np.arange(lo, n + 1, dtype=np.int64)
    rows = max(1, kernels._VALUE_BLOCK // width)
    fold = lo == -n
    blocks = kernels.form_power_blocks(F.coeffs, lo, n, 0 if fold else lo, n, b, rows, coprime)
    for zs, cells, ps, rem in blocks:
        ok = _pair_mask(xs, zs[:, None], coprime)
        views = [(1, ok), (-1, ok & np.repeat(zs > 0, xs.size))][: 1 + fold]
        if sector is not None:
            views = [(s, v & _pair_mask(s * xs, s * zs[:, None], False, sector)) for s, v in views]
        yield xs, zs, (cells, ps, rem), views


def _pair_mask(x: np.ndarray, z: np.ndarray, coprime: bool = True, sector=None) -> np.ndarray:
    """Flat mask of the pairs (x, z) of the broadcast grid that a census
    counts: coprime ones (if asked), in the sector (if given).  x and z are
    runs of consecutive integers, z a column (shape (k, 1)).

    gcd(x, z) = 1 where no prime factor of one coordinate divides the
    other: each line of the shorter side is cleared at the multiples of the
    primes of its own coordinate, and the line of 0 everywhere but at +-1."""
    ok = np.ones((z.size, x.size), dtype=bool)
    if coprime and ok.size:
        lines, other, view = (z.ravel(), x, ok) if z.size <= x.size else (x, z.ravel(), ok.T)
        for k, c in enumerate(lines.tolist()):
            if c == 0:
                view[k] = np.abs(other) == 1
            else:
                for p, _ in numutil.factorize(c).pairs:
                    view[k, -int(other[0]) % p :: p] = False
    ok = ok.ravel()
    if sector is not None:
        x, z = (a.ravel() for a in np.broadcast_arrays(x, z))
        ok &= sector.mask(x, z)
    return ok


def delta_census_univ(P: IntPoly, n: int, threshold: int | None = None) -> int:
    """#{1 <= x <= N : some prime p > threshold has p^2 | P(x)},
    threshold defaulting to sqrt(N)."""
    require_squarefree(P)
    if P.degree < 1:
        raise ValueError("degree must be >= 1")
    if n < 0:
        raise ValueError("need N >= 0")
    threshold = math.isqrt(n) if threshold is None else threshold
    count = 0
    for _, cells, ps, rem in kernels.value_power_blocks(P.coeffs, n, kernels.trial_bound(P.coeffs, n), 2):
        cells, ps, _ = kernels.square_entries(cells, ps, rem)
        count += exceptional_count(cells, ps, rem, threshold)
    return count


def exceptional_count(cells: np.ndarray, ps: np.ndarray, rem: np.ndarray, threshold: int) -> int:
    """delta_census_univ's count over one block (cells, ps, rem) of P's
    census stream for m = 2 read by square_entries, trial bound b, |P(x)| <
    b^3: a prime p > b with p^2 | P(x) leaves rem = p^2, so any threshold
    is exact (_square_root is 0 off the squares, hence the floor 1)."""
    bad = _square_root(rem) > max(threshold, 1)
    bad[cells[ps > threshold]] = True
    return int(np.count_nonzero(bad))


def delta_census_form(
    F: BinForm, n: int, threshold: int | None = None
) -> tuple[int, dict[int, int]]:
    """Coprime pairs in [-N,N]^2 whose value has p^2 | F for some prime
    p > threshold (default N); returns (count, per-prime profile).
    Asserts the per-prime bound 12*deg F when threshold >= N at the primes
    not dividing eulerprod.chart_data(F): modulo a content prime F vanishes,
    and p^2 may divide every value; modulo a prime of a chart's discriminant
    F may have a double root, and p^2 | F on a whole line mod p (13^2 divides
    (5x + 2z)(x + 3z) wherever 13 | x + 3z)."""
    require_squarefree(F)
    threshold = n if threshold is None else threshold
    profile: dict[int, int] = {}
    count = 0
    for _, _, (cells, ps, rem), views in _box_blocks(F, -n, n):
        cells, ps, _ = kernels.square_entries(cells, ps, rem)
        q = _square_root(rem)
        for _, ok in views:
            sel = ok[cells] & (ps > threshold)
            hit = ok & (q > max(threshold, 1))  # the cells counted, each once
            big = np.flatnonzero(hit)
            hit[cells[sel]] = True
            count += int(np.count_nonzero(hit))
            primes, counts = np.unique(np.concatenate([ps[sel], q[big]]), return_counts=True)
            for p, c in zip(primes.tolist(), counts.tolist()):
                profile[p] = profile.get(p, 0) + c
    if threshold >= n:
        for p, c in profile.items():
            if c > 12 * F.degree and eulerprod.chart_data(F) % p:
                raise AssertionError(f"per-prime bound violated at p={p}: {c}")
    return count, profile


@dataclass
class TwistTable:
    """S(d) = #{coprime (x,z) in the box : F(x,z) = d*y^2, y > 0},
    indexed by the signed square-free kernel d."""

    form: str
    N: int
    table: dict[int, int] = field(default_factory=dict)
    zeros: int = 0
    pairs: int = 0

    def to_csv(self) -> str:
        return "d,S_d\n" + "".join(f"{d},{self.table[d]}\n" for d in sorted(self.table))


def twist_census(F: BinForm, n: int) -> TwistTable:
    """Decompose every coprime value in [-N,N]^2 as d*y^2 with d the
    signed square-free kernel, and aggregate the counts S(d)."""
    require_squarefree(F)
    if F.degree < 3:
        raise ValueError("deg F must be >= 3")
    out = TwistTable(form=str(F), N=n)
    for xs, zs, (cells, ps, rem), views in _box_blocks(F, -n, n):
        cells, ps, vs = kernels.square_entries(cells, ps, rem)
        zero = rem == 0
        # F = d y^2: y is the product of the p^(v // 2) and of q at rem = q^2
        y = np.maximum(_square_root(rem), 1)
        np.multiply.at(y, cells, ps ** (vs // 2))
        keep = views[0][1] & ~zero
        d = kernels.form_values(F.coeffs, xs, zs).ravel()[keep] // y[keep] ** 2
        for s, ok in views:  # the kernel at (s x, s z) is s^deg d
            out.pairs += int(np.count_nonzero(ok))
            out.zeros += int(np.count_nonzero(ok & zero))
            kd = np.unique(s**F.degree * d[ok[keep]], return_counts=True)
            for k, c in zip(*(a.tolist() for a in kd)):
                out.table[k] = out.table.get(k, 0) + c
    return out


def splitting_type(P: IntPoly, p: int) -> list[int]:
    """Sorted degrees of the irreducible factors of P mod p, for an
    irreducible P and p not dividing Disc(P)*lead(P); for such p this is
    the inertia-degree multiset of p in the root field."""
    _require_irreducible(P)
    if not numutil.is_prime(p):
        raise ValueError("p must be prime")
    if (discriminant(P) * P.lead) % p == 0:
        raise ValueError("p divides Disc(P)*lead(P); splitting type undefined here")
    return kernels.distinct_factor_degrees(P.coeffs, p)


def _require_irreducible(P: IntPoly) -> None:
    sign, cont, factors = factor_rational(P)
    if len(factors) != 1 or factors[0][1] != 1:
        raise ValueError("P must be irreducible")


def _local_splitting(P: IntPoly, p: int) -> tuple[bool, int]:
    """(has a degree-1 factor, number of distinct irreducible factors)
    of P mod p; for ramified p this factors the radical of P mod p, an
    interpretive stand-in for the prime decomposition."""
    degs = kernels.distinct_factor_degrees(P.coeffs, p)
    return (1 in degs), len(degs)


def r_alpha_sum(
    P: IntPoly, alpha: float, X: int, exponent: float | None = None
) -> tuple[float, list[tuple[int, float]]]:
    """Sum over square-free d <= X of R(alpha, d) =
    2^(alpha*(omega_K(d) - omega(d))) if every p | d has a degree-1
    prime above it (no p unsplit, i.e. inert), else 0.  Returns the sum
    and a table (X_i, S(X_i)/X_i/(log X_i)^exponent).

    R is multiplicative: one sieve over the primes p <= X clears the
    multiples of p^2, and of p where p is unsplit, and adds #factors - 1 to
    the exponent at the multiples of a split p.  Off Disc*lead the r = 0, 1
    or 3 roots of the cubic mod p (eulerprod._root_counts) mean (split,
    #factors) = (no, 1), (yes, 2), (yes, 3); Disc*lead's primes read
    _local_splitting."""
    _require_irreducible(P)
    if P.degree != 3:
        raise ValueError("P must be an irreducible cubic")
    if X < 1 or X > 10**7:
        raise ValueError("need 1 <= X <= 1e7")
    if exponent is None:
        disc = discriminant(P)
        r = math.isqrt(abs(disc))
        galois = disc > 0 and r * r == disc
        a2 = 2.0**alpha
        exponent = (
            a2 * a2 / 3 - 1 if galois else a2 / 2 + a2 * a2 / 6 - 1
        )
    ok = np.ones(X + 1, dtype=bool)
    ok[0] = False
    extra = np.zeros(X + 1, dtype=np.int8)
    bad = [p for p in eulerprod._bad_primes_univ(P) if p <= X]  # lift none beyond X
    primes, counts, _ = eulerprod._root_counts(P.coeffs, X, bad)
    for p, n in zip(primes, counts):
        split, nfac = _local_splitting(P, p) if n is None else (n > 0, (n + 3) // 2)
        if split:
            extra[p::p] += nfac - 1
        else:
            ok[p::p] = False
        if p * p <= X:  # else the slice is empty
            ok[p * p :: p * p] = False
    sums = np.array([2.0 ** (alpha * e) for e in range(int(extra.max()) + 1)])[extra]
    sums[~ok] = 0.0
    np.cumsum(sums, out=sums)
    marks = sorted({X, X // 4, X // 2} - {0})
    at = dict(zip(marks, sums[marks].tolist()))
    return at[X], [(d, s / d / math.log(d) ** exponent if d >= 2 else s) for d, s in at.items()]
