"""Finite-index lattices in Z^2, angular sectors, exact coprime-point
counting in boxes, and the congruence lattices attached to a binary
form."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import localdens
from .poly import BinForm

SQFREE_DENSITY = 6 / math.pi**2


@dataclass(frozen=True)
class Lattice2:
    """Sublattice of Z^2 in Hermite normal form: basis (d1, 0), (s, d2)
    with d1, d2 >= 1 and 0 <= s < d1.  index = d1*d2."""

    d1: int
    d2: int
    s: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1 or not 0 <= self.s < self.d1:
            raise ValueError("invalid HNF data")

    @property
    def index(self) -> int:
        return self.d1 * self.d2

    def contains(self, x: int, y: int) -> bool:
        if y % self.d2:
            return False
        return (x - (y // self.d2) * self.s) % self.d1 == 0

    def is_primitive(self) -> bool:
        """True unless L = l*L' for some integer l > 1."""
        return math.gcd(self.d1, self.d2, self.s) == 1


def from_generators(v1: tuple[int, int], v2: tuple[int, int]) -> Lattice2:
    """HNF of the lattice spanned by v1, v2 (must have nonzero det)."""
    (a, b), (c, d) = v1, v2
    det = abs(a * d - b * c)
    if det == 0:
        raise ValueError("generators are linearly dependent")
    g = math.gcd(b, d)
    # combination with y-coordinate +g
    if b == 0:
        s0 = c if d > 0 else -c
    elif d == 0:
        s0 = a if b > 0 else -a
    else:
        gg, u, v = _egcd(b, d)
        s0 = u * a + v * c
    d2 = g
    d1 = det // d2
    return Lattice2(d1, d2, s0 % d1)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return abs(a), (1 if a >= 0 else -1), 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def from_congruence(r: int, m: int, axis: str = "x") -> Lattice2:
    """The index-m lattice {(x,y) : x = r*y mod m} (axis 'x'), or
    {(x,y) : y = r*x mod m} (axis 'y')."""
    if m < 1 or not 0 <= r < m:
        raise ValueError("need m >= 1 and 0 <= r < m")
    if axis == "x":
        return from_generators((m, 0), (r, 1))
    if axis == "y":
        return from_generators((1, r), (0, m))
    raise ValueError("axis must be 'x' or 'y'")


# ---------------------------------------------------------------------------
# Sectors


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _same_dir(u, v) -> bool:
    return _cross(u, v) == 0 and u[0] * v[0] + u[1] * v[1] > 0


@dataclass(frozen=True)
class Sector:
    """Angular sector from ray a counterclockwise to ray b: the ray a is
    included, the ray b is excluded (a boundary ray belongs to the
    component counterclockwise of it).  a = b = None is the full plane;
    a parallel and equal to b also denotes the full plane."""

    a: tuple[int, int] | None = None
    b: tuple[int, int] | None = None

    def __post_init__(self):
        if (self.a is None) != (self.b is None):
            raise ValueError("give both rays or neither")
        if self.a is not None and (self.a == (0, 0) or self.b == (0, 0)):
            raise ValueError("rays must be nonzero")

    def contains(self, x: int, y: int) -> bool:
        if self.a is None or _same_dir(self.a, self.b):
            return True
        if x == 0 and y == 0:
            return True
        v = (x, y)
        if _same_dir(v, self.a):
            return True
        if _same_dir(v, self.b):
            return False
        cab = _cross(self.a, self.b)
        cav = _cross(self.a, v)
        cvb = _cross(v, self.b)
        if cab > 0:
            return cav > 0 and cvb > 0
        if cab < 0:
            return cav > 0 or cvb > 0
        # opposite rays: open half-plane on the counterclockwise side of a
        return cav > 0

    def mask(self, xs: np.ndarray, y: int) -> np.ndarray:
        """Vectorized membership for the points (xs[i], y), or (xs[i], y[i])
        for an array y of the same length."""
        if self.a is None or _same_dir(self.a, self.b):
            return np.ones(len(xs), dtype=bool)
        ax, ay = self.a
        bx, by = self.b
        cav = ax * y - ay * xs
        cvb = xs * by - y * bx
        dav = ax * xs + ay * y
        dvb = bx * xs + by * y
        origin = (xs == 0) & (y == 0)
        on_a = (cav == 0) & (dav > 0)
        on_b = (cvb == 0) & (dvb > 0)
        cab = _cross(self.a, self.b)
        if cab > 0:
            inside = (cav > 0) & (cvb > 0)
        elif cab < 0:
            inside = (cav > 0) | (cvb > 0)
        else:
            inside = cav > 0
        return origin | on_a | (inside & ~on_b)

    def box_area(self, n: int) -> float:
        """Area of the sector intersected with [-N, N]^2."""
        box = 4.0 * n * n
        if self.a is None or _same_dir(self.a, self.b):
            return box
        cab = _cross(self.a, self.b)
        if cab > 0 or (cab == 0 and not _same_dir(self.a, self.b)):
            return _wedge_box_area(self.a, self.b, n)
        # reflex wedge: complement of the convex wedge [b, a)
        return box - _wedge_box_area(self.b, self.a, n)


def _wedge_box_area(a, b, n: int) -> float:
    """Area of the convex wedge {cross(a,v) >= 0, cross(v,b) >= 0} in
    [-N, N]^2, by Sutherland-Hodgman clipping."""
    poly = [(-n, -n), (n, -n), (n, n), (-n, n)]
    poly = _clip(poly, (-a[1], a[0]))  # cross(a, v) >= 0
    poly = _clip(poly, (b[1], -b[0]))  # cross(v, b) >= 0
    if len(poly) < 3:
        return 0.0
    area = 0.0
    for i in range(len(poly)):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % len(poly)]
        area += x0 * y1 - x1 * y0
    return abs(area) / 2


def _clip(poly, normal):
    nx, ny = normal
    out = []
    m = len(poly)
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        dp = nx * p[0] + ny * p[1]
        dq = nx * q[0] + ny * q[1]
        if dp >= 0:
            out.append(p)
        if (dp < 0) != (dq < 0):
            t = dp / (dp - dq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


# ---------------------------------------------------------------------------
# Counting


def count_coprime(L: Lattice2, n: int, S: Sector | None = None) -> int:
    """Exact #{(x,y) in [-N,N]^2, in L, in S, gcd(x,y) = 1}."""
    if n < 1:
        raise ValueError("N must be >= 1")
    total = 0
    for y in range(-(n // L.d2) * L.d2, n + 1, L.d2):
        x0 = (y // L.d2) * L.s % L.d1
        start = x0 - ((x0 + n) // L.d1) * L.d1
        xs = np.arange(start, n + 1, L.d1, dtype=np.int64)
        if len(xs) == 0:
            continue
        ok = np.gcd(np.abs(xs), abs(y)) == 1
        if S is not None:
            ok &= S.mask(xs, y)
        total += int(np.count_nonzero(ok))
    return total


def penult_estimate(L: Lattice2, n: int, S: Sector | None = None) -> float:
    """Main term Area(S in box)/index * 6/pi^2 for the coprime count."""
    if not L.is_primitive():
        raise ValueError("lattice is a proper multiple of another lattice")
    area = S.box_area(n) if S is not None else 4.0 * n * n
    return area / L.index * SQFREE_DENSITY


def solution_lattices(F: BinForm, p: int, n: int) -> list[Lattice2]:
    """Congruence lattices whose coprime parts partition the coprime
    solutions of p^n | F(x,y): x = r*y mod p^e for the x-chart root
    classes, y = r'*x mod p^e for the z-chart classes with p | r'."""
    out = []
    for axis, r, e in localdens.solution_classes_form(F, p, n):
        out.append(from_congruence(r % p**e, p**e, axis))
    return out


def min_maxnorm(L: Lattice2) -> int:
    """min over nonzero lattice points of max(|x|, |y|)."""
    best = L.d1  # the point (d1, 0)
    y = L.d2
    while y < best:
        x0 = (y // L.d2) * L.s % L.d1
        xmin = min(x0, L.d1 - x0)
        best = min(best, max(xmin, y))
        y += L.d2
    return best
