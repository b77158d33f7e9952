"""Integer polynomials and binary forms: parsing, evaluation,
discriminants, square-freeness, rational factorization."""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class IntPoly:
    """Univariate integer polynomial; coeffs[i] is the coefficient of x^i."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(a) for a in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    @property
    def lead(self) -> int:
        return self.coeffs[-1]

    def __call__(self, x: int) -> int:
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc

    def derivative(self) -> "IntPoly":
        if len(self.coeffs) == 1:
            return IntPoly((0,))
        return IntPoly(tuple(i * a for i, a in enumerate(self.coeffs) if i >= 1))

    def content(self) -> int:
        g = 0
        for a in self.coeffs:
            g = math.gcd(g, a)
        return g

    def primitive(self) -> "IntPoly":
        c = self.content()
        if c == 0:
            raise ValueError("zero polynomial")
        sign = 1 if self.lead > 0 else -1
        return IntPoly(tuple(a // (c * sign) for a in self.coeffs))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    def __str__(self) -> str:
        return format_poly(self.coeffs, "x")


@dataclass(frozen=True)
class BinForm:
    """Homogeneous form F(x, z) = sum a_i x^i z^(d-i); coeffs[i] = a_i."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(a) for a in self.coeffs)
        if all(a == 0 for a in c):
            raise ValueError("zero form")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int, z: int) -> int:
        d = self.degree
        return sum(a * x**i * z ** (d - i) for i, a in enumerate(self.coeffs))

    def on_x_chart(self) -> IntPoly:
        """F(x, 1) as a univariate polynomial in x."""
        return IntPoly(self.coeffs)

    def on_z_chart(self) -> IntPoly:
        """F(1, z) as a univariate polynomial in z."""
        return IntPoly(tuple(reversed(self.coeffs)))

    def content(self) -> int:
        return self.on_x_chart().content()

    def __str__(self) -> str:
        return format_poly(self.coeffs, "x", "z")


def _monomial(a: int, vars_: list[tuple[str, int]]) -> str:
    body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in vars_ if e)
    if not body:
        return str(a)
    if a == 1:
        return body
    if a == -1:
        return f"-{body}"
    return f"{a}*{body}"


def format_poly(coeffs, var: str, var2: str | None = None) -> str:
    """sum coeffs[i] var^i as text, highest power first; given var2, the
    form sum coeffs[i] var^i var2^(d-i) of degree d = len(coeffs) - 1."""
    d = len(coeffs) - 1
    parts = [
        _monomial(coeffs[i], [(var, i), (var2, d - i if var2 else 0)]) for i in range(d, -1, -1) if coeffs[i]
    ]
    if not parts:
        return "0"
    return parts[0] + "".join(f" - {m[1:]}" if m[0] == "-" else f" + {m}" for m in parts[1:])


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(r"\s*(\d+|[a-zA-Z]|\^|\*|\+|\-|\(|\))")


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def _parse_terms(text: str) -> list[dict[str, int] | int]:
    """Parse into a list of monomials: (coefficient, exponent map)."""
    tokens = _tokenize(text)
    i = 0
    monomials = []

    def parse_term():
        nonlocal i
        coeff = 1
        exps: dict[str, int] = {}
        expect_factor = True
        while i < len(tokens):
            tok, pos = tokens[i]
            if tok in "+-" and not expect_factor:
                break
            if tok == "+":
                i += 1
                continue
            if tok == "-":
                coeff = -coeff
                i += 1
                continue
            if tok == "*":
                if expect_factor:
                    raise ParseError("unexpected '*'", pos)
                expect_factor = True
                i += 1
                continue
            if tok.isdigit():
                coeff *= int(tok)
                expect_factor = False
                i += 1
            elif tok.isalpha():
                var = tok
                i += 1
                e = 1
                if i < len(tokens) and tokens[i][0] == "^":
                    i += 1
                    if i >= len(tokens) or not tokens[i][0].isdigit():
                        raise ParseError("exponent expected after '^'", pos)
                    e = int(tokens[i][0])
                    i += 1
                exps[var] = exps.get(var, 0) + e
                expect_factor = False
            else:
                raise ParseError(f"unexpected token {tok!r}", pos)
        if expect_factor:
            raise ParseError("dangling operator", tokens[-1][1] if tokens else 0)
        return coeff, exps

    if not tokens:
        raise ParseError("empty input", 0)
    while i < len(tokens):
        monomials.append(parse_term())
    return monomials


def parse(text: str, kind: str = "univariate"):
    """Parse polynomial text.

    kind='univariate' -> IntPoly in x; kind='form' -> BinForm in x and z
    (y accepted as a synonym for z), verified homogeneous.
    """
    monomials = _parse_terms(text)
    if kind == "univariate":
        coeffs: dict[int, int] = {}
        for c, exps in monomials:
            bad = set(exps) - {"x"}
            if bad:
                raise ParseError(f"unexpected variable {bad.pop()!r}", 0)
            e = exps.get("x", 0)
            coeffs[e] = coeffs.get(e, 0) + c
        deg = max(coeffs) if coeffs else 0
        return IntPoly(tuple(coeffs.get(i, 0) for i in range(deg + 1)))
    if kind == "form":
        terms = []
        for c, exps in monomials:
            bad = set(exps) - {"x", "y", "z"}
            if bad:
                raise ParseError(f"unexpected variable {bad.pop()!r}", 0)
            ex = exps.get("x", 0)
            ez = exps.get("z", 0) + exps.get("y", 0)
            terms.append((c, ex, ez))
        degs = {ex + ez for _, ex, ez in terms}
        if len(degs) != 1:
            raise ParseError("form is not homogeneous", 0)
        d = degs.pop()
        coeffs2 = [0] * (d + 1)
        for c, ex, _ in terms:
            coeffs2[ex] += c
        return BinForm(tuple(coeffs2))
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Resultants and discriminants


def _bareiss_det(m: list[list[int]]) -> int:
    """Integer determinant by Bareiss fraction-free elimination."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(p: IntPoly, q: IntPoly) -> int:
    """Res(p, q) via the Sylvester matrix."""
    dp, dq = p.degree, q.degree
    if dp == 0:
        return p.coeffs[0] ** dq
    if dq == 0:
        return q.coeffs[0] ** dp
    n = dp + dq
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(dq):
        rows.append([0] * i + pc + [0] * (n - dp - 1 - i))
    for i in range(dp):
        rows.append([0] * i + qc + [0] * (n - dq - 1 - i))
    return _bareiss_det(rows)


def discriminant(p: IntPoly) -> int:
    """Disc(P) = (-1)^(d(d-1)/2) * Res(P, P') / lead(P)."""
    d = p.degree
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d == 1:
        return 1
    res = resultant(p, p.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res // p.lead


def is_squarefree_poly(p) -> bool:
    """True iff P has no repeated factor over Q: Disc(P) != 0, which holds
    exactly when gcd(P, P') is constant (forms: both charts plus the
    monomial factors x, z checked for multiplicity)."""
    if isinstance(p, BinForm):
        c = p.coeffs
        vx = next(i for i, a in enumerate(c) if a != 0)
        vz = next(i for i, a in enumerate(reversed(c)) if a != 0)
        if vx > 1 or vz > 1:
            return False
        core = c[vx : len(c) - vz]
        if len(core) == 1:
            return True
        return is_squarefree_poly(IntPoly(core))
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return True
    return discriminant(p) != 0


def require_squarefree(p: IntPoly | BinForm) -> None:
    """Raise ValueError unless P has no repeated factor over Q: the one
    gate of every entry point whose answer is defined only for square-free
    P."""
    if not is_squarefree_poly(p):
        kind = "form" if isinstance(p, BinForm) else "polynomial"
        raise ValueError(f"{kind} must be square-free")


# ---------------------------------------------------------------------------
# Rational factorization (Kronecker)


def _divide_exact(p: IntPoly, q: IntPoly) -> IntPoly | None:
    """p / q over Q if exact and the quotient is integral, else None."""
    rem = [Fraction(a) for a in p.coeffs]
    qd = q.degree
    out = [Fraction(0)] * (p.degree - qd + 1)
    for shift in range(p.degree - qd, -1, -1):
        c = rem[shift + qd] / q.coeffs[-1]
        out[shift] = c
        for i, bi in enumerate(q.coeffs):
            rem[shift + i] -= c * bi
    if any(r != 0 for r in rem):
        return None
    if any(c.denominator != 1 for c in out):
        return None
    return IntPoly(tuple(int(c) for c in out))


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _interpolate(points: list[tuple[int, int]]) -> list[Fraction]:
    """Lagrange interpolation; returns coefficient list (low to high)."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, bk in enumerate(basis):
                new[k] += bk * (-xj)
                new[k + 1] += bk
            basis = new
            denom *= xi - xj
        w = Fraction(yi) / denom
        for k, bk in enumerate(basis):
            coeffs[k] += w * bk
    return coeffs


def _kronecker_factor(p: IntPoly) -> IntPoly | None:
    """A nontrivial factor of the primitive polynomial p, or None."""
    deg = p.degree
    # pick evaluation points with small nonzero values
    pts = []
    for x in itertools.chain([0], *[(k, -k) for k in range(1, deg + 12)]):
        v = p(x)
        if v != 0:
            pts.append((x, v))
        if len(pts) >= deg + 1:
            break
    pts.sort(key=lambda t: abs(t[1]))
    for g in range(1, deg // 2 + 1):
        use = pts[: g + 1]
        div_lists = []
        for idx, (_, v) in enumerate(use):
            ds = _divisors(v)
            if idx == 0:
                div_lists.append(ds)  # sign of the factor normalized here
            else:
                div_lists.append([d for dd in ds for d in (dd, -dd)])
        for combo in itertools.product(*div_lists):
            coeffs = _interpolate([(x, y) for (x, _), y in zip(use, combo)])
            if any(c.denominator != 1 for c in coeffs):
                continue
            cand = IntPoly(tuple(int(c) for c in coeffs))
            if cand.is_zero or cand.degree != g:
                continue
            q = _divide_exact(p, cand)
            if q is not None:
                return cand
    return None


def factor_rational(p: IntPoly) -> tuple[int, int, list[tuple[IntPoly, int]]]:
    """Factor over Q: returns (sign, content, [(irreducible primitive
    factor with positive lead, multiplicity), ...])."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree > 8:
        raise ValueError("degree > 8 unsupported (Kronecker method)")
    content = p.content()
    sign = 1 if p.lead > 0 else -1
    factors: dict[tuple[int, ...], int] = {}
    stack = [p.primitive()]
    while stack:
        q = stack.pop()
        if q.degree == 0:
            continue
        f = _kronecker_factor(q)
        if f is None:
            f_norm = q.primitive()
            factors[f_norm.coeffs] = factors.get(f_norm.coeffs, 0) + 1
        else:
            stack.append(f)
            cof = _divide_exact(q, f)
            assert cof is not None
            stack.append(cof)
    out = sorted(factors.items(), key=lambda t: (len(t[0]), t[0]))
    return sign, content, [(IntPoly(c), m) for c, m in out]
