import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sievecraft import kernels, modp, numutil
from sievecraft.poly import IntPoly, discriminant, is_squarefree_poly


def squarefree_mask(n):
    """uint8 array of length n+1; entry i is 1 iff i is square-free (i >= 1),
    entry 0 is 0: sieved by the squares of the primes up to sqrt(n)."""
    mask = np.ones(n + 1, dtype=np.uint8)
    mask[0] = 0
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:  # p survived, so no q^2 <= p divides it: p is prime
            mask[p * p :: p * p] = 0
    return mask


def value_square_blocks(coeffs, n, b):
    """The square profile of P: kernels.value_power_blocks for m = 2 read by
    kernels.square_entries.  Yields (lo, xs, ps, vs, rem) for the blocks
    [lo, hi) that cover 1..N: v_p(P(x)) = v >= 2 for p <= B at lo <= x < hi,
    and rem[x - lo] = |P(x)| with every prime factor <= B removed, 0 where
    P(x) = 0."""
    for lo, cells, ps, rem in kernels.value_power_blocks(coeffs, n, b, 2):
        cells, ps, vs = kernels.square_entries(cells, ps, rem)
        yield lo, cells + lo, ps, vs, rem


def value_square_profile(coeffs, n, b):
    """value_square_blocks over all of x = 1..N in one piece.

    Returns (xs, ps, vs, rem): the entries of every block, and rem of
    length N+1 with rem[x] as in the blocks and rem[0] = 1 unused."""
    rem = np.ones(n + 1, dtype=np.int64)
    parts = [tuple(np.zeros(0, dtype=np.int64) for _ in range(3))]
    for lo, xs, ps, vs, r in value_square_blocks(coeffs, n, b):
        rem[lo : lo + r.size] = r
        parts.append((xs, ps, vs))
    return (*(np.concatenate(a) for a in zip(*parts)), rem)


def value_square_profile_alt(coeffs, n, b):
    """Independent recount of value_square_blocks over all of 1..N at once:
    one pass per prime p <= B, dividing p out of the Python-int value at
    every x, entries ordered by p; what is left of |P(x)|, content primes
    beyond B included, is the remainder (rem[0] = 1 unused)."""
    rem = [1] + [abs(sum(a * x**i for i, a in enumerate(coeffs))) for x in range(1, n + 1)]
    out = []
    for p in kernels.prime_sieve(b).tolist():
        for x in range(1, n + 1):
            v = 0
            while rem[x] and rem[x] % p == 0:
                rem[x] //= p
                v += 1
            if v >= 2:
                out.append((x, p, v))
    xs, ps, vs = (np.array([e[k] for e in out], dtype=np.int64) for k in range(3))
    return xs, ps, vs, np.array(rem, dtype=np.int64)


def form_profile_blocks(coeffs, xlo, xhi, zlo, zhi, b, rows, coprime=False):
    """The square profile of a form: kernels.form_power_blocks read by
    kernels.square_entries, (zs, cells, ps, vs, rem) per block."""
    for zs, cells, ps, rem in kernels.form_power_blocks(coeffs, xlo, xhi, zlo, zhi, b, rows, coprime):
        yield (zs, *kernels.square_entries(cells, ps, rem), rem)


def square_roots(rem):
    """{i: s} at the entries rem[i] = s^2 > 1 of an array, by math.isqrt."""
    return {i: math.isqrt(v) for i, v in enumerate(rem.tolist()) if v > 1 and math.isqrt(v) ** 2 == v}


@st.composite
def value_polys(draw):
    """(P, N): square-free P = content * (x - r_1) ... (x - r_k) * g, with
    integer roots r_i mostly in 1..N (so zeros fall mid-block), negative
    values, the leading coefficient divisible by 2, 3, 5 or a prime <= 43,
    and content 1, 4, 12, 18 or 28 (v_p(content) >= 2 at 2 or 3, and 7
    beyond the smallest trial bounds)."""
    n = draw(st.integers(1, 70))
    roots = draw(st.lists(st.integers(-3, n), max_size=2, unique=True))
    lead = draw(st.sampled_from([1, -1, 2, -3, 5, 30, 43, -41, 2 * 37]))
    coeffs = draw(st.lists(st.integers(-6, 6), max_size=2)) + [lead]
    for r in roots:  # coeffs *= (x - r)
        coeffs = [a - r * c for a, c in zip([0] + coeffs, coeffs + [0])]
    content = draw(st.sampled_from([1, 4, 12, 18, 28]))
    P = IntPoly(tuple(content * a for a in coeffs))
    assume(is_squarefree_poly(P))
    return P, n


# values per block: single values, a few, the default and more than N
BLOCK_SIZES = st.sampled_from([1, 2, 7, 4096, 10**4])


def test_prime_sieve():
    assert kernels.prime_sieve(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert kernels.prime_sieve(1).size == 0


def test_squarefree_mask_oracle():
    mask = squarefree_mask(200)
    for n in range(1, 201):
        assert mask[n] == (numutil.mobius(n) != 0)


def test_poly_roots_mod_p_oracle():
    rng = random.Random(11)
    primes = kernels.prime_sieve(200)
    for _ in range(150):
        coeffs = [rng.randint(-20, 20) for _ in range(rng.randint(1, 7))]
        p = int(rng.choice(primes))
        if all(a % p == 0 for a in coeffs):
            continue
        expect = sorted(
            x for x in range(p) if sum(a * x**i for i, a in enumerate(coeffs)) % p == 0
        )
        assert kernels.poly_roots_mod_p(coeffs, p) == expect, (coeffs, p)
    # (x - 1)^47 (x - 2) mod 47: a root whose multiplicity p divides
    coeffs = [1]
    for r in [1] * 47 + [2]:  # coeffs *= (x - r)
        coeffs = [a - r * c for a, c in zip([0] + coeffs, coeffs + [0])]
    expect = [x for x in range(47) if sum(a * x**i for i, a in enumerate(coeffs)) % 47 == 0]
    assert kernels.poly_roots_mod_p(coeffs, 47) == expect == [1, 2]
    starts, roots = kernels.roots_mod_primes(coeffs, [47])
    assert roots.tolist() == expect


def test_poly_roots_large_prime():
    # x^3 + 2 mod 10007: oracle by direct scan
    p = 10007
    expect = sorted(x for x in range(p) if (x**3 + 2) % p == 0)
    assert kernels.poly_roots_mod_p([2, 0, 0, 1], p) == expect


def test_value_square_profile_oracle():
    # Trial-division oracle: exact (x, p, v_p(P(x))) for v >= 2, p <= b,
    # and the cofactor of P(x) after removing all primes <= b.
    coeffs = [2, 0, 0, 1]
    n, b = 400, 11
    xs, ps, vs, rem = value_square_profile(coeffs, n, b)
    triples = set(zip(xs.tolist(), ps.tolist(), vs.tolist()))
    expect = set()
    for x in range(1, n + 1):
        val = x**3 + 2
        for p in (2, 3, 5, 7, 11):
            v = 0
            while val % p == 0:
                val //= p
                v += 1
            if v >= 2:
                expect.add((x, p, v))
        assert rem[x] == val, x
    assert triples == expect


@settings(max_examples=100, deadline=None)
@given(value_polys(), st.sampled_from([3, 5, 11, 50, 10**4]), BLOCK_SIZES)
def test_value_square_blocks_vs_whole_range(case, b, size):
    # the blocks tile 1..N in order, hold only their own x, list each x's
    # entries in ascending p, and together give the whole-range profile
    P, n = case
    with mock.patch.object(kernels, "_VALUE_BLOCK", size):
        blocks = list(value_square_blocks(P.coeffs, n, b))
        whole = value_square_profile(P.coeffs, n, b)
    assert [lo for lo, *_ in blocks] == list(range(1, n + 1, size))
    xs, ps, vs, rem = value_square_profile_alt(P.coeffs, n, b)
    expect = sorted(zip(xs.tolist(), ps.tolist(), vs.tolist()))
    got = []
    for lo, bx, bp, bv, brem in blocks:
        assert brem.size == min(size, n + 1 - lo)
        assert brem.tolist() == rem[lo : lo + brem.size].tolist()
        assert ((bx >= lo) & (bx < lo + brem.size)).all()
        entries = list(zip(bx.tolist(), bp.tolist(), bv.tolist()))
        last = {}
        for x, p, _ in entries:
            assert last.get(x, 0) < p
            last[x] = p
        got += entries
    assert sorted(got) == expect and len(got) == len(expect)
    assert sorted(zip(*(a.tolist() for a in whole[:3]))) == expect
    assert whole[3].tolist() == rem.tolist()


def test_value_square_blocks_limits():
    # checked before the first block
    with pytest.raises(OverflowError):
        next(value_square_blocks([1, 0, 0, 0, 1], 2**16, 10))
    # the content prime 5 beyond B = 3 stays in every remainder:
    # rem = 5 (x + 1) without its factors 2 and 3
    ((lo, xs, ps, vs, rem),) = value_square_blocks([5, 5], 10, 3)
    assert rem.tolist() == [5, 5, 5, 25, 5, 35, 5, 5, 25, 55]
    assert sorted(zip(xs.tolist(), ps.tolist(), vs.tolist())) == [(3, 2, 2), (7, 2, 3), (8, 3, 2)]
    assert list(value_square_blocks([1, 1], 0, 10)) == []
    # a constant with 2^2 * 3 in its content: (x, 2, 2) at every x
    ((lo, xs, ps, vs, rem),) = value_square_blocks([12], 5, 3)
    assert (lo, xs.tolist(), ps.tolist(), vs.tolist()) == (1, [1, 2, 3, 4, 5], [2] * 5, [2] * 5)
    assert rem.tolist() == [1] * 5


def _strip_sizes(strip):
    """The sizes of the values passed to each call of a mocked _strip."""
    return [np.size(call.args[0]) for call in strip.call_args_list]


@pytest.mark.parametrize(
    "coeffs,n,b",
    [
        ([0, 1], 10**4, 100),
        ([1, 0, 1], 10**4, 10**4),
        # 12 (x - 7)(5 x^2 - 3 x + 2), of value_polys' kind: content 12, a
        # zero at x = 7, the lead 5 * 12
        ([-168, 276, -456, 60], 70, 50),
        # 4 (x^2 + 1): the content prime 2 gives an entry at every x
        ([4, 0, 4], 100, 50),
    ],
)
def test_value_square_blocks_divides_only_at_entries(coeffs, n, b):
    # v_p is found only at the entries v_p >= 2, content primes included:
    # one strip per block whose sizes add up to the number of entries,
    # fewer than the hits (x, p), p | P(x) / content
    with mock.patch.object(kernels, "_strip", wraps=kernels._strip) as strip:
        blocks = list(value_square_blocks(coeffs, n, b))
    prim, _ = kernels._primitive(coeffs)
    values = [sum(a * x**i for i, a in enumerate(prim)) for x in range(n + 1)]
    primes = kernels.prime_sieve(b).tolist()
    hits = sum(1 for x in range(1, n + 1) for p in primes if values[x] and values[x] % p == 0)
    entries = sum(xs.size for _, xs, *_ in blocks)
    assert len(_strip_sizes(strip)) == len(blocks) and sum(_strip_sizes(strip)) == entries
    assert entries < hits


@pytest.mark.parametrize("coeffs", [[2, 0, 0, 1], [36, 0, 12, 0]])
@pytest.mark.parametrize("coprime", [False, True])
def test_square_entries_strips_only_form_entries(coeffs, coprime):
    # the census stream of a form finds no v_p, and square_entries finds it
    # at the stream's cells only, the square content's included (12 x^2 z +
    # 36 z^3): fewer than the hits (pair, p) with p | F(x, z) != 0
    box = (-20, 20, -20, 20, 40, 7, coprime)
    with mock.patch.object(kernels, "_strip", wraps=kernels._strip) as strip:
        cells = sum(c.size for _, c, _, _ in kernels.form_power_blocks(coeffs, *box))
        assert not strip.called
        entries = sum(c.size for _, c, *_ in form_profile_blocks(coeffs, *box))
    assert sum(_strip_sizes(strip)) == entries == cells > 0
    values = kernels.form_values(coeffs, np.arange(-20, 21), np.arange(-20, 21)).ravel().tolist()
    primes = kernels.prime_sieve(40).tolist()
    assert entries < sum(1 for v in values for p in primes if v and v % p == 0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=5).filter(any),
    st.sampled_from([1, 2, 3, 5, 30]),
    st.sampled_from([1, 2, 4, 12, 7 * 9]),
    st.integers(-7, 3),
    st.integers(0, 9),
    st.integers(-7, 3),
    st.integers(0, 9),
    st.integers(1, 40),
    st.integers(1, 11),
    st.booleans(),
)
def test_form_square_profile_oracle(coeffs, lead, content, xlo, w, zlo, h, b, rows, coprime):
    # trial-division oracle: (cell, p, v_p(F)) for v >= 2 and p <= b, and
    # the cofactor of |F| after removing all primes <= b, at every pair,
    # over blocks of 1 to 11 rows; the x^d coefficient times 2, 3, 5 or
    # 30 keeps the rows with p | z whole in coprime mode.  In coprime mode
    # only the coprime pairs are compared, and elsewhere 0 <= rem <= |F|
    # with rem = 0 exactly where F = 0.  The census stream under it: the
    # cells (cell, p) with p^2 | F != 0, and |F| divided once by each p | F
    coeffs = [content * a for a in coeffs[:-1] + [lead * coeffs[-1]]]
    d = len(coeffs) - 1
    primes = kernels.prime_sieve(b).tolist()
    expect, rem, once, size, keep = set(), [], [], [], []
    for z in range(zlo, zlo + h + 1):
        for x in range(xlo, xlo + w + 1):
            val = abs(sum(a * x**i * z ** (d - i) for i, a in enumerate(coeffs)))
            size.append(val)
            keep.append(not coprime or math.gcd(x, z) == 1)
            once.append(val)
            for p in primes if val else []:
                v = 0
                while val % p == 0:
                    val //= p
                    v += 1
                once[-1] //= p if v else 1
                if v >= 2 and keep[-1]:
                    expect.add(((z - zlo) * (w + 1) + x - xlo, p, v))
            rem.append(val)
    box = (coeffs, xlo, xlo + w, zlo, zlo + h, b, rows, coprime)
    stream = list(kernels.form_power_blocks(*box))
    got = [
        ((zs[0] - zlo) * (w + 1) + c, p)
        for zs, cells, ps, _ in stream
        for c, p in zip(cells.tolist(), ps.tolist())
    ]
    got = [e for e in got if keep[e[0]]]
    assert set(got) == {e[:2] for e in expect} and len(got) == len(expect)
    out = np.concatenate([r for *_, r in stream]).tolist()
    assert [r for r, k in zip(out, keep) if k] == [e for e, k in zip(once, keep) if k]
    blocks = list(form_profile_blocks(*box))
    assert np.concatenate([zs for zs, *_ in blocks]).tolist() == list(range(zlo, zlo + h + 1))
    got = [
        ((zs[0] - zlo) * (w + 1) + c, p, v)
        for zs, cells, ps, vs, _ in blocks
        for c, p, v in zip(cells.tolist(), ps.tolist(), vs.tolist())
    ]
    got = [e for e in got if keep[e[0]]]
    assert set(got) == expect and len(got) == len(expect)
    out = np.concatenate([r for *_, r in blocks]).tolist()
    assert len(out) == len(rem)
    for r, e, f, k in zip(out, rem, size, keep):
        assert r == e if k else (0 <= r <= f and (r == 0) == (f == 0))


@pytest.mark.parametrize("coeffs", [[72, 0, 0, 36], [12, 0, 12, 0]])
@pytest.mark.parametrize("coprime", [False, True])
@pytest.mark.parametrize("rows", [1, 3, 7])
def test_form_square_blocks_entries_in_ascending_p(coeffs, coprime, rows):
    # each cell's entries come in ascending p, the square content's included
    # (36x^3 + 72z^3 and 12x^2z + 12z^3): empirical_average_form multiplies
    # its rule values in that order
    several = False
    for _, cells, ps, _, _ in form_profile_blocks(coeffs, -15, 15, -15, 15, 50, rows, coprime):
        order = np.argsort(cells, kind="stable")
        c, p = cells[order], ps[order]
        same = c[1:] == c[:-1]
        assert (p[1:][same] > p[:-1][same]).all()
        several |= bool(same.any())
    assert several


def test_form_square_profile_limits():
    with pytest.raises(OverflowError):
        next(form_profile_blocks([1, 0, 0, 0, 1], -2**16, 2**16, 0, 0, 10, 1))
    # a constant form whose content 5 lies beyond B = 3 stays in the remainder
    ((zs, cells, ps, vs, rem),) = form_profile_blocks([5], 0, 2, 0, 1, 3, 2)
    assert cells.size == 0 and rem.tolist() == [5] * 6


# ---------------------------------------------------------------------------
# roots_mod_primes: the batched root finder against the scalar one


def _batched(coeffs, primes):
    starts, roots = kernels.roots_mod_primes(coeffs, primes)
    assert starts.tolist() == sorted(starts.tolist()) and starts[-1] == roots.size
    return [roots[starts[i] : starts[i + 1]].tolist() for i in range(len(primes))]


# beyond the scalar cut at 43, the largest batched prime 2^26 - 5 (residue
# products just below 2^52) and the next prime, 2^26 + 15, which goes through
# poly_roots_mod_p, as do 2^31 - 1 and 2^31 + 11
_PRIMES = kernels.prime_sieve(400).tolist() + [10007, 65537, 67108859, 67108879, 2147483647, 2147483659]


@st.composite
def _polys(draw):
    """lead * prod (x - r_i) + m * noise: roots drawn from a short range
    repeat, so Disc is divisible by the primes of m (some above 43), and
    the leading coefficient carries small and not-so-small primes.  Or a
    binomial x^d + c, whose factors the shift a = 0 never splits."""
    if draw(st.booleans()):
        return [draw(st.integers(-40, 40).filter(bool))] + [0] * (draw(st.integers(2, 6)) - 1) + [1]
    deg = draw(st.integers(1, 6))
    roots = draw(st.lists(st.integers(-6, 6), min_size=deg, max_size=deg))
    lead = draw(st.sampled_from([1, -1, 2, 3, 6, -30, 47, 2 * 59, 210]))
    m = draw(st.sampled_from([0, 1, 2, 6, 30, 47, 2 * 53]))
    noise = draw(st.lists(st.integers(-9, 9), min_size=deg, max_size=deg))
    coeffs = [lead]
    for r in roots:  # coeffs *= (x - r)
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return [a + m * b for a, b in zip(coeffs, noise + [0])]


@settings(max_examples=150, deadline=None)
@given(_polys())
def test_roots_mod_primes_vs_scalar(coeffs):
    cont = 0
    for a in coeffs:
        cont = math.gcd(cont, a)
    primes = [p for p in _PRIMES if cont % p]
    expect = [kernels.poly_roots_mod_p(coeffs, p) for p in primes]
    assert _batched(coeffs, primes) == expect


def test_roots_mod_primes_edge_cases():
    # _PRIMES straddles the batch limit
    assert 67108859 < kernels._BATCH_P_LIMIT <= 67108879
    assert _batched([5], [2, 3, 47, 101]) == [[], [], [], []]
    assert _batched([0, 0, 1], [2, 53]) == [[0], [0]]  # repeated root
    assert _batched([2, 0, 0, 1], []) == []
    with pytest.raises(ValueError):  # vanishes identically mod 47
        kernels.roots_mod_primes([47, 94], [53, 47])
    # above _BATCH_MAX_DEG the int64 sums could overflow: every prime goes
    # through poly_roots_mod_p
    primes = [53, 97, 101]
    expect = [kernels.poly_roots_mod_p([2, 0, 0, 1], p) for p in primes]
    with mock.patch.object(kernels, "_BATCH_MAX_DEG", 2):
        with mock.patch.object(kernels, "poly_roots_mod_p", wraps=kernels.poly_roots_mod_p) as scalar:
            assert _batched([2, 0, 0, 1], primes) == expect
    assert scalar.call_count == len(primes)


def test_roots_mod_primes_exhaustive():
    # every p <= 1e5, checked by the number theory of each polynomial
    primes = kernels.prime_sieve(10**5).tolist()
    assert _batched([0, 1], primes) == [[0]] * len(primes)
    for p, roots in zip(primes, _batched([1, 0, 1], primes)):
        # x^2 + 1: -1 is a square mod odd p iff p = 1 mod 4
        assert len(roots) == (1 if p == 2 else 2 if p % 4 == 1 else 0), p
        assert all((r * r + 1) % p == 0 for r in roots)
        assert roots == sorted(set(roots))
    for p, roots in zip(primes, _batched([2, 0, 0, 1], primes)):
        # x^3 + 2: cubing is a bijection when p = 2 mod 3; otherwise
        # -2 is a cube iff (-2)^((p-1)/3) = 1, and then it has three roots
        if p <= 3 or p % 3 == 2:
            want = 1
        else:
            want = 3 if pow(-2, (p - 1) // 3, p) == 1 else 0
        assert len(roots) == want, p
        assert all((r**3 + 2) % p == 0 for r in roots)
        assert roots == sorted(set(roots))
    for d in (4, 6):
        # x^d - 1 splits into linear factors exactly when d | p - 1: its
        # roots are the gcd(d, p - 1) d-th roots of unity, found by the
        # longest chains of splits
        ps = [p for p in primes if d == 4 or p > 3]
        for p, roots in zip(ps, _batched([-1] + [0] * (d - 1) + [1], ps)):
            assert len(roots) == math.gcd(d, p - 1), (d, p)
            assert all(pow(r, d, p) == 1 for r in roots)
            assert roots == sorted(set(roots))


def test_roots_mod_primes_quadratics():
    # the factors of degree 2 are solved by square roots: where p - 1 is
    # odd times 2, 2^16, 2^18 and 2^20, and just below _BATCH_P_LIMIT;
    # x^2 + 2x - 100 has discriminant 4 * 101, 0 mod 101, and x^2 + 1 a
    # non-residue at p = 3 mod 4
    rng = random.Random(13)
    quads = [[1, 0, 1], [-100, 2, 1], [7, 3, 1], [-2, 0, 1], [1, 1, 1]]
    quads += [[rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6), 1] for _ in range(30)]
    small = [p for p in kernels.prime_sieve(2 * 10**4).tolist() if p > kernels._SCALAR_MAX_P]
    large = [65537, 786433, 7340033, 67108777, 67108819, 67108837, 67108859]
    assert all(p < kernels._BATCH_P_LIMIT for p in large)
    for coeffs in quads[:5]:
        assert _batched(coeffs, small) == [kernels.poly_roots_mod_p(coeffs, p) for p in small]
    for coeffs in quads:
        assert _batched(coeffs, large) == [kernels.poly_roots_mod_p(coeffs, p) for p in large]
    assert _batched([-100, 2, 1], [101]) == [[100]]
    assert _batched([1, 0, 1], [10007]) == [[]]


def test_roots_mod_primes_cubic_split_then_square_roots():
    # x^3 - 3x + 1 (Disc 81, no binomial) at the primes p = +-1 mod 9, where
    # it has three roots: Cantor-Zassenhaus until every factor has degree
    # <= 2, then square roots; deterministic
    cubic = [1, -3, 0, 1]
    primes = [p for p in kernels.prime_sieve(3 * 10**4).tolist() if p > kernels._SCALAR_MAX_P]
    three = [p for p in primes if p % 9 in (1, 8)]
    assert len(three) > 100
    with mock.patch.object(modp, "sqrt", wraps=modp.sqrt) as sqrt:
        first = kernels.roots_mod_primes(cubic, three)
    assert sqrt.call_count == 1 and sqrt.call_args.args[0].size > 0
    second = kernels.roots_mod_primes(cubic, three)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    expect = [kernels.poly_roots_mod_p(cubic, p) for p in three]
    assert _batched(cubic, three) == expect
    assert all(len(r) == 3 for r in expect)
    # x^3 + 2 at its primes with three roots, which modp.cbrt solves
    three = [p for p in primes if p % 3 == 1 and pow(-2, (p - 1) // 3, p) == 1]
    expect = [kernels.poly_roots_mod_p([2, 0, 0, 1], p) for p in three]
    assert _batched([2, 0, 0, 1], three) == expect
    assert all(len(r) == 3 for r in expect)


def test_binomial_rule_does_no_polynomial_work():
    # x^3 + 2, x^2 + 5x + 23 and 3x^3 + 7 over the primes <= 1e5: neither
    # x^p mod f nor a Cantor-Zassenhaus split is taken
    primes = kernels.prime_sieve(10**5).tolist()
    for coeffs in ([2, 0, 0, 1], [23, 5, 1], [7, 0, 0, 3]):
        with mock.patch.object(modp, "powmod", side_effect=AssertionError("x^p mod f was taken")):
            with mock.patch.object(kernels, "_split_linear", side_effect=AssertionError("split")):
                rows = _batched(coeffs, primes)
                counts = kernels.root_counts_mod_primes(coeffs, primes).tolist()
        assert counts == [len(r) for r in rows]
        for p, roots in zip(primes, rows):
            assert roots == sorted(set(roots)), (coeffs, p)
            assert all(sum(a * r**i for i, a in enumerate(coeffs)) % p == 0 for r in roots), (coeffs, p)
        sample = primes[::25]
        assert rows[::25] == [kernels.poly_roots_mod_p(coeffs, p) for p in sample], coeffs


def test_cbrt_and_nonresidue():
    # every p = 1 mod 3 below 2 * 10^4, and primes p = 1 mod 3^s for every s
    # up to the largest below 2^26: three distinct roots that cube to a
    rng = random.Random(31)
    primes = [p for p in kernels.prime_sieve(2 * 10**4).tolist() if p % 3 == 1]
    for s in range(1, 16):  # the two largest below 2^26
        ks = (k for k in range(kernels._BATCH_P_LIMIT // 3**s, 1, -1) if k % 3 and numutil.is_prime(k * 3**s + 1))
        primes += [k * 3**s + 1 for k, _ in zip(ks, range(2))]
    # no prime k 3^13 + 1 with 3 not dividing k lies below 2^26
    assert {max(s for s in range(16) if (p - 1) % 3**s == 0) for p in primes} == set(range(1, 16)) - {13}
    p = np.array(primes * 3)
    a = np.array([pow(rng.randrange(1, q), 3, q) for q in p.tolist()])
    roots = modp.cbrt(a, p)
    assert roots.shape == (3, p.size)
    assert (roots * roots % p * roots % p == a).all()
    assert ((roots[0] != roots[1]) & (roots[1] != roots[2]) & (roots[0] != roots[2])).all()
    # r = 2: the least prime n with n^((p-1)/2) = -1 mod p, where asked
    odd = kernels.prime_sieve(2 * 10**4)[1:]
    least = [next(n for n in range(2, q) if numutil.is_prime(n) and pow(n, (q - 1) // 2, q) == q - 1) for q in odd.tolist()]
    assert modp._nonresidue(odd, np.ones(odd.size, dtype=bool)).tolist() == least
    need = odd % 4 == 1
    assert modp._nonresidue(odd, need, 2).tolist() == np.where(need, least, 1).tolist()
    # r = 3: a cubic non-residue, the least prime one
    cubic = modp._nonresidue(np.array(primes), np.ones(len(primes), dtype=bool), 3).tolist()
    for q, n in zip(primes, cubic):
        assert pow(n, (q - 1) // 3, q) != 1
        assert all(pow(m, (q - 1) // 3, q) == 1 for m in range(2, n) if numutil.is_prime(m))


# ---------------------------------------------------------------------------
# root_counts_mod_primes: the number of roots without the split


@settings(max_examples=100, deadline=None)
@given(_polys())
def test_root_counts_mod_primes_vs_roots(coeffs):
    cont = 0
    for a in coeffs:
        cont = math.gcd(cont, a)
    primes = [p for p in _PRIMES if cont % p]
    starts, _ = kernels.roots_mod_primes(coeffs, primes)
    assert kernels.root_counts_mod_primes(coeffs, primes).tolist() == np.diff(starts).tolist()
    # above _BATCH_MAX_DEG every prime goes through poly_roots_mod_p
    with mock.patch.object(kernels, "_BATCH_MAX_DEG", 2):
        counts = kernels.root_counts_mod_primes(coeffs, primes)
    assert counts.tolist() == np.diff(starts).tolist()


# degree <= 3 off the primes of Disc: x, 5x + 3, x^2 + 1, 3x^2 + 5x - 7,
# x^2 + 5x + 23, x^3 + 2 (Disc -108), (x + 1)^3 + 2, 2x^3 + 3x + 5 (Disc
# -54^2) and x^3 - 3x + 1 (Disc 81, a square: 0 or 3 roots off p = 3)
_DISC_POLYS = [[0, 1], [3, 5], [1, 0, 1], [-7, 5, 3], [23, 5, 1], [2, 0, 0, 1], [3, 3, 3, 1], [5, 3, 0, 2], [1, -3, 0, 1]]


def _shifted(lead, t, den, d, c):
    """den^d (lead (x + t/den)^d + c), low to high: a binomial in x + t/den."""
    out = [lead * math.comb(d, k) * t ** (d - k) * den**k for k in range(d + 1)]
    out[0] += c * den**d
    return out


# more binomials A (x + s)^d + C: d = 1..8 with leads 1, 2, 3, 12 and C
# negative or with a prime factor above 43 (a = 0 at batched primes), the
# shifted cubic 2 (x + 1)^3 + 5, (2x + 1)^4 - 32, and x^2 and (x + 3)^2,
# whose repeated root comes once
_BINOMIALS = [
    [c] + [0] * (d - 1) + [lead]
    for d, (lead, c) in enumerate([(1, -2), (2, 47 * 53), (3, -7 * 59), (12, 5)] * 2, start=1)
] + [_shifted(2, 1, 1, 3, 5), _shifted(1, 1, 2, 4, -2), [0, 0, 1], [9, 6, 1]]


def test_root_counts_mod_primes_exhaustive():
    # x^d - 1 has gcd(d, p - 1) distinct roots mod every p: the d-th roots
    # of unity in the cyclic group of order p - 1
    primes = kernels.prime_sieve(10**4).tolist()
    for d in (4, 6):
        counts = kernels.root_counts_mod_primes([-1] + [0] * (d - 1) + [1], primes)
        assert counts.tolist() == [math.gcd(d, p - 1) for p in primes]
    # the counts from the Legendre symbol of Disc or from power residues, and
    # the roots, every p <= 2 * 10^4, the largest batched prime and the next,
    # scalar one; only 2x^3 + 3x + 5 and x^3 - 3x + 1 are no binomials
    primes = kernels.prime_sieve(2 * 10**4).tolist() + [67108859, 67108879]
    for coeffs in _DISC_POLYS + _BINOMIALS:
        binomial = kernels._power_residues(coeffs, np.array(primes)) is not None
        assert binomial == (coeffs not in ([5, 3, 0, 2], [1, -3, 0, 1])), coeffs
        expect = [kernels.poly_roots_mod_p(coeffs, p) for p in primes]
        counts = kernels.root_counts_mod_primes(coeffs, primes).tolist()
        assert counts == [len(r) for r in expect], coeffs
        assert _batched(coeffs, primes) == expect, coeffs
        if coeffs == [1, -3, 0, 1]:
            assert set(counts[2:]) == {0, 3}  # from p = 5 on
        if coeffs in ([0, 0, 1], [9, 6, 1]):
            assert set(counts) == {1}
    assert kernels.root_counts_mod_primes([5], [2, 3, 47, 101]).tolist() == [0, 0, 0, 0]
    assert kernels.root_counts_mod_primes([0, 0, 1], [2, 53]).tolist() == [1, 1]  # repeated root
    assert kernels.root_counts_mod_primes([2, 0, 0, 1], []).tolist() == []
    with pytest.raises(ValueError):  # vanishes identically mod 47
        kernels.root_counts_mod_primes([47, 94], [53, 47])


def test_residues_past_int64():
    # a mod p as Python's % gives it: below 2^62 in int64, from 2^62 on by
    # 31-bit limbs at the primes below 2^31 and by Python ints above
    rng = random.Random(29)
    small = kernels.prime_sieve(10**5).tolist() + [67108859, 2147483647]
    values = [0, 2**62, -(2**62), 2**62 - 1, 1 - 2**62, 2**93, -(2**93) - 1]
    values += [rng.randint(-(10**40), 10**40) for _ in range(40)]
    for primes in (small, [4294967311, 2**61 - 1], small[:50] + [4294967311]):
        for a in values:
            assert kernels._residues(a, np.array(primes)).tolist() == [a % p for p in primes], a
    # the root counts of a cubic whose discriminant -4 * 10^21 - 27 is past 2^62
    primes = kernels.prime_sieve(3000).tolist()
    coeffs = [1, 10**7, 0, 1]
    assert kernels.root_counts_mod_primes(coeffs, primes).tolist() == [
        len(kernels.poly_roots_mod_p(coeffs, p)) for p in primes
    ]


def test_root_counts_mod_primes_without_powmod():
    # at degree <= 2, and at the cubic primes where Disc is a non-residue,
    # the Legendre symbol of Disc alone gives the count: neither x^p mod f
    # nor a gcd is taken
    primes = [p for p in kernels.prime_sieve(2 * 10**4).tolist() if p > kernels._SCALAR_MAX_P]
    for coeffs in _DISC_POLYS:
        disc = discriminant(IntPoly(tuple(coeffs)))
        ps = [p for p in primes if disc % p and coeffs[-1] % p]
        if len(coeffs) == 4:  # the cubic primes with chi = -1: none where Disc = 81
            ps = [p for p in ps if pow(disc, (p - 1) // 2, p) == p - 1]
        assert len(ps) > 1000 or disc == 81
        expect = [len(kernels.poly_roots_mod_p(coeffs, p)) for p in ps]
        with mock.patch.object(modp, "powmod", side_effect=AssertionError("x^p mod f was taken")):
            assert kernels.root_counts_mod_primes(coeffs, ps).tolist() == expect, coeffs


def test_routes_partition_the_primes():
    # _routes sends each prime one way: off the batch, to the binomial rule or
    # to the other batch; only a constant's batched primes take none, as a
    # constant has no roots.  x^5 - x + 1 and the two cubics are no binomials
    primes = kernels.prime_sieve(2 * 10**4).tolist() + [67108859, 67108879]
    for coeffs in _DISC_POLYS + _BINOMIALS + [[1, -1, 0, 0, 0, 1], [7]]:
        c, ps, scalar, rule, sel = kernels._routes(coeffs, primes)
        assert c == list(IntPoly(tuple(coeffs)).coeffs) and ps.tolist() == primes
        off = [i for i, p in enumerate(primes) if p <= 43 or p >= 2**26 or c[-1] % p == 0]
        assert scalar.tolist() == off, coeffs
        ruled = [] if rule is None else rule[0].tolist()
        assert (rule is None) == (coeffs in ([5, 3, 0, 2], [1, -3, 0, 1], [1, -1, 0, 0, 0, 1], [7])), coeffs
        if rule is not None:
            assert rule[1].tolist() == [primes[i] for i in ruled]
        routes = [set(off), set(ruled), set(sel.tolist())]
        assert len(set().union(*routes)) == sum(map(len, routes)), coeffs  # disjoint
        rest = set(range(len(primes))) - set().union(*routes)
        assert rest == (set() if len(c) > 1 else set(range(len(primes))) - set(off)), coeffs
