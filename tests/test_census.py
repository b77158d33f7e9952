import functools
import itertools
import json
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
from test_kernels import (
    BLOCK_SIZES,
    form_profile_blocks,
    square_roots,
    squarefree_mask,
    value_polys,
    value_square_blocks,
    value_square_profile_alt,
)

from sievecraft import avgprod, census, cli, kernels, localdens, numutil
from sievecraft.census import (
    count_powerfree_values,
    count_squarefree_form,
    delta_census_form,
    delta_census_univ,
    r_alpha_sum,
    splitting_type,
    twist_census,
)
from sievecraft.lattice import Sector
from sievecraft.poly import BinForm, IntPoly, is_squarefree_poly, parse


def delta_census_univ_alt(P, n, threshold=None):
    """Independent recount of delta_census_univ by looping over the
    primes p in (threshold, sqrt(max |P|)] and scanning the arithmetic
    progressions of roots mod p^2.  Intended for N <= 2000."""
    if threshold is None:
        threshold = math.isqrt(n)
    vmax = sum(abs(a) * n**i for i, a in enumerate(P.coeffs))
    hit = set()
    for p in range(threshold + 1, math.isqrt(vmax) + 1):
        if not numutil.is_prime(p):
            continue
        p2 = p * p
        for r, e in localdens.roots_mod_pk(P, p, 2):
            mod = p**e if e else 1
            x = r % mod if mod > 1 else 1
            if x == 0:
                x = mod
            for v in range(x, n + 1, mod):
                if P(v) != 0 and P(v) % p2 == 0:
                    hit.add(v)
    return len(hit)


def count_values_alt(coeffs, n, m, b):
    """Independent recount of census._count_values (observed, zeros) from
    the whole-range profile: one flag per x = 0..N."""
    xs, ps, vs, rem = value_square_profile_alt(coeffs, n, b)
    bad = np.zeros(n + 1, dtype=bool)
    bad[xs[vs >= m]] = True
    if m == 2:
        bad[list(square_roots(rem))] = True
    zeros = int(np.count_nonzero(rem[1:] == 0))
    bad[rem == 0] = True
    return int(np.count_nonzero(~bad[1:])), zeros


def exceptional_count_alt(profile, threshold):
    """Independent recount of delta_census_univ from the whole-range
    profile (xs, ps, vs, rem) of P over x = 1..N."""
    xs, ps, vs, rem = profile
    bad = np.zeros(len(rem), dtype=bool)
    bad[xs[(vs >= 2) & (ps > threshold)]] = True
    bad[[i for i, q in square_roots(rem).items() if q > threshold]] = True
    bad[0] = False
    return int(np.count_nonzero(bad[1:]))


def count_squarefree_form_alt(F, n, convention="full-box", coprime=True, sector=None):
    """Independent recount of census._count_pairs (observed, zeros): one row
    of values at a time, looked up in the square-free table of every
    integer up to max |F|."""
    vmax = sum(abs(a) for a in F.coeffs) * n**F.degree
    mask = squarefree_mask(max(vmax, 1))  # mask[0] = 0: zeros never count
    lo = 1 if convention == "positive-quadrant" else -n
    xs = np.arange(lo, n + 1, dtype=np.int64)
    observed = 0
    zeros = 0
    for y in range(lo, n + 1):
        vals = np.zeros(len(xs), dtype=np.int64)
        d = F.degree
        for i in range(d, -1, -1):
            vals = vals * xs + F.coeffs[i] * y ** (d - i)
        ok = np.ones(len(xs), dtype=bool)
        if coprime:
            ok &= np.gcd(np.abs(xs), abs(y)) == 1
        if sector is not None:
            ok &= sector.mask(xs, y)
        zeros += int(np.count_nonzero(ok & (vals == 0)))
        observed += int(np.count_nonzero(ok & (mask[np.abs(vals)] == 1)))
    return observed, zeros


def delta_census_form_alt(F, n, threshold=None):
    """Independent recount of delta_census_form by factoring the value at
    every coprime pair (without its per-prime assertion)."""
    if threshold is None:
        threshold = n
    profile = {}
    count = 0
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            if math.gcd(x, y) != 1:
                continue
            v = F(x, y)
            if v == 0:
                continue
            hits = [p for p, e in numutil.factorize(abs(v)).pairs if e >= 2 and p > threshold]
            if hits:
                count += 1
                for p in hits:
                    profile[p] = profile.get(p, 0) + 1
    return count, profile


def twist_census_alt(F, n):
    """Independent recount of twist_census: (table, zeros, pairs) from the
    square-free decomposition of the value at every coprime pair."""
    table = {}
    zeros = pairs = 0
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            if math.gcd(x, y) != 1:
                continue
            pairs += 1
            v = F(x, y)
            if v == 0:
                zeros += 1
                continue
            f = numutil.factorize(abs(v))
            assert f.complete, v
            d0 = math.prod(p for p, e in f.pairs if e % 2)
            d = d0 if v > 0 else -d0
            table[d] = table.get(d, 0) + 1
    return table, zeros, pairs


def _brute_powerfree(P, n, m):
    cnt = 0
    for x in range(1, n + 1):
        v = abs(P(x))
        if v == 0:
            continue
        if all(e < m for _, e in numutil.factorize(v).pairs):
            cnt += 1
    return cnt


def test_is_square_helper():
    # s at v = s^2 > 1, else 0
    v = np.array([0, 1, 2, 4, 9, 15, 16, 10**12, 10**12 + 1, (10**6 + 3) ** 2])
    assert census._square_root(v).tolist() == [0, 0, 0, 2, 3, 0, 4, 10**6, 0, 10**6 + 3]
    # the top of the exact range: s^2 and s^2 +- 1 next to 2^62, and
    # random values below 2^62, against math.isqrt
    s = np.arange(2**31 - 2000, 2**31, dtype=np.int64)
    rng = np.random.default_rng(8)
    v = np.concatenate([s * s, s * s - 1, s * s + 1, rng.integers(0, 2**62, 20000), rng.integers(0, 2**20, 2000)])
    roots = square_roots(v)
    assert census._square_root(v).tolist() == [roots.get(i, 0) for i in range(v.size)]


def test_count_powerfree_frozen():
    # [DERIVED] brute-force oracles
    assert count_powerfree_values(parse("x"), 100, 2).observed == 61
    assert count_powerfree_values(parse("x"), 100, 3).observed == 85
    assert count_powerfree_values(parse("x^3 + 2"), 50, 2).observed == 47


def test_count_powerfree_x_vs_mobius_sum():
    # the square-free n <= N number sum_{d <= sqrt N} mu(d) floor(N / d^2),
    # with mu from its own sieve, far past the frozen sizes
    n, k = 10**7, math.isqrt(10**7)
    mu = [1] * (k + 1)
    for p in range(2, k + 1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            mu[p::p] = [-m for m in mu[p::p]]
            mu[p * p :: p * p] = [0] * len(mu[p * p :: p * p])
    expect = sum(mu[d] * (n // (d * d)) for d in range(1, k + 1))
    assert count_powerfree_values(parse("x"), n).observed == expect == 6079291


def _shifted(P, t):
    """P(x + t), by Horner in x + t."""
    out = []
    for a in reversed(P.coeffs):  # out = out * (x + t) + a
        out = [t * c + d for c, d in zip(out + [0], [0] + out)]
        out[0] += a
    return IntPoly(tuple(out))


@pytest.mark.parametrize(
    "spec,n,census_halves,delta_halves",
    [
        ("x^3 + 2", 10**5, (93763, 93755), (299, 302)),
        ("3*x^2 + 3", 2 * 10**5, (178956, 178976), (788, 768)),
        ("x^2 - 12", 2 * 10**5, (96207, 96193), (795, 792)),
    ],
)
def test_value_censuses_translate(spec, n, census_halves, delta_halves):
    # f(P, 2N) = f(P, N) + f(P(x + N), N): the x in N+1..2N are the x in
    # 1..N of the shifted polynomial, whose root classes, content, trial
    # bound and block edges all differ
    P = parse(spec)
    halves = (P, _shifted(P, n))
    assert halves[1](1) == P(n + 1)
    for f, expect in (
        (lambda Q, k: count_powerfree_values(Q, k).observed, census_halves),
        (lambda Q, k: delta_census_univ(Q, k, 50), delta_halves),
    ):
        assert tuple(f(Q, n) for Q in halves) == expect
        assert f(P, 2 * n) == sum(expect)


@pytest.mark.parametrize("spec,expect", [("x^3 + 2", (93763, 299)), ("12*x^2 + 12", (0, 389)), ("x^2 - 12", (48106, 400))])
def test_value_censuses_trial_bound_free(spec, expect):
    # past the least trial bound B, a larger one (2B) changes which primes are
    # sieved and which are left to the square test, but not the counts
    coeffs, n = parse(spec).coeffs, 10**5
    b = kernels.trial_bound(coeffs, n)
    for bound in (b, 2 * b):
        observed, _ = census._count_values(coeffs, n, 2, bound)
        blocks = value_square_blocks(coeffs, n, bound)
        delta = sum(census.exceptional_count(xs - lo, ps, rem, 50) for lo, xs, ps, _, rem in blocks)
        assert (observed, delta) == expect


def test_count_powerfree_vs_brute():
    # x at N = 11^3 has the trial bound 12, the least B with B^3 > 1331: 13^2
    # divides 169 and is found only by the square-remainder test; so is 101^2
    # at x = 100 for 101 (x + 1), whose content prime 101 lies beyond B = 28
    cases = [(s, 200) for s in ("x^3 + 2", "x^2 + 1", "2*x^3 + 3*x + 1", "x^2 - x")]
    for spec, n in cases + [("x", 1331), ("101*x + 101", 200)]:
        P = parse(spec)
        for m in (2, 3):
            rep = count_powerfree_values(P, n, m)
            assert rep.observed == _brute_powerfree(P, n, m), (spec, m)
    assert count_powerfree_values(parse("x"), 1331).params["B"] == 12
    assert count_powerfree_values(parse("101*x + 101"), 200).params["B"] == 28


def test_count_powerfree_zeros_and_report():
    rep = count_powerfree_values(parse("x^2 - x"), 100, 2)  # P(1) = 0
    assert rep.zeros == 1
    data = rep.to_dict()
    assert data["observed"] == rep.observed
    assert data["N"] == 100
    assert json.loads(json.dumps(data)) == data
    assert rep.main_lo <= rep.main_hi


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(value_polys(), BLOCK_SIZES, st.sampled_from([50, 500]), st.sampled_from([-1, 0, 2, 7, 50, 1000]))
def test_value_censuses_vs_whole_range(case, size, b, threshold):
    # census (m = 2, 3) and delta read block by block equal the recounts
    # from the whole-range profile
    P, n = case
    assume(all(p <= b for p, _ in numutil.factorize(P.content()).pairs))
    whole = value_square_profile_alt(P.coeffs, n, b)
    with mock.patch.object(kernels, "_VALUE_BLOCK", size):
        for m in (2, 3):
            assert census._count_values(P.coeffs, n, m, b) == count_values_alt(P.coeffs, n, m, b)
        blocks = value_square_blocks(P.coeffs, n, b)
        got = sum(census.exceptional_count(xs - lo, ps, rem, threshold) for lo, xs, ps, _, rem in blocks)
    assert got == exceptional_count_alt(whole, threshold)


def test_count_powerfree_memory_flat_in_n():
    # the profile is streamed in blocks: the census of x at N = 2^21 peaks
    # within 2 MB of its peak at N = 2^17 (trial bounds 51 and 129)
    peaks = []
    for n in (2**17, 2**21):
        tracemalloc.start()
        try:
            count_powerfree_values(parse("x"), n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2 * 2**20, peaks


@functools.lru_cache(maxsize=None)
def _brute_cached(spec, n, m):
    P = parse(spec)
    return _brute_powerfree(P, n, m), sum(P(x) == 0 for x in range(1, n + 1))


@settings(max_examples=10, deadline=None)
@given(BLOCK_SIZES)
def test_power_census_vs_brute(size):
    # the census's classes mod p^m, m = 2, 3, 4, against factorisation: the
    # content with v_p = 1 (3) and v_p >= m (16), content primes beyond the
    # trial bound (10007 and 10007^2, B = 127 and 2721), singular roots
    # (x^2 + 7 at 2, x^2 - 12 at 2 and 3), zeros (x = 5 and 2), negative
    # values and a lead divisible by 5
    specs = [
        "3*x + 3", "16*x^2 + 16", "12*x^3 + 24", "10007*x + 10007", "100140049*x + 100140049",
        "x^2 + 7", "x^2 - 12", "x^2 - 5*x", "x^3 - 8", "5*x^3 - 7*x - 300",
    ]
    with mock.patch.object(kernels, "_VALUE_BLOCK", size):
        for spec in specs:
            for m in (2, 3, 4):
                rep = count_powerfree_values(parse(spec), 200, m)
                assert (rep.observed, rep.zeros) == _brute_cached(spec, 200, m), (spec, m)


def test_power_census_finds_no_valuation(monkeypatch):
    # the census reads the classes mod p^m: neither the square profile nor
    # the division that finds v_p
    def refuse(*args):
        raise RuntimeError("the census found a v_p")

    monkeypatch.setattr(kernels, "square_entries", refuse)
    monkeypatch.setattr(kernels, "_strip", refuse)
    for spec in ("x^3 + 2", "12*x^2 + 12", "x^2 - 12", "x"):
        for m in (2, 3):
            rep = count_powerfree_values(parse(spec), 500, m)
            assert (rep.observed, rep.zeros) == _brute_cached(spec, 500, m), (spec, m)


def test_form_census_finds_roots_once(monkeypatch):
    # N = 900 is a box of 1801 rows, read folded: the rows z = 0..900 in
    # blocks of _VALUE_BLOCK // 1801 rows, all read from one root batch
    calls, blocks = [], []
    roots, values = kernels.roots_mod_primes, kernels.form_values
    monkeypatch.setattr(kernels, "roots_mod_primes", lambda *a: calls.append(a) or roots(*a))
    monkeypatch.setattr(kernels, "form_values", lambda *a: blocks.append(a) or values(*a))
    F = parse("x^3 + 2*z^3", kind="form")
    assert census._count_pairs(F, -900, 900, True, None) == (1862580, 0)
    rows = max(1, kernels._VALUE_BLOCK // 1801)
    assert (len(calls), len(blocks)) == (1, -(-901 // rows))


@pytest.mark.parametrize("coprime", [True, False])
def test_form_census_memory_in_blocks(coprime):
    # the form profile runs in blocks of _VALUE_BLOCK cells, so the census
    # of x^3 + 2z^3 over the million pairs of [-500, 500]^2 peaks below 2 MB
    F = parse("x^3 + 2*z^3", kind="form")
    tracemalloc.start()
    try:
        census._count_pairs(F, -500, 500, coprime, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_count_squarefree_form_frozen():
    # [DERIVED] brute-force oracles
    F1 = parse("x", kind="form")
    rep = count_squarefree_form(F1, 30, "positive-quadrant", coprime=False)
    assert rep.observed == 570
    rep = count_squarefree_form(F1, 30, "positive-quadrant", coprime=True)
    assert rep.observed == 391
    rep = count_squarefree_form(parse("x*z", kind="form"), 10, "full-box")
    assert rep.observed == 132
    rep = count_squarefree_form(parse("x^3 + 2*z^3", kind="form"), 12, "full-box")
    assert rep.observed == 348


def test_form_census_box_symmetries():
    # the full box and its coprime pairs are symmetric under (x, z) -> (z, x)
    # and (x, z) -> (-x, z), so F(x, z), F(z, x) and F(-x, z) give the same
    # count, and the same indicator average
    c = (2, 0, 0, 1)  # x^3 + 2 z^3
    forms = [BinForm(c), BinForm(c[::-1]), BinForm(tuple(a * (-1) ** i for i, a in enumerate(c)))]
    assert [count_squarefree_form(F, 300).observed for F in forms] == [207110] * 3
    means = [
        avgprod.empirical_average_form(F, avgprod.squarefree_indicator_form_family(F), 60).empirical
        for F in forms
    ]
    pairs = sum(math.gcd(x, z) == 1 for x in range(-60, 61) for z in range(-60, 61))
    assert means == [count_squarefree_form(forms[0], 60).observed / pairs] * 3


def _rotate(v):
    """R(x, z) = (-z, x), the quarter turn counterclockwise."""
    return -v[1], v[0]


@pytest.mark.parametrize(
    "c",
    [
        (2, 0, 0, 1),  # x^3 + 2 z^3
        (2, 0, 0, 1, 0),  # z (x^3 + 2 z^3): z | F
        (12, 0, 0, 6),  # 6 (x^3 + 2 z^3): square-free content 6
    ],
)
def test_form_census_sector_rotation(c):
    # the rotation R maps Sector(a, b) onto Sector(Ra, Rb), the included ray
    # a onto Ra, and F onto G(x, z) = F(z, -x), G.coeffs[j] = (-1)^j a_(d-j):
    # (F, S) and (G, RS) give the same counts, coprime and over all pairs, and
    # the same indicator average (a reflection swaps which ray is included)
    n, d = 100, len(c) - 1
    F, G = BinForm(c), BinForm(tuple((-1) ** j * c[d - j] for j in range(d + 1)))
    x, z = (a.ravel() for a in np.meshgrid(np.arange(-n, n + 1), np.arange(-n, n + 1)))
    assert G(-7, 3) == F(3, 7)
    for S in _SECTORS[1:]:  # a quadrant, a wedge, a reflex sector, a half-plane
        RS = Sector(_rotate(S.a), _rotate(S.b))
        assert (RS.mask(*_rotate((x, z))) == S.mask(x, z)).all()
        for coprime in (False, True):
            counts = [count_squarefree_form(H, n, coprime=coprime, sector=T).observed for H, T in ((F, S), (G, RS))]
            assert counts[0] == counts[1] > 0, (S, coprime)
        means = [
            avgprod.empirical_average_form(H, avgprod.squarefree_indicator_form_family(H), n, T).empirical
            for H, T in ((F, S), (G, RS))
        ]
        pairs = int(np.count_nonzero((np.gcd(x, z) == 1) & S.mask(x, z)))
        assert means == [counts[0] / pairs] * 2, S


@pytest.mark.parametrize("c,delta", [((2, 0, 0, 1), 484), ((24, 36, 0, 12), 2330)])
def test_twists_and_delta_form_box_symmetries(c, delta):
    # F(x, z), F(z, x) and F(-x, z) give the same twist table and the same
    # delta count and profile: x^3 + 2z^3, and 12x^3 + 36xz^2 + 24z^3, whose
    # content primes 2 and 3 divide every value
    forms = [BinForm(c), BinForm(c[::-1]), BinForm(tuple(a * (-1) ** i for i, a in enumerate(c)))]
    tables = [(t.pairs, t.zeros, sorted(t.table.items())) for t in (twist_census(F, 60) for F in forms)]
    assert tables[0][0] == 8816 and tables == [tables[0]] * 3
    counts = [delta_census_form(F, 60, 2) for F in forms]
    assert counts[0][0] == delta and counts == [counts[0]] * 3


def test_count_squarefree_form_vs_brute():
    F = parse("x^3 + 2*z^3", kind="form")
    n = 8
    brute = sum(
        1
        for x in range(-n, n + 1)
        for y in range(-n, n + 1)
        if math.gcd(x, y) == 1
        and F(x, y) != 0
        and numutil.mobius(abs(F(x, y))) != 0
    )
    assert count_squarefree_form(F, n, "full-box").observed == brute


def test_delta_census_univ_dual():
    # two independent counting methods agree; values frozen [DERIVED]
    frozen = {
        "x^3 + 2": (2, 7),
        "x^2 + 1": (4, 4),
        "x^3 - x + 7": (4, 5),
        "2*x^3 + 3*x + 1": (2, 7),
    }
    for spec, (d100, d500) in frozen.items():
        P = parse(spec)
        assert delta_census_univ(P, 100) == d100 == delta_census_univ_alt(P, 100)
        assert delta_census_univ(P, 500) == d500 == delta_census_univ_alt(P, 500)


def test_delta_census_form_frozen():
    F = parse("x^3 + 2*z^3", kind="form")
    count, profile = delta_census_form(F, 30)
    assert count == 14
    assert profile == {31: 8, 43: 4, 71: 2}


def test_twist_census():
    F = parse("x^3 + 2*z^3", kind="form")
    t = twist_census(F, 15)
    # [DERIVED] frozen twist counts
    assert t.table[3] == 3
    assert t.table[10] == 2
    # conservation: every coprime pair lands in exactly one bucket
    assert sum(t.table.values()) + t.zeros == t.pairs
    # every key is a square-free kernel
    for d in t.table:
        assert numutil.mobius(abs(d)) != 0
    csv = t.to_csv()
    assert csv.startswith("d,S_d\n") and "\n3,3\n" in csv
    with pytest.raises(ValueError):
        twist_census(parse("x*z", kind="form"), 5)


@st.composite
def square_free_forms(draw):
    """Square-free forms of degree 1-4 with content 1, 2, 4 or 12, leading
    coefficients divisible by 2, 3 or 5, and forms divisible by z, by x or
    by a linear form x - k*z (zero values inside the box)."""
    deg = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["plain", "z", "x", "linear"]))
    free = deg - 1 if shape != "plain" else deg
    g = [draw(st.integers(-4, 4)) for _ in range(free + 1)]
    g[-1] = draw(st.sampled_from([1, -1, 2, 3, 5, -6, 10])) if free else g[-1] or 1
    if shape == "z":  # z | F: no x^deg term
        coeffs = g + [0]
    elif shape == "x":  # x | F: no z^deg term
        coeffs = [0] + g
    elif shape == "linear":  # (x - k z) * g
        k = draw(st.integers(-3, 3))
        coeffs = [0] * (deg + 1)
        for i, a in enumerate(g):
            coeffs[i + 1] += a
            coeffs[i] -= k * a
    else:
        coeffs = g
    content = draw(st.sampled_from([1, 2, 4, 12]))
    assume(any(coeffs))
    F = BinForm(tuple(content * a for a in coeffs))
    assume(is_squarefree_poly(F))
    return F


# a quadrant, a wedge, a reflex sector, and a half-plane whose ray a lies on
# the negative x-axis: the row z = 0 of a folded box holds its own mirrors,
# and (x, 0) for x > 0 mirrors onto that ray
_SECTORS = [
    None, Sector((1, 0), (0, 1)), Sector((2, -1), (-1, 3)), Sector((1, 0), (-1, -1)), Sector((-1, 0), (1, 1))
]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    square_free_forms(),
    st.sampled_from([0, 1, 2, 3, 7, 11]),
    st.sampled_from(["full-box", "positive-quadrant"]),
    st.booleans(),
    st.sampled_from(_SECTORS),
)
@example(parse("3*x^4 + 5*x*z^3 - 2*z^4", kind="form"), 2, "full-box", True, _SECTORS[3])
@example(parse("x^3 + 2*z^3", kind="form"), 3, "full-box", False, _SECTORS[4])
@example(parse("x^4 - x^2*z^2 + 4*z^4", kind="form"), 0, "full-box", True, None)
def test_form_censuses_vs_pair_loops(F, n, convention, coprime, sector):
    lo = 1 if convention == "positive-quadrant" else -n
    assert census._count_pairs(F, lo, n, coprime, sector) == count_squarefree_form_alt(
        F, n, convention, coprime, sector
    )
    for threshold in (None, 0, 2, 50):
        assert census.delta_census_form(F, n, threshold) == delta_census_form_alt(F, n, threshold)
    if F.degree >= 3:
        t = twist_census(F, n)
        assert (t.table, t.zeros, t.pairs) == twist_census_alt(F, n)
    else:
        with pytest.raises(ValueError):
            twist_census(F, n)


def test_coprime_form_profile_entries():
    # x^3 + 2z^3 over [-500, 500]^2, gathered across its blocks of rows: the
    # coprime profile skips the classes x = 0 of the rows with p | z and
    # keeps the full profile's entries and remainders at every coprime pair
    b = kernels.trial_bound([2, 0, 0, 1], 500, 500)

    def whole(coprime):
        blocks = list(form_profile_blocks([2, 0, 0, 1], -500, 500, -500, 500, b, 4, coprime))
        # a cell of a block is offset by the block's first cell
        cells = np.concatenate([c + (zs[0] + 500) * 1001 for zs, c, *_ in blocks])
        return (cells, *(np.concatenate([blk[i] for blk in blocks]) for i in (2, 3, 4)))

    full, part = whole(False), whole(True)
    xs = zs = np.arange(-500, 501)
    ok = (np.gcd(xs, zs[:, None]) == 1).ravel()

    def at_coprime(cells, ps, vs, _):
        return sorted(zip(*(a[ok[cells]].tolist() for a in (cells, ps, vs))))

    assert (full[0].size, part[0].size) == (507520, 54200)
    assert at_coprime(*part) == at_coprime(*full) and len(at_coprime(*full)) == 33936
    assert np.array_equal(part[3][ok], full[3][ok])


def _gcd_mask(x, z, sector=None):
    x, z = (a.ravel() for a in np.broadcast_arrays(x, z))
    ok = np.gcd(x, z) == 1
    return ok & sector.mask(x, z) if sector is not None else ok


@pytest.mark.parametrize(
    "xlo, xhi, zlo, zhi",
    [(0, 0, 0, 0), (-1, 1, -1, 1), (-2, 2, -2, 2), (1, 1, 1, 2), (0, 1, 0, 1), (-30, 30, -30, 30),
     (1, 30, 1, 30), (-60, 40, 7, 19), (5, 97, -13, -2), (4, 4, 6, 6), (-3, 8, 0, 0), (2, 1, 0, 5),
     # blocks of one and three rows of a box around 0, as the censuses cut it
     (-12, 12, 0, 0), (-12, 12, 6, 6), (-12, 12, -1, 1), (-12, 12, 10, 12)],
)
def test_pair_mask_vs_gcd(xlo, xhi, zlo, zhi):
    # the coprime mask equals gcd(x, z) == 1, with and without a sector
    x = np.arange(xlo, xhi + 1, dtype=np.int64)
    z = np.arange(zlo, zhi + 1, dtype=np.int64)[:, None]
    for sector in (None, _SECTORS[2]):
        assert census._pair_mask(x, z, True, sector).tolist() == _gcd_mask(x, z, sector).tolist()
        expect = np.ones(np.broadcast_shapes(x.shape, z.shape), dtype=bool).ravel()
        if sector is not None:
            expect = sector.mask(*(a.ravel() for a in np.broadcast_arrays(x, z)))
        assert census._pair_mask(x, z, False, sector).tolist() == expect.tolist()


def test_form_censuses_across_row_blocks(monkeypatch):
    # blocks of 1 and 2 rows of the folded box (the row z = 0 alone, or with
    # z = 1) give the same counts as the pair loops over the whole box, at
    # odd and even degree (the mirror's twist kernel is (-1)^deg d)
    for spec, cells in itertools.product(("4*x^3 + x*z^2 + 6*z^3", "3*x^4 + 5*x*z^3 - 2*z^4"), (19, 40)):
        F = parse(spec, kind="form")
        monkeypatch.setattr(kernels, "_VALUE_BLOCK", cells)
        for coprime, sector in itertools.product((True, False), _SECTORS):
            assert census._count_pairs(F, -9, 9, coprime, sector) == count_squarefree_form_alt(
                F, 9, coprime=coprime, sector=sector
            )
        assert census.delta_census_form(F, 9, 2) == delta_census_form_alt(F, 9, 2)
        t = twist_census(F, 9)
        assert (t.table, t.zeros, t.pairs) == twist_census_alt(F, 9)


def test_count_squarefree_form_public_vs_pair_loop():
    for spec in ("x", "x*z", "4*x^3 + x*z^2 + 6*z^3", "x^4 - x^2*z^2 + 4*z^4", "x^3 + 2*z^3"):
        F = parse(spec, kind="form")
        for convention in ("full-box", "positive-quadrant"):
            for coprime in (True, False):
                rep = count_squarefree_form(F, 13, convention, coprime, _SECTORS[2])
                expect = count_squarefree_form_alt(F, 13, convention, coprime, _SECTORS[2])
                assert (rep.observed, rep.zeros) == expect, (spec, convention, coprime)


def test_delta_census_form_content_prime_above_threshold():
    # 3^2 divides 36z at all 14 coprime pairs of [-2, 2]^2 with z != 0,
    # beyond 12 deg F: the per-prime bound does not hold at content primes
    F = BinForm((36, 0))
    assert census.delta_census_form(F, 2, 2) == delta_census_form_alt(F, 2, 2) == (14, {3: 14})


def test_poly_content_prime_beyond_trial_bound():
    # at N = 10 the trial bound is 48 (48^3 > 110077): the content prime
    # 10007 is left in every remainder, and 10007 (x + 1) is square-free
    # where x + 1 is
    P = parse("10007*x + 10007")
    rep = count_powerfree_values(P, 10, 2)
    assert (rep.params["B"], rep.observed, rep.zeros) == (48, _brute_powerfree(P, 10, 2), 0)
    assert rep.observed == 7
    assert delta_census_univ(P, 10) == delta_census_univ_alt(P, 10) == 0


def test_content_past_budget_refused():
    # 2^100 (x + 1): the budget is checked on the values with their content,
    # before a trial bound near 2^34.5 could be sieved
    P = IntPoly((2**100, 2**100))

    def average(P, n):
        return avgprod.empirical_average(P, avgprod.squarefree_indicator_family(P), n)

    for count in (count_powerfree_values, delta_census_univ, average):
        with pytest.raises(OverflowError):
            count(P, 10)


def test_form_content_prime_beyond_trial_bound():
    # at N = 1 the trial bound is 11 (11^3 > 1009 + 2018): the content
    # prime 1009 is left in every remainder, and 1009^2 | F at no pair
    F = BinForm((2018, 0, 0, 1009))
    assert census._count_pairs(F, -1, 1, False, None) == count_squarefree_form_alt(F, 1, coprime=False)
    assert census.delta_census_form(F, 1, 0) == delta_census_form_alt(F, 1, 0)
    t = twist_census(F, 1)
    assert (t.table, t.zeros, t.pairs) == twist_census_alt(F, 1)


def test_form_census_resource_limit(capsys):
    # (2 * 10^5 + 1)^2 pairs exceed the 2^33 budget: refused before any
    # array is made
    for cmd in ("census", "delta", "twists"):
        t0 = time.monotonic()
        assert cli.run([cmd, "--form", "x^3 + 2*z^3", "--N", "100000"]) == 3
        assert time.monotonic() - t0 < 2
        assert "resource" in capsys.readouterr().err
    # values that may reach 2^62
    assert cli.run(["census", "--form", "x^13 + 2*z^13", "--N", "30"]) == 3


def test_count_squarefree_form_beyond_old_table_cap():
    # 3 * 900^3 >= 2^31: refused while the census sieved a table of every
    # value; now the box is read in blocks of rows
    rep = count_squarefree_form(parse("x^3 + 2*z^3", kind="form"), 900, "full-box", coprime=True)
    assert abs(rep.observed / rep.main_mid - 1) <= 0.02


def test_splitting_type():
    P = parse("x^3 - 2")
    assert splitting_type(P, 5) == [1, 2]
    assert splitting_type(P, 7) == [3]
    assert splitting_type(P, 31) == [1, 1, 1]
    with pytest.raises(ValueError):
        splitting_type(P, 3)  # ramified
    with pytest.raises(ValueError):
        splitting_type(parse("x^2 - 1"), 5)  # reducible


def test_splitting_type_brute():
    # degrees multiset agrees with a brute-force factor count mod p:
    # number of roots = number of degree-1 factors
    P = parse("x^5 - x + 1")
    for p in (7, 11, 13, 101):
        degs = splitting_type(P, p)
        assert sum(degs) == 5
        roots = sum(1 for x in range(p) if P(x) % p == 0)
        assert degs.count(1) == roots


def test_r_alpha_sum():
    P = parse("x^3 - 2")
    total, table = r_alpha_sum(P, 1.0, 100)
    assert total == 84.0
    assert r_alpha_sum(P, 1.0, 1)[0] == 1.0
    assert [xi for xi, _ in table] == [25, 50, 100]
    # alpha = 0: R is the indicator of split square-free d, so the sum
    # is monotone in X
    t1, _ = r_alpha_sum(P, 0.0, 200)
    t2, _ = r_alpha_sum(P, 0.0, 400)
    assert 1 <= t1 <= t2


def test_r_alpha_sum_brute():
    # brute force: d square-free, every p | d has a root of P mod p
    P = parse("x^3 - 2")
    X = 300
    total = 0.0
    for d in range(1, X + 1):
        if numutil.mobius(d) == 0:
            continue
        extra = 0
        ok = True
        for p, _ in numutil.factorize(d).pairs:
            roots = sum(1 for x in range(p) if P(x) % p == 0)
            if roots == 0:
                ok = False
                break
            # distinct irreducible factors of x^3 - 2 mod p (unramified
            # p: 1 root -> (1,2) two factors; 3 roots -> three factors)
            if p == 2:
                nfac = 1  # x^3 - 2 = x^3 mod 2: square-free part is x
            elif p == 3:
                nfac = 1  # (x+1)^3 mod 3
            else:
                nfac = {1: 2, 3: 3}[roots]
            extra += nfac - 1
        if ok:
            total += 2.0**extra
    got, _ = r_alpha_sum(P, 1.0, X)
    assert got == pytest.approx(total)
