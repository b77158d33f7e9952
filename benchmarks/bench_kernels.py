"""Benchmark the compiled kernels against the pure-Python fallback, the
batched root finder against the per-prime loop, the streamed value profile
against the whole-range one, the local integrals of avgprod's prediction and
the binary-form census.

Run:  python benchmarks/bench_kernels.py
"""

import time
import tracemalloc

import numpy as np

from sievecraft import _kernels_py as kpy
from sievecraft import avgprod, census
from sievecraft.poly import parse

try:
    from sievecraft import _kernels_cy as kcy
except ImportError:
    kcy = None


def timeit(fn, *args, repeat=3):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def row(name, tpy, tcy):
    speedup = "" if tcy is None else f"{tpy / tcy:7.1f}x"
    tc = "     n/a" if tcy is None else f"{tcy * 1e3:8.1f}"
    print(f"{name:<34} {tpy * 1e3:8.1f} {tc} {speedup}")


def main():
    print(f"{'kernel':<34} {'py (ms)':>8} {'cy (ms)':>8} {'speedup':>8}")

    tpy, mpy = timeit(kpy.squarefree_mask, 10**7)
    tcy, mcy = (None, None) if kcy is None else timeit(kcy.squarefree_mask, 10**7)
    if mcy is not None:
        assert np.array_equal(mpy, mcy)
    row("squarefree_mask(1e7)", tpy, tcy)

    coeffs = [2, 0, 0, 1]  # x^3 + 2
    primes = [p for p in range(2, 3000) if all(p % q for q in range(2, p))]

    def roots_all(mod):
        return [mod.poly_roots_mod_p(coeffs, p) for p in primes]

    tpy, rpy = timeit(roots_all, kpy)
    tcy, rcy = (None, None) if kcy is None else timeit(roots_all, kcy)
    if rcy is not None:
        assert rpy == rcy
    row("poly_roots_mod_p (430 primes)", tpy, tcy)

    # every prime <= 1e5: the per-prime loop against the batched kernel,
    # which serves both backends
    primes = kpy.prime_sieve(10**5)

    def roots_loop(mod):
        return [mod.poly_roots_mod_p(coeffs, p) for p in primes.tolist()]

    def roots_batch():
        starts, roots = kpy.roots_mod_primes(coeffs, primes)
        return [roots[starts[i] : starts[i + 1]].tolist() for i in range(primes.size)]

    tpy, rpy = timeit(roots_loop, kpy, repeat=1)
    tcy, rcy = (None, None) if kcy is None else timeit(roots_loop, kcy, repeat=1)
    tb, rb = timeit(roots_batch)
    assert rb == rpy and (rcy is None or rcy == rpy)
    row("poly_roots_mod_p (9592 primes)", tpy, tcy)
    row("roots_mod_primes, batched (9592 p)", tb, None)

    n, b = 200000, 10**4
    tpy, ppy = timeit(kpy.value_square_profile, coeffs, n, b, repeat=1)
    tcy, pcy = (None, None) if kcy is None else timeit(
        kcy.value_square_profile, coeffs, n, b, repeat=1
    )
    if pcy is not None:
        key = lambda r: set(zip(r[0].tolist(), r[1].tolist(), r[2].tolist()))
        assert key(ppy) == key(pcy) and np.array_equal(ppy[3], pcy[3])
    row("value_square_profile(x^3+2, 2e5)", tpy, tcy)

    # the profile of x^2 + 1 over 1..1e6 read block by block (as the census
    # does) against the whole-range arrays; backend-independent, with the
    # tracemalloc peak of each
    coeffs, n = [1, 0, 1], 10**6
    b = census._trial_bound(census._value_bound(coeffs, n))

    def streamed():
        return sum(int(np.count_nonzero(rem == 1)) for *_, rem in kpy.value_square_blocks(coeffs, n, b))

    def whole():
        return int(np.count_nonzero(kpy.value_square_profile(coeffs, n, b)[3][1:] == 1))

    for name, fn in (("streamed", streamed), ("whole-range", whole)):
        tpy, _ = timeit(fn)
        tracemalloc.start()
        fn()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        row(f"x^2+1 1e6 {name}, {peak:.1f} MB", tpy, None)

    # local integrals over the 168 primes <= 1000; backend-independent
    u = avgprod.squarefree_indicator_family(parse("x^3 + 2"))
    tpy, _ = timeit(avgprod.truncated_product, u, 1000)
    row("truncated_product(x^3+2, 1e3)", tpy, None)

    # the square profile of the form over the 1001^2 pairs; backend-independent
    F = parse("x^3 + 2*z^3", kind="form")
    tpy, _ = timeit(census.count_squarefree_form, F, 500)
    row("count_squarefree_form(x^3+2z^3, 500)", tpy, None)


if __name__ == "__main__":
    main()
