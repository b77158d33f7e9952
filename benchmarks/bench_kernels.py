"""Benchmark the batched root finder against the per-prime loop (binomials
by power residues, other polynomials by the split, and the cube roots mod
p), the root counts without the split (also of a discriminant past 2^62),
the streamed value profile and the census stream, the Euler product, the
local integrals of avgprod's prediction, the p-adic lifting walk, the
binary-form censuses and the R(alpha, d) sum.

Run:  python benchmarks/bench_kernels.py

Each row is the median of 5 runs in milliseconds; the last line of the
output gives the rows as JSON, with the backend, numpy version and core
count.
"""

import json
import os
import statistics
import time
import tracemalloc
from fractions import Fraction

import numpy as np

from sievecraft import avgprod, census, eulerprod, kernels, localdens, modp
from sievecraft.poly import parse


def timeit(fn, *args, repeat):
    times = []
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def main():
    k = 5
    rows = {}

    def row(name, t):
        rows[name] = round(t * 1e3, 2)
        print(f"{name:<40} {t * 1e3:8.1f}")

    print(f"{'kernel':<40} {'ms':>8}")

    coeffs = [2, 0, 0, 1]  # x^3 + 2
    primes = [p for p in range(2, 3000) if all(p % q for q in range(2, p))]
    t, _ = timeit(lambda: [kernels.poly_roots_mod_p(coeffs, p) for p in primes], repeat=k)
    row("poly_roots_mod_p (430 primes)", t)

    # every prime <= 1e5: the per-prime loop against the batched kernel
    primes = kernels.prime_sieve(10**5)

    def roots_loop():
        return [kernels.poly_roots_mod_p(coeffs, p) for p in primes.tolist()]

    def roots_batch():
        starts, roots = kernels.roots_mod_primes(coeffs, primes)
        return [roots[starts[i] : starts[i + 1]].tolist() for i in range(primes.size)]

    tl, rl = timeit(roots_loop, repeat=1)
    tb, rb = timeit(roots_batch, repeat=k)
    assert rb == rl
    row("poly_roots_mod_p (9592 primes)", tl)
    row("roots_mod_primes, batched (9592 p)", tb)
    # only the number of roots, as the Euler products read them: no split
    tc, counts = timeit(kernels.root_counts_mod_primes, coeffs, primes, repeat=k)
    assert counts.tolist() == [len(r) for r in rl]
    row("root_counts_mod_primes (9592 p)", tc)

    # the batches of the perfbench workloads: census --poly 'x^3 + 2' --N 1e5,
    # census --poly 'x^2 + 1' --N 1e6 and density of the seed-2 S3 cubic at
    # B = 3e4, the censuses at their trial bounds
    for name, text, b in [
        ("x^3+2", "x^3 + 2", kernels.trial_bound([2, 0, 0, 1], 10**5)),
        ("x^2+1", "x^2 + 1", kernels.trial_bound([1, 0, 1], 10**6)),
        ("S3 cubic", "x^3 - 3*x^2 - 6*x + 14", 30000),
    ]:
        primes = kernels.prime_sieve(b)
        t, _ = timeit(kernels.roots_mod_primes, parse(text).coeffs, primes, repeat=k)
        row(f"roots_mod_primes {name}, B={b}", t)
        if name.startswith("S3"):
            t, _ = timeit(kernels.root_counts_mod_primes, parse(text).coeffs, primes, repeat=k)
            row(f"root_counts_mod_primes {name}, B={b}", t)

    # at B = 1e5 the roots of x^3 + 2 come from power residues; those of the
    # cubic 2x^3 + 3x + 5, no binomial, from x^p mod f and Cantor-Zassenhaus;
    # and the cube roots of -2 at the primes where x^3 + 2 has three roots
    primes = kernels.prime_sieve(10**5)
    t, _ = timeit(kernels.roots_mod_primes, [5, 3, 0, 2], primes, repeat=k)
    row("roots_mod_primes 2x^3+3x+5, B=1e5", t)
    three = primes[(primes % 3 == 1) & (primes > kernels._SCALAR_MAX_P)]
    three = three[modp.power(-2, (three - 1) // 3, three) == 1]
    t, roots = timeit(modp.cbrt, -2 % three, three, repeat=k)
    assert (roots * roots % three * roots % three == -2 % three).all()
    row(f"modp.cbrt(-2), {three.size} p, B=1e5", t)

    # a discriminant (-4 * 10^21 - 27) past 2^62: its residues mod the primes
    # come from 31-bit limbs, against the small one of x^3 + 2
    primes = kernels.prime_sieve(10**6)
    for name, coeffs in (("x^3+2", [2, 0, 0, 1]), ("x^3+1e7x+1", [1, 10**7, 0, 1])):
        t, _ = timeit(kernels.root_counts_mod_primes, coeffs, primes, repeat=k)
        row(f"root_counts_mod_primes {name}, B=1e6", t)

    # the Euler product of density --poly 'x^3 + 2' --B 1e5: its float ends
    # alone, and the whole density
    P = parse("x^3 + 2")
    est = eulerprod.density_univ(P, 10**5)
    tail = 1 - Fraction(P.degree, 10**5)
    t, _ = timeit(eulerprod._estimate, est.primes, est.hits, 2, 10**5, est.status, tail, repeat=k)
    row("_estimate(x^3+2, 1e5)", t)
    t, _ = timeit(eulerprod.density_univ, P, 10**5, repeat=k)
    row("density_univ(x^3+2, 1e5)", t)

    # the square profile of x^2 + 1 over 1..1e6: the census stream read
    # block by block through square_entries, as delta and avgprod read it,
    # with its tracemalloc peak
    coeffs, n = [1, 0, 1], 10**6
    b = kernels.trial_bound(coeffs, n)

    def streamed():
        ones = 0
        for _, cells, ps, rem in kernels.value_power_blocks(coeffs, n, b, 2):
            kernels.square_entries(cells, ps, rem)
            ones += int(np.count_nonzero(rem == 1))
        return ones

    t, _ = timeit(streamed, repeat=k)
    tracemalloc.start()
    streamed()
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    row(f"x^2+1 1e6 streamed, B={b}, {peak:.1f} MB", t)

    # the census stream of the same range: the classes mod p^2 and the
    # remainders, read as census --poly reads them
    def census_stream():
        return sum(cells.size for _, cells, _, _ in kernels.value_power_blocks(coeffs, n, b, 2))

    t, _ = timeit(census_stream, repeat=k)
    tracemalloc.start()
    census_stream()
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    row(f"x^2+1 1e6 census stream, m=2, {peak:.1f} MB", t)

    # local integrals over the 168 primes <= 1000, with their exact product;
    # and empirical_average's prediction at B = 1e3 and 1e5: the integrals
    # at the simple primes from the root counts in closed form, the product
    # and the slack sum enclosed in fixed point, for both class-free families
    P = parse("x^3 + 2")
    u = avgprod.squarefree_indicator_family(P)
    t, _ = timeit(avgprod.truncated_product, u, 1000, repeat=k)
    row("truncated_product(x^3+2, 1e3)", t)
    for name, u in (("", u), (" signed", avgprod.signed_valuation_family(P))):
        for e in (3, 5):
            t, _ = timeit(avgprod._predict, P, u, 10**e, repeat=k)
            row(f"avgprod prediction{name}(x^3+2, 1e{e})", t)

    # the lifting walk to depth 25: a chain of singular classes, and two
    # simple roots that lift one level at a time
    for text, p in (("x^2 + 7", 2), ("x^2 - 2", 47)):
        t, _ = timeit(localdens._lift_levels, parse(text), p, 25, repeat=k)
        row(f"_lift_levels({text}, {p}, 25)", t)

    # the census stream of the form over the 1001^2 pairs: the coprime
    # census reads the coprime-only stream, --all-pairs the full one; and
    # the other two operations of perfbench's census-form, which find v_p
    # at the stream's cells
    F = parse("x^3 + 2*z^3", kind="form")
    t, _ = timeit(census.count_squarefree_form, F, 500, repeat=k)
    row("count_squarefree_form(x^3+2z^3, 500)", t)
    t, _ = timeit(lambda: census.count_squarefree_form(F, 500, coprime=False), repeat=k)
    row("count_squarefree_form(..., all pairs)", t)
    t, _ = timeit(census.delta_census_form, F, 100, repeat=k)
    row("delta_census_form(x^3+2z^3, 100)", t)
    t, _ = timeit(census.twist_census, F, 60, repeat=k)
    row("twist_census(x^3+2z^3, 60)", t)

    # the R(alpha, d) sum of the cubic case: one sieve over the primes <= 1e6
    t, _ = timeit(census.r_alpha_sum, parse("x^3 - 2"), 0.4014, 10**6, repeat=k)
    row("r_alpha_sum(x^3-2, 0.4014, 1e6)", t)

    meta = {"backend": kernels.BACKEND, "numpy": np.__version__, "nproc": os.cpu_count(), "repeat": k}
    print(json.dumps({**meta, "ms": rows}))


if __name__ == "__main__":
    main()
