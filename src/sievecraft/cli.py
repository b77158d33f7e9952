"""Command-line front end: parses one subcommand, dispatches to the
library, and prints a JSON or CSV report."""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import random
import re
import sys
from fractions import Fraction

from . import avgprod, census, eulerprod, exponents, soil
from .poly import ParseError, parse

SCHEMA = "sievecraft/1"

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# interval ends, rounded outward so that the printed interval still encloses
_ROUND_DOWN = {"lower", "main_lo", "predicted_lo"}
_ROUND_UP = {"upper", "main_hi", "predicted_hi", "tail_slack"}


def _round_outward(x: float, digits: int, up: bool) -> float:
    if not math.isfinite(x):
        return x
    scale = Fraction(10) ** digits
    q = Fraction(x) * scale
    # the float nearest to a decimal on x's side of x stays on that side
    return float((math.ceil(q) if up else math.floor(q)) / scale)


def _rounded(obj, digits: int, key: str | None = None):
    if isinstance(obj, float):
        if key in _ROUND_DOWN or key in _ROUND_UP:
            return _round_outward(obj, digits, up=key in _ROUND_UP)
        return round(obj, digits)
    if isinstance(obj, dict):
        return {k: _rounded(v, digits, k) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v, digits) for v in obj]
    return obj


def _emit(payload: dict, digits: int) -> None:
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(_rounded(payload, digits), allow_nan=False))


_SCIENTIFIC = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)[eE][+-]?\d+")


def _integer(text: str) -> int:
    """An int, also written in scientific notation when that denotes an
    integer exactly: 1e6 and 2.5e3, but not 1.5e0 or 1e-3."""
    if _SCIENTIFIC.fullmatch(text.strip()):
        d = decimal.Decimal(text)
        # at most 4300 digits, CPython's default cap for int(str): 1e999999999
        # is refused rather than expanded
        if d == d.to_integral_value() and d.adjusted() < 4300:
            return int(d)
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


@functools.cache  # parse_args leaves the parser as it was: one per process
def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="sievecraft", description=__doc__)
    top.add_argument("--digits", type=int, default=12, help="float precision in reports")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="Euler-product density interval")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--poly")
    g.add_argument("--form")
    p.add_argument("--B", type=_integer, default=10**4)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--coprime", action="store_true")

    p = sub.add_parser("census", help="exact value census vs main term")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--poly")
    g.add_argument("--form")
    p.add_argument("--N", type=_integer, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--convention", choices=["full-box", "positive-quadrant"], default="full-box")
    p.add_argument("--all-pairs", action="store_true", help="forms: drop the coprimality restriction")

    p = sub.add_parser("delta", help="exceptional large-prime-square census")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--poly")
    g.add_argument("--form")
    p.add_argument("--N", type=_integer, required=True)
    p.add_argument("--threshold", type=_integer)

    p = sub.add_parser("twists", help="twist table d*y^2 = F(x,z) as CSV")
    p.add_argument("--form", required=True)
    p.add_argument("--N", type=_integer, required=True)

    p = sub.add_parser("tables", help="group exponent tables as CSV")
    p.add_argument("--alpha", default="paper", help="'paper' or a numeric override")

    p = sub.add_parser("avgprod", help="average of a local-factor product")
    p.add_argument("--poly", required=True)
    p.add_argument("--N", type=_integer, required=True)
    p.add_argument("--family", choices=["indicator", "signed"], default="indicator")
    p.add_argument("--B", type=_integer, default=10**3)
    p.add_argument("--progression", help="a,m: restrict with the multiplier 1_{n=a mod m}")
    p.add_argument("--mobius", action="store_true", help="weight by mu(n) (no prediction)")

    p = sub.add_parser("sievecheck", help="random-soil sieve inequality sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)

    p = sub.add_parser("splitting", help="factor-degree multiset of P mod p")
    p.add_argument("--poly", required=True)
    p.add_argument("--p", type=int, required=True)
    return top


def _cmd_density(args, digits):
    if args.poly:
        est = eulerprod.density_univ(parse(args.poly), args.B, args.m)
        target = {"poly": args.poly, "m": args.m}
    else:
        if args.m != 2:
            raise ValueError("--m applies to --poly only")
        est = eulerprod.density_form(parse(args.form, kind="form"), args.B, coprime=args.coprime)
        target = {"form": args.form, "coprime": args.coprime}
    _emit(
        {
            **target,
            "B": est.B,
            "lower": est.lower,
            "upper": est.upper,
            "truncated": est.nearest,
            "status": est.status,
        },
        digits,
    )


def _cmd_census(args, digits):
    if args.poly:
        rep = census.count_powerfree_values(parse(args.poly), args.N, args.m)
    else:
        if args.m != 2:
            raise ValueError("--m applies to --poly only")
        rep = census.count_squarefree_form(
            parse(args.form, kind="form"), args.N, args.convention, coprime=not args.all_pairs
        )
    _emit(rep.to_dict(), digits)


def _cmd_delta(args, digits):
    if args.poly:
        n = census.delta_census_univ(parse(args.poly), args.N, args.threshold)
        _emit({"poly": args.poly, "N": args.N, "count": n}, digits)
    else:
        n, profile = census.delta_census_form(parse(args.form, kind="form"), args.N, args.threshold)
        _emit(
            {
                "form": args.form,
                "N": args.N,
                "count": n,
                "profile": {str(p): c for p, c in sorted(profile.items())},
            },
            digits,
        )


def _cmd_twists(args, digits):
    table = census.twist_census(parse(args.form, kind="form"), args.N)
    sys.stdout.write(table.to_csv())


def _cmd_tables(args, digits):
    if args.alpha != "paper":
        alpha = float(args.alpha)
        lines = ["group,order,delta,beta"]
        for G in exponents.catalog():
            d = exponents.delta_exponent(G, alpha)
            lines.append(f"{G.name},{G.order},{d:.{digits}g},{1 - d / 3:.{digits}g}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(exponents.tables_csv())


def _cmd_avgprod(args, digits):
    P = parse(args.poly)
    family = (
        avgprod.squarefree_indicator_family(P)
        if args.family == "indicator"
        else avgprod.signed_valuation_family(P)
    )
    if args.progression and args.mobius:
        raise ValueError("choose at most one multiplier")
    if args.progression:
        a, m = (int(t) for t in args.progression.split(","))
        mult = avgprod.MultiplierSpec(kind="progression", a=a, m=m)
        rep = avgprod.average_with_multiplier(P, family, mult, args.N, args.B)
    elif args.mobius:
        mult = avgprod.MultiplierSpec(kind="mobius-experimental")
        rep = avgprod.average_with_multiplier(P, family, mult, args.N, args.B)
    else:
        rep = avgprod.empirical_average(P, family, args.N, args.B)
    _emit({"poly": args.poly, "family": args.family, **rep.to_dict()}, digits)


def _cmd_sievecheck(args, digits):
    rng = random.Random(args.seed)
    violations = 0
    checked = 0
    for _ in range(args.count):
        n_p = rng.randint(0, 6)
        weights = [rng.randint(2, 9) for _ in range(n_p)]
        ground = list(range(rng.randint(1, 200)))
        rmap = {a: frozenset(i for i in range(n_p) if rng.random() < 0.3) for a in ground}
        fvals = {}

        def f(a, d, fvals=fvals, rng=rng):
            key = (a, d)
            if key not in fvals:
                # nonnegative: the truncation bound assumes 0 <= f <= max f
                fvals[key] = rng.uniform(0, 1)
            return fvals[key]

        spec = soil.SoilSpec(list(zip(range(n_p), weights)), ground, lambda a: rmap[a], f)
        direct = spec.direct_sum()
        h_total = spec.h_total()
        for M in sorted({1, 2, 3, 5, 10, 30, min(h_total, 100), h_total}):
            checked += 1
            if abs(direct - spec.truncated_estimate(M)) > spec.ridd_bound(M) + 1e-9:
                violations += 1
    _emit({"seed": args.seed, "soils": args.count, "checks": checked, "violations": violations}, digits)
    return EXIT_OK if violations == 0 else EXIT_DOMAIN


def _cmd_splitting(args, digits):
    t = census.splitting_type(parse(args.poly), args.p)
    _emit({"poly": args.poly, "p": args.p, "type": t}, digits)


_DISPATCH = {
    "density": _cmd_density,
    "census": _cmd_census,
    "delta": _cmd_delta,
    "twists": _cmd_twists,
    "tables": _cmd_tables,
    "avgprod": _cmd_avgprod,
    "sievecheck": _cmd_sievecheck,
    "splitting": _cmd_splitting,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_USAGE
    try:
        code = _DISPATCH[args.command](args, args.digits)
        return EXIT_OK if code is None else code
    except (ParseError, ValueError, AssertionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OverflowError, MemoryError) as e:
        # a bare MemoryError has no text
        print(f"resource error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
