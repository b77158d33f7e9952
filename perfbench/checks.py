"""Checks of one operation's output against its reference and against
properties the method must have.

``check`` returns a list of problems.  A problem tagged ``FAULT`` is the one
known defect the benchmark keeps as a failing operation: the density interval
of ``density --poly 'x^3 + 2' --B 100000`` does not enclose the exact
truncated product, because its ends are rounded to nearest, not outward.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from reference import as_float, primes_upto

FAULT = "enclosure"
ABS = 2e-12  # the CLI prints floats to 12 decimals, rounded either way
REL = 1e-9


def _close(got, want: float, tol: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol


def _rel(got, want: float) -> bool:
    return _close(got, want, REL * abs(want))


def _equal(problems: list, name: str, got, want) -> None:
    if got != want:
        problems.append(f"{name}: got {got!r}, reference {want!r}")


def _near(problems: list, name: str, ok: bool, got, want) -> None:
    if not ok:
        problems.append(f"{name}: got {got!r}, reference {want!r}")


def _census(out: dict, ref: dict, n_scale: int, problems: list) -> None:
    _equal(problems, "observed", out.get("observed"), ref["observed"])
    _equal(problems, "zeros", out.get("zeros"), ref["zeros"])
    lo, hi = as_float(ref["L"]) * n_scale, as_float(ref["T"]) * n_scale
    _near(problems, "main_lo", _rel(out.get("main_lo"), lo), out.get("main_lo"), lo)
    _near(problems, "main_hi", _rel(out.get("main_hi"), hi), out.get("main_hi"), hi)


def _density(out: dict, ref: dict, problems: list) -> None:
    t, lo = as_float(ref["T"]), as_float(ref["L"])
    for key, want in (("truncated", t), ("upper", t), ("lower", lo)):
        _near(problems, key, _close(out.get(key), want, ABS), out.get(key), want)
    _equal(problems, "status", out.get("status"), "ok")


def _average(out: dict, op: dict, problems: list) -> float:
    """Checks shared by both averages; returns the predicted midpoint."""
    emp, tail, delta = out["empirical_re"], out["tail_slack"], out["delta_term"]
    pred = (out["predicted_lo"] + out["predicted_hi"]) / 2
    _equal(problems, "empirical_im", out["empirical_im"], 0.0)
    if tail < (len(op["coeffs"]) - 1) / op["B"] - ABS:
        problems.append(f"tail_slack {tail} below deg/B")
    if abs(emp - pred) > tail + delta + 10 * ABS:
        problems.append(f"|empirical - predicted| = {abs(emp - pred)} > {tail} + {delta}")
    return pred


def check(op: dict, ref: dict, rc, stdout: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc!r}"]
    try:
        return _check(op, ref, stdout)
    except (ValueError, KeyError, TypeError) as e:
        return [f"malformed output ({e!r}): {stdout[:200]!r}"]


def _check(op: dict, ref: dict, stdout: str) -> list[str]:
    kind = op["kind"]
    problems: list[str] = []
    if kind == "twists":
        lines = stdout.splitlines()
        _equal(problems, "header", lines[:1], ["d,S_d"])
        table = dict(line.split(",") for line in lines[1:])
        got = {d: int(s) for d, s in table.items()}
        _equal(problems, "table", got, ref["table"])
        if sum(got.values()) + ref["zeros"] != ref["pairs"]:
            problems.append("sum S(d) + zeros != coprime pairs")
        ds = np.abs(np.array([int(d) for d in got], dtype=np.int64))
        for p in primes_upto(math.isqrt(int(ds.max(initial=1)))):
            if np.any(ds % (p * p) == 0):
                problems.append(f"a twist d is divisible by {p}^2")
                break
        return problems
    out = json.loads(stdout)
    if kind in ("census-poly", "census-x"):
        _census(out, ref, op["N"], problems)
    elif kind == "census-form":
        _census(out, ref, 4 * op["N"] ** 2, problems)
    elif kind in ("density-poly", "density-form"):
        _density(out, ref, problems)
    elif kind == "density-enclosure":
        _density(out, ref, problems)
        t_hi, l_lo = Fraction(ref["T"][1]), Fraction(ref["L"][0])
        if not Fraction(out["upper"]) >= t_hi or not Fraction(out["lower"]) <= l_lo:
            problems.append(
                f"{FAULT}: [{out['lower']!r}, {out['upper']!r}] does not contain "
                f"[{ref['L'][0]}, {ref['T'][1]}]"
            )
    elif kind == "avgprod-indicator":
        n = op["N"]
        pred = _average(out, op, problems)
        _equal(problems, "round(empirical*N)", round(out["empirical_re"] * n), ref["observed"])
        want = 2 * ref["delta"] / n
        _near(problems, "delta_term", _close(out["delta_term"], want, ABS), out["delta_term"], want)
        t = as_float(ref["T"])
        _near(problems, "predicted", _close(pred, t, 10 * ABS), pred, t)
    elif kind == "avgprod-progression":
        pred = _average(out, op, problems)
        _equal(problems, "round(empirical*N)", round(out["empirical_re"] * op["N"]), ref["observed"])
        _near(problems, "predicted", _close(pred, ref["predicted"], 10 * ABS), pred, ref["predicted"])
    elif kind == "delta-form":
        _equal(problems, "count", out.get("count"), ref["count"])
        _equal(problems, "profile", out.get("profile"), ref["profile"])
    else:
        raise RuntimeError(f"unknown operation kind {kind!r}")
    return problems
