import hashlib
import json
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from sievecraft import cli, kernels
from sievecraft.avgprod import empirical_average, squarefree_indicator_family
from sievecraft.census import count_powerfree_values
from sievecraft.eulerprod import density_univ
from sievecraft.poly import parse


def _run(capsys, *argv):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_density_poly(capsys):
    code, out, err = _run(capsys, "density", "--poly", "x", "--B", "100")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "sievecraft/1"
    assert data["lower"] <= 6 / 3.14159265**2 <= data["upper"]
    assert data["status"] == "ok"


def test_density_form(capsys):
    code, out, _ = _run(capsys, "density", "--form", "x^3 + 2*z^3", "--B", "50", "--coprime")
    assert code == 0
    data = json.loads(out)
    assert data["coprime"] is True
    assert 0 < data["lower"] <= data["upper"] < 1


def test_census_poly(capsys):
    code, out, _ = _run(capsys, "census", "--poly", "x", "--N", "100")
    assert code == 0
    data = json.loads(out)
    assert data["observed"] == 61


def test_census_form(capsys):
    code, out, _ = _run(capsys, "census", "--form", "x*z", "--N", "10")
    assert code == 0
    assert json.loads(out)["observed"] == 132


def test_census_form_with_content(capsys):
    # content 12 = 2^2 * 3: every value is divisible by 4, so the count and
    # the main term are both 0
    code, out, _ = _run(
        capsys, "census", "--form", "12*x^3 + 24*z^3 + 36*x*z^2", "--N", "100", "--all-pairs"
    )
    assert code == 0
    data = json.loads(out)
    assert (data["observed"], data["main_lo"], data["main_hi"]) == (0, 0.0, 0.0)
    # content 3: a positive main term
    code, out, _ = _run(capsys, "census", "--form", "3*x^3 + 6*z^3", "--N", "60")
    assert code == 0
    data = json.loads(out)
    assert 0 < data["main_lo"] <= data["main_hi"] and data["observed"] > 0


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_zero_main_term_is_strict_json(capsys):
    # a zero main term has no relative discrepancy: null, not Infinity
    for argv in (
        ["census", "--poly", "4*x + 4", "--N", "100"],
        ["census", "--form", "4*x^3 + 8*z^3", "--N", "20"],
    ):
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert json.loads(out, parse_constant=_reject_constant)["discrepancy_rel"] is None
    code, out, _ = _run(capsys, "density", "--form", "4*x^3 + 8*z^3", "--coprime")
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)["status"] == "zero_density"


def test_delta(capsys):
    code, out, _ = _run(capsys, "delta", "--poly", "x^3 + 2", "--N", "100")
    assert code == 0
    assert json.loads(out)["count"] == 2
    code, out, _ = _run(capsys, "delta", "--form", "x^3 + 2*z^3", "--N", "30")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 14
    assert data["profile"] == {"31": 8, "43": 4, "71": 2}


def test_twists(capsys):
    code, out, _ = _run(capsys, "twists", "--form", "x^3 + 2*z^3", "--N", "15")
    assert code == 0
    assert out.startswith("d,S_d\n")
    assert "\n3,3\n" in out


def test_tables(capsys):
    code, out, _ = _run(capsys, "tables")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 17
    assert lines[0].startswith("group,order,")
    code, out, _ = _run(capsys, "tables", "--alpha", "0.5")
    assert code == 0
    assert len(out.strip().split("\n")) == 17


def test_avgprod(capsys):
    code, out, _ = _run(capsys, "avgprod", "--poly", "x", "--N", "10000")
    assert code == 0
    data = json.loads(out)
    assert abs(data["empirical_re"] - 0.6079) < 0.01
    assert data["predicted_lo"] <= data["empirical_re"] + data["delta_term"]
    code, out, _ = _run(
        capsys, "avgprod", "--poly", "x", "--N", "5000", "--progression", "1,3"
    )
    assert code == 0
    assert abs(json.loads(out)["empirical_re"] - 0.228) < 0.01


def test_avgprod_progression_modulus(capsys):
    # modulus 0 is a domain error; a negative modulus reads as its absolute value
    code, out, err = _run(capsys, "avgprod", "--poly", "x", "--N", "1000", "--progression", "2,0")
    assert (code, out) == (2, "") and "modulus" in err
    _, pos, _ = _run(capsys, "avgprod", "--poly", "x", "--N", "1000", "--progression", "1,3")
    code, neg, _ = _run(capsys, "avgprod", "--poly", "x", "--N", "1000", "--progression", "1,-3")
    assert code == 0 and neg == pos and json.loads(neg)["empirical_re"] == 0.227


# sha256 of the stdout of avgprod --poly 'x^3 + 2' --N 10000 with --digits 4,
# recorded before the products were streamed block by block
AVGPROD_FROZEN = {
    ("indicator", ()): "383d6493be0c4ff3",
    ("indicator", ("--progression", "1,3")): "1f48b3b4f829dac5",
    ("indicator", ("--progression", "2,9")): "a3c99b37d570e520",
    ("indicator", ("--mobius",)): "aba499f59e831d51",
    ("signed", ()): "c132b5280e64be4a",
    ("signed", ("--progression", "1,3")): "e5d4af09f97200cf",
    ("signed", ("--progression", "2,9")): "9f4411ed7bc4a02d",
    ("signed", ("--mobius",)): "c9ad25b45a2a60bf",
}


@pytest.mark.parametrize("family,mult", list(AVGPROD_FROZEN))
def test_avgprod_frozen(capsys, family, mult):
    argv = ["--digits", "4", "avgprod", "--poly", "x^3 + 2", "--N", "10000", "--family", family]
    code, out, err = _run(capsys, *argv, *mult)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == AVGPROD_FROZEN[family, mult]


def _imports_numpy_ma(argv) -> bool:
    """Whether one CLI run in a fresh interpreter imports numpy.ma."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from sievecraft import cli; "
        f"assert cli.run({argv!r}) == 0; "
        "print('numpy.ma' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1] == "True"


def test_delta_form_does_not_import_numpy_ma():
    # the distinct cells of delta --form are counted without np.unique, whose
    # flagless form imports numpy.ma (numpy 2.4), a cost paid on every run
    assert not _imports_numpy_ma(["delta", "--form", "x^3 + 2*z^3", "--N", "20"])


def test_census_poly_does_not_import_numpy_ma():
    # the classes mod p^2 are formed without np.union1d or np.unique, which
    # import numpy.ma: about 1.7 MB of resident memory on every run
    assert not _imports_numpy_ma(["census", "--poly", "x^2 - 12", "--N", "20"])


def test_census_constant_refused_before_sieving(capsys, monkeypatch):
    # deg P < 1 is refused as avgprod refuses it, before a trial bound is
    # taken or a prime sieved
    code, out, err = _run(capsys, "avgprod", "--poly", "5", "--N", "100")
    assert (code, out, err) == (2, "", "error: degree must be >= 1\n")

    def refuse(*args):
        raise RuntimeError("a constant was sieved")

    monkeypatch.setattr(kernels, "trial_bound", refuse)
    monkeypatch.setattr(kernels, "prime_sieve", refuse)
    for m in ("2", "3"):
        assert _run(capsys, "census", "--poly", "5", "--N", "1e6", "--m", m) == (code, out, err)


def test_delta_and_multiplier_constant_refused_before_sieving(capsys, monkeypatch):
    # delta --poly and avgprod with or without a multiplier refuse deg P < 1
    # as census --poly does, before a trial bound is taken or a prime sieved
    def refuse(*args):
        raise RuntimeError("a constant was sieved")

    monkeypatch.setattr(kernels, "trial_bound", refuse)
    monkeypatch.setattr(kernels, "prime_sieve", refuse)
    refused = (2, "", "error: degree must be >= 1\n")
    assert _run(capsys, "delta", "--poly", "5", "--N", "100000") == refused
    for mult in ([], ["--mobius"], ["--progression", "1,3"]):
        assert _run(capsys, "avgprod", "--poly", "5", "--N", "100000", *mult) == refused


def test_sievecheck(capsys):
    code, out, _ = _run(capsys, "sievecheck", "--seed", "1", "--count", "20")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == 0
    assert data["checks"] > 0


def test_splitting(capsys):
    code, out, _ = _run(capsys, "splitting", "--poly", "x^3 - 2", "--p", "31")
    assert code == 0
    assert json.loads(out)["type"] == [1, 1, 1]


def test_determinism(capsys):
    a = _run(capsys, "census", "--poly", "x^3 + 2", "--N", "2000")
    b = _run(capsys, "census", "--poly", "x^3 + 2", "--N", "2000")
    ja, jb = json.loads(a[1]), json.loads(b[1])
    ja.pop("seconds", None), jb.pop("seconds", None)
    assert ja == jb


def test_exit_usage(capsys):
    assert _run(capsys, "density")[0] == 64  # missing --poly/--form
    assert _run(capsys, "nonsense")[0] == 64
    assert _run(capsys)[0] == 64


def test_scientific_integer_arguments(capsys):
    # the ROADMAP's reference commands write N and B in scientific notation
    plain = _run(capsys, "census", "--poly", "x", "--N", "1000000")
    assert _run(capsys, "census", "--poly", "x", "--N", "1e6") == plain
    assert plain[0] == 0 and json.loads(plain[1])["N"] == 1000000
    assert _run(capsys, "density", "--poly", "x", "--B", "1e3") == _run(capsys, "density", "--poly", "x", "--B", "1000")
    assert _run(capsys, "delta", "--poly", "x^2 + 1", "--N", "2.5e3", "--threshold", "5E1") == _run(
        capsys, "delta", "--poly", "x^2 + 1", "--N", "2500", "--threshold", "50"
    )
    for bad in ("1.5e0", "1e-3", "1e", "1e999999999", "abc"):
        code, out, err = _run(capsys, "density", "--poly", "x", "--B", bad)
        assert (code, out) == (64, "") and f"invalid int value: {bad!r}" in err


def test_exit_domain(capsys):
    # square-full polynomial: domain error
    code, _, err = _run(capsys, "density", "--poly", "x^2 - 2*x + 1")
    assert code == 2
    assert "error" in err
    # unparsable polynomial
    assert _run(capsys, "census", "--poly", "x +", "--N", "10")[0] == 2
    # ramified prime for splitting
    assert _run(capsys, "splitting", "--poly", "x^3 - 2", "--p", "3")[0] == 2
    # square-full polynomial under every multiplier
    for mult in (["--mobius"], ["--progression", "1,3"], []):
        assert _run(capsys, "avgprod", "--poly", "x^2", "--N", "100", *mult)[0] == 2
        # an empty range has no average
        code, _, err = _run(capsys, "avgprod", "--poly", "x", "--N", "0", *mult)
        assert code == 2 and "N >= 1" in err
    # every path that takes a polynomial or a form refuses a repeated factor
    for argv in (
        ["density", "--poly", "x^2"],
        ["density", "--form", "x^2*z"],
        ["density", "--form", "x^2*z", "--coprime"],
        ["census", "--poly", "x^2", "--N", "100"],
        ["census", "--form", "x^2*z", "--N", "10"],
        ["census", "--form", "x^2*z", "--N", "10", "--all-pairs"],
        ["delta", "--poly", "x^2", "--N", "100"],
        ["delta", "--form", "x^2*z", "--N", "10"],
        ["twists", "--form", "x^2*z", "--N", "10"],
        ["avgprod", "--poly", "x^2", "--N", "100"],
    ):
        code, _, err = _run(capsys, *argv)
        assert code == 2 and "square-free" in err, argv
    # constant forms and negative N are refused before any trial bound
    for argv, msg in (
        (["density", "--form", "6", "--B", "10"], "degree must be >= 1"),
        (["census", "--form", "6", "--N", "3", "--all-pairs"], "degree must be >= 1"),
        (["census", "--form", "6", "--N", "3"], "degree must be >= 1"),
        (["delta", "--form", "6", "--N", "3"], "degree must be >= 1"),
        (["census", "--form", "x^3+2*z^3", "--N", "-3"], "N >= 0"),
        (["census", "--form", "x^3+2*z^3", "--N", "-3", "--convention", "positive-quadrant"], "N >= 0"),
        (["delta", "--form", "x^3+2*z^3", "--N", "-2"], "N >= 0"),
        (["twists", "--form", "x^3+2*z^3", "--N", "-2"], "N >= 0"),
        (["delta", "--poly", "x", "--N", "-5"], "N >= 0"),
        # --m is read on --poly only; a form's census and density are m = 2
        (["census", "--form", "x^3+2*z^3", "--N", "3", "--m", "3"], "--m applies to --poly only"),
        (["density", "--form", "x^3+2*z^3", "--B", "100", "--m", "3"], "--m applies to --poly only"),
    ):
        code, _, err = _run(capsys, *argv)
        assert code == 2 and msg in err, argv
    # --form with --m 2 prints what it prints without --m
    for argv in (["census", "--form", "x^3+2*z^3", "--N", "3"], ["density", "--form", "x^3+2*z^3", "--B", "100"]):
        assert _run(capsys, *argv, "--m", "2") == _run(capsys, *argv)


def test_exit_resource(capsys):
    code, _, err = _run(capsys, "census", "--poly", "x^9 + 1", "--N", "10000000")
    assert code == 3
    assert "resource" in err
    # the int64 budget is checked before the primes up to the trial bound
    # are sieved
    tracemalloc.start()
    try:
        code, _, err = _run(capsys, "avgprod", "--poly", "x^3 + 2", "--N", "3e6")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and "resource" in err
    assert peak < 8 * 2**20


@pytest.mark.parametrize("mult", [(), ("--progression", "1,3"), ("--mobius",)])
def test_avgprod_memory_flat_in_n(capsys, mult):
    # the products and the multiplier are read block by block: the traced
    # peak at N = 2^18 is within 0.5 MB of the one at N = 2^15, where one
    # complex value per x would add 3.5 MB
    _run(capsys, "avgprod", "--poly", "x", "--N", "1000", *mult)  # numpy's lazy imports
    peaks = []
    for n in (2**15, 2**18):
        tracemalloc.start()
        try:
            code, _, _ = _run(capsys, "avgprod", "--poly", "x", "--N", str(n), *mult)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert abs(peaks[1] - peaks[0]) < 2**19


def test_density_deep_m(capsys):
    code, out, _ = _run(capsys, "density", "--poly", "x^2 + 7", "--m", "1100", "--B", "10")
    assert code == 0 and json.loads(out)["m"] == 1100


def test_digits_rounding(capsys):
    code, out, _ = _run(capsys, "--digits", "3", "density", "--poly", "x", "--B", "100")
    assert code == 0
    data = json.loads(out)
    assert data["lower"] == round(data["lower"], 3)


def test_digits_round_outward(capsys):
    # exact ends 0.60294338814... and 0.60903372540...: to nearest they
    # would print 0.603 and 0.609, both inside the interval
    est = density_univ(parse("x"), 100)
    code, out, _ = _run(capsys, "--digits", "3", "density", "--poly", "x", "--B", "100")
    assert code == 0
    data = json.loads(out)
    assert (data["lower"], data["upper"]) == (0.602, 0.61)
    assert Fraction(data["lower"]) <= Fraction(est.lower)
    assert Fraction(data["upper"]) >= Fraction(est.upper)
    assert data["truncated"] == 0.609  # not an interval end: to nearest
    rep = count_powerfree_values(parse("x^2 + 1"), 1000)
    code, out, _ = _run(capsys, "--digits", "1", "census", "--poly", "x^2 + 1", "--N", "1000")
    data = json.loads(out)
    assert Fraction(data["main_lo"]) <= Fraction(rep.main_lo) < Fraction(data["main_lo"]) + Fraction(1, 10)
    assert Fraction(data["main_hi"]) - Fraction(1, 10) < Fraction(rep.main_hi) <= Fraction(data["main_hi"])
    P = parse("x^3 + 2")
    rep = empirical_average(P, squarefree_indicator_family(P), 1000)
    code, out, _ = _run(capsys, "--digits", "4", "avgprod", "--poly", "x^3 + 2", "--N", "1000")
    data = json.loads(out)
    step = Fraction(1, 10**4)
    assert Fraction(data["predicted_lo"]) <= Fraction(rep.predicted_lo) < Fraction(data["predicted_lo"]) + step
    for key in ("predicted_hi", "tail_slack"):
        assert Fraction(data[key]) - step < Fraction(getattr(rep, key)) <= Fraction(data[key])


def test_density_enclosure_unreduced(capsys):
    # ends rounded from the unreduced num / den: lower <= exact lower end
    # <= truncated <= upper, and truncated is the exact product to nearest
    est = density_univ(parse("x^3 + 2"), 100000)
    code, out, _ = _run(capsys, "--digits", "17", "density", "--poly", "x^3 + 2", "--B", "100000")
    assert code == 0
    data = json.loads(out)
    exact_lo = est.truncated * (1 - Fraction(3, 100000))
    assert Fraction(data["lower"]) <= exact_lo <= Fraction(data["truncated"]) <= Fraction(data["upper"])
    assert data["truncated"] == float(est.truncated)
    assert (data["lower"], data["upper"]) == (est.lower, est.upper)


def test_console_script_entry():
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 64  # no argv supplied under pytest
