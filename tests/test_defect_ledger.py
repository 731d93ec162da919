"""The defect ledger: one strict xfail per known defect (ROADMAP item 13).

Each test states what a correct mflab does and fails today for the reason
named in its marker, so the fix of a defect turns its xfail into a pass
(strict: an unexpected pass fails the run until the marker goes).  Each
docstring gives the ROADMAP item and the call that reproduces the defect.
"""

import cmath
import csv

import mpmath as mp
import numpy as np
import pytest

from mflab.cli import main
from mflab.dirichlet import (ComplexPoint, HalaszDirection, TruncationPlan, log_F,
                             log_zeta_minus_prime_zeta, zeta)
from mflab.multfun import builtin, parse_function_spec


def defect(item: int, what: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {what}")


def read_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = list(csv.reader(lines[1:]))  # after the provenance line
    return rows[0], rows[1:]


@pytest.mark.parametrize("spec, direction, s, truth", [
    # eval-f --function twist:0.7:one --method euler --epsilon 1 --t0 0.7
    #        --sigma 1.01:1.01:1 printed |F| = 1.864, err 5.7e-4
    ("twist:0.7:one", HalaszDirection(1, 0.7), 1.01, lambda: mp.zeta(mp.mpc(1.01, 0.7))),
    # thm1 --function moebius --epsilon -1 --sigma 1.001:1.5:2 printed
    # abs_F = 2.431, err 8.9e-4, at sigma = 1.001
    ("moebius", HalaszDirection(-1, 0.0), 1.001, lambda: 1 / mp.zeta(1.001)),
], ids=["twist-0.7-one", "thm1-moebius-minus"])
def test_misaligned_euler_row_lies_within_err_of_the_truth(spec, direction, s, truth):
    """Mended (item 19): the Euler route added the unbounded model tail
    -e0 sum_{p>P} p^-w along a misaligned direction; it is the prime sum now."""
    (r,) = log_F(parse_function_spec(spec), [s], TruncationPlan(), direction)
    F = r.exp(s)
    with mp.workdps(30):
        want = complex(truth())
    assert F.method == "prime-sum"
    assert abs(F.value - want) <= F.error_bound


@pytest.mark.parametrize("sigma, t", [
    # off by 8.2e-11 against an err of 1.79e-11, in 0.35 s
    (1.01, 1e6),
    # off by 8.3e-9 against an err of 7.5e-11; zeta takes about 10 s at this height
    pytest.param(1.5, 1e8, marks=pytest.mark.slow),
], ids=["1e6", "1e8"])
@defect(2, "no err part counts the rounding of the phase t log n")
def test_zeta_at_height_lies_within_err(sigma, t):
    """``dirichlet.zeta(sigma + it)`` at t = 1e6 and 1e8, below the height ceiling."""
    r = zeta(ComplexPoint(sigma, t))
    with mp.workdps(30):
        want = complex(mp.zeta(mp.mpc(sigma, t)))
    assert abs(r.value - want) <= r.error_bound


@defect(2, "no err part counts the rounding of the phase t log n")
def test_prime_sum_at_height_1e8_lies_within_err():
    """``eval-f --function one --method prime-sum --sigma 3:3:1 --t 1e8
    --prime-cutoff 1e5``: log F is off by 1.29e-9 in im against an err of
    5.0e-11."""
    (r,) = log_F(builtin("one"), [ComplexPoint(3.0, 1e8)], TruncationPlan(prime_cutoff=10**5))
    with mp.workdps(30):
        want = complex(mp.log(mp.zeta(mp.mpc(3, 1e8))))
    d = r.value - want
    d = complex(d.real, (d.imag + cmath.pi) % (2 * cmath.pi) - cmath.pi)  # log modulo 2 pi i
    assert abs(d) <= r.error_bound


@defect(2, "no err part counts the rounding of the phase t log n")
def test_the_identity_at_height_1e5_lies_within_err():
    """``log_zeta_minus_prime_zeta(1.01 + 10^5 i)``, the bracket of ``lemma``
    and the prime-zeta part of ``eval-f --method euler`` at |t - t0| = 10^5:
    off by 1.29e-12 against an err of 5.48e-13.  At 3·10^4 it holds (2.9e-13
    against 5.4e-13).  The truth is log zeta(w) - P(w) from mpmath's ``zeta``
    and ``primezeta`` at 30 digits (45 digits agree to 5e-19), written out
    because it takes about 2 s to compute."""
    r = log_zeta_minus_prime_zeta(ComplexPoint(1.01, 1e5))
    want = complex(-0.04301939148670326452705213, 0.03332335819332332729167345)
    assert abs(r.value - want) <= r.error_bound


def test_criterion_refuses_a_height_whose_phases_are_noise(tmp_path, capsys):
    """``criterion --function moebius --t 1e300`` exited 0 with partial sums
    before every height a user gives shared zeta's ceiling (item 2)."""
    out = tmp_path / "c.txt"
    code = main(["criterion", "--function", "moebius", "--t", "1e300",
                 "--prime-cutoff", "1000", "--out", str(out)])
    assert code == 2 and capsys.readouterr().err.startswith("error:domain:")
    assert not out.exists()


def moebius_upto(x: int) -> np.ndarray:
    """mu(0..x) by a sieve of its own."""
    mu = np.ones(x + 1, dtype=np.int64)
    mu[0] = 0
    composite = np.zeros(x + 1, dtype=bool)
    for p in range(2, x + 1):
        if not composite[p]:
            composite[2 * p :: p] = True
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
    return mu


def test_sum_of_a_high_twist_is_refused_or_within_its_err(tmp_path):
    """``sum --function twist:1e12:moebius --limit 20000`` printed S = -85.575
    - 24.543i at x = 20000, where mpmath at 40 digits gives -85.534 - 24.483i.
    It is refused at the height ceiling now (exit 2); once sum prints an err
    (item 10), a run below the ceiling must lie within it."""
    out = tmp_path / "s.csv"
    code = main(["sum", "--function", "twist:1e12:moebius", "--limit", "20000",
                 "--out", str(out)])
    if code == 2:
        return
    header, rows = read_rows(out)
    assert "err" in header, header
    row = dict(zip(header, rows[-1]))
    assert row["x"] == "20000"
    mu = moebius_upto(20000)
    with mp.workdps(40):
        t = mp.mpf(10) ** 12
        want = complex(mp.fsum(int(mu[n]) * mp.expj(-t * mp.log(n))
                               for n in np.flatnonzero(mu).tolist()))
    got = complex(float(row["re_S"]), float(row["im_S"]))
    assert abs(got - want) <= float(row["err"])


def test_prime_sum_err_bounds_the_printed_F(tmp_path):
    """Mended (item 19): ``eval-f --function one --method prime-sum --sigma
    1.2:1.2:1 --prime-cutoff 100 --exact-cutoff 100`` printed F = 4.366 with
    err 1.995, which bounds log F; the bound EvalResult.exp gives for F is
    min(|F| expm1(1.995), |F| + 1 + 1/0.2) = 10.4."""
    out = tmp_path / "e.csv"
    assert main(["eval-f", "--function", "one", "--method", "prime-sum", "--sigma", "1.2:1.2:1",
                 "--prime-cutoff", "100", "--exact-cutoff", "100", "--out", str(out)]) == 0
    header, (row,) = read_rows(out)
    row = dict(zip(header, row))
    (r,) = log_F(builtin("one"), [ComplexPoint(1.2)], TruncationPlan(100, 100))
    F = r.exp(1.2)
    assert complex(float(row["re"]), float(row["im"])) == F.value
    assert float(row["err"]) == F.error_bound


@defect(9, "thm1 writes the ratio nan when |F| <= err")
def test_thm1_writes_no_nan(tmp_path):
    """``thm1 --function one --epsilon 1 --sigma 1.001:1.5:2 --prime-cutoff
    1000 --exact-cutoff 3`` writes ratio nan at sigma = 1.001."""
    out = tmp_path / "t.csv"
    assert main(["thm1", "--function", "one", "--epsilon", "1", "--sigma", "1.001:1.5:2",
                 "--prime-cutoff", "1000", "--exact-cutoff", "3", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert not any(v == "nan" for row in rows for v in row)
