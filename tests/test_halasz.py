import math
import os
import tracemalloc

import numpy as np
import pytest

from mflab import extremal
from mflab.dirichlet import ComplexPoint, TruncationPlan, log_F, zeta
from mflab.errors import DomainError
from mflab.halasz import (
    HalaszDirection,
    criterion_report,
    lemma_defect,
    lemma_ratio,
    pole_sum,
    theorem1_ratio,
    theorem2_ratio,
)
from mflab.multfun import (
    MultiplicativeFunction,
    builtin,
    completely_multiplicative,
    parse_function_spec,
    summatory_trace,
)
from mflab.primes import MERTENS_CONSTANT, sieve_primes

BASE = sieve_primes(10**5)
PLAN = TruncationPlan(prime_cutoff=10**5, exact_factor_cutoff=10**4)
EPLUS = HalaszDirection(1, 0.0)
EMINUS = HalaszDirection(-1, 0.0)


def test_direction_validation():
    with pytest.raises(DomainError):
        HalaszDirection(0, 0.0)


def test_pole_sum_perfect_cases():
    # f(p) = -1 aligned with epsilon0 = +1: every term vanishes
    s = pole_sum(builtin("liouville"), EPLUS, 10**5)
    assert s.final() == 0.0
    s = pole_sum(builtin("one"), EMINUS, 10**5)
    assert s.final() == 0.0


def test_pole_sum_tracks_double_mertens():
    one = builtin("one")
    for P in (10**3, 10**4, 10**5, 10**6):
        s = pole_sum(one, EPLUS, P)
        expected = 2.0 * (math.log(math.log(P)) + MERTENS_CONSTANT)
        assert abs(s.final() - expected) < 0.1


def test_pole_sum_partials_monotone():
    s = pole_sum(builtin("moebius"), EPLUS, 10**5)
    assert np.all(np.diff(s.partials) >= 0)
    assert s.cutoffs[-1] == 10**5


def test_pole_sum_sums_terms_within_the_class_M_tolerance_unclamped():
    # criterion's arithmetic: a term in (-1e-12, 0) is summed as it is, not as 0
    f = MultiplicativeFunction("edge", lambda ps, k: np.full(ps.shape, -(1.0 + 1e-13)))
    ps = BASE[BASE <= 100]
    got = pole_sum(f, EPLUS, 100).final()
    assert got == pytest.approx(-1e-13 * np.sum(1.0 / ps), rel=1e-3, abs=0)


def test_pole_sum_rejects_out_of_class():
    # |f(p)| = 1.5 gives Re g(p) < 0 along (+1, 0) at p = 2 and along (-1, 0)
    # at every odd p; criterion reads its partial sums from pole_sum along (-1, t)
    bad = MultiplicativeFunction("bad", lambda ps, k: np.where(ps == 2, -1.5, 1.5))
    with pytest.raises(DomainError):
        pole_sum(bad, EPLUS, 1000)
    with pytest.raises(DomainError, match="p=3"):
        criterion_report(bad, 0.0, 1000)


def test_finiteness_transfer():
    # bounded alignment sum forces a bounded theta-square sum (factor 2 pi)
    rng = np.random.default_rng(3)
    thetas = {int(p): float(th) for p, th in zip(BASE, rng.normal(0, 0.2, BASE.size))}

    f = completely_multiplicative(
        "perturbed", lambda ps: -np.exp(1j * np.array([thetas.get(int(p), 0.0) for p in ps])))
    P = 10**4
    B = pole_sum(f, EPLUS, P).final()
    theta_sq = sum(
        abs(f.prime_power(int(p), 1)) * thetas.get(int(p), 0.0) ** 2 / int(p)
        for p in BASE[BASE <= P])
    assert theta_sq <= 2 * math.pi * B


def test_lemma_defect_liouville_grid():
    lam = builtin("liouville")
    vals = []
    sigmas = [1.1, 1.01, 1.001]
    for sg, r in zip(sigmas, lemma_defect(lam, EPLUS, sigmas, PLAN.prime_cutoff)):
        assert abs(r.value) <= 1.0
        vals.append(lemma_ratio(sg, r.value))
    assert vals[0] > vals[1] > vals[2]


def test_lemma_defect_oracle_value():
    # residual vanishes for liouville, so D = sum_p sum_{k>=2} p^{-k sigma}/k;
    # independent oracle: direct double sum over sieve primes plus tiny tail
    lam = builtin("liouville")
    sg = 1.01
    (r,) = lemma_defect(lam, EPLUS, [sg], PLAN.prime_cutoff)
    oracle = 0.0
    for p in BASE[:2000]:
        p = float(p)
        for k in range(2, 60):
            term = p ** (-k * sg) / k
            oracle += term
            if term < 1e-18:
                break
    assert abs(r.value - oracle) < 1e-3
    assert abs(r.value - 0.308) < 5e-3


def test_lemma_defect_one_equals_liouville():
    # identical series: the defect only sees the alignment residual, which
    # vanishes for both (one, -1) and (liouville, +1)
    (a,) = lemma_defect(builtin("one"), EMINUS, [1.05], PLAN.prime_cutoff)
    (b,) = lemma_defect(builtin("liouville"), EPLUS, [1.05], PLAN.prime_cutoff)
    assert a.value == b.value


def test_lemma_defect_degenerate_normalizer():
    sg = 1.0 + 1.0 / math.e
    (r,) = lemma_defect(builtin("liouville"), EPLUS, [sg], PLAN.prime_cutoff)
    assert lemma_ratio(sg, 1.0) == 1.0  # the normalizer is 1
    assert lemma_ratio(sg, r.value) == abs(r.value)
    with pytest.raises(DomainError):
        lemma_defect(builtin("liouville"), EPLUS, [1.1, 1.4], PLAN.prime_cutoff)


@pytest.mark.parametrize("spec", ["moebius", "twist:0.7:moebius", "extremal-ref"])
def test_lemma_defect_grid_equals_one_point_calls(spec):
    f = parse_function_spec(spec)
    d = HalaszDirection(1, -0.7)
    pts = [ComplexPoint(1.0 + 1e-7, 2.5), ComplexPoint(1.001, 2.5), ComplexPoint(1.3, -1.0)]
    grid = lemma_defect(f, d, pts, PLAN.prime_cutoff)
    assert len(grid) == len(pts)
    for i, pt in enumerate(pts):
        assert grid[i] == lemma_defect(f, d, [pt], PLAN.prime_cutoff)[0]


def test_theorem1_ratio_examples():
    odd = builtin("odd_one")
    pts = theorem1_ratio(odd, EMINUS, [1.01], PLAN)
    # ratio = 1/(|F|(sigma-1)); the pole-side product is its reciprocal
    assert abs(1.0 / pts[0].ratio - 0.5) < 0.05

    lam = builtin("liouville")
    pts = theorem1_ratio(lam, EPLUS, [1.01], PLAN)
    oracle = abs(zeta(2.02).value / zeta(1.01).value) / 0.01
    assert pts[0].ratio == pytest.approx(oracle, rel=1e-3)

    mu = builtin("moebius")
    pts = theorem1_ratio(mu, EPLUS, [1.001], PLAN)
    assert abs(pts[0].ratio - 1.0) < 0.05


def test_theorem1_ratio_envelope():
    grid = [1.001, 1.003, 1.01, 1.03, 1.1, 1.3, 1.5]
    for f, d in ((builtin("moebius"), EPLUS), (builtin("odd_one"), EMINUS)):
        for p in theorem1_ratio(f, d, grid, PLAN):
            assert p.ratio is not None
            assert 0.2 <= p.ratio <= 5.0


def test_theorem1_ratio_domain():
    with pytest.raises(DomainError, match="got 1.7"):
        theorem1_ratio(builtin("moebius"), EPLUS, [1.1, 1.7, 0.9], PLAN)


def test_theorem2_ratio():
    one = builtin("one")
    tr = summatory_trace(one, 10**5)
    pts = theorem2_ratio(tr, 1.0)
    assert all(p.x >= 16 for p in pts)
    rs = [p.ratio for p in pts if p.x >= 1000]
    assert all(b > a for a, b in zip(rs, rs[1:]))
    # S = 0 at a checkpoint gives ratio 0
    lam = builtin("liouville")
    tr = summatory_trace(lam, 32, grid="explicit:32")
    for p in theorem2_ratio(tr, 1.0):
        if p.abs_S == 0:
            assert p.ratio == 0.0


def test_criterion_reports():
    one = builtin("one")
    rep = criterion_report(one, 0.0, 10**6)
    assert rep.verdict == "criterion fails"
    assert rep.partials[-1] == 0.0

    mu = builtin("moebius")
    rep = criterion_report(mu, 0.0, 10**6)
    assert rep.verdict == "criterion satisfied (sum side)"
    assert rep.sum_side == "diverging"

    tilted = MultiplicativeFunction(
        "tilted", lambda ps, k: np.where(ps == 2, -np.exp(1j * k * math.log(2.0)), 1.0))
    rep = criterion_report(tilted, 1.0, 10**5)
    assert rep.verdict == "criterion satisfied (2-adic side)"
    assert "verdict" in rep.text()


def test_prime_sums_stream_in_constant_memory(monkeypatch):
    # the primes to 4e6 span four sieve segments; a whole-range table of p,
    # log p and g(p) there would add about 14 MB to the traced peak.  One CPU:
    # the pass runs here, where tracemalloc sees it, as a worker would run it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    ext = builtin("extremal-ref")
    twist = parse_function_spec("twist:0.7:one")  # misaligned: every g(p) != 0

    def peak(run, P):
        tracemalloc.start()
        try:
            run(P)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for run in (lambda P: criterion_report(ext, 0.0, P),
                lambda P: log_F(twist, [1.001, 1.01, 1.1, 1.5], TruncationPlan(prime_cutoff=P),
                                HalaszDirection(-1, 0.7))):
        assert peak(run, 4 * 10**6) - peak(run, 5 * 10**5) <= 5 * 2**20


_TWIST = parse_function_spec("twist:0.7:one")  # misaligned along (-1, 0.7): every g(p) != 0
_FOUR_POINTS = [1.001, 1.01, 1.1, 1.3]


@pytest.mark.parametrize("route", [
    lambda P: criterion_report(builtin("extremal-ref"), 0.0, P),
    lambda P: log_F(_TWIST, _FOUR_POINTS, TruncationPlan(prime_cutoff=P),
                    HalaszDirection(-1, 0.7)),
    lambda P: lemma_defect(_TWIST, HalaszDirection(-1, 0.7), _FOUR_POINTS, P),
    lambda P: log_F(builtin("extremal-ref"), _FOUR_POINTS, TruncationPlan(prime_cutoff=P)),
    lambda P: extremal.verify(extremal.reference_spec(), P),
], ids=["criterion", "log_F_misaligned", "lemma_defect", "log_F_prime_sum", "extremal_verify"])
def test_prime_routes_hold_one_chunk_of_primes_at_a_time(route, monkeypatch):
    # a route runs in this process on one CPU, as in each worker otherwise.
    # The sieve yields at most 2^13 primes at a time, so each temporary of
    # a route (log p, f(p), g(p), p^-sigma, the terms) takes 64-128 KiB.  The
    # sieve holds a segment's flags (0.5 MiB) and primes (0.5-0.63 MiB), and
    # the previous segment's primes while the next is sieved: 1.7-2 MiB in
    # all here.  Temporaries of a whole segment's 62,000 primes reach 4.4-5.3
    # MiB, past the bound.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    tracemalloc.start()
    try:
        route(4 * 10**6)
        assert tracemalloc.get_traced_memory()[1] <= 3 * 2**20
    finally:
        tracemalloc.stop()
