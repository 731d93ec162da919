import cmath
import math
import tracemalloc

import numpy as np
import pytest

from mflab import dirichlet
from mflab.dirichlet import (
    ComplexPoint,
    _factor_logs,
    TruncationPlan,
    alignment_terms,
    F_euler,
    F_partial_summation,
    F_truncated,
    euler_factor_log,
    log_F_prime_sum,
    log_zeta_minus_prime_zeta,
    prime_zeta,
    zeta,
    zeta_floor_probe,
)
from mflab.errors import CapacityError, CoverageError, DomainError, SingularFactorError
from mflab.multfun import MultiplicativeFunction, builtin, parse_function_spec, summatory_trace
from mflab.primes import ordered_sum, sieve_primes

from _oracles import prime_sum_power_oracle, zeta_series_oracle

BASE = sieve_primes(10**5)
PLAN = TruncationPlan(series_cutoff=10**4, prime_cutoff=10**5, exact_factor_cutoff=10**4)


def test_zeta_reference_points():
    # pi^2/6 and direct-summation oracle values
    assert zeta(2.0).value == pytest.approx(1.6449340668482264, abs=1e-9)
    assert zeta(1.5).value == pytest.approx(2.612375348685488, abs=1e-6)
    z10 = zeta(10.0).value.real
    assert 1.0009 <= z10 <= 1.0010


def test_zeta_against_series_oracle_complex():
    for s in (complex(1.5, 2.0), complex(2.0, -7.5), complex(1.2, 0.5)):
        oracle, obound = zeta_series_oracle(s, N=100_000)
        z = zeta(s)
        assert abs(z.value - oracle) <= z.error_bound + obound


def test_zeta_error_bound_target():
    for s in (1.01, complex(1.1, 15.0), complex(1.3, -20.0)):
        assert zeta(s).error_bound <= 1e-10


def test_zeta_pole_residue():
    for sg in (1.001, 1.0001):
        v = (sg - 1.0) * zeta(sg).value.real
        assert 0.9 <= v <= 1.1


def test_zeta_domain_error():
    with pytest.raises(DomainError):
        zeta(1.0)
    with pytest.raises(DomainError):
        zeta(complex(0.5, 14.0))


def test_zeta_height_ceiling():
    # refused before any head term is summed
    for t in (1e12, -1.5e8):
        with pytest.raises(CapacityError):
            zeta(ComplexPoint(1.5, t))


# The mpmath audit grid: the aligned corpus (t = 0), a low twist, the first
# zero's height, and the heights of the near-line benchmark's twist rows.
ORACLE_T = (0.0, 0.7, 14.13, 100.0, 1188.582, 1e4)
ORACLE_SIGMA_MINUS_1 = (1e-8, 1e-3, 0.232, 1.0)


def test_zeta_and_prime_zeta_against_mpmath():
    mp = pytest.importorskip("mpmath")
    tol = 1e-10
    for t in ORACLE_T:
        for d in ORACLE_SIGMA_MINUS_1:
            pt = ComplexPoint(1.0 + d, t)
            s = mp.mpc(pt.sigma, pt.t)
            z = zeta(pt, tol)
            assert abs(z.value - complex(mp.zeta(s))) <= z.error_bound, pt
            # the remainder bound meets tol; the rest is zeta's rounding
            # allowance of 1e-15 (1 + |zeta|) log N, with N <= 2^22
            assert z.error_bound <= tol + 1e-15 * (1.0 + abs(z.value)) * 22 * math.log(2), pt
            pz = prime_zeta(pt)
            diff = pz.value - complex(mp.primezeta(s))
            diff = complex(diff.real, math.remainder(diff.imag, 2 * math.pi))  # modulo 2 pi i
            assert abs(diff) <= pz.error_bound, pt


def _earlier_rule_terms(s: complex, tol: float) -> int:
    """Head terms of zeta's earlier rule: N doubles from max(16, 2|t| + 10)
    while the Euler-Maclaurin remainder bound exceeds tol and N < 2^22."""
    sigma = s.real

    def rem_bound(n):
        w = s * (s + 1) * (s + 2) * (s + 3) * (s + 4)
        return (1.0 / 30240.0) * abs(w) * n ** (-(sigma + 5.0)) * abs(s + 5) / (sigma + 5.0)

    N = max(16, int(2 * abs(s.imag)) + 10)
    while rem_bound(N) > tol and N < (1 << 22):
        N *= 2
    return N - 1


def test_zeta_sums_no_more_terms_than_the_earlier_rule(monkeypatch):
    fed, calls = [0], []
    real_sum, real_zeta = dirichlet.ordered_sum, dirichlet.zeta

    def counting_sum(x, start=None):
        fed[0] += x.size
        return real_sum(x, start)

    def counting_zeta(s, tol=1e-10):
        before = fed[0]
        result = real_zeta(s, tol)
        calls.append((s.s, tol, fed[0] - before))  # s: the ComplexPoint log_zeta passes
        return result

    monkeypatch.setattr(dirichlet, "ordered_sum", counting_sum)
    monkeypatch.setattr(dirichlet, "zeta", counting_zeta)
    # the two prime_zeta calls of a near-line height row (seed 1); the
    # earlier rule summed 2,539,351 head terms for them
    for sigma in (1.0000000423164495, 1.232):
        prime_zeta(ComplexPoint(sigma, -1188.582))
    assert sum(n for _, _, n in calls) <= 60_000
    for t in ORACLE_T:
        for d in ORACLE_SIGMA_MINUS_1:
            prime_zeta(ComplexPoint(1.0 + d, t))
    assert len(calls) > 100
    for s, tol, n in calls:
        assert n <= _earlier_rule_terms(s, tol), s
        if abs(s.imag) <= 3.0:  # the earlier rule started at N = 16 here too
            assert n == _earlier_rule_terms(s, tol), s


def test_prime_zeta_against_direct_sum():
    # sum_{p<=1e5} p^{-2} plus a tail below 1e-5 pins P(2) to ~1e-5
    direct = prime_sum_power_oracle(BASE.primes.tolist(), -2.0)
    pz = prime_zeta(2.0)
    assert abs(pz.value - direct) < 1e-5 + pz.error_bound
    assert abs(pz.value - 0.4522474200410655) < 1e-9


def test_log_zeta_minus_prime_zeta_small_near_one():
    for sg in (1.001, 1.01, 1.1):
        r = log_zeta_minus_prime_zeta(sg)
        assert abs(r.value) < 0.35
        assert r.error_bound < 1e-9


def test_F_truncated_one():
    (r,) = F_truncated(builtin("one"), [2.0], TruncationPlan(series_cutoff=100))
    assert r.error_bound == pytest.approx(0.01)
    assert abs(r.value - 1.6449340668482264) <= 0.01


def test_F_truncated_moebius():
    (r,) = F_truncated(builtin("moebius"), [2.0], TruncationPlan(series_cutoff=10**4))
    assert abs(r.value - 1 / 1.6449340668482264) <= 1e-4


def test_F_truncated_liouville():
    # lambda: F = zeta(2s)/zeta(s)
    s = 1.5
    (r,) = F_truncated(builtin("liouville"), [s], TruncationPlan(series_cutoff=10**5))
    target = zeta(3.0).value / zeta(1.5).value
    assert abs(r.value - target) <= r.error_bound + 1e-8


def test_F_partial_summation_unit_steps_exact():
    one = builtin("one")
    tr = summatory_trace(one, 1000, grid=list(range(1, 1001)))
    s = ComplexPoint(2.0)
    fp = F_partial_summation(tr, s, 1000.0)
    (ft,) = F_truncated(one, [s], TruncationPlan(series_cutoff=1000))
    assert abs(fp.value - ft.value) <= fp.error_bound + ft.error_bound
    # integer-step reconstruction leaves only the X tail
    assert fp.error_bound == pytest.approx(abs(s.s) * 1000.0 ** (-1.0) / 1.0, rel=1e-12)


def test_F_partial_summation_sparse_grid():
    lam = builtin("liouville")
    tr = summatory_trace(lam, 10**5)
    s = ComplexPoint(1.5, 0.7)
    fp = F_partial_summation(tr, s, 10**5)
    (ft,) = F_truncated(lam, [s], TruncationPlan(series_cutoff=10**5))
    assert abs(fp.value - ft.value) <= fp.error_bound + ft.error_bound


def test_F_partial_summation_empty_and_coverage():
    lam = builtin("liouville")
    tr = summatory_trace(lam, 1000)
    s = ComplexPoint(2.0, 1.0)
    r = F_partial_summation(tr, s, 1.0)
    assert r.value == 0
    assert r.error_bound == pytest.approx(abs(s.s) / (s.sigma - 1.0))
    with pytest.raises(CoverageError):
        F_partial_summation(tr, s, 5000.0)


def test_euler_factor_log_closed_form_vs_series():
    lam = builtin("liouville")
    series_fn = MultiplicativeFunction("lam-series", lam.powers)  # cm flag off: series path
    for p in (2, 3, 11):
        for s in (2.0, complex(1.3, 0.8)):
            a = euler_factor_log(lam, p, s)
            b = euler_factor_log(series_fn, p, s)
            assert abs(a - b) < 1e-12


def test_euler_factor_log_examples():
    lam = builtin("liouville")
    assert euler_factor_log(lam, 3, 2.0) == pytest.approx(-math.log(10.0 / 9.0))
    odd = builtin("odd_one")
    assert euler_factor_log(odd, 2, 2.0) == 0
    assert euler_factor_log(odd, 2, complex(1.2, 3.0)) == 0


def test_euler_factor_singular():
    # f(2^k) = -1 for every k makes the p=2 factor vanish as sigma -> 1
    f = MultiplicativeFunction("half-pole", lambda ps, k: np.where(ps == 2, -1.0, 0.0))
    with pytest.raises(SingularFactorError):
        euler_factor_log(f, 2, 1.0 + 1e-13)


def test_defect_series_matches_closed_form():
    # the k-series of local factors, summed over the 1229 primes <= 1e4; each
    # series stops once its tail is below 1e-14
    lam = builtin("liouville")
    series_fn = MultiplicativeFunction("lam-series", lam.powers)
    pts = [ComplexPoint(1.0 + 1e-6), ComplexPoint(1.3, 14.13)]
    for a, b in zip(log_F_prime_sum(lam, pts, PLAN),
                    log_F_prime_sum(series_fn, pts, PLAN)):
        assert abs(a.defect - b.defect) < 1229 * 1e-14


@pytest.mark.parametrize("spec", ["liouville", "extremal-ref"])
def test_defect_terms_do_not_depend_on_array_length(spec):
    # a prime's defect term has the same bits in a short slice as in an
    # array of more than 16384 primes, where numpy may reuse a temporary
    f = parse_function_spec(spec)
    ps = sieve_primes(4 * 10**5).primes
    pts = [ComplexPoint(1.001, 0.3), ComplexPoint(1.2, 5.0)]
    for (zw, dw), (zs, ds) in zip(_factor_logs(f, ps, pts), _factor_logs(f, ps[:3000], pts)):
        assert np.array_equal(zw[:3000], zs)
        assert np.array_equal(dw[:3000], ds)


@pytest.mark.parametrize("spec", ["moebius", "one", "liouville", "odd_one", "extremal-ref"])
def test_alignment_terms_at_t0_zero_skip_the_unit_factor_bit_for_bit(spec):
    # at t0 = 0, g(p) is formed without its factor p^{-i 0} = 1 - 0i; the
    # bits, signs of zero included, are those of the product with it
    f = parse_function_spec(spec)
    ps = BASE.primes
    for e0 in (1, -1):
        lp, g = alignment_terms(f, ps, e0, 0.0)
        want = 1.0 + e0 * f.prime_values(ps) * np.exp(-1j * 0.0 * lp)
        assert np.array_equal(g.view(np.uint64), want.view(np.uint64)), e0


def test_defect_cut_past_a_segment_edge_is_one_table_sum():
    # C falls just past the first segment (3..2^20+2), so the second
    # segment's defect slice is short; the streamed defect still has the
    # bits of one ordered sum over a table of the primes <= C
    lam = builtin("liouville")
    C = 1_100_000
    plan = TruncationPlan(prime_cutoff=2_200_000, exact_factor_cutoff=C)
    pts = [ComplexPoint(1.001, 0.3), ComplexPoint(1.2, 5.0)]
    table = sieve_primes(C).primes
    for r, (_, d) in zip(log_F_prime_sum(lam, pts, plan), _factor_logs(lam, table, pts)):
        assert r.defect == complex(ordered_sum(d))


def test_moebius_defect_against_local_factors():
    mu = builtin("moebius")
    s = complex(1.2, 3.0)
    (r,) = log_F_prime_sum(mu, [s], PLAN)
    ref = sum(cmath.log(1 - p ** -s) + p ** -s for p in BASE.primes_le(10**4).tolist())
    assert abs(r.defect - ref) < 1e-12


def test_log_F_prime_sum_values():
    lam = builtin("liouville")
    (r,) = log_F_prime_sum(lam, [2.0], PLAN)
    direct = -prime_sum_power_oracle(BASE.primes.tolist(), -2.0)
    assert r.value == pytest.approx(direct, abs=1e-12)
    assert abs(r.value - (-0.4522474200410655)) < 1e-5

    odd = builtin("odd_one")
    (r2,) = log_F_prime_sum(odd, [2.0], PLAN)
    assert r2.value == pytest.approx(-direct - 0.25, abs=1e-12)


def test_defect_bound_contains_value():
    # enlarging the exact range moves the defect by less than the tail bound
    lam = builtin("liouville")
    s = 2.0
    (small,) = log_F_prime_sum(lam, [s], TruncationPlan(prime_cutoff=10**5, exact_factor_cutoff=1000))
    (big,) = log_F_prime_sum(lam, [s], TruncationPlan(prime_cutoff=10**5, exact_factor_cutoff=10**4))
    assert abs(big.defect - small.defect) <= small.defect_tail_bound
    assert abs(small.defect) > 0  # nonzero correction for lambda


def test_prime_sum_route_consistent_with_truncated_for_M2():
    odd = builtin("odd_one")
    pts = [ComplexPoint(1.5), ComplexPoint(1.2, 0.5), ComplexPoint(1.1, 1.0)]
    for psr, ft in zip(log_F_prime_sum(odd, pts, PLAN),
                       F_truncated(odd, pts, TruncationPlan(series_cutoff=10**5))):
        fe = np.exp(psr.log_F)
        fe_err = abs(fe) * np.expm1(min(psr.error_bound, 500.0))
        assert abs(fe - ft.value) <= fe_err + ft.error_bound


def test_identity_suite_euler_route():
    mu, lam, odd, one = (builtin(n) for n in ("moebius", "liouville", "odd_one", "one"))
    plan = TruncationPlan(prime_cutoff=10**5, exact_factor_cutoff=10**4)
    pts = [ComplexPoint(1.5), ComplexPoint(1.2, 0.5), ComplexPoint(1.1, 1.0)]
    columns = zip(
        pts,
        F_euler(mu, pts, plan, epsilon0=1),
        F_euler(lam, pts, plan, epsilon0=1),
        F_euler(odd, pts, plan, epsilon0=-1),
        F_euler(one, pts, plan, epsilon0=-1))
    for s, fmu, flam, fodd, fone in columns:
        z = zeta(s).value
        sc = s.s
        assert abs(fmu.value * z - 1) < 1e-4
        assert abs(flam.value * z / zeta(2 * sc).value - 1) < 1e-4
        assert abs(fodd.value / (z * (1 - 2**-sc)) - 1) < 1e-4
        assert abs(fone.value / z - 1) < 1e-4


def test_F_euler_requires_class_M():
    f = MultiplicativeFunction("big", lambda ps, k: np.full(ps.shape, 2.0))
    with pytest.raises(DomainError):
        F_euler(f, [1.5], PLAN)


def test_results_overlap_across_methods():
    lam = builtin("liouville")
    s = ComplexPoint(1.5)
    (ft,) = F_truncated(lam, [s], TruncationPlan(series_cutoff=10**5))
    tr = summatory_trace(lam, 10**5)
    fp = F_partial_summation(tr, s, 10**5)
    (fe,) = F_euler(lam, [s], PLAN, epsilon0=1)
    for a, b in ((ft, fp), (ft, fe), (fp, fe)):
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound


def test_zeta_floor_probe_coarse():
    v = zeta_floor_probe([1.01, 1.1], np.arange(-20.0, 20.5, 2.5))
    assert v >= 0.1


def test_truncation_plan_validation():
    with pytest.raises(DomainError):
        TruncationPlan(series_cutoff=1)
    with pytest.raises(DomainError):
        TruncationPlan(exact_factor_cutoff=10**6)


# moebius is not completely multiplicative; the twist has t != 0 and complex f(p)
GRID_FUNCTIONS = ["moebius", "twist:0.7:moebius", "extremal-ref"]
GRID = [ComplexPoint(1.0 + 1e-7, 2.5), ComplexPoint(1.001, 2.5), ComplexPoint(1.3, 2.5),
        ComplexPoint(2.0, -1.0)]


@pytest.mark.parametrize("spec", GRID_FUNCTIONS)
def test_grid_routes_equal_one_point_calls(spec):
    # a grid call shares the prime and segment work; every result is bitwise
    # the one-point result
    f = parse_function_spec(spec)
    routes = [
        lambda pts: F_truncated(f, pts, TruncationPlan(series_cutoff=2**18 + 3000)),  # 2 segments
        lambda pts: log_F_prime_sum(f, pts, PLAN),
        lambda pts: F_euler(f, pts, PLAN, epsilon0=-1, t0=0.7),
    ]
    for route in routes:
        grid = route(GRID)
        assert len(grid) == len(GRID)
        for i, pt in enumerate(GRID):
            assert grid[i] == route([pt])[0]


def test_F_truncated_grid_memory():
    # each point's summer keeps a tail under one block, not a view of a segment
    f = builtin("moebius")
    plan = TruncationPlan(series_cutoff=3 * 2**18)

    def peak(n_points):
        tracemalloc.start()
        try:
            F_truncated(f, [ComplexPoint(1.5 + 0.01 * i) for i in range(n_points)], plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16) - peak(1) <= 16 * 2**20
