import cmath
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from mflab import dirichlet, primes
from mflab.dirichlet import (
    ComplexPoint,
    _factor_logs,
    TruncationPlan,
    alignment_terms,
    F_truncated,
    HalaszDirection,
    inverse_power,
    log_F,
    log_zeta_minus_prime_zeta,
    prime_sums,
    prime_zeta,
    residual_terms,
    zeta,
)
from mflab.errors import CapacityError, CoverageError, DomainError, SingularFactorError
from mflab.multfun import (PRIME_BLOCK, MultiplicativeFunction, StreamSummer, builtin,
                           parse_function_spec, summatory_trace, unit_power)
from mflab.primes import sieve_primes

from _oracles import F_partial_summation, prime_sum_power_oracle, zeta_series_oracle

BASE = sieve_primes(10**5)
PLAN = TruncationPlan(prime_cutoff=10**5, exact_factor_cutoff=10**4)


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


@pytest.mark.parametrize("sigma", [2.0, 3.0])
def test_prime_sum_of_one_lies_within_err_of_log_zeta(sigma):
    # log F = sum_{p<=P} p^{-sigma} + defect is log zeta(sigma) up to err.  At
    # sigma = 3 the terms fall below half an ulp of the running total from
    # p ~ 4e5 on, so a plain running sum misses by 1.7e-13 against err 5e-15
    mp = pytest.importorskip("mpmath")
    (r,) = log_F(builtin("one"), [ComplexPoint(sigma)], TruncationPlan(prime_cutoff=10**7))
    with mp.workdps(30):
        truth = float(mp.log(mp.zeta(sigma)))
    assert r.value.imag == 0.0
    assert abs(r.value.real - truth) <= r.error_bound


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
    real_feed, real_zeta = StreamSummer.feed, dirichlet.zeta

    def counting_feed(self, vals, keys):
        fed[0] += vals.size
        return real_feed(self, vals, keys)

    def counting_zeta(s, tol=1e-10):
        before = fed[0]
        result = real_zeta(s, tol)
        calls.append((s.s, tol, fed[0] - before))  # s: the ComplexPoint log_zeta passes
        return result

    monkeypatch.setattr(StreamSummer, "feed", counting_feed)
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
    direct = prime_sum_power_oracle(BASE.tolist(), -2.0)
    pz = prime_zeta(2.0)
    assert abs(pz.value - direct) < 1e-5 + pz.error_bound
    assert abs(pz.value - 0.4522474200410655) < 1e-9


def test_log_zeta_minus_prime_zeta_small_near_one():
    for sg in (1.001, 1.01, 1.1):
        r = log_zeta_minus_prime_zeta(sg)
        assert abs(r.value) < 0.35
        assert r.error_bound < 1e-9


def test_F_truncated_one():
    (r,) = F_truncated(builtin("one"), [2.0], 100)
    assert r.error_bound == pytest.approx(0.01)
    assert abs(r.value - 1.6449340668482264) <= 0.01


def test_F_truncated_moebius():
    (r,) = F_truncated(builtin("moebius"), [2.0], 10**4)
    assert abs(r.value - 1 / 1.6449340668482264) <= 1e-4


def test_F_truncated_liouville():
    # lambda: F = zeta(2s)/zeta(s)
    s = 1.5
    (r,) = F_truncated(builtin("liouville"), [s], 10**5)
    target = zeta(3.0).value / zeta(1.5).value
    assert abs(r.value - target) <= r.error_bound + 1e-8


def test_F_truncated_keeps_terms_below_an_ulp_of_the_running_sum():
    # past n ~ 2.1e5 the terms n^-3 are below half an ulp of zeta(3): a plain
    # running sum drops them and misses by about 9e-12, against err 5e-13
    N = 10**6
    (r,) = F_truncated(builtin("one"), [3.0], N)
    tail = 1.0 / (2 * N**2) - 1.0 / (2 * N**3) + 1.0 / (4 * N**4)  # sum_{n>N} n^-3
    assert r.error_bound == pytest.approx(5e-13)
    assert abs(r.value - (1.2020569031595942854 - tail)) <= 1e-15


def test_F_partial_summation_unit_steps_exact():
    one = builtin("one")
    tr = summatory_trace(one, 1000, grid="explicit:" + ",".join(map(str, range(1, 1001))))
    s = ComplexPoint(2.0)
    fp = F_partial_summation(tr, s, 1000.0)
    (ft,) = F_truncated(one, [s], 1000)
    assert abs(fp.value - ft.value) <= fp.error_bound + ft.error_bound
    # integer-step reconstruction leaves only the X tail
    assert fp.error_bound == pytest.approx(abs(s.s) * 1000.0 ** (-1.0) / 1.0, rel=1e-12)


def test_F_partial_summation_sparse_grid():
    lam = builtin("liouville")
    tr = summatory_trace(lam, 10**5)
    s = ComplexPoint(1.5, 0.7)
    fp = F_partial_summation(tr, s, 10**5)
    (ft,) = F_truncated(lam, [s], 10**5)
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


def bits(z) -> list:
    return np.array([z], dtype=np.complex128).view(np.uint64).tolist()


def prime_terms(f):
    """The terms of log_F's prime sum: f(p) and log p at every prime."""
    return lambda ps: (ps, f.prime_values(ps), np.log(ps.astype(np.float64)))


def _sum_and_defect(f, points, plan):
    """(result, prime sum, defect) per point: log_F's prime-sum result, and
    its two sums from prime_sums.  Its value is their sum, bit for bit."""
    pts = [dirichlet.as_point(pt) for pt in points]
    pairs = prime_sums(f, pts, pts, prime_terms(f), plan.prime_cutoff, plan.exact_factor_cutoff)
    out = [(r, a, d) for r, (a, d) in zip(log_F(f, pts, plan), pairs)]
    for r, a, d in out:
        assert bits(r.value) == bits(a + d)
    return out


def _exact_factor_logs(f, P, points):
    """log F(s) = sum_{p<=P} log factor_p at each point, every factor exact."""
    return [r.value for r in log_F(
        f, points, TruncationPlan(prime_cutoff=P, exact_factor_cutoff=P))]


def test_euler_factor_log_closed_form_vs_series():
    lam = builtin("liouville")
    series_fn = MultiplicativeFunction("lam-series", lam.powers)  # cm flag off: series path
    pts = [2.0, complex(1.3, 0.8)]
    for a, b in zip(_exact_factor_logs(lam, 50, pts), _exact_factor_logs(series_fn, 50, pts)):
        assert abs(a - b) < 1e-12


def test_euler_factor_log_examples():
    lam = builtin("liouville")
    (v,) = _exact_factor_logs(lam, 3, [2.0])
    assert v == pytest.approx(-math.log(5.0 / 4.0) - math.log(10.0 / 9.0))
    odd = builtin("odd_one")
    assert _exact_factor_logs(odd, 2, [2.0, complex(1.2, 3.0)]) == [0, 0]


def test_euler_factor_singular():
    # f(2^k) = -1 for every k makes the p=2 factor vanish as sigma -> 1
    f = MultiplicativeFunction("half-pole", lambda ps, k: np.where(ps == 2, -1.0, 0.0))
    with pytest.raises(SingularFactorError):
        _exact_factor_logs(f, 2, [1.0 + 1e-13])


def test_defect_series_matches_closed_form():
    # the k-series of local factors, summed over the 1229 primes <= 1e4; each
    # series stops once its tail is below 1e-14
    lam = builtin("liouville")
    series_fn = MultiplicativeFunction("lam-series", lam.powers)
    pts = [ComplexPoint(1.0 + 1e-6), ComplexPoint(1.3, 14.13)]
    for (_, _, a), (_, _, b) in zip(_sum_and_defect(lam, pts, PLAN),
                                    _sum_and_defect(series_fn, pts, PLAN)):
        assert abs(a - b) < 1229 * 1e-14


@pytest.mark.parametrize("spec", ["liouville", "extremal-ref"])
def test_defect_terms_do_not_depend_on_array_length(spec):
    # a prime's defect term has the same bits in a short slice as in an
    # array of more than 16384 primes, where numpy may reuse a temporary
    f = parse_function_spec(spec)
    ps = sieve_primes(4 * 10**5)
    pts = [ComplexPoint(1.001, 0.3), ComplexPoint(1.2, 5.0)]
    for dw, ds in zip(_factor_logs(f, ps, pts), _factor_logs(f, ps[:3000], pts)):
        assert np.array_equal(dw[:3000], ds)


@pytest.mark.parametrize("spec", ["moebius", "one", "liouville", "odd_one", "extremal-ref"])
def test_alignment_terms_at_t0_zero_skip_the_unit_factor_bit_for_bit(spec):
    # at t0 = 0, g(p) is formed without its factor p^{-i 0} = 1 - 0i; the
    # bits, signs of zero included, are those of the product with it
    f = parse_function_spec(spec)
    ps = BASE
    for e0 in (1, -1):
        lp, g = alignment_terms(f, ps, HalaszDirection(e0, 0.0))
        want = 1.0 + e0 * f.prime_values(ps) * np.exp(-1j * 0.0 * lp)
        assert np.array_equal(g.view(np.uint64), want.view(np.uint64)), e0


@pytest.mark.parametrize("spec,base,T", [
    ("twist:0.7:moebius", "moebius", 0.7),
    ("twist:-2.5:extremal-ref", "extremal-ref", -2.5),
    ("twist:1.3:twist:0.7:one", "twist:0.7:one", 1.3),  # nested: folds twice
])
def test_twist_folds_into_the_direction_bit_for_bit(spec, base, T):
    # g of twist(base, T) along (e0, t0) is g of base along (e0, t0 + T), bit for
    # bit, and it is 1 + e0 f(p) p^{-it0} up to rounding
    f, b = parse_function_spec(spec), parse_function_spec(base)
    ps = BASE
    for e0 in (1, -1):
        for t0 in (0.0, 2.5, -0.7):
            lp, g = alignment_terms(f, ps, HalaszDirection(e0, t0))
            _, want = alignment_terms(b, ps, HalaszDirection(e0, t0 + T))
            assert np.array_equal(g.view(np.uint64), want.view(np.uint64)), (e0, t0)
            unfolded = 1.0 + e0 * f.prime_values(ps) * np.exp(-1j * t0 * lp)
            assert np.max(np.abs(g - unfolded)) < 1e-12, (e0, t0)


@pytest.mark.parametrize("spec,t0", [("twist:0.7:one", -0.7), ("twist:0.5:twist:0.25:one", -0.75)])
def test_aligned_twist_direction_has_exactly_zero_alignment_terms(spec, t0):
    # twist:T:one is aligned with (-1, -T): g = 1 - p^{-i0} is exactly 0, so
    # the residual terms are empty and the residual sums are fed nothing
    f = parse_function_spec(spec)
    direction = HalaszDirection(-1, t0)
    _, g = alignment_terms(f, BASE, direction)
    assert not g.any()
    keys, c, lp = residual_terms(f, direction)(BASE)
    assert keys.size == c.size == lp.size == 0
    pts = [ComplexPoint(1.001), ComplexPoint(1.3, 2.0)]
    assert prime_sums(f, pts, pts, residual_terms(f, direction), 10**5, 1) == [(0j, 0j), (0j, 0j)]


def test_factored_inverse_power_against_mpmath():
    # p^{-s} = p^{-sigma} p^{-it} over the primes <= 1e5.  Rounding s log p in
    # the exponent bounds the relative error by about (sigma + |t|) log p 2^-52;
    # the oracle's own rounding to double adds at most 3 2^-53
    mp = pytest.importorskip("mpmath")
    ps = BASE
    lp = np.log(ps.astype(np.float64))
    with mp.workdps(30):
        logs = [mp.log(p) for p in ps.tolist()]
        units = {t: np.array([complex(mp.expj(-t * L)) for L in logs]) for t in ORACLE_T if t}
        mods = {d: np.array([float(mp.exp(-mp.mpf(1.0 + d) * L)) for L in logs])
                for d in ORACLE_SIGMA_MINUS_1}
    for d, mod in mods.items():
        sigma = 1.0 + d
        for t in ORACLE_T:
            got = inverse_power(lp, sigma)
            if t:
                got = np.multiply(unit_power(lp, t), got)
            err = np.abs(got - mod * units.get(t, 1.0)) / mod
            assert np.all(err <= (1.0 + (sigma + abs(t)) * lp) * 2.0**-50), (sigma, t)


@pytest.mark.parametrize("size", [1000, 999])
def test_prime_sums_streamed_in_short_chunks_have_the_bits_of_one_pass(size, monkeypatch):
    # the 44,638 primes in (4e5, 1e6] give complex terms of more than 256 KiB,
    # where numpy may swap the operands of a product with a temporary.  The
    # terms are of like size and, at t = 1000, of fast-turning phase, so the
    # sums stay small and a last-bit change in a term reaches them.  Every
    # product has named operands, so chunks of any length give the bits of
    # one chunk per sieve segment
    f = parse_function_spec("twist:0.7:liouville")
    pts = [ComplexPoint(1.001), ComplexPoint(1.2, 1000.0)]

    def terms(ps):
        ps = ps[ps > 4 * 10**5]
        return ps, f.prime_values(ps), np.log(ps.astype(np.float64))

    def streamed(chunk):
        # every prime takes its exact factor, so the defect sums are over
        # each chunk whole
        monkeypatch.setattr(primes, "_BLOCK", chunk)
        pairs = prime_sums(f, pts, pts, terms, 10**6, 10**6)
        residuals = prime_sums(f, pts, pts, residual_terms(f, HalaszDirection(-1, 0.7)), 10**6, 1)
        totals = [z for pair in pairs + residuals for z in pair]
        return np.array(totals, dtype=np.complex128).view(np.uint64).tolist()

    assert streamed(size) == streamed(1 << 20)


def test_prime_sums_holds_nothing_of_a_chunk_into_the_next(monkeypatch):
    # a chunk of the prime stream is a view of its whole sieve segment: a
    # name left bound to it, or to a slice of it, would keep that segment
    # alive through the next chunk's work
    f = builtin("liouville")
    pts = [ComplexPoint(1.001), ComplexPoint(1.3, 2.0)]
    seen = []

    def terms(ps):
        assert all(ref() is None for ref in seen), len(seen)
        seen.append(weakref.ref(ps))
        return ps, f.prime_values(ps), np.log(ps.astype(np.float64))

    monkeypatch.setattr(primes, "_BLOCK", 1000)
    prime_sums(f, pts, pts, terms, 10**5, 10**5)  # every prime takes its defect too
    assert len(seen) == 11  # 2 alone, then the other 9,591 primes in chunks of 1000


def one_feed_total(x: np.ndarray, keys: np.ndarray) -> complex:
    summer = StreamSummer(width=PRIME_BLOCK)
    summer.feed(x, keys)
    return summer.close()


def test_real_coefficients_sum_in_float64_with_the_bits_of_complex128():
    # f(p) of moebius is complex128 with +0 imaginary parts; at t = 0 and
    # t != 0 alike, every total has the bits of the complex128 terms fed at once
    ps = BASE
    mu = builtin("moebius")
    c, lp = mu.prime_values(ps), np.log(ps.astype(np.float64))
    for pts in ([ComplexPoint(1.001), ComplexPoint(2.0)],
                [ComplexPoint(1.001), ComplexPoint(1.3, 0.7)]):
        pairs = prime_sums(mu, pts, pts, prime_terms(mu), 10**5, 1)
        for pt, (total, _) in zip(pts, pairs):
            cu = c if pt.t == 0.0 else c * unit_power(lp, pt.t)
            want = one_feed_total(cu * inverse_power(lp, pt.sigma), ps)
            assert bits(total) == bits(want)


def test_defect_cut_past_a_segment_edge_is_one_table_sum():
    # C falls just past the first segment (1..2^20), so the second
    # segment's defect slice is short; the streamed defect still has the
    # bits of one feed of a table of the primes <= C
    lam = builtin("liouville")
    C = 1_100_000
    plan = TruncationPlan(prime_cutoff=2_200_000, exact_factor_cutoff=C)
    pts = [ComplexPoint(1.001, 0.3), ComplexPoint(1.2, 5.0)]
    table = sieve_primes(C)
    for (_, _, defect), d in zip(_sum_and_defect(lam, pts, plan), _factor_logs(lam, table, pts)):
        assert defect == one_feed_total(d, table)


def test_moebius_defect_against_local_factors():
    mu = builtin("moebius")
    s = complex(1.2, 3.0)
    ((_, _, defect),) = _sum_and_defect(mu, [s], PLAN)
    ref = sum(cmath.log(1 - p ** -s) + p ** -s for p in BASE[BASE <= 10**4].tolist())
    assert abs(defect - ref) < 1e-12


def test_log_F_prime_sum_values():
    lam = builtin("liouville")
    ((_, value, _),) = _sum_and_defect(lam, [2.0], PLAN)
    direct = -prime_sum_power_oracle(BASE.tolist(), -2.0)
    assert value == pytest.approx(direct, abs=1e-12)
    assert abs(value - (-0.4522474200410655)) < 1e-5

    odd = builtin("odd_one")
    ((_, value2, _),) = _sum_and_defect(odd, [2.0], PLAN)
    assert value2 == pytest.approx(-direct - 0.25, abs=1e-12)


def test_defect_bound_contains_value():
    # enlarging the exact range moves the defect by less than the tail bound
    lam = builtin("liouville")
    s = 2.0
    ((r, _, small),) = _sum_and_defect(
        lam, [s], TruncationPlan(prime_cutoff=10**5, exact_factor_cutoff=1000))
    ((_, _, big),) = _sum_and_defect(
        lam, [s], TruncationPlan(prime_cutoff=10**5, exact_factor_cutoff=10**4))
    assert abs(big - small) <= dict(r.parts)["defect-tail"]
    assert abs(small) > 0  # nonzero correction for lambda


def test_prime_sum_route_consistent_with_truncated_for_M2():
    odd = builtin("odd_one")
    pts = [ComplexPoint(1.5), ComplexPoint(1.2, 0.5), ComplexPoint(1.1, 1.0)]
    for pt, psr, ft in zip(pts, log_F(odd, pts, PLAN), F_truncated(odd, pts, 10**5)):
        fe = psr.exp(pt.sigma)
        assert abs(fe.value - ft.value) <= fe.error_bound + ft.error_bound


@pytest.mark.parametrize("d", [700.0, 709.78, 709.79, 1e300])
def test_exp_of_a_log_bound_past_expm1s_range_is_finite(d):
    # expm1 overflows past 709.78; the bound |F^| + 1 + 1/(sigma - 1) is left
    r = dirichlet.EvalResult(complex(0.5, 1.0), (("x", d),), "m").exp(1.0 + 2.0**-52)
    assert math.isfinite(r.error_bound) and r.error_bound >= abs(r.value) + 1.0 + 2.0**52


def euler(f, pts, plan, direction):
    """F by log_F's aligned sum along ``direction``."""
    out = [r.exp(pt.sigma) for pt, r in zip(pts, log_F(f, pts, plan, direction))]
    assert {r.method for r in out} == {"euler-product"}
    return out


def test_identity_suite_euler_route():
    mu, lam, odd, one = (builtin(n) for n in ("moebius", "liouville", "odd_one", "one"))
    plan = TruncationPlan(prime_cutoff=10**5, exact_factor_cutoff=10**4)
    pts = [ComplexPoint(1.5), ComplexPoint(1.2, 0.5), ComplexPoint(1.1, 1.0)]
    columns = zip(
        pts,
        euler(mu, pts, plan, HalaszDirection(1)),
        euler(lam, pts, plan, HalaszDirection(1)),
        euler(odd, pts, plan, HalaszDirection(-1)),
        euler(one, pts, plan, HalaszDirection(-1)))
    for s, fmu, flam, fodd, fone in columns:
        z = zeta(s).value
        sc = s.s
        assert abs(fmu.value * z - 1) < 1e-4
        assert abs(flam.value * z / zeta(2 * sc).value - 1) < 1e-4
        assert abs(fodd.value / (z * (1 - 2**-sc)) - 1) < 1e-4
        assert abs(fone.value / z - 1) < 1e-4


def test_results_overlap_across_methods():
    lam = builtin("liouville")
    s = ComplexPoint(1.5)
    (ft,) = F_truncated(lam, [s], 10**5)
    tr = summatory_trace(lam, 10**5)
    fp = F_partial_summation(tr, s, 10**5)
    (fe,) = euler(lam, [s], PLAN, HalaszDirection(1))
    for a, b in ((ft, fp), (ft, fe), (fp, fe)):
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound


def test_truncation_plan_validation():
    with pytest.raises(DomainError):
        F_truncated(builtin("one"), [2.0], 1)
    with pytest.raises(DomainError):
        TruncationPlan(exact_factor_cutoff=10**6)
    with pytest.raises(DomainError):
        TruncationPlan(prime_cutoff=1, exact_factor_cutoff=1)


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
        lambda pts: F_truncated(f, pts, 2**18 + 3000),  # 2 segments
        lambda pts: log_F(f, pts, PLAN),
        lambda pts: log_F(f, pts, PLAN, HalaszDirection(1)),  # aligned for the untwisted rules
        lambda pts: log_F(f, pts, PLAN, HalaszDirection(1, -0.7)),  # aligned for the twist
    ]
    for route in routes:
        grid = route(GRID)
        assert len(grid) == len(GRID)
        for i, pt in enumerate(GRID):
            assert grid[i] == route([pt])[0]


@pytest.mark.parametrize("spec", ["twist:0.7:moebius", "twist:-2.5:twist:0.7:liouville"])
def test_F_truncated_folds_a_twist_into_the_point(spec):
    # F_twist(s) = F_base(s + iT): bitwise the base's call at the shifted
    # points, so a term pays one unit n^{-i(t+T)} and not two
    f = parse_function_spec(spec)
    (base, T) = f.twisted
    N = 2**18 + 3000  # 2 segments
    got = F_truncated(f, GRID, N)
    assert got == F_truncated(base, [ComplexPoint(pt.sigma, pt.t + T) for pt in GRID], N)


@pytest.mark.parametrize("spec,entry_bytes", [
    # per n of a 2^18 segment: the kernel's values (int8 or complex128) and
    # its float64 product
    ("moebius", 1 + 8), ("extremal-ref", 16 + 8)])
@pytest.mark.parametrize("points", [[1.5], [1.5, 1.5 + 3j]], ids=["real", "unit"])
def test_F_truncated_allocates_no_temporary_of_segment_length(spec, entry_bytes, points):
    # log n, the units and the terms are formed per block of 2^14 entries
    f = builtin(spec)
    F_truncated(f, points, 10**4)  # memoize the values of the small primes
    tracemalloc.start()
    try:
        F_truncated(f, points, 2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry_bytes * (1 << 18) <= 1.5 * 2**20, peak


def test_F_truncated_grid_memory():
    # each point's summer keeps a tail under one block, not a view of a segment
    f = builtin("moebius")
    N = 3 * 2**18

    def peak(n_points):
        tracemalloc.start()
        try:
            F_truncated(f, [ComplexPoint(1.5 + 0.01 * i) for i in range(n_points)], N)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16) - peak(1) <= 16 * 2**20
