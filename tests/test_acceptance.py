"""Acceptance suite: one test per criterion, tolerances pinned inline.

The underlying mean-value statements are asymptotic; everything here is a
finite-grid quantitative check.  Run with ``pytest -s tests/test_acceptance.py``
to see one PASS line per criterion.
"""

import math
import time

import numpy as np
import pytest

from mflab.cli import main as cli_main
from mflab.dirichlet import (
    ComplexPoint,
    TruncationPlan,
    F_truncated,
    HalaszDirection,
    alignment_terms,
    as_point,
    log_F,
    zeta,
)
from mflab.extremal import reference_spec, extremal_function, theta_values, verify
from mflab.halasz import lemma_defect, lemma_ratio, pole_sum, theorem2_ratio
from mflab.multfun import (builtin, completely_multiplicative, kernel_base,
                           parse_function_spec, segment_values, summatory_trace)
from mflab.primes import sieve_primes

from _oracles import F_partial_summation, factorization_table

BASE5 = sieve_primes(10**5)
PLAN = TruncationPlan(prime_cutoff=10**5, exact_factor_cutoff=10**4)
EPLUS = HalaszDirection(1, 0.0)
EMINUS = HalaszDirection(-1, 0.0)


def _report(n: int, msg: str, t0: float) -> None:
    print(f"ACCEPTANCE {n} PASS: {msg} ({time.perf_counter() - t0:.1f}s)")


def _builtin_corpus():
    specs = ("one", "moebius", "liouville", "odd_one", "twist:0.7:one", "extremal-ref")
    return [parse_function_spec(spec) for spec in specs]


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    N = 10**5
    facts = factorization_table(N)  # independent trial-division oracle
    for f in _builtin_corpus():
        table = {}
        oracle = np.empty(N, dtype=np.complex128)
        oracle[0] = 1.0
        for n in range(2, N + 1):
            v = 1.0 + 0.0j
            for pk in facts[n]:
                w = table.get(pk)
                if w is None:
                    w = f.prime_power(*pk)
                    table[pk] = w
                v *= w
            oracle[n - 1] = v
        sieved = segment_values(f, 1, N, kernel_base(f, N))
        assert float(np.max(np.abs(sieved - oracle))) <= 1e-12, f.label
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"sieve == trial division for {len(_builtin_corpus())} builtins, n <= 1e5", t0)


def euler(f, points, plan, direction):
    """F at each point by log_F's aligned sum along ``direction``."""
    pts = [as_point(s) for s in points]
    out = [r.exp(pt.sigma) for pt, r in zip(pts, log_F(f, pts, plan, direction))]
    assert {r.method for r in out} == {"euler-product"}
    return out


def _rel(err: float, mag: float) -> float:
    assert err < mag
    return err / (mag - err)


def test_criterion_02_dirichlet_identities():
    t0 = time.perf_counter()
    mu, lam, odd = builtin("moebius"), builtin("liouville"), builtin("odd_one")
    pts = [ComplexPoint(1.5), ComplexPoint(1.2, 0.5), ComplexPoint(1.1, 1.0)]
    columns = zip(
        pts,
        euler(mu, pts, PLAN, EPLUS),
        euler(lam, pts, PLAN, EPLUS),
        euler(odd, pts, PLAN, EMINUS))
    for s, fmu, flam, fodd in columns:
        sc = s.s
        z = zeta(s)
        z2 = zeta(2 * sc)

        diff = abs(fmu.value * z.value - 1.0)
        comb = abs(z.value) * fmu.error_bound + abs(fmu.value) * z.error_bound \
            + fmu.error_bound * z.error_bound
        assert diff <= comb + 1e-15
        assert diff <= 1e-4

        est = flam.value * z.value / z2.value
        rel = _rel(flam.error_bound, abs(flam.value)) + _rel(z.error_bound, abs(z.value)) \
            + _rel(z2.error_bound, abs(z2.value))
        diff = abs(est - 1.0)
        assert diff <= 1.5 * abs(est) * rel + 1e-15 or diff <= 1e-6
        assert diff <= 1e-4

        denom = z.value * (1 - 2**-sc)
        est = fodd.value / denom
        rel = _rel(fodd.error_bound, abs(fodd.value)) + _rel(z.error_bound, abs(z.value))
        diff = abs(est - 1.0)
        assert diff <= 1.5 * abs(est) * rel + 1e-15 or diff <= 1e-6
        assert diff <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, "F_mu*zeta, F_lam*zeta/zeta(2s), F_odd/(zeta(1-2^-s)) all within 1e-4", t0)


def test_criterion_03_cross_method_consistency():
    t0 = time.perf_counter()
    for f in (builtin("liouville"), builtin("odd_one")):
        trace = summatory_trace(f, 10**5)
        pts = [ComplexPoint(sg, tt) for sg in (1.1, 1.5) for tt in (0.0, 0.7, -1.0)]
        for s, ft, pr in zip(pts, F_truncated(f, pts, 10**5), log_F(f, pts, PLAN)):
            fp = F_partial_summation(trace, s, 10**5)
            fe = pr.exp(s.sigma)
            fe_val, fe_err = fe.value, fe.error_bound
            assert abs(ft.value - fp.value) <= ft.error_bound + fp.error_bound
            assert abs(ft.value - fe_val) <= ft.error_bound + fe_err
            assert abs(fp.value - fe_val) <= fp.error_bound + fe_err
    _report(3, "truncated vs partial-summation vs exp(prime sum + defect) overlap", t0)


def test_criterion_04_pole_case():
    t0 = time.perf_counter()
    odd = builtin("odd_one")
    sigmas = [1.01] + [1.0 + 2.0**-k for k in range(4, 11)]
    fes = euler(odd, sigmas, PLAN, EMINUS)
    v101, *seq = [(sg - 1.0) * abs(fe.value) for sg, fe in zip(sigmas, fes)]
    assert 0.45 <= v101 <= 0.55
    assert all(b < a for a, b in zip(seq, seq[1:]))  # monotone approach from above
    assert all(v > 0.5 for v in seq)
    assert abs(seq[-1] - 0.5) <= 0.005  # within 1% at k = 10
    _report(4, f"(sigma-1)F_odd: 1.01 -> {v101:.4f}, k=10 -> {seq[-1]:.5f}", t0)


def test_criterion_05_zero_case():
    t0 = time.perf_counter()
    mu = builtin("moebius")
    (fe,) = euler(mu, [ComplexPoint(1.001)], PLAN, EPLUS)
    ratio = abs(fe.value) / 0.001
    assert 0.9 <= ratio <= 1.1
    _report(5, f"F_mu(1.001)/(sigma-1) = {ratio:.5f}", t0)


def test_criterion_06_lemma_defect():
    t0 = time.perf_counter()
    lam = builtin("liouville")
    ratios = []
    sigmas = [1.1, 1.01, 1.001]
    for sg, r in zip(sigmas, lemma_defect(lam, EPLUS, sigmas, PLAN.prime_cutoff)):
        assert abs(r.value) <= 1.0
        ratios.append(float(lemma_ratio(sg, r.value)))
    assert ratios[0] > ratios[1] > ratios[2]
    _report(6, f"|D| <= 1 and ratio strictly decreasing: {[round(v, 4) for v in ratios]}", t0)


def test_criterion_07_theta_chain():
    # the chain Re g >= |w|(1 - cos theta) >= |w| theta^2/(2 pi) on the
    # library's own alignment terms g = 1 + w, w = e0 f(p) p^{-it0} = -|w| e^{i theta}
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    ps = BASE5[:1000]
    radii = np.sqrt(rng.uniform(0.0, 1.0, ps.size))  # uniform over the unit disk
    fp = radii * np.exp(1j * rng.uniform(-math.pi, math.pi, ps.size))
    f = completely_multiplicative("disk", lambda q: fp[np.searchsorted(ps, q)])
    violations = 0
    for e, tt in zip(rng.choice([-1, 1], 10), rng.uniform(-10.0, 10.0, 10)):
        _, g = alignment_terms(f, ps, HalaszDirection(int(e), float(tt)))
        w = g - 1.0
        theta = np.angle(1.0 - g)
        theta[theta <= -math.pi] = math.pi
        r = np.abs(w)
        mid = r * (1.0 - np.cos(theta))
        low = r * theta * theta / (2.0 * math.pi)
        violations += int(np.count_nonzero((g.real < mid - 1e-12) | (mid < low - 1e-12)))
    assert violations == 0
    _report(7, "chain inequality holds on 10^4 alignment terms of a unit-disk rule", t0)


def test_criterion_08_extremal_mechanics():
    t0 = time.perf_counter()
    spec = reference_spec()  # kappa = power:0.25, x1 = 20, J = 3

    # (a) block-1 selection window: exactly the primes in [41, 317]
    # (10^4 < x_2, so any nonzero theta below 10^4 belongs to block 1)
    ps4 = BASE5[BASE5 <= 10**4]
    selected = [int(p) for p, th in zip(ps4, theta_values(spec, ps4)) if th > 0]
    oracle = [int(p) for p in ps4
              if spec.blocks[0].log_x <= math.log(p) < spec.blocks[0].log_upper
              and -math.sin(math.log(p)) >= 0.5]
    assert selected == oracle
    assert selected[0] == 41 and selected[-1] == 317

    # (b) theta-square sum against the per-block Mertens majorant and budget
    rep, (wrep,) = verify(spec, PLAN.prime_cutoff, [1])
    assert rep.observed <= rep.majorant + 1e-12
    assert rep.majorant <= 4.0 * rep.sum_a_sq + 1e-12

    # (c) window lower bound at sigma = 1 + 1/(log 20)^2
    assert wrep.window_sum >= wrep.half_theta_sum - 1e-15
    assert wrep.ok

    # (d) alignment sum bounded by sum theta^2/(2p): the zero-direction
    # condition holds by construction at (epsilon0, t0) = (+1, 0)
    f = extremal_function(spec)
    psum = pole_sum(f, EPLUS, 10**5)
    th = theta_values(spec, BASE5)
    half_sq = float(np.sum(th * th / (2.0 * BASE5.astype(np.float64))))
    assert psum.values[-1] <= half_sq + 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, "window=[41,317]; psum <= majorant <= 4*sum a^2; W1 >= half; "
               "alignment sum <= sum theta^2/2p", t0)


def test_criterion_09_summatory_decay_ratio():
    t0 = time.perf_counter()
    lam = builtin("liouville")
    trace = summatory_trace(lam, 10**6, grid="geometric:10")
    pts = theorem2_ratio(trace, 1.0)
    by_x = {p.x: p.ratio for p in pts}
    assert by_x[10**6] < 0.05
    assert by_x[10**6] < by_x[10**5]  # decreasing over the last decade
    one = builtin("one")
    tr1 = summatory_trace(one, 10**6, grid="geometric:10")
    rs = [p.ratio for p in theorem2_ratio(tr1, 1.0) if p.x >= 10**3]
    assert all(b > a for a, b in zip(rs, rs[1:]))
    _report(9, f"lambda ratio {by_x[10**6]:.5f} < 0.05 and decade-decreasing; "
               "'one' increasing", t0)


def test_criterion_10_zeta_floor():
    t0 = time.perf_counter()
    ts = np.arange(-20.0, 20.0 + 1e-9, 0.25)
    v = min(abs(zeta(ComplexPoint(sg, float(t))).value) * math.log(abs(t) + 2.0)
            for sg in (1.001, 1.01, 1.1) for t in ts)
    assert v >= 0.1
    _report(10, f"min |zeta|*log(|t|+2) = {v:.4f} >= 0.1 over {3 * ts.size} grid points", t0)


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    commands = [
        ["sum", "--function", "liouville", "--limit", "100000", "--grid", "geometric:2"],
        ["sum", "--function", "extremal-ref", "--limit", "20000"],
        ["thm1", "--function", "odd_one", "--epsilon", "-1", "--t0", "0",
         "--sigma", "1.001:1.5:20"],
        ["lemma", "--function", "liouville", "--epsilon", "1", "--sigma", "1.001:1.1:5"],
        ["thm2", "--function", "liouville", "--limit", "100000", "--grid", "geometric:10"],
        ["eval-f", "--function", "moebius", "--sigma", "1.1:1.5:5", "--t", "1.0",
         "--method", "euler"],
        ["extremal-build", "--kappa", "power:0.25", "--x1", "20", "--J", "3"],
    ]
    for i, cmd in enumerate(commands):
        a = tmp_path / f"{i}_a.out"
        b = tmp_path / f"{i}_b.out"
        assert cli_main(cmd + ["--out", str(a)]) == 0
        assert cli_main(cmd + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), cmd[0]
    # segmentation must not affect checkpoint values either
    lam = builtin("liouville")
    x = summatory_trace(lam, 10**5, segment_size=1000)
    y = summatory_trace(lam, 10**5, segment_size=10**6)
    assert np.array_equal(x.values, y.values)
    _report(11, f"{len(commands)} CLI commands byte-identical on rerun; "
                "segment size does not change checkpoints", t0)
