import builtins
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mflab import primes
from mflab.errors import CapacityError, CoverageError, DomainError, FunctionSpecError
from mflab.cli import main
from mflab.extremal import (
    A_SQ_BUDGET,
    ALPHA_FLOOR,
    KAPPA_GRID_POINTS,
    LOGLOG_16,
    LOGLOG_MAX,
    ExtremalBlock,
    ExtremalSpec,
    alpha_from_kappa,
    build_spec,
    choose_blocks,
    extremal_function,
    load_spec,
    parse_kappa_spec,
    reference_spec,
    regularize_kappa,
    spec_json,
    theta_values,
    verify,
)
from mflab.halasz import HalaszDirection, pole_sum
from mflab.multfun import StreamSummer, parse_function_spec
from mflab.primes import sieve_primes

from _oracles import class_m_violations

BASE = sieve_primes(10**5)


def theta_of(spec, p):
    return float(theta_values(spec, np.array([p]))[0])


# --- kappa regularization -------------------------------------------------


def test_regularize_constant_fixed_point():
    k = regularize_kappa(lambda ll: 1.0)
    for ll in (1.05, 2.0, 10.0, 39.0):
        assert k.kappa0(ll) == pytest.approx(1.0)
        assert k.kappa1(ll) == pytest.approx(1.0)


def test_regularize_power_native():
    # tolerance set by linear interpolation on the 2000-point grid
    k = regularize_kappa(lambda ll: ll**0.25)
    for ll in (1.2, 4.0, 25.0):
        assert k.kappa0(ll) == pytest.approx(ll**0.25, rel=1e-4)
        assert k.kappa1(ll) == pytest.approx(ll**0.25, rel=1e-4)


def test_regularize_oscillating_running_max():
    raw = lambda ll: 1.0 + 0.5 * math.sin(ll)
    k = regularize_kappa(raw)
    # independent dense running-max oracle
    dense = np.linspace(k.grid[0], 30.0, 20000)
    run = np.maximum.accumulate([raw(v) for v in dense])
    for i in range(0, dense.size, 777):
        assert k.kappa0(dense[i]) >= run[i] - 1e-3
    grid, k0, k1 = map(np.asarray, (k.grid, k.kappa0_vals, k.kappa1_vals))
    assert np.all(np.diff(k0) >= -1e-12)
    assert np.all(np.diff(k1) >= -1e-9)
    ratio = k1 / np.sqrt(grid)
    assert np.all(np.diff(ratio) <= 1e-12)
    assert np.all(k1 >= k0 - 1e-12)


@pytest.mark.parametrize("kappa", ["const:1.5", "power:0.25", "loglog-fraction:0.8"])
def test_the_construction_on_floats_has_numpys_bits(kappa):
    # the construction runs without numpy; these are the numpy steps it replaced
    raw = parse_kappa_spec(kappa)
    k = regularize_kappa(raw, desc=kappa)
    alpha = alpha_from_kappa(k, 1.0)
    grid = np.linspace(LOGLOG_16, LOGLOG_MAX, KAPPA_GRID_POINTS)
    kappa0 = np.maximum.accumulate(np.array([float(raw(v)) for v in grid]))
    kappa1 = np.sqrt(grid) * np.maximum.accumulate((kappa0 / np.sqrt(grid))[::-1])[::-1]
    env = np.maximum.accumulate(np.array(
        [max((k1 + math.log(v + 1.0 / np.e) + 1.0) / math.sqrt(v), ALPHA_FLOOR)
         for v, k1 in zip(grid, kappa1)])[::-1])[::-1]
    for got, want in ((k.grid, grid), (k.kappa0_vals, kappa0), (k.kappa1_vals, kappa1),
                      (alpha.env_vals, env)):
        assert np.array(got).tobytes() == want.tobytes()
    # every grid node, the left end, a point left of it and random points between
    rng = np.random.default_rng(7)
    xs = np.concatenate([grid[:-1], [grid[0] - 5e-13],
                         rng.uniform(grid[0], grid[-1], 10**4 - KAPPA_GRID_POINTS)])
    for at, vals in ((k.kappa0, kappa0), (k.kappa1, kappa1), (alpha.at_loglog, env)):
        assert np.array([at(x) for x in xs.tolist()]).tobytes() == np.interp(xs, grid, vals).tobytes()


def test_regularize_rejects_nonpositive():
    with pytest.raises(DomainError):
        regularize_kappa(lambda ll: math.sin(ll))


# --- alpha ------------------------------------------------------------------


def test_alpha_direct_substitution():
    for C0 in (0.0, 1.0):
        a = alpha_from_kappa(regularize_kappa(lambda ll: 1.0), C0)
        expected = (1.0 + math.log(4.0 + 1.0 / math.e) + C0) / 2.0
        assert a.at_loglog(4.0) == pytest.approx(expected, rel=1e-6)


def test_alpha_decreases_for_power_kappa():
    a = alpha_from_kappa(regularize_kappa(lambda ll: ll**0.25), 1.0)
    assert a.at_loglog(25.0) < a.at_loglog(4.0)
    vals = [a.at_loglog(v) for v in np.linspace(1.05, 39.0, 300)]
    assert all(b <= x + 1e-12 for x, b in zip(vals, vals[1:]))


def test_alpha_formula_beyond_grid():
    k = regularize_kappa(lambda ll: 0.01 if ll < 41 else 0.01)
    a = alpha_from_kappa(k, 0.0)
    v = a.at_loglog(100.0)
    assert v == pytest.approx((0.01 + math.log(100.0 + 1.0 / math.e)) / 10.0, rel=1e-6)
    assert abs(v - 0.462) < 5e-3


def test_alpha_dominates_kappa1():
    k = regularize_kappa(lambda ll: ll**0.3)
    a = alpha_from_kappa(k, 0.5)
    for ll in (1.1, 3.0, 12.0, 35.0):
        assert a.at_loglog(ll) * math.sqrt(ll) >= k.kappa1(ll) - 1e-12


def test_alpha_domain_errors():
    a = alpha_from_kappa(regularize_kappa(lambda ll: 1.0), 1.0)
    with pytest.raises(DomainError):
        a.at_loglog(math.log(math.log(15.0)))  # x = 15 < 16
    with pytest.raises(DomainError):
        alpha_from_kappa(regularize_kappa(lambda ll: 1.0), -1.0)


def test_parse_kappa_spec():
    assert parse_kappa_spec("const:2.0")(9.0) == 2.0
    assert parse_kappa_spec("power:0.25")(16.0) == 2.0
    v = parse_kappa_spec("loglog-fraction:1.0")(math.e**2)
    assert v == pytest.approx(math.e / 2.0)
    for bad in ("power:0.9", "const:-1", "wat:1", "power:x", "power"):
        with pytest.raises(FunctionSpecError):
            parse_kappa_spec(bad)


# --- blocks -----------------------------------------------------------------


def test_choose_blocks_recurrence():
    spec = reference_spec()
    b1, b2, b3 = spec.blocks
    assert b1.log_x == pytest.approx(math.log(20.0))
    assert b1.log_upper == pytest.approx(math.log(20.0) ** 2)  # upper_1 ~ 7.9e3
    assert math.exp(b1.log_upper) == pytest.approx(7.9e3, rel=0.02)
    assert b2.log_x == pytest.approx(b1.log_upper + 1.0)
    assert b3.log_x == pytest.approx(b2.log_upper + 1.0)
    for b in spec.blocks:
        assert b.log_upper < b.log_upper + 1.0  # upper_j < x_{j+1} in log form
        assert b.a > 0


def test_choose_blocks_single_and_validation():
    a = alpha_from_kappa(regularize_kappa(lambda ll: 1.0), 1.0)
    spec = choose_blocks(a, 1, 16.0)
    assert spec.J == 1 and len(spec.blocks) == 1
    with pytest.raises(DomainError):
        choose_blocks(a, 1, 10.0)
    with pytest.raises(DomainError):
        choose_blocks(a, 0, 20.0)


def test_choose_blocks_capacity():
    # both ceilings at the fixed budget A_SQ_BUDGET, reached through J and C0
    kappa = regularize_kappa(lambda ll: 1.0)
    with pytest.raises(CapacityError) as ei:
        choose_blocks(alpha_from_kappa(kappa, 1.0), 12, 20.0)
    assert "maximal feasible J = 9" in str(ei.value)
    with pytest.raises(CapacityError) as ei:
        choose_blocks(alpha_from_kappa(kappa, 100.0), 3, 20.0)
    assert "exceeds budget" in str(ei.value)


def test_sum_a_sq_budget():
    spec = reference_spec()
    assert spec.sum_a_sq() == pytest.approx(sum(b.a**2 for b in spec.blocks))
    assert spec.sum_a_sq() <= 32.0


def _neumaier(xs):
    """A compensated float sum, rounded once at the end, as sum() is from Python 3.12."""
    s, c = 0.0, 0.0
    for x in xs:
        t = s + x
        c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s = t
    return s + c


@pytest.mark.parametrize("kappa", ["const:1.7", "power:0.329"])
def test_sum_a_sq_adds_in_order_whatever_sum_does(kappa, monkeypatch):
    # the 4 * sum a_j^2 line of extremal-verify keeps its bits on every Python
    spec = build_spec(kappa, 20.0, 3)
    want = 0.0
    for b in spec.blocks:
        want += b.a * b.a
    assert _neumaier(b.a * b.a for b in spec.blocks) != want  # the two differ in the last bit
    monkeypatch.setattr(builtins, "sum", _neumaier)
    assert spec.sum_a_sq() == want


# --- theta and the function --------------------------------------------------


def test_theta_values_examples():
    spec = reference_spec()
    assert -math.sin(math.log(41)) >= 0.5
    assert theta_of(spec, 41) == pytest.approx(spec.blocks[0].a / math.sqrt(math.log(math.log(41))))
    assert -math.sin(math.log(37)) < 0.5
    assert theta_of(spec, 37) == 0.0
    assert theta_of(spec, 2) == 0.0
    assert theta_of(spec, 19) == 0.0  # below x_1


def test_theta_window_exact_set():
    spec = reference_spec()
    ps = BASE[BASE <= 10**4]
    selected = [int(p) for p in ps[theta_values(spec, ps) > 0]]
    oracle = [
        int(p) for p in ps
        if math.log(20.0) <= math.log(p) < math.log(20.0) ** 2
        and -math.sin(math.log(p)) >= 0.5
    ]
    assert selected == oracle
    assert selected[0] == 41 and selected[-1] == 317


def test_theta_window_random_primes():
    spec = reference_spec()
    rng = np.random.default_rng(11)
    ps = rng.choice(BASE, size=1000, replace=False)
    th = theta_values(spec, ps)
    for p, t in zip(ps, th):
        p = int(p)
        in_block = any(b.log_x <= math.log(p) < b.log_upper for b in spec.blocks)
        in_window = -math.sin(math.log(p)) >= 0.5
        assert (t > 0) == (in_block and in_window)


def test_extremal_function_class_and_values():
    spec = reference_spec()
    f = extremal_function(spec)
    assert class_m_violations(f, 2000) == []
    assert f.prime_power(37, 1) == pytest.approx(-1.0)  # theta = 0
    th = theta_of(spec, 41)
    assert f.prime_power(41, 1) == pytest.approx(-np.exp(1j * th))
    assert abs(f.prime_power(41, 1)) == pytest.approx(1.0)


def test_prime_values_are_minus_exp_i_theta_bit_for_bit():
    # f(p) is built in place from theta_p; its bits are those of -exp(1j theta)
    spec = reference_spec()
    ps = BASE
    got = extremal_function(spec).prime_values(ps)
    want = -np.exp(1j * theta_values(spec, ps))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_theta_values_take_the_callers_log_p():
    spec = reference_spec()
    ps = BASE
    lp = np.log(ps.astype(np.float64))
    assert np.array_equal(theta_values(spec, ps, lp), theta_values(spec, ps))
    assert not theta_values(spec, ps, np.zeros(ps.size)).any()  # lp is used as given


def test_taylor_remainder():
    spec = reference_spec()
    f = extremal_function(spec)
    ps = BASE
    for p, th in zip(ps.tolist(), theta_values(spec, ps).tolist()):
        if th == 0.0:
            continue
        assert abs(f.prime_power(p, 1) - (-1.0 - 1j * th)) <= th * th / 2 + 1e-15


def test_pole_sum_cosine_bound():
    spec = reference_spec()
    f = extremal_function(spec)
    ps = pole_sum(f, HalaszDirection(1, 0.0), 10**5)
    th = theta_values(spec, BASE)
    bound = float(np.sum(th**2 / (2.0 * BASE.astype(float))))
    assert ps.values[-1] <= bound + 1e-12


# --- verification reports -----------------------------------------------------


def test_verify_psum_reference():
    spec = reference_spec()
    rep, _ = verify(spec, 10**5, [])
    assert rep.observed <= rep.majorant + 1e-12
    assert rep.majorant <= rep.budget_bound + 1e-12
    assert rep.ok
    assert "PASS" in rep.text()


def test_verify_psum_zero_amplitude():
    blocks = (ExtremalBlock(math.log(20.0), math.log(20.0) ** 2, 0.0),)
    spec = ExtremalSpec(20.0, 1, 1.0, blocks, "manual", "manual")
    rep, _ = verify(spec, 10**4, [])
    assert rep.observed == 0.0


def test_verify_psum_monotone_in_cutoff():
    spec = reference_spec()
    obs = [verify(spec, P, [])[0].observed for P in (10**3, 10**4, 10**5)]
    assert obs[0] <= obs[1] <= obs[2]


@pytest.mark.parametrize("x1", [16.0, 20.0, 50.0])
@pytest.mark.parametrize("J", [1, 2, 3])
def test_verify_psum_majorant_family(x1, J):
    spec = build_spec("power:0.25", x1=x1, J=J)
    rep, _ = verify(spec, 10**5, [])
    assert rep.ok


def test_verify_logF_lower_reference():
    spec = reference_spec()
    _, (rep,) = verify(spec, 10**5, [1])
    assert rep.selected_min == 41 and rep.selected_max == 317
    assert rep.window_sum >= rep.half_theta_sum
    assert rep.ok
    assert rep.sigma == pytest.approx(1.0 + 1.0 / math.log(20.0) ** 2)
    assert rep.target == pytest.approx(spec.blocks[0].a * math.sqrt(math.log(math.log(20.0))))
    with pytest.raises(CoverageError):
        verify(spec, 10**5, [2])  # upper_2 = e^99.5 not sieveable
    with pytest.raises(DomainError):
        verify(spec, 10**5, [9])


def test_verify_logF_lower_zero_amplitude():
    blocks = (ExtremalBlock(math.log(20.0), math.log(20.0) ** 2, 0.0),)
    spec = ExtremalSpec(20.0, 1, 1.0, blocks, "manual", "manual")
    _, (rep,) = verify(spec, 10**4, [1])
    assert rep.window_sum == 0.0 and rep.half_theta_sum == 0.0


def test_window_gathered_over_many_chunks_is_the_table_sum(monkeypatch):
    # x1 = 60: block 1 ends at e^16.76 ~ 1.9e7, and its window from e^16.23
    # on spans several sieve segments; the window sums streamed chunk by
    # chunk have the bits of one StreamSummer fed the terms of a table of the
    # primes <= upper_1, at the default chunk size and at another one
    spec = build_spec("power:0.25", x1=60.0, J=2)
    b = spec.blocks[0]
    ps = sieve_primes(int(math.exp(b.log_upper)))
    lp = np.log(ps.astype(np.float64))
    sel = (lp >= b.log_x) & (lp < b.log_upper) & (-np.sin(lp) >= 0.5)
    late = ps[sel][ps[sel] > 10**7]  # the window from e^16.23
    assert late[-1] - late[0] > 4 * 2**20  # longer than four sieve segments
    lps = lp[sel]
    th = b.a / np.sqrt(np.log(lps))
    for chunk in (primes._BLOCK, 1000):
        monkeypatch.setattr(primes, "_BLOCK", chunk)
        _, (rep,) = verify(spec, 2 * 10**7, [1])
        pw = np.exp(-rep.sigma * lps)
        W, T = StreamSummer(), StreamSummer()
        W.feed(th * (-np.sin(lps)) * pw, ps[sel])
        T.feed(th * pw, ps[sel])
        assert rep.selected_count == int(sel.sum())
        assert (rep.selected_min, rep.selected_max) == (int(ps[sel][0]), int(ps[sel][-1]))
        assert rep.window_sum == W.close().real
        assert rep.half_theta_sum == 0.5 * T.close().real


def test_verify_holds_no_list_of_primes(with_cpus):
    # 489,436 primes are selected in block 1's window; the pass holds one
    # chunk of them at a time, not a list of all of them (about 26 MiB).  One
    # CPU: the pass runs here, where tracemalloc sees it
    with_cpus(1)
    spec = build_spec("power:0.25", x1=60.0, J=2)
    verify(spec, 10**4)  # loads what the first call imports
    tracemalloc.start()
    try:
        _, (rep,) = verify(spec, 2 * 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.selected_count == 489_436
    assert peak < 4 * 2**20, peak


# --- serialization -------------------------------------------------------------


def test_content_hash_is_the_hashlib_sha1_of_the_spec():
    spec = reference_spec()
    blob = json.dumps(spec.to_json_dict(), sort_keys=True).encode()
    assert spec.content_hash() == hashlib.sha1(blob).hexdigest()[:10]


def test_spec_json_roundtrip(tmp_path):
    spec = reference_spec()
    path = tmp_path / "spec.json"
    path.write_text(spec_json(spec))
    loaded = load_spec(str(path))
    assert loaded.x1 == spec.x1 and loaded.J == spec.J and loaded.C0 == spec.C0
    assert loaded.blocks == spec.blocks
    assert loaded.content_hash() == spec.content_hash()
    f1, f2 = extremal_function(spec), extremal_function(loaded)
    for p in (41, 97, 317, 1009):
        assert f1.prime_power(p, 1) == f2.prime_power(p, 1)
    # the multfun mini-language picks it up
    f3 = parse_function_spec(f"extremal:{path}")
    assert f3.prime_power(41, 1) == f1.prime_power(41, 1)


def test_spec_json_deterministic(tmp_path):
    spec = reference_spec()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    p1.write_text(spec_json(spec))
    p2.write_text(spec_json(spec))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("block, log_upper", [
    (1, 5.0),  # block 2 inverted: log_upper below its log_x of 9.97
    (0, 10.5),  # block 1 overlaps block 2, which starts at 9.97
    (0, math.log(20.0)),  # block 1 empty: log_upper = log_x = log x1
])
def test_a_spec_with_blocks_out_of_order_is_refused(block, log_upper, tmp_path):
    # the inverted spec used to verify with PASS and run in thm1; the reach
    # of extremal_function reads these intervals
    doc = json.loads(spec_json(reference_spec()))
    doc["blocks"][block]["log_upper"] = log_upper
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FunctionSpecError, match="bad extremal spec .*: a block that is empty or overlaps"):
        load_spec(str(path))


@pytest.mark.parametrize("a", [1e200, 8.000001])
def test_a_spec_above_the_amplitude_budget_is_refused(a, tmp_path):
    # choose_blocks refuses a sum of a_j^2 above A_SQ_BUDGET = 64, which
    # bounds the theta_p^2/p that verify sums; one block of a = 1e200 used to
    # load, and extremal-verify printed PASS for it.  a = 8 is on the budget
    doc = json.loads(spec_json(reference_spec()))
    doc["J"], doc["blocks"] = 1, doc["blocks"][:1]
    path = tmp_path / "spec.json"
    doc["blocks"][0]["a"] = 8.0
    path.write_text(json.dumps(doc))
    assert load_spec(str(path)).sum_a_sq() == A_SQ_BUDGET
    doc["blocks"][0]["a"] = a
    path.write_text(json.dumps(doc))
    with pytest.raises(FunctionSpecError, match="bad extremal spec .*: sum of a_j\\^2 = .* exceeds"):
        load_spec(str(path))
    assert main(["extremal-verify", str(path), "--cutoff", "1000",
                 "--out", str(tmp_path / "v.txt")]) == 2


def test_the_golden_specs_load():
    golden = Path(__file__).resolve().parent / "golden"
    assert load_spec(str(golden / "spec.json")).blocks == reference_spec().blocks
    assert len(load_spec(str(golden / "spec-ll.json")).blocks) >= 1
