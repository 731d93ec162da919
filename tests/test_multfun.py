import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflab.errors import CoverageError, FunctionSpecError
from mflab.multfun import (
    MultiplicativeFunction,
    StreamSummer,
    builtin,
    class_check,
    parse_function_spec,
    resolve_checkpoints,
    segment_values,
    summatory_trace,
    twist,
    value_at,
)
from mflab.primes import sieve_primes, spf_table

from _oracles import brute_summatory, trial_value

SPF = spf_table(10**5)
BASE = sieve_primes(1000)
PRIMES6 = sieve_primes(10**6)


def test_builtin_rules():
    mu = builtin("moebius")
    assert mu.prime_power(5, 1) == -1
    assert mu.prime_power(5, 2) == 0
    lam = builtin("liouville")
    assert lam.prime_power(3, 1) == -1
    assert lam.prime_power(3, 2) == 1
    assert lam.completely_multiplicative and lam.claims_M
    odd = builtin("odd_one")
    assert odd.prime_power(2, 1) == 0
    assert odd.prime_power(3, 4) == 1
    assert odd.claims_M2
    with pytest.raises(FunctionSpecError):
        builtin("nope")


def test_value_at_examples():
    mu, lam, odd = builtin("moebius"), builtin("liouville"), builtin("odd_one")
    assert value_at(mu, 12, SPF) == 0
    assert value_at(lam, 12, SPF) == -1  # Omega(12) = 3
    assert value_at(odd, 10, SPF) == 0
    assert value_at(mu, 1, SPF) == 1
    with pytest.raises(CoverageError):
        value_at(mu, 10**5 + 1, SPF)


@pytest.mark.parametrize(
    "name", ["one", "moebius", "liouville", "odd_one", "twist"])
def test_sieve_vs_trial_division(name):
    f = builtin(name, params=[0.7] if name == "twist" else ())
    vals = segment_values(f, 1, 3000, BASE)
    for n in range(1, 3001):
        assert abs(vals[n - 1] - trial_value(f, n)) <= 1e-12
    for n in (2, 30, 1024, 2310):
        assert abs(value_at(f, n, SPF) - trial_value(f, n)) <= 1e-12


def test_summatory_examples():
    mu, lam, one = builtin("moebius"), builtin("liouville"), builtin("one")
    tr = summatory_trace(mu, 10, grid="explicit:10")
    assert tr.value_at(10) == brute_summatory(mu, 10) == -1
    tr = summatory_trace(lam, 10, grid="explicit:10")
    assert tr.value_at(10) == 0
    tr = summatory_trace(one, 1000, grid="explicit:1000")
    assert tr.value_at(1000) == 1000


def test_summatory_matches_bruteforce_on_grid():
    lam = builtin("liouville")
    tr = summatory_trace(lam, 500, grid="explicit:" + ",".join(map(str, range(1, 501))))
    running = 0.0
    for x, v in zip(tr.xs, tr.values):
        running += trial_value(lam, int(x)).real
        assert complex(v) == pytest.approx(running, abs=1e-12)


def test_summatory_bound_for_class_M():
    for name in ("moebius", "liouville", "odd_one"):
        tr = summatory_trace(builtin(name), 20000)
        assert np.all(np.abs(tr.values) <= tr.xs + 1e-9)


def test_segmentation_bit_identity():
    lam = builtin("liouville")
    t1 = summatory_trace(lam, 50_000, segment_size=1000)
    t2 = summatory_trace(lam, 50_000, segment_size=10**6)
    assert np.array_equal(t1.values, t2.values)
    assert np.array_equal(t1.xs, t2.xs)


def test_stream_summer_alignment():
    vals = np.exp(1j * np.arange(10000) / 7.0)
    a = StreamSummer([500, 9999])
    a.feed(1, vals)
    b = StreamSummer([500, 9999])
    for i in range(0, 10000, 37):
        b.feed(i + 1, vals[i : i + 37])
    assert a.checkpoint_values == b.checkpoint_values
    assert a.close() == b.close()


@given(st.floats(-5, 5), st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_twist_preserves_modulus(t, p, k):
    lam = builtin("liouville")
    tw = twist(lam, t)
    assert abs(abs(tw.prime_power(p, k)) - abs(lam.prime_power(p, k))) < 1e-12


def test_twist_flags_and_vector_path():
    tw = twist(builtin("odd_one"), 1.5)
    assert tw.claims_M and tw.claims_M2 and tw.completely_multiplicative
    ps = np.array([2, 3, 5, 101], dtype=np.int64)
    vec = tw.prime_values(ps)
    for i, p in enumerate(ps):
        assert abs(vec[i] - tw.prime_power(int(p), 1)) < 1e-12


def test_class_check_liouville_two_adic():
    rep = class_check(builtin("liouville"), 100, t=0.0)
    assert rep.m_ok and rep.cm_ok
    # f(4) = +1 but -2^{0} = -1: alternative fails at k = 2
    assert not rep.two_adic_ok and rep.two_adic_failures[0] == 2
    assert "divergence alternative required" in rep.summary()


def test_class_check_odd_one_and_violation():
    rep = class_check(builtin("odd_one"), 100)
    assert rep.m_ok and rep.m2_ok
    bad = MultiplicativeFunction(
        "bad", lambda ps, k: np.where((ps == 3) & (k == 1), 1.5, 1.0), claims_M=True)
    rep = class_check(bad, 50)
    assert not rep.m_ok and rep.m_violations[0] == (3, 1)


def test_class_check_two_adic_match():
    f = MultiplicativeFunction(
        "tilted", lambda ps, k: np.where(ps == 2, -np.exp(1j * k * np.log(2.0)), 1.0))
    rep = class_check(f, 1000, t=1.0)
    assert rep.two_adic_ok


def test_resolve_checkpoints():
    assert resolve_checkpoints("geometric:2", 100) == [10, 20, 40, 80, 100]
    assert resolve_checkpoints("geometric:2:3", 20) == [3, 6, 12, 20]
    assert resolve_checkpoints("explicit:5,50,500", 100) == [5, 50, 100]
    assert resolve_checkpoints(None, 12)[-1] == 12
    with pytest.raises(FunctionSpecError):
        resolve_checkpoints("geometric:0.5", 100)
    with pytest.raises(FunctionSpecError):
        resolve_checkpoints("huh:1", 100)


def test_parse_function_spec():
    assert parse_function_spec("moebius").label == "moebius"
    tw = parse_function_spec("twist:0.5:liouville")
    assert abs(tw.prime_power(3, 1) - (-np.exp(-0.5j * np.log(3)))) < 1e-12
    with pytest.raises(FunctionSpecError):
        parse_function_spec("twist:x:one")
    with pytest.raises(FunctionSpecError):
        parse_function_spec("wat")


def test_segment_values_independent_of_segment_end():
    # 88651 is the leftover prime of n = 88651 * 88647 in [n, n] but a base
    # prime of [n, 88651^2]; both paths read the same rule
    f = builtin("extremal-ref")
    n = 88651 * 88647
    base = sieve_primes(88651)
    alone = segment_values(f, n, n, base)
    wide = segment_values(f, n, 88651**2, base)
    assert alone.view(np.uint64).tolist() == wide[:1].view(np.uint64).tolist()


@pytest.mark.parametrize("spec", [
    "one", "moebius", "liouville", "odd_one", "twist:0.7:one", "extremal-ref",
    "twist:0.7:moebius"])
def test_prime_power_matches_prime_values(spec):
    # one-prime reads (base primes, value_at) equal array reads (leftover
    # primes, prime sums) bit for bit, including p = 88651, 125683, 285343
    f = parse_function_spec(spec)
    ps = PRIMES6.primes
    one = np.array([f.prime_power(p, 1) for p in ps.tolist()])
    assert np.array_equal(one.view(np.uint64), f.prime_values(ps).view(np.uint64))
