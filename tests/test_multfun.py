import os
import time
import tracemalloc
from functools import lru_cache, partial
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflab import extremal, workers
from mflab.errors import CapacityError, CoverageError, FunctionSpecError
from mflab.multfun import (
    MultiplicativeFunction,
    StreamSummer,
    builtin,
    completely_multiplicative,
    kernel_base,
    parse_function_spec,
    resolve_checkpoints,
    segment_values,
    summatory_trace,
    twist,
    two_adic_failures,
    unit_power,
)
from mflab.primes import sieve_primes
from mflab.workers import checkpoint_sums, stripes

from _oracles import (Mertens, brute_summatory, class_m_violations, prime_powers,
                      trial_factorize, trial_value)

PRIMES6 = sieve_primes(10**6)


def values(f, lo, hi):
    """segment_values of ``f`` over [lo, hi], from a kernel base to hi."""
    return segment_values(f, lo, hi, kernel_base(f, hi))


def test_builtin_rules():
    mu = builtin("moebius")
    assert mu.prime_power(5, 1) == -1
    assert mu.prime_power(5, 2) == 0
    lam = builtin("liouville")
    assert lam.prime_power(3, 1) == -1
    assert lam.prime_power(3, 2) == 1
    assert lam.completely_multiplicative
    odd = builtin("odd_one")
    assert odd.prime_power(2, 1) == 0
    assert odd.prime_power(3, 4) == 1
    with pytest.raises(FunctionSpecError):
        builtin("nope")


def test_value_at_examples():
    # f(n) from the segment kernel, the one route to single values
    mu, lam, odd = builtin("moebius"), builtin("liouville"), builtin("odd_one")
    assert values(mu, 12, 12)[0] == 0
    assert values(lam, 12, 12)[0] == -1  # Omega(12) = 3
    assert values(odd, 10, 10)[0] == 0
    assert values(mu, 1, 1)[0] == 1
    with pytest.raises(CoverageError):
        segment_values(mu, 1001**2, 1001**2, kernel_base(mu, 1000**2))  # needs n <= 10^6
    with pytest.raises(CoverageError):
        segment_values(lam, 12, 12, kernel_base(mu, 12))  # the base of another rule


@pytest.mark.parametrize("spec", ["one", "moebius", "liouville", "odd_one", "twist:0.7:one"])
def test_sieve_vs_trial_division(spec):
    f = parse_function_spec(spec)
    vals = values(f, 1, 3000)
    for n in range(1, 3001):
        assert abs(vals[n - 1] - trial_value(f, n)) <= 1e-12


def test_summatory_examples():
    mu, lam, one = builtin("moebius"), builtin("liouville"), builtin("one")
    tr = summatory_trace(mu, 10, grid="explicit:10")
    assert tr.xs.tolist() == [10] and tr.values[0] == brute_summatory(mu, 10) == -1
    tr = summatory_trace(lam, 10, grid="explicit:10")
    assert tr.values[0] == 0
    tr = summatory_trace(one, 1000, grid="explicit:1000")
    assert tr.values[0] == 1000


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
    a.feed(vals, 1)
    b = StreamSummer([500, 9999])
    for i in range(0, 10000, 37):
        b.feed(vals[i : i + 37], i + 1)
    assert a.checkpoint_values == b.checkpoint_values
    assert a.close() == b.close()


def test_stream_summer_totals_do_not_depend_on_chunking():
    # keys 1, 2, ... as in a trace: a sum fed in pieces has the bits of one
    # feed, real or complex, at any split
    rng = np.random.default_rng(7)

    def total(x, edges):
        summer = StreamSummer()
        for a, b in zip(edges, edges[1:]):
            summer.feed(x[a:b], a + 1)
        return np.array([summer.close()]).view(np.uint64).tolist()

    for n in (1, 5, 4096, 4097, 3 * 4096 + 5):
        x = rng.standard_normal(n) * np.exp(1j * rng.uniform(0, 6.3, n))
        for v in (x, x.real):
            want = total(v, [0, n])
            splits = [[0, k, n] for k in (1, 7, 4095, 4096, 4097, 2 * 4096 + 3, n - 1) if 0 < k < n]
            for edges in [*splits, [0, *range(1, n, 37), n]]:
                assert total(v, edges) == want, (n, edges[1])
    x = rng.standard_normal(3 * 4096 + 5)
    assert total(x, [0, 5, 5, 4096 + 9, 2 * 4096, x.size]) == total(x, [0, x.size])  # one empty
    assert StreamSummer().close() == 0


@given(st.floats(-5, 5), st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_twist_preserves_modulus(t, p, k):
    lam = builtin("liouville")
    tw = twist(lam, t)
    assert abs(abs(tw.prime_power(p, k)) - abs(lam.prime_power(p, k))) < 1e-12


def test_twist_flags_and_vector_path():
    tw = twist(builtin("odd_one"), 1.5)
    assert tw.completely_multiplicative
    ps = np.array([2, 3, 5, 101], dtype=np.int64)
    vec = tw.prime_values(ps)
    for i, p in enumerate(ps):
        assert abs(vec[i] - tw.prime_power(int(p), 1)) < 1e-12


def test_class_check_liouville_two_adic():
    # f(4) = +1 but -2^{0} = -1: the 2-adic alternative fails from k = 2 on
    assert two_adic_failures(builtin("liouville"), 0.0, 6) == [2, 4, 6]


def test_class_check_odd_one_and_violation():
    odd = builtin("odd_one")
    assert class_m_violations(odd) == []
    assert all(odd.prime_power(2, k) == 0 for k in range(1, 11))  # class M2
    bad = MultiplicativeFunction(
        "bad", lambda ps, k: np.where((ps == 3) & (k == 1), 1.5, 1.0))
    assert class_m_violations(bad, 50) == [(3, 1)]


def test_class_check_two_adic_match():
    f = MultiplicativeFunction(
        "tilted", lambda ps, k: np.where(ps == 2, -np.exp(1j * k * np.log(2.0)), 1.0))
    assert two_adic_failures(f, 1.0, 9) == []


@pytest.mark.parametrize("spec", [
    "one", "moebius", "liouville", "odd_one", "twist:0.7:one", "twist:0.7:moebius",
    "extremal-ref"])
def test_corpus_is_in_class_M(spec):
    f = parse_function_spec(spec)
    assert class_m_violations(f) == []
    if f.completely_multiplicative:
        for p, k in prime_powers(2000):
            assert abs(f.prime_power(p, k) - f.prime_power(p, 1) ** k) <= 1e-12, (p, k)


def _signed_zeros(ps):
    # zeros with every sign pattern, and nonzero values with a -0 part
    return np.array([0j, complex(0, -0.0), complex(-0.0, 0), complex(-0.0, -0.0),
                     complex(1, -0.0), complex(-0.0, 1), -1 + 0j])[ps % 7]


@pytest.mark.parametrize("spec", [
    "one", "moebius", "liouville", "odd_one", "twist:0.7:one", "twist:0.7:odd_one",
    "extremal-ref", "signed-zeros"])
def test_completely_multiplicative_first_power_has_the_bits_of_np_power(spec):
    # f(p) as the rule returns it, with the bits np.power(., 1) gives it
    if spec == "signed-zeros":
        fp = _signed_zeros
    else:
        fp = partial(parse_function_spec(spec).powers, k=1)
    ps = PRIMES6
    got = completely_multiplicative(spec, fp).powers(ps, 1)
    want = np.power(fp(ps), 1)
    assert got.dtype == want.dtype
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    # np.power turns every complex zero into +0 + 0i, and nothing else changes
    same = fp(ps).view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert same == (spec != "signed-zeros")


def test_resolve_checkpoints():
    assert resolve_checkpoints("geometric:2", 100) == [10, 20, 40, 80, 100]
    assert resolve_checkpoints("geometric:2:3", 20) == [3, 6, 12, 20]
    assert resolve_checkpoints("explicit:5,50,500", 100) == [5, 50, 100]
    assert resolve_checkpoints(None, 12)[-1] == 12
    with pytest.raises(FunctionSpecError):
        resolve_checkpoints("geometric:0.5", 100)
    for start in ("0", "-3", "inf", "nan"):  # 0 and -3 used to step forever
        with pytest.raises(FunctionSpecError):
            resolve_checkpoints(f"geometric:2:{start}", 100)
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
    base = kernel_base(f, 88651**2)
    alone = segment_values(f, n, n, base)
    wide = segment_values(f, n, 88651**2, base)
    assert alone.view(np.uint64).tolist() == wide[:1].view(np.uint64).tolist()


@pytest.mark.parametrize("spec", ["one", "moebius", "liouville", "odd_one", "extremal-ref",
                                  "loglog-fraction"])
def test_kernel_base_gives_each_prime_the_bits_of_a_call_on_that_prime_alone(spec):
    # one powers call per j on all the base primes that have p^j <= limit
    if spec == "loglog-fraction":
        f = extremal.extremal_function(extremal.build_spec("loglog-fraction:0.3", 20.0, 2))
    else:
        f = builtin(spec)
    bits = {}  # (p, j) -> (dtype, bytes) of f(p^j) from a call on p alone
    for limit in (2**34, 10**8):
        rows = kernel_base(f, limit).rows
        assert [p for p, _, _ in rows] == sieve_primes(isqrt(limit)).tolist()
        for p, fs, _ in rows:
            assert p ** len(fs) <= limit < p ** (len(fs) + 1), p
            for j, v in enumerate(fs, 1):
                if (p, j) not in bits:
                    w = np.asarray(f.powers(np.array([p]), j))[0]
                    bits[p, j] = w.dtype, w.tobytes()
                assert (v.dtype, v.tobytes()) == bits[p, j], (p, j)


@pytest.mark.parametrize("spec", [
    "one", "moebius", "liouville", "odd_one", "twist:0.7:one", "extremal-ref",
    "twist:0.7:moebius", "twist:0.7:extremal-ref"])
def test_prime_power_matches_prime_values(spec):
    # one-prime reads (base primes) equal array reads (leftover
    # primes, prime sums) bit for bit, including p = 88651, 125683, 285343
    f = parse_function_spec(spec)
    ps = PRIMES6
    one = np.array([f.prime_power(p, 1) for p in ps.tolist()])
    assert np.array_equal(one.view(np.uint64), f.prime_values(ps).view(np.uint64))


# short windows at several scales; 2^30 and 3^19 (exponents 30 and 19) lie
# inside the last two, and most starts are not multiples of the base primes
KERNEL_WINDOWS = [2, 10**7, 10**9 - 3, 2**33 - 5000, 2**30 - 20, 3**19 - 20]


@pytest.mark.parametrize("spec,tol", [
    ("one", 0.0), ("moebius", 0.0), ("liouville", 0.0), ("odd_one", 0.0),
    ("twist:0.7:moebius", 1e-12), ("extremal-ref", 1e-12), ("twist:0.7:extremal-ref", 1e-12),
    ("twist:1.3:twist:0.7:moebius", 1e-12)])
def test_segment_values_against_trial_division(spec, tol):
    f = parse_function_spec(spec)
    for lo in KERNEL_WINDOWS:
        hi = lo + 40
        vals = values(f, lo, hi)
        for n, facs in zip(range(lo, hi + 1), _window_factors(lo, hi)):
            want = 1.0 + 0.0j  # trial_value's product, each window factored once
            for p, k in facs:
                want *= f.prime_power(p, k)
            assert abs(vals[n - lo] - want) <= tol, (n, facs)


@lru_cache(maxsize=None)
def _window_factors(lo, hi):
    return [trial_factorize(n) for n in range(lo, hi + 1)]


REAL_BUILTINS = ["one", "moebius", "liouville", "odd_one"]


def _complex_copy(name):
    # the same rule returning complex128, so it runs the complex128 kernel
    # on the same real values (twist:0.0 runs its base's rung instead)
    f = builtin(name)
    return MultiplicativeFunction(name, lambda ps, k: f.powers(ps, k).astype(np.complex128))


@pytest.mark.parametrize("name", REAL_BUILTINS)
def test_real_rules_give_float_values_equal_to_zero_twist(name):
    f, ref = parse_function_spec(name), _complex_copy(name)
    for lo in KERNEL_WINDOWS:
        hi = lo + 40
        vals, want = values(f, lo, hi), values(ref, lo, hi)
        # every value of a real builtin is -1, 0 or 1: the exact int8 rung
        assert vals.dtype == np.int8 and want.dtype == np.complex128
        # equal as numbers; a zero may carry the other sign
        assert np.array_equal(vals, want.real)
        nz = vals != 0
        assert (vals[nz].astype(np.float64).view(np.uint64).tolist()
                == want.real[nz].view(np.uint64).tolist())


@pytest.mark.parametrize("segment_size,limit", [
    (1, 1000), (7, 5000), (4095, 10**5), (1 << 18, 6 * 10**5)])
def test_real_rule_traces_equal_zero_twist_bit_for_bit(segment_size, limit):
    # against the complex128-typed copy of each rule
    for name in REAL_BUILTINS:
        got = summatory_trace(builtin(name), limit, segment_size=segment_size).values
        want = summatory_trace(_complex_copy(name), limit, segment_size=segment_size).values
        assert got.real.view(np.uint64).tolist() == want.real.view(np.uint64).tolist(), name
        assert not got.imag.any()


def _complex_beyond_1000(ps):
    # float64 while every prime is below 1000, complex128 otherwise
    if ps.max() < 1000:
        return np.full(ps.shape, -1.0)
    return _always_complex(ps)


def _always_complex(ps):
    return np.where(ps < 1000, -1.0 + 0j, -np.exp(1j * ps.astype(np.float64)))


MIXED = completely_multiplicative("mixed", _complex_beyond_1000)
COMPLEX_TWIN = completely_multiplicative("twin", _always_complex)


def test_kernel_switches_to_complex_at_the_first_complex_value():
    # the first complex value arrives as a leftover prime (2..3000) or with
    # a kernel base that holds 1009 (one powers call then gives every base
    # prime a complex f(p)), with 1009^2 in range or not; below 1000 there
    # is none, and every value there is -1, 0 or 1
    assert values(MIXED, 2, 999).dtype == np.int8
    for lo, hi in [(2, 3000), (1009 * 1013 - 20, 1009 * 1013 + 20),
                   (1009**2 - 20, 1009**2 + 20)]:
        vals = values(MIXED, lo, hi)
        assert vals.dtype == np.complex128
        assert np.array_equal(vals, values(COMPLEX_TWIN, lo, hi))
        for n in range(lo, hi + 1, 7):
            assert abs(vals[n - lo] - trial_value(MIXED, n)) <= 1e-12
    # complex from f(p^2) on: the segment switches at the first base prime
    # whose square has a multiple in it
    sq = MultiplicativeFunction(
        "sq", lambda ps, k: np.full(ps.shape, -1.0 if k == 1 else (-1.0) ** k + 0j))
    assert values(sq, 2, 3).dtype == np.int8
    vals = values(sq, 1009**2 - 20, 1009**2 + 20)
    assert vals.dtype == np.complex128
    assert np.array_equal(vals, values(builtin("liouville"), 1009**2 - 20, 1009**2 + 20))


@pytest.mark.parametrize("segment_size,limit", [(7, 3000), (4095, 20000), (1 << 18, 20000)])
def test_summatory_trace_never_drops_an_imaginary_part(segment_size, limit):
    # segments below 1000 run in int8; the buffer must turn complex128
    # at the first leftover prime above 1000 and stay so
    got = summatory_trace(MIXED, limit, segment_size=segment_size).values
    want = summatory_trace(COMPLEX_TWIN, limit, segment_size=segment_size).values
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert np.abs(got.imag).max() > 1.0


# exact (-1)^k below 1000 and 0.5 beyond; f(3) = 0 but f(9) = 1, so int8
# cannot step from f(3) to f(9) and widens inside one prime.  A real value
# outside {-1, 0, 1} takes the complex128 rung: there is no float64 one.
HALF_BEYOND_1000 = MultiplicativeFunction(
    "half", lambda ps, k: np.where(ps < 1000, (-1.0) ** k, 0.5))
ZERO_THEN_ONE = MultiplicativeFunction(
    "zero-then-one", lambda ps, k: np.where(ps == 3, float(k % 2 == 0), -1.0 if k == 1 else 0.0))


@pytest.mark.parametrize("f,int8_windows,float_windows", [
    # 0.5 arrives as a leftover prime, a scalar base prime or a gathered table
    (HALF_BEYOND_1000, [(2, 999)],
     [(2, 3000), (1009 * 1013 - 20, 1009 * 1013 + 20), (1009**2 - 20, 1009**2 + 20)]),
    (ZERO_THEN_ONE, [(10, 12), (3**5 + 1, 3**5 + 8)], [(1, 3000), (3**10 - 20, 3**10 + 20)]),
])
def test_int8_rung_widens_to_float64_at_a_step_it_cannot_take(f, int8_windows, float_windows):
    for windows, dtype in ((int8_windows, np.int8), (float_windows, np.complex128)):
        for lo, hi in windows:
            vals = values(f, lo, hi)
            assert vals.dtype == dtype, (lo, hi)
            for n in range(lo, hi + 1):
                assert vals[n - lo] == trial_value(f, n), n  # products of 0.5 and 1 are exact


@pytest.mark.parametrize("segment_size,limit", [
    (1, 1000), (7, 5000), (4095, 10**5), (1 << 18, 6 * 10**5)])
def test_stream_summer_sums_int8_segments_with_the_bits_of_complex128(segment_size, limit):
    vals = values(builtin("liouville"), 1, limit)
    assert vals.dtype == np.int8
    cps = resolve_checkpoints("geometric:1.2:2", limit)
    exact, wide = StreamSummer(cps), StreamSummer(cps)
    for lo in range(0, limit, segment_size):
        exact.feed(vals[lo : lo + segment_size], lo + 1)
        wide.feed(vals[lo : lo + segment_size].astype(np.complex128), lo + 1)
    got, want = (np.array([*s.checkpoint_values, s.close()]) for s in (exact, wide))
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


SEGMENT_SIZES = (1, 7, 4095, 1 << 18)


def _checkpoint_ims(spec, limit, x):
    f = parse_function_spec(spec)
    traces = [summatory_trace(f, limit, grid=f"explicit:{x}", segment_size=size)
              for size in SEGMENT_SIZES]
    return {tr.values[tr.xs.tolist().index(x)].imag for tr in traces}


@pytest.mark.parametrize("spec,limit,x", [
    # a twist of a real rule runs its base's exact rung times one unit per n
    *(pytest.param(f"twist:0.7:{name}", 5000, 4095, id=name) for name in REAL_BUILTINS),
    # a complex rule forms its products out of place: numpy rounds an in-place
    # complex product of one element otherwise, as at segment size 1
    pytest.param("extremal-ref", 30000, 20000, id="extremal-ref"),
    pytest.param("twist:0.7:extremal-ref", 30000, 20000, id="twist-extremal-ref"),
])
def test_complex_checkpoints_do_not_depend_on_segment_size(spec, limit, x):
    ims = _checkpoint_ims(spec, limit, x)
    assert len(ims) == 1, sorted(ims)


@pytest.mark.parametrize("spec,entry_bytes", [
    # per n of a 2^18 segment: the values (int8 or complex128), the float64
    # product and a twist's complex128 output
    ("moebius", 1 + 8), ("twist:7.5:moebius", 1 + 8 + 16), ("extremal-ref", 16 + 8)])
def test_segment_kernel_allocates_no_temporary_of_segment_length(spec, entry_bytes, monkeypatch):
    # what the segment workers run over every stripe, here in process (one CPU)
    _with_cpus(monkeypatch, 1)
    f, limit = parse_function_spec(spec), 2 * 10**6
    base, cps = kernel_base(f, limit), resolve_checkpoints(None, limit)
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        checkpoint_sums(base, cps, 1 << 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry_bytes * (1 << 18) <= 1.5 * 2**20, peak


@pytest.mark.parametrize("spec", ["moebius", "twist:7.5:moebius", "extremal-ref"])
def test_summing_process_holds_no_segment_length_buffer(spec, monkeypatch):
    # the workers hold the segments; this process adds their block sums
    _with_cpus(monkeypatch, 2)
    f = parse_function_spec(spec)
    summatory_trace(f, 10**4)
    tracemalloc.start()
    try:
        summatory_trace(f, 2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18, peak  # the smallest segment buffer: one int8 per n


def _with_cpus(monkeypatch, count):
    """Make summatory_trace see ``count`` CPUs, so it starts that many workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


WORKER_RULES = {name: builtin(name) for name in ("moebius", "liouville", "extremal-ref")}
WORKER_RULES["twist:0.7:extremal-ref"] = parse_function_spec("twist:0.7:extremal-ref")
WORKER_RULES["half"] = HALF_BEYOND_1000


@pytest.mark.parametrize("segment_size", SEGMENT_SIZES)
@pytest.mark.parametrize("name", WORKER_RULES)
def test_checkpoints_have_the_same_bits_at_any_number_of_workers(name, segment_size, monkeypatch):
    f = WORKER_RULES[name]
    width = stripes(1 << 20, segment_size)[0][1]  # positions per stripe
    # stripe edges +-1 and multiples of 4096; the last limit gives 3 stripes
    edges = [1, 2, *(k * e + d for k in (1, 2) for e in (4096, width) for d in (-1, 0, 1))]
    grid = "explicit:" + ",".join(map(str, edges))
    for limit in (1, 4095, 4097, 2 * width + 5):
        traces = []
        for count in (1, 2):
            _with_cpus(monkeypatch, count)
            traces.append(summatory_trace(f, limit, grid, segment_size))
        one, two = traces
        assert one.xs.tolist() == two.xs.tolist()
        assert one.values.view(np.uint64).tolist() == two.values.view(np.uint64).tolist(), limit


@pytest.mark.parametrize("cpus,limit,count", [  # one worker is this process: no fork
    (1, 2 * 10**6, 0), (2, 2 * 10**6, 2), (8, 2 * 10**6, 4), (8, 4096, 0), (8, 3 * 4096, 3)])
def test_no_more_workers_than_stripes_cpus_or_the_cap(cpus, limit, count, monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    _with_cpus(monkeypatch, cpus)
    monkeypatch.setattr(os, "fork", counting_fork)
    got = summatory_trace(builtin("moebius"), limit, segment_size=4096).values
    assert len(forks) == count
    _with_cpus(monkeypatch, 1)  # more workers than this host's CPUs give the same bits
    want = summatory_trace(builtin("moebius"), limit, segment_size=4096).values
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def _fails_beyond(p0, fail):
    """moebius, except that ``fail`` runs when f(p) is asked of a prime
    above p0: in this process's stripes only if p0 < sqrt(limit)."""
    def powers(ps, k):
        if (ps > p0).any():
            fail()
        return np.full(ps.shape, -1.0 if k == 1 else 0.0)

    return MultiplicativeFunction("fails", powers)


def _refuse():
    raise FunctionSpecError("no value beyond 300000")


def _die():
    os._exit(7)


def _hang():
    time.sleep(60)


@pytest.mark.parametrize("count", [1, 2])
def test_a_worker_error_is_raised_here_with_its_class_and_message(count, monkeypatch):
    # primes above 300000 are leftover primes of the second stripe on
    _with_cpus(monkeypatch, count)
    with pytest.raises(FunctionSpecError, match="^no value beyond 300000$"):
        summatory_trace(_fails_beyond(300_000, _refuse), 10**6)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_dies_is_a_capacity_error(monkeypatch):
    _with_cpus(monkeypatch, 2)
    with pytest.raises(CapacityError, match="segment worker ended"):
        summatory_trace(_fails_beyond(300_000, _die), 10**6)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_failure_that_is_no_library_error_is_a_capacity_error(monkeypatch):
    _with_cpus(monkeypatch, 2)
    with pytest.raises(CapacityError, match="segment worker failed: ZeroDivisionError"):
        summatory_trace(_fails_beyond(300_000, lambda: 1 / 0), 10**6)


def test_an_interrupt_kills_and_reaps_every_worker(monkeypatch):
    # the first stripe arrives, then this process is interrupted while the
    # other worker hangs in its first stripe
    receive = workers._receive
    calls = []

    def interrupted(pipe):
        calls.append(1)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return receive(pipe)

    _with_cpus(monkeypatch, 2)
    monkeypatch.setattr(workers, "_receive", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        summatory_trace(_fails_beyond(300_000, _hang), 10**6)
    assert time.monotonic() - start < 30  # killed, not waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@lru_cache(maxsize=None)
def _mertens():
    return Mertens(10**7)


@pytest.mark.parametrize("name,limit,segment_size", [
    ("moebius", 10**7, 1 << 18), ("liouville", 10**7, 100_003),
    ("moebius", 10**6, 100_003), ("liouville", 10**6, 1 << 18)])
def test_mertens_and_liouville_sums_against_sublinear_oracle(name, limit, segment_size):
    # every checkpoint of a geometric grid, exactly; the oracle shares no
    # code with mflab
    trace = summatory_trace(builtin(name), limit, grid="geometric:1.2:2",
                            segment_size=segment_size)
    M = _mertens()
    oracle = M if name == "moebius" else M.liouville
    assert trace.values.tolist() == [oracle(int(x)) for x in trace.xs]


def test_sublinear_oracle_examples():
    M = _mertens()
    # M(10^k), k = 1..7, and L(10^k), k = 1..6 (OEIS A084237, A090410)
    assert [M(10**k) for k in range(1, 8)] == [-1, 1, 2, -23, -48, 212, 1037]
    assert [M.liouville(10**k) for k in range(1, 7)] == [0, -2, -14, -94, -288, -530]


@pytest.mark.slow
def test_sublinear_oracle_mertens_1e10():
    # M(10^10) = -33722 (OEIS A084237); about 10 s
    assert Mertens(10**10)(10**10) == -33722


@pytest.mark.slow
def test_mertens_published_values_to_1e9():
    # M(10^6..10^9) = 212, 1037, 1928, -222 (Deléglise & Rivat, Experimental
    # Math. 5, 1996; OEIS A084237); about 35 s on 2 CPUs
    trace = summatory_trace(builtin("moebius"), 10**9, grid="explicit:1000000,10000000,100000000")
    assert trace.values.tolist() == [212, 1037, 1928, -222]


def test_unit_power_has_the_bits_of_the_complex_exp():
    # the unit is built from cos and sin of the phase; every prime sum, the
    # twist rule and the extremal f(p) rely on it matching np.exp bit for bit
    lp = np.log(PRIMES6.astype(np.float64))
    for t in (0.7, -3.3, 14.13, 1188.582, 1e4, 1e8):
        want = np.exp(-1j * t * lp)
        assert np.array_equal(unit_power(lp, t).view(np.uint64), want.view(np.uint64)), t
    th = np.linspace(0.0, 3.0, 10**5)
    assert np.array_equal(unit_power(th, -1.0).view(np.uint64), np.exp(1j * th).view(np.uint64))
