import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflab.errors import CapacityError, CoverageError, EmptyRangeError
from mflab.primes import (
    MERTENS_CONSTANT,
    mertens_estimate,
    ordered_sum,
    sieve_primes,
    spf_table,
    sum_reciprocal_primes,
)

from _oracles import bitset_prime_count, trial_factorize


def test_sieve_small():
    assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]
    assert sieve_primes(2).primes.tolist() == [2]
    assert sieve_primes(30).primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sieve_million_against_bitset_oracle():
    table = sieve_primes(10**6)
    assert table.count() == bitset_prime_count(10**6)
    assert table.count() == 78498


def test_sieve_crosses_segment_boundaries():
    # segments hold 2^20 numbers from 3 on, so this limit spans three of
    # them; the primes next to each cut come from trial division
    limit = 2 * 2**20 + 2**19 + 7
    table = sieve_primes(limit)
    assert table.count() == bitset_prime_count(limit)
    for cut in (3 + 2**20, 3 + 2 * 2**20):
        got = table.primes[(table.primes >= cut - 300) & (table.primes < cut + 300)]
        want = [n for n in range(cut - 300, cut + 300) if trial_factorize(n) == [(n, 1)]]
        assert got.tolist() == want


def test_sieve_invariants():
    t = sieve_primes(5000)
    ps = t.primes
    assert ps[0] == 2
    assert np.all(np.diff(ps) > 0)
    for p in ps[::97]:
        p = int(p)
        assert all(p % q for q in range(2, math.isqrt(p) + 1))


def test_sieve_errors():
    with pytest.raises(EmptyRangeError):
        sieve_primes(1)
    with pytest.raises(CapacityError):
        sieve_primes(10**7, ceiling=10**6)


def test_spf_small():
    t = spf_table(12)
    assert int(t.spf[12]) == 2
    assert int(t.spf[9]) == 3
    assert int(t.spf[7]) == 7
    assert spf_table(2).spf[2] == 2


def test_spf_against_trial_division():
    t = spf_table(10**5)
    rng = np.random.default_rng(7)
    for n in rng.integers(2, 10**5 + 1, size=1000):
        n = int(n)
        assert int(t.spf[n]) == trial_factorize(n)[0][0]


def test_spf_factorization_reconstructs():
    t = spf_table(10**5)
    for n in range(2, 10**5 + 1):
        m = 1
        for p, k in t.factorize(n):
            m *= p**k
        if m != n:  # loop kept cheap; assert only on failure
            assert m == n
    assert t.factorize(360) == [(2, 3), (3, 2), (5, 1)]


def test_spf_errors():
    with pytest.raises(EmptyRangeError):
        spf_table(1)
    with pytest.raises(CapacityError):
        spf_table(10**6, ceiling=10**5)
    with pytest.raises(CoverageError):
        spf_table(100).factorize(101)


_SPF_10K = spf_table(10**4)


@given(st.integers(min_value=2, max_value=10**4))
@settings(max_examples=60, deadline=None)
def test_spf_leads_trial_division(n):
    assert int(_SPF_10K.spf[n]) == trial_factorize(n)[0][0]


def test_reciprocal_sum_examples():
    t = sieve_primes(10**6)
    assert sum_reciprocal_primes(10, t) == pytest.approx(1.0 / 2 + 1.0 / 3 + 1.0 / 5 + 1.0 / 7)
    assert sum_reciprocal_primes(2, t) == 0.5
    expected = math.log(math.log(10**6)) + MERTENS_CONSTANT
    assert abs(sum_reciprocal_primes(10**6, t) - expected) < 0.01


def test_reciprocal_sum_monotone_and_mertens_window():
    t = sieve_primes(10**6)
    xs = [100, 316, 1000, 10**4, 10**5, 10**6]
    vals = [sum_reciprocal_primes(x, t) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for x, v in zip(xs, vals):
        assert abs(v - (math.log(math.log(x)) + MERTENS_CONSTANT)) <= 0.05


def test_reciprocal_sum_coverage_error():
    t = sieve_primes(1000)
    with pytest.raises(CoverageError):
        sum_reciprocal_primes(2000, t)


def test_mertens_estimate_matches_sieve():
    t = sieve_primes(10**6)
    est = mertens_estimate(math.log(10**6))
    assert abs(est - sum_reciprocal_primes(10**6, t)) < 0.01


def test_ordered_sum_is_one_cumsum():
    # chunked, but bitwise the last running sum of one cumsum over the array
    rng = np.random.default_rng(7)
    for n in (1, 5, 2**16, 2**16 + 1, 3 * 2**16 + 5):
        x = rng.standard_normal(n) * np.exp(1j * rng.uniform(0, 6.3, n))
        assert ordered_sum(x) == np.cumsum(x)[-1]
        assert ordered_sum(x.real) == np.cumsum(x.real)[-1]
    assert ordered_sum(np.zeros(0)) == 0.0
