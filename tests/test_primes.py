import math

import numpy as np
import pytest

from mflab.errors import CapacityError, CoverageError, EmptyRangeError
from mflab.primes import (
    MERTENS_CONSTANT,
    _SUM_CHUNK,
    mertens_estimate,
    ordered_partials,
    ordered_sum,
    prime_chunks,
    sieve_primes,
)

from _oracles import bitset_prime_count, trial_factorize


def test_sieve_small():
    assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]
    assert sieve_primes(2).primes.tolist() == [2]
    assert sieve_primes(30).primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sieve_million_against_bitset_oracle():
    table = sieve_primes(10**6)
    assert table.primes.size == bitset_prime_count(10**6)
    assert table.primes.size == 78498


def test_sieve_crosses_segment_boundaries():
    # segments hold 2^20 numbers from 3 on, so this limit spans three of
    # them; the primes next to each cut come from trial division
    limit = 2 * 2**20 + 2**19 + 7
    table = sieve_primes(limit)
    assert table.primes.size == bitset_prime_count(limit)
    for cut in (3 + 2**20, 3 + 2 * 2**20):
        got = table.primes[(table.primes >= cut - 300) & (table.primes < cut + 300)]
        want = [n for n in range(cut - 300, cut + 300) if trial_factorize(n) == [(n, 1)]]
        assert got.tolist() == want


@pytest.mark.parametrize("limit", [
    2, 3, 4, 9, 2**20 - 1, 2**20 + 1,
    2**20 + 3,  # one number past the first segment: 1048579, a composite
    1031**2,  # a perfect square just past the first segment
    2 * 2**20 + 2**19 + 7,  # three segments
    2 * 2**20 + 2**18,  # a remainder under half a segment joins the last one
])
def test_prime_chunks_concatenate_to_the_sieve(limit):
    chunks = list(prime_chunks(limit))
    assert all(c.size and c.dtype == np.int64 for c in chunks)
    joined = np.concatenate(chunks)
    assert np.all(np.diff(joined) > 0)
    assert np.array_equal(joined, sieve_primes(limit).primes)
    assert joined.size == bitset_prime_count(limit)
    # one chunk per 2^20 numbers from 3 on, and one for a remainder of at
    # least 2^19; a shorter remainder joins the last chunk
    assert len(chunks) == max(1, (limit - 2 - 2**19) // 2**20 + 1)
    if len(chunks) > 1:
        assert min(c.size for c in chunks) >= 16384


def test_prime_chunks_check_the_limit_before_sieving():
    with pytest.raises(CapacityError):
        prime_chunks(2**32 + 1)
    with pytest.raises(EmptyRangeError):
        prime_chunks(1)


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


def reciprocal_sum(x: int) -> float:
    """Mertens sum sum_{p<=x} 1/p, streamed over prime_chunks in ascending order."""
    total = None
    for ps in prime_chunks(x):
        total = ordered_sum(1.0 / ps, total)
    return float(total)


def test_reciprocal_sum_examples():
    assert reciprocal_sum(10) == pytest.approx(1.0 / 2 + 1.0 / 3 + 1.0 / 5 + 1.0 / 7)
    assert reciprocal_sum(2) == 0.5
    expected = math.log(math.log(10**6)) + MERTENS_CONSTANT
    assert abs(reciprocal_sum(10**6) - expected) < 0.01
    # three chunks: the streamed sum has the bits of one cumsum over the table
    limit = 3 * 2**20
    assert reciprocal_sum(limit) == np.cumsum(1.0 / sieve_primes(limit).primes)[-1]


def test_reciprocal_sum_monotone_and_mertens_window():
    xs = [100, 316, 1000, 10**4, 10**5, 10**6]
    vals = [reciprocal_sum(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for x, v in zip(xs, vals):
        assert abs(v - (math.log(math.log(x)) + MERTENS_CONSTANT)) <= 0.05


def test_reciprocal_sum_coverage_error():
    t = sieve_primes(1000)
    with pytest.raises(CoverageError):
        t.primes_le(2000)


def test_mertens_estimate_matches_sieve():
    est = mertens_estimate(math.log(10**6))
    assert abs(est - reciprocal_sum(10**6)) < 0.01


def test_ordered_sum_is_one_cumsum():
    # chunked, but bitwise the last running sum of one cumsum over the array
    rng = np.random.default_rng(7)
    for n in (1, 5, 2**16, 2**16 + 1, 3 * 2**16 + 5):
        x = rng.standard_normal(n) * np.exp(1j * rng.uniform(0, 6.3, n))
        assert ordered_sum(x) == np.cumsum(x)[-1]
        assert ordered_sum(x.real) == np.cumsum(x.real)[-1]
    assert ordered_sum(np.zeros(0)) == 0.0
    # seeded: continuing from the running total of a prefix is one cumsum
    x = rng.standard_normal(3 * _SUM_CHUNK + 5) * np.exp(1j * rng.uniform(0, 6.3, 3 * _SUM_CHUNK + 5))
    want = np.cumsum(x)[-1]
    for k in (1, 7, _SUM_CHUNK - 1, _SUM_CHUNK, _SUM_CHUNK + 1, 2 * _SUM_CHUNK + 3, x.size - 1):
        assert ordered_sum(x[k:], ordered_sum(x[:k])) == want
        assert ordered_sum(x[k:].real, ordered_sum(x[:k].real)) == want.real
    cuts = (5, _SUM_CHUNK + 9, 2 * _SUM_CHUNK)
    total = None
    for a, b in zip((0,) + cuts, cuts + (x.size,)):
        total = ordered_sum(x[a:b], total)
    assert total == want
    assert ordered_sum(np.zeros(0), want) == want


def test_ordered_partials_equal_whole_cumsum_picks():
    ps = sieve_primes(10**5).primes
    terms = np.random.default_rng(3).uniform(0.0, 1.0, ps.size) / ps
    edges = [0, 1, 500, 501, 4000, ps.size]  # chunks of 1, 499, 1, 3499 and the rest
    cuts = [
        1,                          # before every prime
        2,                          # on the first prime, alone in its chunk
        int(ps[500]),               # the only prime of a one-prime chunk
        int(ps[499]) + 1,           # between chunks: after 499's last prime, before 500's
        int(ps[2000]),              # on a prime inside a chunk
        int(ps[2000]) + 1,          # between primes inside a chunk
        int(ps[4000]) - 1,          # just before a chunk's first prime
        10**5,                      # P
    ]
    whole = np.cumsum(terms)
    idx = np.searchsorted(ps, cuts, side="right") - 1
    want = np.where(idx >= 0, whole[np.maximum(idx, 0)], 0.0)
    got = np.zeros(len(cuts))
    total = None
    for a, b in zip(edges, edges[1:]):
        total = ordered_partials(ps[a:b], terms[a:b], cuts, got, total)
    assert np.array_equal(got, want)
    assert want[0] == 0.0 and total == whole[-1]
