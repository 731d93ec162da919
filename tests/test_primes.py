import math

import numpy as np
import pytest

from mflab.errors import CapacityError, EmptyRangeError
from mflab.multfun import PRIME_BLOCK, StreamSummer
from mflab.primes import (
    MERTENS_CONSTANT,
    PRIME_LIMIT_CEILING,
    mertens_estimate,
    prime_chunks,
    sieve_primes,
)

from _oracles import bitset_prime_count, trial_factorize


def test_sieve_small():
    assert sieve_primes(10).tolist() == [2, 3, 5, 7]
    assert sieve_primes(2).tolist() == [2]
    assert sieve_primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sieve_million_against_bitset_oracle():
    ps = sieve_primes(10**6)
    assert ps.size == bitset_prime_count(10**6)
    assert ps.size == 78498


def test_sieve_crosses_segment_boundaries():
    # segments are (k 2^20, (k+1) 2^20], so this limit spans three of them;
    # the primes next to each cut come from trial division
    limit = 2 * 2**20 + 2**19 + 7
    ps = sieve_primes(limit)
    assert ps.size == bitset_prime_count(limit)
    for cut in (2**20, 2 * 2**20):
        got = ps[(ps >= cut - 300) & (ps < cut + 300)]
        want = [n for n in range(cut - 300, cut + 300) if trial_factorize(n) == [(n, 1)]]
        assert got.tolist() == want


@pytest.mark.parametrize("limit", [
    2, 3, 4, 9, 2**20 - 1, 2**20,
    2**20 + 1,  # one number past the first segment: 1048577, a composite
    2**20 + 3,
    1031**2,  # a perfect square just past the first segment
    2 * 2**20 + 2**19 + 7,  # three segments
    2 * 2**20 + 2**18,  # a short remainder is a chunk of its own
])
def test_prime_chunks_concatenate_to_the_sieve(limit):
    chunks = list(prime_chunks(limit))
    assert all(c.size and c.dtype == np.int64 for c in chunks)
    joined = np.concatenate(chunks)
    assert np.all(np.diff(joined) > 0)
    assert np.array_equal(joined, sieve_primes(limit))
    assert joined.size == bitset_prime_count(limit)
    # each chunk holds at most one block of 2^13 primes, all in one segment
    # (k 2^20, (k+1) 2^20]
    assert all(c.size <= 2**13 for c in chunks)
    assert all(np.unique((c - 1) // 2**20).size == 1 for c in chunks)


@pytest.mark.parametrize("limit", [2, 3, 100, 10**5 + 7, 10**7])
def test_prime_chunks_are_the_segments_of_a_plain_sieve_cut_in_blocks(limit):
    # the segmented sieve finds each base prime's first multiple in every
    # segment; its chunks are 2 alone, then each segment (k 2^20, (k+1) 2^20]
    # of odd primes, cut into blocks of 2^13 primes
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    ps = np.flatnonzero(flags)
    want = [ps[:1]]
    for seg in np.split(ps[1:], np.flatnonzero(np.diff((ps[1:] - 1) // 2**20)) + 1):
        want += [seg[i : i + 2**13] for i in range(0, seg.size, 2**13)]
    got = list(prime_chunks(limit))
    assert all(c.dtype == np.int64 for c in got)
    assert [c.tolist() for c in got] == [w.tolist() for w in want]


def test_prime_chunks_check_the_limit_before_sieving():
    with pytest.raises(CapacityError):
        prime_chunks(2**32 + 1)
    with pytest.raises(EmptyRangeError):
        prime_chunks(1)


def test_sieve_invariants():
    ps = sieve_primes(5000)
    assert ps[0] == 2
    assert np.all(np.diff(ps) > 0)
    for p in ps[::97]:
        p = int(p)
        assert all(p % q for q in range(2, math.isqrt(p) + 1))


def test_sieve_errors():
    with pytest.raises(EmptyRangeError):
        sieve_primes(1)
    with pytest.raises(CapacityError):
        sieve_primes(PRIME_LIMIT_CEILING + 1)  # refused before any sieving


def reciprocal_sum(x: int) -> float:
    """Mertens sum sum_{p<=x} 1/p, streamed over prime_chunks in ascending order."""
    summer = StreamSummer(width=PRIME_BLOCK)
    for ps in prime_chunks(x):
        summer.feed(1.0 / ps, ps)
    return summer.close().real


def test_reciprocal_sum_examples():
    assert reciprocal_sum(10) == pytest.approx(1.0 / 2 + 1.0 / 3 + 1.0 / 5 + 1.0 / 7)
    assert reciprocal_sum(2) == 0.5
    expected = math.log(math.log(10**6)) + MERTENS_CONSTANT
    assert abs(reciprocal_sum(10**6) - expected) < 0.01
    # three chunks: the streamed sum has the bits of one feed of the table
    limit = 3 * 2**20
    whole = StreamSummer(width=PRIME_BLOCK)
    whole.feed(1.0 / (ps := sieve_primes(limit)), ps)
    assert reciprocal_sum(limit) == whole.close().real


def test_reciprocal_sum_monotone_and_mertens_window():
    xs = [100, 316, 1000, 10**4, 10**5, 10**6]
    vals = [reciprocal_sum(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for x, v in zip(xs, vals):
        assert abs(v - (math.log(math.log(x)) + MERTENS_CONSTANT)) <= 0.05


def test_mertens_estimate_matches_sieve():
    est = mertens_estimate(math.log(10**6))
    assert abs(est - reciprocal_sum(10**6)) < 0.01


def test_partials_at_prime_cutoffs_do_not_depend_on_chunking():
    ps = sieve_primes(10**5)
    terms = np.random.default_rng(3).uniform(0.0, 1.0, ps.size) / ps
    cuts = sorted([
        1,                          # before every prime
        2,                          # on the first prime, alone in its chunk
        int(ps[500]),               # the only prime of a one-prime chunk
        int(ps[499]) + 1,           # between chunks: after 499's last prime, before 500's
        int(ps[2000]),              # on a prime inside a chunk
        int(ps[2000]) + 1,          # between primes inside a chunk
        int(ps[4000]) - 1,          # just before a chunk's first prime
        10**5,                      # P
    ])

    def partials(edges):
        summer = StreamSummer(cuts, PRIME_BLOCK)
        for a, b in zip(edges, edges[1:]):
            summer.feed(terms[a:b], ps[a:b])
        total = summer.close()
        return np.array([*summer.checkpoint_values, total]).view(np.uint64).tolist()

    want = partials([0, ps.size])
    for size in (4095, 7):
        assert partials([*range(0, ps.size, size), ps.size]) == want, size
    assert partials([0, 1, 500, 501, 4000, ps.size]) == want  # chunks of 1, 499, 1, 3499, rest
    got = np.array(want, dtype=np.uint64).view(np.complex128)
    assert got[0] == 0.0 and not got.imag.any()
    for c, v in zip(cuts, got):
        exact = math.fsum(terms[ps <= c])
        assert abs(v.real - exact) <= 2 * math.ulp(exact), c
    assert got[-1] == got[-2]  # P takes the total
