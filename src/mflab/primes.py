"""Prime streams and prime tables.

Every prime sum downstream (Euler products, Halász sums, the extremal
checks) reads the primes up to a cutoff, ascending, from the one stream
``prime_chunks``, in chunks of at most 2^13 primes, so a consumer holds
O(chunk) memory rather than O(pi(P)).  Chunks lie within one sieve segment
(k 2^20, (k+1) 2^20], which prime_chunks sieves alone from the base primes,
so mflab.workers deals whole segments to its workers.  The sums run through
``multfun.StreamSummer``, which is exact and order-free, so a streamed sum
has the same bits at any chunking and in any process.
``sieve_primes`` (random access), the stream concatenated, remains for
the base primes of the segment kernel.
"""

from __future__ import annotations

from math import isqrt, log
from typing import Iterator

import numpy as np

from .errors import CapacityError, CoverageError, EmptyRangeError

# Meissel-Mertens constant, external reference value.
MERTENS_CONSTANT = 0.2614972128476428

# Ceiling of every sieve, checked before any sieving.  The prime sieve is
# segmented and every prime sum streams it, so their memory stays
# O(sqrt(limit) + segment) and the ceiling bounds run time, not memory;
# only sieve_primes, which returns a table, would hold ~1.6 GB at the
# ceiling.
PRIME_LIMIT_CEILING = 2**32
# Numbers per sieve segment, and most primes per chunk of prime_chunks.
_SEGMENT = 1 << 20
_BLOCK = 1 << 13


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= ``limit``, ascending, in one int64 array: the chunks of
    ``prime_chunks`` concatenated.  For consumers that need random access;
    a prime sum should stream the chunks instead."""
    return _sieve(limit)


def check_limit(limit: int) -> int:
    """``limit``, if a sieve may run to it: EmptyRangeError below 2 and
    CapacityError above PRIME_LIMIT_CEILING.  prime_chunks, and so
    sieve_primes, calls this first; a caller with other arguments to check
    calls it before them, so that every refusal comes before any sieving."""
    if limit < 2:
        raise EmptyRangeError(f"sieve limit must be >= 2, got {limit}")
    if limit > PRIME_LIMIT_CEILING:
        raise CapacityError(f"sieve limit {limit} exceeds ceiling {PRIME_LIMIT_CEILING}")
    return limit


def _sieve(limit: int) -> np.ndarray:
    return np.concatenate(list(prime_chunks(limit)))


def base_primes(limit: int) -> np.ndarray:
    """The odd primes <= sqrt(limit): what a segment of a sieve to ``limit`` strikes with."""
    root = isqrt(limit)
    return _sieve(root)[1:] if root >= 3 else np.zeros(0, dtype=np.int64)


def prime_chunks(limit: int, lo: int = 0, base: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """The primes in (lo, limit], ascending, as int64 arrays of at most 2^13
    primes (64 KiB), each within one sieve segment: the one prime stream.
    ``lo`` is a multiple of 2^20, and ``base`` is base_primes of ``limit``
    or of a larger limit, by default sieved here.  The limit is checked
    against PRIME_LIMIT_CEILING at the first step, before any sieving.

    Segmented sieve of Eratosthenes: a segment spans the 2^20 >= sqrt(limit)
    numbers of (k 2^20, (k+1) 2^20], one flag byte per odd number: 0.5 MB,
    cache-sized as in Oliveira e Silva, Herzog & Pardi (Math. Comp. 83,
    2014), and large enough to amortize the Python loop over base primes
    that every segment runs.  Segments track odd numbers only.  Its primes
    are yielded as views of one array, so a consumer's temporaries span one
    chunk.  Peak memory is O(sqrt(limit) + segment).

    2 is the first chunk, alone, and a segment without primes yields nothing.
    Chunk lengths do not reach the bits of a streamed sum: its terms are
    products of named operands in a fixed order (see dirichlet._power_terms),
    and their sum is exact.
    """
    check_limit(limit)
    if base is None:
        base = base_primes(limit)
    if lo == 0:
        yield np.array([2], dtype=np.int64)
    for a in range(lo, limit, _SEGMENT):  # the odd numbers of (a, b], from a + 1 on
        b = min(limit, a + _SEGMENT)
        flags = np.ones((b - a + 1) // 2, dtype=bool)
        flags[0] = a > 0  # 1 is not prime
        first = np.maximum(base * base, -(-(a + 1) // base) * base)  # p's first multiple to strike
        first += base * (first % 2 == 0)  # odd
        for p, o in zip(base.tolist(), ((first - a - 1) // 2).tolist()):
            flags[o::p] = False  # empty once o >= flags.size
        primes = np.flatnonzero(flags)
        del flags  # not alive while the consumers run
        primes *= 2
        primes += a + 1
        for i in range(0, primes.size, _BLOCK):
            yield primes[i : i + _BLOCK]


def mertens_estimate(log_x: float) -> float:
    """log log x + M for x given in log form (usable far beyond any sieve)."""
    if log_x <= 1.0:
        raise CoverageError(f"Mertens estimate needs log x > 1, got {log_x}")
    return log(log_x) + MERTENS_CONSTANT
