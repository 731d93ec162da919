"""Prime streams and prime tables.

Every prime sum downstream (Euler products, Halász sums, the extremal
checks) reads ``prime_chunks``: the primes up to a cutoff, ascending, in
chunks of at most 2^13 primes, so a consumer holds O(chunk) memory rather
than O(pi(P)).  The sums themselves run through ``multfun.StreamSummer``,
whose blocks count positions from the first term, so a streamed sum has
the same bits at any chunking.  ``sieve_primes`` (random access) remains
for the base primes of the segment kernel.
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
    return _sieve(check_limit(limit))


def prime_chunks(limit: int) -> Iterator[np.ndarray]:
    """The primes <= ``limit``, ascending, as int64 arrays of at most 2^13
    primes (64 KiB), each within one sieve segment.  The limit is checked
    against PRIME_LIMIT_CEILING here, before any sieving.

    Segmented sieve of Eratosthenes: a segment spans 2^20 >= sqrt(limit)
    numbers, one flag byte per odd number: 0.5 MB, cache-sized as in
    Oliveira e Silva, Herzog & Pardi (Math. Comp. 83, 2014), and large
    enough to amortize the Python loop over base primes that every segment
    runs.  Its primes are yielded as views of one array, so a consumer's
    temporaries span one chunk.  Peak memory is O(sqrt(limit) + segment).

    2 is the first chunk, alone, and a segment without primes yields nothing.
    Chunk lengths do not reach the bits of a streamed sum: its terms are
    products of named operands in a fixed order (see dirichlet._power_terms).
    """
    return _segments(check_limit(limit))


def check_limit(limit: int) -> int:
    """``limit``, if a sieve may run to it: EmptyRangeError below 2 and
    CapacityError above PRIME_LIMIT_CEILING.  prime_chunks and
    sieve_primes call this first; a caller with other arguments to check
    calls it before them, so that every refusal comes before any sieving."""
    if limit < 2:
        raise EmptyRangeError(f"sieve limit must be >= 2, got {limit}")
    if limit > PRIME_LIMIT_CEILING:
        raise CapacityError(f"sieve limit {limit} exceeds ceiling {PRIME_LIMIT_CEILING}")
    return limit


def _sieve(limit: int) -> np.ndarray:
    return np.concatenate(list(_segments(limit)))


def _segments(limit: int) -> Iterator[np.ndarray]:
    """The chunks of ``prime_chunks``; the odd base primes <= sqrt(limit)
    come from ``_sieve``, and segments track odd numbers only."""
    root = isqrt(limit)
    base = _sieve(root)[1:] if root >= 3 else np.zeros(0, dtype=np.int64)
    offs = (base * base - 3) // 2  # each base prime's next flag index: p^2's, counted from 3
    yield np.array([2], dtype=np.int64)
    lo = 3
    while lo <= limit:  # lo stays odd: a segment spans an even count of numbers
        hi = min(limit, lo + _SEGMENT - 1)
        flags = np.ones((hi - lo) // 2 + 1, dtype=bool)
        for p, o in zip(base.tolist(), offs.tolist()):
            flags[o::p] = False  # empty once o >= flags.size
        offs -= flags.size  # the next segment's: o - L, or (o - L) mod p where that is < 0
        np.remainder(offs, base, out=offs, where=offs < 0)
        primes = np.flatnonzero(flags)
        del flags  # not alive while the consumers run
        primes *= 2
        primes += lo
        for i in range(0, primes.size, _BLOCK):
            yield primes[i : i + _BLOCK]
        lo = hi + 1


def mertens_estimate(log_x: float) -> float:
    """log log x + M for x given in log form (usable far beyond any sieve)."""
    if log_x <= 1.0:
        raise CoverageError(f"Mertens estimate needs log x > 1, got {log_x}")
    return log(log_x) + MERTENS_CONSTANT
