"""Prime streams, prime tables and ordered prime sums.

Every prime sum downstream (Euler products, Halász sums, the extremal
checks) reads ``prime_chunks``: the primes up to a cutoff, one ascending
array per sieve segment, so a consumer holds O(segment) memory rather
than O(pi(P)).  ``ordered_sum`` and ``ordered_partials`` continue their
running sums from chunk to chunk, so a streamed sum has the bits of one
cumsum over all primes.  A ``PrimeTable`` (random access) remains for the
base primes of the segment kernels and for small windows.  Tables are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt, log
from typing import Iterator

import numpy as np

from .errors import CapacityError, CoverageError, EmptyRangeError

# Meissel-Mertens constant, external reference value.
MERTENS_CONSTANT = 0.2614972128476428

# Ceiling; sieve_primes takes another as an argument, prime_chunks always
# checks this one.  The prime sieve is segmented and every prime sum
# streams it, so their memory stays O(sqrt(limit) + segment) and the
# ceiling bounds run time, not memory; only sieve_primes, which returns a
# table, would hold ~1.6 GB at the ceiling.
PRIME_LIMIT_CEILING = 2**32
_SUM_CHUNK = 1 << 16  # values per cumsum in ordered_sum


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, ascending."""

    limit: int
    primes: np.ndarray = field(repr=False)

    def primes_le(self, x: float) -> np.ndarray:
        """Primes p <= x as a view into the table."""
        if x > self.limit:
            raise CoverageError(f"table covers primes <= {self.limit}, asked for {x}")
        return self.primes[: int(np.searchsorted(self.primes, x, side="right"))]


def sieve_primes(limit: int, ceiling: int = PRIME_LIMIT_CEILING) -> PrimeTable:
    """All primes <= ``limit`` as one table: the chunks of ``prime_chunks``
    concatenated.  For consumers that need random access; a prime sum
    should stream the chunks instead."""
    return PrimeTable(limit=limit, primes=_sieve(check_limit(limit, ceiling)))


def prime_chunks(limit: int) -> Iterator[np.ndarray]:
    """The primes <= ``limit``, ascending, as int64 arrays, one per sieve
    segment.  The limit is checked against PRIME_LIMIT_CEILING here, before
    any sieving.

    Segmented sieve of Eratosthenes: a segment spans sqrt(limit) numbers
    clamped to [2^20, 2^22], with one flag byte per odd number: 0.5-2 MB,
    cache-sized as in Oliveira e Silva, Herzog & Pardi (Math. Comp. 83,
    2014).  The floor amortizes the Python loop over base primes that every
    segment runs.  Peak memory is O(sqrt(limit) + segment).

    2 leads the first chunk, and a remainder shorter than half a segment
    joins the last one, so every chunk holds 16384 primes or more unless
    the whole stream is one chunk.  Consumers rely on this: numpy forms a
    complex product ``a * b`` of arrays of 256 KiB and more in a temporary's
    buffer with the operands swapped, which can change its last bit, so a
    streamed sum matches a whole-range one only if each chunk falls on the
    same side of that size as the whole range.
    """
    return _segments(check_limit(limit))


def check_limit(limit: int, ceiling: int = PRIME_LIMIT_CEILING) -> int:
    """``limit``, if a sieve may run to it: EmptyRangeError below 2 and
    CapacityError above ``ceiling``.  prime_chunks and sieve_primes call
    this first; a caller with other arguments to check calls it before
    them, so that every refusal comes before any sieving."""
    if limit < 2:
        raise EmptyRangeError(f"sieve limit must be >= 2, got {limit}")
    if limit > ceiling:
        raise CapacityError(f"sieve limit {limit} exceeds ceiling {ceiling}")
    return limit


def _sieve(limit: int) -> np.ndarray:
    return np.concatenate(list(_segments(limit)))


def _segments(limit: int) -> Iterator[np.ndarray]:
    """The chunks of ``prime_chunks``; the odd base primes <= sqrt(limit)
    come from ``_sieve``, and segments track odd numbers only."""
    root = isqrt(limit)
    odd_base = _sieve(root)[1:].tolist() if root >= 3 else []
    seg = min(max(root, 1 << 20), 1 << 22)
    if limit == 2:
        yield np.array([2], dtype=np.int64)
    lo = 3
    while lo <= limit:
        hi = limit if limit - lo < seg + seg // 2 else lo + seg - 1
        first_odd = lo | 1
        flags = np.ones((hi - first_odd) // 2 + 1, dtype=bool)
        for p in odd_base:
            start = max(p * p, ((first_odd + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            flags[(start - first_odd) // 2 :: p] = False  # empty once start > hi
        primes = first_odd + 2 * np.flatnonzero(flags)
        yield np.concatenate(([2], primes)) if lo == 3 else primes
        lo = hi + 1


def ordered_sum(x: np.ndarray, start=None):
    """The sum of ``x`` accumulated in ascending index order, continued from
    the running total ``start``; 0 when both are empty.

    cumsum keeps the accumulation strictly sequential (np.sum is pairwise),
    so results are reproducible bit-for-bit regardless of thread count.
    Each chunk's cumsum starts from the running total: the bits of
    np.cumsum(x)[-1] without a second array the size of ``x``, and
    ``ordered_sum(b, ordered_sum(a))`` has the bits of one sum over a then b.
    """
    total = start
    for i in range(0, x.size, _SUM_CHUNK):
        chunk = x[i : i + _SUM_CHUNK]
        total = np.cumsum(chunk if total is None else np.concatenate(([total], chunk)))[-1]
    return 0.0 if total is None else total


def ordered_partials(ps: np.ndarray, terms: np.ndarray, cuts, out: np.ndarray, start=None):
    """One chunk of a streamed partial-sum series: the running sum of
    ``terms`` (one per prime of the ascending chunk ``ps``), continued from
    ``start``, is written to out[i] for each cut with a prime of this chunk
    <= cuts[i]; returns the new running total.

    Fed every chunk in order, ``out`` ends as np.cumsum over all terms
    picked at the last prime <= each cut, bit for bit (0 before the first
    prime).
    """
    partial = np.cumsum(terms if start is None else np.concatenate(([start], terms)))
    if start is not None:
        partial = partial[1:]
    idx = np.searchsorted(ps, cuts, side="right") - 1
    hit = idx >= 0
    out[hit] = partial[idx[hit]]
    return partial[-1]


def mertens_estimate(log_x: float) -> float:
    """log log x + M for x given in log form (usable far beyond any sieve)."""
    if log_x <= 1.0:
        raise CoverageError(f"Mertens estimate needs log x > 1, got {log_x}")
    return log(log_x) + MERTENS_CONSTANT
