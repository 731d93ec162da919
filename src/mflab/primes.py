"""Prime tables and prime-reciprocal sums.

Everything downstream (summatory traces, Euler products, Halász sums)
consumes the two sieve products built here: a plain prime list and a
smallest-prime-factor table.  Tables are immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt, log

import numpy as np

from .errors import CapacityError, CoverageError, EmptyRangeError

# Meissel-Mertens constant, external reference value.
MERTENS_CONSTANT = 0.2614972128476428

# Default ceilings; callers may raise them explicitly.  The prime sieve is
# segmented so memory stays O(sqrt(limit) + segment); the SPF table is a
# dense 4-byte array, hence the tighter cap.
PRIME_LIMIT_CEILING = 2**32
SPF_LIMIT_CEILING = 2**27


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, ascending."""

    limit: int
    primes: np.ndarray = field(repr=False)

    def count(self) -> int:
        return int(self.primes.size)

    def primes_le(self, x: float) -> np.ndarray:
        """Primes p <= x as a view into the table."""
        if x > self.limit:
            raise CoverageError(f"table covers primes <= {self.limit}, asked for {x}")
        return self.primes[: int(np.searchsorted(self.primes, x, side="right"))]


@dataclass(frozen=True)
class SpfTable:
    """Smallest prime factor of every 2 <= n <= limit (spf[0], spf[1] unused)."""

    limit: int
    spf: np.ndarray = field(repr=False)

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Full factorization of n as (prime, exponent) pairs, ascending."""
        if n < 1 or n > self.limit:
            raise CoverageError(f"spf table covers 2..{self.limit}, asked for {n}")
        out: list[tuple[int, int]] = []
        while n > 1:
            p = int(self.spf[n])
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        return out


def sieve_primes(limit: int, ceiling: int = PRIME_LIMIT_CEILING) -> PrimeTable:
    """Segmented sieve of Eratosthenes up to ``limit`` inclusive.

    A segment spans sqrt(limit) numbers clamped to [2^20, 2^22], with one
    flag byte per odd number: 0.5-2 MB, cache-sized as in Oliveira e Silva,
    Herzog & Pardi (Math. Comp. 83, 2014).  The floor amortizes the Python
    loop over base primes that every segment runs.  Peak memory is
    O(sqrt(limit) + segment) beyond the output itself.
    """
    if limit < 2:
        raise EmptyRangeError(f"sieve limit must be >= 2, got {limit}")
    if limit > ceiling:
        raise CapacityError(f"sieve limit {limit} exceeds ceiling {ceiling}")
    return PrimeTable(limit=limit, primes=_sieve(limit))


def _sieve(limit: int) -> np.ndarray:
    """Primes <= limit; the odd base primes <= sqrt(limit) come from the
    same routine, segments track odd numbers only."""
    root = isqrt(limit)
    odd_base = _sieve(root)[1:].tolist() if root >= 3 else []
    chunks = [np.array([2])]
    seg = min(max(root, 1 << 20), 1 << 22)
    lo = 3
    while lo <= limit:
        hi = min(lo + seg - 1, limit)
        first_odd = lo | 1
        flags = np.ones((hi - first_odd) // 2 + 1, dtype=bool)
        for p in odd_base:
            start = max(p * p, ((first_odd + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            flags[(start - first_odd) // 2 :: p] = False  # empty once start > hi
        chunks.append(first_odd + 2 * np.nonzero(flags)[0])
        lo = hi + 1
    return np.concatenate(chunks).astype(np.int64)


def spf_table(limit: int, ceiling: int = SPF_LIMIT_CEILING) -> SpfTable:
    """Smallest-prime-factor table for 2..limit (dense uint32 array)."""
    if limit < 2:
        raise EmptyRangeError(f"spf limit must be >= 2, got {limit}")
    if limit > ceiling:
        raise CapacityError(f"spf limit {limit} exceeds ceiling {ceiling}")
    spf = np.zeros(limit + 1, dtype=np.uint32)
    spf[2::2] = 2
    for p in range(3, isqrt(limit) + 1, 2):
        if spf[p] == 0:
            spf[p] = p
            sl = spf[p * p :: 2 * p]  # odd multiples only; evens already marked
            sl[sl == 0] = p
    rest = np.nonzero(spf[3::2] == 0)[0] * 2 + 3
    spf[rest] = rest
    if limit >= 1:
        spf[1] = 1
    return SpfTable(limit=limit, spf=spf)


def sum_reciprocal_primes(x: float, table: PrimeTable) -> float:
    """Mertens sum sum_{p<=x} 1/p, accumulated in ascending prime order.

    cumsum keeps the accumulation strictly sequential, so results are
    reproducible bit-for-bit regardless of chunking or thread count.
    """
    ps = table.primes_le(x)
    if ps.size == 0:
        return 0.0
    return float(np.cumsum(1.0 / ps)[-1])


def mertens_estimate(log_x: float) -> float:
    """log log x + M for x given in log form (usable far beyond any sieve)."""
    if log_x <= 1.0:
        raise CoverageError(f"Mertens estimate needs log x > 1, got {log_x}")
    return log(log_x) + MERTENS_CONSTANT
