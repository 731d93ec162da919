"""Independent oracles: trial division, bit-set sieve, direct series sums.

These deliberately avoid the library's sieve/segmentation/Euler-Maclaurin
code paths so that tests compare two genuinely different routes.
"""

from __future__ import annotations

from math import isqrt


def trial_factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs by naive trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def trial_value(f, n: int) -> complex:
    """f(n) through trial-division factorization (reads only f(p^k))."""
    if n == 1:
        return 1.0 + 0.0j
    v = 1.0 + 0.0j
    for p, k in trial_factorize(n):
        v *= f.prime_power(p, k)
    return v


def factorization_table(limit: int) -> list[list[tuple[int, int]]]:
    """Trial-division factorizations for every n <= limit (index = n)."""
    return [[]] + [trial_factorize(n) for n in range(1, limit + 1)]


def bitset_prime_count(limit: int) -> int:
    """pi(limit) by a plain boolean-list sieve (no numpy, no segmentation)."""
    if limit < 2:
        return 0
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return sum(flags)


def brute_summatory(f, x: int) -> complex:
    return sum(trial_value(f, n) for n in range(1, x + 1))


def zeta_series_oracle(s: complex, N: int = 200_000) -> tuple[complex, float]:
    """Direct summation plus the integral tail estimate.

    zeta(s) = sum_{n<=N} n^{-s} + N^{1-s}/(s-1) + R with
    |R| <= |s| N^{-sigma}/sigma (Euler-Maclaurin zeroth order).
    """
    sigma = s.real
    total = 0.0 + 0.0j
    for n in range(1, N + 1):
        total += n ** (-s)
    total += N ** (1 - s) / (s - 1)
    bound = abs(s) * N ** (-sigma) / sigma
    return total, bound


def prime_sum_power_oracle(primes, exponent: float) -> float:
    """sum over the given primes of p^exponent (plain Python loop)."""
    total = 0.0
    for p in primes:
        total += float(p) ** exponent
    return total
