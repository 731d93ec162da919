"""Independent oracles: trial division, bit-set sieve, direct series sums,
partial summation of a summatory trace.

These deliberately avoid the library's sieve/segmentation/Euler-Maclaurin
code paths so that tests compare two genuinely different routes.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from mflab.dirichlet import EvalResult, as_point
from mflab.errors import CoverageError, DomainError


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


def prime_powers(limit: int) -> list[tuple[int, int]]:
    """(p, k) for every prime power p^k <= limit, by trial division."""
    return [facs[0] for facs in map(trial_factorize, range(2, limit + 1)) if len(facs) == 1]


def class_m_violations(f, limit: int = 2000) -> list[tuple[int, int]]:
    """The (p, k) with p^k <= limit where |f(p^k)| > 1, read from f.powers."""
    return [(p, k) for p, k in prime_powers(limit)
            if abs(f.powers(np.array([p], dtype=np.int64), k)[0]) > 1.0 + 1e-12]


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


class Mertens:
    """M(x) = sum_{n<=x} mu(n) for x up to ``top``, sublinearly.

    mu is sieved up to u ~ top^(2/3) and summed into a table.  Above u,
    sum_{n<=x} M(x // n) = 1 gives M(x) = 1 - sum_{n>=2} M(x // n); the
    quotients x // n take O(sqrt x) distinct values, each M(x // n) above u
    is memoized, so M(top) costs O(top^(2/3)) (Deléglise & Rivat, Exp.
    Math. 5, 1996, give the refined version).
    """

    def __init__(self, top: int) -> None:
        u = max(16, int(round(top ** (2 / 3))))
        is_prime = np.ones(u + 1, dtype=bool)
        is_prime[:2] = False
        for p in range(2, isqrt(u) + 1):
            if is_prime[p]:
                is_prime[p * p :: p] = False
        mu = np.ones(u + 1, dtype=np.int64)
        mu[0] = 0
        for p in np.flatnonzero(is_prime).tolist():
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
        self.u = u
        self.small = np.cumsum(mu).tolist()
        self.memo: dict[int, int] = {}

    def __call__(self, x: int) -> int:
        if x <= self.u:
            return self.small[x]
        m = self.memo.get(x)
        if m is None:
            m, n = 1, 2
            while n <= x:
                q = x // n
                n_end = x // q  # last n with x // n == q
                m -= (n_end - n + 1) * self(q)
                n = n_end + 1
            self.memo[x] = m
        return m

    def liouville(self, x: int) -> int:
        """L(x) = sum_{n<=x} lambda(n) = sum_{k<=sqrt x} M(x // k^2)."""
        return sum(self(x // (k * k)) for k in range(1, isqrt(x) + 1))


def F_partial_summation(trace, s, X: float) -> EvalResult:
    """s * int_1^X S_f(y) y^{-s-1} dy from the checkpoints of a summatory
    trace: a route to F(s) that shares no code with the series, prime-sum
    and Euler-product routes, so it cross-checks them.

    Exact between consecutive-integer checkpoints; wider gaps contribute a
    reconstruction bound (|S(y) - S(a)| <= y - a), and the unseen range
    beyond X contributes |s| X^{1-sigma}/(sigma-1).
    """
    pt = as_point(s)
    sc, sigma = pt.s, pt.sigma
    if X < 1:
        raise DomainError(f"X must be >= 1, got {X}")
    tail = abs(sc) * X ** (1.0 - sigma) / (sigma - 1.0)
    if X == 1:
        return EvalResult(0.0 + 0.0j, tail, "partial-summation")
    if trace.xs.size == 0 or float(trace.xs[-1]) < X - 1:
        raise CoverageError(
            f"trace ends at {0 if trace.xs.size == 0 else int(trace.xs[-1])}, needs >= {X - 1}")
    xs = [1] + [int(v) for v in trace.xs if v > 1]
    ss = [1.0 + 0.0j] + [complex(v) for v, xv in zip(trace.values, trace.xs) if xv > 1]
    value = 0.0 + 0.0j
    recon = 0.0
    for i, (a, Sa) in enumerate(zip(xs, ss)):
        if a >= X:
            break
        b = xs[i + 1] if i + 1 < len(xs) else X
        c = min(float(b), X)
        value += Sa * (a ** (-sc) - c ** (-sc))
        if c - a > 1.0:
            # int_a^c (y-a) y^{-sigma-1} dy, closed form
            e = (a ** (1 - sigma) - c ** (1 - sigma)) / (sigma - 1.0) - a * (
                a ** (-sigma) - c ** (-sigma)) / sigma
            recon += abs(sc) * e
    return EvalResult(value, recon + tail, "partial-summation")
