"""Error-bounded evaluation of zeta(s), F(s) and log F(s) for sigma > 1.

Three routes to F are offered by ``mflab eval-f``, each tagged in its
EvalResult:

* ``truncated-series``  -- direct sum to N, unconditional tail bound.
* ``prime-sum``         -- sum f(p) p^{-s} plus Euler-factor defect,
                           unconditional (crude near sigma = 1).
* ``euler-product``     -- prime-zeta route usable arbitrarily close to the
                           one-line; its bound is conditional on the stated
                           alignment assumption (see F_euler).

A fourth, ``partial-summation`` (Abel integral of a summatory trace,
unconditional), is library-only: the tests use it to cross-check the
other routes.

All tail bounds are integral comparisons using |f(n)| <= 1: rigorous but
crude, so near sigma = 1 the unconditional routes report honest, large
bounds instead of refusing.

The series, prime-sum and euler-product routes take a sequence of points and
return one result per point, in order; work that does not depend on s is
done once per call.  The prime routes make one pass over ``prime_chunks``
and keep one running ordered sum per point, so their memory does not grow
with the prime cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import expm1, isqrt, log
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, CoverageError, DomainError, SingularFactorError
from .multfun import (SUMMATORY_LIMIT_CEILING, MultiplicativeFunction, StreamSummer,
                      SummatoryTrace, _value_segments)
from .primes import ordered_sum, prime_chunks, sieve_primes

# Bernoulli quotients B_2/2!, B_4/4!, B_6/6! for the Euler-Maclaurin tail.
_B2_2F = 1.0 / 12.0
_B4_4F = -1.0 / 720.0
_B6_6F = 1.0 / 30240.0

# |log(factor_p) - f(p) p^{-s}| <= 3.75 p^{-2 sigma} for p >= 3, |f| <= 1:
# |z| <= p^{-sigma}/(1-p^{-sigma}) <= 1/2, so |log(1+z)-z| <= |z|^2 <= 2.25
# p^{-2 sigma}, and the k >= 2 terms add at most 1.5 p^{-2 sigma}.
_DEFECT_COEFF = 3.75
# Local-factor series terms are summed while their tail may exceed this.
_FACTOR_TAIL_TOL = 1e-14
# zeta's head sum is taken in chunks of this many terms.  A seeded
# ordered_sum has the same bits at any split, so this only bounds the
# size of the arange/log temporaries.
_ZETA_CHUNK = 1 << 16
# Largest |t| that zeta accepts; see zeta.
ZETA_HEIGHT_CEILING = 1e8


@dataclass(frozen=True)
class ComplexPoint:
    """A point s = sigma + it strictly right of the one-line."""

    sigma: float
    t: float = 0.0

    def __post_init__(self) -> None:
        if not self.sigma > 1.0:
            raise DomainError(f"sigma must be > 1, got {self.sigma}")

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.t)


def as_point(s) -> ComplexPoint:
    if isinstance(s, ComplexPoint):
        return s
    c = complex(s)
    return ComplexPoint(c.real, c.imag)


@dataclass(frozen=True)
class EvalResult:
    """A value with a bound on |value - true value| under the method's
    stated assumptions."""

    value: complex
    error_bound: float
    method: str


@dataclass(frozen=True)
class TruncationPlan:
    """Cutoffs: N terms of the series, primes to P, exact Euler-factor
    logs below exact_factor_cutoff."""

    series_cutoff: int = 100_000
    prime_cutoff: int = 100_000
    exact_factor_cutoff: int = 10_000

    def __post_init__(self) -> None:
        if self.series_cutoff < 2 or self.prime_cutoff < 2:
            raise DomainError("cutoffs must be >= 2")
        if not 2 <= self.exact_factor_cutoff <= self.prime_cutoff:
            raise DomainError("need 2 <= exact_factor_cutoff <= prime_cutoff")


def inverse_power(log_n: np.ndarray, s: complex) -> np.ndarray:
    """n^{-s} = exp(-s log n), exponentiated in place.  Returned as a
    temporary, so numpy computes ``c * inverse_power(...)`` in its buffer."""
    z = -s * log_n
    return np.exp(z, out=z)


# ---------------------------------------------------------------------------
# zeta


def zeta(s, tol: float = 1e-10) -> EvalResult:
    """Euler-Maclaurin evaluation of zeta(s), sigma > 1.

    Direct sum to N plus N^{1-s}/(s-1), the boundary term and the Bernoulli
    corrections through B_4.  N doubles from 16 until the remainder bound
    (first omitted term times |s+5|/(sigma+5)) is below tol, but never past
    the N of the earlier rule (doubling from max(16, 2|t| + 10) to at most
    2^22).  Near sigma = 1 that takes N of 6|t| to 8|t|; at sigma = 10, as
    in most of prime_zeta's log-zeta ladder, N = 8192 does even at
    |t| = 1e8.  Once 2|t| >= 2^22 the cap binds near sigma = 1, and the bound
    there is about 1e-7 rather than tol.

    The head is summed in chunks of 2^16 terms at 84 ns a term at |t| = 1e6
    and 149 ns at 1e7 (2 CPUs, Python 3.11, numpy 2.4), so a call near
    sigma = 1 and ZETA_HEIGHT_CEILING = 1e8 takes 30 s or more; a larger |t|
    raises CapacityError before anything is allocated.
    """
    pt = as_point(s)
    sc = pt.s
    sigma = pt.sigma
    if abs(pt.t) > ZETA_HEIGHT_CEILING:
        raise CapacityError(
            f"zeta height |t| = {abs(pt.t)!r} exceeds ceiling {ZETA_HEIGHT_CEILING!r}")

    def rem_bound(n: int) -> float:
        w = sc * (sc + 1) * (sc + 2) * (sc + 3) * (sc + 4)
        t3 = abs(_B6_6F) * abs(w) * n ** (-(sigma + 5.0))
        return t3 * abs(sc + 5) / (sigma + 5.0)

    # The bound holds for every N >= 1 (Edwards, Riemann's Zeta Function,
    # 1974, section 6.4), so a small N is as safe as a large one.
    cap = max(16, int(2 * abs(pt.t)) + 10)
    while rem_bound(cap) > tol and cap < (1 << 22):
        cap *= 2
    N = 16
    while rem_bound(N) > tol and N < cap:
        N *= 2
    N = min(N, cap)
    head = None
    for lo in range(1, N, _ZETA_CHUNK):
        ns = np.arange(lo, min(lo + _ZETA_CHUNK, N), dtype=np.float64)
        head = ordered_sum(inverse_power(np.log(ns), sc), head)
    head = complex(head)
    lnN = log(N)
    value = (
        head
        + np.exp((1 - sc) * lnN) / (sc - 1)
        + 0.5 * np.exp(-sc * lnN)
        + _B2_2F * sc * np.exp((-sc - 1) * lnN)
        + _B4_4F * sc * (sc + 1) * (sc + 2) * np.exp((-sc - 3) * lnN)
    )
    bound = rem_bound(N) + 1e-15 * (1.0 + abs(value)) * log(N)
    return EvalResult(value, bound, "euler-maclaurin")


def log_zeta(s, tol: float = 1e-10) -> EvalResult:
    """Principal log of the zeta value, with propagated bound."""
    z = zeta(s, tol)
    az = abs(z.value)
    if az <= z.error_bound:
        raise SingularFactorError("zeta value indistinguishable from 0")
    err = z.error_bound / (az - z.error_bound)
    return EvalResult(np.log(z.value), err, z.method)


def _mu_small(k: int) -> int:
    if k == 1:
        return 1
    mu, d = 1, 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if k > 1 else mu


def log_zeta_minus_prime_zeta(w, tol: float = 1e-12) -> EvalResult:
    """log zeta(w) - P(w) = -sum_{k>=2} mu(k)/k log zeta(kw).

    The k = 1 terms cancel, so the result is branch-free and stays O(1)
    as Re w -> 1; this is the accurate route to prime sums near the pole.
    """
    pt = as_point(w)
    sigma = pt.sigma
    K = 2
    while 2.0 ** (-(K + 1) * sigma) * 12.0 > tol and K < 64:
        K += 1
    total = 0.0 + 0.0j
    err = 0.0
    for k in range(2, K + 1):
        mu = _mu_small(k)
        if mu == 0:
            continue
        lz = log_zeta(ComplexPoint(k * pt.sigma, k * pt.t), tol=1e-14)
        total -= (mu / k) * lz.value
        err += lz.error_bound / k
    err += 12.0 * 2.0 ** (-(K + 1) * sigma)
    return EvalResult(total, err, "euler-maclaurin")


def prime_zeta(w, tol: float = 1e-12) -> EvalResult:
    """P(w) = sum_p p^{-w} via the Moebius/log-zeta identity.

    Uses the principal log of zeta(w); accurate even for sigma - 1 ~ 1e-9
    where direct prime summation is hopeless.
    """
    tail = log_zeta_minus_prime_zeta(w, tol)
    lz = log_zeta(w)
    return EvalResult(lz.value - tail.value, lz.error_bound + tail.error_bound,
                      "euler-maclaurin")


# ---------------------------------------------------------------------------
# F(s) routes


def F_truncated(
    f: MultiplicativeFunction,
    points: Sequence,
    plan: TruncationPlan,
) -> list[EvalResult]:
    """sum_{n<=N} f(n) n^{-s} at each point, with the integral-comparison
    tail bound N^{1-sigma}/(sigma-1).  f(n) and log n are computed once per
    segment of 2^18 numbers; each point has its own order-deterministic summer.
    The series streams the segment kernel of summatory_trace, so N has the
    same ceiling, checked before any sieving."""
    pts = [as_point(s) for s in points]
    N = plan.series_cutoff
    if N > SUMMATORY_LIMIT_CEILING:
        raise CapacityError(f"series cutoff {N} exceeds ceiling {SUMMATORY_LIMIT_CEILING}")
    base = sieve_primes(max(2, isqrt(N)))
    summers = [StreamSummer() for _ in pts]
    for lo, vals in _value_segments(f, 1, N, base, 1 << 18):
        log_n = np.log(np.arange(lo, lo + vals.size, dtype=np.float64))
        for pt, summer in zip(pts, summers):
            summer.feed(lo, vals * inverse_power(log_n, pt.s))
    return [EvalResult(summer.close(), float(N) ** (1.0 - pt.sigma) / (pt.sigma - 1.0),
                       "truncated-series") for pt, summer in zip(pts, summers)]


def F_partial_summation(trace: SummatoryTrace, s, X: float) -> EvalResult:
    """s * int_1^X S_f(y) y^{-s-1} dy from trace checkpoints.

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


def _factor_logs(
    f: MultiplicativeFunction, ps: np.ndarray, pts: Sequence[ComplexPoint],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each point: z = f(p) p^{-s} and log(factor_p) - z for every prime
    in ``ps``.

    factor_p = sum_k f(p^k) p^{-ks}.  A completely multiplicative f has the
    closed form 1/(1 - z); otherwise term k is summed while p^{-k sigma}
    / (1 - p^{-sigma}) > 1e-14.  Raises SingularFactorError where a factor
    vanishes.  log p and f(p) are computed once for all points.
    """
    psf = ps.astype(np.float64)
    lp = np.log(psf)
    fp = f.prime_values(ps)
    for pt in pts:
        x = inverse_power(lp, pt.s)
        z = fp * x
        if f.completely_multiplicative:
            w = 1.0 - z  # 1 / factor_p
        else:
            w = 1.0 + z
            xk = x
            n, k = ps.size, 2
            while True:
                # primes ascend, so the primes that still need term k are a prefix
                n = int(np.count_nonzero(
                    psf[:n] ** (-k * pt.sigma) / (1.0 - psf[:n] ** (-pt.sigma)) > _FACTOR_TAIL_TOL))
                if n == 0:
                    break
                xk = xk[:n] * x[:n]
                w[:n] += f.powers(ps[:n], k) * xk
                k += 1
        bad = np.abs(w) < 1e-12
        if bad.any():
            raise SingularFactorError(f"Euler factor at p={int(ps[np.argmax(bad)])} vanishes")
        if not f.completely_multiplicative:
            yield z, np.log(w) - z
            continue
        # -log(1 - z) - z cancels for small z: use its Taylor series there.
        # Each product has two named operands, so numpy never swaps them
        # (see prime_chunks) and a term's bits do not depend on len(ps).
        small = np.abs(z) < 1e-3
        u = 0.25 + z * 0.2
        u = 1.0 / 3.0 + z * u
        u = 0.5 + z * u
        zz = z * z
        series = zz * u
        yield z, np.where(small, series, -np.log(w) - z)


def euler_factor_log(f: MultiplicativeFunction, p: int, s) -> complex:
    """Principal log of the local Euler factor sum_k f(p^k) p^{-ks}.

    For p >= 3 in class M the inner sum has modulus <= 1/2, so the factor
    stays in the right half-plane and the principal branch is safe.
    """
    ((z, defect),) = _factor_logs(f, np.array([p], dtype=np.int64), [as_point(s)])
    return complex(z[0] + defect[0])


def _add_defects(
    f: MultiplicativeFunction, ps: np.ndarray, pts: Sequence[ComplexPoint], cutoff: int,
    totals: list,
) -> list:
    """Each point's running sum of log factor_p - f(p) p^{-s}, continued
    over the primes of the chunk ``ps`` that are <= cutoff.  The cut can
    leave a short slice; _factor_logs gives each prime the same bits at
    any array length, so the sum does not depend on where segments fall."""
    head = ps[: int(np.searchsorted(ps, cutoff, side="right"))]
    if not head.size:
        return totals
    return [ordered_sum(defect, total)
            for total, (_, defect) in zip(totals, _factor_logs(f, head, pts))]


def _defect_tail(pt: ComplexPoint, cutoff: int) -> float:
    """Bound on the defect terms of the primes above cutoff."""
    return _DEFECT_COEFF * float(cutoff) ** (1.0 - 2.0 * pt.sigma) / (2.0 * pt.sigma - 1.0)


def alignment_terms(
    f: MultiplicativeFunction, ps: np.ndarray, epsilon0: int, t0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """log p and g(p) = 1 + e0 f(p) p^{-it0} for every prime in ``ps``: the
    part of f(p) that the direction (e0, t0) does not cancel against log zeta.
    F_euler and the lemma defect sum g(p) p^{-w}; the Halász sums Re g(p)/p."""
    lp = np.log(ps.astype(np.float64))
    if t0 == 0.0:
        # p^{-i 0} is 1 - 0i: multiplying by it changes at most the sign of a
        # zero, which adding 1.0 then clears, so g has the same bits without it
        return lp, 1.0 + epsilon0 * f.prime_values(ps)
    return lp, 1.0 + epsilon0 * f.prime_values(ps) * np.exp(-1j * t0 * lp)


@dataclass(frozen=True)
class PrimeSumResult:
    """Truncated prime sum of f(p) p^{-s} with its Euler-factor defect.

    log F(s) = value + defect + remainder, |remainder| <= error_bound.
    """

    value: complex
    defect: complex
    prime_tail_bound: float
    defect_tail_bound: float
    method: str = "prime-sum"

    @property
    def error_bound(self) -> float:
        return self.prime_tail_bound + self.defect_tail_bound

    @property
    def log_F(self) -> complex:
        return self.value + self.defect


def log_F_prime_sum(
    f: MultiplicativeFunction, points: Sequence, plan: TruncationPlan,
) -> list[PrimeSumResult]:
    """sum_{p<=P} f(p) p^{-s} plus the defect sum_{p<=C} [log factor - f(p)p^{-s}]
    at each point.

    Unconditional bounds: prime tail P^{1-sigma}/(sigma-1) and defect tail
    3.75 C^{1-2 sigma}/(2 sigma - 1).  The p = 2 factor is always inside the
    exact range, so class M2 is not required (a vanishing factor at p = 2
    raises SingularFactorError).
    """
    pts = [as_point(s) for s in points]
    sums = [None] * len(pts)
    deltas = [None] * len(pts)
    for ps in prime_chunks(plan.prime_cutoff):
        sums, deltas = add_prime_sums(
            f, ps, np.log(ps.astype(np.float64)), f.prime_values(ps), pts,
            plan.exact_factor_cutoff, sums, deltas)
    return prime_sum_results(pts, sums, deltas, plan)


def add_prime_sums(
    f: MultiplicativeFunction, ps: np.ndarray, lp: np.ndarray, fp: np.ndarray,
    pts: Sequence[ComplexPoint], exact_cutoff: int, sums: list, deltas: list,
) -> tuple[list, list]:
    """One chunk of log_F_prime_sum: each point's running prime sum of
    f(p) p^{-s} and running defect, continued over the chunk ``ps``.  The
    caller passes log p and f(p) as ``lp`` and ``fp``, so a pass that uses
    them for other sums too computes them once.  The products are formed
    on the whole chunk, as prime_chunks requires."""
    deltas = _add_defects(f, ps, pts, exact_cutoff, deltas)
    return [ordered_sum(fp * inverse_power(lp, pt.s), total)
            for pt, total in zip(pts, sums)], deltas


def prime_sum_results(
    pts: Sequence[ComplexPoint], sums: list, deltas: list, plan: TruncationPlan,
) -> list[PrimeSumResult]:
    """The results of log_F_prime_sum from its running sums over all primes
    <= plan.prime_cutoff, with the tail bounds of plan's cutoffs."""
    P = float(plan.prime_cutoff)
    return [
        PrimeSumResult(complex(total), complex(delta), P ** (1.0 - pt.sigma) / (pt.sigma - 1.0),
                       _defect_tail(pt, plan.exact_factor_cutoff))
        for pt, total, delta in zip(pts, sums, deltas)]


def add_alignment_sums(
    f: MultiplicativeFunction, ps: np.ndarray, ws: Sequence[complex], epsilon0: int,
    t0: float, totals: list,
) -> list:
    """Each running sum of g(p) p^{-w}, one per w, continued over the chunk
    ``ps``.  A chunk where g vanishes at every prime (every chunk, for an
    aligned direction) is skipped: adding exact zeros leaves an ordered sum
    unchanged.  Other chunks are multiplied whole, not just at g != 0: a
    shorter array can fall below the size at which numpy swaps the
    operands of the complex product (see prime_chunks)."""
    lp, g = alignment_terms(f, ps, epsilon0, t0)
    if not g.any():
        return totals
    return [ordered_sum(g * inverse_power(lp, w), total) for w, total in zip(ws, totals)]


def F_euler(
    f: MultiplicativeFunction,
    points: Sequence,
    plan: TruncationPlan,
    epsilon0: int = 1,
    t0: float = 0.0,
) -> list[EvalResult]:
    """F(s) at each point through the Euler product, written around the
    direction (e0, t0):

        log F = e0 [ sum_{p<=P} g(p) p^{-w} - P(w) ] + defect,
        g(p) = 1 + e0 f(p) p^{-it0},  w = s - i t0,

    with P(w) from the Moebius/log-zeta identity.  This stays accurate for
    sigma arbitrarily close to 1.

    Stated assumption for the error bound: the alignment residual g(p)
    vanishes for p > P (true for the aligned corpus: moebius/liouville/one
    at t0 = 0 and the extremal construction).  The residual's observed
    partial sums diagnose how credible that is.
    """
    if epsilon0 not in (-1, 1):
        raise DomainError("epsilon0 must be +1 or -1")
    if not f.claims_M:
        raise DomainError("F_euler requires a class-M function")
    pts = [as_point(s) for s in points]
    chunks = prime_chunks(plan.prime_cutoff)  # checks the cutoff before the zeta work
    ws = [pt.s - 1j * t0 for pt in pts]
    pzs = [prime_zeta(ComplexPoint(w.real, w.imag)) for w in ws]
    residuals = [None] * len(pts)
    deltas = [None] * len(pts)
    for ps in chunks:
        deltas = _add_defects(f, ps, pts, plan.exact_factor_cutoff, deltas)
        residuals = add_alignment_sums(f, ps, ws, epsilon0, t0, residuals)
    out = []
    for pt, pz, residual, delta in zip(pts, pzs, residuals, deltas):
        residual = 0j if residual is None else complex(residual)
        log_F = epsilon0 * (residual - pz.value) + complex(delta)
        value = np.exp(log_F)
        dtail = _defect_tail(pt, plan.exact_factor_cutoff)
        bound = abs(value) * expm1(min(pz.error_bound + dtail, 500.0))
        out.append(EvalResult(complex(value), bound, "euler-product"))
    return out


# ---------------------------------------------------------------------------
# probes


def zeta_floor_probe(sigmas, ts) -> float:
    """min over the grid of |zeta(sigma+it)| * log(|t|+2).

    Finite-range probe of the classical lower bound for 1/zeta on and near
    the one-line.
    """
    best = float("inf")
    for sg in sigmas:
        for t in ts:
            z = zeta(ComplexPoint(float(sg), float(t)))
            best = min(best, abs(z.value) * log(abs(t) + 2.0))
    return best
