"""Error-bounded evaluation of zeta(s), F(s) and log F(s) for sigma > 1.

Every value comes as one EvalResult: the value and the named parts of its
error bound.  Three routes to F are offered by ``mflab eval-f``, each tagged
in its EvalResult:

* ``truncated-series``  -- direct sum to N, unconditional tail bound.
* ``prime-sum``         -- log F: sum f(p) p^{-s} plus Euler-factor defect,
                           unconditional (crude near sigma = 1).
* ``euler-product``     -- prime-zeta route usable arbitrarily close to the
                           one-line; its bound is conditional on the stated
                           alignment assumption (see F_euler).

All tail bounds are integral comparisons (tail_bound) using |f(n)| <= 1:
rigorous but crude, so near sigma = 1 the unconditional routes report
honest, large bounds instead of refusing.

The series, prime-sum and euler-product routes take a sequence of points and
return one result per point, in order; work that does not depend on s is
done once per call.  The prime routes make one pass over ``prime_chunks``
and feed one ``StreamSummer`` per point and sum, so their memory does not
grow with the prime cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import expm1, isqrt, log
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, DomainError, SingularFactorError
from .multfun import (SUMMATORY_LIMIT_CEILING, MultiplicativeFunction, StreamSummer,
                      _value_segments, unit_power)
from .primes import prime_chunks, sieve_primes

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
# zeta's head sum and _power_terms work in blocks of this many terms.  A
# StreamSummer has the same bits at any split, so this only bounds the
# size of their temporaries.
_BLOCK = 1 << 14
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


@dataclass(frozen=True)
class HalaszDirection:
    """A direction (epsilon0, t0) of the one-line, as in halasz."""

    epsilon0: int
    t0: float = 0.0

    def __post_init__(self) -> None:
        if self.epsilon0 not in (-1, 1):
            raise DomainError(f"epsilon0 must be +1 or -1, got {self.epsilon0}")


def as_point(s) -> ComplexPoint:
    if isinstance(s, ComplexPoint):
        return s
    c = complex(s)
    return ComplexPoint(c.real, c.imag)


@dataclass(frozen=True)
class EvalResult:
    """A value and the named parts of a bound on |value - true value| under
    the method's stated assumptions: a midpoint-radius ball, as in Arb
    (Johansson, IEEE Trans. Comput. 66(8), 2017).  A derived result takes
    each input's error_bound as one part, so the additions keep their order."""

    value: complex
    parts: tuple[tuple[str, float], ...]
    method: str

    @property
    def error_bound(self) -> float:
        """The parts added in order; not sum(), which compensates floats from Python 3.12."""
        err = 0.0
        for _, bound in self.parts:
            err += bound
        return err

    def exp(self) -> EvalResult:
        """e^value, with |e^(x+d) - e^x| <= |e^x| expm1(|d|)."""
        value = np.exp(self.value)
        err = abs(value) * expm1(min(self.error_bound, 500.0))
        return EvalResult(complex(value), (("exp", err),), self.method)


def tail_bound(cutoff: float, sigma: float) -> float:
    """x^{1-sigma}/(sigma-1) at x = cutoff: the integral bound on sum_{n>x} n^{-sigma}."""
    x = float(cutoff)
    return x ** (1.0 - sigma) / (sigma - 1.0)


@dataclass(frozen=True)
class TruncationPlan:
    """The prime routes' cutoffs: primes to P, exact Euler-factor logs below
    exact_factor_cutoff."""

    prime_cutoff: int = 100_000
    exact_factor_cutoff: int = 10_000

    def __post_init__(self) -> None:
        if not 2 <= self.exact_factor_cutoff <= self.prime_cutoff:
            raise DomainError("need 2 <= exact_factor_cutoff <= prime_cutoff")


def inverse_power(log_n: np.ndarray, sigma: float) -> np.ndarray:
    """n^{-sigma}, one real exp; n^{-s} is this times unit_power(log_n, t)."""
    x = np.multiply(log_n, -sigma)
    return np.exp(x, out=x)


def _unit_runs(c: np.ndarray, log_n: np.ndarray, pts: Sequence[ComplexPoint]):
    """(i, point, u, c u) per point, with the unit u = n^{-it} and c u formed
    once per run of points with one t; at t = 0, u is None and c u is c."""
    t = None
    for i, pt in enumerate(pts):
        if pt.t != t:
            t, u = pt.t, None if pt.t == 0.0 else unit_power(log_n, pt.t)
            cu = c if u is None else np.multiply(c, u)
        yield i, pt, u, cu


def _power_terms(c: np.ndarray, log_n: np.ndarray, pts: Sequence[ComplexPoint]):
    """(j, i, c n^{-s}) per block j of 2^14 entries and point i: one real exp,
    one multiply.  numpy may swap the operands of a product with a temporary;
    named operands keep a term's bits free of the other points and of len(c)."""
    for j in range(0, c.size, _BLOCK):
        for i, pt, _, cu in _unit_runs(c[j : j + _BLOCK], log_n[j : j + _BLOCK], pts):
            x = inverse_power(log_n[j : j + _BLOCK], pt.sigma)
            yield j, i, np.multiply(cu, x, out=None if cu.dtype.kind == "c" else x)


def add_power_sums(c: np.ndarray, log_n: np.ndarray, pts: Sequence[ComplexPoint],
                   summers: Sequence[StreamSummer]) -> None:
    """Feed each point's summer the terms c n^{-s}."""
    if c.dtype.kind == "c" and not any(pt.t for pt in pts) and not c.imag.view(np.int64).any():
        c = c.real  # every imaginary part is +0 and t = 0: the real parts have the bits
    for _, i, term in _power_terms(c, log_n, pts):
        summers[i].feed(None, term)


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

    The head is summed in blocks of 2^14 terms at 84 ns a term at |t| = 1e6
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
    summer = StreamSummer()
    for lo in range(1, N, _BLOCK):
        ns = np.arange(lo, min(lo + _BLOCK, N), dtype=np.float64)
        summer.feed(lo, np.exp(-sc * np.log(ns)))
    head = summer.close()
    lnN = log(N)
    value = (
        head
        + np.exp((1 - sc) * lnN) / (sc - 1)
        + 0.5 * np.exp(-sc * lnN)
        + _B2_2F * sc * np.exp((-sc - 1) * lnN)
        + _B4_4F * sc * (sc + 1) * (sc + 2) * np.exp((-sc - 3) * lnN)
    )
    return EvalResult(value, (("remainder", rem_bound(N)),
                              ("rounding", 1e-15 * (1.0 + abs(value)) * log(N))), "euler-maclaurin")


def log_zeta(s, tol: float = 1e-10) -> EvalResult:
    """Principal log of the zeta value, with propagated bound."""
    z = zeta(s, tol)
    az = abs(z.value)
    if az <= z.error_bound:
        raise SingularFactorError("zeta value indistinguishable from 0")
    return EvalResult(np.log(z.value), (("log", z.error_bound / (az - z.error_bound)),), z.method)


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


def log_zeta_minus_prime_zeta(w) -> EvalResult:
    """log zeta(w) - P(w) = -sum_{k>=2} mu(k)/k log zeta(kw).

    The k = 1 terms cancel, so the result is branch-free and stays O(1)
    as Re w -> 1; this is the accurate route to prime sums near the pole.
    """
    pt = as_point(w)
    sigma = pt.sigma
    K = 2
    while 2.0 ** (-(K + 1) * sigma) * 12.0 > 1e-12 and K < 64:  # k-tail below 1e-12
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
    return EvalResult(total, (("log-zeta", err), ("k-tail", 12.0 * 2.0 ** (-(K + 1) * sigma))),
                      "euler-maclaurin")


def prime_zeta(w) -> EvalResult:
    """P(w) = sum_p p^{-w} via the Moebius/log-zeta identity.

    Uses the principal log of zeta(w); accurate even for sigma - 1 ~ 1e-9
    where direct prime summation is hopeless.
    """
    tail = log_zeta_minus_prime_zeta(w)
    lz = log_zeta(w)
    return EvalResult(lz.value - tail.value,
                      (("log-zeta", lz.error_bound), ("identity", tail.error_bound)),
                      "euler-maclaurin")


# ---------------------------------------------------------------------------
# F(s) routes


def F_truncated(
    f: MultiplicativeFunction,
    points: Sequence,
    series_cutoff: int,
) -> list[EvalResult]:
    """sum_{n<=N} f(n) n^{-s} at each point, with the integral-comparison
    tail bound N^{1-sigma}/(sigma-1).  f(n) is computed once per segment of
    2^18 numbers, log n per block of 2^14; each point has its own compensated summer, since
    a plain running sum would round away terms below half an ulp of it.
    The series streams the segment kernel of summatory_trace, so N has the
    same ceiling, checked before any sieving, and N >= 2."""
    pts = [as_point(s) for s in points]
    if f.twisted:  # F_twist(s) = F_base(s + iT)
        fb, T = f.twisted
        return F_truncated(fb, [ComplexPoint(pt.sigma, pt.t + T) for pt in pts], series_cutoff)
    N = series_cutoff
    if N < 2:
        raise DomainError(f"series cutoff must be >= 2, got {N}")
    if N > SUMMATORY_LIMIT_CEILING:
        raise CapacityError(f"series cutoff {N} exceeds ceiling {SUMMATORY_LIMIT_CEILING}")
    base = sieve_primes(max(2, isqrt(N)))
    summers = [StreamSummer() for _ in pts]
    for lo, vals in _value_segments(f, [(1, N)], base, 1 << 18):
        for j in range(0, vals.size, _BLOCK):  # no temporary spans a segment
            log_n = np.log(np.arange(lo + j, lo + min(j + _BLOCK, vals.size), dtype=np.float64))
            for _, i, term in _power_terms(vals[j : j + _BLOCK], log_n, pts):
                summers[i].feed(lo + j, term)
    return [EvalResult(summer.close(), (("series-tail", tail_bound(N, pt.sigma)),),
                       "truncated-series") for pt, summer in zip(pts, summers)]


def _factor_logs(
    f: MultiplicativeFunction, ps: np.ndarray, pts: Sequence[ComplexPoint],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each point: z = f(p) p^{-s} and log(factor_p) - z for every prime
    in ``ps``.

    factor_p = sum_k f(p^k) p^{-ks}.  A completely multiplicative f has the
    closed form 1/(1 - z); otherwise term k is summed while p^{-k sigma}
    / (1 - p^{-sigma}) > 1e-14.  Raises SingularFactorError where a factor
    vanishes.  log p and f(p) are computed once, f(p) p^{-it} once per run of t.
    """
    psf = ps.astype(np.float64)
    lp = np.log(psf)
    for _, pt, unit, fu in _unit_runs(f.prime_values(ps), lp, pts):
        xs = inverse_power(lp, pt.sigma)
        z = np.multiply(fu, xs)
        if f.completely_multiplicative:
            w = 1.0 - z  # 1 / factor_p
        else:
            w = 1.0 + z
            x = xs if unit is None else np.multiply(unit, xs)
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
        # Named operands: a term's bits do not depend on len(ps) (see _power_terms).
        small = np.abs(z) < 1e-3
        u = 0.25 + z * 0.2
        u = 1.0 / 3.0 + z * u
        u = 0.5 + z * u
        zz = z * z
        series = zz * u
        yield z, np.where(small, series, -np.log(w) - z)


def add_defects(
    f: MultiplicativeFunction, ps: np.ndarray, pts: Sequence[ComplexPoint], cutoff: int,
    summers: Sequence[StreamSummer],
) -> None:
    """Feed each point's summer log factor_p - f(p) p^{-s} for the primes
    of the chunk ``ps`` that are <= cutoff.  The cut can leave a short
    slice; _factor_logs gives each prime the same bits at any array length,
    so the sum does not depend on where segments fall."""
    head = ps[: int(np.searchsorted(ps, cutoff, side="right"))]
    if head.size:
        for summer, (_, defect) in zip(summers, _factor_logs(f, head, pts)):
            summer.feed(None, defect)


def _defect_tail(pt: ComplexPoint, cutoff: int) -> float:
    """Bound on the defect terms of the primes above cutoff."""
    return _DEFECT_COEFF * float(cutoff) ** (1.0 - 2.0 * pt.sigma) / (2.0 * pt.sigma - 1.0)


def alignment_terms(
    f: MultiplicativeFunction, ps: np.ndarray, direction: HalaszDirection,
) -> tuple[np.ndarray, np.ndarray]:
    """log p and g(p) = 1 + e0 f(p) p^{-it0} for every prime in ``ps``: the
    part of f(p) that the direction (e0, t0) does not cancel against log zeta.
    F_euler and the lemma defect sum g(p) p^{-w}; the Halász sums Re g(p)/p.
    On twist(base, T) it is g of base along (e0, t0 + T): one exp per prime,
    and g is exactly 0 where that direction aligns with base."""
    e0, t0 = direction.epsilon0, direction.t0
    if f.twisted:
        return alignment_terms(f.twisted[0], ps, HalaszDirection(e0, t0 + f.twisted[1]))
    lp = np.log(ps.astype(np.float64))
    g = e0 * f.prime_values(ps)
    if t0 != 0.0:  # the unit 1 - 0i could only flip a zero's sign, which 1 + g clears
        g *= unit_power(lp, t0)
    return lp, np.add(1.0, g, out=g)


def log_F_prime_sum(
    f: MultiplicativeFunction, points: Sequence, plan: TruncationPlan,
) -> list[EvalResult]:
    """log F(s) = sum_{p<=P} f(p) p^{-s} plus the defect sum_{p<=C} [log factor
    - f(p)p^{-s}] at each point.

    Unconditional bounds, the parts "prime-tail" P^{1-sigma}/(sigma-1) and
    "defect-tail" 3.75 C^{1-2 sigma}/(2 sigma - 1).  The p = 2 factor is always inside the
    exact range, so class M2 is not required (a vanishing factor at p = 2
    raises SingularFactorError).
    """
    pts = [as_point(s) for s in points]
    sums = [StreamSummer() for _ in pts]
    deltas = [StreamSummer() for _ in pts]
    for ps in prime_chunks(plan.prime_cutoff):
        add_power_sums(f.prime_values(ps), np.log(ps.astype(np.float64)), pts, sums)
        add_defects(f, ps, pts, plan.exact_factor_cutoff, deltas)
    return prime_sum_results(pts, sums, deltas, plan)


def prime_sum_results(
    pts: Sequence[ComplexPoint], sums: Sequence[StreamSummer], deltas: Sequence[StreamSummer],
    plan: TruncationPlan,
) -> list[EvalResult]:
    """The results of log_F_prime_sum from its summers, fed every prime
    <= plan.prime_cutoff, with the tail bounds of plan's cutoffs."""
    return [
        EvalResult(summer.close() + delta.close(),
                   (("prime-tail", tail_bound(plan.prime_cutoff, pt.sigma)),
                    ("defect-tail", _defect_tail(pt, plan.exact_factor_cutoff))), "prime-sum")
        for pt, summer, delta in zip(pts, sums, deltas)]


def add_alignment_sums(
    f: MultiplicativeFunction, ps: np.ndarray, ws: Sequence[ComplexPoint],
    direction: HalaszDirection, summers: Sequence[StreamSummer],
) -> None:
    """Feed each w's summer g(p) p^{-w} for the primes of the chunk ``ps``
    with g(p) != 0 alone, so an aligned direction feeds nothing.  Positions
    count the nonzero terms only; which terms those are does not depend on
    the chunking, so neither do the bits."""
    lp, g = alignment_terms(f, ps, direction)
    if not g.all():  # copy out the nonzero terms only when there is a zero
        nz = np.flatnonzero(g)
        g, lp = g[nz], lp[nz]
    add_power_sums(g, lp, ws, summers)


def F_euler(
    f: MultiplicativeFunction,
    points: Sequence,
    plan: TruncationPlan,
    direction: HalaszDirection = HalaszDirection(1),
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
    if not f.claims_M:
        raise DomainError("F_euler requires a class-M function")
    pts = [as_point(s) for s in points]
    chunks = prime_chunks(plan.prime_cutoff)  # checks the cutoff before the zeta work
    ws = [ComplexPoint(pt.sigma, pt.t - direction.t0) for pt in pts]
    pzs = [prime_zeta(w) for w in ws]
    residuals = [StreamSummer() for _ in pts]
    deltas = [StreamSummer() for _ in pts]
    for ps in chunks:
        add_defects(f, ps, pts, plan.exact_factor_cutoff, deltas)
        add_alignment_sums(f, ps, ws, direction, residuals)
    return [EvalResult(direction.epsilon0 * (residual.close() - pz.value) + delta.close(),
                       (("prime-zeta", pz.error_bound),
                        ("defect-tail", _defect_tail(pt, plan.exact_factor_cutoff))),
                       "euler-product").exp()
            for pt, pz, residual, delta in zip(pts, pzs, residuals, deltas)]
