"""Error-bounded evaluation of zeta(s), F(s) and log F(s) for sigma > 1.

Every value comes as one EvalResult: the value and the named parts of its
error bound.  F has two routes, each tagged in its EvalResult:

* ``F_truncated`` -- ``truncated-series``: direct sum to N, unconditional
  tail bound.
* ``log_F`` -- log F by one pass over the primes, in one of two sums:
  ``euler-product``, the prime-zeta rewrite around a direction (e0, t0)
  along which f's declared reach is below the prime cutoff, usable
  arbitrarily close to the one-line; or ``prime-sum``, sum f(p) p^{-s}
  plus the Euler-factor defect, unconditional (crude near sigma = 1).
  EvalResult.exp turns either into F, with a bound on F.

All tail bounds are integral comparisons (tail_bound) using |f(n)| <= 1:
rigorous but crude, so near sigma = 1 the unconditional sum reports an
honest, large bound instead of refusing.

Both routes take a sequence of points and return one result per point, in
order; work that does not depend on s is done once per call.  Each feeds
one ``StreamSummer`` per point and sum in one pass of mflab.workers, whose
stripes forked workers share, so memory does not grow with the cutoff:
F_truncated in series_pass, over n, and log_F in prime_pass (prime_sums).
"""

from __future__ import annotations

from functools import cache
from math import expm1, log
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, DomainError, SingularFactorError
from .multfun import (SEGMENT_SIZE, SUMMATORY_LIMIT_CEILING, ZETA_HEIGHT_CEILING, _SUB_BLOCK,
                      MultiplicativeFunction, StreamSummer, builtin, fold, kernel_base,
                      segment_values, summation_error, unit_power)
from .primes import check_limit
from .workers import prime_pass, series_pass

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


class ComplexPoint(NamedTuple("ComplexPoint", [("sigma", float), ("t", float)])):
    """A point s = sigma + it strictly right of the one-line."""

    __slots__ = ()

    def __new__(cls, sigma: float, t: float = 0.0) -> ComplexPoint:
        if not sigma > 1.0:
            raise DomainError(f"sigma must be > 1, got {sigma}")
        return super().__new__(cls, sigma, t)

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.t)


class HalaszDirection(NamedTuple("HalaszDirection", [("epsilon0", int), ("t0", float)])):
    """A direction (epsilon0, t0) of the one-line, as in halasz."""

    __slots__ = ()

    def __new__(cls, epsilon0: int, t0: float = 0.0) -> HalaszDirection:
        if epsilon0 not in (-1, 1):
            raise DomainError(f"epsilon0 must be +1 or -1, got {epsilon0}")
        return super().__new__(cls, epsilon0, t0)


def as_point(s) -> ComplexPoint:
    if isinstance(s, ComplexPoint):
        return s
    c = complex(s)
    return ComplexPoint(c.real, c.imag)


class EvalResult(NamedTuple):
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

    def exp(self, sigma: float) -> EvalResult:
        """e^value as F(s) at Re s = sigma: |e^(x+d) - e^x| <= |e^x| expm1(|d|),
        and, as |f| <= 1, |F(s)| <= zeta(sigma) < 1 + 1/(sigma - 1), so the
        error is also below |e^x| + 1 + 1/(sigma - 1); the less of the two.
        The factor 1 + 1e-15 covers the rounding of the second: near
        sigma = 1 + 2^-52 an ulp of 1/(sigma - 1) is 0.5, more than the 0.42
        by which zeta(sigma) ~ 1/(sigma - 1) + 0.577 stays below the bound."""
        value = np.exp(self.value)
        size = abs(value)
        d = self.error_bound
        grow = size * expm1(d) if d < 709.0 else float("inf")  # expm1 overflows past 709.78
        err = min(grow, (size + 1.0 + 1.0 / (sigma - 1.0)) * (1.0 + 1e-15))
        return EvalResult(complex(value), (("exp", err),), self.method)


def tail_bound(cutoff: float, sigma: float) -> float:
    """x^{1-sigma}/(sigma-1) at x = cutoff: the integral bound on sum_{n>x} n^{-sigma}."""
    x = float(cutoff)
    return x ** (1.0 - sigma) / (sigma - 1.0)


class TruncationPlan(NamedTuple("TruncationPlan", [("prime_cutoff", int),
                                                   ("exact_factor_cutoff", int)])):
    """The prime routes' cutoffs: primes to P, exact Euler-factor logs below
    exact_factor_cutoff."""

    __slots__ = ()

    def __new__(cls, prime_cutoff: int = 100_000,
                exact_factor_cutoff: int = 10_000) -> TruncationPlan:
        if not 2 <= exact_factor_cutoff <= prime_cutoff:
            raise DomainError("need 2 <= exact_factor_cutoff <= prime_cutoff")
        return super().__new__(cls, prime_cutoff, exact_factor_cutoff)


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
    """(i, c n^{-s}) per point i: one real exp, one multiply.  Every caller
    passes a block of at most 2^14 entries.  numpy may swap the operands of
    a product with a temporary; named operands keep a term's bits free of
    the other points and of len(c)."""
    for i, pt, _, cu in _unit_runs(c, log_n, pts):
        x = inverse_power(log_n, pt.sigma)
        yield i, np.multiply(cu, x, out=None if cu.dtype.kind == "c" else x)


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
    for lo in range(1, N, _SUB_BLOCK):  # a StreamSummer's sum is exact: any blocks will do
        ns = np.arange(lo, min(lo + _SUB_BLOCK, N), dtype=np.float64)
        summer.feed(np.exp(-sc * np.log(ns)), lo)
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
                              ("rounding", 1e-15 * (1.0 + abs(value)) * log(N)),
                              ("summation", summation_error(head, N))), "euler-maclaurin")


def log_zeta(s, tol: float = 1e-10) -> EvalResult:
    """Principal log of the zeta value, with propagated bound."""
    z = zeta(s, tol)
    az = abs(z.value)
    if az <= z.error_bound:
        raise SingularFactorError("zeta value indistinguishable from 0")
    return EvalResult(np.log(z.value), (("log", z.error_bound / (az - z.error_bound)),), z.method)


@cache
def _moebius() -> tuple[int, ...]:
    """(0, mu(1), ..., mu(64)), mu from the segment kernel, the one route to
    f(n): the mu(k) of log_zeta_minus_prime_zeta, whose k stops at 64."""
    mu = builtin("moebius")
    return (0, *segment_values(mu, 1, 64, kernel_base(mu, 64)).tolist())


def log_zeta_minus_prime_zeta(w) -> EvalResult:
    """log zeta(w) - P(w) = -sum_{k>=2} mu(k)/k log zeta(kw).

    The k = 1 terms cancel, so the result is branch-free and stays O(1)
    as Re w -> 1; this is the accurate route to prime sums near the pole.
    A w whose k w exceeds zeta's height ceiling is refused (DomainError) before any zeta work.
    """
    pt = as_point(w)
    sigma = pt.sigma
    K = next((K for K in range(2, 64) if 2.0 ** (-(K + 1) * sigma) * 12.0 <= 1e-12), 64)
    ks = [k for k in range(2, K + 1) if _moebius()[k]]  # zeta's heights are k |Im w|
    if abs(ks[-1] * pt.t) > ZETA_HEIGHT_CEILING:
        raise DomainError(f"height |t - t0| = {abs(pt.t)!r} exceeds {ZETA_HEIGHT_CEILING / ks[-1]!r}"
                          f", the Moebius/log-zeta identity's limit at sigma = {sigma!r}")
    total = 0.0 + 0.0j
    err = 0.0
    for k in ks:
        lz = log_zeta(ComplexPoint(k * pt.sigma, k * pt.t), tol=1e-14)
        total -= (_moebius()[k] / k) * lz.value
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
    multfun.SEGMENT_SIZE numbers, log n per block of multfun._SUB_BLOCK; each
    point has its own StreamSummer, whose rounding is the "summation" part.
    The series is summatory_trace's pass over n (workers.series_pass), split
    across the CPUs, so N has the same ceiling, checked before any sieving,
    and N >= 2.  A twist's T is folded into each point: F_twist(s) =
    F_base(s + iT), and t + T is checked first."""
    pts = [ComplexPoint(pt.sigma, fold(f, pt.t)[1]) for pt in map(as_point, points)]
    f = fold(f)[0]
    N = series_cutoff
    if N < 2:
        raise DomainError(f"series cutoff must be >= 2, got {N}")
    if N > SUMMATORY_LIMIT_CEILING:
        raise CapacityError(f"series cutoff {N} exceeds ceiling {SUMMATORY_LIMIT_CEILING}")
    summers = [StreamSummer() for _ in pts]

    def chunk(vals: np.ndarray, lo: int) -> None:
        for j in range(0, vals.size, _SUB_BLOCK):  # no temporary spans a segment
            log_n = np.log(np.arange(lo + j, lo + min(j + _SUB_BLOCK, vals.size), dtype=np.float64))
            for i, term in _power_terms(vals[j : j + _SUB_BLOCK], log_n, pts):
                summers[i].feed(term, lo + j)

    series_pass(kernel_base(f, N), summers, SEGMENT_SIZE, chunk)
    return [EvalResult(total := summer.close(), (("series-tail", tail_bound(N, pt.sigma)),
                                                 ("summation", summation_error(total, N))),
                       "truncated-series") for pt, summer in zip(pts, summers)]


def _factor_logs(
    f: MultiplicativeFunction, ps: np.ndarray, pts: Sequence[ComplexPoint],
) -> Iterator[np.ndarray]:
    """For each point: log(factor_p) - z, with z = f(p) p^{-s}, for every
    prime in ``ps``.

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
            yield np.log(w) - z
            continue
        # -log(1 - z) - z cancels for small z: use its Taylor series there.
        # Named operands: a term's bits do not depend on len(ps) (see _power_terms).
        small = np.abs(z) < 1e-3
        u = 0.25 + z * 0.2
        u = 1.0 / 3.0 + z * u
        u = 0.5 + z * u
        zz = z * z
        series = zz * u
        yield np.where(small, series, -np.log(w) - z)


def _defect_tail(pt: ComplexPoint, cutoff: int) -> float:
    """Bound on the defect terms of the primes above cutoff."""
    return _DEFECT_COEFF * float(cutoff) ** (1.0 - 2.0 * pt.sigma) / (2.0 * pt.sigma - 1.0)


def alignment_terms(
    f: MultiplicativeFunction, ps: np.ndarray, direction: HalaszDirection,
) -> tuple[np.ndarray, np.ndarray]:
    """log p and g(p) = 1 + e0 f(p) p^{-it0} for every prime in ``ps``: the
    part of f(p) that the direction (e0, t0) does not cancel against log zeta.
    log_F's aligned sum and the lemma defect sum g(p) p^{-w}; the Halász sums
    Re g(p)/p.  On twist(base, T) it is g of base along (e0, t0 + T): one exp
    per prime, and g is exactly 0 where that direction aligns with base."""
    f, t0 = fold(f, direction.t0)
    lp = np.log(ps.astype(np.float64))
    g = direction.epsilon0 * f.prime_values(ps)
    if t0 != 0.0:  # the unit 1 - 0i could only flip a zero's sign, which 1 + g clears
        g *= unit_power(lp, t0)
    return lp, np.add(1.0, g, out=g)


def residual_terms(f: MultiplicativeFunction, direction: HalaszDirection):
    """prime_sums' ``terms`` of the alignment residual: g(p) and log p of
    alignment_terms at the primes with g(p) != 0 alone, so an aligned
    direction feeds nothing.  Which terms those are does not depend on the chunking."""
    def terms(ps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lp, g = alignment_terms(f, ps, direction)
        if not g.all():  # copy out the nonzero terms only when there is a zero
            nz = np.flatnonzero(g)
            ps, g, lp = ps[nz], g[nz], lp[nz]
        return ps, g, lp
    return terms


def residual_reach(f: MultiplicativeFunction, direction: HalaszDirection, P: int) -> int:
    """The last p <= P where g(p) of ``direction`` may be nonzero: the
    declared reach of f's base at the folded t0, or P.  The height, then P,
    is checked first, so a refusal comes before any zeta work or sieving."""
    base, t0 = fold(f, direction.t0)
    P = check_limit(P)
    return P if base.reach is None else base.reach(direction.epsilon0, t0, P)


def point_summers(
    f: MultiplicativeFunction, pts: Sequence[ComplexPoint], ws: Sequence[ComplexPoint],
    exact_factor_cutoff: int,
) -> tuple[list[StreamSummer], Callable[..., None]]:
    """The StreamSummers of a prime pass's sums at points, and feed(ps,
    keys, c, lp), which feeds them one chunk ``ps``: per point i, the sum of
    c(p) p^{-ws[i]}, with c and log p given at ``keys`` (ps, or the primes of
    ps that a caller keeps), then the defect sum of log factor_p - f(p)
    p^{-pts[i]} over the primes of ps <= exact_factor_cutoff.  The summers
    are the sums, then the defects.  _factor_logs gives a prime the same bits
    in any slice, so no sum depends on where chunks fall or the cutoff cuts."""
    sums = [StreamSummer() for _ in ws]
    deltas = [StreamSummer() for _ in pts]

    def feed(ps: np.ndarray, keys: np.ndarray, c: np.ndarray, lp: np.ndarray) -> None:
        for i, term in _power_terms(c, lp, ws):
            sums[i].feed(term, keys)
        head = ps[: int(np.searchsorted(ps, exact_factor_cutoff, side="right"))]
        for delta, defect in zip(deltas, _factor_logs(f, head, pts) if head.size else ()):
            delta.feed(defect, head)

    return sums + deltas, feed


def prime_sums(
    f: MultiplicativeFunction, pts: Sequence[ComplexPoint], ws: Sequence[ComplexPoint],
    terms: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]], limit: int,
    exact_factor_cutoff: int,
) -> list[tuple[complex, complex]]:
    """The one pass of the prime routes over the primes <= ``limit``
    (workers.prime_pass): the closed (sum, defect) pair of point_summers per
    point, with (keys, c, log p) = terms(ps) for each chunk ps."""
    summers, feed = point_summers(f, pts, ws, exact_factor_cutoff)
    prime_pass(limit, summers, lambda ps: feed(ps, *terms(ps)))
    totals = [summer.close() for summer in summers]
    return list(zip(totals[: len(ws)], totals[len(ws) :]))


def log_F(
    f: MultiplicativeFunction,
    points: Sequence,
    plan: TruncationPlan,
    direction: HalaszDirection | None = None,
) -> list[EvalResult]:
    """log F(s) at each point, by one pass over the primes in one of two sums.

    Aligned ("euler-product"), where a direction (e0, t0) is given and f's
    reach along it is below P: with g(p) = 1 + e0 f(p) p^{-it0}, w = s - i t0,

        log F = e0 [ sum_{p<=reach} g(p) p^{-w} - P(w) ] + defect,

    P(w) from the Moebius/log-zeta identity, accurate arbitrarily close to
    sigma = 1; parts "prime-zeta" and "defect-tail".  The bound assumes that
    g(p) = 0 beyond the reach: true for the builtins and their twists, not
    for an extremal rule, whose rows are conditional.

    Otherwise ("prime-sum"): sum_{p<=P} f(p) p^{-s} + defect, with the
    unconditional parts "prime-tail" P^{1-sigma}/(sigma-1) and "defect-tail".
    Either has a "summation" part for its two sums, of at most P and C
    terms: P, not the reach, so that it does not depend on where f declares
    its terms to end.

    The defect sums log factor_p - f(p) p^{-s} over p <= C (p = 2 always in
    it; a vanishing factor raises SingularFactorError), with the tail 3.75
    C^{1-2 sigma}/(2 sigma - 1).  P above the sieve's ceiling, then a
    twist's T folded into t0 (residual_reach), then, for the prime sum, into
    each point's t, above the height ceiling are refused before any zeta
    work or sieving.  An aligned direction folds t0 to 0.0 (no rule declares
    a reach elsewhere), so there a point's folded height is |t - t0|, which
    prime_zeta refuses first, at the identity's limit of at most 5e7.
    """
    pts = [as_point(s) for s in points]
    P, C = check_limit(plan.prime_cutoff), plan.exact_factor_cutoff
    reach = P if direction is None else residual_reach(f, direction, P)
    if reach >= P:
        for pt in pts:
            fold(f, pt.t)
        pairs = prime_sums(
            f, pts, pts, lambda ps: (ps, f.prime_values(ps), np.log(ps.astype(np.float64))), P, C)
        return [EvalResult(total + delta, (("prime-tail", tail_bound(P, pt.sigma)),
                                           ("defect-tail", _defect_tail(pt, C)),
                                           ("summation", summation_error(total, P)
                                            + summation_error(delta, C))), "prime-sum")
                for pt, (total, delta) in zip(pts, pairs)]
    ws = [ComplexPoint(pt.sigma, pt.t - direction.t0) for pt in pts]
    pzs = [prime_zeta(w) for w in ws]
    pairs = prime_sums(f, pts, ws, residual_terms(f, direction), max(2, C, reach), C)
    return [EvalResult(direction.epsilon0 * (residual - pz.value) + delta,
                       (("prime-zeta", pz.error_bound), ("defect-tail", _defect_tail(pt, C)),
                        ("summation", summation_error(residual, P)
                         + summation_error(delta, C))), "euler-product")
            for pt, pz, (residual, delta) in zip(pts, pzs, pairs)]
