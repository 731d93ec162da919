"""Diagnostics for the pole/zero behavior of F(s) on the one-line.

A direction is a pair (epsilon0, t0): epsilon0 = -1 probes a pole-like
point (|F| ~ 1/(sigma-1)), epsilon0 = +1 a zero-like point.  The central
object is the alignment sum

    sum_p Re g(p) / p,   g(p) = 1 + epsilon0 f(p) p^{-it0},

whose convergence or divergence separates the two regimes.

The lemma defect and the Theorem 1 ratio take a whole sigma grid in one
call, so f(p), log p and g(p) are computed once per grid.  Every prime sum
here is one workers.prime_pass, which splits the primes across the CPUs,
and keeps only running totals and the partial sums at its cutoffs.
"""

from __future__ import annotations

from math import exp, inf, log, sqrt
from typing import NamedTuple, Sequence

import numpy as np

from .dirichlet import (
    ComplexPoint,
    EvalResult,
    HalaszDirection,
    TruncationPlan,
    alignment_terms,
    as_point,
    log_F,
    log_zeta_minus_prime_zeta,
    prime_sums,
    residual_reach,
    residual_terms,
    tail_bound,
)
from .errors import CapacityError, DomainError
from .multfun import (GRID_STEP_CEILING, MultiplicativeFunction, PartialSums, StreamSummer,
                      fold, resolve_checkpoints, summation_error, two_adic_failures)
from .primes import check_limit
from .workers import prime_pass


def pole_sum(
    f: MultiplicativeFunction,
    direction: HalaszDirection,
    P: int,
) -> PartialSums:
    """The real partial sums of Re g(p)/p = (1 + e0 Re(f(p) p^{-it0}))/p
    over p <= P at the decade cutoffs xs = 10, 100, ..., P.

    Every term is >= 0 when |f(p)| <= 1; a term below -1e-12 means the
    function is outside class M and raises, naming the first prime of the
    most negative term.  A twist's T is folded into t0; t0 + T above the
    height ceiling, then P above the sieve's, are refused before sieving.
    """
    fold(f, direction.t0)
    check_limit(P)
    cuts = resolve_checkpoints("geometric:10", P)
    summer = StreamSummer(cuts)

    def chunk(ps: np.ndarray) -> tuple[float, int]:  # the chunk's most negative term, first
        terms = alignment_terms(f, ps, direction)[1].real / ps
        summer.feed(terms, ps)
        i = int(np.argmin(terms))
        return float(terms[i]), int(ps[i])

    worst, p_bad = 0.0, 0
    for term, p in prime_pass(P, [summer], chunk):
        if term < worst:
            worst, p_bad = term, p
    if worst < -1e-12:
        raise DomainError(f"negative alignment term at p={p_bad}: |f(p)| > 1")
    summer.close()
    return PartialSums(np.asarray(cuts, dtype=np.int64), np.array(summer.checkpoint_values).real)


def lemma_defect(
    f: MultiplicativeFunction,
    direction: HalaszDirection,
    points: Sequence,
    prime_cutoff: int,
) -> list[EvalResult]:
    """Evaluate the defect D = e0 sum_p f(p) p^{-s} + log zeta(s - i t0) at
    each point.

    Rearranged so the pole cancels exactly:

        D = [log zeta(w) - P(w)] + sum_{p<=P} g(p) p^{-w},
        g(p) = 1 + e0 f(p) p^{-it0},  w = s - i t0,

    where the bracket comes from the Moebius/log-zeta identity.  The value
    is then accurate near sigma = 1 whenever f is aligned with the
    direction; the bound still carries the unconditional part
    "residual-tail" 2 P^{1-sigma}/(sigma-1) beside the "bracket" and the
    residual sum's "summation".  A twist's T is folded into t0; t0 + T
    above the height ceiling, then P above the sieve's, are refused before
    any zeta work or sieving.
    """
    pts = [as_point(s) for s in points]
    if any(pt.sigma - 1.0 > 1.0 / np.e + 1e-12 for pt in pts):
        raise DomainError("lemma defect needs sigma - 1 <= 1/e")
    limit = max(2, residual_reach(f, direction, prime_cutoff))
    ws = [ComplexPoint(pt.sigma, pt.t - direction.t0) for pt in pts]
    brackets = [log_zeta_minus_prime_zeta(w) for w in ws]
    pairs = prime_sums(f, pts, ws, residual_terms(f, direction), limit, 1)  # no defect: C = 1
    return [EvalResult(bracket.value + residual,
                       (("bracket", bracket.error_bound),
                        ("residual-tail", 2.0 * tail_bound(prime_cutoff, pt.sigma)),
                        ("summation", summation_error(residual, prime_cutoff))),
                       "lemma-defect")
            for pt, bracket, (residual, _) in zip(pts, brackets, pairs)]


def lemma_ratio(sigma: float, D: complex) -> float:
    """The lemma's ratio |D| / sqrt(max(log 1/(sigma-1), 1))."""
    return abs(D) / sqrt(max(log(1.0 / (sigma - 1.0)), 1.0))


class Theorem1Point(NamedTuple):
    sigma: float
    F: EvalResult
    ratio: float | None  # None = indeterminate (|F| within its error bound)


def theorem1_ratio(
    f: MultiplicativeFunction,
    direction: HalaszDirection,
    sigma_grid: Sequence[float],
    plan: TruncationPlan,
) -> list[Theorem1Point]:
    """|F(sigma + i t0)|^e0 / (sigma - 1) along a grid of sigma in (1, 3/2].

    F is exp of dirichlet.log_F along the direction: the euler-product sum,
    usable arbitrarily close to the one-line, where f's reach along it is
    below P, and the prime sum otherwise, whose bound near sigma = 1 leaves
    the ratio indeterminate.
    """
    grid = [float(sg) for sg in sigma_grid]
    for sg in grid:
        if not 1.0 < sg <= 1.5:
            raise DomainError(f"theorem-1 grid needs sigma in (1, 3/2], got {sg}")
    pts = [ComplexPoint(sg, direction.t0) for sg in grid]
    fes = [r.exp(sg) for sg, r in zip(grid, log_F(f, pts, plan, direction))]
    out = []
    for sg, fe in zip(grid, fes):
        aF = abs(fe.value)
        if aF <= fe.error_bound:
            ratio = None
        elif direction.epsilon0 == 1:
            ratio = aF / (sg - 1.0)
        else:
            ratio = 1.0 / (aF * (sg - 1.0))
        out.append(Theorem1Point(sg, fe, ratio))
    return out


class Theorem2Point(NamedTuple):
    x: int
    abs_S: float
    ratio: float


def theorem2_ratio(trace: PartialSums, c: float) -> list[Theorem2Point]:
    """|S_f(x)| log x / (x exp(c sqrt(log log x))) at checkpoints x >= 16."""
    out = []
    for x, v in zip(trace.xs, trace.values):
        x = int(x)
        if x < 16:
            continue
        a = abs(complex(v))
        e = c * sqrt(log(log(x)))
        with np.errstate(over="ignore"):  # past e^709.78: the log form, 0 where S = 0
            d = x * np.exp(e)
        ratio = a * log(x) / d if d < inf else exp(log(a * log(x) / x) - e) if a else 0.0
        out.append(Theorem2Point(x, a, float(ratio)))
    return out


# ---------------------------------------------------------------------------
# criterion report

_DIVERGENT_SLOPE = 0.5   # growth per decade >= this fraction of d(loglog): diverging
_FLAT_SLOPE = 0.05       # below this fraction: treated as converged


class CriterionReport(NamedTuple):
    function_label: str
    t: float
    cutoffs: np.ndarray
    partials: np.ndarray
    last_decade_growth: float
    loglog_increment: float
    sum_side: str        # diverging | converged | unclear
    two_adic_first_failure: int | None
    verdict: str

    def text(self) -> str:
        lines = [
            f"function: {self.function_label}",
            f"t: {self.t!r}",
            "partial sums of (1 - Re f(p) p^(-it))/p:",
        ]
        for c, v in zip(self.cutoffs, self.partials):
            lines.append(f"  P={int(c)}: {float(v)!r}")
        lines.append(f"last-decade growth: {self.last_decade_growth!r}"
                     f" (loglog increment {self.loglog_increment!r})")
        lines.append(f"sum side: {self.sum_side}")
        if self.two_adic_first_failure is None:
            lines.append("2-adic side f(2^k) = -2^(ikt): pass")
        else:
            lines.append(
                f"2-adic side f(2^k) = -2^(ikt): fails at k={self.two_adic_first_failure}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def criterion_report(
    f: MultiplicativeFunction,
    t: float,
    P: int,
    K: int = 20,
) -> CriterionReport:
    """Probe the mean-value criterion at a finite cutoff.

    Divergence of the prime sum is undecidable from finite data; the sum
    side is labeled by comparing last-decade growth against 0.5 * d(loglog),
    and anything between the flat and divergent thresholds stays
    indeterminate.  The partial sums are pole_sum's along (-1, t), so a
    function outside class M raises; K above GRID_STEP_CEILING is refused
    before any sieving.
    """
    if P < 100:
        raise DomainError("criterion needs P >= 100")
    if K > GRID_STEP_CEILING:
        raise CapacityError(f"kmax {K} exceeds ceiling {GRID_STEP_CEILING}")
    cutoffs, partials = pole_sum(f, HalaszDirection(-1, t), P)
    lo, hi = int(cutoffs[-2]), int(cutoffs[-1])
    growth = float(partials[-1] - partials[-2])
    dll = log(log(hi)) - log(log(lo))
    if growth >= _DIVERGENT_SLOPE * dll:
        sum_side = "diverging"
    elif growth <= _FLAT_SLOPE * dll:
        sum_side = "converged"
    else:
        sum_side = "unclear"
    fails = two_adic_failures(f, t, K)
    two_adic_fail = fails[0] if fails else None
    if two_adic_fail is None:
        verdict = "criterion satisfied (2-adic side)"
    elif sum_side == "diverging":
        verdict = "criterion satisfied (sum side)"
    elif sum_side == "converged":
        verdict = "criterion fails"
    else:
        verdict = "indeterminate at this cutoff"
    return CriterionReport(
        function_label=f.label,
        t=t,
        cutoffs=cutoffs,
        partials=partials,
        last_decade_growth=growth,
        loglog_increment=dll,
        sum_side=sum_side,
        two_adic_first_failure=two_adic_fail,
        verdict=verdict,
    )
