"""Diagnostics for the pole/zero behavior of F(s) on the one-line.

A direction is a pair (epsilon0, t0): epsilon0 = -1 probes a pole-like
point (|F| ~ 1/(sigma-1)), epsilon0 = +1 a zero-like point.  The central
object is the alignment sum

    sum_p Re g(p) / p,   g(p) = 1 + epsilon0 f(p) p^{-it0},

whose convergence or divergence separates the two regimes.

The lemma defect and the Theorem 1 ratio take a whole sigma grid in one
call, so f(p), log p and g(p) are computed once per grid.  Every prime sum
here streams ``prime_chunks`` and keeps only running totals and the
partial sums at its cutoffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt
from typing import Sequence

import numpy as np

from .dirichlet import (
    ComplexPoint,
    EvalResult,
    F_euler,
    TruncationPlan,
    add_alignment_sums,
    alignment_terms,
    as_point,
    log_zeta_minus_prime_zeta,
    tail_bound,
)
from .errors import CapacityError, DomainError
from .multfun import (GRID_STEP_CEILING, MultiplicativeFunction, StreamSummer, SummatoryTrace,
                      two_adic_failures)
from .primes import prime_chunks


@dataclass(frozen=True)
class HalaszDirection:
    epsilon0: int
    t0: float = 0.0

    def __post_init__(self) -> None:
        if self.epsilon0 not in (-1, 1):
            raise DomainError(f"epsilon0 must be +1 or -1, got {self.epsilon0}")


@dataclass(frozen=True)
class PartialSumSeries:
    """Partial sums of a nonnegative prime series at decade cutoffs."""

    cutoffs: np.ndarray
    partials: np.ndarray

    def final(self) -> float:
        return float(self.partials[-1])


def pole_sum(
    f: MultiplicativeFunction,
    direction: HalaszDirection,
    P: int,
) -> PartialSumSeries:
    """Partial sums of Re g(p)/p = (1 + e0 Re(f(p) p^{-it0}))/p over p <= P
    at the decade cutoffs 10, 100, ..., P.

    Every term is >= 0 when |f(p)| <= 1; a term below -1e-12 means the
    function is outside class M and raises, naming the prime of the most
    negative term.
    """
    cuts = [10]
    while cuts[-1] < P:
        cuts.append(cuts[-1] * 10)
    cuts[-1] = P
    summer = StreamSummer(cuts)
    worst, p_bad = 0.0, 0
    for ps in prime_chunks(P):
        terms = alignment_terms(f, ps, direction.epsilon0, direction.t0)[1].real / ps
        i = int(np.argmin(terms))
        if terms[i] < worst:
            worst, p_bad = float(terms[i]), int(ps[i])
        summer.feed(None, terms, ps)
    if worst < -1e-12:
        raise DomainError(f"negative alignment term at p={p_bad}: |f(p)| > 1")
    summer.close()
    return PartialSumSeries(np.asarray(cuts, dtype=np.int64),
                            np.array(summer.checkpoint_values).real)


def lemma_defect(
    f: MultiplicativeFunction,
    direction: HalaszDirection,
    points: Sequence,
    plan: TruncationPlan,
) -> list[EvalResult]:
    """Evaluate the defect D = e0 sum_p f(p) p^{-s} + log zeta(s - i t0) at
    each point.

    Rearranged so the pole cancels exactly:

        D = [log zeta(w) - P(w)] + sum_{p<=P} g(p) p^{-w},
        g(p) = 1 + e0 f(p) p^{-it0},  w = s - i t0,

    where the bracket comes from the Moebius/log-zeta identity.  The value
    is then accurate near sigma = 1 whenever f is aligned with the
    direction; the bound still carries the unconditional part
    "residual-tail" 2 P^{1-sigma}/(sigma-1) beside the "bracket".
    """
    pts = [as_point(s) for s in points]
    if any(pt.sigma - 1.0 > 1.0 / np.e + 1e-12 for pt in pts):
        raise DomainError("lemma defect needs sigma - 1 <= 1/e")
    chunks = prime_chunks(plan.prime_cutoff)  # checks the cutoff before the zeta work
    ws = [ComplexPoint(pt.sigma, pt.t - direction.t0) for pt in pts]
    brackets = [log_zeta_minus_prime_zeta(w) for w in ws]
    residuals = [StreamSummer() for _ in pts]
    for ps in chunks:
        add_alignment_sums(f, ps, ws, direction.epsilon0, direction.t0, residuals)
    return [EvalResult(bracket.value + residual.close(),
                       (("bracket", bracket.error_bound),
                        ("residual-tail", 2.0 * tail_bound(plan.prime_cutoff, pt.sigma))),
                       "lemma-defect")
            for pt, bracket, residual in zip(pts, brackets, residuals)]


def lemma_ratio(sigma: float, D: complex) -> float:
    """The lemma's ratio |D| / sqrt(max(log 1/(sigma-1), 1))."""
    return abs(D) / sqrt(max(log(1.0 / (sigma - 1.0)), 1.0))


@dataclass(frozen=True)
class Theorem1Point:
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

    F comes from the euler-product route, the only one usable near the
    one-line; see F_euler for its stated alignment assumption.
    """
    grid = [float(sg) for sg in sigma_grid]
    for sg in grid:
        if not 1.0 < sg <= 1.5:
            raise DomainError(f"theorem-1 grid needs sigma in (1, 3/2], got {sg}")
    fes = F_euler(f, [ComplexPoint(sg, direction.t0) for sg in grid], plan,
                  epsilon0=direction.epsilon0, t0=direction.t0)
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


@dataclass(frozen=True)
class Theorem2Point:
    x: int
    abs_S: float
    ratio: float


def theorem2_ratio(trace: SummatoryTrace, c: float) -> list[Theorem2Point]:
    """|S_f(x)| log x / (x exp(c sqrt(log log x))) at checkpoints x >= 16."""
    out = []
    for x, v in zip(trace.xs, trace.values):
        x = int(x)
        if x < 16:
            continue
        a = abs(complex(v))
        ratio = a * log(x) / (x * np.exp(c * sqrt(log(log(x)))))
        out.append(Theorem2Point(x, a, float(ratio)))
    return out


# ---------------------------------------------------------------------------
# criterion report

_DIVERGENT_SLOPE = 0.5   # growth per decade >= this fraction of d(loglog): diverging
_FLAT_SLOPE = 0.05       # below this fraction: treated as converged


@dataclass(frozen=True)
class CriterionReport:
    function_label: str
    t: float
    cutoffs: np.ndarray
    partials: np.ndarray
    last_decade_growth: float
    loglog_increment: float
    sum_side: str        # diverging | converged | unclear
    two_adic_ok: bool
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
        if self.two_adic_ok:
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
    series = pole_sum(f, HalaszDirection(-1, t), P)
    cutoffs, partials = series.cutoffs, series.partials
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
        two_adic_ok=two_adic_fail is None,
        two_adic_first_failure=two_adic_fail,
        verdict=verdict,
    )
