"""Verifies an extremal spec's construction at desk scale, on the primes up
to a cutoff: the work of ``extremal-verify``, which alone loads this module.
``verify`` checks the theta-sum bound and each block's sine window in one
prime pass (workers.prime_pass), and returns the two kinds of report.
"""

from __future__ import annotations

from math import exp, log, sqrt
from typing import NamedTuple, Sequence

import numpy as np

from .dirichlet import ComplexPoint, inverse_power, point_summers
from .errors import CoverageError, DomainError
from .extremal import ExtremalSpec, _sine_window, _unit_values, extremal_function, theta_values
from .multfun import StreamSummer
from .primes import check_limit, mertens_estimate
from .workers import prime_pass

MERTENS_SLACK = 0.05  # finite-range slack for analytic Mertens bounds


class BlockPsum(NamedTuple):
    j: int
    covered: bool            # block intersects [1, P]
    majorant: float          # a_j^2 * (sum 1/p up to min(upper_j, P)) / loglog x_j
    analytic_majorant: float  # same with the analytic Mertens estimate at upper_j


class PsumReport(NamedTuple):
    cutoff: int
    observed: float
    majorant: float
    sum_a_sq: float
    blocks: tuple[BlockPsum, ...]

    @property
    def budget_bound(self) -> float:
        return 4.0 * self.sum_a_sq

    @property
    def ok(self) -> bool:
        return (self.observed <= self.majorant + 1e-12
                and self.majorant <= self.budget_bound + 1e-12)

    def text(self) -> str:
        lines = [
            f"theta-sum check at cutoff {self.cutoff}",
            f"observed sum theta_p^2/p: {self.observed!r}",
            f"per-block Mertens majorant: {self.majorant!r}",
            f"4 * sum a_j^2: {self.budget_bound!r}",
        ]
        for b in self.blocks:
            tag = "covered" if b.covered else "beyond cutoff"
            lines.append(
                f"  block {b.j} ({tag}): majorant {b.majorant!r}, "
                f"analytic {b.analytic_majorant!r}")
        lines.append(f"verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


class WindowReport(NamedTuple):
    j: int
    sigma: float
    selected_count: int
    selected_min: int
    selected_max: int
    window_sum: float        # W_j = sum theta_p (-sin log p) p^{-sigma}
    half_theta_sum: float    # (1/2) sum theta_p p^{-sigma}
    re_log_F: float
    target: float            # a_j sqrt(loglog x_j)

    @property
    def ok(self) -> bool:
        return self.window_sum >= self.half_theta_sum - 1e-15

    def text(self) -> str:
        return "\n".join([
            f"window check for block {self.j} at sigma = {self.sigma!r}, t = 1",
            f"selected primes: {self.selected_count} in "
            f"[{self.selected_min}, {self.selected_max}]",
            f"window sum W_j: {self.window_sum!r}",
            f"(1/2) sum theta_p p^-sigma: {self.half_theta_sum!r}",
            f"Re prime-sum log F: {self.re_log_F!r}",
            f"target a_j sqrt(loglog x_j): {self.target!r} (reported, not asserted)",
            f"verdict: {'PASS' if self.ok else 'FAIL'}",
        ])


def verify(
    spec: ExtremalSpec,
    P: int,
    blocks: Sequence[int] | None = None,
) -> tuple[PsumReport, tuple[WindowReport, ...]]:
    """Check the construction's mechanics on the primes <= P: the theta-sum
    report, and a window report for each checked block.

    The theta-sum check: sum_p theta_p^2/p <= per-block Mertens majorant
    <= 4 sum a_j^2.  The majorant for block j is a_j^2 (sum_{p <= min(upper_j,
    P)} 1/p) / loglog x_j; blocks entirely above P contribute nothing
    observed and are reported with their analytic (log-form) majorant only.

    The window check of each block j in ``blocks`` (default: every block
    with upper_j <= P), at s = 1 + 1/(log x_j)^2 + i: the sine-window
    selection guarantees W_j >= (1/2) sum_{selected} theta_p p^{-sigma}
    (asserted); the prime sum's Re log F at s (sum_p f(p) p^{-s} plus the
    Euler-factor defect below C = min(10^4, P), as dirichlet.log_F forms it)
    and the a_j sqrt(loglog x_j) target are reported without asserting the
    asymptotic lower bound.

    P and the blocks are checked before any sieving.  Then one pass
    (workers.prime_pass to P) takes log p and theta_p once per chunk for
    every sum: the theta sum, the 1/p sums (one StreamSummer, cut at each
    block's end), each window's two sums over its selected primes, and,
    with f(p) = -e^{i theta_p}, each point's prime sum and defect
    (dirichlet.point_summers).  Each window's count, first and last
    selected prime come back per chunk and are combined in key order.
    """
    log_P = log(check_limit(P))
    if blocks is None:
        blocks = [j for j, b in enumerate(spec.blocks, start=1) if b.log_upper <= log_P]
    for j in blocks:
        if not 1 <= j <= spec.J:
            raise DomainError(f"block index {j} outside 1..{spec.J}")
        if spec.blocks[j - 1].log_upper > log_P:
            raise CoverageError(f"block {j} extends to exp({spec.blocks[j - 1].log_upper!r}), "
                                f"beyond prime cutoff {P}")
    checked = [spec.blocks[j - 1] for j in blocks]
    pts = [ComplexPoint(1.0 + 1.0 / (b.log_x * b.log_x), 1.0) for b in checked]
    window_cuts = [int(min(exp(b.log_upper), float(P))) for b in checked]
    points, feed = point_summers(extremal_function(spec), pts, pts, min(10_000, P))
    # per window: W_j and sum theta_p p^{-sigma}
    wins = [(StreamSummer(), StreamSummer()) for _ in checked]
    # sum_{p <= min(upper_j, P)} 1/p for each block j, at its checkpoint
    H = StreamSummer([min(float(P), exp(min(b.log_upper, log_P))) for b in spec.blocks])
    obs = StreamSummer()

    def chunk(ps: np.ndarray) -> list[tuple[int, int, int]]:
        psf = ps.astype(np.float64)
        lp = np.log(psf)
        th = theta_values(spec, ps, lp)
        nz = np.flatnonzero(th)  # the exact sum of theta_p^2/p is the same without its zeros
        obs.feed(th[nz] * th[nz] / psf[nz], ps[nz])
        H.feed(1.0 / psf, ps)
        selected = []  # per window: the count, first and last prime selected here
        for b, cut, pt, (W, T) in zip(checked, window_cuts, pts, wins):
            lpc = lp[: int(np.searchsorted(ps, cut, side="right"))]
            sel = np.flatnonzero((lpc >= b.log_x) & (lpc < b.log_upper) & _sine_window(lpc))
            selected.append((sel.size, int(ps[sel[0]]), int(ps[sel[-1]])) if sel.size
                            else (0, 0, 0))
            if sel.size:
                pw = inverse_power(lpc[sel], pt.sigma)
                W.feed(th[sel] * -np.sin(lpc[sel]) * pw, ps[sel])
                T.feed(th[sel] * pw, ps[sel])
        if pts:  # with no point no term is formed
            feed(ps, ps, _unit_values(th), lp)
        return selected

    counts = [(0, 0, 0) for _ in checked]
    for selected in prime_pass(P, [*points, obs, H, *(s for win in wins for s in win)], chunk):
        counts = [(n + m, first or a, b if m else last)
                  for (n, first, last), (m, a, b) in zip(counts, selected)]
    totals = [s.close() for s in points]
    windows = tuple(
        WindowReport(j, pt.sigma, count, first, last, W.close().real, 0.5 * T.close().real,
                     (total + delta).real, b.a * sqrt(log(b.log_x)))
        for j, b, pt, (W, T), (count, first, last), total, delta in zip(
            blocks, checked, pts, wins, counts, totals, totals[len(pts) :]))
    H.close()
    return _psum_report(spec, P, obs.close().real, [h.real for h in H.checkpoint_values]), windows


def _psum_report(spec: ExtremalSpec, P: int, observed: float, H: list[float]) -> PsumReport:
    """The theta-sum check from the observed sum and each block's 1/p sum H."""
    log_P = log(P)
    majorant = 0.0
    rows = []
    for j, (b, h) in enumerate(zip(spec.blocks, H), start=1):
        llx = log(b.log_x)
        analytic = b.a * b.a * (mertens_estimate(b.log_upper) + MERTENS_SLACK) / llx
        if b.log_x > log_P:
            rows.append(BlockPsum(j, False, 0.0, analytic))
            continue
        mj = b.a * b.a * h / llx
        majorant += mj
        rows.append(BlockPsum(j, True, mj, analytic))
    return PsumReport(cutoff=P, observed=observed, majorant=majorant,
                      sum_a_sq=spec.sum_a_sq(), blocks=tuple(rows))
