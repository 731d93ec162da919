"""Constructs the extremal counterexample function's blocks from a target
growth profile kappa: the work of ``extremal-build``, which alone loads this
module.  It runs on floats with numpy's bits, and loads no numpy.

All profile functions (kappa, its regularizations, alpha) are evaluated in
loglog coordinates: ``ll = log log x``.  Block endpoints are kept in log
form (log x_j, log x_j^2) because upper_j = x_j^{log x_j} overflows floats
from j = 3 on even though the construction remains well-defined.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from math import e, isfinite, isnan, log, sqrt
from typing import Callable, NamedTuple, Sequence

from .errors import CapacityError, DomainError, FunctionSpecError
from .extremal import A_SQ_BUDGET, ExtremalBlock, ExtremalSpec

LOGLOG_16 = log(log(16.0))      # smallest admissible loglog coordinate
LOGLOG_MAX = 40.0               # sup truncation: x_max = e^(e^40)
KAPPA_GRID_POINTS = 2000        # loglog grid of the kappa regularizations
ALPHA_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# kappa regularization and alpha


def _interp(x: float, xp: Sequence[float], fp: Sequence[float]) -> float:
    """np.interp(x, xp, fp) with its bits where fp is finite or flat: fp[0] or fp[-1] beyond
    the ends, fp[j] at a node xp[j] or on a flat stretch, else slope * (x - xp[j]) + fp[j]."""
    j = max(bisect_right(xp, x) - 1, 0)
    if not xp[j] < x < xp[-1] or fp[j] == fp[j + 1]:
        return x if isnan(x) else fp[j]
    return (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (x - xp[j]) + fp[j]


class KappaFunction(NamedTuple):
    """A growth target with its monotone regularizations on a loglog grid.

    kappa0 is the running max of raw (nondecreasing); kappa1 additionally
    makes kappa/sqrt(ll) nonincreasing while staying nondecreasing itself.
    The grid runs from LOGLOG_16 to LOGLOG_MAX, where the sup defining
    kappa1 is truncated; beyond the grid both extend as constants.
    """

    grid: tuple[float, ...]
    kappa0_vals: tuple[float, ...]
    kappa1_vals: tuple[float, ...]
    desc: str = "custom"

    def kappa0(self, ll: float) -> float:
        return self._at(ll, self.kappa0_vals)

    def kappa1(self, ll: float) -> float:
        return self._at(ll, self.kappa1_vals)

    def _at(self, ll: float, vals: tuple[float, ...]) -> float:
        if ll < self.grid[0] - 1e-12:
            raise DomainError(f"loglog coordinate {ll} below domain start {self.grid[0]}")
        return _interp(ll, self.grid, vals)


def regularize_kappa(raw: Callable[[float], float], desc: str = "custom") -> KappaFunction:
    """Running-max and sup regularizations of ``raw`` on the loglog grid."""
    step = (LOGLOG_MAX - LOGLOG_16) / (KAPPA_GRID_POINTS - 1)  # np.linspace's grid
    grid = tuple(i * step + LOGLOG_16 for i in range(KAPPA_GRID_POINTS - 1)) + (LOGLOG_MAX,)
    vals = [float(raw(v)) for v in grid]
    if not all(v > 0.0 for v in vals):
        nans = [i for i, v in enumerate(vals) if isnan(v)]  # np.argmin picks the first NaN
        bad = grid[nans[0] if nans else vals.index(min(vals))]
        raise DomainError(f"raw kappa must be positive; fails near loglog={bad}")
    kappa0 = tuple(accumulate(vals, max))
    ratio_max = tuple(accumulate(reversed([k / sqrt(v) for k, v in zip(kappa0, grid)]), max))[::-1]
    kappa1 = tuple(sqrt(v) * m for v, m in zip(grid, ratio_max))
    return KappaFunction(grid, kappa0, kappa1, desc)


class AlphaFunction(NamedTuple):
    """Nonincreasing envelope dominating the F-growth exponent.

    alpha(x) solves exp(kappa1(x)) (loglog x + 1/e) e^{C0} =
    exp(alpha(x) sqrt(loglog x)); a right-running max on kappa's grid
    enforces monotonicity when kappa1 + C0 is too small for the raw formula.
    """

    kappa: KappaFunction
    C0: float
    env_vals: tuple[float, ...]
    desc: str = "custom"

    def formula_at(self, ll: float) -> float:
        return _alpha_formula(self.kappa.kappa1(ll), ll, self.C0)

    def at_loglog(self, ll: float) -> float:
        grid = self.kappa.grid
        if ll < grid[0] - 1e-12:
            raise DomainError(f"alpha undefined below loglog={grid[0]}")
        return self.formula_at(ll) if ll >= grid[-1] else _interp(ll, grid, self.env_vals)


def _alpha_formula(k1: float, ll: float, C0: float) -> float:
    """alpha's raw formula at loglog coordinate ll, from kappa1(ll) = k1."""
    return max((k1 + log(ll + 1.0 / e) + C0) / sqrt(ll), ALPHA_FLOOR)


def alpha_from_kappa(kappa: KappaFunction, C0: float) -> AlphaFunction:
    if C0 < 0:
        raise DomainError(f"C0 must be >= 0, got {C0}")
    raw = [_alpha_formula(k1, v, C0) for v, k1 in zip(kappa.grid, kappa.kappa1_vals)]
    env = tuple(accumulate(reversed(raw), max))[::-1]
    return AlphaFunction(kappa, float(C0), env,
                         desc=f"envelope(kappa={kappa.desc}, C0={C0!r})")


def parse_kappa_spec(spec: str) -> Callable[[float], float]:
    """Vocabulary: const:<c> | power:<e> (meaning ll^e, e < 1/2) |
    loglog-fraction:<c> (meaning c sqrt(ll)/log(ll))."""
    parts = spec.split(":")
    if len(parts) != 2:
        raise FunctionSpecError(f"bad kappa spec {spec!r}")
    kind, arg = parts
    try:
        v = float(arg)
    except ValueError:
        raise FunctionSpecError(f"bad kappa parameter {arg!r}") from None
    if kind == "const":
        if v <= 0:
            raise FunctionSpecError("const kappa must be positive")
        return lambda ll: v
    if kind == "power":
        if not 0 <= v < 0.5:
            raise FunctionSpecError("power exponent must lie in [0, 1/2)")
        return lambda ll: ll**v
    if kind == "loglog-fraction":
        if v <= 0:
            raise FunctionSpecError("loglog-fraction coefficient must be positive")
        return lambda ll: v * sqrt(ll) / log(ll)
    raise FunctionSpecError(f"unknown kappa kind {kind!r}")


# ---------------------------------------------------------------------------
# block construction


def choose_blocks(
    alpha: AlphaFunction,
    J: int,
    x1: float,
    kappa_desc: str = "custom",
) -> ExtremalSpec:
    """Blocks with log x_{j+1} = (log x_j)^2 + 1, so upper_j < x_{j+1}
    exactly in log form; a_j = sqrt(alpha(upper_j))."""
    if x1 < 16.0:
        raise DomainError(f"x1 must be >= 16, got {x1}")
    if J < 1:
        raise DomainError(f"J must be >= 1, got {J}")
    blocks = []
    lx = log(x1)
    total = 0.0
    for j in range(1, J + 1):
        lu = lx * lx
        if not isfinite(lu) or lu >= 8.98e307:
            raise CapacityError(
                f"log-form overflow at block {j}; maximal feasible J = {j - 1}")
        a = sqrt(alpha.at_loglog(log(lu)))
        total += a * a
        if total > A_SQ_BUDGET:
            raise CapacityError(
                f"sum of a_j^2 exceeds budget {A_SQ_BUDGET} at block {j}")
        blocks.append(ExtremalBlock(lx, lu, a))
        lx = lu + 1.0
    return ExtremalSpec(
        x1=float(x1), J=J, C0=alpha.C0, blocks=tuple(blocks),
        kappa_desc=kappa_desc, alpha_desc=alpha.desc)


def build_spec(kappa_spec: str, x1: float, J: int, C0: float = 1.0) -> ExtremalSpec:
    raw = parse_kappa_spec(kappa_spec)
    kappa = regularize_kappa(raw, desc=kappa_spec)
    alpha = alpha_from_kappa(kappa, C0)
    return choose_blocks(alpha, J, x1, kappa_desc=kappa_spec)
