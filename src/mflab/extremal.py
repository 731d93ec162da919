"""Constructs the extremal counterexample function from a target growth
profile kappa, and verifies the construction's mechanics at desk scale.

All profile functions (kappa, its regularizations, alpha) are evaluated in
loglog coordinates: ``ll = log log x``.  Block endpoints are kept in log
form (log x_j, log x_j^2) because upper_j = x_j^{log x_j} overflows floats
from j = 3 on even though the construction remains well-defined.
"""

from __future__ import annotations

import json
from _sha1 import sha1  # hashlib's own fallback; hashlib would load OpenSSL (+3.5 MB RSS)
from bisect import bisect_right
from itertools import accumulate
from math import e, exp, floor, inf, isfinite, isnan, log, pi, sqrt
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import CapacityError, CoverageError, DomainError, FunctionSpecError

if TYPE_CHECKING:  # annotations only
    import numpy as np
    from .multfun import MultiplicativeFunction

LOGLOG_16 = log(log(16.0))      # smallest admissible loglog coordinate
LOGLOG_MAX = 40.0               # sup truncation: x_max = e^(e^40)
KAPPA_GRID_POINTS = 2000        # loglog grid of the kappa regularizations
A_SQ_BUDGET = 64.0              # largest sum of a_j^2 that choose_blocks accepts
MERTENS_SLACK = 0.05            # finite-range slack for analytic Mertens bounds
ALPHA_FLOOR = 1e-6
REACH_SLACK = 1e-6              # in log p: the rounding of log p, sin and the window ends


# ---------------------------------------------------------------------------
# kappa regularization and alpha, on floats with numpy's bits: no numpy loads


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


class ExtremalBlock(NamedTuple):
    log_x: float      # log x_j
    log_upper: float  # log x_j^{log x_j} = (log x_j)^2
    a: float          # sqrt(alpha(upper_j))


class ExtremalSpec(NamedTuple):
    x1: float
    J: int
    C0: float
    blocks: tuple[ExtremalBlock, ...]
    kappa_desc: str
    alpha_desc: str

    def sum_a_sq(self) -> float:
        """The squares added in order; not sum(), which compensates floats from Python 3.12."""
        total = 0.0
        for b in self.blocks:
            total += b.a * b.a
        return total

    def to_json_dict(self) -> dict:
        return {
            "x1": self.x1,
            "J": self.J,
            "C0": self.C0,
            "kappa_desc": self.kappa_desc,
            "alpha_desc": self.alpha_desc,
            "blocks": [
                {"log_x": b.log_x, "log_upper": b.log_upper, "a": b.a}
                for b in self.blocks
            ],
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return sha1(blob).hexdigest()[:10]


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


def reference_spec() -> ExtremalSpec:
    """The desk-scale reference construction used across the test corpus."""
    return build_spec("power:0.25", x1=20.0, J=3, C0=1.0)


def spec_json(spec: ExtremalSpec) -> str:
    """The text of a spec file, which load_spec reads."""
    return json.dumps(spec.to_json_dict(), sort_keys=True, indent=2) + "\n"


def load_spec(path: str) -> ExtremalSpec:
    """Read a ``spec_json`` file; FunctionSpecError if it is missing or
    malformed (J not a JSON integer, another number not a JSON number), or
    holds a non-finite number, a J other than its number of blocks, blocks
    out of order (not log x_j < log upper_j <= log x_{j+1}), an x_j < 16 (as
    choose_blocks requires), an a_j < 0 or a C0 < 0."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        numbers = [doc["x1"], doc["C0"]] + [b[k] for b in doc["blocks"] for k in ("log_x", "log_upper", "a")]
        if type(doc["J"]) is not int or any(type(v) not in (int, float) for v in numbers):
            raise TypeError("J must be a JSON integer, and each other number an integer or a float")
        x1, C0, *rest = map(float, numbers)
        blocks = tuple(ExtremalBlock(*rest[i : i + 3]) for i in range(0, len(rest), 3))
        spec = ExtremalSpec(x1=x1, J=doc["J"], C0=C0, blocks=blocks,
                            kappa_desc=doc["kappa_desc"], alpha_desc=doc["alpha_desc"])
    except (OSError, ValueError, LookupError, TypeError, AttributeError, OverflowError) as exc:
        raise FunctionSpecError(
            f"cannot load extremal spec {path!r}: {type(exc).__name__}: {exc}") from None
    if not all(map(isfinite, numbers)):
        problem = "a number that is not finite"
    elif spec.J != len(blocks):
        problem = f"J = {spec.J} but {len(blocks)} blocks"
    elif any(not b.log_x < b.log_upper <= nxt
             for b, nxt in zip(blocks, [b.log_x for b in blocks[1:]] + [inf])):
        problem = "a block that is empty or overlaps the next"
    elif any(b.log_x < log(16.0) for b in blocks):
        problem = "a block starting below x = 16"
    elif any(b.a < 0 for b in blocks):
        problem = "an amplitude a_j < 0"
    elif spec.C0 < 0:
        problem = f"C0 = {spec.C0!r} < 0"
    else:
        return spec
    raise FunctionSpecError(f"bad extremal spec {path!r}: {problem}")


# ---------------------------------------------------------------------------
# the function itself: from here on, each function imports the numpy it runs


def theta_values(spec: ExtremalSpec, ps: np.ndarray, lp: np.ndarray | None = None) -> np.ndarray:
    """theta_p for an array of primes: a_j/sqrt(loglog p) on the
    sine-selected window of block j, 0 outside all blocks (including all
    p < x_1).  ``lp`` is log p of ``ps`` as float64, when the caller has
    it already."""
    import numpy as np
    if lp is None:
        lp = np.log(ps.astype(np.float64))
    th = np.zeros(lp.size, dtype=np.float64)
    window = -np.sin(lp) >= 0.5
    for b in spec.blocks:
        m = (lp >= b.log_x) & (lp < b.log_upper) & window
        if m.any():
            th[m] = b.a / np.sqrt(np.log(lp[m]))
    return th


def _theta_reach(spec: ExtremalSpec, P: int) -> int:
    """The last p <= P where theta_values may be nonzero (1 if none): the end of the
    last sine window, -sin(log p) >= 1/2 on [7 pi/6, 11 pi/6] + 2 pi k, that meets
    a block [log x_j, log upper_j) below log P, each widened by REACH_SLACK."""
    end = 0.0
    for b in spec.blocks:
        hi = min(b.log_upper, log(P)) + REACH_SLACK
        k = floor((hi - 7 * pi / 6) / (2 * pi))  # the last window starting below hi
        if (w := min(hi, 2 * pi * k + 11 * pi / 6 + REACH_SLACK)) >= b.log_x - REACH_SLACK:
            end = max(end, w)
    return min(P, int(exp(end)))


def extremal_function(spec: ExtremalSpec) -> MultiplicativeFunction:
    """Completely multiplicative f with f(p) = -e^{i theta_p}; class M."""
    from .multfun import completely_multiplicative
    return completely_multiplicative(
        f"extremal:{spec.content_hash()}",
        lambda ps: _unit_values(theta_values(spec, ps)),
        lambda e0, t0, P: _theta_reach(spec, P) if e0 == 1 and t0 == 0.0 else P)


def _unit_values(th: np.ndarray) -> np.ndarray:
    """f(p) = -e^{i theta_p} from theta_p >= 0 in one complex array, with
    the bits of -np.exp(1j * th)."""
    import numpy as np
    from .multfun import unit_power
    fp = unit_power(th, -1.0)
    return np.negative(fp, out=fp)


# ---------------------------------------------------------------------------
# verification reports


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
    import numpy as np
    from .dirichlet import ComplexPoint, inverse_power, point_summers
    from .multfun import PRIME_BLOCK, StreamSummer
    from .primes import check_limit
    from .workers import prime_pass
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
    wins = [(StreamSummer(width=PRIME_BLOCK), StreamSummer(width=PRIME_BLOCK)) for _ in checked]
    # sum_{p <= min(upper_j, P)} 1/p for each block j, at its checkpoint
    H = StreamSummer([min(float(P), exp(min(b.log_upper, log_P))) for b in spec.blocks],
                     PRIME_BLOCK)
    obs = StreamSummer(width=PRIME_BLOCK)

    def chunk(ps: np.ndarray) -> list[tuple[int, int, int]]:
        psf = ps.astype(np.float64)
        lp = np.log(psf)
        th = theta_values(spec, ps, lp)
        obs.feed(th * th / psf, ps)
        H.feed(1.0 / psf, ps)
        selected = []  # per window: the count, first and last prime selected here
        for b, cut, pt, (W, T) in zip(checked, window_cuts, pts, wins):
            lpc = lp[: int(np.searchsorted(ps, cut, side="right"))]
            nsin = -np.sin(lpc)
            sel = np.flatnonzero((lpc >= b.log_x) & (lpc < b.log_upper) & (nsin >= 0.5))
            selected.append((sel.size, int(ps[sel[0]]), int(ps[sel[-1]])) if sel.size
                            else (0, 0, 0))
            if sel.size:
                pw = inverse_power(lpc[sel], pt.sigma)
                W.feed(th[sel] * nsin[sel] * pw, ps[sel])
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
    from .primes import mertens_estimate
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
