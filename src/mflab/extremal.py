"""Constructs the extremal counterexample function from a target growth
profile kappa, and verifies the construction's mechanics at desk scale.

All profile functions (kappa, its regularizations, alpha) are evaluated in
loglog coordinates: ``ll = log log x``.  Block endpoints are kept in log
form (log x_j, log x_j^2) because upper_j = x_j^{log x_j} overflows floats
from j = 3 on even though the construction remains well-defined.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from math import exp, isfinite, log, sqrt
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, CoverageError, DomainError, FunctionSpecError
from .multfun import MultiplicativeFunction, StreamSummer, completely_multiplicative, unit_power
from .primes import check_limit, mertens_estimate, prime_chunks

LOGLOG_16 = log(log(16.0))      # smallest admissible loglog coordinate
LOGLOG_MAX = 40.0               # sup truncation: x_max = e^(e^40)
KAPPA_GRID_POINTS = 2000        # loglog grid of the kappa regularizations
A_SQ_BUDGET = 64.0              # largest sum of a_j^2 that choose_blocks accepts
MERTENS_SLACK = 0.05            # finite-range slack for analytic Mertens bounds
ALPHA_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# kappa regularization and alpha


@dataclass(frozen=True)
class KappaFunction:
    """A growth target with its monotone regularizations on a loglog grid.

    kappa0 is the running max of raw (nondecreasing); kappa1 additionally
    makes kappa/sqrt(ll) nonincreasing while staying nondecreasing itself.
    The grid runs from LOGLOG_16 to LOGLOG_MAX, where the sup defining
    kappa1 is truncated; beyond the grid both extend as constants.
    """

    grid: np.ndarray = field(repr=False)
    kappa0_vals: np.ndarray = field(repr=False)
    kappa1_vals: np.ndarray = field(repr=False)
    desc: str = "custom"

    def kappa0(self, ll: float) -> float:
        return self._interp(ll, self.kappa0_vals)

    def kappa1(self, ll: float) -> float:
        return self._interp(ll, self.kappa1_vals)

    def _interp(self, ll: float, vals: np.ndarray) -> float:
        if ll < self.grid[0] - 1e-12:
            raise DomainError(f"loglog coordinate {ll} below domain start {self.grid[0]}")
        if ll >= self.grid[-1]:
            return float(vals[-1])
        return float(np.interp(ll, self.grid, vals))


def regularize_kappa(raw: Callable[[float], float], desc: str = "custom") -> KappaFunction:
    """Running-max and sup regularizations of ``raw`` on the loglog grid."""
    grid = np.linspace(LOGLOG_16, LOGLOG_MAX, KAPPA_GRID_POINTS)
    vals = np.array([float(raw(v)) for v in grid])
    if not np.all(vals > 0.0):
        bad = float(grid[int(np.argmin(vals))])
        raise DomainError(f"raw kappa must be positive; fails near loglog={bad}")
    kappa0 = np.maximum.accumulate(vals)
    ratio = kappa0 / np.sqrt(grid)
    kappa1 = np.sqrt(grid) * np.maximum.accumulate(ratio[::-1])[::-1]
    return KappaFunction(grid, kappa0, kappa1, desc)


@dataclass(frozen=True)
class AlphaFunction:
    """Nonincreasing envelope dominating the F-growth exponent.

    alpha(x) solves exp(kappa1(x)) (loglog x + 1/e) e^{C0} =
    exp(alpha(x) sqrt(loglog x)); a right-running max on the grid enforces
    monotonicity when kappa1 + C0 is too small for the raw formula.
    """

    kappa: KappaFunction
    C0: float
    grid: np.ndarray = field(repr=False)
    env_vals: np.ndarray = field(repr=False)
    desc: str = "custom"

    def formula_at(self, ll: float) -> float:
        v = (self.kappa.kappa1(ll) + log(ll + 1.0 / np.e) + self.C0) / sqrt(ll)
        return max(v, ALPHA_FLOOR)

    def at_loglog(self, ll: float) -> float:
        if ll < self.grid[0] - 1e-12:
            raise DomainError(f"alpha undefined below loglog={self.grid[0]}")
        if ll >= self.grid[-1]:
            return self.formula_at(ll)
        return float(np.interp(ll, self.grid, self.env_vals))

    def __call__(self, x: float) -> float:
        if x < 16.0:
            raise DomainError(f"alpha needs x >= 16, got {x}")
        return self.at_loglog(log(log(x)))


def alpha_from_kappa(kappa: KappaFunction, C0: float) -> AlphaFunction:
    if C0 < 0:
        raise DomainError(f"C0 must be >= 0, got {C0}")
    grid = kappa.grid
    raw = np.array(
        [max((k1 + log(v + 1.0 / np.e) + C0) / sqrt(v), ALPHA_FLOOR)
         for v, k1 in zip(grid, kappa.kappa1_vals)])
    env = np.maximum.accumulate(raw[::-1])[::-1]
    return AlphaFunction(kappa, float(C0), grid, env,
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


@dataclass(frozen=True)
class ExtremalBlock:
    log_x: float      # log x_j
    log_upper: float  # log x_j^{log x_j} = (log x_j)^2
    a: float          # sqrt(alpha(upper_j))


@dataclass(frozen=True)
class ExtremalSpec:
    x1: float
    J: int
    C0: float
    blocks: tuple[ExtremalBlock, ...]
    kappa_desc: str
    alpha_desc: str

    def sum_a_sq(self) -> float:
        return float(sum(b.a * b.a for b in self.blocks))

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
        return hashlib.sha1(blob).hexdigest()[:10]


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
        if not np.isfinite(lu) or lu >= 8.98e307:
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


def save_spec(spec: ExtremalSpec, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(spec.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_spec(path: str) -> ExtremalSpec:
    """Read a ``save_spec`` file; FunctionSpecError if it is missing or
    malformed, or holds a non-finite number, a J other than its number of
    blocks, an x_j < 16 (as choose_blocks requires), an a_j < 0 or a C0 < 0."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        blocks = tuple(
            ExtremalBlock(float(b["log_x"]), float(b["log_upper"]), float(b["a"]))
            for b in doc["blocks"])
        spec = ExtremalSpec(
            x1=float(doc["x1"]), J=int(doc["J"]), C0=float(doc["C0"]),
            blocks=blocks, kappa_desc=doc["kappa_desc"], alpha_desc=doc["alpha_desc"])
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as e:
        raise FunctionSpecError(
            f"cannot load extremal spec {path!r}: {type(e).__name__}: {e}") from None
    numbers = [spec.x1, spec.C0] + [v for b in blocks for v in (b.log_x, b.log_upper, b.a)]
    if not all(map(isfinite, numbers)):
        problem = "a number that is not finite"
    elif spec.J != len(blocks):
        problem = f"J = {spec.J} but {len(blocks)} blocks"
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
# the function itself


def theta_values(spec: ExtremalSpec, ps: np.ndarray, lp: np.ndarray | None = None) -> np.ndarray:
    """theta_p for an array of primes: a_j/sqrt(loglog p) on the
    sine-selected window of block j, 0 outside all blocks (including all
    p < x_1).  ``lp`` is log p of ``ps`` as float64, when the caller has
    it already."""
    if lp is None:
        lp = np.log(ps.astype(np.float64))
    th = np.zeros(lp.size, dtype=np.float64)
    window = -np.sin(lp) >= 0.5
    for b in spec.blocks:
        m = (lp >= b.log_x) & (lp < b.log_upper) & window
        if m.any():
            th[m] = b.a / np.sqrt(np.log(lp[m]))
    return th


def extremal_function(spec: ExtremalSpec) -> MultiplicativeFunction:
    """Completely multiplicative f with f(p) = -e^{i theta_p}; class M."""
    return completely_multiplicative(
        f"extremal:{spec.content_hash()}",
        lambda ps: _unit_values(theta_values(spec, ps)),
        claims_M=True)


def _unit_values(th: np.ndarray) -> np.ndarray:
    """f(p) = -e^{i theta_p} from theta_p >= 0 in one complex array, with
    the bits of -np.exp(1j * th)."""
    fp = unit_power(th, -1.0)
    return np.negative(fp, out=fp)


# ---------------------------------------------------------------------------
# verification reports


@dataclass(frozen=True)
class BlockPsum:
    j: int
    covered: bool            # block intersects [1, P]
    mertens_partial: float   # sum 1/p up to min(upper_j, P)
    majorant: float          # a_j^2 * mertens_partial / loglog x_j
    analytic_majorant: float  # same with the analytic Mertens estimate at upper_j


@dataclass(frozen=True)
class PsumReport:
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


@dataclass(frozen=True)
class WindowReport:
    j: int
    sigma: float
    selected_count: int
    selected_min: int
    selected_max: int
    window_sum: float        # W_j = sum theta_p (-sin log p) p^{-sigma}
    half_theta_sum: float    # (1/2) sum theta_p p^{-sigma}
    re_log_F_prime_sum: float
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
            f"Re prime-sum log F: {self.re_log_F_prime_sum!r}",
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
    (asserted); log_F_prime_sum's Re log F at s (exact Euler factors below
    min(10^4, P)) and the a_j sqrt(loglog x_j) target are reported
    without asserting the asymptotic lower bound.

    P and the blocks are checked before any sieving.  Then one pass over
    ``prime_chunks(P)`` takes log p and theta_p once per chunk for every
    sum: the theta sum, the 1/p sums (one StreamSummer, cut at each block's
    end), the windows' selected primes, and each point's prime sum and
    defect (dirichlet.add_power_sums, add_defects).
    """
    from .dirichlet import (ComplexPoint, TruncationPlan, add_defects, add_power_sums,
                            prime_sum_results)

    log_P = log(check_limit(P))
    if blocks is None:
        blocks = [j for j, b in enumerate(spec.blocks, start=1) if b.log_upper <= log_P]
    for j in blocks:
        if not 1 <= j <= spec.J:
            raise DomainError(f"block index {j} outside 1..{spec.J}")
        if spec.blocks[j - 1].log_upper > log_P:
            raise CoverageError(f"block {j} extends to exp({spec.blocks[j - 1].log_upper!r}), "
                                f"beyond prime cutoff {P}")
    plan = TruncationPlan(prime_cutoff=P, exact_factor_cutoff=min(10_000, P))
    checked = [spec.blocks[j - 1] for j in blocks]
    pts = [ComplexPoint(1.0 + 1.0 / (b.log_x * b.log_x), 1.0) for b in checked]
    window_cuts = [int(min(exp(b.log_upper), float(P))) for b in checked]
    picked = [([], []) for _ in checked]  # each window's selected primes and their log p
    fext = extremal_function(spec)
    # sum_{p <= min(upper_j, P)} 1/p for each block j, at its checkpoint
    H = StreamSummer([min(float(P), exp(min(b.log_upper, log_P))) for b in spec.blocks])
    obs = StreamSummer()
    sums = [StreamSummer() for _ in pts]
    deltas = [StreamSummer() for _ in pts]
    for ps in prime_chunks(P):
        psf = ps.astype(np.float64)
        lp = np.log(psf)
        th = theta_values(spec, ps, lp)
        obs.feed(None, th * th / psf)
        H.feed(None, 1.0 / psf, ps)
        del psf  # each chunk array is dropped once its last sum is taken
        for b, cut, (sel_ps, sel_lp) in zip(checked, window_cuts, picked):
            lpc = lp[: int(np.searchsorted(ps, cut, side="right"))]
            sel = (lpc >= b.log_x) & (lpc < b.log_upper) & (-np.sin(lpc) >= 0.5)
            sel_ps.append(ps[: lpc.size][sel])
            sel_lp.append(lpc[sel])
        if pts:
            fp = _unit_values(th)
            del th
            add_power_sums(fp, lp, pts, sums)
            del fp, lp  # as psf: not alive while the next chunk is built
            add_defects(fext, ps, pts, plan.exact_factor_cutoff, deltas)
    windows = tuple(
        _window_report(j, b, pt.sigma, np.concatenate(sel_ps), np.concatenate(sel_lp),
                       psr.value.real)
        for j, b, pt, (sel_ps, sel_lp), psr in zip(
            blocks, checked, pts, picked, prime_sum_results(pts, sums, deltas, plan)))
    H.close()
    return _psum_report(spec, P, obs.close().real, [h.real for h in H.checkpoint_values]), windows


def _window_report(j: int, b: ExtremalBlock, sigma: float, ps: np.ndarray, lps: np.ndarray,
                   re_log_F: float) -> WindowReport:
    """Block j's window check from its selected primes ``ps`` (log p in
    ``lps``), summed with the pairwise np.sum."""
    th = b.a / np.sqrt(np.log(lps))
    pw = np.exp(-sigma * lps)
    return WindowReport(
        j=j,
        sigma=sigma,
        selected_count=int(ps.size),
        selected_min=int(ps[0]) if ps.size else 0,
        selected_max=int(ps[-1]) if ps.size else 0,
        window_sum=float(np.sum(th * (-np.sin(lps)) * pw)),
        half_theta_sum=0.5 * float(np.sum(th * pw)),
        re_log_F_prime_sum=float(re_log_F),
        target=b.a * sqrt(log(b.log_x)),
    )


def _psum_report(spec: ExtremalSpec, P: int, observed: float, H: list[float]) -> PsumReport:
    """The theta-sum check from the observed sum and each block's 1/p sum H."""
    log_P = log(P)
    majorant = 0.0
    rows = []
    for j, (b, h) in enumerate(zip(spec.blocks, H), start=1):
        llx = log(b.log_x)
        analytic = b.a * b.a * (mertens_estimate(b.log_upper) + MERTENS_SLACK) / llx
        if b.log_x > log_P:
            rows.append(BlockPsum(j, False, 0.0, 0.0, analytic))
            continue
        mj = b.a * b.a * h / llx
        majorant += mj
        rows.append(BlockPsum(j, True, h, mj, analytic))
    return PsumReport(cutoff=P, observed=observed, majorant=majorant,
                      sum_a_sq=spec.sum_a_sq(), blocks=tuple(rows))
