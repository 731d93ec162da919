"""Multiplicative functions with |f(n)| <= 1 and their summatory traces.

A function is described by its vectorized prime-power rule (ps, k) -> f(p^k)
plus class flags.  Bulk evaluation over a range of n runs as a segmented
sieve driven by base primes up to sqrt(range): strided passes per prime power
and one integer division per n, so traces up to 10^9 stay feasible; single
values go through a smallest-prime-factor table.

Summation is order-deterministic: values are grouped into blocks aligned to
absolute positions (multiples of 4096) and cut at checkpoints, each block is
np.sum'ed, and block sums enter a compensated accumulator in ascending
order.  Checkpoint values are therefore bit-identical for any segment size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, isqrt, log
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, CoverageError, FunctionSpecError
from .primes import PrimeTable, SpfTable, sieve_primes

SUMMATORY_LIMIT_CEILING = 2**34
DEFAULT_GRID_RATIO = 2.0 ** 0.25
DEFAULT_GRID_START = 10
_SUM_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class MultiplicativeFunction:
    """Prime-power rule plus class flags.

    ``powers(ps, k)`` returns f(p^k) for an int64 array of primes and one
    k >= 1; f(1) = 1 by convention.  It is the function's only definition:
    segmented evaluation, single values and every prime sum read it.
    ``completely_multiplicative`` builds one from f(p) alone.
    """

    label: str
    powers: Callable[[np.ndarray, int], np.ndarray]
    completely_multiplicative: bool = False
    claims_M: bool = False
    claims_M2: bool = False
    _memo: dict = field(default_factory=dict, repr=False)

    def prime_power(self, p: int, k: int) -> complex:
        """f(p^k) for one prime, memoized."""
        key = (p, k)
        v = self._memo.get(key)
        if v is None:
            v = complex(self.powers(np.array([p], dtype=np.int64), k)[0])
            self._memo[key] = v
        return v

    def prime_values(self, ps: np.ndarray) -> np.ndarray:
        """f(p) for an array of primes."""
        return np.asarray(self.powers(ps, 1), dtype=np.complex128)


def completely_multiplicative(
    label: str, fp: Callable[[np.ndarray], np.ndarray],
    claims_M: bool = False, claims_M2: bool = False,
) -> MultiplicativeFunction:
    """The function with f(p) = fp(ps) and f(p^k) = f(p)^k.

    np.power rather than ``**``: ``array ** 2`` takes numpy's squaring fast
    path, which rounds differently from the power of a single value.
    """
    return MultiplicativeFunction(
        label, lambda ps, k: np.power(fp(ps), k), completely_multiplicative=True,
        claims_M=claims_M, claims_M2=claims_M2)


@dataclass(frozen=True)
class SummatoryTrace:
    """Checkpointed partial sums S_f(x) = sum_{n<=x} f(n)."""

    function_label: str
    xs: np.ndarray
    values: np.ndarray
    limit: int

    def value_at(self, x: int) -> complex:
        i = int(np.searchsorted(self.xs, x))
        if i >= self.xs.size or self.xs[i] != x:
            raise CoverageError(f"no checkpoint at x={x}")
        return complex(self.values[i])


# ---------------------------------------------------------------------------
# builtins and the function-spec mini-language


def twist(base: MultiplicativeFunction, t: float) -> MultiplicativeFunction:
    """f(p^k) = base(p^k) * p^{-ikt}; preserves |f| and all class flags."""
    t = float(t)
    if not isfinite(t):
        raise FunctionSpecError(f"twist parameter must be finite, got {t!r}")

    def powers(ps: np.ndarray, k: int) -> np.ndarray:
        return base.powers(ps, k) * np.exp(-1j * k * t * np.log(ps.astype(np.float64)))

    return MultiplicativeFunction(
        label=f"twist:{t!r}:{base.label}",
        powers=powers,
        completely_multiplicative=base.completely_multiplicative,
        claims_M=base.claims_M,
        claims_M2=base.claims_M2,
    )


def builtin(name: str, params: Sequence[float] = ()) -> MultiplicativeFunction:
    """Construct a named test-corpus function.

    Known names: one, moebius, liouville, odd_one, twist (params = [t],
    base defaults to ``one``), extremal-ref (the reference desk-scale
    extremal construction).
    """
    if name == "one":
        return completely_multiplicative("one", lambda ps: np.ones(ps.shape), claims_M=True)
    if name == "moebius":
        return MultiplicativeFunction(
            "moebius", lambda ps, k: np.full(ps.shape, -1.0 if k == 1 else 0.0),
            claims_M=True)
    if name == "liouville":
        return completely_multiplicative(
            "liouville", lambda ps: np.full(ps.shape, -1.0), claims_M=True)
    if name == "odd_one":
        return completely_multiplicative(
            "odd_one", lambda ps: np.where(ps == 2, 0.0, 1.0),
            claims_M=True, claims_M2=True)
    if name == "twist":
        if len(params) != 1:
            raise FunctionSpecError("twist builtin takes exactly one parameter t")
        return twist(builtin("one"), params[0])
    if name == "extremal-ref":
        from . import extremal

        return extremal.extremal_function(extremal.reference_spec())
    raise FunctionSpecError(
        f"unknown function {name!r}; valid: one, moebius, liouville, "
        "odd_one, twist, extremal-ref")


def parse_function_spec(spec: str) -> MultiplicativeFunction:
    """CLI mini-language.

    ``one | moebius | liouville | odd_one | extremal-ref |
    twist:<t>:<base-spec> | extremal:<path-to-spec.json>``
    """
    if spec.startswith("twist:"):
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise FunctionSpecError(f"twist spec needs twist:<t>:<base>, got {spec!r}")
        try:
            t = float(parts[1])
        except ValueError:
            raise FunctionSpecError(f"twist parameter {parts[1]!r} is not a number") from None
        return twist(parse_function_spec(parts[2]), t)
    if spec.startswith("extremal:"):
        from . import extremal

        path = spec.split(":", 1)[1]
        return extremal.extremal_function(extremal.load_spec(path))
    return builtin(spec)


# ---------------------------------------------------------------------------
# evaluation


def value_at(f: MultiplicativeFunction, n: int, spf: SpfTable) -> complex:
    """f(n) via smallest-prime-factor factorization."""
    if n == 1:
        return 1.0 + 0.0j
    out = 1.0 + 0.0j
    for p, k in spf.factorize(n):
        out *= f.prime_power(p, k)
    return out


def segment_values(
    f: MultiplicativeFunction, lo: int, hi: int, base: PrimeTable
) -> np.ndarray:
    """f(n) for every n in [lo, hi] as a complex array.

    ``base`` must cover primes up to sqrt(hi).  For each base prime p the
    multiples of p form the strided view [start::p]; the exponent k of p is
    counted there by one strided increment per power p^j with a multiple in
    the segment, and the view is multiplied by f(p^k) (by f(p) alone when
    no p^2 divides any n here) while ``prod`` collects p^k.  The prime
    factor above sqrt(hi) that n may have left is n // prod, one integer
    division per n.  Per-element factor order is ascending prime then
    leftover prime, independent of segmentation.
    """
    if lo < 1 or hi < lo:
        raise CoverageError(f"bad segment [{lo}, {hi}]")
    root = isqrt(hi)
    if base.limit < root:
        raise CoverageError(f"base primes cover {base.limit} < sqrt({hi})")
    size = hi - lo + 1
    vals = np.ones(size, dtype=np.complex128)
    prod = np.ones(size, dtype=np.int64)  # p^k part of each n over the base primes
    for p in base.primes[base.primes <= root].tolist():
        start = -lo % p  # offset of the first multiple of p
        prod[start::p] *= p
        q = p * p
        if -lo % q >= size:  # no n here has p^2 | n, so every exponent is 1
            vals[start::p] *= f.prime_power(p, 1)
            continue
        k = np.ones(len(range(start, size, p)), dtype=np.intp)  # exponent of p along [start::p]
        kmax = 1
        while (s := -lo % q) < size:  # false once q > hi
            k[(s - start) // p :: q // p] += 1  # multiples of q: every (q/p)-th slot
            prod[s::q] *= p
            kmax += 1
            q *= p
        vals[start::p] *= np.array(
            [1.0] + [f.prime_power(p, j) for j in range(1, kmax + 1)])[k]
    rem = np.floor_divide(np.arange(lo, hi + 1, dtype=np.int64), prod, out=prod)
    big = rem > 1
    if big.any():
        vals[big] *= f.prime_values(rem[big])
    return vals


class _Neumaier:
    """Compensated scalar accumulator (Kahan-Babuska)."""

    __slots__ = ("s", "c")

    def __init__(self) -> None:
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float) -> None:
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t

    def total(self) -> float:
        return self.s + self.c


class StreamSummer:
    """Order-deterministic streaming sum with checkpoint snapshots.

    Values arrive as contiguous arrays indexed from absolute position 1.
    Internal block cuts sit at absolute multiples of 4096 and at the
    requested checkpoints, so totals do not depend on feed chunking.
    """

    def __init__(self, checkpoints: Sequence[int] = ()) -> None:
        self._cps = [int(c) for c in checkpoints]
        self._ci = 0
        self._re = _Neumaier()
        self._im = _Neumaier()
        self._buf: list[np.ndarray] = []
        self._buf_start = 1
        self._n_next = 1
        self.checkpoint_values: list[complex] = []

    def _next_cut(self) -> int:
        cut = ((self._buf_start - 1) // _SUM_BLOCK + 1) * _SUM_BLOCK
        if self._ci < len(self._cps):
            cut = min(cut, self._cps[self._ci])
        return cut

    def _take(self, need: int) -> np.ndarray:
        parts = []
        while need:
            head = self._buf[0]
            if head.size <= need:
                parts.append(head)
                need -= head.size
                self._buf.pop(0)
            else:
                parts.append(head[:need])
                self._buf[0] = head[need:]
                need = 0
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _flush_to(self, cut: int) -> None:
        chunk = self._take(cut - self._buf_start + 1)
        s = complex(chunk.sum())
        self._re.add(s.real)
        self._im.add(s.imag)
        self._buf_start = cut + 1

    def feed(self, start: int, vals: np.ndarray) -> None:
        if start != self._n_next:
            raise ValueError(f"stream discontinuity: expected {self._n_next}, got {start}")
        if vals.size:
            self._buf.append(np.asarray(vals, dtype=np.complex128))
            self._n_next += vals.size
        while True:
            cut = self._next_cut()
            if cut > self._n_next - 1:
                break
            self._flush_to(cut)
            if self._ci < len(self._cps) and cut == self._cps[self._ci]:
                self.checkpoint_values.append(self.total())
                self._ci += 1

    def total(self) -> complex:
        return complex(self._re.total(), self._im.total())

    def close(self) -> complex:
        """Flush any partial trailing block and return the grand total."""
        if self._buf_start <= self._n_next - 1:
            self._flush_to(self._n_next - 1)
        return self.total()


def resolve_checkpoints(grid, limit: int) -> list[int]:
    """Expand a grid spec into sorted integer checkpoints in [1, limit].

    ``grid`` is either ``"geometric:<ratio>[:<start>]"`` (default start 10),
    an iterable of integers, or None for the default geometric grid with
    ratio 2^(1/4).  The final point ``limit`` is always included.
    """
    if grid is None:
        grid = f"geometric:{DEFAULT_GRID_RATIO!r}"
    pts: list[int] = []
    if isinstance(grid, str):
        parts = grid.split(":")
        if parts[0] == "geometric":
            if len(parts) not in (2, 3):
                raise FunctionSpecError(f"bad grid spec {grid!r}")
            try:
                ratio = float(parts[1])
                start = float(parts[2]) if len(parts) == 3 else float(DEFAULT_GRID_START)
            except ValueError:
                raise FunctionSpecError(f"bad grid spec {grid!r}") from None
            if ratio <= 1.0:
                raise FunctionSpecError("geometric grid needs ratio > 1")
            x = start
            while x <= limit:
                pts.append(int(x))
                x *= ratio
        elif parts[0] == "explicit":
            if len(parts) != 2:
                raise FunctionSpecError(f"bad grid spec {grid!r}")
            try:
                pts = [int(v) for v in parts[1].split(",") if v]
            except ValueError:
                raise FunctionSpecError(f"bad grid spec {grid!r}") from None
        else:
            raise FunctionSpecError(f"unknown grid kind {parts[0]!r}")
    else:
        pts = [int(v) for v in grid]
    pts.append(limit)
    cps = sorted({p for p in pts if 1 <= p <= limit})
    if not cps:
        raise FunctionSpecError("grid produced no checkpoints in range")
    return cps


def summatory_trace(
    f: MultiplicativeFunction,
    limit: int,
    grid=None,
    segment_size: int = 1 << 18,
    base: PrimeTable | None = None,
    ceiling: int = SUMMATORY_LIMIT_CEILING,
) -> SummatoryTrace:
    """Stream S_f(x) over n = 1..limit, snapshotting at grid checkpoints."""
    if limit < 1:
        raise CoverageError(f"limit must be >= 1, got {limit}")
    if limit > ceiling:
        raise CapacityError(f"limit {limit} exceeds ceiling {ceiling}")
    cps = resolve_checkpoints(grid, limit)
    if base is None:
        base = sieve_primes(max(2, isqrt(limit)))
    summer = StreamSummer(cps)
    summer.feed(1, np.ones(1, dtype=np.complex128))  # n = 1
    lo = 2
    while lo <= limit:
        hi = min(lo + segment_size - 1, limit)
        summer.feed(lo, segment_values(f, lo, hi, base))
        lo = hi + 1
    vals = summer.checkpoint_values
    return SummatoryTrace(
        function_label=f.label,
        xs=np.asarray(cps, dtype=np.int64),
        values=np.asarray(vals, dtype=np.complex128),
        limit=limit,
    )


# ---------------------------------------------------------------------------
# class checking


@dataclass(frozen=True)
class ClassCheckReport:
    function_label: str
    t: float
    sample_limit: int
    m_violations: list[tuple[int, int]]
    m2_violations: list[int]
    cm_violations: list[tuple[int, int]]
    two_adic_failures: list[int]

    @property
    def m_ok(self) -> bool:
        return not self.m_violations

    @property
    def m2_ok(self) -> bool:
        return not self.m2_violations

    @property
    def cm_ok(self) -> bool:
        return not self.cm_violations

    @property
    def two_adic_ok(self) -> bool:
        return not self.two_adic_failures

    def summary(self) -> str:
        lines = [f"function: {self.function_label}"]
        lines.append(f"M (|f(p^k)| <= 1): {'pass' if self.m_ok else f'FAIL at {self.m_violations[0]}'}")
        lines.append(f"M2 (f(2^k) = 0): {'pass' if self.m2_ok else f'FAIL at k={self.m2_violations[0]}'}")
        lines.append(
            "completely multiplicative: "
            + ("pass" if self.cm_ok else f"FAIL at {self.cm_violations[0]}"))
        if self.two_adic_ok:
            lines.append(f"f(2^k) = -2^(ikt) at t={self.t}: pass for all sampled k")
        else:
            lines.append(
                f"f(2^k) = -2^(ikt) at t={self.t}: fails at k={self.two_adic_failures[0]}"
                " -> divergence alternative required")
        return "\n".join(lines)


def two_adic_failures(f: MultiplicativeFunction, t: float, kmax: int) -> list[int]:
    """The k <= kmax where the trivial 2-adic alternative f(2^k) = -2^{ikt}
    fails (tolerance 1e-9)."""
    return [k for k in range(1, kmax + 1)
            if abs(f.prime_power(2, k) + np.exp(1j * k * t * log(2.0))) > 1e-9]


def class_check(
    f: MultiplicativeFunction, sample_limit: int, t: float = 0.0
) -> ClassCheckReport:
    """Verify the class flags over all prime powers <= sample_limit.

    Also tests the trivial 2-adic alternative f(2^k) = -2^{ikt} for every k
    with 2^k <= sample_limit (tolerance 1e-9).
    """
    if sample_limit < 2:
        raise CoverageError("sample_limit must be >= 2")
    ps = sieve_primes(sample_limit).primes
    fp = f.prime_values(ps)
    q = ps  # p^k
    m_bad: list[tuple[int, int]] = []
    m2_bad: list[int] = []
    cm_bad: list[tuple[int, int]] = []
    k = 1
    while ps.size:
        v = np.asarray(f.powers(ps, k), dtype=np.complex128)
        if f.claims_M:
            m_bad += [(int(p), k) for p in ps[np.abs(v) > 1.0 + 1e-12]]
        if f.claims_M2 and v[0] != 0:  # ps[0] = 2 while any prime is left
            m2_bad.append(k)
        if f.completely_multiplicative:
            cm_bad += [(int(p), k) for p in ps[np.abs(v - np.power(fp[: ps.size], k)) > 1e-12]]
        q = q * ps
        keep = q <= sample_limit
        ps, q = ps[keep], q[keep]
        k += 1
    return ClassCheckReport(
        function_label=f.label,
        t=t,
        sample_limit=sample_limit,
        m_violations=sorted(m_bad),
        m2_violations=m2_bad,
        cm_violations=sorted(cm_bad),
        two_adic_failures=two_adic_failures(f, t, sample_limit.bit_length() - 1),
    )
