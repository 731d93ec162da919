"""Multiplicative functions with |f(n)| <= 1 and their summatory traces.

A function is described by its vectorized prime-power rule (ps, k) -> f(p^k)
plus class flags.  Bulk evaluation over a range of n runs as a segmented
sieve driven by base primes up to sqrt(range): strided passes per prime power
and one integer division per n, so traces up to 10^9 stay feasible.  It is
the one route to f(n); tests check it against trial division.

Summation is order-deterministic: values are grouped into blocks aligned to
absolute positions (multiples of 4096) and cut at checkpoints, each block is
np.sum'ed, and block sums enter a compensated accumulator in ascending
order.  So reruns at a fixed segment size are byte-identical, and a
real-valued rule gives bit-identical checkpoints at every segment size.  A
complex rule does not yet: the kernel multiplies one value by f(p) as a
scalar or by a gathered table entry depending on the segment, and the two
can round differently in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, isqrt, log
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, CoverageError, FunctionSpecError
from .primes import PrimeTable, sieve_primes

SUMMATORY_LIMIT_CEILING = 2**34
SEGMENT_SIZE_CEILING = 2**22  # 64 MiB of complex values per segment buffer
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
    _memo: dict = field(default_factory=dict, repr=False)

    def prime_power(self, p: int, k: int) -> complex:
        """f(p^k) for one prime as a Python complex (``_power`` memoizes)."""
        return complex(self._power(p, k))

    def _power(self, p: int, k: int) -> np.generic:
        """f(p^k) as a numpy scalar of the rule's own dtype, memoized."""
        key = (p, k)
        v = self._memo.get(key)
        if v is None:
            v = self._memo[key] = np.asarray(
                self.powers(np.array([p], dtype=np.int64), k))[0]
        return v

    def prime_values(self, ps: np.ndarray) -> np.ndarray:
        """f(p) for an array of primes."""
        return np.asarray(self.powers(ps, 1), dtype=np.complex128)


def completely_multiplicative(
    label: str, fp: Callable[[np.ndarray], np.ndarray],
    claims_M: bool = False,
) -> MultiplicativeFunction:
    """The function with f(p) = fp(ps) and f(p^k) = f(p)^k.

    np.power rather than ``**``: ``array ** 2`` takes numpy's squaring fast
    path, which rounds differently from the power of a single value.
    """
    return MultiplicativeFunction(
        label, lambda ps, k: np.power(fp(ps), k), completely_multiplicative=True,
        claims_M=claims_M)


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
            "odd_one", lambda ps: np.where(ps == 2, 0.0, 1.0), claims_M=True)
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


def _start_dtype(f: MultiplicativeFunction) -> type:
    """complex128 if the rule returns f(2) as complex, float64 otherwise."""
    return np.complex128 if f._power(2, 1).dtype.kind == "c" else np.float64


def _widen(vals: np.ndarray, factor: np.ndarray | np.generic) -> np.ndarray:
    """``vals``, copied to complex128 if ``factor`` is complex and it is not."""
    if factor.dtype.kind == "c" and vals.dtype.kind != "c":
        return vals.astype(np.complex128)
    return vals


def segment_values(
    f: MultiplicativeFunction, lo: int, hi: int, base: PrimeTable,
    vals: np.ndarray | None = None, prod: np.ndarray | None = None,
) -> np.ndarray:
    """f(n) for every n in [lo, hi].

    ``base`` must cover primes up to sqrt(hi).  For each base prime p the
    multiples of p form the strided view [start::p]; the exponent k of p is
    counted there by one strided increment per power p^j with a multiple in
    the segment, and the view is multiplied by f(p^k) (by f(p) alone when
    no p^2 divides any n here) while ``prod`` collects p^k.  The prime
    factor above sqrt(hi) that n may have left is n // prod, one integer
    division per n, and multiplies in through its indices.  Per-element
    factor order is ascending prime then leftover prime, independent of
    segmentation.

    ``vals`` (float64 or complex128) and ``prod`` (int64) are optional work
    buffers of length hi - lo + 1; by default ``vals`` is complex128 when
    f(2) is complex.  Float64 values switch to complex128 at the first
    complex f(p^k), so no imaginary part is lost; the result is then a new
    array rather than ``vals``.  While every factor is real, the values are
    the real parts a complex128 pass would give, up to the sign of zeros.
    """
    if lo < 1 or hi < lo:
        raise CoverageError(f"bad segment [{lo}, {hi}]")
    root = isqrt(hi)
    if base.limit < root:
        raise CoverageError(f"base primes cover {base.limit} < sqrt({hi})")
    size = hi - lo + 1
    if vals is None:
        vals = np.empty(size, dtype=_start_dtype(f))
    if prod is None:
        prod = np.empty(size, dtype=np.int64)
    vals.fill(1.0)
    prod.fill(1)  # p^k part of each n over the base primes
    for p in base.primes[base.primes <= root].tolist():
        start = -lo % p  # offset of the first multiple of p
        prod[start::p] *= p
        q = p * p
        if -lo % q >= size:  # no n here has p^2 | n, so every exponent is 1
            fp = f._power(p, 1)
            vals = _widen(vals, fp)
            vals[start::p] *= fp
            continue
        k = np.ones(len(range(start, size, p)), dtype=np.intp)  # exponent of p along [start::p]
        kmax = 1
        while (s := -lo % q) < size:  # false once q > hi
            k[(s - start) // p :: q // p] += 1  # multiples of q: every (q/p)-th slot
            prod[s::q] *= p
            kmax += 1
            q *= p
        table = np.array([1.0] + [f._power(p, j) for j in range(1, kmax + 1)])
        vals = _widen(vals, table)
        vals[start::p] *= table[k]
    rem = np.floor_divide(np.arange(lo, hi + 1, dtype=np.int64), prod, out=prod)
    big = np.flatnonzero(rem > 1)
    if big.size:
        fp = np.asarray(f.powers(rem[big], 1))
        vals = _widen(vals, fp)
        vals[big] *= fp
    return vals


def _value_segments(
    f: MultiplicativeFunction, lo: int, hi: int, base: PrimeTable, segment_size: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """(start, f(start..end)) for consecutive segments of [lo, hi].

    One pair of work buffers serves every segment, so each array is valid
    only until the next one is yielded.  A float64 value buffer is replaced
    by a complex128 one once the rule has returned a complex value.
    """
    size = min(segment_size, hi - lo + 1)
    vals = np.empty(size, dtype=_start_dtype(f))
    prod = np.empty(size, dtype=np.int64)
    while lo <= hi:
        n = min(size, hi - lo + 1)
        out = segment_values(f, lo, lo + n - 1, base, vals[:n], prod[:n])
        if out.dtype != vals.dtype:
            vals = np.empty(size, dtype=out.dtype)
        yield lo, out
        lo += n


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
    Between feeds only the unflushed tail (under one block) is kept.
    """

    def __init__(self, checkpoints: Sequence[int] = ()) -> None:
        self._cps = [int(c) for c in checkpoints]
        self._ci = 0
        self._re = _Neumaier()
        self._im = _Neumaier()
        self._tail = np.zeros(0, dtype=np.complex128)  # fed, not yet summed
        self._buf_start = 1  # absolute position of _tail[0]
        self._n_next = 1
        self.checkpoint_values: list[complex] = []

    def _next_cut(self) -> int:
        cut = ((self._buf_start - 1) // _SUM_BLOCK + 1) * _SUM_BLOCK
        if self._ci < len(self._cps):
            cut = min(cut, self._cps[self._ci])
        return cut

    def _flush(self, head: np.ndarray) -> None:
        """Sum the tail followed by ``head`` as one block."""
        chunk = np.concatenate((self._tail, head)) if self._tail.size else head
        s = complex(chunk.sum())
        self._re.add(s.real)
        self._im.add(s.imag)
        self._buf_start += chunk.size
        self._tail = self._tail[:0]

    def feed(self, start: int, vals: np.ndarray) -> None:
        if start != self._n_next:
            raise ValueError(f"stream discontinuity: expected {self._n_next}, got {start}")
        vals = np.asarray(vals, dtype=np.complex128)
        self._n_next += vals.size
        i = 0  # vals[:i] is summed
        while (cut := self._next_cut()) < self._n_next:
            j = i + cut - self._buf_start + 1 - self._tail.size
            self._flush(vals[i:j])
            i = j
            if self._ci < len(self._cps) and cut == self._cps[self._ci]:
                self.checkpoint_values.append(self.total())
                self._ci += 1
        self._tail = np.concatenate((self._tail, vals[i:]))  # a copy: never pin ``vals``

    def total(self) -> complex:
        return complex(self._re.total(), self._im.total())

    def close(self) -> complex:
        """Flush any partial trailing block and return the grand total."""
        if self._tail.size:
            self._flush(self._tail[:0])  # the tail alone
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
) -> SummatoryTrace:
    """Stream S_f(x) over n = 1..limit, snapshotting at grid checkpoints."""
    if limit < 1:
        raise CoverageError(f"limit must be >= 1, got {limit}")
    if limit > SUMMATORY_LIMIT_CEILING:
        raise CapacityError(f"limit {limit} exceeds ceiling {SUMMATORY_LIMIT_CEILING}")
    if segment_size > SEGMENT_SIZE_CEILING:
        raise CapacityError(
            f"segment size {segment_size} exceeds ceiling {SEGMENT_SIZE_CEILING}")
    cps = resolve_checkpoints(grid, limit)
    base = sieve_primes(max(2, isqrt(limit)))
    summer = StreamSummer(cps)
    summer.feed(1, np.ones(1, dtype=np.complex128))  # n = 1
    for lo, seg in _value_segments(f, 2, limit, base, segment_size):
        summer.feed(lo, seg)
    vals = summer.checkpoint_values
    return SummatoryTrace(
        function_label=f.label,
        xs=np.asarray(cps, dtype=np.int64),
        values=np.asarray(vals, dtype=np.complex128),
        limit=limit,
    )


# ---------------------------------------------------------------------------
# the 2-adic alternative


def two_adic_failures(f: MultiplicativeFunction, t: float, kmax: int) -> list[int]:
    """The k <= kmax where the trivial 2-adic alternative f(2^k) = -2^{ikt}
    fails (tolerance 1e-9)."""
    return [k for k in range(1, kmax + 1)
            if abs(f.prime_power(2, k) + np.exp(1j * k * t * log(2.0))) > 1e-9]
