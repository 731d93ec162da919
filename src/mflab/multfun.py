"""Multiplicative functions with |f(n)| <= 1 and their summatory traces.

A function is described by its vectorized prime-power rule (ps, k) -> f(p^k)
plus class flags.  Bulk evaluation over a range of n runs as a segmented
sieve driven by base primes up to sqrt(range): strided passes per prime power
into a float64 p-part product (exact below 2^53) and one float64 division
per n, each step per n over sub-blocks of the segment, so traces up to 10^9
stay feasible in memory bounded per segment.  Values take the narrowest exact
rung of int8 (f in {-1, 0, 1}), float64 and complex128; a twist f(n) n^{-it}
takes its base's rung times one unit per n.  It is the one route to f(n);
tests check it against trial division.

Summation is order-deterministic: values are grouped into blocks aligned to
absolute positions (multiples of 4096) and cut at checkpoints, each block is
np.sum'ed (int8 blocks as exact integers), and block sums enter a
compensated accumulator in ascending order.  Each f(n) is the same
sequence of products at any segment size (see _times), so reruns are
byte-identical, and every rule and twist gives bit-identical checkpoints at
every segment size.  summatory_trace runs the kernel in forked workers over
stripes of whole blocks and adds their block sums in order, so the bits do
not depend on the number of workers either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, isfinite, isqrt, log
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, CoverageError, FunctionSpecError
from .primes import PrimeTable, sieve_primes

SUMMATORY_LIMIT_CEILING = 2**34
SEGMENT_SIZE_CEILING = 2**22  # 64 MiB of complex values per segment buffer
DEFAULT_GRID_RATIO = 2.0 ** 0.25
DEFAULT_GRID_START = 10
GRID_STEP_CEILING = 10**5  # geometric steps, each one checkpoint before duplicates go
_SUM_BLOCK = 4096
_SUB_BLOCK = 1 << 13  # entries per elementwise step of segment_values


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
    twisted: tuple | None = field(default=None, repr=False)  # (base, t) from twist()

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
    path, which rounds differently from the power of a single value.  For
    k = 1 it runs only on complex zeros, which it turns into +0 + 0i.
    """
    def powers(ps: np.ndarray, k: int) -> np.ndarray:
        v = np.asarray(fp(ps))
        return v if k == 1 and (v.dtype.kind != "c" or v.all()) else np.power(v, k)

    return MultiplicativeFunction(
        label, powers, completely_multiplicative=True, claims_M=claims_M)


@dataclass(frozen=True)
class SummatoryTrace:
    """Checkpointed partial sums S_f(x) = sum_{n<=x} f(n)."""

    function_label: str
    xs: np.ndarray
    values: np.ndarray


# ---------------------------------------------------------------------------
# builtins and the function-spec mini-language


def unit_power(log_n: np.ndarray, t: float, out: np.ndarray | None = None) -> np.ndarray:
    """n^{-it} in one complex array, (cos phi, sin phi) with phi = -t log n:
    the bits of np.exp(-1j * t * log_n) at about 2/3 of its cost."""
    u = np.empty(log_n.shape, dtype=np.complex128) if out is None else out
    np.multiply(log_n, -t, out=u.imag)
    np.cos(u.imag, out=u.real)
    np.sin(u.imag, out=u.imag)
    return u


def twist(base: MultiplicativeFunction, t: float) -> MultiplicativeFunction:
    """f(p^k) = base(p^k) * p^{-ikt}; preserves |f| and all class flags."""
    t = float(t)
    if not isfinite(t):
        raise FunctionSpecError(f"twist parameter must be finite, got {t!r}")

    def powers(ps: np.ndarray, k: int) -> np.ndarray:
        return base.powers(ps, k) * unit_power(np.log(ps.astype(np.float64)), k * t)

    return MultiplicativeFunction(
        label=f"twist:{t!r}:{base.label}",
        powers=powers,
        completely_multiplicative=base.completely_multiplicative,
        claims_M=base.claims_M,
        twisted=(base, t),
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


def _rung(v: np.ndarray | np.generic) -> type:
    """The lowest rung, int8 -> float64 -> complex128, that holds ``v`` exactly."""
    if v.dtype.kind == "c":
        return np.complex128
    return np.int8 if ((v == 0) | (abs(v) == 1)).all() else np.float64


def _widen(vals: np.ndarray, dtype) -> np.ndarray:
    """``vals``, copied up the ladder if it cannot hold ``dtype``."""
    wide = np.promote_types(vals.dtype, dtype)
    return vals if wide == vals.dtype else vals.astype(wide)


def _int8_steps(f: MultiplicativeFunction, p: int, levels: int) -> tuple | None:
    """Per power p^j, j <= levels, the int8 rung's step from f(p^{j-1}) to
    f(p^j): the sign of the change, or 0 to zero.  None (also memoized) if
    a value is not a real -1, 0 or 1, or is nonzero after a 0."""
    key = ("int8", p, levels)
    if key not in f._memo:
        fs = [1, *(f._power(p, j) for j in range(1, levels + 1))]
        pairs = list(zip(fs, fs[1:]))  # (f(p^{j-1}), f(p^j))
        exact = all(v.dtype.kind != "c" and v in (-1, 0, 1) and (a or not v) for a, v in pairs)
        f._memo[key] = tuple(int(a * v) if a else 1 for a, v in pairs) if exact else None
    return f._memo[key]


def _untwist(f: MultiplicativeFunction) -> tuple[MultiplicativeFunction, float]:
    """(base, t) with f = twist(base, t), base no twist (t = 0.0 if f is none)."""
    t = 0.0
    while f.twisted:
        f, t = f.twisted[0], t + f.twisted[1]
    return f, t


def segment_values(
    f: MultiplicativeFunction, lo: int, hi: int, base: PrimeTable,
    vals: np.ndarray | None = None, prod: np.ndarray | None = None, out: np.ndarray | None = None,
) -> np.ndarray:
    """f(n) for every n in [lo, hi].

    ``base`` must cover primes up to sqrt(hi).  Each power p^j of a base
    prime with a multiple here gives a strided view [s::p^j], in which
    ``prod`` collects the p-part of n.  The prime above sqrt(hi) that n may
    have left is n / prod, an exact float64 division (both are integers
    below 2^53), and multiplies in through its indices.

    Values climb the rungs int8 -> float64 -> complex128.  In int8 (every
    f(p^k) read is -1, 0 or 1) each p^j takes the step from f(p^{j-1}) to
    f(p^j): it zeroes its multiples in ``vals`` or multiplies them by -p in
    ``prod``, whose signs reach ``vals`` after the division.  A step int8
    cannot take (a value outside {-1, 0, 1}, or f(p^{j-1}) = 0 != f(p^j))
    widens the segment first.  Above int8 the view of p is multiplied by
    f(p) when no p^2 divides any n here, else by f(p^k) per multiple, in
    ascending prime order, then by the leftover prime's value.  Every rung
    gives the numbers of a complex128 pass, up to the sign of zeros.  A
    twist(base, t) runs base so, then multiplies in one unit n^{-it} =
    unit_power(log n, t) per n.

    ``vals`` (on the rung of the base's f(2) by default), ``prod`` (float64)
    and ``out`` (complex128, for a twist) are optional work buffers of length
    hi - lo + 1; a widened base is a new array rather than ``vals``.  All
    but the strided passes run _SUB_BLOCK entries at a time into them.
    """
    if lo < 1 or hi < lo:
        raise CoverageError(f"bad segment [{lo}, {hi}]")
    root = isqrt(hi)
    if base.limit < root:
        raise CoverageError(f"base primes cover {base.limit} < sqrt({hi})")
    size = hi - lo + 1
    twisted, (f, t) = f.twisted, _untwist(f)
    vals = np.empty(size, dtype=_rung(f._power(2, 1))) if vals is None else vals
    prod = np.empty(size, dtype=np.float64) if prod is None else prod
    signed = vals.dtype == np.int8  # int8 steps keep their signs in prod
    vals.fill(1)
    prod.fill(1.0)  # p-part of each n over the base primes
    for p in base.primes[base.primes <= root].tolist():
        views = []  # (offset, p^j) of the multiples of each power of p here
        q = p
        while (s := -lo % q) < size:  # false once q > hi
            views.append((s, q))
            q *= p
        if not views:
            continue
        steps = _int8_steps(f, p, len(views)) if vals.dtype == np.int8 else None
        for (s, q), step in zip(views, steps or (1,) * len(views)):
            prod[s::q] *= p * (step or 1)
            if not step:
                vals[s::q] = 0
        if steps is not None:
            continue
        fs = [f._power(p, j) for j in range(1, len(views) + 1)]
        dtype = np.result_type(np.float64, *fs)
        if vals.dtype != np.complex128:
            vals = _widen(vals, dtype)
        start = views[0][0]
        view = vals[start::p]
        if len(fs) == 1:
            _times(view, fs[0])
            continue
        for i in range(0, view.size, _SUB_BLOCK):  # f(p^k) of each multiple of p
            x = np.full(min(_SUB_BLOCK, view.size - i), fs[0], dtype)
            for (s, q), v in zip(views[1:], fs[1:]):  # multiples of q: every (q/p)-th slot
                x[((s - start) // p - i) % (q // p) :: q // p] = v
            _times(view[i : i + x.size], x)
    out = np.empty(size, dtype=np.complex128) if twisted and out is None else out
    for a in range(0, size, _SUB_BLOCK):
        b = min(a + _SUB_BLOCK, size)
        n = np.arange(lo + a, lo + b, dtype=np.float64)
        rem = np.divide(n, prod[a:b], out=prod[a:b])
        if signed:
            _times(vals[a:b], 1 - 2 * (rem < 0).view(np.int8))
            np.abs(rem, out=rem)
        big = np.flatnonzero(rem > 1)
        if big.size:
            ps = rem.view(np.int64)[:big.size]  # leftover primes over spent quotients
            ps[:] = rem[big]
            fp = np.asarray(f.powers(ps, 1))
            vals = _widen(vals, _rung(fp))
            vals[a:b][big] = _times(vals[a:b][big], fp.astype(vals.dtype, copy=False))
        if twisted:
            _times(unit_power(np.log(n, out=n), t, out[a:b]), vals[a:b])
    return out if twisted else vals


def _times(a: np.ndarray, b) -> np.ndarray:
    """a *= b, returning ``a``, but formed out of place for one complex value:
    numpy 2.4 on AVX-512 rounds that in-place product otherwise than in a
    longer array."""
    if a.size == 1 and a.dtype.kind == "c":
        a[...] = a * b
    else:
        np.multiply(a, b, out=a)
    return a


def _value_segments(
    f: MultiplicativeFunction, spans: Sequence[tuple[int, int]], base: PrimeTable,
    segment_size: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """(start, f(start..end)) for consecutive segments of each span [lo, hi]
    in turn.

    One set of work buffers serves every segment, so each array is valid
    only until the next one is yielded.  Once a segment of a rule that is no
    twist has widened, it (or, if shorter, a buffer of its type) is the
    value buffer of the segments after it.
    """
    size = min(segment_size, max(hi - lo + 1 for lo, hi in spans))
    vals = np.empty(size, dtype=_rung(_untwist(f)[0]._power(2, 1)))
    prod = np.empty(size, dtype=np.float64)
    out = np.empty(size, dtype=np.complex128) if f.twisted else None  # a twist's values
    for lo, hi in spans:
        while lo <= hi:
            n = min(size, hi - lo + 1)
            seg = segment_values(f, lo, lo + n - 1, base, vals[:n], prod[:n], out if out is None else out[:n])
            if seg.dtype != vals.dtype and not f.twisted:  # widened
                vals = seg if n == size else np.empty(size, seg.dtype)
            yield lo, seg
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
    """Order-deterministic streaming sum with checkpoint snapshots: the one
    ordered sum of mflab, over n and over primes alike.

    Values take positions 1, 2, ... in the order they are fed.  Blocks are
    cut at positions that are multiples of 4096 and at the checkpoints; each
    block is np.sum'ed (int8 blocks as exact integers) and the block sums
    enter a compensated accumulator in ascending order, so a sum and its
    checkpoints have the same bits at any feed chunking.  Between feeds only
    the unsummed tail (under one block) is kept.

    ``checkpoints`` are ascending cutoffs on a key per value: its position,
    or the ascending ``keys`` fed with the values (the primes of a prime
    sum).  A checkpoint takes the sum just before the first value whose key
    exceeds it; one still open when the stream closes takes the total.
    """

    def __init__(self, checkpoints: Sequence = ()) -> None:
        self._cps = list(checkpoints)
        self._re = _Neumaier()
        self._im = _Neumaier()
        self._tail = np.zeros(0, dtype=np.complex128)  # fed, not yet summed
        self._buf_start = 1  # position of _tail[0]
        self._n_next = 1
        self.checkpoint_values: list[complex] = []

    def _next_cut(self, lo: int, keys: np.ndarray | None) -> tuple[int, bool]:
        """The position that ends the next block, and whether the open
        checkpoint is taken there; ``keys`` start at position ``lo``."""
        cut = ((self._buf_start - 1) // _SUM_BLOCK + 1) * _SUM_BLOCK
        if len(self.checkpoint_values) == len(self._cps):
            return cut, False
        cp = self._cps[len(self.checkpoint_values)]
        if keys is not None:  # the last key <= cp is known once a key exceeds it
            i = int(np.searchsorted(keys, cp, side="right"))
            cp = lo - 1 + i if i < keys.size else self._n_next
        return min(cut, cp), cp <= cut

    def _flush(self, head: np.ndarray) -> None:
        """Sum the tail followed by ``head`` as one block (none if empty)."""
        chunk = np.concatenate((self._tail, head)) if self._tail.size else head
        if not chunk.size:
            return
        if chunk.dtype != np.int8:  # int8 blocks sum as exact integers, uncopied
            chunk = chunk.astype(np.complex128, copy=False)  # a block, not the feed, at a time
        s = chunk.sum()
        self._add(float(s.real), float(s.imag))
        self._buf_start += chunk.size
        self._tail = self._tail[:0]

    def _add(self, re: float, im: float) -> None:  # one block's sum
        self._re.add(re)
        self._im.add(im)

    def _take(self) -> None:  # the open checkpoint, after the block just added
        self.checkpoint_values.append(self.total())

    def feed(self, start: int | None, vals: np.ndarray, keys: np.ndarray | None = None) -> None:
        """Append ``vals``.  ``start``, unless None, must be the position of
        vals[0]; ``keys`` (for cutoffs on keys) continue the ascending keys
        fed before."""
        lo = self._n_next
        if start is not None and start != lo:
            raise ValueError(f"stream discontinuity: expected {lo}, got {start}")
        self._n_next += vals.size
        i = 0  # vals[:i] is summed
        cut, taken = self._next_cut(lo, keys)
        while cut < self._n_next:
            j = i + cut - self._buf_start + 1 - self._tail.size
            self._flush(vals[i:j])
            i = j
            if taken:
                self._take()
            cut, taken = self._next_cut(lo, keys)
        self._tail = np.concatenate((self._tail, vals[i:]))  # a copy: never pin ``vals``

    def total(self) -> complex:
        return complex(self._re.total(), self._im.total())

    def close(self) -> complex:
        """Flush any partial trailing block and return the grand total,
        which every checkpoint still open takes."""
        self._flush(self._tail[:0])  # the tail alone
        total = self.total()
        self.checkpoint_values += [total] * (len(self._cps) - len(self.checkpoint_values))
        return total


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
            if not (ratio > 1.0 and 0.0 < start < float("inf")):
                raise FunctionSpecError("geometric grid needs ratio > 1 and a finite start > 0")
            if (steps := ceil(log(limit / start) / log(ratio))) > GRID_STEP_CEILING:
                raise CapacityError(f"geometric grid of {steps} steps exceeds {GRID_STEP_CEILING}")
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
    """Stream S_f(x) over n = 1..limit, snapshotting at grid checkpoints.

    The segment kernel runs in forked workers, and this process adds their
    block sums in order (workers.checkpoint_sums)."""
    if limit < 1:
        raise CoverageError(f"limit must be >= 1, got {limit}")
    if limit > SUMMATORY_LIMIT_CEILING:
        raise CapacityError(f"limit {limit} exceeds ceiling {SUMMATORY_LIMIT_CEILING}")
    if segment_size > SEGMENT_SIZE_CEILING:
        raise CapacityError(
            f"segment size {segment_size} exceeds ceiling {SEGMENT_SIZE_CEILING}")
    cps = resolve_checkpoints(grid, limit)
    base = sieve_primes(max(2, isqrt(limit)))
    from .workers import checkpoint_sums  # compiled only by the commands that trace

    return SummatoryTrace(
        function_label=f.label,
        xs=np.asarray(cps, dtype=np.int64),
        values=np.asarray(checkpoint_sums(f, limit, cps, base, segment_size), dtype=np.complex128),
    )


# ---------------------------------------------------------------------------
# the 2-adic alternative


def two_adic_failures(f: MultiplicativeFunction, t: float, kmax: int) -> list[int]:
    """The k <= kmax where the trivial 2-adic alternative f(2^k) = -2^{ikt}
    fails (tolerance 1e-9)."""
    return [k for k in range(1, kmax + 1)
            if abs(f.prime_power(2, k) + np.exp(1j * k * t * log(2.0))) > 1e-9]
