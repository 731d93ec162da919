"""Multiplicative functions with |f(n)| <= 1 and their summatory traces.

A function is described by its vectorized prime-power rule (ps, k) -> f(p^k)
alone.  Bulk evaluation over a range of n runs as a segmented
sieve driven by base primes up to sqrt(range): strided passes per prime power
into a float64 p-part product (exact below 2^53) and one float64 division
per n, each step per n over sub-blocks of the segment, so traces up to 10^9
stay feasible in memory bounded per segment.  Values take one of two rungs:
int8, exact while f is -1, 0 or 1, else complex128; a twist f(n) n^{-it}
takes its base's rung times one unit per n.  It is the one route to f(n);
tests check it against trial division.

Summation is order-deterministic (StreamSummer): values are grouped into
blocks aligned to absolute keys (positions n at multiples of 4096, primes p
at multiples of 2^16) and cut at checkpoints, each block is np.sum'ed (int8
blocks as exact integers), and block sums enter a compensated accumulator
in ascending order.  Each f(n) is the same
sequence of products at any segment size (see _times), so reruns are
byte-identical, and every rule and twist gives bit-identical checkpoints at
every segment size.  summatory_trace runs the kernel in forked workers over
stripes of whole blocks and adds their block sums in order, so the bits do
not depend on the number of workers either.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import takewhile, zip_longest
from math import ceil, isfinite, isqrt, log
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, CoverageError, DomainError, FunctionSpecError
from .primes import sieve_primes

SUMMATORY_LIMIT_CEILING = 2**34
SEGMENT_SIZE_CEILING = 2**22  # 64 MiB of complex values per segment buffer
DEFAULT_GRID_RATIO = 2.0 ** 0.25
DEFAULT_GRID_START = 10
GRID_STEP_CEILING = 10**5  # geometric steps, each one checkpoint before duplicates go
# Largest height |t| a caller may give (--t, --t0, a twist's t), and zeta's
# (see dirichlet.zeta): the phase t log n loses a digit per decade of |t|.
ZETA_HEIGHT_CEILING = 1e8
_SUM_BLOCK = 4096  # StreamSummer block width in n
PRIME_BLOCK = 1 << 16  # and in p; a divisor of the 2^20 of a sieve segment
_SUB_BLOCK = 1 << 13  # entries per elementwise step of segment_values


class MultiplicativeFunction(NamedTuple):
    """A multiplicative f given by its prime-power rule.

    ``powers(ps, k)`` returns f(p^k) for an int64 array of primes and one
    k >= 1; f(1) = 1 by convention.  It is the function's only definition:
    segmented evaluation, single values and every prime sum read it.
    ``completely_multiplicative`` builds one from f(p) alone.  Every
    route's bound assumes |f(p^k)| <= 1 (class M), which no route checks.
    ``reach(e0, t0, P)``, if set, is the last p <= P where g(p) of alignment_terms may be nonzero.
    """

    label: str
    powers: Callable[[np.ndarray, int], np.ndarray]
    completely_multiplicative: bool = False
    twisted: tuple | None = None  # (base, t) from twist()
    reach: Callable[[int, float, int], int] | None = None

    def prime_power(self, p: int, k: int) -> complex:
        """f(p^k) for one prime as a Python complex."""
        return complex(np.asarray(self.powers(np.array([p], dtype=np.int64), k))[0])

    def prime_values(self, ps: np.ndarray) -> np.ndarray:
        """f(p) for an array of primes."""
        return np.asarray(self.powers(ps, 1), dtype=np.complex128)


def completely_multiplicative(
    label: str, fp: Callable[[np.ndarray], np.ndarray], reach=None,
) -> MultiplicativeFunction:
    """The function with f(p) = fp(ps) and f(p^k) = f(p)^k.

    np.power rather than ``**``: ``array ** 2`` takes numpy's squaring fast
    path, which rounds differently from the power of a single value.  For
    k = 1 it runs only on complex zeros, which it turns into +0 + 0i.
    """
    def powers(ps: np.ndarray, k: int) -> np.ndarray:
        v = np.asarray(fp(ps))
        return v if k == 1 and (v.dtype.kind != "c" or v.all()) else np.power(v, k)

    return MultiplicativeFunction(label, powers, completely_multiplicative=True, reach=reach)


class SummatoryTrace(NamedTuple):
    """Checkpointed partial sums S_f(x) = sum_{n<=x} f(n)."""

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


def check_height(t: float) -> None:
    """DomainError if |t| exceeds ZETA_HEIGHT_CEILING."""
    if abs(t) > ZETA_HEIGHT_CEILING:
        raise DomainError(f"height |t| = {abs(t)!r} exceeds ceiling {ZETA_HEIGHT_CEILING!r}")


def check_folded_height(f: MultiplicativeFunction, t: float) -> None:
    """check_height of t with f's twists folded in: the height of the phases
    of f(n) n^{-it}, which a route that folds a twist into t computes at."""
    check_height(_untwist(f)[1] + t)


def twist(base: MultiplicativeFunction, t: float) -> MultiplicativeFunction:
    """f(p^k) = base(p^k) * p^{-ikt}; preserves |f| and complete multiplicativity."""
    t = float(t)
    if not isfinite(t):
        raise FunctionSpecError(f"twist parameter must be finite, got {t!r}")
    check_folded_height(base, t)  # the height of the phases of f

    def powers(ps: np.ndarray, k: int) -> np.ndarray:
        return base.powers(ps, k) * unit_power(np.log(ps.astype(np.float64)), k * t)

    return MultiplicativeFunction(
        label=f"twist:{t!r}:{base.label}",
        powers=powers,
        completely_multiplicative=base.completely_multiplicative,
        twisted=(base, t),
        reach=base.reach and (lambda e0, t0, P: base.reach(e0, t0 + t, P)),  # alignment_terms' fold
    )


def _constant_reach(c: float, p0: int = 1):
    """reach of f(p) = c for p > p0: p0 where g(p) = 1 + e0 c is 0.0 at t0 = 0 (no unit)."""
    return lambda e0, t0, P: p0 if t0 == 0.0 and 1.0 + e0 * c == 0.0 else P


def builtin(name: str) -> MultiplicativeFunction:
    """Construct a named test-corpus function.

    Known names: one, moebius, liouville, odd_one, extremal-ref (the
    reference desk-scale extremal construction).  A twist is the spec
    ``twist:<t>:<base>`` or ``twist(base, t)``.
    """
    if name == "one":
        return completely_multiplicative("one", lambda ps: np.ones(ps.shape), _constant_reach(1.0))
    if name == "moebius":
        return MultiplicativeFunction(
            "moebius", lambda ps, k: np.full(ps.shape, -1.0 if k == 1 else 0.0),
            reach=_constant_reach(-1.0))
    if name == "liouville":
        return completely_multiplicative("liouville", lambda ps: np.full(ps.shape, -1.0),
                                         _constant_reach(-1.0))
    if name == "odd_one":
        return completely_multiplicative("odd_one", lambda ps: np.where(ps == 2, 0.0, 1.0),
                                         _constant_reach(1.0, 2))
    if name == "extremal-ref":
        from . import extremal

        return extremal.extremal_function(extremal.reference_spec())
    raise FunctionSpecError(
        f"unknown function {name!r}; valid: one, moebius, liouville, odd_one, "
        "extremal-ref, twist:<t>:<base>, extremal:<path>")


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
    """int8 if it holds ``v`` exactly (every value -1, 0 or 1), else complex128."""
    exact = v.dtype.kind != "c" and ((v == 0) | (abs(v) == 1)).all()
    return np.int8 if exact else np.complex128


def _untwist(f: MultiplicativeFunction) -> tuple[MultiplicativeFunction, float]:
    """(base, t) with f = twist(base, t), base no twist (t = 0.0 if f is none)."""
    t = 0.0
    while f.twisted:
        f, t = f.twisted[0], t + f.twisted[1]
    return f, t


KernelBase = NamedTuple("KernelBase", [("f", MultiplicativeFunction), ("limit", int),
                                       ("rows", list)])


def kernel_base(f: MultiplicativeFunction, limit: int) -> KernelBase:
    """What the segment kernel reads of rule ``f`` for n <= ``limit``, built
    once per stream: rows (p, fs, steps) per base prime p <= sqrt(limit),
    ascending.  fs holds f(p^j) of the untwisted rule for each p^j <= limit
    as numpy scalars, from one ``powers`` call per j on the primes that have
    it (a prefix), which gives each prime the bits of a call on it alone.
    steps holds the int8 rung's step from f(p^{j-1}) to f(p^j), the sign of
    the change or 0 to zero, over the longest prefix of fs that int8 can
    take: real values -1, 0 or 1, none nonzero after a 0."""
    g, ps = _untwist(f)[0], sieve_primes(max(2, isqrt(limit)))
    cols, q = [], ps  # q: p^j of the primes with p^j <= limit (every base prime at j = 1)
    while q.size:
        cols.append(np.asarray(g.powers(ps[: q.size], len(cols) + 1)))
        q = q * ps[: q.size]
        q = q[q <= limit]
    rows = []
    for p, vs in zip(ps.tolist(), zip_longest(*cols)):
        fs = [v for v in vs if v is not None]
        exact = takewhile(lambda av: av[1].dtype.kind != "c" and av[1] in (-1, 0, 1)
                          and (av[0] or not av[1]), zip([1, *fs], fs))  # (f(p^{j-1}), f(p^j))
        rows.append((p, fs, [int(a * v) if a else 1 for a, v in exact]))
    return KernelBase(f, limit, rows)


def segment_values(
    f: MultiplicativeFunction, lo: int, hi: int, base: KernelBase,
    vals: np.ndarray | None = None, prod: np.ndarray | None = None, out: np.ndarray | None = None,
) -> np.ndarray:
    """f(n) for every n in [lo, hi].

    ``base`` is kernel_base(f, limit) for some limit >= hi.  Each power
    p^j of a base prime with a multiple here gives a strided view [s::p^j],
    in which ``prod`` collects the p-part of n.  The prime above sqrt(hi)
    that n may have left is n / prod, an exact float64 division (both are
    integers below 2^53), and multiplies in through its indices.

    Values are int8 while every f(p^k) read is -1, 0 or 1, else complex128.
    In int8 each p^j takes the step from f(p^{j-1}) to f(p^j): it zeroes its
    multiples in ``vals`` or multiplies them by -p in ``prod``, whose signs
    reach ``vals`` after the division.  A step int8 cannot take (a value
    outside {-1, 0, 1}, or f(p^{j-1}) = 0 != f(p^j)) widens the segment to
    complex128 first.  There the view of p is multiplied by f(p) when no p^2
    divides any n here, else by f(p^k) per multiple, in ascending prime
    order, then by the leftover prime's value.  The int8 rung gives the
    numbers of a complex128 pass, up to the sign of zeros.  A
    twist(base, t) runs base so, then multiplies in one unit n^{-it} =
    unit_power(log n, t) per n.

    ``vals`` (on the rung of the base's f(2) by default), ``prod`` (float64)
    and ``out`` (complex128, for a twist) are optional work buffers of length
    hi - lo + 1; a widened base is a new array rather than ``vals``.  All
    but the strided passes run _SUB_BLOCK entries at a time into them.
    """
    if lo < 1 or hi < lo:
        raise CoverageError(f"bad segment [{lo}, {hi}]")
    if base.f is not f or base.limit < hi:
        raise CoverageError(f"kernel base {base.f.label}:{base.limit} misses {f.label}:{hi}")
    root = isqrt(hi)
    size = hi - lo + 1
    twisted, (f, t) = f.twisted, _untwist(f)
    vals = np.empty(size, dtype=_rung(base.rows[0][1][0])) if vals is None else vals
    prod = np.empty(size, dtype=np.float64) if prod is None else prod
    signed = vals.dtype == np.int8  # int8 steps keep their signs in prod
    vals.fill(1)
    prod.fill(1.0)  # p-part of each n over the base primes
    for p, fs, int8 in takewhile(lambda row: row[0] <= root, base.rows):
        views = []  # (offset, p^j) of the multiples of each power of p here
        q = p
        while (s := -lo % q) < size:  # false once q > hi
            views.append((s, q))
            q *= p
        if not views:
            continue
        steps = int8 if vals.dtype == np.int8 and len(int8) >= len(views) else None
        for (s, q), step in zip(views, steps or (1,) * len(views)):
            prod[s::q] *= p * (step or 1)
            if not step:
                vals[s::q] = 0
        if steps is not None:
            continue
        fs = fs[: len(views)]
        vals = vals.astype(np.complex128, copy=False)
        start = views[0][0]
        view = vals[start::p]
        if len(fs) == 1:
            _times(view, fs[0])
            continue
        for i in range(0, view.size, _SUB_BLOCK):  # f(p^k) of each multiple of p
            x = np.full(min(_SUB_BLOCK, view.size - i), fs[0], np.complex128)
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
            vals = vals.astype(np.promote_types(vals.dtype, _rung(fp)), copy=False)
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
    base: KernelBase, spans: Sequence[tuple[int, int]], segment_size: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """(start, f(start..end)) of the rule f of ``base`` for consecutive
    segments of each span [lo, hi] in turn.

    One set of work buffers serves every segment, so each array is valid
    only until the next one is yielded.  Once a segment of a rule that is no
    twist has widened, it (or, if shorter, a buffer of its type) is the
    value buffer of the segments after it.
    """
    f, size = base.f, min(segment_size, max(hi - lo + 1 for lo, hi in spans))
    vals = np.empty(size, dtype=_rung(base.rows[0][1][0]))
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

    Every value comes with a key, and keys ascend: n for a trace or a
    series, p for a prime sum.  Blocks are cut where the key passes a
    multiple of ``width`` (4096 for n, PRIME_BLOCK for p) and at the
    checkpoints; each block is np.sum'ed (int8 blocks as exact integers) and
    the block sums enter a compensated accumulator in key order.  So a sum
    and its checkpoints have bits that depend only on the keys and values
    fed: not on the feed chunking, on which keys a caller leaves out, or on
    which process summed a block (see mflab.workers).  Between feeds only
    the open block is kept: for n under 4096 values, for p at most the 6,542
    primes below 2^16, the fullest 2^16 interval below PRIME_LIMIT_CEILING.

    ``checkpoints`` are ascending cutoffs on the key.  A checkpoint takes
    the sum of the values whose key is at most it; one still open when the
    stream closes takes the total.  In a worker ``rows`` is a list, and
    each block's (real sum, imaginary sum, first key) goes there instead of
    into the total.
    """

    def __init__(self, checkpoints: Sequence = (), width: int = _SUM_BLOCK) -> None:
        self._cps = list(checkpoints)
        self._width = width
        self._re = _Neumaier()
        self._im = _Neumaier()
        self._tail = np.zeros(0, dtype=np.complex128)  # the open block, fed, not yet summed
        self._first = self._end = 0  # its first key, and the last key it may take
        self._cut = 0  # cut at checkpoints from self._cps[self._cut] on
        self.rows: list[float] | None = None
        self.checkpoint_values: list[complex] = []

    def feed(self, vals: np.ndarray, keys: int | np.ndarray) -> None:
        """Append ``vals`` at ``keys``: an ascending int array, or the key of
        vals[0], the others following one by one.  Keys continue above those
        fed before."""
        i, n, listed = 0, vals.size, isinstance(keys, np.ndarray)
        while i < n:
            if not self._tail.size:  # vals[i] opens a block
                self._open(int(keys[i]) if listed else keys + i)
            if listed:
                j = int(np.searchsorted(keys, self._end, side="right"))
            else:  # keys, keys + 1, ...: vals[:j] have keys up to the end
                j = min(n, max(i, int(self._end) - keys + 1))
            if j == n and (listed or keys + n <= self._end):  # the block may go on
                self._tail = np.concatenate((self._tail, vals[i:]))  # a copy: never pin ``vals``
                return
            self._flush(vals[i:j])
            i = j

    def _open(self, key: int) -> None:
        """Open a block at ``key``: it ends at the next multiple of the width,
        or at the next checkpoint if that comes first."""
        self._first = key
        self._end = ((key - 1) // self._width + 1) * self._width
        self._cut = bisect_left(self._cps, key, self._cut)
        if self._cut < len(self._cps):
            self._end = min(self._end, self._cps[self._cut])

    def _flush(self, head: np.ndarray) -> None:
        """Sum the open block, the tail followed by ``head``."""
        chunk = np.concatenate((self._tail, head)) if self._tail.size else head
        if chunk.dtype != np.int8:  # int8 blocks sum as exact integers, uncopied
            chunk = chunk.astype(np.complex128, copy=False)  # a block, not the feed, at a time
        s = chunk.sum()
        self._add(float(s.real), float(s.imag), self._first)
        self._tail = self._tail[:0]

    def _add(self, re: float, im: float, key: int) -> None:
        """Add one block's sum, whose first key is ``key``, after the
        checkpoints below that key take the sum before it."""
        if self.rows is not None:
            self.rows += (re, im, key)
            return
        cps, taken = self._cps, self.checkpoint_values
        while len(taken) < len(cps) and cps[len(taken)] < key:
            taken.append(self.total())
        self._re.add(re)
        self._im.add(im)

    def flush(self) -> None:
        """Sum the open block now: all its keys are fed."""
        if self._tail.size:
            self._flush(self._tail[:0])

    def total(self) -> complex:
        return complex(self._re.total(), self._im.total())

    def close(self) -> complex:
        """Flush any open block and return the grand total, which every
        checkpoint still open takes."""
        self.flush()
        total = self.total()
        self.checkpoint_values += [total] * (len(self._cps) - len(self.checkpoint_values))
        return total


def resolve_checkpoints(grid: str | None, limit: int) -> list[int]:
    """Expand a grid spec into sorted integer checkpoints in [1, limit].

    ``grid`` is ``"geometric:<ratio>[:<start>]"`` (default start 10),
    ``"explicit:<x>,<x>,..."``, or None for the default geometric grid with
    ratio 2^(1/4).  The final point ``limit`` is always included.
    """
    if grid is None:
        grid = f"geometric:{DEFAULT_GRID_RATIO!r}"
    parts = grid.split(":")
    pts: list[int] = []
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
    pts.append(limit)
    cps = sorted({p for p in pts if 1 <= p <= limit})
    if not cps:
        raise FunctionSpecError("grid produced no checkpoints in range")
    return cps


def summatory_trace(
    f: MultiplicativeFunction,
    limit: int,
    grid: str | None = None,
    segment_size: int = 1 << 18,
) -> SummatoryTrace:
    """Stream S_f(x) over n = 1..limit, snapshotting at grid checkpoints.

    The segment kernel runs in forked workers (one CPU: in this process), and
    this process adds their block sums in order (workers.checkpoint_sums)."""
    if limit < 1:
        raise CoverageError(f"limit must be >= 1, got {limit}")
    if limit > SUMMATORY_LIMIT_CEILING:
        raise CapacityError(f"limit {limit} exceeds ceiling {SUMMATORY_LIMIT_CEILING}")
    if segment_size > SEGMENT_SIZE_CEILING:
        raise CapacityError(
            f"segment size {segment_size} exceeds ceiling {SEGMENT_SIZE_CEILING}")
    cps = resolve_checkpoints(grid, limit)
    base = kernel_base(f, limit)
    from .workers import checkpoint_sums  # here, since workers imports this module

    return SummatoryTrace(
        xs=np.asarray(cps, dtype=np.int64),
        values=np.asarray(checkpoint_sums(base, cps, segment_size), dtype=np.complex128),
    )


# ---------------------------------------------------------------------------
# the 2-adic alternative


def two_adic_failures(f: MultiplicativeFunction, t: float, kmax: int) -> list[int]:
    """The k <= kmax where the trivial 2-adic alternative f(2^k) = -2^{ikt}
    fails (tolerance 1e-9)."""
    return [k for k in range(1, kmax + 1)
            if abs(f.prime_power(2, k) + np.exp(1j * k * t * log(2.0))) > 1e-9]
