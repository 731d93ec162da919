"""The forked segment workers of multfun.summatory_trace.

Positions 1..limit are cut into stripes of whole 4096-position blocks and
dealt round-robin to at most one worker per CPU.  A worker runs the
segment kernel over its stripes and sends, per stripe, each block's sum and
whether it takes a checkpoint, as raw float64s over a pipe; the calling
process adds them in order, as one StreamSummer over 1..limit would.  Only
a trace imports this module, so the commands that never trace do not pay
for compiling it.
"""

from __future__ import annotations

import os
import signal
from bisect import bisect_left, bisect_right
from contextlib import suppress
from math import log
from typing import BinaryIO, Iterator, NoReturn, Sequence

import numpy as np

from . import errors
from .errors import CapacityError, MFLabError
from .multfun import (_SUM_BLOCK, MultiplicativeFunction, StreamSummer, _int8_steps, _untwist,
                      _value_segments)
from .primes import PrimeTable

WORKER_CAP = 4  # most workers of one trace, whatever the CPU count


class _BlockRecorder(StreamSummer):
    """A stripe's summer from position ``start``: it records each block's sum
    in ``rows`` as (re, im, closes), closes = 1.0 if the block takes a
    checkpoint, instead of adding it up."""

    def __init__(self, checkpoints: Sequence[int], start: int) -> None:
        super().__init__(checkpoints)
        self._buf_start = self._n_next = start
        self.rows: list[float] = []

    def _add(self, re: float, im: float) -> None:
        self.rows += (re, im, 0.0)

    def _take(self) -> None:
        self.rows[-1] = 1.0
        self.checkpoint_values.append(None)  # only counted


def stripes(limit: int, segment_size: int) -> list[tuple[int, int]]:
    """1..limit in stripes of as many whole 4096-position blocks as a segment
    holds, at least one; the last ends at limit."""
    width = max(1, segment_size // _SUM_BLOCK) * _SUM_BLOCK
    return [(lo, min(lo + width - 1, limit)) for lo in range(1, limit + 1, width)]


def stripe_blocks(f: MultiplicativeFunction, spans: Sequence[tuple[int, int]], cps: list[int],
                  base: PrimeTable, segment_size: int) -> Iterator[list[float]]:
    """Per stripe of ``spans``, the rows of a _BlockRecorder fed f(n) over it
    (1 at n = 1): what one worker computes."""
    segs = _value_segments(f, [(max(lo, 2), hi) for lo, hi in spans], base, segment_size)
    for lo, hi in spans:
        rec = _BlockRecorder(cps[bisect_left(cps, lo) : bisect_right(cps, hi)], lo)
        if lo == 1:
            rec.feed(1, np.ones(1, dtype=np.complex128))
        while rec._n_next <= hi:
            rec.feed(*next(segs))
        yield rec.rows


def _work(cpu: int, fd: int, rows_per_stripe: Iterator[list[float]]) -> NoReturn:
    """A forked worker: pinned to ``cpu``, it writes to ``fd`` each stripe's
    rows (a byte count, then float64s) or an error (a negative count, then
    "<class>:<message>"), and leaves by os._exit, running no exit handler."""
    try:
        with suppress(OSError):  # a CPU the kernel refuses leaves the worker unpinned
            os.sched_setaffinity(0, {cpu})
        with open(fd, "wb") as pipe:
            try:
                for rows in rows_per_stripe:
                    body = np.array(rows).tobytes()
                    pipe.write(len(body).to_bytes(8, "little") + body)
                    pipe.flush()
            except BaseException as e:  # reported to the parent, then os._exit
                if not isinstance(e, MFLabError):
                    e = CapacityError(f"a segment worker failed: {type(e).__name__}: {e}")
                body = f"{type(e).__name__}:{e}".encode()
                pipe.write((-len(body)).to_bytes(8, "little", signed=True) + body)
    finally:
        os._exit(0)


def _receive(pipe: BinaryIO) -> list[float]:
    """The rows of a worker's next stripe, or the error it sent, raised."""
    size = int.from_bytes(head := pipe.read(8), "little", signed=True)
    if len(head) < 8 or len(body := pipe.read(abs(size))) < abs(size):
        raise CapacityError("a segment worker ended before it sent its stripe")
    if size < 0:  # a worker names only MFLabError classes
        name, _, message = body.decode().partition(":")
        raise getattr(errors, name, CapacityError)(message)
    return np.frombuffer(body).tolist()


def checkpoint_sums(f: MultiplicativeFunction, limit: int, cps: list[int], base: PrimeTable,
                    segment_size: int) -> list[complex]:
    """S_f(x) at each checkpoint x of ``cps``, the last being ``limit``.

    W is the least of the stripe count, the CPUs this process may use and
    WORKER_CAP; worker w takes every W-th stripe from the w-th, pinned to the
    w-th CPU.  It inherits the memoized f(p^j) and int8 steps of every base
    prime, filled here before forking.  Every worker is reaped before this
    returns, and killed first on an error or interrupt.  A worker's
    MFLabError is raised here as its own class, any other failure or death
    as a CapacityError.
    """
    g = _untwist(f)[0]
    for p in base.primes.tolist():
        for j in range(1, int(log(limit, p)) + 1):
            _int8_steps(g, p, j)  # and f(p), ..., f(p^j) on the way
    spans = stripes(limit, segment_size)
    cpus = sorted(os.sched_getaffinity(0))[: min(len(spans), WORKER_CAP)]
    summer, pids, pipes = StreamSummer(cps), [], []
    try:
        for w, cpu in enumerate(cpus):
            r, fd = os.pipe()
            pipes.append(open(r, "rb"))
            if not (pid := os.fork()):
                _work(cpu, fd, stripe_blocks(f, spans[w :: len(cpus)], cps, base, segment_size))
            os.close(fd)
            pids.append(pid)
        for k in range(len(spans)):
            rows = _receive(pipes[k % len(cpus)])
            for i in range(0, len(rows), 3):
                summer._add(rows[i], rows[i + 1])
                if rows[i + 2]:
                    summer._take()
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
    return summer.checkpoint_values
