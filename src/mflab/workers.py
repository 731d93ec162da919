"""The forked workers of mflab's streamed sums: series_pass, the one pass
over n (summatory_trace, F_truncated), and prime_pass, the one over p.

A pass's keys, n or p, are cut into stripes: segments of n, sieve segments
(k 2^20, (k+1) 2^20] of p.  The stripes are dealt round-robin to W =
min(stripes, CPUs this process may use, WORKER_CAP) workers, the w-th
pinned to the w-th CPU.  A worker runs the stream's work over its stripes
and sends, per stripe, each summer's ``parts`` (a few ints per checkpoint
interval, however long the stripe) and the exact extras the work returns,
pickled over a pipe; the calling process adds the parts, which are exact
and so order-free, and gathers the extras in key order, as one process
would, so the bits do not depend on W.  With W = 1 the stripes run in the
calling process and nothing forks.
"""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import suppress
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from . import errors, primes
from .errors import CapacityError, MFLabError
from .multfun import KernelBase, StreamSummer, _value_segments

WORKER_CAP = 4  # most workers of one stream, whatever the CPU count


def stripes(limit: int, segment_size: int) -> list[tuple[int, int]]:
    """1..limit in stripes of one segment each; the last ends at limit."""
    return [(lo, min(lo + segment_size - 1, limit)) for lo in range(1, limit + 1, segment_size)]


def series_pass(base: KernelBase, summers: Sequence[StreamSummer], segment_size: int,
                chunk: Callable[[np.ndarray, int], None]) -> None:
    """chunk(vals, lo) for each segment vals = f(lo), f(lo + 1), ... of the
    rule f of ``base`` over n = 1..base.limit, from the segment kernel, over
    stripes of n (see ``stripes``).  ``chunk`` feeds ``summers``, which take
    the whole pass's sums; the caller closes them."""

    def work(mine: Sequence[tuple[int, int]]) -> Iterator[list]:
        segs = _value_segments(base, mine, segment_size)
        for lo, hi in mine:
            while lo <= hi:
                start, vals = next(segs)
                chunk(vals, start)
                lo = start + vals.size
            yield []

    _run(stripes(base.limit, segment_size), summers, work)


def prime_pass(limit: int, summers: Sequence[StreamSummer],
               chunk: Callable[[np.ndarray], object]) -> list:
    """chunk(ps) for each chunk ps of primes.prime_chunks(limit), whose
    stripes are its segments (a, b]; the base primes are sieved once, here.  ``chunk``
    feeds ``summers``, which take the whole pass's sums, and returns the
    chunk's exact extras (picklable, and small); the list of them, in key
    order, is returned.  The caller checks ``limit`` first."""
    base = primes.base_primes(limit)
    step = primes._SEGMENT
    spans = [(a, min(a + step, limit)) for a in range(0, limit, step)]  # (a, b]

    def work(mine: Sequence[tuple[int, int]]) -> Iterator[list]:
        for a, b in mine:
            yield [chunk(ps) for ps in primes.prime_chunks(b, a, base)]

    return _run(spans, summers, work)


def _run(spans: Sequence, summers: Sequence[StreamSummer],
         work: Callable[[Sequence], Iterable[list]]) -> list:
    """Run work(spans), which feeds ``summers`` and yields each stripe's
    extras when it is done, over W workers; the extras, in stripe order.

    Worker w runs work(spans[w::W]) and reads the state it inherits.  Every
    worker is reaped before this returns, and killed first on an error or
    interrupt.  A worker's MFLabError is raised here as its own class, any
    other failure or death as a CapacityError.
    """
    cpus = sorted(os.sched_getaffinity(0))[: min(len(spans), WORKER_CAP)]
    if len(cpus) < 2:
        return [x for extras in work(spans) for x in extras]
    extras, pids, pipes = [], [], []
    try:
        for w, cpu in enumerate(cpus):
            r, fd = os.pipe()
            pipes.append(open(r, "rb"))
            if not (pid := os.fork()):
                _work(cpu, fd, summers, work(spans[w :: len(cpus)]))
            os.close(fd)
            pids.append(pid)
        for k in range(len(spans)):
            parts, more = _receive(pipes[k % len(cpus)])
            for summer, p in zip(summers, parts):
                summer.add(p)
            extras += more
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
    return extras


def _work(cpu: int, fd: int, summers: Sequence[StreamSummer],
          stripe_extras: Iterable[list]) -> NoReturn:
    """A forked worker: pinned to ``cpu``, it writes to ``fd`` per stripe the
    summers' parts and the extras (a byte count, then a pickle), or an
    error (a negative count, then "<class>:<message>"), and leaves by
    os._exit, running no exit handler."""
    try:
        with suppress(OSError):  # a CPU the kernel refuses leaves the worker unpinned
            os.sched_setaffinity(0, {cpu})
        for summer in summers:
            summer.parts = {}
        with open(fd, "wb") as pipe:
            try:
                for extras in stripe_extras:
                    body = pickle.dumps(([summer.parts for summer in summers], extras))
                    for summer in summers:
                        summer.parts = {}
                    pipe.write(len(body).to_bytes(8, "little") + body)
                    pipe.flush()
            except BaseException as e:  # reported to the parent, then os._exit
                if not isinstance(e, MFLabError):
                    e = CapacityError(f"a segment worker failed: {type(e).__name__}: {e}")
                body = f"{type(e).__name__}:{e}".encode()
                pipe.write((-len(body)).to_bytes(8, "little", signed=True) + body)
    finally:
        os._exit(0)


def _receive(pipe: BinaryIO) -> tuple[list[dict], list]:
    """The summers' parts and extras of a worker's next stripe, or the error
    it sent, raised."""
    size = int.from_bytes(head := pipe.read(8), "little", signed=True)
    if len(head) < 8 or len(body := pipe.read(abs(size))) < abs(size):
        raise CapacityError("a segment worker ended before it sent its stripe")
    if size < 0:  # a worker names only MFLabError classes
        name, _, message = body.decode().partition(":")
        raise getattr(errors, name, CapacityError)(message)
    return pickle.loads(body)
