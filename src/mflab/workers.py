"""The forked workers of mflab's streamed sums: the segment kernel of
multfun.summatory_trace and every prime pass.

A stream's keys (n for a trace, p for a prime pass) are cut into stripes
whose edges are multiples of the block width of each StreamSummer it feeds:
whole 4096-position blocks of n, whole 2^20-number sieve segments of p.  So
no block straddles two stripes.  The stripes are dealt round-robin to
W = min(stripes, CPUs this process may use, WORKER_CAP) workers, the w-th
pinned to the w-th CPU.  A worker runs the stream's work over its stripes
and sends, per stripe, each summer's blocks (sum and first key) and the
exact extras the work returns, pickled over a pipe; the calling process
adds the blocks and gathers the extras in key order, as one process would,
so the bits do not depend on W.  With W = 1 the stripes run in the calling
process and nothing forks.
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
from .multfun import _SUM_BLOCK, KernelBase, StreamSummer, _value_segments

WORKER_CAP = 4  # most workers of one stream, whatever the CPU count


def stripes(limit: int, segment_size: int) -> list[tuple[int, int]]:
    """1..limit in stripes of as many whole 4096-position blocks as a segment
    holds, at least one; the last ends at limit."""
    width = max(1, segment_size // _SUM_BLOCK) * _SUM_BLOCK
    return [(lo, min(lo + width - 1, limit)) for lo in range(1, limit + 1, width)]


def checkpoint_sums(base: KernelBase, cps: list[int], segment_size: int) -> list[complex]:
    """S_f(x) of the rule f of ``base`` at each checkpoint x of ``cps``, the
    last being base.limit: f(n) from the segment kernel, over stripes of n
    (see ``stripes``), fed to one StreamSummer."""
    summer = StreamSummer(cps)

    def work(mine: Sequence[tuple[int, int]]) -> Iterator[list]:
        segs = _value_segments(base, mine, segment_size)
        for lo, hi in mine:
            while lo <= hi:
                start, vals = next(segs)
                summer.feed(vals, start)
                lo = start + vals.size
            yield []

    _run(stripes(base.limit, segment_size), [summer], work)
    summer.close()
    return summer.checkpoint_values


def prime_pass(limit: int, summers: Sequence[StreamSummer],
               chunk: Callable[[np.ndarray], object]) -> list:
    """chunk(ps) for each chunk ps of prime_chunks(limit), whose stripes are
    the sieve segments; the base primes are sieved once, here.  ``chunk``
    feeds ``summers``, which take the whole pass's blocks, and returns the
    chunk's exact extras (picklable, and small); the list of them, in key
    order, is returned.  The caller checks ``limit`` first."""
    base = primes.base_primes(limit)
    step = primes._SEGMENT
    spans = [(a, min(a + step, limit)) for a in range(0, limit, step)]  # (a, b]

    def work(mine: Sequence[tuple[int, int]]) -> Iterator[list]:
        for a, b in mine:
            yield [chunk(ps) for ps in primes._segments(b, a, base)]

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
            rows, more = _receive(pipes[k % len(cpus)])
            for summer, blocks in zip(summers, rows):
                for i in range(0, len(blocks), 3):
                    summer._add(*blocks[i : i + 3])
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
    summers' block rows and the extras (a byte count, then a pickle), or an
    error (a negative count, then "<class>:<message>"), and leaves by
    os._exit, running no exit handler."""
    try:
        with suppress(OSError):  # a CPU the kernel refuses leaves the worker unpinned
            os.sched_setaffinity(0, {cpu})
        for summer in summers:
            summer.rows = []
        with open(fd, "wb") as pipe:
            try:
                for extras in stripe_extras:
                    for summer in summers:
                        summer.flush()  # a stripe edge is a block edge
                    body = pickle.dumps(([summer.rows for summer in summers], extras))
                    for summer in summers:
                        summer.rows.clear()
                    pipe.write(len(body).to_bytes(8, "little") + body)
                    pipe.flush()
            except BaseException as e:  # reported to the parent, then os._exit
                if not isinstance(e, MFLabError):
                    e = CapacityError(f"a segment worker failed: {type(e).__name__}: {e}")
                body = f"{type(e).__name__}:{e}".encode()
                pipe.write((-len(body)).to_bytes(8, "little", signed=True) + body)
    finally:
        os._exit(0)


def _receive(pipe: BinaryIO) -> tuple[list[list], list]:
    """The block rows and extras of a worker's next stripe, or the error it
    sent, raised."""
    size = int.from_bytes(head := pipe.read(8), "little", signed=True)
    if len(head) < 8 or len(body := pipe.read(abs(size))) < abs(size):
        raise CapacityError("a segment worker ended before it sent its stripe")
    if size < 0:  # a worker names only MFLabError classes
        name, _, message = body.decode().partition(":")
        raise getattr(errors, name, CapacityError)(message)
    return pickle.loads(body)
