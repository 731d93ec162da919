"""Run one mflab command with every public function of its modules wrapped
in a span recorder.

    python3 tracer.py SPANS.json <mflab arguments...>

Spans (name, start, end, parent, items, repeated items) are kept in memory
and written to SPANS.json when the command ends, with the import time of
``mflab.cli`` and the command's wall time after import and instrumentation.
``repeated`` counts items the same process already computed with identical
arguments.  The exit code is the command's.
"""

import functools
import inspect
import json
import sys
import time

_t_start = time.perf_counter()
import mflab.cli  # noqa: E402  (the import is what cli.import_s times)

_t_import = time.perf_counter()

from mflab import cli, dirichlet, extremal, halasz, multfun, primes  # noqa: E402

MODULES = (primes, multfun, dirichlet, halasz, extremal, cli)


def _fingerprint(a) -> tuple:
    return (a.size, int(a[0]), int(a[-1]), int(a.sum())) if a.size else (0,)


# span name -> bound arguments -> (items, key identifying the computation)
ITEMS = {
    "primes.sieve_primes": lambda a: (int(a["limit"]), (int(a["limit"]),)),
    "multfun.segment_values": lambda a: (a["hi"] - a["lo"] + 1, (a["f"].label, a["lo"], a["hi"])),
    "multfun.prime_values": lambda a: (a["ps"].size, (a["self"].label, _fingerprint(a["ps"]))),
    "multfun.StreamSummer.feed": lambda a: (a["vals"].size, None),
    "extremal.theta_values": lambda a: (a["ps"].size, (id(a["spec"]), _fingerprint(a["ps"]))),
}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start, end, parent, items, repeated]
        self.stack: list[int] = []
        self.seen: dict[str, set] = {}

    def wrap(self, name: str, fn):
        items_of = ITEMS.get(name)
        bind = inspect.signature(fn).bind if items_of else None
        seen = self.seen.setdefault(name, set())
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            if items_of is not None:
                n, key = items_of(bind(*a, **kw).arguments)
                span[4] = n
                if key is not None:
                    if key in seen:
                        span[5] = n
                    seen.add(key)
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*a, **kw)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper


def instrument(rec: Recorder) -> None:
    """Wrap public functions and the two hot methods, then rebind every
    module-level name in mflab that refers to a wrapped function."""
    wrapped = {}
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = rec.wrap(f"{short}.{name}", obj)
    for mod in [m for n, m in sys.modules.items() if n == "mflab" or n.startswith("mflab.")]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    mf = multfun.MultiplicativeFunction
    mf.prime_values = rec.wrap("multfun.prime_values", mf.prime_values)
    ss = multfun.StreamSummer
    ss.feed = rec.wrap("multfun.StreamSummer.feed", ss.feed)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    instrument(rec)
    t_ready = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        t_end = time.perf_counter()
        with open(out, "w") as fh:
            json.dump({"import_s": _t_import - _t_start,
                       "command_s": t_end - t_ready,
                       "spans": rec.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
