"""Batch command-line surface.

Subcommands emit CSV (with a provenance comment carrying the normalized
flag set) or plain-text reports.  Exit codes: 0 success, 2 usage/domain
error, 3 capacity/coverage/singular error.  All errors print one line to
stderr with the machine-parsable prefix ``error:<kind>:``.

Each handler imports the modules it runs, so a process loads only what its
subcommand needs: ``sum`` never imports dirichlet, halasz or extremal, and
``extremal-build`` never imports numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from contextlib import suppress
from math import isfinite

# mflab calls no BLAS routine: set before numpy loads, this starts no OpenBLAS pool
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import CapacityError, FunctionSpecError, MFLabError

_EXIT_BY_KIND = {"usage": 2, "domain": 2, "capacity": 3, "coverage": 3, "singular": 3}
# Most points of a --sigma grid.  Each point keeps at most two StreamSummer
# tails of at most 6,542 complex128 values (the primes of one 2^16 block of
# p), so the grid holds under 200 MiB per process.
SIGMA_GRID_CEILING = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"error:usage:{message}\n")
        sys.exit(_EXIT_BY_KIND["usage"])


def _provenance(args: argparse.Namespace) -> str:
    """``mflab <command>`` then every parsed flag except --out, sorted."""
    keys = sorted(k for k in vars(args) if k not in ("command", "fn", "out"))
    parts = [f"--{k.replace('_', '-')}={getattr(args, k)!r}" for k in keys]
    return f"mflab {args.command} " + " ".join(parts)


def _checked(convert, ok, what):
    """An argparse type: ``convert`` the text, then require ``ok``."""
    def parse(text: str):
        try:
            v = convert(text)
        except ValueError:
            v = None
        if v is None or not ok(v):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return v
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_finite_float = _checked(float, isfinite, "a finite number")
_nonnegative_float = _checked(float, lambda v: 0 <= v < float("inf"), "a finite number >= 0")


def _sigma_grid(spec: str) -> list[float]:
    """start:end:count, geometric in sigma - 1, the natural scale for approach to the pole."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise FunctionSpecError(f"sigma grid must be start:end:count, got {spec!r}")
    try:
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise FunctionSpecError(f"bad sigma grid {spec!r}") from None
    if count < 1 or not 1.0 < start <= end < float("inf"):
        raise FunctionSpecError(f"sigma grid needs finite 1 < start <= end, count >= 1: {spec!r}")
    if count > SIGMA_GRID_CEILING:
        raise CapacityError(f"sigma grid of {count} points exceeds {SIGMA_GRID_CEILING}")
    if count == 1:
        return [start]
    r = ((end - 1.0) / (start - 1.0)) ** (1.0 / (count - 1))
    head = [1.0 + (start - 1.0) * r**i for i in range(count - 1)]
    return head + [end]  # exactly the requested end, not a rounded power


def _write(path: str | None, provenance: str | None, body: str) -> None:
    """The provenance comment, if any, then ``body``, to ``path`` (stdout for None or '-')."""
    text = body if provenance is None else f"# {provenance}\n{body}"
    if path is None or path == "-":
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe is main's OSError, not a message at exit
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_rows(path: str | None, provenance: str, header: list[str], rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    _write(path, provenance, buf.getvalue())


def _fmt(v: float) -> str:
    return repr(float(v))


def _cmd_sum(args) -> int:
    from . import multfun

    f = multfun.parse_function_spec(args.function)
    trace = multfun.summatory_trace(
        f, args.limit, grid=args.grid, segment_size=args.segment_size)
    rows = [[int(x), _fmt(v.real), _fmt(v.imag), _fmt(abs(v))]
            for x, v in zip(trace.xs, map(complex, trace.values))]
    _write_rows(args.out, _provenance(args), ["x", "re_S", "im_S", "abs_S"], rows)
    return 0


def _plan(args):
    from .dirichlet import TruncationPlan
    from .primes import check_limit

    P = check_limit(args.prime_cutoff)  # lemma's refusal, before C is capped at P
    return TruncationPlan(P, min(args.exact_cutoff, P))


def _cmd_eval_f(args) -> int:
    from . import dirichlet, multfun

    f = multfun.parse_function_spec(args.function)
    grid = _sigma_grid(args.sigma)
    pts = [dirichlet.ComplexPoint(sg, args.t) for sg in grid]
    if args.method == "truncated":
        results = dirichlet.F_truncated(f, pts, args.series_cutoff)
    else:  # exp(log F), err a bound on F; euler passes its direction, prime-sum none
        direction = (dirichlet.HalaszDirection(args.epsilon, args.t0)
                     if args.method == "euler" else None)
        results = [r.exp(sg) for sg, r in
                   zip(grid, dirichlet.log_F(f, pts, _plan(args), direction))]
    rows = [[_fmt(sg), _fmt(args.t), _fmt(r.value.real), _fmt(r.value.imag),
             _fmt(abs(r.value)), _fmt(r.error_bound), r.method] for sg, r in zip(grid, results)]
    _write_rows(args.out, _provenance(args),
                ["sigma", "t", "re", "im", "abs", "err", "method"], rows)
    return 0


def _cmd_criterion(args) -> int:
    from . import halasz, multfun

    f = multfun.parse_function_spec(args.function)
    rep = halasz.criterion_report(f, args.t, args.prime_cutoff, K=args.kmax)
    _write(args.out, _provenance(args), rep.text() + "\n")
    return 0


def _cmd_lemma(args) -> int:
    from . import halasz, multfun
    from .dirichlet import ComplexPoint

    f = multfun.parse_function_spec(args.function)
    direction = halasz.HalaszDirection(args.epsilon, args.t0)
    grid = _sigma_grid(args.sigma)
    results = halasz.lemma_defect(
        f, direction, [ComplexPoint(sg, args.t) for sg in grid], args.prime_cutoff)
    rows = [[_fmt(sg), _fmt(args.t), _fmt(abs(r.value)), _fmt(halasz.lemma_ratio(sg, r.value)),
             _fmt(r.error_bound)] for sg, r in zip(grid, results)]
    _write_rows(args.out, _provenance(args), ["sigma", "t", "abs_D", "ratio", "err"], rows)
    return 0


def _cmd_thm1(args) -> int:
    from . import halasz, multfun

    f = multfun.parse_function_spec(args.function)
    plan = _plan(args)
    direction = halasz.HalaszDirection(args.epsilon, args.t0)
    grid = _sigma_grid(args.sigma)
    rows = [[_fmt(p.sigma), _fmt(args.t0), _fmt(abs(p.F.value)), _fmt(p.F.error_bound),
             _fmt(float("nan") if p.ratio is None else p.ratio)]
            for p in halasz.theorem1_ratio(f, direction, grid, plan)]
    _write_rows(args.out, _provenance(args), ["sigma", "t0", "abs_F", "err_F", "ratio"], rows)
    return 0


def _cmd_thm2(args) -> int:
    from . import halasz, multfun

    if args.limit < 16:
        raise FunctionSpecError("thm2 needs --limit >= 16 (log log x must stay positive)")
    f = multfun.parse_function_spec(args.function)
    trace = multfun.summatory_trace(f, args.limit, grid=args.grid)
    pts = halasz.theorem2_ratio(trace, args.c)
    rows = [[int(p.x), _fmt(p.abs_S), _fmt(p.ratio)] for p in pts]
    _write_rows(args.out, _provenance(args), ["x", "abs_S", "ratio"], rows)
    return 0


def _cmd_extremal_build(args) -> int:
    from . import extremal

    spec = extremal.build_spec(args.kappa, x1=args.x1, J=args.J, C0=args.C0)
    _write(args.out, None, extremal.spec_json(spec))  # JSON alone: load_spec reads it back
    return 0


def _cmd_extremal_verify(args) -> int:
    from . import extremal

    spec = extremal.load_spec(args.specfile)
    psum, windows = extremal.verify(spec, args.cutoff, None if args.block is None else [args.block])
    _write(args.out, _provenance(args), "\n\n".join(r.text() for r in (psum, *windows)) + "\n")
    return 0


def build_parser() -> _Parser:
    ap = _Parser(prog="mflab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sum", help="summatory trace CSV")
    p.add_argument("--function", required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--grid", default=None)
    p.add_argument("--segment-size", type=_positive_int, default=1 << 18)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sum)

    p = sub.add_parser("eval-f", help="F(s) grid CSV")
    p.add_argument("--function", required=True)
    p.add_argument("--sigma", required=True, help="start:end:count")
    p.add_argument("--t", type=_finite_float, default=0.0)
    p.add_argument("--method", choices=["truncated", "euler", "prime-sum"],
                   default="truncated")
    p.add_argument("--epsilon", type=int, choices=[-1, 1], default=1)
    p.add_argument("--t0", type=_finite_float, default=0.0)
    p.add_argument("--series-cutoff", type=int, default=100_000)
    p.add_argument("--prime-cutoff", type=int, default=100_000)
    p.add_argument("--exact-cutoff", type=int, default=10_000)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_eval_f)

    p = sub.add_parser("criterion", help="mean-value criterion report")
    p.add_argument("--function", required=True)
    p.add_argument("--t", type=_finite_float, default=0.0)
    p.add_argument("--prime-cutoff", type=int, default=1_000_000)
    p.add_argument("--kmax", type=_positive_int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_criterion)

    p = sub.add_parser("lemma", help="defect grid CSV")
    p.add_argument("--function", required=True)
    p.add_argument("--epsilon", type=int, choices=[-1, 1], required=True)
    p.add_argument("--t0", type=_finite_float, default=0.0)
    p.add_argument("--sigma", required=True)
    p.add_argument("--t", type=_finite_float, default=0.0)
    p.add_argument("--prime-cutoff", type=int, default=100_000)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_lemma)

    p = sub.add_parser("thm1", help="pole/zero ratio grid CSV")
    p.add_argument("--function", required=True)
    p.add_argument("--epsilon", type=int, choices=[-1, 1], required=True)
    p.add_argument("--t0", type=_finite_float, default=0.0)
    p.add_argument("--sigma", required=True)
    p.add_argument("--prime-cutoff", type=int, default=100_000)
    p.add_argument("--exact-cutoff", type=int, default=10_000)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_thm1)

    p = sub.add_parser("thm2", help="summatory decay ratio CSV")
    p.add_argument("--function", required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--c", type=_nonnegative_float, default=1.0)
    p.add_argument("--grid", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_thm2)

    p = sub.add_parser("extremal-build", help="construct an extremal spec JSON")
    p.add_argument("--kappa", required=True,
                   help="const:<c> | power:<e> | loglog-fraction:<c>")
    p.add_argument("--x1", type=_finite_float, default=20.0)
    p.add_argument("--J", type=int, default=3)
    p.add_argument("--C0", type=_nonnegative_float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_extremal_build)

    p = sub.add_parser("extremal-verify", help="verify an extremal spec")
    p.add_argument("specfile")
    p.add_argument("--cutoff", type=int, default=100_000)
    p.add_argument("--block", type=_positive_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_extremal_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if "t" in args or "t0" in args:  # the commands with a height load multfun anyway
            from .multfun import check_height
            for t in (getattr(args, "t", 0.0), getattr(args, "t0", 0.0)):
                check_height(t)
        return args.fn(args)
    except (MFLabError, OSError) as e:  # OSError: an output path that cannot be written
        kind = getattr(e, "kind", "usage")
        sys.stderr.write(f"error:{kind}:{e}\n")
        return _EXIT_BY_KIND.get(kind, 3)


def run() -> None:
    """The process entry: exit with main's code (or argparse's) by os._exit after
    flushing stdout and stderr, skipping interpreter teardown.  Safe: mflab registers no
    atexit handler, _write closes each file before main returns, mflab.workers reaps
    its workers before a pass returns, and an uncaught exception still ends in a traceback."""
    try:
        code = main()
    except SystemExit as e:  # argparse: a usage error or --help
        code = e.code or 0
    try:
        sys.stdout.flush()  # argparse's --help; _write flushed the rest
    except OSError as e:  # a closed pipe, which main reported unless it exited 0
        if code == 0:
            sys.stderr.write(f"error:usage:{e}\n")
            code = _EXIT_BY_KIND["usage"]
    with suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
