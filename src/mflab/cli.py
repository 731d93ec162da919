"""Batch command-line surface.

Subcommands emit CSV (with a provenance comment carrying the normalized
flag set) or plain-text reports.  Exit codes: 0 success, 2 usage/domain
error, 3 capacity/coverage/singular error.  All errors print one line to
stderr with the machine-parsable prefix ``error:<kind>:``.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from math import isfinite, log

import numpy as np

from . import dirichlet, extremal, halasz, multfun, primes
from .errors import FunctionSpecError, MFLabError

_USAGE_EXIT = 2
_RESOURCE_EXIT = 3
_EXIT_BY_KIND = {"usage": 2, "domain": 2, "capacity": 3, "coverage": 3, "singular": 3}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"error:usage:{message}\n")
        sys.exit(_USAGE_EXIT)


def _provenance(sub: str, args: argparse.Namespace, keys: list[str]) -> str:
    parts = [f"--{k.replace('_', '-')}={getattr(args, k)!r}" for k in sorted(keys)]
    return f"mflab {sub} " + " ".join(parts)


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


def _sigma_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise FunctionSpecError(f"sigma grid must be start:end:count[:spacing], got {spec!r}")
    try:
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise FunctionSpecError(f"bad sigma grid {spec!r}") from None
    spacing = parts[3] if len(parts) == 4 else "geometric"
    if count < 1 or not 1.0 < start <= end < float("inf"):
        raise FunctionSpecError(f"sigma grid needs finite 1 < start <= end, count >= 1: {spec!r}")
    if count == 1:
        return [start]
    if spacing == "linear":
        head = [start + (end - start) * i / (count - 1) for i in range(count - 1)]
    elif spacing == "geometric":
        # geometric in sigma - 1, the natural scale for approach to the pole
        r = ((end - 1.0) / (start - 1.0)) ** (1.0 / (count - 1))
        head = [1.0 + (start - 1.0) * r**i for i in range(count - 1)]
    else:
        raise FunctionSpecError(f"unknown sigma spacing {spacing!r}")
    return head + [end]  # exactly the requested end, not a rounded power


def _write(path: str | None, provenance: str, body: str) -> None:
    """The provenance comment then ``body``, to ``path`` (stdout for None or '-')."""
    text = f"# {provenance}\n{body}"
    if path is None or path == "-":
        sys.stdout.write(text)
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
    f = multfun.parse_function_spec(args.function)
    trace = multfun.summatory_trace(
        f, args.limit, grid=args.grid, segment_size=args.segment_size)
    rows = [[int(x), _fmt(v.real), _fmt(v.imag), _fmt(abs(v))]
            for x, v in zip(trace.xs, map(complex, trace.values))]
    prov = _provenance("sum", args, ["function", "limit", "grid", "segment_size"])
    _write_rows(args.out, prov, ["x", "re_S", "im_S", "abs_S"], rows)
    return 0


def _plan(args) -> dirichlet.TruncationPlan:
    return dirichlet.TruncationPlan(
        series_cutoff=args.series_cutoff,
        prime_cutoff=args.prime_cutoff,
        exact_factor_cutoff=min(args.exact_cutoff, args.prime_cutoff),
    )


def _cmd_eval_f(args) -> int:
    f = multfun.parse_function_spec(args.function)
    plan = _plan(args)
    grid = _sigma_grid(args.sigma)
    base = primes.sieve_primes(max(plan.prime_cutoff, 1000))
    rows = []
    for sg in grid:
        s = dirichlet.ComplexPoint(sg, args.t)
        if args.method == "truncated":
            r = dirichlet.F_truncated(f, s, plan)
        elif args.method == "euler":
            r = dirichlet.F_euler(f, s, plan, epsilon0=args.epsilon, t0=args.t0, base=base)
        elif args.method == "prime-sum":
            ps = dirichlet.log_F_prime_sum(f, s, plan, base=base)
            r = dirichlet.EvalResult(np.exp(ps.log_F), ps.error_bound, ps.method)
        else:
            raise FunctionSpecError(f"unknown method {args.method!r}")
        v = complex(r.value)
        rows.append([_fmt(sg), _fmt(args.t), _fmt(v.real), _fmt(v.imag),
                     _fmt(abs(v)), _fmt(r.error_bound), r.method])
    prov = _provenance("eval-f", args, [
        "function", "sigma", "t", "method", "epsilon", "t0",
        "series_cutoff", "prime_cutoff", "exact_cutoff"])
    _write_rows(args.out, prov, ["sigma", "t", "re", "im", "abs", "err", "method"], rows)
    return 0


def _cmd_criterion(args) -> int:
    f = multfun.parse_function_spec(args.function)
    table = primes.sieve_primes(args.prime_cutoff)
    rep = halasz.criterion_report(f, args.t, args.prime_cutoff, table, K=args.kmax)
    prov = _provenance("criterion", args, ["function", "t", "prime_cutoff", "kmax"])
    _write(args.out, prov, rep.text() + "\n")
    return 0


def _cmd_lemma(args) -> int:
    f = multfun.parse_function_spec(args.function)
    plan = _plan(args)
    direction = halasz.HalaszDirection(args.epsilon, args.t0)
    grid = _sigma_grid(args.sigma)
    base = primes.sieve_primes(plan.prime_cutoff)
    rows = []
    for sg in grid:
        s = dirichlet.ComplexPoint(sg, args.t)
        r = halasz.lemma_defect(f, direction, s, plan, base)
        rows.append([_fmt(sg), _fmt(args.t), _fmt(abs(r.value)), _fmt(r.ratio),
                     _fmt(r.error_bound)])
    prov = _provenance("lemma", args, [
        "function", "epsilon", "t0", "sigma", "t",
        "series_cutoff", "prime_cutoff", "exact_cutoff"])
    _write_rows(args.out, prov, ["sigma", "t", "abs_D", "ratio", "err"], rows)
    return 0


def _cmd_thm1(args) -> int:
    f = multfun.parse_function_spec(args.function)
    plan = _plan(args)
    direction = halasz.HalaszDirection(args.epsilon, args.t0)
    grid = _sigma_grid(args.sigma)
    base = primes.sieve_primes(plan.prime_cutoff)
    pts = halasz.theorem1_ratio(f, direction, grid, plan, base=base)
    rows = []
    for p in pts:
        ratio = float("nan") if p.ratio is None else p.ratio
        rows.append([_fmt(p.sigma), _fmt(args.t0), _fmt(abs(p.F.value)),
                     _fmt(p.F.error_bound), _fmt(ratio)])
    prov = _provenance("thm1", args, [
        "function", "epsilon", "t0", "sigma",
        "series_cutoff", "prime_cutoff", "exact_cutoff"])
    _write_rows(args.out, prov, ["sigma", "t0", "abs_F", "err_F", "ratio"], rows)
    return 0


def _cmd_thm2(args) -> int:
    if args.limit < 16:
        raise FunctionSpecError("thm2 needs --limit >= 16 (log log x must stay positive)")
    f = multfun.parse_function_spec(args.function)
    trace = multfun.summatory_trace(f, args.limit, grid=args.grid)
    pts = halasz.theorem2_ratio(trace, args.c)
    rows = [[int(p.x), _fmt(p.abs_S), _fmt(p.ratio)] for p in pts]
    prov = _provenance("thm2", args, ["function", "limit", "c", "grid"])
    _write_rows(args.out, prov, ["x", "abs_S", "ratio"], rows)
    return 0


def _cmd_extremal_build(args) -> int:
    spec = extremal.build_spec(args.kappa, x1=args.x1, J=args.J, C0=args.C0)
    extremal.save_spec(spec, args.out)
    return 0


def _cmd_extremal_verify(args) -> int:
    spec = extremal.load_spec(args.specfile)
    table = primes.sieve_primes(args.cutoff)
    prov = _provenance("extremal-verify", args, ["specfile", "cutoff", "block"])
    texts = [extremal.verify_psum(spec, args.cutoff, table).text()]
    blocks = [args.block] if args.block else [
        j for j, b in enumerate(spec.blocks, start=1) if b.log_upper <= log(args.cutoff)]
    plan = dirichlet.TruncationPlan(
        prime_cutoff=args.cutoff, exact_factor_cutoff=min(10_000, args.cutoff))
    for j in blocks:
        texts.append(extremal.verify_logF_lower(spec, j, plan, table).text())
    _write(args.out, prov, "\n\n".join(texts) + "\n")
    return 0


def build_parser() -> _Parser:
    ap = _Parser(prog="mflab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_plan_flags(p):
        p.add_argument("--series-cutoff", type=int, default=100_000)
        p.add_argument("--prime-cutoff", type=int, default=100_000)
        p.add_argument("--exact-cutoff", type=int, default=10_000)

    p = sub.add_parser("sum", help="summatory trace CSV")
    p.add_argument("--function", required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--grid", default=None)
    p.add_argument("--segment-size", type=_positive_int, default=1 << 18)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sum)

    p = sub.add_parser("eval-f", help="F(s) grid CSV")
    p.add_argument("--function", required=True)
    p.add_argument("--sigma", required=True, help="start:end:count[:spacing]")
    p.add_argument("--t", type=_finite_float, default=0.0)
    p.add_argument("--method", choices=["truncated", "euler", "prime-sum"],
                   default="truncated")
    p.add_argument("--epsilon", type=int, choices=[-1, 1], default=1)
    p.add_argument("--t0", type=_finite_float, default=0.0)
    add_plan_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_eval_f)

    p = sub.add_parser("criterion", help="mean-value criterion report")
    p.add_argument("--function", required=True)
    p.add_argument("--t", type=_finite_float, default=0.0)
    p.add_argument("--prime-cutoff", type=int, default=1_000_000)
    p.add_argument("--kmax", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_criterion)

    p = sub.add_parser("lemma", help="defect grid CSV")
    p.add_argument("--function", required=True)
    p.add_argument("--epsilon", type=int, choices=[-1, 1], required=True)
    p.add_argument("--t0", type=_finite_float, default=0.0)
    p.add_argument("--sigma", required=True)
    p.add_argument("--t", type=_finite_float, default=0.0)
    add_plan_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_lemma)

    p = sub.add_parser("thm1", help="pole/zero ratio grid CSV")
    p.add_argument("--function", required=True)
    p.add_argument("--epsilon", type=int, choices=[-1, 1], required=True)
    p.add_argument("--t0", type=_finite_float, default=0.0)
    p.add_argument("--sigma", required=True)
    add_plan_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_thm1)

    p = sub.add_parser("thm2", help="summatory decay ratio CSV")
    p.add_argument("--function", required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--c", type=_finite_float, default=1.0)
    p.add_argument("--grid", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_thm2)

    p = sub.add_parser("extremal-build", help="construct an extremal spec JSON")
    p.add_argument("--kappa", required=True,
                   help="const:<c> | power:<e> | loglog-fraction:<c>")
    p.add_argument("--x1", type=_finite_float, default=20.0)
    p.add_argument("--J", type=int, default=3)
    p.add_argument("--C0", type=_finite_float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_extremal_build)

    p = sub.add_parser("extremal-verify", help="verify an extremal spec")
    p.add_argument("specfile")
    p.add_argument("--cutoff", type=int, default=100_000)
    p.add_argument("--block", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_extremal_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (MFLabError, OSError) as e:  # OSError: an output path that cannot be written
        kind = getattr(e, "kind", "usage")
        sys.stderr.write(f"error:{kind}:{e}\n")
        return _EXIT_BY_KIND.get(kind, _RESOURCE_EXIT)


if __name__ == "__main__":
    sys.exit(main())
