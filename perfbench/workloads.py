"""Seed-driven command lists for the three workloads.

The seed picks parameters (grids, twists, heights, kappa); the amount of
work is the same for every seed.  Each workload is a list of real ``mflab``
commands run one after another by a single client.

* ``trace``: summatory traces.  Streams ~1.8e7 values through the segment
  kernel and the ordered summer; almost no sieve, zeta or Halász work.
* ``near-line``: F(s), theorem-1 ratios and the lemma defect on sigma grids
  reaching sigma - 1 ~ 1e-8..1e-6.  Dirichlet, Halász and repeated
  segment-kernel work dominate; the twist rows at heights 1000..1250 make
  the Euler-Maclaurin head sum in zeta a measurable share.  zeta's cost
  grows linearly with the height, so the band is narrow to keep the work
  the same for every seed.
* ``prime-scan``: criterion probes and extremal verification over all
  primes up to 2e7.  Dominated by the prime sieve and theta_values; the
  memory workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

TRACE_MOEBIUS_LIMIT = 10**7
TRACE_LIMIT = 2 * 10**6
SERIES_CUTOFF = 10**6
PRIME_CUTOFF = 10**7
SCAN_CUTOFF = 2 * 10**7
DEFAULT_SEGMENT = 1 << 18
TRACE_PASS_S = 7.8
NEAR_LINE_PASS_S = 10.6
PRIME_SCAN_PASS_S = 6.2
REFERENCE_KAPPA = "power:0.25"  # the extremal-ref construction (x1 = 20, J = 3, C0 = 1)


@dataclass
class Command:
    id: str
    kind: str                 # the mflab subcommand
    argv: list[str]           # arguments after ``mflab``
    out: str                  # output file, relative to the work directory
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    commands: list[Command]
    specs: list[str]          # function specs the set-up probe parses
    # nominal wall time of one pass with its probes on the baseline host;
    # run.py makes round(seconds / pass_s) passes, so a seed always gives the
    # same operations
    pass_s: float


def _grid(rng: random.Random) -> str:
    return f"geometric:{round(rng.uniform(1.15, 1.6), 3)!r}:{rng.randint(10, 60)}"


def _sigma(start: float, end: float, count: int) -> str:
    return f"{start!r}:{end!r}:{count}"


def _sum(cid: str, spec: str, limit: int, grid: str, extra=(), **meta) -> Command:
    out = f"{cid}.csv"
    argv = ["sum", "--function", spec, "--limit", str(limit), "--grid", grid,
            *extra, "--out", out]
    return Command(cid, "sum", argv, out, dict(spec=spec, limit=limit, **meta))


def trace(seed: int) -> Workload:
    rng = random.Random(f"trace:{seed}")
    t = round(rng.uniform(0.5, 30.0), 4)
    twist = f"twist:{t!r}:moebius"
    twist_grid = _grid(rng)
    # at most 1.25x below the default size: the segment count (and so the
    # per-segment loop over the sieving primes) barely moves with the seed,
    # and the default-size commands still set peak RSS
    seg = rng.randint(int(DEFAULT_SEGMENT / 1.25), DEFAULT_SEGMENT - 1)
    cmds = [
        _sum("sum-moebius", "moebius", TRACE_MOEBIUS_LIMIT, _grid(rng)),
        _sum("sum-liouville", "liouville", TRACE_LIMIT, _grid(rng)),
        _sum("sum-extremal-ref", "extremal-ref", TRACE_LIMIT, _grid(rng)),
        _sum("sum-twist", twist, TRACE_LIMIT, twist_grid),
        _sum("sum-twist-resegmented", twist, TRACE_LIMIT, twist_grid,
             extra=["--segment-size", str(seg)], same_rows_as="sum-twist"),
    ]
    return Workload("trace", cmds,
                    ["moebius", "liouville", "extremal-ref", twist], TRACE_PASS_S)


def _eval(cid: str, spec: str, method: str, sigma: str, extra=(), **meta) -> Command:
    out = f"{cid}.csv"
    argv = ["eval-f", "--function", spec, "--method", method, "--sigma", sigma,
            *extra, "--out", out]
    return Command(cid, "eval-f", argv, out, dict(spec=spec, method=method, **meta))


def near_line(seed: int) -> Workload:
    rng = random.Random(f"near-line:{seed}")
    start = 1.0 + 10.0 ** -rng.uniform(6.0, 8.0)
    P = ["--prime-cutoff", str(PRIME_CUTOFF)]
    height = round(rng.uniform(1000.0, 1250.0), 3) * rng.choice((-1.0, 1.0))
    twist = f"twist:{height!r}:one"
    twist_sigma = _sigma(1.0 + 10.0 ** -rng.uniform(6.0, 8.0), round(rng.uniform(1.1, 1.5), 3), 2)
    # meta alignment of euler, thm1 and lemma commands: 'aligned' when
    # 1 + e0 f(p) p^(-it0) = 0 for every prime, 'conditional' for the extremal
    # function (the residual 1 - e^(i theta_p) is nonzero on the windows beyond
    # any cutoff), 'misaligned' otherwise.
    cmds = [
        _eval("eval-truncated", "moebius", "truncated",
              _sigma(start, round(rng.uniform(1.3, 1.6), 3), 3),
              ["--series-cutoff", str(SERIES_CUTOFF)]),
        _eval("eval-euler", "moebius", "euler",
              _sigma(start, round(rng.uniform(1.2, 2.0), 3), 4), P, alignment="aligned"),
        _eval("eval-prime-sum", "moebius", "prime-sum",
              _sigma(start, round(rng.uniform(1.2, 2.0), 3), 4), P),
    ]
    for spec, eps, alignment in (("moebius", 1, "aligned"), ("one", -1, "aligned"),
                                 ("extremal-ref", 1, "conditional")):
        cid = f"thm1-{spec}"
        # theorem 1 is stated on (1, 3/2]; the grid asks for exactly that end.
        cmds.append(Command(
            cid, "thm1",
            ["thm1", "--function", spec, "--epsilon", str(eps),
             "--sigma", _sigma(start, 1.5, 4), *P, "--out", f"{cid}.csv"],
            f"{cid}.csv", dict(spec=spec, epsilon=eps, alignment=alignment, sigma_end=1.5)))
    cmds.append(Command(
        "lemma-liouville", "lemma",
        ["lemma", "--function", "liouville", "--epsilon", "1",
         "--sigma", _sigma(start, round(rng.uniform(1.2, 1.35), 3), 4), *P,
         "--out", "lemma-liouville.csv"],
        "lemma-liouville.csv", dict(spec="liouville", alignment="aligned")))
    # twist:t:one has F(s) = zeta(s + it); (e0, t0) = (-1, -t) is aligned
    # with it and (-1, +t) is not.  At heights in the thousands the misaligned
    # residual tail is small; the low twist is where ROADMAP item 1 showed
    # errors far beyond the reported bound.
    low = round(rng.uniform(0.5, 2.0), 4)
    low_twist = f"twist:{low!r}:one"
    for cid, spec, t0, alignment in (
            ("eval-euler-twist-aligned", twist, -height, "aligned"),
            ("eval-euler-twist-misaligned", twist, height, "misaligned"),
            ("eval-euler-low-twist-misaligned", low_twist, low, "misaligned")):
        cmds.append(_eval(cid, spec, "euler", twist_sigma,
                          ["--epsilon", "-1", f"--t0={t0!r}", *P], alignment=alignment))
    return Workload("near-line", cmds,
                    ["moebius", "one", "liouville", "extremal-ref", twist, low_twist],
                    NEAR_LINE_PASS_S)


def _draw_kappa(rng: random.Random) -> str:
    kind = rng.choice(("const", "power", "loglog-fraction"))
    lo, hi = {"const": (0.5, 3.0), "power": (0.1, 0.45),
              "loglog-fraction": (0.1, 0.5)}[kind]
    return f"{kind}:{round(rng.uniform(lo, hi), 3)!r}"


def prime_scan(seed: int) -> Workload:
    rng = random.Random(f"prime-scan:{seed}")
    tw = round(rng.uniform(0.5, 20.0), 4)
    t = round(rng.uniform(-20.0, 20.0), 4)
    twist = f"twist:{tw!r}:moebius"
    P = str(SCAN_CUTOFF)
    cmds = [
        Command("criterion-extremal-ref", "criterion",
                ["criterion", "--function", "extremal-ref", "--prime-cutoff", P,
                 "--out", "criterion-extremal-ref.txt"],
                "criterion-extremal-ref.txt", dict(spec="extremal-ref", t=0.0)),
        Command("criterion-twist", "criterion",
                ["criterion", "--function", twist, "--t", repr(t), "--prime-cutoff", P,
                 "--out", "criterion-twist.txt"],
                "criterion-twist.txt", dict(spec=twist, t=t)),
    ]
    for name, kappa in (("ref", REFERENCE_KAPPA), ("drawn", _draw_kappa(rng))):
        spec_file = f"spec-{name}.json"
        cmds.append(Command(f"build-{name}", "extremal-build",
                            ["extremal-build", "--kappa", kappa, "--out", spec_file],
                            spec_file, dict(kappa=kappa)))
        cmds.append(Command(f"verify-{name}", "extremal-verify",
                            ["extremal-verify", spec_file, "--cutoff", P,
                             "--out", f"verify-{name}.txt"],
                            f"verify-{name}.txt", dict(kappa=kappa, cutoff=SCAN_CUTOFF)))
    return Workload("prime-scan", cmds,
                    ["extremal-ref", twist, "extremal:spec-ref.json", "extremal:spec-drawn.json"],
                    PRIME_SCAN_PASS_S)


WORKLOADS = {"trace": trace, "near-line": near_line, "prime-scan": prime_scan}
