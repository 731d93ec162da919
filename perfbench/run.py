"""Runs one mflab benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload {trace,near-line,prime-scan}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The workload (see workloads.py) is
a list of real ``mflab`` commands, run as a closed loop with one client:
each command is a fresh process started only after the previous one exits.
A run makes a fixed number of passes over the list, set by ``--seconds``
and the workload's nominal pass time, so that a seed always gives the same
operations; every pass's output bytes are compared with the first pass's.
Oracle audits (audit.py, oracles.py) run after the timed passes.

The host is shared and its speed drifts by tens of percent within a run.
So a reference probe (a fixed Python process that does not touch mflab)
runs before every command, and each pass's timings are scaled by
REFERENCE_PROBE_S / (mean wall time of that pass's probes): they are
seconds on a host where the probe takes REFERENCE_PROBE_S.  The raw
medians and the scale factors are printed too.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: the median
over passes of the scaled pass wall time, the median over passes of the
scaled mean wall time of the set-up probes run after each pass (start
Python, import mflab.cli, parse the workload's function specs), and the
median of each pass's largest per-process peak RSS.
``--trace 1`` alternates untraced passes with traced ones (tracer.py) and
prints the per-layer metrics.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = HERE / "tracer.py"
MIN_PASSES = 3
SETUP_PROBES_PER_PASS = 2
SETUP_PROBE = ("import sys, mflab.cli\n"
               "from mflab.multfun import parse_function_spec\n"
               "for spec in sys.argv[1:]:\n"
               "    parse_function_spec(spec)\n")
# start-up, numpy import, interpreter loop and a memory-bound array pass: the
# mix the mflab commands are made of
REFERENCE_PROBE = ("import numpy as np\n"
                   "s = 0\n"
                   "for i in range(150000):\n"
                   "    s += i * i % 7\n"
                   "a = np.ones(6_000_000)\n"
                   "a += 1.0\n"
                   "(a * a).sum()\n")
# median wall time of REFERENCE_PROBE between mflab commands on the 2-CPU
# host (Python 3.11.7, numpy 2.4.6) where the baseline was measured
REFERENCE_PROBE_S = 0.28

sys.path.insert(0, str(HERE))
import audit  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Result:
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    stderr: str
    data: bytes | None = None
    spans: dict | None = None


def spawn(argv: list[str], cwd: Path, env: dict) -> Result:
    """Run one process to completion; wall time, its own rusage, stderr."""
    err_path = cwd / ".stderr"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                  proc.returncode, err_path.read_text(errors="replace"))


def run_pass(wload, work: Path, env: dict, traced: bool, index: int,
             references: list[Result]) -> list[Result]:
    """One pass over the workload's commands, each preceded by a reference probe."""
    out = []
    for cmd in wload.commands:
        references.append(spawn([sys.executable, "-c", REFERENCE_PROBE], work, env))
        target = work / cmd.out
        target.unlink(missing_ok=True)
        if traced:
            span_file = work / "spans" / f"pass{index}-{cmd.id}.json"
            r = spawn([sys.executable, str(TRACER), str(span_file), *cmd.argv], work, env)
            r.spans = json.loads(span_file.read_text()) if span_file.exists() else None
        else:
            r = spawn([sys.executable, "-m", "mflab.cli", *cmd.argv], work, env)
        r.data = target.read_bytes() if target.exists() else None
        out.append(r)
    return out


def pass_wall(results: list[Result]) -> float:
    return sum(r.wall for r in results)


# ---------------------------------------------------------------------------
# per-layer aggregation


def layer_table(wload, passes: list[list[Result]]) -> tuple[dict, dict]:
    """Per-layer values of one traced pass, and trace coverage per command."""
    agg = defaultdict(float)
    coverage = {}
    imports = []
    for cmd, r in zip(wload.commands, passes):
        if r.spans is None:
            continue
        spans = r.spans["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, items, rep in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        covered = 0.0
        for i, (name, t0, t1, parent, items, rep) in enumerate(spans):
            agg[f"{name}.self_s"] += (t1 - t0) - child[i]
            agg[f"{name}.calls"] += 1
            agg[f"{name}.items"] += items
            agg[f"{name}.repeated"] += rep
            if parent >= 0 and spans[parent][0] == "cli.main" and spans[parent][3] < 0:
                covered += t1 - t0
        coverage[cmd.id] = covered / r.spans["command_s"]
        imports.append(r.spans["import_s"])
    for key in [k for k in agg if k.endswith(".items")]:
        base = key[: -len(".items")]
        agg[f"{base}.repeat_share"] = agg[f"{base}.repeated"] / agg[key] if agg[key] else 0.0
    agg["cli.import_s"] = statistics.median(imports) if imports else 0.0
    agg["trace.coverage"] = min(coverage.values()) if coverage else 0.0
    return agg, coverage


def untraced_layers(wload, results: list[Result]) -> dict:
    out = defaultdict(float)
    for cmd, r in zip(wload.commands, results):
        out[f"cli.{cmd.kind}.wall_s"] += r.wall
        out["cli.cpu_s"] += r.cpu
    return out


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "mflab" / "cli.py").is_file():
        print(f"error: no mflab sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    wload = workloads.WORKLOADS[args.workload](args.seed)
    work = WORK / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "spans").mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))

    # measured region: a fixed number of passes, with set-up probes after
    # each untraced one
    n_passes = max(MIN_PASSES, round(args.seconds / wload.pass_s))
    passes: list[list[Result]] = []
    kinds: list[bool] = []   # traced?
    references: list[list[Result]] = []   # reference probes of each pass
    setups: list[list[Result]] = []       # set-up probes after each pass
    for index in range(n_passes):
        traced = bool(args.trace) and index % 2 == 1
        references.append([])
        passes.append(run_pass(wload, work, env, traced, index, references[-1]))
        kinds.append(traced)
        setups.append([] if traced else
                      [spawn([sys.executable, "-c", SETUP_PROBE, *wload.specs], work, env)
                       for _ in range(SETUP_PROBES_PER_PASS)])

    # audits: the first pass against the oracles, later passes byte for byte
    auditor = audit.Auditor()
    first = passes[0]
    first_problems = [auditor.check(c, r.rc, r.stderr, r.data) for c, r in zip(wload.commands, first)]
    failures: list[tuple[int, str, list[audit.Problem]]] = []
    for i, results in enumerate(passes):
        for cmd, r, r0, probs in zip(wload.commands, results, first, first_problems):
            if i and (r.rc, r.data) != (r0.rc, r0.data):
                probs = probs + [audit.Problem(f"pass {i} output differs from pass 0")]
            if probs:
                failures.append((i, cmd.id, probs))
    attempted = len(passes) * len(wload.commands)
    unexpected = [(i, c, p) for i, c, ps in failures for p in ps if p.defect is None]
    known = sorted({(c, p.defect, p.what) for i, c, ps in failures for p in ps if p.defect})
    bound = auditor.bound_problem()
    if bound:
        unexpected.append((0, "audited aligned rows", bound))
    correct = not unexpected

    bad = [p for p in sum(references + setups, []) if p.rc]
    if bad:
        print(f"error: probe failed: {bad[0].stderr.strip()}", file=sys.stderr)
        return 1
    untraced = [p for p, k in zip(passes, kinds) if not k]
    traced = [p for p, k in zip(passes, kinds) if k]
    # (scale, pass wall, mean set-up probe wall) of each untraced pass
    scaled = [(REFERENCE_PROBE_S / statistics.fmean(r.wall for r in refs), pass_wall(p),
               statistics.fmean(r.wall for r in sets))
              for p, refs, sets, k in zip(passes, references, setups, kinds) if not k]
    raw_run_s = statistics.median(wall for _, wall, _ in scaled)

    print("pass wall times:", " ".join(f"{pass_wall(p):.3f}" for p in passes))
    print("untraced pass scale factors:", " ".join(f"{f:.4f}" for f, _, _ in scaled))
    print(f"raw medians: pass {raw_run_s:.4f} s, "
          f"set-up {statistics.median(s for _, _, s in scaled):.4f} s, "
          f"reference probe {statistics.median(r.wall for r in sum(references, [])):.4f} s")
    print(f"workload {wload.name} seed {args.seed}: {len(passes)} passes of "
          f"{len(wload.commands)} commands (closed loop, 1 client, {os.cpu_count()} CPUs)")
    if args.trace == 0:
        values = {
            "run_s": statistics.median(f * wall for f, wall, _ in scaled),
            "setup_s": statistics.median(f * setup for f, _, setup in scaled),
            "peak_rss_mb": statistics.median(max(r.rss_mb for r in p) for p in untraced),
        }
        wanted = config["end_to_end"]
    else:
        tr_layers = [layer_table(wload, p) for p in traced]
        un_layers = [untraced_layers(wload, p) for p in untraced]
        values = {}
        for m in config["per_layer"]:
            name = m["name"]
            src = un_layers if name.startswith("cli.") and name.endswith(("wall_s", "cpu_s")) else \
                [t for t, _ in tr_layers]
            values[name] = statistics.median(d.get(name, 0.0) for d in src)
        values["trace.overhead"] = statistics.median(map(pass_wall, traced)) / raw_run_s - 1.0
        wanted = config["per_layer"]

    for m in wanted:
        print(f"  {m['name']:<42} {values[m['name']]:>14.6g} {m['unit']}")
    if args.trace == 1:
        print("  trace coverage per command (share of its post-import wall time in layer spans):")
        for cid, cov in tr_layers[0][1].items():
            print(f"    {cid:<40} {cov:.3f}")
    print(f"  {'fail_ratio':<42} {len(failures) / attempted:>14.6g} 1"
          f"  ({len(failures)}/{attempted} operations)")
    bl = auditor.bound_log10_median()
    if bl is not None:
        print(f"  {'bound_log10_median':<42} {bl:>14.6g} log10"
              f"  ({len(auditor.bound_log10)} audited aligned rows)")
    print(f"oracle and determinism checks: {'PASS' if correct else 'FAIL'}"
          f"{' (only known defects failed)' if correct and known else ''}")
    for c, defect, what in known:
        print(f"  known defect {defect}: {c}: {what}")
    for defect in sorted({d for _, d, _ in known}):
        print(f"    {defect}: {audit.KNOWN_DEFECTS[defect]}")
    for note in auditor.notes:
        print(f"  note: {note}")
    for i, c, p in unexpected:
        print(f"  FAIL pass {i} {c}: {p.what}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
