#!/usr/bin/env python3
"""Build extremal specs for the whole kappa menu and verify their mechanics.

For each kappa in the menu: construct blocks, check the theta-square sum
against its Mertens majorant, run the block-1 window check, and trace the
summatory function of the resulting f.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from pathlib import Path

from mflab import cli
from mflab.extremal import build_spec, extremal_function, save_spec, verify
from mflab.halasz import HalaszDirection, pole_sum


@dataclass
class DemoConfig:
    outdir: Path = Path("extremal_out")
    cutoff: int = 100_000
    trace_limit: int = 100_000
    x1: float = 20.0
    J: int = 3
    kappas: list[str] = field(default_factory=lambda: [
        "power:0.25", "power:0.4", "const:1.0", "loglog-fraction:0.5"])


def run(cfg: DemoConfig) -> None:
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    for kspec in cfg.kappas:
        tag = kspec.replace(":", "_").replace(".", "p")
        spec = build_spec(kspec, x1=cfg.x1, J=cfg.J)
        spec_path = cfg.outdir / f"spec_{tag}.json"
        save_spec(spec, str(spec_path))
        print(f"== kappa = {kspec}: a_j = {[round(b.a, 4) for b in spec.blocks]}")
        rep, (wrep,) = verify(spec, cfg.cutoff, [1])
        print(f"   psum {rep.observed:.5f} <= majorant {rep.majorant:.5f} "
              f"<= 4*sum a^2 {rep.budget_bound:.5f}: "
              f"{'PASS' if rep.ok else 'FAIL'}")
        print(f"   block-1 window [{wrep.selected_min}, {wrep.selected_max}] "
              f"({wrep.selected_count} primes), W = {wrep.window_sum:.5f} "
              f">= {wrep.half_theta_sum:.5f}: {'PASS' if wrep.ok else 'FAIL'}")
        f = extremal_function(spec)
        zero_sum = pole_sum(f, HalaszDirection(1, 0.0), cfg.cutoff).final()
        print(f"   zero-direction alignment sum at P={cfg.cutoff}: {zero_sum:.6f}")
        rc = cli.main(["sum", "--function", f"extremal:{spec_path}",
                       "--limit", str(cfg.trace_limit), "--out", str(cfg.outdir / f"trace_{tag}.csv")])
        if rc:
            raise SystemExit(rc)
    print(f"wrote specs and traces to {cfg.outdir}/")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=Path, default=Path("extremal_out"))
    ap.add_argument("--cutoff", type=int, default=100_000)
    ap.add_argument("--x1", type=float, default=20.0)
    ap.add_argument("--J", type=int, default=3)
    args = ap.parse_args()
    run(DemoConfig(outdir=args.outdir, cutoff=args.cutoff, x1=args.x1, J=args.J))


if __name__ == "__main__":
    main()
