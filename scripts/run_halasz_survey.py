#!/usr/bin/env python3
"""Survey the builtin corpus through the mflab CLI: pole/zero ratios, defect
grids and criterion verdicts.

Writes thm1_<function>_<epsilon0>.csv and lemma_<function>_<epsilon0>.csv per
direction and criterion_<function>.txt per function into --outdir, then prints
each report's verdict.  Every output is deterministic; rerunning overwrites
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from mflab import cli

# (function, epsilon0) pairs worth probing at t0 = 0
DIRECTIONS = [("moebius", 1), ("liouville", 1), ("one", -1), ("odd_one", -1),
              ("extremal-ref", 1)]
THM1_SIGMA = "1.001:1.5:12"   # Theorem 1 is stated for sigma in (1, 3/2]
LEMMA_SIGMA = "1.001:1.3:11"  # the lemma needs sigma - 1 <= 1/e
CRITERION_CUTOFF = 1_000_000


def mflab(*argv: str) -> None:
    code = cli.main(list(argv))
    if code:
        sys.exit(code)


def run(outdir: Path, prime_cutoff: int) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for name, eps in DIRECTIONS:
        for cmd, sigma in (("thm1", THM1_SIGMA), ("lemma", LEMMA_SIGMA)):
            mflab(cmd, "--function", name, "--epsilon", str(eps), "--sigma", sigma,
                  "--prime-cutoff", str(prime_cutoff),
                  "--out", str(outdir / f"{cmd}_{name}_{eps}.csv"))
    print(f"{'function':14} verdict")
    for name, _ in DIRECTIONS:
        report = outdir / f"criterion_{name}.txt"
        mflab("criterion", "--function", name, "--prime-cutoff", str(CRITERION_CUTOFF),
              "--out", str(report))
        verdict = next(line for line in report.read_text().splitlines()
                       if line.startswith("verdict: "))
        print(f"{name:14} {verdict.removeprefix('verdict: ')}")
    print(f"wrote {3 * len(DIRECTIONS)} files to {outdir}/")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=Path, default=Path("survey_out"))
    ap.add_argument("--prime-cutoff", type=int, default=100_000)
    args = ap.parse_args()
    run(args.outdir, args.prime_cutoff)


if __name__ == "__main__":
    main()
