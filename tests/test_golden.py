"""Every subcommand's output bytes against files checked in under golden/.

The corpus runs in order in one directory (the extremal commands read the
spec written by ``extremal-build``).  Prime cutoffs above 2^20 + 2 span
more than one sieve segment, so streamed prime sums cross chunk edges; an
exact-factor cutoff of 1.1e6 cuts the defect sum early in the second one.
Regenerate the files only for a deliberate format change:

    PYTHONPATH=src python tests/test_golden.py tests/golden
"""

import sys
from pathlib import Path

from mflab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
P2 = "2200000"  # two sieve segments

CORPUS = [
    ("sum-moebius.csv", ["sum", "--function", "moebius", "--limit", "5000",
                         "--grid", "geometric:2"]),
    ("sum-twist-extremal.csv", ["sum", "--function", "twist:0.7:extremal-ref", "--limit", "3000",
                                "--grid", "explicit:10,999,1000,2047", "--segment-size", "1000"]),
    ("eval-truncated.csv", ["eval-f", "--function", "moebius", "--sigma", "1.01:2:4",
                            "--series-cutoff", "5000"]),
    ("eval-euler.csv", ["eval-f", "--function", "moebius", "--method", "euler",
                        "--sigma", "1.0000001:1.5:4", "--prime-cutoff", P2]),
    ("eval-euler-odd.csv", ["eval-f", "--function", "odd_one", "--method", "euler",
                            "--epsilon", "-1", "--sigma", "1.001:1.5:3",
                            "--prime-cutoff", "20000"]),
    ("eval-euler-twist-aligned.csv", ["eval-f", "--function", "twist:0.7:one", "--method",
                                      "euler", "--epsilon", "-1", "--t", "0.7",
                                      "--t0=-0.7", "--sigma", "1.001:1.5:3",
                                      "--prime-cutoff", "20000"]),
    ("eval-euler-twist-misaligned.csv", ["eval-f", "--function", "twist:0.7:one", "--method",
                                         "euler", "--epsilon", "-1", "--t0", "0.7",
                                         "--sigma", "1.01:1.5:3", "--prime-cutoff", P2]),
    ("eval-prime-sum.csv", ["eval-f", "--function", "extremal-ref", "--method", "prime-sum",
                            "--sigma", "1.01:1.5:3", "--t", "1", "--prime-cutoff", P2]),
    ("eval-prime-sum-moebius.csv", ["eval-f", "--function", "moebius", "--method", "prime-sum",
                                    "--sigma", "1.1:2:3", "--prime-cutoff", "20000",
                                    "--exact-cutoff", "20000"]),
    ("eval-prime-sum-exact-cut.csv", ["eval-f", "--function", "liouville", "--method",
                                      "prime-sum", "--sigma", "1.001:1.5:4", "--t", "0.3",
                                      "--prime-cutoff", P2, "--exact-cutoff", "1100000"]),
    ("criterion-one.txt", ["criterion", "--function", "one", "--prime-cutoff", "100000"]),
    ("criterion-twist.txt", ["criterion", "--function", "twist:3.3:moebius", "--t", "2.5",
                             "--prime-cutoff", P2]),
    ("criterion-extremal.txt", ["criterion", "--function", "extremal-ref",
                                "--prime-cutoff", "100000", "--kmax", "5"]),
    ("criterion-twist-extremal.txt", ["criterion", "--function", "twist:7.25:extremal-ref",
                                      "--t", "3.1", "--prime-cutoff", "100000"]),
    ("lemma-liouville.csv", ["lemma", "--function", "liouville", "--epsilon", "1",
                             "--sigma", "1.001:1.3:4", "--prime-cutoff", P2]),
    ("lemma-twist.csv", ["lemma", "--function", "twist:0.7:one", "--epsilon", "-1",
                         "--t0", "0.7", "--t", "0.3", "--sigma", "1.01:1.2:3",
                         "--prime-cutoff", "20000"]),
    ("thm1-moebius.csv", ["thm1", "--function", "moebius", "--epsilon", "1",
                          "--sigma", "1.0000001:1.5:5", "--prime-cutoff", P2]),
    ("thm1-extremal.csv", ["thm1", "--function", "extremal-ref", "--epsilon", "1",
                           "--sigma", "1.001:1.5:3", "--prime-cutoff", P2]),
    ("thm1-one-misaligned.csv", ["thm1", "--function", "one", "--epsilon", "-1",
                                 "--t0", "0.5", "--sigma", "1.01:1.5:3",
                                 "--prime-cutoff", "20000"]),
    ("thm2.csv", ["thm2", "--function", "liouville", "--limit", "20000",
                  "--grid", "geometric:2"]),
    ("spec.json", ["extremal-build", "--kappa", "power:0.25"]),
    ("spec-ll.json", ["extremal-build", "--kappa", "loglog-fraction:0.3", "--J", "2"]),
    ("verify.txt", ["extremal-verify", "spec.json", "--cutoff", P2]),
    ("verify-block.txt", ["extremal-verify", "spec-ll.json", "--cutoff", "50000",
                          "--block", "1"]),
    ("sum-extremal-spec.csv", ["sum", "--function", "extremal:spec.json", "--limit", "2000"]),
]


def run_corpus() -> None:
    """Run the corpus in the current directory."""
    for name, argv in CORPUS:
        assert main([*argv, "--out", name]) == 0, name


def test_cli_outputs_match_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_corpus()
    for name, _ in CORPUS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    import os

    target = Path(sys.argv[1]).resolve()
    target.mkdir(parents=True, exist_ok=True)
    os.chdir(target)
    run_corpus()
