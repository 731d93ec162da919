"""The benchmark's tracer still runs against this source tree.

perfbench/tracer.py wraps mflab's public functions and binds the arguments
of a few of them by name (``segment_values``' ``f``, ``lo`` and ``hi``,
``prime_values``' ``self`` and ``ps``, ``StreamSummer.feed``'s ``vals``).
A rename in mflab breaks the traced runs, not the untraced ones, so each
toy command here runs under the unchanged tracer in a fresh process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = {
    # the sum's workers leave by os._exit and record no spans, but a wrapper
    # that cannot bind segment_values' arguments fails the command
    "sum": ["sum", "--function", "twist:0.7:extremal-ref", "--limit", "20000",
            "--out", "sum.csv"],
    "eval-f": ["eval-f", "--function", "moebius", "--method", "truncated",
               "--sigma", "1.01:1.5:2", "--series-cutoff", "20000", "--out", "f.csv"],
    "criterion": ["criterion", "--function", "extremal-ref", "--prime-cutoff", "20000",
                  "--out", "c.txt"],
    # the prime routes; the Moebius/log-zeta identity of the euler route, thm1
    # and lemma reads mu(k) from segment_values
    "euler": ["eval-f", "--function", "liouville", "--method", "euler", "--sigma", "1.01:1.5:2",
              "--prime-cutoff", "20000", "--out", "e.csv"],
    "prime-sum": ["eval-f", "--function", "extremal-ref", "--method", "prime-sum", "--t", "1",
                  "--sigma", "1.01:1.5:2", "--prime-cutoff", "20000", "--out", "p.csv"],
    "thm1": ["thm1", "--function", "odd_one", "--epsilon", "-1", "--sigma", "1.01:1.5:2",
             "--prime-cutoff", "20000", "--out", "t.csv"],
    "lemma": ["lemma", "--function", "twist:0.5:one", "--epsilon", "-1", "--t0", "0.5",
              "--sigma", "1.01:1.2:2", "--prime-cutoff", "20000", "--out", "l.csv"],
    # the spec that verify reads: the build runs first, in its own process
    "build": ["extremal-build", "--kappa", "power:0.25", "--out", "spec.json"],
    "verify": ["extremal-verify", "spec.json", "--cutoff", "20000", "--out", "v.txt"],
}


def test_the_tracer_runs_each_command_and_records_the_kernel_spans(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    names = {}
    for command, argv in COMMANDS.items():
        spans = tmp_path / f"{command}.json"
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans),
                               *argv], cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, (command, proc.stderr)
        names[command] = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"multfun.segment_values", "multfun.prime_values",
            "multfun.StreamSummer.feed"} <= set().union(*names.values()), names
    for command in ("euler", "thm1", "lemma"):
        assert "multfun.segment_values" in names[command], (command, sorted(names[command]))
    # every prime route sums through the one prime pass
    for command in ("euler", "prime-sum", "thm1", "lemma", "verify"):
        assert "dirichlet.prime_sums" in names[command], (command, sorted(names[command]))
