import csv
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_halasz_survey_smoke(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_halasz_survey.py"),
         "--prime-cutoff", "10000", "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 7  # header, five verdicts, summary
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == 10
    for path in csvs:
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# mflab ")
        rows = list(csv.reader(lines[2:]))
        assert rows
        for row in rows:
            for value in row:
                float(value)  # a number, not a repr such as np.float64(...)
    # the lemma grid stays inside sigma - 1 <= 1/e
    assert all(float(r[0]) <= 1.0 + 1.0 / math.e
               for p in tmp_path.glob("lemma_*.csv")
               for r in csv.reader(p.read_text().splitlines()[2:]))
