"""The golden corpus audited against the truth (ROADMAP item 14).

test_golden.py proves that a run reproduces the files under golden/ byte
for byte; this module checks that what they print is true.  Every row with
an ``err`` column and a closed form for its function is compared with
mpmath at 30 digits, which shares no code with mflab:

* ``one`` -> zeta(s), ``moebius`` -> 1/zeta(s), ``liouville`` ->
  zeta(2s)/zeta(s), ``odd_one`` -> (1 - 2^-s) zeta(s), and ``twist:T:base``
  -> the base's form at s + iT;
* ``eval-f`` rows print F(s): |value - truth| <= err;
* ``thm1`` rows print |F(sigma + i t0)| and ``lemma`` rows |D|, where
  D = e0 sum_p f(p) p^-s + log zeta(s - i t0) with the prime sum from
  ``primezeta``: ||value| - |truth|| <= err.

Rows of ``extremal-ref`` rules have no closed form and are not audited
here.  The tightness err / |value - truth| of each row is recorded as a
property of its test, not gated; print the whole table with

    PYTHONPATH=src python tests/test_golden_audit.py
"""

import ast
import csv
import re
from pathlib import Path

import mpmath as mp
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _flags(provenance: str) -> tuple[str, dict]:
    """The command and the flags of a ``# mflab <command> --k=v ...`` line."""
    command = provenance.split()[2]
    return command, {k: ast.literal_eval(v) for k, v in re.findall(r"--([a-z0-9-]+)=(\S+)",
                                                                  provenance)}


def _F(spec: str, s):
    """F(s) = sum f(n) n^-s of a builtin ``spec``."""
    if spec.startswith("twist:"):
        _, t, base = spec.split(":", 2)
        return _F(base, s + mp.mpc(0, float(t)))  # f(n) n^-it: the base at s + it
    return {"one": lambda: mp.zeta(s), "moebius": lambda: 1 / mp.zeta(s),
            "liouville": lambda: mp.zeta(2 * s) / mp.zeta(s),
            "odd_one": lambda: (1 - mp.power(2, -s)) * mp.zeta(s)}[spec]()


def _prime_sum(spec: str, s):
    """sum_p f(p) p^-s of a builtin ``spec``."""
    if spec.startswith("twist:"):
        _, t, base = spec.split(":", 2)
        return _prime_sum(base, s + mp.mpc(0, float(t)))
    return {"one": lambda: mp.primezeta(s), "moebius": lambda: -mp.primezeta(s),
            "liouville": lambda: -mp.primezeta(s),
            "odd_one": lambda: mp.primezeta(s) - mp.power(2, -s)}[spec]()


def _off_by(command: str, flags: dict, row: dict) -> tuple[float, float]:
    """(|value - truth|, err) of one golden row, at 30 digits."""
    spec = flags["function"]
    with mp.workdps(30):
        if command == "eval-f":
            s = mp.mpc(float(row["sigma"]), float(row["t"]))
            value = mp.mpc(float(row["re"]), float(row["im"]))
            return float(abs(value - _F(spec, s))), float(row["err"])
        if command == "thm1":
            s = mp.mpc(float(row["sigma"]), float(row["t0"]))
            return float(abs(float(row["abs_F"]) - abs(_F(spec, s)))), float(row["err_F"])
        assert command == "lemma", command
        s = mp.mpc(float(row["sigma"]), float(row["t"]))
        D = (flags["epsilon"] * _prime_sum(spec, s)
             + mp.log(mp.zeta(s - mp.mpc(0, flags["t0"]))))
        return float(abs(float(row["abs_D"]) - abs(D))), float(row["err"])


def _rows():
    """(file, index, command, flags, row) for every audited golden row."""
    for path in sorted(GOLDEN.glob("*.csv")):
        lines = path.read_text().splitlines()
        command, flags = _flags(lines[0])
        header, *body = csv.reader(lines[1:])
        if not any(h.startswith("err") for h in header) or "extremal" in flags["function"]:
            continue  # no err to audit (sum, thm2), or no closed form
        for i, values in enumerate(body):
            yield path.name, i, command, flags, dict(zip(header, values))


ROWS = list(_rows())


@pytest.mark.parametrize("name, i, command, flags, row", [
    pytest.param(*r, id=f"{r[0]}:{r[1]}") for r in ROWS])
def test_golden_row_lies_within_err_of_the_truth(name, i, command, flags, row, record_property):
    off, err = _off_by(command, flags, row)
    record_property("tightness", err / off if off else float("inf"))
    assert off <= err, f"{name} row {i}: off by {off:.3g}, err {err:.3g}"


def test_the_audit_covers_every_closed_form_file():
    audited = {r[0] for r in ROWS}
    assert len(ROWS) == 39 and len(audited) == 11, sorted(audited)


if __name__ == "__main__":
    print(f"{'row':36} {'off by':>10} {'err':>10} {'err/off':>10}")
    for name, i, command, flags, row in ROWS:
        off, err = _off_by(command, flags, row)
        print(f"{name + ':' + str(i):36} {off:10.3g} {err:10.3g} "
              f"{err / off if off else float('inf'):10.3g}")
