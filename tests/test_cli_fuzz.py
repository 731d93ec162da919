"""Fuzz of ``cli.main(argv)`` over every subcommand.

Half the command lines use good values only; the other half have one bad
field: an unparsable number, a sigma grid at or left of 1 or with a
spacing field, an unknown
function or grid, a missing or malformed spec file.  Sizes stay small (limits and cutoffs <= 10^4).  Ceilings appear only
as values just above them, which every command refuses before it sieves,
allocates or sums.  Whatever the input, a run must exit 0, 2 or 3; a
failure prints exactly one ``error:<kind>:`` line; a written file holds no
NaN, except the ratio that ``thm1`` documents as nan when |F| <= err.
"""

import argparse
import contextlib
import csv
import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from mflab.cli import build_parser, main


def pick(*values):
    return st.sampled_from(values)


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


# (good, bad) values of each flag; None leaves the flag out.  Some good
# combinations are still refused (lemma needs sigma - 1 <= 1/e), and some
# bad values only by some routes.
FUNCTION = (pick("one", "moebius", "liouville", "odd_one", "extremal-ref", "twist:0.7:moebius",
                 "twist:-3:liouville", "extremal:spec.json"),
            pick("twist:nan:one", "twist:x:one", "twist:1", "bogus", "extremal:missing.json",
                 "extremal:bad.json"))
# 100001 points (above SIGMA_GRID_CEILING), like --kmax 100001, is refused before any sieving
SIGMA = (st.builds(lambda a, b, n: f"{min(a, b)}:{max(a, b)}:{n}",
                   pick(1.0000001, 1.001, 1.3, 1.5), pick(1.0000001, 1.001, 1.3, 1.5),
                   st.integers(1, 4)),
         pick("1", "0.5:1.5:3", "nan:1.5:2", "1.5:inf:2", "1.5:1.2:2", "1.1:1.2:0",
              "1.1:1.2:2:log", "1.1:1.2:2:linear", "1.001:1.5:3:geometric", "1.3:1.3:1:linear",
              "1.5", "", "a:b:c", "1.1:1.5:100001"))
# heights past ZETA_HEIGHT_CEILING = 1e8 are refused before any sieving
HEIGHT = (pick(None, "0", "0.7", "-14.13", "3", "1188.582"), pick("nan", "inf", "x", "1e9", "-2e8"))
EPSILON = (pick("1", "-1"), pick("0", "2", "x"))
CUTOFF = (ints(2, 10_000), st.one_of(ints(-2, 1), pick("x", "1e3")))
# PRIME_LIMIT_CEILING + 1 is refused before any sieving
PRIME_CUTOFF = (CUTOFF[0], st.one_of(CUTOFF[1], st.just(str(2**32 + 1))))
# a subnormal start: log(limit / start) overflows, log(limit) - log(start)
# does not; the second grid has too many steps and is refused
GRID = (pick(None, "geometric:2", "geometric:1.5", "explicit:10,20", "explicit:7",
             "geometric:1.5:1e-320"),
        pick("geometric:1", "geometric:x", "explicit:", "explicit:5,a", "linear:5", "bogus",
             "geometric:1.0000000000000002:5e-324"))


def command(name, *positional, **flags):
    """argv of ``name``: every (good, bad) field good, or (as often) one bad."""
    fields = [*positional, *flags.values()]

    @st.composite
    def build(draw):
        spoil = draw(st.one_of(st.just(None), st.integers(0, len(fields) - 1)))
        values = [draw(field[i == spoil]) for i, field in enumerate(fields)]
        argv = [name, *values[: len(positional)]]
        for flag, value in zip(flags, values[len(positional):]):
            if value is not None:
                argv.append(f"--{flag.replace('_', '-')}={value}")  # "=": values like -2e8
        return argv

    return build()


COMMANDS = {
    "sum": command(
        "sum", function=FUNCTION,
        # SUMMATORY_LIMIT_CEILING + 1 and SEGMENT_SIZE_CEILING + 1 reach their checks only
        limit=(ints(1, 10_000), st.one_of(ints(-2, 0), pick("x", str(2**34 + 1)))),
        grid=GRID, segment_size=(pick(None, "7", "1000"), pick("0", "x", str(2**22 + 1)))),
    "eval-f": command(
        "eval-f", function=FUNCTION, sigma=SIGMA, t=HEIGHT,
        method=(pick(None, "truncated", "euler", "prime-sum"), pick("fast")),
        epsilon=EPSILON, t0=HEIGHT, series_cutoff=CUTOFF, prime_cutoff=PRIME_CUTOFF,
        exact_cutoff=CUTOFF),
    "criterion": command(
        "criterion", function=FUNCTION, t=HEIGHT, prime_cutoff=PRIME_CUTOFF,
        kmax=(pick(None, "1", "5", "20"), pick("0", "x", "100001"))),
    "lemma": command(
        "lemma", function=FUNCTION, epsilon=EPSILON, t0=HEIGHT, sigma=SIGMA, t=HEIGHT,
        prime_cutoff=PRIME_CUTOFF),
    "thm1": command(
        "thm1", function=FUNCTION, epsilon=EPSILON, t0=HEIGHT, sigma=SIGMA,
        prime_cutoff=PRIME_CUTOFF, exact_cutoff=CUTOFF),
    "thm2": command(
        "thm2", function=FUNCTION, limit=(ints(16, 10_000), st.one_of(ints(-2, 15), pick("x"))),
        c=(pick(None, "1", "0", "2.5"), pick("nan", "x", "-1", "-1000")), grid=GRID),
    "extremal-build": command(
        "extremal-build",
        kappa=(pick("power:0.25", "const:1", "loglog-fraction:0.3"),
               pick("power:-1", "power:nan", "const:x", "bogus", "power")),
        x1=(pick(None, "20", "16", "1e300"), pick("2", "nan")),
        J=(pick(None, "1", "2", "3"), pick("0", "-1", "40", "x")),
        C0=(pick(None, "1", "0.5"), pick("0", "-1", "nan"))),
    "extremal-verify": command(
        "extremal-verify", (pick("spec.json"), pick("missing.json", "bad.json")),
        cutoff=PRIME_CUTOFF, block=(pick(None, "1", "2", "3"), pick("0", "9", "x"))),
}


def test_every_subcommand_is_fuzzed():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(COMMANDS)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    assert main(["extremal-build", "--kappa", "power:0.25", "--out", str(d / "spec.json")]) == 0
    (d / "bad.json").write_text('{"x1": 20, "blocks": [')
    return d


def run(argv):
    """Exit code and standard error of one ``main`` call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejected the command line
            code = e.code
    return code, err.getvalue()


def nan_fields(path):
    """Every NaN in a written file.  thm1's documented indeterminate ratio
    (nan where abs_F <= err_F) is not counted."""
    text = path.read_text()
    if path.suffix != ".csv":
        return re.findall(r"\bnan\b", text, flags=re.IGNORECASE)
    rows = list(csv.reader(text.splitlines()[1:]))
    header, found = rows[0], []
    for row in rows[1:]:
        cells = dict(zip(header, row))
        for name, value in cells.items():
            if value.lower() != "nan":
                continue
            if name == "ratio" and "abs_F" in cells \
                    and float(cells["abs_F"]) <= float(cells["err_F"]):
                continue
            found.append((row, name))
    return found


@pytest.mark.parametrize("subcommand", sorted(COMMANDS))
def test_cli_contract_under_fuzz(subcommand, workdir, monkeypatch):
    monkeypatch.chdir(workdir)  # function specs and spec files name relative paths

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(COMMANDS[subcommand])
    def check(argv):
        out = workdir / ("out.json" if subcommand == "extremal-build" else
                         "out.txt" if subcommand in ("criterion", "extremal-verify") else "out.csv")
        out.unlink(missing_ok=True)
        code, err = run([*argv, "--out", out.name])
        assert code in (0, 2, 3), (argv, code, err)
        if code:
            assert err.count("\n") == 1, (argv, err)
            assert re.match(r"error:(usage|domain|capacity|coverage|singular):", err), (argv, err)
        else:
            assert out.exists(), argv
            assert not nan_fields(out), (argv, nan_fields(out))

    check()
