import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mflab import dirichlet, extremal, halasz, multfun, primes
from mflab.cli import build_parser, main
from mflab.errors import FunctionSpecError

from _oracles import brute_summatory
from mflab.multfun import builtin


def run(argv, capsys=None):
    code = main(argv)
    return code


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# mflab ")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


def test_sum_command(tmp_path):
    out = tmp_path / "sum.csv"
    assert run(["sum", "--function", "liouville", "--limit", "20000",
                "--grid", "geometric:2", "--out", str(out)]) == 0
    prov, header, rows = read_csv(out)
    assert header == ["x", "re_S", "im_S", "abs_S"]
    row10 = next(r for r in rows if r[0] == "10")
    assert float(row10[3]) == 0.0  # brute-force lambda sum to 10 vanishes
    assert brute_summatory(builtin("liouville"), 10) == 0
    assert rows[-1][0] == "20000"


def test_sum_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sum", "--function", "moebius", "--limit", "5000", "--out"]
    assert run(args + [str(a)]) == 0
    assert run(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_thm1_command(tmp_path):
    out = tmp_path / "thm1.csv"
    assert run(["thm1", "--function", "odd_one", "--epsilon", "-1", "--t0", "0",
                "--sigma", "1.001:1.5:8", "--out", str(out)]) == 0
    prov, header, rows = read_csv(out)
    assert header == ["sigma", "t0", "abs_F", "err_F", "ratio"]
    assert len(rows) == 8
    for r in rows:
        assert 0.2 <= float(r[-1]) <= 5.0


def test_thm1_grid_ends_at_requested_end(tmp_path):
    # (start - 1) r^39 rounds to 1.5000000000000007, outside (1, 3/2]
    out = tmp_path / "thm1.csv"
    assert run(["thm1", "--function", "moebius", "--epsilon", "1",
                "--sigma", "1.000001:1.5:40", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 40
    assert rows[-1][0] == "1.5"


def test_thm2_command(tmp_path):
    out = tmp_path / "thm2.csv"
    assert run(["thm2", "--function", "liouville", "--limit", "100000",
                "--c", "1.0", "--grid", "geometric:10", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["x", "abs_S", "ratio"]
    assert all(int(r[0]) >= 16 for r in rows)


def test_lemma_command(tmp_path):
    out = tmp_path / "lemma.csv"
    assert run(["lemma", "--function", "liouville", "--epsilon", "1",
                "--sigma", "1.001:1.1:3", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["sigma", "t", "abs_D", "ratio", "err"]
    for r in rows:
        assert float(r[2]) <= 1.0


def test_eval_f_command(tmp_path):
    out = tmp_path / "evalf.csv"
    assert run(["eval-f", "--function", "moebius", "--sigma", "1.5:1.5:1",
                "--method", "euler", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["sigma", "t", "re", "im", "abs", "err", "method"]
    assert rows[0][6] == "euler-product"
    # 1/zeta(1.5) = 0.3827...
    assert float(rows[0][4]) == pytest.approx(0.3827928, abs=1e-4)


# the cutoff flags each command declares; PLAN holds the same prime and exact cutoffs
PLAN_FLAGS = {
    "eval-f": ["--series-cutoff", "5000", "--prime-cutoff", "20000", "--exact-cutoff", "10000"],
    "lemma": ["--prime-cutoff", "20000"],
    "thm1": ["--prime-cutoff", "20000", "--exact-cutoff", "10000"],
}
PLAN = dirichlet.TruncationPlan(prime_cutoff=20000, exact_factor_cutoff=10000)
# route -> (argv of one row, the library call with the same inputs, the part names of its err)
ERR_ROUTES = {
    "truncated": (
        ["eval-f", "--function", "moebius", "--sigma", "1.01:1.01:1"],
        lambda f: dirichlet.F_truncated(f, [dirichlet.ComplexPoint(1.01)], 5000),
        ("series-tail",)),
    "euler": (
        ["eval-f", "--function", "moebius", "--method", "euler", "--sigma", "1.001:1.001:1"],
        lambda f: dirichlet.F_euler(f, [dirichlet.ComplexPoint(1.001)], PLAN),
        ("exp",)),
    "prime-sum": (
        ["eval-f", "--function", "extremal-ref", "--method", "prime-sum", "--t", "1",
         "--sigma", "1.01:1.01:1"],
        lambda f: dirichlet.log_F_prime_sum(f, [dirichlet.ComplexPoint(1.01, 1.0)], PLAN),
        ("prime-tail", "defect-tail")),
    "lemma": (
        ["lemma", "--function", "liouville", "--epsilon", "1", "--sigma", "1.001:1.001:1"],
        lambda f: halasz.lemma_defect(f, halasz.HalaszDirection(1),
                                      [dirichlet.ComplexPoint(1.001)], PLAN.prime_cutoff),
        ("bracket", "residual-tail")),
    "thm1": (
        ["thm1", "--function", "one", "--epsilon", "-1", "--t0", "0.5", "--sigma", "1.01:1.01:1"],
        lambda f: [p.F for p in halasz.theorem1_ratio(f, halasz.HalaszDirection(-1, 0.5),
                                                      [1.01], PLAN)],
        ("exp",)),
}


@pytest.mark.parametrize("route", ERR_ROUTES)
def test_printed_err_is_the_sum_of_the_parts(tmp_path, route):
    argv, call, names = ERR_ROUTES[route]
    out = tmp_path / "out.csv"
    assert run([*argv, *PLAN_FLAGS[argv[0]], "--out", str(out)]) == 0
    _, header, (row,) = read_csv(out)
    f = multfun.parse_function_spec(argv[argv.index("--function") + 1])
    (r,) = call(f)
    assert row[header.index("err_F" if route == "thm1" else "err")] == repr(float(r.error_bound))
    assert tuple(name for name, _ in r.parts) == names
    total = 0.0
    for _, bound in r.parts:
        assert math.isfinite(bound) and bound >= 0.0
        total += bound
    assert total == r.error_bound


# per command, one row's argv and a method of it that reads each cutoff flag
CUTOFF_READERS = {
    "eval-f": (["--function", "moebius", "--sigma", "1.5:1.5:1"],
               {"--series-cutoff": "truncated", "--prime-cutoff": "euler",
                "--exact-cutoff": "prime-sum"}),
    "lemma": (["--function", "liouville", "--epsilon", "1", "--sigma", "1.1:1.1:1"],
              {"--prime-cutoff": None}),
    "thm1": (["--function", "moebius", "--epsilon", "1", "--sigma", "1.1:1.1:1"],
             {"--prime-cutoff": None, "--exact-cutoff": None}),
}


@pytest.mark.parametrize("command,flag", [(c, fl) for c, (_, by) in CUTOFF_READERS.items()
                                          for fl in by])
def test_every_cutoff_flag_changes_the_body_of_a_method_that_reads_it(command, flag, tmp_path):
    argv, by = CUTOFF_READERS[command]
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {a.option_strings[0] for a in sub.choices[command]._actions
            if a.option_strings and a.option_strings[0].endswith("-cutoff")} == set(by)
    method = [] if by[flag] is None else ["--method", by[flag]]
    bodies = set()
    for value in ("300", "3000"):
        out = tmp_path / f"{value}.csv"
        assert run([command, *argv, *method, flag, value, "--out", str(out)]) == 0
        bodies.add(out.read_text().split("\n", 1)[1])
    assert len(bodies) == 2, (command, flag)


@pytest.mark.parametrize("argv", [
    ["lemma", "--function", "liouville", "--epsilon", "1", "--sigma", "1.1:1.2:2",
     "--series-cutoff", "5"],
    ["lemma", "--function", "liouville", "--epsilon", "1", "--sigma", "1.1:1.2:2",
     "--exact-cutoff", "5"],
    ["thm1", "--function", "moebius", "--epsilon", "1", "--sigma", "1.1:1.5:2",
     "--series-cutoff", "5"],
])
def test_a_cutoff_flag_no_route_of_the_command_reads_is_refused(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert usage_failure([*argv, "--out", str(out)], capsys) == 2
    assert not out.exists()


def test_criterion_command(tmp_path, capsys):
    out = tmp_path / "crit.txt"
    assert run(["criterion", "--function", "one", "--prime-cutoff", "100000",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert "verdict: criterion fails" in text
    assert run(["criterion", "--function", "moebius", "--prime-cutoff", "100000"]) == 0
    cap = capsys.readouterr()
    assert "criterion satisfied (sum side)" in cap.out


def test_extremal_build_and_verify(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    assert run(["extremal-build", "--kappa", "power:0.25", "--x1", "20",
                "--J", "3", "--out", str(spec)]) == 0
    doc = json.loads(spec.read_text())
    assert doc["J"] == 3 and len(doc["blocks"]) == 3
    assert run(["extremal-verify", str(spec), "--cutoff", "100000"]) == 0
    cap = capsys.readouterr()
    assert "verdict: PASS" in cap.out
    assert "selected primes: 54 in [41, 317]" in cap.out


def test_extremal_build_out_dash_writes_the_spec_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["extremal-build", "--kappa", "power:0.25"]
    assert run([*argv, "--out", "-"]) == 0
    text = capsys.readouterr().out
    assert not (tmp_path / "-").exists()
    assert run([*argv, "--out", "spec.json"]) == 0
    assert text == (tmp_path / "spec.json").read_text()  # no comment line: load_spec reads it
    (tmp_path / "stdout.json").write_text(text)
    assert extremal.load_spec("stdout.json") == extremal.load_spec("spec.json")


def test_extremal_spec_usable_as_function(tmp_path):
    spec = tmp_path / "spec.json"
    assert run(["extremal-build", "--kappa", "power:0.25", "--out", str(spec)]) == 0
    out = tmp_path / "sum.csv"
    assert run(["sum", "--function", f"extremal:{spec}", "--limit", "2000",
                "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["x", "re_S", "im_S", "abs_S"]


def test_usage_errors(tmp_path, capsys):
    code = run(["sum", "--function", "wat", "--limit", "100",
                "--out", str(tmp_path / "x.csv")])
    cap = capsys.readouterr()
    assert code == 2
    assert cap.err.startswith("error:usage:")

    code = run(["eval-f", "--function", "one", "--sigma", "0.5:1.5:3",
                "--out", str(tmp_path / "y.csv")])
    cap = capsys.readouterr()
    assert code == 2
    assert cap.err.startswith("error:")


def test_thm2_limit_invariant(tmp_path, capsys):
    code = run(["thm2", "--function", "one", "--limit", "10",
                "--out", str(tmp_path / "x.csv")])
    cap = capsys.readouterr()
    assert code == 2
    assert cap.err.startswith("error:usage:")


def test_thm2_refuses_a_negative_c(tmp_path, capsys):
    # Theorem 2 is for c > 0; a large negative c made exp overflow into
    # nan and inf rows with exit 0
    assert usage_failure(["thm2", "--function", "moebius", "--limit", "100", "--c=-1000",
                          "--grid", "explicit:39,40,92", "--out", str(tmp_path / "x.csv")],
                         capsys) == 2
    assert not (tmp_path / "x.csv").exists()


def test_capacity_and_coverage_exit_code(tmp_path, capsys):
    code = run(["sum", "--function", "one", "--limit", str(2**35),
                "--out", str(tmp_path / "x.csv")])
    cap = capsys.readouterr()
    assert code == 3
    assert cap.err.startswith("error:capacity:")


def _fails_in_second_stripe(fail):
    """moebius, except that ``fail`` runs when f(p) is asked of a prime above
    300000: a leftover prime of the second stripe of 2^18 positions on."""
    def powers(ps, k):
        if (ps > 300_000).any():
            fail()
        return np.full(ps.shape, -1.0 if k == 1 else 0.0)

    return multfun.MultiplicativeFunction("fails", powers)


def _refuse():
    raise FunctionSpecError("no value beyond 300000")


@pytest.mark.parametrize("fail,code,line", [
    (_refuse, 2, "error:usage:no value beyond 300000\n"),
    (lambda: os._exit(7), 3, "error:capacity:a segment worker ended before it sent its stripe\n"),
])
def test_a_failing_segment_worker_gives_one_error_line(fail, code, line, tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(multfun, "parse_function_spec", lambda spec: _fails_in_second_stripe(fail))
    out = tmp_path / "x.csv"
    assert main(["sum", "--function", "moebius", "--limit", "1000000", "--out", str(out)]) == code
    assert capsys.readouterr().err == line
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_segment_size_above_ceiling_is_refused_before_sieving(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("sieved or evaluated a segment")

    monkeypatch.setattr(multfun, "sieve_primes", no_work)
    monkeypatch.setattr(multfun, "segment_values", no_work)
    out = tmp_path / "x.csv"
    size = str(2**34)
    assert main(["sum", "--function", "moebius", "--limit", size,
                 "--segment-size", size, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:capacity:") and err.count("\n") == 1, err
    assert str(multfun.SEGMENT_SIZE_CEILING) in err
    assert not out.exists()
    assert multfun.SEGMENT_SIZE_CEILING > 10**6  # test_segmentation_bit_identity uses 10^6


def test_dense_geometric_grid_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # about 1.2e9 steps: refused on the closed-form step count, never stepped
    def no_work(*args, **kwargs):
        raise AssertionError("sieved or evaluated a segment")

    monkeypatch.setattr(multfun, "sieve_primes", no_work)
    monkeypatch.setattr(multfun, "segment_values", no_work)
    out = tmp_path / "x.csv"
    assert main(["sum", "--function", "moebius", "--limit", "1000000",
                 "--grid", "geometric:1.00000001", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:capacity:") and err.count("\n") == 1, err
    assert "1151292560 steps" in err and str(multfun.GRID_STEP_CEILING) in err
    assert not out.exists()


def test_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["sum", "--nope"])
    assert ei.value.code == 2
    assert capsys.readouterr().err.startswith("error:usage:")


@pytest.mark.parametrize("size", ["0", "-5"])
def test_sum_segment_size_must_be_positive(tmp_path, capsys, size):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as ei:
        main(["sum", "--function", "moebius", "--limit", "100",
              "--segment-size", size, "--out", str(out)])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:usage:") and err.count("\n") == 1
    assert not out.exists()


def usage_failure(argv, capsys):
    """Exit code of a run that must fail with exactly one error:usage: line."""
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejected a flag value
        code = e.code
    err = capsys.readouterr().err
    assert err.startswith("error:usage:") and err.count("\n") == 1, err
    return code


def _spec_text(J=1, blocks=1, C0="1.0", log_x="3.0", log_upper="9.0", a="0.5"):
    """Spec file text with ``blocks`` equal blocks; values are spelled as JSON."""
    block = f'{{"log_x": {log_x}, "log_upper": {log_upper}, "a": {a}}}'
    blocks = ", ".join([block] * blocks)
    return (f'{{"x1": 20.0, "J": {J}, "C0": {C0}, "kappa_desc": "power:0.25", '
            f'"alpha_desc": "manual", "blocks": [{blocks}]}}')


@pytest.mark.parametrize("content", [
    None, "{not json", '{"x1": 20}', "[1, 2]",
    pytest.param(_spec_text(a="NaN"), id="nan-a"),
    pytest.param(_spec_text(log_upper="Infinity"), id="inf-log-upper"),
    pytest.param(_spec_text(J=5, blocks=3), id="J-5-with-3-blocks"),
    pytest.param(_spec_text(log_x="1.0"), id="block-below-16"),
    pytest.param(_spec_text(a="-0.5"), id="negative-a"),
    pytest.param(_spec_text(C0="-1.0"), id="negative-C0"),
])
def test_missing_or_malformed_extremal_spec(tmp_path, capsys, content):
    spec = tmp_path / "spec.json"
    if content is not None:
        spec.write_text(content)
    out = tmp_path / "x.csv"
    assert usage_failure(["sum", "--function", f"extremal:{spec}", "--limit", "100",
                          "--out", str(out)], capsys) == 2
    assert usage_failure(["extremal-verify", str(spec)], capsys) == 2
    assert not out.exists()


def test_negative_C0_is_a_usage_error_from_the_flag_and_from_a_spec_file(tmp_path, capsys):
    out = tmp_path / "built.json"
    assert usage_failure(["extremal-build", "--kappa", "power:0.25", "--C0", "-1",
                          "--out", str(out)], capsys) == 2
    assert not out.exists()
    spec = tmp_path / "spec.json"
    spec.write_text(_spec_text(C0="-1.0"))
    assert usage_failure(["extremal-verify", str(spec)], capsys) == 2


def test_unwritable_out(tmp_path, capsys):
    out = str(tmp_path / "no-such-dir" / "x.csv")
    assert usage_failure(["sum", "--function", "moebius", "--limit", "100",
                          "--out", out], capsys) == 2
    assert usage_failure(["extremal-build", "--kappa", "power:0.25", "--out", out],
                         capsys) == 2


def test_sum_rejects_nan_twist(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert usage_failure(["sum", "--function", "twist:nan:one", "--limit", "100",
                          "--out", str(out)], capsys) == 2
    assert not out.exists()


def test_eval_f_rejects_infinite_twist(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert usage_failure(["eval-f", "--function", "twist:inf:one", "--sigma", "1.5:1.5:1",
                          "--out", str(out)], capsys) == 2
    assert usage_failure(["eval-f", "--function", "one", "--sigma", "1.5:1.5:1",
                          "--t0", "nan", "--out", str(out)], capsys) == 2
    assert usage_failure(["eval-f", "--function", "one", "--sigma", "1.5:inf:2",
                          "--out", str(out)], capsys) == 2
    assert not out.exists()


def test_criterion_rejects_infinite_t(capsys):
    assert usage_failure(["criterion", "--function", "moebius", "--t", "inf",
                          "--prime-cutoff", "1000"], capsys) == 2


def test_criterion_kmax_must_be_positive(capsys):
    # --kmax 0 used to sample no k and report the 2-adic side as passing
    assert usage_failure(["criterion", "--function", "moebius", "--prime-cutoff", "1000",
                          "--kmax", "0"], capsys) == 2


def test_extremal_verify_block_must_be_positive(tmp_path, capsys):
    # --block 0 used to verify every block
    spec = str(tmp_path / "spec.json")
    assert run(["extremal-build", "--kappa", "power:0.25", "--out", spec]) == 0
    assert usage_failure(["extremal-verify", spec, "--cutoff", "1000", "--block", "0"],
                         capsys) == 2


def test_extremal_verify_cutoff_below_2_is_a_usage_error(tmp_path, capsys):
    # --cutoff 0 used to end in a math domain error traceback
    spec = str(tmp_path / "spec.json")
    assert run(["extremal-build", "--kappa", "power:0.25", "--out", spec]) == 0
    for cutoff in ("1", "0", "-5"):
        assert usage_failure(["extremal-verify", spec, f"--cutoff={cutoff}"], capsys) == 2


@pytest.mark.parametrize("argv", [
    ["lemma", "--function", "moebius", "--epsilon", "1", "--sigma", "1.1:1.2:2"],
    ["thm1", "--function", "moebius", "--epsilon", "1", "--sigma", "1.1:1.5:2"],
    ["eval-f", "--function", "moebius", "--sigma", "1.5:1.5:1", "--method", "euler"],
    ["eval-f", "--function", "moebius", "--sigma", "1.5:1.5:1", "--method", "prime-sum"],
])
def test_prime_cutoff_below_2_gets_one_error_in_every_command(argv, tmp_path, capsys):
    # thm1 and eval-f used to blame --exact-cutoff, which was not set
    assert run([*argv, "--prime-cutoff", "1", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error:usage:sieve limit must be >= 2, got 1\n"
    assert not (tmp_path / "x").exists()


ABOVE_PRIME_CEILING = str(2**32 + 1)


@pytest.mark.parametrize("argv", [
    ["eval-f", "--function", "moebius", "--sigma", "1.5:1.5:1", "--method", "euler",
     "--prime-cutoff", ABOVE_PRIME_CEILING],
    ["eval-f", "--function", "moebius", "--sigma", "1.5:1.5:1", "--method", "prime-sum",
     "--prime-cutoff", ABOVE_PRIME_CEILING],
    ["criterion", "--function", "moebius", "--prime-cutoff", ABOVE_PRIME_CEILING],
    ["lemma", "--function", "liouville", "--epsilon", "1", "--sigma", "1.1:1.2:2",
     "--prime-cutoff", ABOVE_PRIME_CEILING],
    ["thm1", "--function", "moebius", "--epsilon", "1", "--sigma", "1.1:1.5:2",
     "--prime-cutoff", ABOVE_PRIME_CEILING],
    ["extremal-verify", "spec.json", "--cutoff", ABOVE_PRIME_CEILING],
])
def test_prime_cutoff_above_ceiling_is_refused_before_sieving(argv, tmp_path, capsys,
                                                             monkeypatch):
    def no_sieving(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(primes, "_segments", no_sieving)
    assert run(["extremal-build", "--kappa", "power:0.25", "--out", "spec.json"]) == 0
    assert main([*argv, "--out", "x.out"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:capacity:") and err.count("\n") == 1, err
    assert not (tmp_path / "x.out").exists()


def test_series_cutoff_above_ceiling_is_refused_before_sieving(tmp_path, capsys, monkeypatch):
    # the truncated series streams the segment kernel of sum, which has this ceiling;
    # without it, --series-cutoff 10000000000000 ran until killed
    def no_sieving(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(primes, "_segments", no_sieving)
    out = tmp_path / "x.csv"
    above = str(multfun.SUMMATORY_LIMIT_CEILING + 1)
    assert main(["eval-f", "--function", "moebius", "--sigma", "1.5:1.5:1",
                 "--method", "truncated", "--series-cutoff", above, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:capacity:") and err.count("\n") == 1, err
    assert not out.exists()


def test_sigma_grid_above_ceiling_is_refused_before_sieving(tmp_path, capsys, monkeypatch):
    # --sigma a:b:N used to build all N points, however large N was
    def no_sieving(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(primes, "_segments", no_sieving)
    out = tmp_path / "x.csv"
    sigma = f"1.1:1.5:{multfun.GRID_STEP_CEILING + 1}"
    for argv in (["eval-f", "--function", "moebius"],
                 ["lemma", "--function", "liouville", "--epsilon", "1"],
                 ["thm1", "--function", "moebius", "--epsilon", "1"]):
        assert main([*argv, "--sigma", sigma, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:capacity:") and err.count("\n") == 1, err
        assert str(multfun.GRID_STEP_CEILING) in err
    assert not out.exists()


def test_criterion_kmax_above_ceiling_is_refused_before_sieving(tmp_path, capsys, monkeypatch):
    # --kmax K used to test, and memoize, f(2^k) for every k <= K
    def no_sieving(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(primes, "_segments", no_sieving)
    out = tmp_path / "x.txt"
    assert main(["criterion", "--function", "moebius", "--prime-cutoff", "1000",
                 "--kmax", str(multfun.GRID_STEP_CEILING + 1), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:capacity:") and err.count("\n") == 1, err
    assert str(multfun.GRID_STEP_CEILING) in err
    assert not out.exists()


@pytest.mark.parametrize("block, code, kind", [("2", 3, "coverage"), ("7", 2, "domain")])
def test_extremal_verify_refuses_a_bad_block_before_sieving(block, code, kind, tmp_path,
                                                             capsys, monkeypatch):
    # both used to stream every prime to the cutoff before the error
    def no_stream(limit):
        raise AssertionError(f"streamed the primes to {limit}")

    spec = str(tmp_path / "spec.json")
    assert run(["extremal-build", "--kappa", "power:0.25", "--out", spec]) == 0
    monkeypatch.setattr(extremal, "prime_chunks", no_stream)
    monkeypatch.setattr(primes, "_segments", no_stream)
    assert main(["extremal-verify", spec, "--cutoff", "20000000", "--block", block]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error:{kind}:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["extremal-verify", "spec.json", "--cutoff", "100000"],
    ["criterion", "--function", "extremal-ref", "--prime-cutoff", "100000"],
])
def test_one_prime_stream_per_command(argv, tmp_path, monkeypatch):
    """One prime_chunks stream to the cutoff, and no other sieve to it: every
    sieve, a stream or a sieve_primes table, runs _segments."""
    calls = {"prime_chunks": [], "_segments": []}

    def counted(name, fn):
        def wrapper(limit):
            calls[name].append(limit)
            return fn(limit)
        return wrapper

    monkeypatch.chdir(tmp_path)
    assert run(["extremal-build", "--kappa", "power:0.25", "--out", "spec.json"]) == 0
    monkeypatch.setattr(primes, "_segments", counted("_segments", primes._segments))
    stream = counted("prime_chunks", primes.prime_chunks)
    for mod in (primes, dirichlet, extremal, halasz):
        monkeypatch.setattr(mod, "prime_chunks", stream)
    assert run([*argv, "--out", "x.out"]) == 0
    assert calls["prime_chunks"].count(100_000) == 1, calls
    assert calls["_segments"].count(100_000) == 1, calls


def test_euler_route_refuses_zeta_above_height_ceiling(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["eval-f", "--function", "moebius", "--sigma", "1.5:1.5:1",
                 "--method", "euler", "--t0", "1e12", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:capacity:") and err.count("\n") == 1, err


def test_provenance_names_every_flag(tmp_path):
    spec = str(tmp_path / "spec.json")
    assert run(["extremal-build", "--kappa", "power:0.25", "--out", spec]) == 0
    argvs = {
        "sum": ["--function", "moebius", "--limit", "100"],
        "eval-f": ["--function", "moebius", "--sigma", "1.5:2:2", "--series-cutoff", "100"],
        "criterion": ["--function", "moebius", "--prime-cutoff", "1000"],
        "lemma": ["--function", "liouville", "--epsilon", "1", "--sigma", "1.1:1.2:2",
                  "--prime-cutoff", "1000"],
        "thm1": ["--function", "moebius", "--epsilon", "1", "--sigma", "1.1:1.5:2",
                 "--prime-cutoff", "1000"],
        "thm2": ["--function", "one", "--limit", "100"],
        "extremal-verify": [spec, "--cutoff", "1000"],
    }
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(argvs) | {"extremal-build"}  # which writes JSON only
    for name, argv in argvs.items():
        out = tmp_path / f"{name}.out"
        assert run([name, *argv, "--out", str(out)]) == 0
        first = out.read_text().splitlines()[0]
        assert first.startswith(f"# mflab {name} ")
        flags = {a.option_strings[0] if a.option_strings else f"--{a.dest}"
                 for a in sub.choices[name]._actions} - {"-h", "--out"}
        named = re.findall(r" (--[a-z0-9-]+)=", first)
        assert named == sorted(named) and set(named) == flags, name


_LOADED_AFTER_EACH = """
import json, sys
from mflab.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append(sorted(m[6:] for m in sys.modules if m.startswith("mflab.")))
import mflab
for name in mflab.__all__:  # every export resolves to the module it names
    assert getattr(mflab, name).__module__ == "mflab." + mflab._EXPORTS[name], name
print(json.dumps(loaded))
"""


def _fresh_python(args, cwd):
    """stdout of ``python args`` in a fresh process that imports this checkout's mflab."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_loaded_after_each(commands, cwd):
    """The mflab submodules loaded after each command of one fresh process."""
    out = _fresh_python(["-c", _LOADED_AFTER_EACH, json.dumps(commands)], cwd)
    return [set(m) for m in json.loads(out)]


def test_importing_the_cli_and_extremal_does_not_load_openssl(tmp_path):
    # hashlib would load _hashlib and libcrypto (+3.5 MB RSS) for one SHA-1
    code = "import sys, mflab.cli, mflab.extremal; print('_hashlib' in sys.modules)"
    assert _fresh_python(["-c", code], tmp_path).strip() == "False"


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    core = {"cli", "errors", "multfun", "primes"}
    after = _modules_loaded_after_each([
        ["sum", "--function", "moebius", "--limit", "1000", "--out", "sum.csv"],
        ["eval-f", "--function", "moebius", "--method", "euler", "--sigma", "1.5:2:2",
         "--prime-cutoff", "1000", "--out", "eval.csv"],
        ["thm1", "--function", "moebius", "--epsilon", "1", "--sigma", "1.1:1.5:2",
         "--prime-cutoff", "1000", "--out", "thm1.csv"],
    ], tmp_path)
    traced = core | {"workers"}  # summatory_trace's segment workers
    assert after == [traced, traced | {"dirichlet"}, traced | {"dirichlet", "halasz"}]
    after = _modules_loaded_after_each([
        ["extremal-build", "--kappa", "power:0.25", "--out", "spec.json"],
        ["sum", "--function", "extremal:spec.json", "--limit", "1000", "--out", "sum.csv"],
        ["extremal-verify", "spec.json", "--cutoff", "1000", "--out", "verify.txt"],
    ], tmp_path)
    assert after == [core | {"extremal"}, traced | {"extremal"}, traced | {"extremal", "dirichlet"}]
