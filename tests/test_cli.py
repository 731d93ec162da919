import argparse
import ast
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

from mflab import dirichlet, extremal, halasz, multfun, primes, workers
from mflab.cli import SIGMA_GRID_CEILING, build_parser, main
from mflab.errors import DomainError, FunctionSpecError

from _oracles import brute_summatory
from test_golden import CORPUS
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
        ("series-tail", "summation")),
    "euler": (
        ["eval-f", "--function", "moebius", "--method", "euler", "--sigma", "1.001:1.001:1"],
        lambda f: [r.exp(1.001) for r in dirichlet.log_F(
            f, [dirichlet.ComplexPoint(1.001)], PLAN, dirichlet.HalaszDirection(1))],
        ("exp",)),
    "prime-sum": (
        ["eval-f", "--function", "extremal-ref", "--method", "prime-sum", "--t", "1",
         "--sigma", "1.01:1.01:1"],
        lambda f: [r.exp(1.01) for r in dirichlet.log_F(
            f, [dirichlet.ComplexPoint(1.01, 1.0)], PLAN)],
        ("exp",)),
    "lemma": (
        ["lemma", "--function", "liouville", "--epsilon", "1", "--sigma", "1.001:1.001:1"],
        lambda f: halasz.lemma_defect(f, halasz.HalaszDirection(1),
                                      [dirichlet.ComplexPoint(1.001)], PLAN.prime_cutoff),
        ("bracket", "residual-tail", "summation")),
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


@pytest.mark.parametrize("name", ["twist", "bogus"])
def test_an_unknown_function_name_lists_the_spec_forms(name, capsys):
    # "twist" used to reach a builtin parameter that no CLI input can give
    assert main(["sum", "--function", name, "--limit", "10", "--out", "-"]) == 2
    assert capsys.readouterr().err == (
        f"error:usage:unknown function {name!r}; valid: one, moebius, liouville, odd_one, "
        "extremal-ref, twist:<t>:<base>, extremal:<path>\n")


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


def test_thm2_at_a_large_c_writes_nothing_to_stderr(tmp_path):
    # exp(c sqrt(log log x)) overflows past x = 16 at c = 700
    code, out, err, _ = _fresh_process(["-m", "mflab.cli", "thm2", "--function", "moebius",
                                        "--limit", "100", "--c", "700", "--out", "-"], tmp_path)
    assert (code, err) == (0, "")
    assert out.count(b"\n") > 3


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
                                                       monkeypatch, with_cpus):
    with_cpus(2)
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
    pytest.param(_spec_text(log_x="9.97", log_upper="5.0"), id="inverted-block"),
    pytest.param(_spec_text(J=2, blocks=2), id="overlapping-blocks"),
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


@pytest.mark.parametrize("key, value", [("J", 3.7), ("J", "3"), ("x1", "20"), ("C0", True),
                                        ("a", "0.5"), ("x1", 10**400)])
def test_a_spec_number_of_the_wrong_json_type_is_a_usage_error(key, value, tmp_path, capsys):
    # each used to be coerced (J = 3.7 read as 3, true as C0 = 1.0) and verified
    # with exit 0; an integer beyond float range ended in an OverflowError traceback
    doc = json.loads(extremal.spec_json(extremal.reference_spec()))
    (doc if key in doc else doc["blocks"][0])[key] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert usage_failure(["extremal-verify", str(spec), "--cutoff", "1000"], capsys) == 2
    doc = json.loads(extremal.spec_json(extremal.reference_spec()))
    spec.write_text(json.dumps(dict(doc, x1=20, C0=1)))  # a JSON integer is a number
    assert main(["extremal-verify", str(spec), "--cutoff", "1000", "--out", str(tmp_path / "v")]) == 0


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
    monkeypatch.setattr(primes, "prime_chunks", no_sieving)
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

    monkeypatch.setattr(primes, "prime_chunks", no_sieving)
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

    monkeypatch.setattr(primes, "prime_chunks", no_sieving)
    out = tmp_path / "x.csv"
    sigma = f"1.1:1.5:{SIGMA_GRID_CEILING + 1}"
    for argv in (["eval-f", "--function", "moebius"],
                 ["lemma", "--function", "liouville", "--epsilon", "1"],
                 ["thm1", "--function", "moebius", "--epsilon", "1"]):
        assert main([*argv, "--sigma", sigma, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:capacity:") and err.count("\n") == 1, err
        assert str(SIGMA_GRID_CEILING) in err
    assert not out.exists()


def test_criterion_kmax_above_ceiling_is_refused_before_sieving(tmp_path, capsys, monkeypatch):
    # --kmax K used to test, and memoize, f(2^k) for every k <= K
    def no_sieving(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(primes, "prime_chunks", no_sieving)
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
    monkeypatch.setattr(primes, "prime_chunks", no_stream)
    assert main(["extremal-verify", spec, "--cutoff", "20000000", "--block", block]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error:{kind}:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["extremal-verify", "spec.json", "--cutoff", "100000"],
    ["criterion", "--function", "extremal-ref", "--prime-cutoff", "100000"],
])
def test_one_prime_pass_per_command(argv, tmp_path, monkeypatch):
    """One prime pass to the cutoff, and no other sieve to it: every sieve, a
    stripe of a pass or a sieve_primes table, runs prime_chunks."""
    calls = {"prime_pass": [], "prime_chunks": []}

    def counted(name, fn):
        def wrapper(limit, *args):
            calls[name].append(limit)
            return fn(limit, *args)
        return wrapper

    monkeypatch.chdir(tmp_path)
    assert run(["extremal-build", "--kappa", "power:0.25", "--out", "spec.json"]) == 0
    monkeypatch.setattr(primes, "prime_chunks", counted("prime_chunks", primes.prime_chunks))
    prime_pass = counted("prime_pass", workers.prime_pass)
    for mod in (workers, dirichlet, halasz):  # extremal.verify imports workers' as it runs
        monkeypatch.setattr(mod, "prime_pass", prime_pass)
    assert run([*argv, "--out", "x.out"]) == 0
    assert calls["prime_pass"] == [100_000], calls
    assert calls["prime_chunks"].count(100_000) == 1, calls  # the one stripe


def test_euler_route_refuses_zeta_above_height_ceiling(tmp_path, capsys):
    # each height the user gives is at the ceiling, and twist:1e8:one aligns
    # with (-1, -1e8); the route's w = s - i t0 lies at 2e8, beyond the
    # Moebius/log-zeta identity's reach
    out = tmp_path / "x.csv"
    assert main(["eval-f", "--function", "twist:1e8:one", "--sigma", "1.5:1.5:1", "--method",
                 "euler", "--epsilon", "-1", "--t", "1e8", "--t0=-1e8", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error:domain:height |t - t0| = 200000000.0 exceeds 3846153.846153846, "
        "the Moebius/log-zeta identity's limit at sigma = 1.5\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["eval-f", "--function", "moebius", "--sigma", "1.5:1.5:1", "--method", "prime-sum",
     "--t", "2e8"],
    ["eval-f", "--function", "moebius", "--sigma", "1.5:1.5:1", "--method", "euler",
     "--t0", "1e12"],
    ["lemma", "--function", "liouville", "--epsilon", "1", "--sigma", "1.1:1.2:2", "--t0=-2e8"],
    ["thm1", "--function", "moebius", "--epsilon", "1", "--sigma", "1.1:1.5:2", "--t0", "1e9"],
    ["criterion", "--function", "moebius", "--t", "1e300"],
    ["criterion", "--function", "twist:-1.5e8:one"],
    ["sum", "--function", "twist:1e12:moebius", "--limit", "20000"],
    ["sum", "--function", "twist:1:twist:1e8:moebius", "--limit", "20000"],
    # each height given is at the ceiling, but the route folds the twist's T
    # into t or t0 and would compute at 2e8
    ["eval-f", "--function", "twist:1e8:one", "--t", "1e8", "--method", "truncated",
     "--sigma", "3:3:1", "--series-cutoff", "1000"],
    ["eval-f", "--function", "twist:1e8:one", "--method", "euler", "--t", "1e8", "--t0", "1e8",
     "--sigma", "1.5:1.5:1", "--prime-cutoff", "1000"],
    ["thm1", "--function", "twist:1e8:one", "--epsilon", "1", "--t0", "1e8",
     "--sigma", "1.1:1.5:2", "--prime-cutoff", "1000"],
    ["lemma", "--function", "twist:1e8:one", "--epsilon", "1", "--t0", "1e8", "--t", "1e8",
     "--sigma", "1.1:1.2:2", "--prime-cutoff", "1000"],
    ["criterion", "--function", "twist:1e8:moebius", "--t", "1e8", "--prime-cutoff", "1000"],
])
def test_a_height_above_the_ceiling_is_refused_before_sieving(argv, tmp_path, capsys,
                                                              monkeypatch):
    # --t, --t0, a twist's t (nested twists add up) and a twist folded into
    # t or t0 share zeta's ceiling: past it the phase t log n keeps too few
    # correct digits
    def no_sieving(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(primes, "prime_chunks", no_sieving)
    out = tmp_path / "x.out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error:domain:height \|t\| = \S+ exceeds ceiling 100000000\.0\n", err), err
    assert not out.exists()


# T = 25426356.4 + 2194267.7 and t = 72379375.9 add to exactly 1e8 in the
# order (T_outer + T_inner) + t, but every route computes (t + T_outer) +
# T_inner = 100000000.00000001, above the ceiling
NESTED = "twist:25426356.4:twist:2194267.7:one"
NESTED_HEIGHT = 72379375.9


@pytest.mark.parametrize("argv", [
    ["criterion", "--t", str(NESTED_HEIGHT), "--prime-cutoff", "1000"],
    ["thm1", "--epsilon", "-1", "--t0", str(NESTED_HEIGHT), "--sigma", "1.1:1.5:2",
     "--prime-cutoff", "1000"],
    ["eval-f", "--method", "euler", "--epsilon", "-1", "--t0", str(NESTED_HEIGHT),
     "--sigma", "1.1:1.5:2", "--prime-cutoff", "1000"],
    ["eval-f", "--method", "truncated", "--t", str(NESTED_HEIGHT), "--sigma", "1.1:1.5:2",
     "--series-cutoff", "1000"],
    ["lemma", "--epsilon", "-1", "--t0", str(NESTED_HEIGHT), "--sigma", "1.1:1.2:2",
     "--prime-cutoff", "1000"],
    # no direction, and the default (1, 0), which is misaligned: both take the prime sum
    ["eval-f", "--method", "prime-sum", "--t", str(NESTED_HEIGHT), "--sigma", "1.1:1.5:2",
     "--prime-cutoff", "1000"],
    ["eval-f", "--method", "euler", "--t", str(NESTED_HEIGHT), "--sigma", "1.1:1.5:2",
     "--prime-cutoff", "1000"],
])
def test_a_direction_is_refused_at_the_height_its_route_computes(argv, tmp_path, capsys,
                                                                 monkeypatch):
    def no_sieving(limit, *args):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(primes, "prime_chunks", no_sieving)
    out = tmp_path / "x.out"
    assert main([*argv, "--function", NESTED, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error:domain:height |t| = 100000000.00000001 exceeds ceiling 100000000.0\n")
    assert not out.exists()


def test_a_nested_twist_is_refused_in_process_before_any_sieving(monkeypatch):
    def no_sieving(limit, *args):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(primes, "prime_chunks", no_sieving)
    f = multfun.parse_function_spec(NESTED)
    direction = dirichlet.HalaszDirection(-1, NESTED_HEIGHT)
    for route in (lambda: dirichlet.log_F(f, [1.1], dirichlet.TruncationPlan(1000, 100), direction),
                  lambda: halasz.lemma_defect(f, direction, [1.1], 1000),
                  lambda: halasz.pole_sum(f, direction, 1000)):
        with pytest.raises(DomainError, match=r"100000000\.00000001 exceeds ceiling"):
            route()


def test_a_height_at_the_ceiling_runs(tmp_path):
    out = tmp_path / "c.txt"
    assert main(["criterion", "--function", "twist:1e8:moebius", "--t=-1e8",
                 "--prime-cutoff", "1000", "--out", str(out)]) == 0


# `one` aligns with (-1, 0), so its euler route reads the identity at w = s
@pytest.mark.parametrize("argv, line", [
    (["eval-f", "--function", "one", "--method", "euler", "--epsilon", "-1", "--t", "4e6",
      "--sigma", "1.5:1.5:1", "--prime-cutoff", "1000"],
     "height |t - t0| = 4000000.0 exceeds 3846153.846153846, "
     "the Moebius/log-zeta identity's limit at sigma = 1.5"),
    (["eval-f", "--function", "one", "--method", "euler", "--epsilon", "-1", "--t", "6e7",
      "--sigma", "1.5:1.5:1"],
     "height |t - t0| = 60000000.0 exceeds 3846153.846153846, "
     "the Moebius/log-zeta identity's limit at sigma = 1.5"),
    (["lemma", "--function", "one", "--epsilon", "-1", "--t", "6e7", "--sigma", "1.1:1.2:2"],
     "height |t - t0| = 60000000.0 exceeds 2564102.564102564, "
     "the Moebius/log-zeta identity's limit at sigma = 1.1"),
    (["eval-f", "--function", "one", "--method", "euler", "--epsilon", "-1", "--t", "7.2e6",
      "--sigma", "3:3:1", "--prime-cutoff", "1000"],
     "height |t - t0| = 7200000.0 exceeds 7142857.142857143, "
     "the Moebius/log-zeta identity's limit at sigma = 3.0"),
])
def test_a_height_beyond_the_identity_is_refused_before_any_zeta_work(argv, line, tmp_path,
                                                                     capsys, monkeypatch):
    # log_zeta_minus_prime_zeta reads zeta at k w for squarefree k <= K (K = 43
    # near sigma = 1, 39 at 1.1, 28 at 1.5, 14 at 3), so |t - t0| must stay
    # within the height ceiling over the largest such k: 43, 39, 26 and 14
    def no_zeta(s, tol):
        raise AssertionError(f"zeta ran at {s}")

    def no_sieving(limit):
        raise AssertionError(f"sieved to {limit}")
        yield  # a generator, as primes.prime_chunks is: a route may create it first

    dirichlet._moebius()  # the identity's mu(k) table, built once per process
    monkeypatch.setattr(dirichlet, "zeta", no_zeta)
    monkeypatch.setattr(primes, "prime_chunks", no_sieving)
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error:domain:{line}\n"
    assert not out.exists()


def test_a_height_just_within_the_identity_runs(tmp_path):
    # 14 * 7e6 = 9.8e7: every zeta height of the identity at sigma = 3 is under 1e8
    out = tmp_path / "x.csv"
    assert main(["eval-f", "--function", "one", "--method", "euler", "--epsilon", "-1",
                 "--t", "7e6", "--sigma", "3:3:1", "--prime-cutoff", "1000",
                 "--out", str(out)]) == 0
    assert read_csv(out)[2][0][6] == "euler-product"


def test_a_misaligned_euler_route_reads_no_identity_at_height(tmp_path, monkeypatch):
    # `one` along (+1, 0) does not align: the route is the prime sum, which
    # reads no zeta, so a height beyond the identity's limit runs
    def no_zeta(s, tol):
        raise AssertionError(f"zeta ran at {s}")

    monkeypatch.setattr(dirichlet, "zeta", no_zeta)
    out = tmp_path / "x.csv"
    assert main(["eval-f", "--function", "one", "--method", "euler", "--t", "4e6",
                 "--sigma", "1.5:1.5:1", "--prime-cutoff", "1000", "--out", str(out)]) == 0
    assert read_csv(out)[2][0][6] == "prime-sum"


@pytest.mark.parametrize("spec, epsilon, t0", [
    ("one", "1", "0"), ("moebius", "-1", "0"), ("twist:0.7:one", "-1", "0.7")])
def test_a_misaligned_euler_row_is_the_prime_sum_row(spec, epsilon, t0, tmp_path):
    # along a direction whose reach is P, log_F takes the prime sum whether or
    # not the direction is passed, so both methods write the same rows
    flags = ["--function", spec, "--sigma", "1.001:1.5:3", "--t", "0.3", "--prime-cutoff", "20000"]
    rows = {}
    for method in ("euler", "prime-sum"):
        out = tmp_path / f"{method}.csv"
        assert run(["eval-f", *flags, "--method", method, "--epsilon", epsilon, "--t0", t0,
                    "--out", str(out)]) == 0
        rows[method] = read_csv(out)[1:]
    assert rows["euler"] == rows["prime-sum"]
    assert {row[6] for row in rows["euler"][1]} == {"prime-sum"}


def test_err_of_F_stays_finite_and_true_at_sigma_1_plus_1e_15(tmp_path):
    # log F's bound is about 1/(sigma - 1) = 1e15 here, far past expm1's
    # range; |F - F^| <= |F^| + zeta(sigma) is what err must still cover
    out = tmp_path / "x.csv"
    assert run(["eval-f", "--function", "one", "--method", "prime-sum", "--sigma",
                "1.000000000000001:1.000000000000001:1", "--prime-cutoff", "1000",
                "--out", str(out)]) == 0
    _, header, (row,) = read_csv(out)
    row = dict(zip(header, row))
    sigma, err = float(row["sigma"]), float(row["err"])
    assert math.isfinite(err) and err >= float(row["abs"]) + 1.0 / (sigma - 1.0)


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


# The only flags whose keywords differ between the commands that take them
OWN_KEYWORDS = {
    ("criterion", "--prime-cutoff"): {"default": 1_000_000},
    ("eval-f", "--epsilon"): {"default": 1, "required": False},
    ("criterion", "--out"): {"default": None, "required": False},
    ("extremal-verify", "--out"): {"default": None, "required": False},
}


def test_each_flag_takes_the_same_keywords_on_every_command():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    taken = {}  # flag: {command: its keywords there}
    for name, parser in sub.choices.items():
        for a in parser._actions:
            if not isinstance(a, argparse._HelpAction):
                flag = a.option_strings[0] if a.option_strings else a.dest
                taken.setdefault(flag, {})[name] = {
                    k: getattr(a, k) for k in ("type", "choices", "help", "default", "required")}
    assert len(taken) == 22  # 21 flags and the specfile positional
    for flag, by in taken.items():
        plain = [kw for name, kw in by.items() if (name, flag) not in OWN_KEYWORDS]
        for name, kw in by.items():
            assert kw == {**plain[0], **OWN_KEYWORDS.get((name, flag), {})}, (name, flag)


_LOADED_AFTER_EACH = """
import json, sys
from mflab.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append(sorted(m.removeprefix("mflab.") for m in sys.modules
                         if m.startswith("mflab.") or m == "numpy"))
print(json.dumps(loaded))
"""


def _fresh_process(args, cwd, stdout=subprocess.PIPE):
    """Run ``python args`` to its end in a fresh process, the leader of a
    session of its own, that imports this checkout's mflab, with stdout
    block-buffered as in a shell pipeline.  Returns its exit code, stdout
    bytes, stderr text and the pids left in its session."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env, stdout=stdout,
                            stderr=subprocess.PIPE, start_new_session=True)
    out, err = proc.communicate(timeout=60)
    return proc.returncode, out, err.decode(), _session_members(proc.pid)


def _session_members(sid):
    """The pids of the processes in session ``sid``, from /proc (none without it)."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()  # state ppid pgrp session
        except OSError:  # the process ended meanwhile
            continue
        if int(fields[3]) == sid:
            found.append(int(stat.parent.name))
    return found


def _fresh_python(args, cwd):
    """stdout of ``python args`` in a fresh process that imports this checkout's mflab."""
    code, out, err, _ = _fresh_process(args, cwd)
    assert code == 0, err
    return out.decode()


def _modules_loaded_after_each(commands, cwd):
    """The mflab submodules, and numpy if loaded, after each command of one fresh process."""
    out = _fresh_python(["-c", _LOADED_AFTER_EACH, json.dumps(commands)], cwd)
    return [set(m) for m in json.loads(out)]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts Linux threads")
@pytest.mark.parametrize("preset", [None, "4"])
def test_importing_the_cli_starts_no_blas_thread_pool(preset, tmp_path, monkeypatch):
    # numpy's OpenBLAS starts a thread pool as it loads, whatever a user set,
    # unless mflab.cli sets one thread first; mflab calls no BLAS routine.
    # mflab.cli alone loads no numpy, so multfun loads it here
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    code = ("import os, sys, mflab.cli, mflab.multfun; assert 'numpy' in sys.modules; "
            "print(len(os.listdir('/proc/self/task')))")
    assert _fresh_python(["-c", code], tmp_path).strip() == "1"


BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "outer", "tensordot", "einsum", "linalg"}


def _blas_uses(source):
    """Line numbers of the numpy BLAS calls in ``source``: the names in
    BLAS_NAMES as attribute, name or import, and the @ operator."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = (node.attr if isinstance(node, ast.Attribute) else
                 node.id if isinstance(node, ast.Name) else
                 node.name if isinstance(node, ast.alias) else "").split(".")
        if BLAS_NAMES.intersection(names) or isinstance(getattr(node, "op", None), ast.MatMult):
            found.append(node.lineno)
    return sorted(found)


def test_no_source_file_calls_a_blas_routine():
    # the premise of the one OpenBLAS thread that mflab.cli sets
    bad = "import numpy.linalg\nfrom numpy import dot\na @ b\na @= b\nnp.einsum('i', a)\nx.outer(y)\n"
    assert _blas_uses(bad) == [1, 2, 3, 4, 5, 6]
    src = Path(multfun.__file__).parent
    found = {p.name: _blas_uses(p.read_text()) for p in sorted(src.glob("*.py"))}
    assert len(found) >= 9 and not any(found.values()), found


def _imported_modules(source):
    """The top-level names of the modules that ``source`` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_no_source_file_imports_dataclasses():
    # creating a frozen dataclass costs a fresh process about ten times a NamedTuple
    bad = "import dataclasses as d\nfrom dataclasses import field\n"
    assert _imported_modules(bad) == {"dataclasses"}
    src = Path(multfun.__file__).parent
    found = {p.name: "dataclasses" in _imported_modules(p.read_text())
             for p in sorted(src.glob("*.py"))}
    assert len(found) >= 9 and not any(found.values()), found


def _names(source):
    """Every name that ``source`` defines, imports, reads or takes as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        for field in ("id", "name", "attr"):
            if isinstance(getattr(node, field, None), str):
                found.add(getattr(node, field))
    return found


def test_only_the_workers_run_the_segment_loop():
    # one pass over n: _value_segments is named where multfun defines it and
    # where workers.series_pass runs it, and nowhere else
    assert "_value_segments" in _names("from m import _value_segments as v\nm._value_segments\n")
    src = Path(multfun.__file__).parent
    found = {p.name for p in sorted(src.glob("*.py")) if "_value_segments" in _names(p.read_text())}
    assert found == {"multfun.py", "workers.py"}, found
    assert not hasattr(workers, "checkpoint_sums")


def test_each_decision_keeps_one_home():
    # multfun.fold alone reads a twist's (base, T), and multfun alone names
    # the summation bound B of the StreamSummer
    src = Path(multfun.__file__).parent
    for name in ("twisted", "B"):
        found = {p.name for p in sorted(src.glob("*.py")) if name in _names(p.read_text())}
        assert found == {"multfun.py"}, (name, found)


def test_importing_the_package_loads_no_submodule_and_no_numpy(tmp_path):
    code = ("import sys, mflab; "
            "print(sorted(m for m in sys.modules if m.startswith(('mflab.', 'numpy'))))")
    assert _fresh_python(["-c", code], tmp_path).strip() == "[]"


def test_importing_the_cli_and_extremal_does_not_load_openssl(tmp_path):
    # hashlib would load _hashlib and libcrypto (+3.5 MB RSS) for one SHA-1
    code = "import sys, mflab.cli, mflab.extremal; print('_hashlib' in sys.modules)"
    assert _fresh_python(["-c", code], tmp_path).strip() == "False"


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    core = {"cli", "errors", "multfun", "primes", "numpy"}
    after = _modules_loaded_after_each([
        ["sum", "--function", "moebius", "--limit", "1000", "--out", "sum.csv"],
        ["eval-f", "--function", "moebius", "--method", "euler", "--sigma", "1.5:2:2",
         "--prime-cutoff", "1000", "--out", "eval.csv"],
        ["thm1", "--function", "moebius", "--epsilon", "1", "--sigma", "1.1:1.5:2",
         "--prime-cutoff", "1000", "--out", "thm1.csv"],
    ], tmp_path)
    traced = core | {"workers"}  # the workers of every trace and prime pass
    assert after == [traced, traced | {"dirichlet"}, traced | {"dirichlet", "halasz"}]
    after = _modules_loaded_after_each([
        ["extremal-build", "--kappa", "power:0.25", "--out", "spec.json"],
        ["sum", "--function", "extremal:spec.json", "--limit", "1000", "--out", "sum.csv"],
        ["extremal-verify", "spec.json", "--cutoff", "1000", "--out", "verify.txt"],
    ], tmp_path)
    # the construction runs on floats: no numpy, multfun or primes
    assert after == [{"cli", "errors", "extremal"}, traced | {"extremal"},
                     traced | {"extremal", "dirichlet"}]


def test_extremal_build_loads_no_numpy_dataclasses_or_inspect(tmp_path):
    code = ("import sys; from mflab.cli import main; "
            "assert main(['extremal-build', '--kappa', 'power:0.25', '--out', 'spec.json']) == 0; "
            "print(sorted({'numpy', 'dataclasses', 'inspect'} & set(sys.modules)))")
    assert _fresh_python(["-c", code], tmp_path).strip() == "[]"


GOLDEN = Path(__file__).resolve().parent / "golden"
ENTRY = ["-m", "mflab.cli"]  # the launcher of perfbench and of the README's examples


@pytest.mark.parametrize("name, out", [
    ("sum-twist-extremal.csv", ["--out", "sum-twist-extremal.csv"]),
    ("criterion-twist.txt", ["--out", "criterion-twist.txt"]),  # forks prime-pass workers
    ("verify-block.txt", ["--out", "verify-block.txt"]),
    ("thm2.csv", ["--out", "-"]),  # read through a pipe
    ("criterion-one.txt", []),  # stdout by default
])
def test_a_fresh_process_writes_the_golden_bytes(name, out, tmp_path):
    (tmp_path / "spec-ll.json").write_bytes((GOLDEN / "spec-ll.json").read_bytes())
    code, stdout, err, left = _fresh_process([*ENTRY, *dict(CORPUS)[name], *out], tmp_path)
    assert (code, err, left) == (0, "", [])
    to_file = out == ["--out", name]
    assert (tmp_path / name).exists() == to_file and (stdout == b"") == to_file
    assert ((tmp_path / name).read_bytes() if to_file else stdout) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("argv, code, line", [
    (["sum", "--function", "moebius", "--limit", "5"], 2,
     "error:usage:the following arguments are required: --out"),
    (["eval-f", "--function", "one", "--method", "euler", "--epsilon", "-1", "--t", "4e6",
      "--sigma", "1.5:1.5:1", "--prime-cutoff", "1000", "--out", "x.csv"], 2,
     "error:domain:height |t - t0| = 4000000.0 exceeds 3846153.846153846, "
     "the Moebius/log-zeta identity's limit at sigma = 1.5"),
    (["eval-f", "--function", "one", "--sigma", "1.5:2:1001", "--out", "x.csv"], 3,
     "error:capacity:sigma grid of 1001 points exceeds 1000"),
])
def test_a_fresh_process_ends_an_error_in_one_line(argv, code, line, tmp_path):
    assert _fresh_process([*ENTRY, *argv], tmp_path) == (code, b"", line + "\n", [])
    assert list(tmp_path.iterdir()) == []


def test_a_fresh_process_reports_a_closed_stdout_in_one_line(tmp_path):
    # _write flushes stdout inside main, so the broken pipe is main's OSError
    # and not a message at exit, where os._exit would leave no room for one.
    # argparse swallows the error of a --help write, so run reports the one
    # of its own final flush, once
    for argv in ([*dict(CORPUS)["thm2.csv"], "--out", "-"], ["--help"], ["sum", "--help"]):
        r, w = os.pipe()
        os.close(r)
        try:
            got = _fresh_process([*ENTRY, *argv], tmp_path, stdout=w)
        finally:
            os.close(w)
        assert got == (2, None, "error:usage:[Errno 32] Broken pipe\n", []), argv


def test_a_fresh_process_prints_the_whole_help(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # as _fresh_process sets it
    help_text = build_parser().format_help().encode()
    assert _fresh_process([*ENTRY, "--help"], tmp_path) == (0, help_text, "", [])


def test_both_launchers_enter_through_run():
    # the mflab script and python -m mflab.cli: one exit path, past one flush
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"mflab": "mflab.cli:run"}
    tree = ast.parse((Path(multfun.__file__).parent / "cli.py").read_text())
    (block,) = [n for n in tree.body if isinstance(n, ast.If)
                and ast.unparse(n.test) == "__name__ == '__main__'"]
    assert ast.unparse(block.body) == "run()"
    (entry,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run"]

    def exits(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "_exit"]

    assert len(exits(entry)) == len(exits(tree)) == 1  # os._exit in run alone
