import csv
import json

import pytest

from mflab.cli import main

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


def test_capacity_and_coverage_exit_code(tmp_path, capsys):
    code = run(["sum", "--function", "one", "--limit", str(2**35),
                "--out", str(tmp_path / "x.csv")])
    cap = capsys.readouterr()
    assert code == 3
    assert cap.err.startswith("error:capacity:")


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


@pytest.mark.parametrize("content", [None, "{not json", '{"x1": 20}', "[1, 2]"])
def test_missing_or_malformed_extremal_spec(tmp_path, capsys, content):
    spec = tmp_path / "spec.json"
    if content is not None:
        spec.write_text(content)
    out = tmp_path / "x.csv"
    assert usage_failure(["sum", "--function", f"extremal:{spec}", "--limit", "100",
                          "--out", str(out)], capsys) == 2
    assert usage_failure(["extremal-verify", str(spec)], capsys) == 2
    assert not out.exists()


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
