"""The prime pass in forked workers (mflab.workers.prime_pass).

A prime sum is exact and order-free between its checkpoints, and the
workers take whole sieve segments (k 2^20, (k+1) 2^20], so every prime
route prints the same bytes however its primes are chunked and however
many workers share them.  The worker count follows the CPUs that
os.sched_getaffinity reports, which the tests here set.
"""

import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from mflab import multfun, primes, workers
from mflab.cli import main
from mflab.dirichlet import ComplexPoint, TruncationPlan, log_F
from mflab.errors import DomainError, SingularFactorError
from mflab.multfun import MultiplicativeFunction, StreamSummer, builtin
from mflab.primes import sieve_primes

SEGMENT = 2**20


def _routes(P):
    """One command per prime route: criterion, the prime sum (its defect cut
    past the first segment when P allows), a misaligned euler row, thm1 and
    lemma, and extremal-verify."""
    P = str(P)
    return [
        ["criterion", "--function", "extremal-ref", "--prime-cutoff", P],
        ["eval-f", "--function", "twist:0.7:liouville", "--method", "prime-sum", "--t", "0.3",
         "--sigma", "1.01:1.5:2", "--prime-cutoff", P,
         *(["--exact-cutoff", "1100000"] if int(P) > 1_100_000 else [])],
        ["eval-f", "--function", "twist:0.7:one", "--method", "euler", "--epsilon", "-1",
         "--t0", "0.7", "--sigma", "1.01:1.5:2", "--prime-cutoff", P],
        ["thm1", "--function", "one", "--epsilon", "-1", "--t0", "0.5", "--sigma", "1.01:1.5:2",
         "--prime-cutoff", P],
        ["lemma", "--function", "one", "--epsilon", "1", "--sigma", "1.1:1.2:2",
         "--prime-cutoff", P],
        ["extremal-verify", "spec.json", "--cutoff", P],
    ]


def _outputs(P, tmp_path):
    """The bytes each route of _routes(P) writes."""
    got = []
    for i, argv in enumerate(_routes(P)):
        out = tmp_path / f"{i}.out"
        assert main([*argv, "--out", str(out)]) == 0, argv
        got.append(out.read_bytes())
    return got


@pytest.fixture
def spec_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["extremal-build", "--kappa", "power:0.25", "--out", "spec.json"]) == 0
    return tmp_path


def test_every_prime_route_has_the_same_bytes_at_any_number_of_workers(spec_dir, monkeypatch,
                                                                        with_cpus):
    # four stripes, the last of one number; W = 3 deals them unevenly
    P = 3 * SEGMENT + 1
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    want = None
    for count in (1, 2, 3):
        with_cpus(count)
        forks.clear()
        got = _outputs(P, spec_dir)
        assert len(forks) == (0 if count == 1 else count * len(got)), count
        assert want is None or got == want, count
        want = got


@pytest.mark.parametrize("chunk", [1, 4095, 2**16 - 1, 2**16 + 1])
def test_every_prime_route_has_the_same_bytes_at_any_chunking(chunk, spec_dir, monkeypatch):
    # 2^17 spans two key blocks; a chunk of 4095 or of 2^16 - 1 primes ends
    # inside one, and 2^16 + 1 takes the whole segment
    want = _outputs(2**17, spec_dir)
    monkeypatch.setattr(primes, "_BLOCK", chunk)
    assert _outputs(2**17, spec_dir) == want


def test_checkpoints_on_stripe_edges_take_the_same_bits_in_workers(with_cpus):
    # checkpoints on stripe edges and one each side of one, and one past the
    # last prime of a stripe: the workers take none of them, this process
    # takes each in key order
    P = 3 * SEGMENT + 1
    cps = [10, SEGMENT - 1, SEGMENT, SEGMENT + 1, 2 * SEGMENT, 3 * SEGMENT, P]

    def partials():
        summer = StreamSummer(cps)

        def chunk(ps):
            summer.feed(np.sin(ps) / ps, ps)
            return int(ps[0]), ps.size

        extras = workers.prime_pass(P, [summer], chunk)
        total = summer.close()
        return extras, np.array([*summer.checkpoint_values, total]).view(np.uint64).tolist()

    results = []
    for count in (1, 2, 3):
        with_cpus(count)
        results.append(partials())
    assert results[1] == results[0] and results[2] == results[0]
    extras, bits = results[0]
    ps = sieve_primes(P)
    assert sum(n for _, n in extras) == ps.size  # every chunk's extras, in key order
    assert [p for p, _ in extras] == sorted(p for p, _ in extras)
    got = np.array(bits, dtype=np.uint64).view(np.complex128)
    for cp, v in zip([*cps, P], got):
        exact = math.fsum((np.sin(ps[ps <= cp]) / ps[ps <= cp]).tolist())
        assert v.imag == 0.0 and abs(v.real - exact) <= 1e-15, cp


def test_a_prime_sum_grid_keeps_no_terms_per_point(with_cpus):
    # the memory statement of cli.SIGMA_GRID_CEILING and the README: a
    # point's summers keep a few ints between chunks, not an open block of
    # terms (up to 6,542 complex values each before the sums were exact).
    # One CPU: the pass runs here, where tracemalloc sees it
    with_cpus(1)
    f, plan = builtin("extremal-ref"), TruncationPlan(10**6, 10**4)
    log_F(f, [1.5], TruncationPlan(10**4, 10**4))  # loads what the first call imports

    def peak(count):
        tracemalloc.start()
        try:
            log_F(f, [ComplexPoint(1.01 + 0.49 * i / 199, 0.3) for i in range(count)], plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200) - peak(1) <= 2**20, (peak(1), peak(200))


def _too_large_in_later_stripes():
    """one, except that f(p) = 1 + p at the first prime past 2^20 and the
    first past 2^21: each gives the alignment term (1 - f(p))/p = -1 exactly,
    the most negative, in the second and third stripe."""
    ps = sieve_primes(2 * SEGMENT + 100)
    bad = [int(ps[ps > SEGMENT][0]), int(ps[ps > 2 * SEGMENT][0])]

    def powers(qs, k):
        return np.where(np.isin(qs, bad), 1.0 + qs, 1.0) if k == 1 else np.ones(qs.shape)

    return MultiplicativeFunction("too-large", powers), bad


@pytest.mark.parametrize("count", [1, 2])
def test_criterion_names_the_first_prime_of_the_most_negative_term(count, tmp_path, capsys,
                                                                  monkeypatch, with_cpus):
    f, bad = _too_large_in_later_stripes()
    with_cpus(count)
    monkeypatch.setattr(multfun, "parse_function_spec", lambda spec: f)
    out = tmp_path / "c.txt"
    assert main(["criterion", "--function", "x", "--prime-cutoff", str(3 * SEGMENT + 1),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error:domain:negative alignment term at p={bad[0]}: |f(p)| > 1\n")
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_prime_worker_error_is_raised_here_with_its_class(with_cpus):
    # a vanishing Euler factor in the second stripe: f(p) = p^s there
    with_cpus(2)
    ps = sieve_primes(SEGMENT + 100)
    p0 = int(ps[ps > SEGMENT][0])

    def powers(ps, k):
        return np.where(ps == p0, float(p0) ** 2, 0.0) if k == 1 else np.zeros(ps.shape)

    f = MultiplicativeFunction("vanishing", powers, completely_multiplicative=True)
    with pytest.raises(SingularFactorError, match=f"^Euler factor at p={p0} vanishes$"):
        log_F(f, [ComplexPoint(2.0)], TruncationPlan(2 * SEGMENT, 2 * SEGMENT))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupt_kills_and_reaps_every_prime_worker(monkeypatch, with_cpus):
    # the first stripe arrives, then this process is interrupted while the
    # other worker hangs in its first stripe, the second of the pass
    def powers(ps, k):
        if (ps > SEGMENT).any():
            time.sleep(60)
        return np.ones(ps.shape)

    receive, calls = workers._receive, []

    def interrupted(pipe):
        calls.append(1)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return receive(pipe)

    with_cpus(2)
    monkeypatch.setattr(workers, "_receive", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        log_F(MultiplicativeFunction("hangs", powers), [2.0], TruncationPlan(3 * SEGMENT))
    assert time.monotonic() - start < 30  # killed, not waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_domain_error_raised_by_a_prime_worker_keeps_its_class(with_cpus):
    def powers(ps, k):
        if (ps > SEGMENT).any():
            raise DomainError("no value past 2^20")
        return np.ones(ps.shape)

    with_cpus(2)
    with pytest.raises(DomainError, match="^no value past 2\\^20$"):
        log_F(MultiplicativeFunction("refuses", powers), [2.0], TruncationPlan(3 * SEGMENT))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.slow
def test_north_star_prime_routes_have_the_same_bytes_at_one_and_two_workers(spec_dir,
                                                                          with_cpus):
    # criterion and extremal-verify of the reference construction at P = 10^8:
    # 96 stripes; about 2 s on 2 CPUs
    argvs = [["criterion", "--function", "extremal-ref", "--prime-cutoff", str(10**8)],
             ["extremal-verify", "spec.json", "--cutoff", str(10**8)]]
    outputs = []
    for count in (1, 2):
        with_cpus(count)
        for i, argv in enumerate(argvs):
            assert main([*argv, "--out", f"{count}-{i}.out"]) == 0
        outputs.append([(spec_dir / f"{count}-{i}.out").read_bytes() for i in range(len(argvs))])
    assert outputs[0] == outputs[1]
