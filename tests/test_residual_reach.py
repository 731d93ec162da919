"""The reach a rule declares: the last prime at which its alignment residual
g(p) = 1 + e0 f(p) p^{-it0} may be nonzero, and the prime routes that stream
only that far (``dirichlet.residual_reach``).

The declaration is checked here, against ``alignment_terms``, rather than
by the routes at run time: a run-time check would sieve again the very
primes that the routes skip.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mflab import dirichlet
from mflab.cli import main
from mflab.dirichlet import (ComplexPoint, HalaszDirection, TruncationPlan, alignment_terms,
                             log_F, prime_sums, residual_reach, residual_terms)
from mflab.errors import CapacityError
from mflab.extremal import ExtremalBlock, ExtremalSpec, build_spec, extremal_function
from mflab.halasz import lemma_defect
from mflab.multfun import builtin, fold, parse_function_spec, twist
from mflab.primes import PRIME_LIMIT_CEILING, sieve_primes

CUTS = [10**3, 10**4, 10**5, 10**6, 10**7]
PS = sieve_primes(CUTS[-1])


def reach(f, direction, P):
    return residual_reach(f, direction, P)


def blind(f):
    """f with no reach declared at any level: a twist rebuilt on a blind base,
    since a route reads the base's reach at the folded t0."""
    return twist(blind(f.twisted[0]), f.twisted[1]) if f.twisted else f._replace(reach=None)


def directions(T):
    """e0 = +-1 with t0 in {0, -T, -T +- 0.5}: aligned and not, for a total twist T."""
    return [HalaszDirection(e0, t0) for e0 in (1, -1)
            for t0 in dict.fromkeys([0.0, -T, -T + 0.5, -T - 0.5])]


def assert_declared_reach_holds(f, direction):
    """g(p) == 0 at every prime in (reach, P], for each P of CUTS."""
    reaches = {P: reach(f, direction, P) for P in CUTS}
    assert all(1 <= r <= P for P, r in reaches.items()), reaches
    lo = min(reaches.values())
    if lo == CUTS[0]:  # nothing declared below any P: no prime to check
        return
    ps = PS[PS > lo]
    _, g = alignment_terms(f, ps, direction)
    for P, r in reaches.items():
        beyond = (ps > r) & (ps <= P)
        assert not g[beyond].any(), (f.label, direction, P, r, int(ps[beyond][g[beyond] != 0][0]))


KAPPAS = ["power:0.329", "const:1.7", "loglog-fraction:0.3"]  # extremal specs built from these


@pytest.mark.parametrize("spec", [
    "one", "moebius", "liouville", "odd_one",
    "twist:0.5:one", "twist:1250.25:moebius", "twist:-3.0:liouville",
    "twist:0.5:twist:0.25:odd_one", "twist:0.1:twist:0.2:one",  # nested; the last sums inexactly
    "extremal-ref", *KAPPAS, "twist:-2.5:extremal-ref"])
def test_the_declared_reach_leaves_only_zero_residuals_beyond_it(spec):
    if spec in KAPPAS:
        f = extremal_function(build_spec(spec, x1=20.0, J=3))
    else:
        f = parse_function_spec(spec)
    for direction in directions(fold(f)[1]):
        assert_declared_reach_holds(f, direction)


@pytest.mark.parametrize("spec, direction, P, want", [
    ("moebius", HalaszDirection(1), 10**7, 1),
    ("liouville", HalaszDirection(1), 10**7, 1),
    ("one", HalaszDirection(-1), 10**7, 1),
    ("odd_one", HalaszDirection(-1), 10**7, 2),
    ("twist:0.5:twist:0.25:one", HalaszDirection(-1, -0.75), 10**7, 1),
    ("extremal-ref", HalaszDirection(1), 10**3, 317),  # the window that ends at log p = 11 pi/6
    ("extremal-ref", HalaszDirection(1), 10**7, 169_867),  # the last nonzero g(p): p = 169,859
    ("moebius", HalaszDirection(-1), 10**7, 10**7),
    ("one", HalaszDirection(-1, 0.5), 10**7, 10**7),
    ("twist:0.1:twist:0.2:one", HalaszDirection(-1, -(0.1 + 0.2)), 10**7, 10**7),  # t0 folds to -2.8e-17
    ("extremal-ref", HalaszDirection(-1), 10**7, 10**7),
])
def test_the_reach_of_the_corpus(spec, direction, P, want):
    assert reach(parse_function_spec(spec), direction, P) == want


def test_a_rule_with_no_declaration_and_its_twists_reach_P():
    one = blind(builtin("one"))
    assert reach(one, HalaszDirection(-1), 1000) == 1000
    assert twist(one, 0.5).reach is None
    assert reach(twist(one, 0.5), HalaszDirection(-1, -0.5), 1000) == 1000


@st.composite
def block_lists(draw):
    """1 to 4 blocks in order, log x_1 >= log 16, below and around log 10^7."""
    lx, blocks = draw(st.floats(math.log(16.0), 12.0)), []
    for _ in range(draw(st.integers(1, 4))):
        lu = lx + draw(st.floats(0.01, 6.0))
        blocks.append(ExtremalBlock(lx, lu, draw(st.floats(0.0, 2.0))))
        lx = lu + draw(st.floats(0.0, 3.0))
    return ExtremalSpec(x1=math.exp(blocks[0].log_x), J=len(blocks), C0=1.0, blocks=tuple(blocks),
                        kappa_desc="drawn", alpha_desc="drawn")


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(block_lists())
def test_the_reach_of_drawn_blocks_leaves_only_zero_residuals_beyond_it(spec):
    f = extremal_function(spec)
    for direction in directions(0.0):
        assert_declared_reach_holds(f, direction)


# ---------------------------------------------------------------------------
# the routes


@pytest.mark.parametrize("spec, direction", [
    ("moebius", HalaszDirection(1)), ("one", HalaszDirection(-1)),
    ("odd_one", HalaszDirection(-1)), ("extremal-ref", HalaszDirection(1)),
    ("twist:0.5:twist:0.25:one", HalaszDirection(-1, -0.75)),
    ("twist:0.7:one", HalaszDirection(-1, 0.7)),  # misaligned: the whole stream either way
])
def test_routes_that_stop_at_the_reach_have_the_bits_of_the_whole_stream(spec, direction):
    f = parse_function_spec(spec)
    pts = [ComplexPoint(1.0 + 1e-7, 0.3), ComplexPoint(1.2)]
    ws = [ComplexPoint(pt.sigma, pt.t - direction.t0) for pt in pts]

    def pairs(limit):  # the aligned sum of log_F: residual and defect, C = 1000
        return prime_sums(f, pts, ws, residual_terms(f, direction), limit, 1000)

    # repr: every bit of each value and bound, signs of zero included
    assert repr(pairs(max(2, 1000, residual_reach(f, direction, 10**6)))) == repr(pairs(10**6))
    assert (repr(lemma_defect(f, direction, pts, 10**6))
            == repr(lemma_defect(blind(f), direction, pts, 10**6)))  # every prime to P


ALIGNED = [  # (argv without --prime-cutoff, the most primes it may ask for at P = 10^7)
    (["eval-f", "--function", "moebius", "--method", "euler", "--sigma", "1.0000001:1.5:2"], 10**4),
    (["eval-f", "--function", "twist:1000.5:one", "--method", "euler", "--epsilon", "-1",
      "--t0=-1000.5", "--sigma", "1.0000001:1.3:2"], 10**4),
    (["thm1", "--function", "moebius", "--epsilon", "1", "--sigma", "1.0000001:1.5:2"], 10**4),
    (["thm1", "--function", "one", "--epsilon", "-1", "--sigma", "1.0000001:1.5:2"], 10**4),
    (["thm1", "--function", "extremal-ref", "--epsilon", "1", "--sigma", "1.0000001:1.5:2"],
     169_868),
    (["lemma", "--function", "liouville", "--epsilon", "1", "--sigma", "1.0000001:1.2:2"], 2),
]
MISALIGNED = [
    ["eval-f", "--function", "twist:1000.5:one", "--method", "euler", "--epsilon", "-1",
     "--t0=1000.5", "--sigma", "1.1:1.3:2"],
    ["thm1", "--function", "moebius", "--epsilon", "-1", "--sigma", "1.1:1.5:2"],
    ["lemma", "--function", "one", "--epsilon", "1", "--sigma", "1.1:1.2:2"],
]


def test_aligned_routes_stream_the_primes_only_to_the_reach(monkeypatch, tmp_path):
    asked, prime_pass = [], dirichlet.prime_pass
    monkeypatch.setattr(dirichlet, "prime_pass",
                        lambda limit, *args: asked.append(limit) or prime_pass(limit, *args))
    P = ["--prime-cutoff", str(10**7), "--out", str(tmp_path / "out.csv")]
    for argv, most in ALIGNED:
        asked.clear()
        assert main([*argv, *P]) == 0
        assert len(asked) == 1 and asked[0] <= most, (argv, asked)
    for argv in MISALIGNED:
        asked.clear()
        assert main([*argv, *P]) == 0
        assert asked == [10**7], (argv, asked)


@pytest.mark.parametrize("argv", [argv for argv, _ in ALIGNED])
def test_an_aligned_route_refuses_a_cutoff_above_the_ceiling_before_any_zeta_work(
        argv, monkeypatch, capsys, tmp_path):
    def zeta(*args, **kwargs):
        raise AssertionError("zeta ran before the cutoff was refused")

    monkeypatch.setattr(dirichlet, "zeta", zeta)
    out = tmp_path / "out.csv"
    assert main([*argv, "--prime-cutoff", str(PRIME_LIMIT_CEILING + 1), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error:capacity:sieve limit")
    assert not out.exists()
    with pytest.raises(CapacityError):
        log_F(builtin("moebius"), [1.5], TruncationPlan(PRIME_LIMIT_CEILING + 1),
              HalaszDirection(1))
    with pytest.raises(CapacityError):
        lemma_defect(builtin("liouville"), HalaszDirection(1), [1.1], PRIME_LIMIT_CEILING + 1)
