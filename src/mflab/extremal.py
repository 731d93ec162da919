"""The extremal counterexample function of a spec: the spec records, their
JSON file, the desk-scale reference spec, and the rule f(p) = -e^{i theta_p}.

A spec's blocks are kept in log form (log x_j, log x_j^2), because upper_j
= x_j^{log x_j} overflows floats from j = 3 on.  extremal_build constructs
a spec from a growth target kappa (``extremal-build``), and extremal_verify
checks one on the primes (``extremal-verify``); no other command loads
either, and reference_spec is their construction's result, written out.

theta_p is nonzero only on the sine windows of the blocks, -sin(log p) >=
1/2, so the rule takes sin, and e^{i theta_p}, only where it needs them.
"""

from __future__ import annotations

import json
from _sha1 import sha1  # hashlib's own fallback; hashlib would load OpenSSL (+3.5 MB RSS)
from math import exp, floor, inf, isfinite, log, pi
from typing import TYPE_CHECKING, NamedTuple

from .errors import FunctionSpecError

if TYPE_CHECKING:  # annotations only
    import numpy as np
    from .multfun import MultiplicativeFunction

A_SQ_BUDGET = 64.0              # largest sum of a_j^2 that choose_blocks and load_spec accept
REACH_SLACK = 1e-6              # in log p: the rounding of log p, sin and the window ends
# -sin(x) >= 1/2 exactly on the windows [7 pi/6, 11 pi/6] + 2 pi k.  Where x
# mod 2 pi lies further than _EDGE from both ends, |sin(x) + 1/2| > 8e-10,
# far above the rounding of x mod 2 pi and of sin, so there the window is
# read from x mod 2 pi; within _EDGE of an end, from sin.
_EDGE = 1e-9


# ---------------------------------------------------------------------------
# the spec records


class ExtremalBlock(NamedTuple):
    log_x: float      # log x_j
    log_upper: float  # log x_j^{log x_j} = (log x_j)^2
    a: float          # sqrt(alpha(upper_j))


class ExtremalSpec(NamedTuple):
    x1: float
    J: int
    C0: float
    blocks: tuple[ExtremalBlock, ...]
    kappa_desc: str
    alpha_desc: str

    def sum_a_sq(self) -> float:
        """The squares added in order; not sum(), which compensates floats from Python 3.12."""
        total = 0.0
        for b in self.blocks:
            total += b.a * b.a
        return total

    def to_json_dict(self) -> dict:
        return {
            "x1": self.x1,
            "J": self.J,
            "C0": self.C0,
            "kappa_desc": self.kappa_desc,
            "alpha_desc": self.alpha_desc,
            "blocks": [
                {"log_x": b.log_x, "log_upper": b.log_upper, "a": b.a}
                for b in self.blocks
            ],
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return sha1(blob).hexdigest()[:10]


def reference_spec() -> ExtremalSpec:
    """The desk-scale reference construction used across the test corpus:
    extremal_build.build_spec("power:0.25", x1=20.0, J=3, C0=1.0), written
    out (a test checks that they are equal)."""
    return ExtremalSpec(
        x1=20.0, J=3, C0=1.0,
        blocks=(ExtremalBlock(2.995732273553991, 8.974411854812963, 1.4600840630375762),
                ExtremalBlock(9.974411854812963, 99.48889184943339, 1.3771258928005055),
                ExtremalBlock(100.48889184943339, 10098.01738512712, 1.283612027112532)),
        kappa_desc="power:0.25", alpha_desc="envelope(kappa=power:0.25, C0=1.0)")


def spec_json(spec: ExtremalSpec) -> str:
    """The text of a spec file, which load_spec reads."""
    return json.dumps(spec.to_json_dict(), sort_keys=True, indent=2) + "\n"


def load_spec(path: str) -> ExtremalSpec:
    """Read a ``spec_json`` file; FunctionSpecError if it is missing or
    malformed (J not a JSON integer, another number not a JSON number), or
    holds a non-finite number, a J other than its number of blocks, blocks
    out of order (not log x_j < log upper_j <= log x_{j+1}), an x_j < 16 (as
    choose_blocks requires), an a_j < 0, a C0 < 0, or a sum of a_j^2 above
    A_SQ_BUDGET (as choose_blocks refuses; it bounds theta_p^2/p, which
    verify sums, by 3.62)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        numbers = [doc["x1"], doc["C0"]] + [b[k] for b in doc["blocks"] for k in ("log_x", "log_upper", "a")]
        if type(doc["J"]) is not int or any(type(v) not in (int, float) for v in numbers):
            raise TypeError("J must be a JSON integer, and each other number an integer or a float")
        x1, C0, *rest = map(float, numbers)
        blocks = tuple(ExtremalBlock(*rest[i : i + 3]) for i in range(0, len(rest), 3))
        spec = ExtremalSpec(x1=x1, J=doc["J"], C0=C0, blocks=blocks,
                            kappa_desc=doc["kappa_desc"], alpha_desc=doc["alpha_desc"])
    except (OSError, ValueError, LookupError, TypeError, AttributeError, OverflowError) as exc:
        raise FunctionSpecError(
            f"cannot load extremal spec {path!r}: {type(exc).__name__}: {exc}") from None
    if not all(map(isfinite, numbers)):
        problem = "a number that is not finite"
    elif spec.J != len(blocks):
        problem = f"J = {spec.J} but {len(blocks)} blocks"
    elif any(not b.log_x < b.log_upper <= nxt
             for b, nxt in zip(blocks, [b.log_x for b in blocks[1:]] + [inf])):
        problem = "a block that is empty or overlaps the next"
    elif any(b.log_x < log(16.0) for b in blocks):
        problem = "a block starting below x = 16"
    elif any(b.a < 0 for b in blocks):
        problem = "an amplitude a_j < 0"
    elif spec.C0 < 0:
        problem = f"C0 = {spec.C0!r} < 0"
    elif spec.sum_a_sq() > A_SQ_BUDGET:
        problem = f"sum of a_j^2 = {spec.sum_a_sq()!r} exceeds budget {A_SQ_BUDGET}"
    else:
        return spec
    raise FunctionSpecError(f"bad extremal spec {path!r}: {problem}")


# ---------------------------------------------------------------------------
# the function itself: from here on, each function imports the numpy it runs


def theta_values(spec: ExtremalSpec, ps: np.ndarray, lp: np.ndarray | None = None) -> np.ndarray:
    """theta_p for an array of primes: a_j/sqrt(loglog p) on the
    sine-selected window of block j, 0 outside all blocks (including all
    p < x_1).  ``lp`` is log p of ``ps`` as float64, when the caller has
    it already."""
    import numpy as np
    if lp is None:
        lp = np.log(ps.astype(np.float64))
    th = np.zeros(lp.size, dtype=np.float64)
    window = _sine_window(lp)
    for b in spec.blocks:
        m = (lp >= b.log_x) & (lp < b.log_upper) & window
        if m.any():
            th[m] = b.a / np.sqrt(np.log(lp[m]))
    return th


def _sine_window(lp: np.ndarray) -> np.ndarray:
    """-np.sin(lp) >= 0.5 at every float, but with sin taken only within
    _EDGE of a window end (r = lp mod 2 pi at 7 pi/6 or 11 pi/6)."""
    import numpy as np
    r = np.floor(lp / (2 * pi))
    r *= -2 * pi
    r += lp
    r -= 3 * pi / 2  # the window's centre; its ends lie at +- pi/3
    np.abs(r, out=r)
    window = r <= pi / 3 + _EDGE
    r -= pi / 3
    edge = np.abs(r, out=r) <= _EDGE
    if edge.any():
        window[edge] = -np.sin(lp[edge]) >= 0.5
    return window


def _theta_reach(spec: ExtremalSpec, P: int) -> int:
    """The last p <= P where theta_values may be nonzero (1 if none): the end of the
    last sine window, -sin(log p) >= 1/2 on [7 pi/6, 11 pi/6] + 2 pi k, that meets
    a block [log x_j, log upper_j) below log P, each widened by REACH_SLACK."""
    end = 0.0
    for b in spec.blocks:
        hi = min(b.log_upper, log(P)) + REACH_SLACK
        k = floor((hi - 7 * pi / 6) / (2 * pi))  # the last window starting below hi
        if (w := min(hi, 2 * pi * k + 11 * pi / 6 + REACH_SLACK)) >= b.log_x - REACH_SLACK:
            end = max(end, w)
    return min(P, int(exp(end)))


def extremal_function(spec: ExtremalSpec) -> MultiplicativeFunction:
    """Completely multiplicative f with f(p) = -e^{i theta_p}; class M."""
    from .multfun import completely_multiplicative
    return completely_multiplicative(
        f"extremal:{spec.content_hash()}",
        lambda ps: _unit_values(theta_values(spec, ps)),
        lambda e0, t0, P: _theta_reach(spec, P) if e0 == 1 and t0 == 0.0 else P)


def _unit_values(th: np.ndarray) -> np.ndarray:
    """f(p) = -e^{i theta_p} from theta_p >= 0 in one complex array, with
    the bits of -np.exp(1j * th): unit_power where theta_p > 0, and
    -(1 + 0i) = -1 - 0i, its value at theta_p = +0, elsewhere."""
    import numpy as np
    from .multfun import unit_power
    fp = np.full(th.size, complex(-1.0, -0.0))
    m = th != 0.0
    fp[m] = -unit_power(th[m], -1.0)
    return fp
