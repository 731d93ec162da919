"""Reference values for auditing mflab output.

Nothing here imports mflab.  Every value is computed from scratch: an
odds-only prime sieve, a factor sieve that yields Omega(n), squarefreeness
and additive phases, trial division for small n, mpmath closed forms, and
published tables.
"""

from __future__ import annotations

import cmath
import math
from math import isqrt

import mpmath as mp
import numpy as np

# Deléglise & Rivat, Experimental Math. 5 (1996); OEIS A084237.
MERTENS = {10**6: 212, 10**7: 1037, 10**8: 1928}
# Prime counts pi(10^k), OEIS A006880.
PI = {10**6: 78498, 10**7: 664579, 10**8: 5761455}


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n (odds-only sieve of Eratosthenes)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)  # odd[i] <-> 2i + 1
    odd[0] = False
    for i in range(1, (isqrt(n) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 1)).astype(np.int64)


def check_prime_counts(ps: np.ndarray) -> None:
    """Anchor the sieve to the published pi(10^k) it covers."""
    for x, count in PI.items():
        if ps.size and ps[-1] >= x - 100:
            got = int(np.searchsorted(ps, x, side="right"))
            if got != count:
                raise AssertionError(f"oracle sieve: pi({x}) = {got}, published {count}")


# ---------------------------------------------------------------------------
# functions on n <= L


def theta_from_blocks(blocks: list[dict], ps: np.ndarray) -> np.ndarray:
    """theta_p of an extremal spec, from its JSON blocks: a_j / sqrt(log log p)
    where log x_j <= log p < log upper_j and sin(log p) <= -1/2."""
    lp = np.log(np.asarray(ps, dtype=np.float64))
    th = np.zeros(lp.size)
    for b in blocks:
        sel = (lp >= b["log_x"]) & (lp < b["log_upper"]) & (np.sin(lp) <= -0.5)
        th[sel] = b["a"] / np.sqrt(np.log(lp[sel]))
    return th


def factor_sieve(L: int, blocks: list[dict] | None = None):
    """Omega(n), squarefree(n) and (with ``blocks``) sum of k theta_p over
    p^k || n, for every 0 <= n <= L."""
    omega = np.zeros(L + 1, dtype=np.int8)
    sqfree = np.ones(L + 1, dtype=bool)
    phase = np.zeros(L + 1) if blocks is not None else None
    rem = np.arange(L + 1, dtype=np.int64)
    small = primes_upto(isqrt(L))
    th_small = theta_from_blocks(blocks, small) if blocks is not None else None
    for i, p in enumerate(small.tolist()):
        q = p
        while q <= L:
            omega[q::q] += 1
            rem[q::q] //= p
            if q > p:
                sqfree[q::q] = False
            if phase is not None and th_small[i]:
                phase[q::q] += th_small[i]
            q *= p
    big = np.flatnonzero(rem > 1)
    omega[big] += 1
    if phase is not None:
        phase[big] += theta_from_blocks(blocks, rem[big])
    return omega, sqfree, phase


def function_values(spec: str, L: int, blocks: list[dict] | None = None) -> np.ndarray:
    """f(n) for n = 0..L (index 0 unused) for the specs the benchmark uses:
    moebius, liouville, twist:<t>:moebius and extremal-ref (from blocks)."""
    kind = spec.split(":")
    if spec == "extremal-ref":
        omega, _, phase = factor_sieve(L, blocks)
        v = np.where(omega % 2 == 0, 1.0, -1.0) * np.exp(1j * phase)
    else:
        omega, sqfree, _ = factor_sieve(L)
        sign = np.where(omega % 2 == 0, 1, -1)
        if spec == "liouville":
            v = sign
        elif spec == "moebius" or (kind[0] == "twist" and kind[2] == "moebius"):
            v = sign * sqfree
        else:
            raise ValueError(f"no oracle for {spec!r}")
        if kind[0] == "twist":
            n = np.arange(L + 1, dtype=np.float64)
            n[0] = 1.0
            v = v * np.exp(-1j * float(kind[1]) * np.log(n))
    v[0] = 0
    return v


def prefix_sums(values: np.ndarray, xs: list[int]) -> np.ndarray:
    """S(x) = sum_{1<=n<=x} f(n) at each x; exact for integer values."""
    cs = np.cumsum(values)
    return cs[np.asarray(xs, dtype=np.int64)]


def trial_factorizations(top: int) -> list[list[tuple[int, int]]]:
    """(p, k) pairs of every n <= top, by trial division with primes <= sqrt(top)."""
    small = primes_upto(isqrt(top)).tolist()
    out: list[list[tuple[int, int]]] = [[], []]
    for n in range(2, top + 1):
        m, fac = n, []
        for p in small:
            if p * p > m:
                break
            if m % p == 0:
                k = 0
                while m % p == 0:
                    m //= p
                    k += 1
                fac.append((p, k))
        if m > 1:
            fac.append((m, 1))
        out.append(fac)
    return out


def trial_division_sums(spec: str, xs: list[int], facts, blocks: list[dict] | None = None) -> list[complex]:
    """S(x) at each x <= len(facts) - 1 from trial-division factorizations."""
    t = float(spec.split(":")[1]) if spec.startswith("twist:") else 0.0
    want = set(xs)
    acc, by_x = 0.0 + 0.0j, {}
    for n in range(1, max(xs) + 1):
        f = 1.0 + 0.0j
        for p, k in facts[n]:
            f *= prime_power(spec, p, k, t, blocks)
        acc += f
        if n in want:
            by_x[n] = acc
    return [by_x[x] for x in xs]


def prime_power(spec: str, p: int, k: int, t: float, blocks) -> complex:
    if spec == "moebius":
        return -1.0 if k == 1 else 0.0
    if spec == "liouville":
        return (-1.0) ** k
    if spec.startswith("twist:"):
        return (-cmath.exp(-1j * t * math.log(p))) if k == 1 else 0.0
    if spec == "extremal-ref":
        lp = math.log(p)
        th = 0.0
        for b in blocks:
            if b["log_x"] <= lp < b["log_upper"] and math.sin(lp) <= -0.5:
                th = b["a"] / math.sqrt(math.log(lp))
        return (-cmath.exp(1j * th)) ** k
    raise ValueError(spec)


# ---------------------------------------------------------------------------
# Dirichlet series near the one-line (mpmath)


def closed_form_F(spec: str, s):
    """F(s) = sum f(n) n^{-s} in closed form, as an mpmath number."""
    if spec == "one":
        return mp.zeta(s)
    if spec == "moebius":
        return 1 / mp.zeta(s)
    if spec == "liouville":
        return mp.zeta(2 * s) / mp.zeta(s)
    kind = spec.split(":")
    if kind[0] == "twist" and kind[2] == "one":
        return mp.zeta(s + 1j * mp.mpf(kind[1]))
    raise ValueError(f"no closed form for {spec!r}")


def extremal_F_truncated(blocks: list[dict], s, ps: np.ndarray):
    """F(s) for f(p) = -e^{i theta_p} with theta_p cut to 0 beyond the last
    prime in ``ps``: zeta(2s)/zeta(s) times the finite product over the
    primes where theta_p != 0 of (1 + p^-s) / (1 + e^{i theta_p} p^-s)."""
    th = theta_from_blocks(blocks, ps)
    sel = th != 0
    q = ps[sel].astype(np.float64)
    x = np.exp(-complex(s) * np.log(q))
    corr = complex(np.sum(np.log1p(x) - np.log1p(np.exp(1j * th[sel]) * x)))
    return mp.zeta(2 * s) / mp.zeta(s) * mp.exp(mp.mpc(corr.real, corr.imag))


def lemma_D(w):
    """log zeta(w) - P(w), the defect D for an aligned function."""
    return mp.log(mp.zeta(w)) - mp.primezeta(w)


def log_distance_mod_2pi(a: complex, b) -> float:
    """|log a - log b| with the imaginary part reduced modulo 2 pi."""
    d = mp.log(mp.mpc(a.real, a.imag)) - mp.log(b)
    im = float(d.imag) % (2 * math.pi)
    im = min(im, 2 * math.pi - im)
    return math.hypot(float(d.real), im)


# ---------------------------------------------------------------------------
# Halász criterion and extremal verification


def criterion_partials(re_terms: np.ndarray, ps: np.ndarray, cutoffs: list[int]) -> list[float]:
    """Partial sums of (1 - Re f(p) p^{-it}) / p at each cutoff, given
    Re f(p) p^{-it} per prime."""
    cs = np.cumsum((1.0 - re_terms) / ps.astype(np.float64))
    idx = np.searchsorted(ps, cutoffs, side="right") - 1
    return [float(cs[i]) if i >= 0 else 0.0 for i in idx]


def criterion_verdict(partials: list[float], cutoffs: list[int], two_adic_ok: bool):
    """Verdict for the criterion probe: last-decade growth against 1/2 and
    1/20 of the loglog increment; None when too close to a threshold."""
    growth = partials[-1] - partials[-2]
    dll = math.log(math.log(cutoffs[-1])) - math.log(math.log(cutoffs[-2]))
    if min(abs(growth - 0.5 * dll), abs(growth - 0.05 * dll)) < 1e-9:
        return None
    side = "diverging" if growth >= 0.5 * dll else "converged" if growth <= 0.05 * dll else "unclear"
    if two_adic_ok:
        return "criterion satisfied (2-adic side)"
    return {"diverging": "criterion satisfied (sum side)",
            "converged": "criterion fails"}.get(side, "indeterminate at this cutoff")


def extremal_blocks(kappa: str, x1: float = 20.0, J: int = 3, C0: float = 1.0) -> list[dict]:
    """Blocks of the extremal construction for a kappa spec, built from its
    definition: log x_1 = log x1, log upper_j = (log x_j)^2,
    log x_{j+1} = log upper_j + 1, a_j = sqrt(alpha(upper_j)), where alpha is
    the nonincreasing envelope of (kappa1 + log(ll + 1/e) + C0) / sqrt(ll) on
    2000 loglog points from loglog 16 to 40, and kappa1 is the regularized
    kappa (running max, then kappa/sqrt(ll) made nonincreasing)."""
    kind, v = kappa.split(":")
    v = float(v)
    raw = {"const": lambda ll: v, "power": lambda ll: ll**v,
           "loglog-fraction": lambda ll: v * math.sqrt(ll) / math.log(ll)}[kind]
    grid = np.linspace(math.log(math.log(16.0)), 40.0, 2000)
    k0 = np.maximum.accumulate(np.array([float(raw(g)) for g in grid]))
    k1 = np.sqrt(grid) * np.maximum.accumulate((k0 / np.sqrt(grid))[::-1])[::-1]

    def formula(ll, kap):
        return max((kap + math.log(ll + 1.0 / math.e) + C0) / math.sqrt(ll), 1e-6)

    env = np.maximum.accumulate(np.array([formula(g, k) for g, k in zip(grid, k1)])[::-1])[::-1]
    blocks, lx = [], math.log(x1)
    for _ in range(J):
        lu = lx * lx
        ll = math.log(lu)
        alpha = formula(ll, k1[-1]) if ll >= grid[-1] else float(np.interp(ll, grid, env))
        blocks.append({"log_x": lx, "log_upper": lu, "a": math.sqrt(alpha)})
        lx = lu + 1.0
    return blocks
