"""Checks every command's output against the oracles.

``Auditor.check(cmd, rc, stderr, data)`` returns the list of problems with
one command's first-pass output.  Each problem carries the name of a known
defect when it matches one, so known defects are counted and named rather
than hidden; any other problem makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import statistics
from dataclasses import dataclass

import mpmath as mp
import numpy as np

import oracles
import workloads as wl

KNOWN_DEFECTS = {
    "misaligned-euler": (
        "euler-product err assumes the alignment residual 1 + e0 f(p) p^(-it0) "
        "vanishes beyond the prime cutoff; for a misaligned direction it does "
        "not, and err is not a bound (ROADMAP item 1)"),
    "sigma-endpoint-past-1.5": (
        "a geometric sigma grid asked to end at 1.5 gets a last point just "
        "above 1.5, which thm1 rejects with error:domain (ROADMAP item 5)"),
}

TRIAL_DIVISION_TOP = 10**5
# Misaligned euler rows of the seed commit miss the truth by at most 0.16 of
# |truth| on near-line seeds 1-20; a larger miss is not the known defect.
MISALIGNED_REL_CAP = 1.0
# bound_log10_median of the seed commit is -3.4259 on near-line seeds 1-20
# (it moves in the sixth digit).  A median above the ceiling means err got
# about ten times looser (ROADMAP: speed never costs a bound): the run fails.
BOUND_LOG10_CEILING = -2.42
MPMATH_DPS = 30


@dataclass
class Problem:
    what: str
    defect: str | None = None   # a KNOWN_DEFECTS key, or None if unexpected


def _rows(data: bytes) -> list[dict]:
    text = data.decode()
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(b))


def _row_problem(what: str, state: str, dist: float, size: float) -> Problem:
    """A near-line row whose error exceeds its err.  On a misaligned direction
    it is the known defect while the value keeps the truth's size (error at
    most MISALIGNED_REL_CAP times |truth|); a larger error is unexpected."""
    known = state == "misaligned" and dist <= MISALIGNED_REL_CAP * size
    return Problem(what, "misaligned-euler" if known else None)


def _unusable(sg: float, err: float, *values: float) -> Problem | None:
    """A row can only be audited when its values and err are finite and err > 0."""
    if all(map(math.isfinite, (err, *values))) and err > 0:
        return None
    return Problem(f"sigma={sg!r}: values {values} or err {err!r} not finite and positive")


class Auditor:
    """Holds the oracle tables of one run; built outside the timed region."""

    def __init__(self) -> None:
        mp.mp.dps = MPMATH_DPS
        self.ref_blocks = oracles.extremal_blocks(wl.REFERENCE_KAPPA)
        self.bound_log10: list[float] = []   # log10(err / |value|) of audited aligned rows
        self.notes: list[str] = []
        self._first: dict[str, list[dict]] = {}
        self._facts = None
        self._primes = None

    def primes(self, n: int) -> np.ndarray:
        if self._primes is None or self._primes[-1] < n:
            self._primes = oracles.primes_upto(n)
            oracles.check_prime_counts(self._primes)
        return self._primes[: np.searchsorted(self._primes, n, side="right")]

    def check(self, cmd: wl.Command, rc: int, stderr: str, data: bytes | None) -> list[Problem]:
        if rc != 0 or "error:" in stderr:
            return [self._exit_problem(cmd, rc, stderr)]
        if data is None:
            return [Problem(f"{cmd.out} was not written")]
        try:
            return getattr(self, "_" + cmd.kind.replace("-", "_"))(cmd, data)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as e:
            return [Problem(f"unparsable output: {e!r}")]

    def _exit_problem(self, cmd, rc, stderr) -> Problem:
        line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        what = f"exit {rc}: {line}"
        if (cmd.kind == "thm1" and rc == 2 and cmd.meta.get("sigma_end", 2.0) <= 1.5
                and "error:domain:theorem-1 grid needs sigma in (1, 3/2]" in line):
            return Problem(what, "sigma-endpoint-past-1.5")
        return Problem(what)

    # -- trace ---------------------------------------------------------------

    def _sum(self, cmd, data):
        rows = _rows(data)
        xs = [int(r["x"]) for r in rows]
        got = [complex(float(r["re_S"]), float(r["im_S"])) for r in rows]
        probs = []
        if xs[-1] != cmd.meta["limit"]:
            probs.append(Problem(f"last checkpoint {xs[-1]} != limit {cmd.meta['limit']}"))
        same = cmd.meta.get("same_rows_as")
        if same is not None:
            if rows != self._first.get(same):
                probs.append(Problem(f"checkpoint rows differ from {same} (segment size changed them)"))
            return probs
        self._first[cmd.id] = rows
        spec = cmd.meta["spec"]
        exact = spec in ("moebius", "liouville")
        blocks = self.ref_blocks if spec == "extremal-ref" else None

        def compare(label, want_at):
            for x, g, w in zip(xs, got, want_at):
                ok = g == w if exact else abs(g - w) <= 1e-12 * x + 1e-9
                if not ok:
                    probs.append(Problem(f"S({x}) = {g} but {label} gives {w}"))
                    return

        values = oracles.function_values(spec, cmd.meta["limit"], blocks)
        if spec == "moebius":
            published = {x: m for x, m in oracles.MERTENS.items() if x <= cmd.meta["limit"]}
            for (x, m), v in zip(published.items(), oracles.prefix_sums(values, list(published))):
                if v != m:
                    raise AssertionError(f"oracle sieve gives M({x}) = {v}, published {m}")
            for x, g in zip(xs, got):
                if x in oracles.MERTENS and g != oracles.MERTENS[x]:
                    probs.append(Problem(f"M({x}) = {g}, published {oracles.MERTENS[x]}"))
        compare("the oracle sieve", oracles.prefix_sums(values, xs))
        small = [x for x in xs if x <= TRIAL_DIVISION_TOP]
        if small:
            if self._facts is None:
                self._facts = oracles.trial_factorizations(TRIAL_DIVISION_TOP)
            compare("trial division", oracles.trial_division_sums(spec, small, self._facts, blocks))
        return probs

    # -- near-line -----------------------------------------------------------

    def _truth_F(self, spec: str, s):
        if spec == "extremal-ref":
            return oracles.extremal_F_truncated(self.ref_blocks, s, self.primes(wl.PRIME_CUTOFF))
        return oracles.closed_form_F(spec, s)

    def _eval_f(self, cmd, data):
        spec, method = cmd.meta["spec"], cmd.meta["method"]
        # truncated and prime-sum have no direction: their err must always bound
        state = cmd.meta["alignment"] if method == "euler" else "aligned"
        probs = []
        for r in _rows(data):
            sg, t, err = float(r["sigma"]), float(r["t"]), float(r["err"])
            val = complex(float(r["re"]), float(r["im"]))
            bad = _unusable(sg, err, val.real, val.imag)
            if bad:
                probs.append(bad)
                continue
            truth = self._truth_F(spec, mp.mpc(sg, t))
            if method == "prime-sum":
                dist = oracles.log_distance_mod_2pi(val, truth)
                sample = math.log10(err)
            else:
                dist = float(abs(mp.mpc(val.real, val.imag) - truth))
                sample = math.log10(err / abs(val))
            if not dist <= err:
                probs.append(_row_problem(
                    f"sigma={sg!r}: error {dist:.3g} exceeds err {err:.3g} "
                    f"({dist / err:.3g}x, {dist / float(abs(truth)):.3g} of |truth|)",
                    state, dist, float(abs(truth))))
            elif state == "aligned":
                self.bound_log10.append(sample)
        return probs

    def _thm1(self, cmd, data):
        spec, eps, state = cmd.meta["spec"], cmd.meta["epsilon"], cmd.meta["alignment"]
        if state == "conditional":
            self.notes.append(
                f"{cmd.id}: rows audited against F with theta_p cut to 0 beyond the "
                f"prime cutoff, the euler route's stated assumption; the residual "
                f"1 - e^(i theta_p) does not vanish there, so err is conditional (ROADMAP item 1)")
        probs = []
        for r in _rows(data):
            sg, aF, err = float(r["sigma"]), float(r["abs_F"]), float(r["err_F"])
            bad = _unusable(sg, err, aF)
            if bad:
                probs.append(bad)
                continue
            truth = abs(complex(self._truth_F(spec, mp.mpf(sg))))
            if not abs(aF - truth) <= err:
                probs.append(_row_problem(
                    f"sigma={sg!r}: | |F| - truth | = {abs(aF - truth):.3g} exceeds err {err:.3g}",
                    state, abs(aF - truth), truth))
            elif state == "aligned":
                self.bound_log10.append(math.log10(err / aF))
            ratio = float(r["ratio"])
            if aF > err:
                want = aF / (sg - 1.0) if eps == 1 else 1.0 / (aF * (sg - 1.0))
                if not _close(ratio, want, 1e-12):
                    probs.append(Problem(f"sigma={sg!r}: ratio {ratio!r} != {want!r}"))
            elif not math.isnan(ratio):
                probs.append(Problem(f"sigma={sg!r}: ratio should be nan when |F| <= err"))
        return probs

    def _lemma(self, cmd, data):
        if cmd.meta["alignment"] != "aligned":
            raise ValueError("the lemma oracle covers aligned directions only")
        probs = []
        for r in _rows(data):
            sg, aD, err = float(r["sigma"]), float(r["abs_D"]), float(r["err"])
            bad = _unusable(sg, err, aD)
            if bad:
                probs.append(bad)
                continue
            truth = float(abs(oracles.lemma_D(mp.mpf(sg))))
            if not abs(aD - truth) <= err:
                probs.append(Problem(f"sigma={sg!r}: | |D| - truth | = {abs(aD - truth):.3g} exceeds err {err:.3g}"))
            else:
                self.bound_log10.append(math.log10(err / aD))
            want = aD / math.sqrt(max(math.log(1.0 / (sg - 1.0)), 1.0))
            if not _close(float(r["ratio"]), want, 1e-12):
                probs.append(Problem(f"sigma={sg!r}: ratio {r['ratio']} != {want!r}"))
        return probs

    # -- prime-scan ----------------------------------------------------------

    def _criterion(self, cmd, data):
        text = data.decode()
        spec, t = cmd.meta["spec"], cmd.meta["t"]
        P = wl.SCAN_CUTOFF
        ps = self.primes(P)
        if spec == "extremal-ref":
            blocks, tw = self.ref_blocks, 0.0
            re_fp = -np.cos(oracles.theta_from_blocks(blocks, ps) - t * np.log(ps.astype(np.float64)))
        else:
            blocks, tw = None, float(spec.split(":")[1])
            re_fp = -np.cos((tw + t) * np.log(ps.astype(np.float64)))
        cut_got = [(int(c), float(v)) for c, v in re.findall(r"^  P=(\d+): (\S+)$", text, re.M)]
        cutoffs = [c for c, _ in cut_got]
        want = oracles.criterion_partials(re_fp, ps, cutoffs)
        probs = [Problem(f"partial sum at P={c}: {g!r}, oracle {w!r}")
                 for (c, g), w in zip(cut_got, want) if not _close(g, w)]
        expect_cuts = [10**k for k in range(1, 20) if 10**k < P] + [P]
        if cutoffs != expect_cuts:
            probs.append(Problem(f"cutoffs {cutoffs}, expected {expect_cuts}"))
        fail_k = next((k for k in range(1, 21) if abs(
            oracles.prime_power(spec, 2, k, tw, blocks)
            + np.exp(1j * k * t * math.log(2.0))) > 1e-9), None)
        verdict = oracles.criterion_verdict(want, cutoffs, fail_k is None)
        got = re.search(r"^verdict: (.*)$", text, re.M).group(1)
        if verdict is not None and got != verdict:
            probs.append(Problem(f"verdict {got!r}, oracle {verdict!r}"))
        side = "pass" if fail_k is None else f"fails at k={fail_k}"
        if f"2-adic side f(2^k) = -2^(ikt): {side}" not in text:
            probs.append(Problem(f"2-adic line does not say {side!r}"))
        return probs

    def _extremal_build(self, cmd, data):
        doc = json.loads(data)
        want = oracles.extremal_blocks(cmd.meta["kappa"])
        probs = []
        if doc["kappa_desc"] != cmd.meta["kappa"]:
            probs.append(Problem(f"kappa_desc {doc['kappa_desc']!r}"))
        for j, (g, w) in enumerate(zip(doc["blocks"], want), start=1):
            for key in ("log_x", "log_upper", "a"):
                if not _close(g[key], w[key], 1e-12):
                    probs.append(Problem(f"block {j} {key} = {g[key]!r}, oracle {w[key]!r}"))
        if len(doc["blocks"]) != len(want):
            probs.append(Problem(f"{len(doc['blocks'])} blocks, expected {len(want)}"))
        return probs

    def _extremal_verify(self, cmd, data):
        text = data.decode()
        blocks = oracles.extremal_blocks(cmd.meta["kappa"])
        P = cmd.meta["cutoff"]
        ps = self.primes(P)
        psf = ps.astype(np.float64)
        lp = np.log(psf)
        th = oracles.theta_from_blocks(blocks, ps)
        probs = []

        def field(label):
            return float(re.search(rf"^{re.escape(label)}: (\S+)", text, re.M).group(1))

        obs = float(np.cumsum(th * th / psf)[-1])
        if not _close(field("observed sum theta_p^2/p"), obs):
            probs.append(Problem(f"observed sum {field('observed sum theta_p^2/p')!r}, oracle {obs!r}"))
        majorant = 0.0
        for b in blocks:
            if b["log_x"] <= math.log(P):
                upto = math.exp(min(b["log_upper"], math.log(P)))
                majorant += b["a"] ** 2 * float(np.sum(1.0 / psf[psf <= upto])) / math.log(b["log_x"])
        if not _close(field("per-block Mertens majorant"), majorant):
            probs.append(Problem(f"majorant {field('per-block Mertens majorant')!r}, oracle {majorant!r}"))
        windows = [b for b in blocks if b["log_upper"] <= math.log(P)]
        for j, b in enumerate(windows, start=1):
            sigma = 1.0 + 1.0 / b["log_x"] ** 2
            sel = (lp >= b["log_x"]) & (lp < b["log_upper"]) & (np.sin(lp) <= -0.5)
            thj = b["a"] / np.sqrt(np.log(lp[sel]))
            pw = np.exp(-sigma * lp[sel])
            W, half = float(np.sum(thj * -np.sin(lp[sel]) * pw)), 0.5 * float(np.sum(thj * pw))
            line = (f"selected primes: {int(sel.sum())} in "
                    f"[{int(ps[sel][0])}, {int(ps[sel][-1])}]")
            if line not in text:
                probs.append(Problem(f"block {j}: expected {line!r}"))
            got_w = re.findall(r"^window sum W_j: (\S+)", text, re.M)
            if j > len(got_w) or not _close(float(got_w[j - 1]), W):
                probs.append(Problem(f"block {j}: window sum differs from oracle {W!r}"))
            if W < half:
                probs.append(Problem(f"oracle: block {j} window sum below half theta sum"))
        verdicts = re.findall(r"^verdict: (\S+)$", text, re.M)
        if verdicts != ["PASS"] * (1 + len(windows)):
            probs.append(Problem(f"verdicts {verdicts}, expected {1 + len(windows)} PASS"))
        return probs

    def bound_log10_median(self) -> float | None:
        return statistics.median(self.bound_log10) if self.bound_log10 else None

    def bound_problem(self) -> Problem | None:
        """A problem when the audited rows' err got looser than the ceiling."""
        bl = self.bound_log10_median()
        if bl is None or bl <= BOUND_LOG10_CEILING:
            return None
        return Problem(f"bound_log10_median {bl:.4g} above the ceiling {BOUND_LOG10_CEILING}")
