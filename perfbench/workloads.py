"""Benchmark workloads (CLI argument lists made from a seed) and the
known-answer checker for their outputs."""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "known_answers.json")) as _fh:
    KNOWN = json.load(_fh)

# The full 32^3 table with 8 states takes about 60-69 s per call, longer than
# a benchmark run may last. One state keeps the grid, spin and sector axes and
# the per-generator cached actions at about 8 s a pass, so every run holds
# about three passes to take the median of (2 states: 15 s, often one pass).
GRID3D_STATES = 1
# Coefficients for the polynomial closure candidate Lam*omega + c*Pk.
CLOSURE_COEFFS = ("1", "2", "3", "1/2", "3/2", "-1", "-1/2", "-3/2")


@dataclass
class Command:
    key: str                  # entry in known_answers.json
    argv: list
    axis: int = 1             # closure candidates: the momentum axis used
    suffix: str = ".json"

    def artifacts(self, out):
        if self.suffix == ".csv":
            return [out, os.path.splitext(out)[0] + ".json"]
        return [out]


def _symbolic(seed):
    fixed = [("verify_poincare", ["poincare"]), ("verify_spinless", ["spinless"]),
             ("verify_bargmann", ["bargmann"]), ("verify_lemmas", ["lemmas"]),
             ("verify_casimirs", ["casimirs"]), ("verify_pl", ["pl"]),
             ("verify_boost", ["boost"]), ("verify_emrelation", ["emrelation"]),
             ("verify_emrelation_scaled", ["emrelation", "--mass-factor", "2"])]
    return [Command(key, ["verify", *args, "--seed", str(seed)])
            for key, args in fixed]


def closure_candidates(seed):
    """(polynomial, axis), (denominator, axis) drawn from the seed."""
    rng = random.Random(seed)
    k = rng.choice((1, 2, 3))
    c = rng.choice(CLOSURE_COEFFS)
    sign, mag = ("-", c[1:]) if c.startswith("-") else ("+", c)
    poly = f"Lam*omega {sign} {mag}*P{k}"
    kd = rng.choice((1, 2, 3))
    return (poly, k), (f"Lam*omega + m^2/(P{kd}+m)", kd)


def _closure_failure(seed):
    (poly, k), (den, kd) = closure_candidates(seed)
    return [Command("closure_polynomial", ["verify", "emrelation", "--h", poly], k),
            Command("closure_denominator", ["verify", "emrelation", "--h", den], kd)]


def _grid3d(seed):
    common = ["--nstates", str(GRID3D_STATES), "--seed", str(seed)]
    return [Command("numeric_residuals", ["numeric", "residuals", *common]),
            Command("numeric_casimir", ["numeric", "casimir", *common])]


def _grid1d_fock(seed):
    fock = ["--sites", "10", "--nmax", "4", "--seed", str(seed)]
    return [Command("localize", ["localize", "--seed", str(seed)], suffix=".csv"),
            Command("causality", ["causality", "--trp", "1", "--seed", str(seed)]),
            Command("causality", ["causality", "--trp", "0.5", "--seed", str(seed)]),
            Command("fock_duality", ["fock", "duality", *fock]),
            Command("fock_spectrum", ["fock", "spectrum", *fock]),
            Command("fock_expectation", ["fock", "expectation", *fock])]


WORKLOADS = {
    "symbolic": _symbolic,
    "closure_failure": _closure_failure,
    "grid3d": _grid3d,
    "grid1d_fock": _grid1d_fock,
}


def commands(workload, seed):
    return WORKLOADS[workload](seed % 2**31)


# -- known answers ----------------------------------------------------------------


def relabel(text, axis):
    """Swap the axis digits 1 and ``axis`` in an entry id."""
    swap = {"1": str(axis), str(axis): "1"}
    return re.sub(r"[123]", lambda m: swap.get(m.group(0), m.group(0)), text)


def expected_failing(expect, axis):
    if expect.get("failing") != "closure":
        return set()
    return {relabel(i, axis) for i in KNOWN["closure_failing_axis1"]}


@dataclass
class CheckTally:
    attempted: int = 0
    misses: list = field(default_factory=list)

    def check(self, label, ok):
        self.attempted += 1
        if not ok:
            self.misses.append(label)

    @property
    def failed(self):
        return len(self.misses)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def check_command(tally, cmd, rc, out):
    """Compare one command's exit status and artifact with its known answer."""
    expect = KNOWN["commands"][cmd.key]
    name = " ".join(cmd.argv)
    tally.check(f"{name}: exit {rc} (want {expect['exit']})", rc == expect["exit"])
    if cmd.key == "localize":
        summary = _load_json(cmd.artifacts(out)[1]) or {}
        prob = summary.get("outside_cone_probability")
        slope = summary.get("fitted_slope")
        lo, hi = expect["fitted_slope_range"]
        tally.check(f"{name}: outside_cone_probability {prob}",
                    isinstance(prob, float)
                    and prob > expect["outside_cone_probability_above"])
        tally.check(f"{name}: fitted_slope {slope}",
                    isinstance(slope, float) and lo <= slope <= hi)
        return
    report = _load_json(out)
    if not isinstance(report, dict) or not isinstance(report.get("entries"), list):
        tally.check(f"{name}: report missing or unreadable", False)
        return
    entries = report["entries"]
    tally.check(f"{name}: {len(entries)} entries (want {expect['entries']})",
                len(entries) == expect["entries"])
    failing = expected_failing(expect, cmd.axis)
    bound = expect.get("max_residual")
    seen = set()
    for e in entries:
        seen.add(e.get("id"))
        if not e.get("asserted", True):
            continue
        ok = e.get("pass") is (e.get("id") not in failing)
        if bound is not None:
            norm = e.get("residual_norm")
            ok = ok and isinstance(norm, (int, float)) and norm <= bound
        tally.check(f"{name}: {e.get('id')}", ok)
    for missing in sorted(failing - seen):
        tally.check(f"{name}: expected failing entry {missing} absent", False)


def worst_residual(cmd, out):
    """Largest residual_norm in a ``numeric`` report, or None."""
    if not cmd.key.startswith("numeric_"):
        return None
    report = _load_json(out) or {}
    norms = [e["residual_norm"] for e in report.get("entries", [])
             if isinstance(e.get("residual_norm"), (int, float))]
    return max(norms) if norms else None
