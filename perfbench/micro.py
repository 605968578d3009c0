"""Per-layer microbenchmarks, run in their own fresh interpreter.

Coefficient field and operator layer: every product, inverse and derivative
of the coefficients of the ten Poincare generators, and the 100 ordered
generator commutators, timed right after the generator set is built, as in
a fresh CLI process. Grid: one ``apply`` of the realized S1 (spin mixing),
H (diagonal) and K1 (Q-monomials through the FFT) on the 8 x 32^3 x 2 x 2
batch, the two transforms on that batch, and one 1D Newton-Wigner
projector application.
"""

import statistics
import time
from fractions import Fraction

import numpy as np

from qpskit import (GridRep, commutator, foldy_generators, gaussian_states,
                    nw_projector, realize)

POINCARE = ("H", "P1", "P2", "P3", "J1", "J2", "J3", "K1", "K2", "K3")
REPEATS = 3


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _median_ms(fn, arg, repeats=REPEATS):
    """Median wall time of ``fn(arg)`` in ms."""
    return statistics.median(_timed(fn, arg)[0] for _ in range(repeats)) * 1e3


def _coefficients(gens):
    coeffs = {n: list(gens[n].terms.values()) for n in POINCARE}
    mul = [_timed(lambda x, y: x * y, x, y)[0]
           for a in POINCARE for b in POINCARE
           for x in coeffs[a] for y in coeffs[b]]
    distinct = list(dict.fromkeys(c for n in POINCARE for c in coeffs[n]))
    inv = [_timed(c.inv)[0] for c in distinct]
    diff = [_timed(c.diff, axis)[0] for c in distinct for axis in (1, 2, 3)]
    return {"coeffs.mul_us": sum(mul) / len(mul) * 1e6,
            "coeffs.inv_us": sum(inv) / len(inv) * 1e6,
            "coeffs.diff_us": sum(diff) / len(diff) * 1e6}


def _commutators(gens):
    times, terms = [], 0
    for a in POINCARE:
        for b in POINCARE:
            dt, r = _timed(commutator, gens[a], gens[b])
            times.append(dt * 1e3)
            terms += len(r.terms)
    p = statistics.quantiles(times, n=10, method="inclusive")
    return {"expr.commutator_ms_p50": statistics.median(times),
            "expr.commutator_ms_p90": p[8],
            "expr.result_terms": terms}


def _grid(gens, seed):
    grid = GridRep(d=3, npts=32, pmax=2.0, m=1.0, s=Fraction(1, 2), tval=0.3,
                   hbar=1.0)
    batch = np.stack(gaussian_states(grid, nstates=8, seed=seed), axis=0)
    out = {"grid.batch_bytes": batch.nbytes}
    for name, metric in (("S1", "grid.spin_mix_ms"), ("H", "grid.diag_apply_ms"),
                         ("K1", "grid.q_apply_ms")):
        out[metric] = _median_ms(realize(gens[name], grid).apply, batch)
    out["grid.to_position_ms"] = _median_ms(grid.to_position, batch)
    out["grid.to_momentum_ms"] = _median_ms(grid.to_momentum, batch)
    line = GridRep(d=1, npts=2048, pmax=30.0, m=1.0, s=0)
    state = gaussian_states(line, nstates=1, seed=seed)[0]
    proj = nw_projector(line, (-2.0, -1.0), 1.0)
    out["localization.projector_apply_ms"] = _median_ms(proj.apply, state, 21)
    return out


def run(seed):
    gens = foldy_generators()
    out = _coefficients(gens)
    out.update(_commutators(gens))
    out.update(_grid(gens, seed % 2**31))
    return out
