"""Grid twins of the declared symbolic identities.

The table, lemma and Pauli-Lubanski identities declared in ``generators``
are checked here by composing the separately realized generator maps on a
batch of band-limited sample states (commutators as differences of
compositions), so the numeric route never consumes a symbolically
simplified residual: a relation that the symbolic engine proves equal to
zero is re-derived here from floating-point operator algebra.
"""

from __future__ import annotations

import numpy as np

from .generators import (AXES, LEMMAS, PAULI_LUBANSKI, TABLES, GeneratorSet,
                         parse_word)
from .grid import GridConfigError, GridRep, gaussian_states, realize
from .report import VerificationReport

DEFAULT_TOL = 1e-6


class _MapCache:
    """Realized generator maps plus their action on the state batch."""

    def __init__(self, gens: GeneratorSet, grid: GridRep, batch):
        self.gens = gens
        self.grid = grid
        self.batch = batch
        self.maps = {}
        self.applied = {}
        self.in_norms = self._norms(batch)

    def _norms(self, arr):
        axes = tuple(range(1, arr.ndim))
        return np.sqrt(np.sum(np.abs(arr) ** 2, axis=axes))

    def map(self, name):
        if name not in self.maps:
            self.maps[name] = realize(self.gens[name], self.grid)
        return self.maps[name]

    def on_batch(self, name):
        if name not in self.applied:
            self.applied[name] = self.map(name).apply(self.batch)
        return self.applied[name]

    def residual(self, arr):
        return float(np.max(self._norms(arr) / self.in_norms))

    def comm_batch(self, a, b):
        """[A, B] applied to the batch via cached single applications."""
        return self.map(a).apply(self.on_batch(b)) - self.map(b).apply(self.on_batch(a))

    def word(self, word):
        """A declared word applied to the batch."""
        kind, names = parse_word(word)
        if kind == "1":
            return self.batch
        if kind == "[]":
            return self.comm_batch(*names)
        if kind == "d/dt":
            explicit = realize(self.gens[names[0]].d_dt(), self.grid).apply(self.batch)
            return explicit + self.comm_batch(names[0], "H") / (1j * self.grid.hbar)
        out = self.on_batch(names[-1])
        for name in reversed(names[:-1]):
            out = self.map(name).apply(out)
        return out


def _make_batch(grid, nstates, seed, sector=None):
    return np.stack(gaussian_states(grid, nstates=nstates, seed=seed,
                                    sector=sector), axis=0)


def _grid_report(suite, identities, gens, grid, nstates, seed, tol):
    """max ||(lhs - expected) psi|| / ||psi|| over the batch for every
    declared identity with a grid twin, in declaration order."""
    twins = [ident for ident in identities if not ident.symbolic_only]
    if not twins:
        raise GridConfigError(f"{suite}: no declared identity has a grid twin")
    report = VerificationReport(suite)
    cache = _MapCache(gens, grid, _make_batch(grid, nstates, seed))
    ih = 1j * grid.hbar
    for ident in twins:
        acc = 0
        for sign, terms in ((1, ident.lhs), (-1, ident.expected)):
            for c, k, word in terms:
                acc = acc + sign * c * ih**k * cache.word(word)
        r = cache.residual(acc)
        report.add(id=ident.id, lhs=f"grid {ident.lhs_text}",
                   expected=ident.expected_text or "symbolic table value",
                   residual=f"{r:.3e}", passed=r <= tol, residual_norm=r)
    return report


def numeric_table_report(gens: GeneratorSet, grid: GridRep, which="poincare",
                         nstates=8, seed=0, tol=DEFAULT_TOL) -> VerificationReport:
    """Grid residuals for all 100 ordered table commutators."""
    return _grid_report(f"numeric_{which}", TABLES[which], gens, grid,
                        nstates, seed, tol)


def numeric_lemma_report(gens: GeneratorSet, grid: GridRep, nstates=8, seed=0,
                         tol=DEFAULT_TOL) -> VerificationReport:
    """Grid residuals for the conservation/covariance conclusions."""
    return _grid_report("numeric_lemmas", LEMMAS, gens, grid, nstates, seed, tol)


def numeric_pl_report(gens: GeneratorSet, grid: GridRep, nstates=8, seed=0,
                      tol=DEFAULT_TOL) -> VerificationReport:
    """Grid residuals for W.P orthogonality and W0 = S.P."""
    return _grid_report("numeric_pauli_lubanski", PAULI_LUBANSKI, gens, grid,
                        nstates, seed, tol)


def numeric_casimir_report(gens: GeneratorSet, grid: GridRep, nstates=8,
                           seed=0, tol=DEFAULT_TOL) -> VerificationReport:
    """Spectrum of W0^2 - W.W on per-sector band-limited states.

    The squared Pauli-Lubanski vector must act as -hbar^2 m^2 s(s+1) on each
    frequency sector, both as a quadratic form and in residual norm.
    """
    report = VerificationReport("numeric_casimir")
    s = float(grid.s)
    target = -grid.hbar**2 * grid.m**2 * s * (s + 1.0)
    scale = abs(target) if target else 1.0
    for sector, tag in ((1, "positive"), (-1, "negative")):
        batch = _make_batch(grid, nstates, seed, sector=sector)
        cache = _MapCache(gens, grid, batch)
        w0w0 = cache.map("W0").apply(cache.on_batch("W0"))
        acc = w0w0
        for i in AXES:
            acc = acc - cache.map(f"W{i}").apply(cache.on_batch(f"W{i}"))
        resid = acc - target * batch
        r = cache.residual(resid) / scale
        report.add(id=f"spectrum[{tag}]", lhs="(W0^2 - W.W) psi",
                   expected=f"{target:.6g} * psi", residual=f"{r:.3e}",
                   passed=r <= tol, residual_norm=r)
        axes = tuple(range(1, batch.ndim))
        forms = np.sum(np.conj(batch) * acc, axis=axes).real \
            / np.sum(np.abs(batch) ** 2, axis=axes)
        worst = float(np.max(np.abs(forms - target))) / scale
        report.add(id=f"quadratic_form[{tag}]", lhs="<psi,(W0^2-W.W)psi>/|psi|^2",
                   expected=f"{target:.6g}", residual=f"{worst:.3e}",
                   passed=worst <= tol, residual_norm=worst)
    return report


def convergence_report(make_report, grid_small: GridRep, grid_big: GridRep,
                       min_ratio=4.0, floor=1e-11) -> VerificationReport:
    """Spectral-convergence assertion between two grids.

    Each entry passes when the residual shrinks by at least ``min_ratio``
    going to the finer grid, or when the finer-grid residual already sits at
    roundoff (relations realized exactly on the grid have no error to shrink).
    An id absent from one grid, or without a residual_norm there, fails.
    """
    small = make_report(grid_small)
    big = make_report(grid_big)
    report = VerificationReport(f"convergence_{big.suite}")
    lhs = f"residual({grid_small.npts})/residual({grid_big.npts})"
    expected = f">= {min_ratio} (or fine grid at roundoff)"
    grids = [(grid_small, {e.id: e.residual_norm for e in small.entries}),
             (grid_big, {e.id: e.residual_norm for e in big.entries})]
    for check_id in dict.fromkeys([e.id for e in big.entries + small.entries]):
        gaps = [("absent" if check_id not in norms else "no residual_norm")
                + f" on the {grid.npts}-point grid"
                for grid, norms in grids if norms.get(check_id) is None]
        if gaps:
            report.add(id=check_id, lhs=lhs, expected=expected,
                       residual="; ".join(gaps), passed=False)
            continue
        rs, rb = grids[0][1][check_id], grids[1][1][check_id]
        ok = rb <= floor or (rb > 0 and rs / rb >= min_ratio)
        ratio = rs / rb if rb > 0 else float("inf")
        report.add(id=check_id, lhs=lhs, expected=expected,
                   residual=f"{rs:.3e} -> {rb:.3e} (ratio {ratio:.1f})",
                   passed=ok, residual_norm=rb)
    return report
