"""Grid twins of the declared symbolic identities.

The table, lemma and Pauli-Lubanski identities declared in ``generators``
are checked here by composing the separately realized generator maps on a
batch of band-limited sample states (commutators as differences of
compositions), so the numeric route never consumes a symbolically
simplified residual: a relation that the symbolic engine proves equal to
zero is re-derived here from floating-point operator algebra.

The three suites of ``numeric residuals`` run together over one batch
(``numeric_residual_reports``; the single-suite reports are the same
evaluation on one suite). Words are read as *chains*, tuples of map names
applied right to left: ``("A", "B")`` is A(B psi), ``[A,B]`` reads
``("A", "B")`` and ``("B", "A")``, and ``A*B*C`` reads ``("A", "B", "C")``,
which reads ``("B", "C")`` once, when it is computed. Before any map is
applied, ``_ChainCache`` counts every read of every chain and every
application of every map, so each chain is computed once and dropped at
its last read, and each map is realized once and dropped after its last
application. The identities run in an order that keeps few chains live
(``[B,A]`` right after ``[A,B]``), and their residuals are reported in
declaration order. A chain is computed by the same arithmetic whatever the
order, so the residuals do not depend on it.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice

import numpy as np

from .generators import (AXES, LEMMAS, PAULI_LUBANSKI, TABLES, GeneratorSet,
                         parse_word)
from .grid import GridConfigError, GridRep, gaussian_states, realize
from .report import VerificationReport

DEFAULT_TOL = 1e-6


def _word_chains(word):
    """(kind, chains) of a declared word; the chain () is the batch itself."""
    kind, names = parse_word(word)
    if kind == "1":
        return kind, ((),)
    if kind == "[]":
        a, b = names
        return kind, ((a, b), (b, a))
    if kind == "d/dt":
        (a,) = names
        return kind, ((f"d/dt {a}",), (a, "H"), ("H", a))
    return kind, (names,)


def _norms(arr):
    return np.sqrt(np.sum(np.abs(arr) ** 2, axis=tuple(range(1, arr.ndim))))


class _ChainCache:
    """Chains and realized maps on one state batch, read-counted over the
    ``words`` that will be read: each is kept only until its last use."""

    def __init__(self, gens: GeneratorSet, grid: GridRep, batch, words):
        self.gens = gens
        self.grid = grid
        self.batch = batch
        self.in_norms = _norms(batch)
        self.reads = Counter()     # chain -> reads left
        self.applies = Counter()   # map name -> applications left
        for word in words:
            for key in _word_chains(word)[1]:
                self._plan(key)
        self.maps = {}
        self.chains = {}

    def _plan(self, key):
        if not key:
            return
        if key not in self.reads:   # the first read computes the chain
            self.applies[key[0]] += 1
            self._plan(key[1:])
        self.reads[key] += 1

    def map(self, name):
        if name not in self.maps:
            expr = (self.gens[name[5:]].d_dt() if name.startswith("d/dt ")
                    else self.gens[name])
            self.maps[name] = realize(expr, self.grid)
        left = self.applies.pop(name) - 1   # KeyError: an unplanned apply
        if left:
            self.applies[name] = left
            return self.maps[name]
        return self.maps.pop(name)

    def chain(self, key):
        """The maps of ``key`` applied right to left to the batch."""
        if not key:
            return self.batch
        value = self.chains.pop(key, None)
        if value is None:
            value = self.map(key[0]).apply(self.chain(key[1:]))
        left = self.reads.pop(key) - 1      # KeyError: an unplanned read
        if left:
            self.reads[key] = left
            self.chains[key] = value
        return value

    def word(self, word):
        """A declared word applied to the batch."""
        kind, keys = _word_chains(word)
        values = [self.chain(key) for key in keys]
        if kind == "[]":
            return values[0] - values[1]
        if kind == "d/dt":
            explicit, ah, ha = values
            return explicit + (ah - ha) / (1j * self.grid.hbar)
        return values[0]

    def residual(self, arr):
        return float(np.max(_norms(arr) / self.in_norms))


def _make_batch(grid, nstates, seed, sector=None):
    return np.stack(gaussian_states(grid, nstates=nstates, seed=seed,
                                    sector=sector), axis=0)


def _schedule(needs):
    """Evaluation order for tasks that read the chain sets ``needs``: next is
    the task that computes the fewest new chains net of the live chains it
    reads last, ties in declaration order."""
    pending = Counter(key for need in needs for key in need)
    seen = set()
    left = list(range(len(needs)))
    order = []
    while left:
        n = min(left, key=lambda n: len(needs[n] - seen)
                - sum(pending[key] == 1 for key in needs[n] & seen))
        left.remove(n)
        order.append(n)
        seen |= needs[n]
        pending.subtract(needs[n])
    return order


def _grid_reports(suites, gens, grid, nstates, seed, tol):
    """One report per ``(suite, identities)``: max ||(lhs - expected) psi||
    / ||psi|| over one shared batch for every declared identity with a grid
    twin, in declaration order."""
    twins = []
    for suite, identities in suites:
        found = [ident for ident in identities if not ident.symbolic_only]
        if not found:
            raise GridConfigError(f"{suite}: no declared identity has a grid twin")
        twins.append(found)
    idents = [ident for found in twins for ident in found]
    words = [[word for _, _, word in ident.lhs + ident.expected]
             for ident in idents]
    batch = _make_batch(grid, nstates, seed)
    cache = _ChainCache(gens, grid, batch, [w for ws in words for w in ws])
    needs = [{key[i:] for w in ws for key in _word_chains(w)[1]
              for i in range(len(key))} for ws in words]
    ih = 1j * grid.hbar
    residuals = [None] * len(idents)
    for n in _schedule(needs):
        acc = 0
        for sign, terms in ((1, idents[n].lhs), (-1, idents[n].expected)):
            for c, k, word in terms:
                acc = acc + sign * c * ih**k * cache.word(word)
        residuals[n] = cache.residual(acc)
    rows = zip(idents, residuals)
    reports = []
    for (suite, _), found in zip(suites, twins):
        report = VerificationReport(suite)
        for ident, r in islice(rows, len(found)):
            report.add(id=ident.id, lhs=f"grid {ident.lhs_text}",
                       expected=ident.expected_text or "symbolic table value",
                       residual=f"{r:.3e}", passed=r <= tol, residual_norm=r)
        reports.append(report)
    return reports


def numeric_residual_reports(gens: GeneratorSet, grid: GridRep, nstates=8,
                             seed=0, tol=DEFAULT_TOL) -> list:
    """Poincare table, lemma and Pauli-Lubanski grid reports, evaluated
    together over one batch."""
    return _grid_reports([("numeric_poincare", TABLES["poincare"]),
                          ("numeric_lemmas", LEMMAS),
                          ("numeric_pauli_lubanski", PAULI_LUBANSKI)],
                         gens, grid, nstates, seed, tol)


def numeric_table_report(gens: GeneratorSet, grid: GridRep, which="poincare",
                         nstates=8, seed=0, tol=DEFAULT_TOL) -> VerificationReport:
    """Grid residuals for all 100 ordered table commutators."""
    return _grid_reports([(f"numeric_{which}", TABLES[which])], gens, grid,
                         nstates, seed, tol)[0]


def numeric_lemma_report(gens: GeneratorSet, grid: GridRep, nstates=8, seed=0,
                         tol=DEFAULT_TOL) -> VerificationReport:
    """Grid residuals for the conservation/covariance conclusions."""
    return _grid_reports([("numeric_lemmas", LEMMAS)], gens, grid, nstates,
                         seed, tol)[0]


def numeric_pl_report(gens: GeneratorSet, grid: GridRep, nstates=8, seed=0,
                      tol=DEFAULT_TOL) -> VerificationReport:
    """Grid residuals for W.P orthogonality and W0 = S.P."""
    return _grid_reports([("numeric_pauli_lubanski", PAULI_LUBANSKI)], gens,
                         grid, nstates, seed, tol)[0]


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
        squares = [f"W{i}*W{i}" for i in (0, *AXES)]
        cache = _ChainCache(gens, grid, batch, squares)
        acc = cache.word(squares[0])
        for word in squares[1:]:
            acc = acc - cache.word(word)
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
