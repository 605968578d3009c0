"""Grid twins: the shared read-counted evaluator against direct composition,
its work and memory, and the convergence plumbing (which needs no grid)."""

import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import qpskit.numcheck as numcheck
from qpskit.generators import LEMMAS, PAULI_LUBANSKI, TABLES, parse_word
from qpskit.grid import GridRep, LinearMap, gaussian_states, realize
from qpskit.numcheck import (convergence_report, numeric_lemma_report,
                             numeric_pl_report, numeric_residual_reports,
                             numeric_table_report)
from qpskit.report import VerificationReport

SUITES = (TABLES["poincare"], LEMMAS, PAULI_LUBANSKI)


def _grid(npts):
    return GridRep(d=3, npts=npts, pmax=2.0, m=1.0, s=Fraction(1, 2), tval=0.3)


def _twins(identities):
    return [ident for ident in identities if not ident.symbolic_only]


def _words(identities):
    return [word for ident in _twins(identities)
            for _, _, word in ident.lhs + ident.expected]


def _chains(word):
    """Name tuples, applied right to left, that a word composes."""
    kind, names = parse_word(word)
    if kind == "1":
        return []
    if kind == "[]":
        return [names, names[::-1]]
    if kind == "d/dt":
        return [(f"d/dt {names[0]}",), (names[0], "H"), ("H", names[0])]
    return [names]


def _direct_residuals(gens, grid, identities):
    """Every twin's residual from a fresh ``realize(...).apply`` per factor,
    with nothing shared between words or identities."""
    batch = np.stack(gaussian_states(grid, nstates=1, seed=0), axis=0)

    def norms(arr):
        return np.sqrt(np.sum(np.abs(arr) ** 2, axis=tuple(range(1, arr.ndim))))

    def compose(names):
        out = batch
        for name in reversed(names):
            expr = gens[name[5:]].d_dt() if name.startswith("d/dt ") else gens[name]
            out = realize(expr, grid).apply(out)
        return out

    def word_value(word):
        kind = parse_word(word)[0]
        values = [compose(names) for names in _chains(word)]
        if kind == "1":
            return batch
        if kind == "[]":
            return values[0] - values[1]
        if kind == "d/dt":
            return values[0] + (values[1] - values[2]) / (1j * grid.hbar)
        return values[0]

    ih = 1j * grid.hbar
    out = []
    for ident in _twins(identities):
        acc = 0
        for sign, terms in ((1, ident.lhs), (-1, ident.expected)):
            for c, k, word in terms:
                acc = acc + sign * c * ih**k * word_value(word)
        out.append((ident.id, float(np.max(norms(acc) / norms(batch)))))
    return out


def _norms_of(report):
    return [(e.id, e.residual_norm) for e in report.entries]


def test_shared_evaluator_matches_direct_composition(foldy):
    grid = _grid(16)
    want = [_direct_residuals(foldy, grid, identities) for identities in SUITES]
    shared = numeric_residual_reports(foldy, grid, nstates=1)
    assert [_norms_of(rep) for rep in shared] == want
    single = [numeric_table_report(foldy, grid, nstates=1),
              numeric_lemma_report(foldy, grid, nstates=1),
              numeric_pl_report(foldy, grid, nstates=1)]
    assert [_norms_of(rep) for rep in single] == want
    assert [rep.suite for rep in shared] == [rep.suite for rep in single]


@pytest.fixture
def recorded_caches(monkeypatch):
    caches = []

    class Recording(numcheck._ChainCache):
        def __init__(self, *args):
            super().__init__(*args)
            caches.append(self)

    monkeypatch.setattr(numcheck, "_ChainCache", Recording)
    return caches


def test_each_chain_applied_once_and_each_map_realized_once(
        foldy, monkeypatch, recorded_caches):
    chains = set()
    for word in _words(TABLES["poincare"]) + _words(LEMMAS) + _words(PAULI_LUBANSKI):
        for names in _chains(word):
            chains |= {names[i:] for i in range(len(names))}
    calls = {"apply": 0, "realize": 0}
    apply, real_realize = LinearMap.apply, numcheck.realize

    def counting_apply(self, state):
        calls["apply"] += 1
        return apply(self, state)

    def counting_realize(expr, grid):
        calls["realize"] += 1
        return real_realize(expr, grid)

    monkeypatch.setattr(LinearMap, "apply", counting_apply)
    monkeypatch.setattr(numcheck, "realize", counting_realize)
    numeric_residual_reports(foldy, _grid(16), nstates=1)
    assert calls == {"apply": len(chains),
                     "realize": len({names[0] for names in chains})}
    # every chain and map was dropped at its last read or application
    (cache,) = recorded_caches
    assert not cache.chains and not cache.maps
    assert not cache.reads and not cache.applies


def test_shared_evaluator_memory_peak(foldy, recorded_caches):
    grid = _grid(32)
    batch_bytes = np.zeros((1, *grid.state_shape), dtype=complex).nbytes
    tracemalloc.start()
    try:
        numeric_residual_reports(foldy, grid, nstates=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 36.1 arrays when each suite kept every single-map chain and map for its
    # whole run; 19.0 with the read-counted cache
    assert peak < 24 * batch_bytes, peak / batch_bytes
    (cache,) = recorded_caches
    assert not cache.chains and not cache.maps

COARSE = SimpleNamespace(npts=16)
FINE = SimpleNamespace(npts=32)


def _report(norms):
    rep = VerificationReport("stub")
    for check_id, norm in norms.items():
        rep.add(id=check_id, lhs="", expected="", residual="", passed=True,
                residual_norm=norm)
    return rep


def coarse_extra(grid):
    if grid is COARSE:
        return _report({"shared": 1e-4, "coarse_only": 1e-4, "unnormed": None})
    return _report({"shared": 1e-6, "unnormed": 1e-9})


def fine_extra(grid):
    if grid is COARSE:
        return _report({"shared": 1e-4, "unnormed": 1e-4})
    return _report({"shared": 1e-6, "fine_only": 1e-6, "unnormed": None})


@pytest.mark.parametrize("make_report, lone, where", [
    (coarse_extra, "coarse_only", "absent on the 32-point grid"),
    (fine_extra, "fine_only", "absent on the 16-point grid"),
])
def test_convergence_records_unmatched_ids(make_report, lone, where):
    rep = convergence_report(make_report, COARSE, FINE)
    by_id = {e.id: e for e in rep.entries}
    assert set(by_id) == {"shared", lone, "unnormed"}
    assert by_id["shared"].passed
    assert not by_id[lone].passed and by_id[lone].residual == where
    assert not by_id["unnormed"].passed
    assert "no residual_norm" in by_id["unnormed"].residual
    assert rep.failed == 2
