"""Grid twins: the shared read-counted evaluator against direct composition,
its work and memory, and the convergence plumbing (which needs no grid)."""

import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import qpskit.grid
import qpskit.numcheck as numcheck
from qpskit.generators import LEMMAS, PAULI_LUBANSKI, TABLES, parse_word
from qpskit.grid import GridRep, gaussian_states, realize, sample_batch
from qpskit.numcheck import (convergence_report, numeric_casimir_report,
                             numeric_lemma_report, numeric_pl_report,
                             numeric_residual_reports, numeric_table_report)
from qpskit.report import VerificationReport

SUITES = (TABLES["poincare"], LEMMAS, PAULI_LUBANSKI)


def _grid(npts):
    return GridRep(d=3, npts=npts, pmax=2.0, m=1.0, s=Fraction(1, 2), tval=0.3)


def _twins(identities):
    return [ident for ident in identities if not ident.symbolic_only]


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
    with nothing shared between words or identities, on the evaluator's
    batch: the same states in the same memory order, and the norms by the
    evaluator's own reduction."""
    sample = sample_batch(grid, 1, 0, None)
    batch, norms = sample.states, sample.norms

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


def _expr_of(gens, name):
    return gens[name[5:]].d_dt() if name.startswith("d/dt ") else gens[name]


def _mirrored(identities):
    """Rows c (i hbar)^k [B,A], B other than A, whose expected side negates
    term by term that of an earlier row c (i hbar)^k [A,B]."""
    seen = set()
    out = set()
    for ident in identities:
        if len(ident.lhs) == 1 and parse_word(ident.lhs[0][2])[0] == "[]":
            c, k, word = ident.lhs[0]
            a, b = parse_word(word)[1]
            negated = tuple((-c2, k2, w) for c2, k2, w in ident.expected)
            if a != b and (((c, k, f"[{b},{a}]"),), negated) in seen:
                out.add(ident.id)
                continue
        seen.add((ident.lhs, ident.expected))
    return out


def test_each_chain_applied_once_and_each_map_realized_once(
        foldy, monkeypatch, recorded_caches):
    """A chain longer than one map, or whose map has a Q term, is applied
    once; every read of a single Q-free map applies it again; each map is
    realized once; the mirrored rows read nothing. The batch realizes and
    applies every map, so a counting batch sees all of them."""
    twins = [ident for identities in SUITES for ident in _twins(identities)]
    mirrored = _mirrored(twins)
    assert len(mirrored) == 45
    held, rebuilt_reads = set(), 0
    for ident in twins:
        if ident.id in mirrored:
            continue
        for _, _, word in ident.lhs + ident.expected:
            for names in _chains(word):
                # the read itself, then the first computation of each held
                # chain reads its tail
                for i in range(len(names)):
                    key = names[i:]
                    if len(key) > 1 or _expr_of(foldy, key[0]).uses_q():
                        if key in held:
                            break
                        held.add(key)
                    else:
                        rebuilt_reads += 1
    calls = {"apply": 0, "realize": 0}

    class Counting(qpskit.grid._SampleBatch):
        def realize(self, e):
            calls["realize"] += 1
            return super().realize(e)

        def apply(self, op, state):
            calls["apply"] += 1
            return super().apply(op, state)

    monkeypatch.setattr(numcheck, "sample_batch", Counting)
    numeric_residual_reports(foldy, _grid(16), nstates=1)
    maps = {names[0] for names in held} | {
        name for ident in twins if ident.id not in mirrored
        for _, _, word in ident.lhs + ident.expected
        for names in _chains(word) for name in names}
    assert calls == {"apply": len(held) + rebuilt_reads, "realize": len(maps)}
    assert len(maps) == 36
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
    # whole run; 18.6 with the read-counted cache, and 18.9 with the chains,
    # sums and scratch in buffers that the grid hands out again; 13.7 with
    # the mirrored rows reusing their partners and the Q-free single maps
    # applied again at each read instead of held
    assert peak < 16 * batch_bytes, peak / batch_bytes
    (cache,) = recorded_caches
    assert not cache.chains and not cache.maps


def test_state_sized_buffers_are_allocated_a_bounded_number_of_times(
        foldy, monkeypatch):
    grid = _grid(16)
    state_size = np.zeros((1, *grid.state_shape)).size
    sizes = Counter()
    new_buffer = qpskit.grid._new_buffer

    def counted(size):
        sizes[size] += 1
        return new_buffer(size)

    monkeypatch.setattr(qpskit.grid, "_new_buffer", counted)
    numeric_residual_reports(foldy, grid, nstates=1)
    # 9 state-sized buffers serve the 416 applications and 129 sums (14 for
    # 278 applications when every chain was held and the 45 mirrored rows
    # evaluated); one per term would be thousands.
    assert 0 < sizes[state_size] <= 10, sizes


def test_no_map_copies_the_batch(foldy, monkeypatch):
    """The batch and every chain are spin-first in memory, so each map reads
    its input in place."""
    calls = []
    to_inner = qpskit.grid._to_inner

    def recorded(grid, state):
        inner = to_inner(grid, state)
        calls.append(np.shares_memory(inner, state))
        return inner

    monkeypatch.setattr(qpskit.grid, "_to_inner", recorded)
    grid = _grid(16)
    for run in (numeric_residual_reports, numeric_casimir_report):
        calls.clear()
        run(foldy, grid, nstates=1)
        assert calls and all(calls), (run.__name__, calls.count(False))


def test_a_word_with_factor_one_is_summed_without_a_copy(foldy):
    """c (i hbar)^k = 1 makes the sum the word itself: a chain that the
    cache still holds for a later read comes back unowned, so nobody
    recycles it, and its last read comes back owned. A Q-free single map is
    not held: each read applies it again and hands its reader a new array."""
    cache = numcheck._ChainCache(foldy, sample_batch(_grid(8), 1, 0, None),
                                 ["J1", "J1", "H", "H"])
    first, owned = numcheck._sum_words(cache, [(1, 0, "J1")])
    assert not owned and cache.chains[("J1",)] is first
    again, owned = numcheck._sum_words(cache, [(1, 0, "J1")])
    assert owned and again is first and not cache.chains
    reads = [numcheck._sum_words(cache, [(1, 0, "H")]) for _ in range(2)]
    assert [owned for _, owned in reads] == [True, True]
    assert reads[0][0] is not reads[1][0] and not cache.chains
    assert np.array_equal(reads[0][0], reads[1][0])
    assert not cache.applies and not cache.maps


def test_batch_is_the_sample_states_over_spin_first_memory():
    grid = _grid(8)
    batch = sample_batch(grid, 2, 5, -1).states
    assert np.array_equal(batch, np.stack(gaussian_states(grid, nstates=2, seed=5,
                                                          sector=-1)))
    assert np.moveaxis(batch, (-2, -1), (0, 1)).flags.c_contiguous


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


def _reference_schedule(needs):
    """The scheduling rule scored from scratch at every step."""
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


def test_incremental_schedule_matches_rescoring_every_step(foldy):
    words = [[word for _, _, word in ident.lhs + ident.expected]
             for identities in SUITES for ident in _twins(identities)]
    cache = numcheck._ChainCache(foldy, sample_batch(_grid(8), 1, 0, None),
                                 [w for ws in words for w in ws])
    needs = numcheck._chain_needs(words, cache.held)
    assert len(needs) == 174
    assert numcheck._schedule(needs) == _reference_schedule(needs)
    rng = random.Random(20261018)
    for _ in range(200):
        keys = [(rng.randrange(4),) * rng.randint(1, 3) for _ in range(12)]
        needs = [set(rng.sample(keys, rng.randint(0, 5)))
                 for _ in range(rng.randint(0, 30))]
        assert numcheck._schedule(needs) == _reference_schedule(needs)


@pytest.mark.parametrize("npts,nstates,seed", [
    (16, 1, 0), (16, 2, 0), (16, 1, 7), (16, 2, 7),
    (32, 1, 0), (32, 2, 0), (32, 1, 7), (32, 2, 7)])
def test_mirrored_rows_equal_their_own_evaluation(foldy, monkeypatch, npts,
                                                  nstates, seed):
    """A mirrored [B,A] row reads its [A,B] partner's residual, which is the
    float its own evaluation gives."""
    twins = [ident for identities in SUITES for ident in _twins(identities)]
    mirrors = numcheck._mirrors(twins)
    assert {twins[n].id for n in mirrors} == _mirrored(twins)
    assert all(twins[m].id == "[{1},{0}]".format(*parse_word(twins[n].lhs[0][2])[1])
               for n, m in mirrors.items())
    paired = numeric_residual_reports(foldy, _grid(npts), nstates=nstates, seed=seed)
    monkeypatch.setattr(numcheck, "_mirrors", lambda idents: {})
    alone = numeric_residual_reports(foldy, _grid(npts), nstates=nstates, seed=seed)
    assert [_norms_of(rep) for rep in paired] == [_norms_of(rep) for rep in alone]


def test_a_row_that_is_not_a_mirror_is_evaluated(foldy):
    """A [B,A] row whose expected side is not the negation of its partner's
    is evaluated on its own, so a wrong declaration fails there. On this
    coarse grid [H,K1] leaves 2.2e-4 and the wrong side 0.57."""
    table = list(TABLES["poincare"])
    at = next(n for n, ident in enumerate(table) if ident.id == "[K1,H]")
    table[at] = replace(table[at], expected=((1, 0, "P1"),))   # declared -P1
    assert len(numcheck._mirrors(_twins(table))) == 44
    (report,) = numcheck._grid_reports([("t", table)], foldy, _grid(16), 1, 0,
                                       1e-2)
    by_id = {e.id: e for e in report.entries}
    assert not by_id["[K1,H]"].passed and by_id["[H,K1]"].passed
    assert report.failed == 1
