"""Grid twins: the shared read-counted evaluator against direct composition,
its work and memory, and the convergence plumbing (which needs no grid)."""

import itertools
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


def _held(gens, key):
    """The evaluator's hold rule: a chain longer than one map, or one map
    with a Q term."""
    return len(key) > 1 or _expr_of(gens, key[0]).uses_q()


def _q_axes(expr):
    """Matmuls that one application of a realized map runs on a short-axis
    grid: one per axis of each of its Q-monomials."""
    return sum(map(bool, (q for mono in {m[:3] for m in expr.terms} for q in mono)))


def test_each_chain_applied_once_and_each_map_realized_once(
        foldy, monkeypatch, recorded_caches):
    """A held chain (longer than one map, or whose map has a Q term) is
    applied once per epoch of the schedule's plan; every read of a single
    Q-free map applies it again; each map is realized once; the mirrored
    rows read nothing. The batch realizes and applies every map, so a
    counting batch sees all of them, and the matmuls they run."""
    twins = [ident for identities in SUITES for ident in _twins(identities)]
    mirrored = _mirrored(twins)
    assert len(mirrored) == 45
    rows = [[word for _, _, word in ident.lhs + ident.expected]
            for ident in twins if ident.id not in mirrored]
    needs = [{names[i:] for word in words for names in _chains(word)
              for i in range(len(names)) if _held(foldy, names[i:])}
             for words in rows]
    plans = []
    schedule, matmul = numcheck._schedule, np.matmul

    def recorded(needs, transforms):
        plans.append((needs, schedule(needs, transforms)))
        return plans[-1][1]

    def counted(*args, **kwargs):
        calls["matmul"] += 1
        return matmul(*args, **kwargs)

    monkeypatch.setattr(numcheck, "_schedule", recorded)
    monkeypatch.setattr(np, "matmul", counted)
    calls = {"apply": 0, "realize": 0, "matmul": 0}

    class Counting(qpskit.grid._SampleBatch):
        def realize(self, e):
            calls["realize"] += 1
            return super().realize(e)

        def apply(self, op, state):
            calls["apply"] += 1
            return super().apply(op, state)

    monkeypatch.setattr(numcheck, "sample_batch", Counting)
    numeric_residual_reports(foldy, _grid(16), nstates=1)
    ((scheduled, plan),) = plans
    assert scheduled == needs
    assert sorted(n for n, _ in plan) == list(range(len(rows)))
    # walk the plan: a held chain is computed at the first read of each
    # epoch, and that computation reads its tail; a dropped chain's epoch
    # ends after the row that drops it
    live, applied = set(), Counter()
    for n, dropped in plan:
        for word in rows[n]:
            for names in _chains(word):
                for i in range(len(names)):
                    key = names[i:]
                    if _held(foldy, key):
                        if key in live:
                            break
                        live.add(key)
                    applied[key] += 1
        assert dropped <= live
        live -= dropped
    again = {key: count - 1 for key, count in applied.items()
             if _held(foldy, key) and count > 1}
    assert again == {("J1",): 2, ("J3",): 2, ("J2",): 1, ("K1",): 1,
                     ("Q1",): 1, ("L1",): 1}
    maps = {key[0] for key in applied}
    assert calls == {"apply": sum(applied.values()), "realize": len(maps),
                     "matmul": sum(count * _q_axes(_expr_of(foldy, key[0]))
                                   for key, count in applied.items())}
    # 416 applications and 183 matmuls when each held chain was computed once
    assert len(maps) == 36 and calls["apply"] == 424 and calls["matmul"] == 197
    # every chain and map was dropped at its last read or application
    (cache,) = recorded_caches
    assert not cache.chains and not cache.maps
    assert not cache.reads and not cache.applies


def test_shared_evaluator_memory_peak(foldy, recorded_caches):
    grid = _grid(32)
    batch_bytes = np.zeros((1, *grid.state_shape), dtype=complex).nbytes
    # the first draw of a process imports numpy.random (0.75 MB traced) and
    # keeps it: imported here, the peak counts only the evaluator's arrays
    import numpy.random  # noqa: F401
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
    # applied again at each read instead of held; 11.6 with at most 3 J, K,
    # Q or L chains live between rows
    assert peak < 12 * batch_bytes, peak / batch_bytes
    (cache,) = recorded_caches
    assert not cache.chains and not cache.maps


def test_state_sized_buffers_are_allocated_a_bounded_number_of_times(
        foldy, monkeypatch):
    grid = _grid(16)
    sizes = Counter()
    new_buffer = qpskit.grid._new_buffer

    def counted(size):
        sizes[size] += 1
        return new_buffer(size)

    monkeypatch.setattr(qpskit.grid, "_new_buffer", counted)
    for nstates in (1, 2):
        sizes.clear()
        state_size = np.zeros((nstates, *grid.state_shape)).size
        numeric_residual_reports(foldy, grid, nstates=nstates)
        # 7 state-sized buffers serve the 424 applications and 129 sums: at
        # most 4 held chains and 3 in flight (9 when all six J and K chains
        # stayed live, 14 when every chain was held and the 45 mirrored rows
        # evaluated); one per term would be thousands.
        assert 0 < sizes[state_size] <= 7, (nstates, sizes)


def test_casimir_realizes_each_map_once(foldy, monkeypatch, recorded_caches):
    """One plan covers both sectors: W0-W3 are realized by the first
    sector's batch and applied on both, and each sector computes its own
    chains on its own batch."""
    calls = Counter()

    class Counting(qpskit.grid._SampleBatch):
        def __init__(self, grid, nstates, seed, sector):
            super().__init__(grid, nstates, seed, sector)
            self.sector = sector

        def realize(self, e):
            calls["realize"] += 1
            return super().realize(e)

        def apply(self, op, state):
            calls[self.sector] += 1
            return super().apply(op, state)

    monkeypatch.setattr(numcheck, "sample_batch", Counting)
    numeric_casimir_report(foldy, _grid(8), nstates=1)
    # W_i(W_i psi) for i = 0..3 on each sector
    assert calls == {"realize": 4, 1: 8, -1: 8}
    (cache,) = recorded_caches
    assert not cache.chains and not cache.maps
    assert not cache.reads and not cache.applies


def test_casimir_target_zero_is_printed_without_a_sign(foldy):
    """-hbar^2 m^2 s(s+1) is -0.0 at s = 0, which "%.6g" prints as "-0"."""
    grid = GridRep(d=3, npts=8, pmax=2.0, m=1.0, s=0, tval=0.3)
    report = numeric_casimir_report(foldy, grid, nstates=1)
    assert [e.expected for e in report.entries] == ["0 * psi", "0"] * 2


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
    cache = numcheck._ChainCache(foldy, sample_batch(_grid(8), 1, 0, None))
    cache.plan(["J1", "J1", "H", "H"])
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


def _reference_schedule(needs, transforms):
    """The scheduling rule scored from scratch at every step, then the live
    set: after each step, while more than B single-map chains that were read
    are read again later, drop the one read again last, then the one whose
    map runs fewer transforms, then the least."""
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
    singles = [{key for key in needs[n] if len(key) == 1} for n in order]
    bound = max(map(len, singles), default=0)
    live = set()
    plan = []
    for t, n in enumerate(order):
        def next_read(key):
            return next(u for u in range(t + 1, len(order)) if key in singles[u])

        live = {key for key in live | singles[t]
                if any(key in later for later in singles[t + 1:])}
        dropped = set()
        while len(live) > bound:
            key = min(live, key=lambda key: (-next_read(key), transforms(key), key))
            live.remove(key)
            dropped.add(key)
        plan.append((n, dropped))
    return plan


def _random_needs(rng):
    keys = [(rng.randrange(4),) * rng.randint(1, 3) for _ in range(12)]
    return [set(rng.sample(keys, rng.randint(0, 5)))
            for _ in range(rng.randint(0, 30))]


def _all_rows(foldy):
    return [[word for _, _, word in ident.lhs + ident.expected]
            for identities in SUITES for ident in _twins(identities)]


def test_incremental_schedule_matches_rescoring_every_step(foldy):
    words = _all_rows(foldy)
    cache = numcheck._ChainCache(foldy, sample_batch(_grid(8), 1, 0, None))
    needs = numcheck._chain_needs(words, cache.held)
    assert len(needs) == 174
    assert (numcheck._schedule(needs, cache.q_transforms)
            == _reference_schedule(needs, cache.q_transforms))
    rng = random.Random(20261018)
    for _ in range(200):
        needs = _random_needs(rng)
        transforms = (lambda key: key[0] % 2)
        assert (numcheck._schedule(needs, transforms)
                == _reference_schedule(needs, transforms))


class _Names:
    """A batch over symbols: the states are the empty word, a map is its
    name, and applying it puts the name in front, so a chain's value is its
    key. Maps named in ``cheap`` are cheap to apply again. It counts the
    applications of each map and, in ``peak``, the most single-map chains of
    ``chains`` held while one is computed, that one included."""

    states = ()
    hbar = 1.0

    def __init__(self, cheap):
        self.cheap = cheap
        self.applied = Counter()
        self.chains = {}
        self.peak = 0

    def realize(self, e):
        return e

    def apply(self, op, state):
        self.applied[op] += 1
        held = sum(len(key) == 1 for key in self.chains)
        self.peak = max(self.peak, held + (not state))
        return (op,) + state

    def cheap_to_reapply(self, e):
        return e in self.cheap

    def combine(self, ufunc, *operands):
        raise AssertionError("a product word forms no sum")

    def release(self, arr):
        pass


def _run_plan(rows, dropping=True, cheap=()):
    """Plan ``rows`` of words with the schedule and read them in its order
    over a ``_Names`` batch, checking every value read. Returns the plan's
    bound B, the most single-map chains held between rows and while one is
    computed, and the planned and the counted applications."""
    batch = _Names(set(cheap))
    cache = numcheck._ChainCache({name: name for name in "abcdef"}, batch)
    batch.chains = cache.chains
    needs = numcheck._chain_needs(rows, cache.held)
    plan = numcheck._schedule(needs, lambda key: key[0] in "ace")
    bound = max((sum(len(key) == 1 for key in need) for need in needs), default=0)
    for n, dropped in plan:
        cache.plan(rows[n], dropped if dropping else ())
    planned = Counter(cache.applies)
    between = 0
    for n, _ in plan:
        for word in rows[n]:
            value, _ = cache.word(word)
            assert value == parse_word(word)[1]    # read within its epoch
        between = max(between, sum(len(key) == 1 for key in cache.chains))
    assert not cache.chains and not cache.reads and not cache.applies
    return bound, between, batch.peak, planned, batch.applied


def test_bounded_schedule_keeps_its_plan():
    """On random rows, at most B single-map chains are live between rows,
    every read finds its chain's value in the epoch that the plan counted,
    and the applications planned are those that the batch sees."""
    rng = random.Random(20261021)
    for _ in range(200):
        rows = [["*".join("abcd"[n] for n in key) for key in need]
                for need in _random_needs(rng)]
        bound, between, peak, planned, applied = _run_plan(rows, cheap={"d"})
        assert between <= bound
        assert planned == applied


def test_bounded_schedule_recomputes_where_every_pair_is_read_together():
    """Each pair of six chains is read by one row, as the J and K chains are
    by the Poincare rows, so all six are computed before any can be
    dropped. Holding each from its first read to its last keeps all six
    live; the bounded schedule holds at most B + 1 and computes some twice."""
    rows = [[b, a] for a, b in itertools.combinations("abcdef", 2)]
    bound, between, peak, planned, _ = _run_plan(rows, dropping=False)
    assert bound == 2 and peak == 6
    assert planned == dict.fromkeys("abcdef", 1)
    bound, between, peak, planned, _ = _run_plan(rows)
    assert bound == 2 and between <= bound and peak <= bound + 1
    assert sum(planned.values()) > 6


def test_residuals_do_not_depend_on_the_schedule(foldy, monkeypatch):
    """The plan changes memory and time, never a float: every residual of
    a random order of the evaluated rows, with nothing dropped (always a
    valid plan), is bit for bit the greedy plan's."""
    grid = _grid(8)

    def norms():
        return [e.residual_norm.hex() for rep in
                numeric_residual_reports(foldy, grid, nstates=2, seed=5)
                for e in rep.entries]

    greedy = norms()
    for seed in range(4):
        rng = random.Random(seed)

        def shuffled(needs, transforms):
            order = list(range(len(needs)))
            rng.shuffle(order)
            return [(n, set()) for n in order]

        monkeypatch.setattr(numcheck, "_schedule", shuffled)
        assert norms() == greedy, seed


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
