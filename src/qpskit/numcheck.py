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
which reads ``("B", "C")`` when it is computed. The identities are
scheduled first (``_schedule``), and then, before any map is applied,
``_ChainCache`` counts every read of every chain and every application of
every map over that schedule. A chain longer than one map, or one map that
the batch reports costly to apply again (on the grid, one with a Q term,
which costs a matmul or an FFT), is computed once per *epoch* and dropped
at the epoch's last read; any other single map (H, P_i, S_i, ...) is
applied to the batch again at each read, which costs a few pointwise
products and holds no buffer between reads. Each map is realized once and
dropped after its last application. An identity c (i hbar)^k [B,A] whose
expected side negates term by term that of an earlier c (i hbar)^k [A,B]
is not evaluated: IEEE arithmetic is sign-symmetric, so its residual is its
partner's (``_mirrors``; 45 rows of the Poincare table). The other
identities run in an order that keeps few chains live, and their residuals
are reported in declaration order. Between identities the schedule keeps
at most as many held single-map chains live as one identity reads (3: the
J and K rows read every pair of J_i and K_i together, so no order alone
can finish one chain before the others are computed); past that bound it
ends the epoch of the chain read again last, which is computed again at
that read. A chain is computed by the same arithmetic whatever the order
and however often, so the residuals do not depend on either.

The array work is the sample batch's (``grid.sample_batch``): it realizes
and applies maps, forms sums in its own buffers, gives owned values back
and measures residuals; see "Buffer ownership" in ``grid``. The cache
releases a held chain at the last read of its epoch and every other owned value as soon
as the value formed from it exists. A term whose factor c (i hbar)^k is 1
is its word itself, so a sum may be a chain that the cache still holds, and
only an owned sum is released. ``numeric_casimir_report`` plans both
frequency sectors in one cache, each on a batch of its own that goes before
the next is drawn, so W0-W3 are realized once for both.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import islice

import numpy as np

from .generators import (DERIVED, LEMMAS, PAULI_LUBANSKI, TABLES, GeneratorSet,
                         parse_word)
from .grid import GridConfigError, GridRep, sample_batch
from .report import VerificationReport

DEFAULT_TOL = 1e-6
# convergence_report: the factor by which a residual must shrink on the
# finer grid, and the finer-grid residual that counts as roundoff
CONVERGENCE_FACTOR = 4.0
ROUNDOFF_FLOOR = 1e-11


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


class _ChainCache:
    """Chains and realized maps on one sample batch, read-counted over a
    plan of the words that will be read: each is kept only until its last
    use.

    A chain is held between its reads when it is longer than one map, or
    when the batch reports its map costly to apply again. Any other single
    map (``held`` is false) is applied to the states again at each of its
    reads, which on the grid costs a few pointwise block products, where
    holding it would keep a batch-sized buffer over its whole read span.
    The plan counts one application per such read.

    ``plan`` counts the reads of each held chain by *epoch*: the chain is
    computed once per epoch, at its first read there, and dropped at the
    epoch's last read. An epoch ends where the plan says so, and the next
    read starts another, which computes the chain again from the same maps
    applied to the same input, so every epoch's value is bit-identical.
    Each map's applications are counted over the whole plan, recomputations
    included: it is realized once and dropped after its last application.
    The words must then be read in the planned order.

    Values are the batch's ``(array, owned)`` pairs: a held chain is owned
    by the reader that reads it last in its epoch, a rebuilt one by every
    reader, and every value formed here from chains by its caller.
    """

    def __init__(self, gens: GeneratorSet, batch):
        self.gens = gens
        self.batch = batch
        self.exprs = {}            # map name -> its expression
        self.reads = {}            # held chain -> reads left in each epoch
        self.applies = Counter()   # map name -> applications left
        self.open = set()          # held chains whose planned epoch goes on
        self.maps = {}
        self.chains = {}

    def _expr(self, name):
        if name not in self.exprs:
            self.exprs[name] = (self.gens[name[5:]].d_dt()
                                if name.startswith("d/dt ") else self.gens[name])
        return self.exprs[name]

    def _costly(self, key):
        """Whether the first map that ``key`` applies is one the batch
        prefers not to apply again."""
        return bool(key) and not self.batch.cheap_to_reapply(self._expr(key[0]))

    def held(self, key):
        """Whether the chain ``key`` is kept between its reads."""
        return len(key) > 1 or self._costly(key)

    def plan(self, words, dropped=()):
        """Count the reads of ``words``, read next, and the applications
        they make; then end the epochs of the chains in ``dropped``, so that
        the next read of each computes it again."""
        for word in words:
            for key in _word_chains(word)[1]:
                self._plan(key)
        self.open -= set(dropped)

    def _plan(self, key):
        if not key:
            return
        if not self.held(key):      # every read applies the map
            self.applies[key[0]] += 1
            return
        if key not in self.open:    # the epoch's first read computes the chain
            self.open.add(key)
            self.reads.setdefault(key, deque()).append(0)
            self.applies[key[0]] += 1
            self._plan(key[1:])
        self.reads[key][-1] += 1

    def q_transforms(self, key):
        """Transforms along one axis that the first map of ``key`` runs, one
        per axis of each of its Q-monomials: what recomputing the chain
        costs beyond pointwise products."""
        qmonos = {mono[:3] for mono in self._expr(key[0]).terms}
        return sum(power > 0 for qmono in qmonos for power in qmono)

    def map(self, name):
        if name not in self.maps:
            self.maps[name] = self.batch.realize(self._expr(name))
        left = self.applies.pop(name) - 1   # KeyError: an unplanned apply
        if left:
            self.applies[name] = left
            return self.maps[name]
        return self.maps.pop(name)

    def chain(self, key):
        """The maps of ``key`` applied right to left to the states, owned
        when this is the last read of its epoch or the chain is rebuilt at
        every read."""
        batch = self.batch
        if not key:
            return batch.states, False
        if not self.held(key):
            return batch.apply(self.map(key[0]), batch.states), True
        value = self.chains.pop(key, None)
        if value is None:
            arg, owned = self.chain(key[1:])
            value = batch.apply(self.map(key[0]), arg)
            if owned:
                batch.release(arg)
        epochs = self.reads[key]            # KeyError: an unplanned read
        epochs[0] -= 1
        if epochs[0]:
            self.chains[key] = value
            return value, False
        epochs.popleft()
        if not epochs:
            del self.reads[key]
        return value, True

    def word(self, word):
        """A declared word applied to the states, as an ``(array, owned)``
        pair."""
        kind, keys = _word_chains(word)
        # a chain whose first map is costly to apply goes before the others:
        # on the grid its Q transform takes a buffer of its own, best taken
        # while no other chain of the word is live
        values = [None] * len(keys)
        for n in sorted(range(len(keys)), key=lambda n: not self._costly(keys[n])):
            values[n] = self.chain(keys[n])
        combine = self.batch.combine
        if kind == "[]":
            return combine(np.subtract, *values)
        if kind == "d/dt":
            explicit, ah, ha = values
            rate = combine(np.divide, combine(np.subtract, ah, ha),
                           (1j * self.batch.hbar, False))
            return combine(np.add, explicit, rate)
        return values[0]


def _sum_words(cache, terms):
    """Sum of c * (i hbar)^k * word over the ``(c, k, word)`` terms, formed by
    the batch, as an ``(array, owned)`` pair: a lone word with
    c (i hbar)^k = 1 is the word itself, which may be a chain that the cache
    still holds."""
    combine = cache.batch.combine
    ih = 1j * cache.batch.hbar
    acc = None
    for c, k, word in terms:
        factor = c * ih**k
        term = cache.word(word)
        if factor != 1:
            term = combine(np.multiply, (factor, False), term)
        acc = term if acc is None else combine(np.add, acc, term)
    return acc


def _chain_needs(words, held):
    """For each identity, given as its list of words, the set of chains it
    reads, with the shorter chains they read in turn, that ``held`` keeps
    between reads."""
    return [{key[i:] for w in ws for key in _word_chains(w)[1]
             for i in range(len(key)) if held(key[i:])} for ws in words]


def _mirrors(idents):
    """``{n: m}`` for each identity n whose lhs is c (i hbar)^k [B,A], with
    B other than A, and whose expected side is, term by term, the negation
    of that of an earlier identity m with lhs c (i hbar)^k [A,B].

    IEEE arithmetic is sign-symmetric, x - y = -(y - x), (-a) b = -(a b) and
    (-x) + (-y) = -(x + y), so n's residual vector is m's exact negation,
    up to the signs of zeros, and its norm is m's. Only the declarations
    are read; m is evaluated, never a mirror itself.
    """
    evaluated = {}   # (lhs, expected) -> the first evaluated identity
    out = {}
    for n, ident in enumerate(idents):
        lhs = ident.lhs
        if len(lhs) == 1:
            (c, k, word), = lhs
            kind, names = parse_word(word)
            if kind == "[]" and names[0] != names[1]:
                partner = ((c, k, f"[{names[1]},{names[0]}]"),)
                negated = tuple((-c2, k2, w) for c2, k2, w in ident.expected)
                m = evaluated.get((partner, negated))
                if m is not None:
                    out[n] = m
                    continue
        evaluated.setdefault((lhs, ident.expected), n)
    return out


def _schedule(needs, transforms):
    """Evaluation plan for tasks that read the chain sets ``needs``, as
    ``(task, dropped)`` pairs in evaluation order.

    Next is the task that computes the fewest new chains net of the live
    chains it reads last, ties in declaration order. Scheduling a task
    changes only the costs of the tasks that share a chain with it, so only
    those are scored again.

    Between tasks at most B single-map chains stay live, B being the most
    that any one task reads. After each task, while more than B that were
    read are read again later, the one whose next read is farthest away is
    dropped (Belady's MIN, IBM Syst. J. 5(2), 1966), on a tie the one whose
    map runs fewer ``transforms(key)``; ``dropped`` names them, and the
    next read of each computes it again. A longer chain is never dropped.
    """
    pending = Counter(key for need in needs for key in need)
    users: dict = {}
    for n, need in enumerate(needs):
        for key in need:
            users.setdefault(key, []).append(n)
    seen = set()

    def cost(n):
        return len(needs[n] - seen) - sum(pending[key] == 1 for key in needs[n] & seen)

    score = {n: cost(n) for n in range(len(needs))}   # kept in declaration order
    order = []
    while score:
        n = min(score, key=score.get)
        del score[n]
        order.append(n)
        seen |= needs[n]
        pending.subtract(needs[n])
        for m in {m for key in needs[n] for m in users[key]}:
            if m in score:
                score[m] = cost(m)

    singles = [{key for key in needs[n] if len(key) == 1} for n in order]
    bound = max(map(len, singles), default=0)
    steps = {}      # single-map chain -> the steps that read it, last first
    for t in reversed(range(len(order))):
        for key in singles[t]:
            steps.setdefault(key, []).append(t)
    live = set()
    plan = []
    for n, single in zip(order, singles):
        for key in single:
            steps[key].pop()
        live = {key for key in live | single if steps[key]}
        dropped = set()
        while len(live) > bound:
            # sorted: a full tie goes to the least key, whatever the set order
            key = max(sorted(live), key=lambda key: (steps[key][-1], -transforms(key)))
            live.remove(key)
            dropped.add(key)
        plan.append((n, dropped))
    return plan


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
    mirrors = _mirrors(idents)
    evaluated = [n for n in range(len(idents)) if n not in mirrors]
    words = [[word for _, _, word in idents[n].lhs + idents[n].expected]
             for n in evaluated]
    batch = sample_batch(grid, nstates, seed, None)
    cache = _ChainCache(gens, batch)
    plan = _schedule(_chain_needs(words, cache.held), cache.q_transforms)
    for i, dropped in plan:
        cache.plan(words[i], dropped)
    residuals = [None] * len(idents)
    for i, _ in plan:
        n = evaluated[i]
        acc = _sum_words(cache, [(sign * c, k, word) for sign, terms in
                                 ((1, idents[n].lhs), (-1, idents[n].expected))
                                 for c, k, word in terms])
        residuals[n] = batch.residual(acc[0])
        if acc[1]:
            batch.release(acc[0])
    for n, m in mirrors.items():
        residuals[n] = residuals[m]
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


def _spectrum(cache, terms, target):
    """``(residual, deviation)`` of the sum of ``terms`` against ``target``
    times the identity on the cache's batch: the worst relative residual
    norm, and the worst |<psi, sum psi>/|psi|^2 - target|. The quadratic
    forms are summed over a buffer of the batch's, which goes to the garbage
    collector, not back to the batch, so no spare buffer is held once the
    call returns."""
    batch = cache.batch
    states = batch.states
    acc, owned = _sum_words(cache, terms)
    resid, _ = batch.combine(np.subtract, (acc, False),
                             batch.combine(np.multiply, (target, False),
                                           (states, False)))
    r = batch.residual(resid)
    batch.release(resid)
    prod, _ = batch.combine(np.multiply,
                            batch.combine(np.conjugate, (states, False)),
                            (acc, owned))
    sq = np.abs(states)
    sq **= 2
    axes = tuple(range(1, states.ndim))
    forms = np.sum(prod, axis=axes).real / np.sum(sq, axis=axes)
    return r, float(np.max(np.abs(forms - target)))


def numeric_casimir_report(gens: GeneratorSet, grid: GridRep, nstates=8,
                           seed=0, tol=DEFAULT_TOL) -> VerificationReport:
    """Spectrum of W0^2 - W.W on per-sector band-limited states.

    The squared Pauli-Lubanski vector, read from the declared ``C2``, must
    act as -hbar^2 m^2 s(s+1) on each frequency sector, both as a quadratic
    form and in residual norm.
    """
    c2 = DERIVED["C2"]
    words = [word for _, _, word in c2]
    report = VerificationReport("numeric_casimir")
    s = float(grid.s)
    target = -grid.hbar**2 * grid.m**2 * s * (s + 1.0)
    scale = abs(target) if target else 1.0
    shown = f"{target:.6g}" if target else "0"    # never "-0"
    cache = None
    for sector, tag in ((1, "positive"), (-1, "negative")):
        batch = sample_batch(grid, nstates, seed, sector)
        if cache is None:
            # one plan over both sectors, so each map is realized once; each
            # sector's chains end with it and are computed on its own batch
            cache = _ChainCache(gens, batch)
            (need,) = _chain_needs([words], cache.held)
            for _ in range(2):
                cache.plan(words, need)
        cache.batch = batch
        r, worst = (x / scale for x in _spectrum(cache, c2, target))
        cache.batch = batch = None   # gone before the next sector's is drawn
        report.add(id=f"spectrum[{tag}]", lhs="(W0^2 - W.W) psi",
                   expected=f"{shown} * psi", residual=f"{r:.3e}",
                   passed=r <= tol, residual_norm=r)
        report.add(id=f"quadratic_form[{tag}]", lhs="<psi,(W0^2-W.W)psi>/|psi|^2",
                   expected=shown, residual=f"{worst:.3e}",
                   passed=worst <= tol, residual_norm=worst)
    return report


def convergence_report(make_report, grid_small: GridRep,
                       grid_big: GridRep) -> VerificationReport:
    """Spectral-convergence assertion between two grids: ``make_report`` is
    run on each.

    Each entry passes when the residual shrinks by at least
    ``CONVERGENCE_FACTOR`` going to the finer grid, or when the finer-grid
    residual is at most ``ROUNDOFF_FLOOR`` (relations realized exactly on
    the grid have no error to shrink).
    An id absent from one grid, or without a residual_norm there, fails.
    """
    small = make_report(grid_small)
    big = make_report(grid_big)
    report = VerificationReport(f"convergence_{big.suite}")
    lhs = f"residual({grid_small.npts})/residual({grid_big.npts})"
    expected = f">= {CONVERGENCE_FACTOR} (or fine grid at roundoff)"
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
        ok = rb <= ROUNDOFF_FLOOR or (rb > 0 and rs / rb >= CONVERGENCE_FACTOR)
        ratio = rs / rb if rb > 0 else float("inf")
        report.add(id=check_id, lhs=lhs, expected=expected,
                   residual=f"{rs:.3e} -> {rb:.3e} (ratio {ratio:.1f})",
                   passed=ok, residual_norm=rb)
    return report
