"""Generator sets and the symbolic verification suites."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from oracles import eval_spin_matrices, matrix_is_zero
from qpskit import (AlgebraContext, GridConfigError, GridRep,
                    bargmann_generators, boost_matrix_identities, casimirs,
                    check_table, commutator, energy_momentum_constraint_check,
                    foldy_generators, lemma_suite, parse_expr, pauli_lubanski,
                    total_time_derivative)
import qpskit.generators as generators
import qpskit.parser as parser
from qpskit.cli import main
from qpskit.coeffs import ScalarCoeff
from qpskit.expr import ExprError
from qpskit.generators import (AXES, BOOST_MATRIX, CASIMIRS, LEMMAS,
                               PAULI_LUBANSKI, TABLES, _cross)
from qpskit.numcheck import (numeric_lemma_report, numeric_pl_report,
                             numeric_table_report)

P = parse_expr


def test_foldy_contents(foldy):
    assert foldy["H"] == P("Lam*omega")
    assert foldy["J2"] == P("Q3*P1 - Q1*P3 + S2")
    assert foldy["N1"] == P("Lam*(S2*P3 - S3*P2)/(omega+m)")
    assert foldy["N2"] == P("Lam*(S3*P1 - S1*P3)/(omega+m)")
    assert foldy["V1"] == P("Lam*P1/omega")
    assert foldy["M3"] == P("t*P3 - (Q3*Lam*omega + Lam*omega*Q3)/2")
    assert foldy["K1"] == P("t*P1 - (Q1*Lam*omega + Lam*omega*Q1)/2"
                            " + Lam*(S2*P3 - S3*P2)/(omega+m)")
    # L.P = 0, so W0 = S.P; and P x sym(Q, H) = -H L, so W = H S - P x N
    assert foldy["W0"] == P("S1*P1 + S2*P2 + S3*P3")
    assert foldy["W1"] == P("Lam*omega*S1 - Lam*(S1*P2^2 + S1*P3^2"
                            " - S2*P1*P2 - S3*P1*P3)/(omega+m)")
    ctx2 = AlgebraContext.get(2)
    foldy2 = foldy_generators(ctx=ctx2)
    assert foldy2["N1"] == P("Lam*(S2*P3 - S3*P2)/(omega+2*m)", ctx=ctx2)
    assert foldy2["K3"] == P("t*P3 - (Q3*Lam*omega + Lam*omega*Q3)/2"
                             " + Lam*(S1*P2 - S2*P1)/(omega+2*m)", ctx=ctx2)
    bg = bargmann_generators()
    assert bg["H"] == P("(P1^2 + P2^2 + P3^2)/(2*Mmass) + E0")
    assert bg["C2"] == P("t*P2 - Mmass*Q2")


def test_decomposition_invariants(foldy):
    for i in (1, 2, 3):
        assert (foldy[f"J{i}"] - foldy[f"L{i}"] - foldy[f"S{i}"]).is_zero()
        assert (foldy[f"K{i}"] - foldy[f"M{i}"] - foldy[f"N{i}"]).is_zero()


def test_generators_self_adjoint(foldy):
    for name, expr in foldy.items():
        assert expr.adjoint() == expr, name


def test_internal_boost_orthogonal_to_momentum(foldy):
    n_dot_p = foldy["N1"] * foldy["P1"] + foldy["N2"] * foldy["P2"] \
        + foldy["N3"] * foldy["P3"]
    assert n_dot_p.is_zero()


def test_spin_zero_collapses_boost(foldy_spinless):
    for i in (1, 2, 3):
        assert (foldy_spinless[f"K{i}"] - foldy_spinless[f"M{i}"]).is_zero()
        assert (foldy_spinless[f"J{i}"] - foldy_spinless[f"L{i}"]).is_zero()


def test_poincare_table_passes(foldy):
    rep = check_table(foldy, "poincare")
    assert len(rep.entries) == 100
    assert rep.failed == 0
    # antisymmetric pairs: both orders present and checked
    ids = {e.id for e in rep.entries}
    for a in ("H", "P1", "J2", "K3"):
        for b in ("H", "P2", "J1", "K2"):
            assert f"[{a},{b}]" in ids and f"[{b},{a}]" in ids


TABLE_NAMES = ["H"] + [f"{p}{i}" for p in "PJK" for i in AXES]
CANDIDATE = "Lam*omega + 3/2*P2"


def _candidate_set(text):
    """The orbital/spin set built around the candidate H, as the closure
    check builds it (the candidate fails, so m stays the primitive)."""
    ctx = AlgebraContext.get(1)
    names = {**generators._primitives(ctx), "H": P(text, ctx=ctx)}
    with ctx.evaluation():
        return generators._declare(ctx, names, generators.ORBITAL_SPIN)


def _counting_commutator(monkeypatch):
    calls = []
    real = generators.commutator

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(generators, "commutator", counted)
    return calls


def test_table_forms_each_unordered_bracket_once(foldy, monkeypatch):
    """[B,A] reads the negation of [A,B]: the kernel runs once per unordered
    pair of the ten table generators, [A,A] included, 55 calls for 100
    entries; the closure check runs the same table."""
    calls = _counting_commutator(monkeypatch)
    rep = check_table(foldy, "poincare")
    assert len(rep.entries) == 100 and rep.failed == 0
    name_of = {id(foldy[n]): n for n in TABLE_NAMES}
    pairs = [frozenset((name_of[id(a)], name_of[id(b)])) for a, b in calls]
    assert len(calls) == 55 and len(set(pairs)) == 55
    calls.clear()
    energy_momentum_constraint_check(P(CANDIDATE))
    assert len(calls) == 55


@pytest.mark.parametrize("which", ["foldy", "candidate"])
def test_table_brackets_are_antisymmetric(foldy, which):
    """The engine's antisymmetry at the table's own inputs, which the
    mirrored [B,A] rows rely on: [B,A] == -[A,B] for all 45 pairs."""
    gens = dict(foldy.items()) if which == "foldy" else _candidate_set(CANDIDATE)
    with foldy.ctx.evaluation():
        for k, a in enumerate(TABLE_NAMES):
            for b in TABLE_NAMES[k + 1:]:
                assert commutator(gens[b], gens[a]) == -commutator(gens[a], gens[b])


def test_mirrored_rows_are_not_vacuous(foldy, monkeypatch):
    """A mirrored read that forgets the sign fails exactly the [B,A] rows
    (B after A in name order) whose expected side is nonzero."""
    value = generators._Words.value
    monkeypatch.setattr(generators._Words, "value",
                        lambda self, word: (value(self, word)[0], 1))
    rep = check_table(foldy, "poincare")
    want = {ident.id for ident in TABLES["poincare"]
            if generators._oriented(ident.id)[1] < 0 and ident.expected}
    assert len(want) == 24
    assert {e.id for e in rep.entries if not e.passed} == want
    assert main(["verify", "poincare"]) == 1


def test_specific_table_entries(foldy):
    ih_inv = P("1/(i*hbar)")
    assert commutator(foldy["K1"], foldy["K2"]) * ih_inv == -foldy["J3"]
    assert commutator(foldy["H"], foldy["K2"]) * ih_inv == foldy["P2"]
    assert commutator(foldy["P1"], foldy["K1"]) * ih_inv == foldy["H"]


def test_spinless_roles_pass_table(foldy):
    rep = check_table(foldy, "poincare_spinless")
    assert len(rep.entries) == 100 and rep.failed == 0
    # same-mass claim: H^2 - P.P == m^2 for the orbital set
    c1 = foldy["H"] * foldy["H"] - (foldy["P1"] * foldy["P1"]
                                    + foldy["P2"] * foldy["P2"]
                                    + foldy["P3"] * foldy["P3"])
    assert c1 == P("m^2")


def test_table_failure_reported():
    gens = foldy_generators()
    broken = dict(gens.items())
    broken["H"] = P("Lam*omega + P1")
    from qpskit.generators import GeneratorSet
    rep = check_table(GeneratorSet(gens.ctx, broken), "poincare")
    assert rep.failed > 0
    assert all(e.residual != "" for e in rep.entries if e.asserted and not e.passed)


def test_table_missing_generator_is_config_failure():
    from qpskit.generators import GeneratorSet
    gens = foldy_generators()
    partial = {k: v for k, v in gens.items() if k != "K2"}
    rep = check_table(GeneratorSet(gens.ctx, partial), "poincare")
    assert rep.failed == 1
    assert rep.entries[0].id == "configuration"


def test_table_casimir_flag_immaterial(foldy):
    # closure holds in the enveloping algebra; the S^2 substitution is
    # optional and must not change any verdict
    plain = check_table(foldy, "poincare")
    flagged = check_table(foldy, "poincare", casimir_spin=Fraction(1, 2))
    assert plain.failed == 0 and flagged.failed == 0


def test_casimirs(foldy):
    rep = casimirs(foldy)
    assert rep.failed == 0
    ids = {e.id for e in rep.entries}
    assert "casimir1_value" in ids
    assert "casimir2_spin[positive]" in ids and "casimir2_spin[negative]" in ids


def test_casimir2_matrix_backend(foldy):
    # C2 reads no Lam, so at s=1 it is -2 hbar^2 m^2 identity on both sectors
    c2 = foldy["W0"] * foldy["W0"] - (foldy["W1"] * foldy["W1"]
                                      + foldy["W2"] * foldy["W2"]
                                      + foldy["W3"] * foldy["W3"])
    assert c2.terms and not any(mono[6] for mono in c2.terms)
    mat = eval_spin_matrices(c2, 1)
    want = P("-2*hbar^2*m^2")
    for r in range(3):
        for c in range(3):
            assert mat[r][c] == (want if r == c else P("0"))


def test_pauli_lubanski(foldy):
    rep = pauli_lubanski(foldy)
    assert rep.failed == 0
    # W0 = S.P is among the asserted passes
    entry = next(e for e in rep.entries if e.id == "w0_is_spin_momentum")
    assert entry.passed
    # the spatial form holds on both sectors, so every entry is asserted
    neg = [e for e in rep.entries if "negative" in e.id]
    assert len(neg) == 3 and all(e.asserted and e.passed for e in neg)
    assert rep.passed == len(rep.entries) == 8


def test_boost_matrix_identities():
    rep = boost_matrix_identities()
    assert rep.failed == 0 and len(rep.entries) == 19


# N_i with its frequency sign dropped, and with its sign flipped
N_MUTANTS = {
    "drop_lam": lambda i: _cross("S", "P", i, suffix="*1/(omega+m)"),
    "flip_sign": lambda i: _cross("S", "P", i, c=-1, prefix="Lam*",
                                  suffix="*1/(omega+m)"),
}


@pytest.mark.parametrize("mutant", sorted(N_MUTANTS))
def test_sector_free_entries_catch_n_mutants(mutant, monkeypatch):
    for table in ("ORBITAL_SPIN", "FOLDY"):
        monkeypatch.setattr(generators, table, tuple(
            (name, N_MUTANTS[mutant](int(name[1])) if name[0] == "N" else terms)
            for name, terms in getattr(generators, table)))
    gens = foldy_generators()
    assert gens["N1"] != P("Lam*(S2*P3 - S3*P2)/(omega+m)")
    failing = {rep.suite: [e.id for e in rep.entries if e.asserted and not e.passed]
               for rep in (pauli_lubanski(gens), boost_matrix_identities())}
    assert failing == {
        "pauli_lubanski": [f"spatial_form[{tag},{i}]"
                           for tag in ("positive", "negative") for i in AXES],
        "boost_matrix": [f"{label}[{i}]" for label in ("n_curl", "n_forced")
                         for i in AXES],
    }


def test_lemma_suite_passes(foldy):
    rep = lemma_suite(foldy)
    assert rep.failed == 0
    ids = {e.id for e in rep.entries}
    for required in ("velocity_parallel[1]", "heisenberg[1,1]",
                     "velocity_form[2]", "m_conserved[3]",
                     "covariance_m[1,2]", "covariance_failure_form[1,2]",
                     "covariance_failure_form_positive[2,1]",
                     "frequency_sign", "spin_algebra[1,2]"):
        assert required in ids, required


def test_covariance_failure_iff_spin(foldy):
    # [Q_i, N_j] nonzero for generic spin, zero once spin is switched off
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            c = commutator(foldy[f"Q{i}"], foldy[f"N{j}"])
            assert not c.is_zero()
            assert c.substitute_spin_zero().is_zero()
    # bracket linearity ties the three covariance pieces together
    lhs = commutator(foldy["Q1"], foldy["K2"]) \
        - commutator(foldy["Q1"], foldy["M2"]) \
        - commutator(foldy["Q1"], foldy["N2"])
    assert lhs.is_zero()


def test_bargmann(foldy):
    bg = bargmann_generators()
    assert bg["C1"] == P("t*P1 - Mmass*Q1")
    assert commutator(bg["Q1"], bg["C1"]) == P("i*hbar*t")
    assert commutator(bg["Q1"], bg["C2"]).is_zero()
    # Leibniz by hand: [C1, H] = -Mmass*[Q1, P^2/(2*Mmass)] = -i*hbar*P1
    assert commutator(bg["C1"], bg["H"]) == P("-i*hbar*P1")
    rep = check_table(bg, "bargmann")
    assert rep.failed == 0
    assert any(e.id.startswith("central[Mmass") for e in rep.entries)
    assert any(e.id.startswith("conserved[C") for e in rep.entries)
    for i in (1, 2, 3):
        assert total_time_derivative(bg[f"C{i}"], bg["H"]).is_zero()


def test_emrelation_pass_and_fail():
    ok = energy_momentum_constraint_check(P("Lam*omega"))
    assert ok.failed == 0
    bad = energy_momentum_constraint_check(P("Lam*omega + P1"))
    assert bad.failed > 0
    rel = next(e for e in bad.entries if e.id == "energy_momentum_relation")
    assert not rel.passed and rel.residual not in ("", "0")


def test_emrelation_scaled_sqrt_form():
    ctx2 = AlgebraContext.get(2)
    rep = energy_momentum_constraint_check(P("Lam*omega", ctx=ctx2))
    assert rep.failed == 0
    rel = next(e for e in rep.entries if e.id == "energy_momentum_relation")
    assert rel.passed and "4*m^2" in rel.lhs


def test_emrelation_rejects_q():
    with pytest.raises(ExprError):
        energy_momentum_constraint_check(P("Lam*omega + Q1"))


def test_report_json_schema(foldy):
    rep = check_table(foldy, "poincare")
    doc = json.loads(rep.to_json())
    assert doc["suite"] == "poincare"
    assert doc["passed"] == 100 and doc["failed"] == 0
    entry = doc["entries"][0]
    for key in ("id", "lhs", "expected", "residual", "pass"):
        assert key in entry


def test_sector_identities_also_pass_under_matrices(foldy):
    # symbolic passes remain passes under the fixed-spin backends
    for txt_lhs, txt_rhs in [
        ("[S1,J2]", "i*hbar*S3"),
        ("[N1,J2]", "i*hbar*N3"),
    ]:
        bindings = dict(foldy.items())
        resid = P(txt_lhs, bindings) - P(txt_rhs, bindings)
        assert resid.is_zero()
        for s in (Fraction(1, 2), Fraction(1)):
            assert matrix_is_zero(eval_spin_matrices(resid, s))


def test_registry_feeds_both_backends(foldy):
    # one declaration, one entry per backend under the same id; a declaration
    # the grid skips must say why, and a suite without grid twins has no
    # numeric report
    grid = GridRep(d=3, npts=16, pmax=2.0, m=1.0, s=Fraction(1, 2), tval=0.3)
    suites = [
        (TABLES[which], check_table(foldy, which),
         numeric_table_report(foldy, grid, which, nstates=1))
        for which in ("poincare", "poincare_spinless")
    ] + [
        (LEMMAS, lemma_suite(foldy), numeric_lemma_report(foldy, grid, nstates=1)),
        (PAULI_LUBANSKI, pauli_lubanski(foldy),
         numeric_pl_report(foldy, grid, nstates=1)),
        (CASIMIRS, casimirs(foldy), None),
        (BOOST_MATRIX, boost_matrix_identities(), None),
    ]
    for identities, exact, numeric in suites:
        exact_ids = [e.id for e in exact.entries]
        assert exact_ids == [ident.id for ident in identities]
        assert len(set(exact_ids)) == len(exact_ids)
        numeric_ids = [] if numeric is None else [e.id for e in numeric.entries]
        assert numeric_ids == [ident.id for ident in identities
                               if not ident.symbolic_only]
        for ident in identities:
            if ident.id not in numeric_ids:
                assert ident.symbolic_only.strip(), ident.id
    assert all(ident.symbolic_only.strip() for ident in TABLES["bargmann"])
    with pytest.raises(GridConfigError):
        numeric_table_report(bargmann_generators(), grid, "bargmann", nstates=1)


def test_generator_sets_are_built_once_per_context_and_declaration(monkeypatch):
    """A second request for a set returns the built one and forms no
    coefficient product; another context, or a changed declaration, builds
    its own. The shared table cannot be written."""
    ctx = AlgebraContext()
    foldy, bargmann = foldy_generators(ctx=ctx), bargmann_generators(ctx=ctx)
    mul = ScalarCoeff._mul
    products = []

    def spy(self, o):
        products.append(self.ctx)
        return mul(self, o)

    monkeypatch.setattr(ScalarCoeff, "_mul", spy)
    assert foldy_generators(ctx=ctx) is foldy
    assert bargmann_generators(ctx=ctx) is bargmann
    assert not products
    others = [foldy_generators(ctx=AlgebraContext(2)),
              foldy_generators(ctx=AlgebraContext())]
    flipped = N_MUTANTS["flip_sign"]
    monkeypatch.setattr(generators, "FOLDY", tuple(
        (name, flipped(int(name[1])) if name[0] == "N" else terms)
        for name, terms in generators.FOLDY))
    others.append(foldy_generators(ctx=ctx))
    assert others[-1]["N1"] == -foldy["N1"]
    assert len({id(gens) for gens in (foldy, *others)}) == 4
    assert set(products) == {gens.ctx for gens in others}
    with pytest.raises(TypeError):
        foldy.table["H"] = foldy["P1"]


# Entries that restate a sector-free twin under the id of a former one-sector
# reading. perfbench's known answers pin the suites' entry counts, so they
# merge into their twins with the next benchmark refresh (ROADMAP item 1).
RESTATEMENTS = {
    **{f"covariance_failure_form_positive[{i},{j}]": f"covariance_failure_form[{i},{j}]"
       for i in AXES for j in AXES},
    "casimir2_spin[positive]": "casimir2_spin[full]",
    "casimir2_spin[negative]": "casimir2_spin[full]",
    **{f"spatial_form[negative,{i}]": f"spatial_form[positive,{i}]" for i in AXES},
}


def test_each_identity_is_declared_once():
    # one check per (lhs, expected) pair of sums; the S = 0 and nonzero flags
    # make a different check of the same sums
    restated = {}
    for identities in (*TABLES.values(), LEMMAS, CASIMIRS, PAULI_LUBANSKI,
                       BOOST_MATRIX):
        first = {}
        for ident in identities:
            key = (frozenset(Counter(ident.lhs).items()),
                   frozenset(Counter(ident.expected).items()),
                   ident.spin_zero, ident.nonzero)
            if key in first:
                restated[ident.id] = first[key]
            else:
                first[key] = ident.id
    assert restated == RESTATEMENTS


def test_tables_live_only_while_an_evaluation_runs(foldy, monkeypatch):
    """Every product a report, a closure check or a generator build forms
    is formed with the tables open, and the tables are dropped on return.
    The builds run on a fresh context: the fixture's context already holds
    both sets, so building there forms no product."""
    ctx = foldy.ctx
    fresh = AlgebraContext()
    candidate = P("Lam*omega + m^2/(P1+m)")
    runs = [lambda: check_table(foldy, "poincare"),
            lambda: energy_momentum_constraint_check(candidate),
            lambda: foldy_generators(ctx=fresh),
            lambda: bargmann_generators(ctx=fresh)]
    mul = ScalarCoeff._mul
    render = parser._render_scalar
    open_at_mul, open_at_render = [], []

    def spy(self, o):
        open_at_mul.append(self.ctx.products is not None)
        return mul(self, o)

    def render_spy(c):
        open_at_render.append(c.ctx.texts is not None)
        return render(c)

    monkeypatch.setattr(ScalarCoeff, "_mul", spy)
    monkeypatch.setattr(parser, "_render_scalar", render_spy)
    for k, run in enumerate(runs):
        open_at_mul.clear()
        open_at_render.clear()
        run()
        assert open_at_mul and all(open_at_mul)
        # the reports render their residuals; the generator builds render nothing
        assert all(open_at_render) and bool(open_at_render) == (k < 2)
        for c in (ctx, fresh):
            assert c.products is None and c.derivatives is None and c.texts is None


def test_tables_are_dropped_when_a_report_raises(foldy, monkeypatch):
    import qpskit.generators as generators

    render = generators.render_expr
    rendered = []

    def render_then_fail(expr):
        if rendered:
            assert foldy.ctx.products
            raise RuntimeError("render failed")
        rendered.append(expr)
        return render(expr)

    monkeypatch.setattr(generators, "render_expr", render_then_fail)
    with pytest.raises(RuntimeError, match="render failed"):
        check_table(foldy, "poincare")
    assert foldy.ctx.products is None and foldy.ctx.derivatives is None
    assert foldy.ctx.texts is None
