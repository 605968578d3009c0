"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with -v/-rA or on failure).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from property_laws import run_law
from qpskit import (AlgebraContext, GridRep, bargmann_generators, casimirs,
                    check_table, commutator, energy_momentum_constraint_check,
                    foldy_generators, lemma_suite, microcausality_check,
                    nw_evolution, parse_expr, pauli_lubanski,
                    total_time_derivative)
from qpskit.numcheck import (convergence_report, numeric_casimir_report,
                             numeric_lemma_report, numeric_pl_report,
                             numeric_table_report)

P = parse_expr


def _line(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{label}]: {status}{suffix}")
    assert ok, f"criterion {num} ({label}) failed{suffix}"


@pytest.fixture(scope="module")
def gens():
    return foldy_generators()


def test_criterion_1_symbolic_poincare_closure():
    t0 = time.perf_counter()
    gens = foldy_generators()
    rep = check_table(gens, "poincare")
    elapsed = time.perf_counter() - t0
    ok = len(rep.entries) == 100 and rep.failed == 0 and elapsed < 10.0
    _line(1, "symbolic Poincare closure, 100 entries",
          ok, f"{rep.passed}/100 in {elapsed:.1f} s")


def test_criterion_2_spinless_reduction(gens):
    rep = check_table(gens, "poincare_spinless")
    c1 = gens["H"] * gens["H"] - (gens["P1"] * gens["P1"] + gens["P2"] * gens["P2"]
                                  + gens["P3"] * gens["P3"])
    ok = len(rep.entries) == 100 and rep.failed == 0 and c1 == P("m^2")
    _line(2, "spinless (H,P,L,M) table with C1 = m^2", ok,
          f"{rep.passed}/100, C1 == m^2: {c1 == P('m^2')}")


def test_criterion_3_lemma_suite(gens):
    rep = lemma_suite(gens)
    ok = rep.failed == 0
    covariance_ok = True
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            c = commutator(gens[f"Q{i}"], gens[f"N{j}"])
            covariance_ok &= (not c.is_zero())
            covariance_ok &= c.substitute_spin_zero().is_zero()
    _line(3, "conservation/covariance lemma suite incl. covariance failure",
          ok and covariance_ok,
          f"{rep.passed} identities, [Q,N] nonzero iff spin on: {covariance_ok}")


def test_criterion_4_closure_iff_energy_momentum():
    good = energy_momentum_constraint_check(P("Lam*omega"))
    bad = energy_momentum_constraint_check(P("Lam*omega + P1"))
    ctx2 = AlgebraContext.get(2)
    scaled = energy_momentum_constraint_check(P("Lam*omega", ctx=ctx2))
    bad_has_residuals = bad.failed > 0 and all(
        e.residual not in ("", "0")
        for e in bad.entries if e.asserted and not e.passed)
    ok = good.failed == 0 and bad_has_residuals and scaled.failed == 0
    _line(4, "closure iff H^2 - P^2 central", ok,
          f"Lam*omega: {good.failed} fails; Lam*omega+P1: {bad.failed} fails; "
          f"sqrt(P^2+4m^2) form: {scaled.failed} fails")


def test_criterion_5_bargmann():
    bg = bargmann_generators()
    rep = check_table(bg, "bargmann")
    qc = all(commutator(bg[f"Q{i}"], bg[f"C{j}"]) ==
             (P("i*hbar*t") if i == j else P("0"))
             for i in (1, 2, 3) for j in (1, 2, 3))
    conserved = all(total_time_derivative(bg[f"C{i}"], bg["H"]).is_zero()
                    for i in (1, 2, 3))
    ok = rep.failed == 0 and qc and conserved
    _line(5, "Bargmann closure, central mass, [Q,C]=i*hbar*t, C conserved",
          ok, f"{rep.passed} checks")


def test_criterion_6_casimirs(gens):
    sym = casimirs(gens)
    pos_entry = next(e for e in sym.entries if e.id == "casimir2_spin[positive]")
    grid = GridRep(d=3, npts=32, pmax=2.0, m=1.0, s=Fraction(1, 2), tval=0.3)
    num = numeric_casimir_report(gens, grid, nstates=8, seed=0, tol=1e-6)
    worst = max(e.residual_norm for e in num.entries)
    ok = sym.failed == 0 and pos_entry.passed and num.failed == 0
    _line(6, "Casimirs: C2 = -m^2 S^2 symbolically, numeric W^2 spectrum",
          ok, f"numeric relative error {worst:.2e} <= 1e-6")


def test_criterion_7_numeric_cross_check(gens):
    t0 = time.perf_counter()
    grid_half = GridRep(d=3, npts=32, pmax=2.0, m=1.0, s=Fraction(1, 2), tval=0.3)
    grid_zero = GridRep(d=3, npts=32, pmax=2.0, m=1.0, s=0, tval=0.3)
    coarse = GridRep(d=3, npts=16, pmax=2.0, m=1.0, s=Fraction(1, 2), tval=0.3)
    reports = [
        numeric_table_report(gens, grid_half, "poincare", nstates=8, seed=0),
        numeric_table_report(gens, grid_zero, "poincare", nstates=8, seed=1),
        numeric_lemma_report(gens, grid_half, nstates=8, seed=2),
        numeric_pl_report(gens, grid_half, nstates=8, seed=3),
    ]
    conv = convergence_report(
        lambda gr: numeric_table_report(gens, gr, "poincare", nstates=4,
                                        seed=5, tol=np.inf),
        coarse, grid_half)
    elapsed = time.perf_counter() - t0
    failed = sum(r.failed for r in reports)
    worst = max(e.residual_norm for r in reports for e in r.entries)
    ok = failed == 0 and conv.failed == 0 and elapsed < 300.0
    _line(7, "numeric cross-check <= 1e-6 with spectral convergence", ok,
          f"worst residual {worst:.2e}, convergence {conv.passed}/"
          f"{conv.passed + conv.failed}, suite {elapsed:.0f} s < 300 s")


def test_criterion_8_hegerfeldt_and_microcausality():
    grid = GridRep(d=1, npts=4096, pmax=60.0, m=1.0, s=0)
    res = nw_evolution(0.0, 0.1, 5.0, grid)
    leak_ok = res.outside_cone_probability > 0
    slope_ok = -4.0 <= res.fitted_slope <= -1.0
    cgrid = GridRep(d=1, npts=2048, pmax=30.0, m=1.0, s=0)
    equal = microcausality_check((-2.0, -1.0), 0.0, (1.0, 2.0), 0.0, cgrid)
    moved = microcausality_check((-2.0, -1.0), 0.0, (1.0, 2.0), 1.0, cgrid)
    ok = leak_ok and slope_ok and equal <= 1e-10 and moved > 1e-6
    _line(8, "superluminal tail + projector microcausality failure", ok,
          f"outside-cone {res.outside_cone_probability:.2e}, slope "
          f"{res.fitted_slope:.2f} in [-4,-1], equal-time {equal:.1e}, "
          f"spacelike {moved:.1e}")


def test_criterion_9_fock_duality_and_expectations():
    from qpskit import fock_report
    reports = {suite: fock_report(suite, sites=8, nmax=3, seed=2, tol=1e-10)[0]
               for suite in ("duality", "spectrum", "expectation")}
    entries = sum(len(r.entries) for r in reports.values())
    failed = sum(r.failed for r in reports.values())
    diff = next(e for e in reports["expectation"].entries
                if e.id == "difference_formula")
    ok = entries == 19 and failed == 0
    _line(9, "Fock duality, ladder shift, spectrum, expectation difference",
          ok, f"{entries - failed}/19 entries, difference error "
              f"{diff.residual_norm:.1e} <= 1e-10")


@pytest.mark.parametrize("law", [
    "nf_idempotent", "bracket_antisymmetry_jacobi", "bracket_matches_products",
    "leibniz", "derivation_consistency", "sector_sign",
    "spin_matrix_homomorphism",
])
def test_criterion_10_engine_laws(law):
    cases = run_law(law, 1000)
    _line(10, f"engine law {law}", cases >= 1000, f"{cases} cases")
