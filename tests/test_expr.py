"""Normal ordering, commutators, adjoints, substitutions."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qpskit import (DEFAULT_CONTEXT, OperatorExpr, commutator, normal_form,
                    parse_expr, total_time_derivative)
from qpskit.expr import ExprError, _s_mul
from qpskit.grid import spin_matrices_numeric

P = parse_expr


def test_coefficients_move_left():
    # P1*Q1 is already coefficient-left; Q1*P1 picks up the derivation term
    assert P("Q1*P1") == P("P1*Q1 + i*hbar")
    assert P("Q1*P1 - P1*Q1") == P("i*hbar")


def test_spin_straightening():
    assert P("S2*S1") == P("S1*S2 - i*hbar*S3")
    assert P("S3*S1") == P("S1*S3 + i*hbar*S2")
    assert P("S3*S2") == P("S2*S3 - i*hbar*S1")


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(1), Fraction(3, 2)])
def test_straightened_spin_products_are_spin_matrix_products(s):
    """Every product of two spin monomials of total degree <= 6, straightened
    by ``_s_mul``, is the product of their spin matrices: an exhaustive
    companion to the random spin_matrix_homomorphism law."""
    hbar = 0.7
    mats = spin_matrices_numeric(s, hbar)
    values = [0.0, 0.0, 0.0, 1.0, 0.0, hbar, 0.0, 0.0]   # GEN_NAMES order

    def matrix(mono):
        out = np.eye(len(mats[0]), dtype=complex)
        for mat, e in zip(mats, mono):
            out = out @ np.linalg.matrix_power(mat, e)
        return out

    monos = [m for m in product(range(7), repeat=3) if sum(m) <= 6]
    pairs = [(a, b) for a in monos for b in monos if sum(a) + sum(b) <= 6]
    assert len(pairs) == 924
    for a, b in pairs:
        got = sum(co.evaluate(values, 0.0) * matrix(mono)
                  for mono, co in _s_mul(DEFAULT_CONTEXT, a, b).items())
        assert np.allclose(got, matrix(a) @ matrix(b), rtol=0, atol=1e-12), (a, b)


def test_sector_involution():
    assert P("Lam*Lam") == P("1")
    assert P("Lam^5") == P("Lam")
    assert P("(1+Lam)*(1-Lam)").is_zero()


def test_basic_commutators():
    assert P("[Q1,P1]") == P("i*hbar")
    assert P("[Q1,P2]").is_zero()
    assert P("[Q1,omega]") == P("i*hbar*P1/omega")
    assert P("[S1,Q2]").is_zero()
    assert P("[S1,P2]").is_zero()
    assert P("[Q2,Lam]").is_zero()


def test_q_commutes_with_q():
    assert P("[Q1,Q2]").is_zero()
    assert P("Q2*Q1") == P("Q1*Q2")


def test_derivation_higher_powers():
    # Q1^2 * f = f Q1^2 + 2 ihbar f' Q1 + (ihbar)^2 f''
    lhs = P("Q1^2*omega")
    rhs = P("omega*Q1^2 + 2*i*hbar*(P1/omega)*Q1") \
        + P("i*hbar") * P("i*hbar") * P("1/omega - P1^2/omega^3")
    assert lhs == rhs


def _top_leibniz_term_ok(axis, n, f):
    """Whether the Q-free part of [Q_axis^n, f] is (i*hbar)^n d^n f/dP_axis^n,
    the last Leibniz term of Q_axis^n f."""
    ctx = DEFAULT_CONTEXT
    d = f
    for _ in range(n):
        d = d.diff(axis)
    bracket = commutator(P(f"Q{axis}^{n}"), OperatorExpr.from_scalar(f, ctx))
    q_free = {m: c for m, c in bracket.terms.items() if m[:3] == (0, 0, 0)}
    return OperatorExpr(ctx, q_free) == \
        OperatorExpr.from_scalar(ctx.i_hbar() ** n * d, ctx)


def test_higher_leibniz_terms():
    ctx = DEFAULT_CONTEXT
    assert _top_leibniz_term_ok(1, 3, ctx.gen("omega"))
    assert _top_leibniz_term_ok(2, 4, P("P2^5/(P2^2 + m^2)").scalar_part())
    # every term of [Q1^3, omega] = sum_k C(3,k) (i hbar)^k omega^(k) Q1^(3-k)
    ih = P("i*hbar")
    d1 = P("P1/omega")
    d2 = P("1/omega - P1^2/omega^3")
    d3 = P("3*P1^3/omega^5 - 3*P1/omega^3")
    assert P("[Q1^3, omega]") == 3 * ih * d1 * P("Q1^2") \
        + 3 * ih * ih * d2 * P("Q1") + ih * ih * ih * d3


def test_higher_leibniz_terms_catch_a_truncated_shuffle(monkeypatch):
    """A shuffle that keeps only the Leibniz terms k <= 2 passes every
    declared suite; the pinned [Q1^3, omega] check must reject it."""
    from qpskit import expr
    shuffle = expr._q_shuffle
    monkeypatch.setattr(expr, "_q_shuffle", lambda ctx, qexp, coeff: [
        (beta, c) for beta, c in shuffle(ctx, qexp, coeff) if max(beta) <= 2])
    assert not _top_leibniz_term_ok(1, 3, DEFAULT_CONTEXT.gen("omega"))


def test_brackets_with_spin():
    assert P("[Q1*S1, S2]") == P("i*hbar*Q1*S3")
    assert P("[S1^2, S2]") == P("2*i*hbar*S1*S3 - hbar^2*S2")
    assert P("[Q1*S1*S2*Lam, omega*S3]") == \
        P("i*hbar*omega*Q1*(S1^2 - S2^2)*Lam + i*hbar*(P1/omega)*S1*S2*S3*Lam")
    # equal or unit spin monomials commute, so only the Leibniz tail is left
    assert P("[Q2^2*S1*S3, omega*S1*S3]") == \
        P("(Q2^2*omega - omega*Q2^2)*S1*S3*S1*S3")
    assert P("[S1*S2, omega]").is_zero()


def test_normal_form_idempotent_and_zero_unique():
    e = P("Q1*S2*Lam*omega - S2*Q1*omega*Lam")
    assert e.is_zero()
    assert normal_form(P("K1 + 0*Q1", {"K1": P("Q1")})) == P("Q1")


def test_adjoint_involution_and_self_adjointness():
    e = P("(2+3*i)*Q1^2*S2*Lam + i*hbar*S1*S3")
    assert e.adjoint().adjoint() == e
    for g in ("Q1", "Q2", "Q3", "S1", "S2", "S3", "Lam", "P1", "omega", "m"):
        assert P(g).adjoint() == P(g)
    # anti-homomorphism: (ab)^dag = b^dag a^dag
    a, b = P("Q1*S2 + omega*Lam"), P("S1*P2 - i*hbar*Q3")
    assert (a * b).adjoint() == b.adjoint() * a.adjoint()


def test_sym_product_self_adjoint():
    a, b = P("Q1"), P("Lam*omega")
    e = (a * b + b * a) * Fraction(1, 2)
    assert e.adjoint() == e


def test_spin_zero_substitution():
    e = P("S1*P2 + Q1*omega + S3^2")
    assert e.substitute_spin_zero() == P("Q1*omega")


def test_total_time_derivative():
    h = P("Lam*omega")
    assert total_time_derivative(P("Q1"), h) == P("Lam*P1/omega")
    assert total_time_derivative(P("P2"), h).is_zero()
    # explicitly time-dependent: d(t*P1)/dt = P1
    assert total_time_derivative(P("t*P1"), h) == P("P1")


def test_invert_rules():
    assert P("1/(Lam*omega)") == P("Lam/omega")
    assert P("(Lam*omega)^-1 * (Lam*omega)") == P("1")
    with pytest.raises(Exception):
        P("1/(Q1)")
    with pytest.raises(Exception):
        P("1/(omega + Lam)")      # two-term operator, not invertible here


def test_inverting_zero_names_its_cause():
    zero = P("P1 - P1")
    for divide in (zero.invert, lambda: P("omega") / zero, lambda: zero ** -1):
        with pytest.raises(ExprError, match="^the divisor is zero$"):
            divide()


def test_casimir_reduction_flag():
    ctx = DEFAULT_CONTEXT
    s_sq = P("S1^2 + S2^2 + S3^2")
    half = Fraction(1, 2)
    reduced = normal_form(s_sq, casimir_spin=half)
    assert reduced == P("(3/4)*hbar^2")
    # idempotent and consistent with multiplication
    again = normal_form(reduced, casimir_spin=half)
    assert again == reduced
    prod = normal_form(s_sq * s_sq, casimir_spin=1)
    assert prod == P("4*hbar^4")


def test_context_mixing_rejected():
    from qpskit import AlgebraContext
    ctx2 = AlgebraContext.get(2)
    with pytest.raises(ExprError):
        _ = P("Q1") + P("Q1", ctx=ctx2)
