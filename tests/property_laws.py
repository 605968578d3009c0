"""Seeded random-expression generators and the algebraic law runners.

``run_law(name, cases, seed)`` executes one law over ``cases`` random
inputs and raises AssertionError with a reproducible seed on violation.
The acceptance suite runs each law at >= 1000 cases; the unit tests use
smaller counts for quick feedback.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import eval_spin_matrices
from qpskit import (DEFAULT_CONTEXT, OperatorExpr, commutator, normal_form,
                    parse_expr, render_expr)

ctx = DEFAULT_CONTEXT

_ATOMS = ("Q1", "Q2", "Q3", "S1", "S2", "S3", "Lam",
          "P1", "P2", "P3", "omega", "m", "hbar", "t", "i")

_SCALAR_ATOMS = ("P1", "P2", "P3", "omega", "m", "hbar", "t", "i")


def random_scalar(rng: random.Random, depth=2):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.35:
            return ctx.scalar(rng.randint(-3, 3))
        name = rng.choice(_SCALAR_ATOMS)
        return ctx.gen(name)
    a = random_scalar(rng, depth - 1)
    b = random_scalar(rng, depth - 1)
    op = rng.random()
    if op < 0.4:
        return a + b
    if op < 0.8:
        return a * b
    if b:
        return a / b
    return a - b


def random_expr(rng: random.Random, depth=3, max_terms=24) -> OperatorExpr:
    if depth == 0 or rng.random() < 0.25:
        choice = rng.random()
        if choice < 0.2:
            return OperatorExpr.from_scalar(ctx.scalar(rng.randint(-2, 2)), ctx)
        return OperatorExpr.generator(rng.choice(_ATOMS), ctx)
    a = random_expr(rng, depth - 1, max_terms)
    b = random_expr(rng, depth - 1, max_terms)
    op = rng.random()
    if op < 0.45:
        out = a + b
    elif op < 0.9:
        out = a * b
    else:
        out = a - b
    if len(out.terms) > max_terms:
        return a
    return out


# Coefficients whose higher P-derivatives do not vanish, for Q powers 3-4.
# Each fourth derivative of 1/(omega+m) costs about 20 ms, so it is drawn
# less often than omega and 1/P.P.
_BRACKET_SCALARS = (
    ctx.gen("omega"),
    (ctx.gen("P1") ** 2 + ctx.gen("P2") ** 2 + ctx.gen("P3") ** 2).inv(),
    (ctx.gen("omega") + ctx.gen("m")).inv(),
)


def random_bracket_term(rng: random.Random) -> OperatorExpr:
    """One term c * Q^q * S^s * Lam^l, biased toward a Q power of 3 or 4
    next to omega, 1/P.P or 1/(omega+m) and a spin monomial of degree >= 2."""
    q = [0, 0, 0]
    q[rng.randrange(3)] = rng.choice((0, 1, 2, 3, 3, 3, 4))
    s = [0, 0, 0]
    for _ in range(rng.choice((0, 1, 2, 2, 3, 3))):
        s[rng.randrange(3)] += 1
    c = rng.choices(_BRACKET_SCALARS, (4, 4, 1))[0]
    c = c * ctx.scalar(rng.choice((-2, -1, 1, 3)))
    if rng.random() < 0.3:
        c = c * ctx.gen(rng.choice(("P1", "P2", "P3", "m", "t")))
    return OperatorExpr(ctx, {tuple(q) + tuple(s) + (rng.randint(0, 1),): c})


def random_bracket_expr(rng: random.Random) -> OperatorExpr:
    """One biased term, two of them, or now and then an ordinary random
    expression."""
    draw = rng.random()
    if draw < 0.15:
        return random_expr(rng, depth=2)
    out = random_bracket_term(rng)
    return out + random_bracket_term(rng) if draw < 0.4 else out


def random_word(rng: random.Random, length):
    return [rng.choice(_ATOMS) for _ in range(length)]


def _fold_word(word, order):
    """Multiply the atoms of ``word`` into an expression following a random
    association order; every order must land on the same normal form."""
    exprs = [OperatorExpr.generator(a, ctx) for a in word]
    while len(exprs) > 1:
        k = order.randrange(len(exprs) - 1)
        merged = exprs[k] * exprs[k + 1]
        exprs = exprs[:k] + [merged] + exprs[k + 2:]
    return exprs[0]


# -- individual laws -------------------------------------------------------------


def law_nf_idempotent(rng):
    e = random_expr(rng, depth=rng.randint(1, 4))
    assert normal_form(e) == e
    # confluence: two association orders of one word agree
    word = random_word(rng, rng.randint(2, 5))
    e1 = _fold_word(word, random.Random(rng.random()))
    e2 = _fold_word(word, random.Random(rng.random()))
    assert e1 == e2


def law_bracket_antisymmetry_jacobi(rng):
    a = random_expr(rng, depth=2)
    b = random_expr(rng, depth=2)
    c = random_expr(rng, depth=1)
    assert (commutator(a, b) + commutator(b, a)).is_zero()
    jac = commutator(a, commutator(b, c)) + commutator(b, commutator(c, a)) \
        + commutator(c, commutator(a, b))
    assert jac.is_zero()


def law_bracket_matches_products(rng):
    a = random_bracket_expr(rng)
    b = random_bracket_expr(rng)
    assert commutator(a, b) == a * b - b * a


def law_leibniz(rng):
    a = random_expr(rng, depth=2)
    b = random_expr(rng, depth=2)
    c = random_expr(rng, depth=2)
    lhs = commutator(a, b * c)
    rhs = commutator(a, b) * c + b * commutator(a, c)
    assert (lhs - rhs).is_zero()


def law_derivation_consistency(rng):
    r = random_scalar(rng, depth=rng.randint(1, 3))
    axis = rng.randint(1, 3)
    q = OperatorExpr.generator(f"Q{axis}", ctx)
    scal = OperatorExpr.from_scalar(r, ctx)
    ih = OperatorExpr.from_scalar(ctx.i_hbar(), ctx)
    lhs = commutator(q, scal)
    rhs = ih * OperatorExpr.from_scalar(r.diff(axis), ctx)
    assert (lhs - rhs).is_zero()


def law_sector_sign(rng):
    # the sector-free identities read Lam as a central involution
    a = random_expr(rng, depth=2)
    b = random_expr(rng, depth=2)
    lam = OperatorExpr.generator("Lam", ctx)
    assert lam * a == a * lam
    assert lam * (lam * a) == a
    # associativity of any three expressions
    c = random_expr(rng, depth=1)
    assert ((a * b) * c - a * (b * c)).is_zero()


def law_spin_matrix_homomorphism(rng):
    a = random_expr(rng, depth=2, max_terms=10)
    b = random_expr(rng, depth=1, max_terms=10)
    s = rng.choice((Fraction(1, 2), Fraction(1)))
    ma = eval_spin_matrices(a, s)
    mb = eval_spin_matrices(b, s)
    mab = eval_spin_matrices(a * b, s)
    dim = int(2 * s + 1)
    for r in range(dim):
        for col in range(dim):
            acc = OperatorExpr.zero(ctx)
            for k in range(dim):
                acc = acc + ma[r][k] * mb[k][col]
            assert acc == mab[r][col]


def law_adjoint_involution(rng):
    a = random_expr(rng, depth=2)
    b = random_expr(rng, depth=2)
    assert a.adjoint().adjoint() == a
    assert (a * b).adjoint() == b.adjoint() * a.adjoint()


def law_parse_render_roundtrip(rng):
    e = random_expr(rng, depth=rng.randint(1, 3))
    assert parse_expr(render_expr(e)) == e


LAWS = {
    "nf_idempotent": law_nf_idempotent,
    "bracket_antisymmetry_jacobi": law_bracket_antisymmetry_jacobi,
    "bracket_matches_products": law_bracket_matches_products,
    "leibniz": law_leibniz,
    "derivation_consistency": law_derivation_consistency,
    "sector_sign": law_sector_sign,
    "spin_matrix_homomorphism": law_spin_matrix_homomorphism,
    "adjoint_involution": law_adjoint_involution,
    "parse_render_roundtrip": law_parse_render_roundtrip,
}


def run_law(name, cases, seed=20240901):
    law = LAWS[name]
    for k in range(cases):
        case_seed = f"{seed}:{name}:{k}"
        rng = random.Random(case_seed)
        try:
            law(rng)
        except AssertionError as exc:
            raise AssertionError(
                f"law {name} violated at case {k} (seed {case_seed!r})") from exc
    return cases
