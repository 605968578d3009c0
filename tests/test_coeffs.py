"""Exact coefficient arithmetic: canonical forms, inversion, derivations."""

import math
import random
from fractions import Fraction

import pytest
from sympy.polys.domains import QQ

from qpskit.coeffs import (AlgebraContext, CoeffError, DEFAULT_CONTEXT,
                           _reduce, scalar_sqrt)

ctx = DEFAULT_CONTEXT
w = ctx.gen("omega")
m = ctx.gen("m")
p1, p2, p3 = ctx.gen("P1"), ctx.gen("P2"), ctx.gen("P3")
hbar = ctx.gen("hbar")
i = ctx.imag_unit()

SAMPLE = [0.37, -0.82, 0.55, 1.3, 0.0, 1.0, 1.0, 0.0]   # P1,P2,P3,m,t,hbar,...


def num(c, vals=SAMPLE):
    om = math.sqrt(vals[0]**2 + vals[1]**2 + vals[2]**2 + vals[3]**2)
    return c.evaluate(vals, om)


def test_omega_square_reduces():
    assert w * w == p1 * p1 + p2 * p2 + p3 * p3 + m * m


def test_canonical_equality_and_hash():
    a = (p1 * p2 + m) / (p1 - m)
    b = ((p1 * p2 + m) * (p1 + m)) / ((p1 - m) * (p1 + m))
    assert a == b
    assert hash(a) == hash(b)
    assert a - b == 0


def test_inversion_total_and_involutive():
    for x in [w, w + m, m, p1 + i * m, 2 * w - 3 * p2, (w + m) * (w + m)]:
        inv = x.inv()
        assert x * inv == ctx.scalar(1)
        assert inv.inv() == x
    with pytest.raises(CoeffError):
        ctx.zero_coeff().inv()


def test_elimination_of_omega_denominator():
    # 1/(omega+m) = (omega-m)/P^2 after rationalization
    lhs = (w + m).inv()
    rhs = (w - m) / (p1 * p1 + p2 * p2 + p3 * p3)
    assert lhs == rhs


def finite_difference(c, axis, vals, h=1e-6):
    up = list(vals)
    dn = list(vals)
    up[axis - 1] += h
    dn[axis - 1] -= h
    return (num(c, up) - num(c, dn)) / (2 * h)


@pytest.mark.parametrize("expr,axis", [
    (w, 1), (w, 2), ((w + m).inv(), 1), ((w + m).inv(), 3),
    (p1 * w / (m + w), 2), (w.inv(), 1), ((p2 + w) * (p2 + w), 2),
])
def test_derivative_against_finite_differences(expr, axis):
    exact = num(expr.diff(axis))
    approx = finite_difference(expr, axis, SAMPLE)
    assert exact == pytest.approx(approx, rel=1e-7, abs=1e-8)


def test_derivative_closed_forms():
    # d omega / dP1 = P1/omega
    assert w.diff(1) == p1 / w
    # d (1/(omega+m)) / dP1 = -P1/(omega*(omega+m)^2)
    assert (w + m).inv().diff(1) == -p1 * (w * (w + m) * (w + m)).inv()
    assert not m.diff(1)


def test_derivative_linearity_product_quotient():
    a = p1 * w + m
    b = (w + m).inv() * p2
    assert (a + b).diff(1) == a.diff(1) + b.diff(1)
    assert (a * b).diff(1) == a.diff(1) * b + a * b.diff(1)
    q = a / b
    assert q.diff(1) == (a.diff(1) * b - a * b.diff(1)) / (b * b)


def test_time_derivative():
    t = ctx.gen("t")
    assert (t * p1 + m).dt() == p1
    assert not w.dt()


def test_conjugation():
    x = p1 + i * hbar * w
    assert x.conjugate() == p1 - i * hbar * w
    assert x.conjugate().conjugate() == x
    assert (x * x.conjugate()).is_real()


def test_scalar_sqrt():
    assert scalar_sqrt(w * w) == w
    assert scalar_sqrt(ctx.scalar(Fraction(9, 4)) * m * m) == ctx.scalar(Fraction(3, 2)) * m
    assert scalar_sqrt(p1 * p2) is None
    assert scalar_sqrt(ctx.scalar(4) * w * w) == ctx.scalar(2) * w


def test_mass_factor_context():
    ctx2 = AlgebraContext.get(2)
    w2 = ctx2.gen("omega")
    expected = (ctx2.gen("P1")**2 + ctx2.gen("P2")**2 + ctx2.gen("P3")**2
                + ctx2.scalar(4) * ctx2.gen("m")**2)
    assert w2 * w2 == expected
    with pytest.raises(CoeffError):
        _ = w + w2            # contexts must not mix


def test_numeric_evaluation_matches_python():
    x = (p1 * p1 - m * w) / (w + m)
    om = math.sqrt(SAMPLE[0]**2 + SAMPLE[1]**2 + SAMPLE[2]**2 + SAMPLE[3]**2)
    direct = (SAMPLE[0]**2 - SAMPLE[3] * om) / (om + SAMPLE[3])
    assert num(x) == pytest.approx(direct, rel=1e-13)


# -- fraction reduction over the factor registry ------------------------------


def _random_poly(rng, ring, pool, nfactors):
    """A random rational constant times a product of pool factors, plus an
    occasional extra term so the result need not factor at all."""
    p = ring.ground_new(QQ(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 4])))
    for _ in range(nfactors):
        p *= rng.choice(pool)
    if rng.random() < 0.2:
        p += ring.gens[rng.randrange(8)] * rng.randint(-2, 2)
    return p


def test_reduce_matches_cancel_on_random_pairs():
    """Seeded: trial division over the registry returns exactly the
    (numer, denom) pair of sympy's GCD-based cancel."""
    fresh = AlgebraContext(1)
    ring = fresh.ring
    P1, P2, P3, mm, t, hb, M, E0 = ring.gens
    seeded = list(fresh.factors)
    outside = [P1 + mm, P1 - 2 * P2, 3 * P1**2 - P2**2 - mm**2, hb * t + 1,
               P1 * P2 + E0, M - mm]
    pool = seeded + outside
    rng = random.Random(20240917)
    cases = 0
    for _ in range(1200):
        common = _random_poly(rng, ring, pool, rng.randint(0, 2))
        n = common * _random_poly(rng, ring, pool, rng.randint(0, 3))
        # the denominator arrives whole or as two parts, as products do
        parts = [common * _random_poly(rng, ring, pool, rng.randint(0, 2))]
        if rng.random() < 0.5:
            parts.append(_random_poly(rng, ring, pool, rng.randint(0, 2)))
        if not all(parts):
            continue
        d = parts[0] * parts[1] if len(parts) == 2 else parts[0]
        want = n.cancel(d) if n else (ring.zero, ring.one)
        got = _reduce(fresh, n, *parts)
        assert got == want, (n, parts)
        cases += 1
    assert cases >= 1000
    grown = [f for f in fresh.factors if f not in seeded]
    assert grown, "no denominator outside the seed registry was registered"


def test_registry_holds_irreducible_factors():
    fresh = AlgebraContext(1)
    c = fresh.gen("P1") + fresh.gen("m")
    _ = (fresh.scalar(3) * fresh.gen("omega") - c * c).inv() * c.inv()
    assert len(fresh.factors) > 10
    for f in fresh.factors:
        assert not f.is_ground
        _, split = f.factor_list()
        assert len(split) == 1 and split[0][1] == 1, f


def test_mass_factor_seeds_and_separate_registries():
    ctx2 = AlgebraContext(2)
    P1, P2, P3, mm = ctx2.ring.gens[:4]
    assert P1**2 + P2**2 + P3**2 + 4 * mm**2 in ctx2.factors
    assert P1**2 + P2**2 + P3**2 + mm**2 not in ctx2.factors
    ctx1 = AlgebraContext(1)
    before = list(ctx2.factors)
    _ = (ctx1.gen("P1") + ctx1.gen("m")).inv()
    assert len(ctx1.factors) == len(before) + 1
    assert ctx2.factors == before
    assert ctx1.factors is not ctx2.factors
    assert ctx1.factorizations is not ctx2.factorizations


def test_hot_constants_are_shared():
    assert ctx.scalar(3) is ctx.scalar(3)
    assert ctx.scalar(Fraction(1, 2)) is ctx.scalar(Fraction(2, 4))
    assert ctx.scalar(Fraction(-3, 4)) == ctx.scalar(-3) / ctx.scalar(4)
    assert ctx.i_hbar() is ctx.i_hbar()
    assert ctx.i_hbar() == i * hbar
