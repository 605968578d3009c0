"""Exact coefficient arithmetic: canonical forms, inversion, derivations."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from sympy.polys.domains import QQ, ZZ
from sympy.polys.rings import ring as sympy_ring

from property_laws import random_scalar
from qpskit.coeffs import (AlgebraContext, CoeffError, DEFAULT_CONTEXT, GEN_NAMES,
                           MAX_EXPONENT, Poly, ScalarCoeff, _SHIFT, _exquo, _factorization,
                           _fadd, _fdiff, _fmul, _gcd, _gens_of, _is_ground, _pmul,
                           _primitive, _prsgcd, _reduce, _squarefree, _unpack, scalar_sqrt)
from qpskit.parser import _render_poly

ctx = DEFAULT_CONTEXT
w = ctx.gen("omega")
m = ctx.gen("m")
p1, p2, p3 = ctx.gen("P1"), ctx.gen("P2"), ctx.gen("P3")
hbar = ctx.gen("hbar")
i = ctx.imag_unit()

SAMPLE = [0.37, -0.82, 0.55, 1.3, 0.0, 1.0, 1.0, 0.0]   # P1,P2,P3,m,t,hbar,...


def _pack(exponents):
    """Packed monomial of ``exponents``, in GEN_NAMES order."""
    assert all(0 <= e <= MAX_EXPONENT for e in exponents)
    return sum(e << s for e, s in zip(exponents, _SHIFT))


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


def test_constants_hash_as_their_numbers():
    """A rational constant equals its int or Fraction, so it must hash as
    one: sets and dicts find it under either key."""
    for value in (0, 1, -3, Fraction(1, 2), Fraction(-7, 4)):
        c = ctx.scalar(value)
        assert c == value and hash(c) == hash(value)
        assert value in {c} and c in {value}
        assert {c: "c"}[value] == "c" and {value: "v"}[c] == "v"
    assert hash(ctx.scalar(2) * w) != hash(2)


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


def _moved(c, into):
    """c as an element of the context ``into``, of the same mass factor."""
    return ScalarCoeff(into, *c.components())


def test_table_reads_equal_fresh_computations():
    """Seeded: a product or a derivative read back from a context's tables,
    under operands equal to but not identical with the stored ones, equals
    the same operation in a fresh context, outside any evaluation."""
    rng = random.Random(20241019)
    memo = AlgebraContext(1)
    with memo.evaluation():
        for _ in range(300):
            a, b = random_scalar(rng), random_scalar(rng)
            axis = rng.choice((1, 2, 3))
            stored = _moved(a, memo) * _moved(b, memo), _moved(a, memo).diff(axis)
            x, y = _moved(a, memo), _moved(b, memo)
            assert (x, y) in memo.products and (x, axis) in memo.derivatives
            read = x * y, x.diff(axis)
            assert read[0] is stored[0] and read[1] is stored[1]
            fresh = AlgebraContext(1)
            want = _moved(a, fresh) * _moved(b, fresh), _moved(a, fresh).diff(axis)
            assert fresh.products is None
            assert [r.components() for r in read] == [r.components() for r in want]
    assert memo.products is None and memo.derivatives is None and memo.texts is None


def test_nested_evaluation_shares_the_tables():
    ctx = AlgebraContext(1)
    with ctx.evaluation():
        outer = ctx.products, ctx.derivatives, ctx.texts
        with ctx.evaluation():
            inner = ctx.products, ctx.derivatives, ctx.texts
            assert all(a is b for a, b in zip(inner, outer))
        assert ctx.texts is outer[2]
    assert ctx.products is None and ctx.derivatives is None and ctx.texts is None


def test_each_coefficient_is_rendered_once_per_evaluation(monkeypatch):
    """Inside an evaluation render_scalar keys its text by coefficient: an
    equal coefficient reads the stored text, which is the text rendered
    outside any evaluation, and the table goes when the evaluation ends."""
    import qpskit.parser as parser
    rng = random.Random(20261020)
    coeffs = [random_scalar(rng) for _ in range(40)]
    plain = [parser.render_scalar(c) for c in coeffs]
    rendered = []
    real = parser._render_scalar

    def spy(c):
        rendered.append(c)
        return real(c)

    monkeypatch.setattr(parser, "_render_scalar", spy)
    memo = AlgebraContext(1)
    with memo.evaluation():
        texts = [parser.render_scalar(_moved(c, memo)) for c in coeffs]
        again = [parser.render_scalar(_moved(c, memo)) for c in coeffs]
        assert texts == plain
        assert all(a is t for a, t in zip(again, texts))
        assert len(rendered) == len(set(texts)) == len(memo.texts)
    assert memo.texts is None
    parser.render_scalar(_moved(coeffs[0], memo))
    assert len(rendered) == len(set(texts)) + 1


class _AxisBlind(dict):
    """A derivative table that keys by the coefficient alone."""

    def get(self, key, default=None):
        return super().get(key[0], default)

    def __setitem__(self, key, value):
        super().__setitem__(key[0], value)


def _check_axes_kept_apart(ctx):
    """In an open evaluation of ctx: the derivatives of one coefficient
    along two axes are told apart, and both are read back from the table."""
    c = ctx.gen("P1") * ctx.gen("P2") ** 2 / (ctx.gen("omega") + ctx.gen("m"))
    d1, d2 = c.diff(1), c.diff(2)
    assert d1 != d2
    assert c.diff(1) is d1 and c.diff(2) is d2
    assert d1 == c._diff(1) and d2 == c._diff(2)


def test_derivative_table_keys_the_axis():
    ctx = AlgebraContext(1)
    with ctx.evaluation():
        _check_axes_kept_apart(ctx)


def test_axis_blind_derivative_table_is_caught():
    mutant = AlgebraContext(1)
    with mutant.evaluation():
        mutant.derivatives = _AxisBlind()
        with pytest.raises(AssertionError):
            _check_axes_kept_apart(mutant)


def test_time_derivative():
    t = ctx.gen("t")
    assert (t * p1 + m).dt() == p1
    assert not w.dt()


def test_conjugation():
    x = p1 + i * hbar * w
    assert x.conjugate() == p1 - i * hbar * w
    assert x.conjugate().conjugate() == x
    z = x * x.conjugate()
    assert z == z.conjugate()


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
#
# sympy is the oracle here; its polynomials are converted at the boundary.

RING = sympy_ring(",".join(GEN_NAMES), QQ)[0]
P1, P2, P3, MM, T, HB, MMASS, E0 = RING.gens
# denominator factors outside the seeded registry; 3*P1^2 - P2^2 - m^2 has
# degree 2 in each of its generators, so no linear certificate covers it
OUTSIDE = [P1 + MM, P1 - 2 * P2, 3 * P1**2 - P2**2 - MM**2, HB * T + 1,
           P1 * P2 + E0, MMASS - MM]
# a cubic of degree at least 2 in every generator it has
CUBIC = P1**2 * P2 + P1 * P2**2 + MM**3 - 2 * P1 * MM**2


def to_sympy(p, ring=RING):
    return ring.from_dict({_unpack(k): c for k, c in p.items()})


def from_sympy(p):
    """(Poly, den): integer coefficients with p = Poly / den, den > 0."""
    den = math.lcm(*(int(c.denominator) for c in p.values())) if p else 1
    return Poly({_pack(m): int(c.numerator) * (den // int(c.denominator))
                 for m, c in p.items()}), den


def exact(p):
    poly, den = from_sympy(p)
    assert den == 1, p
    return poly


def _random_poly(rng, ring, pool, nfactors):
    """A random rational constant times a product of pool factors, plus an
    occasional extra term so the result need not factor at all."""
    p = ring.ground_new(QQ(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 4])))
    for _ in range(nfactors):
        p *= rng.choice(pool)
    if rng.random() < 0.2:
        p += ring.gens[rng.randrange(8)] * rng.randint(-2, 2)
    return p


def _reduce_sympy(ctx, n, parts):
    """_reduce on rational-coefficient sympy operands: n/(part0*part1*...)
    is rewritten as integer polynomials, the parts' denominators moved up
    and the numerator's moved down as one more (constant) part."""
    scale = 1
    dens = []
    for part in parts:
        poly, den = from_sympy(part)
        dens.append(poly)
        scale *= den
    numer, den = from_sympy(n * scale)
    if den != 1:
        dens.append(Poly({0: den}))
    return _reduce(ctx, numer, *dens)


def test_reduce_matches_cancel_on_random_pairs():
    """Seeded: trial division over the registry returns exactly the
    (numer, denom) pair of sympy's GCD-based cancel."""
    fresh = AlgebraContext(1)
    ring = RING
    seeded = list(fresh.factors)
    pool = [to_sympy(f) for f in seeded] + OUTSIDE
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
        got = _reduce_sympy(fresh, n, parts)
        assert got == tuple(exact(w) for w in want), (n, parts)
        cases += 1
    assert cases >= 1000
    grown = [f for f in fresh.factors if f not in seeded]
    assert grown, "no denominator outside the seed registry was registered"
    assert _rests(fresh), "no cached factorization names an unregistered rest"
    _assert_coprime_squarefree(fresh)
    _assert_factorizations_current(fresh)


def _quotient_rule(n, d, x):
    """sympy's (n/d)': the quotient rule over d^2, then cancel."""
    return _cancelled(n.diff(x) * d - n * d.diff(x), d * d)


def test_derivative_over_radical_matches_sympy():
    """Seeded: _fdiff, over d times the radical of d, returns the pair of
    sympy's quotient rule over d^2 and cancel, for first and second
    derivatives, rests and a rest named apart from its factor included."""
    ctx = AlgebraContext(1)
    pool = [to_sympy(f) for f in ctx.factors] + OUTSIDE + [CUBIC]
    u, v = 3 * P1**2 - P2**2 - MM**2, P1**2 + 2 * P2**2 - 5 * MM**2
    U, UV = exact(u), exact(u * v)
    apart = _fmul(ctx, (exact(P3), U), _reduce_sympy(ctx, P2, [u * v]))
    assert dict(_factorization(ctx, apart[1])[1]) == {UV: 1, U: 1}
    fractions = [_reduce_sympy(ctx, RING.one, [u * u]), apart]
    rng = random.Random(20241019)
    while len(fractions) < 150:
        n = _random_poly(rng, RING, pool, rng.randint(0, 2))
        d = _random_poly(rng, RING, pool, rng.randint(1, 3))
        if n and d:
            fractions.append(_reduce_sympy(ctx, n, [d]))
    cases = 0
    for fr in fractions:
        gi = rng.randrange(5)
        x = RING.gens[gi]
        for _ in range(2):
            n, d = to_sympy(fr[0]), to_sympy(fr[1])
            fr = _fdiff(ctx, fr, gi)
            assert fr == _quotient_rule(n, d, x), (n, d, x)
            cases += 1
    assert cases == 300
    _assert_factorizations_current(ctx)


@lru_cache(maxsize=None)
def _subring(used):
    return sympy_ring(",".join(GEN_NAMES[g] for g in used), ZZ)[0]


def _in(p, used):
    """p in sympy's ring over the generators ``used`` only: its dense
    multivariate arithmetic is far slower over all eight."""
    return _subring(used).from_dict(
        {tuple(_unpack(k)[g] for g in used): c for k, c in p.items()})


def _normal(p):
    """Primitive, with a positive leading coefficient."""
    p = p.primitive()[1]
    return -p if p.LC < 0 else p


def _assert_coprime_squarefree(ctx):
    """The registry holds primitive, squarefree, irreducible factors with
    positive leading coefficients, none dividing another, so every two are
    coprime. sympy is the oracle."""
    for f in ctx.factors:
        assert math.gcd(*f.values()) == 1 and f[max(f)] > 0, f
        assert _in(f, tuple(_gens_of(f))).is_squarefree, f
        _, split = _in(f, tuple(_gens_of(f))).factor_list()
        assert len(split) == 1 and split[0][1] == 1, f
        assert all(_exquo(g, f) is None for g in ctx.factors if g is not f), f


def _rests(ctx):
    """The factors cached factorizations name that the registry does not
    hold."""
    return {f for _, fac in ctx.factorizations.values() for f, _ in fac
            if f not in ctx.factors}


def _assert_factorizations_current(ctx):
    """Every cached factorization names primitive factors with positive
    leading coefficients, and its product is the polynomial it was cached
    for."""
    for p, (content, fac) in ctx.factorizations.items():
        prod = RING(content)
        for f, e in fac:
            assert math.gcd(*f.values()) == 1 and f[max(f)] > 0, (p, f)
            prod *= to_sympy(f) ** e
        assert prod == to_sympy(p), p


def test_gcd_and_squarefree_split_match_sympy():
    """Seeded: the heuristic gcd, the pseudo-remainder fallback run on its
    own, and Yun's squarefree split give sympy's gcd and sqf_list."""
    pool = [to_sympy(f) for f in AlgebraContext(1).factors] + OUTSIDE + [CUBIC]
    rng = random.Random(20261019)
    cases = 0
    for _ in range(1100):
        common = _random_poly(rng, RING, pool, rng.randint(0, 2))
        f = from_sympy(common * _random_poly(rng, RING, pool, rng.randint(0, 2)))[0]
        g = from_sympy(common * _random_poly(rng, RING, pool, rng.randint(0, 2)))[0]
        if not f or not g:
            continue
        used = tuple(_gens_of(f, g))
        want = _normal(_in(f, used).gcd(_in(g, used)))
        assert _in(_gcd(f, g), used) == want, (f, g)
        if cases % 8 == 0 and not (_is_ground(f) or _is_ground(g)):
            assert _in(_prsgcd(f, g), used) == want, (f, g)
        if not _is_ground(f):
            p = _primitive(f)
            parts: dict = {}
            for s, e in _squarefree(p):
                parts[e] = parts.get(e, 1) * _in(s, used)
            assert parts == {e: _normal(s) for s, e in _in(p, used).sqf_list()[1]}, f
        cases += 1
    assert cases >= 1000


def _cancelled(n, d):
    return tuple(exact(w) for w in n.cancel(d))


def test_linear_certificate_splits_off_its_content():
    """A squarefree part linear in P2, whose coefficients in P2 share
    P1^2 + 1, is split there: P2 + P1 is certified irreducible and
    P1^2 + 1, which no linear certificate covers, is a rest."""
    a = (P1**2 + 1) * (P2 + P1)
    d = a * a * (P2**5 + P1 + 1)
    ctx = AlgebraContext(1)
    assert _reduce_sympy(ctx, P3, [d]) == _cancelled(P3, d)
    assert exact(P2 + P1) in ctx.factors and _rests(ctx) == {exact(P1**2 + 1)}
    _assert_coprime_squarefree(ctx)


def test_rest_is_reduced_when_a_product_arrives_apart():
    """Two factors no linear certificate covers arrive first as one product
    and later apart: every result is cancel's, reached by gcd against the
    product, which stays an unregistered rest, as do its factors."""
    u, v = 3 * P1**2 - P2**2 - MM**2, P1**2 + 2 * P2**2 - 5 * MM**2
    U, V, UV = exact(u), exact(v), exact(u * v)
    seeds = list(AlgebraContext(1).factors)
    # _reduce: u alone is a rest of its own
    ctx = AlgebraContext(1)
    assert _reduce_sympy(ctx, P3, [u * v]) == _cancelled(P3, u * v)
    assert _rests(ctx) == {UV}
    assert _reduce_sympy(ctx, P3, [u]) == _cancelled(P3, u)
    assert _rests(ctx) == {UV, U} and list(ctx.factors) == seeds
    _assert_factorizations_current(ctx)

    # two parts, the numerator sharing v with the first one's rest
    ctx = AlgebraContext(1)
    assert _reduce_sympy(ctx, P3 * v, [u * v, u]) == _cancelled(P3, u * u)
    assert _rests(ctx) == {UV, U} and list(ctx.factors) == seeds
    _assert_factorizations_current(ctx)

    # a numerator that shares u with the rest: gcd leaves v
    ctx = AlgebraContext(1)
    _reduce_sympy(ctx, P3, [u * v])
    assert _reduce_sympy(ctx, u * P3, [u * v]) == _cancelled(P3, v)
    assert _rests(ctx) == {UV, V} and list(ctx.factors) == seeds
    _assert_factorizations_current(ctx)

    # a product whose denominators name the rest and its factor u
    ctx = AlgebraContext(1)
    g = _reduce_sympy(ctx, P2, [u * v])
    assert _fmul(ctx, (exact(P3), U), g) == _cancelled(P2 * P3, u * u * v)
    assert _rests(ctx) == {UV, U} and list(ctx.factors) == seeds
    _assert_factorizations_current(ctx)

    # a sum whose common denominator names the rest and u: gcd strips u
    ctx = AlgebraContext(1)
    f = _reduce_sympy(ctx, P3, [u * v])
    assert _fadd(ctx, f, (exact(P2), U)) == _cancelled(P3 + P2 * v, u * v)
    assert UV in _rests(ctx) and list(ctx.factors) == seeds
    _assert_factorizations_current(ctx)
    assert _factorization(ctx, exact(u * u * v))[1] in (((U, 2), (V, 1)), ((V, 1), (U, 2)))

    # a squared rest whose square shares u^2 with the numerator: the gcd is
    # taken against (uv)^2, and v^2 is left as a rest
    ctx = AlgebraContext(1)
    uv2 = u * v * u * v
    assert _reduce_sympy(ctx, u * u * P3, [uv2]) == _cancelled(P3, v * v)
    assert _rests(ctx) == {UV, exact(v * v)} and list(ctx.factors) == seeds
    _assert_factorizations_current(ctx)


def test_rest_named_before_its_linear_factor_is_certified():
    """A rest cached before a linear factor of it is certified keeps its
    name, and gcd reduction against it still gives cancel's results."""
    lin, q = P1 + P2 + MM, P1**2 + P2**2 - 3 * MM**2
    r = lin * q
    ctx = AlgebraContext(1)
    assert _reduce_sympy(ctx, P3, [r]) == _cancelled(P3, r)
    assert _rests(ctx) == {exact(r)}
    assert _reduce_sympy(ctx, RING.one, [lin]) == _cancelled(RING.one, lin)
    assert exact(lin) in ctx.factors
    assert _reduce_sympy(ctx, lin * P3, [r]) == _cancelled(lin * P3, r)
    assert _reduce_sympy(ctx, P3, [r, lin]) == _cancelled(P3, r * lin)
    _assert_coprime_squarefree(ctx)
    _assert_factorizations_current(ctx)


def test_registered_factors_are_found_by_trial_division(monkeypatch):
    """Seeded: a product of registered factors is factored by trial division
    alone, so the test that skips a factor before dividing (its generators
    among p's, lm(f) | lm(p)) skips none that divides."""
    ctx = AlgebraContext(1)
    for f in OUTSIDE:
        _reduce_sympy(ctx, RING.one, [f])
    registered = list(ctx.factors)
    assert len(registered) > 12

    def no_split(p):
        raise AssertionError(f"trial division left {p}")

    monkeypatch.setattr("qpskit.coeffs._squarefree", no_split)
    rng = random.Random(20241019)
    for _ in range(300):
        want = {f: rng.randint(1, 3) for f in rng.sample(registered, rng.randint(1, 4))}
        p = Poly({0: rng.choice((1, 2, 6))})
        for f, e in want.items():
            for _ in range(e):
                p = _pmul(p, f)
        assert dict(_factorization(ctx, p)[1]) == want


def test_registry_holds_irreducible_factors():
    fresh = AlgebraContext(1)
    c = fresh.gen("P1") + fresh.gen("m")
    _ = (fresh.scalar(3) * fresh.gen("omega") - c * c).inv() * c.inv()
    assert len(fresh.factors) > 10
    for f in fresh.factors:
        # primitive integer polynomials with a positive leading coefficient
        assert math.gcd(*f.values()) == 1 and f[max(f)] > 0, f
        g = to_sympy(f)
        assert not g.is_ground
        _, split = g.factor_list()
        assert len(split) == 1 and split[0][1] == 1, f


def test_mass_factor_seeds_and_separate_registries():
    ctx2 = AlgebraContext(2)
    P1, P2, P3, mm = RING.gens[:4]
    assert exact(P1**2 + P2**2 + P3**2 + 4 * mm**2) in ctx2.factors
    assert exact(P1**2 + P2**2 + P3**2 + mm**2) not in ctx2.factors
    ctx1 = AlgebraContext(1)
    before = list(ctx2.factors)
    _ = (ctx1.gen("P1") + ctx1.gen("m")).inv()
    assert len(ctx1.factors) == len(before) + 1
    assert list(ctx2.factors) == before
    assert ctx1.factors is not ctx2.factors
    assert ctx1.factorizations is not ctx2.factorizations


# -- the packed-exponent ring ---------------------------------------------------


def test_exponent_overflow_raises_instead_of_carrying():
    top = p2 ** MAX_EXPONENT
    assert repr(top) == f"(P2^{MAX_EXPONENT})"
    assert not top.uses_gen("P1")
    with pytest.raises(CoeffError):
        _ = top * p2
    # P2 sits next to P1: a carry out of P2's field would read as a P1
    half = p2 ** 64
    with pytest.raises(CoeffError):
        _ = half * half
    low = Poly({_pack((0, 0, 0, 0, 0, 0, 0, 100)): 1})   # E0^100, lowest field
    with pytest.raises(CoeffError):
        _pmul(low, low)


def test_polys_are_immutable_and_hashable():
    p = Poly({_pack((1, 0, 0, 2, 0, 0, 0, 0)): 3, 0: -1})
    assert hash(p) == hash(Poly(dict(reversed(p.items()))))
    for mutate in (lambda: p.__setitem__(0, 1), lambda: p.pop(0), p.clear,
                   lambda: p.update({0: 2}), lambda: p.setdefault(7, 1)):
        with pytest.raises(TypeError):
            mutate()
    assert p == {_pack((1, 0, 0, 2, 0, 0, 0, 0)): 3, 0: -1}


def test_render_order_matches_sympy_lex():
    """Seeded: rendered term order and text are sympy's, with sympy's str
    (lex order over GEN_NAMES) as the oracle."""
    zring = sympy_ring(",".join(GEN_NAMES), ZZ)[0]
    rng = random.Random(20261018)
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(1, 12)):
            mono = tuple(rng.choice((0, 0, 0, 1, 2, 3, 9, 64, MAX_EXPONENT))
                         for _ in GEN_NAMES)
            terms[_pack(mono)] = rng.choice((-7, -2, -1, 1, 1, 2, 12))
        p = Poly(terms)
        assert _render_poly(p).replace("^", "**") == str(to_sympy(p, zring))


def test_hot_constants_are_shared():
    assert ctx.scalar(3) is ctx.scalar(3)
    assert ctx.scalar(Fraction(1, 2)) is ctx.scalar(Fraction(2, 4))
    assert ctx.scalar(Fraction(-3, 4)) == ctx.scalar(-3) / ctx.scalar(4)
    assert ctx.i_hbar() is ctx.i_hbar()
    assert ctx.i_hbar() == i * hbar
