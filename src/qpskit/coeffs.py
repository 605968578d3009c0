"""Exact scalar coefficients for the operator engine.

A coefficient is an element of QQ(i)(P1,P2,P3,m,t,hbar,Mmass,E0)[omega] with
omega^2 = P1^2+P2^2+P3^2 + (k*m)^2, stored as four rational functions over
plain QQ:

    value = (ar + ai*i) + (br + bi*i)*omega

{1, i, omega, i*omega} is a basis of the extension over QQ(vars), so equality
of values is component-wise equality of canonical fractions.

The mass rescaling k (default 1) supports algebras built on a different
energy-momentum relation, e.g. omega'^2 = P^2 + (2m)^2.

The polynomial ring is this module's own. A ``Poly`` is an immutable,
hashable dict from a packed exponent ``int`` to a nonzero ``int``
coefficient. Each generator owns an 8-bit field of the packed exponent, P1
the highest, so comparing packed ints is lex order in GEN_NAMES order and
the product of two monomials is the sum of their ints. The top bit of every
field is a guard: exponents stay at most MAX_EXPONENT, a product that
reaches the guard raises ``CoeffError`` instead of carrying into the next
generator, and one subtraction tests whether a monomial divides another.

A fraction is a pair ``(numer, denom)`` of Polys in canonical form:
coprime, with integer coefficients of joint content 1 and a positive
leading coefficient in the denominator. Every denominator the engine meets
is a constant times powers of a few irreducible polynomials, so each context
keeps a registry of primitive irreducible factors, seeded with the eight
generators, P^2 = P1^2+P2^2+P3^2 and the radicand P^2 + (k*m)^2, and caches
each denominator's factorization over it as ``(content, ((factor, exp),
...))``. By Gauss's lemma an integer polynomial divided exactly by a
primitive factor has an integer quotient, so exact trial division never
leaves the integers: a remainder coefficient that the factor's leading
coefficient does not divide proves that the factor does not divide.

* A product cancels crosswise: each numerator is trial-divided only by the
  factors of the other operand's denominator (Henrici, JACM 3(1), 1956).
* A sum is taken over the lcm of the two factorizations, each named factor
  at its larger exponent, and its numerator is trial-divided by the lcm's
  factors.
* Content and sign are fixed with integer gcds.

A denominator with a factor outside the registry (user input such as
1/(P1+m), or the norm of an inverted coefficient such as
c^2 P1^2 - P^2 - m^2) is split into squarefree parts by Yun's algorithm over
a multivariate integer gcd: the heuristic gcd of Char, Geddes & Gonnet,
falling back to a primitive pseudo-remainder sequence, and accepted only
after exact division. A part that is linear in some generator, a*x + b, is
certified: over g = gcd(a, b) it is irreducible, and g is split the same
way. Certified factors join the registry and its trial division. Any other
part is a *rest*: named with its multiplicity in the cached factorization,
and registered nowhere. A rest r left with exponent e after trial division
is reduced where it stands: if gcd(n, r) is not 1, the numerator n and the
denominator are divided by g = gcd(n, r^e), and r^e/g, coprime to n/g, is
kept as a rest. So a fraction is always canonical, whatever the registry
can certify. Trial division skips a registered factor f unless f's
generators are among p's and lm(f) divides lm(p), which one guarded
subtraction of packed exponents tests.

A derivative of n/d is formed over d*R, R the product of d's named factors
that depend on the variable, instead of over d^2 (``_fdiff``).

While an exact evaluation runs, its context keeps three tables for
``ScalarCoeff``: products, keyed by the ordered pair of operands,
derivatives, keyed by (coefficient, axis), and rendered texts, keyed by
coefficient (``parser.render_scalar``). Coefficients are immutable and a
canonical fraction is unique, so a table hit equals a fresh computation.
``AlgebraContext.evaluation()`` opens the tables and drops them when it
ends; the exact reports, the closure check and the generator builds each
run inside one. Products and texts recur across the entries of one report,
so dropping them sooner loses the gain; keeping them for the whole process,
or for arithmetic outside an evaluation, only adds memory.

No module here imports sympy; the tests use it as an oracle.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from operator import or_

GEN_NAMES = ("P1", "P2", "P3", "m", "t", "hbar", "Mmass", "E0")
AXES = (1, 2, 3)

_BITS = 8
_SHIFT = tuple(_BITS * (len(GEN_NAMES) - 1 - g) for g in range(len(GEN_NAMES)))
MAX_EXPONENT = (1 << (_BITS - 1)) - 1
_GUARD = sum(1 << (s + _BITS - 1) for s in _SHIFT)   # top bit of every field
_LOW = sum(1 << s for s in _SHIFT)                    # low bit of every field


class CoeffError(ArithmeticError):
    """Raised for malformed coefficient arithmetic (e.g. division by zero)."""


class Poly(dict):
    """Immutable polynomial {packed exponent: nonzero int coefficient}."""

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(frozenset(self.items()))
            return h

    def _immutable(self, *args, **kwargs):
        raise TypeError("Poly is immutable")

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable

    def __repr__(self):
        from .parser import _render_poly
        return f"Poly({_render_poly(self)})"


def _unpack(key: int) -> tuple:
    """Exponents of a packed monomial, in GEN_NAMES order."""
    return tuple((key >> s) & MAX_EXPONENT for s in _SHIFT)


ZERO = Poly()
ONE = Poly({0: 1})
GENS = tuple(Poly({1 << s: 1}) for s in _SHIFT)
_FZERO = (ZERO, ONE)
_FONE = (ONE, ONE)


# -- polynomial arithmetic --------------------------------------------------------


def _checked(out):
    if reduce(or_, out, 0) & _GUARD:
        raise CoeffError(f"exponent above {MAX_EXPONENT} in a product")
    return Poly(out)


def _pmul(p, q):
    if len(p) < len(q):
        p, q = q, p
    if len(q) == 1:
        ((b, cb),) = q.items()
        return _checked({a + b: ca * cb for a, ca in p.items()})
    out = {}
    get = out.get
    for b, cb in q.items():
        for a, ca in p.items():
            k = a + b
            out[k] = get(k, 0) + ca * cb
    if 0 in out.values():
        out = {k: c for k, c in out.items() if c}
    return _checked(out)


def _padd(p, q, sign=1):
    """p + sign*q."""
    out = dict(p)
    get = out.get
    for k, c in q.items():
        v = get(k, 0) + sign * c
        if v:
            out[k] = v
        else:
            del out[k]
    return Poly(out)


def _pscale(p, s):
    return Poly({k: c * s for k, c in p.items()})


def _pdiv_ground(p, s):
    return Poly({k: c // s for k, c in p.items()})


def _ppow(p, e):
    out = p
    for _ in range(e - 1):
        out = _pmul(out, p)
    return out


def _pdiff(p, gen_index):
    s = _SHIFT[gen_index]
    one = 1 << s
    return Poly({k - one: c * e for k, c in p.items()
                 if (e := (k >> s) & MAX_EXPONENT)})


def _is_ground(p):
    return len(p) == 1 and 0 in p


def _content(p, g=0):
    """gcd of g and the coefficients of p, stopping once it is 1."""
    for c in p.values():
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _exquo(p, f):
    """p / f when the primitive f divides the integer polynomial p, else None.

    Long division in lex order that stops at the first remainder term the
    leading term of f does not divide, or at the first coefficient its
    leading coefficient does not divide: if f | p, every remainder is an
    integer multiple of f (Gauss's lemma). The lex-last terms are checked
    first, since they must divide as well.
    """
    if len(f) == 1:
        ((fm, fc),) = f.items()
        out = {}
        for mono, c in p.items():
            q = (mono | _GUARD) - fm
            if q & _GUARD != _GUARD:
                return None
            if fc != 1:
                c, r = divmod(c, fc)
                if r:
                    return None
            out[q ^ _GUARD] = c
        return Poly(out)
    if ((min(p) | _GUARD) - min(f)) & _GUARD != _GUARD:
        return None
    fm = max(f)
    fc = f[fm]
    tail = [(mono, c) for mono, c in f.items() if mono != fm]
    rem = dict(p)
    out = {}
    while rem:
        lead = max(rem)
        q = (lead | _GUARD) - fm
        if q & _GUARD != _GUARD:
            return None
        q ^= _GUARD
        c, r = divmod(rem.pop(lead), fc)
        if r:
            return None
        out[q] = c
        for mono, tc in tail:
            key = mono + q
            v = rem.get(key, 0) - c * tc
            if v:
                rem[key] = v
            else:
                del rem[key]
    return Poly(out)


def _primitive(p):
    """p divided by its content, with a positive leading coefficient."""
    g = _content(p)
    if p[max(p)] < 0:
        g = -g
    return p if g == 1 else _pdiv_ground(p, g)


# -- gcd and squarefree split -----------------------------------------------------
#
# A polynomial is read as one in a generator x with coefficients that are
# polynomials in the others.


def _gens_of(*ps):
    """Indices of the generators any of ``ps`` depends on."""
    used = reduce(or_, (reduce(or_, p, 0) for p in ps), 0)
    return [g for g, s in enumerate(_SHIFT) if (used >> s) & MAX_EXPONENT]


def _deg(p, gi):
    s = _SHIFT[gi]
    return max((k >> s) & MAX_EXPONENT for k in p)


def _by_degree(p, gi):
    """{e: the coefficient of x^e in p}, x the generator ``gi``."""
    s = _SHIFT[gi]
    out: dict = {}
    for k, c in p.items():
        e = (k >> s) & MAX_EXPONENT
        out.setdefault(e, {})[k - (e << s)] = c
    return {e: Poly(q) for e, q in out.items()}


def _peval(p, gi, v):
    """p at x = v, x the generator ``gi``."""
    s = _SHIFT[gi]
    out: dict = {}
    for k, c in p.items():
        e = (k >> s) & MAX_EXPONENT
        k -= e << s
        out[k] = out.get(k, 0) + c * v**e
    return Poly({k: c for k, c in out.items() if c})


def _interpolate(h, gi, xi, top):
    """The polynomial in x whose coefficients are the symmetric xi-adic
    digits of h's, or None if it would pass degree ``top``."""
    s = _SHIFT[gi]
    half = xi // 2
    out = {}
    for k, c in h.items():
        e = 0
        while c:
            if e > top:
                return None
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[k + (e << s)] = d
            c = (c - d) // xi
            e += 1
    return Poly(out)


def _at(p, y):
    """p at the integer point y, indexed like GEN_NAMES."""
    return sum(c * math.prod(v**e for v, e in zip(y, _unpack(k))) for k, c in p.items())


# integer points at which a leading coefficient is tried for a root bound
_POINTS = ((1,) * 8, (1, 2) * 4, (2, 1) * 4, (1, 1, 2, 2) * 2, (2, 2, 1, 1) * 2,
           (1, -1) * 4)


def _root_bound(p, gi):
    """An integer above |z| for every root z of p(x, y) in x at some
    integer point y where p's leading coefficient in x does not vanish
    (Cauchy's bound), or None if no point of _POINTS is one."""
    coeffs = _by_degree(p, gi)
    top = coeffs.pop(max(coeffs))
    for y in _POINTS:
        lc = abs(_at(top, y))
        if lc:
            return 2 + max((abs(_at(q, y)) for q in coeffs.values()), default=0) // lc
    return None


def _heugcd(f, g):
    """gcd(f, g) with its integer content, or None when the heuristic runs
    out of evaluation points (Char, Geddes & Gonnet, J. Symb. Comput. 7(1),
    1989).

    x is set to an integer xi, the gcd of the images is taken recursively,
    and the primitive part h of the polynomial read back from its xi-adic
    digits is kept only if it divides f and g exactly. Then h is the gcd:
    the gcd is h*q, and q(xi, y) divides the content of the read-back
    polynomial, which is at most xi/2; a q of positive degree in x would
    have |q(xi, y)| > xi - R > xi/2 at the point y where R bounds the roots
    of f or g, since xi >= 2R + 2, so q is a unit.
    """
    if _is_ground(f) or _is_ground(g):
        return Poly({0: math.gcd(_content(f), _content(g))})
    c = math.gcd(_content(f), _content(g))
    if c != 1:
        f, g = _pdiv_ground(f, c), _pdiv_ground(g, c)
    gi = _gens_of(f, g)[0]
    bounds = [b for p in (f, g) if (b := _root_bound(p, gi)) is not None]
    if not bounds:
        return None
    top = min(_deg(f, gi), _deg(g, gi))
    b = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    xi = max(min(b, 99 * math.isqrt(b)), 2 * min(bounds) + 2)
    for _ in range(6):
        fx, gx = _peval(f, gi, xi), _peval(g, gi, xi)
        if fx and gx and (h := _heugcd(fx, gx)) is not None \
                and (h := _interpolate(h, gi, xi, top)) is not None:
            h = _primitive(h)
            if _exquo(f, h) is not None and _exquo(g, h) is not None:
                return _pscale(h, c) if c != 1 else h
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _prem(f, g, gi):
    """An integer-polynomial multiple of f's remainder by g in x."""
    s = _SHIFT[gi]
    dg = _deg(g, gi)
    lg = _by_degree(g, gi)[dg]
    while f and (df := _deg(f, gi)) >= dg:
        # lc(f) * x^(df - dg)
        lead = Poly({k - (dg << s): c for k, c in f.items()
                     if (k >> s) & MAX_EXPONENT == df})
        f = _padd(_pmul(lg, f), _pmul(lead, g), -1)
    return f


def _prsgcd(f, g):
    """Primitive gcd of two nonconstant polynomials by a primitive
    pseudo-remainder sequence in x: slower than the heuristic, and sure to
    finish."""
    gi = _gens_of(f, g)[0]
    cf, cg = _x_content(f, gi), _x_content(g, gi)
    c = _gcd(cf, cg)
    f, g = _primitive(_exquo(f, cf)), _primitive(_exquo(g, cg))
    if _deg(f, gi) < _deg(g, gi):
        f, g = g, f
    while _deg(g, gi):
        r = _prem(f, g, gi)
        if not r:
            return _primitive(_pmul(c, g))
        f, g = g, _primitive(_exquo(r, _x_content(r, gi)))
    return c


def _gcd(f, g):
    """Primitive gcd of f and g, not both zero, with a positive leading
    coefficient: the heuristic's once it passes exact division, else the
    pseudo-remainder sequence's."""
    if not g or not f:
        return _primitive(f or g)
    if _is_ground(f) or _is_ground(g):
        return ONE
    h = _heugcd(f, g)
    return _prsgcd(f, g) if h is None else _primitive(h)


def _x_content(p, gi):
    """Primitive gcd of p's coefficients in x."""
    out = ZERO
    for q in sorted(_by_degree(p, gi).values(), key=len):
        out = _gcd(out, q)
        if _is_ground(out):
            break
    return out


def _yun(f, gi):
    """Squarefree split of f, primitive as a polynomial in x over the other
    generators: (part, multiplicity) pairs (Yun, SYMSAC 1976). Each
    division is exact by Gauss's lemma, the gcds being primitive."""
    df = _pdiff(f, gi)
    a = _gcd(f, df)
    b, c = _exquo(f, a), _exquo(df, a)
    out = []
    i = 1
    while not _is_ground(b):
        d = _padd(c, _pdiff(b, gi), -1)
        if not d:
            out.append((_primitive(b), i))
            break
        a = _gcd(b, d)
        b, c = _exquo(b, a), _exquo(d, a)
        if not _is_ground(a):
            out.append((a, i))
        i += 1
    return out


def _squarefree(p):
    """(part, multiplicity) pairs of pairwise coprime, primitive, squarefree
    parts whose product is the primitive, nonconstant p. x is a generator
    of least degree; p's content in x is split on its own."""
    gi = min(_gens_of(p), key=lambda g: _deg(p, g))
    c = _x_content(p, gi)
    out = [(_exquo(p, c), 1)] if _deg(p, gi) == 1 else _yun(_exquo(p, c), gi)
    return out if _is_ground(c) else out + _squarefree(c)


def _certify(s):
    """(piece, irreducible) pairs whose product is the squarefree primitive
    s. A primitive a*x + b with gcd(a, b) = 1 is irreducible, since a
    factor free of x would divide both a and b; if g = gcd(a, b) is not 1,
    s/g is such a polynomial and g is split the same way."""
    for gi in _gens_of(s):
        if _deg(s, gi) == 1:
            coeffs = _by_degree(s, gi)
            g = _gcd(coeffs[1], coeffs.get(0, ZERO))
            if _is_ground(g):
                return [(s, True)]
            return [(_exquo(s, g), True), *_certify(g)]
    return [(s, False)]


# -- fraction reduction -----------------------------------------------------------


def _support(p):
    """Bit g set for each generator g that p depends on."""
    return sum(1 << g for g in _gens_of(p))


def _register(ctx, f):
    """Add the irreducible f to the registry, with its support and lm."""
    ctx.factors[f] = (_support(f), max(f))


def _factorization(ctx, p):
    """(content, ((factor, exponent), ...)) of p, cached by p; the content
    carries the sign of p's leading coefficient.

    The registered factors are tried by exact division. Whatever they leave
    over is split into squarefree parts. A certified piece of a part joins
    the registry; any other piece is a *rest*, named here with the part's
    multiplicity but registered nowhere.
    """
    if _is_ground(p):
        return p[0], ()
    fac = ctx.factorizations.get(p)
    if fac is not None:
        return fac
    rest = p
    out = []
    gens = _support(p)
    lead = max(p)
    for f, (fgens, flead) in ctx.factors.items():
        if _is_ground(rest):
            break
        # f | rest needs f's generators among p's and lm(f) | lm(rest)
        if fgens & ~gens or ((lead | _GUARD) - flead) & _GUARD != _GUARD:
            continue
        e = 0
        while (q := _exquo(rest, f)) is not None:
            rest = q
            e += 1
        if e:
            out.append((f, e))
            lead = max(rest)
    if not _is_ground(rest):
        for s, e in _squarefree(_primitive(rest)):
            for f, irreducible in _certify(s):
                if irreducible:
                    _register(ctx, f)
                out.append((f, e))
    g = _content(p)
    fac = ctx.factorizations[p] = (g if p[max(p)] > 0 else -g, tuple(out))
    return fac


def _strip(ctx, n, d, fac, left):
    """Divide each factor of ``fac``, (factor, exponent) pairs of d, out of
    n as often as it goes and out of d as often; add what is left of its
    exponent to ``left``. A rest r left with exponent e that shares a factor
    with n is reduced by gcd: n and d are divided by g = gcd(n, r^e), and
    r^e/g, coprime to n/g, is left with exponent 1."""
    for f, e in fac:
        k = 0
        while k < e and (q := _exquo(n, f)) is not None:
            n = q
            k += 1
        if k:
            d = _exquo(d, _ppow(f, k))
        e -= k
        if not e:
            continue
        if f not in ctx.factors and not _is_ground(g := _gcd(n, f)):
            if e > 1:
                f = _ppow(f, e)
                g = _gcd(n, f)
            n, d, f, e = _exquo(n, g), _exquo(d, g), _exquo(f, g), 1
        left[f] = left.get(f, 0) + e
    return n, d


def _cancel(ctx, n, d, fac):
    """Canonical (numer, denom) of n/d, where ``fac`` holds d's factors."""
    left: dict = {}
    n, d = _strip(ctx, n, d, fac, left)
    return _settle(ctx, n, d, tuple(left.items()))


def _settle(ctx, n, d, fac):
    """Fix the joint content and sign of the coprime n/d, whose denominator
    factors are ``fac``, and cache d's factorization."""
    cd = _content(d)
    g = _content(n, cd) if cd != 1 else 1
    if d[max(d)] < 0:
        g = -g
    if g != 1:
        n = _pdiv_ground(n, g)
        d = _pdiv_ground(d, g)
    if fac and d not in ctx.factorizations:
        ctx.factorizations[d] = (cd // abs(g), fac)
    return n, d


def _reduce(ctx, n, *dens):
    """Canonical (numer, denom) of n / (dens[0] * dens[1] * ...).

    The denominator's factorization is the sum of its parts'. Each part is
    factored once and cached, so a product of denominators is never
    factored as a whole.
    """
    if not n:
        return _FZERO
    d = dens[0]
    exps: dict = {}
    for i, p in enumerate(dens):
        if i:
            d = _pmul(d, p)
        for f, e in _factorization(ctx, p)[1]:
            exps[f] = exps.get(f, 0) + e
    return _cancel(ctx, n, d, exps.items())


def _fneg(f):
    return (_pscale(f[0], -1), f[1]) if f[0] else f


def _fadd(ctx, f, g, sign=1):
    """f + sign*g, over the lcm of the two denominators."""
    n1, d1 = f
    n2, d2 = g
    if not n2:
        return f
    if not n1:
        return _fneg(g) if sign < 0 else g
    if d1 == d2:
        n = _padd(n1, n2, sign)
        if not n:
            return _FZERO
        if _is_ground(d1):
            return _settle(ctx, n, d1, ())
        return _cancel(ctx, n, d1, _factorization(ctx, d1)[1])
    c1, fac1 = _factorization(ctx, d1)
    c2, fac2 = _factorization(ctx, d2)
    c = math.lcm(c1, c2)
    # cofactors lcm/d1 and lcm/d2
    cof1 = ONE if c == c1 else Poly({0: c // c1})
    cof2 = ONE if c == c2 else Poly({0: c // c2})
    e1 = dict(fac1)
    e2 = dict(fac2)
    exps = {}
    for f in {**e1, **e2}:
        a = e1.get(f, 0)
        b = e2.get(f, 0)
        if a < b:
            cof1 = _pmul(cof1, _ppow(f, b - a))
        elif b < a:
            cof2 = _pmul(cof2, _ppow(f, a - b))
        exps[f] = max(a, b)
    n = _padd(_pmul(n1, cof1), _pmul(n2, cof2), sign)
    if not n:
        return _FZERO
    return _cancel(ctx, n, _pmul(d1, cof1), exps.items())


def _fmul(ctx, f, g):
    n1, d1 = f
    n2, d2 = g
    if not n1 or not n2:
        return _FZERO
    if _is_ground(d1) and _is_ground(d2):
        if d1 == ONE and d2 == ONE:
            return _pmul(n1, n2), ONE
        return _settle(ctx, _pmul(n1, n2), Poly({0: d1[0] * d2[0]}), ())
    # n1/d1 and n2/d2 are coprime, so only n1 and d2, and n2 and d1, can
    # share factors
    left: dict = {}
    n1, d2 = _strip(ctx, n1, d2, _factorization(ctx, d2)[1], left)
    n2, d1 = _strip(ctx, n2, d1, _factorization(ctx, d1)[1], left)
    return _settle(ctx, _pmul(n1, n2), _pmul(d1, d2), tuple(left.items()))


def _fdiv(ctx, f, g):
    n2, d2 = g
    if not n2:
        raise CoeffError("division by zero")
    if n2[max(n2)] < 0:
        return _fmul(ctx, f, (_pscale(d2, -1), _pscale(n2, -1)))
    return _fmul(ctx, f, (d2, n2))


def _fdiff(ctx, fr, gen_index):
    """d/d gen of a fraction, over d*R instead of d^2.

    With d = c * prod f_i^e_i (d's cached factorization) and R the product
    of the f_i that depend on the generator, d'/d = S/R for
    S = sum e_i f_i' R/f_i, so (n/d)' = (n' R - n S)/(d R). This holds for
    any factorization of d, coprime or not, and d R is far smaller than d^2.
    """
    n, d = fr
    dn = _pdiff(n, gen_index)
    if not _pdiff(d, gen_index):
        return _reduce(ctx, dn, d)
    moving = []
    fac = []
    for f, e in _factorization(ctx, d)[1]:
        df = _pdiff(f, gen_index)
        if df:
            moving.append((f, e, df))
            e += 1
        fac.append((f, e))
    r = ONE
    s = ZERO
    for i, (f, e, df) in enumerate(moving):
        r = _pmul(r, f)
        term = _pscale(df, e)
        for j, (g, _, _) in enumerate(moving):
            if j != i:
                term = _pmul(term, g)
        s = _padd(s, term)
    top = _padd(_pmul(dn, r), _pmul(n, s), -1)
    if not top:
        return _FZERO
    return _cancel(ctx, top, _pmul(d, r), fac)


def _feval(fr, values):
    """Evaluate a fraction numerically; values indexed like GEN_NAMES.

    Entries of ``values`` may be scalars or numpy arrays (broadcastable).
    """
    def poly_eval(p):
        total = 0.0
        for key, coeff in sorted(p.items(), reverse=True):
            term = float(coeff)
            for g, e in enumerate(_unpack(key)):
                if e:
                    term = term * values[g]**e
            total = total + term
        return total

    return poly_eval(fr[0]) / poly_eval(fr[1])


class AlgebraContext:
    """Shared ring data: the omega radicand and the factor registry.

    Expressions from different contexts must not be mixed; the square root
    adjoined in one context is not an element of another. Each context owns
    its factor registry and the caches of hot constants; coefficients are
    immutable, so cached instances are shared freely.
    """

    _instances: dict[Fraction, "AlgebraContext"] = {}

    def __init__(self, mass_factor=1):
        k = Fraction(mass_factor)
        if k <= 0:
            raise ValueError("mass_factor must be positive")
        self.mass_factor = k
        p1, p2, p3, m = GENS[:4]
        psq = _padd(_padd(_pmul(p1, p1), _pmul(p2, p2)), _pmul(p3, p3))
        # den^2 * (P^2 + (k*m)^2) has integer coefficients of content 1
        norm = _padd(_pscale(psq, k.denominator**2), _pscale(_pmul(m, m), k.numerator**2))
        self.radicand = (norm, Poly({0: k.denominator**2}))
        # irreducible factors denominators are tried against, in order (the
        # keys of a dict, so that membership is a hash lookup, each mapped to
        # its support and leading monomial), and each denominator's
        # factorization over them and its rests
        self.factors: dict = {}
        for f in (*GENS, psq, norm):
            _register(self, f)
        self.factorizations: dict = {}
        # ScalarCoeff products by (left, right), derivatives by
        # (coefficient, axis) and rendered texts by coefficient while an
        # evaluation() runs; None outside one
        self.products: dict | None = None
        self.derivatives: dict | None = None
        self.texts: dict | None = None
        # caches used by the operator layer
        self.s_left_cache: dict = {}
        self.s_mul_cache: dict = {}
        self.scalar_cache: dict = {}
        self.shuffle_cache: dict = {}
        self._i_hbar = ScalarCoeff(self, _FZERO, (GENS[GEN_NAMES.index("hbar")], ONE),
                                   _FZERO, _FZERO)
        self.p_over_w = tuple(_fdiv(self, (g, ONE), self.radicand) for g in GENS[:3])

    @classmethod
    def get(cls, mass_factor=1) -> "AlgebraContext":
        k = Fraction(mass_factor)
        if k not in cls._instances:
            cls._instances[k] = cls(mass_factor=k)
        return cls._instances[k]

    def __repr__(self):
        return f"AlgebraContext(mass_factor={self.mass_factor})"

    @contextmanager
    def evaluation(self):
        """Scope of one exact evaluation: products, derivatives and the
        rendered text of each coefficient are memoized in tables that are
        dropped when it ends, however it ends. A nested evaluation shares
        the enclosing one's tables."""
        if self.products is not None:
            yield self
            return
        self.products, self.derivatives, self.texts = {}, {}, {}
        try:
            yield self
        finally:
            self.products = self.derivatives = self.texts = None

    # -- ScalarCoeff constructors ------------------------------------------

    def scalar(self, value) -> "ScalarCoeff":
        """Rational (or integer / Fraction) constant as a coefficient."""
        if isinstance(value, ScalarCoeff):
            if value.ctx is not self:
                raise CoeffError("coefficient from a different context")
            return value
        c = self.scalar_cache.get(value)
        if c is None:
            f = Fraction(value)
            fr = (Poly({0: f.numerator}) if f else ZERO, Poly({0: f.denominator}))
            c = self.scalar_cache[value] = ScalarCoeff(self, fr, _FZERO, _FZERO, _FZERO)
        return c

    def imag_unit(self) -> "ScalarCoeff":
        return ScalarCoeff(self, _FZERO, _FONE, _FZERO, _FZERO)

    def gen(self, name: str) -> "ScalarCoeff":
        if name == "omega":
            return ScalarCoeff(self, _FZERO, _FZERO, _FONE, _FZERO)
        if name == "i":
            return self.imag_unit()
        if name not in GEN_NAMES:
            raise KeyError(name)
        fr = (GENS[GEN_NAMES.index(name)], ONE)
        return ScalarCoeff(self, fr, _FZERO, _FZERO, _FZERO)

    def zero_coeff(self) -> "ScalarCoeff":
        return ScalarCoeff(self, _FZERO, _FZERO, _FZERO, _FZERO)

    def i_hbar(self) -> "ScalarCoeff":
        return self._i_hbar


class ScalarCoeff:
    """Element a + b*omega with complex rational-function parts a, b."""

    __slots__ = ("ctx", "ar", "ai", "br", "bi", "_hash")

    def __init__(self, ctx, ar, ai, br, bi):
        self.ctx = ctx
        self.ar = ar
        self.ai = ai
        self.br = br
        self.bi = bi

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.ar[0] or self.ai[0] or self.br[0] or self.bi[0])

    def is_zero(self):
        return not self

    def __eq__(self, other):
        if not isinstance(other, ScalarCoeff):
            if isinstance(other, (int, Fraction)):
                other = self.ctx.scalar(other)
            else:
                return NotImplemented
        return (self.ctx is other.ctx and self.ar == other.ar
                and self.ai == other.ai and self.br == other.br
                and self.bi == other.bi)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        n, d = ar = self.ar
        if _is_ground(d) and (not n or _is_ground(n)) \
                and not (self.ai[0] or self.br[0] or self.bi[0]):
            # a rational constant equals its Fraction, so it hashes as one
            h = hash(Fraction(n.get(0, 0), d[0]))
        else:
            h = hash((ar, self.ai, self.br, self.bi))
        self._hash = h
        return h

    def components(self):
        return (self.ar, self.ai, self.br, self.bi)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ScalarCoeff):
            if other.ctx is not self.ctx:
                raise CoeffError("mixing coefficients from different contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        return ScalarCoeff(ctx, _fadd(ctx, self.ar, o.ar), _fadd(ctx, self.ai, o.ai),
                           _fadd(ctx, self.br, o.br), _fadd(ctx, self.bi, o.bi))

    __radd__ = __add__

    def __neg__(self):
        return ScalarCoeff(self.ctx, _fneg(self.ar), _fneg(self.ai),
                           _fneg(self.br), _fneg(self.bi))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        return ScalarCoeff(ctx, _fadd(ctx, self.ar, o.ar, -1), _fadd(ctx, self.ai, o.ai, -1),
                           _fadd(ctx, self.br, o.br, -1), _fadd(ctx, self.bi, o.bi, -1))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        products = self.ctx.products
        if products is None:
            return self._mul(o)
        out = products.get((self, o))
        if out is None:
            out = products[self, o] = self._mul(o)
        return out

    __rmul__ = __mul__

    def _mul(self, o):
        ctx = self.ctx
        W = ctx.radicand
        # (A + B*w)(C + D*w) = (AC + BD*W) + (AD + BC)*w, complex parts split
        ar, ai, br, bi = self.components()
        cr, ci, dr, di = o.components()

        def cmul(xr, xi, yr, yi):
            if (not xr[0] and not xi[0]) or (not yr[0] and not yi[0]):
                return _FZERO, _FZERO
            if not xi[0] and not yi[0]:
                return _fmul(ctx, xr, yr), _FZERO
            re = _fadd(ctx, _fmul(ctx, xr, yr), _fmul(ctx, xi, yi), -1)
            im = _fadd(ctx, _fmul(ctx, xr, yi), _fmul(ctx, xi, yr))
            return re, im

        ac_r, ac_i = cmul(ar, ai, cr, ci)
        bd_r, bd_i = cmul(br, bi, dr, di)
        ad_r, ad_i = cmul(ar, ai, dr, di)
        bc_r, bc_i = cmul(br, bi, cr, ci)
        if bd_r[0] or bd_i[0]:
            out_ar = _fadd(ctx, ac_r, _fmul(ctx, bd_r, W))
            out_ai = _fadd(ctx, ac_i, _fmul(ctx, bd_i, W))
        else:
            out_ar, out_ai = ac_r, ac_i
        return ScalarCoeff(ctx, out_ar, out_ai, _fadd(ctx, ad_r, bc_r),
                           _fadd(ctx, ad_i, bc_i))

    def inv(self):
        """Total on nonzero elements: 1/(A+Bw) = (A-Bw)/(A^2 - B^2 W)."""
        if not self:
            raise CoeffError("division by the zero coefficient")
        ctx = self.ctx
        W = ctx.radicand
        two = ctx.scalar(2).ar
        ar, ai, br, bi = self.components()

        def mul(*fs):
            out = fs[0]
            for f in fs[1:]:
                out = _fmul(ctx, out, f)
            return out

        def sub(f, g):
            return _fadd(ctx, f, g, -1)

        # complex norm-like element z = A^2 - B^2*W
        zr = sub(sub(mul(ar, ar), mul(ai, ai)), mul(sub(mul(br, br), mul(bi, bi)), W))
        zi = sub(mul(two, ar, ai), mul(two, br, bi, W))
        # 1/z = conj(z) / |z|^2, with |z|^2 = zr^2 + zi^2 over a real field
        mag = _fadd(ctx, mul(zr, zr), mul(zi, zi))
        if not mag[0]:
            raise CoeffError("non-invertible coefficient (zero norm)")
        inv_zr = _fdiv(ctx, zr, mag)
        inv_zi = _fdiv(ctx, _fneg(zi), mag)
        conj_top = ScalarCoeff(ctx, ar, ai, _fneg(br), _fneg(bi))
        z_inv = ScalarCoeff(ctx, inv_zr, inv_zi, _FZERO, _FZERO)
        return conj_top * z_inv

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = self.ctx.scalar(1)
        sq = self
        k = n
        while k:
            if k & 1:
                out = out * sq
            sq = sq * sq if k > 1 else sq
            k >>= 1
        return out

    # -- involutions and derivations ----------------------------------------

    def conjugate(self):
        return ScalarCoeff(self.ctx, self.ar, _fneg(self.ai), self.br, _fneg(self.bi))

    def diff(self, axis: int):
        """Formal d/dP_axis with d omega/dP_axis = P_axis/omega."""
        if axis not in AXES:
            raise ValueError("axis must be 1, 2 or 3")
        derivatives = self.ctx.derivatives
        if derivatives is None:
            return self._diff(axis)
        out = derivatives.get((self, axis))
        if out is None:
            out = derivatives[self, axis] = self._diff(axis)
        return out

    def _diff(self, axis):
        ctx = self.ctx
        idx = axis - 1
        pw = ctx.p_over_w[idx]   # P_axis / W
        dar = _fdiff(ctx, self.ar, idx)
        dai = _fdiff(ctx, self.ai, idx)
        dbr = _fdiff(ctx, self.br, idx)
        dbi = _fdiff(ctx, self.bi, idx)
        # d(b*w) = b'*w + b*P/w = (b' + b*P/W)*w
        out_br = _fadd(ctx, dbr, _fmul(ctx, self.br, pw))
        out_bi = _fadd(ctx, dbi, _fmul(ctx, self.bi, pw))
        return ScalarCoeff(ctx, dar, dai, out_br, out_bi)

    def dt(self):
        ctx = self.ctx
        idx = GEN_NAMES.index("t")
        return ScalarCoeff(ctx, _fdiff(ctx, self.ar, idx), _fdiff(ctx, self.ai, idx),
                           _fdiff(ctx, self.br, idx), _fdiff(ctx, self.bi, idx))

    def uses_gen(self, name: str) -> bool:
        mask = MAX_EXPONENT << _SHIFT[GEN_NAMES.index(name)]
        return any(key & mask for fr in self.components() for p in fr for key in p)

    # -- numerics ------------------------------------------------------------

    def evaluate(self, values, omega_value):
        """Numeric value; ``values`` maps GEN_NAMES order to numbers/arrays."""
        a = _feval(self.ar, values)
        if self.ai[0]:
            a = a + 1j * _feval(self.ai, values)
        if self.br[0] or self.bi[0]:
            b = _feval(self.br, values)
            if self.bi[0]:
                b = b + 1j * _feval(self.bi, values)
            a = a + b * omega_value
        return a

    def __repr__(self):
        from .parser import render_scalar
        return render_scalar(self)


DEFAULT_CONTEXT = AlgebraContext.get(1)


def _monomial_sqrt(fr):
    """Square root of a single-monomial fraction (even exponents), or None."""

    def half(p):
        if len(p) != 1:
            return None
        ((key, c),) = p.items()
        if key & _LOW or c < 0 or math.isqrt(c)**2 != c:
            return None
        return Poly({key >> 1: math.isqrt(c)})

    hn = half(fr[0])
    hd = half(fr[1])
    if hn is None or hd is None:
        return None
    # roots of coprime monomials with coprime integer coefficients, the
    # denominator's positive: already canonical
    return hn, hd


def scalar_sqrt(c: ScalarCoeff):
    """Square root of simple nonnegative coefficients.

    Handles r^2 (monomial square) and r^2 * W  ->  r * omega, which covers
    every square-root extraction the verification suites need (H^2 values and
    squared-mass constants). Returns None when no such form applies.
    """
    if c.ai[0] or c.br[0] or c.bi[0]:
        return None
    ctx = c.ctx
    root = _monomial_sqrt(c.ar)
    if root is not None:
        return ScalarCoeff(ctx, root, _FZERO, _FZERO, _FZERO)
    root = _monomial_sqrt(_fdiv(ctx, c.ar, ctx.radicand))
    if root is not None:
        return ScalarCoeff(ctx, _FZERO, _FZERO, root, _FZERO)
    return None
