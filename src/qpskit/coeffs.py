"""Exact scalar coefficients for the operator engine.

A coefficient is an element of QQ(i)(P1,P2,P3,m,t,hbar,Mmass,E0)[omega] with
omega^2 = P1^2+P2^2+P3^2 + (k*m)^2, stored as four rational functions over
plain QQ:

    value = (ar + ai*i) + (br + bi*i)*omega

Keeping real and imaginary parts as separate QQ fractions sidesteps sympy's
very slow QQ_I fraction field while preserving exact, canonical arithmetic:
{1, i, omega, i*omega} is a basis of the extension over QQ(vars), so equality
of values is component-wise equality of canonical fractions.

The mass rescaling k (default 1) supports algebras built on a different
energy-momentum relation, e.g. omega'^2 = P^2 + (2m)^2.

Fractions are sympy ``FracElement``s in sympy's canonical form: numerator
and denominator coprime, with integer coefficients of joint content 1 and a
positive leading coefficient in the denominator. They are reduced here, not
by sympy's GCD-based ``cancel``. Every denominator the engine meets is a
constant times powers of a few irreducible polynomials, so each context
keeps a registry of irreducible factors, seeded with the eight generators,
P^2 = P1^2+P2^2+P3^2 and the radicand P^2 + (k*m)^2, and caches each
denominator's factorization over it. An operation passes its operands'
denominators as the parts of the new one, whose factorization is then the
sum of theirs. Reducing n/d divides every factor of d out of n as often as
it goes (exact trial division), then fixes content and sign with integer
arithmetic. A polynomial with a factor outside the registry (user input
such as 1/(P1+m), or the norm of an inverted coefficient such as
c^2 P1^2 - P^2 - m^2) is split once by ``factor_list``; its irreducible
factors join the registry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from sympy.polys.domains import QQ
from sympy.polys.fields import field as _frac_field
from sympy.polys.monomials import monomial_div

GEN_NAMES = ("P1", "P2", "P3", "m", "t", "hbar", "Mmass", "E0")
AXES = (1, 2, 3)


class CoeffError(ArithmeticError):
    """Raised for malformed coefficient arithmetic (e.g. division by zero)."""


class AlgebraContext:
    """Shared ring data: the rational-function field and the omega radicand.

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
        created = _frac_field(",".join(GEN_NAMES), QQ)
        self.field = created[0]
        self.ring = self.field.ring
        gens = created[1:]
        (self.P1, self.P2, self.P3, self.m, self.t,
         self.hbar, self.Mmass, self.E0) = gens
        self.fzero = self.field.zero
        self.fone = self.field.one
        x = self.ring.gens
        psq = x[0]**2 + x[1]**2 + x[2]**2
        # den^2 * (P^2 + (k*m)^2) has integer coefficients of content 1
        norm = psq * k.denominator**2 + x[3]**2 * k.numerator**2
        self.radicand = self.field.raw_new(norm, self.ring.ground_new(k.denominator**2))
        # irreducible factors denominators are tried against, and each
        # denominator's factorization over them: {denom: ((factor, exp), ...)}
        self.factors = [*x, psq, norm]
        self.factorizations: dict = {}
        # caches used by the operator layer
        self.s_left_cache: dict = {}
        self.s_mul_cache: dict = {}
        self.spin_matrix_cache: dict = {}
        self.scalar_cache: dict = {}
        self.shuffle_cache: dict = {}
        self._i_hbar = ScalarCoeff(self, self.fzero, self.hbar, self.fzero, self.fzero)
        self.p_over_w = tuple(_fdiv(self, g, self.radicand) for g in gens[:3])

    @classmethod
    def get(cls, mass_factor=1) -> "AlgebraContext":
        k = Fraction(mass_factor)
        if k not in cls._instances:
            cls._instances[k] = cls(mass_factor=k)
        return cls._instances[k]

    def __repr__(self):
        return f"AlgebraContext(mass_factor={self.mass_factor})"

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
            fr = self.field.raw_new(self.ring.ground_new(f.numerator),
                                    self.ring.ground_new(f.denominator))
            c = self.scalar_cache[value] = ScalarCoeff(
                self, fr, self.fzero, self.fzero, self.fzero)
        return c

    def imag_unit(self) -> "ScalarCoeff":
        return ScalarCoeff(self, self.fzero, self.fone, self.fzero, self.fzero)

    def gen(self, name: str) -> "ScalarCoeff":
        if name == "omega":
            return ScalarCoeff(self, self.fzero, self.fzero, self.fone, self.fzero)
        if name == "i":
            return self.imag_unit()
        if name not in GEN_NAMES:
            raise KeyError(name)
        fr = getattr(self, name)
        return ScalarCoeff(self, fr, self.fzero, self.fzero, self.fzero)

    def zero_coeff(self) -> "ScalarCoeff":
        return ScalarCoeff(self, self.fzero, self.fzero, self.fzero, self.fzero)

    def i_hbar(self) -> "ScalarCoeff":
        return self._i_hbar


# -- fraction reduction ---------------------------------------------------------


def _exquo(p, f):
    """p / f when f divides p exactly, else None.

    Long division in the ring's lex order that stops at the first remainder
    term the leading term of f does not divide: if f | p, every remainder is
    a multiple of f and so is its leading term.
    """
    if len(f) == 1:
        ((fm, fc),) = f.items()
        out = {}
        for mono, c in p.items():
            q = monomial_div(mono, fm)
            if q is None:
                return None
            out[q] = c / fc
        return p.new(out)
    fm = max(f)
    fc = f[fm]
    tail = [(mono, c) for mono, c in f.items() if mono != fm]
    rem = dict(p)
    out = {}
    while rem:
        lead = max(rem)
        q = monomial_div(lead, fm)
        if q is None:
            return None
        c = rem.pop(lead) / fc
        out[q] = c
        for mono, tc in tail:
            key = tuple(a + b for a, b in zip(mono, q))
            v = rem.get(key)
            v = -c * tc if v is None else v - c * tc
            if v:
                rem[key] = v
            else:
                del rem[key]
    return p.new(out)


def _normalize(n, d):
    """Scale n/d to integer coefficients of joint content 1 and a positive
    leading coefficient of d: the normalization ``PolyElement.cancel`` ends
    with."""
    # running lcm/gcd: passing all coefficients to one call builds a tuple
    # per call, and tuples of every length held in CPython's free lists
    # raised peak memory by about a megabyte over a symbolic run
    den = 1
    for c in chain(n.values(), d.values()):
        den = math.lcm(den, c.denominator)
    num = 0
    for c in chain(n.values(), d.values()):
        num = math.gcd(num, c.numerator * (den // c.denominator))
    if d[max(d)] < 0:
        num = -num
    if den == num == 1:
        return n, d
    scale = QQ(den, num)
    return n.mul_ground(scale), d.mul_ground(scale)


def _factorization(ctx, p):
    """((factor, exponent), ...) of p over ctx.factors, cached by p.

    Whatever the registry leaves over is split by ``factor_list`` once and
    its irreducible factors join the registry.
    """
    fac = ctx.factorizations.get(p)
    if fac is not None:
        return fac
    rest = p
    fac = []
    for f in ctx.factors:
        if rest.is_ground:
            break
        e = 0
        while (q := _exquo(rest, f)) is not None:
            rest = q
            e += 1
        if e:
            fac.append((f, e))
    if not rest.is_ground:
        # no registry factor divides rest, so each of these is new
        for f, e in rest.factor_list()[1]:
            ctx.factors.append(f)
            fac.append((f, e))
    fac = ctx.factorizations[p] = tuple(fac)
    return fac


def _reduce(ctx, n, *dens):
    """Canonical (numer, denom) of n / (dens[0] * dens[1] * ...).

    The denominator's factorization is the sum of its parts'. Callers pass
    their operands' denominators as the parts; each is factored once and
    cached, so a product of denominators is never factored as a whole.
    """
    if not n:
        return ctx.ring.zero, ctx.ring.one
    d = dens[0]
    exps: dict = {}
    for i, p in enumerate(dens):
        if i:
            d = d * p
        if not p.is_ground:
            for f, e in _factorization(ctx, p):
                exps[f] = exps.get(f, 0) + e
    left = []
    for f, e in exps.items():
        k = 0
        while k < e and (q := _exquo(n, f)) is not None:
            n = q
            d = _exquo(d, f)
            k += 1
        if k < e:
            left.append((f, e - k))
    n, d = _normalize(n, d)
    if not d.is_ground:
        ctx.factorizations.setdefault(d, tuple(left))
    return n, d


def _frac(ctx, n, *dens):
    return ctx.field.raw_new(*_reduce(ctx, n, *dens))


def _fadd(ctx, f, g):
    if not f:
        return g
    if not g:
        return f
    if f.denom == g.denom:
        return _frac(ctx, f.numer + g.numer, f.denom)
    return _frac(ctx, f.numer * g.denom + g.numer * f.denom, f.denom, g.denom)


def _fsub(ctx, f, g):
    return _fadd(ctx, f, -g)


def _fmul(ctx, f, g):
    if not f or not g:
        return ctx.fzero
    return _frac(ctx, f.numer * g.numer, f.denom, g.denom)


def _fdiv(ctx, f, g):
    if not f:
        return ctx.fzero
    return _frac(ctx, f.numer * g.denom, f.denom, g.numer)


def _fdiff(ctx, fr, gen_index):
    """d/d gen of a fraction, by the quotient rule on sparse polys."""
    gen = ctx.ring.gens[gen_index]
    n, d = fr.numer, fr.denom
    dn = n.diff(gen)
    dd = d.diff(gen)
    if not dd:
        if not dn:
            return ctx.fzero
        return _frac(ctx, dn, d)
    return _frac(ctx, dn * d - n * dd, d, d)


def _feval(fr, values):
    """Evaluate a fraction numerically; values indexed like GEN_NAMES.

    Entries of ``values`` may be scalars or numpy arrays (broadcastable).
    """
    def poly_eval(p):
        total = 0.0
        for monom, coeff in p.terms():
            term = float(coeff)
            for g, e in enumerate(monom):
                if e:
                    v = values[g]
                    term = term * v**e
            total = total + term
        return total

    num = poly_eval(fr.numer)
    den = poly_eval(fr.denom)
    return num / den


class ScalarCoeff:
    """Element a + b*omega with complex rational-function parts a, b."""

    __slots__ = ("ctx", "ar", "ai", "br", "bi")

    def __init__(self, ctx, ar, ai, br, bi):
        self.ctx = ctx
        self.ar = ar
        self.ai = ai
        self.br = br
        self.bi = bi

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.ar) or bool(self.ai) or bool(self.br) or bool(self.bi)

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
        return hash((self.ar, self.ai, self.br, self.bi))

    def components(self):
        return (self.ar, self.ai, self.br, self.bi)

    def is_real(self):
        return not self.ai and not self.bi

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
        return ScalarCoeff(self.ctx, -self.ar, -self.ai, -self.br, -self.bi)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        W = ctx.radicand
        # (A + B*w)(C + D*w) = (AC + BD*W) + (AD + BC)*w, complex parts split
        ar, ai, br, bi = self.components()
        cr, ci, dr, di = o.components()
        zer = ctx.fzero

        def cmul(xr, xi, yr, yi):
            if (not xr and not xi) or (not yr and not yi):
                return zer, zer
            re = _fsub(ctx, _fmul(ctx, xr, yr), _fmul(ctx, xi, yi))
            im = _fadd(ctx, _fmul(ctx, xr, yi), _fmul(ctx, xi, yr))
            return re, im

        ac_r, ac_i = cmul(ar, ai, cr, ci)
        bd_r, bd_i = cmul(br, bi, dr, di)
        ad_r, ad_i = cmul(ar, ai, dr, di)
        bc_r, bc_i = cmul(br, bi, cr, ci)
        if bd_r or bd_i:
            out_ar = _fadd(ctx, ac_r, _fmul(ctx, bd_r, W))
            out_ai = _fadd(ctx, ac_i, _fmul(ctx, bd_i, W))
        else:
            out_ar, out_ai = ac_r, ac_i
        return ScalarCoeff(ctx, out_ar, out_ai, _fadd(ctx, ad_r, bc_r),
                           _fadd(ctx, ad_i, bc_i))

    __rmul__ = __mul__

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

        # complex norm-like element z = A^2 - B^2*W
        zr = _fsub(ctx, _fsub(ctx, mul(ar, ar), mul(ai, ai)),
                   mul(_fsub(ctx, mul(br, br), mul(bi, bi)), W))
        zi = _fsub(ctx, mul(two, ar, ai), mul(two, br, bi, W))
        # 1/z = conj(z) / |z|^2, with |z|^2 = zr^2 + zi^2 over a real field
        mag = _fadd(ctx, mul(zr, zr), mul(zi, zi))
        if not mag:
            raise CoeffError("non-invertible coefficient (zero norm)")
        inv_zr = _fdiv(ctx, zr, mag)
        inv_zi = _fdiv(ctx, -zi, mag)
        conj_top = ScalarCoeff(ctx, ar, ai, -br, -bi)
        z_inv = ScalarCoeff(ctx, inv_zr, inv_zi, ctx.fzero, ctx.fzero)
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
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- involutions and derivations ----------------------------------------

    def conjugate(self):
        return ScalarCoeff(self.ctx, self.ar, -self.ai, self.br, -self.bi)

    def diff(self, axis: int):
        """Formal d/dP_axis with d omega/dP_axis = P_axis/omega."""
        if axis not in AXES:
            raise ValueError("axis must be 1, 2 or 3")
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
        idx = GEN_NAMES.index(name)
        for fr in self.components():
            for p in (fr.numer, fr.denom):
                for monom in p.monoms():
                    if monom[idx]:
                        return True
        return False

    # -- numerics ------------------------------------------------------------

    def evaluate(self, values, omega_value):
        """Numeric value; ``values`` maps GEN_NAMES order to numbers/arrays."""
        a = _feval(self.ar, values)
        if self.ai:
            a = a + 1j * _feval(self.ai, values)
        if self.br or self.bi:
            b = _feval(self.br, values)
            if self.bi:
                b = b + 1j * _feval(self.bi, values)
            a = a + b * omega_value
        return a

    def __repr__(self):
        from .parser import render_scalar
        return render_scalar(self)


DEFAULT_CONTEXT = AlgebraContext.get(1)


def rational_sqrt(f: Fraction):
    """Exact square root of a rational, or None."""
    if f < 0:
        return None
    pn = math.isqrt(f.numerator)
    pd = math.isqrt(f.denominator)
    if pn * pn != f.numerator or pd * pd != f.denominator:
        return None
    return Fraction(pn, pd)


def _monomial_sqrt(fr):
    """Square root of a single-monomial fraction (even exponents), or None."""
    field = fr.field

    def half(p):
        terms = list(p.terms())
        if len(terms) != 1:
            return None
        monom, coeff = terms[0]
        if any(e % 2 for e in monom):
            return None
        c = rational_sqrt(Fraction(int(QQ.numer(coeff)), int(QQ.denom(coeff))))
        if c is None:
            return None
        ring = p.ring
        out = ring.from_dict({tuple(e // 2 for e in monom): ring.domain.one})
        return out * c.numerator / c.denominator

    hn = half(fr.numer)
    hd = half(fr.denom)
    if hn is None or hd is None:
        return None
    # roots of coprime monomials with coprime integer coefficients, the
    # denominator's positive: already canonical
    return field.raw_new(hn, hd)


def scalar_sqrt(c: ScalarCoeff):
    """Square root of simple nonnegative coefficients.

    Handles r^2 (monomial square) and r^2 * W  ->  r * omega, which covers
    every square-root extraction the verification suites need (H^2 values and
    squared-mass constants). Returns None when no such form applies.
    """
    if c.ai or c.br or c.bi:
        return None
    ctx = c.ctx
    root = _monomial_sqrt(c.ar)
    if root is not None:
        return ScalarCoeff(ctx, root, ctx.fzero, ctx.fzero, ctx.fzero)
    quot = _fdiv(ctx, c.ar, ctx.radicand)
    root = _monomial_sqrt(quot)
    if root is not None:
        return ScalarCoeff(ctx, ctx.fzero, ctx.fzero, root, ctx.fzero)
    return None
