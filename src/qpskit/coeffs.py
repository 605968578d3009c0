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
"""

from __future__ import annotations

import math
from fractions import Fraction

from sympy.polys.domains import QQ
from sympy.polys.fields import field as _frac_field

GEN_NAMES = ("P1", "P2", "P3", "m", "t", "hbar", "Mmass", "E0")
AXES = (1, 2, 3)


class CoeffError(ArithmeticError):
    """Raised for malformed coefficient arithmetic (e.g. division by zero)."""


class AlgebraContext:
    """Shared ring data: the rational-function field and the omega radicand.

    Expressions from different contexts must not be mixed; the square root
    adjoined in one context is not an element of another.
    """

    _instances: dict[Fraction, "AlgebraContext"] = {}

    def __init__(self, mass_factor=1):
        k = Fraction(mass_factor)
        if k <= 0:
            raise ValueError("mass_factor must be positive")
        self.mass_factor = k
        created = _frac_field(",".join(GEN_NAMES), QQ)
        self.field = created[0]
        gens = created[1:]
        (self.P1, self.P2, self.P3, self.m, self.t,
         self.hbar, self.Mmass, self.E0) = gens
        self.gens = gens
        self.fzero = self.field.zero
        self.fone = self.field.one
        self.psq = self.P1**2 + self.P2**2 + self.P3**2
        self.radicand = self.psq + self.m**2 * k.numerator**2 / k.denominator**2
        # caches used by the operator layer
        self.s_left_cache: dict = {}
        self.s_mul_cache: dict = {}
        self.spin_matrix_cache: dict = {}

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
        f = Fraction(value)
        fr = self.field.one * f.numerator / f.denominator
        return ScalarCoeff(self, fr, self.fzero, self.fzero, self.fzero)

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
        return ScalarCoeff(self, self.fzero, self.hbar, self.fzero, self.fzero)


DEFAULT_CONTEXT = AlgebraContext.get(1)


def _fdiff(fr, gen_index):
    """d/d gen of a fraction, by the quotient rule on sparse polys."""
    gen = fr.field.ring.gens[gen_index]
    n, d = fr.numer, fr.denom
    dn = n.diff(gen)
    dd = d.diff(gen)
    if not dd:
        if not dn:
            return fr.field.zero
        return fr.field.new(dn, d)
    return fr.field.new(dn * d - n * dd, d * d)


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
        return ScalarCoeff(self.ctx, self.ar + o.ar, self.ai + o.ai,
                           self.br + o.br, self.bi + o.bi)

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
            re = xr * yr - xi * yi
            im = xr * yi + xi * yr
            return re, im

        ac_r, ac_i = cmul(ar, ai, cr, ci)
        bd_r, bd_i = cmul(br, bi, dr, di)
        ad_r, ad_i = cmul(ar, ai, dr, di)
        bc_r, bc_i = cmul(br, bi, cr, ci)
        if bd_r or bd_i:
            out_ar = ac_r + bd_r * W
            out_ai = ac_i + bd_i * W
        else:
            out_ar, out_ai = ac_r, ac_i
        return ScalarCoeff(ctx, out_ar, out_ai, ad_r + bc_r, ad_i + bc_i)

    __rmul__ = __mul__

    def inv(self):
        """Total on nonzero elements: 1/(A+Bw) = (A-Bw)/(A^2 - B^2 W)."""
        if not self:
            raise CoeffError("division by the zero coefficient")
        ctx = self.ctx
        W = ctx.radicand
        ar, ai, br, bi = self.components()
        # complex norm-like element z = A^2 - B^2*W
        zr = ar * ar - ai * ai - (br * br - bi * bi) * W
        zi = 2 * ar * ai - 2 * br * bi * W
        # 1/z = conj(z) / |z|^2, with |z|^2 = zr^2 + zi^2 over a real field
        mag = zr * zr + zi * zi
        if not mag:
            raise CoeffError("non-invertible coefficient (zero norm)")
        inv_zr = zr / mag
        inv_zi = -zi / mag
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
        pw = (ctx.P1, ctx.P2, ctx.P3)[idx] / ctx.radicand   # P_axis / W
        dar = _fdiff(self.ar, idx)
        dai = _fdiff(self.ai, idx)
        dbr = _fdiff(self.br, idx)
        dbi = _fdiff(self.bi, idx)
        # d(b*w) = b'*w + b*P/w = (b' + b*P/W)*w
        out_br = dbr + (self.br * pw if self.br else ctx.fzero)
        out_bi = dbi + (self.bi * pw if self.bi else ctx.fzero)
        return ScalarCoeff(ctx, dar, dai, out_br, out_bi)

    def dt(self):
        idx = GEN_NAMES.index("t")
        return ScalarCoeff(self.ctx, _fdiff(self.ar, idx), _fdiff(self.ai, idx),
                           _fdiff(self.br, idx), _fdiff(self.bi, idx))

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
    return field.new(hn, hd)


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
    quot = c.ar / ctx.radicand
    root = _monomial_sqrt(quot)
    if root is not None:
        return ScalarCoeff(ctx, ctx.fzero, ctx.fzero, root, ctx.fzero)
    return None
