"""Normal-ordered operator polynomials in Q1..Q3, S1..S3, Lam.

A term is coeff * Q1^q1 Q2^q2 Q3^q3 * S1^a S2^b S3^c * Lam^l with the
coefficient (a function of P, omega, m, t, hbar) on the left. The rewriting
rules are the canonical relations of the algebra:

    Q_i * f(P) = f(P) * Q_i + i*hbar * df/dP_i
    S_j * S_i  = S_i * S_j - i*hbar * eps_ijk * S_k   (i < j)
    Lam^2 = 1,   Lam central,   [Q_i, Q_j] = [Q_i, S_j] = 0

Every constructor and operation returns expressions already in normal form;
``normal_form`` re-canonicalizes and optionally applies the total-spin
substitution S^2 -> hbar^2 s(s+1).

A product of two terms is its leading piece c1*c2 * Q^(q1+q2) * S^s1 S^s2
plus the derivative tail of moving c2 left through Q^q1. ``commutator``
never forms A*B and B*A: their leading pieces cancel analytically, so it
builds only the spin bracket [S^s1, S^s2] and the two tails.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .coeffs import AlgebraContext, DEFAULT_CONTEXT, ScalarCoeff

Mono = tuple  # (q1, q2, q3, s1, s2, s3, lam)

_UNIT_MONO: Mono = (0, 0, 0, 0, 0, 0, 0)

_GENERATOR_MONOS = {
    "Q1": (1, 0, 0, 0, 0, 0, 0),
    "Q2": (0, 1, 0, 0, 0, 0, 0),
    "Q3": (0, 0, 1, 0, 0, 0, 0),
    "S1": (0, 0, 0, 1, 0, 0, 0),
    "S2": (0, 0, 0, 0, 1, 0, 0),
    "S3": (0, 0, 0, 0, 0, 1, 0),
    "Lam": (0, 0, 0, 0, 0, 0, 1),
}

SCALAR_SYMBOLS = ("P1", "P2", "P3", "m", "t", "hbar", "omega", "i", "Mmass", "E0")


class ExprError(ValueError):
    """Malformed operator-expression arithmetic."""


class OperatorExpr:
    """Immutable normal-form operator polynomial over ScalarCoeff."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms: dict):
        self.ctx = ctx
        self.terms = terms

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ctx=DEFAULT_CONTEXT) -> "OperatorExpr":
        return OperatorExpr(ctx, {})

    @staticmethod
    def from_scalar(c, ctx=DEFAULT_CONTEXT) -> "OperatorExpr":
        if isinstance(c, ScalarCoeff):
            ctx = c.ctx
        else:
            c = ctx.scalar(c)
        if not c:
            return OperatorExpr(ctx, {})
        return OperatorExpr(ctx, {_UNIT_MONO: c})

    @staticmethod
    def generator(name: str, ctx=DEFAULT_CONTEXT) -> "OperatorExpr":
        if name in _GENERATOR_MONOS:
            return OperatorExpr(ctx, {_GENERATOR_MONOS[name]: ctx.scalar(1)})
        if name in SCALAR_SYMBOLS:
            return OperatorExpr.from_scalar(ctx.gen(name), ctx)
        raise KeyError(name)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_scalar(self) -> bool:
        return all(mono == _UNIT_MONO for mono in self.terms)

    def scalar_part(self) -> ScalarCoeff:
        if not self.terms:
            return self.ctx.zero_coeff()
        if not self.is_scalar():
            raise ExprError("expression is not a pure scalar")
        return self.terms[_UNIT_MONO]

    def __eq__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- linear structure -----------------------------------------------------

    def _check_ctx(self, other):
        if self.ctx is not other.ctx:
            raise ExprError("mixing expressions from different algebra contexts")

    def _coerce(self, other):
        if isinstance(other, OperatorExpr):
            self._check_ctx(other)
            return other
        if isinstance(other, (int, Fraction, ScalarCoeff)):
            return OperatorExpr.from_scalar(other, self.ctx)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in o.terms.items():
            acc = out.get(mono)
            c = c if acc is None else acc + c
            if c:
                out[mono] = c
            elif acc is not None:
                del out[mono]
        return OperatorExpr(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return OperatorExpr(self.ctx, {m: -c for m, c in self.terms.items()})

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

    # -- multiplication --------------------------------------------------------

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        out: dict = {}
        for mono1, c1 in self.terms.items():
            for mono2, c2 in o.terms.items():
                for mono, c in _mul_terms(ctx, mono1, c1, mono2, c2):
                    acc = out.get(mono)
                    c = c if acc is None else acc + c
                    if c:
                        out[mono] = c
                    elif acc is not None:
                        del out[mono]
        return OperatorExpr(ctx, out)

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        out = OperatorExpr.from_scalar(1, self.ctx)
        for _ in range(n):
            out = out * self
        return out

    def invert(self) -> "OperatorExpr":
        """Inverse of a single-term expression with no Q or S content.

        This covers every inverse the algebra needs (scalars, and scalars
        times Lam, whose own inverse is Lam).
        """
        if len(self.terms) != 1:
            raise ExprError("only single-term scalar*Lam^k expressions are invertible")
        (mono, c), = self.terms.items()
        if any(mono[:6]):
            raise ExprError("cannot invert an expression containing Q or S")
        return OperatorExpr(self.ctx, {mono: c.inv()})

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    # -- involutions, substitutions, derivations -------------------------------

    def adjoint(self) -> "OperatorExpr":
        """Formal adjoint; Q_i, S_i, Lam are self-adjoint, scalars conjugate."""
        ctx = self.ctx
        out = OperatorExpr.zero(ctx)
        for mono, c in self.terms.items():
            q1, q2, q3, a, b, cc, lam = mono
            piece = OperatorExpr(ctx, {(0, 0, 0, 0, 0, 0, lam): ctx.scalar(1)})
            # reversed word: Lam, then S3^c S2^b S1^a, then Q^alpha, then conj(c)
            for letter, exp in (((0, 0, 0, 0, 0, 1, 0), cc),
                                ((0, 0, 0, 0, 1, 0, 0), b),
                                ((0, 0, 0, 1, 0, 0, 0), a)):
                if exp:
                    piece = piece * OperatorExpr(ctx, {tuple(e * exp for e in letter): ctx.scalar(1)})
            if q1 or q2 or q3:
                piece = piece * OperatorExpr(ctx, {(q1, q2, q3, 0, 0, 0, 0): ctx.scalar(1)})
            out = out + piece * OperatorExpr.from_scalar(c.conjugate(), ctx)
        return out

    def substitute_spin_zero(self) -> "OperatorExpr":
        """Ring homomorphism S_i -> 0 (consistent with the spin relations)."""
        return OperatorExpr(self.ctx,
                            {m: c for m, c in self.terms.items() if not any(m[3:6])})

    def d_dt(self) -> "OperatorExpr":
        out = {}
        for mono, c in self.terms.items():
            dc = c.dt()
            if dc:
                out[mono] = dc
        return OperatorExpr(self.ctx, out)

    def uses_q(self) -> bool:
        return any(any(m[:3]) for m in self.terms)

    def __repr__(self):
        from .parser import render_expr
        return render_expr(self)


# -- term multiplication ------------------------------------------------------


def _shuffle_factor(ctx, n, k):
    """(i*hbar)^k * C(n, k), memoized on the context."""
    key = (n, k)
    c = ctx.shuffle_cache.get(key)
    if c is None:
        c = ctx.shuffle_cache[key] = ctx.i_hbar()**k * comb(n, k)
    return c


def _q_shuffle(ctx, qexp, coeff):
    """The derivative tail of moving ``coeff`` left through Q1^q1 Q2^q2 Q3^q3.

    Returns the (beta, c) pieces with beta != 0 of Q^q * coeff =
    sum_beta c_beta * Q^(q - beta), using Q_i^n f = sum_k C(n,k) (i*hbar)^k
    (d^k f/dP_i^k) Q_i^(n-k). The leading piece, coeff * Q^q, is left out.
    """
    pieces = [((0, 0, 0), coeff)]
    for axis in (1, 2, 3):
        n = qexp[axis - 1]
        if not n:
            continue
        nxt = []
        for beta, c in pieces:
            d = c
            for k in range(n + 1):
                if k:
                    d = d.diff(axis)
                    if not d:
                        break
                    term = d * _shuffle_factor(ctx, n, k)
                else:
                    term = c
                if term:
                    b = list(beta)
                    b[axis - 1] = k
                    nxt.append((tuple(b), term))
        pieces = nxt
    # k = 0 comes first on every axis, so the leading piece is pieces[0]
    return pieces[1:]


def eps(i, j, k):
    """The Levi-Civita symbol on axes 1..3: zero on repeated indices."""
    return (i - j) * (j - k) * (k - i) // 2


def _s_left(ctx, i, mono):
    """PBW form of S_i * S1^a S2^b S3^c as {mono: coeff}.

    S_i moves right past the first letter S_j with j < i by
    S_i S_j = S_j S_i + i*hbar * eps_ijk * S_k."""
    key = (i, mono)
    cached = ctx.s_left_cache.get(key)
    if cached is not None:
        return cached
    j = next((n + 1 for n, e in enumerate(mono[:i - 1]) if e), None)
    if j is None:
        out = {mono[:i - 1] + (mono[i - 1] + 1,) + mono[i:]: ctx.scalar(1)}
    else:
        k = 6 - i - j
        rest = mono[:j - 1] + (mono[j - 1] - 1,) + mono[j:]
        out = {}
        for mo, co in _s_left(ctx, i, rest).items():
            for mo2, co2 in _s_left(ctx, j, mo).items():
                _acc(out, mo2, co * co2)
        ih = eps(i, j, k) * ctx.i_hbar()
        for mo, co in _s_left(ctx, k, rest).items():
            _acc(out, mo, ih * co)
    out = {mo: co for mo, co in out.items() if co}
    ctx.s_left_cache[key] = out
    return out


def _acc(table, mono, coeff):
    prev = table.get(mono)
    coeff = coeff if prev is None else prev + coeff
    if coeff:
        table[mono] = coeff
    elif prev is not None:
        del table[mono]


def _s_mul(ctx, s1, s2):
    """PBW straightening of (S1^.. S2^.. S3^..) * (S1^.. S2^.. S3^..)."""
    if s1 == (0, 0, 0):
        return {s2: ctx.scalar(1)}
    if s2 == (0, 0, 0):
        return {s1: ctx.scalar(1)}
    key = (s1, s2)
    cached = ctx.s_mul_cache.get(key)
    if cached is not None:
        return cached
    letters = []
    for i, e in ((1, s1[0]), (2, s1[1]), (3, s1[2])):
        letters.extend([i] * e)
    out = {s2: ctx.scalar(1)}
    for i in reversed(letters):
        nxt: dict = {}
        for mono, co in out.items():
            for mo2, co2 in _s_left(ctx, i, mono).items():
                _acc(nxt, mo2, co * co2)
        out = nxt
    ctx.s_mul_cache[key] = out
    return out


def _with_spin(ctx, qlead, s1, s2, lam, coeff):
    """The pieces of coeff * Q^qlead * S^s1 S^s2 * Lam^lam."""
    if s1 == (0, 0, 0) and s2 == (0, 0, 0):
        yield qlead + (0, 0, 0, lam), coeff
    else:
        for smono, sco in _s_mul(ctx, s1, s2).items():
            yield qlead + smono + (lam,), coeff * sco


def _tail_terms(ctx, mono1, c1, mono2, c2):
    """The k >= 1 Leibniz pieces of a term product: all of it but the
    leading piece c1*c2 * Q^(q1+q2) * S^s1 S^s2 * Lam^(l1+l2)."""
    q1 = mono1[:3]
    if q1 == (0, 0, 0):
        return
    lead = _q_sum(mono1, mono2)
    s1 = mono1[3:6]
    s2 = mono2[3:6]
    lam = mono1[6] ^ mono2[6]
    for beta, moved in _q_shuffle(ctx, q1, c2):
        coeff = c1 * moved
        if coeff:
            yield from _with_spin(ctx, (lead[0] - beta[0], lead[1] - beta[1],
                                        lead[2] - beta[2]),
                                  s1, s2, lam, coeff)


def _q_sum(mono1, mono2):
    """Q^(q1+q2), the Q part of the leading piece of a term product."""
    return (mono1[0] + mono2[0], mono1[1] + mono2[1], mono1[2] + mono2[2])


def _mul_terms(ctx, mono1, c1, mono2, c2):
    """Product of two normal-form terms as (mono, coeff) pieces."""
    yield from _with_spin(ctx, _q_sum(mono1, mono2), mono1[3:6], mono2[3:6],
                          mono1[6] ^ mono2[6], c1 * c2)
    yield from _tail_terms(ctx, mono1, c1, mono2, c2)


# -- public operations ---------------------------------------------------------


def normal_form(e: OperatorExpr, casimir_spin=None) -> OperatorExpr:
    """Re-canonicalize an expression; idempotent.

    With ``casimir_spin`` set to a (half-)integer s, additionally rewrites
    S3^2 -> hbar^2 s(s+1) - S1^2 - S2^2 wherever the S3-exponent reaches 2,
    i.e. works modulo the total-spin value of the (m, s) representation.
    """
    ctx = e.ctx
    out: dict = {}
    for mono, c in e.terms.items():
        if len(mono) != 7 or any(x < 0 for x in mono):
            raise ExprError(f"malformed monomial {mono}")
        lam = mono[6] & 1
        _acc(out, mono[:6] + (lam,), c)
    expr = OperatorExpr(ctx, out)
    if casimir_spin is None:
        return expr
    s = Fraction(casimir_spin)
    kappa = OperatorExpr.from_scalar(ctx.gen("hbar") ** 2 * ctx.scalar(s * (s + 1)), ctx)
    s1sq = OperatorExpr(ctx, {(0, 0, 0, 2, 0, 0, 0): ctx.scalar(1)})
    s2sq = OperatorExpr(ctx, {(0, 0, 0, 0, 2, 0, 0): ctx.scalar(1)})
    replacement = kappa - s1sq - s2sq
    while True:
        target = None
        for mono in expr.terms:
            if mono[5] >= 2:
                target = mono
                break
        if target is None:
            return expr
        c = expr.terms[target]
        head = OperatorExpr(ctx, {target[:5] + (target[5] - 2, target[6]): c})
        reduced = head * replacement
        rest = OperatorExpr(ctx, {mo: co for mo, co in expr.terms.items() if mo != target})
        expr = rest + normal_form(reduced, casimir_spin)


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    """[a, b] = a*b - b*a, without forming the leading products that cancel.

    Both products of terms t1 = c1 Q^q1 S^s1 Lam^l1 and t2 = c2 Q^q2 S^s2
    Lam^l2 open with c1*c2 * Q^(q1+q2); what is left of the pair is
    c1*c2 * Q^(q1+q2) [S^s1, S^s2] Lam^(l1+l2), zero when the spin
    monomials commute, plus the k >= 1 Leibniz tail of t1*t2 minus that
    of t2*t1.
    """
    a._check_ctx(b)
    ctx = a.ctx
    out: dict = {}
    for mono1, c1 in a.terms.items():
        s1 = mono1[3:6]
        minus_c1 = -c1
        for mono2, c2 in b.terms.items():
            s2 = mono2[3:6]
            if s1 != s2 and s1 != (0, 0, 0) and s2 != (0, 0, 0):
                spin = dict(_s_mul(ctx, s1, s2))
                for smono, sco in _s_mul(ctx, s2, s1).items():
                    _acc(spin, smono, -sco)
                lead = _q_sum(mono1, mono2)
                lam = mono1[6] ^ mono2[6]
                coeff = c1 * c2
                for smono, sco in spin.items():
                    _acc(out, lead + smono + (lam,), coeff * sco)
            for mono, c in _tail_terms(ctx, mono1, c1, mono2, c2):
                _acc(out, mono, c)
            for mono, c in _tail_terms(ctx, mono2, c2, mono1, minus_c1):
                _acc(out, mono, c)
    return OperatorExpr(ctx, out)


def _scale(e: OperatorExpr, c: ScalarCoeff) -> OperatorExpr:
    """e * c for a nonzero constant c, one with no P or omega in it: it has
    no Leibniz tail and commutes with S and Lam, so each coefficient is
    multiplied by c where it stands."""
    return OperatorExpr(e.ctx, {mono: co * c for mono, co in e.terms.items()})


def total_time_derivative(e: OperatorExpr, h: OperatorExpr) -> OperatorExpr:
    """d e/dt = partial_t e + (1/i hbar)[e, H]."""
    return e.d_dt() + _scale(commutator(e, h), e.ctx.i_hbar().inv())
