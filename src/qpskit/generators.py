"""Generator sets built from the position/momentum/spin primitives, and the
symbolic verification suites: commutator tables, Casimir invariants, the
Pauli-Lubanski identities, boost-matrix identities, the conservation/
covariance lemma chain, and the energy-momentum closure test.

Generators and identities are both declared as data over one word language.
The Foldy set (``FOLDY``, with its orbital/spin split ``ORBITAL_SPIN``), the
Bargmann set (``BARGMANN``) and the names that only the exact side reads
(``DERIVED``) are sums of words over the primitives; the table, lemma,
Casimir, Pauli-Lubanski and boost-matrix identities (``TABLES``, ``LEMMAS``,
``CASIMIRS``, ``PAULI_LUBANSKI``, ``BOOST_MATRIX``) are pairs of such sums.
One read-counted evaluator, ``_Words``, builds the sets and checks the
identities; numcheck reads the same declarations for its grid twins.

Lam, the frequency sign, is central with Lam^2 = 1, so every identity is
declared once for both sectors, with Lam written where the sign enters, and
checked on both at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from .coeffs import AlgebraContext, DEFAULT_CONTEXT, scalar_sqrt
from .expr import (ExprError, OperatorExpr, _scale, commutator, eps,
                   normal_form, total_time_derivative)
from .parser import render_expr, render_scalar
from .report import VerificationReport

AXES = (1, 2, 3)


class GeneratorSet:
    """Named map generator-symbol -> OperatorExpr."""

    def __init__(self, ctx: AlgebraContext, table: dict):
        self.ctx = ctx
        self.table = table

    def __getitem__(self, name: str) -> OperatorExpr:
        return self.table[name]

    def __contains__(self, name):
        return name in self.table

    def items(self):
        return self.table.items()


# -- the word language ----------------------------------------------------------
#
# A sum is a tuple of terms (c, k, word) standing for c * (i*hbar)**k * word.
# A word is "1" (the identity; psi on the grid), a name, a product "A*B*C",
# a commutator "[A,B]" or a total time derivative "d/dt A". A name is a
# primitive (Q1..3, P1..3, S1..3, Lam, omega, t, the effective mass m = k*m
# of omega^2 = P^2 + (k*m)^2, Mmass, E0), a generator declared earlier, a
# ``DERIVED`` name, "1/X" (the inverse of the name X, parenthesized if it
# has an operator in it) or "(X)^(-1/2)" (the inverse square root of a
# perfect-square scalar X).


def parse_word(word):
    """(kind, names) of a word; kind is "1", "[]", "d/dt" or "*"."""
    if word == "1":
        return "1", ()
    if word.startswith("["):
        return "[]", tuple(word[1:-1].split(","))
    if word.startswith("d/dt "):
        return "d/dt", (word[5:],)
    return "*", tuple(word.split("*"))


def _one(word):
    return ((1, 0, word),)


def _oriented(word):
    """(key, sign): the bracket [B,A] with B after A in name order reads as
    -[A,B], so both orientations share the key "[A,B]"; any other word is
    its own key with sign 1."""
    if word.startswith("["):
        a, b = word[1:-1].split(",")
        if b < a:
            return f"[{b},{a}]", -1
    return word, 1


def _eps_pairs(i):
    """(eps_ijk, j, k) over the nonzero entries for fixed i."""
    return [(eps(i, j, k), j, k) for j in AXES for k in AXES if eps(i, j, k)]


def _eps_terms(prefix, i, j, k=0, c=1, suffix=""):
    """c*(i*hbar)^k * sum_n eps_ijn * prefix_n."""
    return tuple((c * eps(i, j, n), k, f"{prefix}{n}{suffix}")
                 for n in AXES if eps(i, j, n))


def _cross(a, b, i, c=1, prefix="", suffix=""):
    """c * prefix*(a x b)_i*suffix."""
    return tuple((c * e, 0, f"{prefix}{a}{j}*{b}{k}{suffix}")
                 for e, j, k in _eps_pairs(i))


def _pxsxp(i, c=1, prefix="", suffix="*1/(omega+m)"):
    """c * prefix*(Px(SxP))_i*suffix."""
    return tuple((c * e1 * e2, 0, f"{prefix}P{j}*S{n}*P{p}{suffix}")
                 for e1, j, k in _eps_pairs(i) for e2, n, p in _eps_pairs(k))


DERIVED = {
    "P.P": tuple((1, 0, f"P{i}*P{i}") for i in AXES),
    "omega+m": ((1, 0, "omega"), (1, 0, "m")),
    "m^2": _one("m*m"),
    "H^2": _one("H*H"),
    "C1": ((1, 0, "H*H"), (-1, 0, "P.P")),
    "C2": _one("W0*W0") + tuple((-1, 0, f"W{i}*W{i}") for i in AXES),
}

# L = QxP and J = L + S
_ROTATION = tuple([(f"L{i}", _cross("Q", "P", i)) for i in AXES]
                  + [(f"J{i}", ((1, 0, f"L{i}"), (1, 0, f"S{i}"))) for i in AXES])

# the orbital/spin split of the rotation and boost generators around H and m:
# L and J, M = tP - sym(Q, H), N = Lam SxP/(omega+m) and K = M + N
ORBITAL_SPIN = _ROTATION + tuple(
    [(f"M{i}", ((1, 0, f"t*P{i}"), (Fraction(-1, 2), 0, f"Q{i}*H"),
                (Fraction(-1, 2), 0, f"H*Q{i}"))) for i in AXES]
    + [(f"N{i}", _cross("S", "P", i, prefix="Lam*", suffix="*1/(omega+m)"))
       for i in AXES]
    + [(f"K{i}", ((1, 0, f"M{i}"), (1, 0, f"N{i}"))) for i in AXES])

# H = Lam*omega, the split above, V = (1/i hbar)[Q, H], W0 = J.P, W = HJ - PxK
FOLDY = ((("H", _one("Lam*omega")),) + ORBITAL_SPIN
         + tuple((f"V{i}", ((1, -1, f"[Q{i},H]"),)) for i in AXES)
         + (("W0", tuple((1, 0, f"J{i}*P{i}") for i in AXES)),)
         + tuple((f"W{i}", _one(f"H*J{i}") + _cross("P", "K", i, c=-1))
                 for i in AXES))

# H = P^2/(2 Mmass) + E0, L = QxP, J = L + S, C = tP - Mmass*Q
BARGMANN = ((("H", ((Fraction(1, 2), 0, "P.P*1/Mmass"), (1, 0, "E0"))),)
            + _ROTATION
            + tuple((f"C{i}", ((1, 0, f"t*P{i}"), (-1, 0, f"Mmass*Q{i}")))
                    for i in AXES))


def _primitives(ctx):
    names = {name: OperatorExpr.generator(name, ctx) for name in
             ("Q1", "Q2", "Q3", "P1", "P2", "P3", "S1", "S2", "S3", "Lam",
              "omega", "t", "Mmass", "E0")}
    names["m"] = OperatorExpr.from_scalar(
        ctx.gen("m") * ctx.scalar(ctx.mass_factor), ctx)
    return names


class _Words:
    """Sums of words over the table ``names``, which gains each derived
    name on its first read. Every word of ``terms`` is computed once, however
    many sums read it, and dropped after its last read. The brackets [A,B]
    and [B,A] are one word: the kernel forms the one with its names in order
    and the other reads its exact negation, so the read count is kept per
    unordered pair. A constant factor c*(i*hbar)^k scales each coefficient
    of its word where it stands."""

    def __init__(self, ctx, names, terms):
        self.ctx = ctx
        self.names = names
        self.reads = Counter(_oriented(word)[0] for _, _, word in terms)
        self.words, self.factors = {}, {}

    def name(self, name):
        if name not in self.names:
            if name.startswith("1/"):
                value = self.name(name[2:].strip("()")).invert()
            elif name.endswith("^(-1/2)"):
                base = name[:-7].strip("()")
                try:
                    root = scalar_sqrt(self.name(base).scalar_part())
                except ExprError:
                    root = None
                if root is None:
                    raise ExprError(f"{base} is not a recognizable perfect square")
                value = OperatorExpr.from_scalar(root.inv(), self.ctx)
            else:
                terms = DERIVED[name]
                value = _Words(self.ctx, self.names, terms).side(terms)
            self.names[name] = value
        return self.names[name]

    def value(self, word):
        """(value, sign): the word is sign * value."""
        key, sign = _oriented(word)
        if key not in self.words:
            kind, parts = parse_word(word)
            ops = [self.name(name) for name in parts]
            if kind == "1":
                v = OperatorExpr.from_scalar(1, self.ctx)
            elif kind == "[]":
                a, b = ops if sign > 0 else ops[::-1]
                v = commutator(a, b)
            elif kind == "d/dt":
                v = total_time_derivative(ops[0], self.names["H"])
            else:
                v = ops[0]
                for op in ops[1:]:
                    v = v * op
            self.words[key] = v
        self.reads[key] -= 1
        return self.words[key] if self.reads[key] else self.words.pop(key), sign

    def side(self, terms):
        total = OperatorExpr.zero(self.ctx)
        for c, k, word in terms:
            # a mirrored bracket is scaled as read, so its coefficient
            # products are those of [A,B] and the sign goes last
            v, sign = self.value(word)
            if (c, k) != (1, 0):
                if (c, k) not in self.factors:
                    self.factors[c, k] = self.ctx.scalar(c) * self.ctx.i_hbar() ** k
                v = _scale(v, self.factors[c, k])
            total = total + v if sign > 0 else total - v
        return total


def _declare(ctx, names, decls):
    """``names`` with the declarations ``decls``, (name, sum) pairs, added in
    order, each evaluated over the names before it."""
    words = _Words(ctx, names, [term for _, terms in decls for term in terms])
    for name, terms in decls:
        names[name] = words.side(terms)
    return names


def foldy_generators(ctx: AlgebraContext = DEFAULT_CONTEXT) -> GeneratorSet:
    """Relativistic generator set H = Lam*omega, J = QxP + S,
    K = tP - Q.H + Lam SxP/(omega+m), with the derived L, M, N, V, W pieces.
    """
    with ctx.evaluation():
        names = _declare(ctx, _primitives(ctx), FOLDY)
    table = {name: names[name] for name in ("H", "Lam", "W0")}
    table.update((f"{p}{i}", names[f"{p}{i}"]) for i in AXES for p in "PQSJKLMNVW")
    return GeneratorSet(ctx, table)


def bargmann_generators(ctx: AlgebraContext = DEFAULT_CONTEXT) -> GeneratorSet:
    """Nonrelativistic set H = P^2/(2 Mmass) + E0, J = QxP + S,
    C = tP - Mmass*Q, with Mmass and E0 central constants."""
    with ctx.evaluation():
        names = _declare(ctx, _primitives(ctx), BARGMANN)
    table = {name: names[name] for name in ("H", "Mmass", "E0")}
    table.update((f"{p}{i}", names[f"{p}{i}"]) for i in AXES for p in "PQSJLC")
    return GeneratorSet(ctx, table)


# -- declared identities ------------------------------------------------------------
#
# The table, lemma, Casimir, Pauli-Lubanski and boost-matrix identities are
# declared once, as pairs of sums in the word language above, and read by
# two evaluators: the exact one here and the grid one in numcheck. Names in
# an identity are generators of the set under test; symbolic-only identities
# may also read the primitives t, omega and m, the ``DERIVED`` names and the
# "1/X" and "(X)^(-1/2)" forms.

_NOT_YET = ("grid twin not added yet: it would add entries to the "
            "174-entry numeric residuals report")
_INVERSE = "needs an inverse outside the generator set"
_SPIN_ZERO = "needs the S -> 0 substitution"
_NONZERO = "a nonzero test, not an identity"
_SQUARE = "needs a perfect-square test"
_MASS = "Mmass has no grid realization"
_DERIVED = "reads C1, C2 or m^2, which only the exact evaluator computes"


@dataclass(frozen=True, slots=True)
class Identity:
    """One declared identity, sum(lhs) == sum(expected)."""

    id: str
    lhs: tuple
    expected: tuple
    lhs_text: str
    expected_text: str | None = None  # None: render the exact expected side
    spin_zero: bool = False   # read the residual at S = 0
    nonzero: bool = False     # pass when lhs is nonzero (expected is empty)
    symbolic_only: str = ""   # why there is no grid twin; empty if there is one


def _exact_report(suite, identities, gens, casimir_spin=None) -> VerificationReport:
    """Check declared identities exactly on ``gens``.

    Every word is computed once per suite, however many entries read it,
    and dropped after its last read; [B,A] reads the negation of [A,B].
    Coefficient products, derivatives and rendered texts are memoized
    across the entries and forgotten when the report returns.
    With ``casimir_spin`` set, residuals are normalized modulo S^2.
    """
    with gens.ctx.evaluation():
        return _check_identities(suite, identities, gens, casimir_spin)


def _check_identities(suite, identities, gens, casimir_spin):
    words = _Words(gens.ctx, {**_primitives(gens.ctx), **gens.table},
                   [term for ident in identities
                    for term in ident.lhs + ident.expected])
    report = VerificationReport(suite)
    for ident in identities:
        try:
            lhs, want = words.side(ident.lhs), words.side(ident.expected)
        except ExprError as exc:
            report.add(id=ident.id, lhs=ident.lhs_text,
                       expected=ident.expected_text or "", residual=str(exc),
                       passed=False)
            continue
        residual = lhs - want
        if ident.spin_zero:
            residual = residual.substitute_spin_zero()
        if casimir_spin is not None:
            residual = normal_form(residual, casimir_spin=casimir_spin)
        report.add(id=ident.id, lhs=ident.lhs_text,
                   expected=ident.expected_text or render_expr(want),
                   residual=render_expr(residual),
                   passed=bool(residual) if ident.nonzero else residual.is_zero())
    return report


# -- commutator tables ----------------------------------------------------------

_TABLE_ROLES = {"poincare": ("J", "K"), "poincare_spinless": ("L", "M"),
                "bargmann": ("J", "C")}


def _table_identities(which):
    """(1/i hbar)[A, B] for the ten generators of the group; 'bargmann' adds
    centrality of Mmass and conservation of C."""
    rot, boost = _TABLE_ROLES[which]
    central = "Mmass" if which == "bargmann" else "H"
    names = ["H"] + [f"{p}{i}" for p in ("P", rot, boost) for i in AXES]
    role = {"H": "H", "P": "P", rot: "R", boost: "B"}

    def expected(a, b):
        ia, ib = int(a[1:] or 0), int(b[1:] or 0)
        pair = role[a[0]] + role[b[0]]
        if pair == "HB":
            return _one(f"P{ib}")
        if pair == "BH":
            return ((-1, 0, f"P{ia}"),)
        if pair in ("PR", "RP"):
            return _eps_terms("P", ia, ib)
        if pair in ("PB", "BP") and ia == ib:
            return ((1 if pair == "PB" else -1, 0, central),)
        if pair == "RR":
            return _eps_terms(rot, ia, ib)
        if pair in ("RB", "BR"):
            return _eps_terms(boost, ia, ib)
        if pair == "BB" and which != "bargmann":
            return _eps_terms(rot, ia, ib, c=-1)
        return ()

    no_grid = _MASS if which == "bargmann" else ""
    table = [Identity(f"[{a},{b}]", ((1, -1, f"[{a},{b}]"),), expected(a, b),
                      f"(1/(i*hbar))*[{a},{b}]", symbolic_only=no_grid)
             for a in names for b in names]
    if which == "bargmann":
        table += [Identity(f"central[Mmass,{n}]", _one(f"[Mmass,{n}]"), (),
                           f"[Mmass,{n}]", "0", symbolic_only=_MASS)
                  for n in names]
        table += [Identity(f"conserved[C{i}]", _one(f"d/dt C{i}"), (),
                           f"dC{i}/dt", "0", symbolic_only=_MASS) for i in AXES]
    return tuple(table)


TABLES = {which: _table_identities(which) for which in _TABLE_ROLES}


def check_table(gens: GeneratorSet, which: str = "poincare",
                casimir_spin=None) -> VerificationReport:
    """All 100 ordered commutators of the ten group generators.

    For 'bargmann' the table additionally asserts centrality of Mmass and
    conservation of the boost C under the free evolution.
    """
    if which in TABLES:
        used = dict.fromkeys(name for ident in TABLES[which]
                             for _, _, word in ident.lhs + ident.expected
                             for name in parse_word(word)[1])
        missing = [name for name in used if name not in gens]
        problem = str(missing) if missing else ""
    else:
        problem = f"unknown table '{which}'"
    if problem:
        report = VerificationReport(which)
        report.add(id="configuration", lhs=problem, expected="generators present",
                   residual="missing or unknown", passed=False)
        return report
    return _exact_report(which, TABLES[which], gens, casimir_spin=casimir_spin)


# -- Casimir invariants ----------------------------------------------------------


def _casimir_identities():
    """C1 = H^2 - P.P and C2 = W0^2 - W.W: values and centrality.

    C2 reads no Lam, so ``casimir2_spin[full]`` holds on both sectors; its
    ``positive`` and ``negative`` entries restate it under their old ids.
    """
    names = ["H"] + [f"{p}{i}" for p in "PJK" for i in AXES]
    spin = Identity("casimir2_spin[full]",
                    _one("C2") + tuple((1, 0, f"m^2*S{i}*S{i}") for i in AXES), (),
                    "W0^2 - W.W + m^2*S.S", "0", symbolic_only=_DERIVED)
    return (
        (Identity("casimir1_value", _one("C1"), _one("m^2"), "H^2 - P.P",
                  symbolic_only=_DERIVED),)
        + tuple(Identity(f"central[{c},{n}]", _one(f"[{c},{n}]"), (), f"[{c},{n}]",
                         "0", symbolic_only=_DERIVED)
                for c in ("C1", "C2") for n in names)
        + (spin,) + tuple(replace(spin, id=f"casimir2_spin[{tag}]")
                          for tag in ("positive", "negative")))


CASIMIRS = _casimir_identities()


def casimirs(gens: GeneratorSet) -> VerificationReport:
    """C1 = H^2 - P^2 and C2 = W0^2 - W.W: values and centrality."""
    return _exact_report("casimirs", CASIMIRS, gens)


# -- Pauli-Lubanski ---------------------------------------------------------------


def _pl_identities():
    """W.P = 0, W0 = S.P, and W = H*S - Lam*Px(SxP)/(omega+m), which holds on
    both sectors; each ``spatial_form[negative,i]`` restates
    ``spatial_form[positive,i]`` under its old id."""
    out = [
        Identity("orthogonality",
                 _one("W0*H") + tuple((-1, 0, f"W{i}*P{i}") for i in AXES), (),
                 "W0*H - W.P", "0"),
        Identity("w0_is_spin_momentum",
                 _one("W0") + tuple((-1, 0, f"S{i}*P{i}") for i in AXES), (),
                 "W0 - S.P", "0"),
    ]
    spatial = [Identity(f"spatial_form[positive,{i}]", _one(f"W{i}"),
                        _one(f"H*S{i}") + _pxsxp(i, -1, prefix="Lam*"), f"W{i}",
                        f"H*S{i} - Lam*(Px(SxP)){i}/(omega+m)", symbolic_only=_INVERSE)
               for i in AXES]
    return tuple(out + spatial + [replace(ident, id=f"spatial_form[negative,{i}]")
                                  for i, ident in zip(AXES, spatial)])


PAULI_LUBANSKI = _pl_identities()


def pauli_lubanski(gens: GeneratorSet) -> VerificationReport:
    """Four-orthogonality W.P = 0, W0 = S.P, and the spatial spin form."""
    return _exact_report("pauli_lubanski", PAULI_LUBANSKI, gens)


# -- boost matrix identities -------------------------------------------------------


def _boost_identities():
    """The rest-frame boost identities in omega, and the internal boost
    N = Lam*SxP/(omega+m) they force; Lam stands where the frequency sign
    enters, so each holds on both sectors."""
    out = [Identity(f"matrix[{i},{j}]", ((1, 0, f"omega*P{i}*P{j}*1/P.P"),
                                         (-1, 0, f"m*P{i}*P{j}*1/P.P")),
                    _one(f"P{i}*P{j}*1/(omega+m)"), f"(omega-m)*Phat{i}*Phat{j}",
                    f"P{i}*P{j}/(omega+m)", symbolic_only=_INVERSE)
           for i in AXES for j in AXES]
    out += [Identity(f"spatial_rearrangement[{i}]",
                     _one(f"m*S{i}") + tuple((1, 0, f"S{n}*P{n}*P{i}*1/(omega+m)")
                                             for n in AXES),
                     _one(f"omega*S{i}") + _pxsxp(i, -1),
                     f"m*S{i} + (S.P)*P{i}/(omega+m)",
                     f"omega*S{i} - (Px(SxP)){i}/(omega+m)", symbolic_only=_INVERSE)
            for i in AXES]
    # N is forced: N.P = 0 and PxN = Lam*Px(SxP)/(omega+m) imply N = -Px(PxN)/P^2
    out.append(Identity("n_perp", tuple((1, 0, f"N{i}*P{i}") for i in AXES), (),
                        "N.P", "0", symbolic_only=_NOT_YET))
    out += [Identity(f"n_curl[{i}]", _cross("P", "N", i), _pxsxp(i, prefix="Lam*"),
                     f"(PxN){i}", f"Lam*(Px(SxP)){i}/(omega+m)", symbolic_only=_INVERSE)
            for i in AXES]
    out += [Identity(f"n_forced[{i}]", _one(f"N{i}"),
                     sum((_pxsxp(k, -e, f"Lam*P{j}*", "*1/(omega+m)*1/P.P")
                          for e, j, k in _eps_pairs(i)), ()),
                     f"N{i}", f"-Lam*(Px(Px(SxP))){i}/((omega+m)*P.P)",
                     symbolic_only=_INVERSE) for i in AXES]
    return tuple(out)


BOOST_MATRIX = _boost_identities()


def boost_matrix_identities(ctx: AlgebraContext = DEFAULT_CONTEXT) -> VerificationReport:
    """Scalar and spin identities behind the rest-frame boost construction
    and the internal boost N, on both frequency sectors."""
    return _exact_report("boost_matrix", BOOST_MATRIX, foldy_generators(ctx=ctx))


# -- conservation/covariance lemma chain ----------------------------------------------


def _lemma_identities():
    out = []

    def add(*args, **kwargs):
        out.append(Identity(*args, **kwargs))

    def vanishes(label, a, b, symbolic_only=""):
        add(label, _one(f"[{a},{b}]"), (), f"[{a},{b}]", "0",
            symbolic_only=symbolic_only)

    for i in AXES:
        add(f"velocity_parallel[{i}]",
            _cross("V", "P", i), (),
            f"(VxP){i}", "0")
    for i in AXES:
        for j in AXES:
            add(f"heisenberg[{i},{j}]", _one(f"[Q{i},P{j}]"),
                ((1, 1, "1"),) if i == j else (), f"[Q{i},P{j}]", "i*hbar*delta")
            for label, a, b, why in (("velocity_translation", "V", "P", ""),
                                     ("internal_boost_translation", "N", "P", _NOT_YET),
                                     ("position_spin", "Q", "S", ""),
                                     ("m_spin", "M", "S", _NOT_YET),
                                     ("spin_orbital", "S", "L", _NOT_YET)):
                vanishes(f"{label}[{i},{j}]", f"{a}{i}", f"{b}{j}", why)
            for label, a, b, why in (("position_rotation", "Q", "L", ""),
                                     ("spin_rotation", "S", "J", ""),
                                     ("internal_boost_rotation", "N", "J", _NOT_YET)):
                add(f"{label}[{i},{j}]", _one(f"[{a}{i},{b}{j}]"),
                    _eps_terms(a, i, j, k=1), f"[{a}{i},{b}{j}]",
                    f"i*hbar*eps*{a}", symbolic_only=why)
    for i in AXES:
        vanishes(f"velocity_conserved[{i}]", f"V{i}", "H")
        add(f"velocity_form[{i}]", _one(f"V{i}"), _one(f"P{i}*1/H"),
            f"V{i}", f"P{i}*H^-1", symbolic_only=_INVERSE)
        vanishes(f"spin_conserved[{i}]", f"S{i}", "H")
        vanishes(f"spin_even[{i}]", f"S{i}", "Lam")
        add(f"m_conserved[{i}]", _one(f"d/dt M{i}"), (), f"dM{i}/dt", "0")
        vanishes(f"internal_boost_conserved[{i}]", f"N{i}", "H")
        vanishes(f"internal_boost_even[{i}]", f"N{i}", "Lam")
    for i, j in ((1, 2), (1, 3), (2, 3)):
        vanishes(f"position_commuting[{i},{j}]", f"Q{i}", f"Q{j}")
        add(f"spin_algebra[{i},{j}]", _one(f"[S{i},S{j}]"),
            _eps_terms("S", i, j, k=1), f"[S{i},S{j}]", "i*hbar*eps*S")
    # covariance under M: [Q_i, M_j] = i*hbar*(delta_ij*t - sym(Q_j, V_i))
    half = Fraction(-1, 2)
    for i in AXES:
        for j in AXES:
            add(f"covariance_m[{i},{j}]", _one(f"[Q{i},M{j}]"),
                ((half, 1, f"Q{j}*V{i}"), (half, 1, f"V{i}*Q{j}"))
                + (((1, 1, "t"),) if i == j else ()),
                f"[Q{i},M{j}]", "i*hbar*(delta*t - sym(Q,V))", symbolic_only=_NOT_YET)
    # covariance failure under N: the extra term and its non-vanishing
    for i in AXES:
        for j in AXES:
            bracket = _one(f"[Q{i},N{j}]")
            # exact identity: the eps*S term carries the frequency sign
            form = _eps_terms("Lam*S", i, j, k=1, suffix="*1/(omega+m)") \
                + ((-1, 1, f"P{i}*N{j}*1/omega*1/(omega+m)"),)
            add(f"covariance_failure_form[{i},{j}]", bracket, form, f"[Q{i},N{j}]",
                "i*hbar*(Lam*eps*S/(omega+m) - P*N/(omega*(omega+m)))",
                symbolic_only=_INVERSE)
            # holds on both sectors, so the old positive-sector id restates it
            out.append(replace(out[-1],
                               id=f"covariance_failure_form_positive[{i},{j}]"))
            add(f"covariance_failure_nonzero[{i},{j}]", bracket, (), f"[Q{i},N{j}]",
                "nonzero for generic S", nonzero=True, symbolic_only=_NONZERO)
            add(f"covariance_restored_spinless[{i},{j}]", bracket, (),
                f"[Q{i},N{j}] at S=0", "0", spin_zero=True, symbolic_only=_SPIN_ZERO)
    # frequency sign: Lam = H * (H^2)^(-1/2)
    add("frequency_sign", _one("Lam"), _one("H*(H^2)^(-1/2)"), "Lam",
        "H*(H^2)^(-1/2)", symbolic_only=_SQUARE)
    return tuple(out)


LEMMAS = _lemma_identities()


def lemma_suite(gens: GeneratorSet) -> VerificationReport:
    """One check per conclusion of the conservation/covariance lemma chain."""
    return _exact_report("lemmas", LEMMAS, gens)


# -- energy-momentum closure --------------------------------------------------------


def energy_momentum_constraint_check(h_candidate: OperatorExpr) -> VerificationReport:
    """Rebuild the boost around an arbitrary translation-invariant Hamiltonian
    in its own context and rerun the Poincare table; closure holds iff
    H^2 - P.P is a central constant."""
    ctx = h_candidate.ctx
    if h_candidate.uses_q():
        raise ExprError("candidate Hamiltonian must not contain Q "
                        "(construction presumes translation invariance)")
    with ctx.evaluation():
        return _closure_report(h_candidate, ctx)


def _closure_report(h_candidate, ctx):
    report = VerificationReport("emrelation")
    names = {**_primitives(ctx), "H": h_candidate}
    relation = _Words(ctx, names, ()).name("C1")
    grads = []
    is_const = relation.is_scalar() and not relation.d_dt()
    if relation.is_scalar():
        c = relation.scalar_part()
        for axis in AXES:
            d = c.diff(axis)
            if d:
                grads.append(f"d/dP{axis}: {render_scalar(d)}")
        is_const = is_const and not grads
    report.add(id="energy_momentum_relation",
               lhs=render_expr(relation), expected="a central constant",
               residual="0" if is_const else ("; ".join(grads) or render_expr(relation)),
               passed=is_const)

    root = scalar_sqrt(relation.scalar_part()) if is_const else None
    if root is not None:
        names["m"] = OperatorExpr.from_scalar(root, ctx)
    report.extend(check_table(GeneratorSet(ctx, _declare(ctx, names, ORBITAL_SPIN)),
                              "poincare"))
    report.suite = "emrelation"
    return report
