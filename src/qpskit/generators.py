"""Generator sets built from the position/momentum/spin primitives, and the
symbolic verification suites: commutator tables, Casimir invariants, the
Pauli-Lubanski identities, boost-matrix identities, the conservation/
covariance lemma chain, and the energy-momentum closure test.

The table, lemma, Casimir, Pauli-Lubanski and boost-matrix identities are
declared once as data (``TABLES``, ``LEMMAS``, ``CASIMIRS``,
``PAULI_LUBANSKI``, ``BOOST_MATRIX``) and checked by one exact evaluator;
numcheck reads the same declarations for its grid twins.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .coeffs import AlgebraContext, DEFAULT_CONTEXT, scalar_sqrt
from .expr import (ExprError, OperatorExpr, commutator, normal_form,
                   sym_product, total_time_derivative)
from .parser import render_expr, render_scalar
from .report import VerificationReport

_EPS = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
        (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1}

AXES = (1, 2, 3)


def eps(i, j, k):
    return _EPS.get((i, j, k), 0)


def cross(a, b):
    """Component list of a x b for 3-vectors of expressions."""
    out = []
    for i in AXES:
        acc = None
        for j in AXES:
            for k in AXES:
                e = eps(i, j, k)
                if e:
                    piece = a[j - 1] * b[k - 1] * e
                    acc = piece if acc is None else acc + piece
        out.append(acc)
    return out


def dot(a, b):
    acc = a[0] * b[0]
    for i in (1, 2):
        acc = acc + a[i] * b[i]
    return acc


class GeneratorSet:
    """Named map generator-symbol -> OperatorExpr."""

    def __init__(self, ctx: AlgebraContext, table: dict, kind: str, sector: str = "full"):
        self.ctx = ctx
        self.table = table
        self.kind = kind
        self.sector = sector

    def __getitem__(self, name: str) -> OperatorExpr:
        return self.table[name]

    def __contains__(self, name):
        return name in self.table

    def names(self):
        return list(self.table)

    def items(self):
        return self.table.items()

    def vec(self, prefix: str):
        return [self.table[f"{prefix}{i}"] for i in AXES]


def _qps(ctx):
    g = lambda n: OperatorExpr.generator(n, ctx)
    Q = [g("Q1"), g("Q2"), g("Q3")]
    P = [g("P1"), g("P2"), g("P3")]
    S = [g("S1"), g("S2"), g("S3")]
    return Q, P, S


def _meff(ctx) -> OperatorExpr:
    """The effective mass k*m of omega^2 = P^2 + (k*m)^2."""
    return OperatorExpr.from_scalar(ctx.gen("m") * ctx.scalar(ctx.mass_factor), ctx)


def _orbital_spin(Q, P, S, H, meff):
    """L = QxP, J = L + S, M = tP - sym(Q, H), N = Lam SxP/(omega+meff) and
    K = M + N: the orbital/spin split of the rotation and boost generators."""
    ctx = H.ctx
    g = lambda n: OperatorExpr.generator(n, ctx)
    L = cross(Q, P)
    inv_om_m = (g("omega") + meff).invert()
    N = [g("Lam") * x * inv_om_m for x in cross(S, P)]
    M = [g("t") * p - sym_product(q, H) for q, p in zip(Q, P)]
    return (L, [a + b for a, b in zip(L, S)], M, N,
            [a + b for a, b in zip(M, N)])


def foldy_generators(sector: str = "full", spin_zero: bool = False,
                     ctx: AlgebraContext = DEFAULT_CONTEXT) -> GeneratorSet:
    """Relativistic generator set H = Lam*omega, J = QxP + S,
    K = tP - Q.H + Lam SxP/(omega+m), with the derived L, M, N, V, W pieces.
    """
    if sector not in ("full", "positive", "negative"):
        raise ValueError("sector must be 'full', 'positive' or 'negative'")
    Q, P, S = _qps(ctx)
    if spin_zero:
        S = [OperatorExpr.zero(ctx)] * 3
    lam = OperatorExpr.generator("Lam", ctx)
    H = lam * OperatorExpr.generator("omega", ctx)
    L, J, M, N, K = _orbital_spin(Q, P, S, H, _meff(ctx))
    ih = OperatorExpr.from_scalar(ctx.i_hbar(), ctx)
    V = [commutator(Q[i], H) * ih.invert() for i in range(3)]
    W0 = dot(J, P)
    pxk = cross(P, K)
    W = [H * J[i] - pxk[i] for i in range(3)]

    table = {"H": H, "Lam": lam, "W0": W0}
    for i in AXES:
        table[f"P{i}"] = P[i - 1]
        table[f"Q{i}"] = Q[i - 1]
        table[f"S{i}"] = S[i - 1]
        table[f"J{i}"] = J[i - 1]
        table[f"K{i}"] = K[i - 1]
        table[f"L{i}"] = L[i - 1]
        table[f"M{i}"] = M[i - 1]
        table[f"N{i}"] = N[i - 1]
        table[f"V{i}"] = V[i - 1]
        table[f"W{i}"] = W[i - 1]
    if sector != "full":
        sign = 1 if sector == "positive" else -1
        table = {k: v.substitute_sector(sign) for k, v in table.items()}
    return GeneratorSet(ctx, table, "foldy", sector)


def bargmann_generators(ctx: AlgebraContext = DEFAULT_CONTEXT) -> GeneratorSet:
    """Nonrelativistic set H = P^2/(2 Mmass) + E0, J = QxP + S,
    C = tP - Mmass*Q, with Mmass and E0 central constants."""
    Q, P, S = _qps(ctx)
    tsym = OperatorExpr.generator("t", ctx)
    mass = OperatorExpr.generator("Mmass", ctx)
    e0 = OperatorExpr.generator("E0", ctx)
    H = dot(P, P) / (mass * 2) + e0
    L = cross(Q, P)
    J = [L[i] + S[i] for i in range(3)]
    C = [tsym * P[i] - mass * Q[i] for i in range(3)]
    table = {"H": H, "Mmass": mass, "E0": e0}
    for i in AXES:
        table[f"P{i}"] = P[i - 1]
        table[f"Q{i}"] = Q[i - 1]
        table[f"S{i}"] = S[i - 1]
        table[f"J{i}"] = J[i - 1]
        table[f"L{i}"] = L[i - 1]
        table[f"C{i}"] = C[i - 1]
    return GeneratorSet(ctx, table, "bargmann")


# -- declared identities ------------------------------------------------------------
#
# The table, lemma and Pauli-Lubanski identities are declared once, as data,
# and read by two evaluators: the exact one here and the grid one in
# numcheck. A side of an identity is a tuple of terms (c, k, word) standing
# for c * (i*hbar)**k * word. A word is "1" (the identity; psi on the grid),
# a name, a product "A*B*C", a commutator "[A,B]" or a total time derivative
# "d/dt A". Names are generators of the set under test; symbolic-only
# identities may also read the derived names of ``_derived_name``.

_NOT_YET = ("grid twin not added yet: it would add entries to the "
            "174-entry numeric residuals report")
_INVERSE = "needs an inverse outside the generator set"
_SECTOR = "needs the Lam -> +-1 sector substitution"
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
    asserted: bool = True
    note: str = ""
    sector: int = 0           # read both sides on Lam = sector first
    spin_zero: bool = False   # read the residual at S = 0
    nonzero: bool = False     # pass when lhs is nonzero (expected is empty)
    symbolic_only: str = ""   # why there is no grid twin; empty if there is one


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


def _eps_pairs(i):
    """(eps_ijk, j, k) over the nonzero entries for fixed i."""
    return [(eps(i, j, k), j, k) for j in AXES for k in AXES if eps(i, j, k)]


def _eps_terms(prefix, i, j, k=0, c=1, suffix=""):
    """c*(i*hbar)^k * sum_n eps_ijn * prefix_n."""
    return tuple((c * eps(i, j, n), k, f"{prefix}{n}{suffix}")
                 for n in AXES if eps(i, j, n))


def _pxsxp(i, c=1, prefix="", suffix="*1/(omega+m)"):
    """c * prefix*(Px(SxP))_i*suffix."""
    return tuple((c * e1 * e2, 0, f"{prefix}P{j}*S{n}*P{p}{suffix}")
                 for e1, j, k in _eps_pairs(i) for e2, n, p in _eps_pairs(k))


def _derived_name(gens, name):
    """Value of a non-generator name read by symbolic-only identities."""
    ctx = gens.ctx
    omega = OperatorExpr.generator("omega", ctx)
    meff = _meff(ctx)
    if name in ("t", "omega"):
        return OperatorExpr.generator(name, ctx)
    if name == "m":
        return meff
    if name == "m^2":
        return meff * meff
    if name == "C1":
        return gens["H"] * gens["H"] - dot(gens.vec("P"), gens.vec("P"))
    if name == "C2":
        return gens["W0"] * gens["W0"] - dot(gens.vec("W"), gens.vec("W"))
    if name == "1/H":
        return gens["H"].invert()
    if name == "1/P.P":
        return dot(gens.vec("P"), gens.vec("P")).invert()
    if name == "1/omega":
        return omega.invert()
    if name == "1/(omega+m)":
        return (omega + meff).invert()
    if name == "1/(m-omega)":
        return (meff - omega).invert()
    if name == "(H^2)^(-1/2)":
        try:
            root = scalar_sqrt((gens["H"] * gens["H"]).scalar_part())
        except ExprError:
            root = None
        if root is None:
            raise ExprError("H^2 is not a recognizable perfect square")
        return OperatorExpr.from_scalar(root.inv(), ctx)
    raise KeyError(name)


def _exact_report(suite, identities, gens, casimir_spin=None) -> VerificationReport:
    """Check declared identities exactly on ``gens``.

    Every word is computed once per suite, however many entries read it,
    and dropped after its last read. With ``casimir_spin`` set, residuals
    are normalized modulo S^2.
    """
    ctx = gens.ctx
    reads = Counter(word for ident in identities
                    for _, _, word in ident.lhs + ident.expected)
    names, words, factors = {}, {}, {}

    def name_value(name):
        if name not in names:
            names[name] = gens[name] if name in gens else _derived_name(gens, name)
        return names[name]

    def value(word):
        if word not in words:
            kind, parts = parse_word(word)
            ops = [name_value(name) for name in parts]
            if kind == "1":
                v = OperatorExpr.from_scalar(1, ctx)
            elif kind == "[]":
                v = commutator(*ops)
            elif kind == "d/dt":
                v = total_time_derivative(ops[0], gens["H"])
            else:
                v = ops[0]
                for op in ops[1:]:
                    v = v * op
            words[word] = v
        reads[word] -= 1
        return words[word] if reads[word] else words.pop(word)

    def side(terms):
        total = OperatorExpr.zero(ctx)
        for c, k, word in terms:
            v = value(word)
            if (c, k) != (1, 0):
                if (c, k) not in factors:
                    factors[c, k] = OperatorExpr.from_scalar(
                        ctx.scalar(c) * ctx.i_hbar() ** k, ctx)
                v = v * factors[c, k]
            total = total + v
        return total

    report = VerificationReport(suite)
    for ident in identities:
        try:
            lhs, want = side(ident.lhs), side(ident.expected)
        except ExprError as exc:
            report.add(id=ident.id, lhs=ident.lhs_text,
                       expected=ident.expected_text or "", residual=str(exc),
                       passed=False, asserted=ident.asserted, note=ident.note)
            continue
        if ident.sector:
            lhs = lhs.substitute_sector(ident.sector)
            want = want.substitute_sector(ident.sector)
        residual = lhs - want
        if ident.spin_zero:
            residual = residual.substitute_spin_zero()
        if casimir_spin is not None:
            residual = normal_form(residual, casimir_spin=casimir_spin)
        report.add(id=ident.id, lhs=ident.lhs_text,
                   expected=ident.expected_text or render_expr(want),
                   residual=render_expr(residual),
                   passed=bool(residual) if ident.nonzero else residual.is_zero(),
                   asserted=ident.asserted, note=ident.note)
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
    """C1 = H^2 - P.P and C2 = W0^2 - W.W: values and centrality."""
    names = ["H"] + [f"{p}{i}" for p in "PJK" for i in AXES]
    spin = _one("C2") + tuple((1, 0, f"m^2*S{i}*S{i}") for i in AXES)
    return (
        (Identity("casimir1_value", _one("C1"), _one("m^2"), "H^2 - P.P",
                  symbolic_only=_DERIVED),)
        + tuple(Identity(f"central[{c},{n}]", _one(f"[{c},{n}]"), (), f"[{c},{n}]",
                         "0", symbolic_only=_DERIVED)
                for c in ("C1", "C2") for n in names)
        + tuple(Identity(f"casimir2_spin[{tag}]", spin, (), "W0^2 - W.W + m^2*S.S",
                         "0", sector=sign, symbolic_only=_DERIVED)
                for sign, tag in ((0, "full"), (1, "positive"), (-1, "negative"))))


CASIMIRS = _casimir_identities()


def casimirs(gens: GeneratorSet) -> VerificationReport:
    """C1 = H^2 - P^2 and C2 = W0^2 - W.W: values and centrality."""
    return _exact_report("casimirs", CASIMIRS, gens)


# -- Pauli-Lubanski ---------------------------------------------------------------


def _pl_identities():
    out = [
        Identity("orthogonality",
                 _one("W0*H") + tuple((-1, 0, f"W{i}*P{i}") for i in AXES), (),
                 "W0*H - W.P", "0"),
        Identity("w0_is_spin_momentum",
                 _one("W0") + tuple((-1, 0, f"S{i}*P{i}") for i in AXES), (),
                 "W0 - S.P", "0"),
    ]
    for sign, tag in ((1, "positive"), (-1, "negative")):
        inverse = "1/(omega+m)" if sign > 0 else "1/(m-omega)"
        for i in AXES:
            out.append(Identity(
                f"spatial_form[{tag},{i}]", _one(f"W{i}"),
                _one(f"H*S{i}") + _pxsxp(i, -1, suffix=f"*{inverse}"),
                f"W{i} on Lam={sign:+d}", f"H*S{i} - (Px(SxP)){i}/(H+m)",
                asserted=sign > 0,
                note="" if sign > 0 else
                "recorded only; rest-frame boost derivation assumes positive energy",
                sector=sign, symbolic_only=_SECTOR))
    return tuple(out)


PAULI_LUBANSKI = _pl_identities()


def pauli_lubanski(gens: GeneratorSet) -> VerificationReport:
    """Four-orthogonality W.P = 0, W0 = S.P, and the spatial spin form."""
    return _exact_report("pauli_lubanski", PAULI_LUBANSKI, gens)


# -- boost matrix identities -------------------------------------------------------


def _boost_identities():
    """Read on Lam = +1, where H = omega and N = SxP/(omega+m)."""
    def positive(*args):
        return Identity(*args, sector=1, symbolic_only=_SECTOR)

    out = [positive(f"matrix[{i},{j}]", ((1, 0, f"omega*P{i}*P{j}*1/P.P"),
                                         (-1, 0, f"m*P{i}*P{j}*1/P.P")),
                    _one(f"P{i}*P{j}*1/(omega+m)"), f"(H-m)*Phat{i}*Phat{j}",
                    f"P{i}*P{j}/(H+m)")
           for i in AXES for j in AXES]
    out += [positive(f"spatial_rearrangement[{i}]",
                     _one(f"m*S{i}") + tuple((1, 0, f"S{n}*P{n}*P{i}*1/(omega+m)")
                                             for n in AXES),
                     _one(f"omega*S{i}") + _pxsxp(i, -1),
                     f"m*S{i} + (S.P)*P{i}/(H+m)", f"H*S{i} - (Px(SxP)){i}/(H+m)")
            for i in AXES]
    # N is forced: N.P = 0 and PxN = Px(SxP)/(H+m) imply N = -Px(PxN)/P^2
    out.append(positive("n_perp", tuple((1, 0, f"N{i}*P{i}") for i in AXES), (),
                        "N.P", "0"))
    out += [positive(f"n_curl[{i}]", tuple((e, 0, f"P{j}*N{k}")
                                           for e, j, k in _eps_pairs(i)),
                     _pxsxp(i), f"(PxN){i}", f"(Px(SxP)){i}/(H+m)") for i in AXES]
    out += [positive(f"n_forced[{i}]", _one(f"N{i}"),
                     sum((_pxsxp(k, -e, f"P{j}*", "*1/(omega+m)*1/P.P")
                          for e, j, k in _eps_pairs(i)), ()),
                     f"N{i}", f"-(Px(Px(SxP)/(H+m))){i}/P.P") for i in AXES]
    return tuple(out)


BOOST_MATRIX = _boost_identities()


def boost_matrix_identities(ctx: AlgebraContext = DEFAULT_CONTEXT) -> VerificationReport:
    """Scalar and spin identities behind the rest-frame boost construction
    (positive sector, H = omega)."""
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
            tuple((e, 0, f"V{j}*P{k}") for e, j, k in _eps_pairs(i)), (),
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
            # positive-frequency reading, where the sign factor drops out
            add(f"covariance_failure_form_positive[{i},{j}]", bracket, form,
                f"[Q{i},N{j}] on Lam=+1",
                "i*hbar*(eps*S/(omega+m) - P*N/(omega*(omega+m)))",
                sector=1, symbolic_only=_SECTOR)
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


def energy_momentum_constraint_check(h_candidate: OperatorExpr,
                                     ctx: AlgebraContext | None = None) -> VerificationReport:
    """Rebuild the boost around an arbitrary translation-invariant Hamiltonian
    and rerun the Poincare table; closure holds iff H^2 - P.P is a central
    constant."""
    if ctx is None:
        ctx = h_candidate.ctx
    if h_candidate.ctx is not ctx:
        raise ExprError("candidate Hamiltonian from a different context")
    if h_candidate.uses_q():
        raise ExprError("candidate Hamiltonian must not contain Q "
                        "(construction presumes translation invariance)")
    report = VerificationReport("emrelation")
    Q, P, S = _qps(ctx)
    relation = h_candidate * h_candidate - dot(P, P)
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
    meff = _meff(ctx) if root is None else OperatorExpr.from_scalar(root, ctx)
    _, J, _, _, K = _orbital_spin(Q, P, S, h_candidate, meff)
    table = {"H": h_candidate}
    for i in AXES:
        table[f"P{i}"] = P[i - 1]
        table[f"J{i}"] = J[i - 1]
        table[f"K{i}"] = K[i - 1]
    gens = GeneratorSet(ctx, table, "candidate")
    report.extend(check_table(gens, "poincare"))
    report.suite = "emrelation"
    return report
