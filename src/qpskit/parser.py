"""Expression mini-language: parsing and deterministic rendering.

Grammar (whitespace-insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := ('+' | '-')* power
    power   := atom ('^' ('-')? INT)?
    atom    := NAME | INT | '(' expr ')' | '[' expr ',' expr ']'

``[A,B]`` is commutator sugar. Built-in names: Q1..Q3, P1..P3, S1..S3, Lam,
omega, m, t, hbar, i (plus the central constants Mmass, E0). Extra bindings
(e.g. the named generators of a constructed set) may be supplied.

``render_expr`` emits text in the same grammar; parse(render(e)) == e on
canonical forms.
"""

from __future__ import annotations

import re

from .coeffs import (AlgebraContext, DEFAULT_CONTEXT, GEN_NAMES, ONE, ScalarCoeff,
                     _unpack)
from .expr import (Mono, OperatorExpr, SCALAR_SYMBOLS, _GENERATOR_MONOS,
                   commutator)


class ExprSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownSymbolError(ExprSyntaxError):
    def __init__(self, name, pos):
        super().__init__(f"unknown symbol '{name}'", pos)
        self.name = name


_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<int>\d+)"
                       r"|(?P<op>\*\*|[-+*/^()\[\],]))")


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        mo = _TOKEN_RE.match(text, pos)
        if mo is None:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if mo.lastgroup == "name":
            tokens.append(("name", mo.group("name"), mo.start("name")))
        elif mo.lastgroup == "int":
            tokens.append(("int", int(mo.group("int")), mo.start("int")))
        else:
            op = mo.group("op")
            if op == "**":
                op = "^"
            tokens.append(("op", op, mo.start("op")))
        pos = mo.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, ctx, bindings):
        self.tokens = tokens
        self.k = 0
        self.ctx = ctx
        self.bindings = bindings

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected '{op}'", pos)

    def parse_expr(self):
        out = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_term()
                out = out + rhs if val == "+" else out - rhs
            else:
                return out

    def parse_term(self):
        out = self.parse_factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.parse_factor()
                if val == "*":
                    out = out * rhs
                else:
                    try:
                        out = out / rhs
                    except (ValueError, ArithmeticError) as exc:
                        raise ExprSyntaxError(f"bad divisor: {exc}", pos) from None
            else:
                return out

    def parse_factor(self):
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                if val == "-":
                    sign = -sign
            else:
                break
        out = self.parse_power()
        return out if sign > 0 else -out

    def parse_power(self):
        out = self.parse_atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            neg = False
            kind, val, pos = self.next()
            if kind == "op" and val == "-":
                neg = True
                kind, val, pos = self.next()
            if kind != "int":
                raise ExprSyntaxError("exponent must be an integer", pos)
            exp = -val if neg else val
            try:
                out = out ** exp
            except (ValueError, ArithmeticError) as exc:
                raise ExprSyntaxError(f"bad power: {exc}", pos) from None
        return out

    def parse_atom(self):
        kind, val, pos = self.next()
        if kind == "int":
            return OperatorExpr.from_scalar(val, self.ctx)
        if kind == "name":
            if val in self.bindings:
                bound = self.bindings[val]
                if bound.ctx is not self.ctx:
                    raise ExprSyntaxError(
                        f"binding '{val}' belongs to a different context", pos)
                return bound
            if val in _GENERATOR_MONOS or val in SCALAR_SYMBOLS:
                return OperatorExpr.generator(val, self.ctx)
            raise UnknownSymbolError(val, pos)
        if kind == "op" and val == "(":
            out = self.parse_expr()
            self.expect_op(")")
            return out
        if kind == "op" and val == "[":
            a = self.parse_expr()
            self.expect_op(",")
            b = self.parse_expr()
            self.expect_op("]")
            return commutator(a, b)
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)


def parse_expr(text: str, bindings=None, ctx: AlgebraContext = DEFAULT_CONTEXT) -> OperatorExpr:
    tokens = _tokenize(text)
    parser = _Parser(tokens, ctx, bindings or {})
    out = parser.parse_expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {val!r}", pos)
    return out


# -- rendering -----------------------------------------------------------------


def _render_poly(p) -> str:
    """Render a polynomial in grammar-conformant text, terms in lex order."""
    if not p:
        return "0"
    chunks = []
    for key, coeff in sorted(p.items(), reverse=True):
        factors = []
        for g, e in zip(GEN_NAMES, _unpack(key)):
            if e == 1:
                factors.append(g)
            elif e > 1:
                factors.append(f"{g}^{e}")
        body = "*".join(factors)
        mag = abs(coeff)
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}*{body}"
        chunks.append(("-" if coeff < 0 else "+", piece))
    sign, first = chunks[0]
    text = first if sign == "+" else f"-{first}"
    for sign, piece in chunks[1:]:
        text += f" {sign} {piece}"
    return text


def _render_frac(fr) -> str:
    numer, denom = fr
    num = _render_poly(numer)
    if denom == ONE:
        return num
    return f"({num})/({_render_poly(denom)})"


def render_scalar(c: ScalarCoeff) -> str:
    """Text of ``c``; inside an evaluation each coefficient is rendered once."""
    texts = c.ctx.texts
    if texts is None:
        return _render_scalar(c)
    text = texts.get(c)
    if text is None:
        text = texts[c] = _render_scalar(c)
    return text


def _render_scalar(c: ScalarCoeff) -> str:
    parts = []
    if c.ar[0]:
        parts.append(f"({_render_frac(c.ar)})")
    if c.ai[0]:
        parts.append(f"({_render_frac(c.ai)})*i")
    if c.br[0]:
        parts.append(f"({_render_frac(c.br)})*omega")
    if c.bi[0]:
        parts.append(f"({_render_frac(c.bi)})*i*omega")
    if not parts:
        return "0"
    return " + ".join(parts)


def _render_mono(mono: Mono) -> str:
    names = ("Q1", "Q2", "Q3", "S1", "S2", "S3", "Lam")
    factors = []
    for name, e in zip(names, mono):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def render_expr(e: OperatorExpr) -> str:
    """Deterministic text form; terms in descending monomial order."""
    if not e.terms:
        return "0"
    chunks = []
    for mono in sorted(e.terms, reverse=True):
        c = e.terms[mono]
        body = _render_mono(mono)
        coeff_text = render_scalar(c)
        if not body:
            chunks.append(f"({coeff_text})" if " + " in coeff_text else coeff_text)
        elif c == 1:
            chunks.append(body)
        else:
            chunks.append(f"({coeff_text})*{body}")
    return " + ".join(chunks)
