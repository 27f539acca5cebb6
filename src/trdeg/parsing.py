"""Text forms: ring descriptors, polynomial expressions, ordering names.

Polynomial grammar (explicit '*', no implicit products):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' UINT]
    atom   := UINT | UINT '/' UINT | NAME | '(' expr ')'

Rational literals are accepted only when the innermost scalar ring is a
field.  Expressions are evaluated directly in the target ring, so any
parseable text denotes a ring element and printing followed by parsing is
the identity on elements.

Ring descriptors:

    ZZ | QQ | Zmod(n) | GF(p) | Poly(base; v1,v2,...) | Quot(Poly(...); [g1, ...])
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, TrdegError
from .monomials import Monomial
from .orderings import GrevLex
from .polynomials import Polynomial
from .rings import GF, QQ, ZZ, PolyRing, QuotRing, Ring, Zmod

_TOKEN_RE = re.compile(
    r"(?P<WS>\s+)|(?P<INT>\d+)|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)|(?P<SYM>[-+*^()/,;\[\]])"
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "WS":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.k = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.k]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    def at_symbol(self, value: str) -> bool:
        tok = self.peek()
        return tok[0] == "SYM" and tok[1] == value

    def done(self) -> bool:
        return self.peek()[0] == "END"

    # --- ring descriptors -------------------------------------------------

    def parse_ring(self) -> Ring:
        kind, name, pos = self.expect("NAME")
        if name == "ZZ":
            return ZZ
        if name == "QQ":
            return QQ
        if name in ("Zmod", "GF"):
            self.expect("SYM", "(")
            _, digits, npos = self.expect("INT")
            self.expect("SYM", ")")
            try:
                return Zmod(int(digits)) if name == "Zmod" else GF(int(digits))
            except ValueError as exc:
                raise ParseError(str(exc), npos) from None
        if name == "Poly":
            self.expect("SYM", "(")
            base = self.parse_ring()
            self.expect("SYM", ";")
            names = [self.expect("NAME")[1]]
            while self.at_symbol(","):
                self.advance()
                names.append(self.expect("NAME")[1])
            self.expect("SYM", ")")
            try:
                return PolyRing(base, tuple(names))
            except ValueError as exc:
                raise ParseError(str(exc), pos) from None
        if name == "Quot":
            self.expect("SYM", "(")
            inner = self.parse_ring()
            if not isinstance(inner, PolyRing):
                raise ParseError("Quot needs a Poly(...) ring", pos)
            self.expect("SYM", ";")
            self.expect("SYM", "[")
            scope = _scope(inner)
            relations = []
            if not self.at_symbol("]"):
                relations.append(self.parse_expr(inner, scope))
                while self.at_symbol(","):
                    self.advance()
                    relations.append(self.parse_expr(inner, scope))
            self.expect("SYM", "]")
            self.expect("SYM", ")")
            try:
                return QuotRing(inner, tuple(relations))
            except ValueError as exc:
                raise ParseError(str(exc), pos) from None
        raise ParseError(f"unknown ring {name!r}", pos)

    # --- polynomial expressions --------------------------------------------

    def parse_expr(self, ring: Ring, scope: dict):
        negate = False
        if self.at_symbol("+") or self.at_symbol("-"):
            negate = self.advance()[1] == "-"
        value = self.parse_term(ring, scope)
        if negate:
            value = ring.neg(value)
        while self.at_symbol("+") or self.at_symbol("-"):
            op = self.advance()[1]
            rhs = self.parse_term(ring, scope)
            value = ring.add(value, rhs) if op == "+" else ring.sub(value, rhs)
        return value

    def parse_term(self, ring: Ring, scope: dict):
        value = self.parse_factor(ring, scope)
        while self.at_symbol("*"):
            self.advance()
            value = ring.mul(value, self.parse_factor(ring, scope))
        return value

    def parse_factor(self, ring: Ring, scope: dict):
        value = self.parse_atom(ring, scope)
        if self.at_symbol("^"):
            self.advance()
            _, digits, _ = self.expect("INT")
            exp = int(digits)
            result = ring.one()
            for _ in range(exp):
                result = ring.mul(result, value)
            return result
        return value

    def parse_atom(self, ring: Ring, scope: dict):
        kind, text, pos = self.peek()
        if kind == "INT":
            self.advance()
            num = int(text)
            if self.at_symbol("/"):
                self.advance()
                _, den, dpos = self.expect("INT")
                if int(den) == 0:
                    raise ParseError("zero denominator", dpos)
                try:
                    return _from_fraction(ring, Fraction(num, int(den)))
                except TrdegError as exc:
                    raise ParseError(str(exc), pos) from None
            return ring.from_int(num)
        if kind == "NAME":
            self.advance()
            if text not in scope:
                raise ParseError(f"unknown variable {text!r}", pos)
            return scope[text]
        if self.at_symbol("("):
            self.advance()
            value = self.parse_expr(ring, scope)
            self.expect("SYM", ")")
            return value
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", pos)


def _from_fraction(ring: Ring, q: Fraction):
    if q.denominator == 1:
        return ring.from_int(q.numerator)
    if isinstance(ring, PolyRing):
        return Polynomial.constant(ring.base, _from_fraction(ring.base, q))
    if isinstance(ring, QuotRing):
        return ring.reduce(_from_fraction(ring.poly_ring, q))
    if ring.is_field:
        den = ring.from_int(q.denominator)
        if ring.is_zero(den):
            raise TrdegError(f"denominator {q.denominator} is zero in {ring_to_text(ring)}")
        return ring.div(ring.from_int(q.numerator), den)
    raise TrdegError(f"rational literal {q} needs a field, not {ring_to_text(ring)}")


def _scope(ring: Ring) -> dict:
    """Map every visible variable name to an element of the given ring.

    Inner ring variables appear as constants of the outer ring; a name used
    at two nesting levels would be ambiguous and is rejected.
    """
    if isinstance(ring, QuotRing):
        inner = _scope(ring.poly_ring)
        return {name: ring.reduce(v) for name, v in inner.items()}
    if isinstance(ring, PolyRing):
        out = {name: ring.var(i + 1) for i, name in enumerate(ring.names)}
        for name, value in _scope(ring.base).items():
            if name in out:
                raise ValueError(f"variable name {name!r} is used at two nesting levels")
            out[name] = Polynomial.constant(ring.base, value)
        return out
    return {}


def parse_ring_text(text: str) -> Ring:
    p = _Parser(text)
    ring = p.parse_ring()
    if not p.done():
        tok = p.peek()
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return ring


def parse_elem(text: str, ring: Ring):
    """Parse an element of the ring; over Poly/Quot rings this is a polynomial."""
    p = _Parser(text)
    value = p.parse_expr(ring, _scope(ring))
    if not p.done():
        tok = p.peek()
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return value


# --- printing ---------------------------------------------------------------

_PRINT_ORDER = GrevLex()


def ring_to_text(ring: Ring) -> str:
    if isinstance(ring, QuotRing):
        rels = ", ".join(poly_to_text(g, ring.poly_ring) for g in ring.relations)
        return f"Quot({ring_to_text(ring.poly_ring)}; [{rels}])"
    if isinstance(ring, PolyRing):
        return f"Poly({ring_to_text(ring.base)}; {','.join(ring.names)})"
    cls = type(ring).__name__
    if cls == "IntegerRing":
        return "ZZ"
    if cls == "RationalRing":
        return "QQ"
    if cls == "PrimeField":
        return f"GF({ring.modulus})"
    if cls == "ModularRing":
        return f"Zmod({ring.modulus})"
    raise TrdegError(f"no text form for ring type {cls}")


def _monomial_text(m: Monomial, names: tuple[str, ...]) -> str:
    parts = []
    for i, e in m:
        if i > len(names):
            raise TrdegError(f"monomial uses x{i} beyond {names}")
        parts.append(names[i - 1] if e == 1 else f"{names[i - 1]}^{e}")
    return "*".join(parts)


def poly_to_text(p: Polynomial, ring: PolyRing) -> str:
    """Canonical text: terms descending under natural-priority grevlex."""
    if p.is_zero():
        return "0"
    monomials = sorted(p.terms, key=_PRINT_ORDER.key, reverse=True)
    pieces = []
    for m in monomials:
        c = p.terms[m]
        mono = _monomial_text(m, ring.names)
        if isinstance(c, Polynomial):
            inner_ring = ring.base
            if isinstance(inner_ring, QuotRing):
                inner_ring = inner_ring.poly_ring
            ctext = poly_to_text(c, inner_ring)
            if c.is_constant():
                scalar = c.constant_coeff()
                pieces.append(_scalar_term(scalar, mono))
                continue
            pieces.append(f"({ctext})*{mono}" if mono else f"({ctext})")
        else:
            pieces.append(_scalar_term(c, mono))
    return " + ".join(pieces).replace("+ -", "- ")


def _scalar_term(c, mono: str) -> str:
    if not mono:
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return f"-{mono}"
    if isinstance(c, Fraction) or isinstance(c, int):
        return f"{c}*{mono}"
    return f"({c})*{mono}"


def elem_to_text(value, ring: Ring) -> str:
    return ring.format_elem(value)
