"""Tokenizer, recursive-descent parser and every input text format of lvk.

One expression grammar serves three uses: polynomial right-hand sides of
systems, rational expressions (1-form components, first integrals), and
Darboux function expressions with exp(...) and rational exponents via ^(p/q).

This module also owns the formats around the expressions: variable lists
(the `vars` lines, --vars and --var-order), system files (`parse_equations`,
wrapped by `vectorfield.parse_system`), form files (`parse_form`) and inline
form components (`parse_components`).  Each input text is tokenized once and
each expression is parsed from its own token slice closed by an end token,
so a ParseError gives the line and column in the whole input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .darboux import DarbouxFunction
from .errors import ParseError
from .multipoly import MultiPoly
from .ratfunc import RatFunc


@dataclass
class Token:
    kind: str  # 'num', 'ident', 'op', 'newline', 'end'
    text: str
    line: int
    column: int


_OPS = set("+-*/^(),=")

#: Levels of nesting an expression may have: each '(', 'exp(' and unary '-'
#: in a factor is one.  The parser recurses once per level.
MAX_NESTING = 100


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(Token("newline", "\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdecimal() or (ch == "." and i + 1 < n and text[i + 1].isdecimal()):
            start = i
            scol = col
            seen_dot = False
            while i < n and (text[i].isdecimal() or (text[i] == "." and not seen_dot)):
                if text[i] == ".":
                    seen_dot = True
                i += 1
                col += 1
            tokens.append(Token("num", text[start:i], line, scol))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            scol = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("ident", text[start:i], line, scol))
            continue
        if ch in _OPS:
            tokens.append(Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


class _Parser:
    """expr := term (('+'|'-') term)*; term := factor (('*'|'/') factor)*;
    factor := ('-')* atom ('^' exponent)?; atom := num | ident | '(' expr ')'
    | 'exp' '(' expr ')'."""

    def __init__(self, tokens, algebra):
        self.tokens = [t for t in tokens if t.kind != "newline"]
        self.pos = 0
        self.depth = 0
        self.alg = algebra

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, text: str):
        t = self.take()
        if t.kind != "op" or t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.column)

    def nested(self, t: Token, parse):
        """parse() one nesting level deeper, the level opened by t."""
        if self.depth == MAX_NESTING:
            raise ParseError("expression nested too deeply", t.line, t.column)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse(self):
        value = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.column)
        return value

    def expr(self):
        t = self.peek()
        negate = False
        value = None
        if t.kind == "op" and t.text in "+-":
            self.take()
            negate = t.text == "-"
        value = self.term()
        if negate:
            value = self.alg.neg(value, t)
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.take()
                rhs = self.term()
                op = self.alg.add if t.text == "+" else self.alg.sub
                value = op(value, rhs, t)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "*/":
                self.take()
                rhs = self.factor()
                if t.text == "*":
                    value = self.alg.mul(value, rhs, t)
                else:
                    value = self.alg.div(value, rhs, t)
            else:
                return value

    def factor(self):
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.take()
            return self.alg.neg(self.nested(t, self.factor), t)
        value = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.take()
            e = self.exponent()
            value = self.alg.pow(value, e, t)
        return value

    def exponent(self) -> Fraction:
        t = self.peek()
        if t.kind == "op" and t.text == "(":
            self.take()
            e = self.signed_rational(allow_fraction=True)
            self.expect_op(")")
            return e
        # a bare exponent is an integer; x^2/y means (x^2)/y
        return self.signed_rational(allow_fraction=False)

    def signed_rational(self, allow_fraction: bool) -> Fraction:
        sign = 1
        t = self.peek()
        if t.kind == "op" and t.text in "+-":
            self.take()
            sign = -1 if t.text == "-" else 1
        t = self.take()
        if t.kind != "num":
            raise ParseError("exponent must be a rational literal", t.line, t.column)
        value = Fraction(t.text)
        if allow_fraction:
            t2 = self.peek()
            if t2.kind == "op" and t2.text == "/":
                self.take()
                t3 = self.take()
                if t3.kind != "num":
                    raise ParseError(
                        "exponent denominator must be a literal", t3.line, t3.column
                    )
                den = Fraction(t3.text)
                if den == 0:
                    raise ParseError("division by zero", t3.line, t3.column)
                value = value / den
        return sign * value

    def atom(self):
        t = self.take()
        if t.kind == "num":
            return self.alg.const(Fraction(t.text))
        if t.kind == "ident":
            if t.text == "exp":
                nxt = self.peek()
                if nxt.kind == "op" and nxt.text == "(":
                    self.take()
                    inner = self.nested(t, self.expr)
                    self.expect_op(")")
                    return self.alg.exp(inner, t)
            return self.alg.var(t.text, t)
        if t.kind == "op" and t.text == "(":
            inner = self.nested(t, self.expr)
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.column)


class _Algebra:
    """Variable lookup and + - * neg, shared by the three value algebras."""

    def __init__(self, names: list[str]):
        self.index = {n: i for i, n in enumerate(names)}
        self.arity = len(names)

    def var(self, name: str, tok: Token):
        if name not in self.index:
            raise ParseError(f"unknown variable {name!r}", tok.line, tok.column)
        return self.of_poly(MultiPoly.variable(self.arity, self.index[name]))

    def add(self, a, b, tok: Token):
        return a + b

    def sub(self, a, b, tok: Token):
        return a - b

    def mul(self, a, b, tok: Token):
        return a * b

    def neg(self, a, tok: Token):
        return -a

    def exp(self, a, tok: Token):
        raise ParseError(f"exp(...) is not allowed in {self.what}", tok.line, tok.column)


class _PolyAlgebra(_Algebra):
    """Values are MultiPoly; division only by nonzero constants."""

    what = "a polynomial"

    def of_poly(self, p: MultiPoly) -> MultiPoly:
        return p

    def const(self, c: Fraction) -> MultiPoly:
        return MultiPoly.constant(self.arity, c)

    def div(self, a, b, tok: Token):
        if not b.is_constant():
            raise ParseError(
                "non-polynomial expression: division by a non-constant",
                tok.line,
                tok.column,
            )
        c = b.constant_value()
        if c == 0:
            raise ParseError("division by zero", tok.line, tok.column)
        return a.scale(Fraction(1) / c)

    def pow(self, a, e: Fraction, tok: Token):
        if e.denominator != 1 or e < 0:
            raise ParseError(
                "polynomial exponents must be nonnegative integers", tok.line, tok.column
            )
        return a ** int(e)


class _RatAlgebra(_Algebra):
    """Values are RatFunc."""

    what = "a rational expression"

    def of_poly(self, p: MultiPoly) -> RatFunc:
        return RatFunc.of_poly(p)

    def const(self, c: Fraction) -> RatFunc:
        return RatFunc.constant(self.arity, c)

    def div(self, a, b, tok: Token):
        if b.is_zero():
            raise ParseError("division by zero", tok.line, tok.column)
        return a / b

    def pow(self, a, e: Fraction, tok: Token):
        if e.denominator != 1:
            raise ParseError(
                "rational expressions admit only integer exponents", tok.line, tok.column
            )
        if e < 0 and a.is_zero():
            raise ParseError("division by zero", tok.line, tok.column)
        return a ** int(e)


class _DarbouxAlgebra(_RatAlgebra):
    """Values are RatFunc until exp or a fractional power lifts them to
    DarbouxFunction; sums of non-rational values are rejected."""

    def lift(self, a, tok: Token) -> DarbouxFunction:
        if isinstance(a, DarbouxFunction):
            return a
        if a.is_zero():
            raise ParseError("zero is not a Darboux function", tok.line, tok.column)
        return DarbouxFunction.of_ratfunc(a)

    def add(self, a, b, tok):
        if isinstance(a, DarbouxFunction) or isinstance(b, DarbouxFunction):
            raise ParseError(
                "cannot add non-rational Darboux expressions", tok.line, tok.column
            )
        return a + b

    def sub(self, a, b, tok):
        if isinstance(a, DarbouxFunction) or isinstance(b, DarbouxFunction):
            raise ParseError(
                "cannot subtract non-rational Darboux expressions", tok.line, tok.column
            )
        return a - b

    def mul(self, a, b, tok):
        if isinstance(a, DarbouxFunction) or isinstance(b, DarbouxFunction):
            return self.lift(a, tok) * self.lift(b, tok)
        return a * b

    def div(self, a, b, tok):
        if isinstance(a, DarbouxFunction) or isinstance(b, DarbouxFunction):
            return self.lift(a, tok) * self.lift(b, tok).inverse()
        return super().div(a, b, tok)

    def neg(self, a, tok):
        if isinstance(a, DarbouxFunction):
            raise ParseError(
                "negation of a non-rational Darboux expression", tok.line, tok.column
            )
        return -a

    def pow(self, a, e: Fraction, tok):
        if e.denominator == 1 and not isinstance(a, DarbouxFunction):
            return super().pow(a, e, tok)
        a = self.lift(a, tok)
        if e.denominator != 1 and a.scale != 1:
            raise ParseError(
                "fractional power of a non-unit constant factor", tok.line, tok.column
            )
        return a**e

    def exp(self, a, tok):
        if isinstance(a, DarbouxFunction):
            raise ParseError("exp of a non-rational expression", tok.line, tok.column)
        return DarbouxFunction(a)


def parse_poly(text: str, names: list[str]) -> MultiPoly:
    return _Parser(tokenize(text), _PolyAlgebra(names)).parse()


def parse_ratfunc(text: str, names: list[str]) -> RatFunc:
    return _Parser(tokenize(text), _RatAlgebra(names)).parse()


def parse_darboux(text: str, names: list[str]) -> DarbouxFunction:
    parser = _Parser(tokenize(text), _DarbouxAlgebra(names))
    return parser.alg.lift(parser.parse(), parser.tokens[0])


# -- input formats: token slices, each closed by an end token ------------------


def _closed(tokens: list[Token], at: Token) -> list[Token]:
    return tokens + [Token("end", "", at.line, at.column)]


def _lines(tokens: list[Token]) -> list[list[Token]]:
    """The nonempty lines of a token stream."""
    lines, cur = [], []
    for t in tokens:
        if t.kind in ("newline", "end"):
            if cur:
                lines.append(_closed(cur, t))
            cur = []
        else:
            cur.append(t)
    return lines


def _items(tokens: list[Token]) -> list[list[Token]]:
    """The nonempty pieces between commas outside parentheses."""
    items, cur, depth = [], [], 0
    for t in tokens:
        if t.kind == "end" or (t.text == "," and depth == 0):
            if cur:
                items.append(_closed(cur, t))
            cur = []
        elif t.kind != "newline":
            depth += (t.text == "(") - (t.text == ")")
            cur.append(t)
    return items


def _variables(tokens: list[Token]) -> list[str]:
    """Distinct identifiers separated by commas, up to the closing end token."""
    names: list[str] = []
    rest = iter(tokens)
    for t in rest:
        if t.kind != "ident":
            raise ParseError("expected variable name", t.line, t.column)
        if t.text in names:
            raise ParseError(f"duplicate variable {t.text!r}", t.line, t.column)
        names.append(t.text)
        sep = next(rest)
        if sep.kind == "end":
            return names
        if sep.text != ",":
            raise ParseError("expected ','", sep.line, sep.column)
    return names


def _header(lines: list[list[Token]], what: str) -> list[str]:
    if not lines:
        raise ParseError(f"empty {what}")
    head = lines[0][0]
    if head.kind != "ident" or head.text != "vars":
        raise ParseError(f"{what} must start with a 'vars' line", head.line, head.column)
    return _variables(lines[0][1:])


def parse_variables(text: str) -> list[str]:
    """A variable list, as given to --vars and --var-order: ``x, y, z``."""
    return _variables([t for t in tokenize(text) if t.kind != "newline"])


def parse_equations(text: str) -> tuple[list[str], list[MultiPoly]]:
    """A system file: a `vars` line, then one `d<var> = expr` line per variable."""
    lines = _lines(tokenize(text))
    names = _header(lines, "system")
    alg = _PolyAlgebra(names)
    components: dict[str, MultiPoly] = {}
    for line in lines[1:]:
        head = line[0]
        var = head.text[1:]
        if head.kind != "ident" or not head.text.startswith("d"):
            raise ParseError("expected a d<var> = ... line", head.line, head.column)
        if var not in names:
            raise ParseError(f"unknown variable {var!r}", head.line, head.column)
        if var in components:
            raise ParseError(f"duplicate equation for {var!r}", head.line, head.column)
        if line[1].text != "=":
            raise ParseError("expected '='", head.line, head.column)
        if line[2].kind == "end":
            raise ParseError("empty right-hand side", head.line, head.column)
        components[var] = _Parser(line[2:], alg).parse()
    missing = [n for n in names if n not in components]
    if missing:
        raise ParseError(f"missing equation for {', '.join(missing)}")
    return names, [components[n] for n in names]


def parse_form(text: str) -> tuple[list[str], list[RatFunc]]:
    """A form file: a `vars` line, then the components, separated by commas
    outside parentheses or by line ends."""
    lines = _lines(tokenize(text))
    names = _header(lines, "form file")
    alg = _RatAlgebra(names)
    return names, [_Parser(item, alg).parse() for line in lines[1:] for item in _items(line)]


def parse_components(text: str, names: list[str]) -> list[RatFunc]:
    """Inline 1-form components, separated by commas outside parentheses."""
    alg = _RatAlgebra(names)
    return [_Parser(item, alg).parse() for item in _items(tokenize(text))]
