"""Arithmetic expression trees over exact rationals.

Every value in the pipeline is a `fractions.Fraction` (aliased `Rational`),
so evaluation, substitution and polynomial expansion never round.  Trees
are immutable and are never simplified on construction: `x + 0` stays
`x + 0` so that parsed text round-trips exactly.  Simplification belongs to
the solver.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

Rational = Fraction

RationalLike = Union[Fraction, int]

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Bounds on every exact power.  Word-problem equations use tiny powers;
# anything near these limits is an adversarial transcript.  The result-size
# cap, in bits, stays below CPython's default 4,300-digit limit on int-to-str
# conversion (about 14,284 bits), so any folded power can still be printed.
MAX_EXPONENT = 10_000
MAX_POWER_BITS = 14_000


class ExprError(Exception):
    """Base class for expression-level failures."""


class UnboundVariableError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"variable '{name}' is not bound")
        self.name = name


class DivisionByZeroError(ExprError, ZeroDivisionError):
    def __init__(self, message: str = "division by zero"):
        super().__init__(message)


class NonIntegerExponentError(ExprError):
    def __init__(self, exponent: Fraction):
        super().__init__(f"exponent {exponent} is not an integer")
        self.exponent = exponent


class ExponentTooLargeError(ExprError):
    def __init__(self, exponent: int):
        super().__init__(f"exponent {exponent} exceeds the supported magnitude")
        self.exponent = exponent


class NonLinearError(ExprError):
    def __init__(self, message: str = "expression is not linear"):
        super().__init__(message)


@dataclass(frozen=True)
class Expr:
    """Base node.  The eight subclasses below are the only node kinds.

    Operators are overloaded for convenient tree construction in tests and
    demos; ints and Fractions coerce to `Num`.
    """

    def __add__(self, other: Expr | RationalLike) -> Expr:
        return Add(self, as_expr(other))

    def __radd__(self, other: RationalLike) -> Expr:
        return Add(as_expr(other), self)

    def __sub__(self, other: Expr | RationalLike) -> Expr:
        return Sub(self, as_expr(other))

    def __rsub__(self, other: RationalLike) -> Expr:
        return Sub(as_expr(other), self)

    def __mul__(self, other: Expr | RationalLike) -> Expr:
        return Mul(self, as_expr(other))

    def __rmul__(self, other: RationalLike) -> Expr:
        return Mul(as_expr(other), self)

    def __truediv__(self, other: Expr | RationalLike) -> Expr:
        return Div(self, as_expr(other))

    def __rtruediv__(self, other: RationalLike) -> Expr:
        return Div(as_expr(other), self)

    def __pow__(self, other: Expr | RationalLike) -> Expr:
        return Pow(self, as_expr(other))

    def __neg__(self) -> Expr:
        return Neg(self)


@dataclass(frozen=True)
class Num(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def __post_init__(self):
        if not IDENT_RE.match(self.name):
            raise ValueError(f"invalid variable name: {self.name!r}")


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


def as_expr(value: Expr | RationalLike) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Num(Fraction(value))
    raise TypeError(f"cannot coerce {type(value).__name__} to Expr")


def eval_exact(expr: Expr, bindings: Mapping[str, RationalLike] | None = None) -> Fraction:
    """Evaluate `expr` to an exact rational under `bindings`.

    Raises UnboundVariableError for a free variable without a binding,
    DivisionByZeroError for a zero denominator (including 0 to a negative
    power), and NonIntegerExponentError when a Pow exponent does not
    evaluate to an integer.
    """
    bindings = bindings or {}
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return Fraction(bindings[expr.name])
        except KeyError:
            raise UnboundVariableError(expr.name) from None
    if isinstance(expr, Neg):
        return -eval_exact(expr.child, bindings)
    if isinstance(expr, Add):
        return eval_exact(expr.left, bindings) + eval_exact(expr.right, bindings)
    if isinstance(expr, Sub):
        return eval_exact(expr.left, bindings) - eval_exact(expr.right, bindings)
    if isinstance(expr, Mul):
        return eval_exact(expr.left, bindings) * eval_exact(expr.right, bindings)
    if isinstance(expr, Div):
        denom = eval_exact(expr.right, bindings)
        if denom == 0:
            raise DivisionByZeroError()
        return eval_exact(expr.left, bindings) / denom
    if isinstance(expr, Pow):
        exponent = eval_exact(expr.exponent, bindings)
        if exponent.denominator != 1:
            raise NonIntegerExponentError(exponent)
        return exact_power(eval_exact(expr.base, bindings), int(exponent))
    raise TypeError(f"unknown node: {type(expr).__name__}")


def exact_power(base: Fraction, power: int) -> Fraction:
    """`base ** power`, the one rule every exact power goes through.

    Raises ExponentTooLargeError when |power| exceeds MAX_EXPONENT or the
    result could exceed MAX_POWER_BITS, and DivisionByZeroError for zero
    to a negative power.
    """
    size = base.numerator.bit_length() + base.denominator.bit_length()
    if abs(power) > MAX_EXPONENT or size * abs(power) > MAX_POWER_BITS:
        raise ExponentTooLargeError(power)
    if base == 0 and power < 0:
        raise DivisionByZeroError("zero raised to a negative power")
    return base**power


def substitute(expr: Expr, var: str, replacement: Expr) -> Expr:
    """Replace every Var(var) node by a copy of `replacement`."""
    if isinstance(expr, Var):
        return replacement if expr.name == var else expr
    if isinstance(expr, (Num,)):
        return expr
    if isinstance(expr, Neg):
        return Neg(substitute(expr.child, var, replacement))
    if isinstance(expr, (Add, Sub, Mul, Div)):
        return type(expr)(
            substitute(expr.left, var, replacement),
            substitute(expr.right, var, replacement),
        )
    if isinstance(expr, Pow):
        return Pow(
            substitute(expr.base, var, replacement),
            substitute(expr.exponent, var, replacement),
        )
    raise TypeError(f"unknown node: {type(expr).__name__}")


def free_vars(expr: Expr) -> set[str]:
    """The set of variable names occurring in the tree."""
    out: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Neg):
            stack.append(node.child)
        elif isinstance(node, (Add, Sub, Mul, Div)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Pow):
            stack.append(node.base)
            stack.append(node.exponent)
    return out


def iter_numerals(expr: Expr) -> Iterator[Fraction]:
    """Yield the value of every Num leaf, in tree order."""
    if isinstance(expr, Num):
        yield expr.value
    elif isinstance(expr, Neg):
        yield from iter_numerals(expr.child)
    elif isinstance(expr, (Add, Sub, Mul, Div)):
        yield from iter_numerals(expr.left)
        yield from iter_numerals(expr.right)
    elif isinstance(expr, Pow):
        yield from iter_numerals(expr.base)
        yield from iter_numerals(expr.exponent)


@dataclass(frozen=True)
class LinearForm:
    """coefficients . vars + constant, with no zero coefficients stored."""

    coefficients: dict[str, Fraction]
    constant: Fraction

    def evaluate(self, bindings: Mapping[str, RationalLike]) -> Fraction:
        total = self.constant
        for name, coeff in self.coefficients.items():
            total += coeff * Fraction(bindings[name])
        return total


# A monomial is a sorted tuple of (name, power) pairs; the constant one is ().
Monomial = tuple[tuple[str, int], ...]


def polynomial(expr: Expr, max_degree: int) -> dict[Monomial, Fraction]:
    """Expand `expr` into {monomial: coefficient}, with no zero coefficients.

    Raises NonLinearError when `expr` is not a polynomial (division by, or
    an exponent that is, anything but a constant; a non-integer exponent; a
    negative power of a variable-bearing base) or when a product at any
    step would exceed total degree `max_degree`.  Raises DivisionByZeroError
    for a zero constant divisor.  Constant powers fold by `exact_power`.
    """
    if isinstance(expr, Num):
        return {(): expr.value} if expr.value else {}
    if isinstance(expr, Var):
        return {((expr.name, 1),): Fraction(1)}
    if isinstance(expr, Neg):
        return _scale(polynomial(expr.child, max_degree), Fraction(-1))
    if isinstance(expr, (Add, Sub)):
        out = polynomial(expr.left, max_degree)
        sign = 1 if isinstance(expr, Add) else -1
        for monomial, coeff in polynomial(expr.right, max_degree).items():
            total = out.get(monomial, 0) + sign * coeff
            if total:
                out[monomial] = total
            else:
                del out[monomial]
        return out
    if isinstance(expr, Mul):
        left = polynomial(expr.left, max_degree)
        return _multiply(left, polynomial(expr.right, max_degree), max_degree)
    if isinstance(expr, Div):
        left = polynomial(expr.left, max_degree)
        divisor = _constant(polynomial(expr.right, max_degree))
        if divisor is None:
            raise NonLinearError("division by a variable-bearing expression")
        if divisor == 0:
            raise DivisionByZeroError()
        return _scale(left, 1 / divisor)
    if isinstance(expr, Pow):
        exponent = _constant(polynomial(expr.exponent, max_degree))
        if exponent is None or exponent.denominator != 1:
            raise NonLinearError("unsupported exponent")
        power = int(exponent)
        base = polynomial(expr.base, max_degree)
        constant = _constant(base)
        if constant is not None:
            value = exact_power(constant, power)
            return {(): value} if value else {}
        if power < 0 or _degree(base) * power > max_degree:
            raise NonLinearError("variable-bearing power")
        out = {(): Fraction(1)}
        for _ in range(power):
            out = _multiply(out, base, max_degree)
        return out
    raise TypeError(f"unknown node: {type(expr).__name__}")


def _constant(terms: dict[Monomial, Fraction]) -> Fraction | None:
    """The value of a constant polynomial, or None if it has a variable."""
    if not terms:
        return Fraction(0)
    return terms.get(()) if len(terms) == 1 else None


def _degree(terms: dict[Monomial, Fraction]) -> int:
    return max((sum(power for _, power in monomial) for monomial in terms), default=0)


def _scale(terms: dict[Monomial, Fraction], factor: Fraction) -> dict[Monomial, Fraction]:
    return {monomial: coeff * factor for monomial, coeff in terms.items()} if factor else {}


def _multiply(
    left: dict[Monomial, Fraction], right: dict[Monomial, Fraction], max_degree: int
) -> dict[Monomial, Fraction]:
    for factor, other in ((left, right), (right, left)):
        constant = _constant(factor)
        if constant is not None:
            return _scale(other, constant)
    if _degree(left) + _degree(right) > max_degree:
        raise NonLinearError("product exceeds the degree bound")
    out: dict[Monomial, Fraction] = {}
    for left_monomial, left_coeff in left.items():
        for right_monomial, right_coeff in right.items():
            powers = dict(left_monomial)
            for name, power in right_monomial:
                powers[name] = powers.get(name, 0) + power
            monomial = tuple(sorted(powers.items()))
            out[monomial] = out.get(monomial, 0) + left_coeff * right_coeff
    return {monomial: coeff for monomial, coeff in out.items() if coeff}


def linear_form(expr: Expr) -> LinearForm:
    """The degree-1 view of `polynomial(expr, 1)`, or NonLinearError.

    Division by a constant is linear; division by anything variable-bearing
    is not.  Pow is linear only with a constant integer exponent of 0 or 1
    over a variable-bearing base (constant bases fold to a constant).
    """
    terms = polynomial(expr, 1)
    constant = terms.pop((), Fraction(0))
    return LinearForm({monomial[0][0]: coeff for monomial, coeff in terms.items()}, constant)


def is_integral(value: Fraction) -> bool:
    return value.denominator == 1


def format_rational(value: Fraction) -> str:
    """Minimal decimal for integers, `p/q` otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _format_literal(value: Fraction) -> str:
    """A parser-grammar numeral when one exists, else `p/q`.

    Denominators of the form 2^a * 5^b have a finite decimal expansion, so
    they print as decimal literals and re-parse to the identical value.
    """
    if value.denominator == 1:
        return str(value.numerator)
    denominator = value.denominator
    twos = fives = 0
    while denominator % 2 == 0:
        denominator //= 2
        twos += 1
    while denominator % 5 == 0:
        denominator //= 5
        fives += 1
    if denominator != 1:
        return format_rational(value)
    digits = max(twos, fives)
    scaled = value * 10**digits
    sign = "-" if scaled < 0 else ""
    magnitude = abs(scaled.numerator)
    return f"{sign}{magnitude // 10**digits}.{magnitude % 10**digits:0{digits}d}"


_BINOP_SYMBOL = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def render(expr: Expr) -> str:
    """Canonical text form: fully parenthesized infix.

    Numerals print as integer or finite-decimal literals when the value
    has one (denominator 2^a * 5^b), else as `p/q`.  A `p/q` or negative
    literal re-parses as a Div or Neg node of the same value, so structural
    round-trips hold exactly on trees whose Num leaves are nonnegative
    integers or finite decimals — the image of the parser's numeral
    grammar.
    """
    if isinstance(expr, Num):
        return _format_literal(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{render(expr.child)})"
    if isinstance(expr, Pow):
        return f"({render(expr.base)} ^ {render(expr.exponent)})"
    symbol = _BINOP_SYMBOL.get(type(expr))
    if symbol is not None:
        return f"({render(expr.left)} {symbol} {render(expr.right)})"
    raise TypeError(f"unknown node: {type(expr).__name__}")
