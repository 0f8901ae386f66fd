"""Arithmetic expression trees over exact rationals.

Every value in the pipeline is a `fractions.Fraction`, so evaluation,
substitution and polynomial expansion never round.  Trees are immutable, so
one node may sit in many trees: the scripts of one evaluation run share one
leaf per name or numeral text among all their equations.  Trees are never simplified on
construction: `x + 0` stays `x + 0` so that parsed text round-trips exactly.
Simplification belongs to the solver.

Every pass over a tree (evaluation, substitution, expansion, rendering,
comparison, hashing and the rest) is one walk: `postorder` lists the nodes,
each after its operands, with an explicit stack, and `fold` reduces that
list with one function per node kind.  So a tree of any depth is walked
without recursion, and a caller that evaluates one tree many times walks it
once.  Nodes are slotted, so a tree holds no per-node `__dict__`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from typing import Any, Callable, Mapping, Sequence, Union

RationalLike = Union[Fraction, int]

# Bounds on every exact power, product and quotient, and on the total degree
# `rational` expands to.  Word-problem equations use tiny values; anything
# near these limits is an adversarial transcript.  The size cap, in bits,
# stays below CPython's default 4,300-digit limit on int-to-str conversion
# (about 14,284 bits), so any such value can still be printed.
MAX_EXPONENT = 10_000
MAX_POWER_BITS = 14_000
MAX_POLY_DEGREE = 32


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
    """A power whose exponent is too large, or (exponent None) a product or
    quotient whose value exceeds MAX_POWER_BITS."""

    def __init__(self, exponent: Fraction | int | None = None):
        super().__init__(
            f"value exceeds {MAX_POWER_BITS} bits" if exponent is None
            else f"exponent {exponent} exceeds the supported magnitude"
        )
        self.exponent = exponent


class NonLinearError(ExprError):
    def __init__(self, message: str = "expression is not linear"):
        super().__init__(message)


# Every node class: immutable, slotted, and with the `==`, `hash()` and
# `repr()` of `Expr` below, which walk the tree once instead of recursing.
_node = dataclass(frozen=True, slots=True, eq=False, repr=False)


@_node
class Expr:
    """Base node.  The eight subclasses below are the only node kinds.

    Operators are overloaded for convenient tree construction in tests and
    demos; ints and Fractions coerce to `Num`.  `==`, `hash()` and `repr()`
    follow dataclass semantics (equal when of the same type with equal
    fields) but take a tree of any depth.
    """

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        mine, theirs = postorder(self), postorder(other)
        if len(mine) != len(theirs):
            return False
        # A post-order list of nodes of fixed arity spells one tree, so equal
        # kinds and equal leaves make equal trees.
        for node, twin in zip(mine, theirs):
            kind = type(node)
            if kind is not type(twin):
                return False
            if kind is Num or kind is Var:
                if _leaf_field(node) != _leaf_field(twin):
                    return False
        return True

    def __hash__(self) -> int:
        return fold(postorder(self), _hash_leaf, _HASH)

    def __repr__(self) -> str:
        return fold(postorder(self), _repr_leaf, _REPR)

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


@_node
class Num(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@_node
class Var(Expr):
    name: str

    def __post_init__(self):
        # Exactly the ASCII names [A-Za-z_][A-Za-z0-9_]*.
        if not (self.name.isascii() and self.name.isidentifier()):
            raise ValueError(f"invalid variable name: {self.name!r}")


@_node
class Neg(Expr):
    child: Expr


@_node
class Add(Expr):
    left: Expr
    right: Expr


@_node
class Sub(Expr):
    left: Expr
    right: Expr


@_node
class Mul(Expr):
    left: Expr
    right: Expr


@_node
class Div(Expr):
    left: Expr
    right: Expr


@_node
class Pow(Expr):
    base: Expr
    exponent: Expr


def as_expr(value: Expr | RationalLike) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Num(Fraction(value))
    raise TypeError(f"cannot coerce {type(value).__name__} to Expr")


def postorder(expr: Expr) -> list[Expr]:
    """Every node of `expr`, each after its operands, left operand first.

    The one tree walk.  It keeps an explicit stack, so it takes any depth;
    every other pass folds the list it returns.
    """
    order = []
    stack = [expr]
    while stack:
        node = stack.pop()
        order.append(node)
        kind = type(node)
        if kind in _BINARY_KINDS:
            stack += (node.left, node.right)
        elif kind is Pow:
            stack += (node.base, node.exponent)
        elif kind is Neg:
            stack.append(node.child)
        elif kind is not Num and kind is not Var:
            raise TypeError(f"unknown node: {kind.__name__}")
    order.reverse()  # node, right, left pre-order, reversed
    return order


def fold(nodes: Sequence[Expr], leaf: Callable[[Expr], Any], operations: Mapping) -> Any:
    """Reduce a `postorder` list bottom-up to the value of its last node.

    `leaf` gives the value of a Num or Var node, and `operations[kind]` that
    of any other node from its operands' values: one for Neg, two (left and
    right, or base and exponent) for the others.  Both operands of a node
    are reduced before its operation runs, left first.
    """
    values = []
    for node in nodes:
        kind = type(node)
        if kind is Num or kind is Var:
            values.append(leaf(node))
        elif kind is Neg:
            values[-1] = operations[Neg](values[-1])
        else:
            right = values.pop()
            values[-1] = operations[kind](values[-1], right)
    return values[-1]


def eval_exact(
    expr: Expr, bindings: Mapping[str, RationalLike] | None = None, *, approx: bool = False
) -> Fraction:
    """Evaluate `expr` to an exact rational under `bindings`.

    Raises UnboundVariableError for a free variable without a binding,
    DivisionByZeroError for a zero denominator (including 0 to a negative
    power), NonIntegerExponentError when a Pow exponent is not an integer
    and the power is not an exact rational, and ExponentTooLargeError for a
    power, product or quotient over the size bounds.  Where several nodes
    would fail, the first in `postorder` raises.  With `approx` the
    bindings are rounded values, and powers go through `rounded_power`.
    """
    bindings = bindings or {}

    def leaf(node: Expr) -> Fraction:
        if type(node) is Num:
            return node.value
        if node.name not in bindings:
            raise UnboundVariableError(node.name)
        value = bindings[node.name]
        return value if type(value) is Fraction else Fraction(value)

    return fold(postorder(expr), leaf, _ROUNDED_OPERATIONS if approx else _EXACT_OPERATIONS)


def _exact_quotient(left: Fraction, right: Fraction) -> Fraction:
    if right == 0:
        raise DivisionByZeroError()
    return _bounded(left / right)


def _bounded(value: Fraction) -> Fraction:
    """`value`, or ExponentTooLargeError when it exceeds MAX_POWER_BITS."""
    if value.numerator.bit_length() + value.denominator.bit_length() > MAX_POWER_BITS:
        raise ExponentTooLargeError()
    return value


def exact_power(base: Fraction, power: Fraction | int) -> Fraction:
    """`base ** power`, the one rule every exact power goes through.

    A power p/q in lowest terms with q > 1 is the p-th power of the q-th
    root of `base` when that root is rational, else NonIntegerExponentError
    (a negative base has none).  Raises ExponentTooLargeError when |p| or q
    exceeds MAX_EXPONENT or the result could exceed MAX_POWER_BITS, and
    DivisionByZeroError for zero to a negative power.  Any power of 0 or 1,
    and an integer power of -1, is exact whatever its size.
    """
    if base in (0, 1) or base == -1 and power.denominator == 1:
        if base == 0 and power < 0:
            raise DivisionByZeroError("zero raised to a negative power")
        return base ** int(power) if power.denominator == 1 else base
    if power.denominator != 1:
        if power.denominator > MAX_EXPONENT:
            raise ExponentTooLargeError(power)
        root = exact_root(base, power.denominator)
        if root is None:
            raise NonIntegerExponentError(power)
        base, power = root, power.numerator
    power = int(power)
    size = base.numerator.bit_length() + base.denominator.bit_length()
    if abs(power) > MAX_EXPONENT or size * abs(power) > MAX_POWER_BITS:
        raise ExponentTooLargeError(power)
    return base**power


def rounded_power(base: Fraction, power: Fraction) -> Fraction | float:
    """`exact_power`, or a float where that refuses the power for want of an
    exact root or for size and the base has a real power: the sign of an
    odd integer power times exp(power * log|base|).  A float is a rounded
    result; one past the float range raises ExponentTooLargeError."""
    try:
        return exact_power(base, power)
    except (NonIntegerExponentError, ExponentTooLargeError):
        if base < 0 and power.denominator != 1:
            raise
    sign = -1 if base < 0 and power.numerator % 2 else 1
    try:
        return sign * math.exp(float(power * Fraction(rational_log(abs(base)))))
    except OverflowError as err:
        raise ExponentTooLargeError(power) from err


def rational_log(value: Fraction) -> float:
    """The natural logarithm of `value` > 0, of any size."""
    return math.log(value.numerator) - math.log(value.denominator)


def exact_root(value: Fraction, degree: int) -> Fraction | None:
    """The rational `degree`-th root of `value` >= 0, or None if it has none."""
    if value < 0:
        return None
    num = _integer_root(value.numerator, degree)
    den = _integer_root(value.denominator, degree)
    if num**degree == value.numerator and den**degree == value.denominator:
        return Fraction(num, den)
    return None


def _integer_root(n: int, degree: int) -> int:
    """floor(n ** (1 / degree)) for n >= 0, by integer Newton steps."""
    if degree == 2:
        return math.isqrt(n)
    bits = n.bit_length()
    if degree >= bits:  # 2 ** degree > n
        return min(n, 1)
    x = 1 << -(-bits // degree)  # above the root; the steps descend to it
    while True:
        y = ((degree - 1) * x + n // x ** (degree - 1)) // degree
        if y >= x:
            return x
        x = y


def substitute(expr: Expr, replacements: Mapping[str, Expr]) -> Expr:
    """Replace every Var node named in `replacements` by its tree, in one walk.

    Each name is replaced at once, so a replacement's own variables are
    never replaced in turn.
    """

    def leaf(node: Expr) -> Expr:
        return replacements.get(node.name, node) if type(node) is Var else node

    return fold(postorder(expr), leaf, _REBUILD)


def free_vars(expr: Expr) -> set[str]:
    """The set of variable names occurring in the tree."""
    return {node.name for node in postorder(expr) if type(node) is Var}


def leaves(expr: Expr) -> tuple[tuple[str, ...], tuple[Fraction, ...]]:
    """The variable names of `expr`, each once in order of first occurrence,
    and the value of every Num leaf in tree order, from one walk.

    The parser records the same two tuples as it reads the text, which is
    left to right, in the order post-order meets the leaves.
    """
    names: dict[str, None] = {}
    numerals = []
    for node in postorder(expr):
        kind = type(node)
        if kind is Var:
            names[node.name] = None
        elif kind is Num:
            numerals.append(node.value)
    return tuple(names), tuple(numerals)


# A monomial is a sorted tuple of (name, power) pairs; the constant one is ().
# The one polynomial format between a tree and the integer routines.  Its
# coefficients are always `Fraction`, never `int`, and never zero.
Monomial = tuple[tuple[str, int], ...]
Terms = dict[Monomial, Fraction]


def rational(expr: Expr) -> tuple[Terms, Terms, Terms]:
    """Expand `expr` into polynomials (numerator, denominator, poles): the
    quotient equals `expr` wherever `poles`, the denominator times each
    denominator an inversion or a zero power took away (`1 / (1 / x)` is
    x / 1 with the pole x), is not zero.

    Division by, and integer powers of, a variable-bearing expression are
    rational; otherwise `linear_form`'s errors hold, to degree MAX_POLY_DEGREE
    on each part.  A divisor that expands to zero raises DivisionByZeroError.
    """
    multiply = partial(_multiply, max_degree=MAX_POLY_DEGREE)
    inverted: list[Terms] = []  # denominators moved up or dropped

    def add(left, right, sign=1):
        if left[1] == right[1]:
            return _add(left[0], right[0], sign), left[1]
        return _add(multiply(left[0], right[1]), multiply(right[0], left[1]), sign), multiply(left[1], right[1])

    def divide(left, right):
        if not right[0]:
            raise DivisionByZeroError()
        inverted.append(right[1])
        return multiply(left[0], right[1]), multiply(left[1], right[0])

    def power(base, exponent):
        (num, den), exponent_terms = base, _divide(*exponent)
        value = _constant(exponent_terms)
        # `linear_form`'s rules, unless the base has a variable denominator or
        # a variable-bearing base has a negative power.
        if _constant(den) is not None and (value is None or value >= 0 or _constant(num) is not None):
            return _power(_divide(num, den), exponent_terms, MAX_POLY_DEGREE), {(): Fraction(1)}
        if value is None or value.denominator != 1:
            raise NonLinearError("unsupported exponent")
        if value <= 0:  # a negative power moves the denominator up, a zero one drops it
            inverted.append(den)
        if value < 0:
            if not num:
                raise DivisionByZeroError("zero raised to a negative power")
            num, den, value = den, num, -value
        return _power(num, {(): value}, MAX_POLY_DEGREE), _power(den, {(): value}, MAX_POLY_DEGREE)

    operations = {
        Neg: lambda operand: (_scale(operand[0], Fraction(-1)), operand[1]),
        Mul: lambda left, right: (multiply(left[0], right[0]), multiply(left[1], right[1])),
        Add: add, Sub: partial(add, sign=-1), Div: divide, Pow: power,
    }
    numerator, denominator = fold(postorder(expr), lambda node: (_leaf_terms(node), {(): Fraction(1)}), operations)
    return numerator, denominator, reduce(multiply, inverted, denominator)


def _leaf_terms(node: Expr) -> Terms:
    if type(node) is Var:
        return {((node.name, 1),): Fraction(1)}
    return {(): node.value} if node.value else {}


def _add(left: Terms, right: Terms, sign: int = 1) -> Terms:
    for monomial, coeff in right.items():
        total = left.get(monomial, 0) + sign * coeff
        if total:
            left[monomial] = total
        else:
            del left[monomial]
    return left


def _divide(left: Terms, right: Terms) -> Terms:
    divisor = _constant(right)
    if divisor is None:
        raise NonLinearError("division by a variable-bearing expression")
    if divisor == 0:
        raise DivisionByZeroError()
    return _scale(left, 1 / divisor)


def _power(base: Terms, exponent_terms: Terms, max_degree: int) -> Terms:
    exponent = _constant(exponent_terms)
    constant = _constant(base)
    if exponent is None or (exponent.denominator != 1 and constant is None):
        raise NonLinearError("unsupported exponent")
    if constant is not None:
        try:
            value = exact_power(constant, exponent)
        except ExprError:
            if exponent.denominator == 1:
                raise
            raise NonLinearError("unsupported exponent") from None
        return {(): value} if value else {}
    power = int(exponent)
    if power < 0 or _degree(base) * power > max_degree:
        raise NonLinearError("variable-bearing power")
    out = {(): Fraction(1)}
    for _ in range(power):
        out = _multiply(out, base, max_degree)
    return out


def _constant(terms: Terms) -> Fraction | None:
    """The value of a constant polynomial, or None if it has a variable."""
    if not terms:
        return Fraction(0)
    return terms.get(()) if len(terms) == 1 else None


def _degree(terms: Terms) -> int:
    return max((sum(power for _, power in monomial) for monomial in terms), default=0)


def _scale(terms: Terms, factor: Fraction) -> Terms:
    return {monomial: _bounded(coeff * factor) for monomial, coeff in terms.items()} if factor else {}


def _multiply(left: Terms, right: Terms, max_degree: int) -> Terms:
    for factor, other in ((left, right), (right, left)):
        constant = _constant(factor)
        if constant is not None:
            return _scale(other, constant)
    if _degree(left) + _degree(right) > max_degree:
        raise NonLinearError("product exceeds the degree bound")
    out: Terms = {}
    for left_monomial, left_coeff in left.items():
        for right_monomial, right_coeff in right.items():
            powers = dict(left_monomial)
            for name, power in right_monomial:
                powers[name] = powers.get(name, 0) + power
            monomial = tuple(sorted(powers.items()))
            out[monomial] = out.get(monomial, 0) + left_coeff * right_coeff
    return {monomial: _bounded(coeff) for monomial, coeff in out.items() if coeff}


def linear_form(expr: Expr) -> Terms:
    """Expand a linear `expr` into {monomial: coefficient} with no zero
    coefficients, each monomial a single `((name, 1),)` or the constant `()`.

    Raises NonLinearError for division by, or an exponent that is, anything
    but a constant; a non-integer exponent on a variable-bearing base, or one
    `exact_power` refuses on a constant; a negative power of a variable-bearing
    base; and a product past total degree 1.  Raises DivisionByZeroError for a
    zero constant divisor, and ExponentTooLargeError for a product or quotient
    coefficient over MAX_POWER_BITS.  Constant powers fold by `exact_power`,
    as in `eval_exact`.
    """
    return fold(postorder(expr), _leaf_terms, _LINEAR_OPERATIONS)


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


def render(expr: Expr) -> str:
    """Canonical text form: fully parenthesized infix.

    Numerals print as integer or finite-decimal literals when the value
    has one (denominator 2^a * 5^b), else as `p/q`.  A `p/q` or negative
    literal re-parses as a Div or Neg node of the same value, so structural
    round-trips hold exactly on trees whose Num leaves are nonnegative
    integers or finite decimals — the image of the parser's numeral
    grammar.
    """
    return fold(postorder(expr), _render_leaf, _RENDER)


def _render_leaf(node: Expr) -> str:
    return node.name if type(node) is Var else _format_literal(node.value)


def _leaf_field(node: Expr) -> Fraction | str:
    return node.name if type(node) is Var else node.value


def _hash_leaf(node: Expr) -> int:
    return hash((_leaf_field(node),))


def _repr_leaf(node: Expr) -> str:
    return f"Var(name={node.name!r})" if type(node) is Var else f"Num(value={node.value!r})"


_BINARY_KINDS = frozenset({Add, Sub, Mul, Div})

# Exact arithmetic holds every product, quotient and power to the bounds.
_EXACT_OPERATIONS = {
    Neg: operator.neg, Add: operator.add, Sub: operator.sub,
    Mul: lambda left, right: _bounded(left * right),
    Div: _exact_quotient,
    Pow: exact_power,
}

_ROUNDED_OPERATIONS = _EXACT_OPERATIONS | {Pow: lambda base, power: Fraction(rounded_power(base, power))}

_REBUILD = {kind: kind for kind in _EXACT_OPERATIONS}

# `linear_form`'s expansion: products and powers to total degree 1.
_LINEAR_OPERATIONS = {
    Neg: partial(_scale, factor=Fraction(-1)), Add: _add, Sub: partial(_add, sign=-1), Div: _divide,
    Mul: partial(_multiply, max_degree=1), Pow: partial(_power, max_degree=1),
}

_RENDER = {Neg: "(-{})".format} | {
    kind: f"({{}} {symbol} {{}})".format
    for kind, symbol in ((Add, "+"), (Sub, "-"), (Mul, "*"), (Div, "/"), (Pow, "^"))
}

# A dataclass hashes the tuple of its fields; so does a node, from the
# hashes of its operands.
_HASH = {kind: lambda *operands: hash(operands) for kind in _EXACT_OPERATIONS}

_REPR = {Neg: "Neg(child={})".format, Pow: "Pow(base={}, exponent={})".format} | {
    kind: f"{kind.__name__}(left={{}}, right={{}})".format for kind in _BINARY_KINDS
}
