"""The post-order walker against the recursive passes it replaced.

Test-only copies of the tree passes as they were (recursive `isinstance`
ladders in `exprs`, and the iterative `free_vars`) serve as references.
The port gives the same values, trees, monomial dicts and strings, and where a
reference raises, the same exception type and message, with two deliberate
exceptions:

- The walker finishes both operands of a node before the node acts.  The
  ladders ran a Div's divisor and a Pow's exponent first, and the expansion
  gave up on a non-constant or fractional exponent before running the base.
  So where more than one node would fail, the port raises the error of the
  first failing subtree in post-order (`_first_failure`).
- `linear_form` folds a constant base with a constant fractional exponent
  through `exact_power`, as `eval_exact` does, where the ladder raised
  NonLinearError; it keeps NonLinearError when `exact_power` refuses the
  power (no exact root, or an exponent or result over the size bounds).  The reference marks this one line (`fold_fractional`).
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from declsolve.exprs import (
    Add,
    Div,
    DivisionByZeroError,
    ExprError,
    Mul,
    Neg,
    NonLinearError,
    Num,
    Pow,
    Sub,
    UnboundVariableError,
    Var,
    _bounded,
    _constant,
    _degree,
    _format_literal,
    _multiply,
    _scale,
    eval_exact,
    exact_power,
    free_vars,
    leaves,
    linear_form,
    postorder,
    render,
    substitute,
)

# --- the ladders, as they were --------------------------------------------------


def old_eval_exact(expr, bindings=None):
    bindings = bindings or {}
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return Fraction(bindings[expr.name])
        except KeyError:
            raise UnboundVariableError(expr.name) from None
    if isinstance(expr, Neg):
        return -old_eval_exact(expr.child, bindings)
    if isinstance(expr, Add):
        return old_eval_exact(expr.left, bindings) + old_eval_exact(expr.right, bindings)
    if isinstance(expr, Sub):
        return old_eval_exact(expr.left, bindings) - old_eval_exact(expr.right, bindings)
    if isinstance(expr, Mul):
        return _bounded(old_eval_exact(expr.left, bindings) * old_eval_exact(expr.right, bindings))
    if isinstance(expr, Div):
        denom = old_eval_exact(expr.right, bindings)
        if denom == 0:
            raise DivisionByZeroError()
        return _bounded(old_eval_exact(expr.left, bindings) / denom)
    if isinstance(expr, Pow):
        exponent = old_eval_exact(expr.exponent, bindings)
        return exact_power(old_eval_exact(expr.base, bindings), exponent)
    raise TypeError(f"unknown node: {type(expr).__name__}")


def old_substitute(expr, var, replacement):
    if isinstance(expr, Var):
        return replacement if expr.name == var else expr
    if isinstance(expr, (Num,)):
        return expr
    if isinstance(expr, Neg):
        return Neg(old_substitute(expr.child, var, replacement))
    if isinstance(expr, (Add, Sub, Mul, Div)):
        return type(expr)(
            old_substitute(expr.left, var, replacement),
            old_substitute(expr.right, var, replacement),
        )
    if isinstance(expr, Pow):
        return Pow(
            old_substitute(expr.base, var, replacement),
            old_substitute(expr.exponent, var, replacement),
        )
    raise TypeError(f"unknown node: {type(expr).__name__}")


def old_free_vars(expr):
    out = set()
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


def old_iter_numerals(expr):
    if isinstance(expr, Num):
        yield expr.value
    elif isinstance(expr, Neg):
        yield from old_iter_numerals(expr.child)
    elif isinstance(expr, (Add, Sub, Mul, Div)):
        yield from old_iter_numerals(expr.left)
        yield from old_iter_numerals(expr.right)
    elif isinstance(expr, Pow):
        yield from old_iter_numerals(expr.base)
        yield from old_iter_numerals(expr.exponent)


def old_polynomial(expr, max_degree, fold_fractional=False):
    if isinstance(expr, Num):
        return {(): expr.value} if expr.value else {}
    if isinstance(expr, Var):
        return {((expr.name, 1),): Fraction(1)}
    if isinstance(expr, Neg):
        return _scale(old_polynomial(expr.child, max_degree, fold_fractional), Fraction(-1))
    if isinstance(expr, (Add, Sub)):
        out = old_polynomial(expr.left, max_degree, fold_fractional)
        sign = 1 if isinstance(expr, Add) else -1
        for monomial, coeff in old_polynomial(expr.right, max_degree, fold_fractional).items():
            total = out.get(monomial, 0) + sign * coeff
            if total:
                out[monomial] = total
            else:
                del out[monomial]
        return out
    if isinstance(expr, Mul):
        left = old_polynomial(expr.left, max_degree, fold_fractional)
        return _multiply(left, old_polynomial(expr.right, max_degree, fold_fractional), max_degree)
    if isinstance(expr, Div):
        left = old_polynomial(expr.left, max_degree, fold_fractional)
        divisor = _constant(old_polynomial(expr.right, max_degree, fold_fractional))
        if divisor is None:
            raise NonLinearError("division by a variable-bearing expression")
        if divisor == 0:
            raise DivisionByZeroError()
        return _scale(left, 1 / divisor)
    if isinstance(expr, Pow):
        exponent = _constant(old_polynomial(expr.exponent, max_degree, fold_fractional))
        if exponent is None or exponent.denominator != 1:
            # The one deliberate change: a constant fractional power folds.
            if fold_fractional and exponent is not None:
                constant = _constant(old_polynomial(expr.base, max_degree, fold_fractional))
                if constant is not None:
                    try:
                        value = exact_power(constant, exponent)
                    except ExprError:
                        raise NonLinearError("unsupported exponent") from None
                    return {(): value} if value else {}
            raise NonLinearError("unsupported exponent")
        power = int(exponent)
        base = old_polynomial(expr.base, max_degree, fold_fractional)
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


_BINOP_SYMBOL = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def old_render(expr):
    if isinstance(expr, Num):
        return _format_literal(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{old_render(expr.child)})"
    if isinstance(expr, Pow):
        return f"({old_render(expr.base)} ^ {old_render(expr.exponent)})"
    symbol = _BINOP_SYMBOL.get(type(expr))
    if symbol is not None:
        return f"({old_render(expr.left)} {symbol} {old_render(expr.right)})"
    raise TypeError(f"unknown node: {type(expr).__name__}")


# --- comparing outcomes ------------------------------------------------------------


class _Raised(tuple):
    """An outcome that is an exception: (type, message)."""


def outcome(function, *args):
    try:
        result = function(*args)
    except Exception as err:  # every type, so that any difference shows
        return _Raised((type(err), str(err)))
    return result


def _subtrees(expr):
    """Every subtree of `expr`, each after its operands, left first."""
    if isinstance(expr, Neg):
        yield from _subtrees(expr.child)
    elif isinstance(expr, Pow):
        yield from _subtrees(expr.base)
        yield from _subtrees(expr.exponent)
    elif not isinstance(expr, (Num, Var)):
        yield from _subtrees(expr.left)
        yield from _subtrees(expr.right)
    yield expr


def _first_failure(reference, expr):
    """What `reference(expr)` gives, unless it fails on a subtree first in
    post-order: then what it gives on that subtree."""
    for subtree in _subtrees(expr):
        result = outcome(reference, subtree)
        if isinstance(result, _Raised):
            return result
    return result


# --- trees -------------------------------------------------------------------------

_EXPONENTS = [Num(n) for n in (-2, -1, 0, 1, 2, 3, 200, 5000, 10_001)] + [
    Num(Fraction(1, 2)),
    Num(Fraction(3, 2)),
    Num(Fraction(-2, 3)),
    Num(Fraction(1, 20_000)),
    Neg(Num(Fraction(1, 2))),
    Div(Num(1), Num(3)),
]
_VALUES = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def trees(names):
    leaves = st.one_of(
        st.sampled_from(names).map(Var),
        st.sampled_from([0, 1, 2, 4, 9, 16, Fraction(1, 4), Fraction(4, 9)]).map(Num),
        _VALUES.map(Num),
    )
    return st.recursive(
        leaves,
        lambda child: st.one_of(
            st.builds(Neg, child),
            st.builds(Add, child, child),
            st.builds(Sub, child, child),
            st.builds(Mul, child, child),
            st.builds(Div, child, child),
            st.builds(Pow, child, st.one_of(st.sampled_from(_EXPONENTS), child)),
        ),
        max_leaves=8,
    )


BINDINGS = [
    {"x": Fraction(3, 2), "y": Fraction(-2), "z": Fraction(0)},
    {"x": Fraction(4), "y": Fraction(1, 9)},  # z unbound
    {},
]
REPLACEMENTS = [Num(3), Num(0), Var("w"), Add(Var("y"), Num(Fraction(1, 2)))]


@settings(max_examples=500, deadline=None)
@given(trees(["x", "y", "z"]), st.sampled_from(BINDINGS))
def test_eval_exact_matches_the_ladder(expr, bindings):
    assert outcome(eval_exact, expr, bindings) == _first_failure(
        lambda e: old_eval_exact(e, bindings), expr
    )


# One to three names, none of which occurs in a replacement, so that
# replacing them at once equals replacing them one by one.
REPLACEMENT_MAPS = st.dictionaries(
    st.sampled_from(["x", "y", "v"]), st.sampled_from(REPLACEMENTS), min_size=1, max_size=3
).filter(lambda mapping: not any(free_vars(tree) & mapping.keys() for tree in mapping.values()))


@settings(max_examples=300, deadline=None)
@given(trees(["x", "y", "z"]), REPLACEMENT_MAPS)
def test_substitute_free_vars_numerals_and_render_match_the_ladders(expr, replacements):
    substituted = substitute(expr, replacements)
    by_name = expr
    for var, replacement in replacements.items():
        by_name = old_substitute(by_name, var, replacement)
    assert substituted == by_name
    assert free_vars(expr) == old_free_vars(expr)
    assert free_vars(substituted) == old_free_vars(substituted)
    names, numerals = leaves(expr)
    assert set(names) == old_free_vars(expr)
    assert list(numerals) == list(old_iter_numerals(expr))
    assert render(expr) == old_render(expr)
    assert render(substituted) == old_render(substituted)


@settings(max_examples=500, deadline=None)
@given(trees(["x", "y"]))
@example(Pow(Num(16), Num(Fraction(1, 2))))  # folds to 4
@example(Pow(Num(2), Num(Fraction(1, 2))))  # no exact root
@example(Pow(Num(1), Num(Fraction(1, 20_000))))  # root degree over MAX_EXPONENT
def test_polynomial_matches_the_ladder(expr):
    got = outcome(linear_form, expr)
    assert got == _first_failure(lambda e: old_polynomial(e, 1, True), expr)
    # The fold is the only other change: where it acts, the ladder gave up
    # on a constant fractional power as non-polynomial.
    before = _first_failure(lambda e: old_polynomial(e, 1), expr)
    if got != before:
        assert before == _Raised((NonLinearError, "unsupported exponent"))
        assert any(_is_constant_fractional_power(node) for node in _subtrees(expr))


def _is_constant_fractional_power(node):
    """A Pow whose base and exponent expand to constants, the exponent not
    an integer."""
    if not isinstance(node, Pow):
        return False
    base, exponent = (outcome(old_polynomial, e, 1) for e in (node.base, node.exponent))
    if isinstance(base, _Raised) or isinstance(exponent, _Raised) or _constant(base) is None:
        return False
    return _constant(exponent) is not None and _constant(exponent).denominator != 1


@pytest.mark.parametrize(
    "expr",
    [
        # Both operands fail: the left one, finished first, reports.
        Div(Var("u"), Div(Num(1), Num(0))),
        Pow(Var("u"), Div(Num(1), Num(0))),
        # A zero divisor and a failing numerator: the numerator reports.
        Div(Var("u"), Num(0)),
    ],
)
def test_eval_exact_reports_the_first_failure_in_postorder(expr):
    assert outcome(eval_exact, expr) == _Raised((UnboundVariableError, "variable 'u' is not bound"))
    # The ladder ran the right operand first.
    assert outcome(old_eval_exact, expr) == _Raised((DivisionByZeroError, "division by zero"))


def test_polynomial_deviations():
    x = Var("x")
    # A non-constant exponent over a failing base: the base reports.
    bad_base = Pow(Div(Num(1), Num(0)), x)
    assert outcome(linear_form, bad_base) == _Raised((DivisionByZeroError, "division by zero"))
    assert outcome(old_polynomial, bad_base, 1) == _Raised((NonLinearError, "unsupported exponent"))
    # A constant fractional power folds when exact, and only then.
    assert linear_form(x + Pow(Num(16), Num(Fraction(1, 2)))) == {(("x", 1),): 1, (): 4}
    for expr in (Pow(Num(2), Num(Fraction(1, 2))), Pow(Num(-4), Num(Fraction(1, 2))), Pow(x, Num(Fraction(1, 2)))):
        assert outcome(linear_form, expr) == _Raised((NonLinearError, "unsupported exponent"))
    assert linear_form(Num(16) ** Num(Fraction(1, 2)) * x) == {(("x", 1),): 4}


# --- deep trees --------------------------------------------------------------------

DEPTH = 5_000  # operators per chain, so 10,001 nodes


def chain(kind, leaf=Num(1), start=Var("x")):
    """start kind leaf kind leaf ...: a left-nested chain of DEPTH operators."""
    expr = start
    for _ in range(DEPTH):
        expr = kind(expr, leaf)
    return expr


@pytest.mark.parametrize("kind", [Add, Sub, Mul], ids=["add", "sub", "mul"])
def test_deep_chains_are_walked_without_recursion(kind):
    leaf = Num(2) if kind is Mul else Num(1)
    expr = chain(kind, leaf)
    assert len(postorder(expr)) == 2 * DEPTH + 1
    assert DEPTH * 2 > sys.getrecursionlimit()
    expected = {Add: 7 + DEPTH, Sub: 7 - DEPTH, Mul: 7 * 2**DEPTH}[kind]
    assert eval_exact(expr, {"x": 7}) == expected
    substituted = substitute(expr, {"x": Num(7)})
    assert free_vars(substituted) == set() and eval_exact(substituted) == expected
    coefficient = 2**DEPTH if kind is Mul else 1
    constant = {Add: DEPTH, Sub: -DEPTH, Mul: 0}[kind]
    assert linear_form(expr) == {(("x", 1),): coefficient} | ({(): constant} if constant else {})
    assert list(leaves(expr)[1]) == [leaf.value] * DEPTH
    symbol = {Add: "+", Sub: "-", Mul: "*"}[kind]
    assert render(expr) == "(" * DEPTH + "x" + f" {symbol} {leaf.value})" * DEPTH
