import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from declsolve.exprs import (
    MAX_EXPONENT,
    MAX_POWER_BITS,
    Add,
    Div,
    DivisionByZeroError,
    ExponentTooLargeError,
    ExprError,
    LinearForm,
    Mul,
    Neg,
    NonIntegerExponentError,
    NonLinearError,
    Num,
    Pow,
    Sub,
    UnboundVariableError,
    Var,
    eval_exact,
    format_rational,
    free_vars,
    iter_numerals,
    linear_form,
    polynomial,
    render,
    substitute,
)


def test_num_coerces_to_fraction():
    assert Num(3).value == Fraction(3)
    assert Num(Fraction(1, 2)).value == Fraction(1, 2)
    assert Num("0.25").value == Fraction(1, 4)


def test_var_rejects_bad_identifiers():
    for bad in ("", "2x", "x y", "x-y", "answer!"):
        with pytest.raises(ValueError):
            Var(bad)


def test_operator_sugar_builds_trees():
    x, y = Var("x"), Var("y")
    e = (x + y) * 2 - x / y
    assert isinstance(e, Sub)
    assert isinstance(e.left, Mul)
    assert e.left.right == Num(2)
    assert isinstance(e.right, Div)
    assert -x == Neg(x)
    assert 2 + x == Add(Num(2), x)
    assert 2 - x == Sub(Num(2), x)
    assert 2 / x == Div(Num(2), x)
    assert x**2 == Pow(x, Num(2))


def test_trees_are_immutable_and_hashable():
    e = Add(Var("x"), Num(1))
    with pytest.raises(AttributeError):
        e.left = Num(2)
    assert len({e, Add(Var("x"), Num(1))}) == 1


def test_eval_exact_basics():
    x = Var("x")
    assert eval_exact(x * 3 + 1, {"x": Fraction(2)}) == 7
    assert eval_exact(Num(5)) == 5
    assert eval_exact(Div(Num(7), Num(2))) == Fraction(7, 2)
    assert eval_exact(Pow(Num(2), Num(10))) == 1024
    assert eval_exact(Pow(Num(2), Neg(Num(2)))) == Fraction(1, 4)
    # A fractional power is exact when the root is rational.
    assert eval_exact(Pow(Num(16), Num(Fraction(1, 2)))) == 4
    assert eval_exact(Pow(Num(Fraction(4, 9)), Num(Fraction(3, 2)))) == Fraction(8, 27)
    assert eval_exact(Pow(Num(Fraction(1, 8)), Num(Fraction(-2, 3)))) == 4
    assert eval_exact(Pow(Num(3**40), Num(Fraction(1, 20)))) == 9


def test_eval_exact_errors():
    with pytest.raises(UnboundVariableError):
        eval_exact(Var("x"))
    with pytest.raises(DivisionByZeroError):
        eval_exact(Div(Num(1), Sub(Num(2), Num(2))))
    with pytest.raises(DivisionByZeroError):
        eval_exact(Pow(Num(0), Num(-1)))
    with pytest.raises(NonIntegerExponentError):
        eval_exact(Pow(Num(2), Num(Fraction(1, 2))))
    with pytest.raises(NonIntegerExponentError):
        eval_exact(Pow(Sub(Num(0), Num(4)), Num(Fraction(1, 2))))
    with pytest.raises(NonIntegerExponentError):
        eval_exact(Pow(Num(3**40 + 1), Num(Fraction(1, 20))))
    with pytest.raises(ExponentTooLargeError):
        eval_exact(Pow(Num(2), Num(100_000)))
    # The result size is bounded too, before anything is computed.
    start = time.perf_counter()
    for expr in (Pow(Num(9), Num(9999)), Pow(Pow(Num(9), Num(999)), Num(9999))):
        with pytest.raises(ExponentTooLargeError):
            eval_exact(expr)
    # So is every product and quotient, against the same budget.
    big = Pow(Num(2), Num(4600))
    assert eval_exact(Mul(big, big)) == 2**9200
    squares = big
    for _ in range(12):
        squares = Mul(squares, squares)
    for expr in (squares, Div(Mul(big, big), Div(Num(1), Pow(Num(3), Num(4000))))):
        with pytest.raises(ExponentTooLargeError, match=f"exceeds {MAX_POWER_BITS} bits"):
            eval_exact(expr)
    assert time.perf_counter() - start < 1


def test_division_by_zero_is_also_zero_division_error():
    # so callers may catch the stdlib type
    with pytest.raises(ZeroDivisionError):
        eval_exact(Div(Num(1), Num(0)))


def test_substitute_replaces_only_target():
    e = Add(Var("x"), Mul(Var("y"), Var("x")))
    got = substitute(e, "x", Num(3))
    assert got == Add(Num(3), Mul(Var("y"), Num(3)))
    assert free_vars(got) == {"y"}


def test_free_vars_and_numerals():
    e = (Var("a") + Var("b")) * Var("a") - Num(4) / Num(2)
    assert free_vars(e) == {"a", "b"}
    assert sorted(iter_numerals(e)) == [Fraction(2), Fraction(4)]


def test_linear_form_collects_terms():
    x, y = Var("x"), Var("y")
    form = linear_form(2 * x + y - (x - 3))
    assert form.coefficients == {"x": Fraction(1), "y": Fraction(1)}
    assert form.constant == 3


def test_linear_form_divides_by_constant_only():
    x = Var("x")
    form = linear_form((x + 1) / 2)
    assert form.coefficients == {"x": Fraction(1, 2)}
    assert form.constant == Fraction(1, 2)
    with pytest.raises(NonLinearError):
        linear_form(Div(Num(1), x))
    with pytest.raises(DivisionByZeroError):
        linear_form(Div(x, Num(0)))


def test_linear_form_rejects_products_of_variables():
    x, y = Var("x"), Var("y")
    with pytest.raises(NonLinearError):
        linear_form(x * y)
    with pytest.raises(NonLinearError):
        linear_form(Pow(x, Num(2)))
    # but x^1 and x^0 are fine
    assert linear_form(Pow(x, Num(1))).coefficients == {"x": Fraction(1)}
    assert linear_form(Pow(x, Num(0))).constant == 1


def test_polynomial_expands_to_sparse_monomials():
    x, y = Var("x"), Var("y")
    assert polynomial((x + y) ** 2 - y * y, 2) == {
        (("x", 2),): Fraction(1),
        (("x", 1), ("y", 1)): Fraction(2),
    }
    assert polynomial(x - x, 1) == {}
    assert polynomial(Num(2) ** 200 / 4, 0) == {(): Fraction(2**198)}
    with pytest.raises(NonLinearError):
        polynomial(x * x * x, 2)
    with pytest.raises(NonLinearError):
        polynomial(Pow(x, Num(-1)), 2)
    with pytest.raises(NonLinearError):
        polynomial(Pow(Num(2), x), 2)
    with pytest.raises(DivisionByZeroError):
        polynomial(Div(x, x - x), 1)
    big = Num(Fraction(2**8000, 3))
    with pytest.raises(ExponentTooLargeError):
        polynomial(big * x * big, 1)
    with pytest.raises(ExponentTooLargeError):
        polynomial((x + big) * (x + big), 2)


def test_format_rational():
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(7, 2)) == "7/2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def test_render_parenthesizes_fully():
    x, y = Var("x"), Var("y")
    assert render(x + y * 2) == "(x + (y * 2))"
    assert render(Neg(x)) == "(-x)"
    assert render(Pow(x, Num(2))) == "(x ^ 2)"


# --- properties ------------------------------------------------------------

names = st.sampled_from(["x", "y", "z"])
rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


@st.composite
def exprs(draw, depth=4):
    if depth == 0:
        if draw(st.booleans()):
            return Num(draw(rationals))
        return Var(draw(names))
    node = draw(st.integers(min_value=0, max_value=6))
    if node == 0:
        return Num(draw(rationals))
    if node == 1:
        return Var(draw(names))
    if node == 2:
        return Neg(draw(exprs(depth=depth - 1)))
    left = draw(exprs(depth=depth - 1))
    right = draw(exprs(depth=depth - 1))
    return {3: Add, 4: Sub, 5: Mul, 6: Div}[node](left, right)


FULL_BINDINGS = {"x": Fraction(3, 2), "y": Fraction(-2), "z": Fraction(7)}


def _try_eval(e, bindings):
    try:
        return eval_exact(e, bindings)
    except DivisionByZeroError:
        return None


@given(exprs())
def test_substitution_commutes_with_evaluation(e):
    direct = _try_eval(e, FULL_BINDINGS)
    staged = e
    for name, value in FULL_BINDINGS.items():
        staged = substitute(staged, name, Num(value))
    assert free_vars(staged) == set()
    assert _try_eval(staged, {}) == direct


@given(exprs())
def test_linear_form_agrees_with_eval(e):
    try:
        form = linear_form(e)
    except (NonLinearError, DivisionByZeroError):
        return
    direct = _try_eval(e, FULL_BINDINGS)
    if direct is not None:
        assert form.evaluate(FULL_BINDINGS) == direct


@given(exprs())
def test_free_vars_matches_unbound_failures(e):
    if not free_vars(e):
        _try_eval(e, {})  # must not raise UnboundVariableError
    else:
        missing = sorted(free_vars(e))[0]
        bindings = {n: v for n, v in FULL_BINDINGS.items() if n != missing}
        try:
            eval_exact(e, bindings)
        except UnboundVariableError as err:
            assert err.name == missing
        except DivisionByZeroError:
            pass
        else:
            pytest.fail("expected UnboundVariableError")


# --- differential test against the expansions polynomial() replaced ------------
#
# Test-only copies of the old `linear_form` (with `_lf`, `_lf_combine` and
# `_lf_scale`) and of the old `solver._poly_coefficients` (with `_poly_mul`
# and `_trim`).  Each is verbatim except at its constant fold, where it raises
# `_Deviation` on the inputs on which the shared `exact_power` rule
# deliberately differs:
# - `_poly_coefficients` gave up on |exponent| > 128 (the float grid took
#   over); those powers now fold exactly up to MAX_EXPONENT;
# - both computed a power however large its result; one over MAX_POWER_BITS
#   now raises ExponentTooLargeError.

_OLD_MAX_POLY_DEGREE = 32


class _Deviation(Exception):
    pass


def _oversize(base, power):
    return (base.numerator.bit_length() + base.denominator.bit_length()) * abs(power) > MAX_POWER_BITS


def _ref_lf(coefficients, constant):
    return LinearForm({n: c for n, c in coefficients.items() if c != 0}, constant)


def _ref_lf_combine(a, b, sign):
    coeffs = dict(a.coefficients)
    for name, coeff in b.coefficients.items():
        coeffs[name] = coeffs.get(name, Fraction(0)) + sign * coeff
    return _ref_lf(coeffs, a.constant + sign * b.constant)


def _ref_lf_scale(a, factor):
    return _ref_lf({n: c * factor for n, c in a.coefficients.items()}, a.constant * factor)


def _reference_linear_form(expr):
    if isinstance(expr, Num):
        return LinearForm({}, expr.value)
    if isinstance(expr, Var):
        return LinearForm({expr.name: Fraction(1)}, Fraction(0))
    if isinstance(expr, Neg):
        return _ref_lf_scale(_reference_linear_form(expr.child), Fraction(-1))
    if isinstance(expr, Add):
        return _ref_lf_combine(_reference_linear_form(expr.left), _reference_linear_form(expr.right), 1)
    if isinstance(expr, Sub):
        return _ref_lf_combine(_reference_linear_form(expr.left), _reference_linear_form(expr.right), -1)
    if isinstance(expr, Mul):
        left = _reference_linear_form(expr.left)
        right = _reference_linear_form(expr.right)
        if not left.coefficients:
            return _ref_lf_scale(right, left.constant)
        if not right.coefficients:
            return _ref_lf_scale(left, right.constant)
        raise NonLinearError("product of two variable-bearing expressions")
    if isinstance(expr, Div):
        left = _reference_linear_form(expr.left)
        right = _reference_linear_form(expr.right)
        if right.coefficients:
            raise NonLinearError("division by a variable-bearing expression")
        if right.constant == 0:
            raise DivisionByZeroError()
        return _ref_lf_scale(left, 1 / right.constant)
    if isinstance(expr, Pow):
        exponent = _reference_linear_form(expr.exponent)
        if exponent.coefficients or exponent.constant.denominator != 1:
            raise NonLinearError("unsupported exponent")
        power = int(exponent.constant)
        base = _reference_linear_form(expr.base)
        if not base.coefficients:
            if abs(power) > MAX_EXPONENT:
                raise ExponentTooLargeError(power)
            if base.constant == 0 and power < 0:
                raise DivisionByZeroError("zero raised to a negative power")
            if _oversize(base.constant, power):
                raise _Deviation()
            return LinearForm({}, base.constant ** power)
        if power == 0:
            return LinearForm({}, Fraction(1))
        if power == 1:
            return base
        raise NonLinearError("variable-bearing power")
    raise TypeError(f"unknown node: {type(expr).__name__}")


def _reference_poly_coefficients(expr, var):
    if isinstance(expr, Num):
        return [expr.value]
    if isinstance(expr, Var):
        if expr.name != var:
            return None
        return [Fraction(0), Fraction(1)]
    if isinstance(expr, Neg):
        inner = _reference_poly_coefficients(expr.child, var)
        return None if inner is None else [-c for c in inner]
    if isinstance(expr, (Add, Sub)):
        left = _reference_poly_coefficients(expr.left, var)
        right = _reference_poly_coefficients(expr.right, var)
        if left is None or right is None:
            return None
        sign = 1 if isinstance(expr, Add) else -1
        out = [Fraction(0)] * max(len(left), len(right))
        for i, c in enumerate(left):
            out[i] += c
        for i, c in enumerate(right):
            out[i] += sign * c
        return _ref_trim(out)
    if isinstance(expr, Mul):
        left = _reference_poly_coefficients(expr.left, var)
        right = _reference_poly_coefficients(expr.right, var)
        if left is None or right is None:
            return None
        return _ref_poly_mul(left, right)
    if isinstance(expr, Div):
        left = _reference_poly_coefficients(expr.left, var)
        right = _reference_poly_coefficients(expr.right, var)
        if left is None or right is None or len(right) > 1:
            return None
        if not right or right[0] == 0:
            raise DivisionByZeroError()
        return [c / right[0] for c in left]
    if isinstance(expr, Pow):
        exponent = _reference_poly_coefficients(expr.exponent, var)
        if exponent is None or len(exponent) > 1:
            return None
        power_value = exponent[0] if exponent else Fraction(0)
        if power_value.denominator != 1:
            return None
        power = int(power_value)
        base = _reference_poly_coefficients(expr.base, var)
        if base is None:
            return None
        if len(base) <= 1:  # constant base: fold exactly
            base_value = base[0] if base else Fraction(0)
            if abs(power) > _OLD_MAX_POLY_DEGREE * 4 or _oversize(base_value, power):
                raise _Deviation()
            if base_value == 0 and power < 0:
                raise DivisionByZeroError("zero raised to a negative power")
            return [base_value**power]
        if power < 0 or (len(base) - 1) * power > _OLD_MAX_POLY_DEGREE:
            return None
        out = [Fraction(1)]
        for _ in range(power):
            result = _ref_poly_mul(out, base)
            if result is None:
                return None
            out = result
        return out
    raise TypeError(f"unknown node: {type(expr).__name__}")


def _ref_poly_mul(a, b):
    if not a or not b:
        return []
    if (len(a) - 1) + (len(b) - 1) > _OLD_MAX_POLY_DEGREE:
        return None
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _ref_trim(out)


def _ref_trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _outcome(function, *args):
    try:
        return function(*args)
    except ExprError as err:
        return type(err)


def _dense(expr, var):
    """What the univariate solver reads: None for a non-polynomial."""
    terms = polynomial(expr, _OLD_MAX_POLY_DEGREE)
    degree = max((monomial[0][1] if monomial else 0 for monomial in terms), default=-1)
    return [terms.get(((var, k),) if k else (), Fraction(0)) for k in range(degree + 1)]


_DIFF_EXPONENTS = [Num(n) for n in (-2, -1, 0, 1, 2, 3, 129, 200, 5000, 10_001)] + [
    Div(Num(1), Num(2)),
    Neg(Num(200)),
]


def _diff_expressions(names):
    leaves = st.one_of(
        st.sampled_from(names).map(Var),
        st.integers(0, 5).map(Num),
        rationals.map(Num),
        st.builds(Pow, rationals.map(Num), st.sampled_from(_DIFF_EXPONENTS)),
    )
    return st.recursive(
        leaves,
        lambda child: st.one_of(
            st.builds(Neg, child),
            st.builds(Add, child, child),
            st.builds(Sub, child, child),
            st.builds(Mul, child, child),
            st.builds(Div, child, child),
            st.builds(Pow, child, st.one_of(st.sampled_from(_DIFF_EXPONENTS), child)),
        ),
        max_leaves=6,
    )


def _agrees_with_eval(expr, terms):
    """`terms` evaluate as `expr` does wherever `expr` evaluates exactly."""
    for point in (FULL_BINDINGS, {"x": Fraction(-2), "y": Fraction(1, 3), "z": Fraction(0)}):
        try:
            direct = eval_exact(expr, point)
        except ExprError:
            continue
        total = Fraction(0)
        for monomial, coeff in terms.items():
            for name, power in monomial:
                coeff *= point[name] ** power
            total += coeff
        assert total == direct


@settings(max_examples=400, deadline=None)
@given(_diff_expressions(["x", "y", "z"]))
def test_linear_form_matches_old_linear_form(expr):
    """The same LinearForm, or the same error type; a constant power over
    MAX_POWER_BITS now raises ExponentTooLargeError instead of folding."""
    try:
        expected = _outcome(_reference_linear_form, expr)
    except _Deviation:
        assert _outcome(linear_form, expr) is ExponentTooLargeError
        return
    assert _outcome(linear_form, expr) == expected


@settings(max_examples=400, deadline=None)
@given(_diff_expressions(["x"]), _diff_expressions(["x"]))
def test_polynomial_matches_old_poly_coefficients(lhs, rhs):
    """The same dense coefficients of `lhs - rhs` (as the univariate solver
    expands it), NonLinearError where the old expansion returned None, or
    the same error type.  The old expansion evaluated both operands before
    giving up, so a constant division by zero to the right of a
    non-polynomial part raised; the new one stops at the first fault, left
    to right, as `linear_form` always did."""
    residual = Sub(lhs, rhs)
    got = _outcome(_dense, residual, "x")
    try:
        expected = _outcome(_reference_poly_coefficients, residual, "x")
    except _Deviation:
        if isinstance(got, list):
            _agrees_with_eval(residual, polynomial(residual, _OLD_MAX_POLY_DEGREE))
        return
    if expected is None:
        assert got is NonLinearError
    elif not (expected is DivisionByZeroError and got is NonLinearError):
        assert got == expected
