import itertools
import re
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from declsolve.exprs import (
    MAX_EXPONENT,
    MAX_POLY_DEGREE,
    MAX_POWER_BITS,
    Add,
    Div,
    DivisionByZeroError,
    ExponentTooLargeError,
    ExprError,
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
    exact_power,
    format_rational,
    free_vars,
    leaves,
    linear_form,
    rational,
    render,
    rounded_power,
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


def test_var_accepts_exactly_the_ascii_identifiers():
    """Every string of up to three characters over ASCII letters, digits and
    the underscore, and characters that Unicode counts as letters or digits
    (accented, fullwidth, Arabic-Indic, superscript, the Kelvin sign)."""
    pattern = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
    alphabet = "aZ_09 -\né５ｘ١²\u212a"
    for length in range(4):
        for chars in itertools.product(alphabet, repeat=length):
            name = "".join(chars)
            if pattern.match(name):
                assert Var(name).name == name
            else:
                with pytest.raises(ValueError):
                    Var(name)


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


def test_eval_exact_rounds_only_the_powers_it_cannot_take_exactly_under_approx():
    """With rounded bindings, a positive base's fractional power that has no
    exact value is rounded; an exact one stays exact.  A negative base's
    fractional power still fails, and so does a power past the float range
    (`2 ^ 100000` overflows once it is rounded)."""
    x = Fraction(3.3219280948873626)  # a rounded log2(10)
    assert float(eval_exact(Pow(Num(2), Var("x")), {"x": x}, approx=True)) == pytest.approx(10, rel=1e-15)
    assert float(eval_exact(Pow(Num(2), Num(Fraction(1, 2))), approx=True)) == pytest.approx(2**0.5, rel=1e-15)
    assert eval_exact(Pow(Num(16), Num(Fraction(1, 2))), approx=True) == 4
    for power, error in ((Pow(Num(-4), Num(Fraction(1, 2))), NonIntegerExponentError),
                         (Pow(Num(2), Num(100_000)), ExponentTooLargeError),
                         (Pow(Num(10), Num(Fraction(10**6 + 1, 3))), ExponentTooLargeError)):
        with pytest.raises(error):
            eval_exact(power, approx=True)
    with pytest.raises(ExponentTooLargeError):
        eval_exact(Pow(Num(2), Var("x")), {"x": x})


def test_rounded_power_rounds_whatever_exact_power_refuses_that_has_a_real_value():
    """`exact_power` where it takes the power; else a float, whether it was
    refused for want of an exact root or for size, with the sign of an odd
    integer power of a negative base."""
    assert rounded_power(Fraction(16), Fraction(1, 2)) == 4
    assert type(rounded_power(Fraction(16), Fraction(1, 2))) is Fraction
    near_one = Fraction(10001, 10000)
    for base, power, expected in (
        (Fraction(2), Fraction(1, 2), 2**0.5),
        (near_one, Fraction(MAX_EXPONENT + 1), 1.0001 ** (MAX_EXPONENT + 1)),
        (Fraction(5), Fraction(1, MAX_EXPONENT + 1), 5 ** (1 / (MAX_EXPONENT + 1))),
        (-near_one, Fraction(MAX_EXPONENT + 1), -(1.0001 ** (MAX_EXPONENT + 1))),
        (-near_one, Fraction(MAX_EXPONENT + 2), 1.0001 ** (MAX_EXPONENT + 2)),
        (Fraction(1, 10**400), Fraction(1, 20001), 10 ** (-400 / 20001)),
    ):
        value = rounded_power(base, power)
        assert type(value) is float
        assert value == pytest.approx(expected, rel=1e-12)
    for base, power, error in (
        (Fraction(-4), Fraction(1, 2), NonIntegerExponentError),
        (-near_one, Fraction(1, MAX_EXPONENT + 1), ExponentTooLargeError),
        (Fraction(2), Fraction(MAX_EXPONENT + 1), ExponentTooLargeError),
        (Fraction(10**10), Fraction(10**300), ExponentTooLargeError),
    ):
        with pytest.raises(error):
            rounded_power(base, power)

def test_powers_of_zero_one_and_minus_one_are_exact_whatever_their_size():
    """0 and 1 to any power, and -1 to an integer power, pass the size checks
    that refuse other bases; zero to a negative power still divides by zero,
    and a fractional power of -1 keeps its error."""
    big = MAX_EXPONENT + 1
    for base, power, expected in (
        (0, big, 0),
        (0, 2 * MAX_EXPONENT, 0),
        (0, Fraction(1, 2 * MAX_EXPONENT), 0),
        (0, 0, 1),
        (1, big, 1),
        (1, -(10**300), 1),
        (1, Fraction(1, 2 * MAX_EXPONENT), 1),
        (-1, big, -1),
        (-1, big + 1, 1),
        (-1, -big, -1),
    ):
        for power_of in (exact_power, rounded_power):
            value = power_of(Fraction(base), Fraction(power))
            assert type(value) is Fraction and value == expected, (power_of.__name__, base, power)
    for base, power, error in (
        (0, -big, DivisionByZeroError),
        (0, Fraction(-1, 2 * MAX_EXPONENT), DivisionByZeroError),
        (-1, Fraction(1, 3), NonIntegerExponentError),
        (-1, Fraction(1, big), ExponentTooLargeError),
    ):
        for power_of in (exact_power, rounded_power):
            with pytest.raises(error):
                power_of(Fraction(base), Fraction(power))


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
    got = substitute(e, {"x": Num(3)})
    assert got == Add(Num(3), Mul(Var("y"), Num(3)))
    assert free_vars(got) == {"y"}


def test_substitute_replaces_every_name_at_once():
    e = Sub(Var("x"), Var("y"))
    assert substitute(e, {"x": Var("y"), "y": Var("x")}) == Sub(Var("y"), Var("x"))
    assert substitute(e, {}) == e


def test_free_vars_and_numerals():
    e = (Var("a") + Var("b")) * Var("a") - Num(4) / Num(2)
    assert free_vars(e) == {"a", "b"}
    assert sorted(leaves(e)[1]) == [Fraction(2), Fraction(4)]


def test_linear_form_collects_terms():
    x, y = Var("x"), Var("y")
    assert linear_form(2 * x + y - (x - 3)) == {(("x", 1),): Fraction(1), (("y", 1),): Fraction(1), (): Fraction(3)}


def test_linear_form_divides_by_constant_only():
    x = Var("x")
    assert linear_form((x + 1) / 2) == {(("x", 1),): Fraction(1, 2), (): Fraction(1, 2)}
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
    assert linear_form(Pow(x, Num(1))) == {(("x", 1),): Fraction(1)}
    assert linear_form(Pow(x, Num(0))) == {(): Fraction(1)}


def test_polynomial_expands_to_sparse_monomials():
    x, y = Var("x"), Var("y")
    one = {(): Fraction(1)}
    assert rational((x + y) ** 2 - y * y) == (
        {(("x", 2),): Fraction(1), (("x", 1), ("y", 1)): Fraction(2)}, one, one
    )
    assert linear_form(x - x) == {}
    assert linear_form(Num(2) ** 200 / 4) == {(): Fraction(2**198)}
    with pytest.raises(NonLinearError):
        linear_form(x * x * x)
    with pytest.raises(NonLinearError):
        linear_form(Pow(x, Num(-1)))
    with pytest.raises(NonLinearError):
        linear_form(Pow(Num(2), x))
    with pytest.raises(DivisionByZeroError):
        linear_form(Div(x, x - x))
    big = Num(Fraction(2**8000, 3))
    with pytest.raises(ExponentTooLargeError):
        linear_form(big * x * big)
    with pytest.raises(ExponentTooLargeError):
        rational((x + big) * (x + big))


def test_rational_clears_variable_denominators():
    x = Var("x")
    one = {(): Fraction(1)}
    assert rational(6 / x) == ({(): Fraction(6)}, {(("x", 1),): Fraction(1)}, {(("x", 1),): Fraction(1)})
    assert rational(1 / x + 1 / (x + 2)) == (
        {(("x", 1),): Fraction(2), (): Fraction(2)},
        {(("x", 2),): Fraction(1), (("x", 1),): Fraction(2)},
        {(("x", 2),): Fraction(1), (("x", 1),): Fraction(2)},
    )
    assert rational(Pow(x, Num(-2))) == (one, {(("x", 2),): Fraction(1)}, {(("x", 2),): Fraction(1)})
    # A denominator an inversion or a zero power takes away stays a pole.
    assert rational(Pow(1 / x, Num(-1))) == ({(("x", 1),): Fraction(1)}, one, {(("x", 1),): Fraction(1)})
    assert rational(3 / (1 / (x + 1))) == (
        {(("x", 1),): Fraction(3), (): Fraction(3)}, one, {(("x", 1),): Fraction(1), (): Fraction(1)}
    )
    assert rational(Pow(1 / x, Num(0))) == (one, one, {(("x", 1),): Fraction(1)})
    assert rational(x / x - 1) == ({}, {(("x", 1),): Fraction(1)}, {(("x", 1),): Fraction(1)})
    # A constant power folds as in `linear_form`; a constant divisor stays below.
    assert rational(Pow(Num(4), Num(Fraction(1, 2))) / 8 * x) == (
        {(("x", 1),): Fraction(2)}, {(): Fraction(8)}, {(): Fraction(8)}
    )
    with pytest.raises(DivisionByZeroError):
        rational(1 / (x - x))
    with pytest.raises(DivisionByZeroError):
        rational(Pow(0 / x, Num(-1)))
    with pytest.raises(NonLinearError):
        rational(Pow(Num(2), x))
    with pytest.raises(NonLinearError):
        rational(Pow(1 / x, Num(Fraction(1, 2))))
    # Each part expands to total degree MAX_POLY_DEGREE, and no further.
    assert rational(1 / Pow(x, Num(MAX_POLY_DEGREE)))[1] == {(("x", MAX_POLY_DEGREE),): Fraction(1)}
    with pytest.raises(NonLinearError):
        rational(1 / Pow(x, Num(MAX_POLY_DEGREE + 1)))
    with pytest.raises(NonLinearError):
        rational(Pow(x, Num(MAX_POLY_DEGREE)) * x)


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
    staged = substitute(e, {name: Num(value) for name, value in FULL_BINDINGS.items()})
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
        assert _terms_value(form, FULL_BINDINGS) == direct


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


# --- differential tests against the old expansions ---------------------------
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
# The `linear_form` copy also takes an integer power of a constant 0, 1 or -1
# through `exact_power`, which folds it exactly at any size where the old
# code refused an exponent over MAX_EXPONENT.
# Each also folds a constant base with a constant fractional exponent through
# `_fold_fractional`, where both gave up on it as non-polynomial: that power
# now folds through `exact_power`, as in `eval_exact`, and stays
# non-polynomial where `exact_power` refuses it.  And both ran a Pow's exponent
# before its base, and could give up before running an operand at all; the
# post-order walk runs every operand first, so each test expects the outcome
# of the first subtree, in post-order, on which the reference fails
# (`_first_failure`).

_OLD_MAX_POLY_DEGREE = 32


class _Deviation(Exception):
    pass


@dataclass(frozen=True)
class LinearForm:
    """What the old `linear_form` returned: coefficients . vars + constant,
    with no zero coefficients stored."""

    coefficients: dict[str, Fraction]
    constant: Fraction

    def terms(self):
        """The same polynomial as `Terms`, the format `linear_form` returns."""
        terms = {((name, 1),): coeff for name, coeff in self.coefficients.items()}
        return terms | ({(): self.constant} if self.constant else {})


def _fold_fractional(base, exponent):
    try:
        return exact_power(base, exponent)
    except ExprError:
        raise NonLinearError("unsupported exponent") from None


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
            base = _reference_linear_form(expr.base)
            if not exponent.coefficients and not base.coefficients:
                return LinearForm({}, _fold_fractional(base.constant, exponent.constant))
            raise NonLinearError("unsupported exponent")
        power = int(exponent.constant)
        base = _reference_linear_form(expr.base)
        if not base.coefficients:
            if base.constant in (0, 1, -1):  # exact at any size
                return LinearForm({}, exact_power(base.constant, power))
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
            base = _reference_poly_coefficients(expr.base, var)
            if base is not None and len(base) <= 1:
                try:
                    return [_fold_fractional(base[0] if base else Fraction(0), power_value)]
                except NonLinearError:
                    return None
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


def _first_failure(outcome, expr, failed=lambda result: isinstance(result, type)):
    """`outcome(expr)`, or else `outcome` of the first subtree on which it fails."""
    for subtree in _subtrees(expr):
        result = outcome(subtree)
        if failed(result):
            return result
    return result


def _over_constant(expr):
    """`rational(expr)`'s numerator over its denominator where that is a
    constant, else None."""
    numerator, denominator, _ = rational(expr)
    if set(denominator) != {()}:
        return None
    return {monomial: coeff / denominator[()] for monomial, coeff in numerator.items()}


def _dense(expr, var):
    """What the univariate solver reads: None for a variable denominator."""
    terms = _over_constant(expr)
    if terms is None:
        return None
    degree = max((monomial[0][1] if monomial else 0 for monomial in terms), default=-1)
    return [terms.get(((var, k),) if k else (), Fraction(0)) for k in range(degree + 1)]


_DIFF_EXPONENTS = [Num(n) for n in (-2, -1, 0, 1, 2, 3, 129, 200, 5000, 10_001)] + [
    Div(Num(1), Num(2)),
    Num(Fraction(8333, 100_000)),
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
@example(Pow(Num(Fraction(0)), Num(Fraction(MAX_EXPONENT + 1))))
def test_linear_form_matches_old_linear_form(expr):
    """The same terms as the old LinearForm, or the same error type at the
    first subtree in post-order that fails; a constant power over
    MAX_POWER_BITS now raises ExponentTooLargeError instead of folding."""
    got = _outcome(linear_form, expr)
    try:
        expected = _first_failure(lambda e: _outcome(_reference_linear_form, e), expr)
    except _Deviation:
        assert got is ExponentTooLargeError
        return
    assert got == (expected.terms() if isinstance(expected, LinearForm) else expected)


@settings(max_examples=400, deadline=None)
@given(_diff_expressions(["x"]), _diff_expressions(["x"]))
def test_polynomial_matches_old_poly_coefficients(lhs, rhs):
    """Where the old expansion expands `lhs - rhs` (as the univariate solver
    reads it), `rational` gives the same dense coefficients over a constant
    denominator; where the old one fails first, at the first subtree in
    post-order that fails, `rational` raises the same error type.  Where the
    old one gave up on a subtree (None) before, `rational` may go on, since
    it also takes division by, and negative powers of, the unknown."""
    residual = Sub(lhs, rhs)
    got = _outcome(_dense, residual, "x")
    try:
        expected = _first_failure(
            lambda e: _outcome(_reference_poly_coefficients, e, "x"),
            residual,
            lambda result: result is None or isinstance(result, type),
        )
    except _Deviation:
        if isinstance(got, list):
            _agrees_with_eval(residual, _over_constant(residual))
        return
    if expected is not None:
        assert got == expected


def _terms_value(terms, point):
    total = Fraction(0)
    for monomial, coeff in terms.items():
        for name, power in monomial:
            coeff *= point[name] ** power
        total += coeff
    return total


@settings(max_examples=400, deadline=None)
@given(_diff_expressions(["x", "y", "z"]))
def test_rational_agrees_with_linear_form_and_eval(expr):
    """Where `linear_form` expands `expr`, `rational` gives the same terms
    over a constant; wherever `expr` evaluates exactly, numerator /
    denominator takes its value and poles is not zero, and wherever a
    divisor is zero, so is poles; and a divisor that expands to zero leaves
    `expr` nowhere exactly evaluable."""
    points = (FULL_BINDINGS, {"x": Fraction(-2), "y": Fraction(1, 3), "z": Fraction(0)})
    try:
        numerator, denominator, poles = rational(expr)
    except DivisionByZeroError:
        for point in points:
            with pytest.raises(ExprError):
                eval_exact(expr, point)
        return
    except ExprError:
        return
    try:
        terms = linear_form(expr)
    except ExprError:
        pass
    else:
        assert len(denominator) == 1 and () in denominator
        assert {m: c / denominator[()] for m, c in numerator.items()} == terms
    for point in points:
        try:
            direct = eval_exact(expr, point)
        except DivisionByZeroError:
            assert _terms_value(poles, point) == 0
            continue
        except ExprError:
            continue
        assert _terms_value(poles, point) != 0
        assert _terms_value(numerator, point) / _terms_value(denominator, point) == direct
