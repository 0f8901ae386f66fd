import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from declsolve import solver
from declsolve.exprs import (
    Add,
    Div,
    ExprError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    eval_exact,
    format_rational,
    free_vars,
    substitute,
)
from declsolve.parsing import script_from_transcript
from declsolve.roots import gcd, real_roots
from declsolve.solver import (
    EquationSystem,
    InconsistentBindingError,
    InconsistentError,
    NoRealRootError,
    NumericDivergenceError,
    SolveOutcome,
    SolverError,
    UnderdeterminedError,
    UnsolvableError,
    forward_substitute,
    select_answer,
    solve_linear,
    solve_script,
    solve_system,
    solve_univariate,
)

F = Fraction


def system_of(text: str) -> EquationSystem:
    return EquationSystem.from_script(script_from_transcript(text))


# --- forward substitution ----------------------------------------------------

def test_forward_substitution_dispatches_chains():
    system = system_of(
        "[[var a]] [[a = 3]] [[var b]] [[b = a * 4 + 2]] "
        "[[var c]] [[c = b - a]] [[answer = c]]"
    )
    bindings, residual = forward_substitute(system)
    assert bindings == {"a": F(3), "b": F(14), "c": F(11)}
    assert residual.equations == ()


def test_forward_substitution_binds_from_either_side():
    system = system_of("[[var a]] [[2 + 1 = a]] [[answer = a]]")
    bindings, _ = forward_substitute(system)
    assert bindings == {"a": F(3)}


def test_forward_substitution_checks_ground_equations():
    system = system_of("[[var a]] [[a = 3]] [[a = 3]] [[answer = a]]")
    bindings, residual = forward_substitute(system)
    assert bindings == {"a": F(3)}
    assert residual.equations == ()

    with pytest.raises(InconsistentBindingError) as info:
        forward_substitute(system_of("[[var a]] [[a = 3]] [[a = 4]] [[answer = a]]"))
    assert info.value.name == "a"


def test_forward_substitution_starts_from_the_given_bindings():
    system = system_of("[[var a]] [[var b]] [[b = a * a]] [[a * a = 2]] [[answer = b]]")
    with pytest.raises(InconsistentBindingError):
        forward_substitute(system, {"a": F(1.4142135623730951)})
    bindings, residual = forward_substitute(system, {"a": F(1.4142135623730951)}, approx=True)
    assert bindings == {"a": F(1.4142135623730951), "b": F(1.4142135623730951) ** 2}
    assert residual.equations == () and residual.unknowns == frozenset()
    with pytest.raises(InconsistentBindingError):  # off by far more than the tolerance
        forward_substitute(system, {"a": F(1.4142)}, approx=True)


def test_forward_substitution_leaves_simultaneous_equations():
    system = system_of("[[var x]] [[var y]] [[x + y = 12]] [[x - y = 4]] [[answer = x]]")
    bindings, residual = forward_substitute(system)
    assert bindings == {}
    assert len(residual.equations) == 2


def _reference_forward_substitute(system):
    """The round-based forward substitution: every round re-substitutes and
    re-checks every pending equation, until a round changes nothing."""

    def evaluable(expr, bindings):
        return free_vars(expr) <= bindings.keys()

    def substitute_bindings(expr, bindings):
        return substitute(expr, {name: Num(value) for name, value in bindings.items()})

    bindings = {}
    pending = list(system.equations)
    changed = True
    while changed:
        changed = False
        remaining = []
        for lhs, rhs in pending:
            lhs_sub = substitute_bindings(lhs, bindings)
            rhs_sub = substitute_bindings(rhs, bindings)
            lhs_ground = evaluable(lhs_sub, bindings)
            rhs_ground = evaluable(rhs_sub, bindings)
            if lhs_ground and rhs_ground:
                left_value = eval_exact(lhs_sub)
                right_value = eval_exact(rhs_sub)
                if left_value != right_value:
                    name = lhs.name if isinstance(lhs, Var) else (
                        rhs.name if isinstance(rhs, Var) else None
                    )
                    raise InconsistentBindingError(name, left_value, right_value)
                changed = True
                continue
            if isinstance(lhs_sub, Var) and rhs_ground:
                bindings[lhs_sub.name] = eval_exact(rhs_sub)
                changed = True
                continue
            if isinstance(rhs_sub, Var) and lhs_ground:
                bindings[rhs_sub.name] = eval_exact(lhs_sub)
                changed = True
                continue
            remaining.append((lhs, rhs))
        pending = remaining
    residual = EquationSystem(
        tuple(
            (substitute_bindings(lhs, bindings), substitute_bindings(rhs, bindings))
            for lhs, rhs in pending
        ),
        frozenset(system.unknowns - bindings.keys()),
        system.goal,
    )
    return bindings, residual


_NAMES = [f"v{i}" for i in range(7)]
# `^-1` of a zero and `^(1/2)` raise, as `/` by zero does.
_EXPONENTS = st.sampled_from([Num(-1), Num(0), Num(2), Div(Num(1), Num(2))])


def _expressions(names):
    leaves = st.one_of(st.sampled_from(names).map(Var), st.integers(0, 5).map(Num))
    return st.recursive(
        leaves,
        lambda child: st.one_of(
            st.builds(Neg, child),
            st.builds(Add, child, child),
            st.builds(Sub, child, child),
            st.builds(Mul, child, child),
            st.builds(Div, child, child),
            st.builds(Pow, child, _EXPONENTS),
        ),
        max_leaves=4,
    )


# Built once: _EXPRESSIONS[k] ranges over the first k names (k = 0: numerals).
_EXPRESSIONS = [st.integers(0, 5).map(Num)] + [
    _expressions(_NAMES[:k]) for k in range(1, len(_NAMES) + 1)
]


@st.composite
def _substitution_systems(draw):
    """`v = expr`, `expr = v` and `expr = expr` equations over up to 7 names,
    as drawn, or as a chain in shuffled order (several rounds of binding)."""
    count = draw(st.integers(1, len(_NAMES)))
    names = _NAMES[:count]
    exprs = _EXPRESSIONS[count]
    if draw(st.booleans()):
        variables = st.sampled_from(names).map(Var)
        equation = st.one_of(
            st.tuples(variables, exprs),
            st.tuples(exprs, variables),
            st.tuples(exprs, exprs),
        )
        equations = draw(st.lists(equation, max_size=9))
    else:
        equations = [(Var(name), draw(_EXPRESSIONS[i])) for i, name in enumerate(names)]
        equations += draw(st.lists(st.tuples(exprs, exprs), max_size=2))
        equations = draw(st.permutations(equations))
    return EquationSystem(tuple(equations), frozenset(names), names[0])


def _substitution_outcome(function, system):
    try:
        bindings, residual = function(system)
    except (SolverError, ExprError) as err:
        return type(err), str(err)
    return list(bindings.items()), residual


@settings(max_examples=400, deadline=None)
@given(_substitution_systems())
def test_forward_substitution_matches_round_based_reference(system):
    """Same bindings in the same order, the same residual equations in the
    same order, or the same first error with the same message."""
    assert _substitution_outcome(forward_substitute, system) == _substitution_outcome(
        _reference_forward_substitute, system
    )


def _chain(n):
    """`v0 = 7`, then `v(i) = v(i-1) + (i % 5 + 1)`: n links, in order."""
    names = [f"v{i}" for i in range(n)]
    chain = [(Var(names[0]), Num(7))] + [
        (Var(names[i]), Add(Var(names[i - 1]), Num(i % 5 + 1))) for i in range(1, n)
    ]
    return names, chain


def _count_calls(monkeypatch, names):
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _original=getattr(solver, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    return calls


def test_forward_substitution_is_linear_on_a_reversed_chain(monkeypatch):
    """A chain given last link first binds one variable per round; each
    equation must still be walked a bounded number of times."""
    n = 400
    names, chain = _chain(n)
    system = EquationSystem(tuple(reversed(chain)), frozenset(names), names[-1])

    calls = _count_calls(monkeypatch, ("free_vars", "substitute", "eval_exact"))
    bindings, residual = forward_substitute(system)

    assert bindings[names[-1]] == 7 + sum(i % 5 + 1 for i in range(1, n))
    assert residual.equations == ()
    assert calls["free_vars"] <= 2 * n
    assert calls["substitute"] == 0
    assert calls["eval_exact"] <= n


def test_forward_substitution_evaluates_an_in_order_chain_without_rewriting(monkeypatch):
    """Each link is evaluated once under the bindings; with nothing left
    over, no tree is rewritten."""
    n = 400
    names, chain = _chain(n)
    system = EquationSystem(tuple(chain), frozenset(names), names[-1])

    calls = _count_calls(monkeypatch, ("substitute", "eval_exact"))
    bindings, residual = forward_substitute(system)

    assert list(bindings) == names
    assert residual.equations == ()
    assert calls["substitute"] == 0
    assert calls["eval_exact"] <= n


def test_forward_substitution_rewrites_only_residual_sides_using_a_binding(monkeypatch):
    system = system_of(
        "[[var a]] [[a = 2]] [[var x]] [[var y]] [[x + y = a * 6]] [[x - y = a]] [[answer = x]]"
    )
    calls = _count_calls(monkeypatch, ("substitute",))
    bindings, residual = forward_substitute(system)

    assert bindings == {"a": F(2)}
    assert residual.equations == (
        (Add(Var("x"), Var("y")), Mul(Num(2), Num(6))),
        (Sub(Var("x"), Var("y")), Num(2)),
    )
    assert calls["substitute"] == 2


# --- linear elimination --------------------------------------------------------

def test_solve_linear_two_by_two():
    system = system_of("[[var x]] [[var y]] [[x + y = 12]] [[x - y = 4]] [[answer = x]]")
    assert solve_linear(system) == {"x": F(8), "y": F(4)}


def test_solve_linear_fractional_solution():
    system = system_of("[[var x]] [[var y]] [[2 * x + y = 2]] [[4 * x - y = 1]] [[answer = x]]")
    assert solve_linear(system) == {"x": F(1, 2), "y": F(1)}


def test_solve_linear_underdetermined_but_goal_pinned():
    # x is forced even though y and z float freely
    system = system_of(
        "[[var x]] [[var y]] [[var z]] [[x + y + z = 10]] [[y + z = 4]] [[answer = x]]"
    )
    solution = solve_linear(system)
    assert solution["x"] == F(6)
    assert "y" not in solution and "z" not in solution


def test_solve_linear_underdetermined_goal_free():
    system = system_of("[[var x]] [[var y]] [[x + y = 10]] [[answer = x]]")
    with pytest.raises(UnderdeterminedError):
        solve_linear(system)


def test_solve_linear_inconsistent():
    system = system_of(
        "[[var x]] [[var y]] [[x + y = 1]] [[x + y = 2]] [[answer = x]]"
    )
    with pytest.raises(InconsistentError):
        solve_linear(system)


def _det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by cofactor expansion — independent of solve_linear."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = F(0)
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        sign = F(-1) ** j
        total += sign * matrix[0][j] * _det(minor)
    return total


def _random_full_rank_system(rng: random.Random, size: int):
    names = [f"v{i}" for i in range(size)]
    solution = {n: F(rng.randint(-20, 20), rng.randint(1, 5)) for n in names}
    while True:
        matrix = [
            [F(rng.randint(-9, 9)) for _ in range(size)] for _ in range(size)
        ]
        if _det(matrix) != 0:
            break
    equations = []
    for row in matrix:
        lhs = Num(0)
        rhs = F(0)
        for coeff, name in zip(row, names):
            lhs = lhs + Num(coeff) * Var(name)
            rhs += coeff * solution[name]
        equations.append((lhs, Num(rhs)))
    system = EquationSystem(tuple(equations), frozenset(names), names[0])
    return system, solution


def test_solve_linear_recovers_constructed_solutions():
    rng = random.Random(2024)
    for _ in range(100):
        size = rng.randint(1, 4)
        system, solution = _random_full_rank_system(rng, size)
        assert solve_linear(system) == solution


# SymPy's rref as an independent oracle for what solve_linear must return.

def _linear_system(rows, goal_index):
    width = len(rows[0]) - 1
    names = [f"x{i}" for i in range(width)]
    equations = []
    for row in rows:
        lhs = Num(0)
        for coeff, name in zip(row, names):
            if coeff:
                lhs = Add(lhs, Mul(Num(coeff), Var(name)))
        equations.append((lhs, Num(row[width])))
    return EquationSystem(tuple(equations), frozenset(names), names[goal_index])


def _sympy_linear_outcome(sympy, system, rows):
    """Pinned values from the reduced row echelon form, or the error type."""
    names = sorted(system.unknowns)
    width = len(names)
    matrix = sympy.Matrix(
        [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows]
    )
    reduced, pivot_columns = matrix.rref()
    if width in pivot_columns:
        return InconsistentError
    pinned = {}
    for r, col in enumerate(pivot_columns):
        if all(reduced[r, c] == 0 for c in range(width) if c != col):
            value = reduced[r, width]
            pinned[names[col]] = F(int(value.p), int(value.q))
    if len(pinned) == width or system.goal in pinned:
        return pinned
    return UnderdeterminedError


def _mix(rng, rows, extra):
    """Rows with the same row space: a unit lower triangular combination of
    `rows`, shuffled, plus `extra` random combinations of them."""
    mixed = []
    for i, row in enumerate(rows):
        out = list(row)
        for earlier in rows[:i]:
            factor = F(rng.randint(-3, 3), rng.randint(1, 3))
            out = [a + factor * b for a, b in zip(out, earlier)]
        mixed.append(out)
    for _ in range(extra):
        out = [F(0)] * len(rows[0])
        for row in rows:
            factor = F(rng.randint(-3, 3), rng.randint(1, 3))
            out = [a + factor * b for a, b in zip(out, row)]
        mixed.append(out)
    rng.shuffle(mixed)
    return mixed


def _unit_row(width, column, value):
    row = [F(0)] * (width + 1)
    row[column] = F(1)
    row[width] = value
    return row


def _random_linear_rows(rng, kind, width, goal):
    """Rows of one of four kinds, with Fraction coefficients."""
    def coefficient():
        return F(rng.randint(-9, 9), rng.randint(1, 4))

    if kind in ("full-rank", "inconsistent"):
        rows = []
        for column in range(width):
            scale = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            rows.append([scale * v for v in _unit_row(width, column, coefficient())])
        rows = _mix(rng, rows, rng.randint(0, 2))
        if kind == "inconsistent":
            combined = _mix(rng, rows, 1)[0]
            combined[width] += F(rng.randint(1, 5), rng.randint(1, 3))
            rows.append(combined)
        return rows
    others = [c for c in range(width) if c != goal]
    rng.shuffle(others)
    rows = [_unit_row(width, goal, coefficient())]
    if kind == "goal-free":  # the goal only ever appears together with one other unknown
        rows[0][others.pop()] = coefficient() or F(1)
    for a, b in zip(others[::2], others[1::2]):
        row = [F(0)] * (width + 1)
        row[a], row[b], row[width] = coefficient() or F(1), coefficient() or F(1), coefficient()
        rows.append(row)
    if len(others) % 2:
        rows.append(_unit_row(width, others[-1], coefficient()))
    return _mix(rng, rows, rng.randint(0, 2))


_EXPECTED_KIND = {
    "full-rank": dict,
    "goal-pinned": dict,
    "goal-free": UnderdeterminedError,
    "inconsistent": InconsistentError,
}


@pytest.mark.parametrize("kind", sorted(_EXPECTED_KIND))
def test_solve_linear_agrees_with_sympy_rref(kind):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"solve-linear-{kind}")
    for _ in range(40):
        width = rng.randint({"goal-pinned": 3, "goal-free": 2}.get(kind, 1), 6)
        goal = rng.randrange(width)
        rows = _random_linear_rows(rng, kind, width, goal)
        system = _linear_system(rows, goal)
        expected = _sympy_linear_outcome(sympy, system, rows)
        if isinstance(expected, dict):
            assert _EXPECTED_KIND[kind] is dict
            assert (len(expected) == width) == (kind == "full-rank")
            assert solve_linear(system) == expected
        else:
            assert expected is _EXPECTED_KIND[kind]
            with pytest.raises(expected):
                solve_linear(system)


# --- univariate -----------------------------------------------------------------

def _eq(text_lhs, text_rhs):
    from declsolve.parsing import parse_expression

    return parse_expression(text_lhs), parse_expression(text_rhs)


def test_univariate_linear():
    assert solve_univariate(_eq("3 * x - 6", "0"), "x") == [F(2)]
    assert solve_univariate(_eq("x / 2 + 1", "4"), "x") == [F(6)]


def test_univariate_quadratic_exact():
    roots = solve_univariate(_eq("x * x - 5 * x + 6", "0"), "x")
    assert roots == [F(2), F(3)]
    # rational (non-integer) roots stay exact
    roots = solve_univariate(_eq("4 * x ^ 2 - 1", "0"), "x")
    assert roots == [F(-1, 2), F(1, 2)]
    # a constant power beyond the old fold limit of 128 still expands exactly
    roots = solve_univariate(_eq("x ^ 2", "2 ^ 200"), "x")
    assert roots == [F(-(2**100)), F(2**100)]
    assert select_answer(roots) == 2**100


def test_univariate_quadratic_double_root():
    assert solve_univariate(_eq("x ^ 2 - 2 * x + 1", "0"), "x") == [F(1)]


def test_univariate_quadratic_irrational():
    roots = solve_univariate(_eq("x ^ 2", "2"), "x")
    assert all(isinstance(r, float) for r in roots)
    for r in roots:
        assert abs(r * r - 2) < 1e-9


def test_univariate_no_real_root():
    with pytest.raises(NoRealRootError):
        solve_univariate(_eq("x ^ 2 + 1", "0"), "x")
    with pytest.raises(NoRealRootError):
        solve_univariate(_eq("x ^ 4 + 1", "0"), "x")


def test_univariate_tautology_and_contradiction():
    with pytest.raises(UnderdeterminedError):
        solve_univariate(_eq("x", "x"), "x")
    with pytest.raises(NoRealRootError):
        solve_univariate(_eq("x + 1", "x"), "x")


def test_univariate_cubic_snaps_to_exact():
    assert solve_univariate(_eq("x ^ 3", "27"), "x") == [F(3)]


def test_univariate_cubic_irrational_residual_small():
    (root,) = solve_univariate(_eq("x ^ 3", "2"), "x")
    assert isinstance(root, float)
    assert abs(root**3 - 2) < 1e-9


def test_univariate_reciprocal_is_exact():
    roots, method = solver._solve_univariate((Div(Num(6), Var("x")), Num(3)), "x")
    assert (roots, method) == ([F(2)], "linear-elimination")


def test_univariate_rejects_multi_variable_equations():
    with pytest.raises(ValueError):
        solve_univariate(_eq("x + y", "1"), "x")


def test_univariate_polynomial_finds_every_real_root():
    """Degree 3 and up is isolated exactly: clustered, repeated and many
    roots all come back, rational ones as Fractions, the others correctly
    rounded, under the `polynomial` trace label."""
    roots, method = solver._solve_univariate(_eq("x ^ 3 - 6 * x ^ 2 + 11 * x", "6"), "x")
    assert (roots, method) == ([F(1), F(2), F(3)], "polynomial")
    assert solve_univariate(_eq("(x - 1) ^ 8", "0"), "x") == [F(1)]
    assert solve_univariate(_eq("x ^ 3", "2"), "x") == [1.2599210498948732]
    sixteen = " * ".join(f"(x - {k})" for k in range(1, 17))
    assert solve_univariate(_eq(sixteen, "0"), "x") == [F(k) for k in range(1, 17)]
    assert solve_univariate(_eq("x ^ 3", "3 ^ 3000"), "x") == [F(3**1000)]
    outcome = solve_script(script_from_transcript(
        "[[var x]] [[x ^ 3 - 6 * x ^ 2 + 11 * x = 6]] [[answer = x]]"
    ))
    assert outcome.candidates == (F(1), F(2), F(3))
    assert outcome.trace == ("polynomial: x in {1, 2, 3}",)


def test_real_roots_leaves_out_poles():
    """Each root shared with the poles goes, however often either
    polynomial repeats it; the gcd is primitive and found up to sign."""
    assert real_roots([-1, 0, 1], [-1, 1]) == [F(-1)]  # (x^2 - 1) without x = 1
    assert real_roots([1, -2, 1], [-1, 1]) == []  # (x - 1)^2 over x - 1
    assert real_roots([-2, 0, 1], [4, 0, -4, 0, 1]) == []  # x^2 - 2 over its square
    assert real_roots([-2, 0, 1], [3]) == [-1.4142135623730951, 1.4142135623730951]
    assert gcd([-6, 11, -6, 1], [2, -3, 1]) in ([-2, 3, -1], [2, -3, 1])  # (x - 1)(x - 2)
    assert gcd([-6, 11, -6, 1], [4, 2]) == [1]


# --- univariate roots against SymPy ------------------------------------------------

def _times(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _oracle_polynomial(kind, rng):
    """Coefficients, lowest first, of a random polynomial of degree 3-8:
    a product of rational linear factors, or of linear factors and at
    least one quadratic with irrational real roots, or of quadratics with
    no real root."""
    degree = rng.randint(3, 8)
    if kind == "no-real-root":
        degree += degree % 2
    # Linear factors take roots from a small pool, so that repeated roots
    # and roots one apart (several in one grid decade) are common.
    low = F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4]))
    pool = [low + F(k, rng.choice([1, 1, 2])) for k in range(4)]
    factors = []
    while sum(len(f) - 1 for f in factors) < degree:
        if kind == "rational" or (factors and rng.random() < 0.5):
            factors.append([-rng.choice(pool), F(1)])
            continue
        b, c = F(rng.randint(-9, 9), rng.randint(1, 3)), F(rng.randint(-20, 20), rng.randint(1, 3))
        disc = b * b - 4 * c
        product = abs(disc.numerator * disc.denominator)  # a square iff disc is
        square = math.isqrt(product) ** 2 == product
        wanted = disc < 0 if kind == "no-real-root" else disc > 0 and not square
        if wanted and sum(len(f) - 1 for f in factors) + 2 <= degree:
            factors.append([c, b, F(1)])
    coefficients = [F(rng.randint(1, 5), rng.randint(1, 3))]
    for factor in factors:
        coefficients = _times(coefficients, factor)
    return coefficients


def _sympy_real_roots(sympy, coefficients):
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coefficients)], x)
    roots = sorted(set(poly.real_roots()), key=lambda r: float(r.evalf(50)))
    return [F(int(r.p), int(r.q)) if r.is_Rational else float(r.evalf(50)) for r in roots]


@pytest.mark.parametrize("kind", ["rational", "irrational", "no-real-root"])
def test_univariate_roots_agree_with_sympy(kind):
    """The whole candidate set against SymPy's real roots: rational roots as
    equal Fractions, irrational ones as floats within ROOT_DEDUPE_TOLERANCE
    (relative), and no real root as NoRealRootError."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"oracle-{kind}")
    x = Var("x")
    cases = [[F(-6), F(11), F(-6), F(1)]] if kind == "rational" else []
    cases += [_oracle_polynomial(kind, rng) for _ in range(40)]
    for coefficients in cases:
        assert 3 <= len(coefficients) - 1 <= 8
        expr = Num(coefficients[0])
        for power, coeff in enumerate(coefficients[1:], 1):
            expr = Add(expr, Mul(Num(coeff), Pow(x, Num(power))))
        expected = _sympy_real_roots(sympy, coefficients)
        if not expected:
            with pytest.raises(NoRealRootError):
                solve_univariate((expr, Num(0)), "x")
            continue
        got = solve_univariate((expr, Num(0)), "x")
        assert len(got) == len(expected), (coefficients, got, expected)
        for value, want in zip(got, expected):
            assert type(value) is type(want), (coefficients, got, expected)
            if isinstance(want, F):
                assert value == want
            else:
                assert abs(value - want) <= solver.ROOT_DEDUPE_TOLERANCE * max(1.0, abs(want))


# --- rational equations -------------------------------------------------------------

@pytest.mark.parametrize("lhs, rhs, expected", [
    ("1 / x + 1 / (x + 2)", "5 / 12", ([F(-6, 5), F(4)], "quadratic")),
    ("60 / x + 60 / (x + 10)", "5", ([F(-6), F(20)], "quadratic")),
    ("x + 2 / x", "3", ([F(1), F(2)], "quadratic")),
    ("x * x", "2", ([-1.4142135623730951, 1.4142135623730951], "quadratic")),
    ("(x ^ 2 - 1) / (x - 1)", "2", NoRealRootError),
    ("x / x", "1", UnderdeterminedError),
    ("x - 4 * x ^ 0.5 + 4", "0", UnsolvableError),
    ("(2 ^ x - 8) ^ 2", "0", ([F(3)], "inversion")),
    ("1 / (1 / x)", "0", NoRealRootError),
    ("(1 / x) ^ (0 - 1)", "0", NoRealRootError),
    ("1 / (1 / x)", "3", ([F(3)], "linear-elimination")),
])
def test_univariate_probes_in_both_orders(lhs, rhs, expected):
    """A rational equation is cleared of denominators and solved exactly,
    labelled by degree, with its poles dropped, those of an inverted
    divisor included; an irrational root is correctly rounded; a
    non-rational residual is isolated, and fails typed where the unknown
    occurs twice."""
    for equation in (_eq(lhs, rhs), _eq(rhs, lhs)):
        if isinstance(expected, type):
            with pytest.raises(expected):
                solver._solve_univariate(equation, "x")
        else:
            assert solver._solve_univariate(equation, "x") == expected


def test_rational_equations_never_reach_the_peel_step(monkeypatch):
    isolate = solver._isolate
    seen = []
    monkeypatch.setattr(solver, "_isolate", lambda part, values: seen.append(part) or isolate(part, values))
    rational_equations = [
        ("6 / x", "3"), ("1 / x ^ 2", "1 / 4"), ("(1 / x) ^ -2 + x", "6"), ("x / (x - 3)", "3 / (x - 3)"),
        ("x ^ 2", "16 ^ 0.5"), ("(x - 1) ^ 8", "0"), ("1 / (1 / x)", "3"),
    ]
    for lhs, rhs in rational_equations:
        try:
            solve_univariate(_eq(lhs, rhs), "x")
        except NoRealRootError:
            pass
    assert seen == []
    assert solver._solve_univariate(_eq("x ^ 0.5", "3"), "x") == ([F(9)], "inversion")
    assert len(seen) == 1


@pytest.mark.parametrize("lhs, rhs, expected", [
    ("x ^ 0.5", "3", [F(9)]),
    ("2 ^ x", "8", [F(3)]),
    ("4 ^ x", "2", [F(1, 2)]),
    ("(1 / 2) ^ x", "8", [F(-3)]),
    ("2 ^ ((1 / x - 2) ^ 2)", "16", [F(1, 4)]),
    ("1000 * 1.05 ^ x", "2000", [math.log(2) / math.log(1.05)]),
    ("x ^ 1.5", "10", [4.641588833612779]),
    ("x ^ 40", "5", [-(5 ** (1 / 40)), 5 ** (1 / 40)]),
    ("2 ^ x", "10 ^ 400", [400 * math.log2(10)]),
    ("1.0001 ^ x", "10 ^ 300", [300 * math.log(10) / math.log(1.0001)]),
    ("(x + 1) ^ 0.5", "0 - 2", NoRealRootError),
    ("5 / 2 ^ x", "0", NoRealRootError),
    ("0 / x ^ 1.5", "12", NoRealRootError),
    ("x - 4 * x ^ 0.5 + 4", "0", UnsolvableError),
    ("x * 2 ^ x", "8", UnsolvableError),
    ("x ^ 40 + x", "2", UnsolvableError),
    ("(0 - 2) ^ x", "4", UnsolvableError),
    ("x * x", "2 ^ 0.5", NumericDivergenceError),
    ("x * 1.05 ^ 0.08333", "1000", NumericDivergenceError),
])
def test_non_rational_equations_are_isolated_in_both_orders(lhs, rhs, expected):
    """Inverse operations peel a non-rational equation down to a rational
    part: an exact power or logarithm stays exact, an irrational one is a
    float, and a root reached through a float is one.  The unknown in both
    operands of a node, or a constant with no exact value, fails typed."""
    for equation in (_eq(lhs, rhs), _eq(rhs, lhs)):
        if isinstance(expected, type):
            with pytest.raises(expected):
                solver._solve_univariate(equation, "x")
            continue
        roots, method = solver._solve_univariate(equation, "x")
        assert method == "inversion"
        assert [type(root) for root in roots] == [type(want) for want in expected], roots
        assert roots == pytest.approx(expected, rel=1e-12)


_BASES = {"2": F(2), "3": F(3), "(1 / 2)": F(1, 2), "1.05": F(21, 20)}


def _oracle_inversion(kind, rng):
    """(lhs, rhs, lhs - rhs in SymPy, the domain of x) of a * b ^ (q * x) =
    c, whose root is an integer, a fraction p / q or (most often) an
    irrational logarithm, or of x ^ (p / q) = c.  There x >= 0: a fractional
    power of a negative base has no exact value here."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x", real=True)

    def number(value):
        return sympy.Rational(value.numerator, value.denominator)

    if kind == "power":
        q = rng.randint(2, 4)
        p = rng.choice([k for k in range(-5, 6) if k and math.gcd(k, q) == 1])
        c = F(rng.randint(1, 5)) ** abs(p) if rng.random() < 0.5 else F(rng.randint(-30, 60), rng.randint(1, 3))
        c = 1 / c if p < 0 and c and rng.random() < 0.5 else c
        equation = x ** sympy.Rational(p, q) - number(c)
        return f"x ^ ({p} / {q})", _fraction_text(c), equation, sympy.Interval(0, sympy.oo)
    text, base = rng.choice(sorted(_BASES.items()))
    a, q = rng.randint(1, 9), {"integer": 1, "rational": rng.randint(2, 5), "irrational": 1}[kind]
    c = a * base ** rng.randint(-6, 6) if kind != "irrational" else F(rng.randint(1, 500), rng.randint(1, 3))
    equation = a * number(base) ** (q * x) - number(c)
    return f"{a} * {text} ^ ({q} * x)", _fraction_text(c), equation, sympy.S.Reals


@pytest.mark.parametrize("kind", ["integer", "rational", "irrational", "power"])
def test_inversion_agrees_with_sympy(kind):
    """The whole candidate set of each generated exponential or fractional
    power equation against SymPy's real solutions: exact roots as equal
    Fractions, the others as floats within ROOT_DEDUPE_TOLERANCE (relative),
    and none as NoRealRootError.  The real solutions come from `solveset`
    over the reals, since `solve` misses some (3 * 1.05 ^ x = 440)."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"inversion-oracle-{kind}")
    for _ in range(12):
        lhs, rhs, equation, domain = _oracle_inversion(kind, rng)
        real = sympy.solveset(equation, sympy.Symbol("x", real=True), domain)
        assert isinstance(real, sympy.FiniteSet) or real is sympy.S.EmptySet, (lhs, rhs, real)
        expected = sorted(
            F(int(root.p), int(root.q)) if root.is_Rational else float(root.evalf(50)) for root in real
        )
        if not expected:
            with pytest.raises(NoRealRootError):
                solve_univariate(_eq(lhs, rhs), "x")
            continue
        got = solve_univariate(_eq(lhs, rhs), "x")
        assert [type(root) for root in got] == [type(want) for want in expected], (lhs, rhs, got, expected)
        for value, want in zip(got, expected):
            if isinstance(want, F):
                assert value == want, (lhs, rhs, got, expected)
            else:
                assert abs(value - want) <= solver.ROOT_DEDUPE_TOLERANCE * abs(want), (lhs, rhs, got, expected)


def _fraction_text(value):
    return f"({value.numerator} / {value.denominator})"


def _oracle_rational_equation(kind, rng):
    """(lhs, rhs) text of a rational equation in x whose real roots, if it
    has any, are rational: each quadratic numerator has one rational root
    by construction, so the other is rational too."""
    p, q = rng.sample(range(-9, 10), 2)
    r = F(rng.randint(-20, 20), rng.choice([1, 1, 2, 3]))
    if kind == "reciprocals":  # a / (x + p) + b / (x + q) = c, c from a root r
        while r + p == 0 or r + q == 0:
            r += 1
        a, b = rng.randint(1, 9), rng.randint(-9, 9)
        c = a / (r + p) + b / (r + q)
        return f"{a} / (x + {p}) + {b} / (x + {q})", _fraction_text(c)
    if kind == "work-rate":  # t / x + t / (x + d) = 1: together in t hours
        r, d = rng.randint(1, 30), rng.randint(1, 20)
        t = _fraction_text(F(r * (r + d), 2 * r + d))
        return f"{t} / x + {t} / (x + {d})", "1"
    shapes = [  # a pole at p, or no real root
        (f"(x ^ 2 - {p * p}) / (x - {p})", str(2 * p) if rng.random() < 0.5 else _fraction_text(r)),
        (f"x / (x - {p})", f"{p} / (x - {p})"),
        (f"{q or 1} / (x - {p})", "0"),
        (f"1 / (x + {p})", f"1 / (x + {q})"),
        (f"(x ^ 2 + {abs(q) + 1}) / (x - {p})", "0"),
        (f"1 / x", f"{q or 1} / (x + {p}) + 1 / x"),
    ]
    return rng.choice(shapes)


@pytest.mark.parametrize("kind", ["reciprocals", "work-rate", "poles-and-no-root"])
def test_rational_equations_agree_with_sympy(kind):
    """The whole candidate set of each generated rational equation, as exact
    Fractions, against SymPy's `solve`, which drops the roots that zero a
    denominator; no real root is NoRealRootError."""
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import parse_expr

    rng = random.Random(f"rational-oracle-{kind}")
    x = sympy.Symbol("x")
    for _ in range(40):
        lhs, rhs = _oracle_rational_equation(kind, rng)
        solutions = sympy.solve(sympy.Eq(*(parse_expr(side.replace("^", "**")) for side in (lhs, rhs))), x)
        real = [root for root in solutions if root.is_real]
        assert all(root.is_Rational for root in real), (lhs, rhs, solutions)
        expected = sorted(F(int(root.p), int(root.q)) for root in real)
        if not expected:
            with pytest.raises(NoRealRootError):
                solve_univariate(_eq(lhs, rhs), "x")
            continue
        got = solve_univariate(_eq(lhs, rhs), "x")
        assert got == expected and all(type(root) is F for root in got), (lhs, rhs, got, expected)


# --- full pipeline ----------------------------------------------------------------

def test_solve_system_substitution_only():
    outcome = solve_script(
        script_from_transcript("[[var a]] [[a = 3]] [[var b]] [[b = a * 4 + 2]] [[answer = b]]")
    )
    assert outcome.selected == F(14)
    assert outcome.trace == ("substitution: a = 3, b = 14",)


def test_solve_system_linear_trace():
    outcome = solve_script(
        script_from_transcript(
            "[[var x]] [[var y]] [[x + y = 12]] [[x - y = 4]] [[answer = x]]"
        )
    )
    assert outcome.selected == F(8)
    assert outcome.trace == ("linear-elimination: x = 8, y = 4",)


def test_solve_system_mixes_substitution_and_elimination():
    outcome = solve_script(
        script_from_transcript(
            "[[var s]] [[var p]] [[s = 84]] [[s = p - 0.30 * p]] [[answer = p]]"
        )
    )
    assert outcome.selected == F(120)
    assert outcome.trace[0] == "substitution: s = 84"
    assert outcome.trace[1].startswith("linear-elimination: p = 120")


def test_solve_system_folds_constant_fractional_powers():
    """A constant power with an exact rational value folds in a linear
    system, as eval_exact folds it; one without has no exact value, so its
    equation fails typed, as forward substitution and elimination do."""
    outcome = solve_script(
        script_from_transcript("[[var x]] [[var y]] [[x + y = 16 ^ 0.5]] [[x - y = 0]] [[answer = x]]")
    )
    assert outcome.selected == F(2) and isinstance(outcome.selected, F)
    assert outcome.trace == ("linear-elimination: x = 2, y = 2",)
    with pytest.raises(NumericDivergenceError, match="exponent 1/2 is not an integer"):
        solve_script(script_from_transcript("[[var x]] [[x * x = 2 ^ 0.5]] [[answer = x]]"))
    # 0.08333 is 8333/100000: a root degree over MAX_EXPONENT.
    with pytest.raises(NumericDivergenceError, match="exceeds the supported magnitude"):
        solve_script(script_from_transcript("[[var p]] [[p * 1.05 ^ 0.08333 = 1000]] [[answer = p]]"))
    # Forward substitution meets the same power, and fails with the same type.
    with pytest.raises(NumericDivergenceError, match="exceeds the supported magnitude"):
        solve_script(script_from_transcript("[[var p]] [[p = 1000 / 1.05 ^ 0.08333]] [[answer = p]]"))


def test_solve_system_quadratic_branching_through_linear():
    outcome = solve_script(
        script_from_transcript(
            "[[var x]] [[var y]] [[x * x = 16]] [[x + y = 10]] [[answer = y]]"
        )
    )
    assert set(outcome.candidates) == {F(6), F(14)}
    assert outcome.selected == F(6)
    assert any(step.startswith("quadratic:") for step in outcome.trace)
    assert any(step.startswith("branch:") for step in outcome.trace)


def test_candidates_past_the_float_range_stay_apart_from_float_candidates():
    """An exact root past the float range is near no float root, so every
    root is kept, and the exact ones stay exact."""
    outcome = solve_script(
        script_from_transcript("[[var x]] [[x * (x ^ 2 - 2) * (x - 10 ^ 400) = 0]] [[answer = x]]")
    )
    assert outcome.candidates == (-math.sqrt(2), F(0), math.sqrt(2), F(10**400))
    assert isinstance(outcome.candidates[-1], F)
    assert outcome.selected == 0 and isinstance(outcome.selected, F)


def test_roots_closer_than_the_tolerance_stay_apart():
    """Roots are merged by their gap relative to their size, so two roots
    of magnitude below ROOT_DEDUPE_TOLERANCE stay two, and the positive one
    is selected; a rounded root still merges with its own rounding."""
    outcome = solve_script(
        script_from_transcript("[[var x]] [[x * x = 0.000000000000000002]] [[answer = x]]")
    )
    root = math.sqrt(2) * 1e-9
    assert outcome.candidates == pytest.approx((-root, root), rel=1e-12)
    assert outcome.selected == pytest.approx(root, rel=1e-12)
    outcome = solve_script(
        script_from_transcript("[[var x]] [[var y]] [[x ^ 2 = 2]] [[y = x * x]] [[answer = y]]")
    )
    assert outcome.candidates == (2.0000000000000004,)


SQRT2 = math.sqrt(2)


def test_goal_roots_are_checked_against_the_other_equations():
    """A root of the goal's own equation that breaks another equation is
    dropped, in either equation order, also where the goal is bound before
    the rest is; a rounded root passes a check its sides agree on to
    ROOT_DEDUPE_TOLERANCE, a rounded exponent's too, and one that fails
    reports its values as floats, or exactly past the float range.  The
    trace is unchanged."""
    cases = [
        ("x", ["x ^ 2 = 9", "2 * x = -6"], (F(-3),)),
        ("x", ["x ^ 2 = 9", "x ^ 2 = 4"], InconsistentBindingError),
        ("x", ["y ^ 2 = 4", "x ^ 2 = 9", "x + y = 5"], (F(3),)),
        ("x", ["x + y = 5", "y ^ 2 = 4", "x ^ 2 = 9"], (F(3),)),
        ("x", ["x + y = 5", "x ^ 2 = 9", "y ^ 2 = 4"], (F(3),)),
        ("x", ["x ^ 2 = 2", "x ^ 3 = 5"], InconsistentBindingError),
        ("x", ["x ^ 2 = 2", "x ^ 2 = 3"], InconsistentBindingError),
        ("x", ["x ^ 2 = 2", "y = x ^ 2", "y = 3"], InconsistentBindingError),
        ("x", ["x ^ 2 = 2", "x * x = 2"], (-SQRT2, SQRT2)),
        ("y", ["x ^ 2 = 2", "x * x = 2", "y = x + 1"], (1 - SQRT2, 1 + SQRT2)),
        ("x", ["x + y = 5", "x + y = 6", "x ^ 2 = 9"], InconsistentError),
        ("x", ["2 ^ x = 10", "y = 2 ^ x"], (math.log2(10),)),
    ]
    for goal, equations, expected in cases:
        for order in (equations, equations[::-1]):
            text = "[[var x]] [[var y]] " + " ".join(f"[[{e}]]" for e in order) + f" [[answer = {goal}]]"
            script = script_from_transcript(text)
            if isinstance(expected, type):
                with pytest.raises(expected):
                    solve_script(script)
                continue
            candidates = solve_script(script).candidates
            assert [type(c) for c in candidates] == [type(e) for e in expected], order
            exact = all(isinstance(e, F) for e in expected)
            assert candidates == (expected if exact else pytest.approx(expected, rel=1e-12)), order
    huge = format_rational(F(SQRT2) * 10**400)
    for equations, message in [
        (["x ^ 2 = 2", "x ^ 3 = 5"], "equation requires 5.0 but 2.8284271247461907 already holds"),
        (["x ^ 2 = 2", "y = x * 10 ^ 400", "y = 3"], f"equation requires {huge} but 3.0 already holds"),
    ]:
        text = "[[var x]] [[var y]] " + " ".join(f"[[{e}]]" for e in equations) + " [[answer = x]]"
        with pytest.raises(InconsistentBindingError) as info:
            solve_script(script_from_transcript(text))
        assert str(info.value) == message
    outcome = solve_script(script_from_transcript("[[var x]] [[x ^ 2 = 9]] [[2 * x = -6]] [[answer = x]]"))
    assert outcome.trace == ("quadratic: x in {-3, 3}",)


_small_fractions = st.builds(F, st.integers(-9, 9), st.integers(1, 3))


@st.composite
def _known_root_systems(draw):
    """(equations, goal, links) of a quadratic in x whose roots are chosen,
    rational or irrational, with links `v = p * u + q` from x or an earlier
    link, and maybe a scaled restatement or a contradicting equation.
    `links` maps each link name to (u, p, q)."""
    a = draw(st.sampled_from([1, 2, 3, -2]))
    if draw(st.booleans()):  # a * (x - s) ^ 2 = a * k: x = s -+ sqrt(k)
        s, k = draw(_small_fractions), draw(st.sampled_from([2, 3, 5, 7, 10]))
        b, c = -2 * s, s * s - k
    else:
        r1, r2 = draw(_small_fractions), draw(_small_fractions)
        b, c = -(r1 + r2), r1 * r2
    square = draw(st.sampled_from(["x ^ 2", "x * x"]))

    def quadratic(scale, shift=0):
        return f"{a * scale} * {square} + {_fraction_text(a * b * scale)} * x = {_fraction_text(shift - a * c * scale)}"

    equations = [quadratic(1)]
    links = {}
    for name in draw(st.sampled_from([[], ["y"], ["y", "z"]])):
        u = draw(st.sampled_from(["x", *links]))
        p, q = draw(_small_fractions.filter(bool)), draw(_small_fractions)
        links[name] = (u, p, q)
        equations.append(f"{name} = {_fraction_text(p)} * {u} + {_fraction_text(q)}")
    extra = draw(st.sampled_from(["none", "restate", "contradict"]))
    m = draw(st.integers(2, 5))
    target = draw(st.sampled_from(["x", *links]))
    if target == "x" and extra != "none":
        equations.append(quadratic(m, shift=0 if extra == "restate" else draw(_small_fractions.filter(bool))))
    elif extra != "none":
        u, p, q = links[target]
        q += 0 if extra == "restate" else draw(_small_fractions.filter(bool))
        equations.append(f"{m} * {target} = {_fraction_text(m * p)} * {u} + {_fraction_text(m * q)}")
    return draw(st.permutations(equations)), draw(st.sampled_from(["x", *links])), links


@settings(max_examples=40, deadline=None)
@given(_known_root_systems())
def test_systems_agree_with_sympy_and_every_candidate_checks_out(case):
    """The candidate set of each system built from known roots against
    SymPy's `solve`: rational candidates as equal Fractions, irrational ones
    as floats within ROOT_DEDUPE_TOLERANCE (relative), none as a
    SolverError.  And every candidate, with the values of the other unknowns
    it implies through the links, satisfies every original equation: exactly
    if exact, to the same tolerance if not."""
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import parse_expr

    equations, goal, links = case
    names = ["x", *links]
    text = " ".join(f"[[var {n}]]" for n in names) + " " + " ".join(f"[[{e}]]" for e in equations)
    script = script_from_transcript(f"{text} [[answer = {goal}]]")
    symbols = sympy.symbols(names)
    sides = [[parse_expr(side.replace("^", "**")) for side in e.split("=")] for e in equations]
    solutions = sympy.solve([sympy.Eq(*pair) for pair in sides], symbols, dict=True)
    real = {solution[symbols[names.index(goal)]] for solution in solutions}
    real = [value for value in real if value.is_real]
    expected = sorted(F(int(v.p), int(v.q)) if v.is_Rational else float(v.evalf(50)) for v in real)
    if not expected:
        with pytest.raises(SolverError):
            solve_script(script)
        return
    got = sorted(solve_script(script).candidates)
    assert [type(v) for v in got] == [type(v) for v in expected], (equations, goal, got, expected)
    for value, want in zip(got, expected):
        if isinstance(want, F):
            assert value == want, (equations, goal, got, expected)
        else:
            assert abs(value - want) <= solver.ROOT_DEDUPE_TOLERANCE * max(1, abs(want)), (equations, got, expected)

    for value in got:
        values = {goal: F(value)}
        while "x" not in values:  # back along the links to x
            name = next(n for n in values if n in links)
            u, p, q = links[name]
            values = {u: (values[name] - q) / p}
        for name, (u, p, q) in links.items():  # forward to every link
            values[name] = p * values[u] + q
        for eq in script.equations:
            left, right = eval_exact(eq.lhs, values), eval_exact(eq.rhs, values)
            if isinstance(value, F):
                assert left == right, (equations, goal, value)
            else:
                assert abs(left - right) <= solver.ROOT_DEDUPE_TOLERANCE * max(1, abs(left), abs(right))


def test_a_branch_that_raises_fails_alone():
    """An expression error in one root's branch (here t = 3 zeroes a
    divisor) drops that branch and keeps the others."""
    outcome = solve_script(script_from_transcript(
        "[[var t]] [[var u]] [[var w]] [[t ^ 3 - 6 * t ^ 2 + 11 * t = 6]] [[u + w = t]]"
        " [[u - w = 1 / (t - 3)]] [[answer = u]]"
    ))
    assert outcome.candidates == (F(1, 4), F(1, 2))


def test_solve_system_approximate_values_stay_floats():
    outcome = solve_script(
        script_from_transcript(
            "[[var x]] [[var y]] [[x * x = 2]] [[y = x + 1]] [[answer = y]]"
        )
    )
    assert all(isinstance(c, float) for c in outcome.candidates)
    assert min(abs(c - (1 + math.sqrt(2))) for c in outcome.candidates) < 1e-9


def test_trace_shows_bindings_from_a_rounded_root_as_floats():
    substituted = solve_script(script_from_transcript(
        "[[var x]] [[var y]] [[x ^ 2 = 2]] [[y = x * x]] [[answer = y]]"
    ))
    assert substituted.trace[2] == "substitution: y = 2.0000000000000004"
    eliminated = solve_script(script_from_transcript(
        "[[var x]] [[var y]] [[var z]] [[x ^ 2 = 2]] [[y + z = x]] [[y - z = 1]] [[answer = y]]"
    ))
    assert eliminated.trace[-1] == "linear-elimination: y = 1.2071067811865475, z = 0.20710678118654757"


def test_solve_system_deduplicates_candidates():
    outcome = solve_script(
        script_from_transcript("[[var x]] [[x * x - 2 * x + 1 = 0]] [[answer = x]]")
    )
    assert outcome.candidates == (F(1),)
    # Roots of x that give the goal y the same value, in both equation
    # orders: one candidate is left, and an exact value replaces the floats.
    for equations, expected in (
        (("x ^ 2 = 4", "y = x ^ 2"), (F(4),)),
        (("x ^ 2 = 2", "y = x * x"), None),
        (("x ^ 3 - x ^ 2 - 2 * x + 2 = 0", "y = (x - 1) * (x * x - 2) + 5"), (F(5),)),
    ):
        for order in (equations, equations[::-1]):
            text = "[[var x]] [[var y]] " + " ".join(f"[[{e}]]" for e in order) + " [[answer = y]]"
            candidates = solve_script(script_from_transcript(text)).candidates
            if expected is None:
                assert len(candidates) == 1 and isinstance(candidates[0], float)
                assert candidates[0] == pytest.approx(2)
            else:
                assert candidates == expected


def test_solve_system_goal_must_be_declared():
    with pytest.raises(ValueError):
        solve_system(EquationSystem((), frozenset({"x"}), "y"))


def test_solve_system_unsolvable_and_budget():
    with pytest.raises(UnsolvableError):
        solve_script(
            script_from_transcript("[[var x]] [[var y]] [[x * y = 6]] [[answer = x]]")
        )


def test_solve_system_no_equations():
    with pytest.raises(UnsolvableError):
        solve_script(script_from_transcript("[[var x]] [[answer = x]]"))


def test_inconsistent_bindings_surface_as_solver_errors():
    with pytest.raises(InconsistentBindingError):
        solve_script(
            script_from_transcript("[[var a]] [[a = 3]] [[a = 4]] [[answer = a]]")
        )


# --- answer selection -------------------------------------------------------------

def test_select_answer_filter_chain():
    # integer-valued beats non-integer, even a smaller one
    assert select_answer([F(3, 2), F(5)]) == F(5)
    # nonnegative beats negative
    assert select_answer([F(-3), F(4)]) == F(4)
    # all negative: integers first, then least magnitude
    assert select_answer([F(-5), F(-2)]) == F(-2)
    # no integers: least absolute value
    assert select_answer([F(3, 2), F(5, 2)]) == F(3, 2)
    # exact beats approximate regardless of value
    assert select_answer([2.0, F(7)]) == F(7)
    # |−2| == |2|: the nonnegative filter already dropped −2
    assert select_answer([F(-2), F(2)]) == F(2)
    # floats only
    assert select_answer([-1.5, 2.5]) == 2.5
    assert select_answer([F(0)]) == F(0)


def test_select_answer_is_order_independent():
    values = [F(3), F(-3), F(1, 2), 4.0]
    expected = select_answer(values)
    rng = random.Random(7)
    for _ in range(20):
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert select_answer(shuffled) == expected


def test_select_answer_requires_candidates():
    with pytest.raises(ValueError):
        select_answer([])


def test_outcome_selected_is_always_a_candidate():
    for text in (
        "[[var x]] [[x * x = 49]] [[answer = x]]",
        "[[var x]] [[x * x - x = 12]] [[answer = x]]",
        "[[var x]] [[3 * x = 2]] [[answer = x]]",
    ):
        outcome = solve_script(script_from_transcript(text))
        assert outcome.selected in outcome.candidates
