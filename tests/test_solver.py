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
    free_vars,
    substitute,
)
from declsolve.parsing import script_from_transcript
from declsolve.solver import (
    EquationSystem,
    InconsistentBindingError,
    InconsistentError,
    NoRealRootError,
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
        for name in free_vars(expr) & bindings.keys():
            expr = substitute(expr, name, Num(bindings[name]))
        return expr

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


def test_forward_substitution_is_linear_on_a_reversed_chain(monkeypatch):
    """A chain given last link first binds one variable per round; each
    binding must still be substituted once, into the one equation using it."""
    n = 400
    names = [f"v{i}" for i in range(n)]
    chain = [(Var(names[0]), Num(7))] + [
        (Var(names[i]), Add(Var(names[i - 1]), Num(i % 5 + 1))) for i in range(1, n)
    ]
    system = EquationSystem(tuple(reversed(chain)), frozenset(names), names[-1])

    calls = Counter()
    for name in ("free_vars", "substitute"):
        def counted(*args, _name=name, _original=getattr(solver, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(solver, name, counted)
    bindings, residual = forward_substitute(system)

    assert bindings[names[-1]] == 7 + sum(i % 5 + 1 for i in range(1, n))
    assert residual.equations == ()
    assert calls["free_vars"] <= 2 * n
    assert calls["substitute"] <= n


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


def test_univariate_reciprocal_goes_numeric():
    roots = solve_univariate((Div(Num(6), Var("x")), Num(3)), "x")
    assert roots == [F(2)]


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


def test_solve_system_approximate_values_stay_floats():
    outcome = solve_script(
        script_from_transcript(
            "[[var x]] [[var y]] [[x * x = 2]] [[y = x + 1]] [[answer = y]]"
        )
    )
    assert all(isinstance(c, float) for c in outcome.candidates)
    assert min(abs(c - (1 + math.sqrt(2))) for c in outcome.candidates) < 1e-9


def test_solve_system_deduplicates_candidates():
    outcome = solve_script(
        script_from_transcript("[[var x]] [[x * x - 2 * x + 1 = 0]] [[answer = x]]")
    )
    assert outcome.candidates == (F(1),)


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
