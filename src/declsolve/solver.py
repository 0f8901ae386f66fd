"""Solve an extracted equation system for its goal variable.

Strategy pipeline, cheapest first:

1. forward substitution to a fixpoint, which fully dispatches procedural
   chains (`a = 2`, `b = a + 1`, ...).  It is event-driven: each binding is
   substituted only into the equations that use it, and only those are
   visited again, so a chain costs time linear in its length in any order;
2. exact fraction-free Gauss-Jordan elimination (Bareiss) over the integers
   when the residual is linear;
3. isolating a univariate equation (exact for a polynomial, by real-root
   isolation beyond degree 2; a bisection / Newton hybrid on a float grid
   for anything else) and branching over its roots.

All arithmetic on the exact path is over `fractions.Fraction`; floats only
appear for irrational or numerically-found roots, and any value derived
from one stays tagged approximate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .exprs import (
    Add,
    Div,
    Expr,
    ExprError,
    Mul,
    Neg,
    NonLinearError,
    Num,
    Pow,
    Sub,
    Var,
    eval_exact,
    exact_root,
    format_rational,
    free_vars,
    linear_form,
    polynomial,
    substitute,
)
from .parsing import EqDecl, SolutionScript, VarDecl
from .roots import IsolationError, real_roots

Equation = tuple[Expr, Expr]

# A candidate is exact (Fraction) or approximate (float).
Value = Fraction | float

NUMERIC_TOLERANCE = 1e-9
ROOT_DEDUPE_TOLERANCE = 1e-7
MAX_BRANCHES = 16

# Degree bound when expanding a univariate equation into a polynomial;
# larger powers fall through to the numeric root finder.
_MAX_POLY_DEGREE = 32


class SolverError(Exception):
    """Base class for solver failures."""


class InconsistentBindingError(SolverError):
    def __init__(self, name: str | None, old: Fraction, new: Fraction):
        target = f"'{name}'" if name else "equation"
        super().__init__(
            f"{target} requires {format_rational(new)} but {format_rational(old)} already holds"
        )
        self.name = name
        self.old = old
        self.new = new


class UnderdeterminedError(SolverError):
    def __init__(self, message: str = "system does not pin down the goal variable"):
        super().__init__(message)


class InconsistentError(SolverError):
    def __init__(self, message: str = "equations are mutually inconsistent"):
        super().__init__(message)


class NoRealRootError(SolverError):
    def __init__(self, message: str = "equation has no real root"):
        super().__init__(message)


class NumericDivergenceError(SolverError):
    def __init__(self, message: str = "numeric root search did not converge"):
        super().__init__(message)


class UnsolvableError(SolverError):
    def __init__(self, message: str = "no solving strategy applies"):
        super().__init__(message)


@dataclass(frozen=True)
class EquationSystem:
    """Equations plus the unknowns they range over and the goal variable.

    Every equation's free variables must lie in `unknowns`.  The goal must
    be an unknown at solve entry; a residual system returned by
    forward_substitute may already have bound it.
    """

    equations: tuple[Equation, ...]
    unknowns: frozenset[str]
    goal: str

    def __post_init__(self):
        for lhs, rhs in self.equations:
            stray = (free_vars(lhs) | free_vars(rhs)) - self.unknowns
            if stray:
                raise ValueError(f"equation uses undeclared unknowns: {sorted(stray)}")

    @classmethod
    def from_script(cls, script: SolutionScript) -> "EquationSystem":
        unknowns = frozenset(
            d.name for d in script.declarations if isinstance(d, VarDecl)
        )
        equations = tuple(
            (d.lhs, d.rhs) for d in script.declarations if isinstance(d, EqDecl)
        )
        if script.goal not in unknowns:
            raise ValueError(f"goal '{script.goal}' is not an unknown")
        return cls(equations, unknowns, script.goal)


@dataclass(frozen=True)
class SolveOutcome:
    """Deduplicated candidate answers, the chosen one, and the method trace."""

    candidates: tuple[Value, ...]
    selected: Value
    trace: tuple[str, ...]


def forward_substitute(
    system: EquationSystem,
) -> tuple[dict[str, Fraction], EquationSystem]:
    """Bind variables from directly evaluable equations, to a fixpoint.

    Whenever an equation has the shape `v = e` (or `e = v`) with `e` fully
    evaluable under the current bindings, bind `v` and drop the equation.
    Ground equations are checked and dropped; a contradiction raises
    InconsistentBindingError.  Returns the bindings and the residual system
    (remaining equations with bound variables substituted away).

    The result is that of sweeping the equations in order, round after
    round, until a round changes nothing, but only the visits that can
    change something are made.  One in-order pass visits every equation.
    After it, binding `v` while visiting equation `i` in round `r` schedules
    each pending equation `k` that uses `v` for round `r` if `k > i`, else
    for round `r + 1`, and visits run in (round, index) order.  So the
    bindings, the residual and the first error are those of the full sweep,
    and each binding is substituted once, into the equations that use it.
    """
    bindings: dict[str, Fraction] = {}
    # index -> [lhs, rhs, unbound lhs names, unbound rhs names], in index order
    pending: dict[int, list] = {}
    users: dict[str, list[int]] = {}  # name -> pending equations using it
    revisits: list[tuple[int, int]] = []  # heap of (round, index)
    queued: set[int] = set()

    def visit(round_: int, index: int) -> None:
        lhs, rhs, free_lhs, free_rhs = pending[index]
        if not free_lhs and not free_rhs:
            left_value = eval_exact(lhs)
            right_value = eval_exact(rhs)
            if left_value != right_value:
                lhs, rhs = system.equations[index]
                name = lhs.name if isinstance(lhs, Var) else (
                    rhs.name if isinstance(rhs, Var) else None
                )
                raise InconsistentBindingError(name, left_value, right_value)
            del pending[index]
            return
        if isinstance(lhs, Var) and not free_rhs:
            name, value = lhs.name, eval_exact(rhs)
        elif isinstance(rhs, Var) and not free_lhs:
            name, value = rhs.name, eval_exact(lhs)
        else:
            return
        del pending[index]
        bindings[name] = value
        waiting = [user for user in users.pop(name, ()) if user in pending]
        replacement = Num(value) if waiting else None
        for user in waiting:
            state = pending[user]
            for side in (0, 1):
                if name in state[side + 2]:
                    state[side] = substitute(state[side], name, replacement)
                    state[side + 2].discard(name)
            if user not in queued:
                queued.add(user)
                heapq.heappush(revisits, (round_ if user > index else round_ + 1, user))

    for index, (lhs, rhs) in enumerate(system.equations):
        free_lhs = free_vars(lhs)
        free_rhs = free_vars(rhs)
        for name in free_lhs & bindings.keys():
            lhs = substitute(lhs, name, Num(bindings[name]))
        for name in free_rhs & bindings.keys():
            rhs = substitute(rhs, name, Num(bindings[name]))
        free_lhs -= bindings.keys()
        free_rhs -= bindings.keys()
        pending[index] = [lhs, rhs, free_lhs, free_rhs]
        visit(0, index)
        if index in pending:
            for name in free_lhs | free_rhs:
                users.setdefault(name, []).append(index)
    while revisits:
        round_, index = heapq.heappop(revisits)
        queued.discard(index)
        visit(round_, index)

    residual = EquationSystem(
        tuple((lhs, rhs) for lhs, rhs, _, _ in pending.values()),
        frozenset(system.unknowns - bindings.keys()),
        system.goal,
    )
    return bindings, residual


def solve_linear(system: EquationSystem) -> dict[str, Fraction]:
    """Exact fraction-free Gauss-Jordan elimination (Bareiss 1968).

    Each row is scaled to integers by the lcm of its denominators; each
    elimination step then divides exactly by the previous pivot, so entries
    stay integers the size of minors of the scaled matrix.  Returns the full
    solution for a full-rank system.  For a rank-deficient system whose
    reduced form still pins individual variables, returns the pinned subset
    provided the goal is in it; otherwise raises UnderdeterminedError.
    Raises InconsistentError on a `0 = nonzero` row and NonLinearError if
    any equation is not linear.  The pinned values and the errors depend
    only on the row space, not on the pivots chosen.
    """
    variables = sorted(system.unknowns)
    column = {name: i for i, name in enumerate(variables)}
    width = len(variables)
    rows: list[list[int]] = []
    for lhs, rhs in system.equations:
        form = linear_form(Sub(lhs, rhs))
        row = [Fraction(0)] * (width + 1)
        for name, coeff in form.coefficients.items():
            row[column[name]] = coeff
        row[width] = -form.constant
        common = math.lcm(*(value.denominator for value in row))
        rows.append([value.numerator * (common // value.denominator) for value in row])

    pivots: list[tuple[int, int]] = []  # (row, column)
    pivot_row = 0
    previous = 1
    for col in range(width):
        found = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        pivot = rows[pivot_row]
        head = pivot[col]
        # Every other row, even one already zero in `col`: the division by
        # the previous pivot is exact only while all rows share its scale.
        for r, row in enumerate(rows):
            if r != pivot_row:
                factor = row[col]
                rows[r] = [(head * a - factor * b) // previous for a, b in zip(row, pivot)]
        previous = head
        pivots.append((pivot_row, col))
        pivot_row += 1

    for row in rows[pivot_row:]:
        if row[width] != 0:
            raise InconsistentError()

    pinned: dict[str, Fraction] = {}
    for r, col in pivots:
        if all(rows[r][c] == 0 for c in range(width) if c != col):
            pinned[variables[col]] = Fraction(rows[r][width], rows[r][col])

    if len(pinned) == len(variables):
        return pinned
    if system.goal in pinned:
        return pinned
    raise UnderdeterminedError()


# --------------------------------------------------------------------------
# Univariate equations

def _quadratic_roots(c0: Fraction, c1: Fraction, c2: Fraction) -> list[Value]:
    """Roots of c2*x^2 + c1*x + c0, exact when the discriminant allows."""
    discriminant = c1 * c1 - 4 * c2 * c0
    if discriminant < 0:
        raise NoRealRootError("negative discriminant")
    root = exact_root(discriminant, 2)
    if root is not None:
        if root == 0:
            return [-c1 / (2 * c2)]
        return sorted([(-c1 - root) / (2 * c2), (-c1 + root) / (2 * c2)])
    # Irrational roots: numerically stable float form.
    fa, fb = float(c2), float(c1)
    sqrt_d = math.sqrt(float(discriminant))
    q = -(fb + sqrt_d) / 2 if fb >= 0 else -(fb - sqrt_d) / 2
    return sorted([q / fa, float(c0) / q])


def _eval_float(expr: Expr, var: str, value: float) -> float:
    if isinstance(expr, Num):
        return float(expr.value)
    if isinstance(expr, Var):
        if expr.name != var:
            raise ValueError(f"unexpected variable {expr.name}")
        return value
    if isinstance(expr, Neg):
        return -_eval_float(expr.child, var, value)
    if isinstance(expr, Add):
        return _eval_float(expr.left, var, value) + _eval_float(expr.right, var, value)
    if isinstance(expr, Sub):
        return _eval_float(expr.left, var, value) - _eval_float(expr.right, var, value)
    if isinstance(expr, Mul):
        return _eval_float(expr.left, var, value) * _eval_float(expr.right, var, value)
    if isinstance(expr, Div):
        return _eval_float(expr.left, var, value) / _eval_float(expr.right, var, value)
    if isinstance(expr, Pow):
        # ValueError where `**` would return a complex number (a negative
        # base to a fractional power), so such a point has no value.
        return math.pow(_eval_float(expr.base, var, value), _eval_float(expr.exponent, var, value))
    raise TypeError(f"unknown node: {type(expr).__name__}")


_GRID = sorted(
    {0.0}
    | {10.0**k for k in range(-6, 7)}
    | {-(10.0**k) for k in range(-6, 7)}
)


def _numeric_roots(residual: Expr, var: str) -> list[float]:
    """Bisection over sign changes on a log-spaced grid, Newton-polished."""

    def f(x: float) -> float | None:
        try:
            y = residual and _eval_float(residual, var, x)
        except (ZeroDivisionError, OverflowError, ValueError):
            return None
        if y is None or math.isnan(y) or math.isinf(y):
            return None
        return y

    samples = [(x, f(x)) for x in _GRID]
    valid = [(x, y) for x, y in samples if y is not None]
    roots: list[float] = []

    def polish(x: float) -> float | None:
        for _ in range(60):
            y = f(x)
            if y is None:
                return None
            if abs(y) < NUMERIC_TOLERANCE:
                return x
            h = max(abs(x), 1.0) * 1e-7
            y_hi, y_lo = f(x + h), f(x - h)
            if y_hi is None or y_lo is None:
                return None
            slope = (y_hi - y_lo) / (2 * h)
            if slope == 0 or math.isnan(slope):
                return None
            step = y / slope
            if abs(step) > 1e9:
                return None
            x -= step
        y = f(x)
        return x if y is not None and abs(y) < NUMERIC_TOLERANCE else None

    for (x0, y0), (x1, y1) in zip(valid, valid[1:]):
        if y0 == 0:
            roots.append(x0)
            continue
        if y0 * y1 < 0:
            lo, hi, f_lo = x0, x1, y0
            for _ in range(200):
                mid = (lo + hi) / 2
                y_mid = f(mid)
                if y_mid is None:
                    break
                if abs(y_mid) < NUMERIC_TOLERANCE or (hi - lo) < 1e-15 * max(1.0, abs(mid)):
                    roots.append(mid)
                    break
                if f_lo * y_mid < 0:
                    hi = mid
                else:
                    lo, f_lo = mid, y_mid
    if valid and valid[-1][1] == 0:
        roots.append(valid[-1][0])

    # Newton from every grid point picks up even-multiplicity roots that
    # never produce a sign change.
    for x, _ in valid:
        polished = polish(x)
        if polished is not None:
            roots.append(polished)

    deduped: list[float] = []
    for root in sorted(roots):
        if not deduped or abs(root - deduped[-1]) > ROOT_DEDUPE_TOLERANCE:
            deduped.append(root)
    if deduped:
        return deduped
    if len(valid) == len(samples):
        raise NoRealRootError("no sign change and no Newton convergence")
    raise NumericDivergenceError()


def _solve_univariate(equation: Equation, var: str) -> tuple[list[Value], str]:
    """Roots of a single-unknown equation plus the method label used."""
    lhs, rhs = equation
    stray = (free_vars(lhs) | free_vars(rhs)) - {var}
    if stray:
        raise ValueError(f"equation is not univariate in '{var}': {sorted(stray)}")
    residual = Sub(lhs, rhs)
    try:
        terms = polynomial(residual, _MAX_POLY_DEGREE)
    except NonLinearError:
        terms = None
    except ExprError as err:
        raise NumericDivergenceError(str(err)) from err
    if terms is None:
        return [_snap_exact(residual, var, r) for r in _numeric_roots(residual, var)], "numeric"
    degree = max((monomial[0][1] if monomial else 0 for monomial in terms), default=-1)
    coeffs = [terms.get(((var, k),) if k else (), Fraction(0)) for k in range(degree + 1)]
    if len(coeffs) == 0:
        raise UnderdeterminedError("equation holds for every value")
    if len(coeffs) == 1:
        raise NoRealRootError("equation reduces to a false constant identity")
    if len(coeffs) == 2:
        return [-coeffs[0] / coeffs[1]], "linear-elimination"
    if len(coeffs) == 3:
        return _quadratic_roots(coeffs[0], coeffs[1], coeffs[2]), "quadratic"
    common = math.lcm(*(c.denominator for c in coeffs))
    try:
        roots = real_roots([c.numerator * (common // c.denominator) for c in coeffs])
    except IsolationError as err:
        raise NumericDivergenceError(str(err)) from err
    if not roots:
        raise NoRealRootError()
    return roots, "polynomial"


def _snap_exact(residual: Expr, var: str, root: float) -> Value:
    """Promote a numeric root to an exact rational when it truly is one."""
    guesses: list[Fraction] = []
    if abs(root - round(root)) <= 1e-6 * max(1.0, abs(root)):
        guesses.append(Fraction(round(root)))
    nearby = Fraction(root).limit_denominator(1_000_000)
    if nearby not in guesses:
        guesses.append(nearby)
    for guess in guesses:
        if abs(float(guess) - root) > 1e-6 * max(1.0, abs(root)):
            continue
        try:
            if eval_exact(residual, {var: guess}) == 0:
                return guess
        except ExprError:
            continue
    return root


def solve_univariate(equation: Equation, var: str) -> list[Value]:
    """Real roots, exact (Fraction) where possible, else approximate (float).

    Degree 1 solves exactly; degree 2 by the quadratic formula (exact when
    the discriminant is a rational square); degree 3 to 32 by real-root
    isolation, which finds every real root (rational ones exactly, others
    correctly rounded).  Anything else falls back to the numeric hybrid
    with |f(root)| < 1e-9 convergence and roots deduped within 1e-7.
    """
    roots, _ = _solve_univariate(equation, var)
    return roots


# --------------------------------------------------------------------------
# Full pipeline

def _value_key(value: Value) -> tuple:
    return (abs(value), value)


def select_answer(candidates: list[Value] | tuple[Value, ...]) -> Value:
    """Deterministic choice among candidate answers.

    Successive filters: exact before approximate, nonnegative, integer
    valued, smallest absolute value, then the smaller value.  The input
    order never affects the result.
    """
    if not candidates:
        raise ValueError("no candidates to select from")
    pool = list(candidates)
    exact = [c for c in pool if isinstance(c, Fraction)]
    if exact:
        pool = exact
    nonnegative = [c for c in pool if c >= 0]
    if nonnegative:
        pool = nonnegative
    integral = [
        c
        for c in pool
        if (c.denominator == 1 if isinstance(c, Fraction) else float(c).is_integer())
    ]
    if integral:
        pool = integral
    return min(pool, key=_value_key)


def _merge_candidate(collected: list[Value], value: Value) -> None:
    for i, existing in enumerate(collected):
        if isinstance(existing, Fraction) and isinstance(value, Fraction):
            if existing == value:
                return
        elif abs(float(existing) - float(value)) <= ROOT_DEDUPE_TOLERANCE:
            # Keep the exact representative when the two coincide.
            if isinstance(value, Fraction) and isinstance(existing, float):
                collected[i] = value
            return
    collected.append(value)


def _format_value(value: Value) -> str:
    return format_rational(value) if isinstance(value, Fraction) else repr(value)


class _Budget:
    """Shared cap on root branches explored during recursion."""

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self) -> None:
        if self.remaining <= 0:
            raise UnsolvableError(f"root branching exceeded {MAX_BRANCHES} branches")
        self.remaining -= 1


def solve_system(system: EquationSystem) -> SolveOutcome:
    """Run the strategy pipeline and select among the candidate answers.

    Raises UnsolvableError when every strategy is exhausted; sub-solver
    failures (inconsistency, no real root, divergence) propagate so callers
    can classify them.
    """
    if system.goal not in system.unknowns:
        raise ValueError(f"goal '{system.goal}' is not an unknown")
    trace: list[str] = []
    candidates: list[Value] = []
    for value, approx in _solve(system, trace, _Budget(MAX_BRANCHES)):
        _merge_candidate(candidates, float(value) if approx else value)
    if not candidates:
        raise UnsolvableError()
    return SolveOutcome(tuple(candidates), select_answer(candidates), tuple(trace))


def _solve(
    system: EquationSystem,
    trace: list[str],
    budget: _Budget,
    approx: bool = False,
) -> list[tuple[Fraction, bool]]:
    bindings, residual = forward_substitute(system)
    if bindings:
        bound = ", ".join(
            f"{name} = {format_rational(value)}"
            for name, value in sorted(bindings.items())
        )
        trace.append(f"substitution: {bound}")
    if system.goal in bindings:
        return [(bindings[system.goal], approx)]

    first_error: SolverError | None = None
    try:
        solution = solve_linear(residual)
        solved = ", ".join(
            f"{name} = {format_rational(value)}"
            for name, value in sorted(solution.items())
        )
        partial = " (goal pinned, system underdetermined)" if len(solution) < len(
            residual.unknowns
        ) else ""
        trace.append(f"linear-elimination: {solved}{partial}")
        return [(solution[system.goal], approx)]
    except (NonLinearError, UnderdeterminedError) as err:
        first_error = err if isinstance(err, SolverError) else None

    outcomes = _branch_univariate(residual, trace, budget, approx)
    if outcomes is None:
        raise UnsolvableError() from first_error
    return outcomes


def _branch_univariate(
    residual: EquationSystem,
    trace: list[str],
    budget: _Budget,
    approx: bool,
) -> list[tuple[Fraction, bool]] | None:
    """Try each univariate residual equation; branch over the first that solves."""
    last_error: SolverError | None = None
    for index, equation in enumerate(residual.equations):
        names = free_vars(equation[0]) | free_vars(equation[1])
        if len(names) != 1:
            continue
        (var,) = names
        try:
            roots, method = _solve_univariate(equation, var)
        except SolverError as err:
            last_error = err
            continue
        rendered = ", ".join(_format_value(r) for r in roots)
        trace.append(f"{method}: {var} in {{{rendered}}}")
        rest = residual.equations[:index] + residual.equations[index + 1 :]
        collected: list[tuple[Fraction, bool]] = []
        branch_error: SolverError | None = None
        for root in roots:
            budget.spend()
            root_is_float = isinstance(root, float)
            root_value = Fraction(root) if root_is_float else root
            root_approx = approx or root_is_float
            if var == residual.goal:
                collected.append((root_value, root_approx))
                continue
            reduced = EquationSystem(
                tuple(
                    (substitute(lhs, var, Num(root_value)), substitute(rhs, var, Num(root_value)))
                    for lhs, rhs in rest
                ),
                frozenset(residual.unknowns - {var}),
                residual.goal,
            )
            if len(roots) > 1:
                trace.append(f"branch: {var} = {_format_value(root)}")
            try:
                collected.extend(_solve(reduced, trace, budget, root_approx))
            except SolverError as err:
                branch_error = err
        if collected:
            return collected
        if branch_error is not None:
            raise branch_error
        last_error = last_error or NoRealRootError()
    if last_error is not None:
        raise last_error
    return None


def solve_script(script: SolutionScript) -> SolveOutcome:
    """Convenience wrapper: build the system from a script and solve it."""
    return solve_system(EquationSystem.from_script(script))
