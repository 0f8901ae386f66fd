"""Solve an extracted equation system for its goal variable.

Strategy pipeline, cheapest first:

1. forward substitution to a fixpoint, which fully dispatches procedural
   chains (`a = 2`, `b = a + 1`, ...).  It is event-driven: a binding
   revisits only the equations that use it, evaluated under the bindings,
   so a chain costs time linear in its length in any order;
2. exact fraction-free Gauss-Jordan elimination (Bareiss) over the integers
   when the residual is linear;
3. isolating a univariate equation and branching over its roots: exact
   real-root isolation for a rational equation, cleared of denominators
   and poles, once inverse operations peel any other to a rational part.
   Every root, the goal's own too, seeds the whole pipeline on the other
   equations, which must hold too, also once the goal is bound.

All arithmetic is over `fractions.Fraction`; floats only appear for
irrational roots, powers and logarithms.  Any value derived from one is
answered as a float, and forward substitution checks a ground equation it
holds to a relative ROOT_DEDUPE_TOLERANCE; elimination stays exact.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction

from .exprs import (
    MAX_EXPONENT,
    Add,
    Div,
    Expr,
    ExprError,
    Mul,
    Neg,
    NonIntegerExponentError,
    NonLinearError,
    Num,
    Pow,
    Sub,
    Terms,
    Var,
    eval_exact,
    exact_power,
    format_rational,
    free_vars,
    linear_form,
    rational,
    rational_log,
    substitute,
)
from .parsing import SolutionScript, VarDecl
from .roots import IsolationError, real_roots

Equation = tuple[Expr, Expr]
Names = tuple[frozenset[str], frozenset[str]]  # each side's variable names

# A candidate is exact (Fraction) or approximate (float).
Value = Fraction | float

ROOT_DEDUPE_TOLERANCE = 1e-7
MAX_BRANCHES = 16

# Degree bound when expanding a univariate equation; one past it is isolated.
_MAX_POLY_DEGREE = 32


class SolverError(Exception):
    """Base class for solver failures."""


class InconsistentBindingError(SolverError):
    def __init__(self, name: str | None, old: Value, new: Value):
        target = f"'{name}'" if name else "equation"
        super().__init__(f"{target} requires {format_value(new)} but {format_value(old)} already holds")
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
    """A value too large, past the float range, with no exact value, or a
    zero divisor; the message says which, and `__cause__` keeps the error
    met."""


class UnsolvableError(SolverError):
    def __init__(self, message: str = "no solving strategy applies"):
        super().__init__(message)


@dataclass(frozen=True)
class EquationSystem:
    """Equations plus the unknowns they range over and the goal variable.

    Every equation's free variables must lie in `unknowns`.  The goal must
    be an unknown at solve entry; a residual system returned by
    forward_substitute may already have bound it.  `names` holds each
    equation's per-side variable names; a system made without them walks
    every side once to find them.  The solver reads them, and passes them on
    to the systems it derives, instead of walking the trees again.
    """

    equations: tuple[Equation, ...]
    unknowns: frozenset[str]
    goal: str
    names: tuple[Names, ...] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.names is None:
            names = tuple(
                (frozenset(free_vars(lhs)), frozenset(free_vars(rhs)))
                for lhs, rhs in self.equations
            )
            object.__setattr__(self, "names", names)
        for lhs_names, rhs_names in self.names:
            stray = (lhs_names | rhs_names) - self.unknowns
            if stray:
                raise ValueError(f"equation uses undeclared unknowns: {sorted(stray)}")

    @classmethod
    def from_script(cls, script: SolutionScript) -> "EquationSystem":
        unknowns = frozenset(
            d.name for d in script.declarations if isinstance(d, VarDecl)
        )
        equations = script.equations
        if script.goal not in unknowns:
            raise ValueError(f"goal '{script.goal}' is not an unknown")
        return cls(
            tuple((d.lhs, d.rhs) for d in equations),
            unknowns,
            script.goal,
            tuple((frozenset(d.lhs_names), frozenset(d.rhs_names)) for d in equations),
        )


@dataclass(frozen=True)
class SolveOutcome:
    """Deduplicated candidate answers, the chosen one, and the method trace."""

    candidates: tuple[Value, ...]
    selected: Value
    trace: tuple[str, ...]


def forward_substitute(
    system: EquationSystem,
    bound: dict[str, Fraction] | None = None,
    *,
    approx: bool = False,
) -> tuple[dict[str, Fraction], EquationSystem]:
    """Bind variables from directly evaluable equations, to a fixpoint.

    The bindings start as `bound`.  Whenever an equation has the shape
    `v = e` (or `e = v`) with `e` fully evaluable under the current
    bindings, bind `v` and drop the equation.  Ground equations are checked
    and dropped; a contradiction raises InconsistentBindingError.  With
    `approx` the bindings are approximate, so a ground equation holds when
    `|l - r| <= ROOT_DEDUPE_TOLERANCE * max(1, |l|, |r|)`.  Returns the
    bindings, `bound` included, and the residual system (remaining equations
    with bound variables substituted away).

    The result is that of sweeping the equations in order, round after
    round, until a round changes nothing, but only the visits that can
    change something are made.  One in-order pass visits every equation.
    After it, binding `v` while visiting equation `i` in round `r` schedules
    each pending equation `k` that uses `v` for round `r` if `k > i`, else
    for round `r + 1`, and visits run in (round, index) order.  So the
    bindings, the residual and the first error are those of the full sweep.
    A side whose variables are all bound is evaluated under the bindings;
    only the residual is rewritten, one walk per side using a binding.
    """
    bindings: dict[str, Fraction] = dict(bound or {})
    slack = Fraction(ROOT_DEDUPE_TOLERANCE) if approx else 0
    # index -> (lhs, rhs, lhs names, rhs names), in index order
    pending: dict[int, tuple[Expr, Expr, frozenset[str], frozenset[str]]] = {}
    users: dict[str, list[int]] = {}  # name -> pending equations using it
    revisits: list[tuple[int, int]] = []  # heap of (round, index)
    queued: set[int] = set()

    def visit(round_: int, index: int) -> None:
        lhs, rhs, free_lhs, free_rhs = pending[index]
        lhs_ready = free_lhs <= bindings.keys()
        rhs_ready = free_rhs <= bindings.keys()
        if lhs_ready and rhs_ready:
            left_value = eval_exact(lhs, bindings, approx=approx)
            right_value = eval_exact(rhs, bindings, approx=approx)
            gap = left_value != right_value and abs(left_value - right_value)
            if gap and gap > slack * max(1, abs(left_value), abs(right_value)):
                name = next((side.name for side in (lhs, rhs) if isinstance(side, Var)), None)
                if approx:
                    left_value, right_value = _rounded(left_value), _rounded(right_value)
                raise InconsistentBindingError(name, left_value, right_value)
            del pending[index]
            return
        if isinstance(lhs, Var) and rhs_ready:
            name, value = lhs.name, eval_exact(rhs, bindings, approx=approx)
        elif isinstance(rhs, Var) and lhs_ready:
            name, value = rhs.name, eval_exact(lhs, bindings, approx=approx)
        else:
            return
        del pending[index]
        bindings[name] = value
        for user in users.pop(name, ()):
            if user in pending and user not in queued:
                queued.add(user)
                heapq.heappush(revisits, (round_ if user > index else round_ + 1, user))

    for index, ((lhs, rhs), (free_lhs, free_rhs)) in enumerate(zip(system.equations, system.names)):
        pending[index] = (lhs, rhs, free_lhs, free_rhs)
        visit(0, index)
        if index in pending:
            for name in free_lhs | free_rhs:
                users.setdefault(name, []).append(index)
    while revisits:
        round_, index = heapq.heappop(revisits)
        queued.discard(index)
        visit(round_, index)

    def rewrite(side: Expr, free: frozenset[str]) -> tuple[Expr, frozenset[str]]:
        replaced = free & bindings.keys()
        if not replaced:
            return side, free
        return substitute(side, {name: Num(bindings[name]) for name in replaced}), free - replaced

    equations, names = [], []
    for lhs, rhs, free_lhs, free_rhs in pending.values():
        (lhs, free_lhs), (rhs, free_rhs) = rewrite(lhs, free_lhs), rewrite(rhs, free_rhs)
        equations.append((lhs, rhs))
        names.append((free_lhs, free_rhs))
    residual = EquationSystem(
        tuple(equations), frozenset(system.unknowns - bindings.keys()), system.goal, tuple(names)
    )
    return bindings, residual


def _integers(values: list[Fraction]) -> list[int]:
    """`values` scaled by the lcm of their denominators."""
    common = math.lcm(*(value.denominator for value in values))
    return [value.numerator * (common // value.denominator) for value in values]


def solve_linear(system: EquationSystem) -> dict[str, Fraction]:
    """Exact fraction-free Gauss-Jordan elimination (Bareiss 1968).

    Each row is scaled to integers by the lcm of its denominators; each
    elimination step then divides exactly by the previous pivot, so entries
    stay integers the size of minors of the scaled matrix.  Returns the full
    solution for a full-rank system.  For a rank-deficient system whose
    reduced form still pins individual variables, returns the pinned subset
    provided the goal is in it or already bound (not an unknown); otherwise
    raises UnderdeterminedError.
    Raises InconsistentError on a `0 = nonzero` row and NonLinearError if
    any equation is not linear.  The pinned values and the errors depend
    only on the row space, not on the pivots chosen.
    """
    variables = sorted(system.unknowns)
    column = {name: i for i, name in enumerate(variables)}
    width = len(variables)
    rows: list[list[int]] = []
    for lhs, rhs in system.equations:
        row = [Fraction(0)] * (width + 1)  # coefficients, then the constant
        for monomial, coeff in linear_form(lhs - rhs).items():
            row[column[monomial[0][0]] if monomial else width] = coeff
        rows.append(_integers(row))

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
            pinned[variables[col]] = Fraction(-rows[r][width], rows[r][col])

    if system.goal in pinned or system.goal not in column:
        return pinned
    raise UnderdeterminedError()


# --------------------------------------------------------------------------
# Univariate equations

def _coefficients(terms: Terms, var: str) -> list[int]:
    """Integer coefficients, lowest first, of a multiple of `terms` in `var`."""
    degree = max((monomial[0][1] if monomial else 0 for monomial in terms), default=-1)
    return _integers([terms.get(((var, k),) if k else (), Fraction(0)) for k in range(degree + 1)])


def _solve_univariate(equation: Equation, var: str) -> tuple[list[Value], str]:
    """Roots of a single-unknown equation plus the method label used.  A
    residual that is not rational is first peeled by `_isolate`."""
    part, values, inverted = equation[0] - equation[1], [(Fraction(0), False)], False
    roots: list[Value] = []
    try:
        while True:
            try:
                expansions = [(rational(part - v if v else part, _MAX_POLY_DEGREE), approx) for v, approx in values]
                break
            except NonLinearError:
                part, values, inverted = *_isolate(part, values), True
        for (numerator, _, poles), approx in expansions:
            coeffs = _coefficients(numerator, var)
            if len(coeffs) == 0:
                raise UnderdeterminedError("equation holds for every value")
            if len(coeffs) > 1:  # else a false constant identity
                found = real_roots(coeffs, _coefficients(poles, var))
                roots += map(float, found) if approx else found
    except (ExprError, IsolationError, OverflowError) as err:
        raise NumericDivergenceError(str(err)) from err
    if not roots:
        raise NoRealRootError()
    if inverted:
        return sorted(roots), "inversion"
    return roots, {2: "linear-elimination", 3: "quadratic"}.get(len(coeffs), "polynomial")


# The operand holding the unknown from its node's value v and other operand c.
_INVERSES = {
    (Add, True): Sub, (Add, False): Sub, (Mul, True): Div, (Mul, False): Div,
    (Sub, True): Add, (Sub, False): lambda v, c: c - v,
    (Div, True): lambda v, c: v / (1 / c),  # v * c, for c != 0
    (Div, False): lambda v, c: 1 / (v / c),  # c / v, for c != 0 and v != 0
}


def _isolate(part: Expr, values: list[tuple[Fraction, bool]]) -> tuple[Expr, list[tuple[Fraction, bool]]]:
    """PRESS isolation (Bundy & Welham 1981) of a non-rational `part` down
    through its next power: each step keeps the operand holding the unknown
    and maps each (value, approximate) the part must take to its operand's
    by `_inverse`.  The other operand must be exact."""
    while True:
        kind = type(part)
        if kind is Neg:
            part, values = part.child, [(-value, approx) for value, approx in values]
            continue
        left, right = (part.base, part.exponent) if kind is Pow else (part.left, part.right)
        on_left = not free_vars(right)
        if not on_left and free_vars(left):
            raise UnsolvableError("the unknown occurs in both operands of one operation")
        part, other = (left, eval_exact(right)) if on_left else (right, eval_exact(left))
        values = [new for value, approx in values for new in _inverse(kind, on_left, value, other, approx)]
        if len(values) > MAX_BRANCHES:
            raise UnsolvableError(f"root branching exceeded {MAX_BRANCHES} branches")
        if kind is Pow:
            return part, values


def _inverse(kind: type, on_left: bool, value: Fraction, c: Fraction, approx: bool) -> list[tuple[Fraction, bool]]:
    """Each real operand, with the unknown, of a node of `kind` whose other
    operand is c and whose value is `value`.  `p ^ c` takes both signs of an
    even c's root, and p >= 0 for a fractional c, as `exact_power` does;
    `c ^ p` takes the nearest fraction with a denominator up to MAX_EXPONENT
    if it checks out.  An irrational root or logarithm is a float."""
    try:
        if kind is not Pow:
            return [(eval_exact(_INVERSES[kind, on_left](Num(value), Num(c))), approx)]
        if not on_left:
            if c <= 0:
                raise UnsolvableError(f"a power of {format_rational(c)} has the unknown in its exponent")
            if value <= 0:
                return []
            power = rational_log(value) / rational_log(c)
            guess = Fraction(power).limit_denominator(MAX_EXPONENT)
            with suppress(ExprError):
                if not approx and exact_power(c, guess) == value:
                    return [(guess, False)]
            return [(Fraction(power), True)]
        even = c.denominator == 1 and c.numerator % 2 == 0
        if value < 0 and (even or c.denominator != 1):
            return []
        try:
            root = exact_power(abs(value), 1 / c)
        except NonIntegerExponentError:
            root, approx = Fraction(math.exp(rational_log(abs(value)) / c)), True
        return [(sign * root, approx) for sign in ((-1, 1) if even and root else (-1 if value < 0 else 1,))]
    except ZeroDivisionError:  # no real operand gives `value`
        return []


def solve_univariate(equation: Equation, var: str) -> list[Value]:
    """Real roots, exact (Fraction) where possible, else approximate (float):
    every real root but the poles of a rational equation of degree 1 to 32,
    cleared of denominators, or of the rational part `_isolate` peels from
    any other equation (rational roots exactly, others correctly rounded)."""
    stray = (free_vars(equation[0]) | free_vars(equation[1])) - {var}
    if stray:
        raise ValueError(f"equation is not univariate in '{var}': {sorted(stray)}")
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
            continue
        try:
            a, b = float(existing), float(value)
        except OverflowError:  # an exact value past the float range is near no float
            continue
        if abs(a - b) <= ROOT_DEDUPE_TOLERANCE * max(abs(a), abs(b)):  # relative: tiny roots stay two
            # Keep the exact representative when the two coincide.
            if isinstance(value, Fraction) and isinstance(existing, float):
                collected[i] = value
            return
    collected.append(value)


def format_value(value: Value) -> str:
    """An exact value as `format_rational` gives it, a float by its repr."""
    return format_rational(value) if isinstance(value, Fraction) else repr(value)


def _rounded(value: Fraction) -> Value:
    """An approximate value as a float, or exact past the float range."""
    try:
        return float(value)
    except OverflowError:
        return value


def _render(bindings: Iterable[tuple[str, Fraction]], approx: bool) -> str:
    """Bindings for a trace line; under `approx` each value as `_rounded` gives it."""
    show = (lambda value: format_value(_rounded(value))) if approx else format_rational
    return ", ".join(f"{name} = {show(value)}" for name, value in sorted(bindings))


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

    Every failure is a SolverError whose type is its class: UnsolvableError
    when every strategy is exhausted, or the failure a strategy met
    (inconsistency, no real root, divergence), so callers can classify it.
    Raises ValueError only for a goal that is not an unknown.
    """
    if system.goal not in system.unknowns:
        raise ValueError(f"goal '{system.goal}' is not an unknown")
    trace: list[str] = []
    candidates: list[Value] = []
    for value in _solve(system, trace, _Budget(MAX_BRANCHES), {}):
        _merge_candidate(candidates, value)
    return SolveOutcome(tuple(candidates), select_answer(candidates), tuple(trace))


def _solve(
    system: EquationSystem,
    trace: list[str],
    budget: _Budget,
    bound: dict[str, Fraction],
    approx: bool = False,
) -> list[Value]:
    """The goal's candidates given the `bound` values.  Forward substitution
    checks every equation it makes ground: exactly, or under `approx` (when
    the values are rounded, and every candidate is a float) to a relative
    ROOT_DEDUPE_TOLERANCE.  The rest are solved on; once the goal is bound
    they need only be consistent, not pin every unknown.  The trace names
    the bindings found, not those given.  The list is never empty: where
    no candidate survives, this raises.  Every failure is a SolverError: an
    expression error, or a value past the float range, is a
    NumericDivergenceError with the same message and it as the cause."""
    try:
        bindings, residual = forward_substitute(system, bound, approx=approx)
        added = [(name, value) for name, value in bindings.items() if name not in bound]
        if added:
            trace.append(f"substitution: {_render(added, approx)}")
        known = {system.goal: bindings[system.goal]} if system.goal in bindings else {}
        if residual.equations or not known:
            try:
                pinned = solve_linear(residual)
            except (NonLinearError, UnderdeterminedError) as err:
                pinned, first_error = None, err if isinstance(err, SolverError) else None
            if pinned is None:
                outcomes = _branch_univariate(residual, trace, budget, approx, known)
                if outcomes is not None:
                    return outcomes
                if not known:
                    raise UnsolvableError() from first_error
            elif not known:  # else the rest is only checked
                partial = " (goal pinned, system underdetermined)" if len(pinned) < len(residual.unknowns) else ""
                trace.append(f"linear-elimination: {_render(pinned.items(), approx)}{partial}")
                bindings = pinned
        value = bindings[system.goal]
        return [float(value) if approx else value]
    except (ExprError, OverflowError) as err:
        raise NumericDivergenceError(str(err)) from err


def _branch_univariate(
    residual: EquationSystem,
    trace: list[str],
    budget: _Budget,
    approx: bool,
    known: dict[str, Fraction],
) -> list[Value] | None:
    """Try each univariate residual equation; branch over the first that
    solves.  Each root, the goal's own too, seeds a solve of the other
    equations, with the `known` goal value if the goal is bound."""
    last_error: SolverError | None = None
    univariate = [(i, *(left | right)) for i, (left, right) in enumerate(residual.names) if len(left | right) == 1]
    for index, var in univariate:
        try:
            roots, method = _solve_univariate(residual.equations[index], var)
        except SolverError as err:
            last_error = err
            continue
        rendered = ", ".join(format_value(r) for r in roots)
        trace.append(f"{method}: {var} in {{{rendered}}}")
        rest = EquationSystem(
            residual.equations[:index] + residual.equations[index + 1 :],
            residual.unknowns,
            residual.goal,
            residual.names[:index] + residual.names[index + 1 :],
        )
        collected: list[Value] = []
        branch_error: SolverError | None = None
        for root in roots:
            budget.spend()
            if var != residual.goal and len(roots) > 1:
                trace.append(f"branch: {var} = {format_value(root)}")
            try:
                collected += _solve(rest, trace, budget, known | {var: Fraction(root)}, approx or isinstance(root, float))
            except SolverError as err:
                branch_error = err
        if collected:
            return collected
        raise branch_error  # roots is never empty, so each root's _solve raised
    if last_error is not None:
        raise last_error
    return None


def solve_script(script: SolutionScript) -> SolveOutcome:
    """Convenience wrapper: build the system from a script and solve it."""
    return solve_system(EquationSystem.from_script(script))
