"""Exact expression trees: build, evaluate, substitute, render.

Every quantity is a `fractions.Fraction` unless a computation is forced
through an irrational step, so arithmetic never drifts.  Run with:

    python3 demos/01_expressions.py
"""

from fractions import Fraction

from declsolve import Num, Var, eval_exact, free_vars, linear_form, render, substitute

# Operator sugar builds the same frozen trees as the explicit constructors.
x, y = Var("x"), Var("y")
price = (x * 3 + y / 2) - Num(Fraction(1, 4))

print("expression:", render(price))
print("variables: ", sorted(free_vars(price)))

# Evaluation is exact: thirds and quarters never become 0.33333….
value = eval_exact(price, {"x": Fraction(1, 3), "y": Fraction(5, 2)})
print("value at x=1/3, y=5/2:", value)
assert value == Fraction(2)

# Substitution is structural — the result is a new tree, ready to render.
# It takes a mapping and replaces every name in it in one walk.
partial = substitute(price, {"y": Num(4)})
print("after y := 4:", render(partial))

# Linear expressions expand into terms, {monomial: coefficient} with the
# constant under the empty monomial (), which the elimination solver reads
# into a row.
print("linear terms:", linear_form(price))

# Exponents stay exact too: (3/2)^3 is 27/8, not 3.375-ish.
cube = Var("t") ** 3
print("t^3 at t=3/2:", eval_exact(cube, {"t": Fraction(3, 2)}))
