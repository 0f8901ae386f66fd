"""The exact solver, from trivial substitution chains to branching roots.

Three stages, each tried in turn on whatever remains unsolved:
forward substitution of `x = <evaluable>` bindings, exact Gaussian
elimination over the rationals, and univariate isolation (exact roots for
any rational equation, and for the rational part that inverse operations
peel from any other).

    python3 demos/03_solve_systems.py
"""

from declsolve import script_from_transcript, solve_script, solve_system
from declsolve.solver import EquationSystem
from declsolve.exprs import Num, Var

# --- a word-problem script, end to end -------------------------------------

script = script_from_transcript(
    "Two numbers [[var x]] and [[var y]] satisfy [[x + y = 12]] and "
    "[[x - y = 4]]; report [[answer = x]]."
)
outcome = solve_script(script)
print("answer:", outcome.selected)
print("trace:")
for step in outcome.trace:
    print("  ", step)

# --- quadratics branch; the selection rule picks one candidate --------------

script = script_from_transcript(
    "A square field has [[var area]] with [[area = 144]]. Its side "
    "[[var side]] satisfies [[side ^ 2 = area]]. How long? [[answer = side]]"
)
outcome = solve_script(script)
print("\ncandidates:", outcome.candidates, "-> selected", outcome.selected)

# Preference order: exact over approximate, then nonnegative, then
# integer-valued, then smallest magnitude.  Both roots survive to the
# candidate list so the caller can see what was discarded.

# --- systems can be built directly, without a transcript --------------------

x, y, z = Var("x"), Var("y"), Var("z")
system = EquationSystem(
    equations=(
        (x + y + z, Num(6)),
        (x * 2 - y, Num(0)),
        (z - x, Num(1)),
    ),
    unknowns=frozenset({"x", "y", "z"}),
    goal="z",
)
outcome = solve_system(system)
print("\nthree unknowns, goal z:", outcome.selected)
for step in outcome.trace:
    print("  ", step)

# --- rational equations are cleared of denominators and solved exactly -----

n = Var("n")
system = EquationSystem(((n + Num(2) / n, Num(3)),), frozenset({"n"}), "n")
outcome = solve_system(system)
print("\nn + 2/n = 3 ->", outcome.candidates, outcome.trace)

# --- a variable exponent is not rational: inverse operations isolate it ------

outcome = solve_script(script_from_transcript("[[var n]] [[1000 * 1.05 ^ n = 2000]] [[answer = n]]"))
print("1000 * 1.05 ^ n = 2000 ->", outcome.candidates, outcome.trace)

# --- every root is checked against every other equation ---------------------

# A rounded root passes a check whose two sides agree to a relative 1e-7:
# the restatement x * x = 2 keeps both irrational roots, where x ^ 3 = 5 in
# its place would reject both (InconsistentBindingError).
outcome = solve_script(script_from_transcript(
    "[[var x]] [[var y]] [[x ^ 2 = 2]] [[x * x = 2]] [[y = x + 1]] [[answer = y]]"
))
print("\nx ^ 2 = 2, x * x = 2, y = x + 1 ->", outcome.candidates)
for step in outcome.trace:
    print("  ", step)
