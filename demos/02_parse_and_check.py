"""From model prose to a checked solution script.

A transcript interleaves natural language with bracketed declarations:
`[[var x]]` introduces a variable, `[[lhs = rhs]]` states an equation,
and `[[answer = x]]` names the goal.  This demo extracts the brackets,
builds a script, and shows how the structural rules are enforced.

    python3 demos/02_parse_and_check.py
"""

from declsolve import (
    ScriptError,
    check_principles,
    extract_brackets,
    render_script,
    script_from_transcript,
    solve_script,
)

transcript = (
    "Maya sells lemonade at 3 dollars a cup. Let [[var cups]] be the cups sold "
    "and [[var total]] the revenue, so [[total = 3 * cups]]. She sold "
    "[[cups = 12 + 8]] cups over two days, giving [[answer = total]]."
)

print("brackets found:")
for body, _span in extract_brackets(transcript):
    print("  ", body)

script = script_from_transcript(transcript)
print("\nscript:")
print(render_script(script))

# --- the structural rules -------------------------------------------------
#
# 1. every bracket is a declaration: `var x`, an equation, or the answer
# 2. the answer declaration comes last, exactly once
# 3. equations only mention variables already introduced
# 4. no variable is introduced twice
# 5. every number in the question should appear in some equation (warning)
#
# Rules 1-4 are checked as the script is built: `script_from_transcript`
# raises a ParseError or ScriptError whose `principle` is the rule broken.
# Rule 5 only warns: `check_principles` returns the unused question numbers.

question = "Cups cost 3 dollars. Maya sold 12 cups, then 8 more. Revenue?"
print("all rules satisfied:", check_principles(script, question) == ())

# A forward reference trips rule 3 — `spent` is used before it exists.
bad = "Start from [[var left]] with [[left = 50 - spent]]. Then [[var spent]], [[spent = 20]], [[answer = left]]."
try:
    script_from_transcript(bad)
except ScriptError as err:
    print(f"rule {err.principle} violated: {err}")

# Unused question numbers only warn — the script is still solvable.
lazy = script_from_transcript("Take [[var n]] where [[n = 6 * 7]], then [[answer = n]].")
unused = check_principles(lazy, "Multiply 6 by 7. Ignore 100. Result?")
print("unused numbers:", [str(n) for n in unused])
print("solves despite the warning:", solve_script(lazy).selected)
