"""From model prose to a checked solution script.

A transcript interleaves natural language with bracketed declarations:
`[[var x]]` introduces a variable, `[[lhs = rhs]]` states an equation,
and `[[answer = x]]` names the goal.  This demo extracts the brackets,
builds a script, and shows how the structural rules are enforced.

    python3 demos/02_parse_and_check.py
"""

from declsolve import check_transcript, extract_brackets, render_script, script_from_transcript

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

question = "Cups cost 3 dollars. Maya sold 12 cups, then 8 more. Revenue?"
result = check_transcript(transcript, question)
print("all rules satisfied:", result.error is None and not result.unused_question_numbers)

# A forward reference trips rule 3 — `spent` is used before it exists.
bad = "Start from [[var left]] with [[left = 50 - spent]]. Then [[var spent]], [[spent = 20]], [[answer = left]]."
result = check_transcript(bad, "You have 50 and spend 20. What is left?")
print(f"rule {result.error.principle} violated: {result.error}")

# Unused question numbers only warn — the script is still solvable.
lazy = "Take [[var n]] where [[n = 6 * 7]], then [[answer = n]]."
result = check_transcript(lazy, "Multiply 6 by 7. Ignore 100. Result?")
print("ok despite warning:", result.error is None)
print("unused numbers:", [str(n) for n in result.unused_question_numbers])
