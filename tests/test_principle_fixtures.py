"""Fixture transcripts, each seeding one known rule violation (or none).

The checker must flag exactly the seeded violations — nothing more,
nothing less.  Rule numbers: 1 declaration shape, 2 goal placement,
3 no forward references, 4 no duplicate introductions, 5 all question
numbers used (warning only).
"""

from fractions import Fraction

import pytest

from declsolve.parsing import ParseError, ScriptError, check_principles, script_from_transcript

# name -> (transcript, question, expected failure rules, expected warning rules)
FIXTURES = {
    "clean_chain": (
        "Let [[var a]] be 3: [[a = 3]]. Then [[var b]] with [[b = a * 4 + 2]]. "
        "Finally [[answer = b]].",
        "Start with 3, multiply by 4, add 2. Result?",
        [],
        [],
    ),
    "clean_simultaneous": (
        "Let [[var x]] and [[var y]]. [[x + y = 12]]. [[x - y = 4]]. [[answer = x]].",
        "Two numbers sum to 12 and differ by 4. The larger?",
        [],
        [],
    ),
    "clean_percent_alias": (
        "[[var p]] [[var s]] [[s = p - 0.30 * p]] [[s = 84]] [[answer = p]]",
        "A 30% discount brings the price to 84 dollars. Original price?",
        [],
        [],
    ),
    "clean_commas": (
        "[[var c]] [[c = 1200 / 4]] [[answer = c]]",
        "Split 1,200 four ways. Each share?",
        [],
        [],
    ),
    "syntax_garbage_expression": (
        "[[var x]] [[x ++ = 3]] [[answer = x]]",
        "",
        [1],
        [],
    ),
    "syntax_chained_equals": (
        "[[var x]] [[x = x = 3]] [[answer = x]]",
        "",
        [1],
        [],
    ),
    "syntax_bad_var_declaration": (
        "[[var 3x]] [[answer = x]]",
        "",
        [1],
        [],
    ),
    "syntax_goal_expression": (
        "[[var x]] [[x = 3]] [[answer = x + 1]]",
        "",
        [1],
        [],
    ),
    "no_brackets_at_all": (
        "The answer is clearly 42, no formalization needed.",
        "",
        [1],
        [],
    ),
    "unterminated_bracket": (
        "Let [[var x be a number.",
        "",
        [1],
        [],
    ),
    "missing_goal": (
        "[[var x]] [[x = 3]]",
        "",
        [2],
        [],
    ),
    "goal_not_last": (
        "[[var x]] [[answer = x]] [[x = 3]]",
        "",
        [2],
        [],
    ),
    "reserved_name_introduced": (
        "[[var answer]] [[var x]] [[x = 2]] [[answer = x]]",
        "",
        [2],
        [],
    ),
    "reserved_name_in_equation": (
        "[[var x]] [[answer + 1 = x]] [[answer = x]]",
        "",
        [2],
        [],
    ),
    "goal_names_undeclared_variable": (
        "[[var x]] [[x = 1]] [[answer = y]]",
        "",
        [3],
        [],
    ),
    "forward_reference": (
        "[[var x]] [[x = y + 1]] [[var y]] [[y = 2]] [[answer = x]]",
        "",
        [3],
        [],
    ),
    "equation_before_introduction": (
        "[[x = 3]] [[var x]] [[answer = x]]",
        "",
        [3],
        [],
    ),
    "duplicate_introduction": (
        "[[var x]] [[var x]] [[x = 3]] [[answer = x]]",
        "",
        [4],
        [],
    ),
    "one_unused_number": (
        "[[var a]] [[a = 4]] [[answer = a]]",
        "Tom has 4 apples and 3 pears. How many apples?",
        [],
        [5],
    ),
    "two_unused_numbers": (
        "[[var a]] [[a = 4]] [[answer = a]]",
        "With 4 apples, 3 pears and 9 plums, how many apples?",
        [],
        [5, 5],
    ),
}


def stages(transcript, question):
    """The two stages of a check: the error that stops `script_from_transcript`,
    or else the question numbers that `check_principles` finds unused."""
    try:
        script = script_from_transcript(transcript)
    except (ParseError, ScriptError) as err:
        return err
    return check_principles(script, question)


def flagged(result):
    """The failed and the warned rules of a `stages` result: the rule of the
    error that stopped the parse, or a 5 per unused number."""
    if isinstance(result, tuple):
        return [], [5] * len(result)
    return [result.principle], []


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_flags_exactly_the_seeded_violations(name):
    transcript, question, expected_failures, expected_warnings = FIXTURES[name]
    result = stages(transcript, question)
    assert flagged(result) == (expected_failures, expected_warnings)
    assert isinstance(result, (ParseError, ScriptError)) == bool(expected_failures)


def test_fixture_suite_is_large_enough():
    assert len(FIXTURES) >= 15
    # every rule appears as a seeded violation somewhere
    seeded = {p for _, _, fails, warns in FIXTURES.values() for p in fails + warns}
    assert seeded == {1, 2, 3, 4, 5}


def test_unused_numbers_are_reported_with_their_face_values():
    result = stages(
        "[[var a]] [[a = 4]] [[answer = a]]",
        "With 4 apples, 3 pears and 9 plums, how many apples?",
    )
    assert result == (Fraction(3), Fraction(9))
