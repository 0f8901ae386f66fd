import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from declsolve.client import Live
from declsolve.evaluation import CORRECT, PARSE_FAILURE, Problem, RunConfig, run_problem
from declsolve.exprs import MAX_POWER_BITS, Add, Div, Mul, Neg, Num, Pow, Sub, Var, render
from declsolve.parsing import (
    DuplicateDeclarationError,
    EqDecl,
    ExprSyntaxError,
    GoalDecl,
    GoalNotLastError,
    MultipleEqualsError,
    NoDeclarationsError,
    NoGoalError,
    ParseError,
    ReservedIdentifierError,
    ScriptError,
    SolutionScript,
    UndeclaredVariableError,
    UnterminatedBracketError,
    VarDecl,
    build_script,
    check_principles,
    extract_brackets,
    parse_declaration,
    parse_expression,
    render_script,
    script_from_transcript,
)
from declsolve.prompts import spec_for_variant
from declsolve.solver import solve_script


def record_for(transcript, gold=Fraction(0)):
    """The record of a one-problem run whose completion is `transcript`."""

    def transport(url, payload, headers, timeout):
        return 200, json.dumps({"choices": [{"text": transcript}]})

    problem = Problem("p1", "Q?", gold)
    return run_problem(
        problem, spec_for_variant("declarative_principles"), RunConfig(model="m"),
        Live("https://example.invalid"), transport=transport,
    )


# --- expression grammar ------------------------------------------------------

def test_precedence():
    assert parse_expression("1 + 2 * 3") == Add(Num(1), Mul(Num(2), Num(3)))
    assert parse_expression("1 * 2 + 3") == Add(Mul(Num(1), Num(2)), Num(3))
    assert parse_expression("2 ^ 3 * 4") == Mul(Pow(Num(2), Num(3)), Num(4))


def test_left_associativity():
    assert parse_expression("1 - 2 - 3") == Sub(Sub(Num(1), Num(2)), Num(3))
    assert parse_expression("8 / 4 / 2") == Div(Div(Num(8), Num(4)), Num(2))


def test_power_is_right_associative():
    assert parse_expression("2 ^ 3 ^ 2") == Pow(Num(2), Pow(Num(3), Num(2)))


def test_unary_minus_binds_tighter_than_multiplication():
    assert parse_expression("-2 * 3") == Mul(Neg(Num(2)), Num(3))
    assert parse_expression("2 * -3") == Mul(Num(2), Neg(Num(3)))
    assert parse_expression("--x") == Neg(Neg(Var("x")))
    # but looser than ^ : -2^2 is -(2^2)
    assert parse_expression("-2 ^ 2") == Neg(Pow(Num(2), Num(2)))


def test_parentheses_override():
    assert parse_expression("(1 + 2) * 3") == Mul(Add(Num(1), Num(2)), Num(3))


def test_decimals_parse_exactly():
    assert parse_expression("0.25") == Num(Fraction(1, 4))
    assert parse_expression("3.50") == Num(Fraction(7, 2))


@pytest.mark.parametrize(
    "numeral",
    ["7" * 4300, "7" * 5000, "0." + "0" * 4300 + "1", "0." + "9" * 2200],
    ids=["4300-digits", "5000-digits", "4300-zero-fraction", "2200-place-fraction"],
)
def test_numerals_over_the_size_budget_are_syntax_errors(numeral):
    """A numeral is held to MAX_POWER_BITS before int() sees it, so none
    reaches CPython's 4,300-digit limit on int-from-string."""
    with pytest.raises(ExprSyntaxError) as info:
        parse_expression(numeral, offset=5)
    assert info.value.position == 5
    assert str(info.value).startswith(
        f"syntax error at position 5: expected a numeral of at most {MAX_POWER_BITS} bits"
    )
    record = record_for(f"[[var a]] [[a = {numeral}]] [[answer = a]]")
    assert record.verdict == PARSE_FAILURE
    assert "numeral of at most" in record.detail


@pytest.mark.parametrize("places", [0, 1, 1000, 2107])
def test_the_longest_numerals_fit_the_size_budget(places):
    """The most digits a numeral may have, with `places` decimal places,
    give a value within MAX_POWER_BITS; one more digit is refused."""
    def numeral(whole):
        return ("9" * whole or "0") + ("." + "9" * places if places else "")

    whole = 4214 - 2 * places
    value = parse_expression(numeral(whole)).value
    assert value.numerator.bit_length() + value.denominator.bit_length() <= MAX_POWER_BITS
    with pytest.raises(ExprSyntaxError):
        parse_expression(numeral(whole + 1))


def test_numerals_within_the_size_budget_parse_exactly():
    assert parse_expression("0" * 5000 + "7") == Num(7)
    assert parse_expression("1." + "0" * 4300) == Num(1)
    assert parse_expression("0." + "0" * 2000 + "1") == Num(Fraction(1, 10**2001))
    big = int("7" * 4200)
    assert parse_expression("7" * 4200) == Num(big)
    record = record_for(f"[[var a]] [[a = {'7' * 4200}]] [[answer = a]]", gold=Fraction(big))
    assert record.verdict == CORRECT and record.predicted == big


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse_expression("2 x")
    with pytest.raises(ExprSyntaxError):
        parse_expression("2(3)")


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expression("1 + ")
    assert info.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse_expression("(1 + 2")
    with pytest.raises(ExprSyntaxError):
        parse_expression("* 3")
    with pytest.raises(ExprSyntaxError):
        parse_expression("1 $ 2")


# --- brackets and declarations ----------------------------------------------

def test_extract_brackets_spans():
    text = "intro [[var x]] middle [[x = 3]] end"
    got = extract_brackets(text)
    assert [raw for raw, _ in got] == ["var x", "x = 3"]
    (_, span0), (_, span1) = got
    assert text[span0[0] : span0[1]] == "[[var x]]"
    assert text[span1[0] : span1[1]] == "[[x = 3]]"


def test_unterminated_bracket():
    with pytest.raises(UnterminatedBracketError):
        extract_brackets("start [[var x")


def test_parse_declaration_forms():
    assert parse_declaration("var total") == VarDecl("total")
    decl = parse_declaration("x + y = 12")
    assert decl == EqDecl(Add(Var("x"), Var("y")), Num(12))
    assert parse_declaration("answer = x") == GoalDecl("x")


def test_parse_declaration_rejects_garbage():
    with pytest.raises(ExprSyntaxError):
        parse_declaration("var")
    with pytest.raises(ExprSyntaxError):
        parse_declaration("var x y")
    with pytest.raises(ExprSyntaxError):
        parse_declaration("var 3")
    with pytest.raises(MultipleEqualsError):
        parse_declaration("x = y = 3")
    with pytest.raises(ExprSyntaxError):
        parse_declaration("answer = x + 1")  # goal must name a variable


def test_script_structure_errors_carry_principles():
    # no goal
    with pytest.raises(NoGoalError) as info:
        build_script([VarDecl("x"), EqDecl(Var("x"), Num(1))])
    assert info.value.principle == 2
    # goal not last
    with pytest.raises(GoalNotLastError):
        build_script([VarDecl("x"), GoalDecl("x"), EqDecl(Var("x"), Num(1))])
    # forward reference
    with pytest.raises(UndeclaredVariableError) as info:
        build_script([VarDecl("x"), EqDecl(Var("x"), Var("y")), GoalDecl("x")])
    assert info.value.principle == 3
    # duplicate introduction
    with pytest.raises(DuplicateDeclarationError) as info:
        build_script([VarDecl("x"), VarDecl("x"), GoalDecl("x")])
    assert info.value.principle == 4
    # reserved name
    with pytest.raises(ReservedIdentifierError):
        build_script([VarDecl("answer"), GoalDecl("answer")])


@pytest.mark.parametrize("transcript", [
    "[[var x]] [[x = 1]] [[answer = x]]",
    "[[var x]] [[x = 1 +]] [[answer = x]]",
    "[[var x]] [[x = 1]] [[answer = x",
    "[[var x]] [[x = 1]]",
    "[[var x]] [[answer = x]] [[x = 1]]",
    "[[var x]] [[x = y]] [[answer = x]]",
    "[[var x]] [[var x]] [[answer = x]]",
    "[[var answer]] [[answer = answer]]",
])
def test_declarations_and_errors_carry_no_span(transcript):
    """Rule messages name no place, and a syntax error's offset is in its
    message and `position`: nothing holds a bracket's span."""
    try:
        items = script_from_transcript(transcript).declarations
    except (ParseError, ScriptError) as err:
        items = [err]
    for item in items:
        assert not hasattr(item, "span"), item


def test_var_is_an_ordinary_name_and_only_answer_is_reserved():
    """`var` opens a declaration only as the first word of a bracket; as a
    name it parses, binds and solves like any other."""
    script = script_from_transcript("[[var var]] [[var = 3]] [[answer = var]]")
    assert script.declarations[:2] == (VarDecl("var"), EqDecl(Var("var"), Num(3)))
    assert script.goal == "var"
    assert solve_script(script).selected == 3
    assert parse_expression("var * 2") == Mul(Var("var"), Num(2))
    with pytest.raises(ReservedIdentifierError):
        script_from_transcript("[[var answer]] [[var x]] [[x = 3]] [[answer = x]]")


def test_goal_must_reference_declared_variable():
    with pytest.raises(UndeclaredVariableError):
        build_script([VarDecl("x"), EqDecl(Var("x"), Num(1)), GoalDecl("y")])


def test_script_from_transcript():
    text = (
        "Let [[var x]] be a number and [[var y]] another. "
        "Then [[x + y = 12]] and [[x - y = 4]]. So [[answer = x]]."
    )
    script = script_from_transcript(text)
    assert script.goal == "x"
    assert script.variables == ("x", "y")
    assert len(script.equations) == 2


def test_transcript_without_brackets_is_a_parse_failure():
    with pytest.raises(NoDeclarationsError):
        script_from_transcript("There are no declarations here, just 42.")


def test_render_script_round_trips():
    text = "[[var x]] [[var y]] [[x + y = 12]] [[x - y = 4]] [[answer = x]]"
    script = script_from_transcript(text)
    rendered = render_script(script)
    assert rendered.splitlines() == [
        "var x",
        "var y",
        "(x + y) = 12",
        "(x - y) = 4",
        "answer = x",
    ]
    reparsed = script_from_transcript(
        " ".join(f"[[{line}]]" for line in rendered.splitlines())
    )
    assert reparsed == script


# --- question numbers and principles ------------------------------------------

def test_check_principles_dedupes_and_keeps_first_occurrence_order():
    script = script_from_transcript("[[var x]] [[x = 4]] [[answer = x]]")
    question = "He paid 1,200 twice: 1,200 at 15% interest, then 1200.0 and 15."
    assert check_principles(script, question) == (Fraction(1200), Fraction(15))
    # 15% is used as 0.15; its later plain 15 is a duplicate, not a new number
    script = script_from_transcript("[[var x]] [[x = 0.15]] [[answer = x]]")
    assert check_principles(script, question) == (Fraction(1200),)


def test_check_principles_skips_a_numeral_past_the_script_bound():
    question = f"Tom has {'7' * 5000} apples and 3 pears, {'0' * 5000}3 in all."
    script = script_from_transcript("[[var x]] [[x = 4]] [[answer = x]]")
    assert check_principles(script, question) == (Fraction(3),)


def test_check_principles_warns_on_unused_numbers():
    script = script_from_transcript("[[var x]] [[x = 4]] [[answer = x]]")
    unused = check_principles(script, "Tom has 4 apples and 3 pears. How many apples?")
    assert unused == (Fraction(3),)
    assert check_principles(script, "Tom has 4 and 3.") == (Fraction(3),)


def test_check_principles_percent_alias_counts_as_used():
    script = script_from_transcript(
        "[[var p]] [[var s]] [[s = p - 0.30 * p]] [[s = 84]] [[answer = p]]"
    )
    assert check_principles(script, "A 30% discount brings the price to 84.") == ()
    # the alias N/100 is accepted only after a '%'
    assert check_principles(script, "A 30 discount brings the price to 84.") == (Fraction(30),)


def test_transcript_errors_map_to_principles():
    # syntax failure inside a bracket -> principle 1
    with pytest.raises(ExprSyntaxError) as info:
        script_from_transcript("[[var x]] [[x ++ = 3]] [[answer = x]]")
    assert info.value.principle == 1
    # structural failure keeps its own principle
    with pytest.raises(NoGoalError) as info:
        script_from_transcript("[[var x]] [[x = 3]]")
    assert info.value.principle == 2


def test_transcript_stages_ok_path():
    script = script_from_transcript("[[var x]] [[x = 12]] [[answer = x]]")
    assert script.goal == "x"
    assert check_principles(script, "What is 12?") == ()


# --- the grammar round-trip property ------------------------------------------

identifiers = st.sampled_from(["x", "y", "zed", "total_9"])
literals = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(Num),
    st.builds(
        lambda whole, frac: Num(Fraction(f"{whole}.{frac}")),
        st.integers(min_value=0, max_value=999),
        st.integers(min_value=0, max_value=999),
    ),
)


@st.composite
def parser_image_exprs(draw, depth=5):
    """Trees the renderer can print and the parser can read back verbatim."""
    if depth == 0:
        return draw(st.one_of(literals, identifiers.map(Var)))
    kind = draw(st.integers(min_value=0, max_value=7))
    if kind == 0:
        return draw(literals)
    if kind == 1:
        return Var(draw(identifiers))
    if kind == 2:
        return Neg(draw(parser_image_exprs(depth=depth - 1)))
    if kind == 7:
        return Pow(
            draw(parser_image_exprs(depth=depth - 1)),
            draw(parser_image_exprs(depth=depth - 1)),
        )
    ctor = {3: Add, 4: Sub, 5: Mul, 6: Div}[kind]
    return ctor(
        draw(parser_image_exprs(depth=depth - 1)),
        draw(parser_image_exprs(depth=depth - 1)),
    )


@given(parser_image_exprs())
def test_parse_render_round_trip(e):
    assert parse_expression(render(e)) == e
