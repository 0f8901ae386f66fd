"""The never-abort contract: any completion text becomes a record, quickly.

`run_problem` turns per-problem failures into verdicts.  These tests send
generated transcripts through it, as a live completion, under every prompt
variant, and require an `EvalRecord` within 1 s for each, with no exception
escaping and a typed verdict: none that the last-resort handler made from an
unexpected error.  Beneath them, the solver fails only as a `SolverError`.
"""

import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from declsolve.client import Live
from declsolve.evaluation import VERDICTS, EvalRecord, Problem, RunConfig, run_problem
from declsolve.parsing import MAX_NESTING, ParseError, ScriptError, script_from_transcript
from declsolve.prompts import VARIANTS, spec_for_variant
from declsolve.solver import SolverError, solve_script

SPECS = {variant: spec_for_variant(variant) for variant in VARIANTS}
CONFIG = RunConfig(model="contract-model")
QUESTION = "Tom has 3 apples and buys 12 more at 0.5 dollars each. How many?"


def record_of(transcript, variant, question=QUESTION):
    def transport(url, payload, headers, timeout):
        return 200, json.dumps({"choices": [{"text": transcript}]})

    problem = Problem("p1", question, Fraction(15))
    start = time.perf_counter()
    record = run_problem(
        problem, SPECS[variant], CONFIG, Live("https://example.invalid"), transport=transport
    )
    elapsed = time.perf_counter() - start
    assert isinstance(record, EvalRecord)
    assert record.verdict in VERDICTS
    # A typed verdict, not the last-resort one that names an unexpected error.
    assert not re.match(r"[A-Z]\w*(Error|Exception): ", record.detail), record.detail
    assert elapsed < 1, f"{elapsed:.2f} s"
    return record


# --- transcripts from the grammar -----------------------------------------------

NAMES = ["a", "b", "total", "x_1"]
numerals = st.one_of(
    st.integers(0, 1000).map(str),
    st.tuples(st.integers(0, 99), st.integers(0, 99)).map(lambda t: f"{t[0]}.{t[1]}"),
)


def expressions(names):
    return st.recursive(
        st.one_of(st.sampled_from(names), numerals),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map(" ".join),
            inner.map(lambda text: f"({text})"),
            inner.map(lambda text: f"-{text}"),
        ),
        max_leaves=8,
    )


@st.composite
def grammar_transcripts(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    statements = [f"[[var {name}]]" for name in names]
    for _ in range(draw(st.integers(1, 3))):
        statements.append(f"[[{draw(expressions(names))} = {draw(expressions(names))}]]")
    if draw(st.integers(0, 9)) == 0:  # now and then out of order
        statements = draw(st.permutations(statements))
    goal = draw(st.sampled_from(names + ["nobody"]))
    prose = draw(st.sampled_from(["", " So ", ". Then "]))
    return prose.join(statements) + f" The answer: [[answer = {goal}]]."


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grammar_transcripts())
def test_grammar_transcripts_become_records(variant, transcript):
    record_of(transcript, variant)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grammar_transcripts())
def test_a_parsed_script_solves_or_fails_as_a_solver_error(transcript):
    try:
        script = script_from_transcript(transcript)
    except (ParseError, ScriptError):
        return
    try:
        solve_script(script)
    except SolverError:
        pass


# --- adversarial transcripts --------------------------------------------------------


def flat(operator, terms, term="1"):
    return f"[[var x]] [[x = {f' {operator} '.join([term] * terms)}]] [[answer = x]]"


def nested(form):
    depth = MAX_NESTING + 1
    body = {
        "parens": "(" * depth + "2" + ")" * depth,
        "power-tower": " ^ ".join(["1"] * (depth + 1)),
        "unary-minus": "-" * depth + "2",
    }[form]
    return f"[[var x]] [[x = {body}]] [[answer = x]]"


def numeral(digits, leading_zeros, decimals):
    text = "0" * leading_zeros + "7" * digits + ("." + "3" * decimals if decimals else "")
    return f"[[var x]] [[x = {text}]] [[answer = x]]"


# Equations the solver isolates: a constant power with no exact value, a
# logarithm of a number past the float range, one to a base near 1, a
# power past the degree bound, an irrational root scaled past the float
# range, and exact and float roots, one of them past the float range.
ISOLATION_PROBES = [
    "[[var a]] [[a + a = 2 ^ 2 ^ 10.1]] [[answer = a]]",
    "[[var x]] [[2 ^ x = 10 ^ 400]] [[answer = x]]",
    "[[var x]] [[1.0001 ^ x = 10 ^ 300]] [[answer = x]]",
    "[[var x]] [[x ^ 40 = 5]] [[answer = x]]",
    "[[var x]] [[var y]] [[x * x = 2]] [[y = x * 10 ^ 400]] [[answer = y]]",
    "[[var x]] [[x * (x ^ 2 - 2) * (x - 10 ^ 400) = 0]] [[answer = x]]",
]

adversarial_transcripts = st.one_of(
    st.sampled_from(ISOLATION_PROBES),
    st.builds(flat, st.sampled_from(["+", "-", "*"]), st.integers(1000, 5000)),
    st.builds(flat, st.just("*"), st.integers(1000, 5000), st.sampled_from(["2", "x", "1.5"])),
    st.builds(nested, st.sampled_from(["parens", "power-tower", "unary-minus"])),
    st.builds(
        numeral, st.integers(1, 6000), st.sampled_from([0, 10, 5000]), st.sampled_from([0, 5, 3000])
    ),
    # unbalanced brackets and stray characters around a sound script
    st.builds(
        lambda junk, at: (lambda text: text[:at] + junk + text[at:])(
            "[[var x]] [[x = (1 + 2) * 3]] [[answer = x]]"
        ),
        st.sampled_from(["[[", "]]", "[", "(", ")", "$", "\x00", "é", "[[x = ", "=", "\n"]),
        st.integers(0, 44),
    ),
    st.text(alphabet="[]()=+-*/^ .0123456789xvar", max_size=200),
)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(adversarial_transcripts)
@example(ISOLATION_PROBES[0])
@example(ISOLATION_PROBES[1])
@example(ISOLATION_PROBES[2])
@example(ISOLATION_PROBES[3])
@example(ISOLATION_PROBES[4])
@example(ISOLATION_PROBES[5])
def test_adversarial_transcripts_become_records(variant, transcript):
    record_of(transcript, variant)


# Past CPython's 4,300-digit limit on int() of a string, and past the bound
# a script numeral is held to.
HUGE = "7" * 5000
SOUND = "[[var x]] [[x = 3]] [[answer = x]]"


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize(
    "question, transcript",
    [(QUESTION, f"{SOUND}\nSo the answer is {HUGE}."), (f"Tom has {HUGE} apples.", SOUND)],
    ids=["huge-final-number", "huge-question-number"],
)
def test_huge_numerals_become_records(variant, question, transcript):
    record_of(transcript, variant, question)
