"""The never-abort contract: any completion text becomes a record, quickly.

`run_problem` turns per-problem failures into verdicts.  These tests send
generated transcripts through it, as a live completion, under every prompt
variant, and require an `EvalRecord` within 1 s for each, with no exception
escaping and a typed verdict: none that the last-resort handler made from an
unexpected error.  Beneath them, the solver fails only as a `SolverError`.
Above them, `run_eval` writes one record line per problem for any
completion text.
"""

import json
import re
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from declsolve.client import CompletionRequest, Live, Replay, fingerprint, is_utf8_text
from declsolve.evaluation import CLIENT_FAILURE, VERDICTS, EvalRecord, Problem, RunConfig, run_eval, run_problem
from declsolve.parsing import MAX_NESTING, ParseError, ScriptError, script_from_transcript
from declsolve.prompts import VARIANTS, assemble_prompt, spec_for_variant
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


# --- the records file ---------------------------------------------------------------

# Any code point, lone surrogates too: Hypothesis leaves them out unless
# asked, and json.loads reads one from an escape like "\\ud83d".
any_character = st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr))
completion_texts = st.one_of(
    st.text(any_character, max_size=60),
    st.builds(
        lambda text, junk, at: text[:at] + junk + text[at:],
        grammar_transcripts(), st.text(any_character, min_size=1, max_size=3), st.integers(0, 200),
    ),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(completion_texts, min_size=1, max_size=3))
def test_any_completion_text_leaves_one_record_line_per_problem(completions):
    """Through `run_eval` with an out_dir, recording live completions, and
    replaying a cassette written with ensure_ascii=True: no exception
    escapes, and records.jsonl is UTF-8 text with one JSON line per problem
    after the meta line.  Text UTF-8 cannot encode is refused where it
    enters: a live one is a ClientFailure, and Replay will not load the
    cassette.  A JSON escape pair such as "\\ud800\\udc00" reads back as one
    code point, so what arrives is each text's JSON round trip."""
    arrived = [json.loads(json.dumps(text)) for text in completions]
    spec = SPECS[VARIANTS[0]]
    problems = [Problem(f"p{i}", f"{QUESTION} ({i})", Fraction(15)) for i in range(len(completions))]
    by_prompt = {assemble_prompt(spec, problem.question): text for problem, text in zip(problems, completions)}

    def transport(url, payload, headers, timeout):
        return 200, json.dumps({"choices": [{"text": by_prompt[payload["prompt"]]}]})

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cassette = tmp / "replay.jsonl"
        cassette.write_text("".join(
            json.dumps({
                "fingerprint": fingerprint(CompletionRequest(CONFIG.model, prompt, CONFIG.params, CONFIG.stop_sequences)),
                "completion": text,
            }, ensure_ascii=True) + "\n"
            for prompt, text in by_prompt.items()
        ), encoding="utf-8")
        runs = [("live", Live("https://example.invalid", str(tmp / "recorded.jsonl")))]
        try:
            runs.append(("replay", Replay(str(cassette))))
        except ValueError:
            assert not all(map(is_utf8_text, arrived))
        for name, mode in runs:
            run_eval(problems, spec, mode, CONFIG, out_dir=tmp / name, transport=transport)
            lines = (tmp / name / "records.jsonl").read_bytes().decode("utf-8").split("\n")
            assert lines[-1] == "" and len(lines) == len(problems) + 2
            records = [json.loads(line) for line in lines[1:-1]]
            assert [record["id"] for record in records] == [problem.id for problem in problems]
            for record, text in zip(records, arrived):
                assert (record["verdict"] == CLIENT_FAILURE) == (not is_utf8_text(text))
