import json
import math
import random
import threading
import time
from fractions import Fraction

import pytest

import declsolve.evaluation as ev
from declsolve.client import CompletionRequest, Live, Replay, append_record
from declsolve.evaluation import (
    CLIENT_FAILURE,
    CORRECT,
    PARSE_FAILURE,
    SCRIPT_INVALID,
    SOLVER_FAILURE,
    VERDICTS,
    WRONG_ANSWER,
    MissingMarkerError,
    Problem,
    RunConfig,
    UnparseableGoldError,
    extract_final_number,
    load_algebra,
    load_gsm8k,
    run_eval,
    run_problem,
    score,
)
from declsolve.parsing import MAX_NESTING
from declsolve.prompts import (
    VARIANT_LLM_SOLVES,
    VARIANT_ONE_STEP,
    Exemplar,
    PromptSpec,
    assemble_prompt,
)

F = Fraction

SPEC = PromptSpec(
    "declarative_principles",
    (Exemplar("One plus one?", "Sum [[var s]], [[s = 1 + 1]], [[answer = s]]."),),
)
CONFIG = RunConfig(model="test-model")


def cassette_for(tmp_path, spec, pairs):
    """Record (question -> completion) pairs under the real prompt fingerprints."""
    path = tmp_path / "cassette.jsonl"
    for question, completion in pairs:
        request = CompletionRequest(
            CONFIG.model, assemble_prompt(spec, question), CONFIG.params, CONFIG.stop_sequences
        )
        append_record(path, request, completion)
    return Replay(str(path))


# --- datasets -----------------------------------------------------------------

def test_load_gsm8k(tmp_path):
    path = tmp_path / "data.jsonl"
    rows = [
        {"question": "Q0?", "answer": "work...\n#### 72"},
        {"question": "Q1?", "answer": "#### 72 then later #### 1,080"},
        {"question": "Q2?", "answer": "#### 2.5"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    problems = load_gsm8k(path)
    assert [p.gold_answer for p in problems] == [F(72), F(1080), F(5, 2)]
    assert problems[0].id == "gsm8k-0000"


def test_load_gsm8k_missing_marker(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({"question": "Q", "answer": "no marker"}), encoding="utf-8")
    with pytest.raises(MissingMarkerError):
        load_gsm8k(path)


def test_load_gsm8k_unparseable_gold(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({"question": "Q", "answer": "#### twelve"}), encoding="utf-8")
    with pytest.raises(UnparseableGoldError):
        load_gsm8k(path)


def test_load_gsm8k_duplicate_ids(tmp_path):
    path = tmp_path / "data.jsonl"
    row = {"id": "same", "question": "Q", "answer": "#### 1"}
    path.write_text(json.dumps(row) + "\n" + json.dumps(row), encoding="utf-8")
    with pytest.raises(ev.DatasetError):
        load_gsm8k(path)


def test_load_algebra_csv(tmp_path):
    path = tmp_path / "algebra.csv"
    path.write_text(
        'id,question,answer\na1,"Sum of two numbers...",8\na2,"Another",4.5\na3,"A share",50%\n',
        encoding="utf-8",
    )
    problems = load_algebra(path)
    assert [(p.id, p.gold_answer) for p in problems] == [("a1", F(8)), ("a2", F(9, 2)), ("a3", F(50))]


def test_load_algebra_jsonl(tmp_path):
    path = tmp_path / "algebra.jsonl"
    path.write_text(json.dumps({"question": "Q", "answer": 8}), encoding="utf-8")
    assert load_algebra(path)[0].gold_answer == F(8)


@pytest.mark.parametrize("loader, name, text", [
    (load_gsm8k, "data.jsonl", '{"question": "Q?", "answer": "#### 4", "id": "b1"}\n'),
    (load_algebra, "data.jsonl", '{"question": "Q?", "answer": "4", "id": "b1"}\n'),
    (load_algebra, "data.csv", "question,answer,id\nQ?,4,b1\n"),
], ids=["gsm8k-jsonl", "algebra-jsonl", "algebra-csv"])
def test_datasets_may_start_with_a_byte_order_mark(tmp_path, loader, name, text):
    path = tmp_path / name
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert loader(path) == [Problem("b1", "Q?", F(4))]


@pytest.mark.parametrize("loader, answer", [(load_gsm8k, "#### 4"), (load_algebra, "4")])
@pytest.mark.parametrize("question", [5, "", None, ["Q?"]])
def test_jsonl_records_need_a_non_empty_text_question(tmp_path, loader, answer, question):
    path = tmp_path / "data.jsonl"
    rows = [{"question": "Q?", "answer": answer}, {"question": question, "answer": answer}]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    with pytest.raises(ev.DatasetError, match=r"data\.jsonl:2: 'question' must be non-empty text"):
        loader(path)


@pytest.mark.parametrize("loader, answer", [(load_gsm8k, "#### 4"), (load_algebra, "4")])
@pytest.mark.parametrize("key", ["question", "id"])
def test_jsonl_records_refuse_a_lone_surrogate(tmp_path, loader, answer, key):
    """json.loads reads the escape \\ud83d as a lone surrogate, which UTF-8
    cannot encode: the prompt's fingerprint or the records file would fail."""
    path = tmp_path / "data.jsonl"
    rows = [{"question": "Q?", "answer": answer}, {"question": "Q?", "answer": answer, key: "Q \ud83d"}]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    with pytest.raises(ev.DatasetError, match=rf"data\.jsonl:2: '{key}' must be"):
        loader(path)


def test_load_algebra_rejects_non_numeric_answers(tmp_path):
    path = tmp_path / "algebra.csv"
    path.write_text('question,answer\n"Q","x=8 or 4"\n', encoding="utf-8")
    with pytest.raises(UnparseableGoldError):
        load_algebra(path)


def test_gold_answers_are_held_to_the_numeral_bound(tmp_path):
    path = tmp_path / "algebra.jsonl"
    path.write_text(json.dumps({"question": "Q", "answer": "-1,234.50"}), encoding="utf-8")
    assert load_algebra(path)[0].gold_answer == F(-2469, 2)
    path.write_text(json.dumps({"question": "Q", "answer": "7" * 5000}), encoding="utf-8")
    with pytest.raises(UnparseableGoldError):
        load_algebra(path)


# --- scoring ---------------------------------------------------------------------

def test_score_exact_values_need_exact_equality():
    assert score(F(8), F(8))
    assert not score(F(7), F(8))
    assert not score(F(8_0001, 10_000), F(8))  # exact but off by 1e-4: still wrong


def test_score_floats_use_relative_tolerance():
    assert score(3.99999999, F(4))
    assert score(4000.3, F(4000))  # relative: tolerance scales to 1e-4 * 4000 = 0.4
    assert not score(4.2, F(4))


def test_extract_final_number():
    assert extract_final_number("blah\nThe final answer is 14.") == F(14)
    assert extract_final_number("answer: 1,080\n\n") == F(1080)
    assert extract_final_number("x = 2 so the result is 2.5") == F(5, 2)
    assert extract_final_number("no numbers here") is None
    assert extract_final_number("so -0.5") == F(-1, 2)
    # Leading zeros do not count toward the bound; significant digits do.
    assert extract_final_number("0" * 5000 + "7") == F(7)
    with pytest.raises(ValueError, match="final number exceeds"):
        extract_final_number("so\n" + "7" * 5000)


# --- per-problem verdicts -----------------------------------------------------------

GOOD = "We need [[var n]], [[n = 3 * 4 + 2]], so [[answer = n]]."


def test_run_problem_correct(tmp_path):
    problem = Problem("p1", "Three packs of 4 plus 2?", F(14))
    mode = cassette_for(tmp_path, SPEC, [(problem.question, GOOD)])
    record = run_problem(problem, SPEC, CONFIG, mode)
    assert record.verdict == CORRECT
    assert record.predicted == F(14)
    assert record.any_candidate_correct
    assert record.script is not None
    assert record.outcome is not None


def test_run_problem_wrong_answer(tmp_path):
    problem = Problem("p1", "Q?", F(99))
    mode = cassette_for(tmp_path, SPEC, [(problem.question, GOOD)])
    record = run_problem(problem, SPEC, CONFIG, mode)
    assert record.verdict == WRONG_ANSWER
    assert not record.any_candidate_correct


def test_run_problem_parse_failure(tmp_path):
    problem = Problem("p1", "Q?", F(1))
    mode = cassette_for(tmp_path, SPEC, [(problem.question, "The answer is 14.")])
    record = run_problem(problem, SPEC, CONFIG, mode)
    assert record.verdict == PARSE_FAILURE
    assert record.script is None


def test_run_problem_script_invalid(tmp_path):
    problem = Problem("p1", "Q?", F(1))
    bad = "[[var x]] [[x = y + 1]] [[answer = x]]"  # y never introduced
    mode = cassette_for(tmp_path, SPEC, [(problem.question, bad)])
    record = run_problem(problem, SPEC, CONFIG, mode)
    assert record.verdict == SCRIPT_INVALID


def test_run_problem_solver_failure(tmp_path):
    problem = Problem("p1", "Q with 7?", F(1))
    underdetermined = "[[var x]] [[var y]] [[x + y = 10]] [[answer = x]]"
    mode = cassette_for(tmp_path, SPEC, [(problem.question, underdetermined)])
    record = run_problem(problem, SPEC, CONFIG, mode)
    assert record.verdict == SOLVER_FAILURE
    assert record.detail
    # A failed solve keeps the script and its rule-5 warning (the 7 is unused).
    assert record.script is not None and record.outcome is None and record.predicted is None
    assert record.principle_warnings == 1


@pytest.mark.parametrize(
    "transcript, verdict",
    [
        ("[[var x]] [[x ^ 0.5 = 3]] [[answer = x]]", CORRECT),
        ("[[var x]] [[(0 - 2) ^ x = 4]] [[answer = x]]", SOLVER_FAILURE),
        ("[[var a]] [[var b]] [[a = 9 ^ 9999]] [[b = a ^ 30]] [[answer = b]]", SOLVER_FAILURE),
        ("[[var a]] [[var b]] [[a = 9 ^ 9999]] [[b = a ^ 9999]] [[answer = b]]", SOLVER_FAILURE),
    ],
    ids=["fractional-power", "negative-base", "huge-power-30", "huge-power-9999"],
)
def test_run_problem_bounds_complex_and_huge_powers(tmp_path, transcript, verdict):
    """A negative base to a fractional power has no real value, and an
    exact power too large to compute or print is a solver failure; neither
    aborts the run nor takes long.  Inverting a fractional power with a
    rational result is exact, so `x ^ 0.5 = 3` gives the Fraction 9."""
    problem = Problem("p1", "Q?", F(9))
    mode = cassette_for(tmp_path, SPEC, [(problem.question, transcript)])
    start = time.perf_counter()
    record = run_problem(problem, SPEC, CONFIG, mode)
    assert time.perf_counter() - start < 1
    assert record.verdict == verdict
    if verdict == CORRECT:
        assert record.predicted == 9 and isinstance(record.predicted, Fraction)


def test_run_problem_scores_a_float_against_gold_past_the_float_range(tmp_path):
    """A gold answer may be past the float range; no float prediction is
    within tolerance of it, so the record is a WrongAnswer with its script."""
    problem = Problem("p1", "Q?", F(10**400))
    mode = cassette_for(tmp_path, SPEC, [(problem.question, "[[var x]] [[x * x = 2]] [[answer = x]]")])
    record = run_problem(problem, SPEC, CONFIG, mode)
    assert record.verdict == WRONG_ANSWER and not record.any_candidate_correct
    assert record.predicted == math.sqrt(2)
    assert record.script is not None and record.outcome is not None


def _polynomial_text(coefficients):
    return " + ".join(f"({c}) * x ^ {k}" for k, c in enumerate(coefficients) if c)


_DEGREE_32 = [random.Random(32).randint(-9, 9) for _ in range(32)] + [3]
_SQUARING = "[[var a0]] [[a0 = 2 ^ 4600]] " + " ".join(
    f"[[var a{i}]] [[a{i} = a{i - 1} * a{i - 1}]]" for i in range(1, 13)
)

# (transcript, gold, verdict, predicted or None, detail or None)
POLYNOMIAL_PROBES = {
    "random-degree-32": (
        f"[[var x]] [[{_polynomial_text(_DEGREE_32)} = 0]] [[answer = x]]",
        F(0), None, None, None,
    ),
    "x^32=2": (
        "[[var x]] [[x ^ 32 = 2]] [[answer = x]]",
        F(2 ** (1 / 32)), CORRECT, 2 ** (1 / 32), None,
    ),
    "(x-1)^8=0": ("[[var x]] [[(x - 1) ^ 8 = 0]] [[answer = x]]", F(1), CORRECT, F(1), None),
    "huge-irrational-roots": (
        "[[var x]] [[x ^ 3 - 3 ^ 2000 * x = 1]] [[answer = x]]",
        F(0), SOLVER_FAILURE, None, "an irrational root lies outside the range of a float",
    ),
    "huge-rational-root": (
        "[[var x]] [[x ^ 3 = 3 ^ 3000]] [[answer = x]]",
        F(3**1000), CORRECT, F(3**1000), None,
    ),
    "17-roots": (
        "[[var x]] [[" + " * ".join(f"(x - {k})" for k in range(1, 18)) + " = 0]] [[answer = x]]",
        F(1), SOLVER_FAILURE, None, "root branching exceeded 16 branches",
    ),
    "squaring-chain": (
        _SQUARING + " [[answer = a12]]",
        F(0), SOLVER_FAILURE, None, "value exceeds 14000 bits",
    ),
}


@pytest.mark.parametrize("name", list(POLYNOMIAL_PROBES))
def test_run_problem_bounds_polynomial_roots_and_products(tmp_path, name):
    """Every polynomial of degree 3 to 32 goes through exact root isolation,
    and every exact product is held to the size budget: each probe is a
    record within 1 s, and none fails with OverflowError."""
    transcript, gold, verdict, predicted, detail = POLYNOMIAL_PROBES[name]
    problem = Problem("p1", "Q?", gold)
    mode = cassette_for(tmp_path, SPEC, [(problem.question, transcript)])
    start = time.perf_counter()
    record = run_problem(problem, SPEC, CONFIG, mode)
    assert time.perf_counter() - start < 1
    assert "OverflowError" not in record.detail
    if verdict is not None:
        assert record.verdict == verdict, record.detail
    if predicted is not None:
        assert record.predicted == predicted and type(record.predicted) is type(predicted)
    if detail is not None:
        assert record.detail == detail



def deep(body):
    return f"[[var x]] [[x = {body}]] [[answer = x]]"


# Transcripts that once ended a run with RecursionError, each with its
# verdict now for the gold answer 2: past the parser's nesting limit, or a
# flat chain that every tree pass walks without recursion.
DEPTH_PROBES = {
    "parens": (deep("(" * 1200 + "2" + ")" * 1200), PARSE_FAILURE),
    "power-tower": (deep(" ^ ".join(["2"] * 1201)), PARSE_FAILURE),
    "unary-minus": (deep("-" * 1200 + "2"), PARSE_FAILURE),
    "flat-sum": (deep(" + ".join(["1"] * 3000)), WRONG_ANSWER),
    "flat-product": (deep(" * ".join(["2"] + ["1"] * 2999)), CORRECT),
    "flat-linear-system": (
        "[[var x]] [[var y]] [[" + " + ".join(["x", "y"] * 1500) + " = 6000]] [[x - y = 0]]"
        " [[answer = x]]",
        CORRECT,
    ),
}


@pytest.mark.parametrize(
    "transcript, predicted",
    [
        (DEPTH_PROBES["flat-sum"][0], 3000),
        (DEPTH_PROBES["flat-product"][0], 2),
        (DEPTH_PROBES["flat-linear-system"][0], 2),
        (deep(" + ".join(["1"] * 5001)), 5001),
        (deep(" - ".join(["9000"] + ["1"] * 5000)), 4000),
    ],
    ids=["flat-sum", "flat-product", "flat-linear-system", "10001-node-sum", "10001-node-difference"],
)
def test_run_problem_solves_flat_chains(tmp_path, transcript, predicted):
    problem = Problem("p1", "Q?", F(predicted))
    mode = cassette_for(tmp_path, SPEC, [(problem.question, transcript)])
    start = time.perf_counter()
    record = run_problem(problem, SPEC, CONFIG, mode)
    assert time.perf_counter() - start < 1
    assert record.verdict == CORRECT, record.detail
    assert record.predicted == predicted and isinstance(record.predicted, Fraction)


@pytest.mark.parametrize("name", ["parens", "power-tower", "unary-minus"])
def test_run_problem_nesting_past_the_limit_is_a_parse_failure(tmp_path, name):
    problem = Problem("p1", "Q?", F(2))
    mode = cassette_for(tmp_path, SPEC, [(problem.question, DEPTH_PROBES[name][0])])
    start = time.perf_counter()
    record = run_problem(problem, SPEC, CONFIG, mode)
    assert time.perf_counter() - start < 1
    assert record.verdict == PARSE_FAILURE
    assert "nesting levels" in record.detail


@pytest.mark.parametrize(
    "body",
    [
        "(" * MAX_NESTING + "2" + ")" * MAX_NESTING,
        " ^ ".join(["2"] + ["1"] * MAX_NESTING),
        "-" * MAX_NESTING + "2",
    ],
    ids=["parens", "power-tower", "unary-minus"],
)
def test_run_problem_nesting_at_the_limit_is_solved(tmp_path, body):
    problem = Problem("p1", "Q?", F(2))
    mode = cassette_for(tmp_path, SPEC, [(problem.question, deep(body))])
    assert run_problem(problem, SPEC, CONFIG, mode).verdict == CORRECT


def test_run_eval_turns_any_error_after_the_completion_into_a_verdict(tmp_path, monkeypatch):
    # No transcript uses the question's 7, so every parsed script has a warning.
    problems = [Problem(name, f"{name} with 7?", F(2)) for name in DEPTH_PROBES]
    mode = cassette_for(tmp_path, SPEC, [(p.question, DEPTH_PROBES[p.id][0]) for p in problems])
    report = run_eval(problems, SPEC, mode, CONFIG)
    assert [r.verdict for r in report.records] == [v for _, v in DEPTH_PROBES.values()]
    flat = report.records[3]
    assert flat.predicted == 3000 and flat.transcript == DEPTH_PROBES["flat-sum"][0]
    assert [r.principle_warnings for r in report.records] == [0, 0, 0, 1, 1, 1]

    def broken(system):
        raise RuntimeError("solver fault")

    # The last resort behind the typed handlers: an error of no expected type.
    monkeypatch.setattr(ev, "solve_system", broken)
    report = run_eval(problems, SPEC, mode, CONFIG)
    solved = [r for r in report.records if r.verdict != PARSE_FAILURE]
    assert [r.problem_id for r in solved] == ["flat-sum", "flat-product", "flat-linear-system"]
    for record in solved:
        assert record.verdict == SOLVER_FAILURE
        assert record.detail == "RuntimeError: solver fault"
        assert record.transcript == DEPTH_PROBES[record.problem_id][0]
        assert record.script is None and record.outcome is None and record.predicted is None
        assert record.principle_warnings == 0


def test_run_problem_lets_a_malformed_cassette_abort_the_run(tmp_path):
    """Only a ClientError from the completion is a verdict: a cassette line
    of no known shape is a fault of the run, not of the problem, and the
    mode that reads the cassette refuses it before any problem runs."""
    problem = Problem("p1", "Three packs of 4 plus 2?", F(14))
    cassette_for(tmp_path, SPEC, [(problem.question, GOOD)])
    with open(tmp_path / "cassette.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"neither": 1}\n')
    with pytest.raises(ValueError, match="unrecognized cassette line"):
        Replay(str(tmp_path / "cassette.jsonl"))


def test_run_problem_client_failure(tmp_path):
    problem = Problem("p1", "not in cassette", F(1))
    mode = cassette_for(tmp_path, SPEC, [("different question", GOOD)])
    record = run_problem(problem, SPEC, CONFIG, mode)
    assert record.verdict == CLIENT_FAILURE
    assert record.transcript is None


def test_run_problem_counts_principle_warnings(tmp_path):
    problem = Problem("p1", "Tom has 4 apples and 3 pears. Apples?", F(4))
    transcript = "[[var a]] [[a = 4]] [[answer = a]]"  # never uses the 3
    mode = cassette_for(tmp_path, SPEC, [(problem.question, transcript)])
    record = run_problem(problem, SPEC, CONFIG, mode)
    assert record.verdict == CORRECT
    assert record.principle_warnings == 1


def test_llm_solves_uses_final_number_and_skips_solver(tmp_path, monkeypatch):
    spec = PromptSpec(VARIANT_LLM_SOLVES, SPEC.exemplars)
    problem = Problem("p1", "Q?", F(21))
    transcript = GOOD + "\nThe final answer is 21."  # script solves to 14; model says 21
    mode = cassette_for(tmp_path, spec, [(problem.question, transcript), ("Q2?", transcript)])

    def boom(*args, **kwargs):
        raise AssertionError("solver must not run for the llm-solves variant")

    monkeypatch.setattr(ev, "solve_system", boom)
    record = run_problem(problem, spec, CONFIG, mode)
    assert record.verdict == CORRECT
    assert record.predicted == F(21)
    assert record.outcome is None
    assert record.any_candidate_correct

    # The model's number is the only candidate, even where the script's is right.
    problem = Problem("p2", "Q2?", F(14))
    record = run_problem(problem, spec, CONFIG, mode)
    assert record.verdict == WRONG_ANSWER
    assert not record.any_candidate_correct


def test_llm_solves_still_requires_a_parsable_script(tmp_path):
    spec = PromptSpec(VARIANT_LLM_SOLVES, SPEC.exemplars)
    problem = Problem("p1", "Q?", F(21))
    mode = cassette_for(tmp_path, spec, [(problem.question, "The final answer is 21.")])
    record = run_problem(problem, spec, CONFIG, mode)
    assert record.verdict == PARSE_FAILURE


def test_llm_solves_missing_number_is_solver_failure(tmp_path):
    spec = PromptSpec(VARIANT_LLM_SOLVES, SPEC.exemplars)
    problem = Problem("p1", "Q?", F(14))
    transcript = "So [[var n]], [[n = 14]], [[answer = n]].\nNo digits in this closing line"
    mode = cassette_for(tmp_path, spec, [(problem.question, transcript)])
    record = run_problem(problem, spec, CONFIG, mode)
    assert record.verdict == SOLVER_FAILURE
    assert record.detail == "no final number in transcript"


def test_llm_solves_huge_final_number_is_solver_failure(tmp_path):
    spec = PromptSpec(VARIANT_LLM_SOLVES, SPEC.exemplars)
    problem = Problem("p1", "Q?", F(14))
    transcript = "So [[var n]], [[n = 14]], [[answer = n]].\n" + "7" * 5000
    mode = cassette_for(tmp_path, spec, [(problem.question, transcript)])
    record = run_problem(problem, spec, CONFIG, mode)
    assert record.verdict == SOLVER_FAILURE
    assert record.detail == "final number exceeds 14000 bits"


def test_one_step_fallback_synthesizes_goal(tmp_path):
    single = (Exemplar("One plus one?", "Sum [[s = 1 + 1]]."),)
    spec = PromptSpec(VARIANT_ONE_STEP, single)
    problem = Problem("p1", "Three times four plus two?", F(14))
    mode = cassette_for(
        tmp_path, spec, [(problem.question, "The total is [[total = 3 * 4 + 2]].")]
    )
    record = run_problem(problem, spec, CONFIG, mode)
    assert record.verdict == CORRECT
    assert record.predicted == F(14)


@pytest.mark.parametrize("completion", [
    "So [[x = answer + 1]].",
    "So [[x = 2 * answer]] and [[answer = x]].",
])
def test_one_step_fallback_keeps_the_goal_keyword_reserved(tmp_path, completion):
    """The synthesized script passes the same rules as a declared one."""
    single = (Exemplar("One plus one?", "Sum [[s = 1 + 1]]."),)
    spec = PromptSpec(VARIANT_ONE_STEP, single)
    problem = Problem("p1", "Q?", F(14))
    mode = cassette_for(tmp_path, spec, [(problem.question, completion)])
    record = run_problem(problem, spec, CONFIG, mode)
    assert record.verdict == SCRIPT_INVALID
    assert record.detail == "'answer' is reserved for the goal declaration"


def test_one_step_multiple_equations_invalid(tmp_path):
    single = (Exemplar("One plus one?", "Sum [[s = 1 + 1]]."),)
    spec = PromptSpec(VARIANT_ONE_STEP, single)
    problem = Problem("p1", "Q?", F(14))
    mode = cassette_for(tmp_path, spec, [(problem.question, "[[a = 1]] [[b = 2]]")])
    record = run_problem(problem, spec, CONFIG, mode)
    assert record.verdict == SCRIPT_INVALID


# --- run_eval ------------------------------------------------------------------------

PROBLEMS = [
    Problem("p0", "Chain?", F(14)),
    Problem("p1", "Wrong?", F(99)),
    Problem("p2", "No brackets?", F(1)),
    Problem("p3", "Underdetermined?", F(1)),
]
COMPLETIONS = [
    (PROBLEMS[0].question, GOOD),
    (PROBLEMS[1].question, GOOD),
    (PROBLEMS[2].question, "plain prose 42"),
    (PROBLEMS[3].question, "[[var x]] [[var y]] [[x + y = 10]] [[answer = x]]"),
]


def test_run_eval_aggregates_and_streams(tmp_path):
    mode = cassette_for(tmp_path, SPEC, COMPLETIONS)
    out = tmp_path / "out"
    report = run_eval(
        PROBLEMS, SPEC, mode, CONFIG, dataset_name="mini", out_dir=out, workers=1
    )
    assert report.total == 4
    assert report.solve_rate == 25.0
    assert report.histogram[CORRECT] == 1
    assert report.histogram[WRONG_ANSWER] == 1
    assert report.histogram[PARSE_FAILURE] == 1
    assert report.histogram[SOLVER_FAILURE] == 1
    assert sum(report.histogram.values()) == len(PROBLEMS)

    lines = (out / "records.jsonl").read_text().splitlines()
    assert len(lines) == 1 + len(PROBLEMS)  # meta line + one per problem
    assert json.loads(lines[0])["meta"]["variant"] == SPEC.variant
    ids = [json.loads(line)["id"] for line in lines[1:]]
    assert ids == [p.id for p in PROBLEMS]  # dataset order
    assert (out / "report.txt").exists()
    assert (out / "summary.csv").exists()


def test_run_eval_refuses_existing_records_without_force(tmp_path):
    mode = cassette_for(tmp_path, SPEC, COMPLETIONS)
    out = tmp_path / "out"
    run_eval(PROBLEMS, SPEC, mode, CONFIG, out_dir=out)
    with pytest.raises(FileExistsError):
        run_eval(PROBLEMS, SPEC, mode, CONFIG, out_dir=out)
    run_eval(PROBLEMS, SPEC, mode, CONFIG, out_dir=out, force=True)


def test_run_eval_replay_is_byte_deterministic(tmp_path):
    mode = cassette_for(tmp_path, SPEC, COMPLETIONS)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run_eval(PROBLEMS, SPEC, mode, CONFIG, dataset_name="mini", out_dir=out1)
    run_eval(PROBLEMS, SPEC, mode, CONFIG, dataset_name="mini", out_dir=out2)
    for name in ("records.jsonl", "report.txt", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_eval_worker_count_never_changes_results(tmp_path):
    mode = cassette_for(tmp_path, SPEC, COMPLETIONS)
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    r1 = run_eval(PROBLEMS, SPEC, mode, CONFIG, dataset_name="mini", out_dir=out1, workers=1)
    r8 = run_eval(PROBLEMS, SPEC, mode, CONFIG, dataset_name="mini", out_dir=out8, workers=8)
    assert r1.histogram == r8.histogram
    assert r1.solve_rate == r8.solve_rate
    assert (out1 / "records.jsonl").read_bytes() == (out8 / "records.jsonl").read_bytes()


def test_run_eval_workers_bound_requests_in_flight():
    problems = [Problem(f"q{i}", f"Question {i}?", F(14)) for i in range(8)]
    all_in_flight = threading.Barrier(8, timeout=5)

    def transport(url, payload, headers, timeout):
        all_in_flight.wait()  # breaks unless 8 calls are in flight at once
        return 200, json.dumps({"choices": [{"text": GOOD}]})

    report = run_eval(
        problems, SPEC, Live("https://example.invalid"), CONFIG, workers=8, transport=transport
    )
    assert report.histogram[CORRECT] == len(problems)


def test_run_eval_writes_dataset_order_when_calls_finish_out_of_order(tmp_path):
    problems = [Problem(f"q{i}", f"Question {i}?", F(14)) for i in range(8)]
    delay = {
        assemble_prompt(SPEC, p.question): 0.02 * (len(problems) - i)
        for i, p in enumerate(problems)
    }
    finished = []

    def transport(url, payload, headers, timeout):
        time.sleep(delay[payload["prompt"]])  # earlier problems answer later
        finished.append(payload["prompt"])
        return 200, json.dumps({"choices": [{"text": GOOD}]})

    out = tmp_path / "out"
    run_eval(
        problems, SPEC, Live("https://example.invalid"), CONFIG,
        workers=4, out_dir=out, transport=transport,
    )
    assert finished != [assemble_prompt(SPEC, p.question) for p in problems]
    lines = (out / "records.jsonl").read_text().splitlines()
    assert [json.loads(line)["id"] for line in lines[1:]] == [p.id for p in problems]


def test_run_eval_rejects_empty_dataset(tmp_path):
    mode = cassette_for(tmp_path, SPEC, COMPLETIONS)
    with pytest.raises(ValueError):
        run_eval([], SPEC, mode, CONFIG)


def test_every_record_gets_exactly_one_verdict(tmp_path):
    mode = cassette_for(tmp_path, SPEC, COMPLETIONS)
    report = run_eval(PROBLEMS, SPEC, mode, CONFIG)
    for record in report.records:
        assert record.verdict in VERDICTS
    assert sum(report.histogram.values()) == report.total == len(report.records)


def test_any_candidate_rate_bounds_correct_rate(tmp_path):
    mode = cassette_for(tmp_path, SPEC, COMPLETIONS)
    report = run_eval(PROBLEMS, SPEC, mode, CONFIG)
    any_rate = sum(r.any_candidate_correct for r in report.records)
    assert any_rate >= report.histogram[CORRECT]


# --- report files ---------------------------------------------------------------------

def test_streamed_records_write_floats_as_numbers_and_exact_values_as_strings(tmp_path):
    irrational = Problem("p4", "Root?", F(1))  # answered by a float
    completions = [*COMPLETIONS, (irrational.question, "[[var x]] [[x * x = 2]] [[answer = x]]")]
    mode = cassette_for(tmp_path, SPEC, completions)
    out = tmp_path / "out"
    run_eval([*PROBLEMS, irrational], SPEC, mode, CONFIG, dataset_name="mini", out_dir=out)
    streamed = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
    exact, rounded = json.loads(streamed[1]), json.loads(streamed[-1])
    assert rounded["id"] == "p4" and rounded["verdict"] == WRONG_ANSWER
    assert rounded["predicted"] == math.sqrt(2) and type(rounded["predicted"]) is float
    assert rounded["candidates"] == [-math.sqrt(2), math.sqrt(2)]
    assert all(type(value) is float for value in rounded["candidates"])
    assert exact["verdict"] == CORRECT
    assert exact["predicted"] == "14" and exact["candidates"] == ["14"]
