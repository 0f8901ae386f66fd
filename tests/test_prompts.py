import hashlib

import pytest
from hypothesis import given, strategies as st

from declsolve.parsing import script_from_transcript
from declsolve.prompts import (
    DEFAULT_STOP_SEQUENCES,
    VARIANT_DECLARATIVE,
    VARIANT_LLM_SOLVES,
    VARIANT_ONE_STEP,
    VARIANT_PRINCIPLES,
    VARIANTS,
    _PRINCIPLES_HEADER,
    DecodingParams,
    Exemplar,
    FormatError,
    InvalidExemplarScript,
    PromptSpec,
    assemble_prompt,
    default_exemplar_path,
    load_exemplars,
    parse_exemplars,
    spec_for_variant,
)

EX = Exemplar(
    question="What is 1 plus 1?",
    solution="Let [[var s]] be the sum, [[s = 1 + 1]]. So [[answer = s]].",
)


def test_decoding_params_defaults():
    params = DecodingParams()
    assert params.temperature == 0.0
    assert params.max_tokens == 600
    assert params.n_samples == 1


def test_decoding_params_validation():
    with pytest.raises(ValueError):
        DecodingParams(max_tokens=0)
    with pytest.raises(ValueError):
        DecodingParams(n_samples=0)
    with pytest.raises(ValueError, match="only the first completion is read"):
        DecodingParams(n_samples=2)
    with pytest.raises(ValueError, match="max_tokens must be an integer"):
        DecodingParams(max_tokens="600")
    with pytest.raises(ValueError, match="n_samples must be an integer"):
        DecodingParams(n_samples=True)
    with pytest.raises(ValueError, match="temperature must be a real number"):
        DecodingParams(temperature="0.7")
    assert DecodingParams(temperature=1, max_tokens=32).as_dict()["temperature"] == 1


def test_stop_sequence_guards_against_runaway_exemplars():
    assert DEFAULT_STOP_SEQUENCES == ("Question:",)


def test_assemble_no_exemplars_no_header():
    spec = PromptSpec(VARIANT_DECLARATIVE, ())
    assert assemble_prompt(spec, "Q") == "Question: Q\n\nSolution:"


def test_assemble_blocks_in_order():
    spec = PromptSpec(VARIANT_PRINCIPLES, (EX,))
    prompt = assemble_prompt(spec, "How many?")
    assert prompt.startswith(_PRINCIPLES_HEADER + "\n\n")
    assert prompt.index(_PRINCIPLES_HEADER) < prompt.index(EX.question) < prompt.index("How many?")
    assert prompt.endswith("Question: How many?\n\nSolution:")
    # exemplar solutions sit after a "Solution: " prefix
    assert f"Solution: {EX.solution}" in prompt


def test_assemble_is_deterministic():
    spec = spec_for_variant(VARIANT_PRINCIPLES)
    assert assemble_prompt(spec, "Q?") == assemble_prompt(spec, "Q?")


# Cassettes key completions by the prompt bytes, so a re-keyed prompt would
# turn every recorded lookup for its variant into a miss.
PROMPT_SHA256 = {
    VARIANT_DECLARATIVE: "8e7b6b687b26b5c54c86a7d7d003d05e4e52b7cfcd015d5dd451125b5d273091",
    VARIANT_PRINCIPLES: "685530b5c746a558c708c5156817375a036ea9ff057f32a252b2d7b886812baa",
    VARIANT_LLM_SOLVES: "05b0aa8c06868a87e540dd20ba61b47d6fb70c169d5e58bc0211463b58ebb8f4",
    VARIANT_ONE_STEP: "bd8e610cda70abc8a8e16418f6a623244e3d4f0fa10f8cb9eb185f129bf4befa",
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_assembled_prompt_bytes_are_pinned(variant):
    prompt = assemble_prompt(spec_for_variant(variant), "Q?")
    assert hashlib.sha256(prompt.encode("utf-8")).hexdigest() == PROMPT_SHA256[variant]


def test_header_is_five_numbered_lines():
    lines = _PRINCIPLES_HEADER.splitlines()
    assert len(lines) == 5
    for i, line in enumerate(lines, start=1):
        assert line.startswith(f"{i}. ")
    assert "answer" in lines[1]          # line 2 states the goal rule
    assert "number" in lines[4].lower()  # line 5 states the use-all-numbers rule


def test_variants_produce_distinct_prompts_for_shared_exemplars():
    # the script variants share one script; one-step takes a single equation
    single = (Exemplar("What is 1 plus 1?", "The sum is [[s = 1 + 1]]."),)
    prompts = {
        assemble_prompt(PromptSpec(variant, single if variant == VARIANT_ONE_STEP else (EX,)), "Same question?")
        for variant in VARIANTS
    }
    assert len(prompts) == 4


def test_prompt_length_monotonicity():
    with_one = assemble_prompt(PromptSpec(VARIANT_PRINCIPLES, (EX,)), "Q")
    with_two = assemble_prompt(PromptSpec(VARIANT_PRINCIPLES, (EX, EX)), "Q")
    without_header = assemble_prompt(PromptSpec(VARIANT_DECLARATIVE, (EX,)), "Q")
    assert len(with_two) > len(with_one)
    assert len(without_header) < len(with_one)


EX_ONE_STEP = Exemplar("Q", "So [[total = 1 + 1]].")


def test_promptspec_one_step_requires_single_declaration():
    with pytest.raises(ValueError):
        PromptSpec(VARIANT_ONE_STEP, (EX,))  # EX has three declarations
    single = Exemplar("Q", "So [[total = 1 + 1]].")
    PromptSpec(VARIANT_ONE_STEP, (single,))


@pytest.mark.parametrize(
    "solution, error",
    [
        ("So [[x = ]].", InvalidExemplarScript),
        ("So [[x = 1 + 1.", InvalidExemplarScript),
        ("So [[var x]].", ValueError),
        ("So [[x + 1 = 2]].", ValueError),
        ("So [[3 = x]].", ValueError),
        ("So [[answer = x]].", ValueError),
    ],
)
def test_promptspec_one_step_requires_a_name_binding(solution, error):
    """The one bracket of a one-step exemplar must parse, and bind a name on
    its left: the shape the one-step variant reads from a completion."""
    with pytest.raises(error) as info:
        PromptSpec(VARIANT_ONE_STEP, (EX_ONE_STEP, Exemplar("Q?", solution)))
    if error is InvalidExemplarScript:
        assert info.value.index == 1
    else:
        assert "one-step exemplar 1 must bind a name, not [[" in str(info.value)


def test_promptspec_rejects_unknown_variant():
    with pytest.raises(ValueError):
        PromptSpec("chain_of_thought", ())


# --- exemplar files -----------------------------------------------------------

GOOD_FILE = """\
=== QUESTION ===
What is 2 plus 3?
=== SOLUTION ===
Let [[var s]] be the sum, [[s = 2 + 3]]. Then [[answer = s]].

=== QUESTION ===
What is 10 minus 4?
=== SOLUTION ===
Let [[var d]] be the difference, [[d = 10 - 4]]. Then [[answer = d]].
"""


def test_parse_exemplars():
    exemplars = parse_exemplars(GOOD_FILE)
    assert len(exemplars) == 2
    assert exemplars[0].question == "What is 2 plus 3?"
    assert exemplars[1].solution.endswith("[[answer = d]].")


def test_parse_exemplars_rejects_empty_and_malformed():
    with pytest.raises(FormatError):
        parse_exemplars("")
    with pytest.raises(FormatError):
        parse_exemplars("stray text\n=== QUESTION ===\nQ\n=== SOLUTION ===\nS\n")
    with pytest.raises(FormatError):
        parse_exemplars("=== SOLUTION ===\nS\n")
    with pytest.raises(FormatError):
        parse_exemplars("=== QUESTION ===\nQ only, no solution\n")
    with pytest.raises(FormatError):
        parse_exemplars("=== QUESTION ===\nQ\n=== SOLUTION ===\n\n")


def test_exemplar_file_may_start_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "exemplars.txt"
    path.write_text("\ufeff" + GOOD_FILE, encoding="utf-8")
    assert load_exemplars(path) == parse_exemplars(GOOD_FILE)


def test_promptspec_checks_exemplar_scripts_by_variant(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "=== QUESTION ===\nQ?\n=== SOLUTION ===\n"
        "Uses y before declaring: [[var x]] [[x = y]] [[answer = x]]\n",
        encoding="utf-8",
    )
    (loaded,) = load_exemplars(bad)  # loading checks no script
    bare = Exemplar("Q?", "So [[total = 1 + 1]].")
    PromptSpec(VARIANT_ONE_STEP, (bare,))
    for variant in (VARIANT_DECLARATIVE, VARIANT_PRINCIPLES, VARIANT_LLM_SOLVES):
        for exemplar in (loaded, bare):
            with pytest.raises(InvalidExemplarScript) as info:
                PromptSpec(variant, (EX, exemplar))
            assert info.value.index == 1


@given(
    st.lists(
        st.builds(
            Exemplar,
            question=st.text(
                alphabet=st.characters(
                    blacklist_categories=("Cs", "Cc"), blacklist_characters="="
                ),
                min_size=1,
            ).map(lambda s: " ".join(s.split())).filter(bool),
            solution=st.just("One [[var v]] with [[v = 1]] gives [[answer = v]]."),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_exemplar_text_round_trip_property(exemplars):
    # Laid out as the shipped files are: a blank line after each body, which
    # the parser strips from questions and solutions alike.
    text = "\n".join(
        part
        for ex in exemplars
        for part in (f"=== QUESTION ===\n{ex.question}\n", f"=== SOLUTION ===\n{ex.solution}\n")
    )
    assert parse_exemplars(text) == exemplars


# --- the shipped exemplar sets ---------------------------------------------------

def test_every_variant_has_loadable_defaults():
    for variant in VARIANTS:
        spec = spec_for_variant(variant)
        assert len(spec.exemplars) == 3
        prompt = assemble_prompt(spec, "placeholder")
        assert prompt.endswith("Solution:")


def test_shipped_declarative_solutions_are_valid_scripts():
    for variant in (VARIANT_DECLARATIVE, VARIANT_PRINCIPLES, VARIANT_LLM_SOLVES):
        for exemplar in spec_for_variant(variant).exemplars:
            script = script_from_transcript(exemplar.solution)
            assert script.goal


def test_shipped_llm_solves_exemplars_end_with_final_answer():
    from declsolve.evaluation import extract_final_number
    from declsolve.solver import solve_script

    for exemplar in spec_for_variant(VARIANT_LLM_SOLVES).exemplars:
        stated = extract_final_number(exemplar.solution)
        solved = solve_script(script_from_transcript(exemplar.solution)).selected
        assert stated == solved  # the stated answers are truthful


def test_shipped_one_step_exemplars_have_single_equations():
    spec = spec_for_variant(VARIANT_ONE_STEP)
    from declsolve.parsing import extract_brackets

    for exemplar in spec.exemplars:
        assert len(extract_brackets(exemplar.solution)) == 1


def test_default_exemplar_paths_exist():
    for variant in VARIANTS:
        assert default_exemplar_path(variant).exists()
    with pytest.raises(ValueError):
        default_exemplar_path("nope")
