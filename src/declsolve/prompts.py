"""Few-shot prompt assembly for the formalization variants.

A prompt is a fixed-byte concatenation: an optional instruction header,
an optional variant banner, k worked (question, solution) exemplars, and
the test question with an empty solution slot for the model to complete.
Identical inputs always assemble to identical bytes — the replay cassette
layer depends on that.

Exemplars live in sentinel-delimited text files (see docs/FORMATS.md),
never in code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any

from .exprs import Var
from .parsing import EqDecl, ParseError, ScriptError, extract_brackets, parse_declaration, script_from_transcript

QUESTION_PREFIX = "Question: "
SOLUTION_PREFIX = "Solution:"
BLOCK_SEPARATOR = "\n\n"

# Stop generation when the model starts inventing a next question block.
DEFAULT_STOP_SEQUENCES: tuple[str, ...] = ("Question:",)

VARIANT_DECLARATIVE = "declarative"
VARIANT_PRINCIPLES = "declarative_principles"
VARIANT_LLM_SOLVES = "declarative_llm_solves"
VARIANT_ONE_STEP = "one_step_declarative"

_PRINCIPLES_HEADER = "\n".join((
    "1. Introduce each quantity as a named variable and state each fact as"
    " an equation, writing every declaration inside double square brackets.",
    "2. The last declaration names the answer variable, written"
    " [[answer = x]].",
    "3. An equation may mention only variables that were introduced earlier.",
    "4. Never introduce the same variable twice.",
    "5. Use every number that appears in the question in at least one"
    " equation.",
))

# What each variant fixes in its prompts: the packaged exemplar file, whether
# the principles header leads, and the banner line.  A banner marks the
# variant in the prompt bytes, so two variants sharing an exemplar set still
# assemble distinct prompts.
_VARIANT_ROWS: dict[str, tuple[str, bool, str | None]] = {
    VARIANT_DECLARATIVE: ("declarative_3shot.txt", False, None),
    VARIANT_PRINCIPLES: ("declarative_3shot.txt", True, None),
    VARIANT_LLM_SOLVES: (
        "declarative_llm_solves_3shot.txt",
        True,
        "After stating the variables and equations, compute the final answer"
        " and give it on the last line.",
    ),
    VARIANT_ONE_STEP: (
        "one_step_3shot.txt",
        False,
        "Translate each problem into a single equation whose left side names"
        " the answer variable.",
    ),
}

VARIANTS: tuple[str, ...] = tuple(_VARIANT_ROWS)

_QUESTION_SENTINEL = "=== QUESTION ==="
_SOLUTION_SENTINEL = "=== SOLUTION ==="


class PromptError(Exception):
    """Base class for prompt-kit failures."""


class FormatError(PromptError):
    """The exemplar file does not follow the sentinel format."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidExemplarScript(PromptError):
    """An exemplar solution's brackets do not build a valid script."""

    def __init__(self, index: int, cause: ParseError | ScriptError):
        super().__init__(f"exemplar {index}: {cause}")
        self.index = index
        self.cause = cause


@dataclass(frozen=True)
class Exemplar:
    """One worked (question, solution) pair shown to the model."""

    question: str
    solution: str


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = 0.0
    max_tokens: int = 600
    n_samples: int = 1

    def __post_init__(self):
        # Values may come straight from a JSON config file; bool is an int
        # subclass but never a meaningful count or temperature.
        for name in ("max_tokens", "n_samples"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, not {type(value).__name__}")
        if isinstance(self.temperature, bool) or not isinstance(self.temperature, (int, float)):
            raise ValueError(
                f"temperature must be a real number, not {type(self.temperature).__name__}"
            )
        # json.load reads NaN and Infinity, which no request or record may hold.
        if not -math.inf < self.temperature < math.inf:
            raise ValueError("temperature must be finite")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if self.n_samples != 1:
            raise ValueError("n_samples must be 1: only the first completion is read")

    def as_dict(self) -> dict[str, Any]:
        """The params as fingerprints, cassettes and run metadata record them."""
        return {
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
            "n_samples": self.n_samples,
        }


@dataclass(frozen=True)
class PromptSpec:
    """Everything that determines the assembled prompt bytes."""

    variant: str
    exemplars: tuple[Exemplar, ...]

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        # One-step exemplars hold one `name = expr` binding, the shape the
        # one-step variant reads back; the others, full scripts.
        for i, ex in enumerate(self.exemplars):
            try:
                if self.variant == VARIANT_ONE_STEP:
                    brackets = extract_brackets(ex.solution)
                    if len(brackets) != 1:
                        raise ValueError(
                            f"one-step exemplar {i} must contain exactly one"
                            f" bracketed declaration, found {len(brackets)}"
                        )
                    decl = parse_declaration(*brackets[0])
                    if not (isinstance(decl, EqDecl) and isinstance(decl.lhs, Var)):
                        raise ValueError(f"one-step exemplar {i} must bind a name, not [[{brackets[0][0]}]]")
                else:
                    script_from_transcript(ex.solution)
            except (ParseError, ScriptError) as err:
                raise InvalidExemplarScript(i, err) from err


def assemble_prompt(spec: PromptSpec, question: str) -> str:
    """Concatenate header, banner, exemplars, and the test question.

    The variant fixes whether the header leads and which banner follows.
    Blocks are joined with blank lines; the final block is the test
    question with an empty solution slot (``Solution:`` with nothing after
    it) for the model to complete.
    """
    _, principled, banner = _VARIANT_ROWS[spec.variant]
    blocks: list[str] = []
    if principled:
        blocks.append(_PRINCIPLES_HEADER)
    if banner:
        blocks.append(banner)
    for ex in spec.exemplars:
        blocks.append(
            f"{QUESTION_PREFIX}{ex.question}{BLOCK_SEPARATOR}"
            f"{SOLUTION_PREFIX} {ex.solution}"
        )
    blocks.append(f"{QUESTION_PREFIX}{question}{BLOCK_SEPARATOR}{SOLUTION_PREFIX}")
    return BLOCK_SEPARATOR.join(blocks)


# --------------------------------------------------------------------------
# Exemplar files

def parse_exemplars(text: str) -> list[Exemplar]:
    """Parse sentinel-delimited exemplar text (no script validation here)."""
    exemplars: list[Exemplar] = []
    question_lines: list[str] | None = None
    solution_lines: list[str] | None = None
    start_line = 0

    def flush(line: int) -> None:
        nonlocal question_lines, solution_lines
        if question_lines is None:
            return
        if solution_lines is None:
            raise FormatError(start_line, "question block has no solution block")
        question = "\n".join(question_lines).strip()
        solution = "\n".join(solution_lines).strip()
        if not question:
            raise FormatError(start_line, "empty question block")
        if not solution:
            raise FormatError(start_line, "empty solution block")
        exemplars.append(Exemplar(question, solution))
        question_lines = solution_lines = None

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped == _QUESTION_SENTINEL:
            flush(lineno)
            question_lines = []
            start_line = lineno
        elif stripped == _SOLUTION_SENTINEL:
            if question_lines is None:
                raise FormatError(lineno, "solution sentinel before any question")
            if solution_lines is not None:
                raise FormatError(lineno, "duplicate solution sentinel")
            solution_lines = []
        elif solution_lines is not None:
            solution_lines.append(line)
        elif question_lines is not None:
            question_lines.append(line)
        elif stripped:
            raise FormatError(lineno, "text before the first question sentinel")
    flush(-1)
    if not exemplars:
        raise FormatError(1, "no exemplars in file")
    return exemplars


def load_exemplars(path: str | Path) -> list[Exemplar]:
    """Load exemplars from a sentinel-delimited file.  A PromptSpec checks
    their solutions against its variant."""
    return parse_exemplars(Path(path).read_text(encoding="utf-8-sig"))


def default_exemplar_path(variant: str) -> Path:
    """Filesystem path of the packaged exemplar file for a variant."""
    if variant not in _VARIANT_ROWS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    root = resources.files("declsolve").joinpath("data", "exemplars")
    return Path(str(root.joinpath(_VARIANT_ROWS[variant][0])))


def spec_for_variant(variant: str) -> PromptSpec:
    """A ready-to-use PromptSpec with the variant's packaged exemplars."""
    return PromptSpec(variant, tuple(load_exemplars(default_exemplar_path(variant))))
