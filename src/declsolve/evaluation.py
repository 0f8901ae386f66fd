"""End-to-end evaluation: datasets, scoring, verdicts, reports.

Per problem the pipeline assembles the prompt, obtains a completion,
parses the bracketed declarations into a script, checks the structural
principles, produces an answer (symbolically — or, for the variant where
the model computes its own answer, by extracting the final number from
the transcript), scores it against gold, and classifies the result into
exactly one verdict.  Per-problem failures become verdicts; they never
abort a run.

Reports are byte-deterministic: no timestamps, fixed key order, fixed
float formatting.  Records stream to disk in dataset order as they are
produced, so a crashed run keeps every record finished before the crash.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import re
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator, Sequence

from .client import ClientError, ClientMode, CompletionRequest, Transport, complete, is_utf8_text
from .exprs import MAX_POWER_BITS, Expr, Var, format_rational
from .parsing import (
    EqDecl,
    GoalDecl,
    ParseError,
    ScriptError,
    SolutionScript,
    VarDecl,
    bounded_numeral,
    build_script,
    check_principles,
    extract_brackets,
    parse_declaration,
    script_from_transcript,
)
from .prompts import (
    DEFAULT_STOP_SEQUENCES,
    VARIANT_LLM_SOLVES,
    VARIANT_ONE_STEP,
    DecodingParams,
    PromptSpec,
    assemble_prompt,
)
from .solver import EquationSystem, SolveOutcome, SolverError, Value, solve_system

# Verdicts, one per record, in report order.
CORRECT = "Correct"
WRONG_ANSWER = "WrongAnswer"
PARSE_FAILURE = "ParseFailure"
SCRIPT_INVALID = "ScriptInvalid"
SOLVER_FAILURE = "SolverFailure"
CLIENT_FAILURE = "ClientFailure"
VERDICTS: tuple[str, ...] = (
    CORRECT,
    WRONG_ANSWER,
    PARSE_FAILURE,
    SCRIPT_INVALID,
    SOLVER_FAILURE,
    CLIENT_FAILURE,
)

SCORE_RELATIVE_TOLERANCE = 1e-4

_log = logging.getLogger(__name__)

_GOLD_NUMERAL_RE = re.compile(r"^-?\d+(?:\.\d+)?$")
_TRANSCRIPT_NUMERAL_RE = re.compile(r"-?\d[\d,]*(?:\.\d+)?")


class DatasetError(Exception):
    """Base class for dataset loading failures."""


class MissingMarkerError(DatasetError):
    def __init__(self, problem_id: str):
        super().__init__(f"{problem_id}: answer text has no '####' marker")
        self.problem_id = problem_id


class UnparseableGoldError(DatasetError):
    def __init__(self, problem_id: str, raw: str):
        super().__init__(f"{problem_id}: cannot parse gold answer {raw!r}")
        self.problem_id = problem_id
        self.raw = raw


@dataclass(frozen=True)
class Problem:
    id: str
    question: str
    gold_answer: Fraction


@dataclass(frozen=True)
class RunConfig:
    """Model identity and decoding parameters for a run."""

    model: str
    params: DecodingParams = field(default_factory=DecodingParams)
    stop_sequences: tuple[str, ...] = DEFAULT_STOP_SEQUENCES


@dataclass(frozen=True)
class EvalRecord:
    problem_id: str
    transcript: str | None
    script: SolutionScript | None
    outcome: SolveOutcome | None
    predicted: Value | None
    verdict: str
    any_candidate_correct: bool
    principle_warnings: int
    detail: str = ""


@dataclass(frozen=True)
class RunReport:
    variant: str
    dataset: str
    solve_rate: float
    histogram: dict[str, int]
    records: tuple[EvalRecord, ...]
    config: dict[str, Any]

    @property
    def total(self) -> int:
        return sum(self.histogram.values())


# --------------------------------------------------------------------------
# Datasets

def _parse_gold(raw: str, problem_id: str) -> Fraction:
    cleaned = raw.strip().replace(",", "").rstrip(".")
    if cleaned.endswith("%"):
        cleaned = cleaned[:-1]
    value = _signed_numeral(cleaned) if _GOLD_NUMERAL_RE.match(cleaned) else None
    if value is None:
        raise UnparseableGoldError(problem_id, raw)
    return value


def _signed_numeral(text: str) -> Fraction | None:
    """`bounded_numeral` of `text`, which may start with a minus sign."""
    value = bounded_numeral(text.lstrip("-"))
    return -value if value is not None and text.startswith("-") else value


def load_gsm8k(path: str | Path) -> list[Problem]:
    """Grade-school set: JSONL with question/answer fields.

    The gold answer is the numeral after the final ``####`` marker in the
    answer text, with thousands commas stripped.
    """
    problems: list[Problem] = []
    for problem_id, record in _jsonl_records(path, "gsm8k"):
        answer_text = str(record["answer"])
        marker = answer_text.rfind("####")
        if marker < 0:
            raise MissingMarkerError(problem_id)
        gold = _parse_gold(answer_text[marker + 4 :], problem_id)
        problems.append(Problem(problem_id, record["question"], gold))
    return _checked(problems, path)


def load_algebra(path: str | Path) -> list[Problem]:
    """Algebra set: CSV (question/answer columns) or JSONL records.

    Gold answers must be single numerals; anything else is rejected at
    load time.
    """
    path = Path(path)
    problems: list[Problem] = []
    if path.suffix.lower() in (".csv", ".tsv"):
        dialect = "excel-tab" if path.suffix.lower() == ".tsv" else "excel"
        with _open_text(path, newline="") as handle:
            reader = csv.DictReader(handle, dialect=dialect)
            if not {"question", "answer"} <= set(reader.fieldnames or ()):
                raise DatasetError(f"{path}: a CSV needs 'question' and 'answer' columns")
            for index, row in enumerate(reader):
                if not row["question"] or not row["answer"]:
                    raise DatasetError(f"{path}:{reader.line_num}: empty 'question' or 'answer' cell")
                problem_id = str(row.get("id") or f"algebra-{index:04d}")
                gold = _parse_gold(row["answer"], problem_id)
                problems.append(Problem(problem_id, row["question"], gold))
    else:
        for problem_id, record in _jsonl_records(path, "algebra"):
            gold = _parse_gold(str(record["answer"]), problem_id)
            problems.append(Problem(problem_id, record["question"], gold))
    return _checked(problems, path)


def _jsonl_records(path: str | Path, id_prefix: str) -> Iterator[tuple[str, dict]]:
    """Each record of a JSONL file with its id: its own `id` field, else
    `<id_prefix>-NNNN` for its line index, blank lines counted.  A line that
    is not a JSON object with `question` and `answer`, whose `question` is
    not non-empty text UTF-8 can encode, or whose id UTF-8 cannot encode, is
    a DatasetError."""
    with _open_text(path) as handle:
        for index, line in enumerate(handle):
            line = line.strip()
            if line:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as err:
                    raise DatasetError(f"{path}:{index + 1}: not JSON ({err})") from None
                if not isinstance(record, dict) or not {"question", "answer"} <= record.keys():
                    raise DatasetError(f"{path}:{index + 1}: a record needs 'question' and 'answer'")
                if not is_utf8_text(record["question"]) or not record["question"]:
                    raise DatasetError(f"{path}:{index + 1}: 'question' must be non-empty text")
                problem_id = str(record.get("id", f"{id_prefix}-{index:04d}"))
                if not is_utf8_text(problem_id):
                    raise DatasetError(f"{path}:{index + 1}: 'id' must be UTF-8 text")
                yield problem_id, record


@contextmanager
def _open_text(path: str | Path, newline: str | None = None) -> Iterator[io.TextIOBase]:
    """`path` opened as UTF-8 text, less any leading byte-order mark, where a
    byte that does not decode is a DatasetError."""
    with open(path, encoding="utf-8-sig", newline=newline) as handle:
        try:
            yield handle
        except UnicodeDecodeError as err:
            raise DatasetError(f"{path}: not UTF-8 text ({err.reason})") from None


def _checked(problems: list[Problem], path: str | Path) -> list[Problem]:
    """`problems`, which must be at least one, each with its own id."""
    if not problems:
        raise DatasetError(f"{path}: no problems")
    seen: set[str] = set()
    for problem in problems:
        if problem.id in seen:
            raise DatasetError(f"{path}: duplicate problem id {problem.id!r}")
        seen.add(problem.id)
    return problems


# --------------------------------------------------------------------------
# Scoring and answer extraction

def score(predicted: Value, gold: Fraction) -> bool:
    """Exact equality for exact values; relative tolerance for floats, which
    no gold answer past the float range is within."""
    if isinstance(predicted, Fraction):
        return predicted == gold
    try:
        gold_f = float(gold)
    except OverflowError:
        return False
    return abs(predicted - gold_f) <= SCORE_RELATIVE_TOLERANCE * max(1.0, abs(gold_f))


def extract_final_number(transcript: str) -> Fraction | None:
    """Last numeral on the last non-empty line, commas stripped, or None.

    Raises ValueError when that numeral is past the bound every script
    numeral is held to (`parsing.bounded_numeral`).
    """
    for line in reversed(transcript.splitlines()):
        if line.strip():
            numerals = _TRANSCRIPT_NUMERAL_RE.findall(line)
            if not numerals:
                return None
            value = _signed_numeral(numerals[-1].replace(",", ""))
            if value is None:
                raise ValueError(f"final number exceeds {MAX_POWER_BITS} bits")
            return value
    return None


# --------------------------------------------------------------------------
# The per-problem pipeline

def run_problem(
    problem: Problem,
    spec: PromptSpec,
    config: RunConfig,
    mode: ClientMode,
    *,
    transport: Transport | None = None,
    leaves: dict[str, Expr] | None = None,
) -> EvalRecord:
    """Run one problem end to end and classify the result.

    A `ClientError` from the completion is a ClientFailure; anything else
    `complete` raises (a malformed cassette, a faulty transport) propagates
    and aborts the run.  Every error after the completion is a verdict: a
    parse error a ParseFailure, a script error a ScriptInvalid, a failed
    solve (any `SolverError`, whose type is the failure class) or a missing
    final number a SolverFailure that keeps the script and its warnings, and
    any other error a SolverFailure without them.

    `leaves` is the parser's leaf cache (`parse_declaration`): `run_eval`
    shares one among its workers, two of which may make two equal nodes
    for one text, and without it each parse gets a fresh one.
    """
    prompt = assemble_prompt(spec, problem.question)
    request = CompletionRequest(config.model, prompt, config.params, config.stop_sequences)
    try:
        transcript = complete(request, mode, transport=transport)
    except ClientError as err:
        return EvalRecord(
            problem.id, None, None, None, None, CLIENT_FAILURE, False, 0, str(err)
        )
    script, warnings = None, 0
    try:
        script = _script(spec, transcript, leaves)
        warnings = len(check_principles(script, problem.question))
        outcome, predicted = _answer(spec, script, transcript)
        correct = score(predicted, problem.gold_answer)
        any_correct = correct if outcome is None else any(
            score(c, problem.gold_answer) for c in outcome.candidates
        )
    except _Failure as failure:
        verdict, detail = failure.args
    except Exception as err:
        # The last resort behind the typed failures: whatever else a
        # completion makes the parser, the rule check or the solver raise
        # (RecursionError on a deep tree, say) is a verdict, not an abort.
        _log.debug("problem %s: unexpected error", problem.id, exc_info=True)
        script, warnings = None, 0
        verdict, detail = SOLVER_FAILURE, f"{type(err).__name__}: {err}"
    else:
        return EvalRecord(
            problem.id, transcript, script, outcome, predicted,
            CORRECT if correct else WRONG_ANSWER, any_correct, warnings,
        )
    return EvalRecord(problem.id, transcript, script, None, None, verdict, False, warnings, detail)


class _Failure(Exception):
    """A stage's typed failure; its args are the record's verdict and detail."""


def _script(spec: PromptSpec, transcript: str, leaves: dict[str, Expr] | None) -> SolutionScript:
    """The completion's script.  Where that fails, the one-step variant
    takes the single-equation convention: one declaration of the form
    ``name = expression``, whose left-hand variable is the implicit goal.
    Fails as a ParseFailure or a ScriptInvalid."""
    try:
        return script_from_transcript(transcript, leaves=leaves)
    except ParseError as err:
        raise _Failure(PARSE_FAILURE, str(err))
    except ScriptError as err:
        if spec.variant != VARIANT_ONE_STEP:
            raise _Failure(SCRIPT_INVALID, str(err))
    # script_from_transcript got past parsing every bracket, so this parses.
    declarations = [parse_declaration(raw, span, leaves) for raw, span in extract_brackets(transcript)]
    equations = [d for d in declarations if isinstance(d, EqDecl)]
    if len(equations) != 1 or not isinstance(equations[0].lhs, Var):
        raise _Failure(SCRIPT_INVALID, "expected exactly one equation with a variable on the left")
    equation = equations[0]
    goal = equation.lhs.name
    names = [goal] + sorted(set(equation.rhs_names) - {goal})
    try:  # the script declares every name, so only the goal keyword fails
        return build_script([*map(VarDecl, names), equation, GoalDecl(goal)])
    except ScriptError as err:
        raise _Failure(SCRIPT_INVALID, str(err))


def _answer(
    spec: PromptSpec, script: SolutionScript, transcript: str
) -> tuple[SolveOutcome | None, Value]:
    """The solver's outcome and selected answer, or, where the model solves,
    no outcome and the transcript's final number.  Fails as a SolverFailure."""
    try:
        if spec.variant != VARIANT_LLM_SOLVES:
            outcome = solve_system(EquationSystem.from_script(script))
            return outcome, outcome.selected
        predicted = extract_final_number(transcript)
    except (SolverError, ValueError) as err:
        raise _Failure(SOLVER_FAILURE, str(err))
    if predicted is None:
        raise _Failure(SOLVER_FAILURE, "no final number in transcript")
    return None, predicted


# --------------------------------------------------------------------------
# Record serialization

def _value_to_json(value: Value | None) -> Any:
    if value is None:
        return None
    if isinstance(value, Fraction):
        return format_rational(value)
    return value


def record_to_json(record: EvalRecord) -> dict[str, Any]:
    row: dict[str, Any] = {
        "id": record.problem_id,
        "verdict": record.verdict,
        "predicted": _value_to_json(record.predicted),
        "any_candidate_correct": record.any_candidate_correct,
        "principle_warnings": record.principle_warnings,
        "transcript": record.transcript,
    }
    if record.outcome is not None:
        row["candidates"] = [_value_to_json(c) for c in record.outcome.candidates]
        row["trace"] = list(record.outcome.trace)
    if record.detail:
        row["detail"] = record.detail
    return row


# --------------------------------------------------------------------------
# Run orchestration

def _config_snapshot(spec: PromptSpec, config: RunConfig, dataset: str) -> dict[str, Any]:
    return {
        "variant": spec.variant,
        "dataset": dataset,
        "model": config.model,
        "params": config.params.as_dict(),
        "stop_sequences": list(config.stop_sequences),
        "prompt_spec_sha256": hashlib.sha256(assemble_prompt(spec, "").encode("utf-8")).hexdigest(),
        "seed": None,
    }


def _aggregate(
    records: Sequence[EvalRecord],
    spec_variant: str,
    dataset: str,
    snapshot: dict[str, Any],
) -> RunReport:
    histogram = {verdict: 0 for verdict in VERDICTS}
    for record in records:
        histogram[record.verdict] += 1
    total = len(records)
    solve_rate = 100.0 * histogram[CORRECT] / total if total else 0.0
    return RunReport(spec_variant, dataset, solve_rate, histogram, tuple(records), snapshot)


def run_eval(
    problems: Sequence[Problem],
    spec: PromptSpec,
    mode: ClientMode,
    config: RunConfig,
    *,
    dataset_name: str = "dataset",
    workers: int = 1,
    out_dir: str | Path | None = None,
    force: bool = False,
    transport: Transport | None = None,
) -> RunReport:
    """Evaluate every problem and aggregate a report.

    Records stream to ``out_dir/records.jsonl`` in dataset order as they
    are produced, and ``report.txt`` and ``summary.csv`` are written when
    the run ends.  An existing records file is refused unless ``force``.
    ``workers`` threads solve problems concurrently; it is also the bound
    on completion requests in flight.
    """
    if not problems:
        raise ValueError("dataset is empty")
    snapshot = _config_snapshot(spec, config, dataset_name)

    handle: io.TextIOBase | None = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        records_path = out_dir / "records.jsonl"
        if records_path.exists() and not force:
            raise FileExistsError(
                f"{records_path} already exists; pass force=True (--force) to overwrite"
            )
        handle = open(records_path, "w", encoding="utf-8")
        handle.write(json.dumps({"meta": snapshot}, sort_keys=True, ensure_ascii=False) + "\n")
        handle.flush()

    leaves: dict[str, Expr] = {}  # the run's one node per name or numeral text

    def solve(problem: Problem) -> EvalRecord:
        # run_problem is looked up at call time, so a wrapper installed on
        # this module (to time or trace each problem) sees every call.
        return run_problem(problem, spec, config, mode, transport=transport, leaves=leaves)

    records: list[EvalRecord] = []
    try:
        # Both maps yield in dataset order, so each record is written as
        # soon as every record before it is done.
        with (ThreadPoolExecutor(workers) if workers > 1 else nullcontext()) as pool:
            for record in (map if pool is None else pool.map)(solve, problems):
                records.append(record)
                if handle is not None:
                    handle.write(json.dumps(record_to_json(record), sort_keys=True, ensure_ascii=False) + "\n")
                    handle.flush()
    finally:
        if handle is not None:
            handle.close()

    report = _aggregate(records, spec.variant, dataset_name, snapshot)
    if out_dir is not None:
        emit_report(report, out_dir)
    return report


# --------------------------------------------------------------------------
# Reports

def render_report_table(report: RunReport) -> str:
    """Human-readable summary: one rate row plus the verdict histogram."""
    lines = [
        "run report",
        "==========",
        f"variant:    {report.variant}",
        f"dataset:    {report.dataset}",
        f"model:      {report.config.get('model', '?')}",
        f"problems:   {report.total}",
        f"solve rate: {report.solve_rate:.1f}%",
        "",
        "verdict histogram:",
    ]
    width = max(len(v) for v in VERDICTS)
    for verdict in VERDICTS:
        lines.append(f"  {verdict:<{width}}  {report.histogram.get(verdict, 0)}")
    lines.append("")
    lines.append(f"{'variant':<28} {'dataset':<16} {'rate':>6}")
    lines.append(f"{report.variant:<28} {report.dataset:<16} {report.solve_rate:>6.1f}")
    return "\n".join(lines) + "\n"


def render_report_csv(report: RunReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["variant", "dataset", "total", "solve_rate", *VERDICTS])
    writer.writerow(
        [
            report.variant,
            report.dataset,
            report.total,
            f"{report.solve_rate:.4f}",
            *[report.histogram.get(v, 0) for v in VERDICTS],
        ]
    )
    return buffer.getvalue()


def emit_report(report: RunReport, out_dir: str | Path) -> None:
    """Write ``report.txt`` and ``summary.csv``.  Bytes are deterministic."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(render_report_table(report), encoding="utf-8")
    (out_dir / "summary.csv").write_text(render_report_csv(report), encoding="utf-8")

