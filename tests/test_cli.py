"""Smoke tests for the command-line front end, driven through main(argv)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import declsolve
from declsolve.cli import DEFAULT_MODEL, main
from declsolve.client import CompletionRequest, append_record
from declsolve.prompts import assemble_prompt, spec_for_variant

from test_principle_fixtures import FIXTURES

REPLAY = Path(__file__).parent / "data" / "replay"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def _solve_cassette(path, question, completion, variant="declarative_principles"):
    spec = spec_for_variant(variant)
    request = CompletionRequest(DEFAULT_MODEL, assemble_prompt(spec, question))
    append_record(path, request, completion)


# --- check ---------------------------------------------------------------

def test_check_clean_transcript(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text("We need [[var n]] where [[n = 3 * 4]], so [[answer = n]].")
    assert main(["check", str(f)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "n = (3 * 4)" in out


def test_check_flags_violation_and_fails(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text("[[answer = n]] comes first, then [[var n]] and [[n = 2]].")
    assert main(["check", str(f)]) == 1
    assert "violation (principle 2)" in capsys.readouterr().out


def test_check_question_flag_warns_on_unused_numbers(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text("Take [[var n]] with [[n = 5 + 1]] giving [[answer = n]].")
    assert main(["check", str(f), "--question", "Add 5 and 1, ignoring 7 and 9."]) == 0
    out = capsys.readouterr().out
    assert "warning (principle 5)" in out
    assert "unused question numbers: 7, 9" in out


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_check_reports_each_principle_fixture(tmp_path, capsys, name):
    """`declsolve check` joins the two stages: a rule 1-4 violation is one
    line and exit 1; a valid script prints one rule-5 warning per unused
    question number and exits 0."""
    transcript, question, failures, warnings = FIXTURES[name]
    f = tmp_path / "t.txt"
    f.write_text(transcript, encoding="utf-8")
    code = main(["check", str(f), "--question", question])
    lines = capsys.readouterr().out.splitlines()
    if failures:
        (principle,) = failures
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(f"violation (principle {principle}): ")
    else:
        assert code == 0
        assert lines[0] == "script:" and lines[-1] == "ok"
        assert not any(line.startswith("violation") for line in lines)
        warned = [line for line in lines if line.startswith("warning (principle 5): question number ")]
        assert len(warned) == len(warnings)


def test_check_rejects_a_transcript_that_is_not_utf8(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_bytes(b"[[var x]] [[x = 1]] \xff [[answer = x]]")
    assert main(["check", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{f}: not UTF-8 text (invalid start byte)\n"


# --- solve ---------------------------------------------------------------

def test_solve_replay_prints_answer(tmp_path, capsys):
    cassette = tmp_path / "c.jsonl"
    question = "A box holds 12 red and 30 blue marbles. How many marbles?"
    _solve_cassette(
        cassette, question, " Count [[var m]]: [[m = 12 + 30]] so [[answer = m]]."
    )
    assert main(["solve", question, "--mode", "replay", "--cassette", str(cassette)]) == 0
    assert capsys.readouterr().out.strip() == "42"
    # Without --mode, a cassette means replay.
    assert main(["solve", question, "--cassette", str(cassette)]) == 0
    assert capsys.readouterr().out.strip() == "42"


def test_solve_explain_shows_script_and_trace(tmp_path, capsys):
    cassette = tmp_path / "c.jsonl"
    question = "Twice a number is 18. What is the number?"
    _solve_cassette(
        cassette, question, " Let [[var n]] satisfy [[2 * n = 18]]; [[answer = n]]."
    )
    code = main(
        ["solve", question, "--explain", "--mode", "replay", "--cassette", str(cassette)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "transcript:" in out and "script:" in out and "trace:" in out
    assert "candidates: 9" in out
    assert out.rstrip().endswith("9")


def test_solve_failure_exits_nonzero(tmp_path, capsys):
    cassette = tmp_path / "c.jsonl"
    question = "Unanswerable?"
    _solve_cassette(cassette, question, "No formalization at all here.")
    assert main(["solve", question, "--mode", "replay", "--cassette", str(cassette)]) == 1
    assert "failed (ParseFailure)" in capsys.readouterr().err


def test_solve_cassette_miss_is_client_failure(tmp_path, capsys):
    cassette = tmp_path / "c.jsonl"
    _solve_cassette(cassette, "Recorded question?", " [[var a]] [[a = 1]] [[answer = a]]")
    assert main(["solve", "Different question?", "--mode", "replay", "--cassette", str(cassette)]) == 1
    err = capsys.readouterr().err
    assert "failed (ClientFailure)" in err and "no cassette entry" in err


def test_solve_replay_requires_cassette():
    with pytest.raises(SystemExit):
        main(["solve", "Q?", "--mode", "replay"])


def test_solve_record_requires_cassette():
    with pytest.raises(SystemExit, match="record mode requires --cassette"):
        main(["solve", "Q?", "--mode", "record"])


def test_solve_live_refuses_a_cassette():
    """Live mode would drop the cassette unread; record mode is the one that
    records through it."""
    with pytest.raises(SystemExit, match="live mode takes no --cassette"):
        main(["solve", "Q?", "--mode", "live", "--cassette", "c.jsonl"])


# --- eval ----------------------------------------------------------------

def _eval_args(out_dir, extra=()):
    return [
        "eval",
        "--dataset", f"{REPLAY}/problems.jsonl",
        "--format", "gsm8k",
        "--variant", "declarative_principles",
        "--mode", "replay",
        "--cassette", f"{REPLAY}/cassette.jsonl",
        "--model", "fixture-completions-v1",
        "--dataset-name", "replay-25",
        "--out", str(out_dir),
        *extra,
    ]


def test_eval_reproduces_committed_reports(tmp_path, capsys):
    assert main(_eval_args(tmp_path / "out")) == 0
    assert "solve rate 72.0% (18/25)" in capsys.readouterr().out
    for produced, golden in [
        ("records.jsonl", "expected_records.jsonl"),
        ("report.txt", "expected_report.txt"),
        ("summary.csv", "expected_summary.csv"),
    ]:
        assert (tmp_path / "out" / produced).read_bytes() == open(
            f"{REPLAY}/{golden}", "rb"
        ).read()


def test_eval_refuses_overwrite_without_force(tmp_path, capsys):
    assert main(_eval_args(tmp_path / "out")) == 0
    capsys.readouterr()
    assert main(_eval_args(tmp_path / "out")) == 1
    assert "already exists" in capsys.readouterr().err
    assert main(_eval_args(tmp_path / "out", ["--force"])) == 0


def test_eval_runs_repeats_and_summarizes(tmp_path, capsys):
    assert main(_eval_args(tmp_path / "out", ["--runs", "2"])) == 0
    out = capsys.readouterr().out
    assert "run 1:" in out and "run 2:" in out
    assert "runs: 2  mean solve rate: 72.0%  stddev: 0.00" in out
    assert (tmp_path / "out" / "run-1" / "records.jsonl").exists()
    assert (tmp_path / "out" / "run-2" / "report.txt").exists()


@pytest.mark.parametrize("flag", ["--runs", "--workers"])
def test_eval_rejects_a_count_below_one(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(_eval_args(tmp_path / "out", [flag, "0"]))
    assert exit_info.value.code == 2
    assert f"{flag}: must be at least 1, not 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--runs", "--workers"])
def test_eval_rejects_a_count_that_is_not_an_integer(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(_eval_args(tmp_path / "out", [flag, "x"]))
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"{flag}: must be an integer, not 'x'" in err
    assert "_at_least_one" not in err


def test_eval_reads_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "fixture-completions-v1"}))
    args = [
        "eval",
        "--dataset", f"{REPLAY}/problems.jsonl",
        "--format", "gsm8k",
        "--mode", "replay",
        "--cassette", f"{REPLAY}/cassette.jsonl",
        "--dataset-name", "replay-25",
        "--out", str(tmp_path / "out"),
        "--config", str(config),
    ]
    assert main(args) == 0
    assert "solve rate 72.0%" in capsys.readouterr().out


def test_eval_reads_a_config_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("\ufeff" + json.dumps({"model": "fixture-completions-v1"}), encoding="utf-8")
    args = _eval_args(tmp_path / "out", ["--config", str(config)])
    assert main(args) == 0
    assert "solve rate 72.0%" in capsys.readouterr().out


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"max_tokens": 0}, "config: max_tokens must be positive"),
        ({"n_samples": 2}, "config: n_samples must be 1: only the first completion is read"),
        ({"max_tokens": "600"}, "config: max_tokens must be an integer, not str"),
        ({"stop_sequences": "Question:"}, "config: stop_sequences must be a list of strings"),
        ({"stop_sequences": ["Question:", 7]}, "config: stop_sequences must be a list of strings"),
        ({"timeout": "soon"}, "config: timeout must be a positive number of seconds"),
        ({"timeout": True}, "config: timeout must be a positive number of seconds"),
        ({"timeout": 0}, "config: timeout must be a positive number of seconds"),
        ({"credential_env": 5}, "config: credential_env must be a non-empty string"),
        ({"model": ["a"]}, "config: model must be a non-empty string"),
        ({"endpoint": ""}, "config: endpoint must be a non-empty string"),
        ({"max_token": 600}, "config: unknown key 'max_token'"),
        ({"seed": 1, "Model": "m"}, "config: unknown key 'Model', 'seed'"),
        # json.load reads the non-standard NaN, Infinity and -Infinity.
        ({"temperature": float("nan")}, "config: temperature must be finite"),
        ({"temperature": float("inf")}, "config: temperature must be finite"),
        ({"temperature": float("-inf")}, "config: temperature must be finite"),
        # A lone surrogate, which json.load reads but UTF-8 cannot encode.
        ({"model": "m\ud83d"}, "config: model must be a non-empty string"),
        ({"stop_sequences": ["Q\ud83d"]}, "config: stop_sequences must be a list of strings"),
    ],
)
def test_eval_rejects_bad_config_value_in_one_line(tmp_path, bad, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bad))
    with pytest.raises(SystemExit) as info:
        main(_eval_args(tmp_path / "out", ["--config", str(config)]))
    assert info.value.code == message
    assert not (tmp_path / "out").exists()


GOOD_LINE = '{"question": "Two and two?", "answer": "#### 4"}'

BAD_INPUTS = {
    # probe: (files to write, extra eval flags, what the one stderr line says)
    "missing-dataset": ({}, [], "No such file or directory: 'problems.jsonl'"),
    "dataset-line-not-json": (
        {"problems.jsonl": f"{GOOD_LINE}\nnot json\n"}, [], "problems.jsonl:2: not JSON"
    ),
    "record-without-answer": (
        {"problems.jsonl": '{"question": "Q?"}\n'}, [],
        "problems.jsonl:1: a record needs 'question' and 'answer'",
    ),
    "answer-without-marker": (
        {"problems.jsonl": '{"question": "Q?", "answer": "4"}\n'}, [],
        "gsm8k-0000: answer text has no '####' marker",
    ),
    "answer-not-text": (
        {"problems.jsonl": '{"question": "Q?", "answer": 4}\n'}, [],
        "gsm8k-0000: answer text has no '####' marker",
    ),
    "duplicate-ids": (
        {"problems.jsonl": '{"id": "a", "question": "Q?", "answer": "#### 4"}\n' * 2}, [],
        "problems.jsonl: duplicate problem id 'a'",
    ),
    "config-not-json": (
        {"problems.jsonl": GOOD_LINE + "\n", "config.json": "{model: x"}, ["--config", "config.json"],
        "config: config.json is not JSON",
    ),
    "config-not-an-object": (
        {"problems.jsonl": GOOD_LINE + "\n", "config.json": "[1]"}, ["--config", "config.json"],
        "config: config.json must hold a JSON object",
    ),
    "algebra-csv-without-answer-column": (
        {"problems.csv": "question,gold\nQ?,4\n"}, ["--format", "algebra", "--dataset", "problems.csv"],
        "problems.csv: a CSV needs 'question' and 'answer' columns",
    ),
    "algebra-row-without-answer-cell": (
        {"problems.csv": "question,answer\nQ?,4\nR?\n"}, ["--format", "algebra", "--dataset", "problems.csv"],
        "problems.csv:3: empty 'question' or 'answer' cell",
    ),
    "missing-cassette": (
        {"problems.jsonl": GOOD_LINE + "\n"}, ["--mode", "replay"], "No such file or directory: 'c.jsonl'",
    ),
    "malformed-cassette": (
        {"problems.jsonl": GOOD_LINE + "\n", "c.jsonl": '{"neither": 1}\n'}, [],
        "cassette: c.jsonl:1: unrecognized cassette line",
    ),
    "dataset-jsonl-not-utf8": (
        {"problems.jsonl": GOOD_LINE.encode() + b"\n\xff\n"}, [],
        "problems.jsonl: not UTF-8 text (invalid start byte)",
    ),
    "dataset-csv-not-utf8": (
        {"problems.csv": b"question,answer\nQ\xff?,4\n"}, ["--format", "algebra", "--dataset", "problems.csv"],
        "problems.csv: not UTF-8 text (invalid start byte)",
    ),
    "config-not-utf8": (
        {"problems.jsonl": GOOD_LINE + "\n", "config.json": b'{"model": "\xff"}'}, ["--config", "config.json"],
        "config: config.json is not UTF-8 text (invalid start byte)",
    ),
    "cassette-not-utf8": (
        {"problems.jsonl": GOOD_LINE + "\n", "c.jsonl": b"\xff\n"}, [],
        "cassette: c.jsonl: not UTF-8 text (invalid start byte)",
    ),
    "empty-dataset": ({"problems.jsonl": "\n"}, [], "problems.jsonl: no problems"),
    "csv-with-only-a-header": (
        {"problems.csv": "question,answer\n"}, ["--format", "algebra", "--dataset", "problems.csv"],
        "problems.csv: no problems",
    ),
}


@pytest.mark.parametrize("probe", BAD_INPUTS)
def test_eval_bad_input_file_fails_in_one_line(tmp_path, probe):
    """A bad dataset, config or cassette is reported in one stderr line with
    exit status 1, never as a traceback, and no report is written."""
    files, extra, message = BAD_INPUTS[probe]
    for name, text in files.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    argv = ["eval", "--dataset", "problems.jsonl", "--format", "gsm8k",
            "--cassette", "c.jsonl", "--out", "out", *extra]
    src = Path(declsolve.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "declsolve.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("\n") == 1 and message in proc.stderr, proc.stderr
    assert not (tmp_path / "out").exists()


# --- console script --------------------------------------------------------

def _declared_script(name):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def _assert_prints_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: declsolve ")
    assert "solve" in proc.stdout and "eval" in proc.stdout and "check" in proc.stdout


def test_console_script_help_runs(tmp_path):
    """The script pyproject.toml declares, run as the generated wrapper runs it."""
    module, _, func = _declared_script("declsolve").partition(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'declsolve'\n"
        f"sys.exit({func}())\n"
    )
    src = Path(declsolve.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    _assert_prints_help(proc)


@pytest.mark.skipif(shutil.which("declsolve") is None, reason="no declsolve program on PATH")
def test_installed_console_script_runs(tmp_path):
    """The installed program, with its own install's imports, not this checkout's."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [shutil.which("declsolve"), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    _assert_prints_help(proc)
