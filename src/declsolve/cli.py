"""Command-line front end.

Subcommands:

- ``solve``: run one question through the full pipeline and print the answer.
- ``eval``: run a dataset, write reports, optionally repeat with --runs.
- ``check``: parse a transcript file and report principle violations.

Endpoint, model, and decoding parameters come from an optional JSON config
file; flags override the file; the API credential only ever comes from an
environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

from .client import DEFAULT_CREDENTIAL_ENV, DEFAULT_TIMEOUT, ClientError, Live, Replay, is_utf8_text
from .evaluation import (
    DatasetError,
    Problem,
    RunConfig,
    load_algebra,
    load_gsm8k,
    run_eval,
    run_problem,
)
from .exprs import format_rational
from .parsing import ParseError, ScriptError, check_principles, render_script, script_from_transcript
from .prompts import (
    DEFAULT_STOP_SEQUENCES,
    VARIANT_PRINCIPLES,
    VARIANTS,
    DecodingParams,
    spec_for_variant,
)
from .solver import format_value

DEFAULT_ENDPOINT = "https://api.openai.com/v1/completions"
DEFAULT_MODEL = "gpt-3.5-turbo-instruct"


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8-sig") as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as err:
            raise SystemExit(f"config: {path} is not JSON ({err})")
        except UnicodeDecodeError as err:
            raise SystemExit(f"config: {path} is not UTF-8 text ({err.reason})")
    if not isinstance(config, dict):
        raise SystemExit(f"config: {path} must hold a JSON object")
    text_keys = ("model", "endpoint", "credential_env")
    known = {*text_keys, "stop_sequences", "timeout", *(f.name for f in fields(DecodingParams))}
    unknown = sorted(config.keys() - known)
    if unknown:
        raise SystemExit(f"config: unknown key {', '.join(map(repr, unknown))}")
    for key in text_keys:
        if key in config and not (is_utf8_text(config[key]) and config[key]):
            raise SystemExit(f"config: {key} must be a non-empty string")
    return config


def _run_config(args: argparse.Namespace, config: dict) -> RunConfig:
    try:
        params = DecodingParams(**{f.name: config[f.name] for f in fields(DecodingParams) if f.name in config})
    except ValueError as err:
        raise SystemExit(f"config: {err}")
    model = args.model or config.get("model", DEFAULT_MODEL)
    stop = config.get("stop_sequences", DEFAULT_STOP_SEQUENCES)
    if not isinstance(stop, (list, tuple)) or not all(map(is_utf8_text, stop)):
        raise SystemExit("config: stop_sequences must be a list of strings")
    return RunConfig(model=model, params=params, stop_sequences=tuple(stop))


def _client_mode(args: argparse.Namespace, config: dict):
    endpoint = args.endpoint or config.get("endpoint", DEFAULT_ENDPOINT)
    timeout = config.get("timeout", DEFAULT_TIMEOUT)
    if type(timeout) not in (int, float) or not 0 < timeout < math.inf:  # a bool is an int
        raise SystemExit("config: timeout must be a positive number of seconds")
    mode_name = args.mode or ("replay" if args.cassette else "live")
    if mode_name != "live" and not args.cassette:
        raise SystemExit(f"{mode_name} mode requires --cassette")
    if mode_name == "live" and args.cassette:
        raise SystemExit("live mode takes no --cassette; record mode records through one")
    try:
        if mode_name == "replay":
            return Replay(args.cassette)
        return Live(
            endpoint=endpoint,
            cassette_path=args.cassette,
            credential_env=config.get("credential_env", DEFAULT_CREDENTIAL_ENV),
            timeout=timeout,
        )
    except UnicodeDecodeError as err:  # the mode reads its cassette as it is made
        raise SystemExit(f"cassette: {args.cassette}: not UTF-8 text ({err.reason})")
    except ValueError as err:
        raise SystemExit(f"cassette: {err}")


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    spec = spec_for_variant(args.variant)
    run_config = _run_config(args, config)
    mode = _client_mode(args, config)
    problem = Problem("cli", args.question, Fraction(0))
    record = run_problem(problem, spec, run_config, mode)
    if args.explain:
        if record.transcript is not None:
            print("transcript:")
            for line in record.transcript.splitlines():
                print(f"  {line}")
        if record.script is not None:
            print("script:")
            for line in render_script(record.script).splitlines():
                print(f"  {line}")
        if record.outcome is not None:
            print("trace:")
            for step in record.outcome.trace:
                print(f"  {step}")
            print(f"candidates: {', '.join(map(format_value, record.outcome.candidates))}")
        if record.principle_warnings:
            print(f"principle warnings: {record.principle_warnings}")
    if record.predicted is None:
        detail = f": {record.detail}" if record.detail else ""
        print(f"failed ({record.verdict}){detail}", file=sys.stderr)
        return 1
    print(format_value(record.predicted))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    loaders = {"gsm8k": load_gsm8k, "algebra": load_algebra}
    problems = loaders[args.format](args.dataset)
    spec = spec_for_variant(args.variant)
    run_config = _run_config(args, config)
    dataset_name = args.dataset_name or Path(args.dataset).stem

    rates = []
    for run_index in range(1, args.runs + 1):
        mode = _client_mode(args, config)
        out_dir = Path(args.out)
        if args.runs > 1:
            out_dir = out_dir / f"run-{run_index}"
        report = run_eval(
            problems,
            spec,
            mode,
            run_config,
            dataset_name=dataset_name,
            workers=args.workers,
            out_dir=out_dir,
            force=args.force,
        )
        rates.append(report.solve_rate)
        print(
            f"run {run_index}: {report.variant} on {dataset_name} — "
            f"solve rate {report.solve_rate:.1f}% "
            f"({report.histogram['Correct']}/{report.total})"
        )
    if args.runs > 1:
        mean = statistics.fmean(rates)
        spread = statistics.stdev(rates)
        print(f"runs: {args.runs}  mean solve rate: {mean:.1f}%  stddev: {spread:.2f}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        script = script_from_transcript(Path(args.transcript).read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        print(f"{args.transcript}: not UTF-8 text ({err.reason})", file=sys.stderr)
        return 1
    except (ParseError, ScriptError) as err:
        print(f"violation (principle {err.principle}): {err}")
        return 1
    print("script:")
    for line in render_script(script).splitlines():
        print(f"  {line}")
    unused = [format_rational(n) for n in check_principles(script, args.question or "")]
    for number in unused:
        print(f"warning (principle 5): question number {number} is not used in any equation")
    if unused:
        print(f"unused question numbers: {', '.join(unused)}")
    print("ok")
    return 0


def _at_least_one(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, not {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="declsolve",
        description="Formalize math word problems into equations and solve them exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags that choose the prompt variant and reach the model, shared by
    # solve and eval.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--variant", choices=VARIANTS, default=VARIANT_PRINCIPLES)
    shared.add_argument("--mode", choices=["live", "replay", "record"], default=None)
    shared.add_argument("--cassette", help="cassette path for replay/record modes")
    shared.add_argument("--config", help="JSON config file (endpoint, model, params)")
    shared.add_argument("--endpoint", help="completions endpoint URL")
    shared.add_argument("--model", help="model identifier")

    solve = sub.add_parser("solve", parents=[shared], help="solve a single question end to end")
    solve.add_argument("question")
    solve.add_argument("--explain", action="store_true", help="print script, trace, candidates")
    solve.set_defaults(func=_cmd_solve)

    evaluate = sub.add_parser("eval", parents=[shared], help="evaluate a dataset and write reports")
    evaluate.add_argument("--dataset", required=True, help="dataset file path")
    evaluate.add_argument("--format", choices=["gsm8k", "algebra"], required=True)
    evaluate.add_argument("--workers", type=_at_least_one, default=1)
    evaluate.add_argument("--runs", type=_at_least_one, default=1)
    evaluate.add_argument("--out", required=True, help="report output directory")
    evaluate.add_argument("--force", action="store_true", help="overwrite existing records")
    evaluate.add_argument("--dataset-name", help="label used in reports (default: file stem)")
    evaluate.set_defaults(func=_cmd_eval)

    check = sub.add_parser("check", help="parse a transcript and check the principles")
    check.add_argument("transcript", help="file containing a model transcript")
    check.add_argument("--question", help="question text, for unused-number warnings")
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ClientError as err:
        print(f"client error: {err}", file=sys.stderr)
        return 1
    except (DatasetError, OSError) as err:  # a bad or missing input file, an existing output
        print(str(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
