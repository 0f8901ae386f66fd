#!/usr/bin/env python3
"""Regenerate the committed replay fixture under tests/data/replay/.

The fixture is a 25-problem dataset with a recorded cassette and golden
report files.  Every problem's outcome is planned by hand below (the
verdict column); the script refuses to write anything if the pipeline
disagrees with the plan, so the committed byte-golden files always match
hand-checked arithmetic.

Planned verdict counts: 18 Correct, 2 WrongAnswer, 2 ParseFailure,
1 ScriptInvalid, 1 SolverFailure, 1 ClientFailure -> solve rate 72.0%.

Run from the repository root:

    python3 tools/make_replay_fixture.py [OUT_DIR]

OUT_DIR defaults to tests/data/replay.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from declsolve.client import CompletionRequest, Replay, append_record  # noqa: E402
from declsolve.evaluation import RunConfig, load_gsm8k, run_eval  # noqa: E402
from declsolve.prompts import assemble_prompt, default_exemplar_path, spec_for_variant  # noqa: E402

MODEL = "fixture-completions-v1"
VARIANT = "declarative_principles"
DATASET_NAME = "replay-25"

# (id, question, answer reasoning + gold, completion or None, planned verdict)
FIXTURE_ROWS = [
    (
        "fix-001",
        "The sum of two numbers is 12 and their difference is 4. What is the larger number?",
        "Adding the equations gives twice the larger number: 16, so 8.\n#### 8",
        " Let [[var larger]] be the larger number and [[var smaller]] the smaller one."
        " Their sum is 12, so [[larger + smaller = 12]]. Their difference is 4, so"
        " [[larger - smaller = 4]]. The question asks for [[answer = larger]].",
        "Correct",
    ),
    (
        "fix-002",
        "Maria bought 3 packs of notebooks with 4 notebooks in each pack, and 2 loose notebooks. How many notebooks did she buy?",
        "3 * 4 + 2 = 14.\n#### 14",
        " Let [[var packs]] with [[packs = 3]]. Each holds [[var per_pack]] notebooks,"
        " [[per_pack = 4]]. Loose ones: [[var loose]], [[loose = 2]]. The total is"
        " [[var total]] where [[total = packs * per_pack + loose]]. So [[answer = total]].",
        "Correct",
    ),
    (
        "fix-003",
        "A shirt costs 15 dollars and a pair of pants costs twice as much. How much do they cost together?",
        "Pants cost 30, total 45.\n#### 45",
        " The shirt price is [[var shirt]] with [[shirt = 15]]. The pants cost"
        " [[var pants]] where [[pants = 2 * shirt]]. Together [[var both]] satisfies"
        " [[both = shirt + pants]]. The question asks [[answer = both]].",
        "Correct",
    ),
    (
        "fix-004",
        "A square garden has an area of 49 square meters. How long is one side?",
        "The side is the square root of 49: 7.\n#### 7",
        " Let [[var side]] be the side length. The area gives [[side * side = 49]]."
        " The question asks for [[answer = side]].",
        "Correct",
    ),
    (
        "fix-005",
        "A positive number squared, minus the number itself, equals 12. What is the number?",
        "x^2 - x - 12 = 0 factors as (x-4)(x+3), so the positive root is 4.\n#### 4",
        " Let [[var x]] be the number. The statement says [[x * x - x = 12]]."
        " The question asks for [[answer = x]].",
        "Correct",
    ),
    (
        "fix-006",
        "Each of 6 friends pays 8.25 dollars for a shared gift. How much does the gift cost?",
        "6 * 8.25 = 49.5.\n#### 49.5",
        " The number of friends is [[var friends]], [[friends = 6]]. Each pays"
        " [[var each]] with [[each = 8.25]]. The gift costs [[var cost]] where"
        " [[cost = friends * each]]. So [[answer = cost]].",
        "Correct",
    ),
    (
        "fix-007",
        "Dana works 18 hours a week and earns 7.5 dollars per hour. How much does she earn in a week?",
        "18 * 7.5 = 135.\n#### 135",
        " Hours: [[var hours]], [[hours = 18]]. Rate: [[var rate]], [[rate = 7.5]]."
        " Weekly pay [[var pay]] satisfies [[pay = hours * rate]]. So [[answer = pay]].",
        "Correct",
    ),
    (
        "fix-008",
        "A jar holds 12 coins, all quarters and dimes, worth 180 cents in total. How many quarters are there?",
        "25q + 10(12 - q) = 180 gives 15q = 60, q = 4.\n#### 4",
        " Let [[var quarters]] and [[var dimes]] count the coins. There are 12 coins:"
        " [[quarters + dimes = 12]]. Their value is 180 cents:"
        " [[25 * quarters + 10 * dimes = 180]]. The question asks [[answer = quarters]].",
        "Correct",
    ),
    (
        "fix-009",
        "Adult tickets cost 8 dollars and child tickets 5 dollars. Ten tickets sold for 62 dollars. How many adult tickets were sold?",
        "8a + 5(10 - a) = 62 gives 3a = 12, a = 4.\n#### 4",
        " Let [[var adult]] and [[var child]] be ticket counts. Ten sold:"
        " [[adult + child = 10]]. Revenue: [[8 * adult + 5 * child = 62]]."
        " The question asks for [[answer = adult]].",
        "Correct",
    ),
    (
        "fix-010",
        "Anna is 3 times as old as Ben, and together their ages add up to 48. How old is Anna?",
        "b + 3b = 48 so b = 12 and Anna is 36.\n#### 36",
        " Let [[var anna]] and [[var ben]] be their ages. Anna is three times Ben:"
        " [[anna = 3 * ben]]. Together [[anna + ben = 48]]. So [[answer = anna]].",
        "Correct",
    ),
    (
        "fix-011",
        "After a 25% discount, a coat sells for 45 dollars. What was the original price?",
        "0.75p = 45 so p = 60.\n#### 60",
        " Let [[var original]] be the original price and [[var sale]] the sale price."
        " The discount gives [[sale = original - 0.25 * original]] and [[sale = 45]]."
        " The question asks for [[answer = original]].",
        "Correct",
    ),
    (
        "fix-012",
        "A bakery packs 120 cookies into boxes of 8. How many boxes does it fill?",
        "120 / 8 = 15.\n#### 15",
        " Cookies: [[var cookies]], [[cookies = 120]]. Box size: [[var size]],"
        " [[size = 8]]. Boxes filled: [[var boxes]] with [[boxes = cookies / size]]."
        " So [[answer = boxes]].",
        "Correct",
    ),
    (
        "fix-013",
        "Sam had 50 dollars, spent 12 on lunch, and put half of the rest into savings. How much did he save?",
        "50 - 12 = 38; half is 19.\n#### 19",
        " Start: [[var start]], [[start = 50]]. Spent: [[var spent]], [[spent = 12]]."
        " The rest is [[var rest]] with [[rest = start - spent]]. Savings are"
        " [[var saved]] where [[saved = rest / 2]]. So [[answer = saved]].",
        "Correct",
    ),
    (
        "fix-014",
        "Leo bought 5 bags of 6 marbles each and gave 7 marbles away. How many marbles does he have left?",
        "5 * 6 - 7 = 23.\n#### 23",
        " Bags: [[var bags]], [[bags = 5]]. Per bag: [[var per_bag]], [[per_bag = 6]]."
        " Given away: [[var gone]], [[gone = 7]]. Remaining [[var left]] satisfies"
        " [[left = bags * per_bag - gone]]. So [[answer = left]].",
        "Correct",
    ),
    (
        "fix-015",
        "A rectangle's perimeter is 36 meters and its length is twice its width. What is the length?",
        "2(l + w) = 36 and l = 2w give w = 6, l = 12.\n#### 12",
        " Let [[var length]] and [[var width]] be the sides. The perimeter gives"
        " [[2 * length + 2 * width = 36]]. Also [[length = 2 * width]]."
        " The question asks for [[answer = length]].",
        "Correct",
    ),
    (
        "fix-016",
        "Lisa is 30 years old and has 4 cats and 2 dogs. How many pets does Lisa have?",
        "4 + 2 = 6; her age does not matter.\n#### 6",
        " Cats: [[var cats]], [[cats = 4]]. Dogs: [[var dogs]], [[dogs = 2]]."
        " Pets: [[var pets]] with [[pets = cats + dogs]]. So [[answer = pets]].",
        "Correct",  # leaves the 30 unused: exercises the rule-5 warning path
    ),
    (
        "fix-017",
        "Seven liters of juice are shared equally between 2 jugs. How many liters go into each jug?",
        "7 / 2 = 3.5.\n#### 3.5",
        " Juice: [[var juice]], [[juice = 7]]. Jugs: [[var jugs]], [[jugs = 2]]."
        " Each jug gets [[var each]] liters where [[each = juice / jugs]]."
        " So [[answer = each]].",
        "Correct",
    ),
    (
        "fix-018",
        "A train covers 240 kilometers in 3 hours at a steady speed. What is its speed in kilometers per hour?",
        "240 / 3 = 80.\n#### 80",
        " Distance: [[var distance]], [[distance = 240]]. Time: [[var time_h]],"
        " [[time_h = 3]]. Speed [[var speed]] satisfies [[speed = distance / time_h]]."
        " So [[answer = speed]].",
        "Correct",
    ),
    (
        "fix-019",
        "A grocer stacks 6 crates with 4 melons in each crate. How many melons are stacked?",
        "6 * 4 = 24.\n#### 24",
        # the recorded model misreads six crates as five
        " Crates: [[var crates]], [[crates = 5]]. Each holds [[var per_crate]],"
        " [[per_crate = 4]]. Melons: [[var melons]] with"
        " [[melons = crates * per_crate]]. So [[answer = melons]].",
        "WrongAnswer",
    ),
    (
        "fix-020",
        "The sum of two numbers is 25 and their difference is 9. What is the smaller number?",
        "Subtracting: 2s = 16, s = 8.\n#### 8",
        # the recorded model answers the larger number instead
        " Let [[var larger]] and [[var smaller]] be the numbers."
        " [[larger + smaller = 25]] and [[larger - smaller = 9]]."
        " The question asks for [[answer = larger]].",
        "WrongAnswer",
    ),
    (
        "fix-021",
        "Noah read 14 pages on Monday and 21 on Tuesday. How many pages did he read in those two days?",
        "14 + 21 = 35.\n#### 35",
        " The answer is 35 pages, since 14 plus 21 makes 35.",  # no declarations
        "ParseFailure",
    ),
    (
        "fix-022",
        "A farm has 9 hens that each lay 3 eggs. How many eggs is that?",
        "9 * 3 = 27.\n#### 27",
        " Eggs: [[var eggs]] where [[eggs == 9 * 3]]. So [[answer = eggs]].",  # '==' is not in the grammar
        "ParseFailure",
    ),
    (
        "fix-023",
        "A carton of 18 eggs is split equally over 3 pans. How many eggs per pan?",
        "18 / 3 = 6.\n#### 6",
        " The total is [[var total]] where [[total = eggs / pans]]."  # eggs, pans never introduced
        " So [[answer = total]].",
        "ScriptInvalid",
    ),
    (
        "fix-024",
        "Two numbers add up to 20. What is the first number?",
        "Not determined by the statement alone; the writers intended 10.\n#### 10",
        " Let [[var x]] and [[var y]] be the numbers with [[x + y = 20]]."
        " The question asks for [[answer = x]].",  # underdetermined on purpose
        "SolverFailure",
    ),
    (
        "fix-025",
        "A ribbon of 90 centimeters is cut into 5 equal pieces. How long is each piece?",
        "90 / 5 = 18.\n#### 18",
        None,  # deliberately absent from the cassette: exercises ClientFailure
        "ClientFailure",
    ),
]

PLANNED_HISTOGRAM = {
    "Correct": 18,
    "WrongAnswer": 2,
    "ParseFailure": 2,
    "ScriptInvalid": 1,
    "SolverFailure": 1,
    "ClientFailure": 1,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the replay fixture.")
    parser.add_argument(
        "out_dir", nargs="?", type=Path, default=ROOT / "tests" / "data" / "replay",
        help="directory to write the fixture files to (default: tests/data/replay)",
    )
    out_root = parser.parse_args(argv).out_dir
    out_root.mkdir(parents=True, exist_ok=True)

    spec = spec_for_variant(VARIANT)
    config = RunConfig(model=MODEL)

    problems_path = out_root / "problems.jsonl"
    with open(problems_path, "w", encoding="utf-8") as handle:
        for problem_id, question, answer, _, _ in FIXTURE_ROWS:
            handle.write(
                json.dumps(
                    {"id": problem_id, "question": question, "answer": answer},
                    ensure_ascii=False,
                )
                + "\n"
            )

    exemplar_file = default_exemplar_path(VARIANT)
    metadata = {
        "model": MODEL,
        "label": "replay-fixture-v1",
        "prompt_files": {
            exemplar_file.name: hashlib.sha256(exemplar_file.read_bytes()).hexdigest()
        },
    }
    cassette_path = out_root / "cassette.jsonl"
    cassette_path.write_text(
        json.dumps({"metadata": metadata}, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    for _, question, _, completion, _ in FIXTURE_ROWS:
        if completion is None:
            continue
        request = CompletionRequest(
            MODEL, assemble_prompt(spec, question), config.params, config.stop_sequences
        )
        append_record(cassette_path, request, completion)

    golden_dir = out_root / "golden"
    if golden_dir.exists():
        shutil.rmtree(golden_dir)
    problems = load_gsm8k(problems_path)
    report = run_eval(
        problems,
        spec,
        Replay(str(cassette_path)),
        config,
        dataset_name=DATASET_NAME,
        out_dir=golden_dir,
    )

    failures = []
    for record, (problem_id, _, _, _, planned) in zip(report.records, FIXTURE_ROWS):
        if record.verdict != planned:
            failures.append(f"{problem_id}: planned {planned}, got {record.verdict} ({record.detail})")
    if dict(report.histogram) != PLANNED_HISTOGRAM:
        failures.append(f"histogram {report.histogram} != planned {PLANNED_HISTOGRAM}")
    if report.solve_rate != 72.0:
        failures.append(f"solve rate {report.solve_rate} != 72.0")
    warning_record = next(r for r in report.records if r.problem_id == "fix-016")
    if warning_record.principle_warnings != 1:
        failures.append("fix-016 should carry exactly one rule-5 warning")
    if failures:
        print("fixture plan mismatch — nothing written:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        shutil.rmtree(golden_dir, ignore_errors=True)
        return 1

    (golden_dir / "records.jsonl").rename(out_root / "expected_records.jsonl")
    (golden_dir / "report.txt").rename(out_root / "expected_report.txt")
    (golden_dir / "summary.csv").rename(out_root / "expected_summary.csv")
    shutil.rmtree(golden_dir)
    print(f"wrote fixture for {len(FIXTURE_ROWS)} problems under {out_root}")
    print(f"solve rate {report.solve_rate:.1f}%, histogram {report.histogram}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
