"""Checks on the benchmark itself: python3 -m pytest bench/test_bench.py

The traced-run test takes about two minutes: it runs every workload twice.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=400)


def test_generator_repeats_per_seed_and_keeps_its_mix_across_seeds():
    for make in (gen.gsm_items, gen.solver_items):
        first, again, other = make(3), make(3), make(4)
        assert [i.plan_json() for i in first] == [i.plan_json() for i in again]
        assert [(i.question, i.completion) for i in first] == [(i.question, i.completion) for i in again]
        assert [i.question for i in first] != [i.question for i in other]
        assert Counter(i.verdict for i in first) == Counter(i.verdict for i in other)
        assert Counter(bool(i.defect) for i in first) == Counter(bool(i.defect) for i in other)
        assert len({i.question for i in first}) == len(first)


def test_gsm_plan_covers_every_verdict_and_the_known_defects():
    items = gen.gsm_items(1)
    assert len(items) == gen.GSM_SIZE
    assert set(Counter(i.verdict for i in items)) == {
        gen.CORRECT, gen.WRONG_ANSWER, gen.PARSE_FAILURE, gen.SCRIPT_INVALID,
        gen.SOLVER_FAILURE, gen.CLIENT_FAILURE}
    assert any("[[x + y = 5]] and [[x * y = 6]]" in (i.completion or "") for i in items)
    cubic = [i for i in gen.solver_items(1) if "x^3 - 6 * x^2 + 11 * x = 6" in i.question]
    assert cubic and cubic[0].defect == gen.DEFECT_CLUSTERED_ROOTS


def test_benchmark_json_names_the_generated_workloads():
    assert [w["name"] for w in run.benchmark_spec()["workloads"]] == list(gen.WORKLOADS)


def record(verdict, predicted=None, candidates=None, detail=""):
    outcome = None if candidates is None else SimpleNamespace(candidates=tuple(map(Fraction, candidates)))
    return SimpleNamespace(verdict=verdict, detail=detail, script=object(), principle_warnings=0,
                           predicted=None if predicted is None else Fraction(predicted), outcome=outcome)


def test_only_the_known_failure_of_a_defect_is_excused():
    rng = gen.random.Random(0)
    pair = gen._sum_product(rng, "p", first=True).plan_json()
    assert child.mismatch(record(gen.CORRECT, 2, (2, 3)), pair) is None
    assert child.mismatch(record(gen.SOLVER_FAILURE, detail=gen.UNSOLVABLE_DETAIL), pair)["defect"]
    assert not child.mismatch(record(gen.SOLVER_FAILURE, detail="root branching exceeded 64 branches"),
                              pair)["defect"]
    assert not child.mismatch(record(gen.WRONG_ANSWER, 3, (3,)), pair)["defect"]

    cubic = gen._polynomial(rng, "c", 3, clustered=True).plan_json()
    low, middle, high = sorted(cubic["candidates"], key=Fraction)
    assert child.mismatch(record(gen.CORRECT, low, (low, middle, high)), cubic) is None
    assert child.mismatch(record(gen.CORRECT, low, (low, high)), cubic)["defect"]
    assert not child.mismatch(record(gen.CORRECT, low, (low,)), cubic)["defect"]
    assert not child.mismatch(record(gen.CORRECT, middle, (middle, high)), cubic)["defect"]


def test_plan_arithmetic():
    assert gen.select([Fraction(-3), Fraction(4)]) == 4
    assert gen.select([Fraction(1, 2), Fraction(5), Fraction(40)]) == 5
    assert gen.poly_from_roots([Fraction(1, 2), Fraction(3)]) == [3, -7, 2]
    assert gen.decimal(Fraction(-5, 4)) == "-1.25"
    assert gen.warnings_for([3, 30], [3, 4]) == 1


def test_p99_needs_ten_samples_beyond_it():
    assert child.percentile([float(i) for i in range(1, 1001)], 99) == 990.0
    with pytest.raises(ValueError):
        child.percentile([float(i) for i in range(999)], 99)


@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_traced_counts_repeat_exactly_for_one_seed(workload):
    counts = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], proc.stdout
        assert set(result["metrics"]) == set(run.units("per_layer"))
        counts.append({name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["client.fingerprint_calls"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "replay-gsm", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
