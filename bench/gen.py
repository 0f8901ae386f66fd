"""Seeded workload generator for the declsolve benchmark.

Each problem carries its gold answer and a plan: the verdict, selected
answer, candidate set and rule-5 warning count that a correct pipeline
produces for it.  The plan comes from this module's own arithmetic, never
from running the pipeline.  Template counts and number ranges are fixed, so
every seed yields the same mix and size; the seed only draws the numbers,
the names and the order.

A problem from a template that probes a known defect carries a ``defect``
note and the ``known`` outcome that the defect produces today.  When the
pipeline disagrees with its plan the problem counts as failed and is listed
by id; the disagreement is excused as known only when the pipeline's result
equals that ``known`` outcome exactly.

Template counts are fixed by hand so that a traced run spends its time in
the layers in about the shares measured on GSM8K-shaped and algebra-style
traffic (see bench/README.md, "Traffic"): the numbers below are the result
of that fitting, not of any external dataset statistic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

MODEL = "bench-completions-v1"
VARIANT = "declarative_principles"
GSM_SIZE = 1319  # size of the GSM8K test split

CORRECT = "Correct"
WRONG_ANSWER = "WrongAnswer"
PARSE_FAILURE = "ParseFailure"
SCRIPT_INVALID = "ScriptInvalid"
SOLVER_FAILURE = "SolverFailure"
CLIENT_FAILURE = "ClientFailure"

DEFECT_SUM_PRODUCT = "linear equation never substituted into a nonlinear one -> UnsolvableError"
DEFECT_CLUSTERED_ROOTS = "numeric root finder misses roots that share one grid decade"
UNSOLVABLE_DETAIL = "no solving strategy applies"  # str(solver.UnsolvableError())

WORKLOADS = ("replay-gsm", "replay-solver-heavy", "record-resume")

NAMES = ("Ava", "Ben", "Cora", "Dev", "Elena", "Farid", "Greta", "Hugo", "Iris", "Jonas",
         "Kemal", "Lena", "Mateo", "Nadia", "Omar", "Priya", "Quinn", "Rosa", "Sami", "Tara")
ITEMS = ("apples", "marbles", "stickers", "coins", "cards", "pencils", "shells", "beads",
         "stamps", "books", "cookies", "buttons")


@dataclass
class Item:
    id: str
    question: str
    gold: Fraction
    completion: str | None
    verdict: str
    predicted: Fraction | None = None
    candidates: tuple[Fraction, ...] | None = None
    warnings: int = 0
    defect: str = ""
    known: dict | None = None  # outcome(...) that the known defect produces

    def plan_json(self) -> dict:
        return {
            "id": self.id,
            **outcome(self.verdict, self.predicted, self.candidates, self.warnings),
            "defect": self.defect,
            "known": self.known,
        }


def outcome(verdict, predicted=None, candidates=None, warnings=0, detail=None) -> dict:
    """A record's expected shape; ``detail`` None means it is not checked."""
    return {
        "verdict": verdict,
        "predicted": None if predicted is None else str(predicted),
        "candidates": None if candidates is None else sorted(str(c) for c in candidates),
        "warnings": warnings,
        "detail": detail,
    }


# --------------------------------------------------------------------------
# Arithmetic helpers

def select(candidates) -> Fraction:
    """The documented answer preference: nonnegative, then integer valued,
    then smallest magnitude, then the smaller value (all candidates here are
    exact)."""
    pool = [c for c in candidates if c >= 0] or list(candidates)
    pool = [c for c in pool if c.denominator == 1] or pool
    return min(pool, key=lambda c: (abs(c), c))


def decimal(value: Fraction) -> str:
    """A terminating decimal numeral for `value` (gold answers need one)."""
    if value.denominator == 1:
        return str(value.numerator)
    for places in range(1, 12):
        scaled = value * 10**places
        if scaled.denominator == 1:
            sign = "-" if scaled < 0 else ""
            digits = str(abs(scaled.numerator)).rjust(places + 1, "0")
            return f"{sign}{digits[:-places]}.{digits[-places:]}"
    raise ValueError(f"{value} has no short terminating decimal")


def warnings_for(question_numbers, equation_numbers) -> int:
    """Rule 5: distinct question numbers that no equation uses."""
    return len(set(map(Fraction, question_numbers)) - set(map(Fraction, equation_numbers)))


def letters(index: int) -> str:
    """Digit-free identifier suffix: 0 -> a, 25 -> z, 26 -> ba, ..."""
    out = ""
    while True:
        out = chr(ord("a") + index % 26) + out
        index //= 26
        if index == 0:
            return out


def poly_from_roots(roots: list[Fraction]) -> list[int]:
    """Integer coefficients (index = power) of prod(q*x - p) over p/q roots."""
    coeffs = [1]
    for root in roots:
        p, q = root.numerator, root.denominator
        out = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            out[i] += -p * c
            out[i + 1] += q * c
        coeffs = out
    return coeffs


def term(coeff: int, body: str, first: bool) -> str:
    """One signed term of a sum, with coefficient 1 left implicit."""
    magnitude = abs(coeff)
    text = body if magnitude == 1 else f"{magnitude} * {body}"
    if first:
        return f"-{text}" if coeff < 0 else text
    return f"- {text}" if coeff < 0 else f"+ {text}"


# --------------------------------------------------------------------------
# GSM-shaped templates

def _chain(rng: random.Random, pid: str, *, misread: bool = False, distractor: bool = False,
           steps: int = 3) -> Item:
    name, items = rng.choice(NAMES), rng.choice(ITEMS)
    start = rng.randint(6, 60)
    sentences = [f"{name} has {start} {items}."]
    question_numbers = [start]
    used_start = start + 10 if misread else start
    parts = [f" {name} starts with [[var c0]] {items}, so [[c0 = {used_start}]]."]
    equation_numbers = [used_start]
    value, used_value = Fraction(start), Fraction(used_start)
    for i in range(1, steps + 1):
        divisors = [d for d in range(2, 10) if value % d == 0 and used_value % d == 0]
        op = rng.choice("+-*/")
        if op == "/" and not divisors:
            op = "+"
        if op == "-" and value <= 2:
            op = "+"
        if op == "+":
            k = rng.randint(2, 40)
            sentences.append(f"Then {name} buys {k} more {items}.")
            parts.append(f" Buying {k} more gives [[var c{i}]] with [[c{i} = c{i-1} + {k}]].")
            value, used_value = value + k, used_value + k
        elif op == "-":
            k = rng.randint(1, int(value) - 1)
            sentences.append(f"Then {name} gives away {k} {items}.")
            parts.append(f" Giving {k} away leaves [[var c{i}]] with [[c{i} = c{i-1} - {k}]].")
            value, used_value = value - k, used_value - k
        elif op == "*":
            k = rng.randint(2, 5)
            sentences.append(f"Then each of the {items} is traded for {k} new ones.")
            parts.append(f" Trading gives [[var c{i}]] where [[c{i} = c{i-1} * {k}]].")
            value, used_value = value * k, used_value * k
        else:
            k = rng.choice(divisors)
            sentences.append(f"Then {name} splits the {items} into {k} equal piles and keeps one pile.")
            parts.append(f" One pile holds [[var c{i}]] where [[c{i} = c{i-1} / {k}]].")
            value, used_value = value / k, used_value / k
        question_numbers.append(k)
        equation_numbers.append(k)
    if distractor:
        age = next(a for a in range(21, 99) if a not in question_numbers)
        sentences.insert(1, f"{name} is {age} years old.")
        question_numbers.append(age)
    sentences.append(f"How many {items} does {name} have now?")
    parts.append(f" The question asks for [[answer = c{steps}]].")
    return Item(
        pid, " ".join(sentences), value, "".join(parts),
        WRONG_ANSWER if misread else CORRECT,
        predicted=used_value, candidates=(used_value,),
        warnings=warnings_for(question_numbers, equation_numbers),
    )


def _linear_pair(rng: random.Random, pid: str, *, ask_other: bool = False) -> Item:
    kind = rng.randrange(3)
    if kind == 0:
        small = rng.randint(2, 40)
        large = small + rng.randint(1, 30)
        total, diff = large + small, large - small
        question = (f"The sum of two numbers is {total} and their difference is {diff}. "
                    "What is the larger number?")
        body = (" Let [[var larger]] and [[var smaller]] be the numbers. Their sum gives"
                f" [[larger + smaller = {total}]] and their difference [[larger - smaller = {diff}]].")
        first, second = large, small
        names = ("larger", "smaller")
    elif kind == 1:
        child_price = rng.randint(2, 9)
        adult_price = child_price + rng.randint(1, 9)
        adults, children = rng.randint(1, 30), rng.randint(1, 30)
        sold = adults + children
        revenue = adults * adult_price + children * child_price
        question = (f"Adult tickets cost {adult_price} dollars and child tickets cost {child_price} dollars. "
                    f"{sold} tickets sold for {revenue} dollars. How many adult tickets were sold?")
        body = (" Let [[var adult]] and [[var child]] count the tickets."
                f" [[adult + child = {sold}]] and [[{adult_price} * adult + {child_price} * child = {revenue}]].")
        first, second = adults, children
        names = ("adult", "child")
    else:
        quarters, dimes = rng.randint(1, 25), rng.randint(1, 25)
        coins, cents = quarters + dimes, 25 * quarters + 10 * dimes
        question = (f"A jar holds {coins} coins, all quarters and dimes, worth {cents} cents. "
                    "How many quarters are in the jar?")
        body = (" Let [[var quarters]] and [[var dimes]] count the coins."
                f" [[quarters + dimes = {coins}]] and [[25 * quarters + 10 * dimes = {cents}]].")
        first, second = quarters, dimes
        names = ("quarters", "dimes")
    if ask_other and second == first:  # the wrong goal must give a wrong answer
        return _linear_pair(rng, pid, ask_other=True)
    goal, value = (names[1], Fraction(second)) if ask_other else (names[0], Fraction(first))
    return Item(
        pid, question, Fraction(first), f"{body} The question asks for [[answer = {goal}]].",
        WRONG_ANSWER if ask_other else CORRECT, predicted=value, candidates=(value,),
    )


def _quadratic(rng: random.Random, pid: str) -> Item:
    if rng.randrange(2) == 0:
        side = rng.randint(2, 40)
        area = side * side
        question = f"A square garden has an area of {area} square meters. How long is one side in meters?"
        completion = (" Let [[var side]] be the side length. The area gives"
                      f" [[side * side = {area}]]. The question asks for [[answer = side]].")
        roots = (Fraction(side), Fraction(-side))
    else:
        root = rng.randint(3, 30)
        m = rng.randint(1, root - 1)
        n = root * (root - m)
        question = (f"A positive number squared, minus {m} times the number, equals {n}. "
                    "What is the number?")
        completion = (f" Let [[var x]] be the number. Then [[x * x - {m} * x = {n}]]."
                      " The question asks for [[answer = x]].")
        roots = (Fraction(root), Fraction(m - root))
    chosen = select(roots)
    return Item(pid, question, chosen, completion, CORRECT, predicted=chosen, candidates=roots)


def _sum_product(rng: random.Random, pid: str, first: bool = False) -> Item:
    small = 2 if first else rng.randint(1, 20)  # the first is x + y = 5, x * y = 6
    large = 3 if first else small + rng.randint(1, 20)
    total, product = small + large, small * large
    question = (f"Two numbers add up to {total} and multiply to {product}. "
                "What is the smaller number?")
    completion = (" Let [[var x]] and [[var y]] be the numbers. Then [[x + y = "
                  f"{total}]] and [[x * y = {product}]]. The question asks for [[answer = x]].")
    roots = (Fraction(small), Fraction(large))
    return Item(pid, question, Fraction(small), completion, CORRECT, predicted=select(roots),
                candidates=roots, defect=DEFECT_SUM_PRODUCT,
                known=outcome(SOLVER_FAILURE, detail=UNSOLVABLE_DETAIL))


def _parse_failure(rng: random.Random, pid: str) -> Item:
    a, b = rng.randint(2, 40), rng.randint(2, 40)
    question = f"Noah read {a} pages on Monday and {b} on Tuesday. How many pages did he read?"
    if rng.randrange(2) == 0:
        completion = f" He read {a} plus {b}, which makes {a + b} pages."
    else:
        completion = f" Pages: [[var pages]] where [[pages == {a} + {b}]]. So [[answer = pages]]."
    return Item(pid, question, Fraction(a + b), completion, PARSE_FAILURE)


def _script_invalid(rng: random.Random, pid: str) -> Item:
    eggs, pans = rng.randint(2, 9), rng.randint(2, 9)
    question = f"A carton of {eggs * pans} eggs is split equally over {pans} pans. How many eggs per pan?"
    if rng.randrange(2) == 0:
        completion = " The share is [[var share]] where [[share = eggs / pans]]. So [[answer = share]]."
    else:
        completion = (f" [[var share]] [[answer = share]] and then [[share = {eggs * pans} / {pans}]].")
    return Item(pid, question, Fraction(eggs), completion, SCRIPT_INVALID)


def _solver_failure(rng: random.Random, pid: str) -> Item:
    n = rng.randint(2, 60)
    if rng.randrange(2) == 0:
        question = f"Two numbers add up to {n}. What is the first number?"
        completion = (f" Let [[var x]] and [[var y]] be the numbers with [[x + y = {n}]]."
                      " The question asks for [[answer = x]].")
        equation_numbers = [n]
    else:
        question = f"A number times itself, plus {n}, equals zero. What is the number?"
        completion = (f" Let [[var x]] be the number. Then [[x * x + {n} = 0]]."
                      " The question asks for [[answer = x]].")
        equation_numbers = [n, 0]
    return Item(pid, question, Fraction(n), completion, SOLVER_FAILURE,
                warnings=warnings_for([n], equation_numbers))


def _client_failure(rng: random.Random, pid: str) -> Item:
    item = _chain(rng, pid, steps=2)
    return Item(item.id, item.question, item.gold, None, CLIENT_FAILURE)


def gsm_items(seed: int, size: int = GSM_SIZE) -> list[Item]:
    """GSM8K-shaped problems: mostly procedural chains, a planned share of
    every non-Correct verdict, and sum-and-product pairs (known defect)."""
    rng = random.Random(f"gsm-{seed}")
    fixed = [
        (40, lambda pid: _chain(rng, pid, misread=True, steps=rng.randint(2, 6))),
        (150, lambda pid: _linear_pair(rng, pid)),
        (10, lambda pid: _linear_pair(rng, pid, ask_other=True)),
        (80, lambda pid: _quadratic(rng, pid)),
        (1, lambda pid: _sum_product(rng, pid, first=True)),
        (39, lambda pid: _sum_product(rng, pid)),
        (40, lambda pid: _parse_failure(rng, pid)),
        (40, lambda pid: _script_invalid(rng, pid)),
        (40, lambda pid: _solver_failure(rng, pid)),
        (29, lambda pid: _client_failure(rng, pid)),
    ]
    chains = size - sum(count for count, _ in fixed)
    makers = [m for count, m in fixed for _ in range(count)]
    # Chain lengths 2..6 in equal shares; every fifth chain has a distractor.
    makers += [
        (lambda pid, i=i: _chain(rng, pid, steps=2 + i % 5, distractor=i % 5 == 0))
        for i in range(chains)
    ]
    rng.shuffle(makers)
    return _unique([make(f"gsm-{index:04d}") for index, make in enumerate(makers)])


# --------------------------------------------------------------------------
# Algebra-style, solver-heavy templates

def _dense_linear(rng: random.Random, pid: str, n: int) -> Item:
    names = [f"x{letters(i)}" for i in range(n)]
    solution = [rng.randint(-9, 9) for _ in range(n)]
    # A = L*U with unit diagonals: full rank by construction.
    lower = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
    matrix = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    equations = []
    for row in matrix:
        rhs = sum(c * s for c, s in zip(row, solution))
        terms = [(c, name) for c, name in zip(row, names) if c]
        lhs = " ".join(term(c, name, i == 0) for i, (c, name) in enumerate(terms))
        equations.append(f"{lhs} = {rhs}")
    goal = rng.randrange(n)
    value = Fraction(solution[goal])
    return _algebra_item(pid, names, equations, names[goal], value, (value,))


def _reversed_chain(rng: random.Random, pid: str, length: int) -> Item:
    names = [f"v{letters(i)}" for i in range(length)]
    value = rng.randint(1, 50)
    equations = [f"{names[0]} = {value}"]
    for i in range(1, length):
        k = rng.randint(1, 20)
        if rng.randrange(4) == 0 and abs(value) < 1000:
            equations.append(f"{names[i]} = 2 * {names[i-1]} - {k}")
            value = 2 * value - k
        elif rng.randrange(2) == 0:
            equations.append(f"{names[i]} = {names[i-1]} + {k}")
            value += k
        else:
            equations.append(f"{names[i]} = {names[i-1]} - {k}")
            value -= k
    equations.reverse()
    value = Fraction(value)
    return _algebra_item(pid, names, equations, names[-1], value, (value,))


def _polynomial(rng: random.Random, pid: str, degree: int, clustered: bool = False,
                first: bool = False) -> Item:
    if clustered:
        low = 1 if first else rng.randint(1, 7)  # the first is x^3 - 6*x^2 + 11*x = 6
        roots = [Fraction(low), Fraction(low + 1), Fraction(low + 2)]
    else:
        # One root per grid decade, so each sits inside its own sign change.
        roots = [
            rng.choice([Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 5), Fraction(2, 5)]),
            Fraction(rng.randint(2, 9)),
            Fraction(rng.randint(11, 99)),
        ]
        if degree == 4:
            roots.append(Fraction(-rng.randint(2, 9)))
    coeffs = poly_from_roots(roots)
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    powers = [(coeffs[p], "x" if p == 1 else f"x^{p}") for p in range(len(coeffs) - 1, 0, -1) if coeffs[p]]
    lhs = " ".join(term(c, body, i == 0) for i, (c, body) in enumerate(powers))
    equations = [f"{lhs} = {-coeffs[0]}"]
    names = ["x"]
    goal = "x"
    if rng.randrange(2) == 0:
        k = rng.randint(1, 30)
        names.append("y")
        goal = "y"
        equations.append(f"y = 2 * x + {k}")
        candidates = tuple(2 * r + k for r in roots)
    else:
        candidates = tuple(roots)
    chosen = select(candidates)
    item = _algebra_item(pid, names, equations, goal, chosen, candidates)
    if clustered:
        # Today the middle root of the three is missed.
        found = (candidates[0], candidates[2])
        item.defect = DEFECT_CLUSTERED_ROOTS
        item.known = outcome(CORRECT, select(found), found)
    return item


def _algebra_item(pid, names, equations, goal, value, candidates) -> Item:
    """The question states the equations themselves, so every question
    number is used and rule 5 plans no warning."""
    question = f"Solve for {goal}: " + "; ".join(equations) + "."
    completion = (
        " " + " ".join(f"[[var {n}]]" for n in names)
        + " " + " ".join(f"[[{e}]]" for e in equations)
        + f" The question asks for [[answer = {goal}]]."
    )
    return Item(pid, question, value, completion, CORRECT, predicted=value,
                candidates=candidates)


SOLVER_SIZE = 1000


def solver_items(seed: int) -> list[Item]:
    """Dense linear systems (4-16 unknowns), reversed equation chains (20-150
    links) and numeric cubics/quartics, some branching and some with
    clustered roots, among many small systems and short chains."""
    rng = random.Random(f"solver-{seed}")
    makers = []
    makers += [(lambda pid, n=4 + i % 13: _dense_linear(rng, pid, n)) for i in range(60)]
    makers += [(lambda pid, n=20 + (i * 53) % 131: _reversed_chain(rng, pid, n)) for i in range(100)]
    makers += [(lambda pid, d=3 + i % 2: _polynomial(rng, pid, d)) for i in range(40)]
    makers += [(lambda pid, i=i: _polynomial(rng, pid, 3, clustered=True, first=i == 0)) for i in range(8)]
    small = SOLVER_SIZE - len(makers)
    makers += [(lambda pid, n=2 + i % 2: _dense_linear(rng, pid, n)) for i in range(small // 2)]
    makers += [(lambda pid, n=3 + i % 6: _reversed_chain(rng, pid, n)) for i in range(small - small // 2)]
    rng.shuffle(makers)
    return _unique([make(f"alg-{index:04d}") for index, make in enumerate(makers)])


def _unique(items: list[Item]) -> list[Item]:
    """Questions must be distinct, because the cassette keys on the prompt.
    The tag is digit-free so rule 5 sees no new number."""
    seen = set()
    for index, item in enumerate(items):
        if item.question in seen:
            item.question += f" (Set {letters(index)}.)"
        seen.add(item.question)
    return items


# --------------------------------------------------------------------------
# Workload files

def write_workload(workdir: Path, workload: str, seed: int) -> dict:
    """Write the dataset, the cassette and the plan.

    The program sees only problems.jsonl and cassette.jsonl (and, for
    record-resume, the fake endpoint, which serves endpoint.jsonl keyed by
    prompt); plan.jsonl is read by the benchmark alone.  record-resume's
    cassette holds half of the completions, drawn by the seed; the endpoint
    holds the other half.
    """
    from declsolve import (Cassette, CompletionRequest, assemble_prompt, fingerprint,
                           spec_for_variant, write_cassette)

    items = solver_items(seed) if workload == "replay-solver-heavy" else gsm_items(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    with open(workdir / "problems.jsonl", "w", encoding="utf-8") as handle:
        for item in items:
            row = {"id": item.id, "question": item.question, "answer": f"#### {decimal(item.gold)}"}
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
    answered = [item for item in items if item.completion is not None]
    live = set()
    if workload == "record-resume":
        drawn = random.Random(f"record-{seed}").sample(range(len(answered)), len(answered) // 2)
        live = {answered[index].id for index in drawn}
    with open(workdir / "plan.jsonl", "w", encoding="utf-8") as handle:
        for item in items:
            handle.write(json.dumps({**item.plan_json(), "live": item.id in live}) + "\n")

    spec = spec_for_variant(VARIANT)
    entries, endpoint = {}, {}
    for item in answered:
        prompt = assemble_prompt(spec, item.question)
        if item.id in live:
            endpoint[prompt] = item.completion
        else:
            entries[fingerprint(CompletionRequest(MODEL, prompt))] = item.completion
    write_cassette(workdir / "cassette.jsonl", Cassette(entries, {"model": MODEL, "seed": seed}))
    if endpoint:
        with open(workdir / "endpoint.jsonl", "w", encoding="utf-8") as handle:
            for prompt, completion in endpoint.items():
                handle.write(json.dumps({"prompt": prompt, "completion": completion}) + "\n")
    return {"problems": len(items), "recorded": len(entries), "live": len(endpoint)}
