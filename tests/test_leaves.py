"""What the parser records of each equation's leaves, and who reads it.

The parser notes each side's variable names and every numeral as it builds
the leaves; validation, the rule-5 check and the solver read those records
instead of walking the trees again.  Every parse of one evaluation run
shares one leaf node per name or numeral text.  Nodes and declarations are
slotted, and `==`, `hash()` and `repr()` on a node take a tree of any depth.
"""

from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from declsolve import exprs, solver
from declsolve.client import CompletionRequest, Replay, append_record
from declsolve.evaluation import CORRECT, Problem, RunConfig, run_eval, run_problem
from declsolve.exprs import (
    Add, Div, Expr, Mul, Neg, Num, Pow, Sub, Var, free_vars, postorder, render,
)
from declsolve.parsing import (
    EqDecl,
    GoalDecl,
    VarDecl,
    check_principles,
    extract_brackets,
    parse_declaration,
    parse_expression,
    script_from_transcript,
)
from declsolve.prompts import VARIANT_ONE_STEP, Exemplar, PromptSpec, assemble_prompt
from declsolve.solver import EquationSystem, solve_script, solve_system

NAMES = st.sampled_from(["x", "y", "total", "_t2", "b1"])
NUMERALS = st.sampled_from(["0", "1", "12", "3.5", "0.25", "007", "1.000", "12"])
SPACE = st.sampled_from(["", " ", "  "])

EXPRESSIONS = st.recursive(
    NAMES | NUMERALS,
    lambda inner: (
        st.tuples(inner, st.sampled_from("+-*/^"), inner, SPACE).map(
            lambda p: f"{p[0]}{p[3]}{p[1]}{p[3]}{p[2]}"
        )
        | inner.map(lambda e: f"({e})")
        | inner.map(lambda e: f"-{e}")
    ),
    max_leaves=12,
)


def _first_occurrence(expr):
    return tuple(dict.fromkeys(node.name for node in postorder(expr) if type(node) is Var))


def _numerals(expr):
    return [node.value for node in postorder(expr) if type(node) is Num]


# --------------------------------------------------------------------------
# Recorded names and numerals

@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS, EXPRESSIONS)
def test_parser_records_each_sides_names_and_numerals(left, right):
    decl = parse_declaration(f"{left} = {right}", (10, 20))
    assert isinstance(decl, EqDecl)
    assert decl.lhs_names == _first_occurrence(decl.lhs)
    assert decl.rhs_names == _first_occurrence(decl.rhs)
    assert set(decl.lhs_names) == free_vars(decl.lhs)
    assert set(decl.rhs_names) == free_vars(decl.rhs)
    assert decl.numerals == (*_numerals(decl.lhs), *_numerals(decl.rhs))

    by_hand = EqDecl(decl.lhs, decl.rhs)
    assert by_hand == decl
    assert (by_hand.lhs_names, by_hand.rhs_names, by_hand.numerals) == (
        decl.lhs_names, decl.rhs_names, decl.numerals,
    )


def test_records_do_not_take_part_in_equality_or_repr():
    decl = parse_declaration("x = 2 * y + 2", (0, 17))
    assert decl.numerals == (Fraction(2), Fraction(2))
    assert decl == EqDecl(Var("x"), Add(Mul(Num(2), Var("y")), Num(2)))
    assert repr(decl) == f"EqDecl(lhs={decl.lhs!r}, rhs={decl.rhs!r})"


# --------------------------------------------------------------------------
# Carried name sets in residual and branch systems

def _walked_names(system):
    return tuple(
        (frozenset(free_vars(lhs)), frozenset(free_vars(rhs))) for lhs, rhs in system.equations
    )


BRANCHING = [
    # a root per branch, each substituted into the rest
    "[[var x]] [[var y]] [[var z]] [[x^2 = 4]] [[y = x + 1]] [[z * y = x * 3 + y]] [[answer = z]]",
    # a chain binds part of a nonlinear residual first
    "[[var a]] [[var b]] [[var c]] [[a = 3]] [[b^2 + a*b = 10 + c]] [[c = a - 3]] [[answer = b]]",
    # a cubic branches; each branch solves linearly
    "[[var t]] [[var u]] [[var w]] [[t^3 - 6*t^2 + 11*t = 6]] [[u + w = t * 4]] [[u - w = t - 2]]"
    " [[answer = u]]",
    # a linear residual after substitution
    "[[var p]] [[var q]] [[var r]] [[r = 2]] [[p + q = r * 5]] [[p - q = r]] [[answer = q]]",
]


@pytest.mark.parametrize("transcript", BRANCHING)
def test_derived_systems_carry_the_names_of_their_sides(transcript, monkeypatch):
    seen = []
    original = solver.forward_substitute

    def recording(system, *args, **kwargs):
        seen.append(system)
        bindings, residual = original(system, *args, **kwargs)
        seen.append(residual)
        return bindings, residual

    monkeypatch.setattr(solver, "forward_substitute", recording)
    script = script_from_transcript(transcript)
    solve_script(script)

    assert len(seen) >= 2
    for system in seen:
        assert system.names == _walked_names(system)


def test_a_hand_built_system_still_rejects_a_stray_unknown():
    with pytest.raises(ValueError, match="undeclared unknowns"):
        EquationSystem(((Var("x"), Var("y")),), frozenset({"x"}), "x")
    with pytest.raises(ValueError, match="undeclared unknowns"):
        EquationSystem(
            ((Var("x"), Num(1)),), frozenset({"x"}), "x", ((frozenset({"x"}), frozenset({"y"})),)
        )


# --------------------------------------------------------------------------
# Tree walks

def _count_walks(monkeypatch):
    calls = [0]
    original = exprs.postorder

    def counted(expr):
        calls[0] += 1
        return original(expr)

    monkeypatch.setattr(exprs, "postorder", counted)  # the one namespace that calls it
    return calls


def test_a_parsed_reversed_chain_walks_each_equation_about_once(monkeypatch):
    n = 400
    names = [f"v{i}" for i in range(n)]
    links = [f"[[{names[i]} = {names[i - 1]} + {i % 5 + 1}]]" for i in range(n - 1, 0, -1)]
    declarations = [f"[[var {name}]]" for name in names] + links
    transcript = " ".join(declarations + [f"[[{names[0]} = 7]]", f"[[answer = {names[-1]}]]"])
    question = "Start at 7 and add 1, 2, 3, 4 and 5 in turn."
    calls = _count_walks(monkeypatch)

    script = script_from_transcript(transcript)
    unused = check_principles(script, question)
    outcome = solve_system(EquationSystem.from_script(script))

    assert outcome.selected == 7 + sum(i % 5 + 1 for i in range(1, n))
    assert unused == ()
    assert calls[0] <= n + 5


# --------------------------------------------------------------------------
# One node per leaf text in a transcript, and in a run

def test_a_parsed_reversed_chain_shares_one_node_per_name_and_numeral():
    n = 400
    names = [f"v{i}" for i in range(n)]
    links = [f"[[{names[i]} = {names[i - 1]} + {i % 5 + 1}]]" for i in range(n - 1, 0, -1)]
    declarations = [f"[[var {name}]]" for name in names] + links
    transcript = " ".join(declarations + [f"[[{names[0]} = 7]]", f"[[answer = {names[-1]}]]"])

    script = script_from_transcript(transcript)
    sides = [side for eq in script.equations for side in (eq.lhs, eq.rhs)]
    leaves = {id(node) for side in sides for node in postorder(side) if type(node) in (Var, Num)}
    numeral_texts = {str(i % 5 + 1) for i in range(1, n)} | {"7"}
    assert len(leaves) == len(names) + len(numeral_texts)

    bodies = [raw for raw, _ in extract_brackets(transcript) if "=" in raw and "answer" not in raw]
    assert len(bodies) == len(script.equations)
    for raw, eq in zip(bodies, script.equations):
        for text, side in zip(raw.split("="), (eq.lhs, eq.rhs)):
            fresh = parse_expression(text)
            assert side == fresh
            assert hash(side) == hash(fresh)
            assert render(side) == render(fresh)


CONFIG = RunConfig(model="test-model")
DECLARATIVE = PromptSpec(
    "declarative_principles",
    (Exemplar("One plus one?", "Sum [[var s]], [[s = 1 + 1]], [[answer = s]]."),),
)
ONE_STEP = PromptSpec(VARIANT_ONE_STEP, (Exemplar("One plus one?", "Sum [[s = 1 + 1]]."),))

# Transcripts that reuse the names `total` and the numerals 12 and 3.
DECLARATIVE_RUN = [
    ("A box holds 12 apples. How many in 3 boxes?", 36,
     "[[var per_box]] [[per_box = 12]] [[var total]] [[total = per_box * 3]] [[answer = total]]"),
    ("Tom has 12 marbles and finds 5. How many now?", 17,
     "[[var start]] [[start = 12]] [[var total]] [[total = start + 5]] [[answer = total]]"),
    ("3 friends share 12 cookies. How many each?", 4,
     "[[var total]] [[total = 12]] [[var each]] [[each = total / 3]] [[answer = each]]"),
    ("What is 5 times 3?", 15, "[[var total]] [[total = 5 * 3]] [[answer = total]]"),
]
# One-step transcripts: each is solved through the single-equation fallback.
ONE_STEP_RUN = [
    ("A box holds 12 apples. How many in 3 boxes?", 36, "So [[total = 12 * 3]]."),
    ("Tom has 12 marbles and finds 5. How many now?", 17, "So [[total = 12 + 5]]."),
    ("3 friends share 12 cookies. How many each?", 4, "So [[each = 12 / 3]]."),
]


def _replay(tmp_path, spec, rows):
    """Problems and a cassette that answers each with its transcript."""
    path = tmp_path / "cassette.jsonl"
    problems = []
    for i, (question, gold, transcript) in enumerate(rows):
        request = CompletionRequest(
            CONFIG.model, assemble_prompt(spec, question), CONFIG.params, CONFIG.stop_sequences
        )
        append_record(path, request, transcript)
        problems.append(Problem(f"p{i}", question, Fraction(gold)))
    return problems, Replay(str(path))


def _leaf_nodes(script):
    """Every Var and Num in the script's equations."""
    return [
        node
        for eq in script.equations
        for side in (eq.lhs, eq.rhs)
        for node in postorder(side)
        if type(node) in (Var, Num)
    ]


def _names(script):
    """Every name string a script's declarations hold outside its trees."""
    held = [d.name for d in script.declarations if isinstance(d, (VarDecl, GoalDecl))]
    held += [name for eq in script.equations for name in (*eq.lhs_names, *eq.rhs_names)]
    return [*held, script.goal]


@pytest.mark.parametrize("spec, rows", [(DECLARATIVE, DECLARATIVE_RUN), (ONE_STEP, ONE_STEP_RUN)],
                         ids=["declarative", "one-step"])
def test_a_run_shares_one_node_per_name_and_numeral(tmp_path, spec, rows):
    problems, mode = _replay(tmp_path, spec, rows)
    report = run_eval(problems, spec, mode, CONFIG, workers=1)
    assert [r.verdict for r in report.records] == [CORRECT] * len(rows)

    nodes = {}  # a name or numeral value -> the first node met for it
    for record in report.records:
        for node in _leaf_nodes(record.script):
            key = node.name if type(node) is Var else node.value
            assert nodes.setdefault(key, node) is node, key
    assert {"total", Fraction(12), Fraction(3)} <= nodes.keys()
    for record in report.records:
        for name in _names(record.script):
            assert name is nodes[name].name, name

    # A lone run_problem parses its transcript with fresh leaves.
    for problem, record in zip(problems, report.records):
        assert record == run_problem(problem, spec, CONFIG, mode)


def test_leaves_live_for_one_run_only(tmp_path):
    problems, mode = _replay(tmp_path, DECLARATIVE, DECLARATIVE_RUN)
    first, second = (run_eval(problems, DECLARATIVE, mode, CONFIG) for _ in range(2))
    assert first.records == second.records
    ids = [{id(n) for r in report.records for n in _leaf_nodes(r.script)} for report in (first, second)]
    assert not ids[0] & ids[1]

    transcript = DECLARATIVE_RUN[0][2]
    one, two = script_from_transcript(transcript), script_from_transcript(transcript)
    assert one == two
    assert not {id(n) for n in _leaf_nodes(one)} & {id(n) for n in _leaf_nodes(two)}
    assert one.goal is not two.goal


# --------------------------------------------------------------------------
# Slots

def test_nodes_and_declarations_hold_no_instance_dict():
    x = Var("x")
    nodes = [Num(1), x, Neg(x), Add(x, x), Sub(x, x), Mul(x, x), Div(x, x), Pow(x, x)]
    script = script_from_transcript("[[var x]] [[x = 1]] [[answer = x]]")
    others = [VarDecl("x"), EqDecl(x, Num(1)), GoalDecl("x"), script]
    for instance in nodes + others:
        assert not hasattr(instance, "__dict__"), type(instance).__name__
    # A declaration holds only what later stages read of it.
    assert VarDecl.__slots__ == GoalDecl.__slots__ == ("name",)
    assert EqDecl.__slots__ == ("lhs", "rhs", "lhs_names", "rhs_names", "numerals")
    with pytest.raises(FrozenInstanceError):
        x.name = "y"


# --------------------------------------------------------------------------
# ==, hash() and repr() without recursion

def _reference_repr(node):
    parts = ", ".join(
        f"{f.name}={_reference_repr(value) if isinstance(value, Expr) else repr(value)}"
        for f in fields(node)
        for value in [getattr(node, f.name)]
    )
    return f"{type(node).__name__}({parts})"


def _reference_eq(a, b):
    if type(a) is not type(b):
        return False
    return all(
        _reference_eq(x, y) if isinstance(x, Expr) else x == y
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    )


@settings(max_examples=200, deadline=None)
@given(EXPRESSIONS, EXPRESSIONS)
def test_node_eq_hash_and_repr_follow_dataclass_semantics(left, right):
    a, b = parse_expression(left), parse_expression(right)
    assert repr(a) == _reference_repr(a)
    assert (a == b) == _reference_eq(a, b)
    assert (a != b) == (not _reference_eq(a, b))
    assert a == parse_expression(left)
    assert hash(a) == hash(parse_expression(left))


def test_eq_needs_the_same_node_kinds():
    x = Var("x")
    assert Add(x, Num(1)) != Sub(x, Num(1))
    assert Num(1) != Var("x")
    assert Num(1) != 1
    assert Neg(Num(1)) != Num(-1)
    assert hash(Num(3)) == hash((Fraction(3),))
    assert {Add(x, Num(1)), Add(Var("x"), Num(1))} == {Add(x, Num(1))}


def test_eq_hash_and_repr_take_a_10001_node_chain():
    src = " + ".join(["x"] + [str(i % 7) for i in range(5000)])
    chain, twin = parse_expression(src), parse_expression(src)
    assert len(postorder(chain)) == 10_001
    changed = parse_expression(src[:-1] + "9")

    assert chain == twin
    assert chain != changed
    assert hash(chain) == hash(twin)
    assert len({chain, twin, changed}) == 2
    text = repr(chain)
    assert text.startswith("Add(left=Add(left=")
    assert text.endswith(f"right=Num(value=Fraction({4999 % 7}, 1)))")
    assert text.count("Num(value=") == 5000 and text.count("Var(name='x')") == 1
