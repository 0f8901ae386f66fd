"""The parser against a reference copy of its earlier, slower form.

The reference tokenizes with one regex `match` per token into frozen
`_Token` dataclasses, builds numerals with `Fraction(str)` and parses by
precedence climbing without a nesting limit.  On any bracket body that
nests less than `MAX_NESTING` levels, both must give equal declarations,
or raise the same exception type with the same message and position.
Whole transcripts, whose brackets share names and numerals, are held to the
same against the reference parse of each bracket on its own.
`check_principles` is held to a reference rule-5 check built on the earlier
`question_numbers`, which gave each question number its set of accepted
values.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from declsolve.exprs import Add, Div, Expr, Mul, Neg, Num, Pow, Sub, Var, render
from declsolve.parsing import (
    RESERVED_GOAL_NAME,
    EqDecl,
    ExprSyntaxError,
    GoalDecl,
    MultipleEqualsError,
    NoDeclarationsError,
    ParseError,
    ScriptError,
    VarDecl,
    build_script,
    check_principles,
    extract_brackets,
    parse_declaration,
    parse_expression,
    script_from_transcript,
)

# --------------------------------------------------------------------------
# Reference copy

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:\.\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()=])"
)

_ATOM_EXPECTED = {"number", "name", "'-'", "'('"}


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | end
    text: str
    pos: int


def _tokenize(src, offset=0):
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if match is None:
            raise ExprSyntaxError(offset + pos, {"a valid token"}, repr(src[pos]))
        if match.lastgroup != "ws":
            tokens.append(_Token(match.lastgroup, match.group(), offset + pos))
        pos = match.end()
    tokens.append(_Token("end", "", offset + len(src)))
    return tokens


_BINARY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PREC = 3
_BINARY_NODE = {"+": Add, "-": Sub, "*": Mul, "/": Div, "^": Pow}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def parse(self, min_prec=0):
        lhs = self.atom()
        while True:
            token = self.peek()
            if token.kind != "op":
                break
            prec = _BINARY_PREC.get(token.text)
            if prec is None or prec < min_prec:
                break
            self.advance()
            next_min = prec if token.text == "^" else prec + 1
            rhs = self.parse(next_min)
            lhs = _BINARY_NODE[token.text](lhs, rhs)
        return lhs

    def atom(self):
        token = self.peek()
        if token.kind == "num":
            self.advance()
            return Num(Fraction(token.text))
        if token.kind == "ident":
            self.advance()
            return Var(token.text)
        if token.kind == "op" and token.text == "-":
            self.advance()
            return Neg(self.parse(_UNARY_PREC + 1))
        if token.kind == "op" and token.text == "(":
            self.advance()
            inner = self.parse(0)
            closing = self.peek()
            if not (closing.kind == "op" and closing.text == ")"):
                raise ExprSyntaxError(closing.pos, {"')'"}, closing.text or "end of input")
            self.advance()
            return inner
        raise ExprSyntaxError(token.pos, set(_ATOM_EXPECTED), token.text or "end of input")


def reference_parse_expression(src, offset=0):
    parser = _Parser(_tokenize(src, offset))
    expr = parser.parse(0)
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(trailing.pos, {"end of expression"}, trailing.text)
    return expr


def reference_parse_declaration(raw, span=None):
    offset = span[0] + 2 if span else 0
    tokens = _tokenize(raw, offset)
    equals = [i for i, t in enumerate(tokens) if t.kind == "op" and t.text == "="]
    if len(equals) > 1:
        raise MultipleEqualsError(raw.strip())

    if not equals:
        if (
            len(tokens) == 3
            and tokens[0].kind == "ident"
            and tokens[0].text == "var"
            and tokens[1].kind == "ident"
        ):
            return VarDecl(tokens[1].text)
        bad = next((t for t in tokens if t.kind != "end"), tokens[-1])
        raise ExprSyntaxError(
            bad.pos, {"'var <name>'", "'<expr> = <expr>'"}, bad.text or "end of input"
        )

    split = equals[0]
    lhs_tokens = tokens[:split]
    rhs_tokens = tokens[split + 1 :]
    if len(lhs_tokens) == 1 and lhs_tokens[0].kind == "ident" and lhs_tokens[0].text == RESERVED_GOAL_NAME:
        if len(rhs_tokens) == 2 and rhs_tokens[0].kind == "ident":
            return GoalDecl(rhs_tokens[0].text)
        bad = rhs_tokens[0] if rhs_tokens else tokens[-1]
        raise ExprSyntaxError(bad.pos, {"a variable name"}, bad.text or "end of input")

    lhs = _parse_token_run(lhs_tokens, span)
    rhs = _parse_token_run(rhs_tokens, span)
    return EqDecl(lhs, rhs)


def _parse_token_run(tokens, span):
    end_pos = tokens[-1].pos + len(tokens[-1].text) if tokens else (span[0] + 2 if span else 0)
    parser = _Parser(tokens + [_Token("end", "", end_pos)])
    expr = parser.parse(0)
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(trailing.pos, {"end of expression"}, trailing.text)
    return expr


def reference_script_from_transcript(text):
    brackets = extract_brackets(text)
    if not brackets:
        raise NoDeclarationsError()
    return build_script([reference_parse_declaration(raw, span) for raw, span in brackets])


_QUESTION_NUMBER_RE = re.compile(r"\d[\d,]*(?:\.\d+)?%?")


def reference_question_numbers(question):
    out = []
    seen = set()
    for match in _QUESTION_NUMBER_RE.finditer(question):
        text = match.group()
        is_percent = text.endswith("%")
        face = Fraction(text.rstrip("%").replace(",", ""))
        if face in seen:
            continue
        seen.add(face)
        aliases = frozenset({face, face / 100}) if is_percent else frozenset({face})
        out.append((face, aliases))
    return out


def reference_check_principles(script, question):
    used = {value for eq in script.equations for value in eq.numerals}
    return tuple(face for face, aliases in reference_question_numbers(question) if not aliases & used)


# --------------------------------------------------------------------------
# Inputs

# Pieces of malformed and well-formed bodies: stray and non-ASCII
# characters, Unicode digits (Arabic-Indic, fullwidth) and a superscript,
# which is no digit, numerals with a bare or missing side of the point,
# underscores, brackets and both reserved words.
FRAGMENTS = [
    "1", "2.5", "1.", ".5", "1_000", "007", "0.250", "١٢", "٣.٥", "５", "²",
    "x", "y1", "_a", "var", "answer", "var x", "answer = x",
    "+", "-", "*", "/", "^", "(", ")", "=", "==", ",", "%", "$", "#", "é", "[", "]",
    " ", "  ", "\t", "\n", " ",
]

NAMES = st.sampled_from(["x", "y", "total", "_t2", "var", "answer"])
NUMERALS = st.sampled_from(["0", "1", "12", "3.5", "0.25", "007", "1.000", "١٢"])
SPACE = st.sampled_from(["", " ", "  ", "\t"])


def _binary(parts):
    left, op, right, pad = parts
    return f"{left}{pad}{op}{pad}{right}"


EXPRESSIONS = st.recursive(
    NAMES | NUMERALS,
    lambda inner: (
        st.tuples(inner, st.sampled_from("+-*/^"), inner, SPACE).map(_binary)
        | inner.map(lambda e: f"({e})")
        | inner.map(lambda e: f"-{e}")
    ),
    max_leaves=12,
)

# Either side of an '=' may be empty, a bare name or numeral, or compound.
SIDES = st.just("") | NAMES | NUMERALS | EXPRESSIONS

BODIES = (
    st.lists(st.sampled_from(FRAGMENTS) | st.text(max_size=3), max_size=20).map("".join)
    | st.tuples(SPACE, SIDES, SPACE, SIDES, SPACE).map(
        lambda p: f"{p[0]}{p[1]}{p[2]}={p[2]}{p[3]}{p[4]}"
    )
    | SIDES.map(lambda side: f"answer = {side}")
    | NAMES.map(lambda name: f" var {name} ")
)

SPANS = st.none() | st.integers(0, 10_000).map(lambda start: (start, start + 40))

# Transcripts: brackets with prose between.  The name and numeral pools are
# small, so most transcripts use one name or numeral text in several
# brackets.  Well-formed ones declare every name but the reserved two, state
# equations over them and end in a goal; the others mix in any body.
PROSE = st.lists(st.sampled_from(["", " ", "So ", ", and\n", " then "]) | st.text(max_size=4),
                 min_size=12, max_size=12)
PLAIN = EXPRESSIONS.filter(lambda e: "var" not in e and "answer" not in e)
INTRODUCTIONS = [f"var {name}" for name in ("x", "y", "total", "_t2")]


def _transcript(bodies, prose):
    return "".join(f"{text}[[{body}]]" for text, body in zip(prose, bodies)) + prose[-1]


WELL_FORMED = st.tuples(
    st.lists(st.tuples(PLAIN, PLAIN).map(" = ".join), min_size=1, max_size=6), PROSE
).map(lambda p: _transcript([*INTRODUCTIONS, *p[0], "answer = x"], p[1]))
ANY_BODIES = st.tuples(
    st.lists(NAMES.map(lambda name: f"var {name}"), max_size=4),
    st.lists(BODIES | st.tuples(EXPRESSIONS, EXPRESSIONS).map(" = ".join), max_size=6),
    st.lists(NAMES.map(lambda name: f"answer = {name}"), max_size=1),
    PROSE,
).map(lambda p: _transcript(p[0] + p[1] + p[2], p[3]))
TRANSCRIPTS = WELL_FORMED | ANY_BODIES


def script_outcome(function, text):
    """`outcome` for a transcript, with each equation's recorded leaves."""
    try:
        script = function(text)
    except (ParseError, ScriptError) as err:
        return ("error", type(err), str(err), getattr(err, "position", None))
    records = [(d.lhs_names, d.rhs_names, d.numerals) for d in script.equations]
    return ("value", script, records)


def outcome(function, *args):
    """A comparable result: the value, or the error."""
    try:
        result = function(*args)
    except ParseError as err:
        return ("error", type(err), str(err), getattr(err, "position", None))
    return ("value", result)


# --------------------------------------------------------------------------
# Tests

@settings(max_examples=400, deadline=None)
@given(BODIES, SPANS)
def test_parse_declaration_matches_reference(body, span):
    assert outcome(parse_declaration, body, span) == outcome(
        reference_parse_declaration, body, span
    )


@settings(max_examples=300, deadline=None)
@given(TRANSCRIPTS)
def test_script_from_transcript_matches_reference(text):
    assert script_outcome(script_from_transcript, text) == script_outcome(
        reference_script_from_transcript, text
    )


@settings(max_examples=200, deadline=None)
@given(EXPRESSIONS | BODIES, st.integers(0, 500))
def test_parse_expression_matches_reference(src, offset):
    assert outcome(parse_expression, src, offset) == outcome(
        reference_parse_expression, src, offset
    )


QUESTION_TEXT = st.lists(
    st.sampled_from(["1", "1,200", "1,,2", "2.5", "2.", "15%", "0.5%", ",", ".", "%",
                     "١٢", "٣.٥", "５", "²", " ", "apples", "$"])
    | st.text(max_size=4),
    max_size=20,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(QUESTION_TEXT, st.data())
def test_check_principles_matches_reference(question, data):
    # The script's numerals are question values, their N/100 aliases, which
    # count only after a '%', and other values.
    faces = [face for face, _ in reference_question_numbers(question)]
    pool = st.integers(0, 2000).map(Fraction) | st.sampled_from(
        [Fraction(0), Fraction(1, 2), Fraction(3, 200), Fraction(12)]
    )
    if faces:
        pool |= st.sampled_from(faces) | st.sampled_from(faces).map(lambda face: face / 100)
    values = data.draw(st.lists(pool, max_size=8))
    equations = " ".join(f"[[x = {render(Num(value))}]]" for value in values)
    script = script_from_transcript(f"[[var x]] {equations} [[answer = x]]")
    assert check_principles(script, question) == reference_check_principles(script, question)


def test_reference_agrees_on_a_deep_but_legal_expression():
    src = "(" * 150 + "-x ^ 2 ^ y" + ")" * 150 + " + 1"
    expected = reference_parse_expression(src)
    assert isinstance(expected, Expr)
    assert parse_expression(src) == expected
