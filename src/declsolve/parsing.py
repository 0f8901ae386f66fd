"""Extract and check the bracketed formal statements in a solution transcript.

A transcript interleaves prose with declarations in double-square brackets.
Three declaration forms exist:

    [[var total]]            introduce a variable
    [[total = 5 * unit]]     state an equation
    [[answer = total]]       name the goal variable (must come last)

Expression grammar (no implicit multiplication)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' power)?          -- right-associative
    atom    := NUMBER | IDENT | '(' expr ')'

`^` binds tighter than unary minus, which binds tighter than `*` and `/`.
Decimal numerals parse as exact rationals (`0.25` -> 1/4).  At most
MAX_NESTING levels nest; deeper input is an ExprSyntaxError.  A body is
parsed from its token texts alone, and positions are found only for an
error.  Every parse of one run (see `script_from_transcript`) shares one
node per name or numeral text, and a declaration holds its leaf's name
string.

A parsed script is checked against five structural rules: every statement
is a declaration (1), the goal comes last (2), equations use only
previously introduced variables (3), no variable is introduced twice (4),
and the solution should use every number in the question (5, warning only).
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass, field
from fractions import Fraction

from .exprs import MAX_POWER_BITS, Expr, Num, Var, Neg, Add, Sub, Mul, Div, Pow, leaves, render

Span = tuple[int, int]

# The goal keyword; never a legal variable name inside a script.
RESERVED_GOAL_NAME = "answer"


class ParseError(Exception):
    """Base class for transcript- and expression-level parse failures."""

    principle: int = 1


class UnterminatedBracketError(ParseError):
    def __init__(self, offset: int):
        super().__init__(f"'[[' at offset {offset} has no closing ']]'")


class NoDeclarationsError(ParseError):
    def __init__(self):
        super().__init__("transcript contains no [[...]] declarations")


class ExprSyntaxError(ParseError):
    """Syntax error with a position and the set of expected token kinds."""

    def __init__(self, position: int, expected: set[str], found: str = ""):
        what = f", found {found}" if found else ""
        super().__init__(
            f"syntax error at position {position}: expected "
            f"{' or '.join(sorted(expected))}{what}"
        )
        self.position = position
        self.expected = expected
        self.found = found


class MultipleEqualsError(ParseError):
    def __init__(self, raw: str):
        super().__init__(f"more than one top-level '=' in declaration: {raw!r}")
        self.raw = raw


class ScriptError(Exception):
    """Base class for structural violations in a declaration sequence."""

    principle: int = 1


class NoGoalError(ScriptError):
    principle = 2

    def __init__(self):
        super().__init__("script has no 'answer = <variable>' declaration")


class GoalNotLastError(ScriptError):
    principle = 2

    def __init__(self):
        super().__init__("the goal declaration must be the last statement")


class UndeclaredVariableError(ScriptError):
    principle = 3

    def __init__(self, name: str):
        super().__init__(f"variable '{name}' used before being introduced")
        self.name = name


class DuplicateDeclarationError(ScriptError):
    principle = 4

    def __init__(self, name: str):
        super().__init__(f"variable '{name}' introduced more than once")
        self.name = name


class ReservedIdentifierError(ScriptError):
    principle = 2

    def __init__(self):
        super().__init__(f"'{RESERVED_GOAL_NAME}' is reserved for the goal declaration")


# --------------------------------------------------------------------------
# Tokens and the expression parser

# A token is a numeral, a name, an operator or, as `\S`, any other
# character, which is invalid.  Its first character tells which (a numeral's
# is a `\d`, which is what isdecimal accepts).
_TEXT_RE = re.compile(r"\d+(?:\.\d+)?|[A-Za-z_][A-Za-z0-9_]*|[-+*/^()=]|\S")
_OPERATOR_CHARS = frozenset("-+*/^()=")
_NAME_START = frozenset(string.ascii_letters + "_")

_ATOM_EXPECTED = {"number", "name", "'-'", "'('"}

# The most parse levels open at once below the top one.  Each '(', unary
# '-' and binary right operand opens a level, so recursion stays bounded.
MAX_NESTING = 200


# The most significant digits a numeral may have, its decimal places counted
# twice (in the numerator and in the power of ten under it).  Any numeral
# within it has a value within MAX_POWER_BITS.  It is checked before int(),
# which refuses strings of over 4,300 digits.
_MAX_NUMERAL_DIGITS = int(MAX_POWER_BITS / math.log2(10))


def bounded_numeral(text: str) -> Fraction | None:
    """The exact value of a digit string with an optional decimal part, or
    None past _MAX_NUMERAL_DIGITS.

    Leading zeros and trailing decimal zeros do not count, so every numeral
    of one value is held to the same bound.  The one rule for numerals in
    scripts, questions, final answers and gold answers.
    """
    whole, _, frac = text.partition(".")
    digits = whole + frac
    if len(text) > _MAX_NUMERAL_DIGITS // 2:  # any shorter numeral fits
        frac = frac.rstrip("0")
        digits = (whole + frac).lstrip("0")
        if len(digits) + len(frac) > _MAX_NUMERAL_DIGITS:
            return None
    value = int(digits or "0")
    return Fraction(value, 10 ** len(frac)) if frac else Fraction(value)


class _Stop(Exception):
    """A parse failure: args (token index, expected kinds[, found text]), or
    none for a second '='.  `_located` turns it into the public error."""


_BINARY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PREC = 3
_BINARY_NODE = {"+": Add, "-": Sub, "*": Mul, "/": Div, "^": Pow}


def _climb(texts: list[str], i: int, min_prec: int, depth: int, leaves: dict[str, Expr],
           names: dict[str, None], numerals: list[Fraction]) -> tuple[Expr, int]:
    """Precedence climbing from `texts[i]` over operators binding at least
    `min_prec`: the tree, and the index of the token after it.

    Each leaf is the one node `leaves` holds for its text, made on first
    use.  Left to right, each leaf's name goes into `names` (once, in order
    of first occurrence) or its numeral's value into `numerals`.
    """
    if depth > MAX_NESTING:  # texts[i - 1] opened this level
        raise _Stop(i - 1, {f"at most {MAX_NESTING} nesting levels"})
    text = texts[i]
    if text == "(":
        node, i = _climb(texts, i + 1, 0, depth + 1, leaves, names, numerals)
        if texts[i] != ")":
            raise _Stop(i, {"')'"})
        i += 1
    elif text == "-":
        # Unary minus binds looser than '^': -x^2 is -(x^2).
        node, i = _climb(texts, i + 1, _UNARY_PREC + 1, depth + 1, leaves, names, numerals)
        node = Neg(node)
    else:
        node = leaves.get(text)
        if node is None:
            if text[:1] in _NAME_START:
                node = Var(text)
            elif not text[:1].isdecimal():
                raise _Stop(i, _ATOM_EXPECTED)
            elif (value := bounded_numeral(text)) is None:
                expected = {f"a numeral of at most {MAX_POWER_BITS} bits"}
                raise _Stop(i, expected, f"one of {len(text)} characters")
            else:
                node = Num(value)
            leaves[text] = node
        if type(node) is Var:
            names[node.name] = None
        else:
            numerals.append(node.value)
        i += 1
    while True:
        text = texts[i]
        prec = _BINARY_PREC.get(text)
        if prec is None or prec < min_prec:
            return node, i
        right_prec = prec if text == "^" else prec + 1  # '^' is right-associative
        right, i = _climb(texts, i + 1, right_prec, depth + 1, leaves, names, numerals)
        node = _BINARY_NODE[text](node, right)


def _located(src: str, offset: int, stop: _Stop, declaration: bool) -> ParseError:
    """The error `stop` stands for, placed in `src`, which starts at `offset`,
    unless `src` holds an invalid token, which is reported first.  In a
    declaration, a stop at its '=' is one at the end of the left side: where
    its last token ends, or where the body starts."""
    matches = list(_TEXT_RE.finditer(src))
    for match in matches:
        first = match.group()[0]
        if first not in _OPERATOR_CHARS and first not in _NAME_START and not first.isdecimal():
            return ExprSyntaxError(offset + match.start(), {"a valid token"}, repr(match.group()))
    if not stop.args:
        return MultipleEqualsError(src.strip())
    index, expected, *found = stop.args
    if index == len(matches):
        position, text = len(src), "end of input"
    elif declaration and matches[index].group() == "=":
        position, text = matches[index - 1].end() if index else 0, "end of input"
    else:
        position, text = matches[index].start(), matches[index].group()
    return ExprSyntaxError(offset + position, set(expected), found[0] if found else text)


def parse_expression(src: str, offset: int = 0) -> Expr:
    """Parse one arithmetic expression; raises ExprSyntaxError."""
    texts = _TEXT_RE.findall(src)
    texts.append("")  # the end of the expression
    try:
        expr, i = _climb(texts, 0, 0, 0, {}, {}, [])
        if i != len(texts) - 1:
            raise _Stop(i, {"end of expression"})
    except _Stop as stop:
        raise _located(src, offset, stop, False) from None
    return expr


# --------------------------------------------------------------------------
# Declarations

@dataclass(frozen=True, slots=True)
class VarDecl:
    name: str


@dataclass(frozen=True, slots=True)
class EqDecl:
    """`lhs = rhs`, with what every later stage needs to know of its leaves.

    `lhs_names` and `rhs_names` are each side's variable names, each once in
    order of first occurrence; `numerals` is the value of every numeral,
    left side first, in tree order.  The parser records them as it builds
    the sides; an EqDecl made without them computes them in one walk per
    side (`exprs.leaves`).
    """

    lhs: Expr
    rhs: Expr
    lhs_names: tuple[str, ...] = field(default=None, compare=False, repr=False)
    rhs_names: tuple[str, ...] = field(default=None, compare=False, repr=False)
    numerals: tuple[Fraction, ...] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.lhs_names is None or self.rhs_names is None or self.numerals is None:
            lhs_names, lhs_numerals = leaves(self.lhs)
            rhs_names, rhs_numerals = leaves(self.rhs)
            object.__setattr__(self, "lhs_names", lhs_names)
            object.__setattr__(self, "rhs_names", rhs_names)
            object.__setattr__(self, "numerals", lhs_numerals + rhs_numerals)


@dataclass(frozen=True, slots=True)
class GoalDecl:
    name: str


Declaration = VarDecl | EqDecl | GoalDecl


def extract_brackets(text: str) -> list[tuple[str, Span]]:
    """Return each `[[...]]` body with the span of the whole bracket.

    Bodies may not nest; the first `]]` closes.  Raises
    UnterminatedBracketError if a `[[` never closes.
    """
    found: list[tuple[str, Span]] = []
    cursor = 0
    while (start := text.find("[[", cursor)) != -1:
        end = text.find("]]", start + 2)
        if end == -1:
            raise UnterminatedBracketError(start)
        found.append((text[start + 2 : end], (start, end + 2)))
        cursor = end + 2
    return found


def _name(text: str, leaves: dict[str, Expr]) -> str:
    """The name string of the one Var `leaves` holds for `text`."""
    node = leaves.get(text)
    if node is None:
        node = leaves[text] = Var(text)
    return node.name


def parse_declaration(
    raw: str, span: Span | None = None, leaves: dict[str, Expr] | None = None
) -> Declaration:
    """Parse one bracket body into a declaration.

    `leaves` maps each name and numeral text to the one node that stands for
    it, and every name the declaration holds is its node's string.  The
    parses of one run share it, and a lone call gets a fresh one.  Trees are
    immutable, so a node may sit in many of them.  Threads may share it
    without a lock: two that meet a new text at once make two equal nodes.
    """
    leaves = {} if leaves is None else leaves
    texts = _TEXT_RE.findall(raw)
    texts.append("")  # the end of the body
    try:
        equals = texts.count("=")
        if equals > 1:
            raise _Stop()
        if not equals:
            # Only remaining legal form: `var <ident>`.
            if len(texts) == 3 and texts[0] == "var" and texts[1][0] in _NAME_START:
                return VarDecl(_name(texts[1], leaves))
            raise _Stop(0, {"'var <name>'", "'<expr> = <expr>'"})
        split = texts.index("=")
        if split == 1 and texts[0] == RESERVED_GOAL_NAME:
            if len(texts) == 4 and texts[2][0] in _NAME_START:
                return GoalDecl(_name(texts[2], leaves))
            raise _Stop(2, {"a variable name"})
        lhs_names, rhs_names, numerals = {}, {}, []
        lhs, i = _climb(texts, 0, 0, 0, leaves, lhs_names, numerals)
        if i == split:
            rhs, i = _climb(texts, split + 1, 0, 0, leaves, rhs_names, numerals)
        if i != len(texts) - 1:  # either side stopped short of its end
            raise _Stop(i, {"end of expression"})
    except _Stop as stop:
        raise _located(raw, span[0] + 2 if span else 0, stop, True) from None
    return EqDecl(lhs, rhs, tuple(lhs_names), tuple(rhs_names), tuple(numerals))


# --------------------------------------------------------------------------
# Scripts

@dataclass(frozen=True, slots=True)
class SolutionScript:
    """An ordered, validated declaration sequence with its goal variable."""

    declarations: tuple[Declaration, ...]
    goal: str

    @property
    def equations(self) -> tuple[EqDecl, ...]:
        return tuple(d for d in self.declarations if isinstance(d, EqDecl))

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.declarations if isinstance(d, VarDecl))


def build_script(decls: list[Declaration] | tuple[Declaration, ...]) -> SolutionScript:
    """Validate a declaration sequence and assemble the script.

    Raises NoGoalError, GoalNotLastError, UndeclaredVariableError,
    DuplicateDeclarationError, or ReservedIdentifierError.
    """
    decls = tuple(decls)
    goals = [(i, d) for i, d in enumerate(decls) if isinstance(d, GoalDecl)]
    if not goals:
        raise NoGoalError()
    first_index, first_goal = goals[0]
    if len(goals) > 1 or first_index != len(decls) - 1:
        raise GoalNotLastError()
    declared: set[str] = set()
    for decl in decls:
        if isinstance(decl, VarDecl):
            if decl.name == RESERVED_GOAL_NAME:
                raise ReservedIdentifierError()
            if decl.name in declared:
                raise DuplicateDeclarationError(decl.name)
            declared.add(decl.name)
        elif isinstance(decl, EqDecl):
            # The goal name is never declared, so it is undeclared when used.
            undeclared = {*decl.lhs_names, *decl.rhs_names} - declared
            if RESERVED_GOAL_NAME in undeclared:
                raise ReservedIdentifierError()
            if undeclared:
                raise UndeclaredVariableError(min(undeclared))
        elif isinstance(decl, GoalDecl):
            if decl.name not in declared:
                raise UndeclaredVariableError(decl.name)
    return SolutionScript(decls, first_goal.name)


def script_from_transcript(text: str, leaves: dict[str, Expr] | None = None) -> SolutionScript:
    """Extract, parse, and validate every declaration in a transcript.

    `leaves` is `parse_declaration`'s, which `run_eval` shares among the
    transcripts of a run (two threads may make two equal nodes for one
    text); without it, the transcript's declarations share a fresh one.
    """
    brackets = extract_brackets(text)
    if not brackets:
        raise NoDeclarationsError()
    leaves = {} if leaves is None else leaves
    return build_script([parse_declaration(raw, span, leaves) for raw, span in brackets])


def render_script(script: SolutionScript) -> str:
    """Canonical serialization: one declaration per line."""
    lines = []
    for decl in script.declarations:
        if isinstance(decl, VarDecl):
            lines.append(f"var {decl.name}")
        elif isinstance(decl, EqDecl):
            lines.append(f"{render(decl.lhs)} = {render(decl.rhs)}")
        else:
            lines.append(f"{RESERVED_GOAL_NAME} = {decl.name}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Principle checking

_QUESTION_NUMBER_RE = re.compile(r"\d[\d,]*(?:\.\d+)?%?")


def check_principles(script: SolutionScript, question: str) -> tuple[Fraction, ...]:
    """Rule 5 (a warning only): the question's numbers that no equation
    uses, each once, in order of first occurrence.

    Commas are stripped, and `N%` counts as used as either N or N/100.  A
    numeral past the script grammar's bound (`bounded_numeral`) is skipped:
    no script numeral can equal it.
    """
    # Keyed by numerator and denominator: a Fraction's own hash is costly.
    used = {value.as_integer_ratio() for eq in script.equations for value in eq.numerals}
    seen: set[tuple[int, int]] = set()
    unused = []
    for text in _QUESTION_NUMBER_RE.findall(question):
        face = bounded_numeral(text.rstrip("%").replace(",", ""))
        if face is None or (key := face.as_integer_ratio()) in seen:
            continue
        seen.add(key)
        if key not in used and not (text[-1] == "%" and (face / 100).as_integer_ratio() in used):
            unused.append(face)
    return tuple(unused)
