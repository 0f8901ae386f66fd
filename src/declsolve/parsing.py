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
MAX_NESTING levels nest; deeper input is an ExprSyntaxError.

A parsed script is checked against five structural rules: every statement
is a declaration (1), the goal comes last (2), equations use only
previously introduced variables (3), no variable is introduced twice (4),
and the solution should use every number in the question (5, warning only).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .exprs import MAX_POWER_BITS, Expr, Num, Var, Neg, Add, Sub, Mul, Div, Pow
from .exprs import format_rational, free_vars, iter_numerals, render

Span = tuple[int, int]

# The goal keyword; never a legal variable name inside a script.
RESERVED_GOAL_NAME = "answer"


class ParseError(Exception):
    """Base class for transcript- and expression-level parse failures."""


class UnterminatedBracketError(ParseError):
    def __init__(self, span: Span):
        super().__init__(f"'[[' at offset {span[0]} has no closing ']]'")
        self.span = span


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

    def __init__(self, message: str, span: Span | None = None):
        super().__init__(message)
        self.span = span


class NoGoalError(ScriptError):
    principle = 2

    def __init__(self):
        super().__init__("script has no 'answer = <variable>' declaration")


class GoalNotLastError(ScriptError):
    principle = 2

    def __init__(self, span: Span | None = None):
        super().__init__("the goal declaration must be the last statement", span)


class UndeclaredVariableError(ScriptError):
    principle = 3

    def __init__(self, name: str, span: Span | None = None):
        super().__init__(f"variable '{name}' used before being introduced", span)
        self.name = name


class DuplicateDeclarationError(ScriptError):
    principle = 4

    def __init__(self, name: str, span: Span | None = None):
        super().__init__(f"variable '{name}' introduced more than once", span)
        self.name = name


class ReservedIdentifierError(ScriptError):
    principle = 2

    def __init__(self, span: Span | None = None):
        super().__init__(
            f"'{RESERVED_GOAL_NAME}' is reserved for the goal declaration", span
        )


# --------------------------------------------------------------------------
# Tokenizer and expression parser

# A token is a (kind, text, position) tuple, kind one of num, ident, op and
# end.  Whitespace matches no named group; `bad` catches any other character.
_TOKEN_RE = re.compile(
    r"\s+"
    r"|(?P<num>\d+(?:\.\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()=])"
    r"|(?P<bad>.)"
)
_Token = tuple[str, str, int]

_ATOM_EXPECTED = {"number", "name", "'-'", "'('"}

# The most parse levels open at once below the top one.  Each '(', unary
# '-' and binary right operand opens a level, so recursion stays bounded.
MAX_NESTING = 200


def _numeral(digits: str) -> Fraction:
    """The exact value of a digit string with an optional decimal part."""
    whole, _, frac = digits.partition(".")
    if frac:
        return Fraction(int(whole + frac), 10 ** len(frac))
    return Fraction(int(whole))


# The most significant digits a numeral may have, its decimal places counted
# twice (in the numerator and in the power of ten under it).  Any numeral
# within it has a value within MAX_POWER_BITS.  It is checked before int(),
# which refuses strings of over 4,300 digits.
_MAX_NUMERAL_DIGITS = int(MAX_POWER_BITS / math.log2(10))


def bounded_numeral(text: str) -> Fraction | None:
    """`_numeral(text)`, or None past _MAX_NUMERAL_DIGITS.

    Leading zeros and trailing decimal zeros do not count, so every numeral
    of one value is held to the same bound.  The one rule for numerals in
    scripts, questions, final answers and gold answers.
    """
    if len(text) <= _MAX_NUMERAL_DIGITS // 2:  # any numeral this short fits
        return _numeral(text)
    whole, _, frac = text.partition(".")
    frac = frac.rstrip("0")
    digits = (whole + frac).lstrip("0")
    if len(digits) + len(frac) > _MAX_NUMERAL_DIGITS:
        return None
    return Fraction(int(digits or "0"), 10 ** len(frac))


def _tokenize(src: str, offset: int = 0) -> list[_Token]:
    tokens = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(src):
        kind = match.lastgroup
        if kind is None:
            continue
        if kind == "bad":
            raise ExprSyntaxError(offset + match.start(), {"a valid token"}, repr(match.group()))
        append((kind, match.group(), offset + match.start()))
    append(("end", "", offset + len(src)))
    return tokens


_BINARY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PREC = 3
_BINARY_NODE = {"+": Add, "-": Sub, "*": Mul, "/": Div, "^": Pow}


class _Parser:
    """Precedence climbing over a token list that ends in an end token.

    Operators are told apart by text alone: no name or numeral spells one.
    """

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0

    def parse(self, min_prec: int = 0, depth: int = 0) -> Expr:
        tokens = self.tokens
        if depth > MAX_NESTING:
            _, text, pos = tokens[self.index - 1]  # the token that opened this level
            raise ExprSyntaxError(pos, {f"at most {MAX_NESTING} nesting levels"}, text)
        lhs = self.atom(depth)
        while True:
            text = tokens[self.index][1]
            prec = _BINARY_PREC.get(text)
            if prec is None or prec < min_prec:
                return lhs
            self.index += 1
            # '^' is right-associative: keep the same level on the right.
            rhs = self.parse(prec if text == "^" else prec + 1, depth + 1)
            lhs = _BINARY_NODE[text](lhs, rhs)

    def atom(self, depth: int) -> Expr:
        kind, text, pos = self.tokens[self.index]
        self.index += 1
        if kind == "num":
            value = bounded_numeral(text)
            if value is None:
                expected = {f"a numeral of at most {MAX_POWER_BITS} bits"}
                raise ExprSyntaxError(pos, expected, f"one of {len(text)} characters")
            return Num(value)
        if kind == "ident":
            return Var(text)
        if text == "-":
            # Unary minus binds looser than '^': -x^2 is -(x^2).
            return Neg(self.parse(_UNARY_PREC + 1, depth + 1))
        if text == "(":
            inner = self.parse(0, depth + 1)
            _, text, pos = self.tokens[self.index]
            if text != ")":
                raise ExprSyntaxError(pos, {"')'"}, text or "end of input")
            self.index += 1
            return inner
        raise ExprSyntaxError(pos, set(_ATOM_EXPECTED), text or "end of input")


def _parse_run(tokens: list[_Token]) -> Expr:
    """Parse a whole token run; raises ExprSyntaxError."""
    parser = _Parser(tokens)
    expr = parser.parse()
    kind, text, pos = tokens[parser.index]
    if kind != "end":
        raise ExprSyntaxError(pos, {"end of expression"}, text)
    return expr


def parse_expression(src: str, offset: int = 0) -> Expr:
    """Parse one arithmetic expression; raises ExprSyntaxError."""
    return _parse_run(_tokenize(src, offset))


# --------------------------------------------------------------------------
# Declarations

@dataclass(frozen=True)
class VarDecl:
    name: str
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class EqDecl:
    lhs: Expr
    rhs: Expr
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class GoalDecl:
    name: str
    span: Span | None = field(default=None, compare=False)


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
            raise UnterminatedBracketError((start, len(text)))
        found.append((text[start + 2 : end], (start, end + 2)))
        cursor = end + 2
    return found


def parse_declaration(raw: str, span: Span | None = None) -> Declaration:
    """Parse one bracket body into a declaration."""
    offset = span[0] + 2 if span else 0
    tokens = _tokenize(raw, offset)
    equals = [i for i, token in enumerate(tokens) if token[1] == "="]
    if len(equals) > 1:
        raise MultipleEqualsError(raw.strip())

    if not equals:
        # Only remaining legal form: `var <ident>`.
        if len(tokens) == 3 and tokens[0][1] == "var" and tokens[1][0] == "ident":
            return VarDecl(tokens[1][1], span)
        _, text, pos = tokens[0]
        raise ExprSyntaxError(pos, {"'var <name>'", "'<expr> = <expr>'"}, text or "end of input")

    split = equals[0]
    lhs, rhs = tokens[:split], tokens[split + 1 :]
    if len(lhs) == 1 and lhs[0][1] == RESERVED_GOAL_NAME:
        if len(rhs) == 2 and rhs[0][0] == "ident":
            return GoalDecl(rhs[0][1], span)
        _, text, pos = rhs[0]
        raise ExprSyntaxError(pos, {"a variable name"}, text or "end of input")

    # The left side ends where its last token does, or where the body starts.
    lhs.append(("end", "", lhs[-1][2] + len(lhs[-1][1]) if lhs else offset))
    return EqDecl(_parse_run(lhs), _parse_run(rhs), span)


# --------------------------------------------------------------------------
# Scripts

@dataclass(frozen=True)
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


def validate_declarations(decls: list[Declaration] | tuple[Declaration, ...]) -> None:
    """Check introduction order, duplicates, and the reserved goal name.

    Valid for any prefix of a script (the goal declaration may be absent):
    the incremental construction rule that every equation only uses
    variables introduced before it.
    """
    declared: set[str] = set()
    for decl in decls:
        if isinstance(decl, VarDecl):
            if decl.name == RESERVED_GOAL_NAME:
                raise ReservedIdentifierError(decl.span)
            if decl.name in declared:
                raise DuplicateDeclarationError(decl.name, decl.span)
            declared.add(decl.name)
        elif isinstance(decl, EqDecl):
            used = free_vars(decl.lhs) | free_vars(decl.rhs)
            if RESERVED_GOAL_NAME in used:
                raise ReservedIdentifierError(decl.span)
            for name in sorted(used):
                if name not in declared:
                    raise UndeclaredVariableError(name, decl.span)
        elif isinstance(decl, GoalDecl):
            if decl.name not in declared:
                raise UndeclaredVariableError(decl.name, decl.span)


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
        raise GoalNotLastError(first_goal.span)
    validate_declarations(decls)
    return SolutionScript(decls, first_goal.name)


def script_from_transcript(text: str) -> SolutionScript:
    """Extract, parse, and validate every declaration in a transcript."""
    brackets = extract_brackets(text)
    if not brackets:
        raise NoDeclarationsError()
    decls = [parse_declaration(raw, span) for raw, span in brackets]
    return build_script(decls)


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

@dataclass(frozen=True)
class PrincipleViolation:
    principle: int
    message: str
    span: Span | None = None


@dataclass(frozen=True)
class PrincipleReport:
    violations: tuple[PrincipleViolation, ...] = ()
    unused_question_numbers: tuple[Fraction, ...] = ()

    @property
    def failures(self) -> tuple[PrincipleViolation, ...]:
        """Violations that invalidate the script (rule 5 never does)."""
        return tuple(v for v in self.violations if v.principle != 5)

    @property
    def warnings(self) -> tuple[PrincipleViolation, ...]:
        return tuple(v for v in self.violations if v.principle == 5)

    @property
    def ok(self) -> bool:
        return not self.failures


_QUESTION_NUMBER_RE = re.compile(r"\d[\d,]*(?:\.\d+)?%?")


def question_numbers(question: str) -> list[tuple[Fraction, frozenset[Fraction]]]:
    """Numerals in the question, each with its set of acceptable values.

    Commas are stripped; `N%` is accepted as either N or N/100.  Duplicates
    keep the first occurrence only.  A numeral past the script grammar's
    bound (`bounded_numeral`) is skipped: no script numeral can equal it,
    and it could not be printed in a warning.
    """
    out: list[tuple[Fraction, frozenset[Fraction]]] = []
    seen: set[Fraction] = set()
    for match in _QUESTION_NUMBER_RE.finditer(question):
        text = match.group()
        is_percent = text.endswith("%")
        face = bounded_numeral(text.rstrip("%").replace(",", ""))
        if face is None or face in seen:
            continue
        seen.add(face)
        aliases = frozenset({face, face / 100}) if is_percent else frozenset({face})
        out.append((face, aliases))
    return out


def check_principles(script: SolutionScript, question: str) -> PrincipleReport:
    """Report rule-5 findings: question numbers absent from every equation."""
    used: set[Fraction] = set()
    for eq in script.equations:
        used.update(iter_numerals(eq.lhs))
        used.update(iter_numerals(eq.rhs))
    violations = []
    unused = []
    for face, aliases in question_numbers(question):
        if not (aliases & used):
            unused.append(face)
            violations.append(
                PrincipleViolation(
                    5,
                    f"question number {format_rational(face)} is not used in any equation",
                )
            )
    return PrincipleReport(tuple(violations), tuple(unused))


@dataclass(frozen=True)
class TranscriptCheck:
    """Outcome of running the parser and principle checker on a transcript."""

    script: SolutionScript | None
    report: PrincipleReport


def check_transcript(text: str, question: str = "") -> TranscriptCheck:
    """Parse a transcript and map any failure onto the rule it violates.

    Parse-level failures (a statement that neither introduces a variable nor
    states an equation) report as rule 1; goal problems as rule 2; forward
    references as rule 3; duplicate introductions as rule 4.  A valid script
    additionally gets the rule-5 number-usage scan against the question.
    """
    try:
        script = script_from_transcript(text)
    except ScriptError as err:
        violation = PrincipleViolation(err.principle, str(err), err.span)
        return TranscriptCheck(None, PrincipleReport((violation,)))
    except ExprSyntaxError as err:
        violation = PrincipleViolation(1, str(err), (err.position, err.position + 1))
        return TranscriptCheck(None, PrincipleReport((violation,)))
    except ParseError as err:
        span = getattr(err, "span", None)
        violation = PrincipleViolation(1, str(err), span)
        return TranscriptCheck(None, PrincipleReport((violation,)))
    report = check_principles(script, question) if question else PrincipleReport()
    return TranscriptCheck(script, report)
