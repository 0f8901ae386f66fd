import pytest

from declsolve.exprs import Var
from declsolve.parsing import MAX_NESTING, ExprSyntaxError, parse_expression

# Each form opens one parse level per repeat: '(', '^' and unary '-'.
NESTED = {
    "parens": lambda n: "(" * n + "x" + ")" * n,
    "power-tower": lambda n: "x" + " ^ x" * n,
    "unary-minus": lambda n: "-" * n + "x",
}


@pytest.mark.parametrize("form", NESTED)
def test_nesting_up_to_the_limit_parses(form):
    assert parse_expression(NESTED[form](MAX_NESTING))


@pytest.mark.parametrize("form, opener", [("parens", "("), ("power-tower", "^"), ("unary-minus", "-")])
def test_nesting_past_the_limit_fails_at_the_opening_token(form, opener):
    src = NESTED[form](MAX_NESTING + 1000)
    with pytest.raises(ExprSyntaxError) as info:
        parse_expression(src, offset=7)
    position = info.value.position
    assert src[position - 7] == opener
    assert src[: position - 7].count(opener) == MAX_NESTING
    assert str(info.value) == (
        f"syntax error at position {position}: expected at most {MAX_NESTING} "
        f"nesting levels, found {opener}"
    )


def test_a_flat_sum_never_nests():
    src = " + ".join(["x"] * (10 * MAX_NESTING))
    assert parse_expression(src).right == Var("x")
