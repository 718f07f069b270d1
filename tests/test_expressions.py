import ast
import math

import pytest

from midpredict.expressions import (
    BinOp,
    Call,
    DepthError,
    EvaluationError,
    MAX_DEPTH,
    Neg,
    ParseError,
    UnknownNameError,
    Var,
    _define,
    _emit,
    _source,
    eval_expression,
    parse_expression,
)
from oracles import to_source

XU = ["x1", "x2", "u"]


def _compiled(ast):
    """The AST as a function of XU, emitted as compile_chain_run inlines it."""
    return _define("_expr", _source("_expr", XU, ["return " + _emit(ast, {a: a for a in XU})]))


def test_parse_function_call():
    ast = parse_expression("tanh(x1+x2)", XU)
    assert ast == Call("tanh", BinOp("+", Var("x1"), Var("x2")))


def test_parse_demo_second_component():
    ast = parse_expression("-x1 + 0.5*tanh(x1+x2) + x1*u", XU)
    value = eval_expression(ast, {"x1": 1.0, "x2": 0.0, "u": 0.0})
    assert value == pytest.approx(-1.0 + 0.5 * math.tanh(1.0), abs=1e-15)


def test_unknown_identifier_reports_name():
    with pytest.raises(UnknownNameError) as err:
        parse_expression("x3", XU)
    assert err.value.name == "x3"


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_expression("x1 + * 2", XU)
    assert err.value.position == 5


def test_empty_expression_rejected():
    with pytest.raises(ParseError):
        parse_expression("   ", XU)


@pytest.mark.parametrize("longest, deeper", [
    # a level per operation, two more for a number at the end of the path
    ("x1" + "*x1" * MAX_DEPTH, "x1" + "*x1" * (MAX_DEPTH + 1)),
    ("x1" + "+1" * (MAX_DEPTH - 2), "x1" + "+1" * (MAX_DEPTH - 1)),
    ("sin(x1)" + "+u" * (MAX_DEPTH - 1), "sin(1)" + "+u" * (MAX_DEPTH - 2)),
], ids=["variables", "numbers", "calls"])
def test_depth_limit_counts_the_levels_of_the_deepest_leaf(longest, deeper):
    # the trees are not walked here: the test runner's stack is deeper than the CLI's
    assert isinstance(parse_expression(longest, XU), BinOp)
    with pytest.raises(DepthError, match="^is %d levels deep, past the limit of %d$"
                       % (MAX_DEPTH + 1, MAX_DEPTH)):
        parse_expression(deeper, XU)


def test_grouped_terms_parse_shallow():
    terms = "+".join(["(%s)" % "+".join(["x1"] * 50)] * 40)
    assert eval_expression(parse_expression(terms, XU), {"x1": 0.5}) == 1000.0


@pytest.mark.parametrize("src", ["(" * 2000 + "x1" + ")" * 2000, "sin(" * 1000 + "u" + ")" * 1000],
                         ids=["parentheses", "calls"])
def test_nesting_past_the_parser_stack_is_a_depth_error(src):
    with pytest.raises(DepthError, match=r"^nests too deep to parse \(%d characters\)$" % len(src)):
        parse_expression(src, XU)


def test_tanh_at_zero():
    ast = parse_expression("tanh(x1+x2)", XU)
    assert eval_expression(ast, {"x1": 0.0, "x2": 0.0}) == 0.0


def test_power_right_associative():
    ast = parse_expression("x1^2^3", XU)
    assert eval_expression(ast, {"x1": 2.0}) == 256.0


def test_unary_minus_binds_below_power():
    ast = parse_expression("-x1^2", XU)
    assert eval_expression(ast, {"x1": 3.0}) == -9.0


def test_precedence_mul_over_add():
    ast = parse_expression("1 + 2*3", [])
    assert eval_expression(ast, {}) == 7.0


def test_division_by_zero_raises():
    ast = parse_expression("x1/x2", XU)
    with pytest.raises(EvaluationError):
        eval_expression(ast, {"x1": 1.0, "x2": 0.0})


def test_log_of_nonpositive_raises():
    ast = parse_expression("log(x1)", XU)
    with pytest.raises(EvaluationError):
        eval_expression(ast, {"x1": -1.0})


def test_sqrt_of_negative_raises():
    ast = parse_expression("sqrt(x1)", XU)
    with pytest.raises(EvaluationError):
        eval_expression(ast, {"x1": -4.0})


def test_missing_binding_raises():
    ast = parse_expression("x1 + u", XU)
    with pytest.raises(EvaluationError):
        eval_expression(ast, {"x1": 1.0})


ROUND_TRIP_CORPUS = [
    "1",
    "0.5",
    "2e-3",
    "x1",
    "-x1",
    "--x1",
    "x1 + x2",
    "x1 - x2",
    "x1 - (x2 - u)",
    "(x1 - x2) - u",
    "x1*x2",
    "x1/x2",
    "x1/(x2/u)",
    "x1*x2 + u",
    "x1*(x2 + u)",
    "-(x1 + x2)",
    "-x1*x2",
    "x1^2",
    "x1^2^3",
    "(x1^2)^3",
    "x1^-2",
    "-x1^2",
    "(-x1)^2",
    "2^x1",
    "sin(x1)",
    "cos(x1*x2)",
    "tan(x1) + tanh(x2)",
    "exp(-x1)",
    "log(x1 + 1)",
    "sqrt(x1^2 + x2^2)",
    "abs(-x1)",
    "0.1*sin(0.1*u)",
    "-x1 + 0.5*tanh(x1+x2) + x1*u",
    "x1 + x2 + u",
    "x1 - x2 - u",
    "x1/x2/u",
    "x1*x2*u",
    "1 + 2*3 - 4/5",
    "sin(cos(tan(x1)))",
    "x1^(x2 + 1)",
    "(x1 + x2)^2",
    "3.25*x1 - 0.125",
    "x1*u^2",
    "(x1*u)^2",
    "abs(x1 - x2)",
    "exp(x1)*sin(x2)",
    "1/(1 + exp(-x1))",
    "x2 - x1^3/3",
    "0",
    "x1 - -x2",
    "tanh(0.5*(x1 + x2))",
]


@pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
def test_pretty_print_round_trip(src):
    ast = parse_expression(src, XU)
    printed = to_source(ast)
    assert parse_expression(printed, XU) == ast


@pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
def test_compiled_matches_tree_walk(src):
    ast = parse_expression(src, XU)
    fn = _compiled(ast)
    bindings = {"x1": 0.7, "x2": -0.3, "u": 0.05}
    try:
        expected = eval_expression(ast, bindings)
    except EvaluationError:
        with pytest.raises(EvaluationError):
            fn(0.7, -0.3, 0.05)
        return
    assert fn(0.7, -0.3, 0.05) == pytest.approx(expected, rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("src", ["1e999*x1", "-1e999"])
def test_pretty_print_round_trip_overflowing_literal(src):
    ast = parse_expression(src, XU)
    assert parse_expression(to_source(ast), XU) == ast


def test_compiled_overflowing_literal():
    # "1e999" parses to inf, whose repr is not a Python literal
    fn = _compiled(parse_expression("1e999*x1", XU))
    assert fn(2.0, 0.0, 0.0) == math.inf


def test_compiled_negative_fractional_power_raises():
    ast = parse_expression("x1^0.5", XU)
    fn = _compiled(ast)
    with pytest.raises(EvaluationError):
        fn(-2.0, 0.0, 0.0)


def _parenthesized(node, names):
    """_emit's source with every infix operation in parentheses."""
    if isinstance(node, Neg):
        return "(-%s)" % _parenthesized(node.operand, names)
    if isinstance(node, Call):
        return "_f_%s(%s)" % (node.func, _parenthesized(node.arg, names))
    if not isinstance(node, BinOp):
        return _emit(node, names)
    left, right = _parenthesized(node.left, names), _parenthesized(node.right, names)
    if node.op in ("^", "/"):
        return "_f_%s(%s, %s)" % ("pow" if node.op == "^" else "div", left, right)
    return "(%s %s %s)" % (left, node.op, right)


def test_emitted_chains_parse_as_the_fully_parenthesized_form():
    # a + b - c and (a + b) - c are one Python AST, so the compiled kernel
    # does not change when a chain drops its inner parentheses
    from midpredict.model import demo_system

    system = demo_system(0.25)
    names = {a: a for a in XU + ["t"]}
    nodes = list(system.phi) + [system.u_signal] + [
        parse_expression(src, XU) for src in
        ("x1 - x2 - u + x1", "x1 - (x2 - u)", "x1*x2*u - x2*u*x1", "x1*(x2*u)", "(x1 + x2)*u",
         "-(x1 - x2) - x2/u/x1 + x1^x2^u")
    ]
    for node in nodes:
        emitted, reference = _emit(node, names), _parenthesized(node, names)
        assert ast.dump(ast.parse(emitted)) == ast.dump(ast.parse(reference)), emitted
    assert _emit(nodes[1], names) == "((-x1) + (0.5 * _f_tanh((x1 + x2))) + (x1 * u))"
