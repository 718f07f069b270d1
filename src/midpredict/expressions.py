"""Small arithmetic expression language used for system definitions.

Nonlinearities and input signals are entered as text so that experiment
configurations stay plain data. The grammar supports +, -, *, /, ^ (right
associative), unary minus, parentheses, numeric literals, named variables,
and the functions sin, cos, tan, tanh, exp, log, sqrt, abs.

Precedence, tightest first: ^, unary -, then * and /, then + and -.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ExpressionError",
    "ParseError",
    "UnknownNameError",
    "EvaluationError",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse_expression",
    "eval_expression",
    "free_variables",
    "to_source",
    "compile_expression",
    "compile_field",
    "FUNCTIONS",
]


class ExpressionError(ValueError):
    """Base class for expression parsing and evaluation failures."""


class ParseError(ExpressionError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownNameError(ExpressionError):
    def __init__(self, name, position):
        super().__init__("unknown identifier '%s' (at position %d)" % (name, position))
        self.name = name
        self.position = position


class EvaluationError(ExpressionError):
    pass


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Num | Var | Neg | BinOp | Call

FUNCTIONS = ("sin", "cos", "tan", "tanh", "exp", "log", "sqrt", "abs")


def _tokenize(src):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            try:
                value = float(src[i:j])
            except ValueError:
                raise ParseError("bad numeric literal '%s'" % src[i:j], i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character '%s'" % c, i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, allowed_vars):
        self.tokens = tokens
        self.pos = 0
        self.allowed = frozenset(allowed_vars)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError("expected '%s'" % kind, tok[2])
        return tok

    def parse(self):
        node = self.sum_expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("unexpected trailing input", tok[2])
        return node

    def sum_expr(self):
        node = self.product()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.product())
        return node

    def product(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            # right associative; the exponent may itself carry a unary minus
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "(":
            node = self.sum_expr()
            self.expect(")")
            return node
        if kind == "name":
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise UnknownNameError(value, pos)
                self.advance()
                arg = self.sum_expr()
                self.expect(")")
                return Call(value, arg)
            if value not in self.allowed:
                raise UnknownNameError(value, pos)
            return Var(value)
        raise ParseError("expected a value", pos)


def parse_expression(src, allowed_vars):
    """Parse ``src`` into an AST whose free variables lie in ``allowed_vars``."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    return _Parser(_tokenize(src), allowed_vars).parse()


def free_variables(node):
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Num):
        return frozenset()
    if isinstance(node, Neg):
        return free_variables(node.operand)
    if isinstance(node, Call):
        return free_variables(node.arg)
    return free_variables(node.left) | free_variables(node.right)


def _pow(a, b):
    if a == 0.0 and b < 0.0:
        raise EvaluationError("zero raised to a negative power")
    if a < 0.0 and not float(b).is_integer():
        raise EvaluationError("negative base with non-integer exponent")
    return a ** b


def _log(x):
    if x <= 0.0:
        raise EvaluationError("log of a non-positive value")
    return math.log(x)


def _sqrt(x):
    if x < 0.0:
        raise EvaluationError("sqrt of a negative value")
    return math.sqrt(x)


_FUNC_IMPL = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "tanh": math.tanh,
    "exp": math.exp,
    "log": _log,
    "sqrt": _sqrt,
    "abs": abs,
}


def eval_expression(node, bindings):
    """Evaluate an AST at a point given as a name -> value mapping."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return float(bindings[node.name])
        except KeyError:
            raise EvaluationError("missing binding for '%s'" % node.name)
    if isinstance(node, Neg):
        return -eval_expression(node.operand, bindings)
    if isinstance(node, Call):
        return _FUNC_IMPL[node.func](eval_expression(node.arg, bindings))
    a = eval_expression(node.left, bindings)
    b = eval_expression(node.right, bindings)
    op = node.op
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            raise EvaluationError("division by zero")
        return a / b
    return _pow(a, b)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _node_prec(node):
    if isinstance(node, (Num, Var, Call)):
        return 5
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC[node.op]


def to_source(node):
    """Render an AST back to text; re-parsing yields a structurally equal AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return "%s(%s)" % (node.func, to_source(node.arg))
    if isinstance(node, Neg):
        inner = to_source(node.operand)
        if _node_prec(node.operand) < _PREC["neg"]:
            inner = "(%s)" % inner
        return "-" + inner
    p = _PREC[node.op]
    left = to_source(node.left)
    right = to_source(node.right)
    if node.op == "^":
        # right associative, so the left operand needs parens at equal level
        if _node_prec(node.left) <= p:
            left = "(%s)" % left
        if _node_prec(node.right) < p:
            right = "(%s)" % right
    else:
        if _node_prec(node.left) < p:
            left = "(%s)" % left
        if _node_prec(node.right) <= p:
            right = "(%s)" % right
    return "%s %s %s" % (left, node.op, right)


def _emit(node, names):
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        names.add(node.name)
        return node.name
    if isinstance(node, Neg):
        return "(-%s)" % _emit(node.operand, names)
    if isinstance(node, Call):
        return "_f_%s(%s)" % (node.func, _emit(node.arg, names))
    if node.op == "^":
        return "_f_pow(%s, %s)" % (_emit(node.left, names), _emit(node.right, names))
    if node.op == "/":
        return "_f_div(%s, %s)" % (_emit(node.left, names), _emit(node.right, names))
    return "(%s %s %s)" % (_emit(node.left, names), node.op, _emit(node.right, names))


def _div(a, b):
    if b == 0.0:
        raise EvaluationError("division by zero")
    return a / b


_NAMESPACE = {"_f_pow": _pow, "_f_div": _div, **{"_f_" + k: f for k, f in _FUNC_IMPL.items()}}


def _compile(body, used, arg_names):
    missing = used.difference(arg_names)
    if missing:
        raise EvaluationError("missing binding for '%s'" % sorted(missing)[0])
    src = "def _expr(%s):\n    return %s\n" % (", ".join(arg_names), body)
    namespace = dict(_NAMESPACE)
    exec(compile(src, "<expression>", "exec"), namespace)
    return namespace["_expr"]


def compile_expression(node, arg_names):
    """Compile an AST to a fast positional callable over ``arg_names``.

    The source is generated from the validated AST, never from user text.
    Unused arguments are accepted and ignored.
    """
    used = set()
    return _compile(_emit(node, used), used, arg_names)


def compile_field(nodes, arg_names):
    """Like compile_expression, for several ASTs evaluated in order into one tuple."""
    used = set()
    return _compile("(%s,)" % ", ".join(_emit(node, used) for node in nodes), used, arg_names)
