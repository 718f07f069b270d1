"""Small arithmetic expression language used for system definitions.

Nonlinearities and input signals are entered as text so that experiment
configurations stay plain data. The grammar supports +, -, *, /, ^ (right
associative), unary minus, parentheses, numeric literals, named variables,
and the functions sin, cos, tan, tanh, exp, log, sqrt, abs.

Precedence, tightest first: ^, unary -, then * and /, then + and -.

Parsed expressions are evaluated by a tree walk (eval_expression) or
inlined into the one compiled function, which runs a whole RK4 simulation
of a chain of copies of a field (compile_chain_run); both share each
operator's checked implementation.
"""

from __future__ import annotations

import math
from collections import deque
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
    "compile_chain_run",
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


def _div(a, b):
    if b == 0.0:
        raise EvaluationError("division by zero")
    return a / b


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
        return _div(a, b)
    return _pow(a, b)


def _literal(value):
    """Source for a float constant; repr round-trips every finite value exactly."""
    return repr(value) if math.isfinite(value) else "float(%r)" % repr(value)


def _emit(node, names):
    """Python source for the AST; ``names`` maps each variable to the local it reads."""
    if isinstance(node, Num):
        return _literal(node.value)
    if isinstance(node, Var):
        try:
            return names[node.name]
        except KeyError:
            raise EvaluationError("missing binding for '%s'" % node.name) from None
    if isinstance(node, Neg):
        return "(-%s)" % _emit(node.operand, names)
    if isinstance(node, Call):
        return "_f_%s(%s)" % (node.func, _emit(node.arg, names))
    if node.op == "^":
        return "_f_pow(%s, %s)" % (_emit(node.left, names), _emit(node.right, names))
    if node.op == "/":
        return "_f_div(%s, %s)" % (_emit(node.left, names), _emit(node.right, names))
    return "(%s %s %s)" % (_emit(node.left, names), node.op, _emit(node.right, names))


# characters of generated source per chain run; compiling costs about 0.5 us
# and 0.1 KiB per character on a 2-core x86 host (0.28 s and 60 MiB for the
# two-state demo field with N = 400); the simulator's stored-values budget
# alone admits kernels of about 13 million characters (n = 46, N = 465)
MAX_KERNEL_SOURCE = 1_000_000

_NAMESPACE = {"_f_pow": _pow, "_f_div": _div, "_deque": deque,
              **{"_f_" + k: f for k, f in _FUNC_IMPL.items()}}


def _source(name, params, body):
    """Source of a function whose body lines are already indented below the def."""
    lines = "".join("    %s\n" % line for line in body)
    return "def %s(%s):\n%s" % (name, ", ".join(params), lines)


def _define(name, source):
    """Compile a function from generated source, never from user text."""
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace[name]


def compile_chain_run(nodes, signal, blocks, gains, h, m, dt, bound):
    """Compile a whole classical RK4 run of a chain of blocks into one function.

    The state is ``blocks`` copies of the n-state field of ``nodes`` (over
    x1..xn and u), stored flat, block after block. Component i of block j
    moves with ``(x[i+1] + phi_i(x, u_j)) + gains[i] * (p_j - d_j)``, where
    x[n] is the literal 0.0, and blocks j >= 1 carry the injection term, p_j
    being the first component of block j - 1 and d_j its delayed read. At
    time t block j reads the input ``signal`` (an AST over t) at
    ``(t - h) + j * h_e``, with h_e = h / (blocks - 1) = m * dt.

    Returns ``run(out, steps)``. out is an array('d') holding node 0, whose
    predictor blocks are also the history before time zero; run appends
    nodes 1..steps to it, one step dt apart. The derivative at node k reads
    the first components of node k - m (node 0 before that); the two
    midpoint stages of step k read their cubic Hermite interpolant halfway
    between nodes k - m and k - m + 1, kept from the last m + 1 nodes. run
    returns True, the run diverged, when the derivative at a stored node
    overflows, when a stage overflows or when a value of the next node is
    NaN or above ``bound`` in magnitude; those two drop the step's node.
    EvaluationError propagates. The state stays in locals, every field and
    input expression is inlined and the gains and step sizes are embedded
    as exact literals, so each node equals ``y + dt/6 * (((k1 + 2 k2) + 2 k3) + k4)``
    evaluated block by block, bitwise. A run whose source would exceed
    MAX_KERNEL_SOURCE characters is refused with ValueError before compiling.
    """
    n = len(nodes)
    h_e = h / (blocks - 1)
    preds = range(1, blocks)
    inputs_end, inputs_mid = (["%s%d" % (c, j) for j in range(blocks)] for c in ("ue", "um"))
    delays_end, delays_mid, older, slope_old, slope_new = (
        ["%s%d" % (c, j) for j in preds] for c in ("de", "dm", "o", "p", "q"))

    def state(prefix):
        """Locals of a flat state: component i of block j is <prefix><j>_<i>."""
        return ["%s%d_%d" % (prefix, j, i) for j in range(blocks) for i in range(n)]

    def derivative(x, inputs, delays):
        """Expressions of the derivative at the state held in the locals x."""
        exprs = []
        for j in range(blocks):
            block = x[j * n : (j + 1) * n]
            names = {"x%d" % (i + 1): v for i, v in enumerate(block)}
            names["u"] = inputs[j]
            for i, node in enumerate(nodes):
                shift = block[i + 1] if i + 1 < n else "0.0"
                expr = "(%s + %s)" % (shift, _emit(node, names))
                if j:
                    expr += " + %s * (%s - %s)" % (_literal(gains[i]), x[(j - 1) * n], delays[j - 1])
                exprs.append(expr)
        return exprs

    def read_inputs(time, targets):
        """Lines setting every block's input at time t = ``time``."""
        if "t" not in free_variables(signal):
            return assign(targets, [_emit(signal, {})] * blocks)
        lines = ["_b = %s - %s" % (time, _literal(h))]
        for j, target in enumerate(targets):
            lines += ["_t = _b + %s" % _literal(j * h_e),
                      "%s = %s" % (target, _emit(signal, {"t": "_t"}))]
        return lines

    def advance(size, slope):
        """Lines setting the stage state to y + size * slope."""
        return assign(s, ["%s + %s * %s" % (v, _literal(size), d) for v, d in zip(y, slope)])

    def assign(targets, exprs):
        return ["%s = %s" % pair for pair in zip(targets, exprs)]

    def tuple_of(names):
        return "(%s,)" % ", ".join(names)

    def indent(lines):
        return ["    " + line for line in lines]

    y, s = state("y"), state("s")
    k1, k2, k3, k4 = state("a"), state("b"), state("c"), state("e")
    firsts = [y[j * n] for j in preds]
    body = ["%s, = _out" % ", ".join(y)]
    body += assign(delays_end, firsts) + assign(delays_mid, firsts)
    body += read_inputs("0.0", inputs_end)
    body += ["_ring = _deque(maxlen=%d)" % (m + 1), "_keep = _ring.append", "_store = _out.extend",
             "for k in range(_steps + 1):"]
    loop = ["try:"] + indent(assign(k1, derivative(y, inputs_end, delays_end)))
    loop += ["except OverflowError:", "    return True", "if k == _steps:", "    return False",
             "_keep(%s)" % tuple_of(firsts + [k1[j * n] for j in preds]),
             # delayed reads of step k: node k + 1 - m, and halfway between
             # nodes k - m and k + 1 - m
             "if k >= %d:" % m,
             "    %s, = _ring[0]" % ", ".join(older + slope_old),
             "    %s, = _ring[1]" % ", ".join(delays_end + slope_new)]
    loop += indent(assign(delays_mid, [
        "0.5 * (%s + %s) + %s * (%s - %s)" % (o, d, _literal(0.125 * dt), p, q)
        for o, d, p, q in zip(older, delays_end, slope_old, slope_new)]))
    loop += ["t = k * %s" % _literal(dt), "try:"]
    loop += indent(read_inputs("(t + %s)" % _literal(0.5 * dt), inputs_mid)
                   + read_inputs("(t + %s)" % _literal(dt), inputs_end)
                   + advance(0.5 * dt, k1) + assign(k2, derivative(s, inputs_mid, delays_mid))
                   + advance(0.5 * dt, k2) + assign(k3, derivative(s, inputs_mid, delays_mid))
                   + advance(dt, k3) + assign(k4, derivative(s, inputs_end, delays_end)))
    loop += ["except OverflowError:", "    return True"]
    sixth = _literal(dt / 6.0)
    loop += assign(y, ["%s + %s * (((%s + 2.0 * %s) + 2.0 * %s) + %s)" % (v, sixth, a, b, c, e)
                       for v, a, b, c, e in zip(y, k1, k2, k3, k4)])
    limit = _literal(bound)
    loop += ["if not (%s):" % " and ".join("abs(%s) <= %s" % (v, limit) for v in y),
             "    return True", "_store(%s)" % tuple_of(y)]
    source = _source("_run", ("_out", "_steps"), body + indent(loop))
    if len(source) > MAX_KERNEL_SOURCE:
        raise ValueError(
            "a step kernel of %d blocks needs %d characters of source, above the "
            "budget of %d; use fewer sub-predictors" % (blocks, len(source), MAX_KERNEL_SOURCE)
        )
    return _define("_run", source)
