"""The starforge command line.

Expressions come in as a tiny exact language (rationals, I, lam, coordinates,
gauss(alpha)); commands route them through the engine and print canonical
JSON.  Exit status: 0 for success/Pass, 1 for Fail verdicts, 2 for errors.

grammar:
    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' ['-'] int)?
    atom   := rational | 'I' | 'lam' | coord | 'gauss' '(' rational ')'
            | '(' expr ')'

A Gaussian width must be nonnegative, and parenthesised groups nest at most
MAX_NESTING deep.

Functional arguments (positivity, normalize, eigencheck) extend the atoms
with delta(point...), density(expr), and wigner(level).
"""

import argparse
import json
import operator
import sys
from collections import namedtuple
from fractions import Fraction

from .lambda_scalars import (EngineError, ExactComplex, FormalScalar,
                             LambdaBinding, FORMAL, power, render_scalar,
                             scalar_to_json)
from .phase_functions import PhaseContext, GaussPoly
from .formal_series import (FormalFunction, fs_bullet, fs_integrate,
                            render_function, fs_to_json)
from .star_products import (moyal_family, bullet_family, star_mul,
                            star_commutator, star_trace, axiom_suite)
from .functionals_states import (FormalFunctional, wigner_state,
                                 bind_functional, positivity_check, DEFAULT_SAMPLES,
                                 normalize_functional,
                                 eigencheck_classical, eigencheck_bullet,
                                 eigencheck_star, negative_region)


class ParseError(EngineError):
    def __init__(self, offset, expected, found=""):
        self.offset = offset
        self.expected = expected
        self.found = found
        msg = "at offset %d: expected %s" % (offset, expected)
        if found:
            msg += ", found %r" % found
        super(ParseError, self).__init__(msg)


class UsageError(EngineError):
    """The argv does not fit the command grammar (argparse's usage errors)."""


class _Parser(argparse.ArgumentParser):
    # argparse prints usage to stderr and exits; raise instead, so that
    # run_command reports the error as its one JSON line (-h still exits 0)
    def error(self, message):
        raise UsageError("%s: %s" % (self.prog, message))

    # every option is --long and -h is the only short flag, so any other token
    # with one leading "-" is an operand or a value: "-q", "-1/2", "-1,0"
    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and arg_string != "-h":
            return None
        return super(_Parser, self)._parse_optional(arg_string)


# ============================================================
# Tokens
# ============================================================

NUM = "NUM"
NAME = "NAME"
OP = "OP"
END = "END"

_OPS = "+-*^/(),"


Token = namedtuple("Token", "kind text pos")


def tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(Token(NUM, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token(NAME, text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            toks.append(Token(OP, ch, i))
            i += 1
            continue
        raise ParseError(i, "a token", ch)
    toks.append(Token(END, "", n))
    return toks


# ============================================================
# Parser -> Expr (nested tuples)
# ============================================================

MAX_NESTING = 100


class Parser(object):
    """Recursive descent over the expression grammar.

    Expr nodes: ("num", Fraction), ("i",), ("lam",), ("coord", name),
    ("gauss", Fraction), ("neg", e), ("add"|"sub"|"mul", l, r),
    ("pow", e, int), and for functionals ("delta", point), ("density", e),
    ("wigner", level).
    """

    def __init__(self, text, functional=False):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.depth = 0
        self.functional = functional

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, ch):
        t = self.peek()
        if t.kind != OP or t.text != ch:
            raise ParseError(t.pos, "'%s'" % ch, t.text)
        return self.next()

    def at_op(self, ch):
        t = self.peek()
        return t.kind == OP and t.text == ch

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t.kind != END:
            raise ParseError(t.pos, "end of input", t.text)
        return e

    def expr(self):
        if self.at_op("-"):
            self.next()
            e = ("neg", self.term())
        else:
            e = self.term()
        while True:
            t = self.peek()
            if t.kind == OP and t.text in "+-":
                self.next()
                rhs = self.term()
                e = ("add" if t.text == "+" else "sub", e, rhs)
            else:
                return e

    def term(self):
        e = self.factor()
        while self.at_op("*"):
            self.next()
            e = ("mul", e, self.factor())
        return e

    def factor(self):
        e = self.atom()
        if self.at_op("^"):
            self.next()
            sign = 1
            if self.at_op("-"):
                self.next()
                sign = -1
            t = self.peek()
            if t.kind != NUM:
                raise ParseError(t.pos, "an integer exponent", t.text)
            self.next()
            e = ("pow", e, sign * int(t.text))
        return e

    def rational(self):
        t = self.peek()
        neg = False
        if self.at_op("-"):
            self.next()
            neg = True
            t = self.peek()
        if t.kind != NUM:
            raise ParseError(t.pos, "a rational number", t.text)
        self.next()
        value = Fraction(int(t.text))
        if self.at_op("/"):
            self.next()
            d = self.peek()
            if d.kind != NUM or int(d.text) == 0:
                raise ParseError(d.pos, "a nonzero denominator", d.text)
            self.next()
            value = Fraction(int(t.text), int(d.text))
        return -value if neg else value

    def atom(self):
        t = self.peek()
        if t.kind == NUM:
            # a NUM token, so rational() cannot take a leading "-" here
            return ("num", self.rational())
        if t.kind == NAME:
            self.next()
            if t.text == "I":
                return ("i",)
            if t.text == "lam":
                return ("lam",)
            if t.text == "gauss":
                self.expect_op("(")
                start = self.peek()
                alpha = self.rational()
                if alpha < 0:
                    raise ParseError(start.pos, "a nonnegative Gaussian width",
                                     str(alpha))
                self.expect_op(")")
                return ("gauss", alpha)
            if self.functional and t.text == "delta":
                self.expect_op("(")
                point = []
                if not self.at_op(")"):
                    point.append(self.rational())
                    while self.at_op(","):
                        self.next()
                        point.append(self.rational())
                self.expect_op(")")
                return ("delta", tuple(point))
            if self.functional and t.text == "density":
                return ("density", self.group())
            if self.functional and t.text == "wigner":
                self.expect_op("(")
                lvl = self.peek()
                if lvl.kind != NUM:
                    raise ParseError(lvl.pos, "a level", lvl.text)
                self.next()
                self.expect_op(")")
                return ("wigner", int(lvl.text))
            return ("coord", t.text)
        if t.kind == OP and t.text == "(":
            return self.group()
        raise ParseError(t.pos, "an atom", t.text)

    def group(self):
        """'(' expr ')', at most MAX_NESTING deep so recursion stays bounded."""
        t = self.expect_op("(")
        if self.depth == MAX_NESTING:
            raise ParseError(t.pos, "at most %d nested groups" % MAX_NESTING, "(")
        self.depth += 1
        e = self.expr()
        self.depth -= 1
        self.expect_op(")")
        return e


def parse_expression(text, functional=False):
    """Text -> Expr; the phase-space context only enters at lowering time."""
    return Parser(text, functional).parse()


# ============================================================
# Lowering
# ============================================================

def _const_fn(ctx, c, power=0):
    return FormalFunction.of(GaussPoly.constant(ctx, c), power)


_ARITH = {"add": operator.add, "sub": operator.sub, "mul": fs_bullet}


def lower_expression(e, ctx):
    """Expr -> FormalFunction (pointwise semantics; lam is the grading)."""
    return _lower(e, ctx, False)


def lower_functional(e, ctx):
    """Expr -> FormalFunctional or FormalFunction, with scalars folded in."""
    return _lower(e, ctx, True)


def _lower(e, ctx, functional):
    """The one walk behind both entry points; delta, density and wigner are
    refused unless functional.  Long chains parse left-deep, so the left
    spine of +, - and * is walked in a loop; only right operands and the
    operands of neg, pow and density recurse, and the parser bounds those."""
    spine = []
    while e[0] in _ARITH:
        spine.append(e)
        e = e[1]
    kind = e[0]
    if kind == "num":
        out = _const_fn(ctx, e[1])
    elif kind == "i":
        out = _const_fn(ctx, ExactComplex(0, 1))
    elif kind == "lam":
        out = _const_fn(ctx, 1, power=1)
    elif kind == "coord":
        out = FormalFunction.of(GaussPoly.coordinate(ctx, e[1]), 0)
    elif kind == "gauss":
        out = FormalFunction.of(GaussPoly.gaussian(ctx, e[1]), 0)
    elif kind == "neg":
        out = -_lower(e[1], ctx, functional)
    elif kind == "pow":
        out = _lower(e[1], ctx, functional)
        if isinstance(out, FormalFunctional):
            raise EngineError("functionals cannot be raised to powers")
        if e[2] < 0:
            out = _invert_monomial(out)
        out = power(out, abs(e[2]), FormalFunction.one(ctx), fs_bullet)
    elif not functional:
        raise EngineError("functional atoms are not allowed in a plain expression")
    elif kind == "delta":
        out = FormalFunctional.delta(ctx, e[1] or (0,) * ctx.dim)
    elif kind == "density":
        inner = _lower(e[1], ctx, False)
        if not _lam_free(inner):
            raise EngineError("density(...) takes a single lam-free profile")
        out = FormalFunctional.density(ctx, inner.coefficient(0))
    else:
        out = wigner_state(ctx, e[1])
    for kind, _, right in reversed(spine):
        out = _combine_lowered(kind, out, _lower(right, ctx, functional))
    return out


def _invert_monomial(F):
    # invertible means a single lam-power whose coefficient is a nonzero constant
    a = function_to_scalar(F)
    if a is None or a.tail is not None or len(a.coeffs) != 1:
        raise EngineError("negative powers need an invertible lam-monomial base")
    return _const_fn(F.ctx, a.coeffs[0].reciprocal(), power=-a.valuation)


def function_to_scalar(F):
    """FormalFunction -> FormalScalar when coordinate-free, else None."""
    vals = []
    zero_exps = (0,) * F.ctx.dim
    for gs in F.coeffs:
        if not gs.parts:
            vals.append(ExactComplex(0))
            continue
        if len(gs.parts) != 1:
            return None
        part = gs.parts[0]
        if part.alpha != 0 or set(part.terms) - {zero_exps}:
            return None
        vals.append(part.terms.get(zero_exps, ExactComplex(0)))
    return FormalScalar(F.valuation, vals, F.tail)


def _combine_lowered(kind, left, right):
    """Combine two lowered operands under +, - or *; a functional adds only
    to a functional and is scaled only by a lam-scalar."""
    lf, rf = isinstance(left, FormalFunctional), isinstance(right, FormalFunctional)
    if kind != "mul" or not (lf or rf):
        if lf != rf:
            raise EngineError("cannot add a functional to a plain function")
        return _ARITH[kind](left, right)
    if lf and rf:
        raise EngineError("cannot multiply two functionals here")
    func, other = (left, right) if lf else (right, left)
    scal = function_to_scalar(other)
    if scal is None:
        raise EngineError("functionals can only be scaled by lam-scalars here")
    return func.scale_by_scalar(scal)


def parse_functional(text, ctx):
    T = lower_functional(parse_expression(text, functional=True), ctx)
    if not isinstance(T, FormalFunctional):
        raise EngineError("expected a functional (delta/density/wigner term)")
    return T


# ============================================================
# Commands
# ============================================================

CommandResult = namedtuple("CommandResult", "command payload status")


def _emit(payload):
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _scalar_payload(value, full):
    if not full:
        return {"result": render_scalar(value)}
    return {"result": render_scalar(value), "series": scalar_to_json(value)}


def _verdict(report, full, verdict, passed, **detail):
    """A check's payload and exit status: the full report under --json, else
    the verdict plus each detail that is present; only a failed check exits 1."""
    if full:
        payload = report.to_json()
    else:
        payload = {"verdict": verdict}
        payload.update((key, value) for key, value in detail.items() if value)
    return payload, 0 if passed else 1


# An option without a default is None when absent, so _dispatch can tell which
# of eigencheck's options were given.
_OPTIONS = {
    "--pairs": dict(type=int, default=1, metavar="N",
                    help="number of coordinate pairs (default 1)"),
    "--order": dict(type=int, metavar="K", help="lam truncation order"),
    "--lambda": dict(dest="lam", metavar="R", help="strict lambda value (exact rational)"),
    "--product": dict(choices=("moyal", "bullet"), help="star family (default moyal)"),
    "--degree": dict(type=int, default=3, help="generator degree bound (default 3)"),
    "--kind": dict(choices=("classical", "bullet", "star"), default="star"),
    "--point": dict(metavar="R,R", help="evaluation point for --kind classical"),
    "--test-degree": dict(type=int, help="witness monomial degree bound (default 2)"),
    "--json": dict(dest="full", action="store_true", help="emit the full report payload"),
}

# (subcommand, positionals, the options _dispatch reads beyond --json);
# a trailing ? or + is argparse's nargs.  README's "Command line" lists the rows.
_COMMANDS = (
    ("star", ("left", "right"), ("--pairs", "--order")),
    ("bullet", ("left", "right"), ("--pairs",)),
    ("commutator", ("left", "right"), ("--pairs", "--order")),
    ("trace", ("operand",), ("--pairs",)),
    ("integrate", ("operand",), ("--pairs",)),
    ("region", ("operand",), ("--lambda",)),
    ("axioms", (), ("--pairs", "--order", "--product", "--degree")),
    ("positivity", ("functional", "witnesses+"), ("--pairs", "--lambda", "--product")),
    ("normalize", ("functional",), ("--pairs", "--order", "--lambda")),
    ("eigencheck", ("xi", "value", "functional?"),
     ("--pairs", "--kind", "--lambda", "--point", "--test-degree")),
)

_ORDER_DEFAULTS = {"axioms": 4, "normalize": 6}

# the eigencheck arguments that only some kinds read, and what each kind reads
_KIND_ARGS = (("--point", "point"), ("--lambda", "lam"), ("--test-degree", "test_degree"),
              ("functional", "functional"))
_KIND_READS = {"classical": {"point"},
               "bullet": {"lam", "test_degree", "functional"},
               "star": {"lam", "test_degree", "functional"}}


def _make_parser():
    top = _Parser(prog="starforge", description="exact deformation-quantization toolkit")
    sub = top.add_subparsers(dest="command", required=True)
    for name, positionals, options in _COMMANDS:
        p = sub.add_parser(name)
        for arg in positionals:
            p.add_argument(arg.rstrip("?+"), nargs=arg[-1] if arg[-1] in "?+" else None)
        for flag in options + ("--json",):
            spec = _OPTIONS[flag]
            if flag == "--order" and name in _ORDER_DEFAULTS:
                spec = dict(spec, default=_ORDER_DEFAULTS[name],
                            help="lam truncation order (default %(default)s)")
            p.add_argument(flag, **spec)
    return top


def run_command(argv):
    """Parse argv, run the engine, print one canonical JSON line."""
    args = None
    try:
        args = _make_parser().parse_args(argv)
        payload, status = _dispatch(args)
    except EngineError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if isinstance(exc, ParseError):
            payload["error"]["offset"] = exc.offset
            payload["error"]["expected"] = exc.expected
        _emit(payload)
        return CommandResult(args and args.command, payload, 2)
    _emit(payload)
    return CommandResult(args.command, payload, status)


def _dispatch(args):
    cmd = args.command
    if cmd == "eigencheck":
        for name, dest in _KIND_ARGS:
            if getattr(args, dest) is not None and dest not in _KIND_READS[args.kind]:
                raise UsageError("starforge eigencheck: --kind %s takes no %s" % (args.kind, name))
    try:
        ctx = PhaseContext(getattr(args, "pairs", 1))
    except ValueError as exc:
        raise EngineError(str(exc))
    binding = FORMAL        # also for the subcommands that take no --lambda
    if getattr(args, "lam", None) is not None:
        try:
            binding = LambdaBinding.strict(Fraction(args.lam))
        except (ValueError, ZeroDivisionError) as exc:
            raise EngineError("bad --lambda value: %s" % exc)
    family = getattr(args, "product", None) or cmd
    fam = bullet_family(ctx) if family == "bullet" else moyal_family(ctx)

    def fn(text):
        return lower_expression(parse_expression(text), ctx)

    def functional(text):
        # positivity and normalize bind --lambda here; eigencheck binds in the library
        return bind_functional(parse_functional(text, ctx), binding)

    if cmd in ("star", "bullet", "commutator"):
        product = star_commutator if cmd == "commutator" else star_mul
        # bullet takes no --order: the pointwise product always terminates
        out = product(fam, fn(args.left), fn(args.right), getattr(args, "order", None))
        payload = {"result": render_function(out)}
        if args.full:
            payload["series"] = fs_to_json(out)
        return payload, 0

    if cmd in ("trace", "integrate"):
        F = fn(args.operand)
        out = star_trace(fam, F) if cmd == "trace" else fs_integrate(F)
        return _scalar_payload(out, args.full), 0

    if cmd == "region":
        report = negative_region(fn(args.operand), binding)
        if args.full:
            return report.to_json(), 0
        return {"area": report.area_str, "min": report.min_value_str}, 0

    if cmd == "axioms":
        report = axiom_suite(fam, args.degree, args.order)
        failed = sorted(k for k, e in report.entries.items() if e["verdict"] == "fail")
        return _verdict(report, args.full, report.verdict, report.passed,
                        failed_axioms=failed)

    if cmd == "positivity":
        T = functional(args.functional)
        wits = [fn(w) for w in args.witnesses]
        samples = (binding.value,) if binding.is_strict else DEFAULT_SAMPLES
        report = positivity_check(fam, T, wits, lambda_samples=samples)
        return _verdict(report, args.full, report.verdict, report.verdict != "negative",
                        negativity=report.negativity)

    if cmd == "normalize":
        A, T = normalize_functional(fam, functional(args.functional), args.order)
        payload = {"normalizer": render_scalar(A)}
        if args.full:
            payload["functional"] = T.to_json()
        return payload, 0

    # eigencheck
    test_degree = 2 if args.test_degree is None else args.test_degree
    xi = fn(args.xi)
    a = function_to_scalar(fn(args.value))
    if a is None:
        raise EngineError("the genvalue must be a lam-scalar expression")
    if args.kind == "classical":
        if args.point is None:
            raise EngineError("--kind classical needs --point r,r")
        try:
            point = tuple(Fraction(x) for x in args.point.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise EngineError("bad --point value: %s" % exc)
        if not _lam_free(xi):
            raise EngineError("classical checks take a lam-free expression")
        if not _lam_free(a):
            raise EngineError("classical genvalues are plain rationals")
        report = eigencheck_classical(xi.coefficient(0), a.coefficient(0), point)
    elif args.functional is None:
        raise EngineError("eigencheck needs a functional argument")
    elif args.kind == "bullet":
        report = eigencheck_bullet(xi, a, parse_functional(args.functional, ctx),
                                   test_degree, binding=binding)
    else:
        report = eigencheck_star(fam, xi, a, parse_functional(args.functional, ctx),
                                 test_degree, binding=binding)
    return _verdict(report, args.full, report.verdict, report.passed,
                    first_failure=report.first_failure)


def _lam_free(x):
    # zero counts: it has no lam-power at all
    return not x.coeffs or (x.valuation == 0 and len(x.coeffs) == 1)


def main():
    result = run_command(sys.argv[1:])
    sys.exit(result.status)


if __name__ == "__main__":
    main()
