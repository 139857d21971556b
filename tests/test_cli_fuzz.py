"""An argv fuzz over the command grammar, run in-process through run_command.

The argv come from the parser's own tables: _COMMANDS gives each subcommand's
positionals and options, _OPTIONS every option, and _KIND_READS (with
_KIND_ARGS) what each eigencheck kind reads; now and then one option from
outside the row rides along.  Every draw must keep the CLI contract: one JSON
line on stdout, exit 0, 1 or 2, exit 1 only with a fail or negative verdict,
exit 0 from positivity or eigencheck only for a nonzero functional (and
nonzero positivity witnesses), and the same bytes and status on a rerun.

The work is bounded, not the kinds of input: orders up to 3, at most two
pairs, degrees up to 2, axiom suites only at degree 1 and order up to 2,
expressions at most three nodes deep (atoms included) with exponents up to 3.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from starforge import PhaseContext
from starforge.cli_frontend import (_COMMANDS, _KIND_ARGS, _KIND_READS, _OPTIONS,
                                    _make_parser, lower_expression, parse_expression,
                                    parse_functional, run_command)

SCALAR_ATOMS = st.sampled_from(("0", "1", "2", "1/2", "2/3", "I", "lam"))
ATOMS = st.one_of(
    SCALAR_ATOMS,
    st.sampled_from(("q", "p", "q1", "p1", "q2", "p2", "x")),
    st.sampled_from(("0", "1/2", "1", "2")).map("gauss({})".format))


def expressions(depth=3, atoms=ATOMS):
    """Expression text at most depth nodes deep, atoms included."""
    if depth == 1:
        return atoms
    sub = expressions(depth - 1, atoms)
    return st.one_of(
        sub,
        st.builds("-({})".format, sub),      # a leading - starts an operand
        st.builds("({}) {} ({})".format, sub, st.sampled_from("+-*"), sub),
        st.builds("({})^{}".format, sub, st.integers(-3, 3)))


FUNCTIONAL_ATOMS = st.one_of(
    st.sampled_from(("delta()", "delta(0,0)", "delta(1,-1/2)", "delta(0,0,0,0)",
                     "wigner(0)", "wigner(1)", "wigner(2)")),
    st.builds("density({})".format, expressions(2)))

SCALARS = expressions(2, SCALAR_ATOMS)

# a functional argument: an atom, a sum of two, an atom times a scalar, or
# an atom with a plain expression (to reach the lowering errors)
FUNCTIONALS = st.one_of(
    FUNCTIONAL_ATOMS,
    st.builds("({}) {} ({})".format, FUNCTIONAL_ATOMS, st.sampled_from("+-"),
              FUNCTIONAL_ATOMS),
    st.builds("({}) * ({})".format, SCALARS, FUNCTIONAL_ATOMS),
    st.builds("({}) {} ({})".format, FUNCTIONAL_ATOMS, st.sampled_from("+-*"),
              expressions(2)))

# the values each option takes; a repeated value is drawn more often
VALUES = {
    "--pairs": ("1", "2", "1", "2", "0"),
    "--order": ("-1", "0", "1", "2", "3"),
    "--lambda": ("1", "1/2", "2", "1/3", "3", "0", "1/0", "-1/2"),
    "--product": ("moyal", "bullet"),
    "--degree": ("-1", "0", "1", "2"),
    "--kind": ("classical", "bullet", "star"),
    "--point": ("1,0", "0,0", "1/2,-1", "-1,0", "1", "1,0,0,0", "a,b"),
    "--test-degree": ("-1", "0", "1", "2"),
}
# axiom suites grow fast in degree and order, so they always name small ones
AXIOM_CAPS = {"--degree": ("0", "1"), "--order": ("0", "1", "2")}
assert set(VALUES) | {"--json"} == set(_OPTIONS)


def _rarely(draw):
    # one draw in sixteen (st.integers would favour its bounds)
    return draw(st.sampled_from((False,) * 15 + (True,)))


def _option(draw, flag, name):
    if flag == "--json":
        return [flag]
    choices = AXIOM_CAPS.get(flag, VALUES[flag]) if name == "axioms" else VALUES[flag]
    # now and then a value no option takes
    return [flag, "x" if _rarely(draw) else draw(st.sampled_from(choices))]


@st.composite
def argvs(draw):
    name, positionals, options = draw(st.sampled_from(_COMMANDS))
    options = list(options) + ["--json"]
    argv = [name]
    reads = None
    if name == "eigencheck":
        kind = draw(st.sampled_from(sorted(_KIND_READS) + [None]))
        if kind is not None:
            argv += ["--kind", kind]
        reads = _KIND_READS[kind or _OPTIONS["--kind"]["default"]]
        only = dict(_KIND_ARGS)      # the arguments that only some kinds read
        options = [flag for flag in options if flag != "--kind"
                   and (flag not in only or only[flag] in reads)]
    for arg in positionals:
        key = arg.rstrip("?+")
        if arg.endswith("?") and reads is not None and key not in reads:
            continue
        if key == "functional":
            argv.append(draw(FUNCTIONALS))
        elif key == "value":
            argv.append(draw(st.one_of(SCALARS, expressions())))
        elif arg.endswith("+"):
            argv += draw(st.lists(expressions(), min_size=1, max_size=2))
        else:
            argv.append(draw(expressions()))
    chosen = draw(st.lists(st.sampled_from(options), unique=True)) if options else []
    if name == "axioms":
        chosen = ["--degree", "--order"] + [f for f in chosen if f not in AXIOM_CAPS]
    for flag in chosen:
        argv += _option(draw, flag, name)
    # now and then an option the row (or the kind) does not read
    if _rarely(draw):
        foreign = draw(st.sampled_from(sorted(set(_OPTIONS) - set(options))))
        if foreign not in argv:
            argv += _option(draw, foreign, None)
    return argv


def _certifies_something(argv):
    # a passing positivity or eigencheck holds of a nonzero functional, and a
    # positivity pass of nonzero witnesses only: the zero ones pass vacuously
    args = _make_parser().parse_args(argv)
    if getattr(args, "functional", None) is None:
        return True
    ctx = PhaseContext(args.pairs)
    witnesses = getattr(args, "witnesses", ())
    return bool(parse_functional(args.functional, ctx)) and all(
        lower_expression(parse_expression(w), ctx) for w in witnesses)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run_command(list(argv))
    return result.status, out.getvalue()


@settings(max_examples=200)
@given(argvs())
# a fail verdict that the full report must state too, not only by exit 1
@example(["axioms", "--degree", "1", "--order", "1", "--product", "bullet", "--json"])
# a commutator taken from the odd operator orders alone, cut with a tail
@example(["commutator", "q*gauss(1)", "gauss(1)", "--order", "3"])
# a zero functional or witness, which would pass vacuously
@example(["eigencheck", "q", "0", "0*delta(0,0)"])
@example(["eigencheck", "1", "1", "delta(0,0)-delta(0,0)"])
@example(["positivity", "delta(0,0)", "0"])
@example(["positivity", "0*delta(0,0)", "q"])
# a density with a zero profile, which is the zero functional
@example(["positivity", "density(0)", "q"])
@example(["positivity", "density(0*gauss(1))", "1"])
@example(["eigencheck", "q", "7", "density(0)"])
@example(["eigencheck", "q", "7", "density(q-q)"])
def test_every_drawn_argv_keeps_the_cli_contract(argv):
    status, out = _run(argv)
    assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
    payload = json.loads(out)
    assert status in (0, 1, 2), (argv, out)
    if status == 1:
        assert payload.get("verdict") in ("fail", "negative"), (argv, out)
    if status == 2:
        assert set(payload) == {"error"}, (argv, out)
    if status == 0:
        assert _certifies_something(argv), (argv, out)
    assert _run(argv) == (status, out), argv
