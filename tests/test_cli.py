"""Command-line frontend: parse trees, frozen outputs, exit codes.

Every stdout assertion here is byte-exact against the canonical JSON line the
CLI prints (json.dumps with sort_keys=True), so any drift in rendering or
payload shape shows up as a diff, not just a semantic mismatch.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import wire
from starforge.cli_frontend import ParseError, parse_expression, run_command


def go(capsys, *argv):
    """Run one CLI invocation in-process; return (CommandResult, stdout)."""
    res = run_command(list(argv))
    out = capsys.readouterr().out
    return res, out


# ============================================================
# Expression grammar: parse trees
# ============================================================

COORDS = ("q", "p", "q1", "p1", "q2", "p2")


def rand_tree(rng, depth):
    # Mirror the node shapes the parser itself can produce: "num" payloads
    # stay nonnegative (a leading minus parses as a "neg" node instead).
    kinds = ["num", "i", "lam", "coord", "gauss"]
    if depth > 0:
        kinds += ["neg", "add", "sub", "mul", "pow"] * 2
    k = rng.choice(kinds)
    if k == "num":
        return ("num", Fraction(rng.randrange(0, 8), rng.randrange(1, 5)))
    if k == "i":
        return ("i",)
    if k == "lam":
        return ("lam",)
    if k == "coord":
        return ("coord", rng.choice(COORDS))
    if k == "gauss":
        return ("gauss", Fraction(rng.randrange(1, 5), rng.randrange(1, 4)))
    if k == "neg":
        return ("neg", rand_tree(rng, depth - 1))
    if k == "pow":
        return ("pow", rand_tree(rng, depth - 1), rng.randrange(-3, 4))
    return (k, rand_tree(rng, depth - 1), rand_tree(rng, depth - 1))


_OPS = {"add": "+", "sub": "-", "mul": "*"}


def render(e):
    # the tests' own printer and oracle: every compound node in brackets, so
    # reparsing the text pins the tree without leaning on precedence
    kind = e[0]
    if kind in _OPS:
        return "(%s %s %s)" % (render(e[1]), _OPS[kind], render(e[2]))
    if kind == "neg":
        return "(-%s)" % render(e[1])
    if kind == "pow":
        return "(%s^%d)" % (render(e[1]), e[2])
    if kind == "density":
        return "density(%s)" % render(e[1])
    if kind == "delta":
        return "delta(%s)" % ", ".join(str(x) for x in e[1])
    if kind in ("gauss", "wigner"):
        return "%s(%s)" % (kind, e[1])
    if kind in ("i", "lam"):
        return "I" if kind == "i" else "lam"
    return str(e[1])  # a number or a coordinate


def test_random_trees_survive_render_then_parse(rng):
    for _ in range(50):
        tree = rand_tree(rng, depth=3)
        text = render(tree)
        assert parse_expression(text) == tree, text


def test_render_is_a_canonical_form():
    # the bracketed text reparses to the same tree, even for inputs whose
    # parentheses carry value (q - (p - q) != q - p - q)
    for text in ["q - (p - q)", "-(q + p)", "q*(p*q)", "-(-q)",
                 "q + (p - 1)", "2*q^2 - 1/3*p", "gauss(1/2)^2 * (q + p)",
                 "(q + p)^2", "q - (-p)", "lam^-2 * I", "- q * p + 0/7"]:
        tree = parse_expression(text)
        assert parse_expression(render(tree)) == tree


@pytest.mark.parametrize("text,canonical", [
    ("q+p", "q + p"),
    (" 2 * q ", "2*q"),
    ("-(q+p)", "-(q + p)"),
    ("q^2*p", "q^2*p"),
    ("4/2", "2"),
    ("lam ^ -1", "lam^-1"),
])
def test_canonical_spellings(text, canonical):
    # spacing and an unreduced fraction do not reach the tree
    assert parse_expression(text) == parse_expression(canonical)


Q, P, ONE = ("coord", "q"), ("coord", "p"), ("num", Fraction(1))


@pytest.mark.parametrize("text,tree", [
    # +, - and * chains associate to the left; brackets keep their value
    ("q - p - 1", ("sub", ("sub", Q, P), ONE)),
    ("q - p + 1", ("add", ("sub", Q, P), ONE)),
    ("q - (p - q)", ("sub", Q, ("sub", P, Q))),
    ("q - (-p)", ("sub", Q, ("neg", P))),
    ("q*(p*q)", ("mul", Q, ("mul", P, Q))),
    ("2*q^2 - 1/3*p", ("sub", ("mul", ("num", Fraction(2)), ("pow", Q, 2)),
                       ("mul", ("num", Fraction(1, 3)), P))),
    # a unary minus takes the first term, not the whole sum
    ("- q * p + 0/7", ("add", ("neg", ("mul", Q, P)), ("num", Fraction(0)))),
    ("-q^2", ("neg", ("pow", Q, 2))),
    ("-(q+p)", ("neg", ("add", Q, P))),
    ("-(-q)", ("neg", ("neg", Q))),
    ("lam ^ -1", ("pow", ("lam",), -1)),
    ("lam^-2 * I", ("mul", ("pow", ("lam",), -2), ("i",))),
    ("4/2", ("num", Fraction(2))),
    # groups nest without leaving a node of their own
    ("((q))", Q),
    ("(q + p)^2", ("pow", ("add", Q, P), 2)),
    ("gauss(1/2)^2 * ((q + (p - 1)))", ("mul", ("pow", ("gauss", Fraction(1, 2)), 2),
                                       ("add", Q, ("sub", P, ONE)))),
])
def test_parse_trees(text, tree):
    assert parse_expression(text) == tree


def test_functional_atoms_round_trip():
    for text, tree in [
        ("delta(1/2, -1)", ("delta", (Fraction(1, 2), Fraction(-1)))),
        ("delta()", ("delta", ())),
        ("density(q^2 * gauss(1))", ("density", ("mul", ("pow", Q, 2), ("gauss", Fraction(1))))),
        ("wigner(3)", ("wigner", 3)),
        ("2*delta(0,0) - density((q))", ("sub", ("mul", ("num", Fraction(2)),
                                                 ("delta", (Fraction(0), Fraction(0)))),
                                          ("density", Q))),
    ]:
        assert parse_expression(text, functional=True) == tree
        assert parse_expression(render(tree), functional=True) == tree


def test_functional_atoms_are_rejected_outside_functional_mode():
    # Without the flag, "delta" is just an unknown coordinate name followed
    # by "(", which the grammar cannot accept.
    with pytest.raises(ParseError):
        parse_expression("delta(0,0)")


@pytest.mark.parametrize("text,offset,expected", [
    ("q +* p", 3, "an atom"),
    ("q +", 3, "an atom"),
    ("(q", 2, "')'"),
    ("q p", 2, "end of input"),
    ("gauss(x)", 6, "a rational number"),
    ("q^x", 2, "an integer exponent"),
    ("1/0", 2, "a nonzero denominator"),
    ("q $ p", 2, "a token"),
    ("q^²", 2, "a token"),
    ("٣ * p", 0, "a token"),
])
def test_parse_errors_carry_offset_and_expectation(text, offset, expected):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert err.value.offset == offset
    assert err.value.expected == expected


def test_functional_lowering_returns_values_not_tags():
    from starforge import FormalFunction, FormalFunctional, PhaseContext
    from starforge.cli_frontend import lower_functional, parse_functional

    ctx = PhaseContext(1)
    T = lower_functional(parse_expression("lam * delta(0,0)", functional=True), ctx)
    assert isinstance(T, FormalFunctional) and T.valuation == 1
    F = lower_functional(parse_expression("q^2", functional=True), ctx)
    assert isinstance(F, FormalFunction)
    assert parse_functional("delta(0,0) * 2", ctx) == FormalFunctional.delta(ctx).rescale(2)


# ============================================================
# Frozen command outputs (stdout is byte-exact, one JSON line)
# ============================================================

FROZEN = [
    # (argv, exit status, exact stdout line)
    (("commutator", "q", "p"), 0, '{"result": "I*lam"}'),
    (("star", "q", "p"), 0, '{"result": "q*p + 1/2*I*lam"}'),
    (("star", "q^2", "p^2"), 0,
     '{"result": "q^2*p^2 + 2*I*q*p*lam - 1/2*lam^2"}'),
    (("bullet", "q + lam*p", "q - lam*p"), 0, '{"result": "q^2 - p^2*lam^2"}'),
    (("trace", "gauss(1)"), 0, '{"result": "pi*lam^-1"}'),
    (("integrate", "q^2 * gauss(1)"), 0, '{"result": "1/2*pi"}'),
    (("star", "gauss(1)", "gauss(1)", "--order", "2"), 0,
     '{"result": "exp(-2*r^2) + ((-1 + 2*q^2 + 2*p^2)*exp(-2*r^2))*lam^2'
     ' + O(lam^3)"}'),
    (("normalize", "delta(0,0)"), 0, '{"normalizer": "lam"}'),
    (("normalize", "density(gauss(1))", "--order", "4"), 0,
     '{"normalizer": "1/pi*lam"}'),
    (("eigencheck", "1/2 * (q^2 + p^2)", "1/2 * lam", "density(gauss(1))",
      "--lambda", "1"), 0, '{"verdict": "pass"}'),
    (("eigencheck", "q", "1", "--kind", "classical", "--point", "1,0"), 0,
     '{"verdict": "pass"}'),
    (("eigencheck", "q", "1", "delta(1,0)", "--kind", "bullet"), 0,
     '{"verdict": "pass"}'),
    (("region", "q + I*p"), 0, '{"area": "pi*lam", "min": "-lam"}'),
    (("region", "(q - 1) + 2*I*(p + 1/2)", "--lambda", "1/3"), 0,
     '{"area": "pi*1/3", "min": "-2/3"}'),
    (("axioms", "--degree", "1", "--order", "2"), 0, '{"verdict": "pass"}'),
    # Fail verdicts exit 1.
    (("positivity", "delta(0,0)", "q + I*p"), 1,
     '{"negativity": {"lambda": "1/10", "value": "-1", "witness": "q + I*p"},'
     ' "verdict": "negative"}'),
    (("axioms", "--product", "bullet", "--order", "2", "--degree", "1"), 1,
     '{"failed_axioms": [6], "verdict": "fail"}'),
    # Engine and parse errors exit 2.
    (("star", "gauss(1)", "gauss(1)"), 2,
     '{"error": {"message": "star product does not terminate here;'
     ' pass a truncation order", "type": "TruncationRequired"}}'),
    (("star", "q +* p", "p"), 2,
     '{"error": {"expected": "an atom", "message": "at offset 3: expected an'
     ' atom, found \'*\'", "offset": 3, "type": "ParseError"}}'),
    (("star", "1/0", "p"), 2,
     '{"error": {"expected": "a nonzero denominator", "message": "at offset'
     ' 2: expected a nonzero denominator, found \'0\'", "offset": 2,'
     ' "type": "ParseError"}}'),
    (("star", "q2", "p"), 2,
     '{"error": {"message": "unknown coordinate \'q2\'",'
     ' "type": "UnknownCoordinate"}}'),
    (("integrate", "q"), 2,
     '{"error": {"message": "coefficient of lam^0 is not integrable: a'
     ' nonzero polynomial is not summable over phase space",'
     ' "type": "NotIntegrable"}}'),
    (("region", "q + I*p", "--lambda", "0"), 2,
     '{"error": {"message": "bad --lambda value: strict lambda must be'
     ' positive", "type": "EngineError"}}'),
    (("star", "q", "p", "--pairs", "0"), 2,
     '{"error": {"message": "need a positive number of canonical pairs",'
     ' "type": "EngineError"}}'),
    (("eigencheck", "q", "1", "--kind", "bullet"), 2,
     '{"error": {"message": "eigencheck needs a functional argument",'
     ' "type": "EngineError"}}'),
]


@pytest.mark.parametrize("argv,status,line", FROZEN,
                         ids=[" ".join(c[0])[:48] for c in FROZEN])
def test_frozen_output(capsys, argv, status, line):
    res, out = go(capsys, *argv)
    assert out == line + "\n"
    assert res.status == status


def test_second_pair_commutators(capsys):
    res, out = go(capsys, "commutator", "q2", "p2", "--pairs", "2")
    assert (res.status, out) == (0, '{"result": "I*lam"}\n')
    res, out = go(capsys, "commutator", "q1", "p2", "--pairs", "2")
    assert (res.status, out) == (0, '{"result": "0"}\n')


def test_output_is_deterministic(capsys):
    first = go(capsys, "star", "q^2", "p^2")[1]
    second = go(capsys, "star", "q^2", "p^2")[1]
    assert first == second


# ============================================================
# --json payloads
# ============================================================

def test_commutator_full_series_payload(capsys):
    res, out = go(capsys, "commutator", "q", "p", "--json")
    assert out == ('{"result": "I*lam", "series": {"coeffs": [[{"alpha":'
                   ' [0, 1], "terms": [{"coeff": [0, 1, 1, 1], "exps":'
                   ' [0, 0]}]}]], "tail": "exact", "valuation": 1}}\n')
    assert res.status == 0


def test_region_full_payload(capsys):
    res, out = go(capsys, "region", "q + I*p", "--json")
    assert out == ('{"area": "pi*lam", "center": ["0", "0"], "min": "-lam",'
                   ' "semi_axes_squared": ["lam", "lam"], "verified":'
                   ' true}\n')
    assert res.status == 0


def test_trace_json_degrades_for_pi_valued_scalars(capsys):
    # Traces carry pi coefficients; the series slot writes each one in its own
    # wire form (a PiScalar as num/den over pi), not null, and reads back
    res, out = go(capsys, "trace", "gauss(1)", "--json")
    pi = {"num": [[0, 1, 0, 1], [1, 1, 0, 1]], "den": [[1, 1, 0, 1]]}
    series = {"valuation": -1, "coeffs": [pi], "tail": "exact"}
    assert json.loads(out) == {"result": "pi*lam^-1", "series": series}
    assert res.status == 0
    one = (Fraction(1), Fraction(0))
    assert wire.scalar_series(series) == (-1, [{"num": [wire.ZERO, one], "den": [one]}], None)
    # a zero integral has the same shape, with no coefficients
    res, out = go(capsys, "integrate", "q*gauss(1)", "--json")
    assert json.loads(out) == {"result": "0", "series": {
        "valuation": 0, "coeffs": [], "tail": "exact"}}


def test_axioms_full_report(capsys):
    res, out = go(capsys, "axioms", "--degree", "1", "--order", "2", "--json")
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [e["axiom"] for e in payload["axioms"]] == list(range(1, 10))
    assert all(e["verdict"] in ("pass", "by_construction")
               for e in payload["axioms"])
    assert res.status == 0


def test_eigencheck_classical_full_report(capsys):
    res, out = go(capsys, "eigencheck", "q", "1", "--kind", "classical",
                  "--point", "1,0", "--json")
    assert out == ('{"commutation_residuals": [], "first_failure": null,'
                   ' "kind": "classical", "residuals":'
                   ' [{"residual": "0", "witness": "1"}], "test_degree": 0,'
                   ' "verdict": "pass"}\n')
    assert res.status == 0


# ============================================================
# Process-level entry points
# ============================================================

def _run_proc(argv):
    # the child imports the starforge this suite imported, from any caller
    import starforge

    src = os.path.dirname(os.path.dirname(os.path.abspath(starforge.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)


def test_module_entry_point():
    proc = _run_proc([sys.executable, "-m", "starforge",
                      "commutator", "q", "p"])
    assert proc.returncode == 0
    assert proc.stdout == '{"result": "I*lam"}\n'


def test_console_script():
    exe = shutil.which("starforge")
    assert exe, "console script should be installed with the package"
    proc = _run_proc([exe, "positivity", "delta(0,0)", "q + I*p"])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["verdict"] == "negative"


def test_exit_codes_cover_the_contract():
    # 0 = success / pass verdict, 1 = fail verdict, 2 = error.
    by_status = {0: ["star", "q", "p"],
                 1: ["axioms", "--product", "bullet",
                     "--order", "1", "--degree", "1"],
                 2: ["star", "q +* p", "p"]}
    for want, argv in by_status.items():
        proc = _run_proc([sys.executable, "-m", "starforge"] + argv)
        assert proc.returncode == want, (argv, proc.stdout, proc.stderr)


_HUGE_POWER = ('{"result": "q^99999999999999999999*p'
               ' + 99999999999999999999/2*I*q^99999999999999999998*lam"}\n')


# every option is --long, so a token with one leading "-" other than -h is an
# operand or a value; these run in a child process to pin the argv reading
@pytest.mark.parametrize("argv,status,line", [
    (["star", "-q", "p"], 0, '{"result": "-q*p - 1/2*I*lam"}\n'),
    (["star", "-(q)", "p"], 0, '{"result": "-q*p - 1/2*I*lam"}\n'),
    (["positivity", "delta(0,0)", "-q"], 0, '{"verdict": "positive_on_samples"}\n'),
    (["eigencheck", "q", "1", "--kind", "classical", "--point", "-1,0"], 1,
     '{"first_failure": {"residual": "-2", "witness": "1"}, "verdict": "fail"}\n'),
    (["normalize", "delta(0,0)", "--lambda", "-1/2"], 2,
     '{"error": {"message": "bad --lambda value: strict lambda must be positive",'
     ' "type": "EngineError"}}\n'),
    (["star", "-x", "p"], 2,
     '{"error": {"message": "unknown coordinate \'x\'", "type": "UnknownCoordinate"}}\n'),
    # a power is computed by repeated squaring, so a huge exponent finishes
    (["star", "q^99999999999999999999", "p"], 0, _HUGE_POWER),
])
def test_a_leading_minus_starts_an_operand_or_a_value(argv, status, line):
    proc = _run_proc([sys.executable, "-m", "starforge"] + argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, line, "")


def test_only_h_and_double_dash_tokens_are_flags(capsys):
    assert json.loads(go(capsys, "-x")[1])["error"]["type"] == "UsageError"
    res, out = go(capsys, "star", "-q", "p", "--frobnicate")
    assert (res.status, out) == (2, json.dumps({"error": {
        "message": "starforge: unrecognized arguments: --frobnicate",
        "type": "UsageError"}}) + "\n")
    with pytest.raises(SystemExit) as stop:
        run_command(["star", "-q", "-h"])
    assert stop.value.code == 0


# ============================================================
# Wigner functionals under --lambda
# ============================================================

def test_normalize_binds_wigner_widths_under_lambda(capsys):
    from starforge import (LambdaBinding, PhaseContext, bind_functional,
                           moyal_family, normalize_functional, render_scalar,
                           wigner_state)

    ctx = PhaseContext(1)
    W = bind_functional(wigner_state(ctx, 2), LambdaBinding.strict(1))
    A, _ = normalize_functional(moyal_family(ctx), W, 6)
    res, out = go(capsys, "normalize", "wigner(2)", "--lambda", "1")
    assert res.status == 0
    assert out == json.dumps({"normalizer": render_scalar(A)}) + "\n"
    assert render_scalar(A).startswith("1/4/pi*lam^3 + ")


def test_positivity_binds_wigner_widths_under_lambda(capsys):
    res, out = go(capsys, "positivity", "wigner(1)", "q + I*p", "--lambda", "1/2")
    assert (res.status, out) == (0, '{"verdict": "positive_on_samples"}\n')


def test_wigner_functionals_still_refuse_formal_mode(capsys):
    res, out = go(capsys, "normalize", "wigner(2)")
    assert res.status == 2
    assert json.loads(out)["error"]["type"] == "FormalModeError"
    res, out = go(capsys, "eigencheck", "q", "1", "wigner(1)", "--kind", "bullet")
    assert res.status == 2
    assert json.loads(out)["error"]["type"] == "FormalModeError"


def test_bullet_eigencheck_evaluates_residuals_at_lambda(capsys):
    # the residual series is 1 - lam, which vanishes at lam = 1 only
    argv = ("eigencheck", "1", "lam", "delta(0,0)", "--kind", "bullet")
    res, out = go(capsys, *argv, "--lambda", "1")
    assert (res.status, out) == (0, '{"verdict": "pass"}\n')
    res, out = go(capsys, *argv)
    assert (res.status, out) == (1, '{"first_failure": {"residual": "1 - lam", "witness": "1"},'
                                    ' "verdict": "fail"}\n')


def test_bullet_eigencheck_binds_wigner_widths_under_lambda(capsys):
    # a density is no bullet eigenstate: a genuine fail, not a formal-mode error
    res, out = go(capsys, "eigencheck", "q", "1", "wigner(1)", "--lambda", "1",
                  "--kind", "bullet")
    assert (res.status, out) == (1, '{"first_failure": {"residual": "-pi", "witness": "1"},'
                                    ' "verdict": "fail"}\n')


# ============================================================
# Empty or negative scopes are typed errors, never vacuous verdicts
# ============================================================

def _scope_error(capsys, *argv):
    res, out = go(capsys, *argv)
    assert res.status == 2
    payload = json.loads(out)
    assert payload["error"]["type"] == "ScopeError"
    return payload["error"]["message"]


def test_axioms_degree_zero_is_a_scope_error(capsys):
    _scope_error(capsys, "axioms", "--degree", "0")


def test_axioms_order_zero_is_a_scope_error(capsys):
    _scope_error(capsys, "axioms", "--order", "0", "--degree", "1")


def test_normalize_negative_order_is_a_scope_error(capsys):
    _scope_error(capsys, "normalize", "delta(0,0)", "--order", "-5")


def test_eigencheck_empty_test_set_is_a_scope_error(capsys):
    # a wrong eigenvalue must not pass because no test monomial was tried
    msg = _scope_error(capsys, "eigencheck", "1/2 * (q^2 + p^2)", "7",
                       "density(gauss(1))", "--lambda", "1", "--test-degree", "-1")
    assert "no test monomials" in msg
    _scope_error(capsys, "eigencheck", "q", "7", "delta(1,0)", "--kind", "bullet",
                 "--test-degree", "-1")


def test_a_zero_functional_or_witness_is_a_scope_error(capsys):
    # the zero functional satisfies every eigen-equation and pairs to 0 >= 0,
    # and a zero witness pairs to 0: none of these verdicts would say anything
    # a density with a zero profile is the zero term, as a zero weight is
    for argv in (("eigencheck", "q", "0", "0*delta(0,0)"),
                 ("eigencheck", "1", "1", "delta(0,0)-delta(0,0)"),
                 ("eigencheck", "q", "7", "density(0)"),
                 ("eigencheck", "q", "7", "density(q-q)")):
        assert _scope_error(capsys, *argv) == "an eigenfunctional must be nonzero"
    assert (_scope_error(capsys, "positivity", "delta(0,0)", "0")
            == "positivity needs nonzero witness functions")
    for argv in (("positivity", "0*delta(0,0)", "q"),
                 ("positivity", "density(0)", "q"),
                 ("positivity", "density(0*gauss(1))", "1")):
        assert _scope_error(capsys, *argv) == "positivity needs a nonzero functional"
    _scope_error(capsys, "eigencheck", "q", "0", "0*delta(0,0)", "--kind", "bullet")
    _scope_error(capsys, "positivity", "delta(0,0)", "q", "q - q")


def test_star_order_below_the_lowest_power_is_a_scope_error(capsys):
    # a non-terminating product truncated below lam^0 would certify nothing
    msg = _scope_error(capsys, "star", "gauss(1)", "gauss(1)", "--order", "-3")
    assert "below the product's lowest power 0" in msg
    _scope_error(capsys, "commutator", "gauss(1)", "gauss(1)", "--order", "-1")
    res, out = go(capsys, "star", "lam^-2 * gauss(1)", "gauss(1)", "--order", "-2")
    assert (res.status, out) == (0, '{"result": "exp(-2*r^2)*lam^-2 + O(lam^-1)"}\n')


# ============================================================
# Pathological input stops with a typed error, never a traceback
# ============================================================

def test_negative_gaussian_width_is_a_parse_error(capsys):
    res, out = go(capsys, "star", "gauss(-1)", "q")
    assert res.status == 2
    assert out == ('{"error": {"expected": "a nonnegative Gaussian width",'
                   ' "message": "at offset 6: expected a nonnegative Gaussian'
                   ' width, found \'-1\'", "offset": 6, "type": "ParseError"}}\n')
    res, out = go(capsys, "normalize", "density(gauss(-1/2))")
    assert res.status == 2
    assert json.loads(out)["error"]["offset"] == 14


def test_negative_gaussian_width_exits_2_without_a_traceback():
    proc = _run_proc([sys.executable, "-m", "starforge", "star", "gauss(-1)", "q"])
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"]["type"] == "ParseError"


def _nested(depth, inner="q"):
    return "(" * depth + inner + ")" * depth


def test_nesting_at_the_limit_parses():
    from starforge.cli_frontend import MAX_NESTING

    assert parse_expression(_nested(MAX_NESTING)) == ("coord", "q")
    tree = parse_expression("-" + _nested(MAX_NESTING - 1, "-(q)"))
    for _ in range(2):
        assert tree[0] == "neg"
        tree = tree[1]


def test_nesting_past_the_limit_is_a_parse_error(capsys):
    from starforge.cli_frontend import MAX_NESTING

    with pytest.raises(ParseError) as err:
        parse_expression(_nested(MAX_NESTING + 1))
    assert err.value.offset == MAX_NESTING
    assert err.value.expected == "at most %d nested groups" % MAX_NESTING
    # density(...) counts as a group as well
    with pytest.raises(ParseError):
        parse_expression("density(%s)" % _nested(MAX_NESTING), functional=True)
    res, out = go(capsys, "star", _nested(2000), "p")
    assert res.status == 2
    assert json.loads(out)["error"]["offset"] == MAX_NESTING


def test_long_flat_chains_lower_without_deep_recursion(capsys):
    res, out = go(capsys, "star", "+".join(["q"] * 3000), "p")
    assert (res.status, out) == (0, '{"result": "3000*q*p + 1500*I*lam"}\n')
    res, out = go(capsys, "integrate", "*".join(["gauss(1/2)"] * 3000))
    assert (res.status, out) == (0, '{"result": "1/1500*pi"}\n')
    want = go(capsys, "positivity", "1500*delta(0,0)", "q + I*p", "--json")
    got = go(capsys, "positivity", "+".join(["delta(0,0)"] * 1500), "q + I*p",
             "--json")
    assert (got[0].status, got[1]) == (want[0].status, want[1])


_TERM = ("mul", ("mul", ("sub", Q, ONE), P), ("gauss", Fraction(1, 2)))


@pytest.mark.parametrize("text,kind,operands", [
    ("+".join(["q"] * 3000), "add", [Q] * 3000),
    ("*".join(["q"] * 3000), "mul", [Q] * 3000),
    ("-".join(["q", "2*p"] * 1500), "sub", [Q, ("mul", ("num", Fraction(2)), P)] * 1500),
    ("+".join(["(q - 1)*p*gauss(1/2)"] * 1000), "add", [_TERM] * 1000),
], ids=["sum", "product", "difference", "sum_of_products"])
def test_long_chains_parse_left_deep(text, kind, operands):
    # tuple == recurses once per level, which a 3000-term chain overflows,
    # so the left spine is walked in a loop and only its operands compared
    tree = parse_expression(text)
    found = []
    while tree[0] == kind:
        found.append(tree[2])
        tree = tree[1]
    found.append(tree)
    assert found[::-1] == operands


# ============================================================
# Lowering errors: one JSON line, exit 2, the exact message
# ============================================================

def _engine_error(message, kind="EngineError"):
    return json.dumps({"error": {"message": message, "type": kind}}) + "\n"


@pytest.mark.parametrize("argv,message", [
    (["star", "q^-1", "p"], "negative powers need an invertible lam-monomial base"),
    (["star", "0^-1", "p"], "negative powers need an invertible lam-monomial base"),
    (["star", "(q + lam)^-2", "p"], "negative powers need an invertible lam-monomial base"),
    (["normalize", "delta(0,0)^2"], "functionals cannot be raised to powers"),
    (["normalize", "delta(0,0) + q"], "cannot add a functional to a plain function"),
    (["normalize", "q - delta(0,0)"], "cannot add a functional to a plain function"),
    (["normalize", "delta(0,0)*delta(1,0)"], "cannot multiply two functionals here"),
    (["normalize", "q*delta(0,0)"], "functionals can only be scaled by lam-scalars here"),
    (["positivity", "q", "p"], "expected a functional (delta/density/wigner term)"),
    (["eigencheck", "q", "1", "q^2", "--kind", "bullet"],
     "expected a functional (delta/density/wigner term)"),
    (["normalize", "density(lam*gauss(1))"], "density(...) takes a single lam-free profile"),
    (["normalize", "density(q + lam)"], "density(...) takes a single lam-free profile"),
])
def test_lowering_errors_are_one_json_line(capsys, argv, message):
    res, out = go(capsys, *argv)
    assert (res.status, out) == (2, _engine_error(message))


@pytest.mark.parametrize("argv,line", [
    (["positivity", "density(delta(0,0))", "q"],
     _engine_error("functional atoms are not allowed in a plain expression")),
    (["eigencheck", "q", "gauss(1)", "delta(0,0)"],
     _engine_error("the genvalue must be a lam-scalar expression")),
    (["eigencheck", "q", "1", "--kind", "classical", "--point", "1/0"],
     _engine_error("bad --point value: Fraction(1, 0)")),
    (["eigencheck", "q", "lam", "--kind", "classical", "--point", "1,0"],
     _engine_error("classical genvalues are plain rationals")),
    (["normalize", "wigner(x)", "--lambda", "1"],
     json.dumps({"error": {"expected": "a level",
                           "message": "at offset 7: expected a level, found 'x'",
                           "offset": 7, "type": "ParseError"}}) + "\n"),
])
def test_operand_and_option_errors_are_one_json_line(capsys, argv, line):
    # a functional inside a density, a function as a genvalue, a zero
    # denominator in --point, a lam-valued classical genvalue, a wigner level
    # that is not a number
    res, out = go(capsys, *argv)
    assert (res.status, out) == (2, line)


def test_negative_powers_of_lam_monomials_still_lower(capsys):
    res, out = go(capsys, "star", "(2*lam)^-2", "q")
    assert (res.status, out) == (0, '{"result": "1/4*q*lam^-2"}\n')
    res, out = go(capsys, "integrate", "(I*lam)^-1*gauss(1)")
    assert (res.status, out) == (0, '{"result": "-I*pi*lam^-1"}\n')


def test_a_power_takes_logarithmically_many_bullet_products(monkeypatch):
    from starforge import PhaseContext, cli_frontend, fs_bullet, render_function

    calls = []

    def counted(left, right):
        calls.append(1)
        return fs_bullet(left, right)

    monkeypatch.setattr(cli_frontend, "fs_bullet", counted)
    F = cli_frontend.lower_expression(parse_expression("q^1000"), PhaseContext(1))
    assert render_function(F) == "q^1000"
    assert 0 < len(calls) <= 2 * 9 + 1     # 2*floor(log2(1000)) + 1


def test_classical_eigencheck_counts_zero_as_lam_free(capsys):
    res, out = go(capsys, "eigencheck", "0", "0", "--kind", "classical", "--point", "0,0")
    assert (res.status, out) == (0, '{"verdict": "pass"}\n')
    res, out = go(capsys, "eigencheck", "lam*q", "0", "--kind", "classical", "--point", "0,0")
    assert (res.status, out) == (2, _engine_error("classical checks take a lam-free expression"))


def test_a_zero_density_profile_counts_as_lam_free(capsys):
    # zero has no lam-power at all, as in the classical eigencheck; the
    # density it makes is the zero term, as a zero weight is, so normalize
    # has nothing to invert and positivity nothing to certify
    res, out = go(capsys, "normalize", "density(0)")
    assert (res.status, out) == (2, _engine_error("functional pairs to 0 against the constant 1",
                                                  "NotNormalizable"))
    assert (_scope_error(capsys, "positivity", "density(0)", "q")
            == "positivity needs a nonzero functional")


def test_region_rejects_a_non_polynomial_operand(capsys):
    # the shape checks live in negative_region alone, with their own message
    res, out = go(capsys, "region", "q*gauss(1) + p")
    assert (res.status, out) == (2, _engine_error("expected a single polynomial part",
                                                  "NotSupportedForm"))
    res, out = go(capsys, "region", "lam*q")
    assert (res.status, out) == (2, _engine_error("expected a lam-free linear expression",
                                                  "NotSupportedForm"))


# ============================================================
# argparse usage errors keep the one-JSON-line contract
# ============================================================

@pytest.mark.parametrize("argv,message", [
    (["star", "q"], "starforge star: the following arguments are required: right"),
    (["star", "q", "p", "--order", "x"],
     "starforge star: argument --order: invalid int value: 'x'"),
    ([], "starforge: the following arguments are required: command"),
    (["axioms", "--frobnicate"], "starforge: unrecognized arguments: --frobnicate"),
    (["star", "q", "p", "--seed", "1"], "starforge: unrecognized arguments: --seed 1"),
])
def test_usage_errors_are_json_errors(capsys, argv, message):
    res, out = go(capsys, *argv)
    assert res.status == 2
    assert out == json.dumps({"error": {"message": message, "type": "UsageError"}},
                             sort_keys=True) + "\n"
    assert capsys.readouterr().err == ""


def test_usage_error_exits_2_without_usage_text():
    proc = _run_proc([sys.executable, "-m", "starforge", "star", "q"])
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {"error": {
        "message": "starforge star: the following arguments are required: right",
        "type": "UsageError"}}


def test_help_still_prints_usage_and_exits_0():
    proc = _run_proc([sys.executable, "-m", "starforge", "star", "-h"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: starforge star")
    with pytest.raises(SystemExit) as stop:
        run_command(["--help"])
    assert stop.value.code == 0


# ============================================================
# The option grammar: each subcommand takes only the options it reads
# ============================================================

def _subparser_map():
    import argparse

    from starforge.cli_frontend import _make_parser

    top = _make_parser()
    return next(a for a in top._actions if isinstance(a, argparse._SubParsersAction)).choices


def _subparsers():
    """{subcommand: its option strings beyond -h}, from the parser itself."""
    return {name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
            for name, p in _subparser_map().items()}


OPTION_VALUES = {"--order": "2", "--lambda": "1", "--product": "moyal", "--degree": "1",
                 "--kind": "star", "--point": "1,0", "--test-degree": "1"}

# one valid argv per subcommand, and per eigencheck kind
BASE = {
    "star": ["star", "q", "p"],
    "bullet": ["bullet", "q", "p"],
    "commutator": ["commutator", "q", "p"],
    "trace": ["trace", "gauss(1)"],
    "integrate": ["integrate", "gauss(1)"],
    "region": ["region", "q + I*p"],
    "axioms": ["axioms", "--degree", "1", "--order", "1"],
    "positivity": ["positivity", "delta(0,0)", "q + I*p"],
    "normalize": ["normalize", "delta(0,0)"],
    "eigencheck": ["eigencheck", "q", "1", "delta(1,0)", "--kind", "bullet"],
}
KIND_BASE = {
    "classical": ["eigencheck", "q", "1", "--kind", "classical", "--point", "1,0"],
    "bullet": BASE["eigencheck"],
    "star": ["eigencheck", "q", "1", "delta(1,0)"],
}
# what each kind reads of eigencheck's row, with "functional" for its third operand
KIND_READS = {
    "classical": {"--point"},
    "bullet": {"--lambda", "--test-degree", "functional"},
    "star": {"--lambda", "--test-degree", "functional"},
}
KIND_ARGS = {"--lambda", "--point", "--test-degree", "functional"}


def _with(kind, arg):
    argv = list(KIND_BASE[kind])
    if arg == "functional":
        return argv[:3] + ["delta(1,0)"] + argv[3:]
    return argv + [arg, OPTION_VALUES[arg]]


def test_each_subcommand_takes_its_row_and_no_more():
    rows = {name: opts - {"--pairs", "--json"} for name, opts in _subparsers().items()}
    assert rows == {
        "star": {"--order"}, "commutator": {"--order"},
        "bullet": set(), "trace": set(), "integrate": set(),
        "region": {"--lambda"},
        "axioms": {"--order", "--product", "--degree"},
        "positivity": {"--lambda", "--product"},
        "normalize": {"--order", "--lambda"},
        "eigencheck": {"--kind", "--lambda", "--point", "--test-degree"},
    }
    assert "--pairs" not in _subparsers()["region"]
    assert sum(len(opts) for opts in _subparsers().values()) == 33


def test_the_bases_are_not_usage_errors(capsys):
    for argv in list(BASE.values()) + list(KIND_BASE.values()):
        res, out = go(capsys, *argv)
        assert res.status in (0, 1), (argv, out)


REJECTED = sorted((name, opt) for name, opts in _subparsers().items()
                  for opt in set(OPTION_VALUES) - opts)
KIND_REJECTED = sorted((kind, arg) for kind in KIND_READS
                       for arg in KIND_ARGS - KIND_READS[kind])


def _usage_error(capsys, argv):
    res, out = go(capsys, *argv)
    assert res.status == 2
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["type"] == "UsageError"
    assert capsys.readouterr().err == ""
    return json.loads(out)["error"]["message"]


@pytest.mark.parametrize("name,opt", REJECTED, ids=["%s %s" % c for c in REJECTED])
def test_an_option_outside_the_row_is_a_usage_error(capsys, name, opt):
    msg = _usage_error(capsys, BASE[name] + [opt, OPTION_VALUES[opt]])
    assert msg == "starforge: unrecognized arguments: %s %s" % (opt, OPTION_VALUES[opt])


@pytest.mark.parametrize("kind,arg", KIND_REJECTED, ids=["%s %s" % c for c in KIND_REJECTED])
def test_an_argument_outside_the_kind_is_a_usage_error(capsys, kind, arg):
    msg = _usage_error(capsys, _with(kind, arg))
    assert msg == "starforge eigencheck: --kind %s takes no %s" % (kind, arg)


def test_eigencheck_rules_come_before_any_expression_is_parsed(capsys):
    msg = _usage_error(capsys, ["eigencheck", "q +*", "1", "zzz", "--kind", "classical",
                                "--point", "1,0"])
    assert msg == "starforge eigencheck: --kind classical takes no functional"


@pytest.mark.parametrize("argv", [
    ["star", "q", "p", "--lambda", "1"],
    ["bullet", "q", "p", "--product", "moyal"],
    ["region", "q + I*p", "--product", "bullet"],
    ["trace", "gauss(1)", "--lambda", "1"],
    ["integrate", "gauss(1)", "--product", "bullet", "--order", "3"],
    ["axioms", "--degree", "1", "--order", "1", "--lambda", "3"],
    ["eigencheck", "q", "1", "--kind", "classical", "--point", "1,0", "--order", "5",
     "--product", "bullet"],
    ["bullet", "q", "p", "--order", "2"],
    ["star", "q", "p", "--product", "bullet"],
    ["commutator", "q", "p", "--product", "bullet"],
    ["trace", "gauss(1)", "--product", "bullet"],
    ["eigencheck", "q", "1", "zzz", "--kind", "classical", "--point", "1,0"],
    # inert or a duplicate of another argv once pairings terminate exactly
    ["eigencheck", "q", "1+lam^3", "delta(1,0)", "--product", "bullet", "--order", "1"],
    ["eigencheck", "q", "1", "delta(1,0)", "--product", "moyal"],
    ["normalize", "delta(0,0)", "--product", "bullet"],
    ["region", "q + I*p", "--pairs", "1"],
])
def test_once_ignored_options_are_usage_errors(capsys, argv):
    _usage_error(capsys, argv)


def test_a_terminating_bullet_pairing_is_not_cut_at_the_order(capsys):
    # <delta - lam^3 delta, 1>_* = lam^-1 - lam^2 is negative at lambda = 2
    res, out = go(capsys, "positivity", "delta(0,0)-lam^3*delta(0,0)", "1",
                  "--product", "bullet")
    assert res.status == 1
    assert json.loads(out) == {"verdict": "negative", "negativity": {
        "lambda": "2", "value": "lam^-1 - lam^2", "witness": "1"}}


@pytest.mark.parametrize("kind", sorted(KIND_BASE))
def test_eigencheck_takes_no_order_under_any_kind(capsys, kind):
    # test functions are polynomials, so every residual is exact: --order was inert
    msg = _usage_error(capsys, KIND_BASE[kind] + ["--order", "2"])
    assert msg == "starforge: unrecognized arguments: --order 2"


# ============================================================
# Positivity decides exact values only
# ============================================================

@pytest.mark.parametrize("functional", ["delta(0,0)", "density(gauss(1))"])
@pytest.mark.parametrize("witness", ["gauss(1)", "(q + I*p)*gauss(1/2)"])
def test_positivity_refuses_a_witness_whose_value_does_not_terminate(capsys, functional,
                                                                     witness):
    # <delta, gauss(1) * gauss(1)>_* = lam^-1/(1 + lam^2) is positive, yet a
    # sign read off its cut-off tail printed "negative" at --order 2 and 3
    from starforge import PhaseContext, lower_expression, parse_expression, render_function

    name = render_function(lower_expression(parse_expression(witness), PhaseContext(1)))
    res, out = go(capsys, "positivity", functional, "q", witness)
    assert res.status == 2 and out.count("\n") == 1
    assert json.loads(out) == {"error": {"type": "TruncatedTailError", "message": (
        "positivity decides exact values only, and the value for witness %s "
        "does not terminate" % name)}}
    _usage_error(capsys, ["positivity", functional, witness, "--order", "2"])


def test_positivity_on_a_non_real_value_is_an_error_not_a_traceback():
    proc = _run_proc([sys.executable, "-m", "starforge", "positivity", "I*delta(0,0)", "1"])
    assert (proc.returncode, proc.stderr) == (2, "")
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout) == {"error": {"type": "EngineError", "message": (
        "positivity needs real values, and the value for witness 1 is I*lam^-1")}}


def test_an_unread_option_exits_2_without_a_traceback():
    proc = _run_proc([sys.executable, "-m", "starforge", "eigencheck", "q", "1", "zzz",
                      "--kind", "classical", "--point", "1,0"])
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout) == {"error": {
        "message": "starforge eigencheck: --kind classical takes no functional",
        "type": "UsageError"}}


# For every option a subcommand takes: two argv that differ only in that
# option, and whose stdout differs, so no row names an option _dispatch ignores.
# None leaves the option out; True passes a flag without a value.
_OSC = ["eigencheck", "1/2 * (q^2 + p^2)", "1/2 * lam", "density(gauss(1))"]
READ = {
    ("star", "--pairs"): (["star", "gauss(1)", "gauss(1)", "--order", "2"], None, "2"),
    ("star", "--order"): (["star", "gauss(1)", "gauss(1)"], "1", "2"),
    ("star", "--json"): (["star", "q", "p"], None, True),
    ("bullet", "--pairs"): (["bullet", "q1", "p1", "--json"], None, "2"),
    ("bullet", "--json"): (["bullet", "q", "p"], None, True),
    ("commutator", "--pairs"): (["commutator", "q2", "p2"], None, "2"),
    ("commutator", "--order"): (["commutator", "q*gauss(1)", "gauss(1)"], "1", "2"),
    ("commutator", "--json"): (["commutator", "q", "p"], None, True),
    ("trace", "--pairs"): (["trace", "gauss(1)"], None, "2"),
    ("trace", "--json"): (["trace", "gauss(1)"], None, True),
    ("integrate", "--pairs"): (["integrate", "gauss(1)"], None, "2"),
    ("integrate", "--json"): (["integrate", "gauss(1)"], None, True),
    ("region", "--lambda"): (["region", "(q - 1) + 2*I*(p + 1/2)"], None, "1/3"),
    ("region", "--json"): (["region", "q + I*p"], None, True),
    ("axioms", "--pairs"): (["axioms", "--degree", "1", "--order", "1", "--json"], None, "2"),
    ("axioms", "--order"): (["axioms", "--degree", "1", "--json"], "1", "2"),
    ("axioms", "--product"): (["axioms", "--degree", "1", "--order", "1"], None, "bullet"),
    ("axioms", "--degree"): (["axioms", "--order", "1", "--json"], "1", "2"),
    ("axioms", "--json"): (["axioms", "--degree", "1", "--order", "1"], None, True),
    ("positivity", "--pairs"): (["positivity", "delta()", "q1 + I*p1"], None, "2"),
    ("positivity", "--lambda"): (["positivity", "delta(0,0)", "q + I*p"], None, "1/2"),
    ("positivity", "--product"): (["positivity", "delta(0,0)", "q + I*p"], None, "bullet"),
    ("positivity", "--json"): (["positivity", "delta(0,0)", "q + I*p"], None, True),
    ("normalize", "--pairs"): (["normalize", "density(gauss(1))"], None, "2"),
    ("normalize", "--order"): (["normalize", "wigner(2)", "--lambda", "1"], "2", "3"),
    ("normalize", "--lambda"): (["normalize", "wigner(1)"], "1", "2"),
    ("normalize", "--json"): (["normalize", "delta(0,0)"], None, True),
    ("eigencheck", "--pairs"): (["eigencheck", "1/2 * (q1^2 + p1^2)", "1/2 * lam",
                                 "density(gauss(1))", "--lambda", "1", "--json"], None, "2"),
    ("eigencheck", "--kind"): (_OSC + ["--lambda", "1"], None, "bullet"),
    ("eigencheck", "--lambda"): (_OSC, "1", "2"),
    ("eigencheck", "--point"): (["eigencheck", "q", "1", "--kind", "classical"], "1,0", "2,0"),
    ("eigencheck", "--test-degree"): (KIND_BASE["star"] + ["--json"], "1", "2"),
    ("eigencheck", "--json"): (KIND_BASE["star"], None, True),
}


def _set(argv, opt, value):
    if value is None:
        return list(argv)
    return list(argv) + ([opt] if value is True else [opt, value])


def test_every_option_in_a_row_has_a_read_case():
    assert set(READ) == {(name, opt) for name, opts in _subparsers().items() for opt in opts}


@pytest.mark.parametrize("name,opt", sorted(READ), ids=["%s %s" % c for c in sorted(READ)])
def test_every_option_in_a_row_changes_the_output(capsys, name, opt):
    base, first, second = READ[(name, opt)]
    outs = [go(capsys, *_set(base, opt, value))[1] for value in (first, second)]
    assert outs[0] != outs[1]


# the same for what each eigencheck kind reads, the functional included, as
# the two argv whose stdout must differ
_CLASSICAL = ["eigencheck", "q", "1", "--kind", "classical"]
_BULLET = ["eigencheck", "1", "lam", "delta(0,0)", "--kind", "bullet", "--json"]
_STAR = _OSC + ["--lambda", "1", "--json"]
KIND_READ = {
    ("classical", "--point"): (_CLASSICAL + ["--point", "1,0"], _CLASSICAL + ["--point", "2,0"]),
    ("bullet", "--lambda"): (_BULLET, _BULLET + ["--lambda", "1"]),
    ("bullet", "--test-degree"): (_BULLET + ["--test-degree", "1"],
                                  _BULLET + ["--test-degree", "2"]),
    ("bullet", "functional"): (["eigencheck", "q", "1", "delta(1,0)", "--kind", "bullet"],
                               ["eigencheck", "q", "1", "delta(2,0)", "--kind", "bullet"]),
    ("star", "--lambda"): (_OSC + ["--lambda", "1"], _OSC + ["--lambda", "2"]),
    ("star", "--test-degree"): (_STAR + ["--test-degree", "1"], _STAR + ["--test-degree", "2"]),
    ("star", "functional"): (_OSC + ["--lambda", "1"],
                             _OSC[:3] + ["delta(0,0)", "--lambda", "1"]),
}


def test_every_kind_read_has_a_case():
    assert set(KIND_READ) == {(kind, arg) for kind in KIND_READS for arg in KIND_READS[kind]}


@pytest.mark.parametrize("kind,arg", sorted(KIND_READ),
                         ids=["%s %s" % c for c in sorted(KIND_READ)])
def test_every_argument_a_kind_reads_changes_the_output(capsys, kind, arg):
    first, second = KIND_READ[(kind, arg)]
    assert go(capsys, *first)[1] != go(capsys, *second)[1]


def test_readme_lists_the_option_rows_of_the_parser():
    import re

    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        rows = {m.group(1): set(re.findall(r"`(--[a-z-]+)", m.group(2)))
                for m in re.finditer(r"^- `(\w+)[^`]*`: (.*)$", fh.read(), re.M)}
    assert rows == {name: opts - {"--pairs", "--json"} for name, opts in _subparsers().items()}


def test_help_states_the_defaults():
    def help_of(name, flag):
        parser = _subparser_map()[name]
        action = next(a for a in parser._actions if flag in a.option_strings)
        return action.help % {"default": action.default}

    for name, order in (("axioms", 4), ("normalize", 6)):
        assert _subparser_map()[name].get_default("order") == order
        assert help_of(name, "--order") == "lam truncation order (default %d)" % order
    assert help_of("star", "--order") == "lam truncation order"
    assert help_of("eigencheck", "--test-degree") == "witness monomial degree bound (default 2)"
