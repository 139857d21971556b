"""The package's outward surface: its JSON read back without the engine, and
the names it exports.

`wire.py` is the only reader of the engine's JSON.  Here it reads every
`series` and `functional` payload of the golden CLI corpus, which holds the
bytes the CLI prints, and it refuses payloads that break the canonical form.
"""

import json
import os
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import starforge
import wire

TESTS = os.path.dirname(os.path.abspath(__file__))
ONE = (Fraction(1), Fraction(0))


def test_the_reader_imports_nothing_from_starforge():
    code = ("import sys; sys.path.insert(0, %r); import wire; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'starforge'))" % TESTS)
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH="")).stdout
    assert out == "[]\n"


def _golden_payloads(key):
    with open(os.path.join(TESTS, "golden_cli.json")) as fh:
        cases = json.load(fh)
    for case in cases:
        if case["status"] == 0 and "--json" in case["argv"]:
            payload = json.loads(case["stdout"])
            if key in payload:
                yield case["argv"], payload[key]


def test_every_golden_series_payload_reads_in_canonical_form():
    seen = {"function": 0, "scalar": 0}
    for argv, data in _golden_payloads("series"):
        if argv[0] in ("trace", "integrate"):
            valuation, coeffs, tail = wire.scalar_series(data)
            assert coeffs and all(isinstance(c, dict) for c in coeffs), argv
            seen["scalar"] += 1
        else:
            terms, tail = wire.function_series(data)
            assert terms, argv
            seen["function"] += 1
    assert seen == {"function": 7, "scalar": 2}


def test_every_golden_functional_payload_reads_in_canonical_form():
    payloads = list(_golden_payloads("functional"))
    assert len(payloads) == 2
    weights = [t["weight"] for argv, data in payloads
               for grade in wire.functional_series(data)[1] for t in grade]
    # normalized densities carry their weights in object form (a point
    # derivative's list form is read in test_functional_json_schema)
    assert all(isinstance(w, dict) and w["den"][-1] == ONE for w in weights)


EXACT = {"valuation": 0, "coeffs": [[1, 1, 0, 1], [2, 1, 0, 1]], "tail": "exact"}
ZERO_C = [0, 1, 0, 1]


@pytest.mark.parametrize("bad", [
    dict(EXACT, valuation=True),
    dict(EXACT, valuation=1.0),
    dict(EXACT, valuation="0"),
    dict(EXACT, tail={"truncated_at": 2.5}),
    dict(EXACT, tail={"truncated_at": True}),
    dict(EXACT, tail={"truncated_at": "1"}),
    dict(EXACT, tail={"truncated_at": 3}),  # stored powers stop at lam^1
    dict(EXACT, coeffs=[ZERO_C, [1, 1, 0, 1]]),  # leading zero
    dict(EXACT, coeffs=[[1, 1, 0, 1], ZERO_C]),  # trailing zero of an exact series
    dict(EXACT, coeffs=[], valuation=2),  # exact zero away from lam^0
    dict(EXACT, coeffs=[], tail={"truncated_at": 1}),  # truncated zero away from lam^2
    dict(EXACT, coeffs=[[2, 4, 0, 1]]),  # not in lowest terms
    dict(EXACT, coeffs=[[1, -1, 0, 1]]),  # negative denominator
    dict(EXACT, coeffs=[{"num": [[1, 1, 0, 1]], "den": [[2, 1, 0, 1]]}]),  # den not monic
    dict(EXACT, coeffs=[{"num": [[1, 1, 0, 1], ZERO_C], "den": [[1, 1, 0, 1]]}]),
    dict(EXACT, coeffs=[{"num": [[1, 1, 0, 1]], "den": []}]),
], ids=lambda bad: json.dumps(bad)[:60])
def test_the_reader_refuses_a_scalar_series_out_of_canonical_form(bad):
    assert wire.scalar_series(EXACT) == (0, [ONE, (2, 0)], None)
    with pytest.raises(ValueError):
        wire.scalar_series(bad)


def _part(alpha, coeff=(1, 1, 0, 1), exps=(0, 0)):
    return {"alpha": list(alpha), "terms": [{"exps": list(exps), "coeff": list(coeff)}]}


@pytest.mark.parametrize("parts", [
    [_part((1, 1)), _part((1, 2))],  # widths descend
    [_part((1, 1)), _part((1, 1), exps=(1, 0))],  # one width twice
    [{"alpha": [1, 1], "terms": []}],  # zero part
    [_part((1, 1), coeff=(0, 1, 0, 1))],  # zero term
    [_part((-1, 1))],  # negative width
    [_part((2, 2))],  # width not in lowest terms
])
def test_the_reader_refuses_a_function_series_out_of_canonical_form(parts):
    good = {"valuation": 0, "coeffs": [[_part((1, 2)), _part((1, 1))]], "tail": "exact"}
    assert wire.function_series(good) == ({(0, Fraction(1, 2), (0, 0)): ONE,
                                           (0, 1, (0, 0)): ONE}, None)
    with pytest.raises(ValueError):
        wire.function_series(dict(good, coeffs=[parts]))


EXPORTS = [
    'AlphaMismatch', 'AxiomReport', 'ClosednessReport', 'CommandResult', 'Density',
    'DimensionMismatch', 'EC_I', 'EC_ONE', 'EC_ZERO', 'EigenReport', 'EngineError',
    'ExactComplex', 'FORMAL', 'FormalFunction', 'FormalFunctional', 'FormalModeError',
    'FormalScalar', 'GaussPoly', 'GaussSum', 'InfinitePrincipalPart', 'LambdaBinding',
    'NotIntegrable', 'NotNormalizable', 'NotSupportedForm', 'ParseError',
    'PhaseContext', 'PiScalar', 'PiSeparationError', 'PointDeriv', 'PositivityReport',
    'RealityReport', 'RegionReport', 'ScopeError', 'StarFamily', 'TruncatedTailError',
    'TruncationRequired', 'UNBOUNDED', 'UnknownCoordinate', 'UsageError',
    'ZeroNotInvertible', 'agree', 'agreement_depth', 'axiom_suite', 'bind_functional',
    'bullet_family', 'closedness_check', 'coeff_sign', 'eigencheck_bullet',
    'eigencheck_classical', 'eigencheck_star', 'fs_bullet', 'fs_diff', 'fs_integrate',
    'fs_linear_comb', 'fs_to_json', 'func_action', 'func_star_action', 'gp_diff',
    'gp_eval', 'gp_integrate', 'gp_pair', 'gp_poisson', 'gp_to_json',
    'lower_expression', 'main', 'moyal_family', 'negative_region',
    'normalize_functional', 'parse_expression', 'parse_functional', 'pi_bounds',
    'positivity_check', 'reality_check', 'render_function', 'render_gausspoly',
    'render_scalar', 'run_command', 'scalar_eval', 'scalar_invert', 'scalar_to_json',
    'star_commutator', 'star_mul', 'star_trace', 'wigner_state',
]


def test_the_export_surface_is_this_list():
    # adding or removing a public name changes this list, and CHANGES.md says why
    names = sorted(n for n in dir(starforge) if not n.startswith("_")
                   and not isinstance(getattr(starforge, n), types.ModuleType))
    assert names == EXPORTS
    assert len(EXPORTS) == 84
