"""starforge: exact deformation quantization on flat phase space.

Everything is computed in exact arithmetic: complex rationals for series
coefficients, rational multiples of powers of pi for integrals, and rational
functions in pi where normalization demands division.  Formal series carry
explicit truncation markers, so a result is either exact or honest about the
order through which it is known.
"""

from .lambda_scalars import (EngineError, ZeroNotInvertible, FormalModeError,
                             TruncatedTailError, ScopeError, ExactComplex,
                             EC_ZERO, EC_ONE, EC_I, FormalScalar, LambdaBinding,
                             FORMAL,
                             scalar_invert, scalar_eval, agreement_depth, agree,
                             render_scalar, scalar_to_json)
from .phase_functions import (AlphaMismatch, NotIntegrable, UnknownCoordinate,
                              DimensionMismatch, PiSeparationError,
                              PhaseContext, pi_bounds, PiScalar,
                              coeff_sign, GaussPoly, gp_diff, gp_eval,
                              gp_integrate, gp_pair, gp_poisson, render_gausspoly,
                              gp_to_json)
from .formal_series import (GaussSum, FormalFunction, fs_linear_comb,
                            fs_bullet, fs_diff, fs_integrate, render_function,
                            fs_to_json)
from .star_products import (UNBOUNDED, TruncationRequired, StarFamily,
                            bullet_family, moyal_family, star_mul,
                            star_commutator, star_trace, ClosednessReport,
                            closedness_check, AxiomReport, axiom_suite)
from .functionals_states import (NotNormalizable, NotSupportedForm,
                                 InfinitePrincipalPart, PointDeriv, Density,
                                 FormalFunctional, bind_functional,
                                 func_action, func_star_action, RealityReport,
                                 reality_check, PositivityReport, positivity_check,
                                 normalize_functional, EigenReport,
                                 eigencheck_classical, eigencheck_bullet,
                                 eigencheck_star, wigner_state, RegionReport,
                                 negative_region)
from .cli_frontend import (ParseError, UsageError, parse_expression,
                           lower_expression, parse_functional, CommandResult,
                           run_command, main)

__version__ = "0.1.0"
