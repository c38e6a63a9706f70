"""Theta-kernel Laplace summation for singularly perturbed q-difference-
differential Cauchy problems, with quantitative verification tooling."""

from .errors import (ConfigError, ConvergenceError, DomainError, QGevreyError,
                     ThetaOverflowError)
from .qgeometry import (ChartBase, ContinuousBase, QBase, in_discrete_spiral,
                        in_theta_safe, qpow, spiral_coordinates,
                        spiral_min_distance)
from .theta import log_theta, pi_q, theta
from .qlaplace import QuadSettings, q_laplace, truncation_window
from .problem import (CauchyProblem, CoefficientEvaluator, GevreyParams,
                      InitialData, InitialTerm, ProblemTerm, admissibility_fit,
                      admissibility_fits, apply_shift_operator, check_constant_system,
                      check_growth_cap, check_term_exponents, series_norm,
                      shift_bound_constant, weighted_norm)
from .covering import (AssociatedFamily, GoodCovering, build_covering,
                       covering_report, overlap_point, pick_lambda,
                       validate_family)
from .solution import (AsymptoticSeries, FlatnessFit, SolutionChart,
                       equation_residual, equation_residuals,
                       evaluate_solution,
                       extract_coefficients, fit_log_decay, flatness_fit,
                       flatness_from_null_expansion,
                       initial_condition, null_expansion_envelope,
                       transform_decay_fit, young_conjugate)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
