"""Theta-kernel Laplace summation for singularly perturbed q-difference-
differential Cauchy problems, with quantitative verification tooling."""

from .errors import (ConfigError, ConvergenceError, DomainError, QGevreyError,
                     ThetaOverflowError)
from .qgeometry import (ChartBase, ContinuousBase, QBase, in_continuous_spiral,
                        in_discrete_spiral, in_theta_safe, qpow,
                        spiral_coordinates, spiral_min_distance)
from .theta import log_theta, pi_q, theta, theta_lower_ratio
from .qlaplace import (GrowthCertificate, QuadSettings, q_laplace,
                       q_laplace_split, truncation_window)
from .problem import (CauchyProblem, CoefficientEvaluator, GevreyParams,
                      InitialData, InitialTerm, ProblemTerm, admissibility_fit,
                      apply_shift_operator, check_constant_system,
                      check_growth_cap, check_term_exponents, series_norm,
                      shift_bound_constant, weighted_norm)
from .covering import (AssociatedFamily, GoodCovering, build_covering,
                       overlap_point, pick_lambda, validate_covering,
                       validate_family)
from .solution import (AsymptoticSeries, FlatnessFit, GevreyFit, SolutionChart,
                       equation_residual, evaluate_solution,
                       extract_coefficients, extract_from_samples,
                       fit_log_decay, flatness_fit,
                       flatness_from_null_expansion, gevrey_fit,
                       initial_condition, null_expansion_envelope,
                       transform_decay_fit, young_conjugate)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
