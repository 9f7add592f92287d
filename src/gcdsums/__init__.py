"""Exact and asymptotic diagnostics for log-weighted gcd-sum averages."""

from .asymptotics import (SCAN_TARGETS, STATISTICS, ResidualScan, calibrate,
                          default_calibration_path, delta_integral_ratio,
                          divisor_delta, divisor_delta_a,
                          divisor_delta_a_series, exact_value, limit_ratio,
                          limit_ratio_grid, load_calibration, main_term,
                          mu_delta_grid, mu_delta_sum, residual_scan,
                          standard_grid, summatory, tau_gcd_log_avg_routes,
                          write_calibration)
from .errors import DomainError
from .identities import (AverageDecomposition, GcdSumResult, anderson_apostol,
                         apostol_audits, apostol_log_average,
                         apostol_log_average_terms, apostol_log_sum,
                         apostol_log_sum_direct, cesaro_audits,
                         cesaro_average, cesaro_average_profile,
                         cesaro_identity, gcd_log_average,
                         gcd_log_average_terms, log_sum_audit, ramanujan_sum,
                         toth_audits, toth_identity)
from .series import (MuSeriesReport, SeriesComparison, ThetaBracket,
                     dirichlet_partial_sum, log_factorial_partial_sum,
                     mu_series_report, series_identity_compare,
                     series_theta_bracket)
from .stirling import StirlingTable, StirlingValue, log_factorial_table
from .tables import (DIVISOR_LOG, ID, LOG, MU, ONE, PHI, SIGMA, TAU,
                     VON_MANGOLDT, FunctionSpec, FunctionTable, Kind,
                     abscissa, convolve, dirichlet_convolve, divisors_of,
                     id_pow, jordan, mobius_of, parse_spec, pointwise_log,
                     pointwise_power, sieve, sieve_values, sigma_pow)
from .zeta import (LOG_SQRT_2PI, ConstantSet, constants, euler_gamma, zeta,
                   zeta_prime)

__version__ = "0.1.0"
