"""Exact and asymptotic diagnostics for log-weighted gcd-sum averages.

The names below load their module on first use (PEP 562), so a command
pays only for the modules it runs.  ``zeta`` is imported here: its
function of that name must shadow the submodule's.

Start-up is kept to what each command runs: ``import gcdsums.cli`` loads
``errors``, ``zeta``, ``_accum``, ``tables`` and ``csvio`` over numpy and
argparse; ``series`` adds only its own module, ``identity`` adds
``identities`` and ``stirling``, and ``scan`` and ``delta`` add
``asymptotics`` with those two.  No import loads ``fractions``,
``decimal`` or ``json`` (``cli`` imports json to print a failed check),
and the records are ``NamedTuple`` or ``__slots__`` classes, which are
built without ``exec``; ``asymptotics.Target`` alone is a dataclass, so
only ``scan`` and ``delta`` load ``dataclasses``.
"""

from .errors import DomainError
from .zeta import (LOG_SQRT_2PI, ConstantSet, constants, euler_gamma, zeta,
                   zeta_prime)

_LAZY = {
    "asymptotics": (
        "SCAN_TARGETS", "STATISTICS", "ResidualScan", "calibrate",
        "default_calibration_path", "delta_integral_ratio", "divisor_delta",
        "divisor_delta_a", "divisor_delta_a_series", "limit_ratio_grid",
        "load_calibration", "main_term", "mu_delta_grid", "mu_delta_sum",
        "residual_scan", "standard_grid", "summatory",
        "tau_gcd_log_avg_routes", "write_calibration"),
    "identities": (
        "AverageDecomposition", "apostol_audits", "apostol_log_average",
        "apostol_log_average_terms", "apostol_log_sum",
        "apostol_log_sum_direct", "cesaro_audits", "cesaro_average_profile",
        "cesaro_identity", "gcd_log_average", "toth_audits", "toth_identity"),
    "series": (
        "MuSeriesReport", "SeriesComparison", "ThetaBracket",
        "mu_series_report", "series_identity_compare",
        "series_theta_bracket"),
    "stirling": ("StirlingTable", "StirlingValue", "log_factorial_table"),
    "tables": (
        "DIVISOR_LOG", "ID", "LOG", "MU", "ONE", "PHI", "SIGMA", "TAU",
        "VON_MANGOLDT", "FunctionSpec", "FunctionTable", "Kind", "abscissa",
        "convolve", "divisors_of", "id_pow", "jordan", "parse_spec", "sieve",
        "sieve_values", "sigma_pow"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items()
              for name in names}

__all__ = ["DomainError", "LOG_SQRT_2PI", "ConstantSet", "constants",
           "euler_gamma", "zeta", "zeta_prime", *_MODULE_OF]

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
