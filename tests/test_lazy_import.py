"""The package namespace loads its modules on first use, and each command
loads only the modules it runs.

Both are checked in fresh interpreters, where nothing but what the child
itself imports is loaded.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gcdsums as G

SRC = Path(G.__file__).resolve().parents[1]

# the names ``import gcdsums`` exports, by defining module
EXPORTS = {
    "asymptotics": [
        "SCAN_TARGETS", "STATISTICS", "ResidualScan", "calibrate",
        "default_calibration_path", "delta_integral_ratio", "divisor_delta",
        "divisor_delta_a", "divisor_delta_a_series", "limit_ratio_grid",
        "load_calibration", "main_term", "mu_delta_grid", "mu_delta_sum",
        "residual_scan", "standard_grid", "summatory",
        "tau_gcd_log_avg_routes", "write_calibration"],
    "errors": ["DomainError"],
    "identities": [
        "AverageDecomposition", "apostol_audits", "apostol_log_average",
        "apostol_log_average_terms", "apostol_log_sum",
        "apostol_log_sum_direct", "cesaro_audits", "cesaro_average_profile",
        "cesaro_identity", "gcd_log_average", "toth_audits", "toth_identity"],
    "series": [
        "MuSeriesReport", "SeriesComparison", "ThetaBracket",
        "mu_series_report", "series_identity_compare",
        "series_theta_bracket"],
    "stirling": ["StirlingTable", "StirlingValue", "log_factorial_table"],
    "tables": [
        "DIVISOR_LOG", "ID", "LOG", "MU", "ONE", "PHI", "SIGMA", "TAU",
        "VON_MANGOLDT", "FunctionSpec", "FunctionTable", "Kind", "abscissa",
        "convolve", "divisors_of", "id_pow", "jordan", "parse_spec", "sieve",
        "sieve_values", "sigma_pow"],
    "zeta": ["LOG_SQRT_2PI", "ConstantSet", "constants", "euler_gamma",
             "zeta", "zeta_prime"],
}

HEAVY = ["gcdsums.asymptotics", "gcdsums.identities", "gcdsums.series",
         "gcdsums.stirling"]
# standard modules no command needs, each a few ms of start-up; only
# ``asymptotics.Target`` is a dataclass, so only a scan or delta loads it
STDLIB = ["dataclasses", "decimal", "fractions", "json"]


def _child(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_every_export_resolves_to_its_module_object():
    code = f"""import importlib, json, sys
from gcdsums import sieve, MU
import gcdsums
assert sieve is sys.modules["gcdsums.tables"].sieve
assert MU is sys.modules["gcdsums.tables"].MU
wrong = []
for module, names in {EXPORTS!r}.items():
    for name in names:
        value = getattr(gcdsums, name)
        if value is not getattr(importlib.import_module("gcdsums." + module),
                                name):
            wrong.append(name)
print(json.dumps([wrong, callable(gcdsums.zeta),
                  gcdsums.zeta is sys.modules["gcdsums.zeta"].zeta,
                  sorted(gcdsums.__all__),
                  set(gcdsums.__all__) <= set(dir(gcdsums))]))
"""
    wrong, zeta_callable, zeta_is_function, exported, listed = \
        json.loads(_child(code))
    assert wrong == []
    assert zeta_callable and zeta_is_function
    assert exported == sorted(n for names in EXPORTS.values() for n in names)
    assert listed


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        G.no_such_name
    assert not hasattr(G, "no_such_name")


@pytest.mark.parametrize("argv, loaded, stdlib", [
    (["sieve", "--spec", "phi", "--nmax", "100"], [], []),
    (["identity", "--which", "toth", "--kmax", "10"],
     ["gcdsums.identities", "gcdsums.stirling"], []),
    (["series", "--which", "identity", "--K", "10,100"], ["gcdsums.series"],
     []),
    (["scan", "--target", "tau_over_n", "--grid", "1000,2000"],
     ["gcdsums.asymptotics", "gcdsums.identities", "gcdsums.stirling"],
     ["dataclasses"]),
], ids=["sieve", "identity-toth", "series-identity", "scan"])
def test_command_loads_only_its_modules(argv, loaded, stdlib):
    # the child prints by repr: importing json would load a watched module
    code = f"""import contextlib, io, sys
import gcdsums.cli
watched = {HEAVY + STDLIB!r}
before = [m for m in watched if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    assert gcdsums.cli.main({argv!r}) == 0
after = [m for m in watched if m in sys.modules]
import dataclasses
records = sorted(f"{{name}}.{{k}}" for name, module in list(sys.modules.items())
                 if name.startswith("gcdsums") for k, v in vars(module).items()
                 if isinstance(v, type) and v.__module__ == name
                 and dataclasses.is_dataclass(v))
print(repr([before, after, records]))
"""
    before, after, records = ast.literal_eval(_child(code))
    assert before == []
    assert after == loaded + stdlib
    assert records == (["gcdsums.asymptotics.Target"]
                       if "gcdsums.asymptotics" in loaded else [])
