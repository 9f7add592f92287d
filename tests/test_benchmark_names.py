"""The gcdsums names that the benchmark's tracers read.

``perfbench/selftest.py`` counts sieve calls by the code objects of
``tables.sieve`` and ``tables.sieve_values`` and reads their frame local
``n_max``; it counts divisor pairs by the code object of
``identities.identity_sum_table`` and reads its locals ``fv`` and ``n``.
``perfbench/trace_child.py`` takes a sieve's n_max as its second
positional argument and records ``identity_sum_table`` calls made with
4 positional arguments.  It also wraps every function its ``SPANNED``
names, skipping a name the package lacks (that span then reads 0), and
replaces the ``main`` of each ``SCAN_TARGETS`` and ``STATISTICS`` entry
with ``dataclasses.replace``.  The benchmark is frozen, so a refactor that
renames, reorders or drops any of these must fail here, not there.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from gcdsums import asymptotics, identities, tables

_TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"

# names in SPANNED that the package no longer defines; their spans read 0
KNOWN_MISSING = {("gcdsums.identities", "apostol_log_average_profile"),
                 ("gcdsums.identities", "stirling_remainder_term"),
                 ("gcdsums.tables", "dirichlet_convolve"),
                 ("gcdsums.identities", "log_sum_audit")}


def _spanned():
    spec = importlib.util.spec_from_file_location("trace_child", _TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(m, name) for m, names in module.SPANNED.items() for name in names]


@pytest.mark.parametrize("fn, params", [
    (tables.sieve, ["spec", "n_max"]),
    (tables.sieve_values, ["spec", "n_max"]),
    (identities.identity_sum_table, ["fv", "gv", "log_fact", "n"]),
], ids=["sieve", "sieve_values", "identity_sum_table"])
def test_traced_function_keeps_its_parameters(fn, params):
    assert inspect.isfunction(fn)  # a plain function: __code__ is its own
    signature = inspect.signature(fn).parameters.values()
    assert [p.name for p in signature] == params
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
               for p in signature)


def test_pair_counter_reads_identity_sum_table_locals():
    # the divisor-pair counter reads these frame locals at the call
    assert {"fv", "n"} <= set(identities.identity_sum_table.__code__.co_varnames)


@pytest.mark.parametrize("module, name", _spanned(),
                         ids=lambda v: v.rpartition(".")[2])
def test_spanned_name_is_a_plain_function(module, name):
    fn = getattr(importlib.import_module(module), name, None)
    if (module, name) in KNOWN_MISSING:
        assert fn is None  # found again: drop it from KNOWN_MISSING
    else:
        assert inspect.isfunction(fn)


@pytest.mark.parametrize("registry", ["SCAN_TARGETS", "STATISTICS"])
def test_registry_entries_keep_a_replaceable_main(registry):
    entries = getattr(asymptotics, registry)
    assert entries
    for item in entries.values():
        assert dataclasses.is_dataclass(item) and callable(item.main)
        assert dataclasses.replace(item, main=item.main) == item
