"""The gcdsums names that the benchmark's tracers read.

``perfbench/selftest.py`` counts sieve calls by the code objects of
``tables.sieve`` and ``tables.sieve_values`` and reads their frame local
``n_max``; it counts divisor pairs by the code object of
``identities.identity_sum_table`` and reads its locals ``fv`` and ``n``.
``perfbench/trace_child.py`` takes a sieve's n_max as its second
positional argument and records ``identity_sum_table`` calls made with
4 positional arguments.  The benchmark is frozen, so a refactor that
renames or reorders any of these must fail here, not there.
"""

import inspect

import pytest

from gcdsums import identities, tables


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
