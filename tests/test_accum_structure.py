"""The summation contract is kept in one place, ``gcdsums._accum``.

Read from the source of every module of the package: only ``_accum``
refers to ``_runs``, the split of a grid into passes, and only ``_accum``
calls ``chained_sums``, the one carried rule behind every prefix.  The
one exception is the Dirichlet series' log l! (``series._weights``),
summed by that rule from block to block inside a weight, not a weight's
prefix.  No other module sums in longdouble by ``np.sum``, so a prefix
has no second summation path.  Only ``_accum`` refers to ``reduceat``,
by which ``hyperbola_prefixes`` sums each quotient's terms, so every
hyperbola sum is formed there.

A weight name becomes pairs in one place, ``identities._hyperbola_sums``:
no module but ``identities`` refers to ``_table_pairs``, and
``asymptotics`` builds no ``tables.blocks``, so every exact side and
every mu-weighted Delta correction is named as data.  The one
``_accum.dot``, a BLAS call whose sum depends on the thread count, left
in ``asymptotics`` is ``divisor_delta_a_series``'s, which no scan runs.
"""

import ast
from pathlib import Path

import gcdsums

_SRC = Path(gcdsums.__file__).parent
_EXCEPTIONS = {("chained_sums", "series", "_weights")}


def _trees():
    """(module, top-level definition, its ast) of every module but
    ``_accum``."""
    for path in sorted(_SRC.glob("*.py")):
        if path.stem != "_accum":
            for top in ast.parse(path.read_text(), str(path)).body:
                yield path.stem, getattr(top, "name", "<module>"), top


def _references(name):
    """(module, top-level definition) of each use of ``name`` outside
    ``_accum``: a bare name or an attribute, not an import."""
    return {(name, module, owner) for module, owner, top in _trees()
            for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name}


def test_only_accum_splits_a_grid_into_runs():
    assert _references("_runs") == set()


def test_only_accum_chains_running_sums():
    assert _references("chained_sums") == _EXCEPTIONS


def _longdouble_sum(node):
    """A call of ``sum`` (np.sum or a method) with dtype=<...>.longdouble."""
    return (isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            == "sum"
            and any(kw.arg == "dtype"
                    and getattr(kw.value, "attr", None) == "longdouble"
                    for kw in node.keywords))


def test_only_accum_sums_in_longdouble():
    assert {(module, owner) for module, owner, top in _trees()
            for node in ast.walk(top) if _longdouble_sum(node)} == set()


def test_only_accum_forms_hyperbola_sums_by_reduceat():
    assert _references("reduceat") == set()


def test_only_identities_turns_a_table_into_pairs():
    assert {module for _, module, _ in _references("_table_pairs")} \
        == {"identities"}


def test_asymptotics_builds_blocks_only_for_the_delta_corrections():
    assert {(module, owner) for _, module, owner in _references("blocks")
            if module == "asymptotics"} == set()
    assert {(module, owner) for _, module, owner in _references("dot")
            if module == "asymptotics"} == {("asymptotics",
                                             "divisor_delta_a_series")}
