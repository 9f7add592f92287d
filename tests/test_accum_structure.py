"""The summation contract is kept in one place, ``gcdsums._accum``.

Read from the source of every module of the package: only ``_accum``
refers to ``_runs``, the split of a grid into passes, and only ``_accum``
chains ``running_sum``, the extended-precision running sums behind every
prefix.  The one exception is the Dirichlet series' log l!
(``series._weights``), a running sum carried from block to block inside
a weight, not a weight's prefix.  Only ``_accum`` refers to
``reduceat``, by which ``hyperbola_prefixes`` sums each quotient's
terms, so every hyperbola sum is formed there.
"""

import ast
from pathlib import Path

import gcdsums

_SRC = Path(gcdsums.__file__).parent
_EXCEPTIONS = {("running_sum", "series", "_weights")}


def _references(name):
    """(module, top-level definition) of each use of ``name`` outside
    ``_accum``: a bare name or an attribute, not an import."""
    found = set()
    for path in sorted(_SRC.glob("*.py")):
        if path.stem == "_accum":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute)
                        and node.attr == name):
                    found.add((name, path.stem, owner))
    return found


def test_only_accum_splits_a_grid_into_runs():
    assert _references("_runs") == set()


def test_only_accum_chains_running_sums():
    assert _references("running_sum") == _EXCEPTIONS


def test_only_accum_forms_hyperbola_sums_by_reduceat():
    assert _references("reduceat") == set()
