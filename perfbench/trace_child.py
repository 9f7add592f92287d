"""Run one gcdsums CLI command with a span around each public layer call.

Usage: python3 perfbench/trace_child.py OUT.json CMD_ID -- CLI ARGS...

An import hook wraps the listed public functions of each gcdsums module
right after the module executes, before any other module imports them, so
every caller (intra-module calls too, and the zeta constants evaluated
while ``gcdsums.cli`` is imported) goes through a wrapper.  The program's
files are not changed.  Spans stay in memory and are written to OUT.json,
with the exit status and the CSV the command printed, when the command
ends.  A span row is [name, start, end, parent index, command id, count].
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import importlib.abc
import importlib.machinery
import io
import json
import sys
import time
import traceback

# module -> public functions that get a span
SPANNED = {
    "gcdsums.tables": ("sieve_values", "sieve", "dirichlet_convolve"),
    "gcdsums.stirling": ("log_factorial_table",),
    "gcdsums.identities": ("apostol_log_average_profile",
                           "stirling_remainder_term", "apostol_log_sum_direct",
                           "apostol_log_sum", "log_sum_audit", "toth_identity"),
    "gcdsums.asymptotics": ("residual_scan", "mu_delta_sum", "summatory",
                            "delta_integral_ratio", "divisor_delta",
                            "divisor_delta_a", "main_term"),
    "gcdsums.series": ("series_identity_compare", "series_theta_bracket",
                       "mu_series_report"),
    "gcdsums.zeta": ("zeta", "zeta_prime"),
    "gcdsums.csvio": ("write_rows",),
}


def _sieve_entries(args, kwargs, result) -> int:
    n_max = kwargs["n_max"] if "n_max" in kwargs else args[1] if len(args) > 1 else 0
    return int(n_max)


def _csv_rows(args, kwargs, result) -> int:
    return result.count("\n") - 1


# span name -> work count recorded with the span
COUNTS = {
    "tables.sieve_values": _sieve_entries,
    "tables.sieve": _sieve_entries,
    "csvio.write_rows": _csv_rows,
}


class Tracer:
    """Spans of one command, kept in memory until the command ends."""

    def __init__(self, cmd_id: int):
        self.cmd_id = cmd_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        # (f values, n) of each identity_sum_table call, counted at the end
        self.pair_calls: list[tuple] = []

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                   self.cmd_id, 0]
            self.stack.append(len(self.spans))
            self.spans.append(row)
            row[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                row[5] = count(args, kwargs, result)
            return result
        return wrapper

    def note_pairs(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # identity_sum_table(fv, gv, log_fact, n)
            if len(args) == 4:
                self.pair_calls.append((args[0], args[3]))
            return fn(*args, **kwargs)
        return wrapper

    def divisor_pairs(self) -> int:
        """(d, l) pairs with d*l <= n and f(d) != 0 over the double loops."""
        import numpy as np
        total = 0
        for fv, n in self.pair_calls:
            d = np.flatnonzero(np.asarray(fv[1:n + 1])) + 1
            total += int(np.sum(n // d))
        return total

    def instrument(self, module) -> None:
        # a function a later version removes is skipped; its metric reads 0
        short = module.__name__.rpartition(".")[2]
        for fname in SPANNED.get(module.__name__, ()):
            fn = getattr(module, fname, None)
            if callable(fn):
                setattr(module, fname, self.wrap(f"{short}.{fname}", fn))
        if module.__name__ == "gcdsums.identities" and hasattr(module, "identity_sum_table"):
            module.identity_sum_table = self.note_pairs(module.identity_sum_table)
        if module.__name__ == "gcdsums.asymptotics":
            # scans call the targets' main-term closures, not main_term()
            for table in (getattr(module, "SCAN_TARGETS", {}),
                          getattr(module, "STATISTICS", {})):
                for key, item in table.items():
                    if dataclasses.is_dataclass(item) and callable(getattr(item, "main", None)):
                        table[key] = dataclasses.replace(
                            item, main=self.wrap("asymptotics.main_term", item.main))


class _InstrumentingFinder(importlib.abc.MetaPathFinder):
    """Finds gcdsums submodules as usual and instruments each after it runs."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if not name.startswith("gcdsums."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_instrument(module):
            exec_module(module)
            self.tracer.instrument(module)
        spec.loader.exec_module = exec_and_instrument
        return spec


def run(argv: list[str], cmd_id: int) -> dict:
    tracer = Tracer(cmd_id)
    sys.meta_path.insert(0, _InstrumentingFinder(tracer))
    cli = tracer.wrap("cli.import", importlib.import_module)("gcdsums.cli")
    buf = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(buf):
            rc = tracer.wrap("cli.main", cli.main)(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc, error = 1, traceback.format_exc()
    return {"rc": rc, "stdout": buf.getvalue(), "error": error,
            "spans": tracer.spans, "divisor_pairs": tracer.divisor_pairs()}


def main() -> int:
    out_path, cmd_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    result = run(argv, int(cmd_id))
    with open(out_path, "w") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
