"""The benchmark's workloads: fixed lists of gcdsums CLI commands, each with
the check its output must pass.

Inputs are fixed by the frozen calibration and the acceptance grids; the
workload seed only sets the order in which a run issues the commands.
Checks are pure Python and independent of the package under test, except
that the delta-integral check reads the frozen calibration row it is
gated on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

GRID = "geom:1e3,1e6,7"
GRID_POINTS = 7
# the catalog pairs of the acceptance suite (c01, c12)
CATALOG = (("id", "mu"), ("one", "one"), ("phi", "one"), ("idpow:0.5", "mu"))
# the CLI's IDENTITY_TOL, repeated here so a loosened CLI tolerance still fails
IDENTITY_TOL = {"apostol": 1e-9, "toth": 1e-10}
NAIVE_X = 1000
NAIVE_RTOL = 1e-9


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check its stdout must pass."""

    argv: tuple[str, ...]
    check: Callable[[str], list[str]]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# CSV parsing


def parse_csv(text: str, header: str) -> tuple[list[list[float]], list[str]]:
    """Rows of floats and the problems found; every value must be finite."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], [f"header {lines[:1]!r} != {header!r}"]
    width = header.count(",") + 1
    rows, problems = [], []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            problems.append(f"line {number}: {len(cells)} cells, want {width}")
            continue
        try:
            row = [float(c) for c in cells]
        except ValueError:
            problems.append(f"line {number}: not numeric: {line!r}")
            continue
        if not all(math.isfinite(v) for v in row):
            problems.append(f"line {number}: non-finite value: {line!r}")
        rows.append(row)
    return rows, problems


def _rows(text: str, header: str, count: int) -> tuple[list[list[float]], list[str]]:
    rows, problems = parse_csv(text, header)
    if not problems and len(rows) != count:
        problems.append(f"{len(rows)} rows, want {count}")
    return rows, problems


# ---------------------------------------------------------------------------
# naive oracles for the uncalibrated statistics, by divisor enumeration


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _factor(n: int) -> dict[int, int]:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _mu(n: int) -> int:
    f = _factor(n)
    return 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)


def _phi(n: int) -> int:
    for p in _factor(n):
        n = n // p * (p - 1)
    return n


def _mangoldt(n: int) -> float:
    f = _factor(n)
    return math.log(next(iter(f))) if len(f) == 1 else 0.0


def _conv(f, g, n: int) -> float:
    return math.fsum(f(d) * g(n // d) for d in _divisors(n))


# statistic name -> h(n); the statistic's exact side is sum_{n<=x} h(n)/n
NAIVE_STATISTICS = {
    "id_phi": lambda n: _conv(lambda d: d, _phi, n),
    "jordan_over_n": lambda n: _conv(lambda d: d ** 0.5, _mu, n),  # a = -0.5
    "id_lambda": lambda n: _conv(lambda d: d, _mangoldt, n),
    "phi_over_n": _phi,
    "sigma_logne": lambda n: sum(_divisors(n)) * (math.log(n) - 1.0),
    "divisor_log": lambda n: math.fsum(math.log(d) for d in _divisors(n)),
    "tau_over_n": lambda n: len(_divisors(n)),
    "sigma_minus1": lambda n: math.fsum(1.0 / d for d in _divisors(n)),
}


@lru_cache(maxsize=None)
def naive_statistic(name: str, x: int = NAIVE_X) -> float:
    h = NAIVE_STATISTICS[name]
    return math.fsum(h(n) / n for n in range(1, x + 1))


# ---------------------------------------------------------------------------
# checks


def check_scan(statistic: str | None = None):
    def check(text: str) -> list[str]:
        rows, problems = _rows(text, "x,exact,main,correction,residual,normalized",
                               GRID_POINTS)
        if problems or statistic is None:
            return problems
        at_x = [r for r in rows if r[0] == NAIVE_X]
        if not at_x:
            return [f"no row at x={NAIVE_X}"]
        want = naive_statistic(statistic)
        got = at_x[0][1]
        if abs(got - want) > NAIVE_RTOL * abs(want):
            problems.append(f"exact({NAIVE_X}) = {got!r}, naive {want!r}")
        return problems
    return check


def check_identity(which: str, kmax: int):
    tol = IDENTITY_TOL[which]

    def check(text: str) -> list[str]:
        rows, problems = _rows(text, "k,direct,identity,abs_gap", kmax)
        for k, (kk, direct, ident, gap) in enumerate(rows, start=1):
            if kk != k:
                problems.append(f"row {k} has k={kk}")
            elif gap != abs(direct - ident):
                problems.append(f"k={k}: abs_gap {gap!r} != |direct - identity|")
            elif gap / (1.0 + abs(direct)) > tol:
                problems.append(f"k={k}: relative gap {gap / (1.0 + abs(direct))!r} > {tol}")
            if len(problems) > 5:
                break
        return problems
    return check


def frozen_calibration(root: Path, key: str) -> float:
    path = root / "src" / "gcdsums" / "data" / "calibration.txt"
    for line in path.read_text().splitlines():
        target, _, value = line.partition(",")
        if target == key:
            return float(value.rpartition(",")[2])
    raise KeyError(key)


def check_delta_integral(root: Path):
    def check(text: str) -> list[str]:
        rows, problems = _rows(text, "X,ratio", GRID_POINTS)
        if problems:
            return problems
        limit = 2.0 * frozen_calibration(root, "delta-integral-ratio")
        worst = max(abs(r[1]) for r in rows)
        if worst > limit:
            problems.append(f"max |ratio| {worst!r} > {limit!r}")
        return problems
    return check


def check_delta_point(text: str) -> list[str]:
    return _rows(text, "x,delta", GRID_POINTS)[1]


def check_series_identity(s: float, k_values: tuple[int, ...]):
    def check(text: str) -> list[str]:
        rows, problems = _rows(text, "s,K,lhs,rhs,gap", len(k_values))
        for row, k in zip(rows, k_values):
            if row[0] != s or row[1] != k:
                problems.append(f"row {row[:2]} != ({s}, {k})")
            elif row[4] != abs(row[2] - row[3]):
                problems.append(f"K={k}: gap != |lhs - rhs|")
        return problems
    return check


def check_bracket(text: str) -> list[str]:
    rows, problems = _rows(text, "s,K,lhs,lo,hi", 1)
    if not problems and not rows[0][3] <= rows[0][2] <= rows[0][4]:
        problems.append(f"lhs outside [lo, hi]: {rows[0]}")
    return problems


def check_mu_report(text: str) -> list[str]:
    rows, problems = _rows(
        text, "s,K,lhs,matches_constant_tail,matches_ratio_tail", 1)
    if not problems and not {rows[0][3], rows[0][4]} <= {0.0, 1.0}:
        problems.append(f"match flags not 0/1: {rows[0]}")
    return problems


# ---------------------------------------------------------------------------
# the workloads


def _scan_targets(root: Path) -> list[Command]:
    return [
        Command(("scan", "--target", "tau-log-avg", "--grid", GRID, "--check"),
                check_scan()),
        Command(("scan", "--target", "id-log-avg", "--grid", GRID, "--check"),
                check_scan()),
        Command(("scan", "--target", "jordan-log-avg", "--a", "-0.5",
                 "--grid", GRID, "--check"), check_scan()),
    ]


def _scan_statistics(root: Path) -> list[Command]:
    def stat(name, *extra):
        return Command(("scan", "--target", name, *extra, "--grid", GRID),
                       check_scan(name))
    return [
        stat("id_phi"),
        stat("jordan_over_n", "--a", "-0.5"),
        stat("id_lambda"),
        stat("phi_over_n"),
        stat("sigma_logne"),
        stat("divisor_log"),
        stat("tau_over_n"),
        stat("sigma_minus1", "--check"),
        Command(("delta", "--which", "integral", "--grid", GRID),
                check_delta_integral(root)),
        Command(("delta", "--which", "point", "--a", "-0.5", "--grid", GRID),
                check_delta_point),
    ]


def _audit_per_k(root: Path) -> list[Command]:
    commands = [Command(("identity", "--which", "apostol", "--f", f, "--g", g,
                         "--kmax", "5000"), check_identity("apostol", 5000))
                for f, g in CATALOG]
    commands.append(Command(("identity", "--which", "toth", "--kmax", "10000"),
                            check_identity("toth", 10000)))
    return commands


def _series_compare(root: Path) -> list[Command]:
    k_values = (100, 1000, 10000, 100000)
    k_text = ",".join(str(k) for k in k_values)
    commands = [Command(("series", "--which", "identity", "--f", f, "--g", g,
                         "--s", s, "--K", k_text),
                        check_series_identity(float(s), k_values))
                for s in ("3", "4") for f, g in CATALOG]
    commands.append(Command(("series", "--which", "bracket", "--f", "id",
                             "--s", "3", "--K", "100000"), check_bracket))
    commands.append(Command(("series", "--which", "mu-report", "--s", "3",
                             "--K", "100000"), check_mu_report))
    return commands


WORKLOADS = {
    "scan-targets": _scan_targets,
    "scan-statistics": _scan_statistics,
    "audit-per-k": _audit_per_k,
    "series-compare": _series_compare,
}


def commands(workload: str, root: Path) -> list[Command]:
    return WORKLOADS[workload](root)
