"""Per-layer metrics derived from the spans of a traced run.

A span's self time is its duration minus the durations of its direct
children, so a layer's time excludes the other layers it calls: the
profile's time excludes its sieves and Stirling table, as if those were
warm, and ``scan_self_s`` is what ``residual_scan`` adds once every child
is warm.
"""

from __future__ import annotations

from statistics import median

SIEVE = ("tables.sieve", "tables.sieve_values")
PER_K = ("identities.log_sum_audit", "identities.toth_identity")

# metric -> span names whose self times it sums
SELF_TIME = {
    "tables.sieve_s": SIEVE,
    "tables.convolve_s": ("tables.dirichlet_convolve",),
    "stirling.table_s": ("stirling.log_factorial_table",),
    "identities.profile_s": ("identities.apostol_log_average_profile",),
    "identities.remainder_s": ("identities.stirling_remainder_term",),
    "identities.direct_s": ("identities.apostol_log_sum_direct",),
    "identities.identity_s": ("identities.apostol_log_sum",),
    "identities.toth_s": ("identities.toth_identity",),
    "asymptotics.mu_delta_s": ("asymptotics.mu_delta_sum",),
    "asymptotics.summatory_s": ("asymptotics.summatory",),
    "asymptotics.delta_s": ("asymptotics.delta_integral_ratio",
                            "asymptotics.divisor_delta",
                            "asymptotics.divisor_delta_a"),
    "asymptotics.main_term_s": ("asymptotics.main_term",),
    "asymptotics.scan_self_s": ("asymptotics.residual_scan",),
    "series.compare_s": ("series.series_identity_compare",),
    "series.bracket_s": ("series.series_theta_bracket",),
    "series.report_s": ("series.mu_series_report",),
    "zeta.eval_s": ("zeta.zeta", "zeta.zeta_prime"),
    "csvio.write_s": ("csvio.write_rows",),
}

_METRIC_OF = {name: metric for metric, names in SELF_TIME.items() for name in names}

# every per-layer metric with its unit, in report order
UNITS = {
    "tables.sieve_s": "s", "tables.sieve_calls": "count",
    "tables.sieve_entries": "count", "tables.convolve_s": "s",
    "stirling.table_s": "s", "stirling.table_calls": "count",
    "identities.profile_s": "s", "identities.remainder_s": "s",
    "identities.direct_s": "s", "identities.identity_s": "s",
    "identities.toth_s": "s", "identities.call_p50_us": "us",
    "identities.call_tail_us": "us", "identities.call_samples": "count",
    "identities.divisor_pairs": "count",
    "asymptotics.mu_delta_s": "s", "asymptotics.summatory_s": "s",
    "asymptotics.delta_s": "s", "asymptotics.main_term_s": "s",
    "asymptotics.scan_self_s": "s",
    "series.compare_s": "s", "series.bracket_s": "s", "series.report_s": "s",
    "zeta.eval_s": "s", "zeta.evals": "count",
    "csvio.write_s": "s", "csvio.rows": "count",
    "cli.import_s": "s", "process.wall_s": "s", "process.cpu_s": "s",
    "trace.coverage": "ratio", "trace.overhead_s": "s",
}


def tail_percentile(count: int) -> float | None:
    """Highest of p50, p90, p99, p99.9, ... with >= 10 samples beyond it."""
    best, p = None, 50.0
    while count * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
        best = p
        p = 90.0 if p == 50.0 else 100.0 - (100.0 - p) / 10.0
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100.0))
    return ordered[int(rank) - 1]


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span of one command (rows index their parent)."""
    own = [row[2] - row[1] for row in spans]
    for row in spans:
        if row[3] >= 0:
            own[row[3]] -= row[2] - row[1]
    return own


def _outermost(spans: list[list], names: tuple[str, ...]) -> list[list]:
    """Spans in names whose parent is not itself in names."""
    return [row for row in spans
            if row[0] in names and (row[3] < 0 or spans[row[3]][0] not in names)]


def layer_metrics(commands: list[dict]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics over the traced children of one run.

    ``commands`` holds one trace_child result per command, each with its
    ``spans`` and ``divisor_pairs``.  Returns the metrics (without the
    process and trace ones, which need the untraced run) and notes.
    """
    out = {name: 0.0 for name in SELF_TIME}
    counts = {"tables.sieve_calls": 0, "tables.sieve_entries": 0,
              "stirling.table_calls": 0, "identities.divisor_pairs": 0,
              "zeta.evals": 0, "csvio.rows": 0}
    per_k_us: list[float] = []
    imports: list[float] = []
    for result in commands:
        spans = result["spans"]
        for row, own in zip(spans, self_times(spans)):
            if row[0] in _METRIC_OF:
                out[_METRIC_OF[row[0]]] += own
        sieves = _outermost(spans, SIEVE)
        counts["tables.sieve_calls"] += len(sieves)
        counts["tables.sieve_entries"] += sum(row[5] for row in sieves)
        for row in spans:
            name = row[0]
            if name == "stirling.log_factorial_table":
                counts["stirling.table_calls"] += 1
            elif name in ("zeta.zeta", "zeta.zeta_prime"):
                counts["zeta.evals"] += 1
            elif name == "csvio.write_rows":
                counts["csvio.rows"] += row[5]
            elif name == "cli.import":
                imports.append(row[2] - row[1])
            if name in PER_K and row[3] >= 0 and spans[row[3]][0] == "cli.main":
                per_k_us.append((row[2] - row[1]) * 1e6)
        counts["identities.divisor_pairs"] += result["divisor_pairs"]

    out.update({k: float(v) for k, v in counts.items()})
    out["cli.import_s"] = median(imports) if imports else 0.0
    tail = tail_percentile(len(per_k_us))
    out["identities.call_samples"] = float(len(per_k_us))
    out["identities.call_p50_us"] = median(per_k_us) if per_k_us else 0.0
    out["identities.call_tail_us"] = (percentile(per_k_us, tail)
                                      if tail is not None else 0.0)
    return out, {"call_tail_percentile": tail}


def top_level_seconds(commands: list[dict]) -> float:
    """Sum of the durations of spans that have no parent."""
    return sum(row[2] - row[1] for result in commands
               for row in result["spans"] if row[3] < 0)
