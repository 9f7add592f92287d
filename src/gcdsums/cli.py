"""Command-line front end.

Commands:
  sieve     dump a function table as CSV (``n,value``)
  identity  per-k identity audits (``k,direct,identity,abs_gap``)
  scan      residual scan of a summatory target over an x grid
  delta     divisor-problem remainder diagnostics
  series    truncated Dirichlet series vs closed forms

Function arguments use the ``name[:param]`` grammar (``mu``, ``id``,
``one``, ``idpow:-0.5``, ``jordan:0.5``, ``conv:tau,one``).  Grids are
``geom:lo,hi,points`` (rounded to integers) or comma-separated values.

This module imports only what every command shares; each command imports
its own modules, and ``scan --target`` is checked against the registries
once they are loaded.

Exit status: 0 on success, 1 when a checked invariant fails (a JSON
report naming the violation is printed), 2 on unusable arguments, a file
argument that cannot be read or written included.  ``scan --check`` reads
its entry and then its calibration row before it scans, so an ``--a``
the entry does not take, a missing row or a malformed calibration file
exits 2 with nothing on stdout.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import csvio
from .errors import DomainError
from .tables import ID, MU, blocks, cut, parse_spec, sieve

IDENTITY_TOL = {"apostol": 1e-9, "toth": 1e-10, "cesaro": 1e-10}


def _parse_grid(text: str) -> np.ndarray:
    from .asymptotics import standard_grid
    try:
        if text.startswith("geom:"):
            parts = text[5:].split(",")
            if len(parts) != 3:
                raise DomainError(f"bad grid spec {text!r}")
            lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
            return standard_grid(lo, hi, points)
        return np.asarray([float(v) for v in text.split(",")],
                          dtype=np.float64)
    except DomainError:
        raise
    except ValueError as exc:
        raise DomainError(f"bad grid spec {text!r}: {exc}") from None


def _parse_counts(text: str) -> list[int]:
    """Sorted distinct integers of a comma list such as ``10,100,1000``."""
    try:
        return sorted({int(v) for v in text.split(",")})
    except ValueError as exc:
        raise DomainError(f"bad count list {text!r}: {exc}") from None


def _fail(report: dict) -> int:
    import json  # only a failed check prints JSON
    print(json.dumps(report, sort_keys=True))
    return 1


def cmd_sieve(args) -> int:
    # streamed a block at a time: no table of nmax entries is held
    csvio.write_table(blocks(parse_spec(args.spec or args.f), args.nmax),
                      args.out)
    return 0


def cmd_identity(args) -> int:
    from . import identities
    tol = IDENTITY_TOL[args.which]
    # every audit lists the divisors of each k <= kmax: reject its size
    # before the sieves of f and g are built
    cut(args.kmax)
    if args.which == "toth":
        sides = identities.toth_audits(args.kmax)
    else:
        f = sieve(parse_spec(args.f), args.kmax)
        sides = (identities.cesaro_audits(f, args.kmax) if args.which == "cesaro"
                 else identities.apostol_audits(
                     f, sieve(parse_spec(args.g), args.kmax), args.kmax))
    worst = [0.0, None]

    def rows():  # streamed: each row is written as its batch forms it
        for k, (lhs, rhs) in enumerate(sides, 1):
            gap = abs(lhs - rhs)
            rel = gap / (1.0 + abs(lhs))
            if rel > worst[0]:
                worst[:] = rel, k
            yield k, lhs, rhs, gap

    csvio.write_rows("k,direct,identity,abs_gap", rows(), args.out)
    if worst[0] > tol:
        return _fail({"invariant": f"{args.which}-identity",
                      "k": worst[1], "relative_gap": worst[0], "limit": tol})
    return 0


def cmd_scan(args) -> int:
    from . import asymptotics
    grid = _parse_grid(args.grid)
    a_text = f"{args.a:g}" if args.a is not None else ""
    limit = None
    # the entry, then the row, are resolved before the scan, so an --a the
    # entry does not take, a missing row or an unusable file prints
    # nothing to stdout
    asymptotics._lookup(args.target, args.a)
    if args.check and not args.write_calibration:
        calibration = asymptotics.load_calibration(args.calibration)
        key = (args.target, a_text)
        if key not in calibration:
            raise DomainError(f"no calibration row for {key}")
        limit = 2.0 * calibration[key]
    scan = asymptotics.residual_scan(args.target, grid, args.a)
    csvio.write_rows("x,exact,main,correction,residual,normalized",
                     scan.rows(), args.out)
    if args.write_calibration:
        asymptotics.write_calibration(
            [(args.target, a_text, scan.max_normalized())],
            args.write_calibration)
    if limit is not None and scan.max_normalized() > limit:
        return _fail({"invariant": "residual-regression",
                      "target": args.target,
                      "max_normalized": scan.max_normalized(),
                      "limit": limit})
    return 0


def cmd_delta(args) -> int:
    from . import asymptotics
    if args.which == "point":
        grid = _parse_grid(args.grid)
        values = asymptotics.divisor_delta_grid(grid, args.a)
        csvio.write_rows("x,delta", zip(grid, values), args.out)
    elif args.which == "integral":
        if args.a is not None:
            raise DomainError(f"delta --which integral takes no exponent a "
                              f"(got a={args.a})")
        grid = _parse_grid(args.grid)
        values = [asymptotics.delta_integral_ratio(x) for x in grid]
        csvio.write_rows("X,ratio", zip(grid, values), args.out)
    else:  # series
        if args.a is None:
            raise DomainError("delta --which series requires --a")
        k_values = _parse_counts(args.K)
        exact = asymptotics.divisor_delta_a(args.xmax, args.a)
        rows = []
        for n_terms in k_values:
            approx = asymptotics.divisor_delta_a_series(args.xmax, args.a,
                                                        n_terms)
            rows.append((n_terms, approx, exact, abs(exact - approx)))
        csvio.write_rows("N,truncated,exact,gap", rows, args.out)
    return 0


def cmd_series(args) -> int:
    from . import series
    k_values = _parse_counts(args.K)
    n_max = max(k_values)
    if args.which == "identity":
        f = blocks(parse_spec(args.f), n_max)
        g = blocks(parse_spec(args.g), n_max)
        rows = [(cmp.s, cmp.truncation, cmp.lhs, cmp.rhs, cmp.gap) for cmp
                in series.series_identity_grid(f, g, args.s, k_values)]
        csvio.write_rows("s,K,lhs,rhs,gap", rows, args.out)
        gaps = [r[4] for r in rows]
        for prev, cur in zip(gaps, gaps[1:]):
            if cur > 1.5 * prev:
                return _fail({"invariant": "series-gap-trend",
                              "s": args.s, "gaps": gaps})
        return 0
    if args.which == "bracket":
        brackets = series.series_theta_bracket(
            blocks(parse_spec(args.f), n_max), args.s, k_values)
        csvio.write_rows("s,K,lhs,lo,hi", [(b.s, b.truncation, b.lhs, b.lo,
                                            b.hi) for b in brackets], args.out)
        if not all(b.contains for b in brackets):
            return _fail({"invariant": "series-theta-bracket", "s": args.s})
        return 0
    # mu-report: compare the two closed-form candidates for the id,mu series
    rows = [(r.s, r.truncation, r.lhs, int(r.matches_constant_tail),
             int(r.matches_ratio_tail)) for r in series.mu_series_report(
                 args.s, k_values, blocks(ID, n_max), blocks(MU, n_max))]
    csvio.write_rows("s,K,lhs,matches_constant_tail,matches_ratio_tail",
                     rows, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcdsums",
        description="Diagnostics for logarithm-weighted gcd-sum averages.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="dump a function table as CSV")
    p.add_argument("--spec", help="function spec (name[:param])")
    p.add_argument("--f", help="alias for --spec")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sieve)

    p = sub.add_parser("identity", help="per-k identity audits")
    p.add_argument("--which", choices=sorted(IDENTITY_TOL), default="apostol")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--f", default="id")
    p.add_argument("--g", default="mu")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_identity)

    p = sub.add_parser("scan", help="residual scan over an x grid")
    # checked by main against the registries, which load with the scan
    p.add_argument("--target", required=True,
                   help="a scan target or summatory statistic")
    p.add_argument("--grid", default="geom:1e3,1e6,7")
    p.add_argument("--a", type=float)
    p.add_argument("--check", action="store_true",
                   help="compare against the calibration file")
    p.add_argument("--calibration", help="calibration file path")
    p.add_argument("--write-calibration", metavar="PATH",
                   help="write this scan's normalized maximum to PATH")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("delta", help="divisor remainder diagnostics")
    p.add_argument("--which", choices=["point", "integral", "series"],
                   default="point")
    p.add_argument("--grid", default="geom:1e3,1e6,4")
    p.add_argument("--a", type=float)
    p.add_argument("--xmax", type=float, default=1e4)
    p.add_argument("--K", default="10,100,1000",
                   help="truncation counts for --which series")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("series", help="Dirichlet series comparisons")
    p.add_argument("--which", choices=["identity", "bracket", "mu-report"],
                   default="identity")
    p.add_argument("--f", default="one")
    p.add_argument("--g", default="one")
    p.add_argument("--s", type=float, default=3.0)
    p.add_argument("--K", default="100,1000,10000")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_series)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sieve" and not (args.spec or args.f):
        parser.error("sieve requires --spec")
    if args.command == "scan":
        from .asymptotics import SCAN_TARGETS, STATISTICS
        names = sorted(SCAN_TARGETS) + sorted(STATISTICS)
        if args.target not in names:
            parser.error(f"argument --target: invalid choice: "
                         f"{args.target!r} (choose from "
                         f"{', '.join(map(repr, names))})")
    try:
        return args.fn(args)
    except DomainError as exc:
        message = str(exc)
    except OSError as exc:
        # a named path is one of the file arguments (--out, --calibration,
        # --write-calibration) that cannot be read or written
        if exc.filename is None:
            raise
        message = f"cannot use {exc.filename}: {exc.strerror}"
    print(f"error: {message}", file=sys.stderr)
    print(parser.format_usage(), file=sys.stderr, end="")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
