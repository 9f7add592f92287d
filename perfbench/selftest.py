"""Self-test of the benchmark's computed counts and output checks.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

1. Each small command is traced twice, each time in a fresh child; the
   computed counts must repeat exactly.
2. The same command runs once more without instrumentation under a
   ``sys.setprofile`` observer that counts sieve calls and entries from
   the call frames and enumerates the identity double loop's (d, l)
   pairs one by one; the traced counts must equal these brute-force counts.
3. The output checks must reject corrupted CSV.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from run import child_env  # noqa: E402

SMALL_COMMANDS = [
    ("series", "--which", "identity", "--f", "phi", "--g", "one", "--s", "3",
     "--K", "10,100,1000"),
    ("series", "--which", "bracket", "--f", "id", "--s", "3", "--K", "1000"),
    ("identity", "--which", "apostol", "--f", "idpow:0.5", "--g", "mu",
     "--kmax", "200"),
    ("scan", "--target", "jordan-log-avg", "--a", "-0.5",
     "--grid", "1100,1500,2000"),
]
# repeatability also at a workload's own size
FULL_COMMANDS = [
    ("series", "--which", "identity", "--f", "id", "--g", "mu", "--s", "4",
     "--K", "100,1000,10000,100000"),
]
COUNTED = ("tables.sieve_calls", "tables.sieve_entries",
           "identities.divisor_pairs")


def _child(script_args: list[str], out_path: Path) -> dict:
    subprocess.run([sys.executable, *script_args], env=child_env(ROOT), cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    try:
        return json.loads(out_path.read_text())
    finally:
        out_path.unlink(missing_ok=True)


def traced_counts(argv: tuple[str, ...], out_path: Path) -> dict[str, float]:
    result = _child([str(HERE / "trace_child.py"), str(out_path), "0", "--",
                     *argv], out_path)
    if result["rc"] != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {result['rc']}")
    metrics, _ = layers.layer_metrics([result])
    return {k: v for k, v in metrics.items() if layers.UNITS[k] == "count"}


def brute_counts(argv: tuple[str, ...], out_path: Path) -> dict[str, float]:
    return _child([str(Path(__file__).resolve()), "--brute", str(out_path),
                   "--", *argv], out_path)


def _brute_child(out_path: str, argv: list[str]) -> None:
    """Count sieve calls, entries and loop pairs by observing call frames."""
    import contextlib
    import io

    from gcdsums import cli, identities, tables

    sieve_codes = {tables.sieve.__code__, tables.sieve_values.__code__}
    pair_code = identities.identity_sum_table.__code__
    counts = {k: 0 for k in COUNTED}
    depth = [0]

    def observe(frame, event, arg):
        code = frame.f_code
        if code in sieve_codes:
            if event == "call":
                if depth[0] == 0:
                    counts["tables.sieve_calls"] += 1
                    counts["tables.sieve_entries"] += frame.f_locals["n_max"]
                depth[0] += 1
            elif event == "return":
                depth[0] -= 1
        elif code is pair_code and event == "call":
            fv, n = frame.f_locals["fv"], frame.f_locals["n"]
            for d in range(1, n + 1):
                if fv[d] != 0:
                    for _ in range(1, n // d + 1):
                        counts["identities.divisor_pairs"] += 1

    sys.setprofile(observe)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    finally:
        sys.setprofile(None)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    Path(out_path).write_text(json.dumps({k: float(v) for k, v in counts.items()}))


def check_rejections() -> list[str]:
    """Corrupted outputs that the workload checks must reject."""
    problems = []
    scan = workloads.check_scan("tau_over_n")
    exact = workloads.naive_statistic("tau_over_n")
    header = "x,exact,main,correction,residual,normalized\n"
    rows = "".join(f"{x},{exact!r},1,0,0,0\n" for x in
                   (1000, 3162, 10000, 31623, 100000, 316228, 1000000))
    cases = {
        "good scan": (scan, header + rows, False),
        "scan exact off by 1e-6": (scan, header + rows.replace(
            repr(exact), repr(exact * (1 + 1e-6)), 1), True),
        "scan nan": (scan, header + rows.replace(",0,0,0\n", ",0,0,nan\n", 1), True),
        "scan short": (scan, header + rows.split("\n", 1)[1], True),
        "identity gap over tol": (workloads.check_identity("apostol", 2),
                                  "k,direct,identity,abs_gap\n1,0,0,0\n"
                                  f"2,1,1.00001,{abs(1 - 1.00001)!r}\n", True),
        "identity gap not |d - i|": (workloads.check_identity("apostol", 1),
                                     "k,direct,identity,abs_gap\n1,1,1,1e-12\n", True),
        "bracket outside": (workloads.check_bracket,
                            "s,K,lhs,lo,hi\n3,1000,2,0,1\n", True),
    }
    for name, (check, text, should_fail) in cases.items():
        if bool(check(text)) != should_fail:
            problems.append(f"check {name!r}: expected "
                            f"{'rejection' if should_fail else 'acceptance'}")
    return problems


def main() -> int:
    if sys.argv[1:2] == ["--brute"]:
        _brute_child(sys.argv[2], sys.argv[4:])
        return 0
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"selftest-{os.getpid()}.json"
    problems = check_rejections()
    for argv in SMALL_COMMANDS + FULL_COMMANDS:
        first = traced_counts(argv, out_path)
        second = traced_counts(argv, out_path)
        label = " ".join(argv)
        if first != second:
            problems.append(f"{label}: counts differ across runs: {first} {second}")
        if argv in SMALL_COMMANDS:
            brute = brute_counts(argv, out_path)
            for key in COUNTED:
                if first[key] != brute[key]:
                    problems.append(f"{label}: {key} {first[key]} != brute {brute[key]}")
        print(f"{label}: " + ", ".join(f"{k}={first[k]:.0f}" for k in COUNTED))
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
