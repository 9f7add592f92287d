"""Benchmark of the gcdsums CLI: cold commands, one child process at a time.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload scan-targets --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0

Each workload is a fixed list of CLI commands (see workloads.py).  One
client issues them one after another (a closed loop), each in a fresh
interpreter so every cache starts cold, as a user's ``gcdsums ...`` does.
The seed sets only the order of the commands.  With ``--trace 0`` the run
repeats the whole list until ``--seconds`` have passed (at least once) and
reports the end-to-end metrics; with ``--trace 1`` it makes one untraced
and one traced pass and reports the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 15
# a run must end within 180 s; stop the child and fail before that
RUN_DEADLINE_S = 170
END_TO_END = {"setup_s": "s", "norm_cpu_s": "s", "peak_rss_mb": "MB"}
# setup_s and norm_cpu_s are CPU times on a vCPU that runs the HostSpeed
# loop in REF_NOMINAL_S; the loop runs for REF_FIRST_S before a run and for
# REF_SHARE of each command's CPU time after it
REF_NOMINAL_S = 0.07
REF_FIRST_S = 0.3
REF_SHARE = 0.1
# one BLAS thread: the children are pinned to one vCPU, where a second BLAS
# thread could only wait its turn and spin, adding to their CPU time
BLAS_THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS")}


def child_env(root: Path) -> dict:
    """The environment with the checkout's src tree first on PYTHONPATH."""
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, **BLAS_THREADS,
                PYTHONPATH=f"{src}:{path}" if path else src)


@dataclass
class Outcome:
    """One command's run: time, resources and the problems found."""

    label: str
    seconds: float
    cpu_s: float
    rss_mb: float
    problems: list[str]
    traced: bool = False


class Runner:
    """Starts one child at a time, in the checkout, against its src tree."""

    def __init__(self, root: Path, cpu: int):
        """Every child runs pinned to vCPU ``cpu``."""
        self.root = root
        self.env = child_env(root)
        self.cpu = cpu
        self.current: subprocess.Popen | None = None
        OUT.mkdir(exist_ok=True)

    def spawn(self, argv: list[str]) -> tuple[float, int, object, str, str]:
        """Run argv to completion: (wall s, exit code, rusage, stdout, stderr)."""
        out_path, err_path = OUT / f"stdout-{os.getpid()}", OUT / f"stderr-{os.getpid()}"
        try:
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                start = time.perf_counter()
                self.current = subprocess.Popen(
                    argv, stdout=out, stderr=err, env=self.env, cwd=self.root,
                    preexec_fn=lambda: os.sched_setaffinity(0, {self.cpu}))
                _, status, usage = os.wait4(self.current.pid, 0)
                seconds = time.perf_counter() - start
                code = os.waitstatus_to_exitcode(status)
                self.current.returncode = code
                self.current = None
            return (seconds, code, usage, out_path.read_text(),
                    err_path.read_text())
        finally:
            out_path.unlink(missing_ok=True)
            err_path.unlink(missing_ok=True)

    def kill(self) -> None:
        proc = self.current
        if proc is not None and proc.returncode is None:
            proc.kill()
            proc.wait()

    def setup_seconds(self) -> float:
        """CPU time from a fresh interpreter to ``import gcdsums.cli`` done."""
        code = ("import time, gcdsums.cli; "
                "print(time.process_time(), gcdsums.cli.__file__)")
        _, rc, _, out, err = self.spawn([sys.executable, "-c", code])
        if rc != 0:
            raise RuntimeError(f"import gcdsums.cli failed: {err.strip()}")
        done, path = out.split()
        if not Path(path).resolve().is_relative_to(self.root / "src"):
            raise RuntimeError(f"imported {path}, not the checkout's src")
        return float(done)

    def command(self, cmd: workloads.Command) -> Outcome:
        seconds, rc, usage, out, err = self.spawn(
            [sys.executable, "-m", "gcdsums.cli", *cmd.argv])
        problems = [f"exit status {rc}: {(out + err).strip()[-300:]}"] if rc else []
        problems += [] if rc else cmd.check(out)
        return Outcome(cmd.label, seconds, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, problems)

    def traced(self, cmd: workloads.Command, cmd_id: int) -> tuple[Outcome, dict]:
        span_path = OUT / f"trace-{os.getpid()}.json"
        try:
            seconds, rc, usage, out, err = self.spawn(
                [sys.executable, str(HERE / "trace_child.py"), str(span_path),
                 str(cmd_id), "--", *cmd.argv])
            if rc != 0:
                raise RuntimeError(f"trace child failed: {err.strip()[-300:]}")
            result = json.loads(span_path.read_text())
        finally:
            span_path.unlink(missing_ok=True)
        problems = ([f"exit status {result['rc']}: {result['error'] or result['stdout'][-300:]}"]
                    if result["rc"] else cmd.check(result["stdout"]))
        return (Outcome(cmd.label, seconds, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0, problems, traced=True), result)


class HostSpeed:
    """How fast the children's vCPU runs now.

    The host's other tenants slow this guest's vCPUs by tens of percent, in
    phases that last seconds to minutes, and the two vCPUs can differ by 2x
    at the same moment.  So every child is pinned to one vCPU, and between
    commands this loop runs on that same vCPU, timed in this thread's CPU
    time.  It is a frozen copy of the program's two kinds of work, in about
    equal shares: the sieve loop ``out[d::d] += f[d] * g[1:n // d + 1]``,
    and per-k calls (trial division, ``np.gcd``, a log-factorial prefix and
    a dot product).  It is not part of the program, so a program that gets
    faster shows it in full.
    """

    SIEVE_N = 1 << 14
    CALLS_K = 1000

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.f = np.arange(self.SIEVE_N + 1, dtype=float)
        self.g = np.ones(self.SIEVE_N + 1)
        self.out = np.zeros(self.SIEVE_N + 1)
        self.ks = np.arange(1, self.CALLS_K + 1)
        self.logs = np.log(self.ks.astype(float))
        self.samples: list[float] = []
        self.sample(0.0)  # touch every page before the first timed sample
        self.samples.clear()

    def _loop(self) -> float:
        n, f, g, out = self.SIEVE_N, self.f, self.g, self.out
        out[:] = 0
        for d in range(1, n + 1):
            out[d::d] += f[d] * g[1:n // d + 1]
        acc = 0.0
        for k in range(1, self.CALLS_K):
            divisors = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
            acc += float(np.dot(np.gcd(self.ks[:k], k),
                                np.cumsum(self.logs[:k]))) + len(divisors)
        return acc

    def sample(self, seconds: float) -> None:
        """Time the loop, at least once, until ``seconds`` of CPU are spent."""
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        try:
            spent = 0.0
            while not self.samples or spent < seconds:
                start = time.thread_time()
                self._loop()
                self.samples.append(time.thread_time() - start)
                spent += self.samples[-1]
        finally:
            os.sched_setaffinity(0, allowed)


def machine_record(runner: Runner, workload: str, seed: int) -> dict:
    info = {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "pinned_cpu": runner.cpu,
            "python": platform.python_version(),
            "platform": platform.platform()}
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        info["cpu_model"] = next((line.split(":", 1)[1].strip()
                                  for line in cpuinfo.splitlines()
                                  if line.startswith("model name")), None)
    except OSError:
        info["cpu_model"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    info["blas_threads"] = {k: runner.env.get(k) for k in BLAS_THREADS}
    _, rc, _, out, _ = runner.spawn([sys.executable, "-c",
                                     "import numpy; print(numpy.__version__)"])
    info["numpy"] = out.strip() if rc == 0 else None
    info["git_commit"] = None
    if (runner.root / ".git").exists():
        try:
            info["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=runner.root,
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((runner.root / "src").rglob("*.py")):
        digest.update(path.relative_to(runner.root).as_posix().encode())
        digest.update(path.read_bytes())
    info["src_sha256"] = digest.hexdigest()[:16]
    return info


def run_workload(runner: Runner, name: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, float]:
    """The run's result line, and the median wall time of its passes."""
    cmds = workloads.commands(name, runner.root)
    random.Random(seed).shuffle(cmds)
    print(json.dumps({"machine": machine_record(runner, name, seed)}), flush=True)

    # sample the vCPU's speed before the run and after each command, for
    # REF_SHARE of the CPU time the command took
    speed = HostSpeed(runner.cpu)
    speed.sample(REF_FIRST_S)
    setup = [] if trace else [runner.setup_seconds() for _ in range(SETUP_SAMPLES)]
    passes: list[list[Outcome]] = []
    start = time.monotonic()
    while not passes or (not trace and time.monotonic() - start < seconds):
        passes.append([])
        for cmd in cmds:
            passes[-1].append(runner.command(cmd))
            speed.sample(REF_SHARE * passes[-1][-1].cpu_s)
        print(json.dumps({"pass": len(passes),
                          "cpu_s": round(sum(o.cpu_s for o in passes[-1]), 4),
                          "wall_s": round(sum(o.seconds for o in passes[-1]), 4)}),
              flush=True)
    outcomes = [o for p in passes for o in p]
    wall = statistics.median([sum(o.seconds for o in p) for p in passes])
    ref = statistics.mean(speed.samples)
    print(json.dumps({"reference": {"mean_s": round(ref, 5),
                                    "samples": len(speed.samples)}}), flush=True)

    if not trace:
        scale = REF_NOMINAL_S / ref
        metrics = {
            "setup_s": statistics.median(setup) * scale,
            "norm_cpu_s": statistics.median(
                [sum(o.cpu_s for o in p) for p in passes]) * scale,
            "peak_rss_mb": max(o.rss_mb for o in outcomes),
        }
        units = END_TO_END
    else:
        traced = [runner.traced(cmd, i) for i, cmd in enumerate(cmds)]
        results = [r for _, r in traced]
        outcomes += [o for o, _ in traced]
        untraced_wall = sum(o.seconds for o in passes[0])
        traced_wall = sum(o.seconds for o, _ in traced)
        metrics, notes = layers.layer_metrics(results)
        metrics["process.wall_s"] = untraced_wall
        metrics["process.cpu_s"] = sum(o.cpu_s for o in passes[0])
        metrics["trace.coverage"] = layers.top_level_seconds(results) / traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        spans_path = OUT / f"spans-{name}.jsonl"
        with open(spans_path, "w") as fh:
            for (o, r) in traced:
                fh.write(json.dumps({"command": o.label, "spans": r["spans"]},
                                    separators=(",", ":")) + "\n")
        spans_file = str(spans_path.relative_to(runner.root))
        print(json.dumps({"trace": {**notes, "spans_file": spans_file}}), flush=True)
        units = layers.UNITS

    for o in outcomes:
        print(json.dumps({"command": o.label, "traced": o.traced,
                          "wall_s": round(o.seconds, 4),
                          "cpu_s": round(o.cpu_s, 4),
                          "rss_mb": round(o.rss_mb, 1),
                          "problems": o.problems}), flush=True)
    failed = sum(1 for o in outcomes if o.problems)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }, wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gcdsums" / "cli.py").is_file():
        print(f"error: no gcdsums source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(ROOT, max(os.sched_getaffinity(0)))

    def on_deadline(signum, frame):
        runner.kill()
        print("error: run exceeded its deadline", file=sys.stderr)
        raise SystemExit(3)

    if args.workload != "all":
        signal.signal(signal.SIGALRM, on_deadline)
        signal.alarm(RUN_DEADLINE_S)
        result, _ = run_workload(runner, args.workload, args.seed, args.seconds,
                                 bool(args.trace))
        signal.alarm(0)
        print(json.dumps(result))
        return 0

    summary, walls = {}, {}
    for name in workloads.WORKLOADS:
        summary[name], walls[name] = run_workload(runner, name, args.seed,
                                                  args.seconds, bool(args.trace))
    print()
    for name, result in summary.items():
        cells = [f"{k}={m['value']:.4g} {m['unit']}"
                 for k, m in result["metrics"].items()]
        cells.append(f"wall_s={walls[name]:.4g} s")
        cells.append(f"failed_frac={result['failed'] / result['attempted']:.4g} ratio")
        print(f"{name:16s} " + "  ".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{name}.{k}": m for name, r in summary.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
