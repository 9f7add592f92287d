"""The program entry ``cli.run``: a command's process ends by ``os._exit``
once its output is flushed, and by the ordinary exit where that matters."""

import io
import os
import signal
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from gcdsums import cli

SRC = Path(cli.__file__).resolve().parents[1]
ROOT = SRC.parent
# children buffer their stdout, so the last rows wait for run()'s flush;
# argparse wraps its usage line to the terminal width: fix it on both sides
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": str(SRC), "COLUMNS": "80"}
TOTH = ["identity", "--which", "toth", "--kmax", "10000"]


def _command(argv, **kwargs):
    """``python -m gcdsums.cli argv`` in a child, its output as bytes."""
    return subprocess.run([sys.executable, "-m", "gcdsums.cli", *argv],
                          env=ENV, capture_output=True, **kwargs)


def _in_process(argv, capfdbinary, monkeypatch):
    """Exit status, stdout and stderr bytes of ``cli.main(argv)``; an
    argparse error's ``SystemExit`` gives its code."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    sys.stderr.flush()
    out, err = capfdbinary.readouterr()
    return code, out, err


def _contract_cases(tmp):
    calibration = tmp / "calibration.txt"
    calibration.write_text("tau-log-avg,,1e-12\n")
    return {
        "exit-0": (TOTH, 0),
        "exit-1": (["scan", "--target", "tau-log-avg", "--grid",
                    "geom:1e2,1e3,2", "--check", "--calibration",
                    str(calibration)], 1),
        "exit-2": (["identity", "--which", "toth", "--kmax", "0"], 2),
        "exit-2-argparse": (["scan", "--target", "not-a-target"], 2),
    }


@pytest.mark.parametrize("case", ["exit-0", "exit-1", "exit-2",
                                  "exit-2-argparse"])
def test_process_output_equals_main_in_process(tmp_path, capfdbinary,
                                                monkeypatch, case):
    # the status and every byte of stdout and stderr survive the exit
    # that skips teardown; toth's 10^4 rows outgrow every buffer
    argv, code = _contract_cases(tmp_path)[case]
    done = _command(argv)
    assert _in_process(argv, capfdbinary, monkeypatch) == (
        done.returncode, done.stdout, done.stderr)
    assert done.returncode == code
    if case == "exit-0":
        assert done.stdout.count(b"\n") == 10001


def test_out_file_is_complete(tmp_path):
    out = tmp_path / "toth.csv"
    done = _command([*TOTH, "--out", str(out)])
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert out.read_bytes() == _command(TOTH).stdout


def test_closed_pipe_ends_by_sigpipe():
    # the reader takes one line and closes the pipe: the command ends as
    # cat does, with no traceback
    proc = subprocess.Popen([sys.executable, "-m", "gcdsums.cli", *TOTH],
                            env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"k,direct,identity,abs_gap\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == -signal.SIGPIPE
    assert err == b""


def test_profiler_still_prints_its_stats():
    # cProfile writes its table after the module returns: run() must take
    # the ordinary exit under it
    done = subprocess.run([sys.executable, "-m", "cProfile", "-m",
                           "gcdsums.cli", "sieve", "--spec", "mu", "--nmax",
                           "10"], env=ENV, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("n,value\n1,1\n2,-1\n")
    assert "function calls" in done.stdout
    assert "Ordered by: cumulative time" in done.stdout


# run by a child: an atexit hook, then cli.run() on a sieve command,
# with a tracer set when the first argument is "trace"
_ATEXIT = """import atexit, sys
atexit.register(print, "atexit ran", file=sys.stderr)
if sys.argv.pop(1) == "trace":
    sys.settrace(lambda *args: None)
from gcdsums import cli
sys.argv[1:] = ["sieve", "--spec", "mu", "--nmax", "3"]
cli.run()"""


@pytest.mark.parametrize("mode, hook_runs", [("plain", False),
                                             ("trace", True)])
def test_atexit_hooks_run_only_under_a_tracer(mode, hook_runs):
    done = subprocess.run([sys.executable, "-c", _ATEXIT, mode], env=ENV,
                          capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout == "n,value\n1,1\n2,-1\n3,-1\n"
    assert done.stderr == ("atexit ran\n" if hook_runs else "")


def test_run_exits_ordinarily_when_a_flush_fails(monkeypatch):
    # the interpreter's own exit then flushes again and reports the error
    class Full(io.StringIO):
        def flush(self):
            raise OSError(28, "No space left on device")

    def exit_now(code):
        raise AssertionError(f"os._exit({code}) after a failed flush")
    monkeypatch.setattr(cli.os, "_exit", exit_now)
    monkeypatch.setattr(signal, "signal", lambda *args: None)
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.setattr(sys, "stdout", Full())
    monkeypatch.setattr(sys, "argv", ["gcdsums", "sieve", "--spec", "mu",
                                      "--nmax", "3"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0
    assert sys.stdout.getvalue() == "n,value\n1,1\n2,-1\n3,-1\n"


def test_console_script_is_run():
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"gcdsums": "gcdsums.cli:run"}
