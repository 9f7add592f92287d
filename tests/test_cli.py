import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gcdsums as G
from gcdsums import cli, csvio, sieve, MU
from gcdsums.tables import MAX_SIEVE

from oracles import format_value, read_table_values


def run_cli(args):
    return cli.main(args)


def test_sieve_mu_values(tmp_path, capsys):
    out = tmp_path / "mu.csv"
    assert run_cli(["sieve", "--spec", "mu", "--nmax", "10",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,value"
    values = [int(line.split(",")[1]) for line in lines[1:]]
    assert values == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_table_round_trip(tmp_path):
    table = sieve(MU, 257)
    out = tmp_path / "t.csv"
    csvio.write_table(table, out)
    back = read_table_values(out)
    assert np.array_equal(back, table.values)


def test_write_rows_equals_format_value_per_cell():
    # one %-format per row, made once per tuple of cell types, gives the
    # text of format_value cell by cell, whatever the types of a row
    cells = [0, -7, 2 ** 70, True, np.int64(-3), np.int8(5),
             np.uint64(2 ** 63),
             0.0, -0.0, 1.0, -1.5e-300, 5e-324, 1 / 3, 2.0 ** 60,
             float("inf"), float("-inf"), float("nan"), np.float64(-0.0),
             np.float64(np.pi), np.float32(0.1), np.float64("nan")]
    rows = [(k, cells[k], cells[-1 - k]) for k in range(len(cells))]
    rows += [tuple(cells), (np.float64(1.25), 3), [2, 0.5]]
    out = io.StringIO()
    csvio.write_rows("a,b,c", rows, out)
    text = out.getvalue()
    want = "a,b,c\n" + "".join(
        ",".join(format_value(v) for v in row) + "\n" for row in rows)
    assert text == want


def test_round_trip_float_table(tmp_path):
    from gcdsums import sigma_pow
    table = sieve(sigma_pow(-0.5), 300)
    out = tmp_path / "t.csv"
    csvio.write_table(table, out)
    back = read_table_values(out)
    assert np.array_equal(back, table.values)


def test_identity_command_toth(tmp_path):
    out = tmp_path / "toth.csv"
    assert run_cli(["identity", "--which", "toth", "--kmax", "100",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,direct,identity,abs_gap"
    assert len(lines) == 101
    gaps = [float(line.split(",")[3]) for line in lines[1:]]
    assert max(gaps) < 1e-10


def test_identity_command_apostol(tmp_path):
    out = tmp_path / "a.csv"
    assert run_cli(["identity", "--which", "apostol", "--kmax", "50",
                    "--f", "idpow:0.5", "--g", "mu", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 51


def _per_k_row(which, f, g, k):
    if which == "apostol":
        lhs = G.apostol_log_sum_direct(f, g, k)
        rhs = G.apostol_log_sum(f, g, k)
    elif which == "toth":
        lhs, rhs = G.toth_identity(k)
    else:
        lhs, rhs = G.cesaro_identity(f, k)
    return k, lhs, rhs, abs(lhs - rhs)


@pytest.mark.parametrize("which, f, g", [
    ("apostol", "id", "mu"), ("apostol", "one", "one"),
    ("apostol", "phi", "one"), ("apostol", "idpow:0.5", "mu"),
    ("toth", "id", "mu"), ("cesaro", "id", "mu"), ("cesaro", "log", "mu")])
def test_identity_stdout_equals_per_k_rows(capsys, which, f, g):
    kmax = 300
    assert run_cli(["identity", "--which", which, "--kmax", str(kmax),
                    "--f", f, "--g", g]) == 0
    ft, gt = sieve(G.parse_spec(f), kmax), sieve(G.parse_spec(g), kmax)
    rows = [_per_k_row(which, ft, gt, k) for k in range(1, kmax + 1)]
    expected = io.StringIO()
    csvio.write_rows("k,direct,identity,abs_gap", rows, expected)
    assert capsys.readouterr().out == expected.getvalue()


def test_identity_streams_its_rows():
    # each row is written as its batch forms it and no list of the rows is
    # held: the peak, about 2.7 MB, comes early, while most of the divisor
    # lists (1.8 MB at kmax = 10^4, each dropped once its k is audited)
    # are alive beside the per-k lists, the batch buffer and the first
    # blocks of the text the CSV writer returns (0.6 MB at the end); a
    # list of the 10^4 rows would add about 1.5 MB.  The interpreter's
    # free lists make the traced peak vary by about 0.15 MB with what ran
    # before.
    import tracemalloc
    argv = ["identity", "--which", "toth", "--kmax", "10000",
            "--out", os.devnull]
    assert run_cli(argv) == 0  # the zeta constants and imports, once
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.4 * 2 ** 20


def test_identity_failure_follows_its_rows(monkeypatch, capsys):
    # the worst relative gap, tracked as the rows stream, is reported
    # after the whole CSV
    kmax = 300
    monkeypatch.setitem(cli.IDENTITY_TOL, "toth", 0.0)
    assert run_cli(["identity", "--which", "toth", "--kmax", str(kmax)]) == 1
    lines = capsys.readouterr().out.splitlines()
    rows = [[float(c) for c in line.split(",")] for line in lines[1:-1]]
    assert len(rows) == kmax
    gaps = [gap / (1.0 + abs(lhs)) for _, lhs, _, gap in rows]
    report = json.loads(lines[-1])
    assert report["invariant"] == "toth-identity"
    assert report["relative_gap"] == max(gaps) > 0.0
    assert report["k"] == 1 + gaps.index(max(gaps))


def test_scan_command_csv_and_check(tmp_path):
    out = tmp_path / "scan.csv"
    assert run_cli(["scan", "--target", "ramanujan-log-avg",
                    "--grid", "geom:1e3,1e4,3", "--check",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,exact,main,correction,residual,normalized"
    assert len(lines) == 4


def test_scan_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli(["scan", "--target", "tau-log-avg",
                        "--grid", "geom:1e2,1e3,3", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_delta_and_series_commands(tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli(["delta", "--which", "integral", "--grid", "100,1000",
                    "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "X,ratio"

    out2 = tmp_path / "s.csv"
    assert run_cli(["series", "--which", "identity", "--f", "one",
                    "--g", "one", "--s", "4", "--K", "100,1000",
                    "--out", str(out2)]) == 0
    lines = out2.read_text().splitlines()
    assert lines[0] == "s,K,lhs,rhs,gap"
    assert len(lines) == 3


@pytest.mark.parametrize("which", ["bracket", "mu-report"])
def test_series_k_list_prints_the_rows_of_one_k_runs(capsys, which):
    # a K list is one pass, and prints the rows of each K alone, byte for
    # byte
    ks = ["100", "1000", "10000", "100000"]
    argv = ["series", "--which", which, "--f", "id", "--s", "3", "--K"]
    assert run_cli(argv + [",".join(ks)]) == 0
    header, *rows = capsys.readouterr().out.splitlines(keepends=True)
    alone = []
    for k in ks:
        assert run_cli(argv + [k]) == 0
        head, row = capsys.readouterr().out.splitlines(keepends=True)
        assert head == header
        alone.append(row)
    assert "".join(rows) == "".join(alone)


@pytest.mark.parametrize("a", [[], ["--a", "-0.5"]], ids=["tau", "sigma_a"])
def test_delta_point_prints_the_values_at_each_x(capsys, a):
    # one call for the grid, with or without --a, prints the bytes of
    # divisor_delta and divisor_delta_a taken one x at a time
    grid = "999.5,3000,1e6,5000001,1e7"
    assert run_cli(["delta", "--which", "point", "--grid", grid, *a]) == 0
    xs = [float(x) for x in grid.split(",")]
    if a:
        values = [G.divisor_delta_a(x, -0.5) for x in xs]
    else:
        values = [G.divisor_delta(x) for x in xs]
    out = io.StringIO()
    csvio.write_rows("x,delta", zip(xs, values), out)
    assert capsys.readouterr().out == out.getvalue()


def test_delta_series_command(tmp_path):
    out = tmp_path / "v.csv"
    assert run_cli(["delta", "--which", "series", "--xmax", "1e4",
                    "--a", "-0.5", "--K", "10,1000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,truncated,exact,gap"
    gap10 = float(lines[1].split(",")[3])
    gap1000 = float(lines[2].split(",")[3])
    assert gap1000 < gap10


def test_parse_error_exit_2(capsys):
    malformed = [
        ["sieve", "--spec", "bogus", "--nmax", "5"],
        ["scan", "--target", "tau-log-avg", "--grid", "1e3,abc"],
        ["scan", "--target", "tau-log-avg", "--grid", "geom:1e3,1e4,x"],
        ["series", "--K", "10,abc"],
        ["series", "--which", "identity", "--s", "nan", "--K", "10"],
        ["series", "--which", "identity", "--s", "inf", "--K", "10"],
        ["series", "--which", "bracket", "--f", "id", "--s", "inf", "--K", "10"],
        ["series", "--which", "mu-report", "--s", "inf", "--K", "10"],
        ["delta", "--which", "series", "--a", "-0.5", "--K", "10,z"],
        ["identity", "--which", "apostol", "--kmax", "0"],
        ["identity", "--which", "toth", "--kmax", "0"],
        ["identity", "--which", "cesaro", "--kmax", "0"],
    ]
    for argv in malformed:
        assert run_cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert "usage" in err and "Traceback" not in err, argv


def test_argparse_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["scan", "--target", "not-a-target", "--grid", "geom:1e2,1e3,2"])
    assert exc.value.code == 2


def test_unknown_scan_target_exit_2_lists_the_targets():
    # --target is checked against the registries after parsing, with
    # argparse's wording
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "gcdsums.cli", "scan",
                           "--target", "not-a-target"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage: gcdsums")
    assert ("error: argument --target: invalid choice: 'not-a-target' "
            "(choose from ") in done.stderr
    for name in [*G.SCAN_TARGETS, *G.STATISTICS]:
        assert repr(name) in done.stderr, name


def test_failure_report_exit_1(tmp_path, capsys):
    # a calibration file with an absurdly small bound forces a failure
    calib = tmp_path / "calib.txt"
    calib.write_text("tau-log-avg,,1e-12\n")
    code = run_cli(["scan", "--target", "tau-log-avg",
                    "--grid", "geom:1e2,1e3,2", "--check",
                    "--calibration", str(calib), "--out",
                    str(tmp_path / "o.csv")])
    assert code == 1
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["invariant"] == "residual-regression"
    assert report["target"] == "tau-log-avg"


@pytest.mark.parametrize("which", ["apostol", "cesaro", "toth"])
@pytest.mark.parametrize("kmax", [0, MAX_SIEVE + 1])
def test_identity_kmax_rejected_before_any_sieve(monkeypatch, capsys, which,
                                                 kmax):
    import tracemalloc
    calls = []
    monkeypatch.setattr(cli, "sieve", lambda *a: calls.append(a))
    tracemalloc.start()
    try:
        rc = run_cli(["identity", "--which", which, "--kmax", str(kmax)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines()[-1].startswith("usage: gcdsums")
    assert calls == []
    assert peak < 1 << 20  # argument parsing only; a table would be 80 MB


@pytest.mark.parametrize("grid", ["2e7", "inf", "1e3,2e7"])
def test_scan_x_rejected_before_any_sieve(monkeypatch, capsys, grid):
    # the scan's largest x runs first and fails the range rule at once
    from gcdsums import tables
    calls = []
    monkeypatch.setattr(tables, "_block_fill", lambda *a: calls.append(a))
    rc = run_cli(["scan", "--target", "id-log-avg", "--grid", grid])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("usage: gcdsums")
    assert calls == []


@pytest.mark.parametrize("points", [MAX_SIEVE + 1, 10 ** 15, 0])
def test_geom_point_count_rejected_before_allocation(monkeypatch, capsys,
                                                     points):
    # the point count takes the range rule before np.geomspace runs, so a
    # count of 10^15 allocates nothing
    import tracemalloc
    calls = []
    monkeypatch.setattr(np, "geomspace", lambda *a, **k: calls.append(a))
    tracemalloc.start()
    try:
        rc = run_cli(["scan", "--target", "id-log-avg",
                      "--grid", f"geom:1e3,1e6,{points}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert err[0] == f"error: {points} outside 1..{MAX_SIEVE}"
    assert err[1].startswith("usage: gcdsums")
    assert calls == []
    assert peak < 1 << 20


@pytest.mark.parametrize("argv", [
    ["sieve", "--spec", "mu", "--nmax", str(MAX_SIEVE + 1)],
    ["series", "--K", f"10,{MAX_SIEVE + 1}"],
    ["delta", "--which", "series", "--a", "-0.5", "--K", str(MAX_SIEVE + 1)],
], ids=["sieve", "series", "delta-series"])
def test_sieve_size_rejected_before_any_sieve(monkeypatch, capsys, argv):
    # every sieve takes its size through the one range rule; delta sieves
    # sigma_a for its default --xmax before the series is asked for
    from gcdsums import tables
    calls = []
    real = tables._block_fill
    monkeypatch.setattr(tables, "_block_fill",
                        lambda spec, n: calls.append(n) or real(spec, n))
    rc = run_cli(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {MAX_SIEVE + 1} outside 1..{MAX_SIEVE}" in err
    assert all(n <= MAX_SIEVE for n in calls)


@pytest.mark.parametrize("text", ["conv:mu,idpow:x", "conv:mu", "ptpow:-1",
                                  "mu,one", "idpow:", "",
                                  # a conv of a kind no conv tree holds
                                  "conv:lambda,one", "conv:log,mu",
                                  "conv:divlog,mu",
                                  "conv:ptpow:-1,sigmapow:0,idpow:0"])
def test_malformed_spec_exit_2(monkeypatch, capsys, text):
    # refused while parsing: one error line naming the spec, nothing on
    # stdout and no table prepared
    from gcdsums import tables
    calls = []
    monkeypatch.setattr(tables, "_block_fill", lambda *a: calls.append(a))
    assert run_cli(["identity", "--f", text, "--kmax", "5"]) == 2
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and f"bad function spec {text!r}" in errors[0]
    assert out == "" and calls == [] and "Traceback" not in err


def test_exponent_checked_at_the_requested_n(tmp_path, capsys):
    # 60 log 100000 = 690.8 is within the bound and 60 log 131072 is not,
    # so the table must not be built past the n asked for
    from gcdsums import tables
    out = tmp_path / "p.csv"
    assert run_cli(["sieve", "--f", "idpow:60", "--nmax", "100000",
                    "--out", str(out)]) == 0
    spec = G.id_pow(60.0)
    want = tables.blocks(spec, 100000).values[0:100001]
    assert tables.sieve_values(spec, 100000).tobytes() == want.tobytes()
    assert np.array_equal(read_table_values(out), want)
    nested = G.convolve(spec, G.MU)
    assert (tables.sieve_values(nested, 100000).tobytes()
            == tables.blocks(nested, 100000).values[0:100001].tobytes())
    for text in ("idpow:60", "conv:mu,idpow:60"):
        assert run_cli(["sieve", "--f", text, "--nmax", "200000"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error: exponent 60.0 overflows float64 at n_max=200000"
        assert err[1].startswith("usage: gcdsums")


@pytest.mark.parametrize("flag", ["--out", "--write-calibration",
                                  "--calibration"])
def test_unusable_file_argument_exit_2(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "x.csv"
    argv = ["scan", "--target", "tau-log-avg", "--grid", "1e3,1e4", flag,
            str(path)]
    assert run_cli(argv + (["--check"] if flag == "--calibration" else [])) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 2
    assert err[0] == f"error: cannot use {path}: No such file or directory"
    assert err[1].startswith("usage: gcdsums")
    if flag == "--calibration":
        # the file is read before the scan, so no CSV reaches stdout
        assert captured.out == ""


def test_missing_calibration_row_exit_2_before_the_scan(monkeypatch, capsys):
    from gcdsums import tables
    calls = []
    monkeypatch.setattr(tables, "_block_fill", lambda *a: calls.append(a))
    rc = run_cli(["scan", "--target", "power_sum", "--a", "-0.5",
                  "--grid", "1e3,1e5", "--check"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    err = captured.err.splitlines()
    assert err[0] == "error: no calibration row for ('power_sum', '-0.5')"
    assert err[1].startswith("usage: gcdsums")
    assert calls == []


@pytest.mark.parametrize("line", ["tau-log-avg,1e-3", "tau-log-avg,,abc"],
                         ids=["two-fields", "non-numeric"])
def test_malformed_calibration_line_exit_2(tmp_path, capsys, line):
    calib = tmp_path / "calib.txt"
    calib.write_text(f"# target,a,max_normalized\nid-log-avg,,0.5\n{line}\n")
    message = f"{calib}:3: not a calibration row: {line!r}"
    with pytest.raises(G.DomainError) as exc:
        G.load_calibration(calib)
    assert str(exc.value) == message
    rc = run_cli(["scan", "--target", "tau-log-avg", "--grid", "1e3",
                  "--check", "--calibration", str(calib)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.splitlines()[0] == f"error: {message}"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("target, a", [("id-log-avg", "5"),
                                       ("tau-log-avg", "-0.5"),
                                       ("id_phi", "-0.5")])
def test_exponent_for_an_entry_without_one_exit_2(monkeypatch, capsys,
                                                  target, a):
    # an --a the entry takes no exponent for is refused before any sieve
    from gcdsums import tables
    calls = []
    monkeypatch.setattr(tables, "_block_fill", lambda *a: calls.append(a))
    rc = run_cli(["scan", "--target", target, "--a", a, "--grid", "1e3,1e4"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    err = captured.err.splitlines()
    assert err[0] == f"error: {target} takes no exponent a (got a={float(a)})"
    assert err[1].startswith("usage: gcdsums")
    assert calls == []


def test_exponent_refused_before_the_calibration_row(capsys):
    # with --check, the entry is resolved before its row is looked up
    rc = run_cli(["scan", "--target", "id-log-avg", "--a", "5", "--check"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    err = captured.err.splitlines()
    assert err[0] == "error: id-log-avg takes no exponent a (got a=5.0)"
    assert err[1].startswith("usage: gcdsums")


def test_delta_integral_refuses_an_exponent_exit_2(monkeypatch, capsys):
    # the Delta integral is of tau alone: an --a is refused, as scan
    # refuses one its entry does not take, before any prefix is formed
    from gcdsums import asymptotics
    calls = []
    monkeypatch.setattr(asymptotics, "_one_pairs",
                        lambda *a: calls.append(a))
    rc = run_cli(["delta", "--which", "integral", "--a", "-0.5",
                  "--grid", "1e3,1e4"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    err = captured.err.splitlines()
    assert err[0] == ("error: delta --which integral takes no exponent a "
                      "(got a=-0.5)")
    assert err[1].startswith("usage: gcdsums")
    assert calls == []


_GEOM = ["--grid", "geom:1e3,1e7,9"]
# per name, a command and its count of stdout lines
_BLAS_COMMANDS = {
    "scan-tau_over_n": (["scan", "--target", "tau_over_n", *_GEOM], 10),
    "delta-point-a": (["delta", "--which", "point", "--a", "-0.5", *_GEOM],
                      10),
    "scan-tau-log-avg": (["scan", "--target", "tau-log-avg", *_GEOM], 10),
    "series-identity": (["series", "--which", "identity", "--f", "one",
                         "--g", "one", "--s", "4", "--K", "1000,100000"], 3),
    "scan-jordan_over_n": (["scan", "--target", "jordan_over_n", "--a",
                            "-0.5", *_GEOM], 10),
    "scan-id_lambda": (["scan", "--target", "id_lambda", *_GEOM], 10),
    # the Delta-corrected scans: their corrections add by math.fsum too
    "scan-id-log-avg": (["scan", "--target", "id-log-avg", *_GEOM], 10),
    "scan-id_phi": (["scan", "--target", "id_phi", *_GEOM], 10),
    "scan-jordan-log-avg": (["scan", "--target", "jordan-log-avg", "--a",
                             "-0.5", *_GEOM], 10),
}

# run by a child: the stdout of ``cli.main`` for each argv of the JSON
# list it is given, as a JSON list
_RUN_EACH = """import contextlib, io, json, sys
from gcdsums import cli
outs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0, argv
    outs.append(out.getvalue())
print(json.dumps(outs))"""


@pytest.fixture(scope="module")
def blas_thread_outputs():
    """Per command of ``_BLAS_COMMANDS``, its stdout with one BLAS thread
    and with two: each thread count runs every command in one child."""
    src = Path(cli.__file__).resolve().parents[1]
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", _RUN_EACH,
             json.dumps([argv for argv, _ in _BLAS_COMMANDS.values()])],
            env=env, capture_output=True, text=True, check=True)
        outs.append(json.loads(done.stdout))
    return dict(zip(_BLAS_COMMANDS, zip(*outs)))


@pytest.mark.parametrize("name", _BLAS_COMMANDS)
def test_stdout_independent_of_blas_threads(blas_thread_outputs, name):
    # their hyperbola sums add by math.fsum and their plain sums by
    # np.sum, through no BLAS dot, so one thread and two must give the
    # same bytes
    one, two = blas_thread_outputs[name]
    assert one == two
    assert len(one.splitlines()) == _BLAS_COMMANDS[name][1]


@pytest.mark.parametrize("argv", [["scan", "--target", "tau_over_n"],
                                  ["delta", "--which", "point"]])
def test_grid_commands_leave_numpy_ma_unimported(argv):
    # np.unique imports numpy.ma on first use; the grid drops its repeats
    # without it, so a grid command does not pay for the import
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import contextlib, io, sys\n"
            "from gcdsums import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_sieve_dump_equals_its_table_rows(tmp_path):
    # the dump, streamed a block at a time, has the bytes of the whole
    # table's rows at 17 significant digits
    n = (1 << 17) + 3
    out = tmp_path / "phi.csv"
    assert run_cli(["sieve", "--spec", "phi", "--nmax", str(n),
                    "--out", str(out)]) == 0
    values = G.sieve_values(G.PHI, n).tolist()
    assert out.read_text() == "n,value\n" + "".join(
        "%d,%.17g\n" % (k, values[k]) for k in range(1, n + 1))


def test_sieve_unwritable_out_exit_2(tmp_path, capsys):
    # the file is opened before the first row is formed
    path = tmp_path / "missing" / "x.csv"
    assert run_cli(["sieve", "--spec", "phi", "--nmax", "1000",
                    "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == (
        f"error: cannot use {path}: No such file or directory")


# run by a bare interpreter, which forks and execs the command with its
# output dropped and prints the child's exit code and ru_maxrss (KB) from
# wait4: a child forked from this test process would count its pages too
_MAXRSS = """import os, sys
pid = os.fork()
if pid == 0:
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.dup2(null, 2)
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"""


def _child_maxrss(argv):
    """Peak RSS in MB of ``python argv``, run in a child of its own."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _MAXRSS, *argv], env=env,
                          capture_output=True, check=True, text=True)
    code, kb = map(int, done.stdout.split())
    assert code == 0, argv
    return kb / 1024.0


@pytest.fixture(scope="module")
def bare_import_maxrss():
    """Peak RSS in MB of a bare ``import gcdsums.cli``, the baseline of
    every command: measured once."""
    return _child_maxrss(["-c", "import gcdsums.cli"])


@pytest.mark.parametrize("args", [
    ["scan", "--target", "id-log-avg", "--grid", "geom:1e3,1e6,7", "--check"],
    ["scan", "--target", "jordan-log-avg", "--a", "-0.5",
     "--grid", "geom:1e3,1e6,7", "--check"],
    ["sieve", "--spec", "phi", "--nmax", "1000000", "--out", os.devnull],
    ["series", "--which", "identity", "--f", "id", "--g", "mu", "--s", "3",
     "--K", "100,1000000"]],
    ids=["id-log-avg", "jordan-log-avg", "sieve-phi", "series-identity"])
def test_command_peak_rss_near_the_import(bare_import_maxrss, args):
    # each table is read a block at a time and a dump keeps no text, so
    # the command peaks within 8 MB of the bare import: a whole phi or mu
    # table at 10^6 is 8 MB, and the scans built whole peaked about 13 MB
    # above it, the dump about 36 MB and the series, with their sieves,
    # log l! row and K-length products, about 32 MB
    command = _child_maxrss(["-m", "gcdsums.cli", *args])
    assert command - bare_import_maxrss < 8.0, (command, bare_import_maxrss)
