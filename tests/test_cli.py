import io
import json

import numpy as np
import pytest

import gcdsums as G
from gcdsums import cli, csvio, sieve, MU
from gcdsums.tables import MAX_SIEVE


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
    back = csvio.read_table_values(out)
    assert np.array_equal(back, table.values)


def test_round_trip_float_table(tmp_path):
    from gcdsums import sigma_pow
    table = sieve(sigma_pow(-0.5), 300)
    out = tmp_path / "t.csv"
    csvio.write_table(table, out)
    back = csvio.read_table_values(out)
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
        r = G.log_sum_audit(f, g, k)
        return k, r.direct, r.via_identity, r.abs_gap
    lhs, rhs = G.toth_identity(k) if which == "toth" else G.cesaro_identity(f, k)
    return k, lhs, rhs, abs(lhs - rhs)


@pytest.mark.parametrize("which, f, g", [
    ("apostol", "id", "mu"), ("apostol", "one", "one"),
    ("apostol", "phi", "one"), ("apostol", "idpow:0.5", "mu"),
    ("toth", "id", "mu"), ("cesaro", "id", "mu")])
def test_identity_stdout_equals_per_k_rows(capsys, which, f, g):
    kmax = 300
    assert run_cli(["identity", "--which", which, "--kmax", str(kmax),
                    "--f", f, "--g", g]) == 0
    ft, gt = sieve(G.parse_spec(f), kmax), sieve(G.parse_spec(g), kmax)
    rows = [_per_k_row(which, ft, gt, k) for k in range(1, kmax + 1)]
    expected = csvio.write_rows("k,direct,identity,abs_gap", rows, io.StringIO())
    assert capsys.readouterr().out == expected


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
