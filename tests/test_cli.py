"""Exit codes, JSON reports, CSV grids, and argument parsing for the
command-line interface."""

import dataclasses
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from conftest import f_jet

from normfam import cli, kernels, storage
from normfam.analysis import DEFAULT_SEED, GridSpec
from normfam.cli import main, parse_complex, parse_n_range, parse_region
from normfam.errors import Overflow
from normfam.forge import CounterexampleFunction, build_s
from normfam.gridcsv import _decimal, csv_rows, write_csv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """CLI-built function files for the low orders."""
    d = tmp_path_factory.mktemp("fn")
    paths = {}
    for n in (1, 2, 3):
        paths[n] = str(d / f"f{n}.json")
        assert main(["construct", "-n", str(n), "-o", paths[n]]) == 0
    return paths


def test_parse_complex():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5-1e-3i") == complex(-0.5, -1e-3)
    assert parse_complex("3") == 3 + 0j
    # a pure imaginary needs its zero real part spelled out: 0+0.5i
    for bad in ("1 + 2i", "2+3j", "i", "1+i", "+.5i", "", "abc"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_parse_region():
    assert parse_region("disk:2") == ("disk", (2.0,))
    assert parse_region("annulus:0.5:1.5") == ("annulus", (0.5, 1.5))
    for bad in ("disk", "disk:x"):
        with pytest.raises(ValueError):
            parse_region(bad)


def test_parse_n_range():
    assert parse_n_range("1..6") == (1, 6)
    assert parse_n_range("4..4") == (4, 4)
    for bad in ("3..2", "0..5", "1-6", "..", "a..b"):
        with pytest.raises(ValueError):
            parse_n_range(bad)


def test_main_reuses_one_parser(files, tmp_path, monkeypatch):
    # the parser is built once per process; an option given in one call
    # must not become the default of the next
    seen = []
    for name in ("cmd_verify", "cmd_probe"):
        monkeypatch.setattr(
            cli, name, lambda args, name=name: seen.append((name, vars(args))) or 0
        )
    out = str(tmp_path / "f.json")
    assert main(["verify", files[2], "--seed", "7"]) == 0
    assert main(["probe", "marty", files[2], "--radius", "0.2", "--seed", "3"]) == 0
    assert main(["construct", "-n", "2", "-o", out]) == 0
    assert main(["verify", files[2]]) == 0
    assert main(["probe", "marty", files[2]]) == 0
    assert cli._parser() is cli._parser()
    (_, v1), (_, p1), (_, v2), (_, p2) = seen
    assert (v1["seed"], v2["seed"]) == (7, DEFAULT_SEED)
    assert (p1["seed"], p1["radius"]) == (3, 0.2)
    assert (p2["seed"], p2["radius"]) == (DEFAULT_SEED, 0.1)
    assert v2["file"] == files[2] and p2["files"] == [files[2]]


def test_construct_rejects_bad_orders(tmp_path, capsys):
    assert main(["construct", "-n", "0", "-o", str(tmp_path / "x.json")]) == 2
    assert "n must be >= 1" in capsys.readouterr().err
    assert main(["construct", "-n", "2", "--precision", "10",
                 "-o", str(tmp_path / "x.json")]) == 2


def test_construct_refuses_overflowed_scan(tmp_path, capsys):
    # the grid kernels overflow binary64 from n = 340 on, and construct
    # refuses those orders; n = 339 builds
    out = tmp_path / "f340.json"
    assert main(["construct", "-n", "340", "-o", str(out)]) == 1
    assert "construction failed" in capsys.readouterr().err
    assert not out.exists()
    assert main(["construct", "-n", "339", "-o", str(tmp_path / "f339.json")]) == 0


@pytest.mark.parametrize("n", [200, 339])
def test_high_orders_construct_and_verify(n, tmp_path, capsys):
    # orders the jet form of h'' overflowed (from n = 145 on) now pass
    # every check of verify, up to the last order whose scans fit binary64
    out = str(tmp_path / f"f{n}.json")
    assert main(["construct", "-n", str(n), "-o", out]) == 0
    assert main(["verify", out]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert all(r["passed"] for r in report.values())


def test_construct_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["construct", "-n", "3", "-o", a]) == 0
    assert main(["construct", "-n", "3", "-o", b]) == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_construct_trivial_member(files):
    with open(files[1], encoding="utf-8") as fh:
        rec = json.load(fh)
    assert rec["a"] == "0x1p+2"
    assert "p" not in rec


def test_verify_healthy_file(files, capsys):
    assert main(["verify", files[2]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "verify"
    assert report["inputs"] == [files[2]]
    sub = report["report"]
    assert set(sub) == {"inequality", "node_jets", "max_modulus"}
    assert all(sub[k]["passed"] for k in sub)
    assert sub["inequality"]["max_inequality"] <= 0.5 + 1e-12
    # the certified bound of the quotient is 1/(2n), and its log is finite
    assert sub["inequality"]["log_margin"] == pytest.approx(-math.log(4), abs=1e-12)
    assert sub["max_modulus"]["log_margin"] < 0


@pytest.mark.parametrize("n", [19, 20, 30, 200])
def test_verify_refutes_undershot_records(n, capsys, monkeypatch):
    # records that construct wrote while c_hat was sampled: from n = 19 on
    # the scan refined the wrong peak and a is too small. verify exits 1,
    # and the witness in the notes, read back at full precision, breaks
    # |f''| <= 1 + |f|^3 inside |z| < 2 by an independent f_jet
    path = Path(__file__).parent / "data" / f"undershot_f{n}.json"
    if n == 20:
        # its a, rounded to nearest, lies 9.0e-18 below sqrt(2 n c_hat): the
        # exact gate refuses it; past the gate the witness refutes it too
        assert main(["verify", str(path)]) == 1
        assert "a below the inequality floor" in capsys.readouterr().err
        monkeypatch.setattr(CounterexampleFunction, "__post_init__", lambda self: None)
    assert main(["verify", str(path)]) == 1
    ineq = json.loads(capsys.readouterr().out)["report"]["inequality"]
    assert not ineq["passed"] and ineq["log_margin"] > 0
    re_z, im_z = re.search(r"witness z = (\S+?)([+-]\S+)i ", ineq["notes"]).groups()
    F, _ = storage.load_function(path)
    precise = object.__new__(CounterexampleFunction)
    for f in dataclasses.fields(CounterexampleFunction):
        object.__setattr__(precise, f.name, getattr(F, f.name))
    object.__setattr__(precise, "precision", 3 * n + 64)  # past the 53-bit gate
    with mpmath.workprec(precise.precision):
        z = mpmath.mpc(re_z, im_z)
        jet = f_jet(precise, z, 2)
        assert abs(z) < 2 and abs(jet[2]) > 1 + abs(jet[0]) ** 3
    assert ineq["worst_point"] == pytest.approx([float(z.real), float(z.imag)], abs=1e-15)


def test_repeated_verify_keeps_heap_resident(files, tmp_path):
    # verify calls no grid kernel, so the repeated command is a grid
    # export of one chunk, whose kernels free arrays of 130-180 KiB; unless
    # glibc keeps the freed heap mapped, each export faults them back in
    # (about 800 minor faults an export without the pad, 0-5 with it)
    if not cli.keep_freed_heap():
        pytest.skip("needs glibc's mallopt")
    import resource

    argv = ["grid", files[3], "--what", "fk", "--region", "disk:2",
            "--resolution", str(cli.CSV_CHUNK), "--export", str(tmp_path / "g.csv")]
    assert main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        assert main(argv) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 300


def test_verify_corrupted_file(files, tmp_path, capsys):
    with open(files[2], encoding="utf-8") as fh:
        rec = json.load(fh)
    # a = 600, below its floor sqrt(2 n c_hat)
    rec["a"] = "0x258p+0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rec), encoding="utf-8")
    assert main(["verify", str(bad)]) == 1
    assert "invariant" in capsys.readouterr().err.lower()


def test_verify_unparseable_files(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert main(["verify", str(garbled)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_verify_refuses_files_not_in_utf8(files, tmp_path, capsys):
    # a record is UTF-8 text: json.loads would read UTF-16 bytes too
    text = Path(files[2]).read_text(encoding="utf-8")
    stray = tmp_path / "stray.json"
    stray.write_bytes(text.encode("utf-8").replace(b"{", b"{\xff", 1))
    wide = tmp_path / "wide.json"
    wide.write_bytes(text.encode("utf-16"))
    for path in (stray, wide):
        assert main(["verify", str(path)]) == 2, path
        assert "utf-8" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["verify", "marty", "grid"])
def test_bad_seed_exits_two(files, tmp_path, capsys, command, seed):
    # every command that takes a seed refuses one outside [0, 2^64), verify
    # too though it draws nothing, and the export leaves no file
    out = tmp_path / "g.csv"
    argv = {
        "verify": ["verify", files[2]],
        "marty": ["probe", "marty", files[2]],
        "grid": ["grid", files[2], "--what", "fk", "--region", "disk:2",
                 "--resolution", "10", "--export", str(out)],
    }[command]
    assert main(argv + ["--seed", seed]) == 2
    assert capsys.readouterr() == ("", f"error: --seed must be an integer in 0..2^64-1, not {seed}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("a", "inf"), ("a", "1/0"), ("precision_bits", -5), ("p", "nan"), ("p", "1/0"),
        ("p", "0.5"), ("n", 3.7), ("n", True), ("precision_bits", "53"), ("a", 1e300),
    ],
)
def test_verify_bad_numbers_exit_two(files, tmp_path, capsys, key, value):
    with open(files[3], encoding="utf-8") as fh:
        rec = json.load(fh)
    if key == "p":
        # schema 4 derives p from n: any stored p is refused
        rec["p"] = ["0", "0", value]
    else:
        rec[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rec), encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    capsys.readouterr()


def _verify_old_schema_exits_two(files, tmp_path, capsys, version):
    with open(files[2], encoding="utf-8") as fh:
        rec = json.load(fh)
    if version == 1:
        rec.update(p_centers=[["1", "0"]], p_coeffs=[["0", "0"]] * 2)
    elif version == 2:
        rec["p"] = ["-1/4", "3/32", "-5/96"]
    else:
        # schema 3 wrote the magnitudes as decimals
        rec.update(a="658.399331568759749", c_hat="108372.419952547381",
                   m_hat="0.478191253465103439")
    rec["schema_version"] = version
    old = tmp_path / "old.json"
    old.write_text(json.dumps(rec), encoding="utf-8")
    assert main(["verify", str(old)]) == 2
    err = capsys.readouterr().err
    assert "schema 4" in err and "rebuild" in err and "construct" in err


def test_verify_schema_one_file_exits_two(files, tmp_path, capsys):
    _verify_old_schema_exits_two(files, tmp_path, capsys, 1)


def test_verify_schema_two_file_exits_two(files, tmp_path, capsys):
    _verify_old_schema_exits_two(files, tmp_path, capsys, 2)


def test_verify_schema_three_file_exits_two(files, tmp_path, capsys):
    _verify_old_schema_exits_two(files, tmp_path, capsys, 3)


def test_verify_absurd_order_is_bounded(tmp_path, capsys):
    # the node checks run at z = 1 only, so verify does the same work for
    # n = 10^6 as for n = 2; c_hat = 0 is false for n > 1, so it fails.
    # The report stays strict JSON although the grids overflow there.
    rec = {
        "schema_version": 4,
        "n": 10**6,
        "precision_bits": 53,
        "a": f"{2 * 10**6:#x}p+0",
        "c_hat": "0x0p+0",
        "m_hat": "0x1p+0",
        "construction_config": {"grid_m": 1024, "seed": None},
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(rec), encoding="utf-8")
    assert main(["verify", str(path)]) == 1

    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    report = json.loads(capsys.readouterr().out, parse_constant=no_constant)["report"]
    # the exact node residual does not grow with n
    assert report["node_jets"]["passed"]
    assert report["node_jets"]["node_residuals"] == [0.0]
    assert report["inequality"]["max_inequality"] is None


def test_probe_marty_family(files, capsys):
    assert main(["probe", "marty", files[1], files[2], files[3]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n_values"] == [1, 2, 3]
    assert out["verdict"] == "blowup"
    meas = [float(m) for m in out["measurements"]]
    assert meas[0] == 4.0 and meas[0] < meas[1] < meas[2]


def test_probe_marty_center_off_circle(files, capsys):
    assert main(["probe", "marty", files[2], "--center", "0.5+0i"]) == 2
    assert "is not 1 within" in capsys.readouterr().err


def test_probe_lemma2(files, capsys):
    assert main(["probe", "lemma2", files[2], files[3],
                 "--points", "0", "--orders", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "decay"
    assert len(out["measurements"]) == 2


def test_probe_lemma2_point_near_circle(files, capsys):
    assert main(["probe", "lemma2", files[2], "--points", "1.05+0i"]) == 2
    capsys.readouterr()


def test_grid_trivial_fk_circle(files, tmp_path):
    out = tmp_path / "g.csv"
    assert main(["grid", files[1], "--what", "fk", "--region", "circle:2",
                 "--resolution", "8", "--export", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "re,im,value"
    assert len(lines) == 9
    for line in lines[1:]:
        re_, im_, val = line.split(",")
        # f_1 is linear so the second-derivative functional vanishes
        assert float(val) == 0.0
        assert abs(complex(float(re_), float(im_))) == pytest.approx(2.0)


def test_grid_ratio_keeps_nodes(files, tmp_path):
    # circle:1 at resolution 8 passes through both nodes of f_2; h''/h^3
    # is entire and finite there, so every row is kept, the nodes' too
    out = tmp_path / "g.csv"
    assert main(["grid", files[2], "--what", "ratio", "--region", "circle:1",
                 "--resolution", "8", "--export", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 9
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    pts = [complex(r, i) for r, i, _ in rows]
    assert pts[0] == 1 and abs(pts[4] + 1) < 1e-15
    assert all(math.isfinite(v) for _, _, v in rows)
    # at the node 1, h''/h^3 = n S_n(0) = 2 s0 exactly: u = 0 and p = 0
    assert rows[0][2] == pytest.approx(math.log(2 * abs(float(build_s(2)[0]))), abs=1e-15)


def test_grid_sphder_disk(files, tmp_path):
    out = tmp_path / "g.csv"
    assert main(["grid", files[3], "--what", "sphder", "--region", "disk:2",
                 "--resolution", "100", "--export", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert 2 <= len(lines) <= 101
    vals = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(v == v for v in vals)  # finite, already filtered


@pytest.mark.parametrize("argv", [
    ["construct", "-n", "1", "-o", "{out}"],
    ["grid", "{f1}", "--what", "fk", "--region", "circle:2", "--resolution", "4", "--export", "{out}"],
    ["sweep", "--n-range", "1..1", "-o", "{out}"],
], ids=["construct", "grid", "sweep"])
def test_unwritable_output_is_usage_error(argv, files, tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.out")
    assert main([a.format(out=out, f1=files[1]) for a in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out}: ")


def test_grid_bad_arguments(files, tmp_path, capsys):
    out = str(tmp_path / "g.csv")
    assert main(["grid", files[1], "--what", "fk", "--region", "circle:2",
                 "--resolution", "0", "--export", out]) == 2
    assert main(["grid", files[1], "--what", "fk", "--region", "blob:2",
                 "--resolution", "4", "--export", out]) == 2
    capsys.readouterr()


def _gated_record(directory, n):
    """A gated record of order n (a = 2n, c_hat = 0, m_hat = 1)."""
    rec = {
        "schema_version": 4,
        "n": n,
        "precision_bits": 53,
        "a": f"{2 * n:#x}p+0",
        "c_hat": "0x0p+0",
        "m_hat": "0x1p+0",
        "construction_config": {"grid_m": 1024, "seed": None},
    }
    path = directory / f"f{n}.json"
    path.write_text(json.dumps(rec), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def order_340(tmp_path_factory):
    """A gated record of order 340, the first whose fk and ratio kernels
    overflow binary64 near |z| = 2: S_n(u) is +inf there."""
    return _gated_record(tmp_path_factory.mktemp("f340"), 340)


def test_csv_rows_memory_stays_below_the_whole_chunk_gather():
    # one CSV_CHUNK of rows: an index array of the whole chunk's bytes took
    # 200 B per field, 4.9 MB, and the encoder peaked at 9.9 MB traced; in
    # blocks of _BLOCK fields, through one index array and one vector of
    # row offsets of 200 KB each, it peaks at 2.21 MB
    rng = np.random.default_rng(5)
    n = cli.CSV_CHUNK
    x = np.stack([rng.uniform(-2, 2, n), rng.uniform(-2, 2, n), rng.lognormal(0, 3, n)], axis=1)
    want = csv_rows(x)
    tracemalloc.start()
    try:
        got = csv_rows(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 6e6, peak


def test_grid_refuses_overflow(order_340, tmp_path, capsys):
    # about 0.2 % of the disk, next to |z| = 2, overflows fk and ratio, so
    # the first chunk already does; not even the header may survive
    for what in ("fk", "ratio"):
        out = tmp_path / f"{what}.csv"
        assert main(["grid", order_340, "--what", what, "--region", "disk:2",
                     "--resolution", str(3 * cli.CSV_CHUNK), "--export", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{what} overflows binary64 at order 340" in err
        assert not out.exists()
    # at n = 200 sphder is finite everywhere, next to z = 0 too, where
    # z^(n-1) underflows binary64 but (n-1) log|z| does not: no row dropped
    out = tmp_path / "sphder.csv"
    order_200 = _gated_record(tmp_path, 200)
    assert main(["grid", order_200, "--what", "sphder", "--region", "disk:2",
                 "--resolution", "100000", "--export", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 100_001
    assert all(math.isfinite(float(line.split(",")[2])) for line in lines[1:])


def test_grid_refuses_sphder_overflow(tmp_path, capsys):
    # from n = 342 on 1 + u d1(u), about 3 |c3| |u|^3, overflows binary64
    # on |z| = 2; n = 341 is finite there
    for n, code in ((341, 0), (342, 1)):
        out = tmp_path / f"sphder{n}.csv"
        assert main(["grid", _gated_record(tmp_path, n), "--what", "sphder", "--region",
                     "circle:2", "--resolution", "4096", "--export", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and "sphder overflows binary64 at order 342" in err
            assert not out.exists()
        else:
            assert len(out.read_text(encoding="utf-8").splitlines()) == 4097


def test_csv_writer_removes_partial_file(tmp_path):
    # rows written before the chunks fail must not survive as an export
    def chunks():
        yield np.array([1 + 2j]), np.array([3.0])
        raise Overflow("fk overflows binary64 at order 200")

    out = tmp_path / "g.csv"
    with pytest.raises(Overflow):
        write_csv(out, chunks())
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
def test_failed_export_through_a_symlink_leaves_no_rows(order_340, tmp_path, capsys):
    # the partial export is removed at the target, not the link in front of it
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"old\n")
    link.symlink_to(target)
    assert main(["grid", order_340, "--what", "fk", "--region", "disk:2",
                 "--resolution", str(3 * cli.CSV_CHUNK), "--export", str(link)]) == 1
    assert "fk overflows binary64 at order 340" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_failed_export_to_a_fifo_keeps_the_fifo(order_340, tmp_path, capsys):
    fifo = tmp_path / "export.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["grid", order_340, "--what", "fk", "--region", "disk:2",
                     "--resolution", str(3 * cli.CSV_CHUNK), "--export", str(fifo)]) == 1
    finally:
        os.close(reader)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "fk overflows binary64 at order 340" in err
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_grid_export_to_dev_null(files):
    assert main(["grid", files[2], "--what", "fk", "--region", "disk:2",
                 "--resolution", "100", "--export", "/dev/null"]) == 0
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)


_WRITES = {
    "construct": ["construct", "-n", "3", "-o", "{out}"],
    "grid": ["grid", "{f3}", "--what", "fk", "--region", "disk:2", "--resolution", "500",
             "--export", "{out}"],
    "sweep": ["sweep", "--n-range", "1..2", "-o", "{out}"],
}


@pytest.mark.parametrize("command", list(_WRITES))
def test_rewrite_over_longer_and_shorter_files(command, files, tmp_path, monkeypatch, capsys):
    # written in place without O_TRUNC and cut at its end, an output over
    # an existing file holds exactly the bytes a fresh path gets
    def run(out):
        assert main([a.format(out=out, f3=files[3]) for a in _WRITES[command]]) == 0
        return out.read_bytes()

    fresh = run(tmp_path / "fresh")
    flags = []
    real_open = os.open
    monkeypatch.setattr(os, "open", lambda p, f, *a: flags.append(f) or real_open(p, f, *a))
    for old in (fresh[:1], fresh + b"x" * 10_000):
        out = tmp_path / "out"
        out.write_bytes(old)
        assert run(out) == fresh
    assert flags and not any(f & os.O_TRUNC for f in flags)
    capsys.readouterr()


def _spy_kernels(monkeypatch):
    """Record the point count of every grid kernel call."""
    sizes = []
    for name in ("fk", "ratio_log", "sphder_log"):
        kernel = getattr(cli.kernels, name)
        monkeypatch.setattr(
            cli.kernels, name, lambda *a, kernel=kernel: sizes.append(len(a[-1])) or kernel(*a)
        )
    return sizes


@pytest.mark.parametrize("what", ["fk", "ratio", "sphder"])
def test_grid_streams_chunks(files, tmp_path, monkeypatch, what):
    # no kernel call, and so no array of the export, holds more than
    # CSV_CHUNK points, whatever the resolution
    sizes = _spy_kernels(monkeypatch)
    N = 3 * cli.CSV_CHUNK + 5
    out = tmp_path / "g.csv"
    assert main(["grid", files[3], "--what", what, "--region", "disk:2",
                 "--resolution", str(N), "--export", str(out)]) == 0
    assert len(sizes) == 4 and max(sizes) <= cli.CSV_CHUNK
    assert sum(sizes) == N


@pytest.mark.parametrize("what", ["fk", "ratio", "sphder"])
@pytest.mark.parametrize("region, resolution", [("disk:2", 100), ("circle:1", 60)])
def test_grid_chunks_match_whole_array(family, tmp_path, monkeypatch, what, region, resolution):
    # with chunks of 7 points the export is the whole-array one: points(),
    # one kernel call, the finite rows as %.17g; circle:1 at 60 points
    # passes through all six nodes of f_6
    F = family[6]
    path = str(tmp_path / "f6.json")
    storage.save_function(F, 1024, path)
    name, radii = parse_region(region)
    zs = GridSpec(name, radii, resolution).points()
    if what == "ratio":
        vals = kernels.ratio_log(6, zs)
    elif what == "fk":
        vals = kernels.fk(6, F.log_a, zs)
    else:
        vals = kernels.sphder_log(6, F.log_a, zs)
    keep = np.isfinite(vals)
    want = "re,im,value\n" + "".join(
        f"{z.real:.17g},{z.imag:.17g},{v:.17g}\n" for z, v in zip(zs[keep], vals[keep])
    )
    monkeypatch.setattr(cli, "CSV_CHUNK", 7)
    sizes = _spy_kernels(monkeypatch)
    out = tmp_path / "g.csv"
    assert main(["grid", path, "--what", what, "--region", region,
                 "--resolution", str(resolution), "--export", str(out)]) == 0
    assert out.read_bytes() == want.encode("utf-8")
    assert len(sizes) == -(-resolution // 7) and max(sizes) <= 7


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's")
def test_grid_memory_does_not_grow_with_resolution(files, tmp_path):
    # a child that exports 5*10^5 points must peak within 40 MB of one that
    # only imports normfam and loads the record; a whole-grid export
    # (about 210 bytes per point at once) grew by about 100 MB here
    child = (
        "import resource, sys\n"
        "from normfam import cli, storage\n"
        "storage.load_function(sys.argv[1])\n"
        "if len(sys.argv) > 2:\n"
        "    assert cli.main(['grid', sys.argv[1], '--what', 'fk', '--region', 'disk:2',\n"
        "                     '--resolution', '500000', '--export', sys.argv[2]]) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )

    def peak_kib(*argv):
        proc = subprocess.run(
            [sys.executable, "-c", child, files[3], *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    base = peak_kib()
    out = tmp_path / "big.csv"
    grown = peak_kib(str(out))
    assert out.stat().st_size > 500_000 * 50
    assert grown - base < 40 * 1024


def test_sweep_low_orders(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--n-range", "1..3", "-o", str(out)]) == 0
    table = capsys.readouterr().out
    assert table.count("pass") == 3
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3]
    assert rows[0]["c_hat"] == "0" and rows[0]["max_inequality"] == 0.0
    assert all(r["passed"] for r in rows)
    assert [r["degree_p"] for r in rows] == [0, 6, 9]


def test_sweep_rejects_bad_ranges(tmp_path, capsys):
    out = str(tmp_path / "sweep.json")
    assert main(["sweep", "--n-range", "3..2", "-o", out]) == 2
    assert main(["sweep", "--n-range", "0..2", "-o", out]) == 2
    capsys.readouterr()


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["construct"])  # missing required arguments
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_sampling_imports_no_numpy_random(files, tmp_path):
    # the seeded samples come from analysis.uniform_draws: verify, probe
    # marty and grid load neither numpy.random nor, through secrets and
    # hashlib, OpenSSL's libcrypto, beyond what `import numpy` loads itself.
    # numpy 2 loads numpy.random lazily, so there none of the three may
    # appear; numpy 1.x imports it with numpy, and the check is vacuous
    code = f"""
import json, sys
import numpy
watched = ("numpy.random", "secrets", "_hashlib")
eager = [m for m in watched if m in sys.modules]
from normfam.cli import main
f = {files[2]!r}
codes = [
    main(["verify", f]),
    main(["probe", "marty", f]),
    main(["grid", f, "--what", "fk", "--region", "disk:2", "--resolution", "100",
          "--export", {str(tmp_path / "g.csv")!r}]),
]
print(json.dumps([codes, eager, [m for m in watched if m in sys.modules]]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, eager, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert loaded == eager


def test_only_grid_imports_the_csv_encoder(tmp_path):
    # construct, verify, the probes and sweep never build the encoder's
    # tables; the first grid export imports it
    f, g = str(tmp_path / "f3.json"), str(tmp_path / "g.csv")
    code = f"""
import json, sys
from normfam.cli import main
codes = [
    main(["construct", "-n", "3", "-o", {f!r}]),
    main(["verify", {f!r}]),
    main(["probe", "marty", {f!r}]),
    main(["probe", "lemma2", {f!r}]),
    main(["sweep", "--n-range", "1..3", "-o", {str(tmp_path / "sweep.json")!r}]),
]
before = "normfam.gridcsv" in sys.modules
codes.append(main(["grid", {f!r}, "--what", "fk", "--region", "disk:2",
                   "--resolution", "100", "--export", {g!r}]))
print(json.dumps([codes, before, "normfam.gridcsv" in sys.modules]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, before, after = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * 6
    assert not before and after


def test_console_entry_point(tmp_path):
    out = str(tmp_path / "f1.json")
    proc = subprocess.run(
        [sys.executable, "-m", "normfam.cli", "construct", "-n", "1", "-o", out],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh)["n"] == 1


def test_csv_writer_matches_row_fstring(tmp_path):
    # the chunked writer must produce the bytes of the per-row f-string,
    # signed zeros and extreme exponents included, across chunk borders
    # (chunks of 3 rows); exact ties m / 2^q (18 significant digits ending
    # in 5) round half to even, 10^k and its neighbours get the right
    # exponent, and the fk-like values near 1e-200, centred in the list,
    # make chunks whose fields are all written in scientific notation
    ties = [s * ((10**17 // 5**q + j) | 1) / 2**q for q in range(2, 25) for j in (1, 3, 5) for s in (1, -1)]
    decades = [y for k in range(-6, 19) for x in [float(f"1e{k}")]
               for y in (math.nextafter(x, 0), x, math.nextafter(x, math.inf))]
    fk_like = [s * m * 1e-200 for m in (1.0, 3.7, 9.9, 0.25, 7.125, 5.5) for s in (1, -1)]
    edges = ties + decades
    mid = (len(edges) - 10) // 2
    parts = [0.0, -0.0, -1.5, 1e300, -1e-300, 1e-300, 2.0 / 3.0, -7.0, 5e-324, 1.7976931348623157e308]
    parts += edges[:mid] + fk_like + edges[mid:]
    zs = np.array([complex(a, b) for a, b in zip(parts, reversed(parts))])
    vals = np.array(parts[3:] + parts[:3])
    new = tmp_path / "new.csv"
    write_csv(new, [(zs[i : i + 3], vals[i : i + 3]) for i in range(0, zs.size, 3)])
    want = "re,im,value\n" + "".join(
        f"{z.real:.17g},{z.imag:.17g},{v:.17g}\n" for z, v in zip(zs, vals)
    )
    assert new.read_bytes() == want.encode("utf-8")
    write_csv(new, [])
    assert new.read_bytes() == b"re,im,value\n"


def test_construct_order_seven_at_default_precision(tmp_path):
    # the exact exponent satisfies the node gate at any check precision
    out = tmp_path / "f7.json"
    assert main(["construct", "-n", "7", "-o", str(out)]) == 0
    rec = json.loads(out.read_text(encoding="utf-8"))
    assert rec["precision_bits"] == 53
    assert rec["n"] == 7 and "p" not in rec


def test_sweep_to_order_eight_passes(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--n-range", "1..8", "-o", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert [r["n"] for r in rows] == list(range(1, 9))
    assert all(r["passed"] and "error" not in r for r in rows)
    assert [r["degree_p"] for r in rows] == [0] + [3 * n for n in range(2, 9)]


def test_sweep_summary_writes_nan_as_null(tmp_path, monkeypatch, capsys):
    # an overflowed grid gives max_inequality NaN; the summary stays strict JSON
    real = cli.verify_inequality
    monkeypatch.setattr(
        cli, "verify_inequality",
        lambda F: dataclasses.replace(real(F), max_inequality=math.nan, passed=False),
    )
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--n-range", "1..1", "-o", str(out)]) == 1
    assert "max_ineq=nan" in capsys.readouterr().out

    def refuse(name):
        raise ValueError(f"non-strict JSON constant {name}")

    rows = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse)["rows"]
    assert rows[0]["max_inequality"] is None and rows[0]["passed"] is False


def test_decimal_needs_no_round_up_at_powers_of_ten():
    # the 17 digits of a binary64 value at or next to 10^k never round up
    # to 10^17: its spacing there is far wider than 5e-18 relative
    xs = [float(y) for k in range(-5, 18) for x in [float(f"1e{k}")]
          for y in (np.nextafter(x, 0), x, np.nextafter(x, np.inf))]
    x = np.array(xs + [-v for v in xs])
    d, _, _ = _decimal(x)
    assert np.all(d < 10**17)
    rows = x.reshape(-1, 3)
    want = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows.tolist())
    assert csv_rows(rows).tobytes() == want.encode("ascii")
