"""Exit codes, JSON reports, CSV grids, and argument parsing for the
command-line interface."""

import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from normfam import cli, kernels, storage
from normfam.analysis import DEFAULT_SEED, GridSpec
from normfam.cli import main, parse_complex, parse_n_range, parse_region, write_csv
from normfam.errors import Overflow
from normfam.forge import EPS_NODE


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
    assert main(["verify", files[2], "--seed", "7", "--samples", "50"]) == 0
    assert main(["probe", "marty", files[2], "--radius", "0.2", "--seed", "3"]) == 0
    assert main(["construct", "-n", "2", "-o", out]) == 0
    assert main(["verify", files[2]]) == 0
    assert main(["probe", "marty", files[2]]) == 0
    assert cli._parser() is cli._parser()
    (_, v1), (_, p1), (_, v2), (_, p2) = seen
    assert (v1["seed"], v1["samples"]) == (7, 50)
    assert (v2["seed"], v2["samples"]) == (DEFAULT_SEED, 10000)
    assert (p1["seed"], p1["radius"]) == (3, 0.2)
    assert (p2["seed"], p2["radius"]) == (DEFAULT_SEED, 0.1)
    assert v2["file"] == files[2] and p2["files"] == [files[2]]


def test_construct_rejects_bad_orders(tmp_path, capsys):
    assert main(["construct", "-n", "0", "-o", str(tmp_path / "x.json")]) == 2
    assert "n must be >= 1" in capsys.readouterr().err
    assert main(["construct", "-n", "2", "--precision", "10",
                 "-o", str(tmp_path / "x.json")]) == 2


def test_construct_refuses_overflowed_scan(tmp_path, capsys):
    # the c_hat scan overflows binary64 from n = 145 on; n = 144 builds
    out = tmp_path / "f145.json"
    assert main(["construct", "-n", "145", "-o", str(out)]) == 1
    assert "construction failed" in capsys.readouterr().err
    assert not out.exists()
    assert main(["construct", "-n", "144", "-o", str(tmp_path / "f144.json")]) == 0


def test_construct_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["construct", "-n", "3", "-o", a]) == 0
    assert main(["construct", "-n", "3", "-o", b]) == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_construct_trivial_member(files):
    with open(files[1], encoding="utf-8") as fh:
        rec = json.load(fh)
    assert rec["a"] == "4"
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


def test_repeated_verify_keeps_heap_resident(files, capsys):
    # the kernels free arrays of 130-180 KiB on every call; unless glibc
    # keeps the freed heap mapped, a second verify faults it all back in
    # (several hundred minor faults without the pad)
    if not cli.keep_freed_heap():
        pytest.skip("needs glibc's mallopt")
    import resource

    assert main(["verify", files[3]]) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(["verify", files[3]]) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    capsys.readouterr()
    assert faults < 100


def test_verify_corrupted_file(files, tmp_path, capsys):
    with open(files[2], encoding="utf-8") as fh:
        rec = json.load(fh)
    # a below its floor sqrt(2 n c_hat)
    rec["a"] = "600"
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


@pytest.mark.parametrize("option, msg", [
    ("--samples=0", "samples must be >= 1"),
    ("--samples=-3", "samples must be >= 1"),
    ("--tol=nan", "tol must be finite and >= 0"),
    ("--tol=-1e-12", "tol must be finite and >= 0"),
    ("--tol=inf", "tol must be finite and >= 0"),
])
def test_verify_bad_options_exit_two(files, capsys, option, msg):
    assert main(["verify", files[2], option]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {msg}\n")


@pytest.mark.parametrize(
    "key, value",
    [("a", "inf"), ("a", "1/0"), ("precision_bits", -5), ("p", "nan"), ("p", "1/0"), ("p", "0.5")],
)
def test_verify_bad_numbers_exit_two(files, tmp_path, capsys, key, value):
    with open(files[3], encoding="utf-8") as fh:
        rec = json.load(fh)
    if key == "p":
        # schema 3 derives p from n: any stored p is refused
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
    else:
        rec["p"] = ["-1/4", "3/32", "-5/96"]
    rec["schema_version"] = version
    old = tmp_path / "old.json"
    old.write_text(json.dumps(rec), encoding="utf-8")
    assert main(["verify", str(old)]) == 2
    err = capsys.readouterr().err
    assert "schema 3" in err and "rebuild" in err


def test_verify_schema_one_file_exits_two(files, tmp_path, capsys):
    _verify_old_schema_exits_two(files, tmp_path, capsys, 1)


def test_verify_schema_two_file_exits_two(files, tmp_path, capsys):
    _verify_old_schema_exits_two(files, tmp_path, capsys, 2)


def test_verify_absurd_order_is_bounded(tmp_path, capsys):
    # the node checks run at z = 1 only, so verify does the same work for
    # n = 10^6 as for n = 2; c_hat = 0 is false for n > 1, so it fails.
    # The report stays strict JSON although the grids overflow there.
    rec = {
        "schema_version": 3,
        "n": 10**6,
        "precision_bits": 53,
        "a": "2000000",
        "c_hat": "0",
        "m_hat": "1",
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


def test_grid_ratio_masks_nodes(files, tmp_path):
    # circle:1 at resolution 8 passes through both nodes of f_2; the
    # ratio has poles there, so exactly those two rows must be absent
    out = tmp_path / "g.csv"
    assert main(["grid", files[2], "--what", "ratio", "--region", "circle:1",
                 "--resolution", "8", "--export", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 7
    pts = [complex(float(r), float(i)) for r, i, _ in
           (line.split(",") for line in lines[1:])]
    assert all(min(abs(z - 1), abs(z + 1)) > 1e-4 for z in pts)


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


@pytest.fixture(scope="module")
def order_200(tmp_path_factory):
    """A gated record of order 200 (a = 2n, c_hat = 0, m_hat = 1) whose
    jet overflows binary64 near |z| = 2: |p'|^2 is +inf there."""
    rec = {
        "schema_version": 3,
        "n": 200,
        "precision_bits": 53,
        "a": "400",
        "c_hat": "0",
        "m_hat": "1",
        "construction_config": {"grid_m": 1024, "seed": None},
    }
    path = tmp_path_factory.mktemp("f200") / "f200.json"
    path.write_text(json.dumps(rec), encoding="utf-8")
    return str(path)


def test_csv_rows_memory_stays_below_the_whole_chunk_gather():
    # one CSV_CHUNK of rows: an index array of the whole chunk's bytes took
    # 200 B per field, 4.9 MB, and the encoder peaked at 9.9 MB traced; in
    # blocks of _BLOCK fields it peaks at 2.2 MB
    rng = np.random.default_rng(5)
    n = cli.CSV_CHUNK
    x = np.stack([rng.uniform(-2, 2, n), rng.uniform(-2, 2, n), rng.lognormal(0, 3, n)], axis=1)
    want = cli.csv_rows(x)
    tracemalloc.start()
    try:
        got = cli.csv_rows(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 6e6, peak


def test_grid_refuses_overflow(order_200, tmp_path, capsys):
    # about a third of the disk overflows fk and ratio, so the first chunk
    # already does; not even the header may survive
    for what in ("fk", "ratio"):
        out = tmp_path / f"{what}.csv"
        assert main(["grid", order_200, "--what", what, "--region", "disk:2",
                     "--resolution", str(3 * cli.CSV_CHUNK), "--export", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{what} overflows binary64 at order 200" in err
        assert not out.exists()
    # sphder is never +inf there, only -inf (log 0) at a few points: those
    # rows are dropped and the export succeeds
    out = tmp_path / "sphder.csv"
    assert main(["grid", order_200, "--what", "sphder", "--region", "disk:2",
                 "--resolution", "100000", "--export", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert 100_000 - 100 < len(lines) < 100_001
    assert all(math.isfinite(float(line.split(",")[2])) for line in lines[1:])


def test_csv_writer_removes_partial_file(tmp_path):
    # rows written before the chunks fail must not survive as an export
    def chunks():
        yield np.array([1 + 2j]), np.array([3.0])
        raise Overflow("fk overflows binary64 at order 200")

    out = tmp_path / "g.csv"
    with pytest.raises(Overflow):
        write_csv(out, chunks())
    assert not out.exists()


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
    if what != "ratio":
        assert sum(sizes) == N


@pytest.mark.parametrize("what", ["fk", "ratio", "sphder"])
@pytest.mark.parametrize("region, resolution", [("disk:2", 100), ("circle:1", 60)])
def test_grid_chunks_match_whole_array(family, tmp_path, monkeypatch, what, region, resolution):
    # with chunks of 7 points the export is the whole-array one: points(),
    # the ratio mask, one kernel call, the finite rows as %.17g; circle:1
    # at 60 points passes through all six nodes of f_6
    F = family[6]
    path = str(tmp_path / "f6.json")
    storage.save_function(F, 1024, path)
    name, radii = parse_region(region)
    zs = GridSpec(name, radii, resolution).points()
    if what == "ratio":
        zs = zs[np.abs(zs**6 - 1.0) > EPS_NODE]
        vals = kernels.ratio_log(6, F.p_float, zs)
    else:
        kernel = kernels.fk if what == "fk" else kernels.sphder_log
        vals = kernel(6, F.p_float, F.log_a, zs)
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
