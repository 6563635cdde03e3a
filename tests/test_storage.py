"""Function-file persistence: exact hex-float round-trips, schema
validation, and report serialization."""

import dataclasses
import json
import os
import random
import re
import stat
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, to_str

from normfam import storage
from normfam.analysis import ProbeResult, VerificationReport, marty_probe
from normfam.errors import InvariantViolation
from normfam.forge import GRID_M, CounterexampleFunction, construct


HEX_FLOAT = re.compile(r"-?0x[0-9a-f]+p[+-][0-9]+")


def from_hex(text, precision):
    """A stored magnitude decoded apart from storage: mantissa * 2^exponent."""
    man, exp = text.split("p")
    with mpmath.workprec(precision):
        return mpmath.ldexp(int(man, 16), int(exp))


def to_hex(x):
    # a positive mpf as the text storage writes for it
    return f"{int(x.man):#x}p{int(x.exp):+d}"


def roundtrip(F, grid_m=1024):
    text = storage.function_to_json(F, grid_m)
    G, gm = storage.parse_function(json.loads(text))
    return G, gm, text


def assert_identical(F, G):
    assert G.n == F.n and G.precision == F.precision
    assert G.p == F.p
    with mpmath.workprec(max(F.precision, 53)):
        assert G.a == F.a and G.c_hat == F.c_hat and G.m_hat == F.m_hat


def test_roundtrip_double_precision(family):
    for n, F in family.items():
        G, gm, text = roundtrip(F)
        assert gm == 1024
        assert_identical(F, G)
        # re-serializing the parsed record reproduces the bytes
        assert storage.function_to_json(G, gm) == text


def test_roundtrip_high_precision():
    F = construct(3, precision=128)
    G, gm, text = roundtrip(F, grid_m=512)
    assert gm == 512
    assert_identical(F, G)
    assert storage.function_to_json(G, gm) == text


def test_record_numbers_are_hex_strings(family):
    rec = storage.function_record(family[4], 1024)
    assert rec["schema_version"] == 4
    for key in ("a", "c_hat", "m_hat"):
        assert HEX_FLOAT.fullmatch(rec[key]), rec[key]
    assert "p" not in rec  # fixed by n, derived on load
    # c_4 overflows binary64, so a binary JSON number could not hold it
    assert from_hex(rec["c_hat"], 53) > mpmath.mpf(2) ** 1024


def test_trivial_member_record(family):
    rec = storage.function_record(family[1], 1024)
    assert rec["n"] == 1
    assert rec["a"] == "0x1p+2"
    assert rec["c_hat"] == "0x0p+0"
    assert rec["construction_config"] == {"grid_m": 1024, "seed": None}


def test_stored_strings_parse_exactly(family):
    F = family[3]
    rec = storage.function_record(F, 1024)
    assert from_hex(rec["a"], F.precision) == F.a
    assert from_hex(rec["c_hat"], F.precision) == F.c_hat


def test_save_and_load_files(tmp_path, family):
    path = tmp_path / "f2.json"
    storage.save_function(family[2], 1024, path)
    first = path.read_bytes()
    assert first.endswith(b"\n")
    G, gm = storage.load_function(path)
    assert_identical(family[2], G)
    storage.save_function(G, gm, path)
    assert path.read_bytes() == first


@pytest.mark.skipif(os.name != "posix", reason="POSIX modes")
def test_rewrite_keeps_the_file_mode(tmp_path, family):
    path = tmp_path / "f.json"
    path.write_bytes(b"x" * 1000)
    path.chmod(0o600)
    storage.save_function(family[2], 1024, path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert storage.load_function(path)[0].n == 2


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
def test_rewrite_through_a_symlink_keeps_the_link(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"x" * 1000)
    link.symlink_to(target)
    with storage.rewrite(link) as fh:
        fh.write(b"new\n")
    assert link.is_symlink() and target.read_bytes() == b"new\n"


def test_src_has_no_write_mode_open():
    # every file normfam writes goes through storage.rewrite
    mode = r"""["'][rbt]*[wax+][rwaxbt+]*["']"""
    write_open = re.compile(rf"(?<![\w.])open\([^)]*{mode}|\.write_(text|bytes)\(")
    for path in Path(storage.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert not write_open.search(text), path.name


@pytest.mark.parametrize(
    "mangle",
    [
        lambda r: r.pop("n"),
        lambda r: r.pop("precision_bits"),
        lambda r: r.update(schema_version=1),
        lambda r: r.update(n="two"),
        lambda r: r.update(a=None),
        lambda r: r.update(construction_config={}),
    ],
)
def test_malformed_records_raise_value_error(family, mangle):
    rec = storage.function_record(family[2], 1024)
    mangle(rec)
    with pytest.raises(ValueError):
        storage.parse_function(rec)


@pytest.mark.parametrize(
    "key, value, msg",
    [
        ("n", 3.7, "not a JSON integer"),
        ("n", True, "not a JSON integer"),
        ("precision_bits", "53", "not a JSON integer"),
        ("grid_m", -5, "at least 64"),
        ("grid_m", 0.5, "not a JSON integer"),
        ("a", 1e300, "not a JSON string"),
        ("schema_version", 3.0, "unsupported schema_version"),
    ],
)
def test_loosely_typed_fields_rejected(family, key, value, msg):
    # int() would load 3.7 as 3, true as 1 and "53" as 53; a JSON number
    # magnitude was rounded to binary64 before it reached the parser
    rec = storage.function_record(family[3], 1024)
    if key == "grid_m":
        rec["construction_config"]["grid_m"] = value
    else:
        rec[key] = value
    with pytest.raises(ValueError, match=msg):
        storage.parse_function(rec)


@pytest.mark.parametrize("key", ["a", "c_hat", "m_hat"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_magnitude_rejected(family, key, value):
    rec = storage.function_record(family[3], 1024)
    rec[key] = value
    with pytest.raises(ValueError, match="not finite"):
        storage.parse_function(rec)


@pytest.mark.parametrize("key", ["a", "m_hat"])
def test_non_finite_magnitude_not_written(tmp_path, family, key, monkeypatch):
    # the record gate refuses an infinite a or m_hat
    # (test_gate_refuses_infinite_magnitudes), and save refuses one too,
    # read past the gate: libmp's inf has no mantissa, and writing it as
    # one would store 0
    monkeypatch.setattr(CounterexampleFunction, "__post_init__", lambda self: None)
    F = dataclasses.replace(family[1], **{key: mpmath.inf})
    path = tmp_path / "f.json"
    with pytest.raises(ValueError, match="not finite"):
        storage.save_function(F, 1024, path)
    assert not path.exists()


@pytest.mark.parametrize("key", ["a", "c_hat", "m_hat"])
def test_magnitude_with_zero_denominator_rejected(family, key):
    # mpmath reads "1/0" as a quotient and raises ZeroDivisionError
    rec = storage.function_record(family[3], 1024)
    rec[key] = "1/0"
    with pytest.raises(ValueError, match="malformed"):
        storage.parse_function(rec)


@pytest.mark.parametrize("bits", [-5, 0, 52])
def test_precision_below_53_rejected(family, bits):
    rec = storage.function_record(family[3], 1024)
    rec["precision_bits"] = bits
    with pytest.raises(ValueError, match="below 53"):
        storage.parse_function(rec)


# an f_2 file as schema 3 wrote it, with decimal magnitudes
SCHEMA_THREE = {
    "schema_version": 3,
    "n": 2,
    "precision_bits": 53,
    "a": "658.399331568759749",
    "c_hat": "108372.419952547381",
    "m_hat": "0.478191253465103439",
    "construction_config": {"grid_m": 1024, "seed": None},
}


def _old_schema_record(family, version):
    # schema 1 stored a Newton-form exponent, schema 2 the three c_k
    rec = storage.function_record(family[2], 1024)
    if version == 1:
        rec.update(p_centers=[["1", "0"]], p_coeffs=[["0", "0"]] * 2)
    else:
        rec["p"] = ["-1/4", "3/32", "-5/96"]
    rec["schema_version"] = version
    return rec


def test_schema_one_file_rejected(family):
    with pytest.raises(ValueError, match="schema 4 .*rebuild"):
        storage.parse_function(_old_schema_record(family, 1))


def test_schema_two_file_rejected(family):
    with pytest.raises(ValueError, match="schema 4 .*rebuild"):
        storage.parse_function(_old_schema_record(family, 2))


def test_schema_three_file_rejected():
    # no second reader: decimal magnitudes are refused with the schema
    with pytest.raises(ValueError, match="schema 4 .*construct"):
        storage.parse_function(dict(SCHEMA_THREE))


def test_stored_exponent_rejected(family):
    # a schema-2 file relabelled as schema 4 keeps its p, which is refused
    rec = _old_schema_record(family, 2)
    rec["schema_version"] = 4
    with pytest.raises(ValueError, match="stores no p"):
        storage.parse_function(rec)


def test_order_below_one_rejected(family):
    rec = storage.function_record(family[2], 1024)
    rec["n"] = 0
    with pytest.raises(ValueError, match="n must be >= 1"):
        storage.parse_function(rec)


def test_precision_above_limit_rejected(family):
    rec = storage.function_record(family[3], 1024)
    rec["precision_bits"] = 10**9
    with pytest.raises(ValueError, match="above"):
        storage.parse_function(rec)


def test_non_object_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]\n", encoding="utf-8")
    with pytest.raises(ValueError):
        storage.load_function(path)


def test_corrupted_coefficient_fails_invariants(family):
    # the file stores no exponent (test_node_gate_rejects_perturbed_exponent
    # covers a perturbed c_k); a halved a breaks a >= sqrt(2 n c_hat)
    rec = storage.function_record(family[2], 1024)
    man, exp = rec["a"].split("p")
    rec["a"] = f"{man}p{int(exp) - 1:+d}"
    with pytest.raises(InvariantViolation):
        storage.parse_function(rec)


def test_c2_perturbed_by_one_millionth_fails_invariants(family):
    # the file stores no c2 to perturb; c_hat raised by one millionth
    # lifts sqrt(2 n c_hat) above the stored a
    rec = storage.function_record(family[6], 1024)
    with mpmath.workprec(53):
        rec["c_hat"] = to_hex(from_hex(rec["c_hat"], 53) * (1 + mpmath.mpf("1e-6")))
    with pytest.raises(InvariantViolation, match="inequality floor"):
        storage.parse_function(rec)


def test_verification_to_dict():
    rep = VerificationReport(True, 0.5, 1 + 2j, (0.0, 1e-13), "ok")
    d = storage.verification_to_dict(rep)
    assert d["passed"] is True
    assert d["worst_point"] == [1.0, 2.0]
    assert d["node_residuals"] == [0.0, 1e-13]
    json.dumps(d)  # every field is JSON-native


def test_probe_to_dict_keeps_huge_measurements(family):
    pr = marty_probe([family[5]], 1 + 0j, 0.1)
    d = storage.probe_to_dict(pr)
    assert d["n_values"] == [5]
    assert d["verdict"] == "blowup"
    # the decimal string survives where float() would overflow
    assert mpmath.mpf(d["measurements"][0]) > mpmath.mpf("1e1400")
    json.dumps(d)


def test_probe_to_dict_layout():
    pr = ProbeResult((2, 3), (mpmath.mpf(4), mpmath.mpf("0.25")), "decay")
    d = storage.probe_to_dict(pr)
    assert d["measurements"] == ["4", "0.25"]


def test_report_file_envelope():
    rf = storage.report_file("verify", ["f2.json"], {"x": 1})
    assert rf["command"] == "verify"
    assert rf["inputs"] == ["f2.json"]
    assert rf["report"] == {"x": 1}
    assert "T" in rf["timestamp"]  # ISO 8601


def test_summary_str():
    assert storage.summary_str(mpmath.mpf(4)) == "4"
    assert storage.summary_str(mpmath.mpf("0.5")) == "0.5"
    assert mpmath.mpf(storage.summary_str(mpmath.mpf(2) ** 100)) == mpmath.mpf(2) ** 100
    assert storage.summary_str(0) == "0"


def to_str_summary(x):
    """The reference: mpmath's to_str on x rounded to the working precision."""
    return to_str(mpmath.mpf(x)._mpf_, 17).removesuffix(".0")


def test_summary_str_of_every_record():
    # a, c_hat and m_hat of every order: binary exponents up to 1.4e305,
    # where to_str raises 10 to a power of the same size, and for the
    # 128-bit records printed at 53 and at 128 bits
    for n in range(1, 340):
        F = construct(n)
        for x in (F.a, F.c_hat, F.m_hat):
            assert storage.summary_str(x) == to_str_summary(x), (n, x)
    for n in range(7, 13):
        F = construct(n, 128)
        for bits in (53, 128):
            with mpmath.workprec(bits):
                for x in (F.a, F.c_hat, F.m_hat):
                    assert storage.summary_str(x) == to_str_summary(x), (n, bits, x)


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(53, 128),
    man=st.integers(0, 2**127 - 1),
    exp=st.integers(-(2**1000), 2**1000) | st.integers(-5000, 5000),
    sign=st.sampled_from((1, -1, 0)),
    prec=st.sampled_from((53, 128)),
)
def test_summary_str_matches_to_str(bits, man, exp, sign, prec):
    # sign times a bits-bit mantissa, read at 53 or 128 bits
    man = sign * (man >> (128 - bits) | 1 << (bits - 1))
    x = mpmath.mp.make_mpf(from_man_exp(man, exp))
    with mpmath.workprec(prec):
        assert storage.summary_str(x) == to_str_summary(x)


def test_summary_str_near_a_rounding_tie(monkeypatch):
    # 128-bit values 2^-41 and 2^-60 of a unit in the 17th digit to
    # either side of a tie (D + 1/2) 10^(E - 16): to_str's own error
    # there is far larger, so it prints both values of a pair alike,
    # where correct rounding would not. summary_str hands each to to_str
    calls = []
    monkeypatch.setattr(storage, "to_str", lambda s, dps: calls.append(s) or to_str(s, dps))
    rng = random.Random(41)
    values = []
    for _ in range(12):
        E = rng.choice((1, -1)) * rng.randrange(1100, 10**rng.randint(4, 300))
        D = rng.randrange(10**16, 10**17)
        with mpmath.workprec(int(abs(E) * 3.33).bit_length() + 200):
            unit = mpmath.mpf(10) ** (E - 16)
            for off in (mpmath.ldexp(1, -41), mpmath.ldexp(1, -60)):
                values += [(D + mpmath.mpf(0.5) + side * off) * unit for side in (1, -1)]
    with mpmath.workprec(128):
        values = [+x for x in values]
        for x in values:
            assert storage.summary_str(x) == to_str_summary(x), x
    assert len(calls) == len(values)


@pytest.mark.parametrize("precision", [53, 128, 333, 1024, 4096])
def test_hex_codec_is_exact(tmp_path, precision):
    # every magnitude of these records is written as mpmath's normalized
    # mantissa of at most `precision` bits and its exponent, means exactly
    # mantissa * 2^exponent, and reads back to the same bits
    path = tmp_path / "f.json"
    for n in [*range(1, 61), 100, 200, 339]:
        F = construct(n, precision)
        storage.save_function(F, GRID_M, path)
        rec = json.loads(path.read_text(encoding="utf-8"))
        G, gm = storage.load_function(path)
        assert gm == GRID_M and (G.n, G.precision) == (n, precision)
        for key in storage.MAGNITUDES:
            text, want = rec[key], getattr(F, key)._mpf_
            assert HEX_FLOAT.fullmatch(text), (n, key, text)
            man = int(text.split("p")[0], 16)
            assert man == 0 or (man % 2 == 1 and man.bit_length() <= precision), (n, key)
            assert from_hex(text, precision)._mpf_ == want, (n, key)
            assert getattr(G, key)._mpf_ == want, (n, key)
        assert storage.summary_str(F.a) == mpmath.nstr(+F.a, 17).removesuffix(".0"), n
