"""Function-file persistence: lossless decimal round-trips, schema
validation, and report serialization."""

import json

import mpmath
import pytest

from normfam import storage
from normfam.analysis import ProbeResult, VerificationReport, marty_probe
from normfam.errors import InvariantViolation
from normfam.forge import ConstructionConfig, construct


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
    F = construct(3, ConstructionConfig(precision=128, grid_m=512))
    G, gm, text = roundtrip(F, grid_m=512)
    assert gm == 512
    assert_identical(F, G)
    assert storage.function_to_json(G, gm) == text


def test_record_numbers_are_decimal_strings(family):
    rec = storage.function_record(family[4], 1024)
    assert rec["schema_version"] == 3
    for key in ("a", "c_hat", "m_hat"):
        assert isinstance(rec[key], str)
    assert "p" not in rec  # fixed by n, derived on load
    # c_4 overflows binary64, so a binary JSON number could not hold it
    assert float(rec["c_hat"]) == float("inf")


def test_trivial_member_record(family):
    rec = storage.function_record(family[1], 1024)
    assert rec["n"] == 1
    assert rec["a"] == "4"
    assert rec["c_hat"] == "0"
    assert rec["construction_config"] == {"grid_m": 1024, "seed": None}


def test_stored_strings_parse_exactly(family):
    F = family[3]
    rec = storage.function_record(F, 1024)
    with mpmath.workprec(F.precision):
        assert mpmath.mpf(rec["a"]) == F.a
        assert mpmath.mpf(rec["c_hat"]) == F.c_hat


def test_save_and_load_files(tmp_path, family):
    path = tmp_path / "f2.json"
    storage.save_function(family[2], 1024, path)
    first = path.read_bytes()
    assert first.endswith(b"\n")
    G, gm = storage.load_function(path)
    assert_identical(family[2], G)
    storage.save_function(G, gm, path)
    assert path.read_bytes() == first


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


@pytest.mark.parametrize("key", ["a", "c_hat", "m_hat"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_magnitude_rejected(family, key, value):
    rec = storage.function_record(family[3], 1024)
    rec[key] = value
    with pytest.raises(ValueError, match="not finite"):
        storage.parse_function(rec)


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
    with pytest.raises(ValueError, match="schema 3 .*rebuild"):
        storage.parse_function(_old_schema_record(family, 1))


def test_schema_two_file_rejected(family):
    with pytest.raises(ValueError, match="schema 3 .*rebuild"):
        storage.parse_function(_old_schema_record(family, 2))


def test_stored_exponent_rejected(family):
    # a schema-2 file relabelled as schema 3 keeps its p, which is refused
    rec = _old_schema_record(family, 2)
    rec["schema_version"] = 3
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
    rec["a"] = str(mpmath.mpf(rec["a"]) / 2)
    with pytest.raises(InvariantViolation):
        storage.parse_function(rec)


def test_c2_perturbed_by_one_millionth_fails_invariants(family):
    # the file stores no c2 to perturb; c_hat raised by one millionth
    # lifts sqrt(2 n c_hat) above the stored a
    rec = storage.function_record(family[6], 1024)
    rec["c_hat"] = str(mpmath.mpf(rec["c_hat"]) * (1 + mpmath.mpf("1e-6")))
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
