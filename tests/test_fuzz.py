"""Property tests: command-line and file parsing refuse bad input only
with ValueError (exit 2) or InvariantViolation (exit 1), function
files round-trip exactly at any precision, grid CSV rows are the
bytes of %.17g for every float, and the integer node residual is the
residual of the exact rational jet for any rational exponent."""

import json
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normfam import storage
from normfam.analysis import GridSpec
from normfam.cli import CSV_CHUNK, main, parse_complex, parse_n_range, parse_region
from normfam.errors import InvariantViolation
from normfam.forge import CounterexampleFunction, build_p, choose_a, h_jet
from normfam.gridcsv import _BLOCK, csv_rows

# tier-1 runs these on every change; the counts keep them near a second
FEW, MANY = 30, 60

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=12)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
rational_text = st.builds(
    lambda a, b: f"{a}/{b}", st.integers(-(10**6), 10**6), st.integers(0, 10**6)
)
number_text = st.floats().map(repr) | st.integers().map(str)


@settings(max_examples=MANY, deadline=None)
@given(
    st.text(max_size=24)
    | st.builds(lambda a, b, s: f"{a}{s}{b}i", number_text, number_text, st.sampled_from("+-"))
)
def test_parse_complex_raises_only_value_error(text):
    try:
        z = parse_complex(text)
    except ValueError:
        return
    assert isinstance(z, complex)


@settings(max_examples=MANY, deadline=None)
@given(st.lists(st.text(max_size=6) | number_text, max_size=4).map(":".join))
def test_parse_region_raises_only_value_error(text):
    try:
        name, radii = parse_region(text)
    except ValueError:
        return
    assert radii and all(isinstance(r, float) for r in radii)


@settings(max_examples=MANY, deadline=None)
@given(
    st.text(max_size=12)
    | st.builds(lambda a, b: f"{a}..{b}", st.integers(-3, 10**6), st.integers(-3, 10**6))
)
def test_parse_n_range_raises_only_value_error(text):
    try:
        lo, hi = parse_n_range(text)
    except ValueError:
        return
    assert 1 <= lo <= hi


KEYS = ("schema_version", "n", "precision_bits", "a", "c_hat", "m_hat", "construction_config")
HEX_FLOAT = re.compile(r"-?0x[0-9a-f]+p[+-][0-9]+")


def hex_mutations(text, precision):
    """Near misses of the hex-float grammar around a stored magnitude."""
    man, exp = text.split("p")
    return [
        text.replace("0x", "0X"),
        text.replace("p", "P"),
        text.upper(),
        text.replace("0x", ""),
        text.replace("p", ""),
        "+" + text,
        " " + text,
        text + "\n",
        text.replace("p", " p"),
        text.replace("0x", "0x_"),
        text[:3] + "_" + text[3:],
        "0xp" + exp,
        f"{(1 << precision) | 1:#x}p{exp}",
        "inf",
        "-inf",
        "nan",
        "1/0",
    ]


@st.composite
def hex_text(draw, text, precision):
    # a near miss of the grammar, any value it can spell, or an exponent
    # of 5000 digits (int() refuses that many with ValueError from Python
    # 3.10.7 on; a parsed one is an exact value like any other)
    bits = draw(st.integers(0, precision + 1))
    man = draw(st.integers(0, 2**bits - 1) if bits else st.just(0))
    exp = draw(st.integers(-(2**40), 2**40))
    made = f"{'-' * draw(st.booleans())}{man:#x}p{exp:+d}"
    huge = [text.split("p")[0] + f"p{sign}" + "9" * 5000 for sign in "+-"]
    return draw(st.sampled_from([made, *huge, *hex_mutations(text, precision)]))


@st.composite
def mutated_records(draw, family):
    rec = storage.function_record(family[draw(st.integers(1, 6))], 1024)
    precision = rec["precision_bits"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("replace", "hex", "delete", "grid_m")))
        key = draw(st.sampled_from(KEYS))
        if kind == "hex" and key in storage.MAGNITUDES and HEX_FLOAT.fullmatch(str(rec.get(key))):
            rec[key] = draw(hex_text(rec[key], precision))
        elif kind in ("replace", "hex"):
            rec[key] = draw(json_values | rational_text | number_text)
        elif kind == "delete":
            rec.pop(key, None)
        elif isinstance(rec.get("construction_config"), dict):
            rec["construction_config"]["grid_m"] = draw(json_values)
    return json.loads(json.dumps(rec))  # only what a JSON file can hold


@settings(max_examples=MANY, deadline=None)
@given(data=st.data())
def test_parse_function_raises_only_documented_errors(family, data):
    rec = data.draw(mutated_records(family))
    try:
        F, grid_m = storage.parse_function(rec)
    except (ValueError, InvariantViolation):
        return
    assert F.p == build_p(F.n)
    # an accepted record holds JSON integers and hex-float strings of at
    # most precision_bits mantissa bits only, read as exactly man * 2^exp
    precision = rec["precision_bits"]
    assert type(rec["n"]) is int and type(precision) is int
    assert type(grid_m) is int and grid_m >= 64
    for key in storage.MAGNITUDES:
        assert HEX_FLOAT.fullmatch(rec[key]), rec[key]
        man, exp = rec[key].split("p")
        assert abs(int(man, 16)).bit_length() <= precision
        with mpmath.workprec(precision):
            assert getattr(F, key) == mpmath.ldexp(int(man, 16), int(exp))


@pytest.mark.parametrize("case", range(len(hex_mutations("0x1p+0", 53))))
@pytest.mark.parametrize("key", storage.MAGNITUDES)
def test_hex_grammar_near_misses_refused(family, key, case):
    # each near miss of the grammar is refused as malformed input (exit 2),
    # never read as some other value
    rec = storage.function_record(family[3], 1024)
    rec[key] = hex_mutations(rec[key], rec["precision_bits"])[case]
    with pytest.raises(ValueError):
        storage.parse_function(rec)


@pytest.fixture(scope="module")
def record_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


@settings(max_examples=FEW, deadline=None)
@given(
    n=st.integers(1, 12),
    precision=st.integers(53, 512),
    c_bits=st.integers(0, 2**64),
    m_bits=st.integers(1, 2**64),
    c_exp=st.integers(-2000, 2000),
    m_exp=st.integers(-2000, 2000),
    grid_m=st.integers(64, 4096),
)
def test_save_load_round_trip_any_precision(
    record_dir, n, precision, c_bits, m_bits, c_exp, m_exp, grid_m
):
    with mpmath.workprec(precision):
        c_hat = mpmath.mpf(c_bits) * mpmath.mpf(2) ** c_exp / 3
        m_hat = mpmath.mpf(m_bits) * mpmath.mpf(2) ** m_exp / 7
        a = choose_a(n, c_hat, m_hat)
        F = CounterexampleFunction(n, build_p(n), a, c_hat, m_hat, precision)
    path = record_dir / f"f_{n}_{precision}.json"
    storage.save_function(F, grid_m, path)
    G, gm = storage.load_function(path)
    assert (G, gm) == (F, grid_m)
    assert storage.function_to_json(G, gm) == path.read_text(encoding="utf-8")


@settings(max_examples=MANY, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(), st.floats()), min_size=1, max_size=8))
def test_csv_rows_are_17g_text(rows):
    # st.floats() draws nan, +-inf, +-0 and subnormals too
    want = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
    assert csv_rows(np.array(rows)).tobytes() == want.encode("ascii")


def dense_values(rng):
    """Every decimal exponent from -5 to 17, both signs, 1-17 significant
    digits, runs of nines that round up to the next power of ten, the
    neighbours of each power of ten, zeros, subnormals and non-finite
    values, shuffled."""
    vals = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072009e-308]
    vals += (rng.integers(1, 2**52, 40) * 5e-324).tolist()
    for k in range(-5, 18):
        for digits in range(1, 18):
            for m in rng.integers(10 ** (digits - 1), 10**digits, 8).tolist():
                vals.append(float(f"{m}e{k - digits + 1}"))
        vals += [float("9" * L + f"e{k - L + 1}") for L in range(15, 21)]
        x = float(f"1e{k}")
        vals += [math.nextafter(x, 0), x, math.nextafter(x, math.inf)]
    vals += [-v for v in vals]
    rng.shuffle(vals)
    return vals


def rows_17g(x):
    return "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in x.tolist())


def test_csv_rows_dense_across_gather_blocks():
    # one call of more than three gather blocks and a ragged tail
    vals = dense_values(np.random.default_rng(12))
    vals += vals[: -len(vals) % 3]
    x = np.array(vals).reshape(-1, 3)
    assert x.size > 3 * _BLOCK and x.size % _BLOCK
    assert csv_rows(x).tobytes() == rows_17g(x).encode("ascii")


# rows of three fields: the field counts just below, at (where 3 divides
# it) and just above the edge of one, two and three gather blocks, and
# one whole CSV_CHUNK of rows
@pytest.mark.parametrize(
    "rows",
    [r for b in (1, 2, 3) for r in range((b * _BLOCK - 1) // 3, b * _BLOCK // 3 + 2)]
    + [CSV_CHUNK],
)
def test_csv_rows_at_gather_block_edges(rows):
    vals = np.array(dense_values(np.random.default_rng(rows)))
    x = np.resize(vals, (rows, 3))
    assert csv_rows(x).tobytes() == rows_17g(x).encode("ascii")


@pytest.fixture(scope="module")
def f2_file(record_dir, family):
    path = record_dir / "f2_cli.json"
    storage.save_function(family[2], 1024, path)
    return str(path)


# st.floats() alone seldom draws a non-finite value
radii_values = st.sampled_from((math.nan, math.inf, -math.inf, 0.0, 1.0)) | st.floats()


@settings(max_examples=MANY, deadline=None)
@given(st.sampled_from(("disk", "circle", "annulus")), st.tuples(radii_values, radii_values))
def test_grid_spec_takes_only_finite_positive_radii(region, pair):
    radii = pair if region == "annulus" else pair[:1]
    try:
        GridSpec(region, radii, 4)
    except ValueError:
        return
    assert all(0 < r < math.inf for r in radii)


@pytest.mark.parametrize("region", ["disk:nan", "disk:inf", "circle:nan", "annulus:1:inf", "annulus:nan:2"])
def test_grid_refuses_non_finite_radii(f2_file, tmp_path, capsys, region):
    out = tmp_path / "g.csv"
    assert main(["grid", f2_file, "--what", "fk", "--region", region,
                 "--resolution", "10", "--export", str(out)]) == 2
    assert capsys.readouterr().err == "error: radii must be positive and finite\n"
    assert not out.exists()


@pytest.mark.parametrize("radius", ["nan", "inf", "-inf", "-0.1"])
def test_marty_refuses_non_finite_radius(f2_file, capsys, radius):
    assert main(["probe", "marty", f2_file, f"--radius={radius}"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: radius must be finite and >= 0\n")


rationals = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12))


@settings(max_examples=MANY, deadline=None)
@given(
    st.integers(1, 60),
    st.tuples(rationals, rationals, rationals) | st.none(),
    st.integers(0, 2),
    st.integers(-(10**6), 10**6),
)
def test_node_residual_matches_rational_jet(n, p, k, nudge):
    # any rational exponent: random, or build_p(n) with c_k moved by
    # nudge / 10^40 (0 included); the record is made without its gate
    if p is None:
        p = list(build_p(n))
        p[k] += Fraction(nudge, 10**40)
        p = tuple(p)
    F = object.__new__(CounterexampleFunction)
    object.__setattr__(F, "n", n)
    object.__setattr__(F, "p", p)
    hj = h_jet(n, p, Fraction(1), 4)
    want = max(abs(hj[m]) for m in (2, 3, 4)) / max(1, abs(hj[1]))
    got = F.node_residual
    assert isinstance(got, Fraction) and got == want
    assert (got == 0) == (p == build_p(n))
