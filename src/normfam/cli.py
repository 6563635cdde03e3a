"""Command-line surface: construct family members, verify their
properties, probe blow-up and decay, export plot-ready grids.

Exit codes: 0 all checks pass, 1 a verification or probe failed,
2 invalid input (arguments or malformed files).  Reports go to stdout;
data files only to explicitly named paths.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import kernels, storage
from .analysis import (
    DEFAULT_SEED,
    GridSpec,
    lemma2_probe,
    marty_probe,
    max_modulus_check,
    verify_inequality,
    verify_node_jets,
)
from .errors import (
    CenterOffCircle,
    InvariantViolation,
    NormfamError,
    PointTooCloseToCircle,
)
from .forge import EPS_NODE, ConstructionConfig, construct, p_degree

OK, FAIL, USAGE = 0, 1, 2

# grid exports are written this many rows at a time, so that no list or
# string of the whole export is ever built
CSV_CHUNK = 8192

# one canonical complex syntax: a+bi with no spaces (bare reals allowed)
_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)


def parse_complex(text):
    m = _COMPLEX_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse {text!r} as a complex number; use a+bi")
    return complex(float(m.group("re")), float(m.group("im") or 0.0))


def parse_region(text):
    parts = text.split(":")
    try:
        name, radii = parts[0], tuple(float(r) for r in parts[1:])
    except ValueError as exc:
        raise ValueError(f"cannot parse region {text!r}") from exc
    if not radii:
        raise ValueError(f"region {text!r} needs at least one radius, e.g. disk:2")
    return name, radii


def parse_n_range(text):
    m = re.match(r"^(\d+)\.\.(\d+)$", text)
    if not m:
        raise ValueError(f"cannot parse range {text!r}; use A..B")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo < 1:
        raise ValueError("range must start at 1 or above")
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _err(msg):
    print(f"error: {msg}", file=sys.stderr)


def _load(path):
    """(F, grid_m, exit_code): parse problems are usage errors, invariant
    violations are verification failures."""
    try:
        F, grid_m = storage.load_function(path)
        return F, grid_m, OK
    except InvariantViolation as exc:
        _err(f"{path}: stored function fails its invariants: {exc}")
        return None, None, FAIL
    except (OSError, ValueError) as exc:
        _err(f"{path}: {exc}")
        return None, None, USAGE


def cmd_construct(args):
    if args.n < 1:
        _err("n must be >= 1")
        return USAGE
    try:
        cfg = ConstructionConfig(precision=args.precision, grid_m=args.grid)
    except ValueError as exc:
        _err(str(exc))
        return USAGE
    try:
        F = construct(args.n, cfg)
    except NormfamError as exc:
        _err(f"construction failed: {exc}")
        return FAIL
    try:
        storage.save_function(F, args.grid, args.output)
    except OSError as exc:
        _err(f"{args.output}: {exc}")
        return USAGE
    return OK


def cmd_verify(args):
    F, _, code = _load(args.file)
    if code != OK:
        return code
    ineq = verify_inequality(F, args.samples, args.tol, seed=args.seed)
    nodes = verify_node_jets(F)
    maxmod = max_modulus_check(F)
    report = storage.report_file(
        "verify",
        [args.file],
        {
            "inequality": storage.verification_to_dict(ineq),
            "node_jets": storage.verification_to_dict(nodes),
            "max_modulus": storage.verification_to_dict(maxmod),
        },
    )
    print(json.dumps(report, indent=2, allow_nan=False))
    return OK if (ineq.passed and nodes.passed and maxmod.passed) else FAIL


def cmd_probe(args):
    Fs = []
    for path in args.files:
        F, _, code = _load(path)
        if code != OK:
            return code
        Fs.append(F)
    try:
        if args.kind == "marty":
            pr = marty_probe(Fs, parse_complex(args.center), args.radius, seed=args.seed)
        else:
            points = [parse_complex(s) for s in args.points.split(",")]
            orders = [int(s) for s in args.orders.split(",")]
            pr = lemma2_probe(Fs, points, orders)
    except (CenterOffCircle, PointTooCloseToCircle, ValueError) as exc:
        _err(str(exc))
        return USAGE
    print(json.dumps(storage.probe_to_dict(pr), indent=2))
    return OK if pr.verdict in ("blowup", "decay") else FAIL


def cmd_grid(args):
    F, _, code = _load(args.file)
    if code != OK:
        return code
    try:
        name, radii = parse_region(args.region)
        spec = GridSpec(name, radii, args.resolution, seed=args.seed)
    except ValueError as exc:
        _err(str(exc))
        return USAGE
    zs = spec.points()
    if args.what == "ratio":
        zs = zs[np.abs(zs**F.n - 1.0) > EPS_NODE]  # poles-adjacent zone excluded
        vals = kernels.ratio_log(F.n, F.p_float, zs)
    elif args.what == "fk":
        vals = kernels.fk(F.n, F.p_float, F.log_a, zs)
    else:
        vals = kernels.sphder_log(F.n, F.p_float, F.log_a, zs)
    keep = np.isfinite(vals)
    try:
        write_csv(args.export, zs[keep], vals[keep])
    except OSError as exc:
        _err(f"{args.export}: {exc}")
        return USAGE
    return OK


def _split(a):
    """Veltkamp's split a = hi + lo, each half with at most 26 bits."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


# Tables of the CSV encoder (see csv_rows), built with numpy at import:
# _DIGITS4[v] holds the four ASCII digits of v = 0..9999 as one uint32,
# _TZ4[v] counts their trailing zeros, and 10^s is exact for s <= 22.
_I4 = np.arange(10_000)
_DIGITS4 = (ord("0") + _I4[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
_TZ4 = sum(_I4 % 10**j == 0 for j in range(1, 5)).astype(np.int64)
_POW = np.array([10**s for s in range(23)], dtype=np.float64)
_POW_HI, _POW_LO = _split(_POW)


def _source_row_layouts():
    """For each (sign, k, L), the source-row column of each of the 25 bytes
    of a field: the fixed-notation %.17g text of a value with decimal
    exponent k in -4..16 and L significant digits, then its separator,
    then NUL padding. A source row is _TEMPLATE with the 17 digits in
    columns 4-20; row (21 sign + k + 4) 17 + L - 1 is that layout."""
    sign, k, L, t = np.ix_(range(2), range(-4, 17), range(1, 18), range(25))
    u = t - sign
    point = 5 + k  # source column of the first digit after the point
    lo = np.minimum(4, point - 1)  # ... and of the first digit written
    nint, nfrac = point - lo, np.maximum(0, 4 + L - point)
    end = nint + nfrac + (nfrac > 0)
    src = np.select(
        [u < 0, u < nint, u == end, u == nint, u < end], [21, lo + u, 23, 22, lo + u - 1], 24
    )
    return src.reshape(-1, 25)


_LAYOUT = _source_row_layouts()
# the source rows of one CSV row's three fields, digits still to fill in
_TEMPLATE = np.frombuffer(
    b"".join(b"0000" + bytes(17) + b"-." + sep + bytes(1) for sep in (b",", b",", b"\n")), np.uint8
).reshape(3, 25)


def write_csv(path, zs, vals):
    """re,im,value rows with 17 significant digits, CSV_CHUNK at a time."""
    with open(path, "wb") as fh:
        fh.write(b"re,im,value\n")
        for i in range(0, len(vals), CSV_CHUNK):
            z, v = zs[i : i + CSV_CHUNK], vals[i : i + CSV_CHUNK]
            fh.write(csv_rows(np.stack([z.real, z.imag, v], axis=1)))


def _times_pow10(a, s):
    """(p, e) with a * 10^s = p + e exactly (Dekker's two-product)."""
    p = a * _POW[s]
    ah, al = _split(a)
    e = ((ah * _POW_HI[s] - p) + ah * _POW_LO[s] + al * _POW_HI[s]) + al * _POW_LO[s]
    return p, e


def csv_rows(x):
    """The bytes of "%.17g,%.17g,%.17g\n" % tuple(row) for each row of the
    float array x of shape (m, 3), as one uint8 array.

    For 9e-5 <= |v| < 1e17 the 17 significant digits d and the decimal
    exponent k of v are found exactly. With s = 16 - k in 0..21,
    |v| 10^s = p + e exactly (Dekker's two-product); p >= 2^53 is an even
    integer, so d = p + rint(e) is rounded half to even, as %.17g does. A
    guess of k from log10 that is off by one fails 10^16 <= floor(p + e)
    < 10^17 and is redone. The fields with k in -4..16, which %.17g writes
    in fixed notation, and the zeros are gathered from the digit tables;
    the rest (non-finite, |v| < 1e-4, |v| >= 1e17) go through one
    %-format call."""
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.size
    a = np.abs(x)
    fast = (a >= 9e-5) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), -5, 16).astype(np.int64)
    p, e = _times_pow10(a, 16 - k)
    f = p.astype(np.int64) + np.floor(e).astype(np.int64)
    redo = np.flatnonzero((f < 10**16) | (f >= 10**17))
    k[redo] += np.where(f[redo] < 10**16, -1, 1)
    p[redo], e[redo] = _times_pow10(a[redo], 16 - k[redo])
    d = p.astype(np.int64) + np.rint(e).astype(np.int64)
    up = d == 10**17
    d[up], k[up] = 10**16, k[up] + 1
    zero = x == 0
    d[zero], k[zero] = 0, 0
    slow = ~(fast | zero) | (k < -4) | (k > 16)

    r = d % 10**16
    g = np.stack([r // 10**12, r // 10**8 % 10**4, r // 10**4 % 10**4, r % 10**4], axis=1)
    tz = _TZ4[g[:, 3]] + (g[:, 3] == 0) * (
        _TZ4[g[:, 2]] + (g[:, 2] == 0) * (_TZ4[g[:, 1]] + (g[:, 1] == 0) * _TZ4[g[:, 0]])
    )
    src = np.empty((n // 3, 3, 25), np.uint8)
    src[:] = _TEMPLATE
    src = src.reshape(n, 25)
    src[:, 4] = ord("0") + d // 10**16
    src[:, 5:21] = _DIGITS4[g].view(np.uint8).reshape(n, 16)
    layout = (np.signbit(x) * 21 + k + 4) * 17 + 16 - tz
    gather = _LAYOUT.take(layout, axis=0, mode="clip")
    gather += np.arange(0, 25 * n, 25)[:, None]
    out = src.ravel().take(gather)

    i = np.flatnonzero(slow)
    text = ("%.17g " * i.size % tuple(x[i].tolist())).split()
    out[i, :24] = np.array(text, dtype="S24").view(np.uint8).reshape(i.size, 24)
    out[i, 24] = src[i, 23]
    return out[out != 0]


def cmd_sweep(args):
    try:
        lo, hi = parse_n_range(args.n_range)
    except ValueError as exc:
        _err(str(exc))
        return USAGE
    rows, all_ok = [], True
    for n in range(lo, hi + 1):
        try:
            F = construct(n)
            ineq = verify_inequality(F)
            nodes = verify_node_jets(F)
            maxmod = max_modulus_check(F)
            pm = marty_probe([F], 1 + 0j, 0.1)
            ok = ineq.passed and nodes.passed and maxmod.passed and pm.verdict == "blowup"
            rows.append(
                {
                    "n": n,
                    "degree_p": p_degree(n, F.p),
                    "c_hat": storage.summary_str(F.c_hat),
                    "a": storage.summary_str(F.a),
                    "max_inequality": float(ineq.max_inequality),
                    "marty": storage.summary_str(pm.measurements[0]),
                    "passed": ok,
                }
            )
        except (NormfamError, ValueError) as exc:
            rows.append({"n": n, "error": str(exc), "passed": False})
            ok = False
        all_ok = all_ok and ok
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            json.dump({"command": "sweep", "rows": rows}, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        _err(f"{args.output}: {exc}")
        return USAGE
    for row in rows:
        if "error" in row:
            print(f"n={row['n']:<3d} ERROR {row['error']}")
        else:
            print(
                f"n={row['n']:<3d} deg(p)={row['degree_p']:<3d}"
                f" c_hat={row['c_hat']:<24s} a={row['a']:<24s}"
                f" max_ineq={row['max_inequality']:.3e}"
                f" marty={row['marty']:<24s}"
                f" {'pass' if row['passed'] else 'FAIL'}"
            )
    return OK if all_ok else FAIL


@functools.cache
def _parser():
    top = argparse.ArgumentParser(
        prog="normfam",
        description="construct and verify the counterexample family "
        "f_n = a_n (z^n - 1) exp(p_n)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build one family member and save it")
    c.add_argument("-n", type=int, required=True, help="family order (>= 1)")
    c.add_argument("--precision", type=int, default=53,
                   help="bits of the stored magnitudes and of the probes' "
                   "mpmath arithmetic (53..4096)")
    c.add_argument("--grid", type=int, default=1024, help="magnitude scan grid size")
    c.add_argument("-o", "--output", required=True, help="function file to write")

    v = sub.add_parser("verify", help="run all verification sweeps on a saved function")
    v.add_argument("file")
    v.add_argument("--samples", type=int, default=10000)
    v.add_argument("--tol", type=float, default=1e-12)
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("probe", help="measure blow-up (marty) or decay (lemma2)")
    p.add_argument("kind", choices=["marty", "lemma2"])
    p.add_argument("files", nargs="+")
    p.add_argument("--center", default="1+0i", help="marty: center on the unit circle")
    p.add_argument("--radius", type=float, default=0.1, help="marty: disk radius")
    p.add_argument("--points", default="0", help="lemma2: comma-separated points")
    p.add_argument("--orders", default="2", help="lemma2: comma-separated orders from {1,2}")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    g = sub.add_parser("grid", help="export grid values as CSV (re,im,value)")
    g.add_argument("file")
    g.add_argument("--what", choices=["ratio", "fk", "sphder"], required=True,
                   help="ratio and sphder emit log-scale values")
    g.add_argument("--region", required=True, help="disk:R | circle:R | annulus:R1:R2")
    g.add_argument("--resolution", type=int, required=True)
    g.add_argument("--export", required=True, help="CSV path to write")
    g.add_argument("--seed", type=int, default=DEFAULT_SEED)

    s = sub.add_parser("sweep", help="construct and verify a whole range of orders")
    s.add_argument("--n-range", required=True, help="A..B inclusive")
    s.add_argument("-o", "--output", required=True, help="summary JSON to write")
    return top


def main(argv=None):
    args = _parser().parse_args(argv)
    # looked up per call, so the cached parser sees a rebound cmd_*
    return globals()["cmd_" + args.command](args)


if __name__ == "__main__":
    sys.exit(main())
