"""Command-line surface: construct family members, verify their
properties, probe blow-up and decay, export plot-ready grids.

Exit codes: 0 all checks pass, 1 a verification or probe failed,
2 invalid input (arguments or malformed files).  Reports go to stdout;
data files only to explicitly named paths.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import re
import sys

import numpy as np

from . import kernels, storage
from .analysis import (
    DEFAULT_SEED,
    GridSpec,
    check_seed,
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
    Overflow,
    PointTooCloseToCircle,
)
from .forge import GRID_M, construct, p_degree

OK, FAIL, USAGE = 0, 1, 2

# glibc's mallopt parameter (malloc.h) and the value main gives it
_M_TOP_PAD = -2
_TOP_PAD = 64 << 20

# grid exports are computed and written this many points at a time, so
# that no array, list or string of the whole export is ever built
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
    """(F, exit_code): parse problems are usage errors, invariant
    violations are verification failures."""
    try:
        return storage.load_function(path)[0], OK
    except InvariantViolation as exc:
        _err(f"{path}: stored function fails its invariants: {exc}")
        return None, FAIL
    except (OSError, ValueError) as exc:
        _err(f"{path}: {exc}")
        return None, USAGE


def cmd_construct(args):
    try:
        F = construct(args.n, args.precision)
    except ValueError as exc:  # an order or a precision out of range
        _err(str(exc))
        return USAGE
    except NormfamError as exc:
        _err(f"construction failed: {exc}")
        return FAIL
    try:
        storage.save_function(F, GRID_M, args.output)
    except OSError as exc:
        _err(f"{args.output}: {exc}")
        return USAGE
    return OK


def cmd_verify(args):
    F, code = _load(args.file)
    if code != OK:
        return code
    try:
        check_seed(args.seed)
    except ValueError as exc:
        _err(str(exc))
        return USAGE
    checks = {"inequality": verify_inequality(F)}
    checks.update(node_jets=verify_node_jets(F), max_modulus=max_modulus_check(F))
    sub = {name: storage.verification_to_dict(rep) for name, rep in checks.items()}
    print(json.dumps(storage.report_file("verify", [args.file], sub), indent=2, allow_nan=False))
    return OK if all(rep.passed for rep in checks.values()) else FAIL


def cmd_probe(args):
    Fs = []
    for path in args.files:
        F, code = _load(path)
        if code != OK:
            return code
        Fs.append(F)
    try:
        check_seed(args.seed)
        if args.kind == "marty":
            pr = marty_probe(Fs, parse_complex(args.center), args.radius)
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
    F, code = _load(args.file)
    if code != OK:
        return code
    try:
        name, radii = parse_region(args.region)
        spec = GridSpec(name, radii, args.resolution, seed=args.seed)
    except ValueError as exc:
        _err(str(exc))
        return USAGE
    # imported here, so that only grid processes build the encoder's tables
    from .gridcsv import write_csv

    try:
        write_csv(args.export, _grid_rows(F, args.what, spec))
    except Overflow as exc:
        _err(f"{args.file}: {exc}")
        return FAIL
    except OSError as exc:
        _err(f"{args.export}: {exc}")
        return USAGE
    return OK


def _grid_rows(F, what, spec):
    """(points, values) of a grid export, CSV_CHUNK points at a time, so
    that no array holds the whole grid. Rows at -inf (log 0) are dropped;
    a value of +inf or NaN raises Overflow."""
    for zs in spec.chunks(CSV_CHUNK):
        if what == "ratio":
            vals = kernels.ratio_log(F.n, zs)
        elif what == "fk":
            vals = kernels.fk(F.n, F.log_a, zs)
        else:
            vals = kernels.sphder_log(F.n, F.log_a, zs)
        if not np.all(vals < np.inf):  # +inf or NaN
            raise Overflow(f"{what} overflows binary64 at order {F.n}")
        keep = vals > -np.inf
        yield zs[keep], vals[keep]


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
                    "degree_p": p_degree(n),
                    "c_hat": storage.summary_str(F.c_hat),
                    "a": storage.summary_str(F.a),
                    # NaN when the grid overflows; strict JSON writes it null
                    "max_inequality": storage.json_float(float(ineq.max_inequality)),
                    "marty": storage.summary_str(pm.measurements[0]),
                    "passed": ok,
                }
            )
        except (NormfamError, ValueError) as exc:
            rows.append({"n": n, "error": str(exc), "passed": False})
            ok = False
        all_ok = all_ok and ok
    summary = json.dumps({"command": "sweep", "rows": rows}, indent=2, allow_nan=False)
    try:
        with storage.rewrite(args.output) as fh:
            fh.write(summary.encode("utf-8") + b"\n")
    except OSError as exc:
        _err(f"{args.output}: {exc}")
        return USAGE
    for row in rows:
        if "error" in row:
            print(f"n={row['n']:<3d} ERROR {row['error']}")
        else:
            max_ineq = row["max_inequality"]
            print(
                f"n={row['n']:<3d} deg(p)={row['degree_p']:<3d}"
                f" c_hat={row['c_hat']:<24s} a={row['a']:<24s}"
                f" max_ineq={'nan' if max_ineq is None else format(max_ineq, '.3e')}"
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
    c.add_argument("-o", "--output", required=True, help="function file to write")

    v = sub.add_parser("verify", help="run all verification checks on a saved function")
    v.add_argument("file")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="range-checked; it no longer changes verify's output")

    p = sub.add_parser("probe", help="measure blow-up (marty) or decay (lemma2)")
    p.add_argument("kind", choices=["marty", "lemma2"])
    p.add_argument("files", nargs="+")
    p.add_argument("--center", default="1+0i", help="marty: center on the unit circle")
    p.add_argument("--radius", type=float, default=0.1, help="marty: disk radius")
    p.add_argument("--points", default="0", help="lemma2: comma-separated points")
    p.add_argument("--orders", default="2", help="lemma2: comma-separated orders from {1,2}")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="range-checked only")

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


@functools.cache
def keep_freed_heap():
    """Have glibc keep up to _TOP_PAD bytes of freed heap mapped (M_TOP_PAD);
    True when it took the setting.

    The grid kernels allocate and free arrays of 130-180 KiB on every chunk of a
    grid export. Without the pad glibc returns the freed top of the heap to the
    kernel after each chunk, and the next chunk faults it back in page by page:
    the six exports of 10^5 points of the n = 6 and n = 12 records (fk, ratio
    and sphder over disk:2) took about 53,000 minor faults and 0.36-0.44 s per
    warm round in one process, and take 0-1 faults and 0.28-0.35 s with the pad.
    verify and the probes call no kernel and do not gain. The pad reserves no
    memory, but it fixes glibc's mmap threshold at 128 KiB: gridcsv._gather's
    two 200 KB arrays are mapped anew per call unless the heap top holds them (a
    warm 1000-point export takes 0 minor faults, one 400 KB array took 101).
    Outside glibc (macOS, musl, Windows) this does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_TOP_PAD, _TOP_PAD) == 1


def main(argv=None):
    # set here, not at import, so that a program importing normfam as a
    # library keeps its allocator as it was
    keep_freed_heap()
    args = _parser().parse_args(argv)
    # looked up per call, so the cached parser sees a rebound cmd_*
    return globals()["cmd_" + args.command](args)


if __name__ == "__main__":
    sys.exit(main())
