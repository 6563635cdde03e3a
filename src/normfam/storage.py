"""Lossless JSON persistence for constructed records and reports.

Every real number in a function file is a decimal string, never a
binary JSON number: a record constructed at P bits re-reads bit-exactly
at P bits, because ceil(P log10 2) + 2 significant digits pin down any
P-bit mantissa.  Double-precision parts go through repr, which already
emits the shortest string that round-trips.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone

import mpmath

from .cpoly import NewtonPolynomial
from .forge import CounterexampleFunction

SCHEMA_VERSION = 1


def _strip(s):
    return s[:-2] if s.endswith(".0") else s


def _fmt_mp(x, precision):
    # nstr rounds loosely (off by a few ulps in the last digit), so
    # grow the digit count until parse-back reproduces x exactly
    base = math.ceil(precision * math.log10(2))
    with mpmath.workprec(precision):
        x = mpmath.mpf(x)
        for extra in (2, 5, 8, 12):
            s = mpmath.nstr(x, base + extra)
            if mpmath.mpf(s) == x:
                return _strip(s)
    raise ValueError(f"cannot render {x!r} as a faithful decimal string")


def _fmt_part(x, precision):
    # one real component of a center or coefficient
    if precision <= 53:
        return _strip(repr(float(x)))
    return _fmt_mp(x, precision)


def _fmt_magnitude(x, precision):
    # a, c_hat, m_hat are arbitrary-precision reals even in a 53-bit
    # record (they overflow binary64 from n = 4 on)
    return _fmt_mp(x, precision)


def _pair(z, precision):
    if precision <= 53:
        zc = complex(z)
        return [_fmt_part(zc.real, 53), _fmt_part(zc.imag, 53)]
    with mpmath.workprec(precision):  # mpc() rounds to the ambient context
        zm = mpmath.mpc(z)
    return [_fmt_part(zm.real, precision), _fmt_part(zm.imag, precision)]


def function_record(F, grid_m):
    """The function-file dict; `seed: None` records that construction
    draws no random numbers at all."""
    P = F.precision
    return {
        "schema_version": SCHEMA_VERSION,
        "n": F.n,
        "precision_bits": P,
        "p_centers": [_pair(c, P) for c in F.p.centers],
        "p_coeffs": [_pair(c, P) for c in F.p.coeffs],
        "a": _fmt_magnitude(F.a, P),
        "c_hat": _fmt_magnitude(F.c_hat, P),
        "m_hat": _fmt_magnitude(F.m_hat, P),
        "construction_config": {"grid_m": grid_m, "seed": None},
    }


def function_to_json(F, grid_m):
    return json.dumps(function_record(F, grid_m), indent=2) + "\n"


def save_function(F, grid_m, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(function_to_json(F, grid_m))


def parse_function(record):
    """Rebuild (F, grid_m) from a function-file dict.

    Raises ValueError on any malformed content, including non-finite
    numbers and a precision below 53 bits; the rebuilt record runs the
    full construction invariants, so a file whose numbers no longer
    satisfy them raises InvariantViolation instead.
    """
    try:
        if record["schema_version"] != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {record['schema_version']}")
        n = int(record["n"])
        precision = int(record["precision_bits"])
        if precision < 53:
            raise ValueError(f"precision_bits {precision} is below 53")
        with mpmath.workprec(precision):
            if precision <= 53:
                conv = lambda pair: complex(float(pair[0]), float(pair[1]))
            else:
                conv = lambda pair: mpmath.mpc(
                    mpmath.mpf(pair[0]), mpmath.mpf(pair[1])
                )
            centers = tuple(conv(c) for c in record["p_centers"])
            coeffs = tuple(conv(c) for c in record["p_coeffs"])
            a = mpmath.mpf(record["a"])
            c_hat = mpmath.mpf(record["c_hat"])
            m_hat = mpmath.mpf(record["m_hat"])
        grid_m = int(record["construction_config"]["grid_m"])
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed function file: {exc!r}") from exc
    # the invariant gate compares with < and >, which NaN and inf slip past
    for name, x in (("a", a), ("c_hat", c_hat), ("m_hat", m_hat)):
        if not mpmath.isfinite(x):
            raise ValueError(f"{name} = {x} is not finite")
    if not all(mpmath.isfinite(c) for c in centers + coeffs):
        raise ValueError("p_centers and p_coeffs must be finite")
    p = NewtonPolynomial(centers, coeffs)
    return CounterexampleFunction(n, p, a, c_hat, m_hat, precision), grid_m


def load_function(path):
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if not isinstance(record, dict):
        raise ValueError("function file must hold a JSON object")
    return parse_function(record)


def verification_to_dict(rep):
    return {
        "passed": rep.passed,
        "max_inequality": rep.max_inequality,
        "worst_point": [rep.worst_point.real, rep.worst_point.imag],
        "node_residuals": list(rep.node_residuals),
        "notes": rep.notes,
    }


def summary_str(x):
    """Human-oriented decimal string for a magnitude; 17 significant
    digits, not meant to round-trip."""
    return _strip(mpmath.nstr(mpmath.mpf(x), 17))


def probe_to_dict(pr):
    return {
        "n_values": list(pr.n_values),
        "measurements": [summary_str(m) for m in pr.measurements],
        "verdict": pr.verdict,
    }


def report_file(command, inputs, report):
    """The stdout envelope for verification runs."""
    return {
        "command": command,
        "inputs": list(inputs),
        "report": report,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
