"""Lossless JSON persistence for constructed records and reports.

A function file (schema_version 3) stores no exponent: p is fixed by n
(forge.build_p), so loading derives it. Every real magnitude is a
decimal string, never a binary JSON number: a record at P bits re-reads
bit-exactly at P bits, because ceil(P log10 2) + 2 significant digits
pin down any P-bit mantissa. Files of schema_version 1 (a Newton-form
exponent) and 2 (the exponent as three rationals) are refused.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone

import mpmath

from .forge import MAX_PRECISION, CounterexampleFunction, build_p

SCHEMA_VERSION = 3


def _strip(s):
    return s[:-2] if s.endswith(".0") else s


def _fmt_mp(x, precision):
    # a, c_hat, m_hat are arbitrary-precision reals even in a 53-bit
    # record (they overflow binary64 from n = 4 on). nstr rounds loosely
    # (off by a few ulps in the last digit), so grow the digit count
    # until parse-back reproduces x exactly
    base = math.ceil(precision * math.log10(2))
    with mpmath.workprec(precision):
        x = mpmath.mpf(x)
        for extra in (2, 5, 8, 12):
            s = mpmath.nstr(x, base + extra)
            if mpmath.mpf(s) == x:
                return _strip(s)
    raise ValueError(f"cannot render {x!r} as a faithful decimal string")


def function_record(F, grid_m):
    """The function-file dict; `seed: None` records that construction
    draws no random numbers at all."""
    P = F.precision
    return {
        "schema_version": SCHEMA_VERSION,
        "n": F.n,
        "precision_bits": P,
        "a": _fmt_mp(F.a, P),
        "c_hat": _fmt_mp(F.c_hat, P),
        "m_hat": _fmt_mp(F.m_hat, P),
        "construction_config": {"grid_m": grid_m, "seed": None},
    }


def function_to_json(F, grid_m):
    return json.dumps(function_record(F, grid_m), indent=2) + "\n"


def save_function(F, grid_m, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(function_to_json(F, grid_m))


def parse_function(record):
    """Rebuild (F, grid_m) from a function-file dict.

    The exponent is build_p(n). Raises ValueError on any malformed
    content: another schema_version, a stored p, an n below 1, non-finite
    magnitudes, a precision outside 53..MAX_PRECISION bits. The rebuilt
    record runs the full construction invariants, so a file whose
    numbers no longer satisfy them raises InvariantViolation instead.
    """
    try:
        version = record["schema_version"]
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {version!r}; this version reads "
                f"schema {SCHEMA_VERSION} (rebuild the file with normfam construct)"
            )
        if "p" in record:
            # a schema-2 file relabelled as schema 3 would otherwise have
            # its exponent silently replaced by build_p(n)
            raise ValueError("schema 3 stores no p (it is derived from n); remove the entry")
        n = int(record["n"])
        precision = int(record["precision_bits"])
        if precision < 53:
            raise ValueError(f"precision_bits {precision} is below 53")
        if precision > MAX_PRECISION:
            raise ValueError(f"precision_bits {precision} is above {MAX_PRECISION}")
        with mpmath.workprec(precision):
            a = mpmath.mpf(record["a"])
            c_hat = mpmath.mpf(record["c_hat"])
            m_hat = mpmath.mpf(record["m_hat"])
        grid_m = int(record["construction_config"]["grid_m"])
    except (KeyError, TypeError, IndexError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed function file: {exc!r}") from exc
    # the invariant gate compares with < and >, which NaN and inf slip past
    for name, x in (("a", a), ("c_hat", c_hat), ("m_hat", m_hat)):
        if not mpmath.isfinite(x):
            raise ValueError(f"{name} = {x} is not finite")
    return CounterexampleFunction(n, build_p(n), a, c_hat, m_hat, precision), grid_m


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
