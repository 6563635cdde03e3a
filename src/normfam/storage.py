"""Lossless JSON persistence for constructed records and reports, and
the in-place writer (rewrite) that every file normfam writes goes through.

A function file (schema_version 4) stores no exponent: p is fixed by n
(forge.build_p), so loading derives it. Every real magnitude is a C99
hex-float string 0x<hex mantissa>p<signed exponent>, exactly mantissa *
2^exponent with mpmath's normalized mantissa of at most precision_bits
bits, so it is written and read bit-exactly with no rounding. Files of
schema_version 1 (a Newton-form exponent), 2 (the exponent as three
rationals) and 3 (decimal magnitudes) are refused.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import stat
from datetime import datetime, timezone

import mpmath
from mpmath.libmp import from_man_exp, ln2_fixed, ln10_fixed, mpf_div, mpf_exp, mpf_ln10
from mpmath.libmp import mpf_log, mpf_mul, to_fixed, to_str

from .forge import MAX_PRECISION, CounterexampleFunction, build_p

SCHEMA_VERSION = 4
MAGNITUDES = ("a", "c_hat", "m_hat")


def _fmt_mp(x, precision):
    # a, c_hat, m_hat overflow binary64 from n = 4 on; bc < 0 marks inf and nan
    sign, man, exp, bc = mpmath.mpf(x, prec=precision)._mpf_
    if bc < 0:
        raise ValueError(f"{x} is not finite")
    return f"{'-' * sign}{man:#x}p{exp:+d}"


# exactly what _fmt_mp writes: no underscores, whitespace, capitals or "+"
_HEX_FLOAT = re.compile(r"-?0x[0-9a-f]+p[+-][0-9]+")


def _parse_mp(key, text, precision):
    if not _HEX_FLOAT.fullmatch(text):
        raise ValueError(f"malformed {key} = {text!r}: not finite, or not -?0x<hex>p<+|-><exp>")
    man, exp = text.split("p")
    man = int(man, 16)
    if abs(man).bit_length() > precision:
        raise ValueError(f"{key} has a mantissa wider than precision_bits = {precision}")
    return mpmath.mp.make_mpf(from_man_exp(man, int(exp)))


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


# no O_TRUNC: see rewrite
_REWRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


@contextlib.contextmanager
def rewrite(path):
    """A binary handle that writes `path` from offset 0, in place.

    The file is opened without O_TRUNC, and on success a regular file is
    cut at the end of what was written, so it holds exactly the new
    bytes. Truncating a non-empty file to zero makes ext4 (auto_da_alloc),
    xfs and btrfs start writeback at close: on ext4 on a 2-CPU x86-64 VM,
    rewriting a 300-byte record took a median of 102 us that way and
    takes 20 us in place, a 5.4 MB export 4.5 ms against 0.66 ms (see
    README, "How files are written"). A symlink, a hard link and
    the file's mode survive, and a device or pipe (/dev/null, /dev/stdout)
    is written, never truncated.

    When the body or the write raises, the file is removed before the
    error propagates, but only a regular file, and by its resolved path:
    no partial rows survive behind a symlink, and no device node or FIFO
    is ever unlinked. Nothing is fsynced: a crash in the middle of a
    rewrite can leave old and new pages mixed, where truncating first
    would leave a short file; a mixed record fails to parse.
    """
    fh = os.fdopen(os.open(path, _REWRITE_FLAGS, 0o666), "wb")
    st = os.fstat(fh.fileno())
    try:
        yield fh
        if stat.S_ISREG(st.st_mode):
            fh.truncate()
        fh.close()
    except BaseException:
        with contextlib.suppress(OSError):
            fh.close()  # a failing flush must not mask the error
        if stat.S_ISREG(st.st_mode):
            real = os.path.realpath(path)
            with contextlib.suppress(OSError):
                if os.path.samestat(os.stat(real), st):
                    os.remove(real)
        raise


def save_function(F, grid_m, path):
    with rewrite(path) as fh:
        fh.write(function_to_json(F, grid_m).encode("utf-8"))


def _typed(fields, key, kind):
    # json reads 3.7, true and "53" as float, bool and str, which int()
    # would take as 3, 1 and 53; a magnitude written as a JSON number was
    # rounded to binary64 on the way in
    x = fields[key]
    if type(x) is not kind:
        what = "integer" if kind is int else "string"
        raise ValueError(f"{key} = {x!r} is not a JSON {what}")
    return x


def parse_function(record):
    """Rebuild (F, grid_m) from a function-file dict.

    The exponent is build_p(n). Raises ValueError on any malformed
    content: another schema_version, a stored p, an n, precision_bits or
    grid_m that is not a JSON integer, an n below 1, a magnitude that is
    not a hex-float string or whose mantissa is wider than precision_bits,
    a precision outside 53..MAX_PRECISION bits, a grid_m below 64. The
    rebuilt record runs the full construction invariants, so a file whose
    numbers no longer satisfy them raises InvariantViolation instead.
    """
    try:
        version = record["schema_version"]
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {version!r}; this version reads "
                f"schema {SCHEMA_VERSION} (rebuild the file with normfam construct)"
            )
        if "p" in record:
            # a schema-2 file relabelled as schema 4 would otherwise have
            # its exponent silently replaced by build_p(n)
            raise ValueError("schema 4 stores no p (it is derived from n); remove the entry")
        n = _typed(record, "n", int)
        precision = _typed(record, "precision_bits", int)
        if precision < 53:
            raise ValueError(f"precision_bits {precision} is below 53")
        if precision > MAX_PRECISION:
            raise ValueError(f"precision_bits {precision} is above {MAX_PRECISION}")
        a, c_hat, m_hat = (_parse_mp(k, _typed(record, k, str), precision) for k in MAGNITUDES)
        grid_m = _typed(record["construction_config"], "grid_m", int)
        if grid_m < 64:
            raise ValueError("grid_m must be at least 64")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed function file: {exc!r}") from exc
    return CounterexampleFunction(n, build_p(n), a, c_hat, m_hat, precision), grid_m


def load_function(path):
    with open(path, "rb") as fh:
        data = fh.read()
    # decoded here: json.loads would take UTF-16 and UTF-32 bytes too
    record = json.loads(data.decode("utf-8"))
    if not isinstance(record, dict):
        raise ValueError("function file must hold a JSON object")
    return parse_function(record)


def json_float(x):
    # JSON has no NaN or infinity; a non-finite value is written as null
    return x if math.isfinite(x) else None


def verification_to_dict(rep):
    """The report as strict JSON values: every non-finite float is null."""
    z = rep.worst_point
    return {
        "passed": rep.passed,
        "max_inequality": json_float(rep.max_inequality),
        "worst_point": [json_float(z.real), json_float(z.imag)],
        "node_residuals": [json_float(r) for r in rep.node_residuals],
        "log_margin": json_float(rep.log_margin),
        "notes": rep.notes,
    }


def summary_str(x):
    """Human-oriented decimal string for a magnitude, not meant to
    round-trip: the 17 significant digits that mpmath's to_str gives for
    x rounded to the working precision (53 bits unless a caller widens it).

    Beyond 2^(+-3500) to_str divides by 10^b, b about log10|x| (up to
    4e304 here), which it raises by repeated squaring. There log10|x| =
    e log10(2) + log10(man / 2^bc), e = exp + bc, is taken in fixed point
    within 2^-93, and the digits are 10^(frac + 16) rounded half up: less
    than 2^-35 of a unit in the 17th digit off, where to_str is less than
    2^-17 off. The two agree unless the quotient lies within 2^-12 of a
    rounding tie or outside [10^16, 10^17), and to_str decides those.
    """
    s = mpmath.mpf(x)._mpf_
    sign, man, exp, bc = s
    e = exp + bc
    if abs(e) > 3500:  # so man != 0: zero, inf and nan have |e| < 800
        w = e.bit_length() + 96
        log10_2 = (ln2_fixed(w + 8) << w) // ln10_fixed(w + 8)
        log10_m = mpf_div(mpf_log(from_man_exp(man, -bc), 104), mpf_ln10(104), 104)
        t = e * log10_2 + to_fixed(log10_m, w)  # log10|x| in units of 2^-w
        E = t >> w
        f16 = from_man_exp((t >> (w - 96)) - (E << 96) + (16 << 96), -96)  # frac + 16
        q = to_fixed(mpf_exp(mpf_mul(f16, mpf_ln10(104)), 104), 16)
        half = (q & 0xFFFF) - 0x8000  # the remainder less 1/2, in units of 2^-16
        digits = (q >> 16) + (half >= 0)
        if abs(half) > 16 and 10**16 <= digits < 10**17:
            digits = str(digits).rstrip("0")
            return f"{'-' * sign}{digits[0]}.{digits[1:] or '0'}e{E:+d}"
    return to_str(s, 17).removesuffix(".0")


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
