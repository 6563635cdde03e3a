"""The grid export's CSV encoder: re,im,value rows of %.17g text, made
with numpy and no per-row Python.

Only `normfam grid` uses it, and `cli.cmd_grid` imports this module when
an export runs, so the tables below are built in that process alone.
"""

import numpy as np

from . import storage


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
_TZ4 = sum(_I4 % 10**j == 0 for j in range(1, 5)).astype(np.int8)
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
# _BLOCK: fields per gather block, whose index array and row offsets, 200 KB
# each, stay in cache (a whole chunk's index would take 200 B per field);
# _DIGITS16: a source row's 16 digit bytes, columns 5-20, as one field
_BLOCK = 1024
_DIGITS16 = np.dtype({"names": ["d"], "formats": ["V16"], "offsets": [5], "itemsize": 25})


def write_csv(path, chunks):
    """re,im,value rows with 17 significant digits, written one (points,
    values) pair of `chunks` at a time through storage.rewrite. When
    `chunks` or a write raises, a regular file is removed before the
    error propagates: no partial export is left behind."""
    with storage.rewrite(path) as fh:
        fh.write(b"re,im,value\n")
        for zs, vals in chunks:
            fh.write(csv_rows(np.stack([zs.real, zs.imag, vals], axis=1)))


def _times_pow10(a, s):
    """(p, e) with a * 10^s = p + e exactly (Dekker's two-product)."""
    p = a * _POW[s]
    ah, al = _split(a)
    e = ((ah * _POW_HI[s] - p) + ah * _POW_LO[s] + al * _POW_HI[s]) + al * _POW_LO[s]
    return p, e


def _decimal(x):
    """(d, k, slow) for the float array x: the 17 significant digits d and
    the decimal exponent k of each v in x, exact for 9e-5 <= |v| < 1e17,
    0 and 0 at zeros, and a mask of the fields left to %-format."""
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
    zero = x == 0
    d[zero], k[zero] = 0, 0
    return d, k, ~(fast | zero) | (k < -4) | (k > 16)


def _source_rows(x):
    """(src, layout, slow) for the flat float array x of 3m fields: each
    field's 25-byte source row, _TEMPLATE with its 17 digits filled in;
    the row of _LAYOUT that writes the field from it; and the mask of the
    fields left to %-format."""
    n = x.size
    d, k, slow = _decimal(x)
    # d = lead 10^16 + g0 10^12 + g1 10^8 + g2 10^4 + g3. One int64
    # division splits d into halves below 10^9 and the rest runs in int32,
    # where no product exceeds 9 10^8: an int32 array times 10^8 would
    # wrap, under numpy 1.24's value-based promotion as under NEP 50
    hi = d // 10**8
    lo = (d - hi * 10**8).astype(np.int32)
    hi = hi.astype(np.int32)
    lead = hi // 10**8
    hi -= lead * 10**8
    g = np.empty((n, 4), np.int32)
    np.floor_divide(hi, 10**4, out=g[:, 0])
    np.subtract(hi, g[:, 0] * 10**4, out=g[:, 1])
    np.floor_divide(lo, 10**4, out=g[:, 2])
    np.subtract(lo, g[:, 2] * 10**4, out=g[:, 3])
    tz = _TZ4[g[:, 3]] + (g[:, 3] == 0) * (
        _TZ4[g[:, 2]] + (g[:, 2] == 0) * (_TZ4[g[:, 1]] + (g[:, 1] == 0) * _TZ4[g[:, 0]])
    )
    src = np.tile(_TEMPLATE, (n // 3, 1))
    src[:, 4] = ord("0") + lead
    src.view(_DIGITS16)["d"] = _DIGITS4[g].view("V16")
    return src, (np.signbit(x) * 21 + k + 4) * 17 + 16 - tz, slow


def _gather(src, layout):
    """out[i, t] = src[i, _LAYOUT[layout[i], t]], taken _BLOCK rows at a
    time through one reused index array, which one flat add of `rows`
    points at each field's source row. mode="clip" keeps take from
    buffering `out`; it also clamps the layouts of the %-formatted fields,
    which may lie outside _LAYOUT and whose bytes csv_rows overwrites."""
    n = layout.size
    out = np.empty((n, 25), np.uint8)
    index = np.empty((min(n, _BLOCK), 25), _LAYOUT.dtype)
    rows = np.repeat(np.arange(0, index.size, 25, dtype=index.dtype), 25)
    for j in range(0, n, _BLOCK):
        m = min(_BLOCK, n - j)
        _LAYOUT.take(layout[j : j + m], axis=0, out=index[:m], mode="clip")
        index.ravel()[: 25 * m] += rows[: 25 * m]
        src[j : j + m].ravel().take(index[:m], out=out[j : j + m], mode="clip")
    return out


def csv_rows(x):
    """The bytes of "%.17g,%.17g,%.17g\n" % tuple(row) for each row of the
    float array x of shape (m, 3), as one uint8 array.

    For 9e-5 <= |v| < 1e17 the 17 significant digits d and the decimal
    exponent k of v are found exactly. With s = 16 - k in 0..21,
    |v| 10^s = p + e exactly (Dekker's two-product); p >= 2^53 is an even
    integer, so d = p + rint(e) is rounded half to even, as %.17g does. A
    guess of k from log10 that is off by one fails 10^16 <= floor(p + e)
    < 10^17 and is redone. The fields with k in -4..16, which %.17g writes
    in fixed notation, and the zeros are gathered from the digit tables:
    d is split into its lead digit and four groups of four digits in int32,
    the groups' ASCII digits from _DIGITS4 fill a 25-byte source row as one
    16-byte field, and the row of _LAYOUT for the field's sign, k and digit
    count picks each output byte from it. The gather runs over blocks of
    _BLOCK fields, so its index array (8 bytes per output byte) and the
    row offsets stay in cache and do not grow with the chunk. The rest
    (non-finite, |v| < 1e-4, |v| >= 1e17) go through one %-format call."""
    x = np.asarray(x, dtype=np.float64).ravel()
    src, layout, slow = _source_rows(x)
    out = _gather(src, layout)
    del src, layout  # freed before the compaction, where the encoder peaks
    i = np.flatnonzero(slow)
    text = ("%.17g " * i.size % tuple(x[i].tolist())).split()
    out[i, :24] = np.array(text, dtype="S24").view(np.uint8).reshape(i.size, 24)
    out[i, 24] = _TEMPLATE[i % 3, 23]
    return out[out != 0]
