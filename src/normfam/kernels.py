"""Grid kernels for the verification scans, in double precision.

Every kernel exists twice: a vectorized numpy implementation and a
numba-compiled point loop. The active one is chosen per call from the
NORMFAM_BACKEND environment variable ("auto", "numba", "numpy"); auto
takes numba when it imports. Both twins stay importable so tests and
the benchmark can compare them directly.

All magnitude arithmetic is done on logarithms: the family's scaling
constants overflow binary64 from order 5 on, so |f| and |f|^3 never
materialize as floats. The three-way branch on t = k*log|f| evaluates
log_num - log(1+|f|^k) to relative accuracy ~e^-35 at worst.
"""

import math
import os

import numpy as np

try:
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False
    prange = range

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


_BRANCH_CUT = 35.0  # |t| beyond this, 1+e^t collapses to 1 or e^t at double precision


def _backend():
    choice = os.environ.get("NORMFAM_BACKEND", "auto")
    if choice == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    if choice == "numba" and not HAVE_NUMBA:
        raise RuntimeError("NORMFAM_BACKEND=numba but numba is not installed")
    if choice not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {choice!r}")
    return choice


def active_backend():
    """Name of the twin that dispatching will pick right now."""
    return _backend()


def _as_carrays(centers, coeffs, zs):
    cen = np.ascontiguousarray(centers, dtype=np.complex128)
    cof = np.ascontiguousarray(coeffs, dtype=np.complex128)
    z = np.ascontiguousarray(zs, dtype=np.complex128)
    return cen, cof, z


# ---------------------------------------------------------------- numpy twins


def _pjet_np(cen, cof, z, order):
    # jet propagation through the Newton form, all points at once: the
    # list (p, p', ..., p^(order)). w is bound before the product so that
    # p0 * w rounds the same at every order; p0 * (z - cen[i]) lets numpy
    # reuse the temporary and changes the result.
    jet = [np.full_like(z, cof[-1])] + [np.zeros_like(z)] * order
    for i in range(len(cen) - 1, -1, -1):
        w = z - cen[i]
        for k in range(order, 0, -1):
            jet[k] = jet[k] * w + (k * jet[k - 1] if k > 1 else jet[k - 1])
        jet[0] = jet[0] * w + cof[i]
    return jet


def _gjet2_np(n, z):
    g0 = z**n - 1.0
    g1 = n * z ** (n - 1)
    g2 = (n * (n - 1)) * z ** (n - 2) if n >= 2 else np.zeros_like(z)
    return g0, g1, g2


def newton_jets_numpy(centers, coeffs, zs):
    """(p, p', p'') of the Newton-form polynomial at each grid point."""
    cen, cof, z = _as_carrays(centers, coeffs, zs)
    return tuple(_pjet_np(cen, cof, z, 2))


def ratio_log_numpy(n, centers, coeffs, zs):
    """log |h''/h^3| pointwise; -inf where the numerator vanishes.

    Points where g = 0 produce +-inf/nan; callers mask near-node points
    before asking.
    """
    cen, cof, z = _as_carrays(centers, coeffs, zs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p0, p1, p2 = _pjet_np(cen, cof, z, 2)
        g0, g1, g2 = _gjet2_np(n, z)
        b2 = g2 + 2.0 * g1 * p1 + g0 * (p2 + p1 * p1)
        return np.log(np.abs(b2)) - 2.0 * p0.real - 3.0 * np.log(np.abs(g0))


def h_log_numpy(n, centers, coeffs, zs):
    """log |h| = log|g| + Re p pointwise; -inf at zeros of g."""
    cen, cof, z = _as_carrays(centers, coeffs, zs)
    with np.errstate(divide="ignore"):
        (p0,) = _pjet_np(cen, cof, z, 0)
        g0 = z**n - 1.0
        return np.log(np.abs(g0)) + p0.real


def fk_numpy(n, centers, coeffs, log_a, zs):
    """|f''| / (1 + |f|^3) pointwise, branch-safe for any magnitude."""
    cen, cof, z = _as_carrays(centers, coeffs, zs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p0, p1, p2 = _pjet_np(cen, cof, z, 2)
        g0, g1, g2 = _gjet2_np(n, z)
        b2 = g2 + 2.0 * g1 * p1 + g0 * (p2 + p1 * p1)
        log_g = np.log(np.abs(g0))
        log_num = log_a + np.log(np.abs(b2)) + p0.real
        t = 3.0 * (log_a + log_g + p0.real)
        hi = np.exp(log_num - t)
        lo = np.exp(log_num)
        mid = lo / (1.0 + np.exp(t))
        out = np.where(t > _BRANCH_CUT, hi, np.where(t < -_BRANCH_CUT, lo, mid))
        return np.where(np.isneginf(log_num), 0.0, out)


def sphder_log_numpy(n, centers, coeffs, log_a, zs):
    """log of the spherical derivative |f'| / (1 + |f|^2), pointwise."""
    cen, cof, z = _as_carrays(centers, coeffs, zs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p0, p1 = _pjet_np(cen, cof, z, 1)
        g0 = z**n - 1.0
        g1 = n * z ** (n - 1)
        b1 = g1 + g0 * p1
        log_num = log_a + np.log(np.abs(b1)) + p0.real
        t = 2.0 * (log_a + np.log(np.abs(g0)) + p0.real)
        corr = np.where(
            t > _BRANCH_CUT, t, np.where(t < -_BRANCH_CUT, 0.0, np.log1p(np.exp(t)))
        )
        return log_num - corr


# ---------------------------------------------------------------- numba twins


@njit(cache=True, parallel=True)
def _ratio_log_nb(n, cen, cof, z, out):
    for k in prange(z.shape[0]):
        zz = z[k]
        p0 = cof[len(cof) - 1]
        p1 = 0j
        p2 = 0j
        for i in range(len(cen) - 1, -1, -1):
            w = zz - cen[i]
            p2 = p2 * w + 2.0 * p1
            p1 = p1 * w + p0
            p0 = p0 * w + cof[i]
        # z^(n-2), z^(n-1), z^n by multiplication; complex pow is the
        # single-point bottleneck and n stays small
        zp = 1.0 + 0j
        for _ in range(n - 2):
            zp = zp * zz
        if n >= 2:
            g2 = (n * (n - 1)) * zp
            zp = zp * zz
        else:
            g2 = 0j
        g1 = n * zp
        g0 = zp * zz - 1.0
        b2 = g2 + 2.0 * g1 * p1 + g0 * (p2 + p1 * p1)
        ab = abs(b2)
        ag = abs(g0)
        num = math.log(ab) if ab > 0.0 else -np.inf
        den = math.log(ag) if ag > 0.0 else -np.inf
        out[k] = num - 2.0 * p0.real - 3.0 * den


@njit(cache=True, parallel=True)
def _h_log_nb(n, cen, cof, z, out):
    for k in prange(z.shape[0]):
        zz = z[k]
        p0 = cof[len(cof) - 1]
        for i in range(len(cen) - 1, -1, -1):
            p0 = p0 * (zz - cen[i]) + cof[i]
        zp = 1.0 + 0j
        for _ in range(n):
            zp = zp * zz
        ag = abs(zp - 1.0)
        out[k] = (math.log(ag) if ag > 0.0 else -np.inf) + p0.real


@njit(cache=True, parallel=True)
def _fk_nb(n, cen, cof, log_a, z, out):
    for k in prange(z.shape[0]):
        zz = z[k]
        p0 = cof[len(cof) - 1]
        p1 = 0j
        p2 = 0j
        for i in range(len(cen) - 1, -1, -1):
            w = zz - cen[i]
            p2 = p2 * w + 2.0 * p1
            p1 = p1 * w + p0
            p0 = p0 * w + cof[i]
        zp = 1.0 + 0j
        for _ in range(n - 2):
            zp = zp * zz
        if n >= 2:
            g2 = (n * (n - 1)) * zp
            zp = zp * zz
        else:
            g2 = 0j
        g1 = n * zp
        g0 = zp * zz - 1.0
        b2 = g2 + 2.0 * g1 * p1 + g0 * (p2 + p1 * p1)
        ab = abs(b2)
        ag = abs(g0)
        if ab == 0.0:
            out[k] = 0.0
            continue
        log_num = log_a + math.log(ab) + p0.real
        log_g = math.log(ag) if ag > 0.0 else -np.inf
        t = 3.0 * (log_a + log_g + p0.real)
        if t > _BRANCH_CUT:
            out[k] = math.exp(log_num - t)
        elif t < -_BRANCH_CUT:
            out[k] = math.exp(log_num)
        else:
            out[k] = math.exp(log_num) / (1.0 + math.exp(t))


@njit(cache=True, parallel=True)
def _sphder_log_nb(n, cen, cof, log_a, z, out):
    for k in prange(z.shape[0]):
        zz = z[k]
        p0 = cof[len(cof) - 1]
        p1 = 0j
        for i in range(len(cen) - 1, -1, -1):
            w = zz - cen[i]
            p1 = p1 * w + p0
            p0 = p0 * w + cof[i]
        zp = 1.0 + 0j
        for _ in range(n - 1):
            zp = zp * zz
        g1 = n * zp
        g0 = zp * zz - 1.0
        b1 = g1 + g0 * p1
        ab = abs(b1)
        ag = abs(g0)
        log_num = log_a + (math.log(ab) if ab > 0.0 else -np.inf) + p0.real
        log_g = math.log(ag) if ag > 0.0 else -np.inf
        t = 2.0 * (log_a + log_g + p0.real)
        if t > _BRANCH_CUT:
            out[k] = log_num - t
        elif t < -_BRANCH_CUT:
            out[k] = log_num
        else:
            out[k] = log_num - math.log1p(math.exp(t))


def ratio_log_numba(n, centers, coeffs, zs):
    cen, cof, z = _as_carrays(centers, coeffs, zs)
    out = np.empty(z.shape[0])
    _ratio_log_nb(n, cen, cof, z, out)
    return out


def h_log_numba(n, centers, coeffs, zs):
    cen, cof, z = _as_carrays(centers, coeffs, zs)
    out = np.empty(z.shape[0])
    _h_log_nb(n, cen, cof, z, out)
    return out


def fk_numba(n, centers, coeffs, log_a, zs):
    cen, cof, z = _as_carrays(centers, coeffs, zs)
    out = np.empty(z.shape[0])
    _fk_nb(n, cen, cof, float(log_a), z, out)
    return out


def sphder_log_numba(n, centers, coeffs, log_a, zs):
    cen, cof, z = _as_carrays(centers, coeffs, zs)
    out = np.empty(z.shape[0])
    _sphder_log_nb(n, cen, cof, float(log_a), z, out)
    return out


# ------------------------------------------------------------------ dispatch


def ratio_log(n, centers, coeffs, zs):
    fn = ratio_log_numba if _backend() == "numba" else ratio_log_numpy
    return fn(n, centers, coeffs, zs)


def h_log(n, centers, coeffs, zs):
    fn = h_log_numba if _backend() == "numba" else h_log_numpy
    return fn(n, centers, coeffs, zs)


def fk(n, centers, coeffs, log_a, zs):
    fn = fk_numba if _backend() == "numba" else fk_numpy
    return fn(n, centers, coeffs, log_a, zs)


def sphder_log(n, centers, coeffs, log_a, zs):
    fn = sphder_log_numba if _backend() == "numba" else sphder_log_numpy
    return fn(n, centers, coeffs, log_a, zs)
