"""Grid kernels for the verification scans: vectorized numpy in double
precision, each a closed form in u = z^n - 1.

Every kernel takes the order n, which alone fixes the exponent: the
exact cubics p = c1 u + c2 u^2 + c3 u^3 of forge.build_p and S_n of
forge.build_s are rounded to binary64 once per n. Every kernel takes u
and p from one helper, so a point costs a few complex products whatever
n and every kernel rounds u alike. The derivatives of h = u e^p take no
jet:

    h'  = n z^(n-1) (1 + u d1(u)) e^p,     d1 = dp/du = c1 + 2 c2 u + 3 c3 u^2,
    h'' = n z^(n-2) u^3 S_n(u) e^p,

so ratio_log and fk_log carry the triple zero of h'' at every node
exactly, and the power of z enters as k log|z|, which does not underflow
near z = 0 at large n. Every kernel takes its points as its last
argument, a 1-D numpy array, and a point's value is independent of the
array it sits in. z^n is taken by repeated squaring. normfam computes
every complex binary64 grid of h's derivatives here; forge, which never
imports this module, takes its bound on c_n and its m_hat scan as real
functions of cos(arg z^n) on circles.

All magnitude arithmetic is done on logarithms: the family's scaling
constants overflow binary64 from order 5 on, so |f| and |f|^3 never
materialize as floats; log(1 + |f|^k) is np.logaddexp(0, k log|f|).
"""

import functools
import math

import numpy as np

from .forge import _horner, build_p, build_s


def active_backend():
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def _power(z, k):
    # z^k, k >= 1, by repeated squaring, every product of two named arrays:
    # numpy's z ** k takes exp(k log z) from k = 100 on, off by 1.6e-13 of
    # z^339 on |z| = 2, where this stays within k 2^-52 (3e-14)
    acc = None
    while True:
        if k & 1:
            acc = z if acc is None else acc * z
        k >>= 1
        if not k:
            return acc
        z = z * z


@functools.cache
def _cubics(n):
    # (c1, c2, c3) of build_p(n) and (s0, s1, s2, s3) of build_s(n), each
    # rounded once to binary64
    return tuple(map(float, build_p(n))), tuple(map(float, build_s(n)))


def _up(n, zs):
    # (z, u, p) at every point, for every kernel alike: u = z^n - 1,
    # p = u (c1 + u (c2 + c3 u))
    z = np.asarray(zs, dtype=np.complex128)
    u = _power(z, n) - 1
    return z, u, u * _horner(_cubics(n)[0], u)


def _log_monomial(n, k, z, q):
    # log|n z^k q|, with z^k as k log|z|; no such term for k <= 0, where
    # z^k = 1 (h' at n = 1, h'' at n = 2) or q = S_1 = 0 (h'' at n = 1)
    log_r = math.log(n) + np.log(np.abs(q))
    if k > 0:
        log_r += k * np.log(np.abs(z))
    return log_r


def _factored(n, zs):
    # (log|h'' e^-p| - 3 log|u|, u, p) at every point:
    # log n + (n-2) log|z| + log|S_n(u)|, with no cancelling sum
    z, u, p = _up(n, zs)
    return _log_monomial(n, n - 2, z, _horner(_cubics(n)[1], u)), u, p


def ratio_log(n, zs):
    """log |h''/h^3| = log n + (n-2) log|z| + log|S_n(u)| - 2 Re p
    pointwise; finite at the nodes, where h''/h^3 is, and -inf where h''
    vanishes (everywhere at n = 1)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_r, _, p = _factored(n, zs)
        return log_r - 2.0 * p.real


def fk_log(n, log_a, zs):
    """log of |f''| / (1 + |f|^3) pointwise, for any magnitude of f, from
    |f''| = a n |z|^(n-2) |u|^3 |S_n(u)| e^(Re p): -inf where u rounds to
    0, as at the node z = 1."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_r, u, p = _factored(n, zs)
        log_u = np.log(np.abs(u))
        log_num = log_a + log_r + 3.0 * log_u + p.real
        t = 3.0 * (log_a + log_u + p.real)
        return log_num - np.logaddexp(0.0, t)


def fk(n, log_a, zs):
    """|f''| / (1 + |f|^3) pointwise, exp of fk_log: 0.0 below binary64's range."""
    with np.errstate(over="ignore"):
        return np.exp(fk_log(n, log_a, zs))


def sphder_log(n, log_a, zs):
    """log of the spherical derivative |f'| / (1 + |f|^2) pointwise, from
    |f'| = a n |z|^(n-1) |1 + u d1(u)| e^(Re p), d1 = c1 + 2 c2 u + 3 c3 u^2:
    finite near z = 0 at every order, and -inf only where h' rounds to 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z, u, p = _up(n, zs)
        c1, c2, c3 = _cubics(n)[0]
        log_num = _log_monomial(n, n - 1, z, _horner((1.0, c1, 2 * c2, 3 * c3), u))
        log_num += log_a + p.real
        t = 2.0 * (log_a + np.log(np.abs(u)) + p.real)
        return log_num - np.logaddexp(0.0, t)
