"""Grid kernels for the verification scans: vectorized numpy in double
precision.

The exponent enters as the float triple c = (c1, c2, c3) of
p = c1 u + c2 u^2 + c3 u^3 with u = z^n - 1, so a point costs a few
complex products whatever n: the jet of p follows from the jet of u by
the chain rule. Every kernel takes its points as its last argument.
The jet functions below (u_jet, p_from_u, b2) take numpy arrays and
scalars (python complex, mpmath.mpc, Fraction), and forge's scalar jets
use them too; ratio_log_from_jets takes arrays and python complex. Only
array values are independent of the array size: numpy rounds a complex
product of 0-d or python scalars differently from its array loop, so a
point evaluated as a scalar can differ in its last bits from the same
point inside an array.

All magnitude arithmetic is done on logarithms: the family's scaling
constants overflow binary64 from order 5 on, so |f| and |f|^3 never
materialize as floats. The three-way branch on t = k*log|f| evaluates
log_num - log(1+|f|^k) to relative accuracy ~e^-35 at worst.
"""

import math

import numpy as np

_BRANCH_CUT = 35.0  # |t| beyond this, 1+e^t collapses to 1 or e^t at double precision


def active_backend():
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def u_jet(n, z, J):
    """[u, u', ..., u^(J)] of u = z^n - 1 at z: u^(k) = n!/(n-k)! z^(n-k),
    from one power z^(n-m), m = min(n, J), and m products, highest
    derivative first so that one power is alive at a time."""
    m = min(n, J)
    w = z ** (n - m)
    u = [None] * (J + 1)
    for k in range(m, -1, -1):
        if k < m:
            w = w * z
        u[k] = math.perm(n, k) * w if k else w - 1
    for k in range(m + 1, J + 1):
        u[k] = z * 0
    return u


def p_from_u(c, u):
    """[p, p', ..., p^(J)] of p = c1 u + c2 u^2 + c3 u^3 from the jet u of
    u = z^n - 1, J = len(u) - 1 <= 4, by Faa di Bruno's formula with
    d_k = d^k p / du^k (d_4 = 0).

    Every product of two arrays multiplies two names. For arrays above
    256 KiB numpy computes x * (unnamed temporary) as temporary *= x, and
    its complex product does not round commutatively, so a nested
    expression would give a point a value that depends on the size of
    the array it sits in.
    """
    J = len(u) - 1
    if J > 4:
        raise ValueError("p_from_u supports jets of order <= 4")
    c1, c2, c3 = c
    u0 = u[0]
    q = c2 + c3 * u0
    q = c1 + u0 * q
    p = [u0 * q]
    if J >= 1:
        q = 2 * c2 + 3 * c3 * u0
        d1 = c1 + u0 * q
        p.append(d1 * u[1])
    if J >= 2:
        d2 = 2 * c2 + 6 * c3 * u0
        u11 = u[1] * u[1]
        p.append(d2 * u11 + d1 * u[2])
    if J >= 3:
        d3 = 6 * c3
        u111 = u11 * u[1]
        u12 = u[1] * u[2]
        p.append(d3 * u111 + 3 * (d2 * u12) + d1 * u[3])
    if J >= 4:
        u112 = u11 * u[2]
        u22 = u[2] * u[2]
        u13 = u[1] * u[3]
        q = 3 * u22 + 4 * u13
        p.append(6 * d3 * u112 + d2 * q + d1 * u[4])
    return p


def _jets(n, c, zs, order):
    # the jets of u and p up to `order` (0, 1 or 2) at every point; u comes
    # from z^(n-2) at every order, so that the kernels round it alike
    u = u_jet(n, np.asarray(zs, dtype=np.complex128), 2)[: order + 1]
    return u, p_from_u(c, u)


def b2(u, p):
    """h'' e^{-p} = g'' + 2 g' p' + g (p'' + p'^2) from the jets of g = u
    and of p, order 2; array products multiply names, as in p_from_u."""
    u1p1 = u[1] * p[1]
    q = p[1] * p[1]
    q = p[2] + q
    return u[2] + 2.0 * u1p1 + u[0] * q


def ratio_log_from_jets(u, p):
    """log |h''/h^3| = log|b2| - 2 Re p - 3 log|g| from the order-2 jets of
    g = u and of p, arrays and scalars alike; -inf where b2 vanishes."""
    return np.log(np.abs(b2(u, p))) - 2.0 * p[0].real - 3.0 * np.log(np.abs(u[0]))


def ratio_log(n, c, zs):
    """log |h''/h^3| pointwise; -inf where the numerator vanishes.

    Points where g = 0 produce +-inf/nan; callers mask near-node points
    before asking.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return ratio_log_from_jets(*_jets(n, c, zs, 2))


def h_log(n, c, zs):
    """log |h| = log|g| + Re p pointwise; -inf at zeros of g."""
    with np.errstate(divide="ignore"):
        (u0,), (p0,) = _jets(n, c, zs, 0)
        return np.log(np.abs(u0)) + p0.real


def fk(n, c, log_a, zs):
    """|f''| / (1 + |f|^3) pointwise, branch-safe for any magnitude."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u, p = _jets(n, c, zs, 2)
        log_num = log_a + np.log(np.abs(b2(u, p))) + p[0].real
        t = 3.0 * (log_a + np.log(np.abs(u[0])) + p[0].real)
        hi = np.exp(log_num - t)
        lo = np.exp(log_num)
        mid = lo / (1.0 + np.exp(t))
        out = np.where(t > _BRANCH_CUT, hi, np.where(t < -_BRANCH_CUT, lo, mid))
        return np.where(np.isneginf(log_num), 0.0, out)


def sphder_log(n, c, log_a, zs):
    """log of the spherical derivative |f'| / (1 + |f|^2), pointwise."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        (u0, u1), (p0, p1) = _jets(n, c, zs, 1)
        log_num = log_a + np.log(np.abs(u1 + u0 * p1)) + p0.real
        t = 2.0 * (log_a + np.log(np.abs(u0)) + p0.real)
        corr = np.where(
            t > _BRANCH_CUT, t, np.where(t < -_BRANCH_CUT, 0.0, np.log1p(np.exp(t)))
        )
        return log_num - corr
