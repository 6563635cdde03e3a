"""Grid kernels for the verification scans: vectorized numpy in double
precision.

The exponent enters as the float triple c = (c1, c2, c3) of
p = c1 u + c2 u^2 + c3 u^3 with u = z^n - 1, so a point costs a few
complex products whatever n: the jet of p follows from the jet of u by
the chain rule. h'' takes no jet: it is n z^(n-2) u^3 S_n(u) e^p with
the float cubic s = (s0, s1, s2, s3) of forge.build_s, so ratio_log and
fk carry its triple zero at every node exactly. Every kernel takes its
points as its last argument, a 1-D numpy array, and a point's value is
independent of the array it sits in. normfam computes every binary64 value of h and its derivatives
here, forge's c_hat and m_hat scans included; u_jet and p_from_u also
serve forge's exact (Fraction) and mpmath jets.

All magnitude arithmetic is done on logarithms: the family's scaling
constants overflow binary64 from order 5 on, so |f| and |f|^3 never
materialize as floats; log(1 + |f|^k) is np.logaddexp(0, k log|f|).
"""

import math

import numpy as np


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


def _factored(n, c, s, zs):
    # (log|h'' e^-p| - 3 log|u|, u, p) at every point: by the node
    # conditions h'' = n z^(n-2) u^3 S_n(u) e^p (forge.build_s), so the
    # first is log n + (n-2) log|z| + log|S_n(u)|, with no cancelling sum.
    # u = z^(n-2) z z - 1 rounds as in u_jet; p and S_n are Horner steps
    # in u. n <= 2 takes no log|z| term: z^0 = 1 at n = 2, and S_1 = 0
    z = np.asarray(zs, dtype=np.complex128)
    m = min(n, 2)
    w = z ** (n - m)
    for _ in range(m):
        w = w * z
    u = w - 1
    (p,) = p_from_u(c, [u])
    s0, s1, s2, s3 = s
    q = s2 + s3 * u
    q = s1 + u * q
    q = s0 + u * q
    log_r = math.log(n) + np.log(np.abs(q))
    if n > 2:
        log_r += (n - 2) * np.log(np.abs(z))
    return log_r, u, p


def ratio_log(n, c, s, zs):
    """log |h''/h^3| = log n + (n-2) log|z| + log|S_n(u)| - 2 Re p
    pointwise, from the exponent c and the cubic s = (s0, s1, s2, s3) of
    forge.build_s(n); finite at the nodes, where h''/h^3 is, and -inf
    where h'' vanishes (everywhere at n = 1)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_r, _, p = _factored(n, c, s, zs)
        return log_r - 2.0 * p.real


def h_log(n, c, zs):
    """log |h| = log|g| + Re p pointwise; -inf at zeros of g."""
    with np.errstate(divide="ignore"):
        (u0,), (p0,) = _jets(n, c, zs, 0)
        return np.log(np.abs(u0)) + p0.real


def fk(n, c, s, log_a, zs):
    """|f''| / (1 + |f|^3) pointwise, for any magnitude of f, from
    |f''| = a n |z|^(n-2) |u|^3 |S_n(u)| e^(Re p): 0 where u rounds to 0,
    as at the node z = 1."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_r, u, p = _factored(n, c, s, zs)
        log_u = np.log(np.abs(u))
        log_num = log_a + log_r + 3.0 * log_u + p.real
        t = 3.0 * (log_a + log_u + p.real)
        return np.exp(log_num - np.logaddexp(0.0, t))


def sphder_log(n, c, log_a, zs):
    """log of the spherical derivative |f'| / (1 + |f|^2), pointwise."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        (u0, u1), (p0, p1) = _jets(n, c, zs, 1)
        log_num = log_a + np.log(np.abs(u1 + u0 * p1)) + p0.real
        t = 2.0 * (log_a + np.log(np.abs(u0)) + p0.real)
        return log_num - np.logaddexp(0.0, t)
