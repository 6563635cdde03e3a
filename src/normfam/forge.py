"""Construction of the counterexample family f_n = a_n (z^n - 1) e^{p_n(z)}.

At every n-th root of unity p_n vanishes and p', p'', p''' take the
values making h_n'' = h_n''' = h_n'''' = 0, where h_n = (z^n - 1) e^{p_n}.
Those conditions are invariant under z -> e^{2 pi i/n} z, so their unique
interpolant of degree <= 4n-1 is a polynomial in z^n: with u = z^n - 1,

    p_n = c1 u + c2 u^2 + c3 u^3,
    c1 = -(n-1)/(2n),  c2 = (n-1)(5n-1)/(24 n^2),  c3 = -(n-1)(3n-1)/(24 n^2),

the solution of the conditions at z = 1 for every n (n = 2 gives -1/4,
3/32, -5/96). p is that triple of Fractions and is fixed by n alone, so
function files do not store it: build_p(n) derives it, and a record's
gate demands p == build_p(n). Every evaluation is a Horner step in u,
O(1) per point whatever n. f_n depends on z only through z^n, so
anything checked at the node z = 1 holds at all n nodes.

The scaling a_n = max(sqrt(2 n c_n), 2n / m_n, 1) then forces
|f''| <= 1 + |f|^3 on the closed disk of radius 2 with margin 1/n, and
|f_n| >= n off the unit circle, while every zero of z^n - 1 stays a
simple zero of f_n.

c_n and a_n explode with n (log a_6 is around 2.7e4), so the three
magnitude fields of a constructed record are mpmath reals with unbounded
exponent. c_hat is no scan: it is the upper bound C*_n of log_c_star,
one interval evaluation of log|h''/h^3| on |z| = 2 over exact brackets
of the roots of an integer quintic in cos(arg z^n) (critical_quintic),
with no binary64 step and no allowance. The binary64 m_hat scan reads
the same exact expansion in cos(arg z^n) on three circles, rounded once.
forge imports no grid kernel; the kernels round build_p and build_s
themselves, so n alone fixes the exponent at every layer. The kernels
and h_parts take closed forms in u = z^n - 1: h_parts rounds u once and
evaluates |u|^2, Re p and the moduli of the factors of h' and h''
exactly in integers on its binary mantissas, and every scalar check of
analysis reads them. The scalar jet of h, of any order, is a Taylor
series in w = z^n (the cubic p shifted exactly about u, e^p by a
three-term recurrence, both composed with (z + t)^n - z^n by Horner's
rule, exact at a Fraction point and in mpmath.mpc elsewhere), kept as
the reference those closed forms are tested against; no function of the
package calls it. At z = 1, u = 0, p = 0 and u^(k) = n!/(n-k)!, so a
record's node_residual decides the node conditions by the Leibniz rule
in integer arithmetic, over the lcm of the denominators of p. A
record's precision sets only the digits its magnitudes are stored with
and the mpmath precision of the probes.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath
import numpy as np

from .errors import InvariantViolation, NonPositiveM, Overflow

MINUS_INFINITY = float("-inf")
MAX_PRECISION = 4096  # bits
GRID_M = 1024  # the m_hat scan takes the w-angles 2 pi j / GRID_M

# the last order whose grid kernels fit binary64: from 340 on S_n(u) of
# h''/h^3 overflows on |z| = 2, and construct refuses the order
MAX_ORDER = 339


@dataclass(frozen=True)
class Jet:
    """Derivatives (f(z), f'(z), ..., f^(J)(z)) of one function at one point."""

    order: int
    values: tuple

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("jet order must be >= 0")
        if len(self.values) != self.order + 1:
            raise ValueError("jet must hold order + 1 values")

    def __getitem__(self, j):
        return self.values[j]


@functools.cache
def build_p(n):
    """The exponent (c1, c2, c3) of p = c1 u + c2 u^2 + c3 u^3, u = z^n - 1,
    as exact Fractions:

        c1 = -(n-1)/(2n),  c2 = (n-1)(5n-1)/(24 n^2),  c3 = -(n-1)(3n-1)/(24 n^2).

    They solve the node conditions at z = 1 for every n. There u = 0 and
    u^(k) = n!/(n-k)!, so h'' = h''' = h'''' = 0 is a triangular system in
    p', p'', p''', and the chain rule
    p' = c1 u', p'' = 2 c2 u'^2 + c1 u'', p''' = 6 c3 u'^3 + 6 c2 u' u'' + c1 u'''
    is one in the c_k.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m, d = n - 1, 24 * n * n
    return (
        Fraction(-m, 2 * n),
        Fraction(m * (5 * n - 1), d),
        Fraction(-m * (3 * n - 1), d),
    )


@functools.cache
def build_s(n):
    """The cubic (s0, s1, s2, s3) of S_n(u) = s0 + s1 u + s2 u^2 + s3 u^3 as
    exact Fractions, with h'' = n z^(n-2) u^3 S_n(u) e^p:

        s0 = -(n-1)(251n^3 - 109n^2 + n + 1) / (144 n^3),
        s1 = (n-1)^2 (17n^2 - 2n - 1) / (72 n^3),
        s2 = -(n-1)^2 (3n-1)(11n-1) / (192 n^3),
        s3 = (n-1)^2 (3n-1)^2 / (64 n^3).

    With w = z^n and d_k = d^k p / du^k, the chain rule gives
    h'' e^-p = n z^(n-2) Q(u), Q = (n-1)(1 + u d1) + n w (2 d1 + u (d2 + d1^2)),
    a sextic in u. For p = build_p(n) the node conditions make it vanish
    to order 3 at u = 0, and Q = u^3 S_n(u). S_1 = 0: h_1'' = 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m, d = n - 1, n**3
    return (
        Fraction(-m * (251 * n**3 - 109 * n**2 + n + 1), 144 * d),
        Fraction(m * m * (17 * n * n - 2 * n - 1), 72 * d),
        Fraction(-m * m * (3 * n - 1) * (11 * n - 1), 192 * d),
        Fraction(m * m * (3 * n - 1) ** 2, 64 * d),
    )


@functools.cache
def _scaled_cubics(n):
    # the integer coefficients of 24 n^2 p (build_p) and 576 n^3 S_n (build_s)
    m = 24 * n * n
    return (
        tuple(c.numerator * (m // c.denominator) for c in build_p(n)),
        tuple(s.numerator * (24 * n * m // s.denominator) for s in build_s(n)),
    )


def p_degree(n):
    """Degree in z of the exponent build_p(n): 3n, and 0 at n = 1, where p = 0."""
    return 3 * n if n > 1 else 0


def _w_series(n, p, z, J):
    # u = z^n - 1, the Taylor shift (P0, P1, P2, P3) of the cubic p about u,
    # and s = [0, s_1, ..., s_r], s_j = C(n, j) z^(n-j), r = min(n, J), the
    # coefficients of s(t) = (z + t)^n - z^n: exact at a Fraction z, else z
    # and the c_k in mpmath at the working precision
    if J < 0:
        raise ValueError("jet order must be >= 0")
    if not isinstance(z, Fraction):
        z = mpmath.mpc(z)
        p = tuple(mpmath.mpf(c.numerator) / c.denominator for c in p)
    r = min(n, J)
    s, zk = [0] * (r + 1), z ** (n - r)
    for j in range(r, 0, -1):
        s[j] = math.comb(n, j) * zk
        zk *= z
    u = zk - 1
    c1, c2, c3 = p
    P = (u * (c1 + u * (c2 + c3 * u)), c1 + u * (2 * c2 + 3 * c3 * u), c2 + 3 * c3 * u, c3)
    return u, P, s


def _compose(f, s, J):
    # the jet, orders 0..J, of sum_k f[k] s(t)^k at t = 0, by Horner's rule
    # in s; s(0) = 0, so the partial sum that s^k multiplies is needed only
    # to order J - k
    f = (list(f) + [0] * J)[: J + 1]
    g = [f[J]]
    for k in range(J - 1, -1, -1):
        g = [f[k]] + [
            sum(s[j] * g[m - j] for j in range(1, min(m, len(s) - 1) + 1))
            for m in range(1, J - k + 1)
        ]
    return Jet(J, tuple(math.factorial(m) * v for m, v in enumerate(g)))


def h_jet(n, p, z, J):
    """Jet of h = u e^p at z, any order J >= 0, as a Taylor series in
    w = z^n: E(s) = e^(P(s)) from E_0 = e^p by the recurrence
    k E_k = sum_(j <= 3) j P_j E_(k-j), then F = (u + s) E(s), so
    F_k = u E_k + E_(k-1), composed with s(t) = (z + t)^n - z^n. E_0 is
    exactly 1 where p = 0, so at z = Fraction(1), where u = 0, every value
    is an exact Fraction; elsewhere e^p is mpmath.exp at the working
    precision. The reference for h_parts: no function of normfam calls it."""
    u, P, s = _w_series(n, p, z, J)
    E = [1 if P[0] == 0 else mpmath.exp(P[0])]
    for k in range(1, J + 1):
        E.append(sum(j * P[j] * E[k - j] for j in range(1, min(k, 3) + 1)) / k)
    return _compose([u * E[0]] + [u * E[k] + E[k - 1] for k in range(1, J + 1)], s, J)


# bits above the working precision that h_parts rounds z^n to
GUARD_BITS = 20


def _gaussian(x, y, prec):
    # (X, Y, e): the complex number x + iy of libmp tuples as the Gaussian
    # integer X + iY times 2^e, e = prec bits below the top bit of the
    # larger part, where the smaller part is truncated
    tops = [v[2] + v[3] for v in (x, y) if v[1]]
    if not tops:
        return 0, 0, 0
    e = max(tops) - prec
    return _shifted(x, e), _shifted(y, e), e


def _shifted(v, e):
    # the signed mantissa of the libmp tuple v at the exponent e, floored
    sign, man, exp, _ = v
    man = man << exp - e if exp >= e else man >> e - exp
    return -man if sign else man


def h_parts(n, z):
    """(|u|^2, Re p, D^2, S^2) at z for the exponent build_p(n), as mpmath
    reals, u = z^n - 1, d1 = dp/du and S_n of build_s, with

        D = n |z|^(n-1) |1 + u d1(u)| = |h'| e^(-Re p),
        S = n |z|^(n-2) |S_n(u)| = |h''| e^(-Re p) / |u|^3,

    so |h| = |u| e^(Re p) and every exp and sqrt is the caller's.

    z is a binary64 complex or an mpmath.mpc. w = z^n is rounded once, by
    libmp's mpc_pow_int at the working precision plus GUARD_BITS, and
    u = w - 1 is taken from it as the Gaussian integer U = X + iY over
    2^k, k >= 0, with those bits. Then |u|^2, 24 n^2 Re p,
    |24 n^2 (1 + u d1)|^2 and |576 n^3 S_n(u)|^2 are exact integers times
    powers of 2, from the coefficients of _scaled_cubics, and each value
    is one integer quotient rounded to those bits, not a chain of mpc
    operations. The powers of |z| are |w| / |z| and |w| / |z|^2, with
    |w|^2 and |z|^2 from Gaussian integers of w and z at their own
    exponents, so a w below 2^-k, lost in U, still counts; |z|^0 = 1,
    also at z = 0. ValueError at a non-finite z.
    """
    libmp, zt = mpmath.libmp, mpmath.mpc(z)._mpc_
    if any(not v[1] and v != libmp.fzero for v in zt):  # inf and nan have no mantissa
        raise ValueError(f"point {z} is not finite")
    prec = mpmath.mp.prec + GUARD_BITS
    Xz, Yz, Ez = _gaussian(*zt, prec)
    w = libmp.mpc_pow_int(zt, n, prec)
    Xw, Yw, Ew = _gaussian(*w, prec)
    k = -min(max(Ew, -prec), 0)
    X, Y = _shifted(w[0], -k) - (1 << k), _shifted(w[1], -k)
    # u = (X + iY) / 2^k, with the trailing zeros that X and Y share taken
    # out of k while k stays >= 0, so that the cubics below take fewer bits
    v = X | Y
    t = min((v & -v).bit_length() - 1, k) if v else k
    X, Y, k = X >> t, Y >> t, k - t
    X2, Y2 = X * X - Y * Y, 2 * X * Y
    X3, Y3 = X * X2 - Y * Y2, X * Y2 + Y * X2
    (a1, a2, a3), (b0, b1, b2, b3) = _scaled_cubics(n)
    m = 24 * n * n

    def squared(c0, c1, c2, c3):
        # |c0 + c1 u + c2 u^2 + c3 u^3|^2 2^(6k), exactly
        re = (c0 << 3 * k) + (c1 * X << 2 * k) + (c2 * X2 << k) + c3 * X3
        im = (c1 * Y << 2 * k) + (c2 * Y2 << k) + c3 * Y3
        return re * re + im * im

    def ratio(num, den, e):
        # num 2^e / den, from an integer quotient of at least prec + 2 bits
        shift = max(prec + 2 + den.bit_length() - num.bit_length(), 0)
        return libmp.from_man_exp((num << shift) // den, e - shift, prec)

    def times_z_power(j, num, den, e):
        # num |z|^(2(n-j)) 2^e / den: |z|^(2(n-j)) = |w|^2 / |z|^(2j)
        if n <= j:
            return ratio(num, den, e)
        if not Xz and not Yz:
            return libmp.fzero
        w2, z2 = Xw * Xw + Yw * Yw, Xz * Xz + Yz * Yz
        return ratio(num * w2, den * z2**j, e + 2 * Ew - 2 * j * Ez)

    re_p = (a1 * X << 2 * k) + (a2 * X2 << k) + a3 * X3
    mpf = mpmath.mp.make_mpf
    return (
        mpf(libmp.from_man_exp(X * X + Y * Y, -2 * k, prec)),
        mpf(ratio(re_p, m, -3 * k)),
        mpf(times_z_power(1, squared(m, a1, 2 * a2, 3 * a3), 24 * m, -6 * k)),
        mpf(times_z_power(2, squared(b0, b1, b2, b3), 576 * m * m, -6 * k)),
    )


# T_k(cos phi) = cos(k phi): the Chebyshev polynomials T_0 .. T_3, ascending
# coefficients; and the rows of Pascal's triangle, the coefficients of (1 + y)^k
_CHEB_T = ((1,), (0, 1), (-1, 0, 2), (0, -3, 0, 4))
_BINOMIAL = ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1), (1, 4, 6, 4, 1), (1, 5, 10, 10, 5, 1))


def _in_w(c0, c1, c2, c3):
    # the coefficients of the cubic c(u) as one in w = u + 1
    return (c0 - c1 + c2 - c3, c1 - 2 * c2 + 3 * c3, c2 - 3 * c3, c3)


def _on_circle(a, b, A, B=1):
    # the ascending integer coefficients in x = cos phi of B^(deg a + deg b)
    # Re(a(w) conj b(w)) on w = (A / B) e^(i phi), for polynomials a and b of
    # ascending integer coefficients, by Re(w^j conj w^l) = (A / B)^(j+l)
    # T_|j-l|(x): b = (1,) gives Re a(w), and b = a gives |a(w)|^2
    e, out = len(a) + len(b) - 2, [0] * max(len(a), len(b))
    for j, s in enumerate(a):
        for l, t in enumerate(b):
            for i, c in enumerate(_CHEB_T[abs(j - l)]):
                out[i] += s * t * c * A ** (j + l) * B ** (e - j - l)
    return out


def _rim_cubics(n):
    # the cubics P and Q and the quintic V of critical_quintic, on |w| = 2^n
    p_int, s_int = _scaled_cubics(n)
    Pw, Sw = _in_w(0, *p_int), _in_w(*s_int)
    P, Q = _on_circle(Pw, (1,), 1 << n), _on_circle(Sw, Sw, 1 << n)
    V = [12 * n * n * k * Q[k] for k in range(1, 4)] + [0, 0, 0]
    for k in range(1, 4):
        for i, q in enumerate(Q):
            V[k - 1 + i] -= 2 * k * P[k] * q
    return P, Q, V


def critical_quintic(n):
    """The integer quintic V (ascending coefficients) whose roots in
    [-1, 1] are cos(phi) at the critical points of log|h''/h^3| on |z| = 2
    other than phi = 0 and pi, phi the angle of w = z^n = 2^n e^(i phi).

    There |h''/h^3| = n 2^(n-2) |S_n(u) e^(-2p(u))|, u = w - 1, and Re p
    and |S_n|^2 are cubics in x = cos phi with integer coefficients once
    scaled: P(x) = 24 n^2 Re p and Q(x) = (576 n^3)^2 |S_n|^2. So
    g = log|S_n e^(-2p)| = log Q / 2 - P / (12 n^2) + const, and
    dg/dx = V / (24 n^2 Q) with V = 12 n^2 Q' - 2 P' Q, while
    dg/dphi = -sin(phi) dg/dx. Q > 0 off the zeros of S_n, so V has the
    sign of dg/dx.
    """
    return _rim_cubics(n)[2]


def _horner(coeffs, x):
    # coeffs[0] + coeffs[1] x + ... by Horner's rule, on intervals here and
    # on arrays here and in the grid kernels. Every product of two arrays
    # multiplies two names: for arrays above 256 KiB numpy computes
    # x * (unnamed temporary) as temporary *= x, and its complex product
    # does not round commutatively, so a nested expression would give a
    # point a value that depends on the size of its array
    q = coeffs[-2] + coeffs[-1] * x
    for a in coeffs[-3::-1]:
        q = a + x * q
    return q


def _value(V, q, e):
    # V(q / 2^e) 2^(5e): the exact sign of V at q / 2^e, by shifts
    acc = V[-1]
    for i, v in enumerate(V[-2::-1], 1):
        acc = acc * q + (v << (e * i))
    return acc


def _variations(V, A, B, D):
    # sign changes in the coefficients of (1 + y)^5 V((a + b y) / (1 + y)),
    # a = A / D, b = B / D: by Descartes' rule, a bound on the number of
    # roots of V in (a, b) of the same parity, so exact when 0 or 1; in
    # integers, sum v_i (A + B y)^i (D + D y)^(5-i) by Horner's rule
    T, Dk = [V[-1]], 1
    for k in range(1, 6):
        Dk *= D
        v, row = V[5 - k] * Dk, _BINOMIAL[k]
        inner = [T[j] * A + T[j - 1] * B + v * row[j] for j in range(1, k)]
        T = [T[0] * A + v, *inner, T[-1] * B + v]
    signs = [t > 0 for t in T if t]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _isolate(V, A, B, D, bits):
    # closed intervals (A', B', D'), D' a power of 2, of [A / D, B / D] that
    # hold every root of V in (A / D, B / D) where g may peak: bisection by
    # Descartes' rule (Vincent, Collins and Akritas) down to one root each.
    # A root where V rises is dropped, since g, whose slope has the sign of
    # V, has a minimum there; one where V falls is bracketed by bisection
    # on the exact sign of V to width 2^-bits, unless an end is a root too.
    # From D = 2^48 on (a multiple root) the interval stays as it is, and a
    # midpoint root is one of its own
    k, e = _variations(V, A, B, D), D.bit_length() - 1
    if k == 0:
        return []
    if k == 1:
        a, b = _value(V, A, e), _value(V, B, e)
        if a < 0 < b:
            return []
        while a > 0 > b and (B - A) << bits > D:
            M, D, e = A + B, 2 * D, e + 1
            A, B = (M, 2 * B) if _value(V, M, e) >= 0 else (2 * A, M)
        return [(A, B, D)]
    if D >= 2**48:
        return [(A, B, D)]
    M = A + B
    mid = [(M, M, 2 * D)] if _value(V, M, e + 1) == 0 else []
    return _isolate(V, 2 * A, M, 2 * D, bits) + mid + _isolate(V, M, 2 * B, 2 * D, bits)


@functools.cache
def log_c_star(n):
    """(log C*_n, cos phi*): an upper bound of log c_n, c_n = max over the
    closed 2-disk of |h''/h^3|, and the cosine of the angle phi* of
    w = z^n at which the bound is attained, on the circle |z| = 2.

    h''/h^3 = n z^(n-2) S_n(u) e^(-2p) is entire (build_s), so by the
    maximum principle c_n is its max on |z| = 2, where its log is
    G(x) = log(4^(n-2) Q(x) / (576 n^2)^2) / 2 - P(x) / (12 n^2),
    x = cos phi, with the cubics of critical_quintic. G peaks at x = +-1
    or where V = critical_quintic(n), of the sign of G', falls through 0
    in (-1, 1). Descartes' rule of signs on bisected intervals isolates
    those roots exactly, and exact bisection on the sign of V narrows each
    to width 2^-(2n+64); a multiple root keeps its isolating interval.
    log C*_n is the largest upper end of one mpmath.iv evaluation of G at
    3n + 64 bits over each bracket and at x = +-1, rounded up to
    binary64: it holds on any bracket, with no allowance, and exceeds
    log c_n by about 1e-16 of itself. cos phi* is the exact midpoint of
    the winning bracket, an mpmath real, since the peak near
    arg w = 2 pi/3 is about 2^(-3n/2) wide.
    Memoized: it depends on n alone. -inf at n = 1 (S_1 = 0). Orders
    above MAX_ORDER raise Overflow before any power of 2^n is formed.
    """
    if n > MAX_ORDER:
        raise Overflow(
            f"order {n} exceeds {MAX_ORDER}: S_n(u) of h''/h^3 overflows binary64 on |z| = 2"
        )
    P, Q, V = _rim_cubics(n)
    bits, prec = 2 * n + 64, 3 * n + 64
    brackets = [(1, 1, 1), (-1, -1, 1), *_isolate(V, -1, 1, 1, bits)]
    iv, iv_prec = mpmath.iv, mpmath.iv.prec
    iv.prec = prec
    try:
        with mpmath.workprec(prec):
            P, Q = ([iv.mpf(c) for c in C] for C in (P, Q))
            K = iv.mpf(4 ** (n - 2)) / (576 * n * n) ** 2
            tops = []
            for A, B, D in brackets:
                X = iv.mpf([A, B]) / D
                G = iv.log(_horner(Q, X) * K) / 2 - _horner(P, X) / (12 * n * n)
                tops.append((mpmath.mpf(G.b), mpmath.mpf(A + B) / (2 * D)))
            top, x = max(tops)
    finally:
        iv.prec = iv_prec
    return mpmath.libmp.to_float(top._mpf_, rnd="c"), x


@functools.cache
def _k_circles(n):
    # per circle |w| = k^n / B of estimate_m, B = n^n, a column of the
    # coefficients in x of |u|^2 and 2 Re p: _on_circle's integers over B^2
    # or 12 n^2 B^3, each rounded once, as from n = 51 on they pass binary64
    B, Pw, u = n**n, _in_w(0, *_scaled_cubics(n)[0]), (-1, 1)
    ks = (0,) if n == 1 else (n - 1, n + 1, 2 * n - 1)
    L = [[c / B**2 for c in _on_circle(u, u, k**n, B)] for k in ks]
    P = [[c / (12 * n * n * B**3) for c in _on_circle(Pw, (1,), k**n, B)] for k in ks]
    return np.array(L).T[..., None], np.array(P).T[..., None]


def estimate_m(n):
    """Sampled min of |h|, with a factor 1/2, on
    K_n = {|z| <= 1 - 1/n} u {1 + 1/n <= |z| <= 2 - 1/n}, the compact
    where |f_n| must stay large.

    h = (z^n - 1) e^p has no zeros on K_n, so by the minimum-modulus
    principle its min lies on the boundary circles |z| = k / n,
    k = n - 1, n + 1 and 2n - 1. On each, w = z^n = R e^(i phi) with
    R = k^n / n^n, and 2 log|h| = log|u|^2 + 2 Re p: polynomials in
    x = cos phi from the exact expansion that gives C*_n its cubics on
    |w| = 2^n, each coefficient rounded once to binary64. Horner's rule
    takes them at the cosines of the w-angles 2 pi j / M, j = 0..M / 2,
    M = GRID_M, which with their conjugates are all M (p is real). K_1 is
    {0}, where |h| = 1.

    The factor 1/2 does not make m_hat a lower bound: on a 32x finer
    angle sample the true min of log|h| lies below the sampled one by
    1.2e-5 at n = 3 and by 2.1e4 at n = 12. For n = 2..12 a_n is set by
    the sqrt(2 n c_hat) term of choose_a instead, and min log|f_n| on K_n
    stays at 6.4 or more, well above log n.
    """
    L, P = _k_circles(n)
    x = np.cos(np.arange(GRID_M // 2 + 1) * (2.0 * math.pi / GRID_M))
    low = float((np.log(_horner(L, x)) + _horner(P, x)).min())
    return mpmath.exp(mpmath.mpf(low / 2)) / 2


def choose_a(n, c_hat, m_hat):
    """a = max(sqrt(2 n c_hat), 2n / m_hat, 1): the first factor drives
    the inequality margin c_n / a^2 down to 1/n, the second lifts |f_n|
    above n on K_n, so both claims stay quantitatively testable. Both
    floors are rounded upward at the working precision, so a is at least
    each of them exactly, at any precision the record is read at later."""
    if m_hat <= 0:
        raise NonPositiveM(f"m_hat = {m_hat} must be positive")
    if c_hat < 0:
        raise ValueError("c_hat must be >= 0")
    two_n_c = mpmath.fmul(2 * n, c_hat, exact=True)
    s = mpmath.mpf(mpmath.libmp.mpf_sqrt(two_n_c._mpf_, mpmath.mp.prec, "c"))
    t = mpmath.fdiv(2 * n, m_hat, rounding="c")
    return max(s, t, mpmath.mpf(1))


def _exact(x):
    # the libmp tuple of a real magnitude, converted as fmul(exact=True)
    # converts it (an int or float exactly); a string or complex raises
    v = mpmath.mp.convert(x, strings=False)
    if not hasattr(v, "_mpf_"):
        raise TypeError(f"magnitude {x!r} is not a real number")
    return v._mpf_


@dataclass(frozen=True)
class CounterexampleFunction:
    """One constructed family member f_n = a h, h = (z^n - 1) e^{p}.

    p is the exact triple (c1, c2, c3) of build_p(n); precision is the
    number of bits its magnitudes are stored with and that the probes run
    at."""

    n: int
    p: tuple
    a: mpmath.mpf
    c_hat: mpmath.mpf
    m_hat: mpmath.mpf
    precision: int = 53

    def __post_init__(self):
        if self.n < 1:
            raise InvariantViolation("n must be >= 1")
        if not 53 <= self.precision <= MAX_PRECISION:
            raise InvariantViolation(
                f"precision {self.precision} is outside 53..{MAX_PRECISION} bits"
            )
        # the node conditions hold exactly for build_p(n) and for no other
        # cubic in u, so exact equality is the whole node gate
        want = build_p(self.n)
        if self.p != want or not all(isinstance(c, Fraction) for c in self.p):
            raise InvariantViolation(
                f"p = {self.p!r} is not the exponent {want!r} of order {self.n}"
            )
        libmp = mpmath.libmp
        a, c, m = (_exact(x) for x in (self.a, self.c_hat, self.m_hat))
        # (sign, man, exp, bc): bc < 0 marks inf and nan, man = 0 zero
        if min(a[3], c[3], m[3]) < 0 or a[0] or m[0] or c[0] or not (a[1] and m[1]):
            raise InvariantViolation("magnitudes out of range")
        # both floors decided exactly (mpf_mul rounds nothing at prec 0),
        # as a^2 >= 2 n c_hat and a m_hat >= 2n
        two_n = libmp.from_int(2 * self.n)
        if libmp.mpf_cmp(libmp.mpf_mul(a, a), libmp.mpf_mul(two_n, c)) < 0:
            raise InvariantViolation("a below the inequality floor sqrt(2 n c)")
        if libmp.mpf_cmp(libmp.mpf_mul(a, m), two_n) < 0:
            raise InvariantViolation("a below the divergence floor 2n / m")

    @property
    def log_a(self):
        return float(mpmath.log(self.a))

    @property
    def log_c(self):
        if self.c_hat == 0:
            return MINUS_INFINITY
        return float(mpmath.log(self.c_hat))

    @property
    def log_m(self):
        return float(mpmath.log(self.m_hat))

    @cached_property
    def node_residual(self):
        """max(|h''|, |h'''|, |h''''|) / max(1, |h'|) at the node z = 1: a
        Fraction, 0 exactly when the node conditions hold.

        There u = 0, p = 0 and u_k = u^(k) = n!/(n-k)!, so the Leibniz rule
        on h = u e^p gives h' = u_1 = n and

            h''   = u_2 + 2 u_1 E_1,
            h'''  = u_3 + 3 u_2 E_1 + 3 u_1 E_2,
            h'''' = u_4 + 4 u_3 E_1 + 6 u_2 E_2 + 4 u_1 E_3,

        with E_1 = p', E_2 = p'' + p'^2, E_3 = p''' + 3 p' p'' + p'^3 the
        derivatives of e^p, and p', p'', p''' from build_p's chain rule.
        All of it is integer arithmetic scaled by D^3, D the lcm of the
        denominators of p, so any rational exponent is decided exactly."""
        n = self.n
        u1, u2, u3, u4 = (math.perm(n, k) for k in range(1, 5))
        D = math.lcm(*(c.denominator for c in self.p))
        a1, a2, a3 = (c.numerator * (D // c.denominator) for c in self.p)
        # D p', D p'', D p''', then D E_1, D^2 E_2, D^3 E_3
        P1 = a1 * u1
        P2 = 2 * a2 * u1 * u1 + a1 * u2
        P3 = 6 * a3 * u1**3 + 6 * a2 * u1 * u2 + a1 * u3
        E1, E2, E3 = P1, P2 * D + P1 * P1, (P3 * D + 3 * P1 * P2) * D + P1**3
        H2 = (u2 * D + 2 * u1 * E1) * D * D
        H3 = ((u3 * D + 3 * u2 * E1) * D + 3 * u1 * E2) * D
        H4 = ((u4 * D + 4 * u3 * E1) * D + 6 * u2 * E2) * D + 4 * u1 * E3
        return Fraction(max(abs(H2), abs(H3), abs(H4)), n * D**3)


def construct(n, precision=53):
    """Build one family member end to end, its magnitudes at `precision`
    bits (53..MAX_PRECISION); deterministic in (n, precision)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 53 <= precision <= MAX_PRECISION:
        raise ValueError(f"precision must be between 53 and {MAX_PRECISION} bits")
    with mpmath.workprec(precision):
        p = build_p(n)
        c_hat = mpmath.exp(log_c_star(n)[0])
        m_hat = estimate_m(n)
        a = choose_a(n, c_hat, m_hat)
        return CounterexampleFunction(n, p, a, c_hat, m_hat, precision)
