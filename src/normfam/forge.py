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
exponent, and every scan, the refinement of c_hat included, evaluates
logarithms in double precision on arrays, through the kernels module.
The scalar jets, of any order, are Taylor series in w = z^n: the cubic p
shifted exactly about u, e^p by a three-term recurrence, both composed
with (z + t)^n - z^n by Horner's rule, exactly at a Fraction point and in
mpmath.mpc at the working precision elsewhere; the array kernels take
closed forms instead. At z = 1, u = 0 and the coefficients C(n, j) of
(1 + t)^n - 1 are integers, so a record's node_residual decides the node
conditions in rational arithmetic. A record's precision sets only the
digits its magnitudes are stored with and the mpmath precision of f_jet
and of the probes.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath
import numpy as np

from . import kernels
from .errors import InvariantViolation, NonPositiveM, Overflow

MINUS_INFINITY = float("-inf")
MAX_PRECISION = 4096  # bits

_ARC_ZOOM = 64  # estimate_c's refinement rounds each shrink the arc this much
_ARC_STEPS = np.arange(-_ARC_ZOOM, _ARC_ZOOM + 1)
_ARC_TOL = 1e-8  # radians; estimate_c refines until its arc is this short


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


@dataclass(frozen=True)
class ConstructionConfig:
    precision: int = 53
    grid_m: int = 1024

    def __post_init__(self):
        if not 53 <= self.precision <= MAX_PRECISION:
            raise ValueError(f"precision must be between 53 and {MAX_PRECISION} bits")
        if self.grid_m < 64:
            raise ValueError("grid_m must be at least 64")


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


def log_c_bound(n):
    """A binary64 upper bound of log C_n, C_n = n 2^(n-2) S^(U) e^(2 P(U)),
    U = 2^n + 1, P(x) = sum |c_k| x^k (build_p), S^(x) = sum |s_k| x^k
    (build_s): |u| <= U on |z| <= 2, so C_n >= |h''/h^3| there. Summed at
    80 bits from the exact rationals, rounded once, raised by 1e-12 of
    itself; -inf at n = 1 (S_1 = 0); +inf from n = 343 on, where
    2 P(U) > 2 |c3| 2^(3n) >= 2^(3n-4) leaves binary64, before 2^n is formed."""
    if 3 * n - 4 >= 1024:
        return math.inf
    U = 2**n + 1
    P = sum(abs(c) * U**k for k, c in enumerate(build_p(n), 1))
    S = sum(abs(s) * U**k for k, s in enumerate(build_s(n)))
    if not S:
        return MINUS_INFINITY
    with mpmath.workprec(80):
        x, y = (mpmath.mpf(q.numerator) / q.denominator for q in (n * 2**n * S / 4, 2 * P))
        b = float(mpmath.log(x) + y)
    return b + 1e-12 * abs(b)


def p_degree(n, p):
    """Degree in z of p = c1 u + c2 u^2 + c3 u^3: k n for the highest
    nonzero c_k, 0 for p = 0."""
    return max((k * n for k, c in enumerate(p, 1) if c), default=0)


def p_float(p):
    """Exact coefficients (build_p's or build_s's) rounded to binary64, the
    form the grid kernels take."""
    return tuple(float(c) for c in p)


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


def p_jet(n, p, z, J):
    """Jet of p at z, any order J >= 0: the shifted cubic P(s) = p(u + s)
    composed with s(t) = (z + t)^n - z^n; exact at a Fraction z,
    mpmath.mpc elsewhere."""
    _, P, s = _w_series(n, p, z, J)
    return _compose(P, s, J)


def h_jet(n, p, z, J):
    """Jet of h = u e^p at z, any order J >= 0, as a Taylor series in
    w = z^n: E(s) = e^(P(s)) from E_0 = e^p by the recurrence
    k E_k = sum_(j <= 3) j P_j E_(k-j), then F = (u + s) E(s), so
    F_k = u E_k + E_(k-1), composed with s(t) like p_jet. E_0 is exactly 1
    where p = 0, so at z = Fraction(1), where u = 0, every value is an
    exact Fraction; elsewhere e^p is mpmath.exp at the working precision."""
    u, P, s = _w_series(n, p, z, J)
    E = [1 if P[0] == 0 else mpmath.exp(P[0])]
    for k in range(1, J + 1):
        E.append(sum(j * P[j] * E[k - j] for j in range(1, min(k, 3) + 1)) / k)
    return _compose([u * E[0]] + [u * E[k] + E[k - 1] for k in range(1, J + 1)], s, J)


def distinct_angles(n, M):
    """The M // 2 + 1 angles 2 pi j / (M n), j = 0..M // 2: those of
    [0, pi/n] among the M n equispaced angles 2 pi k / (M n).

    z -> z^n maps the M n angles onto the M angles 2 pi k / M of w, and
    these M // 2 + 1 onto the w-angles 2 pi j / M, which with their
    conjugates are all M of them. So a scan of |q(z^n)| for a q with real Taylor coefficients,
    where q(conj w) = conj q(w), needs no other angle. Every |f^(k)| and
    |h''/h^3| of a record is one: its a is real, and its gate demands
    p == build_p(n), rationals that p_float rounds to real floats.
    """
    return np.arange(M // 2 + 1) * (2.0 * math.pi / (M * n))


def estimate_c(n, p, M=1024):
    """Grid estimate of c_n = max over the closed 2-disk of |h''/h^3|.

    h''/h^3 = n z^(n-2) S_n(u) e^(-2p) is entire (build_s: the triple
    zeros of h^3 at the nodes are those of h''), so by the maximum
    principle only the circle |z| = 2 needs searching: the M / 2 + 1 of
    its M*n equispaced angles that lie in [0, pi/n] (distinct_angles;
    rotation and reflection carry them onto the rest). The best of them
    is refined on the arc of two steps around it: 2 _ARC_ZOOM + 1 angles
    across the arc, which then narrows to two of their steps around the
    best, until it is shorter than _ARC_TOL radians. The arc may reach past an end of [0, pi/n],
    where the reflection repeats the values inside. Returned as an mpmath
    real since c_n overflows binary64 from n = 4 on; 0 when every sampled
    log is -inf (n = 1). A sampled log of +inf or NaN, which S_n(u) gives
    at every point from n = 340 on, raises Overflow.
    """
    if M < 64:
        raise ValueError("M must be at least 64")
    theta = distinct_angles(n, M)
    c, s = p_float(p), p_float(build_s(n))
    logs = kernels.ratio_log(n, c, s, 2.0 * np.exp(1j * theta))
    if not np.all(logs < math.inf):  # a +inf or NaN
        raise Overflow(f"log|h''/h^3| on |z| = 2 overflows binary64 at order {n}")
    if np.all(logs == MINUS_INFINITY):
        return mpmath.mpf(0)
    i = int(np.argmax(logs))
    best = float(logs[i])
    step = 2.0 * math.pi / (M * n)
    while 2.0 * step > _ARC_TOL:
        step /= _ARC_ZOOM
        theta = theta[i] + step * _ARC_STEPS
        logs = kernels.ratio_log(n, c, s, 2.0 * np.exp(1j * theta))
        i = int(np.argmax(logs))
        best = max(best, float(logs[i]))
    return mpmath.exp(mpmath.mpf(best))


def estimate_m(n, p, M=1024):
    """Sampled min of |h|, with a factor 1/2, on
    K_n = {|z| <= 1 - 1/n} u {1 + 1/n <= |z| <= 2 - 1/n}, the compact
    where |f_n| must stay large.

    h = (z^n - 1) e^p has no zeros on K_n, so by the minimum-modulus
    principle its min lies on the boundary circles |z| = 1 - 1/n, 1 + 1/n
    and 2 - 1/n; each is sampled at the M / 2 + 1 of its M*n equispaced
    angles that lie in [0, pi/n] (distinct_angles; rotation and reflection
    carry them onto the rest). K_1 degenerates to {0}, evaluated once.

    The factor 1/2 does not make m_hat a lower bound: on a 32x finer
    angle sample the true min of log|h| lies below the sampled one by
    1.2e-5 at n = 3 and by 2.1e4 at n = 12. For n = 2..12 a_n is set by
    the sqrt(2 n c_hat) term of choose_a instead, and min log|f_n| on K_n
    stays at 6.4 or more, well above log n.
    """
    if M < 64:
        raise ValueError("M must be at least 64")
    if n == 1:
        zs = np.zeros(1, dtype=complex)
    else:
        radii = np.array([1.0 - 1.0 / n, 1.0 + 1.0 / n, 2.0 - 1.0 / n])
        zs = np.outer(radii, np.exp(1j * distinct_angles(n, M))).ravel()
    logs = kernels.h_log(n, p_float(p), zs)
    return mpmath.exp(mpmath.mpf(float(np.min(logs)))) / 2


def choose_a(n, c_hat, m_hat):
    """a = max(sqrt(2 n c_hat), 2n / m_hat, 1): the first factor drives
    the inequality margin c_n / a^2 down to 1/n, the second lifts |f_n|
    above n on K_n, so both claims stay quantitatively testable."""
    if m_hat <= 0:
        raise NonPositiveM(f"m_hat = {m_hat} must be positive")
    if c_hat < 0:
        raise ValueError("c_hat must be >= 0")
    s = mpmath.sqrt(2 * n * mpmath.mpf(c_hat))
    t = 2 * n / mpmath.mpf(m_hat)
    return max(s, t, mpmath.mpf(1))


@dataclass(frozen=True)
class CounterexampleFunction:
    """One constructed family member f_n = a h, h = (z^n - 1) e^{p}.

    p is the exact triple (c1, c2, c3) of build_p(n); precision is the
    number of bits its magnitudes are stored with and that f_jet and the
    probes run at."""

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
        with mpmath.workprec(self.precision):
            if not (self.a > 0 and self.m_hat > 0 and self.c_hat >= 0):
                raise InvariantViolation("magnitudes out of range")
            if self.a < mpmath.sqrt(2 * self.n * self.c_hat):
                raise InvariantViolation("a below the inequality floor sqrt(2 n c)")
            if self.a < 2 * self.n / self.m_hat:
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
    def p_float(self):
        """(c1, c2, c3) in binary64 for the grid kernels."""
        return p_float(self.p)

    @cached_property
    def s_float(self):
        """(s0, s1, s2, s3) of build_s(n) in binary64 for the grid kernels."""
        return p_float(build_s(self.n))

    @cached_property
    def node_residual(self):
        """max(|h''|, |h'''|, |h''''|) / max(1, |h'|) at the node z = 1, from
        the exact rational jet of h there: a Fraction, 0 exactly when the
        node conditions hold."""
        hj = h_jet(self.n, self.p, Fraction(1), 4)
        return max(abs(hj[m]) for m in (2, 3, 4)) / max(1, abs(hj[1]))


def construct(n, cfg=ConstructionConfig()):
    """Build one family member end to end; deterministic in (n, cfg)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with mpmath.workprec(cfg.precision):
        p = build_p(n)
        c_hat = estimate_c(n, p, cfg.grid_m)
        m_hat = estimate_m(n, p, cfg.grid_m)
        a = choose_a(n, c_hat, m_hat)
        return CounterexampleFunction(n, p, a, c_hat, m_hat, cfg.precision)


def f_jet(F, z, J):
    """Jet of f = a h, any order J >= 0, as mpmath.mpc values, since a
    overflows binary64 from order 5 on; all of it, h's jet included, runs
    at the record's precision."""
    with mpmath.workprec(F.precision):
        hj = h_jet(F.n, F.p, z, J)
        return Jet(J, tuple(mpmath.mpc(F.a * v) for v in hj.values))
