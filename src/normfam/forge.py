"""Construction of the counterexample family f_n = a_n (z^n - 1) e^{p_n(z)}.

At every n-th root of unity p_n vanishes and p', p'', p''' take the
values making h_n'' = h_n''' = h_n'''' = 0, where h_n = (z^n - 1) e^{p_n}.
Those conditions are invariant under z -> e^{2 pi i/n} z, so their unique
interpolant of degree <= 4n-1 is a polynomial in z^n: with u = z^n - 1,

    p_n = c1 u + c2 u^2 + c3 u^3,

and the rational c_k follow exactly from the conditions at z = 1 (n = 2
gives -1/4, 3/32, -5/96). p is that triple of Fractions and is fixed by
n alone, so function files do not store it: build_p(n) derives it, and
a record's gate demands p == build_p(n). Every evaluation is a Horner
step in u, O(1) per point whatever n. f_n depends on z only through
z^n, so anything checked at the node z = 1 holds at all n nodes.

The scaling a_n = max(sqrt(2 n c_n), 2n / m_n, 1) then forces
|f''| <= 1 + |f|^3 on the closed disk of radius 2 with margin 1/n, and
|f_n| >= n off the unit circle, while every zero of z^n - 1 stays a
simple zero of f_n.

c_n and a_n explode with n (log a_6 is around 2.7e4), so the three
magnitude fields of a constructed record are mpmath reals with unbounded
exponent, and every grid scan works on logarithms in double precision.
At z = 1, u = 0 and every derivative of u is an integer, so h_jet at
Fraction(1) is exact: the node conditions are decided in rational
arithmetic. A record's precision sets only the digits its magnitudes
are stored with and the precision of f_jet and of the probes (python
complex at 53 bits, mpmath.mpc above).
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath
import numpy as np

from . import kernels
from .errors import IndexOutOfRange, InvariantViolation, NonPositiveM, Overflow

EPS_NODE = 1e-3
MINUS_INFINITY = float("-inf")
MAX_PRECISION = 4096  # bits

_EXP_BUDGET = 700.0  # |Re p| beyond this overflows e^p in binary64
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_GOLDEN_TOL = 1e-8


def _is_mp(x):
    return isinstance(x, (mpmath.mpf, mpmath.mpc))


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
class NodeConditions:
    """Derivative values prescribed for p_n at one root of unity: the
    unique choice killing h'', h''' and h'''' there."""

    node: complex
    p1: complex
    p2: complex
    p3: complex


@dataclass(frozen=True)
class ConstructionConfig:
    precision: int = 53
    grid_m: int = 1024

    def __post_init__(self):
        if not 53 <= self.precision <= MAX_PRECISION:
            raise ValueError(f"precision must be between 53 and {MAX_PRECISION} bits")
        if self.grid_m < 64:
            raise ValueError("grid_m must be at least 64")


def g_jet(n, z, J):
    """Jet of g(z) = z^n - 1 by the power rule."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if J < 0:
        raise ValueError("J must be >= 0")
    return Jet(J, tuple(kernels.u_jet(n, z, J)))


def root_of_unity(n, ell, precision=53):
    """exp(2 pi i ell / n); exact for ell = 0, and mpmath's sinpi/cospi
    keep the axis nodes exact at high precision."""
    if precision <= 53:
        return cmath.exp(2j * math.pi * ell / n)
    with mpmath.workprec(precision):
        return mpmath.expjpi(mpmath.mpf(2 * ell) / n)


def _node_conditions_at(n, z):
    g = g_jet(n, z, 4)
    g1, g2, g3, g4 = g[1], g[2], g[3], g[4]
    p1 = -g2 / (2 * g1)
    p2 = -(g3 + 3 * g2 * p1 + 3 * g1 * p1**2) / (3 * g1)
    p3 = -(
        g4
        + 4 * g3 * p1
        + 6 * g2 * p2
        + 6 * g2 * p1**2
        + 12 * g1 * p1 * p2
        + 4 * g1 * p1**3
    ) / (4 * g1)
    return NodeConditions(z, p1, p2, p3)


def node_conditions(n, ell, precision=53):
    """p', p'', p''' at the ell-th n-th root of unity, solved sequentially
    from the vanishing of h'', then h''', then h''''.

    Expanding h = g e^p by Leibniz and dividing out e^p != 0, each
    condition is linear in the highest derivative of p with coefficient
    g' != 0, so the triangular system determines (p1, p2, p3) uniquely.
    """
    if not 0 <= ell <= n - 1:
        raise IndexOutOfRange(f"node index {ell} outside [0, {n - 1}]")
    if precision <= 53:
        return _node_conditions_at(n, root_of_unity(n, ell))
    with mpmath.workprec(precision):
        return _node_conditions_at(n, root_of_unity(n, ell, precision))


def build_p(n):
    """The exponent (c1, c2, c3) of p = c1 u + c2 u^2 + c3 u^3, u = z^n - 1,
    as exact Fractions.

    The node conditions at z = 1, solved in Fractions, give p', p'', p'''
    there. At z = 1, u = 0 and u^(k) = n!/(n-k)!, so the chain rule
    p' = c1 u', p'' = 2 c2 u'^2 + c1 u'', p''' = 6 c3 u'^3 + 6 c2 u' u'' + c1 u'''
    is a triangular system for the c_k.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    nc = _node_conditions_at(n, Fraction(1))
    d1, d2, d3 = n, n * (n - 1), n * (n - 1) * (n - 2)
    c1 = nc.p1 / d1
    c2 = (nc.p2 - c1 * d2) / (2 * d1**2)
    c3 = (nc.p3 - 6 * c2 * d1 * d2 - c1 * d3) / (6 * d1**3)
    return (c1, c2, c3)


def p_degree(n, p):
    """Degree in z of p = c1 u + c2 u^2 + c3 u^3: k n for the highest
    nonzero c_k, 0 for p = 0."""
    return max((k * n for k, c in enumerate(p, 1) if c), default=0)


def p_float(p):
    """(c1, c2, c3) rounded to binary64, the form the grid kernels take."""
    return tuple(float(c) for c in p)


def _coeffs_like(p, z):
    # the c_k rounded once to the working precision of z; a Fraction z
    # keeps them exact
    if isinstance(z, Fraction):
        return p
    if _is_mp(z):
        return tuple(mpmath.mpf(c.numerator) / c.denominator for c in p)
    return p_float(p)


def _gp_jets(n, p, z, J):
    # the jets of g = u = z^n - 1 and of p, up to order J <= 4, at z
    if not 0 <= J <= 4:
        raise ValueError("J must be in 0..4")
    u = kernels.u_jet(n, z, J)
    return u, kernels.p_from_u(_coeffs_like(p, z), u)


def p_jet(n, p, z, J):
    """Jet of p at z, orders J <= 4, by the chain rule through the jet of
    u = z^n - 1. The c_k are rounded once to the working precision of z,
    or kept exact for a Fraction z."""
    return Jet(J, tuple(_gp_jets(n, p, z, J)[1]))


def exp_jet(p_jet):
    """Jet of e^p from the jet of p, by the derivative recursion
    E_j = sum_i binom(j-1, i) p^(j-i) E_i. E_0 = 1 exactly where p is
    exactly 0, so an exact jet of p (Fractions) gives an exact jet."""
    v0 = p_jet.values[0]
    rep = v0.real
    if not _is_mp(rep) and abs(float(rep)) > _EXP_BUDGET:
        raise Overflow(f"Re(p) = {float(rep):.6g} exceeds the double exponent budget")
    if _is_mp(v0):
        E = [mpmath.exp(v0)]
    elif v0 == 0:
        E = [1]
    else:
        E = [cmath.exp(complex(v0))]
    for j in range(1, p_jet.order + 1):
        E.append(
            sum(math.comb(j - 1, i) * p_jet.values[j - i] * E[i] for i in range(j))
        )
    return Jet(p_jet.order, tuple(E))


def h_jet(n, p, z, J):
    """Jet of h = g e^p by the Leibniz rule h^(m) = sum binom(m,j) g^(m-j) E_j,
    orders J <= 4. At z = Fraction(1) every value is an exact Fraction
    (there u = 0, so p = 0 and e^p = 1)."""
    g, pj = _gp_jets(n, p, z, J)
    E = exp_jet(Jet(J, tuple(pj)))
    vals = []
    for m in range(J + 1):
        vals.append(sum(math.comb(m, j) * g[m - j] * E[j] for j in range(m + 1)))
    return Jet(J, tuple(vals))


def _golden_max(f, lo, hi, tol):
    # golden-section search, mirrored for a maximum
    a, b = lo, hi
    h = b - a
    c, d = a + _INVPHI2 * h, a + _INVPHI * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    return max(fc, fd)


def distinct_angles(n, K):
    """The first K / gcd(n, K) of the angles 2 pi j / K, bit-identical to
    np.linspace's: z -> z^n maps them to distinct points and the other
    angles repeat them, so a scan of a function of z^n needs no more."""
    return np.arange(K // math.gcd(n, K)) * (2.0 * math.pi / K)


def estimate_c(n, p, M=1024):
    """Grid estimate of c_n = max over the closed 2-disk of |h''/h^3|.

    h''/h^3 is entire (the triple zeros of h^3 at the nodes are killed
    by the vanishing of h'' there), so by the maximum principle only the
    circle |z| = 2 needs searching: the first M of M*n equispaced angles
    (the rest repeat their z^n), then golden-section refinement of the
    bracketing arc down to 1e-8 radians. Returned as an mpmath real since
    c_n overflows binary64 from n = 4 on.
    """
    if M < 64:
        raise ValueError("M must be at least 64")
    K = M * max(1, n)
    theta = distinct_angles(n, K)
    zs = 2.0 * np.exp(1j * theta)
    c = p_float(p)
    logs = kernels.ratio_log(n, c, zs)
    if not np.any(np.isfinite(logs)):
        return mpmath.mpf(0)
    i = int(np.argmax(logs))
    step = 2.0 * math.pi / K

    def f(t):
        # one point of |z| = 2, where |u| >= 2^n - 1 >= 1, in python complex:
        # numpy calls on one-point arrays would double the cost of estimate_c
        u = kernels.u_jet(n, 2.0 * cmath.exp(1j * t), 2)
        return float(kernels.ratio_log_jets(u, kernels.p_from_u(c, u)))

    best = _golden_max(f, theta[i] - step, theta[i] + step, _GOLDEN_TOL)
    best = max(best, float(logs[i]))
    return mpmath.exp(mpmath.mpf(best))


def estimate_m(n, p, M=1024):
    """Sampled min of |h|, with a factor 1/2, on
    K_n = {|z| <= 1 - 1/n} u {1 + 1/n <= |z| <= 2 - 1/n}, the compact
    where |f_n| must stay large.

    h = (z^n - 1) e^p has no zeros on K_n, so by the minimum-modulus
    principle its min lies on the boundary circles |z| = 1 - 1/n, 1 + 1/n
    and 2 - 1/n; each is sampled at the first M of M*n equispaced angles
    (the rest repeat their z^n). K_1 degenerates to {0}.

    The factor 1/2 does not make m_hat a lower bound: on a 32x finer
    angle sample the true min of log|h| lies below the sampled one by
    1.2e-5 at n = 3 and by 2.1e4 at n = 12. For n = 2..12 a_n is set by
    the sqrt(2 n c_hat) term of choose_a instead, and min log|f_n| on K_n
    stays at 6.4 or more, well above log n.
    """
    if M < 64:
        raise ValueError("M must be at least 64")
    if n == 1:
        radii = np.zeros(1)
    else:
        radii = np.array([1.0 - 1.0 / n, 1.0 + 1.0 / n, 2.0 - 1.0 / n])
    zs = np.outer(radii, np.exp(1j * distinct_angles(n, M * n))).ravel()
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
    """Jet of f = a h. Double-precision records refuse magnitudes beyond
    the float range (callers then work with log|h| from kernels.h_log
    and log a); high-precision records return mpmath scalars instead."""
    hj = h_jet(F.n, F.p, z, J)
    if F.precision <= 53:
        af = float(F.a)
        if not math.isfinite(af):
            raise Overflow(f"a_n = exp({F.log_a:.6g}) exceeds the float range")
        vals = tuple(af * complex(v) for v in hj.values)
        if not all(cmath.isfinite(v) for v in vals):
            raise Overflow("a * h overflows the float range at this point")
        return Jet(J, vals)
    with mpmath.workprec(F.precision):
        return Jet(J, tuple(F.a * mpmath.mpc(v) for v in hj.values))
