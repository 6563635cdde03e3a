"""Construction of the counterexample family f_n = a_n (z^n - 1) e^{p_n(z)}.

p_n is the Hermite interpolant of degree <= 4n-1 that pins, at every n-th
root of unity, the value p_n = 0 and the three derivative values making
h_n'' = h_n''' = h_n'''' = 0 where h_n = (z^n - 1) e^{p_n}. The scaling
a_n = max(sqrt(2 n c_n), 2n / m_n, 1) then forces |f''| <= 1 + |f|^3 on
the closed disk of radius 2 with margin 1/n, and |f_n| >= n off the unit
circle, while every zero of z^n - 1 stays a simple zero of f_n.

c_n and a_n explode with n (log a_6 is around 2.7e4), so the three
magnitude fields of a constructed record are mpmath reals with unbounded
exponent, and every grid scan works on logarithms in double precision.
Construction scalars are python complex at 53 bits and mpmath.mpc above.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import mpmath
import numpy as np

from . import kernels
from .cpoly import HermiteSpec, Jet, NewtonPolynomial, eval_jet, hermite_interpolate
from .errors import (
    IndexOutOfRange,
    InvariantViolation,
    NearNode,
    NonPositiveM,
    Overflow,
)

EPS_NODE = 1e-3
MINUS_INFINITY = float("-inf")

_EXP_BUDGET = 700.0  # |Re p| beyond this overflows e^p in binary64
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_GOLDEN_TOL = 1e-8


def _is_mp(x):
    return isinstance(x, (mpmath.mpf, mpmath.mpc))


def _log_abs(x):
    a = abs(x)
    if a == 0:
        return MINUS_INFINITY
    return float(mpmath.log(a)) if _is_mp(a) else math.log(a)


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
        if self.precision < 53:
            raise ValueError("precision must be at least 53 bits")
        if self.grid_m < 64:
            raise ValueError("grid_m must be at least 64")


@dataclass(frozen=True)
class LogMagnitude:
    """A magnitude carried as log|.| (and optionally its argument), for
    values whose direct floating form would over- or underflow."""

    log_abs: float
    arg: float | None = None


def g_jet(n, z, J):
    """Jet of g(z) = z^n - 1 by the power rule."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if J < 0:
        raise ValueError("J must be >= 0")
    zero = z * 0
    vals = [z**n - 1]
    c = 1
    for j in range(1, J + 1):
        if j > n:
            vals.append(zero)
            continue
        c *= n - j + 1
        vals.append(c * z ** (n - j) + zero)
    return Jet(J, tuple(vals))


def root_of_unity(n, ell, precision=53):
    """exp(2 pi i ell / n); exact for ell = 0, and mpmath's sinpi/cospi
    keep the axis nodes exact at high precision."""
    if precision <= 53:
        return cmath.exp(2j * math.pi * ell / n)
    with mpmath.workprec(precision):
        return mpmath.expjpi(mpmath.mpf(2 * ell) / n)


def _node_conditions_impl(n, ell, precision):
    z = root_of_unity(n, ell, precision)
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
        return _node_conditions_impl(n, ell, precision)
    with mpmath.workprec(precision):
        return _node_conditions_impl(n, ell, precision)


def build_p(n, precision=53):
    """The exponent polynomial: Hermite interpolant of (0, p1, p2, p3)
    at all n nodes, degree <= 4n-1."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def assemble():
        nodes = []
        jets = []
        for ell in range(n):
            nc = node_conditions(n, ell, precision)
            nodes.append(nc.node)
            jets.append(Jet(3, (nc.node * 0, nc.p1, nc.p2, nc.p3)))
        return hermite_interpolate(HermiteSpec(tuple(nodes), tuple(jets)))

    if precision <= 53:
        return assemble()
    with mpmath.workprec(precision):
        return assemble()


def exp_jet(p_jet):
    """Jet of e^p from the jet of p, by the derivative recursion
    E_j = sum_i binom(j-1, i) p^(j-i) E_i."""
    v0 = p_jet.values[0]
    rep = v0.real
    if not _is_mp(rep) and abs(float(rep)) > _EXP_BUDGET:
        raise Overflow(f"Re(p) = {float(rep):.6g} exceeds the double exponent budget")
    if _is_mp(v0):
        E = [mpmath.exp(v0)]
    else:
        E = [cmath.exp(complex(v0))]
    for j in range(1, p_jet.order + 1):
        E.append(
            sum(math.comb(j - 1, i) * p_jet.values[j - i] * E[i] for i in range(j))
        )
    return Jet(p_jet.order, tuple(E))


def h_jet(n, p, z, J):
    """Jet of h = g e^p by the Leibniz rule h^(m) = sum binom(m,j) g^(m-j) E_j."""
    pj = eval_jet(p, z, J)
    E = exp_jet(pj)
    g = g_jet(n, z, J)
    vals = []
    for m in range(J + 1):
        vals.append(sum(math.comb(m, j) * g[m - j] * E[j] for j in range(m + 1)))
    return Jet(J, tuple(vals))


def h_log_magnitude(n, p, z):
    """|h| and arg(h) in log space: log|h| = log|z^n - 1| + Re p."""
    pj = eval_jet(p, z, 0)
    g = z**n - 1
    la = _log_abs(g) + float(pj.values[0].real)
    if la == MINUS_INFINITY:
        return LogMagnitude(MINUS_INFINITY, None)
    if _is_mp(g):
        ag = float(mpmath.arg(g))
    else:
        ag = cmath.phase(complex(g))
    return LogMagnitude(la, ag + float(pj.values[0].imag))


def ratio_log_abs(n, p, z):
    """log |h''(z) / h(z)^3|, never materializing e^{-2p} / g^3.

    h''/h^3 = (g'' + 2 g' p' + g (p'' + p'^2)) e^{-2p} / g^3, so the log
    is log|numerator| - 2 Re p - 3 log|g|. Points with |z^n - 1| inside
    the node exclusion radius are refused: there the quotient is 0/0 and
    the caller must bound it by its max on the node circle instead.
    """
    g0 = z**n - 1
    if abs(g0) <= EPS_NODE:
        raise NearNode(f"|z^n - 1| <= {EPS_NODE:g} at z = {complex(z):.6g}")
    gj = g_jet(n, z, 2)
    pj = eval_jet(p, z, 2)
    b2 = gj[2] + 2 * gj[1] * pj[1] + gj[0] * (pj[2] + pj[1] * pj[1])
    if b2 == 0:
        return MINUS_INFINITY
    return _log_abs(b2) - 2.0 * float(pj[0].real) - 3.0 * _log_abs(gj[0])


def _downcast(p):
    cen = np.asarray([complex(c) for c in p.centers], dtype=np.complex128)
    cof = np.asarray([complex(c) for c in p.coeffs], dtype=np.complex128)
    return cen, cof


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


def estimate_c(n, p, M=1024):
    """Grid estimate of c_n = max over the closed 2-disk of |h''/h^3|.

    h''/h^3 is entire (the triple zeros of h^3 at the nodes are killed
    by the vanishing of h'' there), so by the maximum principle only the
    circle |z| = 2 needs searching: M*max(1,n) angles, then golden-section
    refinement of the bracketing arc down to 1e-8 radians. Returned as an
    mpmath real since c_n overflows binary64 from n = 4 on.
    """
    if M < 64:
        raise ValueError("M must be at least 64")
    K = M * max(1, n)
    theta = np.linspace(0.0, 2.0 * math.pi, K, endpoint=False)
    zs = 2.0 * np.exp(1j * theta)
    cen, cof = _downcast(p)
    logs = kernels.ratio_log(n, cen, cof, zs)
    if not np.any(np.isfinite(logs)):
        return mpmath.mpf(0)
    i = int(np.argmax(logs))
    p53 = NewtonPolynomial(tuple(cen.tolist()), tuple(cof.tolist()))
    step = 2.0 * math.pi / K

    def f(t):
        return ratio_log_abs(n, p53, 2.0 * cmath.exp(1j * t))

    best = _golden_max(f, theta[i] - step, theta[i] + step, _GOLDEN_TOL)
    best = max(best, float(logs[i]))
    return mpmath.exp(mpmath.mpf(best))


def estimate_m(n, p, M=1024):
    """Sampled min of |h|, with a factor 1/2, on
    K_n = {|z| <= 1 - 1/n} u {1 + 1/n <= |z| <= 2 - 1/n}, the compact
    where |f_n| must stay large.

    h = (z^n - 1) e^p has no zeros on K_n, so by the minimum-modulus
    principle its min lies on the boundary circles |z| = 1 - 1/n, 1 + 1/n
    and 2 - 1/n; each is sampled at M*n angles. K_1 degenerates to {0}.

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
    theta = np.linspace(0.0, 2.0 * math.pi, M * n, endpoint=False)
    zs = np.outer(radii, np.exp(1j * theta)).ravel()
    cen, cof = _downcast(p)
    logs = kernels.h_log(n, cen, cof, zs)
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
    """One constructed family member f_n = a h, h = (z^n - 1) e^{p}."""

    n: int
    p: NewtonPolynomial
    a: mpmath.mpf
    c_hat: mpmath.mpf
    m_hat: mpmath.mpf
    precision: int = 53

    def __post_init__(self):
        if self.n < 1:
            raise InvariantViolation("n must be >= 1")
        if len(self.p.centers) > 4 * self.n - 1:
            raise InvariantViolation("deg p exceeds 4n - 1")
        with mpmath.workprec(self.precision):
            if not (self.a > 0 and self.m_hat > 0 and self.c_hat >= 0):
                raise InvariantViolation("magnitudes out of range")
            if self.a < mpmath.sqrt(2 * self.n * self.c_hat):
                raise InvariantViolation("a below the inequality floor sqrt(2 n c)")
            if self.a < 2 * self.n / self.m_hat:
                raise InvariantViolation("a below the divergence floor 2n / m")
            self._check_node_jets()

    def _check_node_jets(self):
        # the defining property: h'', h''', h'''' vanish at every node,
        # relative to max(1, |h'|); 1e-8 is attainable in double precision
        # through n = 6, beyond that construction needs more bits; the
        # test is written so that a NaN residual fails it
        for ell in range(self.n):
            z = root_of_unity(self.n, ell, self.precision)
            hj = h_jet(self.n, self.p, z, 4)
            floor = max(1.0, abs(hj[1]))
            for m in (2, 3, 4):
                if not (abs(hj[m]) <= 1e-8 * floor):
                    raise InvariantViolation(
                        f"h^({m}) residual at node {ell} is "
                        f"{float(abs(hj[m]) / floor):.3e}; raise the construction "
                        "precision (128 bits is enough well past n = 8)"
                    )

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
    def arrays(self):
        """(centers, coeffs) downcast to complex128 for the grid kernels."""
        return _downcast(self.p)


def construct(n, cfg=ConstructionConfig()):
    """Build one family member end to end; deterministic in (n, cfg)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with mpmath.workprec(cfg.precision):
        p = build_p(n, cfg.precision)
        c_hat = estimate_c(n, p, cfg.grid_m)
        m_hat = estimate_m(n, p, cfg.grid_m)
        a = choose_a(n, c_hat, m_hat)
        return CounterexampleFunction(n, p, a, c_hat, m_hat, cfg.precision)


def f_jet(F, z, J):
    """Jet of f = a h. Double-precision records refuse magnitudes beyond
    the float range (callers then work with h_log_magnitude and log a);
    high-precision records return mpmath scalars instead."""
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
