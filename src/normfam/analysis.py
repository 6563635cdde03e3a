"""Numerical verification of the family's analytic properties.

Everything the construction promises is checked here: the
second-derivative inequality |f''| / (1 + |f|^3) <= 1 on the disk of
radius 2, the triple vanishing of h'' at the interpolation nodes, the
blow-up of the spherical derivative along the unit circle, the decay
of f^(l) / f^(l+1) away from that circle, and boundedness of h''/h^3
through an interior-versus-boundary maximum comparison.  Grid sweeps
run through the log-space kernels, so magnitudes far beyond the double
range are compared by exponent rather than by value.  f_n depends on z
only through z^n, so every check near the nodes runs at the node z = 1,
which stands for all n of them: no check costs more as n grows.  There
u = z^n - 1 = 0 and every derivative of u is an integer, so the node
conditions are decided exactly, on the rational jet of h at z = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from . import kernels
from .errors import CenterOffCircle, OrderTooLow, PointTooCloseToCircle
from .forge import EPS_NODE, MINUS_INFINITY, distinct_angles, h_jet

# fixed default so repeated runs produce identical reports; callers
# (and the CLI) may override
DEFAULT_SEED = 1729

_NEAR_NODE_COUNT = 1000
_NEAR_NODE_RADIUS = 1e-2


@dataclass(frozen=True)
class GridSpec:
    """Where to sample.

    disk(r) and annulus(r1, r2) draw seeded uniform-by-area points, so
    resolution is the point count; circle(r) is equispaced in angle and
    ignores the seed.
    """

    region: str
    radii: tuple
    resolution: int
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.region not in ("disk", "circle", "annulus"):
            raise ValueError(f"unknown region {self.region!r}")
        want = 2 if self.region == "annulus" else 1
        if len(self.radii) != want:
            raise ValueError(f"{self.region} takes {want} radius value(s)")
        if not all(0 < r < math.inf for r in self.radii):  # NaN fails too
            raise ValueError("radii must be positive and finite")
        if self.region == "annulus" and self.radii[0] >= self.radii[1]:
            raise ValueError("annulus radii must increase")
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")

    def points(self):
        """Complex sample points as one flat array."""
        if self.region == "circle":
            k = np.arange(self.resolution)
            return self.radii[0] * np.exp(2j * np.pi * k / self.resolution)
        rng = np.random.default_rng(self.seed)
        u = rng.random(self.resolution)
        return self._place(u, 2.0 * np.pi * rng.random(self.resolution))

    def chunks(self, size):
        """points() as consecutive arrays of at most `size` points, equal to
        it bit for bit. circle slices the angle index; disk and annulus
        draw u from one generator and theta from a second one advanced past
        the resolution draws of u, which points() takes first."""
        if size < 1:
            raise ValueError("chunk size must be >= 1")
        N = self.resolution
        if self.region != "circle":
            ru, rt = np.random.default_rng(self.seed), np.random.default_rng(self.seed)
            rt.bit_generator.advance(N)
        for i in range(0, N, size):
            m = min(size, N - i)
            if self.region == "circle":
                k = np.arange(i, i + m)
                yield self.radii[0] * np.exp(2j * np.pi * k / N)
            else:
                yield self._place(ru.random(m), 2.0 * np.pi * rt.random(m))

    def _place(self, u, th):
        # uniform draws u and angles th to points, uniform by area
        if self.region == "disk":
            r = self.radii[0] * np.sqrt(u)
        else:
            r1, r2 = self.radii
            r = np.sqrt(r1 * r1 + u * (r2 * r2 - r1 * r1))
        return r * np.exp(1j * th)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification sweep.

    passed means the op's own test holds, as its notes state:
    max_inequality within the op's slack of 1 for verify_inequality,
    a node residual of exactly 0 for verify_node_jets, the interior max
    within the boundary max for max_modulus_check.  node_residuals holds
    the value at the node z = 1 where the op measures one, else nothing.
    """

    passed: bool
    max_inequality: float
    worst_point: complex
    node_residuals: tuple
    notes: str


@dataclass(frozen=True)
class ProbeResult:
    """A sequence of measurements indexed by family order."""

    n_values: tuple
    measurements: tuple
    verdict: str

    def __post_init__(self):
        if len(self.n_values) != len(self.measurements):
            raise ValueError("need exactly one measurement per n entry")


def fk_value(jet, k):
    """|f^(k)| / (1 + |f|^(k+1)), the order-k normality functional."""
    if k < 0:
        raise OrderTooLow("k must be >= 0")
    if jet.order < k:
        raise OrderTooLow(f"need a jet of order >= {k}, have {jet.order}")
    return abs(jet[k]) / (1 + abs(jet[0]) ** (k + 1))


def spherical_derivative(jet):
    """|f'| / (1 + |f|^2), the chordal speed of f."""
    if jet.order < 1:
        raise OrderTooLow(f"need a jet of order >= 1, have {jet.order}")
    return abs(jet[1]) / (1 + abs(jet[0]) ** 2)


def _disk_points(rng, count, radius, center=0j):
    # uniform by area
    r = radius * np.sqrt(rng.random(count))
    th = 2.0 * np.pi * rng.random(count)
    return center + r * np.exp(1j * th)


def verify_inequality(F, samples=10000, tol=1e-12, seed=DEFAULT_SEED):
    """Sweep |f''| / (1 + |f|^3) over the disk of radius 2.

    The grid is `samples` uniform points plus a dense cluster within
    1e-2 of the node z = 1 plus that node itself, which stand for all n
    nodes by rotation invariance; the node cluster is where numerator
    and denominator both nearly vanish, the regime most likely to
    expose a bad construction.  Huge |f| is handled inside the kernel
    by switching to the upper bound |f''| / |f|^3, so |f| itself never
    overflows.  passed means the overall max is <= 1 + tol.  A value of
    +inf or NaN means a term of the jet overflows binary64 (|p'|^2 near
    |z| = 2 at n = 200, z^n at n = 10^6) and the sweep measures nothing:
    it then fails with max_inequality NaN at the first such point.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 <= tol < math.inf:  # NaN fails too
        raise ValueError("tol must be finite and >= 0")
    rng = np.random.default_rng(seed)
    zs = np.concatenate(
        [
            _disk_points(rng, samples, 2.0),
            _disk_points(rng, _NEAR_NODE_COUNT, _NEAR_NODE_RADIUS, 1.0),
            np.ones(1, dtype=complex),
        ]
    )
    vals = kernels.fk(F.n, F.p_float, F.log_a, zs)
    bounded = vals < math.inf  # False at +inf and NaN
    overflow = not bounded.all()
    i = int(np.argmin(bounded)) if overflow else int(np.argmax(vals))
    passed = not overflow and bool(vals[i] <= 1.0 + tol)
    notes = (
        f"{zs.size} points: {samples} uniform in disk(0,2), "
        f"{_NEAR_NODE_COUNT} within {_NEAR_NODE_RADIUS:g} of the node 1, and "
        f"the node 1 (its value fills node_residuals and joins the max), which "
        f"stands for all {F.n} nodes by rotation invariance; slack tol={tol:g}"
    )
    if overflow:
        notes += "; a sampled value is not finite, so the grid overflows binary64"
    top = math.nan if overflow else float(vals[i])
    return VerificationReport(passed, top, complex(zs[i]), (float(vals[-1]),), notes)


def verify_node_jets(F):
    """Check that h'', h''', h'''' vanish at the node z = 1.

    residual = max(|h''|, |h'''|, |h''''|) / max(1, |h'|), computed from
    the exact rational jet of h at z = 1 (there u = 0 and
    u^(k) = n!/(n-k)!, so p = 0 and e^p = 1); passed means it is exactly
    0.  h depends on z only through z^n, so at the node
    w = e^{2 pi i l/n} its m-th derivative is the one at 1 times w^-m:
    the residual at z = 1 is the residual at every node.
    """
    res = F.node_residual
    r = float(res)
    notes = (
        f"exact rational jet at the node 1, which stands for all {F.n} nodes "
        f"by rotation invariance; passes only at residual exactly 0"
    )
    return VerificationReport(res == 0, r, 1 + 0j, (r,), notes)


def marty_probe(Fs, center, radius, samples=2048, seed=DEFAULT_SEED):
    """Max spherical derivative near one boundary point, per function.

    The grid is seeded-uniform in the disk around `center` plus the
    center itself, measured by exp of their largest float log of f^#;
    radius 0 degenerates to the single point {center}.  The node nearest
    the center, e^{2 pi i k/n} with k = round(n t / 2 pi), t = arg(center),
    joins the grid when it lies in the closed disk, that is when its chord
    2 |sin(t/2 - pi k/n)| is at most the radius: there f = 0 and f^# = n*a
    exactly by rotation invariance, taken as an mpmath product, because a
    float log of it misses by more than 1e-6 relative from n = 14 on
    (5e-5 there).  Measurements are arbitrary-precision reals (they
    outgrow binary64 quickly).  Verdict is "blowup" when every measurement
    clears the node value n*a (within relative 1e-6) and the sequence
    increases; a disk without a node clears it only by a sample next to
    one.
    """
    c = complex(center)
    if abs(abs(c) - 1.0) > 1e-6:
        raise CenterOffCircle(f"|{c}| = {abs(c):.8f} is not 1 within 1e-6")
    if not 0 <= radius < math.inf:  # NaN fails too
        raise ValueError("radius must be finite and >= 0")
    rng = np.random.default_rng(seed)
    arg = cmath.phase(c)
    ns, meas, floored = [], [], []
    for F in Fs:
        zs = np.array([c])
        if radius > 0:
            zs = np.concatenate([_disk_points(rng, samples, radius, c), zs])
        logs = kernels.sphder_log(F.n, F.p_float, F.log_a, zs)
        top = float(np.max(logs))
        k = round(F.n * arg / (2.0 * math.pi))
        gap = 2.0 * abs(math.sin(arg / 2.0 - math.pi * k / F.n))
        with mpmath.workprec(F.precision):
            m = mpmath.exp(mpmath.mpf(top)) if top > MINUS_INFINITY else mpmath.mpf(0)
            node = F.n * F.a
            if gap <= radius:
                m = max(m, node)
            floored.append(m >= node * (1 - mpmath.mpf("1e-6")))
        ns.append(F.n)
        meas.append(m)
    rising = all(b > a for a, b in zip(meas, meas[1:]))
    verdict = "blowup" if (all(floored) and rising) else "inconclusive"
    return ProbeResult(tuple(ns), tuple(meas), verdict)


def lemma2_probe(Fs, points, orders):
    """Measure |f^(l)| / |f|^(l+1) at fixed points, per function.

    Points must keep distance 0.1 from the unit circle and stay inside
    radius 1.9, where the family is zero-free and the quotient is
    meaningful.  Measurements are laid out row-major over (function,
    point, order) and kept in arbitrary precision; for order 2 each one
    must fall below 1/n, for order 1 the per-point series must end
    below its start and below 0.1 for the verdict to be "decay".
    """
    orders = tuple(orders)
    if not orders or any(l not in (1, 2) for l in orders):
        raise ValueError("orders must be a nonempty subset of {1, 2}")
    pts = [complex(z) for z in points]
    if not pts:
        raise ValueError("need at least one point")
    for z in pts:
        if abs(abs(z) - 1.0) < 0.1:
            raise PointTooCloseToCircle(f"{z} is within 0.1 of the unit circle")
        if abs(z) > 1.9:
            raise PointTooCloseToCircle(f"{z} is within 0.1 of the circle |z| = 2")
    ns, meas = [], []
    bound_ok = True
    series = {(z, l): [] for z in pts for l in orders}
    for F in Fs:
        with mpmath.workprec(F.precision):
            for z in pts:
                hj = h_jet(F.n, F.p, mpmath.mpc(z), max(orders))
                for l in orders:
                    m = abs(hj[l]) / (abs(hj[0]) ** (l + 1) * F.a**l)
                    ns.append(F.n)
                    meas.append(m)
                    series[(z, l)].append(m)
                    if l == 2 and not m <= mpmath.mpf(1) / F.n:
                        bound_ok = False
    trend_ok = all(
        s[-1] <= s[0] and s[-1] <= mpmath.mpf("0.1")
        for (z, l), s in series.items()
        if l == 1
    )
    verdict = "decay" if (bound_ok and trend_ok) else "inconclusive"
    return ProbeResult(tuple(ns), tuple(meas), verdict)


def max_modulus_check(F, resolution=512):
    """Interior max of |h''/h^3| must not beat the |z| = 2 boundary max.

    h''/h^3 can only have poles at the nodes, and it has one at every
    node exactly when the node residual of verify_node_jets is nonzero:
    then the check fails at once with worst_point 1 and an infinite
    max_inequality.  Otherwise the quotient is entire and attains its
    maximum modulus on the boundary circle, so an interior value of a
    polar grid (off the node neighborhoods) above the boundary grid max
    (beyond relative 1e-6) flags an evaluation fault.  Both grids keep
    the resolution // (2 gcd(n, resolution)) + 1 of their equispaced
    angles that lie in [0, pi/n] (distinct_angles; rotation and reflection
    carry them onto the rest).  Comparison happens on the log scale.
    max_inequality reports the clamped quotient interior / (boundary * (1 + 1e-6)).
    A log maximum of +inf or NaN means the grid overflows binary64 and
    measures nothing: the check then fails with max_inequality NaN.
    """
    if resolution < 64:
        raise ValueError("resolution must be >= 64")
    res = F.node_residual
    if res != 0:
        notes = (
            f"node residual {float(res):.6g} is not 0, so h''/h^3 has a pole "
            f"at each of the {F.n} nodes"
        )
        return VerificationReport(False, math.inf, 1 + 0j, (), notes)
    nr = max(8, resolution // 8)
    radii = np.linspace(0.05, 1.98, nr)
    th = distinct_angles(F.n, resolution)
    inner = (radii[:, None] * np.exp(1j * th)[None, :]).ravel()
    with np.errstate(over="ignore"):
        inner = inner[np.abs(inner**F.n - 1.0) > EPS_NODE]  # stay off the zeros
    log_in = kernels.ratio_log(F.n, F.p_float, inner)
    log_bd = kernels.ratio_log(F.n, F.p_float, 2.0 * np.exp(1j * th))
    i = int(np.argmax(log_in))
    li, worst = float(log_in[i]), complex(inner[i])
    lb = float(np.max(log_bd))
    slack = math.log1p(1e-6)
    overflow = not (li < math.inf and lb < math.inf)  # +inf or NaN
    if overflow:
        passed, ratio = False, math.nan
    elif li == MINUS_INFINITY and lb == MINUS_INFINITY:
        passed, ratio, worst = True, 0.0, 0j
    elif lb == MINUS_INFINITY:
        passed, ratio = False, math.inf
    else:
        passed = li <= lb + slack
        ratio = math.exp(min(li - lb - slack, 700.0))
    notes = (
        f"node residual exactly 0; {th.size} of {resolution} angles, standing "
        f"for all by rotation and reflection: interior {inner.size} polar points "
        f"(radii <= 1.98, node neighborhoods of radius {EPS_NODE:g} excluded), "
        f"boundary {th.size} points on |z|=2; "
        f"log maxima {li:.6g} vs {lb:.6g}, relative slack 1e-6"
    )
    if overflow:
        notes += "; a log maximum is not finite, so the grid overflows binary64"
    return VerificationReport(passed, ratio, worst, (), notes)
