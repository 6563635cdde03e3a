"""Numerical verification of the family's analytic properties.

Everything the construction promises is checked here: the
second-derivative inequality |f''| / (1 + |f|^3) <= 1 on the disk of
radius 2, the triple vanishing of h'' at the interpolation nodes, the
blow-up of the spherical derivative along the unit circle, the decay
of f^(l) / f^(l+1) away from that circle, and the closed-form bound C_n
on |h''/h^3|, sampled on |z| = 2 and carried inward by the maximum
principle once the exact node residual is 0.  Sampled points are
placed uniformly by area from uniform_draws, a SplitMix64 stream
computed from (seed, index), so a seed fixes them on every machine.
Grid sweeps run through the log-space kernels, so magnitudes far beyond
the double range are compared by exponent rather than by value.  f_n depends on z
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
from .forge import MINUS_INFINITY, distinct_angles, h_jet, log_c_bound

# fixed default so repeated runs produce identical reports; callers
# (and the CLI) may override
DEFAULT_SEED = 1729

_NEAR_NODE_COUNT = 1000
_NEAR_NODE_RADIUS = 1e-2


# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the golden gamma that
# advances the state and the multipliers of its finalizer
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def check_seed(seed):
    """seed as an int; ValueError unless it is an integer in [0, 2^64)."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
        raise ValueError(f"--seed must be an integer in 0..2^64-1, not {seed!r}")
    return int(seed)


def uniform_draws(seed, start, count):
    """Draws start .. start+count-1 of the seed's SplitMix64 stream, as
    floats in [0, 1) with 53 random bits.

    Draw i is the finalizer of the state seed + (i+1) gamma mod 2^64, the
    (i+1)-th output of a SplitMix64 generator seeded with `seed`, so any
    stretch of the stream is computed directly from its indices and no
    generator state is advanced.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GAMMA  # uint64 arrays wrap mod 2^64 without a warning
    z += np.uint64(check_seed(seed))
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z * 2.0**-53


def _by_area(seed, start, stride, count, radii, center=0j):
    # `count` points uniform by area in the disk |z - center| < radii[0],
    # or in the annulus radii[0] <= |z - center| < radii[1]: the radius from
    # draws start.., the angle from draws start + stride..
    u = uniform_draws(seed, start, count)
    if len(radii) == 1:
        r = radii[0] * np.sqrt(u)
    else:
        r1, r2 = radii
        r = np.sqrt(r1 * r1 + u * (r2 * r2 - r1 * r1))
    return center + r * np.exp(2j * np.pi * uniform_draws(seed, start + stride, count))


@dataclass(frozen=True)
class GridSpec:
    """Where to sample.

    disk(r) and annulus(r1, r2) place `resolution` points uniformly by
    area, from the draws of uniform_draws(seed, ...): point i takes its
    radius from draw i and its angle from draw resolution + i.  circle(r)
    is equispaced in angle and ignores the seed.
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
        check_seed(self.seed)

    def points(self):
        """Complex sample points as one flat array: the single chunk of
        all of them."""
        return next(self.chunks(self.resolution))

    def chunks(self, size):
        """The points as consecutive arrays of at most `size` points. A
        point depends only on its index, so the chunks concatenate to
        points() bit for bit whatever the size."""
        if size < 1:
            raise ValueError("chunk size must be >= 1")
        N = self.resolution
        for i in range(0, N, size):
            m = min(size, N - i)
            if self.region == "circle":
                yield self.radii[0] * np.exp(2j * np.pi * np.arange(i, i + m) / N)
            else:
                yield _by_area(self.seed, i, N, m, self.radii)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification sweep.

    passed means the op's own test holds, as its notes state:
    max_inequality within the op's slack of 1 for verify_inequality,
    a node residual of exactly 0 for verify_node_jets, the sampled max on
    |z| = 2 within the bound C_n for max_modulus_check.  node_residuals holds
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


def verify_inequality(F, samples=10000, tol=1e-12, seed=DEFAULT_SEED):
    """Sweep |f''| / (1 + |f|^3) over the disk of radius 2.

    The grid is `samples` points uniform by area, from draws
    0 .. 2 samples - 1 of uniform_draws(seed, ...), plus a dense cluster
    within 1e-2 of the node z = 1, from the next 2000 draws, plus that
    node itself, which stand for all n nodes by rotation invariance;
    the node cluster is where numerator and denominator both nearly
    vanish, the regime most likely to expose a bad construction.  The kernel works on logs, takes |f''| in
    the factored form a n |z|^(n-2) |u|^3 |S_n(u)| e^(Re p), so the triple
    zero of h'' at a node is exact, and takes log(1 + |f|^3) as a
    logaddexp, so |f| itself never overflows.  worst_point is the argmax
    of those logs, which stay finite where every value underflows to 0.0.
    passed means the overall max is <= 1 + tol.  A value of +inf or NaN
    means a term overflows binary64 (S_n(u) near |z| = 2 from n = 340 on,
    z^n at n = 10^6) and the sweep measures nothing: it then fails with
    max_inequality NaN at the first such point.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 <= tol < math.inf:  # NaN fails too
        raise ValueError("tol must be finite and >= 0")
    zs = np.concatenate(
        [
            _by_area(seed, 0, samples, samples, (2.0,)),
            _by_area(seed, 2 * samples, _NEAR_NODE_COUNT, _NEAR_NODE_COUNT,
                     (_NEAR_NODE_RADIUS,), 1.0),
            np.ones(1, dtype=complex),
        ]
    )
    logs = kernels.fk_log(F.n, F.p_float, F.s_float, F.log_a, zs)
    with np.errstate(over="ignore"):
        vals = np.exp(logs)
    bounded = vals < math.inf  # False at +inf and NaN
    overflow = not bounded.all()
    i = int(np.argmin(bounded)) if overflow else int(np.argmax(logs))
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

    The grid is `samples` points uniform by area in the disk around
    `center`, from draws 0 .. 2 samples - 1 of uniform_draws(seed, ...),
    plus the center itself, drawn once and shared by every function, so
    that no measurement depends on the other functions; each is exp of the
    largest float log of f^# on the grid.  Radius 0 degenerates to the
    single point {center}.  The node nearest the center, e^{2 pi i k/n}
    with k = round(n t / 2 pi), t = arg(center), joins the grid when it
    lies in the closed disk, that is when its chord
    2 |sin(t/2 - pi k/n)| is at most the radius: there f = 0 and f^# = n*a
    exactly by rotation invariance, taken as an mpmath product, because a
    float log of it misses by more than 1e-6 relative from n = 14 on
    (5e-5 there).  Measurements are arbitrary-precision reals (they
    outgrow binary64 quickly) and keep the order of Fs.  Verdict is
    "blowup" when every measurement clears the node value n*a (within
    relative 1e-6) and they increase with n, whatever the order of Fs; a
    disk without a node clears it only by a sample next to one.
    """
    c = complex(center)
    if abs(abs(c) - 1.0) > 1e-6:
        raise CenterOffCircle(f"|{c}| = {abs(c):.8f} is not 1 within 1e-6")
    if not 0 <= radius < math.inf:  # NaN fails too
        raise ValueError("radius must be finite and >= 0")
    zs = np.append(_by_area(seed, 0, samples, samples, (radius,), c), c)
    arg = cmath.phase(c)
    ns, meas, floored = [], [], []
    for F in Fs:
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
    by_n = [m for _, m in sorted(zip(ns, meas), key=lambda t: t[0])]
    rising = all(b > a for a, b in zip(by_n, by_n[1:]))
    verdict = "blowup" if (all(floored) and rising) else "inconclusive"
    return ProbeResult(tuple(ns), tuple(meas), verdict)


def lemma2_probe(Fs, points, orders):
    """Measure |f^(l)| / |f|^(l+1) at fixed points, per function.

    Points must keep distance 0.1 from the unit circle and stay inside
    radius 1.9, where the family is zero-free and the quotient is
    meaningful.  Measurements are laid out row-major over (function,
    point, order) and kept in arbitrary precision; for order 2 each one
    must fall below 1/n, for order 1 each per-point series, taken in
    increasing n whatever the order of Fs, must end below its start and
    below 0.1 for the verdict to be "decay".
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
            raise PointTooCloseToCircle(f"{z} lies outside |z| <= 1.9")
    ns, meas = [], []
    bound_ok = True
    series = {z: [] for z in pts if 1 in orders}  # order 1, as (n, m) pairs
    for F in Fs:
        with mpmath.workprec(F.precision):
            for z in pts:
                hj = h_jet(F.n, F.p, mpmath.mpc(z), max(orders))
                for l in orders:
                    m = abs(hj[l]) / (abs(hj[0]) ** (l + 1) * F.a**l)
                    ns.append(F.n)
                    meas.append(m)
                    if l == 1:
                        series[z].append((F.n, m))
                    elif not m <= mpmath.mpf(1) / F.n:
                        bound_ok = False
    by_n = [[m for _, m in sorted(s, key=lambda t: t[0])] for s in series.values()]
    trend_ok = all(s[-1] <= s[0] and s[-1] <= mpmath.mpf("0.1") for s in by_n)
    verdict = "decay" if (bound_ok and trend_ok) else "inconclusive"
    return ProbeResult(tuple(ns), tuple(meas), verdict)


def max_modulus_check(F, resolution=512):
    """Sampled max of |h''/h^3| on |z| = 2 against forge.log_c_bound(n).

    h''/h^3 has a pole at every node exactly when the node residual of
    verify_node_jets is nonzero: the check then fails at once with
    worst_point 1 and max_inequality inf.  Otherwise it is the entire
    n z^(n-2) S_n(u) e^(-2p), whose modulus on |z| <= 2 peaks on |z| = 2
    (maximum principle).  One kernels.ratio_log call samples that circle
    at resolution // 2 + 1 distinct_angles, which stand for its
    resolution * n equispaced angles, the resolution angles of w = z^n, and
    the check passes when the log max is at most log C_n.  max_inequality
    is the clamped quotient (sampled max) / C_n, worst_point the argmax.
    A log of +inf or NaN means the grid overflows binary64: the check
    then fails with max_inequality NaN.
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
    zs = 2.0 * np.exp(1j * distinct_angles(F.n, resolution))
    logs = kernels.ratio_log(F.n, F.p_float, F.s_float, zs)
    i = int(np.argmax(logs))
    lm, bound = float(logs[i]), log_c_bound(F.n)
    gap = 0.0 if lm == bound else bound - lm  # 0 at n = 1, where both are -inf
    overflow = not (lm < math.inf and bound < math.inf)  # +inf or NaN
    passed = not overflow and gap >= 0
    ratio = 0.0 if lm == MINUS_INFINITY else math.exp(min(-gap, 700.0))
    notes = (
        f"node residual exactly 0, so the maximum principle carries |z|=2 inward; "
        f"{zs.size} of {resolution} angles on |z|=2, standing for all by rotation and "
        f"reflection: log max {lm:.17g}, log C_n = {bound:.17g}, gap {gap:.6g}"
    )
    if overflow:
        ratio = math.nan
        notes += "; a log maximum is not finite, so the grid overflows binary64"
    return VerificationReport(passed, ratio, complex(zs[i]), (), notes)
