"""Numerical verification of the family's analytic properties.

Everything the construction promises is checked here: the
second-derivative inequality |f''| / (1 + |f|^3) <= 1 on the disk of
radius 2, the triple vanishing of h'' at the interpolation nodes, the
blow-up of the spherical derivative along the unit circle, the decay
of f^(l) / f^(l+1) away from that circle, and the certified max C*_n
of |h''/h^3| on |z| = 2 against the value it attains at its own peak.
The inequality is decided without sampling: once the exact node
residual is 0, h''/h^3 is entire, so by the maximum principle
the quotient is at most C*_n / a^2 on the closed disk, where C*_n is
forge.log_c_star's certified max of |h''/h^3| on |z| = 2, recomputed
from n; a record that fails this certificate is refuted, where it can
be, by a witness point.  The probes sample nothing either: they read
f^# = n*a at a node, and elsewhere f^# and the quotients of f'' and f'
take the closed forms of forge.h_parts, the one scalar evaluator of
every check.  Grids place points uniformly by area from uniform_draws,
a SplitMix64 stream computed from (seed, index), so a seed fixes them
on every machine.  f_n depends on z only through z^n, so every check
at the nodes runs at the node z = 1, which stands for all n of them.  There u = z^n - 1 = 0 and every
derivative of u is an integer, so the node conditions are decided
exactly, by the Leibniz rule in integers
(forge.CounterexampleFunction.node_residual).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .errors import CenterOffCircle, Overflow, PointTooCloseToCircle
from .forge import MINUS_INFINITY, h_parts, log_c_star

# fixed default so repeated runs produce identical reports; callers
# (and the CLI) may override
DEFAULT_SEED = 1729


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


def _by_area(seed, start, stride, count, radii):
    # `count` points uniform by area in the disk |z| < radii[0], or in the
    # annulus radii[0] <= |z| < radii[1]: the radius from draws start..,
    # the angle from draws start + stride..
    u = uniform_draws(seed, start, count)
    if len(radii) == 1:
        r = radii[0] * np.sqrt(u)
    else:
        r1, r2 = radii
        r = np.sqrt(r1 * r1 + u * (r2 * r2 - r1 * r1))
    return r * np.exp(2j * np.pi * uniform_draws(seed, start + stride, count))


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
    """Outcome of one verification check.

    passed means the op's own test holds, as its notes state: the
    certificate log C*_n - 2 log a <= 0 for verify_inequality, a node
    residual of exactly 0 for verify_node_jets, log C*_n at or above
    log|h''/h^3| at its own peak by at most 1e-14 of it for
    max_modulus_check.  log_margin is the log of the measured quantity
    over its limit (NaN where the op has none), and stays finite where
    max_inequality, its exp, leaves binary64; node_residuals holds the
    exact residual at the node z = 1 where the op depends on it, else
    nothing.
    """

    passed: bool
    max_inequality: float
    worst_point: complex
    node_residuals: tuple
    notes: str
    log_margin: float = math.nan


@dataclass(frozen=True)
class ProbeResult:
    """A sequence of measurements indexed by family order."""

    n_values: tuple
    measurements: tuple
    verdict: str

    def __post_init__(self):
        if len(self.n_values) != len(self.measurements):
            raise ValueError("need exactly one measurement per n entry")


def verify_inequality(F):
    """Decide |f''| / (1 + |f|^3) <= 1 on the closed disk |z| <= 2.

    Where f != 0 the quotient is below |f''| / |f|^3 = |h''/h^3| / a^2, and
    at a node f'' = 0 once the node residual is 0; then h''/h^3 is entire,
    so by the maximum principle the quotient is at most C*_n / a^2 on the
    disk, C*_n = forge.log_c_star(n), recomputed from n and never read from
    the stored c_hat.  The check passes when log C*_n - 2 log a <= 0,
    taken in mpmath at 3n + 64 bits, since both logs reach 3.5e305;
    log_margin is that difference, max_inequality its exp (1/(2n) for a
    record of construct), and worst_point the point of |z| = 2 where C*_n
    is attained, rounded into the closed 2-disk.  When the certificate
    fails, _witness looks for a point of |z| < 2 where the inequality
    itself fails; max_inequality is then the quotient there, the notes
    give the point in full, and worst_point is its binary64 rounding, kept
    inside |z| < 2.  Without a witness the notes say "not certified".  A
    nonzero node residual, or an order above forge.MAX_ORDER, certifies
    nothing: max_inequality NaN.
    """
    res = float(F.node_residual)
    if res != 0:
        notes = f"not certified: node residual {res:.6g} is not 0, so h''/h^3 has poles"
        return VerificationReport(False, math.nan, 1 + 0j, (res,), notes)
    try:
        log_c, x = log_c_star(F.n)
    except Overflow as exc:
        return VerificationReport(False, math.nan, 2 + 0j, (res,), f"not certified: {exc}")
    with mpmath.workprec(3 * F.n + 64):
        two_log_a = 2 * mpmath.log(F.a)
        margin = mpmath.mpf(log_c) - two_log_a
        passed = margin <= 0
    m = float(margin)
    notes = (
        f"log C*_n = {log_c:.17g} from the critical points on |z|=2, "
        f"2 log a = {float(two_log_a):.17g}, log margin {m:.6g}; "
        f"node residual 0, so the maximum principle carries |z|=2 inward"
    )
    peak = _into_disk(2 * cmath.exp(1j * math.acos(x) / F.n))
    if passed:
        return VerificationReport(True, math.exp(m), peak, (res,), "certified: " + notes, m)
    z, lq, where = _witness(F, x) or (peak, m, "no witness found")
    top = math.exp(lq) if lq < 709 else math.inf
    return VerificationReport(False, top, z, (res,), f"not certified: {notes}; {where}", m)


def _into_disk(z, strict=False):
    # z in binary64, moved inward while its exact squared modulus exceeds 4
    # (or equals it, if strict): rounding can put a point of |z| <= 2, such
    # as the peak 2 e^(i acos(x) / n) of C*_n, just outside it, where
    # |h''/h^3| may exceed c_n
    z = complex(z)
    while True:
        # x = p/q and y = r/s exactly, so x^2 + y^2 - 4 has the sign of d
        (p, q), (r, s) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        d = (p * s) ** 2 + (r * q) ** 2 - 4 * (q * s) ** 2
        if d < 0 or (d == 0 and not strict):
            return z
        z *= 1 - 2**-52


def _witness(F, x):
    # (z, log q, text) for a point z, |z| < 2, where
    # q = |f''| / (1 + |f|^3) > 1, or None. On the circle
    # |z| = 2 r, r = 1 - 2^-(3n+40), it bisects arg z from the peak of
    # C*_n (cos(arg z^n) = x, exact from forge.log_c_star), where |f| is
    # least, towards arg z^n = pi/3, where Re(c3 u^3) > 0 makes |f| large,
    # for |f| = 1, where q = |h''/h^3| / (2 a^2). Each step takes |h| and
    # |h''| from the closed forms of forge.h_parts at 3n + 64 bits, and the
    # first point where q > 1 is reported
    n, prec = F.n, 3 * F.n + 64

    def log_q(h, h2):
        return mpmath.log(F.a * h2) - mpmath.log1p((F.a * h) ** 3)

    with mpmath.workprec(prec):
        r = 2 * (1 - mpmath.ldexp(1, -(3 * n + 40)))
        near, far = mpmath.acos(x) / n, mpmath.pi / (3 * n)  # |f| < 1, > 1
        t = near
        for _ in range(prec):
            z = r * mpmath.expj(t)
            u2, re_p, _, s2 = h_parts(n, z)
            e = mpmath.exp(re_p)
            h, h2 = mpmath.sqrt(u2) * e, mpmath.sqrt(s2 * u2**3) * e
            lq = log_q(h, h2)
            if lq > 0:
                digits = int(prec * 0.30103) + 3
                where = (
                    f"witness z = {mpmath.nstr(z.real, digits)}"
                    f"{'+' if z.imag >= 0 else '-'}{mpmath.nstr(abs(z.imag), digits)}i "
                    f"(|z| < 2), where log(|f''|/(1+|f|^3)) = {float(lq):.6g} "
                    f"by h_parts at {prec} bits"
                )
                return _into_disk(z, strict=True), float(lq), where
            near, far = (t, far) if F.a * h < 1 else (near, t)
            t = (near + far) / 2
    return None


def verify_node_jets(F):
    """Check that h'', h''', h'''' vanish at the node z = 1.

    residual = max(|h''|, |h'''|, |h''''|) / max(1, |h'|), computed
    exactly at z = 1 by the Leibniz rule in integers (there u = 0 and
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


def marty_probe(Fs, center, radius):
    """Sup of the spherical derivative f^# on the closed disk of `radius`
    about `center`, per function, from exact values: nothing is sampled.

    The node nearest the center, e^{2 pi i k/n} with k = round(n t / 2 pi),
    t = arg(center), lies in the disk when its chord 2 |sin(t/2 - pi k/n)|
    is at most the radius.  Then the measurement is f^# at the node,
    |f'| = n*a at every node by rotation invariance, as an mpmath product
    at the record's precision.  It is the sup over the disk: with
    rho = 1/(n a), f'' = f''' = f'''' = 0 at the node gives
    f^#(1 + rho zeta) = n a (1 + O(rho^4)) / (1 + |zeta|^2 (1 + O(rho^4))),
    and elsewhere f^# <= |h'/h| / 2 by AM-GM on 1 + a^2 |h|^2.  A disk
    without a node measures f^# = a |h'| / (1 + a^2 |h|^2) at the center,
    a D e^(Re p) / (1 + a^2 |u|^2 e^(2 Re p)) from the closed forms of
    forge.h_parts (D = |h'| e^(-Re p)), at the record's precision.
    Measurements are arbitrary-precision reals (they outgrow binary64
    quickly), keep the order of Fs and do not depend on each other.
    Verdict is "blowup" when every disk holds a node and the measurements
    increase with n, whatever the order of Fs; else "inconclusive".
    """
    if not Fs:
        raise ValueError("need at least one function")
    c = complex(center)
    if abs(abs(c) - 1.0) > 1e-6:
        raise CenterOffCircle(f"|{c}| = {abs(c):.8f} is not 1 within 1e-6")
    if not 0 <= radius < math.inf:  # NaN fails too
        raise ValueError("radius must be finite and >= 0")
    arg = cmath.phase(c)
    ns, meas, at_node = [], [], []
    for F in Fs:
        k = round(F.n * arg / (2.0 * math.pi))
        at_node.append(2.0 * abs(math.sin(arg / 2.0 - math.pi * k / F.n)) <= radius)
        with mpmath.workprec(F.precision):
            if at_node[-1]:
                meas.append(F.n * F.a)
            else:
                u2, re_p, d2, _ = h_parts(F.n, c)
                e = mpmath.exp(re_p)
                meas.append(F.a * mpmath.sqrt(d2) * e / (1 + F.a**2 * u2 * e**2))
        ns.append(F.n)
    by_n = [m for _, m in sorted(zip(ns, meas), key=lambda t: t[0])]
    rising = all(b > a for a, b in zip(by_n, by_n[1:]))
    verdict = "blowup" if (all(at_node) and rising) else "inconclusive"
    return ProbeResult(tuple(ns), tuple(meas), verdict)


def lemma2_probe(Fs, points, orders):
    """Measure |f^(l)| / |f|^(l+1) at fixed points, per function.

    Points must keep distance 0.1 from the unit circle and stay inside
    radius 1.9, where the family is zero-free and the quotient is
    meaningful; a non-finite point is a ValueError.  Each quotient comes
    from the closed forms of forge.h_parts at the record's precision or at
    3n + 64 bits, whichever is more, since |Re p| < 2^(3n) there, before
    the one exp of the point:

        |f'| / |f|^2 = n |z|^(n-1) |1 + u d1| e^(-Re p) / (|u|^2 a),
        |f''| / |f|^3 = n |z|^(n-2) |S_n(u)| e^(-2 Re p) / a^2,

    so |u|^3 cancels exactly and is never formed.
    Measurements are laid out row-major over (function, point, order) and
    kept in arbitrary precision; for order 2 each one must fall below 1/n,
    for order 1 each per-point series, taken in increasing n whatever the
    order of Fs, must end below its start and below 0.1 for the verdict to
    be "decay".
    """
    if not Fs:
        raise ValueError("need at least one function")
    orders = tuple(orders)
    if not orders or any(l not in (1, 2) for l in orders):
        raise ValueError("orders must be a nonempty subset of {1, 2}")
    pts = [complex(z) for z in points]
    if not pts:
        raise ValueError("need at least one point")
    for z in pts:
        if not cmath.isfinite(z):
            raise ValueError(f"point {z} is not finite")
        if abs(abs(z) - 1.0) < 0.1:
            raise PointTooCloseToCircle(f"{z} is within 0.1 of the unit circle")
        if abs(z) > 1.9:
            raise PointTooCloseToCircle(f"{z} lies outside |z| <= 1.9")
    ns, meas = [], []
    bound_ok = True
    series = {z: [] for z in pts if 1 in orders}  # order 1, as (n, m) pairs
    for F in Fs:
        with mpmath.workprec(max(F.precision, 3 * F.n + 64)):
            a, bound = F.a, mpmath.mpf(1) / F.n
            for z in pts:
                u2, re_p, d2, s2 = h_parts(F.n, z)
                e = mpmath.exp(-re_p)
                for l in orders:
                    ns.append(F.n)
                    if l == 1:
                        meas.append(mpmath.sqrt(d2) / (u2 * a) * e)
                        series[z].append((F.n, meas[-1]))
                    else:
                        meas.append(mpmath.sqrt(s2) / (a * a) * (e * e))
                        bound_ok = bound_ok and meas[-1] <= bound
    by_n = [[m for _, m in sorted(s, key=lambda t: t[0])] for s in series.values()]
    trend_ok = all(s[-1] <= s[0] and s[-1] <= mpmath.mpf("0.1") for s in by_n)
    verdict = "decay" if (bound_ok and trend_ok) else "inconclusive"
    return ProbeResult(tuple(ns), tuple(meas), verdict)


@functools.cache
def _log_ratio_at(n, x):
    # log|h''/h^3| = log(n |z|^(n-2) |S_n(u)|) - 2 Re p at
    # z = 2 e^(i acos(x) / n), where forge.log_c_star(n) attains C*_n, from
    # the closed forms of forge.h_parts at 3n + 64 bits, with no exp;
    # memoized, like log_c_star
    with mpmath.workprec(3 * n + 64):
        _, re_p, _, s2 = h_parts(n, 2 * mpmath.expj(mpmath.acos(x) / n))
        return mpmath.log(s2) / 2 - 2 * re_p


def max_modulus_check(F):
    """C*_n = forge.log_c_star(n), the certified max of |h''/h^3| on
    |z| = 2, against the value it attains at its own peak.

    h''/h^3 has a pole at every node exactly when the node residual of
    verify_node_jets is nonzero: the check then fails at once with
    worst_point 1 and max_inequality inf.  Otherwise it is entire, so its
    modulus on |z| <= 2 peaks on |z| = 2 (maximum principle).  At the peak
    z* = 2 e^(i acos(x*) / n) of log_c_star, g = log|h''| - 3 log|h| is
    taken as log(n |z|^(n-2) |S_n(u)|) - 2 Re p from the closed forms of
    forge.h_parts at 3n + 64 bits, apart from C*_n's cubics in
    x = cos(arg z^n), root brackets and interval evaluation.  The check
    passes when g <= log C*_n <= g + 1e-14 |g| in
    mpmath (the gap is at most 1.4e-16 of g for n = 2..339), or at n = 1,
    where both are -inf.  log_margin is g - log C*_n (0 at n = 1),
    max_inequality its exp (0.0 at n = 1 or on underflow), worst_point z*
    rounded into the closed 2-disk.  An order above forge.MAX_ORDER fails
    with max_inequality NaN.
    """
    res = F.node_residual
    if res != 0:
        notes = (
            f"node residual {float(res):.6g} is not 0, so h''/h^3 has a pole "
            f"at each of the {F.n} nodes"
        )
        return VerificationReport(False, math.inf, 1 + 0j, (), notes)
    try:
        lm, x = log_c_star(F.n)
    except Overflow as exc:
        return VerificationReport(False, math.nan, 2 + 0j, (), str(exc))
    prec = 3 * F.n + 64
    g = _log_ratio_at(F.n, x)
    with mpmath.workprec(prec):
        passed = lm == g or g <= lm <= g + 1e-14 * abs(g)
        margin, gap = (0.0, 0.0) if lm == g else (float(g - lm), float((lm - g) / abs(g)))
    ratio = 0.0 if g == MINUS_INFINITY else math.exp(min(margin, 700.0))
    notes = (
        f"node residual exactly 0, so the maximum principle carries |z|=2 inward; "
        f"log C*_n = {lm:.17g} at the critical points on |z|=2, "
        f"log|h''/h^3| = {float(g):.17g} there "
        f"by the closed forms of h_parts at {prec} bits, "
        f"relative gap {gap:.3g} (passes in [0, 1e-14])"
    )
    peak = _into_disk(2 * cmath.exp(1j * math.acos(x) / F.n))
    return VerificationReport(passed, ratio, peak, (), notes, margin)
