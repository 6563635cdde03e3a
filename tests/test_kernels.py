"""Grid kernels agree with the mpmath scalar jets and with an exact
mpmath oracle across all magnitude branches."""

import functools
import math

import mpmath
import numpy as np
import pytest
import sympy
from conftest import root_of_unity

from normfam import kernels
from normfam.forge import EPS_NODE, construct, h_jet


def grid_points(rng, count, radius=2.0):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            pts.append(z)
    return np.array(pts, dtype=np.complex128)


def off_node_points(rng, n, count):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) <= 2 and abs(z**n - 1) > EPS_NODE:
            pts.append(z)
    return np.array(pts, dtype=np.complex128)


@functools.lru_cache(maxsize=None)
def exact_jets(n, p, module="mpmath"):
    """(p, p', p'') of the record's cubic as functions of z, from sympy's
    expansion in powers of z: independent of the kernels' chain rule."""
    z = sympy.symbols("z")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * (z**n - 1) ** k
        for k, c in enumerate(p, 1)
    )
    return [
        sympy.lambdify(z, sympy.expand(sympy.diff(expr, z, j)), module)
        for j in range(3)
    ]


def mp_oracle(F, z, kind):
    """Direct quotient in 120-bit mpmath: no branches, no log tricks."""
    with mpmath.workprec(120):
        zz = mpmath.mpc(z)
        p0, p1, p2 = (mpmath.mpc(f(zz)) for f in exact_jets(F.n, F.p))
        n = F.n
        g0 = zz**n - 1
        g1 = n * zz ** (n - 1)
        g2 = n * (n - 1) * zz ** (n - 2) if n >= 2 else mpmath.mpc(0)
        a = +F.a
        ep = mpmath.exp(p0)
        fval = a * g0 * ep
        if kind == "fk":
            f2 = a * (g2 + 2 * g1 * p1 + g0 * (p2 + p1 * p1)) * ep
            return abs(f2) / (1 + abs(fval) ** 3)
        f1 = a * (g1 + g0 * p1) * ep
        return abs(f1) / (1 + abs(fval) ** 2)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(99)


def test_ratio_log_matches_scalar_path(family, rng):
    # the scalar path is log|h''| - 3 log|h| on h_jet's exp-form jet at
    # 160 bits, with the exact c_k: no e^p-free log form, no binary64
    for n, F in family.items():
        zs = off_node_points(rng, n, 50)
        grid = kernels.ratio_log(n, F.p_float, zs)
        hlog = kernels.h_log(n, F.p_float, zs)
        for z, got, lh in zip(zs, grid, hlog):
            with mpmath.workprec(160):
                hj = h_jet(n, F.p, mpmath.mpc(z), 2)
                want = float(mpmath.log(abs(hj[2])) - 3 * mpmath.log(abs(hj[0])))
            if want == float("-inf"):
                assert got == float("-inf")
            else:
                # the kernel's rounding is amplified both by the largest
                # log in the difference (|log h| reaches ~5e4 at n=6) and
                # by cancellation inside the second-derivative combination
                scale = max(1.0, abs(want), 3.0 * abs(lh))
                assert abs(got - want) <= 1e-10 * scale


def test_fk_matches_mpmath_oracle(family, rng):
    # exercises all three branches: tiny |f| near nodes, huge |f| near the
    # rim for large n, moderate |f| in between; at distance 1e-4 from a
    # node the numerator sits next to its own triple zero and double
    # precision keeps only ~6 digits of it (the value itself is ~1e-8,
    # so the slack is irrelevant for any inequality check)
    for n, F in family.items():
        generic = grid_points(rng, 40)
        near = np.array([root_of_unity(n, ell) + 1e-4 for ell in range(n)])
        rim = 1.95 * np.exp(1j * np.linspace(0.1, 6.2, 10))
        zs = np.concatenate([generic, near, rim])
        got = kernels.fk(n, F.p_float, F.log_a, zs)
        rel = np.full(len(zs), 1e-8)
        rel[len(generic) : len(generic) + len(near)] = 1e-2
        for z, g, tol in zip(zs, got, rel):
            want = float(mp_oracle(F, z, "fk"))
            assert abs(g - want) <= tol * max(want, 1e-280)


def test_sphder_log_matches_mpmath_oracle(family, rng):
    for n, F in family.items():
        zs = np.concatenate(
            [grid_points(rng, 40), 1.95 * np.exp(1j * np.linspace(0.1, 6.2, 10))]
        )
        got = kernels.sphder_log(n, F.p_float, F.log_a, zs)
        for z, g in zip(zs, got):
            with mpmath.workprec(120):
                want = float(mpmath.log(mp_oracle(F, z, "sph")))
            assert abs(g - want) <= 1e-8 * max(1.0, abs(want))


def test_h_log_matches_plain_evaluation(family, rng):
    for n, F in family.items():
        if n > 3:
            continue  # direct |h| overflows beyond small orders
        zs = grid_points(rng, 50)
        got = kernels.h_log(n, F.p_float, zs)
        p0 = exact_jets(n, F.p, "numpy")[0](zs)
        direct = np.log(np.abs((zs**n - 1) * np.exp(p0)))
        assert np.allclose(got, direct, rtol=1e-10, atol=1e-12)


def test_short_jets_match_order_two_path(exponents, rng):
    # h_log needs only p and sphder_log only p and p'; their shorter jets
    # must round exactly as the full order-2 jet does, so the expected
    # values below are the kernels' formulas on that jet. numpy reuses
    # temporaries only in arrays above 256 KiB, so the sample is large
    # enough for a differently written expression to round differently
    log_a = 30.0
    count = 1 << 15
    zs = 2.0 * np.sqrt(rng.uniform(size=count)) * np.exp(
        2j * math.pi * rng.uniform(size=count)
    )
    for n, p in exponents.items():
        c = tuple(float(x) for x in p)
        (g0, g1, _), (p0, p1, _) = kernels._jets(n, c, zs, 2)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h_want = np.log(np.abs(g0)) + p0.real
            b1 = g1 + g0 * p1
            log_num = log_a + np.log(np.abs(b1)) + p0.real
            t = 2.0 * (log_a + np.log(np.abs(g0)) + p0.real)
            corr = np.where(
                t > kernels._BRANCH_CUT,
                t,
                np.where(t < -kernels._BRANCH_CUT, 0.0, np.log1p(np.exp(t))),
            )
            sph_want = log_num - corr
        assert np.array_equal(kernels.h_log(n, c, zs), h_want)
        assert np.array_equal(kernels.sphder_log(n, c, log_a, zs), sph_want)


def test_kernels_independent_of_array_size(exponents, rng):
    # a point's value must not depend on the array it is evaluated in:
    # above 256 KiB numpy computes x * (temporary) in the temporary's
    # buffer with the operands swapped, and complex products do not round
    # commutatively. 2^15 points (512 KiB) against short slices at odd
    # offsets, which also take the SIMD loops' remainder paths
    log_a = 30.0
    count = 1 << 15
    zs = 2.0 * np.sqrt(rng.uniform(size=count)) * np.exp(
        2j * math.pi * rng.uniform(size=count)
    )
    kinds = {
        "ratio_log": lambda n, c, z: kernels.ratio_log(n, c, z),
        "h_log": lambda n, c, z: kernels.h_log(n, c, z),
        "fk": lambda n, c, z: kernels.fk(n, c, log_a, z),
        "sphder_log": lambda n, c, z: kernels.sphder_log(n, c, log_a, z),
        "p_jet": lambda n, c, z: np.stack(
            kernels.p_from_u(c, kernels.u_jet(n, z, 4))
        ),
    }
    for n, p in exponents.items():
        c = tuple(float(x) for x in p)
        for name, kernel in kinds.items():
            whole = kernel(n, c, zs)
            for start, size in ((0, 1), (5, 7), (1001, 100), (3, 5000)):
                part = kernel(n, c, zs[start : start + size].copy())
                want = whole[..., start : start + size]
                assert np.array_equal(part, want, equal_nan=True), (n, name)


def test_kernels_dihedral_symmetry(rng):
    # f depends on z only through z^n and has a real a and real c_k, so
    # every kernel takes the same value at z, conj z and e^{2 pi i/n} z:
    # the symmetry that lets the scans sample only the angles of [0, pi/n]
    for n in range(1, 13):
        F = construct(n)
        c = F.p_float
        kinds = {
            "ratio_log": lambda z: kernels.ratio_log(n, c, z),
            "h_log": lambda z: kernels.h_log(n, c, z),
            "fk": lambda z: kernels.fk(n, c, F.log_a, z),
            "sphder_log": lambda z: kernels.sphder_log(n, c, F.log_a, z),
        }
        zs = off_node_points(rng, n, 200)
        for name, kernel in kinds.items():
            want = kernel(zs)
            fin = np.isfinite(want)  # ratio_log is -inf everywhere at n = 1
            scale = 1e-13 * np.maximum(np.maximum(1.0, np.abs(want)), F.log_a)
            for image in (np.conj(zs), np.exp(2j * math.pi / n) * zs):
                got = kernel(image)
                assert np.array_equal(got[~fin], want[~fin]), (n, name)
                assert np.all(np.abs(got[fin] - want[fin]) <= scale[fin]), (n, name)


def test_fk_zero_where_numerator_vanishes():
    # order 1: h'' is identically zero, fk must be exactly 0 everywhere
    zs = np.array([0.3 + 0.1j, 1 + 0j, 2j])
    assert np.all(kernels.fk(1, (0.0, 0.0, 0.0), math.log(4.0), zs) == 0.0)
