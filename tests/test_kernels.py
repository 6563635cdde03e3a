"""Grid kernels agree with the mpmath scalar jets and with an exact
mpmath oracle across every magnitude of f."""

import functools
import math
import types

import mpmath
import numpy as np
import pytest
import sympy
from conftest import root_of_unity

from normfam import kernels
from normfam.forge import build_p, construct, h_jet, h_parts


def grid_points(rng, count, radius=2.0):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            pts.append(z)
    return np.array(pts, dtype=np.complex128)


@functools.lru_cache(maxsize=None)
def exact_jets(n, p, module="mpmath"):
    """(p, p', p'') of the record's cubic as functions of z, from sympy's
    expansion in powers of z: independent of forge's chain rule."""
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
        zs = grid_points(rng, 50)
        grid = kernels.ratio_log(n, zs)
        for z, got in zip(zs, grid):
            with mpmath.workprec(160):
                hj = h_jet(n, F.p, mpmath.mpc(z), 2)
                lh = float(mpmath.log(abs(hj[0])))
                want = float(mpmath.log(abs(hj[2])) - 3 * mpmath.log(abs(hj[0])))
            if want == float("-inf"):
                assert got == float("-inf")
            else:
                # the kernel's rounding is amplified by the largest log in
                # the difference (|log h| reaches ~5e4 at n=6)
                scale = max(1.0, abs(want), 3.0 * abs(lh))
                assert abs(got - want) <= 1e-10 * scale


def test_fk_matches_mpmath_oracle(family, rng):
    # exercises every magnitude of f: tiny |f| near nodes, huge |f| near
    # the rim for large n, moderate |f| in between; at distance 1e-4 from a
    # node the numerator sits next to its own triple zero, which the
    # factored kernel carries exactly, so one tolerance serves every point
    for n, F in family.items():
        generic = grid_points(rng, 40)
        near = np.array([root_of_unity(n, ell) + 1e-4 for ell in range(n)])
        rim = 1.95 * np.exp(1j * np.linspace(0.1, 6.2, 10))
        zs = np.concatenate([generic, near, rim])
        got = kernels.fk(n, F.log_a, zs)
        for z, g in zip(zs, got):
            want = float(mp_oracle(F, z, "fk"))
            assert abs(g - want) <= 1e-8 * max(want, 1e-280)


def test_sphder_log_matches_mpmath_oracle(family, rng):
    for n, F in family.items():
        zs = np.concatenate(
            [grid_points(rng, 40), 1.95 * np.exp(1j * np.linspace(0.1, 6.2, 10))]
        )
        got = kernels.sphder_log(n, F.log_a, zs)
        for z, g in zip(zs, got):
            with mpmath.workprec(120):
                want = float(mpmath.log(mp_oracle(F, z, "sph")))
            assert abs(g - want) <= 1e-8 * max(1.0, abs(want))


@pytest.mark.parametrize("t", [-700.0, -36.0, -35.0, -34.0, 34.0, 35.0, 36.0, 700.0])
def test_fk_and_sphder_across_the_log1p_range(exponents, t):
    # fk and sphder_log divide by 1 + |f|^k = 1 + e^t; log_a is chosen so
    # that t takes each value, next to |t| = 35, where 1 + e^t rounds to 1
    # or to e^t, and at the ends of the binary64 exponent range
    zs = np.array([0.5 + 0.3j, 1.3 * np.exp(0.4j), -0.6 + 0.2j, 0.1j])
    for n in (2, 3, 6):
        for z in zs:
            with mpmath.workprec(120):
                u2, re_p, _, _ = h_parts(n, z)
                log_h = float(mpmath.log(u2) / 2 + re_p)
            for kind, k in (("fk", 3), ("sph", 2)):
                log_a = t / k - log_h
                rec = types.SimpleNamespace(n=n, p=exponents[n], a=mpmath.exp(log_a))
                with mpmath.workprec(120):
                    want = mp_oracle(rec, z, kind)
                    log_want = float(mpmath.log(want))
                if kind == "fk":
                    got = kernels.fk(n, log_a, np.array([z]))[0]
                    assert abs(got / float(want) - 1.0) <= 1e-12, (n, z)
                else:
                    got = kernels.sphder_log(n, log_a, np.array([z]))[0]
                    assert abs(got - log_want) <= 1e-14 * max(1.0, abs(log_want)), (n, z)


def test_kernels_independent_of_array_size(rng):
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
        "ratio_log": lambda n, z: kernels.ratio_log(n, z),
        "fk": lambda n, z: kernels.fk(n, log_a, z),
        "sphder_log": lambda n, z: kernels.sphder_log(n, log_a, z),
    }
    for n in range(1, 13):
        for name, kernel in kinds.items():
            whole = kernel(n, zs)
            for start, size in ((0, 1), (5, 7), (1001, 100), (3, 5000)):
                part = kernel(n, zs[start : start + size].copy())
                want = whole[..., start : start + size]
                assert np.array_equal(part, want, equal_nan=True), (n, name)


@pytest.mark.parametrize("n", [102, 150, 339])
def test_power_by_repeated_squaring(n):
    # u = z^n - 1 on |z| = 2 against 200-bit mpmath: within n ulps of 1,
    # where numpy's z ** k, exp(k log z) from k = 100 on, is 2 to 5 times
    # further off (4.5e-14 at n = 102, 1.6e-13 at n = 339)
    zs = 2.0 * np.exp(1j * (np.linspace(0.0, 2.0 * math.pi, 300, endpoint=False) + 0.0123))
    _, u, _ = kernels._up(n, zs)
    err = 0
    with mpmath.workprec(200):
        for z, got in zip(zs, u):
            want = mpmath.mpc(z) ** n - 1
            err = max(err, abs(mpmath.mpc(got) - want) / abs(want))
    assert err <= n * 2.0**-52, float(err)


def test_exponent_from_the_order_alone(rng):
    # the kernels derive p from n: at every point it is the Horner step in
    # u on the exact cubic of build_p(n), each coefficient rounded once
    zs = grid_points(rng, 100)
    for n in (1, 2, 6, 60, 339):
        c1, c2, c3 = (float(c) for c in build_p(n))
        _, u, p = kernels._up(n, zs)
        assert np.array_equal(p, u * (c1 + u * (c2 + c3 * u))), n


def test_kernels_dihedral_symmetry(rng):
    # f depends on z only through z^n and has a real a and real c_k, so
    # every kernel takes the same value at z, conj z and e^{2 pi i/n} z:
    # the symmetry that lets the scans sample only the angles of [0, pi/n]
    for n in range(1, 13):
        F = construct(n)
        kinds = {
            "ratio_log": lambda z: kernels.ratio_log(n, z),
            "fk": lambda z: kernels.fk(n, F.log_a, z),
            "sphder_log": lambda z: kernels.sphder_log(n, F.log_a, z),
        }
        zs = grid_points(rng, 200)
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
    assert np.all(kernels.fk(1, math.log(4.0), zs) == 0.0)


def _oracle_logs(n, z, log_a, bits=200):
    """(log|h''/h^3|, log fk, sphder_log) at z from the mpmath jet of h at
    `bits` bits: h' and h'' there are the chain-rule sums the kernels no
    longer form."""
    with mpmath.workprec(bits):
        h0, h1, h2 = h_jet(n, build_p(n), mpmath.mpc(z), 2).values
        l0, l1, l2 = (mpmath.log(abs(h)) for h in (h0, h1, h2))
        log_fk = log_a + l2 - mpmath.log1p(mpmath.exp(3 * (log_a + l0)))
        log_sph = log_a + l1 - mpmath.log1p(mpmath.exp(2 * (log_a + l0)))
        return float(l2 - 3 * l0), float(log_fk), float(log_sph)


@pytest.mark.parametrize("n", range(2, 13))
def test_near_node_kernels_match_200_bit_oracle(n):
    # at 1e-3..1e-12 from the node z = 1, where h'' and h^3 both vanish to
    # third order: ratio_log is exact there up to rounding, and the only
    # error of fk and sphder_log beyond it is the binary64 rounding of
    # u = z^n - 1 (kernels._up, which every kernel shares), which |u|^3 in
    # |f''| triples and |f|^2 in 1 + |f|^2 doubles
    for d in 10.0 ** -np.arange(3, 13):
        zs = 1 + d * np.exp(1j * np.array([0.0, 1.0, 2.5, -2.0]))
        ratio = kernels.ratio_log(n, zs)
        u = kernels._up(n, zs)[1]
        for log_a in (0.0, 6.0, 60.0):
            fk = kernels.fk(n, log_a, zs)
            sph = kernels.sphder_log(n, log_a, zs)
            for z, r, f, sp, uf in zip(zs, ratio, fk, sph, u):
                want_r, want_fk, want_sph = _oracle_logs(n, z, log_a)
                assert abs(r - want_r) <= 1e-13, (n, d, z)
                with mpmath.workprec(200):
                    zz = mpmath.mpc(z)
                    du = float(abs(uf - (zz**n - 1)) / abs(zz**n - 1))
                tol = 1e-13 * max(1.0, log_a)
                assert abs(math.log(f) - want_fk) <= tol + 3.01 * du, (n, d, z, log_a)
                assert abs(sp - want_sph) <= tol + 2.01 * du, (n, d, z, log_a)



def test_kernels_at_the_origin():
    # h'' = n z^(n-2) u^3 S_n(u) e^p: 0 at z = 0 from n = 3 on and for n = 1
    # (S_1 = 0), finite and nonzero at n = 2, which takes no log|z| term;
    # h' = n z^(n-1) (1 + u d1) e^p: 0 there from n = 2 on, nonzero at n = 1
    zero = np.zeros(1, dtype=complex)
    for n in (1, 2, 3):
        ratio = kernels.ratio_log(n, zero)[0]
        fk = kernels.fk(n, 6.0, zero)[0]
        sph = kernels.sphder_log(n, 6.0, zero)[0]
        want_r, want_fk, want_sph = _oracle_logs(n, 0j, 6.0)
        if n == 2:
            assert abs(ratio - want_r) <= 1e-14
            assert abs(math.log(fk) - want_fk) <= 1e-14
        else:
            assert ratio == -math.inf and fk == 0.0, n
        if n == 1:
            assert abs(sph - want_sph) <= 1e-14
        else:
            assert sph == -math.inf, n
    # near it at n = 200, z^199 underflows binary64 at |z| = 0.02, while
    # (n-1) log|z| keeps the log finite, about -773.37 at log a = 0
    sph = kernels.sphder_log(200, 0.0, np.array([0.02j]))[0]
    want_sph = _oracle_logs(200, 0.02j, 0.0)[2]
    assert abs(sph - want_sph) <= 1e-13 * abs(want_sph), (sph, want_sph)
