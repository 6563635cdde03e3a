"""Backend twins agree with each other, with the scalar path, and with
an exact mpmath oracle across all magnitude branches."""

import math

import mpmath
import numpy as np
import pytest

from normfam import kernels
from normfam.forge import EPS_NODE, ratio_log_abs, root_of_unity


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


def mp_oracle(F, z, kind):
    """Direct quotient in 120-bit mpmath: no branches, no log tricks."""
    with mpmath.workprec(120):
        zz = mpmath.mpc(z)
        p0 = mpmath.mpc(complex(F.p.coeffs[-1]))
        p1 = mpmath.mpc(0)
        p2 = mpmath.mpc(0)
        for i in range(len(F.p.centers) - 1, -1, -1):
            w = zz - complex(F.p.centers[i])
            p2 = p2 * w + 2 * p1
            p1 = p1 * w + p0
            p0 = p0 * w + complex(F.p.coeffs[i])
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


def test_backends_agree(family, rng):
    for n, F in family.items():
        cen, cof = F.arrays
        zs = grid_points(rng, 200)
        for np_fn, nb_fn, args in (
            (kernels.ratio_log_numpy, kernels.ratio_log_numba, (n, cen, cof, zs)),
            (kernels.h_log_numpy, kernels.h_log_numba, (n, cen, cof, zs)),
            (kernels.fk_numpy, kernels.fk_numba, (n, cen, cof, F.log_a, zs)),
            (
                kernels.sphder_log_numpy,
                kernels.sphder_log_numba,
                (n, cen, cof, F.log_a, zs),
            ),
        ):
            a = np_fn(*args)
            b = nb_fn(*args)
            finite = np.isfinite(a)
            assert np.array_equal(finite, np.isfinite(b))
            assert np.allclose(a[finite], b[finite], rtol=1e-10, atol=1e-300)
            assert np.array_equal(a[~finite], b[~finite])


def test_ratio_log_matches_scalar_path(family, rng):
    for n, F in family.items():
        cen, cof = F.arrays
        zs = off_node_points(rng, n, 50)
        grid = kernels.ratio_log(n, cen, cof, zs)
        hlog = kernels.h_log(n, cen, cof, zs)
        p53 = F.p if F.precision <= 53 else None
        assert p53 is not None
        for z, got, lh in zip(zs, grid, hlog):
            want = ratio_log_abs(n, p53, complex(z))
            if want == float("-inf"):
                assert got == float("-inf")
            else:
                # two double paths differ by ulps amplified both by the
                # largest log in the difference (|log h| reaches ~5e4 at
                # n=6) and by cancellation inside the second-derivative
                # combination; 1e-10 matches the twin-comparison envelope
                # while the mpmath oracle below pins true accuracy
                scale = max(1.0, abs(want), 3.0 * abs(lh))
                assert abs(got - want) <= 1e-10 * scale


def test_fk_matches_mpmath_oracle(family, rng):
    # exercises all three branches: tiny |f| near nodes, huge |f| near the
    # rim for large n, moderate |f| in between; at distance 1e-4 from a
    # node the numerator sits next to its own triple zero and double
    # precision keeps only ~6 digits of it (the value itself is ~1e-8,
    # so the slack is irrelevant for any inequality check)
    for n, F in family.items():
        cen, cof = F.arrays
        generic = grid_points(rng, 40)
        near = np.array([root_of_unity(n, ell) + 1e-4 for ell in range(n)])
        rim = 1.95 * np.exp(1j * np.linspace(0.1, 6.2, 10))
        zs = np.concatenate([generic, near, rim])
        got = kernels.fk(n, cen, cof, F.log_a, zs)
        rel = np.full(len(zs), 1e-8)
        rel[len(generic) : len(generic) + len(near)] = 1e-2
        for z, g, tol in zip(zs, got, rel):
            want = float(mp_oracle(F, z, "fk"))
            assert abs(g - want) <= tol * max(want, 1e-280)


def test_sphder_log_matches_mpmath_oracle(family, rng):
    for n, F in family.items():
        cen, cof = F.arrays
        zs = np.concatenate(
            [grid_points(rng, 40), 1.95 * np.exp(1j * np.linspace(0.1, 6.2, 10))]
        )
        got = kernels.sphder_log(n, cen, cof, F.log_a, zs)
        for z, g in zip(zs, got):
            with mpmath.workprec(120):
                want = float(mpmath.log(mp_oracle(F, z, "sph")))
            assert abs(g - want) <= 1e-8 * max(1.0, abs(want))


def test_h_log_matches_plain_evaluation(family, rng):
    for n, F in family.items():
        if n > 3:
            continue  # direct |h| overflows beyond small orders
        cen, cof = F.arrays
        zs = grid_points(rng, 50)
        got = kernels.h_log(n, cen, cof, zs)
        p0, _, _ = kernels.newton_jets_numpy(cen, cof, zs)
        direct = np.log(np.abs((zs**n - 1) * np.exp(p0)))
        assert np.allclose(got, direct, rtol=1e-10, atol=1e-12)


def test_short_jets_match_order_two_path(exponents, rng):
    # h_log needs only p and sphder_log only p and p'; their shorter
    # Horner loops must round exactly as the full order-2 jet does, so
    # the expected values below are the kernels' formulas on that jet.
    # numpy reuses temporaries only in arrays above 256 KiB, so the sample
    # is large enough for a differently written loop to round differently
    log_a = 30.0
    count = 1 << 15
    zs = 2.0 * np.sqrt(rng.uniform(size=count)) * np.exp(
        2j * math.pi * rng.uniform(size=count)
    )
    for n, p in exponents.items():
        cen = np.array([complex(c) for c in p.centers], dtype=np.complex128)
        cof = np.array([complex(c) for c in p.coeffs], dtype=np.complex128)
        p0, p1, _ = kernels.newton_jets_numpy(cen, cof, zs)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g0 = zs**n - 1.0
            h_want = np.log(np.abs(g0)) + p0.real
            b1 = n * zs ** (n - 1) + g0 * p1
            log_num = log_a + np.log(np.abs(b1)) + p0.real
            t = 2.0 * (log_a + np.log(np.abs(g0)) + p0.real)
            corr = np.where(
                t > kernels._BRANCH_CUT,
                t,
                np.where(t < -kernels._BRANCH_CUT, 0.0, np.log1p(np.exp(t))),
            )
            sph_want = log_num - corr
        assert np.array_equal(kernels.h_log_numpy(n, cen, cof, zs), h_want)
        assert np.array_equal(
            kernels.sphder_log_numpy(n, cen, cof, log_a, zs), sph_want
        )


def test_backend_env_flag(family, monkeypatch):
    F = family[2]
    cen, cof = F.arrays
    zs = np.array([0.5 + 0.5j, 1.5 - 0.2j])
    monkeypatch.setenv("NORMFAM_BACKEND", "numpy")
    assert kernels.active_backend() == "numpy"
    a = kernels.fk(2, cen, cof, F.log_a, zs)
    if kernels.HAVE_NUMBA:
        monkeypatch.setenv("NORMFAM_BACKEND", "numba")
        assert kernels.active_backend() == "numba"
        b = kernels.fk(2, cen, cof, F.log_a, zs)
        assert np.allclose(a, b, rtol=1e-10)
    monkeypatch.setenv("NORMFAM_BACKEND", "nonsense")
    with pytest.raises(ValueError):
        kernels.active_backend()


def test_backend_numba_unavailable_is_loud(monkeypatch):
    monkeypatch.setenv("NORMFAM_BACKEND", "numba")
    if kernels.HAVE_NUMBA:
        assert kernels.active_backend() == "numba"
    else:
        with pytest.raises(RuntimeError):
            kernels.active_backend()


def test_fk_zero_where_numerator_vanishes():
    # order 1: h'' is identically zero, fk must be exactly 0 everywhere
    cen = np.zeros(3, dtype=np.complex128)
    cof = np.zeros(4, dtype=np.complex128)
    zs = np.array([0.3 + 0.1j, 1 + 0j, 2j])
    assert np.all(kernels.fk(1, cen, cof, math.log(4.0), zs) == 0.0)
