"""Node conditions, exponent polynomial, scaling, and jet evaluation."""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from conftest import node_conditions, root_of_unity, solved_exponent

from normfam import (
    InvariantViolation,
    NonPositiveM,
    Overflow,
)
from normfam import analysis, forge, kernels
from normfam.cpoly import HermiteSpec, eval_jet, hermite_interpolate
from normfam.forge import (
    EPS_NODE,
    MAX_PRECISION,
    MINUS_INFINITY,
    ConstructionConfig,
    CounterexampleFunction,
    Jet,
    build_p,
    choose_a,
    construct,
    distinct_angles,
    estimate_c,
    estimate_m,
    exp_jet,
    f_jet,
    h_jet,
    p_float,
    p_jet,
)

ZERO_P = (Fraction(0),) * 3


def sample_disk(rng, radius=2.0):
    while True:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            return z


# the jet of g = u = z^n - 1, kernels.u_jet


def test_g_jet_cubic_at_one():
    assert kernels.u_jet(3, 1, 2) == [0, 3, 6]


def test_g_jet_linear():
    assert kernels.u_jet(1, 5, 2) == [4, 1, 0]


def test_g_jet_square_at_minus_one():
    assert kernels.u_jet(2, -1, 1) == [0, -2]


# the node conditions, solved directly in conftest: the exponent's oracle


def test_node_conditions_order_one():
    nc = node_conditions(1, 0)
    assert nc.node == 1
    assert nc.p1 == 0 and nc.p2 == 0 and nc.p3 == 0


def test_node_conditions_order_two():
    nc = node_conditions(2, 0)
    assert nc.node == 1
    assert (nc.p1, nc.p2, nc.p3) == (-0.5, 0.25, -0.25)
    nc = node_conditions(2, 1)
    assert abs(nc.node - (-1)) < 1e-15
    for got, want in zip((nc.p1, nc.p2, nc.p3), (0.5, 0.25, 0.25)):
        assert abs(got - want) <= 1e-12


def test_nodes_are_roots_of_unity():
    for n in range(1, 7):
        for ell in range(n):
            nc = node_conditions(n, ell)
            assert abs(nc.node**n - 1) <= 1e-10


def test_p1_closed_form():
    # eliminating g from p1 = -g''/(2g') at a root of unity leaves -(n-1)/(2z)
    for n in range(1, 7):
        for ell in range(n):
            nc = node_conditions(n, ell)
            want = -(n - 1) / (2 * nc.node) if n > 1 else 0
            assert abs(nc.p1 - want) <= 1e-10 * max(1.0, abs(want))


def _series_mul(a, b):
    # product of two power series in w, truncated after w^4
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(5)]


def test_node_conditions_kill_h_derivatives_symbolically():
    # independent oracle: expand h = (z^n - 1) e^{q(z)} as a power series
    # in w = z - z0 up to w^4, where q is the cubic with jet (0, p1, p2, p3)
    # at the node z0, and check that h'', h''', h'''' all vanish there
    for n, ell in ((2, 0), (2, 1), (3, 1), (4, 3)):
        nc = node_conditions(n, ell)
        z0 = nc.node
        # (z0 + w)^n - 1 by the binomial theorem
        g = [z0**n - 1] + [math.comb(n, k) * z0 ** (n - k) for k in range(1, 5)]
        q = [0, nc.p1, nc.p2 / 2, nc.p3 / 6, 0]
        # e^q = sum_{k <= 4} q^k / k!, complete up to w^4 since q(z0) = 0
        e = qk = [1, 0, 0, 0, 0]
        for k in range(1, 5):
            qk = _series_mul(qk, q)
            e = [x + y / math.factorial(k) for x, y in zip(e, qk)]
        h = [math.factorial(m) * c for m, c in enumerate(_series_mul(g, e))]
        for m in (2, 3, 4):
            assert abs(h[m]) <= 1e-9 * max(1.0, abs(h[1]))


def test_node_conditions_high_precision():
    with mpmath.workprec(160):
        nc = node_conditions(5, 2, precision=160)
        assert abs(nc.node**5 - 1) < mpmath.mpf(10) ** -40
        want = -(5 - 1) / (2 * nc.node)
        assert abs(nc.p1 - want) < mpmath.mpf(10) ** -40


# build_p


def test_build_p_order_one_is_zero():
    assert build_p(1) == (0, 0, 0)


def test_build_p_order_two_residuals():
    p = build_p(2)
    assert p == (Fraction(-1, 4), Fraction(3, 32), Fraction(-5, 96))
    for ell in range(2):
        nc = node_conditions(2, ell)
        got = p_jet(2, p, nc.node, 3)
        for v, want in zip(got.values, (0, nc.p1, nc.p2, nc.p3)):
            assert abs(v - want) < 1e-12


def test_build_p_order_four_residuals():
    p = build_p(4)
    assert all(isinstance(c, Fraction) for c in p)
    for ell in range(4):
        nc = node_conditions(4, ell)
        got = p_jet(4, p, nc.node, 3)
        for v, want in zip(got.values, (0, nc.p1, nc.p2, nc.p3)):
            assert abs(v - want) < 1e-10


def test_build_p_closed_forms(exponents):
    # c1 = -(n-1)/(2n) follows from p'(1) = -(n-1)/2 and u'(1) = n
    for n, p in exponents.items():
        assert p[0] == Fraction(-(n - 1), 2 * n)
    assert exponents[12] == (Fraction(-11, 24), Fraction(649, 3456), Fraction(-385, 3456))


def test_build_p_rejects_order_zero():
    for n in (0, -3):
        with pytest.raises(ValueError):
            build_p(n)


def test_build_p_matches_fraction_solve():
    for n in range(1, 201):
        p = build_p(n)
        assert all(isinstance(c, Fraction) for c in p)
        assert p == solved_exponent(n), n


def test_closed_form_solves_node_conditions_for_symbolic_n():
    # expand h = u e^p in w = z - 1 up to w^4 with n a symbol: at z = 1,
    # u = sum_k binom(n, k) w^k. The coefficients of w^2, w^3, w^4 of h
    # vanish for one (c1, c2, c3) only, and it is the closed form
    n = sympy.symbols("n", positive=True)
    c = sympy.symbols("c1:4")
    u = [0] + [sympy.ff(n, k) / math.factorial(k) for k in range(1, 5)]
    uk, q = u, [0] * 5
    for ck in c:
        q = [x + ck * y for x, y in zip(q, uk)]
        uk = _series_mul(uk, u)
    e = qk = [1, 0, 0, 0, 0]
    for k in range(1, 5):
        qk = _series_mul(qk, q)
        e = [x + y / math.factorial(k) for x, y in zip(e, qk)]
    h = _series_mul(u, e)
    sols = sympy.solve(h[2:], c, dict=True)
    want = (
        -(n - 1) / (2 * n),
        (n - 1) * (5 * n - 1) / (24 * n**2),
        -(n - 1) * (3 * n - 1) / (24 * n**2),
    )
    assert len(sols) == 1
    for ck, w in zip(c, want):
        assert sympy.simplify(sols[0][ck] - w) == 0
    for k in (1, 2, 7, 144):
        assert build_p(k) == tuple(Fraction(str(w.subs(n, k))) for w in want)


def test_cubic_matches_hermite_oracle(exponents):
    # the degree <= 4n-1 Hermite interpolant of the node conditions, built
    # at 256 bits from confluent divided differences, is the cubic in u
    rng = np.random.default_rng(13)
    for n, p in exponents.items():
        with mpmath.workprec(256):
            ncs = [node_conditions(n, ell, 256) for ell in range(n)]
            spec = HermiteSpec(
                tuple(nc.node for nc in ncs),
                tuple(Jet(3, (nc.node * 0, nc.p1, nc.p2, nc.p3)) for nc in ncs),
            )
            P = hermite_interpolate(spec)
            for _ in range(8):
                z = mpmath.mpc(sample_disk(rng))
                want, got = eval_jet(P, z, 4), p_jet(n, p, z, 4)
                for j in range(5):
                    assert abs(got[j] - want[j]) <= 1e-60 * max(1, abs(want[j]))


def test_monomial_round_trip_for_exponent_polynomials(family):
    # the expansion of the cubic in powers of z has degree 3n <= 4n - 1
    # and agrees with the Horner step in u
    rng = np.random.default_rng(5)
    zsym = sympy.symbols("z")
    for F in family.values():
        expr = sum(
            sympy.Rational(c.numerator, c.denominator) * (zsym**F.n - 1) ** k
            for k, c in enumerate(F.p, 1)
        )
        mono = [complex(c) for c in reversed(sympy.Poly(expr + 1, zsym).all_coeffs())]
        mono[0] -= 1
        assert len(mono) <= 4 * F.n
        for _ in range(100):
            z = sample_disk(rng)
            direct = p_jet(F.n, F.p, z, 0).values[0]
            horner = 0j
            for c in reversed(mono):
                horner = horner * z + c
            assert abs(horner - direct) <= 1e-8 * max(1.0, abs(direct))


# exp_jet


def test_exp_jet_linear():
    c = 0.3 + 0.7j
    E = exp_jet(Jet(1, (0, c)))
    assert E.values == (1, c)


def test_exp_jet_quadratic():
    c, d = 0.3 + 0.7j, -1.1 + 0.2j
    E = exp_jet(Jet(2, (0, c, d)))
    assert E.values[0] == 1
    assert E.values[1] == c
    assert abs(E.values[2] - (c * c + d)) < 1e-15


def test_exp_jet_constant_exponent():
    E = exp_jet(Jet(4, (0, 0, 0, 0, 0)))
    assert E.values == (1, 0, 0, 0, 0)


def test_exp_jet_overflow_guard():
    with pytest.raises(Overflow):
        exp_jet(Jet(1, (800 + 0j, 1)))
    with mpmath.workprec(80):
        E = exp_jet(Jet(1, (mpmath.mpc(800), mpmath.mpc(1))))
        assert E.values[0].real > 0 and mpmath.isfinite(E.values[0])


# h_jet


def test_h_jet_linear_case():
    assert h_jet(1, ZERO_P, 0, 2).values == (-1, 1, 0)


def test_h_jet_defining_property_order_two():
    p = build_p(2)
    hj = h_jet(2, p, 1, 4)
    assert hj.values[0] == 0
    h1 = abs(hj.values[1])
    assert h1 > 0
    for m in (2, 3, 4):
        assert abs(hj.values[m]) <= 1e-9 * h1


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 1000, 10**6])
def test_h_jet_exact_at_one(n):
    # u = 0 and u^(k) = n!/(n-k)! at z = 1, so the whole jet is rational
    hj = h_jet(n, build_p(n), Fraction(1), 4)
    assert all(isinstance(v, Fraction) for v in hj.values)
    assert hj.values == (0, n, 0, 0, 0)


def test_exp_jet_exact_where_p_vanishes():
    E = exp_jet(Jet(2, (Fraction(0), Fraction(1, 3), Fraction(2))))
    assert E.values == (1, Fraction(1, 3), Fraction(19, 9))
    assert all(isinstance(v, (int, Fraction)) for v in E.values)


def test_h_vanishes_at_all_nodes(family):
    for n, F in family.items():
        for ell in range(n):
            z = root_of_unity(n, ell)
            assert abs(h_jet(n, F.p, z, 0).values[0]) <= 1e-12


def test_h_jet_matches_finite_differences():
    p = build_p(2)
    z = 0.5 + 0.3j
    h = 1e-5
    hj = h_jet(2, p, z, 2)
    up = h_jet(2, p, z + h, 0).values[0]
    dn = h_jet(2, p, z - h, 0).values[0]
    fd1 = (up - dn) / (2 * h)
    fd2 = (up - 2 * hj.values[0] + dn) / (h * h)
    assert abs(fd1 - hj.values[1]) <= 1e-5 * max(1.0, abs(hj.values[1]))
    assert abs(fd2 - hj.values[2]) <= 1e-5 * max(1.0, abs(hj.values[2]))


def test_node_jet_residuals_double_precision(family):
    # the construction's defining property, at the tightest stated scale
    for n, F in family.items():
        for ell in range(n):
            z = root_of_unity(n, ell)
            hj = h_jet(n, F.p, z, 4)
            floor = max(1.0, abs(hj.values[1]))
            for m in (2, 3, 4):
                assert abs(hj.values[m]) <= 1e-8 * floor


def test_simple_zeros_preserved(family):
    # p(node) = 0, so |h'(node)| = |g'(node)| = n up to rounding
    for n, F in family.items():
        for ell in range(n):
            z = root_of_unity(n, ell)
            h1 = abs(h_jet(n, F.p, z, 1).values[1])
            assert abs(h1 - n) <= 1e-8 * n


# kernels.ratio_log on single points


def test_ratio_log_sentinel_order_one():
    assert kernels.ratio_log(1, p_float(ZERO_P), 0.5) == MINUS_INFINITY


def test_ratio_log_matches_direct_quotient():
    p = build_p(2)
    for z in (2 + 0j, 1 + 2 * EPS_NODE, 0.5 + 1.2j):
        hj = h_jet(2, p, z, 2)
        direct = math.log(abs(hj.values[2]) / abs(hj.values[0]) ** 3)
        got = kernels.ratio_log(2, p_float(p), z)
        assert abs(math.expm1(got - direct)) <= 1e-6


def test_log_space_consistency_where_direct_is_representable(family):
    rng = np.random.default_rng(17)
    for n in (2, 3):
        F = family[n]
        checked = 0
        while checked < 15:
            z = sample_disk(rng)
            if abs(z**n - 1) <= 10 * EPS_NODE:
                continue
            try:
                hj = h_jet(n, F.p, z, 2)
            except Overflow:
                continue
            denom = abs(hj.values[0]) ** 3
            if denom == 0 or not math.isfinite(denom):
                continue
            direct = abs(hj.values[2]) / denom
            if direct == 0 or not math.isfinite(direct):
                continue
            got = kernels.ratio_log(n, F.p_float, z)
            assert abs(math.expm1(got - math.log(direct))) <= 1e-6
            checked += 1


# estimate_c / estimate_m


def test_estimate_c_order_one():
    assert estimate_c(1, build_p(1), 1024) == 0


def full_circle_log_c(n, p, M):
    """log c_hat from all M*n angles of |z| = 2 and the same golden
    refinement: the scan estimate_c made before it kept only the first M,
    kept as an oracle."""
    K = M * max(1, n)
    theta = np.linspace(0.0, 2.0 * math.pi, K, endpoint=False)
    c = p_float(p)
    logs = kernels.ratio_log(n, c, 2.0 * np.exp(1j * theta))
    if not np.any(np.isfinite(logs)):
        return MINUS_INFINITY
    i = int(np.argmax(logs))
    step = 2.0 * math.pi / K

    def f(t):
        u = kernels.u_jet(n, 2.0 * cmath.exp(1j * t), 2)
        return float(kernels.ratio_log_from_jets(u, kernels.p_from_u(c, u)))

    best = forge._golden_max(f, theta[i] - step, theta[i] + step, forge._GOLDEN_TOL)
    return max(best, float(logs[i]))


def test_estimate_c_matches_full_circle(exponents):
    for n, p in exponents.items():
        want = full_circle_log_c(n, p, 1024)
        got = estimate_c(n, p, 1024)
        if want == MINUS_INFINITY:
            assert got == 0
        else:
            assert abs(float(mpmath.log(got)) - want) <= 1e-14 * abs(want), n


@pytest.mark.parametrize(
    "n, K",
    [(1, 64), (4, 512), (5, 512), (12, 512), (3, 3 * 64), (6, 6 * 65), (4, 262)],
)
def test_distinct_angles(n, K):
    theta = distinct_angles(n, K)
    g = math.gcd(n, K)
    L = K // g * n  # lcm(n, K): the angles are multiples of 2 pi / L
    assert theta.size == K // (2 * g) + 1
    j = np.rint(theta * (L / (2.0 * math.pi))).astype(int)
    assert np.array_equal(j, np.arange(theta.size))
    assert np.allclose(theta, j * (2.0 * math.pi / L), rtol=1e-15, atol=0)
    # all in [0, pi/n]: 2 pi j / L <= pi / n
    assert np.all(2 * n * j <= L)
    # z^n maps angle j to the w-index n j K / L = g j (in units of 2 pi / K):
    # distinct, and with their negatives they are every w-index that the
    # K angles 2 pi k / K reach
    w = g * j % K
    assert len(set(w)) == theta.size
    assert set(w) | set(-w % K) == {n * k % K for k in range(K)}
    if g == n:
        full = np.linspace(0.0, 2.0 * math.pi, K, endpoint=False)
        assert np.array_equal(theta, full[: theta.size])


def test_scans_evaluate_one_sector(family, monkeypatch):
    seen = []
    ratio_log = kernels.ratio_log

    def spy(n, c, zs):
        seen.append(len(zs))
        return ratio_log(n, c, zs)

    monkeypatch.setattr(kernels, "ratio_log", spy)
    for n in (1, 2, 5, 12):
        seen.clear()
        estimate_c(n, build_p(n), 128)
        assert seen == [128 // 2 + 1], n
    for n, F in family.items():
        for res in (64, 512):
            seen.clear()
            analysis.max_modulus_check(F, res)
            inner, boundary = seen
            assert boundary == res // (2 * math.gcd(n, res)) + 1, (n, res)
            assert 0 < inner <= max(8, res // 8) * boundary


def test_estimate_c_refuses_overflowed_scan():
    # from n = 145 on b2 overflows binary64 at every point of |z| = 2, so
    # every sampled log is +inf; n = 1 has h'' = 0, every log is -inf
    for n in (145, 200):
        with pytest.raises(Overflow):
            estimate_c(n, build_p(n), 64)
    assert 0 < estimate_c(144, build_p(144), 64) < mpmath.inf
    assert estimate_c(1, build_p(1), 64) == 0


def test_estimate_c_stable_under_grid_doubling():
    p = build_p(2)
    c1 = estimate_c(2, p, 1024)
    c2 = estimate_c(2, p, 2048)
    assert abs(c2 / c1 - 1) <= 1e-4


def test_estimate_c_dominates_interior_samples(family):
    rng = np.random.default_rng(23)
    for n, F in family.items():
        if n == 1:
            continue
        bound = float(mpmath.log(F.c_hat)) + math.log1p(1e-4)
        count = 0
        while count < 500:
            z = sample_disk(rng)
            if abs(z**n - 1) <= EPS_NODE:
                continue
            assert kernels.ratio_log(n, F.p_float, z) <= bound
            count += 1


def test_estimate_m_order_one():
    assert estimate_m(1, build_p(1), 1024) == 0.5


def grid_log_m(n, p, M, count):
    """Sampled min of log|h| over M/8 radii of [0, 2 - 1/n] that lie in
    K_n, at the first `count` of the M*n angles 2 pi j / (M n) each: the
    scan estimate_m made before it moved to the boundary circles (there
    count = M*n), kept as an oracle."""
    radii = np.linspace(0.0, 2.0 - 1.0 / n, M // 8)
    radii = radii[np.abs(radii - 1.0) >= 1.0 / n]
    theta = np.linspace(0.0, 2.0 * math.pi, M * n, endpoint=False)[:count]
    zs = np.outer(radii, np.exp(1j * theta)).ravel()
    return float(np.min(kernels.h_log(n, tuple(float(c) for c in p), zs)))


@pytest.mark.parametrize("M", [64, 256])
def test_estimate_m_matches_radius_grid(exponents, M):
    # the grid minimum lies on |z| = 2 - 1/n, a radius both scans sample,
    # and the first M / 2 + 1 angles, those in [0, pi/n], are the ones
    # estimate_m evaluates; rotation and reflection carry them onto the
    # others, up to rounding
    for n, p in exponents.items():
        got = estimate_m(n, p, M)
        assert got == mpmath.exp(mpmath.mpf(grid_log_m(n, p, M, M // 2 + 1))) / 2
        full = grid_log_m(n, p, M, M * n)
        assert abs(float(mpmath.log(2 * got)) - full) <= 1e-14 * abs(full), n


def test_estimate_m_samples_three_circles(monkeypatch):
    seen = []
    h_log = kernels.h_log

    def spy(n, c, zs):
        seen.append((n, np.abs(zs)))
        return h_log(n, c, zs)

    monkeypatch.setattr(kernels, "h_log", spy)
    for n, M in ((1, 64), (2, 64), (5, 128)):
        estimate_m(n, build_p(n), M)
    # K_1 = {0} is one point; the others take M / 2 + 1 angles per circle
    assert [len(r) for _, r in seen] == [1, 3 * 33, 3 * 65]
    assert np.all(seen[0][1] == 0.0)
    for n, r in seen[1:]:
        radii = [[1 - 1 / n], [1 + 1 / n], [2 - 1 / n]]
        assert np.allclose(r.reshape(3, -1), radii, rtol=0, atol=1e-12)


def test_estimate_m_positive(family):
    for n, F in family.items():
        assert F.m_hat > 0


def test_estimate_m_stable_under_grid_doubling():
    p = build_p(2)
    m1 = estimate_m(2, p, 1024)
    m2 = estimate_m(2, p, 2048)
    assert abs(m2 / m1 - 1) <= 1e-3


def test_grid_floor():
    with pytest.raises(ValueError):
        estimate_c(2, build_p(2), 32)
    with pytest.raises(ValueError):
        estimate_m(2, build_p(2), 32)


# choose_a


def test_choose_a_order_one_values():
    assert choose_a(1, 0, 0.5) == 4


def test_choose_a_sqrt_branch():
    assert choose_a(2, 8, 1) == mpmath.sqrt(32)


def test_choose_a_dominates_both_floors():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        c = float(rng.uniform(0, 100))
        m = float(rng.uniform(1e-6, 10))
        a = choose_a(n, c, m)
        assert a >= mpmath.sqrt(2 * n * mpmath.mpf(c))
        assert a >= 2 * n / mpmath.mpf(m)
        assert a >= 1


def test_choose_a_rejects_bad_m():
    with pytest.raises(NonPositiveM):
        choose_a(2, 1, 0)


# construct / f_jet


def test_construct_order_one(family):
    F = family[1]
    assert F.c_hat == 0
    assert F.a == 4
    assert F.m_hat == 0.5
    assert F.p == (0, 0, 0)


def test_construct_deterministic():
    cfg = ConstructionConfig(precision=53, grid_m=512)
    assert construct(3, cfg) == construct(3, cfg)


def test_node_gate_rejects_nan_coefficient(family):
    # every comparison with NaN is False, so the gate must be phrased
    # so that it fails when the exponent does not match
    F = family[3]
    p = (F.p[0], float("nan"), F.p[2])
    with pytest.raises(InvariantViolation):
        CounterexampleFunction(3, p, F.a, F.c_hat, F.m_hat)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_node_gate_rejects_perturbed_exponent(family, k):
    F = family[3]
    p = list(F.p)
    p[k] += Fraction(1, 10**6)
    with pytest.raises(InvariantViolation):
        CounterexampleFunction(3, tuple(p), F.a, F.c_hat, F.m_hat)
    # the value of c_k in binary64 is not the exact exponent either
    p[k] = float(F.p[k])
    if p[k] != F.p[k]:
        with pytest.raises(InvariantViolation):
            CounterexampleFunction(3, tuple(p), F.a, F.c_hat, F.m_hat)


def test_scaling_grows_strictly(family):
    logs = [family[n].log_a for n in range(1, 7)]
    assert all(b > a for a, b in zip(logs, logs[1:]))


def test_f_jet_order_one(family):
    assert f_jet(family[1], 0, 2).values == (-4, 4, 0)


def test_f_jet_node_values(family):
    for n in (1, 2, 3, 4):
        F = family[n]
        af = float(F.a)
        for ell in range(n):
            z = root_of_unity(n, ell)
            fj = f_jet(F, z, 2)
            assert abs(fj.values[0]) <= 1e-12 * af
            assert abs(fj.values[2]) <= 1e-6 * af
            f1 = abs(f_jet(F, z, 1).values[1])
            assert abs(f1 - af * n) <= 1e-10 * af * n


def test_f_jet_beyond_float_range(family):
    # a_5 overflows binary64; the jet is mpmath at the record's precision
    F = family[5]
    fj = f_jet(F, 0, 1)
    assert all(isinstance(v, mpmath.mpc) for v in fj.values)
    want = F.a * abs(h_jet(5, F.p, 0, 0)[0])
    assert abs(abs(fj[0]) - want) <= 1e-15 * want


@pytest.mark.parametrize("bits", [52, MAX_PRECISION + 1])
def test_gate_rejects_precision_out_of_range(family, bits):
    F = family[3]
    with pytest.raises(InvariantViolation, match="precision"):
        CounterexampleFunction(3, F.p, F.a, F.c_hat, F.m_hat, bits)


def test_default_record_obeys_inequality_at_exact_node(family):
    # f = 0 at the nodes, so |f''| <= 1 + |f|^3 needs h'' = 0 there to
    # the scale 1/a; the exact exponent gives it at any check precision
    F = family[3]
    with mpmath.workprec(128):
        z = root_of_unity(3, 1, 128)
        hj = h_jet(3, F.p, z, 2)
        f0, f2 = F.a * abs(hj[0]), F.a * abs(hj[2])
        assert f2 <= 1 + f0**3
        assert f2 <= mpmath.mpf("1e-10")


def test_f_jet_high_precision_record():
    F = construct(5, ConstructionConfig(precision=128, grid_m=512))
    fj = f_jet(F, root_of_unity(5, 0, 128), 1)
    assert abs(fj.values[0]) == 0
    rel = abs(abs(fj.values[1]) - F.a * 5) / (F.a * 5)
    assert rel < 1e-10
