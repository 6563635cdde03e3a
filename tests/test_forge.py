"""Node conditions, exponent polynomial, scaling, and jet evaluation."""

import dataclasses
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from conftest import f_jet, node_conditions, p_jet, root_of_unity, solved_exponent

from normfam import (
    InvariantViolation,
    NonPositiveM,
    Overflow,
)
from normfam import analysis, forge, kernels, storage
from normfam.cpoly import HermiteSpec, eval_jet, hermite_interpolate
from normfam.forge import (
    GRID_M,
    MAX_PRECISION,
    MINUS_INFINITY,
    CounterexampleFunction,
    Jet,
    build_p,
    build_s,
    choose_a,
    construct,
    critical_quintic,
    estimate_m,
    h_jet,
    h_parts,
    log_c_star,
)

ZERO_P = (Fraction(0),) * 3
# records of n = 19, 20, 30 and 200 that construct wrote while c_hat was
# sampled: their a is too small for |f''| <= 1 + |f|^3
DATA = Path(__file__).parent / "data"


def sector_angles(n, M):
    """The M // 2 + 1 z-angles 2 pi j / (M n), j = 0..M // 2, of [0, pi/n]:
    z^n maps them onto the w-angles 2 pi j / M."""
    return np.arange(M // 2 + 1) * (2.0 * math.pi / (M * n))


def sample_disk(rng, radius=2.0):
    while True:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            return z


# the jet of g = u = z^n - 1: h_jet with p = 0, u^(k) = n!/(n-k)! z^(n-k)


def test_g_jet_cubic_at_one():
    assert h_jet(3, ZERO_P, Fraction(1), 2).values == (0, 3, 6)


def test_g_jet_linear():
    assert h_jet(1, ZERO_P, Fraction(5), 2).values == (4, 1, 0)


def test_g_jet_square_at_minus_one():
    assert h_jet(2, ZERO_P, Fraction(-1), 1).values == (0, -2)


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


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(*ps):
    return [sum(p[k] for p in ps if k < len(p)) for k in range(max(map(len, ps)))]


def test_s_is_q_over_u_cubed_in_fractions():
    # Q = (n-1)(1 + u d1) + n w (2 d1 + u (d2 + d1^2)), w = u + 1, from the
    # chain rule, as exact coefficient lists in u: u^3 S_n for n = 1..200
    u, w = [0, 1], [1, 1]
    for n in range(1, 201):
        c1, c2, c3 = build_p(n)
        s = build_s(n)
        assert all(isinstance(x, Fraction) for x in s)
        d1, d2 = [c1, 2 * c2, 3 * c3], [2 * c2, 6 * c3]
        inner = _poly_add([2 * x for x in d1], _poly_mul(u, _poly_add(d2, _poly_mul(d1, d1))))
        q = _poly_add(
            [(n - 1) * x for x in _poly_add([1], _poly_mul(u, d1))],
            [n * x for x in _poly_mul(w, inner)],
        )
        assert q == [0, 0, 0, *s], n
    assert build_s(1) == (0, 0, 0, 0)


def test_s_factors_h2_for_symbolic_n():
    # h'' e^-p / (n z^(n-2)) from sympy's own derivative of
    # h = (z^n - 1) e^p with n a symbol, rewritten in u = z^n - 1 by
    # z = (u + 1)^(1/n), is u^3 times the closed-form cubic of build_s
    n = sympy.symbols("n", positive=True, integer=True)
    z, u = sympy.symbols("z u", positive=True)
    c1, c2, c3 = (
        -(n - 1) / (2 * n),
        (n - 1) * (5 * n - 1) / (24 * n**2),
        -(n - 1) * (3 * n - 1) / (24 * n**2),
    )
    g = z**n - 1
    p = c1 * g + c2 * g**2 + c3 * g**3
    q = sympy.diff(g * sympy.exp(p), z, 2) * sympy.exp(-p) / (n * z ** (n - 2))
    q = sympy.expand(sympy.powsimp(sympy.expand(q), force=True))
    q = sympy.powdenest(sympy.expand(q.subs(z, (u + 1) ** (1 / n))), force=True)
    assert q.free_symbols == {n, u}
    want = (
        -(n - 1) * (251 * n**3 - 109 * n**2 + n + 1) / (144 * n**3),
        (n - 1) ** 2 * (17 * n**2 - 2 * n - 1) / (72 * n**3),
        -(n - 1) ** 2 * (3 * n - 1) * (11 * n - 1) / (192 * n**3),
        (n - 1) ** 2 * (3 * n - 1) ** 2 / (64 * n**3),
    )
    S = sum(sk * u**k for k, sk in enumerate(want))
    assert sympy.simplify(sympy.expand(q - u**3 * S)) == 0
    for k in (1, 2, 7, 339):
        assert build_s(k) == tuple(Fraction(str(x.subs(n, k))) for x in want)


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


# e^p inside h_jet: for n = 1, u = z - 1, so at z = 1 the Leibniz rule
# gives h^(m) = m E^(m-1), E = e^p


def test_exp_jet_linear():
    c = Fraction(3, 7)
    hj = h_jet(1, (c, 0, 0), Fraction(1), 3)
    assert hj.values == (0, 1, 2 * c, 3 * c * c)


def test_exp_jet_quadratic():
    # p' = c, p'' = 2 c2 at u = 0: E'' = c^2 + 2 c2, E''' = c^3 + 6 c c2
    c, c2 = Fraction(3, 7), Fraction(-11, 5)
    hj = h_jet(1, (c, c2, 0), Fraction(1), 4)
    assert hj.values == (0, 1, 2 * c, 3 * (c * c + 2 * c2), 4 * (c**3 + 6 * c * c2))


def test_exp_jet_constant_exponent():
    hj = h_jet(1, ZERO_P, Fraction(1, 2), 4)
    assert hj.values == (Fraction(-1, 2), 1, 0, 0, 0)


def test_exp_jet_overflow_guard():
    # e^800 overflows binary64 at u = 1 (z = 2); a python complex point is
    # taken in mpmath like an mpmath one
    p = (Fraction(800), Fraction(0), Fraction(0))
    h0 = h_jet(1, p, 2 + 0j, 1).values[0]
    assert isinstance(h0, mpmath.mpc)
    assert h0.real > 0 and mpmath.isfinite(h0)
    with mpmath.workprec(80):
        h0 = h_jet(1, p, mpmath.mpc(2), 1).values[0]
        assert h0.real > 0 and mpmath.isfinite(h0)


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


def test_h_jet_any_order():
    # order 8 against sympy's derivatives of h = (z^n - 1) e^p, taken as
    # h^(k) = Q_k e^p with Q_0 = z^n - 1, Q_(k+1) = Q_k' + Q_k p', polynomials
    # in z: exact at z = 1, where p = 0, and evalf(60) at a complex point
    # against a 200-bit jet
    zs = sympy.symbols("z")
    z0 = sympy.Rational(3, 2) + sympy.I / 2
    for n in range(1, 7):
        p = build_p(n)
        u = sympy.Poly(zs**n - 1, zs)
        P = sum((sympy.Rational(c.numerator, c.denominator) * u**k
                 for k, c in enumerate(p, 1)), sympy.Poly(0, zs))
        Q = [u]
        for _ in range(8):
            Q.append(Q[-1].diff(zs) + Q[-1] * P.diff(zs))
        assert h_jet(n, p, Fraction(1), 8).values == tuple(q.eval(1) for q in Q), n
        e = sympy.exp(P.as_expr().subs(zs, z0))
        with mpmath.workprec(200):
            got = h_jet(n, p, mpmath.mpc(1.5, 0.5), 8).values
            for q, g in zip(Q, got):
                re, im = (q.as_expr().subs(zs, z0) * e).evalf(60).as_real_imag()
                w = mpmath.mpc(mpmath.mpf(str(re)), mpmath.mpf(str(im)))
                assert abs(g - w) <= mpmath.mpf(10) ** -55 * abs(w), n
    with pytest.raises(ValueError, match="jet order must be >= 0"):
        h_jet(2, build_p(2), Fraction(1), -1)


@pytest.mark.parametrize("z", [0.5 + 0.25j, np.complex128(1.9), 1 + 0j, 0, 2.0])
def test_h_jet_is_mpmath_off_fractions(family, z):
    # no scalar jet runs in binary64: a python or numpy point becomes an
    # mpmath.mpc, the node z = 1 and far points where e^p leaves binary64
    # included
    for n in (1, 3, 6):
        for J in (0, 2, 4):
            hj = h_jet(n, family[n].p, z, J)
            assert all(isinstance(v, mpmath.mpc) for v in hj.values), (n, J)
            assert all(mpmath.isfinite(v) for v in hj.values)


def test_exp_jet_exact_where_p_vanishes():
    # p' = 1/3, p'' = 2 at u = 0: E = (1, 1/3, 19/9), so h^(m) = m E^(m-1)
    hj = h_jet(1, (Fraction(1, 3), Fraction(1), Fraction(0)), Fraction(1), 3)
    assert hj.values == (0, 1, Fraction(2, 3), Fraction(19, 3))
    assert all(isinstance(v, (int, Fraction)) for v in hj.values)


def test_h_vanishes_at_all_nodes(family):
    for n, F in family.items():
        for ell in range(n):
            z = root_of_unity(n, ell)
            assert abs(h_jet(n, F.p, z, 0).values[0]) <= 1e-12


def moduli_points():
    # the lemma2 probe's points (and more) for the orders and precisions of
    # the benchmark's records, random points of its domain, the circle
    # |z| = 2 (1 - 2^-(3n+40)) that the witness search bisects on, and
    # z = -1 at odd n, where u = -2 is an even integer
    rng = np.random.default_rng(41)
    for n in range(1, 13):
        for z in (0, 1.5, 1.5j, -0.6 + 0.3j, 1.2 + 1.2j, -1.85, 0.5j, 0.3 + 0.1j):
            yield n, 53 if n < 7 else 128, z
    count = 0
    while count < 100:
        z = complex(*rng.uniform(-1.9, 1.9, 2))
        if abs(z) <= 1.9 and abs(abs(z) - 1) >= 0.1:
            n = int(rng.integers(1, 61))
            yield n, int(rng.choice([53, 128, 3 * n + 64])), z
            count += 1
    for n in (2, 4, 19, 20, 30, 60, 200):
        with mpmath.workprec(3 * n + 64):
            r = 2 * (1 - mpmath.ldexp(1, -(3 * n + 40)))
            for k in range(12):
                yield n, 3 * n + 64, r * mpmath.expj(mpmath.pi * k / (12 * n))
    for n in (1, 3, 5):
        yield n, 53, -1


def test_h_parts_against_jet_oracle():
    # log|h| and log(|h^(l)| / |h|^(l+1)), l = 1, 2, as the checks take
    # them from h_parts at a precision, log|u|^2 / 2 + Re p,
    # log D^2 / 2 - log|u|^2 - Re p and log S^2 / 2 - 2 Re p, against the
    # 3n + 200-bit jet: within 64 ulps of the scale n + 1 + sum |c_k| |u|^k,
    # which bounds the rounding of u and p (both the closed forms and the
    # jet lose about |p| ulps where e^(Re p) is huge); the jet at the same
    # precision meets the same bound. A part is exactly 0 where the
    # derivative is (h' at z = 0 from n = 2 on, h'' of n = 1)
    for n, prec, z in moduli_points():
        with mpmath.workprec(3 * n + 200):
            z = mpmath.mpc(z)
            want = [abs(v) for v in h_jet(n, build_p(n), z, 2).values]
            u = abs(z**n - 1)
            scale = n + 1 + sum(abs(c) * u**k for k, c in enumerate(build_p(n), 1))
        with mpmath.workprec(prec):
            u2, re_p, d2, s2 = h_parts(n, z)
            log_u2 = mpmath.log(u2)
            got = (
                (u2, log_u2 / 2 + re_p),
                (d2, mpmath.log(d2) / 2 - log_u2 - re_p),
                (s2, mpmath.log(s2) / 2 - 2 * re_p),
            )
            jet = [abs(v) for v in h_jet(n, build_p(n), z, 2).values]
        with mpmath.workprec(3 * n + 200):
            tol = 64 * mpmath.ldexp(scale, -prec)
            for l, (part, log_q) in enumerate(got):
                if want[l] == 0:
                    assert part == 0, (n, z, l)
                    continue
                q = mpmath.log(want[l])
                q = q - (l + 1) * mpmath.log(want[0]) if l else q
                assert abs(log_q - q) <= tol, (n, z, l)
                if l:
                    assert abs(mpmath.log(jet[l]) - (l + 1) * mpmath.log(jet[0]) - q) <= tol, (n, z)


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
    assert kernels.ratio_log(1, 0.5) == MINUS_INFINITY


def test_ratio_log_matches_direct_quotient():
    p = build_p(2)
    for z in (2 + 0j, 1.002 + 0j, 1 + 1e-9j, 0.5 + 1.2j):
        with mpmath.workprec(200):
            hj = h_jet(2, p, z, 2)
            direct = float(mpmath.log(abs(hj.values[2]) / abs(hj.values[0]) ** 3))
        got = kernels.ratio_log(2, z)
        assert abs(math.expm1(got - direct)) <= 1e-6


def test_log_space_consistency_where_direct_is_representable(family):
    rng = np.random.default_rng(17)
    for n in (2, 3):
        F = family[n]
        checked = 0
        while checked < 15:
            z = sample_disk(rng)
            with mpmath.workprec(200):  # h'' cancels near the nodes
                hj = h_jet(n, F.p, z, 2)
                denom = abs(hj.values[0]) ** 3
                direct = abs(hj.values[2]) / denom if denom else mpmath.inf
            if direct == 0 or not mpmath.isfinite(direct):
                continue
            got = kernels.ratio_log(n, z)
            assert abs(math.expm1(got - math.log(direct))) <= 1e-6
            checked += 1


# c_hat = exp(log C*_n) / estimate_m


def test_estimate_c_order_one():
    assert log_c_star(1)[0] == MINUS_INFINITY  # S_1 = 0: h_1'' = 0
    assert construct(1).c_hat == 0


def oracle_log_c(n, grid=256):
    """log c_n = log max |h''/h^3| on |z| = 2, from mpmath alone at 3n + 200
    bits: the sign changes of Im(w A(u) conj S_n(u)), A = S_n' - 2 p' S_n,
    on `grid` + 1 angles phi of w = 2^n e^(i phi) in [0, pi] (the function
    is even in phi), each refined by the Illinois method, and phi = 0, pi;
    |h''/h^3| at each from forge.h_jet. Neither np.roots nor
    critical_quintic nor binary64 enters."""
    with mpmath.workprec(3 * n + 200):
        c1, c2, c3 = (mpmath.mpf(c.numerator) / c.denominator for c in build_p(n))
        s0, s1, s2, s3 = (mpmath.mpf(c.numerator) / c.denominator for c in build_s(n))
        R = mpmath.mpf(2) ** n

        def T(phi):
            w = R * mpmath.expj(phi)
            u = w - 1
            S = s0 + u * (s1 + u * (s2 + u * s3))
            A = s1 + u * (2 * s2 + 3 * s3 * u) - 2 * (c1 + u * (2 * c2 + 3 * c3 * u)) * S
            return mpmath.im(w * A * mpmath.conj(S))

        phis = [mpmath.pi * k / grid for k in range(grid + 1)]
        vals = [T(phi) for phi in phis]
        crit = [phis[0], phis[-1]]
        for a, b, ta, tb in zip(phis, phis[1:], vals, vals[1:]):
            if ta * tb < 0:
                crit.append(mpmath.findroot(T, (a, b), solver="illinois", verify=False))
        best = -mpmath.inf
        for phi in crit:
            hj = h_jet(n, build_p(n), 2 * mpmath.expj(phi / n), 2)
            best = max(best, mpmath.log(abs(hj[2])) - 3 * mpmath.log(abs(hj[0])))
        return best


@pytest.mark.parametrize("n", list(range(2, 25)) + [60, 100, 339])
def test_margin_against_mpmath_oracle(n):
    # the design margin log c_n - 2 log a <= -log(2n), for the record
    # construct builds, with c_n from the oracle; at n = 19 the sampled
    # c_hat of the scan it replaces left a margin of +4.5e11
    F = construct(n)
    want = oracle_log_c(n)
    with mpmath.workprec(3 * n + 200):
        margin = want - 2 * mpmath.log(F.a)
        assert margin <= -mpmath.log(2 * n) + mpmath.mpf("1e-6"), n
        # C*_n is an upper bound, and a tight one: its only slack is the
        # width of its brackets and the rounding up to binary64
        log_c = mpmath.mpf(log_c_star(n)[0])
        assert want <= log_c <= want + 1e-15 * abs(want), n


def test_new_record_holds_at_the_old_witness():
    # the point on |z| = 2 where the n = 19 record of the sampled c_hat
    # breaks the inequality, |f''|/(1 + |f|^3) = 1.15e35 there; the record
    # of C*_19 keeps it below 1 (and below 1/(2n) by the certificate)
    z = mpmath.mpc("1.9878413947920802591", "0.22019670558633912184")
    old, _ = storage.load_function(DATA / "undershot_f19.json")
    for F, bounded in ((construct(19), True), (old, False)):
        with mpmath.workprec(400):
            hj = h_jet(19, F.p, z, 2)
            q = F.a * abs(hj[2]) / (1 + (F.a * abs(hj[0])) ** 3)
        assert (q <= 1) == bounded, q


def test_forge_does_not_import_kernels():
    # forge imports no grid kernel: importing normfam.forge leaves
    # normfam.kernels unloaded, and so do construct (C*_n and the m_hat
    # scan) and the max-modulus and inequality checks; only a grid export
    # loads it
    code = (
        "import sys\n"
        "import normfam.forge\n"
        "loaded = ['normfam.kernels' in sys.modules]\n"
        "from normfam import analysis\n"
        "F = normfam.forge.construct(5)\n"
        "analysis.max_modulus_check(F), analysis.verify_inequality(F)\n"
        "print(loaded + ['normfam.kernels' in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[False,", "False]"]


def test_estimate_c_refuses_overflowed_scan():
    # from n = 340 on the grid kernels' S_n(u) overflows binary64 on
    # |z| = 2, so construct refuses the order before any work; n = 1 has
    # h'' = 0
    for n in (340, 400, 10**6):
        start = time.perf_counter()
        with pytest.raises(Overflow, match="overflows binary64"):
            log_c_star(n)
        assert time.perf_counter() - start < 0.01, n
    assert 0 < mpmath.exp(log_c_star(339)[0]) < mpmath.inf
    assert mpmath.exp(log_c_star(1)[0]) == 0


def test_estimate_c_stable_under_grid_doubling():
    # c_hat is C*_n: no scan grid enters it, and a cold bound is the
    # memoized one
    c = construct(2).c_hat
    log_c_star.cache_clear()
    assert construct(2).c_hat == c == mpmath.exp(log_c_star(2)[0])


def test_estimate_c_dominates_interior_samples(family):
    rng = np.random.default_rng(23)
    for n, F in family.items():
        if n == 1:
            continue
        bound = float(mpmath.log(F.c_hat)) + math.log1p(1e-4)
        count = 0
        while count < 500:
            z = sample_disk(rng)
            assert kernels.ratio_log(n, z) <= bound
            count += 1


def test_estimate_c_matches_full_circle():
    # C*_n bounds the 1024 n-angle kernel scan of |z| = 2 and exceeds it by
    # no more than the scan's angle step can miss
    for n in range(2, 13):
        theta = np.linspace(0.0, 2.0 * math.pi, 1024 * n, endpoint=False)
        zs = 2.0 * np.exp(1j * theta)
        scan = float(np.max(kernels.ratio_log(n, zs)))
        got = log_c_star(n)[0]
        assert scan <= got <= scan + 1e-4 * abs(scan), n


def test_log_c_star_every_order():
    # every order construct takes: finite, above the exact |h''/h^3| (by
    # h_parts at 3n + 64 bits) at the best angle of a 512-angle scan of
    # |z| = 2 in w = z^n, within what that scan's step can miss,
    # (9/2)(pi/512)^2 of the log (so no bracket fell back to a wide
    # isolating interval), attained at a cosine in [-1, 1], and passing the
    # max-modulus check against its value there. The binary64 scan itself
    # may exceed the tight C*_n: by up to 2.8e-14 of it from n = 102 on,
    # its own rounding
    for n in range(2, 340):
        log_c, x = log_c_star(n)
        theta = sector_angles(n, 512)
        logs = kernels.ratio_log(n, 2.0 * np.exp(1j * theta))
        best = int(np.argmax(logs))
        with mpmath.workprec(3 * n + 64):
            _, re_p, _, s2 = h_parts(n, 2 * mpmath.expj(theta[best]))
            assert mpmath.log(s2) / 2 - 2 * re_p <= log_c, n
        F = CounterexampleFunction(n, build_p(n), 2 * n, 0, 1)
        assert analysis.max_modulus_check(F).passed, n
        assert log_c - logs[best] <= 5 * (math.pi / 512) ** 2 * log_c and -1 <= x <= 1, n


@pytest.mark.parametrize("n", [*range(54, 61), 100, 339])
def test_log_c_star_peak_angle_past_binary64_ties(n):
    # from n = 54 on the raised binary64 values at arg w = 0 and near
    # arg w = 2 pi/3 tie; the peak is the latter, where the 3n + 200-bit
    # jet of h exceeds its value at w = 2^n and reaches log C*_n
    log_c, x = log_c_star(n)
    assert abs(math.acos(x) - 2 * math.pi / 3) < 1e-6, x
    with mpmath.workprec(3 * n + 200):

        def g(x):
            hj = h_jet(n, build_p(n), 2 * mpmath.expj(mpmath.acos(x) / n), 2)
            return mpmath.log(abs(hj[2])) - 3 * mpmath.log(abs(hj[0]))

        peak = g(mpmath.mpf(x))
        assert peak > g(mpmath.mpf(1)) and log_c - 1e-12 * abs(log_c) <= peak <= log_c


def test_critical_quintic_roots_are_critical_points():
    # at every root c of V in [-1, 1] the phi-derivative of log|h''/h^3| on
    # |z| = 2, taken by mpmath.diff of forge.h_jet logs, vanishes
    for n in (2, 3, 7, 12):
        V = critical_quintic(n)
        roots = np.roots([float(v) for v in V[::-1]])
        roots = [r.real for r in roots if abs(r.imag) < 1e-12 and abs(r.real) < 1]
        assert roots, n
        with mpmath.workprec(3 * n + 100):
            def g(phi):
                hj = h_jet(n, build_p(n), 2 * mpmath.expj(phi / n), 2)
                return mpmath.log(abs(hj[2])) - 3 * mpmath.log(abs(hj[0]))

            scale = abs(g(mpmath.mpf(1)))
            for c in roots:
                assert abs(mpmath.diff(g, mpmath.acos(c))) <= 1e-9 * scale, (n, c)


@pytest.mark.parametrize("n", [*range(1, 13), 60, 339])
def test_circle_expansion_matches_mpmath(n):
    # the integer polynomials in x = cos phi that forge._on_circle gives on
    # |w| = A / B, P of B^3 24 n^2 Re p, Q of B^6 (576 n^3)^2 |S_n|^2 and L
    # of B^2 |u|^2, u = w - 1: on the rim |w| = 2^n of C*_n and on the
    # circles |w| = k^n / n^n of the m_hat scan, against p and S_n at
    # u = (A / B) e^(i phi) - 1 in complex mpmath at 3n + 200 bits. The
    # inner circle, |w| near 1/e, weighs every power of w alike, and n^n
    # tells each power of B apart
    p_int, s_int = forge._scaled_cubics(n)
    Pw, Sw, u = forge._in_w(0, *p_int), forge._in_w(*s_int), (-1, 1)
    ks = (0,) if n == 1 else (n - 1, n + 1, 2 * n - 1)
    with mpmath.workprec(3 * n + 200):
        p, s = ([mpmath.mpf(c.numerator) / c.denominator for c in C] for C in (build_p(n), build_s(n)))
        for A, B in [(2**n, 1)] + [(k**n, n**n) for k in ks]:
            got = [forge._on_circle(Pw, (1,), A, B), forge._on_circle(Sw, Sw, A, B), forge._on_circle(u, u, A, B)]
            for phi in (0.3, 1.7, 2.9):
                w = mpmath.mpf(A) / B * mpmath.expj(phi)
                want = [
                    mpmath.mpf(B) ** 3 * 24 * n * n * mpmath.re(mpmath.polyval(p[::-1] + [0], w - 1)),
                    mpmath.mpf(B) ** 6 * (576 * n**3) ** 2 * abs(mpmath.polyval(s[::-1], w - 1)) ** 2,
                    mpmath.mpf(B) ** 2 * abs(w - 1) ** 2,
                ]
                for C, v in zip(got, want):
                    C = [mpmath.mpf(c) for c in C]
                    scale = sum(abs(c) for c in C)
                    assert abs(forge._horner(C, mpmath.cos(phi)) - v) <= scale * 2**-100, (n, A, phi)


@pytest.mark.parametrize(
    "n, M",
    [(1, 64), (4, 512), (5, 512), (12, 512), (3, 3 * 64), (6, 6 * 65), (4, 262)],
)
def test_distinct_angles(n, M):
    # the z-angles of sector_angles are the images under z -> z^n of the
    # w-angles 2 pi j / M, j = 0..M // 2, that the m_hat scan takes at
    # M = GRID_M: the first M // 2 + 1 of the M n equispaced z-angles, all
    # in [0, pi/n], which with their conjugates reach all M w-angles
    theta = sector_angles(n, M)
    full = np.linspace(0.0, 2.0 * math.pi, M * n, endpoint=False)
    assert np.array_equal(theta, full[: M // 2 + 1]) and theta[-1] <= math.pi / n
    j = np.rint(n * theta * (M / (2.0 * math.pi))).astype(int)
    assert np.array_equal(j, np.arange(M // 2 + 1))
    assert set(j) | set(-j % M) == set(range(M))


@pytest.mark.parametrize("n", list(range(1, 13)) + [200, 339])
def test_log_c_bound_dominates_boundary_scan(n):
    # the bound C*_n of log_c_star against 16,384 angles of w = z^n on
    # |z| = 2, where the entire h''/h^3 attains its max modulus: at or above
    # the exact value (h_parts at 3n + 64 bits) at the scan's best angle,
    # since the binary64 scan may round above C*_n from n = 102 on; n = 1
    # gives -inf on both sides
    theta = sector_angles(n, 32 * 512)
    logs = kernels.ratio_log(n, 2.0 * np.exp(1j * theta))
    with mpmath.workprec(3 * n + 64):
        _, re_p, _, s2 = h_parts(n, 2 * mpmath.expj(theta[int(np.argmax(logs))]))
        assert mpmath.log(s2) / 2 - 2 * re_p <= log_c_star(n)[0]


def test_estimate_m_order_one():
    assert estimate_m(1) == 0.5


def grid_log_m(n, p, M, count, k):
    """Sampled min of log|h| over the k radii of linspace(0, 2 - 1/n) that
    lie in K_n, at the first `count` of the M*n angles 2 pi j / (M n) each:
    the scan estimate_m made before it moved to the boundary circles (there
    k = M/8, count = M*n), kept as an oracle; log|u| + Re p in complex
    binary64, 16 radii at a time."""
    radii = np.linspace(0.0, 2.0 - 1.0 / n, k)
    radii = radii[np.abs(radii - 1.0) >= 1.0 / n]
    e = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, M * n, endpoint=False)[:count])
    c1, c2, c3 = (float(c) for c in p)
    best = math.inf
    for rows in np.array_split(radii, -(-len(radii) // 16)):
        u = np.outer(rows, e) ** n - 1
        best = min(best, float(np.min(np.log(np.abs(u)) + (u * (c1 + u * (c2 + c3 * u))).real)))
    return best


@pytest.mark.parametrize("k", [64, 256])
def test_estimate_m_matches_radius_grid(exponents, k):
    # the grid minimum lies on |z| = 2 - 1/n, the last of the k radii and
    # one that both scans sample, however fine the radius grid; and the
    # first M / 2 + 1 angles, those in [0, pi/n], are the ones estimate_m
    # evaluates, M = GRID_M; rotation and reflection carry them onto the
    # others. The two scans round differently: estimate_m takes log|h| as
    # a real function of cos(arg z^n), the oracle as one of complex z
    M = GRID_M
    for n, p in exponents.items():
        got = float(mpmath.log(2 * estimate_m(n)))
        for count in (M // 2 + 1, M * n):
            want = grid_log_m(n, p, M, count, k)
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (n, count)


def mp_log_m(n, M, prec=64):
    """min log|h| at the w-angles 2 pi j / M, j = 0..M // 2, on each circle
    |w| = r^n, r = 1 - 1/n, 1 + 1/n, 2 - 1/n (w = 0 for n = 1), from
    u = w - 1 and Re p(u) in complex mpmath at `prec` bits: no expansion
    in cos(arg w), no binary64."""
    with mpmath.workprec(prec):
        c1, c2, c3 = (mpmath.mpf(c.numerator) / c.denominator for c in build_p(n))
        ks = (0,) if n == 1 else (n - 1, n + 1, 2 * n - 1)
        turns = [mpmath.expj(2 * mpmath.pi * j / M) for j in range(M // 2 + 1)]
        best = mpmath.inf
        for R in (mpmath.mpf(k) ** n / mpmath.mpf(n) ** n for k in ks):
            for t in turns:
                u = R * t - 1
                best = min(best, mpmath.log(abs(u)) + mpmath.re(u * (c1 + u * (c2 + c3 * u))))
        return best


@pytest.mark.parametrize("n", [*range(1, 25), 60, 339])
def test_estimate_m_matches_mpmath_at_its_angles(n):
    # the real polynomials in cos(arg z^n), by Horner's rule, against the
    # complex mpmath evaluation of the same 3 x 513 points. K_1 = {0} is
    # one point; the others take GRID_M / 2 + 1 angles per circle, and the
    # min over them is the scan's, to its binary64 rounding
    want = mp_log_m(n, GRID_M)
    got = mpmath.log(2 * estimate_m(n))
    assert abs(got - want) <= 1e-14 * max(1, abs(want)), n


def test_estimate_m_positive(family):
    for n, F in family.items():
        assert F.m_hat > 0


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


def test_choose_a_rounds_both_floors_up():
    # a^2 >= 2 n c_hat and a m_hat >= 2n in exact arithmetic, at every
    # working precision; rounded to nearest, a fell 1 ulp below
    # sqrt(2 n c_hat) for 15 of the 53-bit records of n = 1..40
    rng = np.random.default_rng(37)
    for prec in (53, 128, 400):
        with mpmath.workprec(prec):
            for _ in range(40):
                n = int(rng.integers(1, 60))
                c = mpmath.mpf(float(rng.uniform(0, 100))) * mpmath.ldexp(1, int(rng.integers(0, 4000)))
                m = mpmath.mpf(float(rng.uniform(1e-6, 10))) * mpmath.ldexp(1, -int(rng.integers(0, 50)))
                a = choose_a(n, c, m)
                assert mpmath.fmul(a, a, exact=True) >= mpmath.fmul(2 * n, c, exact=True)
                assert mpmath.fmul(a, m, exact=True) >= 2 * n


@pytest.mark.parametrize("precision", [53, 128])
def test_records_clear_their_floors_at_any_precision(precision):
    # read at more bits than it was built with, a record still passes its
    # gate, a >= sqrt(2 n c_hat) and a >= 2n / m_hat
    for n in range(1, 61):
        F = construct(n, precision=precision)
        for bits in (400, MAX_PRECISION):
            dataclasses.replace(F, precision=bits)  # the gate runs at those bits


def test_gate_decides_both_floors_exactly():
    # rounded to nearest at 53 bits, sqrt(10 c_hat) squares to 7.4e-17 of
    # 10 c_hat below it, and 10/11 times 11 falls below 10; a gate that
    # rounds its floors the same way accepts both
    with mpmath.workprec(53):
        c_hat = mpmath.mpf(3 * 10**30) / 7
        a_c, a_m = mpmath.sqrt(10 * c_hat), mpmath.mpf(10) / 11
    with pytest.raises(InvariantViolation, match="inequality floor"):
        CounterexampleFunction(5, build_p(5), a_c, c_hat, mpmath.mpf(10**40), 53)
    with pytest.raises(InvariantViolation, match="divergence floor"):
        CounterexampleFunction(5, build_p(5), a_m, 0, 11, 53)


@pytest.mark.parametrize("inf", ["a", "m_hat", "a and c_hat"])
def test_gate_refuses_infinite_magnitudes(inf):
    # inf > 0, inf >= 0 and inf < inf is false, so both exact floors hold
    # for an infinite a (and for a = c_hat = inf); the gate refuses each
    F = construct(4)
    big = {"a": F.a, "c_hat": F.c_hat, "m_hat": F.m_hat}
    for key in inf.split(" and "):
        big[key] = mpmath.inf
    with pytest.raises(InvariantViolation, match="magnitudes out of range"):
        CounterexampleFunction(4, F.p, precision=53, **big)


def old_gate(n, a, c_hat, m_hat):
    """The record gate's magnitude checks in mpmath objects, as they were
    before they read libmp tuples: the reference for the tuple gate."""
    finite = mpmath.isfinite(a) and mpmath.isfinite(c_hat) and mpmath.isfinite(m_hat)
    if not (finite and a > 0 and m_hat > 0 and c_hat >= 0):
        return "range"
    if mpmath.fmul(a, a, exact=True) < mpmath.fmul(2 * n, c_hat, exact=True):
        return "inequality"
    if mpmath.fmul(a, m_hat, exact=True) < 2 * n:
        return "divergence"
    return None


def gate(n, a, c_hat, m_hat):
    # the gate's verdict in old_gate's words
    try:
        CounterexampleFunction(n, build_p(n), a, c_hat, m_hat, 53)
    except InvariantViolation as exc:
        return next(k for k in ("range", "inequality", "divergence") if k in str(exc))
    return None


def ulp_below(x, bits):
    # the bits-bit number next below the positive x, which has <= bits bits
    shift = bits - int(x.bc)
    man, exp = (int(x.man) << shift) - 1, int(x.exp) - shift
    return mpmath.mp.make_mpf(mpmath.libmp.from_man_exp(man, exp))


def gate_cases():
    nan, inf = mpmath.nan, mpmath.inf
    for bits, n in ((53, 5), (128, 9)):
        F = construct(n, bits)
        a, c, m = F.a, F.c_hat, F.m_hat
        with mpmath.workprec(bits):
            # each floor rounded up, alone: c_hat = 0 or m_hat = 2^4000
            s = choose_a(n, c, mpmath.ldexp(1, 4000))
            t = choose_a(n, 0, m)
        yield n, a, c, m
        for bad in (inf, -inf, nan, 0, -a, float("inf"), float("nan"), -0.0):
            yield n, bad, c, m
            yield n, a, c, bad
            yield n, a, bad, m
        yield n, a, -c, m
        yield n, s, c, mpmath.ldexp(1, 4000)
        yield n, ulp_below(s, bits), c, mpmath.ldexp(1, 4000)
        yield n, t, 0, m
        yield n, ulp_below(t, bits), 0, m
    # int magnitudes above 2^53, decided exactly: a^2 = 2 n c_hat holds
    # for a = 2^60 + 1, and fails for 2^60, which binary64 takes it for
    big = 2**60 + 1
    c = mpmath.mp.make_mpf(mpmath.libmp.from_man_exp(big * big, -1))
    for a in (big, big - 1, float(big)):
        yield 1, a, c, mpmath.mpf(1)


@pytest.mark.parametrize("case", list(gate_cases()))
def test_tuple_gate_decides_as_the_mpmath_gate(case):
    assert gate(*case) == old_gate(*case)


def test_gate_cases_reach_every_verdict():
    # a one ulp below either floor, at 53 and 128 bits, and an int a of
    # 2^60 or a float taken for 2^60 + 1, are refused; a string raises
    # TypeError, as it did before
    verdicts = [gate(*case) for case in gate_cases()]
    assert verdicts.count("inequality") == 4 and verdicts.count("divergence") == 2
    assert verdicts.count(None) == 11  # c_hat = 0 and -0.0 pass too
    with pytest.raises(TypeError):
        CounterexampleFunction(1, build_p(1), "4", 0, 1)


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
    assert construct(3, 53) == construct(3, 53)


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


@pytest.mark.parametrize("bits", [52, MAX_PRECISION + 1])
def test_construct_refuses_precision_out_of_range(bits):
    with pytest.raises(ValueError, match="precision"):
        construct(3, bits)


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


@pytest.fixture(scope="module")
def record_12_128():
    return construct(12, precision=128)


def test_f_jet_runs_at_record_precision(record_12_128):
    # h's jet runs at the record's 128 bits too, not at 53: f'' agrees with
    # a 256-bit evaluation far below binary64's rounding
    F = record_12_128
    z = mpmath.mpc(0.5, 0.25)
    fj = f_jet(F, z, 2)
    with mpmath.workprec(256):
        want = F.a * h_jet(12, F.p, z, 2)[2]
        assert abs(fj[2] - want) <= mpmath.mpf("1e-30") * abs(want)


def test_f_jet_exact_node(family):
    # at Fraction(1) h's jet is exact, (0, n, 0), and f's is (0, n a, 0)
    F = family[3]
    fj = f_jet(F, Fraction(1), 2)
    assert fj.values == (0, 3 * F.a, 0)
    assert all(isinstance(v, mpmath.mpc) for v in fj.values)


def test_f_jet_where_e_p_leaves_double_range(record_12_128):
    # Re p(1.9) is about -1.2e9 at n = 12, far past binary64's exponent
    fj = f_jet(record_12_128, 1.9, 2)
    assert all(mpmath.isfinite(v) for v in fj.values)
    assert fj.values[0] != 0 and fj.values[2] != 0


def test_f_jet_high_precision_record():
    F = construct(5, precision=128)
    fj = f_jet(F, root_of_unity(5, 0, 128), 1)
    assert abs(fj.values[0]) == 0
    rel = abs(abs(fj.values[1]) - F.a * 5) / (F.a * 5)
    assert rel < 1e-10
