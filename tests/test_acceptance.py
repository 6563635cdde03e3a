"""Acceptance gate: the ten headline claims about the family
f_n = a_n (z^n - 1) exp(p_n), n = 1..6, each at its stated tolerance.

Run with -s to see one summary line per claim; each test covers the
whole range of orders so the suite stays a flat list of ten checks.
"""

import json

import mpmath
import sympy
from conftest import f_jet, p_jet, root_of_unity

from normfam.analysis import (
    lemma2_probe,
    marty_probe,
    max_modulus_check,
    verify_inequality,
    verify_node_jets,
)
from normfam.forge import construct
from normfam.storage import function_to_json, parse_function

ORDERS = range(1, 7)


def test_01_node_jet_residuals(family):
    # h'', h''', h'''' vanish at every node: the exact residual is 0
    for n in ORDERS:
        rep = verify_node_jets(family[n])
        assert rep.passed, f"n={n}: residual {rep.max_inequality:.3e}"
        assert rep.max_inequality == 0.0
    print("pass: node jets vanish, exact residual 0 for n = 1..6")


def test_02_exponent_degree_bound(family):
    # p_n = c1 u + c2 u^2 + c3 u^3 with u = z^n - 1, expanded in z by sympy
    z = sympy.symbols("z")
    for n in ORDERS:
        c1, c2, c3 = (sympy.Rational(c.numerator, c.denominator) for c in family[n].p)
        u = z**n - 1
        degree = sympy.degree(sympy.expand(c1 * u + c2 * u**2 + c3 * u**3), z)
        assert degree <= 4 * n - 1, f"n={n}: degree {degree}"
    print("pass: degree(p_n) = 3n <= 4n-1 for n = 1..6")


def test_03_differential_inequality(family):
    # certified on the closed disk |z| <= 2: the bound C*_n / a^2 of the
    # quotient, from the critical points of |h''/h^3| on |z| = 2
    maxima = {}
    for n in ORDERS:
        rep = verify_inequality(family[n])
        assert rep.passed, f"n={n}: max {rep.max_inequality}"
        assert rep.max_inequality <= 1.0 + 1e-12
        if n >= 2:
            assert rep.max_inequality <= 1.0 / n + 1e-12, f"n={n}"
        maxima[n] = rep.max_inequality
    print(
        "pass: |f''|/(1+|f|^3) <= 1/n + 1e-12 on |z| <= 2 (certified), "
        f"maxima {', '.join(f'n={n}: {m:.3e}' for n, m in maxima.items())}"
    )


def test_04_node_annihilation(family):
    # the inequality functional itself is rounding-level zero at nodes
    worst = 0.0
    for n in ORDERS:
        rep = verify_inequality(family[n])
        assert rep.node_residuals[0] == 0.0  # the exact residual at z = 1
        assert all(v <= 1e-12 for v in rep.node_residuals), f"n={n}"
        worst = max(worst, *rep.node_residuals)
    print(f"pass: node values of the functional <= {worst:.3e} (rounding zero)")


def test_05_max_modulus(family):
    # the certified max C*_n of |h''/h^3| on |z| = 2 lies within 1e-14 of
    # its log above the value at its own peak; the maximum principle
    # carries it inward
    for n in ORDERS:
        rep = max_modulus_check(family[n])
        assert rep.passed, f"n={n}: {rep.notes}"
    print("pass: boundary max C*_n of |h''/h^3| attained at its peak, n = 1..6")


def test_06_blowup_on_the_unit_circle(family):
    Fs = [family[n] for n in ORDERS]
    pr = marty_probe(Fs, 1 + 0j, 0.1)
    assert pr.verdict == "blowup"
    for n, m in zip(pr.n_values, pr.measurements):
        F = family[n]
        with mpmath.workprec(120):
            target = mpmath.mpf(n) * F.a
            rel = abs(m - target) / target
        assert rel <= 1e-10, f"n={n}: relative gap {float(rel):.3e}"
        assert m > 2 * n * n
    assert all(a < b for a, b in zip(pr.measurements, pr.measurements[1:]))
    print("pass: spherical-derivative sup = n a_n (rel 1e-10), "
          "strictly increasing, > 2n^2")


def test_07_interior_and_exterior_decay(family):
    Fs = [family[n] for n in range(2, 7)]
    inner = lemma2_probe(Fs, [0j], [2])
    assert inner.verdict == "decay"
    for n, m in zip(inner.n_values, inner.measurements):
        assert m <= mpmath.mpf(1) / n, f"n={n}"
    outer = lemma2_probe(Fs, [1.5 + 0j], [1])
    ms = outer.measurements
    assert all(a > b for a, b in zip(ms, ms[1:]))
    assert ms[-1] <= mpmath.mpf("0.1")
    print("pass: |f''/f^3|(0) <= 1/n and |f'/f^2|(1.5) decreasing to <= 0.1")


def test_08_first_derivative_closed_form(family):
    # p_n'(z_l) = -(n-1)/(2 z_l), an algebraic consequence of the
    # node conditions, checked independently of the builder
    for n in ORDERS:
        for ell in range(n):
            z = root_of_unity(n, ell)
            got = p_jet(n, family[n].p, z, 1)[1]
            want = -(n - 1) / (2 * z)
            if n == 1:
                assert got == 0
            else:
                assert abs(got - want) <= 1e-10 * abs(want), f"n={n}, l={ell}"
    print("pass: p_n'(z_l) = -(n-1)/(2 z_l) to relative 1e-10 at all nodes")


def test_09_trivial_member(family):
    F = family[1]
    assert F.p == (0, 0, 0)
    assert F.c_hat == 0
    z = 0.3 - 0.7j
    jet = f_jet(F, z, 1)
    assert jet[0] == F.a * (z - 1) and jet[1] == F.a
    rep = verify_inequality(F)
    assert rep.max_inequality == 0.0
    print("pass: n = 1 gives p = 0, c = 0, f = a(z-1), max inequality exactly 0")


def test_10_determinism_and_round_trip(family):
    first = function_to_json(construct(4), 1024)
    second = function_to_json(construct(4), 1024)
    assert first == second
    for n in ORDERS:
        text = function_to_json(family[n], 1024)
        G, gm = parse_function(json.loads(text))
        assert function_to_json(G, gm) == text
    print("pass: reconstruction is byte-identical and files round-trip losslessly")
