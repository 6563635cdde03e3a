"""Newton-form jets and Hermite interpolation: the oracle that the exact
cubic exponent is checked against."""

import mpmath
import numpy as np
import pytest

from normfam import DuplicateNodes
from normfam.cpoly import (
    HermiteSpec,
    NewtonPolynomial,
    eval_jet,
    hermite_interpolate,
)
from normfam.forge import Jet


def jet3(v0, v1, v2, v3):
    return Jet(3, (v0, v1, v2, v3))


def sample_disk(rng, radius=2.0):
    while True:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            return z


def sample_spec(rng, k, min_dist=0.1):
    nodes = []
    while len(nodes) < k:
        z = sample_disk(rng)
        if all(abs(z - w) >= min_dist for w in nodes):
            nodes.append(z)
    jets = tuple(
        jet3(*(complex(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(4)))
        for _ in nodes
    )
    return HermiteSpec(tuple(nodes), jets)


def max_node_residual(P, spec):
    worst = 0.0
    for node, jet in zip(spec.nodes, spec.jets):
        got = eval_jet(P, node, 3)
        for j in range(4):
            err = abs(got[j] - jet[j]) / max(1.0, abs(jet[j]))
            worst = max(worst, float(err))
    return worst


# eval_jet


def test_eval_jet_constant():
    P = NewtonPolynomial((), (5,))
    assert eval_jet(P, 2 + 1j, 2).values == (5, 0, 0)


def test_eval_jet_linear_at_center():
    P = NewtonPolynomial((1,), (3, 2))
    assert eval_jet(P, 1, 1).values == (3, 2)


def test_eval_jet_quadratic():
    # (z-1)(z+1) = z^2 - 1, so at 0 the jet is (-1, 0, 2)
    P = NewtonPolynomial((1, -1), (0, 0, 1))
    assert eval_jet(P, 0, 2).values == (-1, 0, 2)


def test_eval_jet_past_degree_is_zero():
    P = NewtonPolynomial((1, -1), (0, 0, 1))
    assert eval_jet(P, 0.5 + 0.5j, 5).values[3:] == (0, 0, 0)


def test_eval_jet_rejects_negative_order():
    P = NewtonPolynomial((), (5,))
    with pytest.raises(ValueError):
        eval_jet(P, 0, -1)


# hermite_interpolate


def test_taylor_at_origin():
    vals = (1 + 2j, -3j, 4.0, 6 + 6j)
    P = hermite_interpolate(HermiteSpec((0,), (jet3(*vals),)))
    assert P.centers == (0, 0, 0)
    assert P.coeffs == (vals[0], vals[1], vals[2] / 2, vals[3] / 6)


def test_zero_data_gives_zero_polynomial():
    spec = HermiteSpec((1, -1), (jet3(0, 0, 0, 0), jet3(0, 0, 0, 0)))
    P = hermite_interpolate(spec)
    assert all(c == 0 for c in P.coeffs)


def test_two_node_vanishing_derivative_data():
    # order-2 member: prescribed first three derivatives of the exponent
    # polynomial at the square roots of unity, value pinned to 0
    spec = HermiteSpec(
        (1, -1),
        (jet3(0, -0.5, 0.25, -0.25), jet3(0, 0.5, 0.25, 0.25)),
    )
    P = hermite_interpolate(spec)
    assert len(P.centers) == 7
    assert max_node_residual(P, spec) < 1e-12


def test_duplicate_nodes_within_tolerance():
    spec = HermiteSpec(
        (1 + 0j, 1 + 1e-15j),
        (jet3(0, 0, 0, 0), jet3(1, 0, 0, 0)),
    )
    with pytest.raises(DuplicateNodes):
        hermite_interpolate(spec)


def test_exactly_equal_nodes_rejected_by_spec():
    with pytest.raises(ValueError):
        HermiteSpec((1 + 0j, 1 + 0j), (jet3(0, 0, 0, 0), jet3(0, 0, 0, 0)))


def test_spec_requires_order_three():
    with pytest.raises(ValueError):
        HermiteSpec((0,), (Jet(2, (1, 2, 3)),))


def test_jet_length_checked():
    with pytest.raises(ValueError):
        Jet(3, (1, 2, 3))


# properties


def test_degree_bound():
    rng = np.random.default_rng(3)
    for k in range(1, 7):
        P = hermite_interpolate(sample_spec(rng, k))
        assert len(P.centers) == 4 * k - 1
        assert len(P.coeffs) == 4 * k


def test_interpolation_reproduces_jets_double():
    # double precision holds the 1e-8 bound for shallow tables; deeper
    # confluent tables lose digits to cancellation and are exercised at
    # 128 bits below
    rng = np.random.default_rng(2024)
    for _ in range(150):
        k = int(rng.integers(1, 3))
        spec = sample_spec(rng, k)
        P = hermite_interpolate(spec)
        assert max_node_residual(P, spec) <= 1e-8


def test_interpolation_reproduces_jets_128bit():
    rng = np.random.default_rng(2025)
    for _ in range(60):
        k = int(rng.integers(1, 7))
        spec = sample_spec(rng, k)
        with mpmath.workprec(128):
            mspec = HermiteSpec(
                tuple(mpmath.mpc(z) for z in spec.nodes),
                tuple(jet3(*(mpmath.mpc(v) for v in jet.values)) for jet in spec.jets),
            )
            P = hermite_interpolate(mspec)
            assert max_node_residual(P, mspec) <= 1e-8


def test_node_order_does_not_matter():
    rng = np.random.default_rng(7)
    for _ in range(40):
        k = int(rng.integers(2, 3))
        spec = sample_spec(rng, k)
        perm = rng.permutation(k)
        spec2 = HermiteSpec(
            tuple(spec.nodes[i] for i in perm),
            tuple(spec.jets[i] for i in perm),
        )
        P1 = hermite_interpolate(spec)
        P2 = hermite_interpolate(spec2)
        for _ in range(100):
            z = sample_disk(rng)
            v1 = eval_jet(P1, z, 0).values[0]
            v2 = eval_jet(P2, z, 0).values[0]
            assert abs(v1 - v2) <= 1e-8 * max(1.0, abs(v1))


def test_node_order_does_not_matter_128bit():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        spec = sample_spec(rng, k)
        perm = rng.permutation(k)
        with mpmath.workprec(128):
            ms = [
                HermiteSpec(
                    tuple(mpmath.mpc(spec.nodes[i]) for i in order),
                    tuple(
                        jet3(*(mpmath.mpc(v) for v in spec.jets[i].values))
                        for i in order
                    ),
                )
                for order in (range(k), perm)
            ]
            P1, P2 = (hermite_interpolate(m) for m in ms)
            for _ in range(100):
                z = mpmath.mpc(sample_disk(rng))
                v1 = eval_jet(P1, z, 0).values[0]
                v2 = eval_jet(P2, z, 0).values[0]
                assert abs(v1 - v2) <= 1e-8 * max(1.0, float(abs(v1)))


def test_jets_match_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(50):
        deg = int(rng.integers(1, 6))
        centers = tuple(sample_disk(rng, 1.0) for _ in range(deg))
        coeffs = tuple(
            complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            for _ in range(deg + 1)
        )
        P = NewtonPolynomial(centers, coeffs)
        z = sample_disk(rng, 1.5)
        h = 1e-5 * (1 + abs(z))
        got = eval_jet(P, z, 2)
        up = eval_jet(P, z + h, 0).values[0]
        dn = eval_jet(P, z - h, 0).values[0]
        mid = got.values[0]
        fd1 = (up - dn) / (2 * h)
        fd2 = (up - 2 * mid + dn) / (h * h)
        assert abs(fd1 - got.values[1]) <= 1e-5 * max(1.0, abs(got.values[1]))
        assert abs(fd2 - got.values[2]) <= 1e-5 * max(1.0, abs(got.values[2]))
