"""Verification sweeps and probes: examples, properties, mutation tests."""

import cmath
import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from normfam.analysis import (
    GridSpec,
    ProbeResult,
    fk_value,
    lemma2_probe,
    marty_probe,
    max_modulus_check,
    spherical_derivative,
    verify_inequality,
    verify_node_jets,
)
from normfam import kernels
from normfam.errors import CenterOffCircle, OrderTooLow, PointTooCloseToCircle
from normfam.forge import (
    EPS_NODE,
    MINUS_INFINITY,
    ConstructionConfig,
    CounterexampleFunction,
    Jet,
    build_p,
    construct,
)


def bypass(F, **overrides):
    # rebuild a record without running its validating constructor, so a
    # deliberately broken field survives long enough to be detected
    bad = object.__new__(CounterexampleFunction)
    for f in dataclasses.fields(CounterexampleFunction):
        object.__setattr__(bad, f.name, overrides.get(f.name, getattr(F, f.name)))
    return bad


def test_fk_value_examples():
    assert fk_value(Jet(2, (0.0, 7.0, 0.0)), 2) == 0.0
    assert fk_value(Jet(2, (1.0, 9.0, 2.0)), 2) == 1.0
    assert fk_value(Jet(1, (0.0, 3.0)), 1) == 3.0


def test_fk_value_order_guard():
    with pytest.raises(OrderTooLow):
        fk_value(Jet(1, (1.0, 2.0)), 2)
    with pytest.raises(OrderTooLow):
        fk_value(Jet(1, (1.0, 2.0)), -1)


def test_spherical_derivative_examples():
    assert spherical_derivative(Jet(1, (0.0, 3.0))) == 3.0
    assert spherical_derivative(Jet(1, (1.0, 2.0))) == 1.0
    assert spherical_derivative(Jet(1, (1e6, 1.0))) == 1.0 / (1.0 + 1e12)
    with pytest.raises(OrderTooLow):
        spherical_derivative(Jet(0, (5.0,)))


def test_large_scale_asymptotics():
    # for |f| >> 1 the functionals collapse to pure quotients
    rng = np.random.default_rng(99)
    lam = 1e3
    for _ in range(200):
        v0 = (1.0 + rng.random()) * np.exp(2j * np.pi * rng.random())
        v1 = complex(rng.standard_normal(), rng.standard_normal())
        v2 = complex(rng.standard_normal(), rng.standard_normal())
        jet = Jet(2, (lam * v0, lam * v1, lam * v2))
        for k, vk in ((1, v1), (2, v2)):
            want = abs(vk) / abs(v0) ** (k + 1) / lam**k
            assert abs(fk_value(jet, k) - want) <= 1e-3 * want
        want = abs(v1) / abs(v0) ** 2 / lam
        assert abs(spherical_derivative(jet) - want) <= 1e-3 * want


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec("square", (1.0,), 10)
    with pytest.raises(ValueError):
        GridSpec("disk", (1.0, 2.0), 10)
    with pytest.raises(ValueError):
        GridSpec("disk", (-1.0,), 10)
    with pytest.raises(ValueError):
        GridSpec("disk", (1.0,), 0)
    with pytest.raises(ValueError):
        GridSpec("annulus", (2.0, 1.0), 10)


def test_grid_spec_points():
    circ = GridSpec("circle", (2.0,), 8).points()
    assert circ.shape == (8,)
    assert np.allclose(np.abs(circ), 2.0)
    assert circ[0] == 2.0 + 0j
    disk = GridSpec("disk", (2.0,), 500, seed=5).points()
    assert disk.shape == (500,) and np.all(np.abs(disk) <= 2.0)
    again = GridSpec("disk", (2.0,), 500, seed=5).points()
    assert np.array_equal(disk, again)
    ann = GridSpec("annulus", (1.2, 1.8), 300).points()
    assert np.all((np.abs(ann) >= 1.2) & (np.abs(ann) <= 1.8))


@pytest.mark.parametrize(
    "region, radii", [("disk", (2.0,)), ("annulus", (1.2, 1.8)), ("circle", (1.5,))]
)
def test_grid_spec_chunks_concatenate_to_points(region, radii):
    # 50 points is no multiple of 7; chunks of 49, 50 and 55 cover the
    # one-short, exact and oversized last chunk
    spec = GridSpec(region, radii, 50, seed=11)
    whole = spec.points()
    for size in (1, 7, 49, 50, 55):
        parts = list(spec.chunks(size))
        assert [p.size for p in parts[:-1]] == [size] * (len(parts) - 1)
        assert 1 <= parts[-1].size <= size
        got = np.concatenate(parts)
        # bit for bit: the same float64 words, signed zeros included
        assert got.view(np.uint64).tolist() == whole.view(np.uint64).tolist(), size
    with pytest.raises(ValueError):
        next(spec.chunks(0))


def test_verify_inequality_family(family):
    for n, F in family.items():
        rep = verify_inequality(F, 10000, 1e-12)
        assert rep.passed
        assert rep.max_inequality <= 1.0 / n + 1e-12
        assert len(rep.node_residuals) == 1
        assert rep.node_residuals[0] == 0.0  # the node at 1 is exact
        assert abs(rep.worst_point) <= 2.0 + 1e-2
        # report invariant: passed reflects exactly the recorded numbers
        assert rep.passed == (
            rep.max_inequality <= 1.0 + 1e-12
            and all(v <= 1.0 + 1e-12 for v in rep.node_residuals)
        )


def test_verify_inequality_trivial_member(family):
    # f_1 = a (z - 1) has vanishing second derivative everywhere
    rep = verify_inequality(family[1], 2000, 1e-12)
    assert rep.passed and rep.max_inequality == 0.0


@pytest.mark.parametrize("n", [200, 10**6])
def test_verify_inequality_names_overflow(n):
    # gated records whose jet overflows binary64: |p'|^2 near |z| = 2 at
    # n = 200 (fk is +inf there), z^n at n = 10^6 (NaN everywhere)
    F = CounterexampleFunction(n, build_p(n), 2 * n, 0, 1)
    rep = verify_inequality(F, 2000, 1e-12)
    assert not rep.passed
    assert math.isnan(rep.max_inequality)
    assert rep.notes.endswith("so the grid overflows binary64")
    assert abs(rep.worst_point) <= 2.0


def test_verify_inequality_validation(family):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        verify_inequality(family[2], 0, 1e-12)
    # a NaN or infinite tolerance would pass any finite grid
    for tol in (math.nan, -1e-12, math.inf):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            verify_inequality(family[2], 10, tol)


def test_verify_node_jets_family(family):
    # gated records of order 1000 and 10^6 as well: at 53 bits the binary64
    # jet of the same exponents left residuals of 4.8e-7 and 400
    Fs = list(family.values()) + [
        CounterexampleFunction(n, build_p(n), 2 * n, 0, 1) for n in (12, 1000, 10**6)
    ]
    for F in Fs:
        rep = verify_node_jets(F)
        assert rep.passed, F.n
        assert rep.node_residuals == (0.0,)  # exact: no rounding at all
        assert rep.max_inequality == rep.node_residuals[0]


def test_verify_node_jets_mutation(exponents):
    # every c_k moved by 1/100 or by 1e-30, at every n = 2..12
    for n in range(2, 13):
        F = CounterexampleFunction(n, exponents[n], 2 * n, 0, 1)
        for k in range(3):
            for delta in (Fraction(1, 100), Fraction(1, 10**30)):
                p = list(F.p)
                p[k] += delta
                rep = verify_node_jets(bypass(F, p=tuple(p)))
                assert not rep.passed and rep.max_inequality > 0, (n, k, delta)
                if (n, k, delta) == (2, 1, Fraction(1, 100)):
                    assert max(rep.node_residuals) > 1e-4


def test_tiny_perturbation_fails_both_node_checks(exponents):
    # c2 + 1e-30 at n = 12 leaves a residual near 4e-26, far below the
    # binary64 noise of a float jet (about 1e-12 there)
    F = CounterexampleFunction(12, exponents[12], 24, 0, 1)
    c1, c2, c3 = F.p
    bad = bypass(F, p=(c1, c2 + Fraction(1, 10**30), c3))
    nodes = verify_node_jets(bad)
    assert not nodes.passed and 0 < nodes.max_inequality < 1e-20
    maxmod = max_modulus_check(bad, 128)
    assert not maxmod.passed and maxmod.worst_point == 1


def test_marty_validation(family):
    with pytest.raises(CenterOffCircle):
        marty_probe([family[2]], 0.5 + 0j, 0.1)
    with pytest.raises(ValueError):
        marty_probe([family[2]], 1 + 0j, -0.1)


def test_marty_trivial_member(family):
    pr = marty_probe([family[1]], 1 + 0j, 0.1)
    assert pr.verdict == "blowup"
    assert pr.measurements[0] >= 4


def test_marty_family_blowup(family):
    Fs = [family[n] for n in range(1, 7)]
    pr = marty_probe(Fs, 1 + 0j, 0.1)
    assert pr.verdict == "blowup"
    assert pr.n_values == (1, 2, 3, 4, 5, 6)
    for a, b in zip(pr.measurements, pr.measurements[1:]):
        assert b > a
    for n, m in zip(pr.n_values, pr.measurements):
        F = family[n]
        assert m > 2 * n * n
        with mpmath.workprec(120):
            # grid max is attained at the node, where f# = a n exactly
            assert abs(mpmath.log(m) - mpmath.log(F.a * n)) <= 1e-10


def test_marty_degenerate_radius(family):
    # radius 0 collapses the grid to the center; 1 is itself a node
    F = family[2]
    pr = marty_probe([F], 1 + 0j, 0.0)
    with mpmath.workprec(120):
        assert abs(mpmath.log(pr.measurements[0]) - mpmath.log(F.a * 2)) <= 1e-12
    # -1 is a node of order 14, where a float log of n*a misses by 6e-5
    F = construct(14)
    pr = marty_probe([F], -1 + 0j, 0.0)
    assert pr.verdict == "blowup" and pr.measurements[0] == 14 * F.a


def test_marty_off_node_center(family):
    # the center is no node, but the node 1 lies in the disk, 0.49 away
    pr = marty_probe([family[n] for n in (2, 4, 6)], cmath.exp(0.5j), 0.6)
    assert pr.verdict == "blowup"


def test_marty_counts_no_node_outside_the_disk(family):
    # the node nearest i is e^{2 pi i/5}, 0.31 away from it: the disk of
    # radius 0.05 holds no node, and its samples stay below n*a
    pr = marty_probe([family[5]], 1j, 0.05)
    assert pr.verdict == "inconclusive"
    assert pr.measurements[0] < 5 * family[5].a


@pytest.fixture(scope="module")
def ladder():
    """The records n = 7..12 at 128 bits, whose node chords
    2 sin(pi/(2n)) are 0.445 or less."""
    return [construct(n, ConstructionConfig(precision=128)) for n in range(7, 13)]


@pytest.mark.parametrize("center", [1 + 0j, 1j, cmath.exp(0.6j * math.pi), -1 + 0j])
def test_marty_blowup_at_every_center(ladder, center):
    # every disk of radius 0.5 about a point of the unit circle holds a
    # node of these orders, where f^# = n*a exactly
    assert marty_probe(ladder, center, 0.5).verdict == "blowup"


@pytest.mark.parametrize("n", range(13, 21))
def test_marty_blowup_beyond_float_log_rounding(n):
    # log a reaches 5e11 at n = 14, where a float log of the node value
    # n*a alone misses it by 5e-5 relative, beyond the probe's 1e-6
    F = construct(n)
    pr = marty_probe([F], 1, 0.1)
    assert pr.verdict == "blowup"
    assert pr.measurements[0] >= n * F.a


def test_lemma2_validation(family):
    F = family[2]
    with pytest.raises(PointTooCloseToCircle):
        lemma2_probe([F], [1.05], [2])
    with pytest.raises(PointTooCloseToCircle):
        lemma2_probe([F], [1.95], [2])
    with pytest.raises(ValueError):
        lemma2_probe([F], [0.0], [3])
    with pytest.raises(ValueError):
        lemma2_probe([F], [0.0], [])
    with pytest.raises(ValueError):
        lemma2_probe([F], [], [2])


def test_lemma2_second_order_bound(family):
    Fs = [family[n] for n in range(1, 7)]
    pr = lemma2_probe(Fs, [0], [2])
    assert pr.verdict == "decay"
    assert pr.measurements[0] == 0  # f_1'' vanishes identically
    for n, m in zip(pr.n_values, pr.measurements):
        assert m <= mpmath.mpf(1) / n


def test_lemma2_first_order_trend(family):
    Fs = [family[n] for n in range(2, 7)]
    pr = lemma2_probe(Fs, [1.5], [1])
    assert pr.verdict == "decay"
    for m in pr.measurements:
        assert m > 0
    for a, b in zip(pr.measurements, pr.measurements[1:]):
        assert b < a
    assert pr.measurements[-1] <= mpmath.mpf("0.1")


def test_lemma2_layout(family):
    pr = lemma2_probe([family[2]], [0.0, 1.5j], [1, 2])
    assert pr.n_values == (2, 2, 2, 2)
    assert len(pr.measurements) == 4


def test_max_modulus_family(family):
    for n, F in family.items():
        rep = max_modulus_check(F, 512)
        assert rep.passed
        assert rep.node_residuals == ()
    assert max_modulus_check(family[1], 512).max_inequality == 0.0


def test_max_modulus_validation(family):
    with pytest.raises(ValueError):
        max_modulus_check(family[2], 63)


def test_max_modulus_mutation(exponents):
    # zeroing c1 zeroes p' = c1 n z^(n-1) at every node and leaves h''
    # nonzero there, so h''/h^3 acquires an order-3 pole at each node
    # inside the disk.  The cubic cannot break one node alone: its
    # conditions are the same at every node by rotation.
    for n in range(2, 13):
        F = CounterexampleFunction(n, exponents[n], 2 * n, 0, 1)
        bad = bypass(F, p=(Fraction(0), F.p[1], F.p[2]))
        rep = max_modulus_check(bad, 512)
        assert not rep.passed, n
        assert rep.max_inequality > 1.0
        # reported at the node 1, which stands for every broken node
        assert rep.worst_point == 1


def test_max_modulus_matches_full_grid(exponents, monkeypatch):
    # the log maxima of the half-sector grids against those over all 512
    # angles, which rotation and reflection reduce to them
    seen = []
    ratio_log = kernels.ratio_log

    def spy(n, c, zs):
        out = ratio_log(n, c, zs)
        seen.append(float(np.max(out)))
        return out

    monkeypatch.setattr(kernels, "ratio_log", spy)
    th = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    radii = np.linspace(0.05, 1.98, 64)
    for n, p in exponents.items():
        F = CounterexampleFunction(n, p, 2 * n, 0, 1)
        seen.clear()
        assert max_modulus_check(F, 512).passed, n
        inner = (radii[:, None] * np.exp(1j * th)[None, :]).ravel()
        inner = inner[np.abs(inner**n - 1.0) > EPS_NODE]
        full = [ratio_log(n, F.p_float, zs) for zs in (inner, 2.0 * np.exp(1j * th))]
        for got, want in zip(seen, (float(np.max(v)) for v in full)):
            if want == MINUS_INFINITY:
                assert got == want, n
            else:
                assert abs(got - want) <= 1e-14 * abs(want), n


def test_max_modulus_fails_on_overflowed_grid():
    # from n = 145 on b2 overflows binary64 on |z| = 2: the log maxima are
    # +inf or NaN and the grids measure nothing, so the check must fail
    F = CounterexampleFunction(200, build_p(200), 400, 0, 1)
    rep = max_modulus_check(F)
    assert not rep.passed
    assert math.isnan(rep.max_inequality)
    assert "not finite, so the grid overflows binary64" in rep.notes


def test_probe_result_length_guard():
    with pytest.raises(ValueError):
        ProbeResult((1, 2), (1.0,), "x")
