"""Verification sweeps and probes: examples, properties, mutation tests."""

import cmath
import dataclasses
import math
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from conftest import f_jet
from hypothesis import given, settings
from hypothesis import strategies as st

from normfam.analysis import (
    DEFAULT_SEED,
    GridSpec,
    ProbeResult,
    lemma2_probe,
    marty_probe,
    max_modulus_check,
    uniform_draws,
    verify_inequality,
    verify_node_jets,
)
from normfam import analysis, kernels, storage
from normfam.errors import CenterOffCircle, PointTooCloseToCircle
from normfam.forge import (
    MINUS_INFINITY,
    CounterexampleFunction,
    build_p,
    choose_a,
    construct,
    h_jet,
)


def bypass(F, **overrides):
    # rebuild a record without running its validating constructor, so a
    # deliberately broken field survives long enough to be detected
    bad = object.__new__(CounterexampleFunction)
    for f in dataclasses.fields(CounterexampleFunction):
        object.__setattr__(bad, f.name, overrides.get(f.name, getattr(F, f.name)))
    return bad


# outside [0, 2^64) or no integer; 2^64 would wrap to the seed 0 in the
# stream's uint64 arithmetic
BAD_SEEDS = (-1, 2**64, 1.5, "7", None)


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
    for seed in BAD_SEEDS:
        with pytest.raises(ValueError, match="--seed must be an integer"):
            GridSpec("disk", (1.0,), 10, seed=seed)


def splitmix64(seed, start):
    """The SplitMix64 generator as published, on Python ints mod 2^64,
    started at output `start`: yields its 64-bit outputs."""
    state = (seed + start * 0x9E3779B97F4A7C15) % 2**64
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        yield z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, 1729, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 2**32 - 3])
def test_uniform_draws_match_splitmix64(seed, start):
    # draw i is output i of the generator, its top 53 bits times 2^-53;
    # the stretch from 2^32 - 3 crosses 2^32 in the uint64 counter
    ref = splitmix64(seed, start)
    want = [next(ref) >> 11 for _ in range(40)]
    got = uniform_draws(seed, start, 40)
    assert got.dtype == np.float64
    assert [int(v) for v in got * 2.0**53] == want
    # a stretch starts where the one before it ends
    tail = uniform_draws(seed, start + 15, 25)
    assert tail.view(np.uint64).tolist() == got[15:].view(np.uint64).tolist()


def test_uniform_draws_reference_value_and_range():
    # the first output of SplitMix64 seeded with 0, as published
    assert next(splitmix64(0, 0)) == 0xE220A8397B1DCDAF
    u = uniform_draws(DEFAULT_SEED, 0, 100_000)
    assert np.all((u >= 0.0) & (u < 1.0))
    # mean 1/2 and variance 1/12, each to about 4 standard errors
    assert abs(u.mean() - 0.5) < 4e-3 and abs(u.var() - 1 / 12) < 2e-3
    assert uniform_draws(DEFAULT_SEED, 7, 0).size == 0


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
    # point i: radius from draw i, angle from draw 500 + i, uniform by area
    u = uniform_draws(5, 0, 1000)
    assert np.allclose(np.abs(disk), 2.0 * np.sqrt(u[:500]), rtol=1e-14, atol=0)
    assert np.allclose(disk, 2.0 * np.sqrt(u[:500]) * np.exp(2j * np.pi * u[500:]), rtol=1e-14)
    assert not np.array_equal(disk, GridSpec("disk", (2.0,), 500, seed=6).points())


@pytest.mark.parametrize(
    "region, radii", [("disk", (2.0,)), ("annulus", (1.2, 1.8)), ("circle", (1.5,))]
)
def test_grid_spec_chunks_concatenate_to_points(region, radii):
    # 8197 points is no multiple of 7; chunks of 8192 (CSV_CHUNK), 8197
    # and 8200 cover the short, exact and oversized last chunk
    N = 8197
    spec = GridSpec(region, radii, N, seed=11)
    whole = spec.points()
    assert whole.shape == (N,)
    for size in (1, 7, 8192, N, N + 3):
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
        rep = verify_inequality(F)
        assert rep.passed
        assert rep.max_inequality <= 1.0 / n + 1e-12
        assert len(rep.node_residuals) == 1
        assert rep.node_residuals[0] == 0.0  # the node at 1 is exact
        assert abs(abs(rep.worst_point) - 2.0) <= 1e-15
        if n >= 2:  # a = sqrt(2 n C*_n): the quotient is at most 1/(2n)
            assert abs(rep.log_margin + math.log(2 * n)) <= 1e-12, n
        # report invariant: passed reflects exactly the recorded numbers
        assert rep.passed == (
            rep.max_inequality <= 1.0 + 1e-12
            and all(v <= 1.0 + 1e-12 for v in rep.node_residuals)
        )


@pytest.mark.parametrize("n", [8, 12])
def test_verify_inequality_worst_point_by_log(n):
    # every value of the quotient underflows binary64 at these orders, so
    # the worst point is the one where the log of |h''/h^3| peaks: there
    # the 200-bit jet lies within 1e-12 of log C*_n, and below it, since
    # the reported point lies in the closed 2-disk
    F = construct(n, precision=128)
    rep = verify_inequality(F)
    log_c = analysis.log_c_star(n)[0]
    z = rep.worst_point
    assert rep.passed and abs(abs(z) - 2.0) <= 1e-15
    with mpmath.workprec(200):
        hj = h_jet(n, F.p, mpmath.mpc(z), 2)
        got = float(mpmath.log(abs(hj[2])) - 3 * mpmath.log(abs(hj[0])))
    assert log_c - 1e-12 * abs(log_c) <= got <= log_c


def test_verify_inequality_trivial_member(family):
    # f_1 = a (z - 1) has vanishing second derivative everywhere
    rep = verify_inequality(family[1])
    assert rep.passed and rep.max_inequality == 0.0
    assert rep.log_margin == MINUS_INFINITY


@pytest.mark.parametrize("n", [340, 10**6])
def test_verify_inequality_names_overflow(n):
    # gated records of orders whose grid kernels overflow binary64: S_n(u)
    # near |z| = 2 from n = 340 on; C*_n refuses them, so nothing is
    # certified, at once even at n = 10^6
    F = CounterexampleFunction(n, build_p(n), 2 * n, 0, 1)
    rep = verify_inequality(F)
    assert not rep.passed
    assert math.isnan(rep.max_inequality)
    assert rep.notes.startswith("not certified") and "overflows binary64" in rep.notes
    assert abs(rep.worst_point) <= 2.0


def test_verify_inequality_needs_zero_node_residual(exponents):
    # with c1 zeroed h''/h^3 has a pole at every node: nothing to certify
    F = CounterexampleFunction(5, exponents[5], 10, 0, 1)
    rep = verify_inequality(bypass(F, p=(Fraction(0), F.p[1], F.p[2])))
    assert not rep.passed and math.isnan(rep.max_inequality)
    assert rep.node_residuals[0] > 0 and rep.worst_point == 1
    assert rep.notes.startswith("not certified: node residual")


def test_verify_inequality_says_not_certified_without_witness(family, monkeypatch):
    # a certificate that fails by less than the quotient can show: the
    # notes say so, and the check still fails
    F = family[3]
    monkeypatch.setattr(analysis, "log_c_star", lambda n: (F.log_c + math.log(6) + 1e-10, -0.4))
    rep = verify_inequality(F)
    assert not rep.passed and 0 < rep.log_margin < 1e-9
    assert rep.notes.startswith("not certified") and rep.notes.endswith("no witness found")


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
    maxmod = max_modulus_check(bad)
    assert not maxmod.passed and maxmod.worst_point == 1


def test_marty_validation(family):
    with pytest.raises(CenterOffCircle):
        marty_probe([family[2]], 0.5 + 0j, 0.1)
    with pytest.raises(ValueError):
        marty_probe([family[2]], 1 + 0j, -0.1)


def test_marty_refuses_an_empty_family():
    # no function, no measurement: "blowup" may not hold vacuously
    with pytest.raises(ValueError, match="at least one function"):
        marty_probe([], 1, 0.1)


def test_lemma2_refuses_an_empty_family():
    # nor "decay", and the order-1 trend has no series to end
    for orders in ([2], [1]):
        with pytest.raises(ValueError, match="at least one function"):
            lemma2_probe([], [0], orders)


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


def test_marty_verdict_independent_of_argument_order(family):
    # the shell's glob lists f_1, f_10, f_11, f_12, f_2, ...: the verdict
    # judges the measurements by n, whatever order the files come in
    Fs = {n: family.get(n) or construct(n) for n in range(1, 13)}
    orders = [sorted(Fs), sorted(Fs, reverse=True), sorted(Fs, key=lambda n: f"f_{n}.json")]
    want = None
    for order in orders:
        pr = marty_probe([Fs[n] for n in order], 1 + 0j, 0.1)
        assert pr.verdict == "blowup", order
        assert pr.n_values == tuple(order)
        by_n = dict(zip(pr.n_values, pr.measurements))
        want = want or by_n
        assert by_n == want


def test_marty_degenerate_radius(family):
    # radius 0 collapses the disk to the center; 1 is itself a node
    F = family[2]
    pr = marty_probe([F], 1 + 0j, 0.0)
    with mpmath.workprec(120):
        assert abs(mpmath.log(pr.measurements[0]) - mpmath.log(F.a * 2)) <= 1e-12
    # -1 is a node of order 14, where a float log of n*a would miss by 6e-5
    F = construct(14)
    pr = marty_probe([F], -1 + 0j, 0.0)
    assert pr.verdict == "blowup" and pr.measurements[0] == 14 * F.a


def test_marty_off_node_center(family):
    # the center is no node, but the node 1 lies in the disk, 0.49 away
    pr = marty_probe([family[n] for n in (2, 4, 6)], cmath.exp(0.5j), 0.6)
    assert pr.verdict == "blowup"


def test_marty_counts_no_node_outside_the_disk(family):
    # the node nearest i is e^{2 pi i/5}, 0.31 away from it: the disk of
    # radius 0.05 holds no node, and f^# at the center stays below n*a
    pr = marty_probe([family[5]], 1j, 0.05)
    assert pr.verdict == "inconclusive"
    assert pr.measurements[0] < 5 * family[5].a


def test_marty_measurement_independent_of_the_other_files(family):
    # each function is measured on its own, so f_6 measures the same alone
    # and after f_1..f_5; the disk around i holds no node, so the
    # measurement is f^# at the center
    alone = marty_probe([family[6]], 1j, 0.05).measurements[0]
    last = marty_probe([family[n] for n in range(1, 7)], 1j, 0.05).measurements[-1]
    assert last == alone


@pytest.fixture(scope="module")
def ladder():
    """The records n = 7..12 at 128 bits, whose node chords
    2 sin(pi/(2n)) are 0.445 or less."""
    return [construct(n, precision=128) for n in range(7, 13)]


@pytest.mark.parametrize("center", [1 + 0j, 1j, cmath.exp(0.6j * math.pi), -1 + 0j])
def test_marty_blowup_at_every_center(ladder, center):
    # every disk of radius 0.5 about a point of the unit circle holds a
    # node of these orders, where f^# = n*a exactly
    assert marty_probe(ladder, center, 0.5).verdict == "blowup"


def test_marty_node_value_is_exact(family, ladder):
    # the disk about 1 holds the node 1 at every order: the measurement is
    # the product n*a at the record's precision, with no float log in it
    Fs = [family[n] for n in range(1, 7)] + ladder
    pr = marty_probe(Fs, 1, 0.1)
    assert pr.verdict == "blowup"
    for F, m in zip(Fs, pr.measurements):
        with mpmath.workprec(F.precision):
            assert m == F.n * F.a, F.n


def test_marty_node_free_disk_measures_the_center(family, ladder):
    # i is a node of orders 4, 8 and 12 only; for the others the disk of
    # radius 0.05 about it holds none, and the measurement is f^# at i,
    # within 64 units of 2^-prec times the rounding scale of the
    # 3n + 200-bit jet of h. So is the mid-node point e^(i pi/n), radius 0,
    # at n = 6, 12 (128 bits), 60 and 200, where u = z^n - 1 is about -2
    Fs = [F for F in [family[n] for n in range(1, 7)] + ladder if F.n % 4]
    pr = marty_probe(Fs, 1j, 0.05)
    assert pr.verdict == "inconclusive"
    cases = [(F, 1j, m) for F, m in zip(Fs, pr.measurements)]
    for F in (family[6], ladder[-1], construct(60), construct(200)):
        center = cmath.exp(1j * math.pi / F.n)
        pr = marty_probe([F], center, 0)
        assert pr.verdict == "inconclusive"
        cases.append((F, center, pr.measurements[0]))
    for F, center, m in cases:
        with mpmath.workprec(3 * F.n + 200):
            hj = h_jet(F.n, F.p, mpmath.mpc(center), 1)
            want = F.a * abs(hj[1]) / (1 + (F.a * abs(hj[0])) ** 2)
            scale = F.n + 1 + sum(abs(c) * 2**k for k, c in enumerate(F.p, 1))
            assert abs(m - want) <= 64 * mpmath.ldexp(scale, -F.precision) * want, F.n


def test_marty_node_value_bounds_f_sharp_nearby(family, ladder):
    # evidence for the sup claim: f^# at 1 + zeta/(n a), zeta on rings of
    # 16 angles, never exceeds n*a. From n = 3 on 1/(n a) < 2^-76, too
    # small for 1 + zeta/(n a) to keep its bits, so f and f' there are the
    # Taylor sums of f_jet at the node 1, exact rationals times a, 64 bits
    # past the record's precision, where n*a is exact; through order 30 the
    # terms fall below those bits (at n = 2, |zeta|/(n a) <= 0.0023)
    J = 30
    for F in [family[n] for n in range(1, 7)] + ladder:
        G = dataclasses.replace(F, precision=F.precision + 64)
        jet = f_jet(G, Fraction(1), J + 1)
        with mpmath.workprec(G.precision):
            node = F.n * F.a
            for r in (mpmath.mpf("1e-3"), 0.3, 1, 3):
                for j in range(16):
                    t = r * mpmath.expjpi(mpmath.mpf(j) / 8) / node
                    f = df = 0
                    for k in range(J, -1, -1):  # sum of jet[k] t^k / k!
                        f = f * t / (k + 1) + jet[k]
                        df = df * t / (k + 1) + jet[k + 1]
                    assert abs(df) / (1 + abs(f) ** 2) <= node, (F.n, r, j)


@pytest.mark.parametrize("n", range(13, 21))
def test_marty_blowup_beyond_float_log_rounding(n):
    # log a reaches 5e11 at n = 14, where a float log of the node value
    # n*a alone would miss it by 5e-5 relative
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
    with pytest.raises(PointTooCloseToCircle, match=r"lies outside \|z\| <= 1.9"):
        lemma2_probe([F], [5], [2])
    with pytest.raises(ValueError):
        lemma2_probe([F], [0.0], [3])
    with pytest.raises(ValueError):
        lemma2_probe([F], [0.0], [])
    with pytest.raises(ValueError):
        lemma2_probe([F], [], [2])


@pytest.mark.parametrize("z", ["nan", "inf", "-inf", "nanj", "1+infj", "nan+nanj"])
def test_lemma2_refuses_a_non_finite_point(family, z):
    # NaN passes both distance tests, since every comparison with it is
    # False; the probe refuses it before it measures anything
    with pytest.raises(ValueError, match="not finite"):
        lemma2_probe([family[2]], [0.0, complex(z)], [1, 2])


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


def test_lemma2_verdict_independent_of_argument_order(family):
    # the order-1 trend runs over increasing n, as marty's does, while the
    # measurements keep the order of the functions
    F2, F6 = family[2], family[6]
    up, down = lemma2_probe([F2, F6], [1.5], [1]), lemma2_probe([F6, F2], [1.5], [1])
    assert up.verdict == down.verdict == "decay"
    assert down.n_values == (6, 2)
    assert down.measurements == up.measurements[::-1]


def oracle_quotient(F, z, l):
    """|f^(l)| / |f|^(l+1) from the 3n + 200-bit jet of h, and the scale
    n + 1 + sum |c_k| |u|^k of its rounding at z."""
    with mpmath.workprec(3 * F.n + 200):
        z = mpmath.mpc(z)
        hj = h_jet(F.n, F.p, z, l)
        u = abs(z**F.n - 1)
        scale = F.n + 1 + sum(abs(c) * u**k for k, c in enumerate(F.p, 1))
        return abs(hj[l]) / (abs(hj[0]) ** (l + 1) * F.a**l), scale


def test_lemma2_against_jet_oracle():
    # the benchmark's records (53 bits to n = 6, 128 bits above) and the
    # last order at the points it probes and more: each measurement within
    # 64 units of 2^-prec times the rounding scale of the 3n + 200-bit jet,
    # prec the probe's working precision: the record's, or 3n + 64 bits
    # where that is more
    Fs = [construct(n, precision=53 if n < 7 else 128) for n in range(1, 13)]
    Fs.append(construct(339))
    pts = [0, 1.5, 1.5j, -0.6 + 0.3j, 1.2 + 1.2j, -1.85]
    pr = lemma2_probe(Fs, pts, [1, 2])
    got = iter(pr.measurements)
    for F in Fs:
        for z in pts:
            for l in (1, 2):
                m = next(got)
                want, scale = oracle_quotient(F, z, l)
                with mpmath.workprec(3 * F.n + 200):
                    tol = 64 * mpmath.ldexp(scale, -max(F.precision, 3 * F.n + 64)) * want
                    assert abs(m - want) <= tol, (F.n, z, l)


@pytest.mark.parametrize("n", [1, 2, 3, 12, 339])
@pytest.mark.parametrize(
    "z", [0, 1.5, -0.5, 0.3, -1.85, 1.5j, -0.5j, 0.3j, -1.85j, 0.05 + 0.02j]
)
def test_lemma2_quotients_against_jet_oracle(n, z):
    # the quotients of forge.h_parts where |z|^(n-1) and |z|^(n-2) are
    # read from |z^n| and |z|: at z = 0, where |z|^0 = 1 (order 1 at n = 1,
    # order 2 at n = 2) and every other power is 0; on the real and
    # imaginary axes, where one part of z, z^n and u is 0; and at
    # 0.05 + 0.02i, where |z^n| lies below the last bit of u for n = 339.
    # Within 64 units of 2^-prec of the 3n + 200-bit jet's rounding scale,
    # like test_lemma2_against_jet_oracle; a 0 must be exactly 0
    F = construct(n)
    pr = lemma2_probe([F], [z], [1, 2])
    for l, m in zip((1, 2), pr.measurements):
        want, scale = oracle_quotient(F, z, l)
        with mpmath.workprec(3 * n + 200):
            tol = 64 * mpmath.ldexp(scale, -(3 * n + 64)) * want
            assert abs(m - want) <= tol, (n, z, l, m, want)
    if z == 0:
        assert [m != 0 for m in pr.measurements] == [n == 1, n == 2]


@pytest.mark.parametrize("n", [19, 20, 30, 200])
def test_witness_quotient_against_jet_oracle(n, monkeypatch):
    # the witness of a record of the sampled c_hat: log q by the closed
    # forms of forge.h_parts at 3n + 64 bits, within 64 ulps of the
    # rounding scale of the 3n + 200-bit jet. Read past the record gate,
    # which refuses n = 20 (test_verify_refutes_undershot_records)
    monkeypatch.setattr(CounterexampleFunction, "__post_init__", lambda self: None)
    F, _ = storage.load_function(Path(__file__).parent / "data" / f"undershot_f{n}.json")
    _, lq, where = analysis._witness(F, analysis.log_c_star(n)[1])
    re_z, im_z = re.search(r"witness z = (\S+?)([+-]\S+)i ", where).groups()
    with mpmath.workprec(3 * n + 200):
        z = mpmath.mpc(re_z, im_z)
        assert abs(z) < 2 and lq > 0
        hj = h_jet(n, F.p, z, 2)
        want = mpmath.log(F.a * abs(hj[2])) - mpmath.log1p((F.a * abs(hj[0])) ** 3)
        _, scale = oracle_quotient(F, z, 2)
        assert abs(lq - want) <= 64 * mpmath.ldexp(scale, -(3 * n + 64)) + 1e-15 * abs(want)


@pytest.mark.parametrize("n", [19, 20, 30, 200])
def test_witness_worst_point_inside_the_disk(n, monkeypatch):
    # the binary64 rounding of the n = 200 witness lies outside |z| = 2
    # (|z|^2 - 4 = 3.3e-16 exactly); the reported point stays inside. Read
    # past the record gate, which refuses n = 20
    monkeypatch.setattr(CounterexampleFunction, "__post_init__", lambda self: None)
    F, _ = storage.load_function(Path(__file__).parent / "data" / f"undershot_f{n}.json")
    z = verify_inequality(F).worst_point
    assert Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 < 4


def fraction_into_disk(z, strict=False):
    """_into_disk in Fractions, as it was written first: the reference."""
    z = complex(z)
    while (r2 := Fraction(z.real) ** 2 + Fraction(z.imag) ** 2) > 4 or (strict and r2 == 4):
        z *= 1 - 2**-52
    return z


@settings(max_examples=200, deadline=None)
@given(
    angle=st.floats(-math.pi, math.pi),
    ulps=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    strict=st.booleans(),
)
def test_into_disk_matches_fractions(angle, ulps, strict):
    # points a few ulps to either side of |z| = 2
    z = 2 * cmath.exp(1j * angle)
    x, y = z.real, z.imag
    for _ in range(abs(ulps[0])):
        x = math.nextafter(x, math.copysign(math.inf, ulps[0]))
    for _ in range(abs(ulps[1])):
        y = math.nextafter(y, math.copysign(math.inf, ulps[1]))
    z = complex(x, y)
    assert analysis._into_disk(z, strict) == fraction_into_disk(z, strict)


def test_into_disk_on_the_circle_and_at_the_peaks():
    for z in (2 + 0j, -2j):
        assert analysis._into_disk(z) == z
        assert analysis._into_disk(z, strict=True) == fraction_into_disk(z, strict=True) != z
    for n in range(1, 340):
        x = analysis.log_c_star(n)[1]
        peak = 2 * cmath.exp(1j * math.acos(x) / n)
        for strict in (False, True):
            assert analysis._into_disk(peak, strict) == fraction_into_disk(peak, strict), n


def test_verify_peak_and_witness_at_order_60():
    # past the binary64 tie of the candidates, the certificate's worst
    # point lies at arg z^n = 2 pi/3, and an undershot a is refuted by a
    # witness that the bisection finds from there. c_hat is cut by 1e-9 of
    # its log, far more than log C*_n exceeds log c_n (about 1e-16 of
    # itself): a cut within that gap would leave a record that holds
    F = construct(60)
    rep = verify_inequality(F)
    assert rep.passed
    assert abs(cmath.phase(rep.worst_point) * 60 - 2 * math.pi / 3) < 1e-6
    with mpmath.workprec(3 * 60 + 64):
        c_hat = F.c_hat * mpmath.exp(-mpmath.log(F.c_hat) * mpmath.mpf("1e-9"))
    bad = CounterexampleFunction(60, F.p, choose_a(60, c_hat, F.m_hat), c_hat, F.m_hat)
    rep = verify_inequality(bad)
    assert not rep.passed
    re_z, im_z = re.search(r"witness z = (\S+?)([+-]\S+)i ", rep.notes).groups()
    with mpmath.workprec(3 * 60 + 200):
        z = mpmath.mpc(re_z, im_z)
        hj = h_jet(60, F.p, z, 2)
        assert abs(z) < 2 and bad.a * abs(hj[2]) > 1 + (bad.a * abs(hj[0])) ** 3


def test_lemma2_layout(family):
    pr = lemma2_probe([family[2]], [0.0, 1.5j], [1, 2])
    assert pr.n_values == (2, 2, 2, 2)
    assert len(pr.measurements) == 4


def test_max_modulus_family(family):
    for n, F in family.items():
        rep = max_modulus_check(F)
        assert rep.passed
        assert rep.node_residuals == ()
        assert math.isfinite(rep.log_margin) and rep.log_margin <= 0
    assert max_modulus_check(family[1]).max_inequality == 0.0


def test_max_modulus_mutation(exponents):
    # zeroing c1 zeroes p' = c1 n z^(n-1) at every node and leaves h''
    # nonzero there, so h''/h^3 acquires an order-3 pole at each node
    # inside the disk.  The cubic cannot break one node alone: its
    # conditions are the same at every node by rotation.
    for n in range(2, 13):
        F = CounterexampleFunction(n, exponents[n], 2 * n, 0, 1)
        bad = bypass(F, p=(Fraction(0), F.p[1], F.p[2]))
        rep = max_modulus_check(bad)
        assert not rep.passed, n
        assert rep.max_inequality > 1.0
        # reported at the node 1, which stands for every broken node
        assert rep.worst_point == 1


def test_max_modulus_fails_on_shifted_kernel(monkeypatch):
    # C*_n moved by 1e-13 of itself either way must fail: above, it no
    # longer sits within 1e-14 of the value it attains at its peak; below,
    # it lies under a value it claims to bound
    for n in [*range(2, 13), 60]:
        F = CounterexampleFunction(n, build_p(n), 2 * n, 0, 1)
        assert max_modulus_check(F).passed, n
        lm, x = analysis.log_c_star(n)
        for shifted in (lm + 1e-13 * abs(lm), lm - 1e-13 * abs(lm)):
            monkeypatch.setattr(analysis, "log_c_star", lambda n, _v=(shifted, x): _v)
            bad = max_modulus_check(F)
            assert not bad.passed and (bad.log_margin > 0) == (shifted < lm), n
            assert abs(abs(bad.worst_point) - 2.0) <= 1e-15
        monkeypatch.undo()


def test_max_modulus_matches_full_grid(exponents):
    # C*_n against the log max of the kernel over all 512 n angles of
    # |z| = 2: above it, by no more than the grid's step can hide; near a
    # peak log|h''/h^3| falls like (9/2) phi^2 of itself, and the grid
    # misses the peak by at most pi/512 in the angle phi of z^n
    for n, p in exponents.items():
        th = np.linspace(0.0, 2.0 * math.pi, 512 * n, endpoint=False)
        F = CounterexampleFunction(n, p, 2 * n, 0, 1)
        rep = max_modulus_check(F)
        assert rep.passed, n
        got = float(re.search(r"log C\*_n = (\S+) at", rep.notes).group(1))
        want = float(np.max(kernels.ratio_log(n, 2.0 * np.exp(1j * th))))
        if want == MINUS_INFINITY:
            assert got == want, n
        else:
            assert want <= got <= want + 5 * (math.pi / 512) ** 2 * abs(want), n


def test_max_modulus_fails_on_overflowed_grid():
    # from n = 340 on S_n(u) overflows binary64 on |z| = 2, and C*_n is
    # refused there, so the check must fail
    F = CounterexampleFunction(340, build_p(340), 680, 0, 1)
    rep = max_modulus_check(F)
    assert not rep.passed
    assert math.isnan(rep.max_inequality)
    assert "overflows binary64" in rep.notes


def test_probe_result_length_guard():
    with pytest.raises(ValueError):
        ProbeResult((1, 2), (1.0,), "x")
