import cmath
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath
import pytest

from normfam import forge
from normfam.forge import Jet, build_p, construct, h_jet


@pytest.fixture(scope="session")
def family():
    """Constructed members for orders 1..6, shared across the suite."""
    return {n: construct(n) for n in range(1, 7)}


@pytest.fixture(scope="session")
def exponents():
    """The exact exponents (c1, c2, c3) for orders 1..12."""
    return {n: build_p(n) for n in range(1, 13)}


# The node conditions solved directly: an oracle for build_p's closed form
# that knows nothing of it.


class NodeConditions(NamedTuple):
    """p', p'', p''' prescribed at the node z: the unique values killing
    h'', h''' and h'''' there, for h = (z^n - 1) e^p."""

    node: object
    p1: object
    p2: object
    p3: object


def root_of_unity(n, ell, precision=53):
    """exp(2 pi i ell / n): a python complex at 53 bits, exact for ell = 0;
    an mpmath.mpc above, whose expjpi keeps the axis nodes exact."""
    if precision <= 53:
        return cmath.exp(2j * math.pi * ell / n)
    with mpmath.workprec(precision):
        return mpmath.expjpi(mpmath.mpf(2 * ell) / n)


def node_conditions_at(n, z):
    """Solve h'' = h''' = h'''' = 0 at z for p', p'', p''', in z's own
    arithmetic (Fraction, complex or mpmath). Expanding h = g e^p by
    Leibniz and dividing out e^p != 0, each condition is linear in the
    highest derivative of p with coefficient g' != 0: a triangular system.
    g = z^n - 1 has g^(k) = n!/(n-k)! z^(n-k), 0 for k > n."""
    g1, g2, g3, g4 = (math.perm(n, k) * z ** (n - k) if k <= n else 0 for k in range(1, 5))
    p1 = -g2 / (2 * g1)
    p2 = -(g3 + 3 * g2 * p1 + 3 * g1 * p1**2) / (3 * g1)
    p3 = -(
        g4
        + 4 * g3 * p1
        + 6 * g2 * p2
        + 6 * g2 * p1**2
        + 12 * g1 * p1 * p2
        + 4 * g1 * p1**3
    ) / (4 * g1)
    return NodeConditions(z, p1, p2, p3)


def node_conditions(n, ell, precision=53):
    """The node conditions at the ell-th n-th root of unity."""
    if precision <= 53:
        return node_conditions_at(n, root_of_unity(n, ell))
    with mpmath.workprec(precision):
        return node_conditions_at(n, root_of_unity(n, ell, precision))


def solved_exponent(n):
    """(c1, c2, c3) solved in Fractions from the node conditions at z = 1.
    There u = 0 and u^(k) = n!/(n-k)!, so the chain rule
    p' = c1 u', p'' = 2 c2 u'^2 + c1 u'', p''' = 6 c3 u'^3 + 6 c2 u' u'' + c1 u'''
    is a triangular system for the c_k."""
    nc = node_conditions_at(n, Fraction(1))
    d1, d2, d3 = n, n * (n - 1), n * (n - 1) * (n - 2)
    c1 = nc.p1 / d1
    c2 = (nc.p2 - c1 * d2) / (2 * d1**2)
    c3 = (nc.p3 - 6 * c2 * d1 * d2 - c1 * d3) / (6 * d1**3)
    return (c1, c2, c3)


# Scalar jets for the tests, from the reference series of forge: h_jet and
# the shift-and-compose steps under it. The package itself evaluates f, f'
# and f'' only through the closed forms of forge.h_parts.


def f_jet(F, z, J):
    """Jet of f = a h, any order J >= 0, as mpmath.mpc values (a overflows
    binary64 from order 5 on), all of it, h's jet included, at the
    record's precision."""
    with mpmath.workprec(F.precision):
        hj = h_jet(F.n, F.p, z, J)
        return Jet(J, tuple(mpmath.mpc(F.a * v) for v in hj.values))


def p_jet(n, p, z, J):
    """Jet of p at z, any order J >= 0: the shifted cubic P(s) = p(u + s)
    composed with s(t) = (z + t)^n - z^n, as h_jet composes e^P; exact at
    a Fraction z, mpmath.mpc elsewhere."""
    _, P, s = forge._w_series(n, p, z, J)
    return forge._compose(P, s, J)
