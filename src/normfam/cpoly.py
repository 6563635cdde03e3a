"""Newton-form polynomials over the complex numbers with jet evaluation
and Hermite (osculatory) interpolation via confluent divided differences.

Nothing at run time uses this module: the package's exponent is the
exact cubic in u = z^n - 1 that forge solves for. It is kept as an
independent oracle, against which the tests check that the degree
<= 4n-1 Hermite interpolant of the node conditions is that cubic.

Scalars are duck-typed: python complex and mpmath.mpc both work, so the
same code runs in double precision or under an mpmath.workprec context.
"""

from dataclasses import dataclass

from .errors import DuplicateNodes
from .forge import Jet

_FACT = (1.0, 1.0, 2.0, 6.0)


@dataclass(frozen=True)
class NewtonPolynomial:
    """P(z) = c0 + c1 (z-x0) + c2 (z-x0)(z-x1) + ... in nested Newton form.

    centers holds x0..x_{d-1}, coeffs holds c0..c_d; degree(P) <= d.
    """

    centers: tuple
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != len(self.centers) + 1:
            raise ValueError("need exactly len(centers) + 1 coefficients")


@dataclass(frozen=True)
class HermiteSpec:
    """Interpolation data: at each node, a jet of order 3 prescribing the
    value and first three derivatives of the sought polynomial."""

    nodes: tuple
    jets: tuple

    def __post_init__(self):
        if len(self.nodes) == 0:
            raise ValueError("need at least one node")
        if len(self.jets) != len(self.nodes):
            raise ValueError("need exactly one jet per node")
        for jet in self.jets:
            if jet.order != 3:
                raise ValueError("every jet must have order 3")
        for i, a in enumerate(self.nodes):
            for b in self.nodes[:i]:
                if a == b:
                    raise ValueError("nodes must be pairwise distinct")


def eval_jet(P, z, J):
    """Evaluate (P(z), P'(z), ..., P^(J)(z)) by jet propagation.

    Each Newton factor (z - x_i) is absorbed with the product rule,
    so value and derivatives accumulate simultaneously; the polynomial
    is never expanded symbolically.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    jet = [0] * (J + 1)
    jet[0] = P.coeffs[-1]
    for i in range(len(P.centers) - 1, -1, -1):
        w = z - P.centers[i]
        for k in range(min(J, len(P.centers) - i), 0, -1):
            jet[k] = jet[k] * w + k * jet[k - 1]
        jet[0] = jet[0] * w + P.coeffs[i]
    zero = z * 0
    return Jet(J, tuple(v + zero for v in jet))


def hermite_interpolate(spec):
    """Interpolating polynomial of degree <= 4n-1 matching all n jets.

    Builds the confluent divided-difference table over the center
    sequence [x0,x0,x0,x0, x1,x1,x1,x1, ...]: a difference spanning j+1
    copies of one node is the prescribed derivative value[j]/j!, any
    other entry is the usual quotient of the two entries below it.
    Nodes enter in index order, so the output is deterministic.
    """
    nodes = spec.nodes
    jets = spec.jets
    n = len(nodes)
    tol = 1e-12 * max(abs(x) for x in nodes)
    for i, a in enumerate(nodes):
        for b in nodes[:i]:
            if abs(a - b) <= tol:
                raise DuplicateNodes(f"nodes within {float(tol):g} of each other")
    r = 4
    N = n * r
    seq = [nodes[i // r] for i in range(N)]
    col = [jets[i // r].values[0] for i in range(N)]
    coeffs = [col[0]]
    for j in range(1, N):
        nxt = []
        for i in range(N - j):
            if (i // r) == ((i + j) // r):
                nxt.append(jets[i // r].values[j] / _FACT[j])
            else:
                nxt.append((col[i + 1] - col[i]) / (seq[i + j] - seq[i]))
        col = nxt
        coeffs.append(col[0])
    return NewtonPolynomial(tuple(seq[:-1]), tuple(coeffs))


def to_monomial(P):
    """Monomial coefficients c0..cd with sum(ck z^k) = P(z).

    Exists for export only; trailing coefficients that are exactly zero
    are trimmed so the zero polynomial comes out as [0].
    """
    mono = [P.coeffs[-1]]
    for i in range(len(P.centers) - 1, -1, -1):
        x = P.centers[i]
        nxt = [-x * m for m in mono] + [mono[-1]]
        for k in range(1, len(mono)):
            nxt[k] += mono[k - 1]
        nxt[0] += P.coeffs[i]
        mono = nxt
    while len(mono) > 1 and mono[-1] == 0:
        mono.pop()
    return mono
