"""normfam: a family of entire functions f_n = a_n (z^n - 1) e^{p_n(z)}
obeying |f''| <= 1 + |f|^3 on the disk |z| < 2 whose spherical derivatives
blow up along the unit circle, so no normality criterion can tame them.

Construction (the exact exponent p_n = c1 u + c2 u^2 + c3 u^3 in
u = z^n - 1, three rationals in closed form in n, and the cubic S_n of
h''/h^3 = n z^(n-2) S_n(u) e^(-2p)) lives in `forge`;
numerical verification of the claimed properties lives in `analysis`;
`storage` persists records as lossless JSON; `cli` wraps everything for
the shell, and `gridcsv`, which only its grid export imports, writes the
CSV.
"""

from .analysis import (
    GridSpec,
    ProbeResult,
    VerificationReport,
    lemma2_probe,
    marty_probe,
    max_modulus_check,
    verify_inequality,
    verify_node_jets,
)
from .errors import (
    CenterOffCircle,
    DuplicateNodes,
    InvariantViolation,
    NonPositiveM,
    NormfamError,
    Overflow,
    PointTooCloseToCircle,
)
from .forge import CounterexampleFunction, build_p, build_s, construct
from .storage import load_function, save_function

__all__ = [
    "CounterexampleFunction",
    "build_p",
    "build_s",
    "construct",
    "GridSpec",
    "VerificationReport",
    "ProbeResult",
    "verify_inequality",
    "verify_node_jets",
    "marty_probe",
    "lemma2_probe",
    "max_modulus_check",
    "load_function",
    "save_function",
    "NormfamError",
    "DuplicateNodes",
    "Overflow",
    "NonPositiveM",
    "CenterOffCircle",
    "PointTooCloseToCircle",
    "InvariantViolation",
]

__version__ = "0.1.0"
