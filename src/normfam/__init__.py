"""normfam: a family of entire functions f_n = a_n (z^n - 1) e^{p_n(z)}
obeying |f''| <= 1 + |f|^3 on the disk |z| < 2 whose spherical derivatives
blow up along the unit circle, so no normality criterion can tame them.

Construction (the exact exponent p_n = c1 u + c2 u^2 + c3 u^3 in
u = z^n - 1, three rationals in closed form in n) lives in `forge`;
numerical verification of the claimed properties lives in `analysis`;
`storage` persists records as lossless JSON; `cli` wraps everything for
the shell.
"""

from .analysis import (
    GridSpec,
    ProbeResult,
    VerificationReport,
    fk_value,
    lemma2_probe,
    marty_probe,
    max_modulus_check,
    spherical_derivative,
    verify_inequality,
    verify_node_jets,
)
from .errors import (
    CenterOffCircle,
    DuplicateNodes,
    InvariantViolation,
    NonPositiveM,
    NormfamError,
    OrderTooLow,
    Overflow,
    PointTooCloseToCircle,
)
from .forge import (
    ConstructionConfig,
    CounterexampleFunction,
    Jet,
    build_p,
    construct,
    f_jet,
)
from .storage import load_function, save_function

__all__ = [
    "Jet",
    "ConstructionConfig",
    "CounterexampleFunction",
    "build_p",
    "construct",
    "f_jet",
    "GridSpec",
    "VerificationReport",
    "ProbeResult",
    "fk_value",
    "spherical_derivative",
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
    "OrderTooLow",
    "CenterOffCircle",
    "PointTooCloseToCircle",
    "InvariantViolation",
]

__version__ = "0.1.0"
