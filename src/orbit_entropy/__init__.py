"""Exact orbit cardinalities for the classical reflection families and
for symplectic groups over finite fields, together with the entropy
functionals their normalized logarithms converge to.

Everything that can be an integer or a rational is computed exactly;
floating point appears only in logarithms and in the two entropy
functionals that need them.

The root republishes the public names of ``dynkin``, ``entropy``,
``reflection``, ``report`` and ``symplectic``, and six of ``exact``'s.
"""

from . import dynkin, entropy, reflection, report, symplectic
from .dynkin import *
from .entropy import *
from .exact import (
    InexactDivisionError,
    IntPolynomial,
    exact_div,
    multinomial,
    q_factorial,
    q_multinomial,
)
from .reflection import *
from .report import *
from .symplectic import *

__version__ = "0.1.0"

__all__ = [
    *dynkin.__all__,
    *entropy.__all__,
    "InexactDivisionError", "IntPolynomial", "exact_div",
    "multinomial", "q_factorial", "q_multinomial",
    *reflection.__all__,
    *report.__all__,
    *symplectic.__all__,
]
