"""Exact toolkit for the enlarged periodic Temperley-Lieb algebra.

Twisted link-state modules, the spin-chain modules, the intertwining map
between them, Gram bilinear forms and their determinants, Wenzl-Jones
projectors, and the one-row loop transfer matrix -- all over exact
Laurent polynomials in the loop and twist variables.
"""

from .ring import GaussianInt, LaurentPoly
from .states import LinkState, Path, bijection_C, enumerate_states
from .diagrams import AffineDiagram, act_on_link, compose, generator_diagram
from .linkrep import RingMatrix, gram_matrix, gram_pair, omega_matrix
from .spinrep import ebar_matrix, hamiltonian, omegabar_matrix, spin_sector, tau_matrix
from .intertwiner import (
    det_exact,
    det_formulas,
    factorization_check,
    i_matrix,
    intertwine_state,
)
from .projectors import gamma_matrix, k_factor, same_ratio, u_transform, wenzl_jones
from .transfer import transfer_matrix

__all__ = [
    "AffineDiagram",
    "GaussianInt",
    "LaurentPoly",
    "LinkState",
    "Path",
    "RingMatrix",
    "act_on_link",
    "bijection_C",
    "compose",
    "det_exact",
    "det_formulas",
    "ebar_matrix",
    "enumerate_states",
    "factorization_check",
    "gamma_matrix",
    "generator_diagram",
    "gram_matrix",
    "gram_pair",
    "hamiltonian",
    "i_matrix",
    "intertwine_state",
    "k_factor",
    "omega_matrix",
    "omegabar_matrix",
    "same_ratio",
    "spin_sector",
    "tau_matrix",
    "transfer_matrix",
    "u_transform",
    "wenzl_jones",
]

__version__ = "0.1.0"
