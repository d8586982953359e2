"""The one-row loop transfer matrix in the link representation.

A row of n square tiles sits around the cylinder, tile i over site i,
with the leftmost and rightmost tile edges glued.  Each tile resolves
into one of two planar fillings:

* weight sin(lam - nu): bottom joins the right edge, left joins top;
* weight sin(nu):       bottom joins the left edge, top joins right.

Summing the 2^n fillings gives a connectivity acting on link states.
The all-first-choice filling is the unit translation (this pins the
tile orientation), so the nu -> 0 limit is sin(lam)^n times the
translation matrix.  The fillings do not depend on the point, so their
sum is built once per sector as an integer term table (transfer_table).
"""

from __future__ import annotations

from cmath import exp, sin
from collections import Counter
from functools import lru_cache

import numpy as np

from .diagrams import AffineDiagram, act_on_link
from .linkrep import hamiltonian_link, omega_matrix
from .states import LinkState, enumerate_states, module_dim

# relative size below which each property defect counts as vanishing
DEFECT_TOL = {
    "commute_defect": 1e-9,
    "translate_defect": 1e-9,
    "crossing_defect": 1e-9,
    "expansion_defect": 1e-5,
}
# finite-difference step of expansion_defect
EXPANSION_STEP = 1e-4


@lru_cache(maxsize=None)
def tile_diagram(n: int, config: int) -> AffineDiagram:
    """Connectivity of one row of tiles; bit i-1 of config set means tile i
    uses its second (sin nu) filling.

    Each vertical edge between neighboring tiles joins exactly two site
    nodes, so every chord is a single hop; only hops through the glued
    outer edge (between tile n and tile 1) cross the boundary.
    """
    # edge j sits between tile j and tile j+1; edge 0 is the glued one
    edge_nodes: dict = {j: [] for j in range(n)}
    for i in range(1, n + 1):
        left, right = (i - 1) % n, i % n
        if config >> (i - 1) & 1:
            edge_nodes[right].append(("t", i))
            edge_nodes[left].append(("b", i))
        else:
            edge_nodes[left].append(("t", i))
            edge_nodes[right].append(("b", i))

    conn: dict = {}
    for edge, (a, b) in edge_nodes.items():
        cross = 0
        if edge == 0 and n > 1:
            # moving from the tile-1 side to the tile-n side is leftward
            cross = 1 if a[1] == 1 else -1
        conn[a] = (b, cross)
        conn[b] = (a, -cross)
    return AffineDiagram(n, conn)


@lru_cache(maxsize=None)
def transfer_table(n: int, d: int) -> tuple:
    """Integer terms of the transfer matrix on the d-defect module.

    Returns read-only int64 arrays ``(keys, coeffs)``: each row of keys is
    ``(row, col, k, nbeta, nalpha, twist)``, and coeffs counts the tile
    fillings with k second-choice tiles (of the 2^n) that give that term.
    """
    basis = enumerate_states(n, d)
    index = {w: j for j, w in enumerate(basis)}
    counts = Counter()
    for config in range(1 << n):
        diag = tile_diagram(n, config)
        k = config.bit_count()
        for j, w in enumerate(basis):
            res = act_on_link(diag, w)
            if res is not None:
                counts[index[res.state], j, k, res.nbeta, res.nalpha, res.twist] += 1
    keys = np.array(list(counts), dtype=np.int64).reshape(-1, 6)
    coeffs = np.array(list(counts.values()), dtype=np.int64)
    keys.flags.writeable = coeffs.flags.writeable = False
    return keys, coeffs


def transfer_matrix(n: int, d: int, lam: float, nu: complex, mu: float) -> np.ndarray:
    """Numeric transfer matrix on the d-defect module.

    Loop weights are beta = 2 cos(lam) and alpha = 2 cos(mu n); the
    twist is exp(i mu).  A tile filling weighs sin(lam - nu)^(n - k)
    sin(nu)^k, k its count of second-choice tiles.
    """
    keys, coeffs = transfer_table(n, d)
    size = module_dim(n, d)
    u = exp(1j * lam / 2)
    v = exp(1j * mu)
    beta = u * u + 1 / (u * u)
    alpha = v ** n + v ** (-n)
    rows, cols, k, nbeta, nalpha, twist = keys.T
    weights = sin(lam - nu) ** (n - k) * sin(nu) ** k * beta ** nbeta * alpha ** nalpha * v ** twist
    out = np.zeros((size, size), dtype=complex)
    np.add.at(out, (rows, cols), coeffs * weights)
    return out


def commuting_family_defect(n: int, d: int, lam: float, nu1: complex, nu2: complex, mu: float) -> float:
    """Relative size of the commutator of two members of the family."""
    t1 = transfer_matrix(n, d, lam, nu1, mu)
    t2 = transfer_matrix(n, d, lam, nu2, mu)
    comm = t1 @ t2 - t2 @ t1
    scale = np.linalg.norm(t1) * np.linalg.norm(t2)
    return float(np.linalg.norm(comm) / scale) if scale else 0.0


def translation_invariance_defect(n: int, d: int, lam: float, nu: complex, mu: float) -> float:
    t = transfer_matrix(n, d, lam, nu, mu)
    u, v = exp(1j * lam / 2), exp(1j * mu)
    om = omega_matrix([("omega", 1)], n, d).to_numeric(u, v)
    comm = t @ om - om @ t
    scale = np.linalg.norm(t) * np.linalg.norm(om)
    return float(np.linalg.norm(comm) / scale) if scale else 0.0


def reflect_state(w: LinkState) -> LinkState:
    """Left-right mirror: site p -> n+1-p."""
    n = w.n_sites
    pairs = []
    for i, j in w.pairs:
        if j <= n:
            pairs.append((n + 1 - j, n + 1 - i))
        else:
            pairs.append((2 * n + 1 - j, 2 * n + 1 - i))
    defects = [n + 1 - p for p in w.defects]
    return LinkState(n, pairs, defects)


def reflection_permutation(n: int, d: int) -> np.ndarray:
    basis = enumerate_states(n, d)
    index = {w: k for k, w in enumerate(basis)}
    size = len(basis)
    r = np.zeros((size, size))
    for j, w in enumerate(basis):
        r[index[reflect_state(w)], j] = 1.0
    return r


def crossing_defect(n: int, d: int, lam: float, nu: complex, mu: float) -> float:
    """Deviation in the crossing-reflection identity.

    Reflection maps the twist-v module to the twist-1/v module, so the
    identity compares the crossed matrix at twist v against the
    reflection conjugate of the original at twist 1/v.
    """
    lhs = transfer_matrix(n, d, lam, lam - nu, mu)
    r = reflection_permutation(n, d)
    t_flip = transfer_matrix(n, d, lam, nu, -mu)
    rhs = r.T @ t_flip @ r
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-30)
    return float(np.linalg.norm(lhs - rhs) / scale)


def expansion_defect(n: int, d: int, lam: float, mu: float) -> float:
    """Deviation of the first-order anisotropy expansion.

    Richardson-extrapolated central differences of the transfer matrix
    at zero anisotropy, with step ``EXPANSION_STEP``, against
    sin(lam)^n * Omega (H/sin(lam) - n cot(lam)), with H the
    generator-sum matrix.
    """
    h = EXPANSION_STEP
    u, v = exp(1j * lam / 2), exp(1j * mu)
    d1 = (transfer_matrix(n, d, lam, h, mu) - transfer_matrix(n, d, lam, -h, mu)) / (2 * h)
    d2 = (transfer_matrix(n, d, lam, 2 * h, mu) - transfer_matrix(n, d, lam, -2 * h, mu)) / (4 * h)
    deriv = (4 * d1 - d2) / 3
    om = omega_matrix([("omega", 1)], n, d).to_numeric(u, v)
    hmat = hamiltonian_link(n, d).to_numeric(u, v)
    s, c = np.sin(lam), np.cos(lam)
    expect = (s ** n) * om @ (hmat / s - n * (c / s) * np.eye(len(hmat)))
    scale = max(np.linalg.norm(deriv), np.linalg.norm(expect), 1e-30)
    return float(np.linalg.norm(deriv - expect) / scale)
