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
Rotating a filling conjugates it by the translation, so the table acts
with one filling per rotation orbit and reaches the others through the
translation's permutation of the basis.
"""

from __future__ import annotations

from cmath import exp, sin
from functools import lru_cache
from math import prod

import numpy as np

from .diagrams import AffineDiagram, act_on_link, chord_diagram
from .linkrep import hamiltonian_link, link_orbits, omega_matrix
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
# |sin(lam)| below which the zero-anisotropy limit sin(lam)^n Omega vanishes
# and the expansion about it, which divides by sin(lam), is undefined
SIN_FLOOR = 1e-6


@lru_cache(maxsize=None)
def tile_diagram(n: int, config: int) -> AffineDiagram:
    """Connectivity of one row of tiles; bit i-1 of config set means tile i
    uses its second (sin nu) filling.

    Each vertical edge between neighboring tiles joins exactly two site
    nodes, so every chord is a single hop; only hops through the glued
    outer edge (between tile n and tile 1) cross the boundary.
    """
    # edge j sits between tile j and tile j+1; edge 0 is the glued one
    # each tile lists its left-edge node first, so the glued edge lists the
    # tile-1 side first, also at n = 1 where tile 1 is tile n
    edge_nodes: dict = {j: [] for j in range(n)}
    for i in range(1, n + 1):
        left, right = (i - 1) % n, i % n
        second = config >> (i - 1) & 1
        edge_nodes[left].append(n + i if second else i)
        edge_nodes[right].append(i if second else n + i)
    # moving from the tile-1 side to the tile-n side is leftward
    return chord_diagram(n, [(a, b, int(edge == 0)) for edge, (a, b) in edge_nodes.items()])


@lru_cache(maxsize=None)
def transfer_table(n: int, d: int) -> tuple:
    """Integer terms of the transfer matrix on the d-defect module.

    Returns read-only int64 arrays ``(keys, coeffs)``: each row of keys is
    ``(row, col, k, nbeta, nalpha, twist)``, and coeffs counts the tile
    fillings with k second-choice tiles (of the 2^n) that give that term.
    Terms appear in the order they first occur when the fillings are
    taken in increasing bit order and the columns in basis order.

    Rotating a filling's bits right by one conjugates it by the
    translation: ``tile_diagram(n, c >> 1 | (c & 1) << (n-1))`` is
    Omega T_c Omega^-1.  So only one filling per rotation orbit acts on
    the basis; the terms of its r-th rotation follow a column through
    P^-r, then T_c, then P^r, with P the translation's permutation and
    its powers from :func:`eptl.linkrep.link_orbits`: Omega is one
    monomial times P, so the twists of Omega^-r and Omega^r cancel.
    """
    basis = enumerate_states(n, d)
    dim = len(basis)

    def act_all(diag):
        # (row, nbeta, nalpha, twist) per column; row -1 where two defects join
        res = (act_on_link(diag, w) for w in basis)
        rows = [(r.index, r.nbeta, r.nalpha, r.twist) if r else (-1, 0, 0, 0) for r in res]
        return np.array(rows, dtype=np.int32).reshape(dim, 4).T

    powers = link_orbits(n, d).powers  # P^r, and P^-r is powers[-r]
    terms = {}  # config -> (col, row, nbeta, nalpha, twist) arrays
    for c in range(1 << n):
        if c in terms:
            continue
        row_c, nbeta_c, nalpha_c, twist_c = act_all(tile_diagram(n, c))
        config, r = c, 0
        while config not in terms:
            back = powers[-r]
            cols = np.flatnonzero(row_c[back] >= 0).astype(np.int32)
            mid = back[cols]
            out = row_c[mid]
            terms[config] = (cols, powers[r][out], nbeta_c[mid], nalpha_c[mid], twist_c[mid])
            config = config >> 1 | (config & 1) << (n - 1)
            r += 1
    parts = [terms.pop(c) for c in range(1 << n)]
    col, row, nbeta, nalpha, twist = (np.concatenate(f) for f in zip(*parts))
    k = np.repeat([c.bit_count() for c in range(1 << n)], [len(p[0]) for p in parts])
    del parts  # free the per-filling arrays before packing

    # one int64 per term: np.unique on a flat array needs far less memory than on rows
    fields = (row, col, k, nbeta, nalpha, twist)
    lows = (0, 0, 0, *(int(f.min()) for f in fields[3:]))
    radices = (dim, dim, n + 1, *(int(f.max()) - lo + 1 for f, lo in zip(fields[3:], lows[3:])))
    assert prod(radices) < 1 << 63, radices
    packed = np.zeros(len(row), dtype=np.int64)
    for f, lo, radix in zip(fields, lows, radices):
        packed *= radix
        packed += f
        packed -= lo
    packed, first, counts = np.unique(packed, return_index=True, return_counts=True)
    order = np.argsort(first)
    packed, coeffs = packed[order], counts[order].astype(np.int64)
    keys = np.empty((len(packed), 6), dtype=np.int64)
    for i in reversed(range(6)):
        packed, keys[:, i] = np.divmod(packed, radices[i])
        keys[:, i] += lows[i]
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
    generator-sum matrix.  Raises ValueError when |sin(lam)| is below
    ``SIN_FLOOR``.
    """
    if abs(sin(lam)) < SIN_FLOOR:
        raise ValueError(f"sin(lambda) vanishes at lambda = {lam}; the expansion is undefined")
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
