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
sum is built once per sector as an integer term table (transfer_table),
whose terms with k second-choice tiles make the coefficient matrix T_k
of T = sum_k sin(lam - nu)^(n - k) sin(nu)^k T_k (table_matrix).
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
from .linkrep import hamiltonian_link, link_orbits
from .states import enumerate_states, index_table, module_dim

# relative size below which each property defect counts as vanishing
DEFECT_TOL = 1e-9


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


def table_matrix(n: int, d: int, weights, lam: float, mu: float) -> np.ndarray:
    """The transfer table's terms on the d-defect module, summed with the
    terms of k second-choice tiles weighted by ``weights[k]``.

    Loop weights are beta = 2 cos(lam) and alpha = 2 cos(mu n); the
    twist is exp(i mu).  The unit vector of k gives the coefficient
    matrix T_k of T = sum_k sin(lam - nu)^(n - k) sin(nu)^k T_k.
    """
    keys, coeffs = transfer_table(n, d)
    size = module_dim(n, d)
    u = exp(1j * lam / 2)
    v = exp(1j * mu)
    beta = u * u + 1 / (u * u)
    alpha = v ** n + v ** (-n)
    rows, cols, k, nbeta, nalpha, twist = keys.T
    terms = weights[k] * beta ** nbeta * alpha ** nalpha * v ** twist
    out = np.zeros((size, size), dtype=complex)
    np.add.at(out, (rows, cols), coeffs * terms)
    return out


def transfer_matrix(n: int, d: int, lam: float, nu: complex, mu: float) -> np.ndarray:
    """Numeric transfer matrix on the d-defect module: a tile filling
    weighs sin(lam - nu)^(n - k) sin(nu)^k, k its count of second-choice
    tiles (see :func:`table_matrix`)."""
    k = np.arange(n + 1)
    return table_matrix(n, d, sin(lam - nu) ** (n - k) * sin(nu) ** k, lam, mu)


def _relative(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-30))


def commuting_family_defect(n: int, d: int, lam: float, nu1: complex, nu2: complex, mu: float) -> float:
    """Relative size of the commutator of two members of the family."""
    t1 = transfer_matrix(n, d, lam, nu1, mu)
    t2 = transfer_matrix(n, d, lam, nu2, mu)
    comm = t1 @ t2 - t2 @ t1
    scale = np.linalg.norm(t1) * np.linalg.norm(t2)
    return float(np.linalg.norm(comm) / scale) if scale else 0.0


def translation_invariance_defect(n: int, d: int, lam: float, nu: complex, mu: float) -> float:
    """|T Omega - Omega T| / (|T| |Omega|).  Omega = c P (see
    :func:`eptl.linkrep.link_orbits`): T Omega and Omega T gather the
    columns of c T through P and its rows through P^-1."""
    t = transfer_matrix(n, d, lam, nu, mu)
    orbits = link_orbits(n, d)
    c = orbits.c.eval_numeric(exp(1j * lam / 2), exp(1j * mu))
    comm = c * (t[:, orbits.perm] - t[orbits.powers[-1]])
    scale = np.linalg.norm(t) * abs(c) * np.sqrt(len(t))
    return float(np.linalg.norm(comm) / scale) if scale else 0.0


def mirror_permutation(n: int, d: int) -> np.ndarray:
    """Basis index of the mirror image p -> n+1-p of each basis state.

    The mirror's arc openers are the images of the arc closers, and its
    defects those of the defects: its code sets bit n-c for each closer
    c and bit n-p for each defect p.
    """
    table = index_table(n, d)
    ends = ([(j - 1) % n + 1 for _, j in w.pairs] + list(w.defects) for w in enumerate_states(n, d))
    return np.array([table[sum(1 << (n - s) for s in sites)] for sites in ends], dtype=np.intp)


def crossing_defect(n: int, d: int, lam: float, nu: complex, mu: float) -> float:
    """Deviation in the crossing-reflection identity.

    Reflection maps the twist-v module to the twist-1/v module, so the
    identity compares the crossed matrix at twist v against the
    mirror conjugate of the original at twist 1/v.
    """
    p = mirror_permutation(n, d)
    t_flip = transfer_matrix(n, d, lam, nu, -mu)
    return _relative(transfer_matrix(n, d, lam, lam - nu, mu), t_flip[np.ix_(p, p)])


def expansion_defect(n: int, d: int, lam: float, mu: float) -> float:
    """Deviation of the first-order anisotropy expansion.

    T(nu) = sin(lam)^n T_0 + nu sin(lam)^(n-1) (T_1 - n cos(lam) T_0)
    + O(nu^2), so the expansion about the zero-anisotropy limit
    sin(lam)^n Omega, with generator sum H, is T_0 = Omega and
    T_1 = Omega H; neither divides by sin(lam).  Returns the larger
    relative deviation of the two at (u, v); with Omega = c P, T_0 is
    compared as P^-1 T_0 against c and Omega H gathers c H through P^-1.
    """
    u, v = exp(1j * lam / 2), exp(1j * mu)
    orbits = link_orbits(n, d)
    c = orbits.c.eval_numeric(u, v)
    hmat = hamiltonian_link(n, d).to_numeric(u, v)
    t0, t1 = (table_matrix(n, d, unit, lam, mu) for unit in np.eye(n + 1)[:2])
    return max(_relative(t0[orbits.perm], c * np.eye(len(t0))), _relative(t1, c * hmat[orbits.powers[-1]]))
