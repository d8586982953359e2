"""The twisted spin-chain representation on (C^2)^(tensor n).

Basis states are bitmasks: bit ``s-1`` set means spin up at site ``s``.
All operators below commute with the total spin, so they are built
sector by sector; the sector with ``(n+d)/2`` up spins matches the
d-defect link module in dimension.

The local generator acts on neighboring sites (site n couples back to
site 1) by::

    up,up -> 0                down,down -> 0
    up,down -> u^2 |up,down> + v^-2 |down,up>
    down,up -> v^2 |up,down> + u^-2 |down,up>

and the translation is the cyclic left shift scaled by ``v^(2 Sz)``,
which on a fixed sector is the monomial ``v^(+-d)``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linkrep import RingMatrix
from .ring import ZERO, LaurentPoly
from .states import module_dim


class SpinSector:
    """The fixed total-spin subspace with (n+d)/2 up spins."""

    __slots__ = ("n", "d", "configs", "index")

    def __init__(self, n: int, d: int):
        if d < 0 or d > n or (n - d) % 2:
            raise ValueError(f"no spin sector for n={n}, d={d}")
        self.n = n
        self.d = d
        ups = (n + d) // 2
        self.configs = tuple(
            m for m in range(1 << n) if bin(m).count("1") == ups
        )
        self.index = {m: k for k, m in enumerate(self.configs)}
        assert len(self.configs) == module_dim(n, d)

    def __len__(self):
        return len(self.configs)

    def ket(self, mask: int) -> str:
        return "".join("+" if mask >> s & 1 else "-" for s in range(self.n))

    def labels(self):
        return [self.ket(m) for m in self.configs]


@lru_cache(maxsize=None)
def spin_sector(n: int, d: int) -> SpinSector:
    return SpinSector(n, d)


def _site_bit(mask: int, site: int) -> int:
    return mask >> (site - 1) & 1


def _flip(mask: int, site: int) -> int:
    return mask ^ (1 << (site - 1))


def ebar_columns(i: int, n: int):
    """Sparse action of the i-th local generator: mask -> [(mask', weight)].

    Weights are (eu, ev) exponent pairs of monomials.
    """
    j = i + 1 if i < n else 1

    def apply(mask):
        bi, bj = _site_bit(mask, i), _site_bit(mask, j)
        if bi == bj:
            return []
        if bi == 1:  # up at i, down at j
            return [(mask, (2, 0)), (_flip(_flip(mask, i), j), (0, -2))]
        return [(_flip(_flip(mask, i), j), (0, 2)), (mask, (-2, 0))]

    return apply


def _generator_sum(sites, n: int, d: int) -> RingMatrix:
    """Exact sector matrix of the sum of the local generators at ``sites``."""
    if n < 2:
        raise ValueError("e generators need at least 2 sites")
    sec = spin_sector(n, d)
    size = len(sec)
    ent = [[ZERO] * size for _ in range(size)]
    for i in sites:
        apply = ebar_columns(i, n)
        for col, mask in enumerate(sec.configs):
            for mask2, (eu, ev) in apply(mask):
                row = sec.index[mask2]
                ent[row][col] = ent[row][col] + LaurentPoly.monomial(eu, ev)
    return RingMatrix(ent, sec.labels(), sec.labels())


def ebar_matrix(i: int, n: int, d: int) -> RingMatrix:
    """Exact sector matrix of the i-th local generator."""
    if not 1 <= i <= n:
        raise ValueError(f"site index {i} out of range for {n} sites")
    return _generator_sum([i], n, d)


def omegabar_matrix(sign: int, n: int, d: int) -> RingMatrix:
    """Exact sector matrix of the twisted translation (sign = +1 or -1)."""
    sec = spin_sector(n, d)
    size = len(sec)
    twist = LaurentPoly.v_pow(d if sign > 0 else -d)
    ent = [[ZERO] * size for _ in range(size)]
    for col, mask in enumerate(sec.configs):
        shifted = _shift_mask(mask, n, sign)
        ent[sec.index[shifted]][col] = twist
    return RingMatrix(ent, sec.labels(), sec.labels())


def _shift_mask(mask: int, n: int, sign: int) -> int:
    if sign > 0:
        # left translation: new site s holds old site s+1
        return (mask >> 1) | ((mask & 1) << (n - 1))
    return ((mask << 1) & ((1 << n) - 1)) | (mask >> (n - 1))


def tau_matrix(word, n: int, d: int) -> RingMatrix:
    """Exact sector matrix of a generator word (same tokens as word_diagram)."""
    sec = spin_sector(n, d)
    out = RingMatrix.identity(len(sec), sec.labels())
    for tok in word:
        if tok == "id":
            continue
        kind, arg = tok
        m = ebar_matrix(arg, n, d) if kind == "e" else omegabar_matrix(arg, n, d)
        out = out @ m
    return out


def hamiltonian(n: int, d: int) -> RingMatrix:
    """Exact sector matrix of the sum of all n local generators."""
    return _generator_sum(range(1, n + 1), n, d)


def hamiltonian_numeric(n: int, d: int, u: complex, v: complex) -> np.ndarray:
    return hamiltonian(n, d).to_numeric(u, v)
