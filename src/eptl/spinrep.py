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

A spin vector is a sparse dict ``mask -> LaurentPoly``.  Every word
acts by pushing such vectors through the images of its tokens
(:func:`act`), as link-side matrices act diagram by diagram; the
Hamiltonian is the translation sum of the n-th generator
(:func:`eptl.linkrep.translation_sum`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .diagrams import parse_token
from .linkrep import RingMatrix, translation_sum
from .momentum import Orbits
from .ring import ONE
from .states import module_dim


class SpinSector:
    """The fixed total-spin subspace with (n+d)/2 up spins."""

    __slots__ = ("n", "d", "configs", "index", "_labels")

    def __init__(self, n: int, d: int):
        if not module_dim(n, d):
            raise ValueError(f"no spin sector for n={n}, d={d}")
        self.n = n
        self.d = d
        ups = (n + d) // 2
        self.configs = tuple(
            m for m in range(1 << n) if bin(m).count("1") == ups
        )
        self.index = {m: k for k, m in enumerate(self.configs)}
        assert len(self.configs) == module_dim(n, d)
        self._labels = [self.ket(m) for m in self.configs]

    def __len__(self):
        return len(self.configs)

    def ket(self, mask: int) -> str:
        return "".join("+" if mask >> s & 1 else "-" for s in range(self.n))

    def labels(self) -> list:
        """The kets of the basis masks, built once: treat them as read-only."""
        return self._labels


@lru_cache(maxsize=None)
def spin_sector(n: int, d: int) -> SpinSector:
    return SpinSector(n, d)


def _token_images(tok, sec: SpinSector) -> dict:
    """Action of one word token on the basis masks of a spin sector.

    Returns ``mask -> ((mask', eu, ev), ...)``: the token sends ``mask``
    to the sum of ``u^eu v^ev |mask'>``.  Every token keeps the total
    spin, so each ``mask'`` lies in the sector again.  Tokens are checked
    by :func:`eptl.diagrams.parse_token`.
    """
    n, masks = sec.n, sec.configs
    kind, arg = parse_token(tok, n)
    if kind == "e":
        bi, bj = 1 << (arg - 1), 1 << (arg % n)  # sites i and i+1 (n+1 is 1)
        both = bi | bj
        images = dict.fromkeys(masks, ())
        for m in masks:
            if m & both == bi:  # up at i, down at i+1
                images[m] = ((m, 2, 0), (m ^ both, 0, -2))
            elif m & both == bj:
                images[m] = ((m ^ both, 0, 2), (m, -2, 0))
        return images
    # the translation; its twist v^(2 Sz) is v^(+-d) on the sector
    top, full = n - 1, (1 << n) - 1
    if arg == 1:  # left translation: new site s holds old site s+1
        return {m: ((m >> 1 | (m & 1) << top, 0, sec.d),) for m in masks}
    return {m: ((m << 1 & full | m >> top, 0, -sec.d),) for m in masks}


def act(images, vec: dict) -> dict:
    """Push a sparse spin vector ``mask -> LaurentPoly`` through one
    token's images (see :func:`_token_images`); zero components are dropped."""
    out = {}
    for mask, c in vec.items():
        for m2, eu, ev in images[mask]:
            t = c.shift(eu, ev) if eu or ev else c
            if m2 in out:
                t = out.pop(m2) + t
            if t:
                out[m2] = t
    return out


def tau_matrix(word, n: int, d: int) -> RingMatrix:
    """Exact sector matrix of a generator word of ('e', i) and ('omega',
    +1/-1) tokens (see :func:`eptl.diagrams.parse_token`), the empty word
    the identity, as :func:`eptl.linkrep.omega_matrix` acts on the link side.

    Column ``mask`` pushes ``{mask: 1}`` through the word, the rightmost
    token acting first.
    """
    sec = spin_sector(n, d)
    steps = [_token_images(tok, sec) for tok in reversed(word)]
    columns = []
    for mask in sec.configs:
        vec = {mask: ONE}
        for images in steps:
            vec = act(images, vec)
        columns.append(vec)
    return RingMatrix.from_columns(columns, sec.index, sec.labels(), sec.labels())


def ebar_matrix(i: int, n: int, d: int) -> RingMatrix:
    """Exact sector matrix of the i-th local generator."""
    return tau_matrix([("e", i)], n, d)


def omegabar_matrix(sign: int, n: int, d: int) -> RingMatrix:
    """Exact sector matrix of the twisted translation (sign = +1 or -1)."""
    return tau_matrix([("omega", sign)], n, d)


@lru_cache(maxsize=None)
def spin_orbits(n: int, d: int) -> Orbits:
    """Orbit tables of the twisted translation on the sector."""
    return Orbits(omegabar_matrix(1, n, d), n)


@lru_cache(maxsize=None)
def hamiltonian(n: int, d: int) -> RingMatrix:
    """Exact sector matrix of the sum of all n local generators, the
    translation sum of the n-th.  Cached: treat the result as read-only."""
    return translation_sum(ebar_matrix(n, n, d), spin_orbits(n, d))


def hamiltonian_numeric(n: int, d: int, u: complex, v: complex, cols=None) -> np.ndarray:
    """The spin Hamiltonian at (u, v), or only its columns ``cols``; see
    ``RingMatrix.to_numeric``."""
    return hamiltonian(n, d).to_numeric(u, v, cols)
