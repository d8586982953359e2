"""Slow independent constructions that the tests compare the library against.

Each oracle builds the same object as a library function by a different
route, and is kept only as a reference for the tests:

* ``det_cofactor``: cofactor expansion, against Bareiss ``det_exact``;
* ``_wenzl_diagrams_reference``: the two-sided idempotent recursion,
  against the one-sided product in ``projectors._wenzl_diagrams``;
* ``_tile_diagram_sequential``: a left-to-right tile sweep, against
  ``transfer.tile_diagram``;
* ``to_numeric_entrywise``: ``LaurentPoly.eval_numeric`` entry by entry,
  against the vectorized ``RingMatrix.to_numeric``.
"""

import numpy as np

from eptl.diagrams import AffineDiagram
from eptl.linkrep import RingMatrix
from eptl.projectors import _embed_strand, _open_compose, _open_generator, _open_identity, _sine
from eptl.ring import ONE, ZERO, LaurentPoly, RingFraction, beta_poly


def det_cofactor(m: RingMatrix) -> LaurentPoly:
    """Cofactor-expansion determinant; independent oracle for small sizes."""
    n = m.rows
    ent = m.entries

    def rec(rows, cols):
        if len(rows) == 1:
            return ent[rows[0]][cols[0]]
        total = None
        r = rows[0]
        rest = rows[1:]
        for t, c in enumerate(cols):
            e = ent[r][c]
            if not e:
                continue
            sub = rec(rest, cols[:t] + cols[t + 1 :])
            term = e * sub
            if t % 2:
                term = -term
            total = term if total is None else total + term
        return ZERO if total is None else total

    if n == 0:
        return ONE
    return rec(list(range(n)), list(range(n)))


def _wenzl_diagrams_reference(p: int):
    """The two-sided idempotent recursion; oracle for the fast builder."""
    if p == 1:
        return {_open_identity(1): (RingFraction.one(), ())}
    prev = _wenzl_diagrams_reference(p - 1)
    base = _embed_strand(prev, p)
    gen = _open_generator(p, p - 1)
    ratio = RingFraction(_sine(p - 1), _sine(p))
    beta = beta_poly()
    out = {m: (c, w) for m, (c, w) in base.items()}
    left = {}
    for m, (c, w) in base.items():
        mm, loops = _open_compose(gen, m, p)
        cc = (c * (beta ** loops)).reduced_u() if loops else c
        word = (p - 1,) + w
        if mm in left:
            c0, w0 = left[mm]
            left[mm] = ((c0 + cc).reduced_u(), w0)
        else:
            left[mm] = (cc, word)
    for m1, (c1, w1) in left.items():
        c1r = (c1 * ratio).reduced_u()
        for m2, (c2, w2) in base.items():
            mm, loops = _open_compose(m2, m1, p)
            cc = (c1r * c2 * (beta ** loops)).reduced_u()
            word = w2 + w1
            if mm in out:
                c0, w0 = out[mm]
                out[mm] = ((c0 + cc).reduced_u(), w0)
            else:
                out[mm] = (cc, word)
    return {m: (c, w) for m, (c, w) in out.items() if not c.is_zero()}


def _tile_diagram_sequential(n: int, config: int) -> AffineDiagram:
    """Independent construction: sweep tiles left to right, resolving each
    interior edge as soon as both sides are attached, then glue the outer
    edge with its boundary crossing."""
    conn: dict = {}
    left_pending = None
    open_right = None
    for i in range(1, n + 1):
        if config >> (i - 1) & 1:
            to_prev, to_right = ("b", i), ("t", i)
        else:
            to_prev, to_right = ("t", i), ("b", i)
        if i == 1:
            left_pending = to_prev
        else:
            conn[open_right] = (to_prev, 0)
            conn[to_prev] = (open_right, 0)
        open_right = to_right
    # glue the outer edge: from the tile-n side to the tile-1 side is
    # rightward through the boundary
    if n == 1:
        conn[open_right] = (left_pending, -1) if open_right != left_pending else (left_pending, 0)
        conn[left_pending] = (open_right, 1) if open_right != left_pending else (open_right, 0)
    else:
        conn[open_right] = (left_pending, -1)
        conn[left_pending] = (open_right, 1)
    return AffineDiagram(n, conn)


def to_numeric_entrywise(m: RingMatrix, u: complex, v: complex) -> np.ndarray:
    """Scalar evaluation of every nonzero entry; oracle for ``to_numeric``."""
    out = np.zeros((m.rows, m.cols), dtype=complex)
    for i in range(m.rows):
        for j, e in enumerate(m.entries[i]):
            if e:
                out[i, j] = e.eval_numeric(u, v)
    return out
