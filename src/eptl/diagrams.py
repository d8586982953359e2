"""Affine (cylinder) connectivity diagrams and their action on link states.

A diagram on ``n`` sites is a perfect matching of the 2n boundary points
(bottom 1..n, top 1..n).  Every chord carries a signed count of its
crossings of the imaginary boundary between sites ``n`` and ``1``; the
sign convention is that moving *left* through the boundary counts +1.
Composition closes loops; a loop with net crossing 0 is contractible and
scores one power of the contractible weight, otherwise one power of the
non-contractible weight.  Scalars are tracked as the exponent pair
``(nbeta, nalpha)`` so the caller chooses the substitution.

Every diagram is two flat int tables over its nodes, top i coded as i
and bottom i as n + i (see :class:`AffineDiagram`); :func:`chord_diagram`
writes them from a chord list, and :func:`compose` and
:func:`act_on_link` walk them.  A link state acts by attaching to the
*top* of a diagram; in a product built with :func:`word_diagram` the
rightmost generator therefore acts first.
"""

from __future__ import annotations

from functools import lru_cache

from .states import LinkState, index_table


class AffineDiagram:
    """Immutable cylinder connectivity with accumulated loop exponents.

    The chords are two int tuples over the nodes, top i coded as i and
    bottom i as n + i (index 0 is unused): ``to[x]`` is the partner node of
    x and ``cr[x]`` the signed crossings from x to its partner.
    """

    __slots__ = ("n", "to", "cr", "nbeta", "nalpha")

    def __init__(self, n, to, cr, nbeta=0, nalpha=0):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "to", tuple(to))
        object.__setattr__(self, "cr", tuple(cr))
        object.__setattr__(self, "nbeta", nbeta)
        object.__setattr__(self, "nalpha", nalpha)

    def __setattr__(self, *a):
        raise AttributeError("AffineDiagram is immutable")

    def __eq__(self, other):
        if not isinstance(other, AffineDiagram):
            return NotImplemented
        return self.same_connectivity(other) and (self.nbeta, self.nalpha) == (other.nbeta, other.nalpha)

    def __hash__(self):
        return hash((self.n, self.to, self.cr, self.nbeta, self.nalpha))

    def same_connectivity(self, other) -> bool:
        return self.n == other.n and self.to == other.to and self.cr == other.cr

    def __repr__(self):
        n = self.n
        chords = []
        for x, y in enumerate(self.to):
            if x < y:
                tag = "-".join(f"t{z}" if z <= n else f"b{z - n}" for z in (x, y))
                chords.append(f"{tag}({self.cr[x]:+d})" if self.cr[x] else tag)
        return f"AffineDiagram(n={n}, [{' '.join(chords)}], b^{self.nbeta} a^{self.nalpha})"


def chord_diagram(n: int, chords) -> AffineDiagram:
    """The diagram on n sites with a chord x-y crossing the seam s times
    from x to y for each ``(x, y, s)`` in ``chords`` (top i is node i,
    bottom i is node n + i); the chords must cover every node once."""
    to, cr = [0] * (2 * n + 1), [0] * (2 * n + 1)
    for x, y, s in chords:
        to[x], cr[x] = y, s
        to[y], cr[y] = x, -s
    return AffineDiagram(n, to, cr)


def identity_diagram(n: int) -> AffineDiagram:
    return chord_diagram(n, [(i, n + i, 0) for i in range(1, n + 1)])


@lru_cache(maxsize=None)
def generator_diagram(kind: str, n: int, i: int | None = None) -> AffineDiagram:
    """Build id, e_i, or the translation diagrams.

    kind is one of 'id', 'e', 'omega', 'omega_inv'; for 'e' the site
    index i in 1..n is required (i = n couples sites n and 1 through the
    boundary).  Cached: diagrams are immutable, so callers share them.
    """
    if kind == "id":
        return identity_diagram(n)
    if kind == "e":
        if n < 2:
            raise ValueError("e generators need at least 2 sites")
        if not (1 <= i <= n):
            raise ValueError(f"site index {i} out of range")
        j = i + 1 if i < n else 1
        cross = 0 if i < n else -1
        through = [(k, n + k, 0) for k in range(1, n + 1) if k != i and k != j]
        return chord_diagram(n, [(i, j, cross), (n + i, n + j, cross), *through])
    if kind in ("omega", "omega_inv") and n < 1:
        raise ValueError("the translation needs at least one site")
    if kind == "omega":
        return chord_diagram(n, [(j, n + j - 1, 0) for j in range(2, n + 1)] + [(1, 2 * n, 1)])
    if kind == "omega_inv":
        return chord_diagram(n, [(j, n + j + 1, 0) for j in range(1, n)] + [(n, n + 1, -1)])
    raise ValueError(f"unknown generator kind {kind!r}")


def compose(top: AffineDiagram, bottom: AffineDiagram) -> AffineDiagram:
    """Stack ``top`` above ``bottom`` and trace.

    The result represents the algebra product bottom*top, i.e. acting on
    a link state attached above, ``top`` is applied first.
    """
    if top.n != bottom.n:
        raise ValueError("site-count mismatch")
    n = top.n
    ut, uc = top.to, top.cr
    lt, lc = bottom.to, bottom.cr
    # the bottom node n+k of top is glued to the top node k of bottom;
    # glued[k] marks that interface point as traversed
    glued = [False] * (n + 1)
    to, cr = [0] * (2 * n + 1), [0] * (2 * n + 1)
    nbeta = top.nbeta + bottom.nbeta
    nalpha = top.nalpha + bottom.nalpha

    # chains from the outer boundary (the tops of top, then the bottoms of
    # bottom), each crossing the interface until it reaches an outer node
    layers = ((ut, uc), (lt, lc))
    for start in range(1, 2 * n + 1):
        if to[start]:
            continue
        x, s, low = start, 0, start > n  # low: walking bottom
        while True:
            t, c = layers[low]
            y = t[x]
            s += c[x]
            if (y > n) == low:  # a top of top or a bottom of bottom
                break
            k = y if low else y - n  # the interface point reached
            glued[k] = True
            x, low = n + k if low else k, not low
        to[start], cr[start] = y, s
        to[y], cr[y] = start, -s

    # untouched interface points close loops: bottom's top k, its partner
    # top k', then top's chord from its bottom n+k' back to the interface
    for k in range(1, n + 1):
        if glued[k]:
            continue
        x, s = k, 0
        while True:
            y = lt[x]
            s += lc[x]
            glued[x] = glued[y] = True
            x = ut[n + y] - n
            s += uc[n + y]
            if x == k:
                break
        if abs(s) > 1:
            raise AssertionError(f"loop with |winding| {abs(s)} > 1")
        nbeta, nalpha = nbeta + (s == 0), nalpha + (s != 0)

    return AffineDiagram(n, to, cr, nbeta, nalpha)


def word_diagram(word, n: int) -> AffineDiagram:
    """Diagram of a product of generators, left to right.

    ``word`` is a sequence of ('e', i), ('omega', +1/-1) or 'id' tokens;
    the leftmost token ends up at the bottom of the stack, so the
    rightmost acts first on a link state.
    """
    diag = None
    for tok in word:
        top = _token_diagram(tok, n)
        diag = top if diag is None else compose(top=top, bottom=diag)
    return identity_diagram(n) if diag is None else diag


def _token_diagram(tok, n: int) -> AffineDiagram:
    if tok == "id":
        return generator_diagram("id", n)
    kind, arg = tok
    if kind == "e":
        return generator_diagram("e", n, arg)
    if kind == "omega":
        if arg not in (1, -1):
            raise ValueError(f"translation power must be +1 or -1, not {arg!r}")
        return generator_diagram("omega" if arg == 1 else "omega_inv", n)
    raise ValueError(f"unknown word token {tok!r}")


class ActResult:
    """Outcome of a diagram acting on a link state: the target ``state``
    and its position ``index`` in :func:`eptl.states.enumerate_states`,
    the loop exponents, ``travel`` (per defect: top position, bottom
    position, crossings) and ``twist``, the defects' total leftward
    displacement, the sum of p - q + n s over ``travel``."""

    __slots__ = ("state", "index", "nbeta", "nalpha", "travel", "twist")

    def __init__(self, state, index, nbeta, nalpha, travel, twist):
        self.state = state
        self.index = index
        self.nbeta = nbeta
        self.nalpha = nalpha
        self.travel = travel
        self.twist = twist

    def _fields(self):
        return self.state, self.index, self.nbeta, self.nalpha, self.travel, self.twist

    def __eq__(self, other):
        if not isinstance(other, ActResult):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "ActResult(state={!r}, index={}, nbeta={}, nalpha={}, travel={}, twist={})".format(*self._fields())


def act_on_link(diag: AffineDiagram, w: LinkState):
    """Apply a diagram to a link state attached above it.

    Returns None when two defects get connected, otherwise an ActResult
    whose exponents count the loops closed (on top of the exponents the
    diagram had already accumulated).  The walk collects the target's
    code, its arc openers and defects (see :func:`eptl.states.state_code`),
    and looks the basis state up in :func:`eptl.states.index_table`.
    """
    if diag.n != w.n_sites:
        raise ValueError("site-count mismatch")
    n = diag.n
    to, cr = diag.to, diag.cr
    partner, crossing = w.arcs()  # partner 0 at a defect
    seen = [False] * (n + 1)  # top sites traversed
    nbeta, nalpha = diag.nbeta, diag.nalpha

    def run(x):
        # from diagram node x, alternate diagram chords and arcs of w until
        # a bottom node; returns (bottom site, crossings), or None at a defect
        s = 0
        while True:
            y = to[x]
            s += cr[x]
            if y > n:
                return y - n, s
            seen[y] = True
            x = partner[y]
            if not x:
                return None
            s += crossing[y]
            seen[x] = True

    # defect chains
    travel = []
    code = twist = 0
    done = [False] * (n + 1)  # bottom sites reached
    for p in w.defects:
        seen[p] = True
        end = run(p)
        if end is None:
            return None
        q, s = end
        travel.append((p, q, s))
        done[q] = True
        code |= 1 << (q - 1)
        twist += p - q + n * s

    # remaining bottom nodes pair into arcs, each opened at its left end
    for q1 in range(1, n + 1):
        if done[q1]:
            continue
        end = run(n + q1)
        assert end is not None
        q2, s = end
        done[q2] = True
        if s == 0:
            code |= 1 << (q1 - 1)
        elif s == 1:
            if not q1 < q2:
                raise AssertionError("inconsistent leftward wrap")
            code |= 1 << (q2 - 1)  # the arc wraps: it opens at q2 and closes at q1
        else:
            # q1 is the arc's smaller end, so a planar diagram winds it 0 or +1
            raise AssertionError(f"arc {q1}-{q2} reached with winding {s}")

    # leftover top nodes close loops
    for p in range(1, n + 1):
        if seen[p]:
            continue
        x, s = p, 0
        while True:
            y = to[x]
            s += cr[x] + crossing[y]
            x = partner[y]
            seen[y] = seen[x] = True
            if x == p:
                break
        if abs(s) > 1:
            raise AssertionError(f"loop with |winding| {abs(s)} > 1")
        nbeta, nalpha = nbeta + (s == 0), nalpha + (s != 0)

    # a planar diagram on a valid state gives a basis state
    index, state = index_table(n, len(travel))[code]
    return ActResult(state, index, nbeta, nalpha, tuple(travel), twist)
