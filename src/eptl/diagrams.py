"""Affine (cylinder) connectivity diagrams and their action on link states.

A diagram on ``n`` sites is a perfect matching of the 2n boundary points
(bottom 1..n, top 1..n).  Every chord carries a signed count of its
crossings of the imaginary boundary between sites ``n`` and ``1``; the
sign convention is that moving *left* through the boundary counts +1.
Composition closes loops; a loop with net crossing 0 is contractible and
scores one power of the contractible weight, otherwise one power of the
non-contractible weight.  Scalars are tracked as the exponent pair
``(nbeta, nalpha)`` so the caller chooses the substitution.

Nodes are tagged tuples ``('b', i)`` / ``('t', i)``.  A link state acts
by attaching to the *top* of a diagram; in a product built with
:func:`word_diagram` the rightmost generator therefore acts first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .states import LinkState


class AffineDiagram:
    """Immutable cylinder connectivity with accumulated loop exponents."""

    __slots__ = ("n", "conn", "nbeta", "nalpha")

    def __init__(self, n, conn, nbeta=0, nalpha=0):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "conn", conn)
        object.__setattr__(self, "nbeta", nbeta)
        object.__setattr__(self, "nalpha", nalpha)

    def __setattr__(self, *a):
        raise AttributeError("AffineDiagram is immutable")

    def __eq__(self, other):
        if not isinstance(other, AffineDiagram):
            return NotImplemented
        return (
            self.n == other.n
            and self.conn == other.conn
            and self.nbeta == other.nbeta
            and self.nalpha == other.nalpha
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.conn.items()), self.nbeta, self.nalpha))

    def same_connectivity(self, other) -> bool:
        return self.n == other.n and self.conn == other.conn

    def __repr__(self):
        chords = []
        seen = set()
        for a, (b, s) in sorted(self.conn.items()):
            if a in seen:
                continue
            seen.add(a)
            seen.add(b)
            tag = f"{a[0]}{a[1]}-{b[0]}{b[1]}"
            if s:
                tag += f"({s:+d})"
            chords.append(tag)
        return f"AffineDiagram(n={self.n}, [{' '.join(chords)}], b^{self.nbeta} a^{self.nalpha})"


def _pair(conn, a, b, s):
    conn[a] = (b, s)
    conn[b] = (a, -s)


def identity_diagram(n: int) -> AffineDiagram:
    conn = {}
    for i in range(1, n + 1):
        _pair(conn, ("b", i), ("t", i), 0)
    return AffineDiagram(n, conn)


def generator_diagram(kind: str, n: int, i: int | None = None) -> AffineDiagram:
    """Build id, e_i, or the translation diagrams.

    kind is one of 'id', 'e', 'omega', 'omega_inv'; for 'e' the site
    index i in 1..n is required (i = n couples sites n and 1 through the
    boundary).
    """
    if kind == "id":
        return identity_diagram(n)
    conn: dict = {}
    if kind == "e":
        if n < 2:
            raise ValueError("e generators need at least 2 sites")
        if not (1 <= i <= n):
            raise ValueError(f"site index {i} out of range")
        j = i + 1 if i < n else 1
        cross = 0 if i < n else -1
        _pair(conn, ("t", i), ("t", j), cross)
        _pair(conn, ("b", i), ("b", j), cross)
        for k in range(1, n + 1):
            if k != i and k != j:
                _pair(conn, ("b", k), ("t", k), 0)
        return AffineDiagram(n, conn)
    if kind in ("omega", "omega_inv") and n < 1:
        raise ValueError("the translation needs at least one site")
    if kind == "omega":
        for j in range(2, n + 1):
            _pair(conn, ("t", j), ("b", j - 1), 0)
        _pair(conn, ("t", 1), ("b", n), 1)
        return AffineDiagram(n, conn)
    if kind == "omega_inv":
        for j in range(1, n):
            _pair(conn, ("t", j), ("b", j + 1), 0)
        _pair(conn, ("t", n), ("b", 1), -1)
        return AffineDiagram(n, conn)
    raise ValueError(f"unknown generator kind {kind!r}")


def compose(top: AffineDiagram, bottom: AffineDiagram) -> AffineDiagram:
    """Stack ``top`` above ``bottom`` and trace.

    The result represents the algebra product bottom*top, i.e. acting on
    a link state attached above, ``top`` is applied first.
    """
    if top.n != bottom.n:
        raise ValueError("site-count mismatch")
    n = top.n
    conn: dict = {}
    nbeta = top.nbeta + bottom.nbeta
    nalpha = top.nalpha + bottom.nalpha
    visited = set()  # (layer, node) pairs

    def walk(layer, node):
        # traverse the chord in `layer` from `node`, hopping through the
        # interface until an outer node is reached; returns (layer,node,s)
        s = 0
        while True:
            diag = top if layer == "U" else bottom
            partner, ds = diag.conn[node]
            s += ds
            visited.add((layer, node))
            visited.add((layer, partner))
            node = partner
            if layer == "U":
                if node[0] == "t":
                    return ("U", node, s)
                layer = "L"  # U-bottom i glued to L-top i
                node = ("t", node[1])
            else:
                if node[0] == "b":
                    return ("L", node, s)
                layer = "U"
                node = ("b", node[1])

    # chains from the outer boundary
    for i in range(1, n + 1):
        for layer, node in (("U", ("t", i)), ("L", ("b", i))):
            if (layer, node) in visited:
                continue
            visited.add((layer, node))
            end_layer, end_node, s = walk(layer, node)
            _pair(conn, node, end_node, s)

    # untouched interface chords close loops
    for i in range(1, n + 1):
        for layer, node in (("L", ("t", i)), ("U", ("b", i))):
            if (layer, node) in visited:
                continue
            # walk a loop starting through this chord
            start = (layer, node)
            cur_layer, cur_node = layer, node
            s = 0
            while True:
                diag = top if cur_layer == "U" else bottom
                partner, ds = diag.conn[cur_node]
                s += ds
                visited.add((cur_layer, cur_node))
                visited.add((cur_layer, partner))
                if cur_layer == "U":
                    nxt = ("L", ("t", partner[1]))
                else:
                    nxt = ("U", ("b", partner[1]))
                if nxt == start:
                    break
                cur_layer, cur_node = nxt
            if s == 0:
                nbeta += 1
            else:
                if abs(s) != 1:
                    raise AssertionError(f"loop with |winding| {abs(s)} > 1")
                nalpha += 1

    return AffineDiagram(n, conn, nbeta, nalpha)


def word_diagram(word, n: int) -> AffineDiagram:
    """Diagram of a product of generators, left to right.

    ``word`` is a sequence of ('e', i), ('omega', +1/-1) or 'id' tokens;
    the leftmost token ends up at the bottom of the stack, so the
    rightmost acts first on a link state.
    """
    diag = identity_diagram(n)
    for tok in word:
        diag = compose(top=_token_diagram(tok, n), bottom=diag)
    return diag


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


@dataclass(frozen=True)
class ActResult:
    """Outcome of a diagram acting on a link state."""

    state: LinkState
    nbeta: int
    nalpha: int
    travel: tuple  # per-defect (top position, bottom position, crossings)

    @property
    def twist(self) -> int:
        """Total leftward displacement exponent of the defects."""
        n = self.state.n_sites
        return sum(p - q + n * s for p, q, s in self.travel)


def act_on_link(diag: AffineDiagram, w: LinkState):
    """Apply a diagram to a link state attached above it.

    Returns None when two defects get connected, otherwise an ActResult
    whose exponents count the loops closed (on top of the exponents the
    diagram had already accumulated).
    """
    if diag.n != w.n_sites:
        raise ValueError("site-count mismatch")
    n = diag.n
    arcs = w.arc_partner()
    defects = set(w.defects)
    visited_tops = set()
    nbeta, nalpha = diag.nbeta, diag.nalpha

    def run(start_node):
        # start_node is a diagram node; traverse diagram chord first
        s = 0
        node = start_node
        while True:
            partner, ds = diag.conn[node]
            s += ds
            if partner[0] == "b":
                return partner[1], s, False
            q = partner[1]
            visited_tops.add(q)
            if q in defects:
                return q, s, True
            q2, ds2 = arcs[q]
            s += ds2
            visited_tops.add(q2)
            node = ("t", q2)

    # defect chains
    travel = []
    new_defects = []
    for p in sorted(defects):
        visited_tops.add(p)
        q, s, hit_defect = run(("t", p))
        if hit_defect:
            return None
        travel.append((p, q, s))
        new_defects.append(q)

    # remaining bottom nodes pair into arcs
    new_pairs = []
    done_bottoms = set(new_defects)
    for q1 in range(1, n + 1):
        if q1 in done_bottoms:
            continue
        done_bottoms.add(q1)
        q2, s, hit_defect = run(("b", q1))
        assert not hit_defect
        done_bottoms.add(q2)
        if s == 0:
            new_pairs.append((min(q1, q2), max(q1, q2)))
        elif s == 1:
            if not q1 < q2:
                raise AssertionError("inconsistent leftward wrap")
            new_pairs.append((q2, q1 + n))
        else:
            # q1 is the arc's smaller end, so a planar diagram winds it 0 or +1
            raise AssertionError(f"arc {q1}-{q2} reached with winding {s}")

    # leftover top nodes close loops
    for p in range(1, n + 1):
        if p in visited_tops:
            continue
        start = ("t", p)
        node = start
        s = 0
        while True:
            partner, ds = diag.conn[node]
            s += ds
            visited_tops.add(node[1])
            q = partner[1]
            visited_tops.add(q)
            q2, ds2 = arcs[q]
            s += ds2
            visited_tops.add(q2)
            if ("t", q2) == start:
                break
            node = ("t", q2)
        if s == 0:
            nbeta += 1
        else:
            if abs(s) != 1:
                raise AssertionError(f"loop with |winding| {abs(s)} > 1")
            nalpha += 1

    # a planar diagram on a valid state gives a valid state
    state = LinkState(n, new_pairs, new_defects, validate=False)
    return ActResult(state, nbeta, nalpha, tuple(travel))
