"""Periodic link states and their combinatorics.

A link state on ``n`` cylinder sites pairs some sites by non-crossing
arcs drawn above the site line and leaves the rest as defects (lines to
infinity).  Arcs are stored as pairs ``(i, j)`` with ``1 <= i <= n`` and
``i+1 <= j <= n+i-1``; a closing point ``j > n`` means the arc wraps
through the imaginary boundary between sites ``n`` and ``1`` and
actually ends at site ``j - n``.  The number of wrapping arcs is the
boundary-arc count ``r``.

The basis of the d-defect module is enumerated in ascending ``r`` with a
lexicographic tiebreak on the sorted arc list.  A state is determined by
its code, the bitmask of its arc openers and defects; ``index_table``
maps each code of a sector to the basis position and the basis state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb


def module_dim(n: int, d: int) -> int:
    """Dimension of the periodic d-defect module: C(n, (n-d)/2)."""
    if (n - d) % 2 or d < 0 or d > n:
        return 0
    return comb(n, (n - d) // 2)


def standard_dim(n: int, d: int) -> int:
    """Dimension of the r=0 (standard/open) submodule."""
    if (n - d) % 2 or d < 0 or d > n:
        return 0
    k = (n - d) // 2
    return comb(n, k) - (comb(n, k - 1) if k >= 1 else 0)


class LinkState:
    """An immutable periodic link pattern.

    Parameters
    ----------
    n_sites : number of cylinder sites
    pairs : iterable of arcs ``(i, j)`` in canonical encoding
    defects : iterable of unpaired site positions
    """

    __slots__ = ("n_sites", "pairs", "defects", "_hash", "_arcs")

    def __init__(self, n_sites, pairs, defects, validate=True):
        object.__setattr__(self, "n_sites", n_sites)
        object.__setattr__(self, "pairs", tuple(sorted(tuple(p) for p in pairs)))
        object.__setattr__(self, "defects", tuple(sorted(defects)))
        object.__setattr__(self, "_hash", hash((n_sites, self.pairs, self.defects)))
        object.__setattr__(self, "_arcs", None)
        if validate:
            self._validate()

    def __setattr__(self, *a):
        raise AttributeError("LinkState is immutable")

    def _validate(self):
        n = self.n_sites
        seen = set(self.defects)
        if len(seen) != len(self.defects):
            raise ValueError("duplicate defect positions")
        for i, j in self.pairs:
            if not (1 <= i <= n and i + 1 <= j <= n + i - 1):
                raise ValueError(f"arc ({i},{j}) outside canonical range for n={n}")
            for p in (i, (j - 1) % n + 1):
                if p in seen:
                    raise ValueError(f"site {p} used twice")
                seen.add(p)
        if seen != set(range(1, n + 1)):
            raise ValueError("sites not fully covered")
        # planarity and defect placement: the stack reconstruction from the
        # opener/closer word must give back exactly this state
        rebuilt = _state_from_steps(n, self.walk_steps())
        if rebuilt.pairs != self.pairs or rebuilt.defects != self.defects:
            raise ValueError("arcs cross or enclose a defect")

    # -- structure ----------------------------------------------------

    @property
    def n_defects(self) -> int:
        return len(self.defects)

    @property
    def boundary_arcs(self) -> int:
        """Number of arcs crossing the imaginary boundary (the count r)."""
        return sum(1 for _, j in self.pairs if j > self.n_sites)

    def walk_steps(self) -> tuple:
        """+1/-1 per site: +1 where an arc opens or a defect sits, -1 at closings."""
        steps = [0] * self.n_sites
        for p in self.defects:
            steps[p - 1] = 1
        for i, j in self.pairs:
            steps[i - 1] = 1
            steps[(j - 1) % self.n_sites] = -1
        return tuple(steps)

    def sort_key(self):
        return (self.boundary_arcs, self.pairs, self.defects)

    def arcs(self) -> tuple:
        """Flat arc table, cached, by site 1..n: ``partner[i]``, the other end
        of the arc at i (0 at a defect), and ``crossing[i]``, its seam
        crossings from i (moving left through the boundary counts +1)."""
        if self._arcs is None:
            n = self.n_sites
            partner, crossing = [0] * (n + 1), [0] * (n + 1)
            for i, j in self.pairs:
                if j > n:
                    j -= n
                    crossing[i], crossing[j] = -1, 1  # the opening travels rightward through the seam
                partner[i], partner[j] = j, i
            object.__setattr__(self, "_arcs", (partner, crossing))
        return self._arcs

    def __eq__(self, other):
        if not isinstance(other, LinkState):
            return NotImplemented
        return (
            self.n_sites == other.n_sites
            and self.pairs == other.pairs
            and self.defects == other.defects
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        arcs = ",".join(f"({i},{j})" for i, j in self.pairs)
        dfs = ",".join(str(p) for p in self.defects)
        return f"LinkState(n={self.n_sites}, arcs=[{arcs}], defects=[{dfs}])"

    def ascii(self) -> str:
        """One character per site: ( ) for arcs, < > for wrapping arcs, | defects."""
        chars = [" "] * self.n_sites
        for p in self.defects:
            chars[p - 1] = "|"
        for i, j in self.pairs:
            if j <= self.n_sites:
                chars[i - 1] = "("
                chars[j - 1] = ")"
            else:
                chars[i - 1] = "<"
                chars[j - self.n_sites - 1] = ">"
        return "".join(chars)


def _state_from_steps(n: int, steps) -> LinkState:
    """Reconstruct the unique valid link state with the given +-1 site word."""
    stack = []
    pairs = []
    unmatched_close = []
    for pos in range(1, n + 1):
        if steps[pos - 1] == 1:
            stack.append(pos)
        else:
            if stack:
                pairs.append((stack.pop(), pos))
            else:
                unmatched_close.append(pos)
    # wrap arcs: leftmost leftover closers match rightmost leftover openers
    l = len(unmatched_close)
    for t in range(l):
        opener = stack.pop()          # rightmost available
        closer = unmatched_close[t]   # t-th from the left
        pairs.append((opener, closer + n))
    defects = list(stack)
    return LinkState(n, pairs, defects, validate=False)


@lru_cache(maxsize=None)
def enumerate_states(n: int, d: int) -> tuple:
    """All link states on n sites with d defects, sorted by (r, arc list).

    Raises ValueError unless 0 <= d <= n and d = n mod 2.
    """
    if d < 0 or d > n or (n - d) % 2:
        raise ValueError(f"defect count {d} incompatible with {n} sites")
    n_open = (n + d) // 2
    from itertools import combinations

    states = []
    for openers in combinations(range(1, n + 1), n_open):
        steps = [-1] * n
        for p in openers:
            steps[p - 1] = 1
        states.append(_state_from_steps(n, steps))
    states.sort(key=LinkState.sort_key)
    assert len(states) == module_dim(n, d)
    return tuple(states)


def state_code(w: LinkState) -> int:
    """The +1 sites of ``w.walk_steps()`` as a bitmask, bit i-1 for site i:
    the arc openers and the defects, which determine the state."""
    return sum(1 << (i - 1) for i, _ in w.pairs) + sum(1 << (p - 1) for p in w.defects)


@lru_cache(maxsize=None)
def index_table(n: int, d: int) -> dict:
    """``state_code(w) -> (k, w)`` over ``w = enumerate_states(n, d)[k]``.

    Cached: the basis states are shared, and the table is read-only.
    """
    return {state_code(w): (k, w) for k, w in enumerate(enumerate_states(n, d))}


def standard_states(n: int, d: int) -> tuple:
    """The r=0 stratum: link states with no boundary arcs."""
    return tuple(w for w in enumerate_states(n, d) if w.boundary_arcs == 0)


def bijection_C(w: LinkState) -> LinkState:
    """Replace every boundary arc of w by two defects; interior arcs kept."""
    n = w.n_sites
    pairs = []
    defects = list(w.defects)
    for i, j in w.pairs:
        if j > n:
            defects.extend((i, j - n))
        else:
            pairs.append((i, j))
    return LinkState(n, pairs, defects)


def bijection_C_inverse(w: LinkState, r: int) -> LinkState:
    """Reattach the r outermost defect pairs of w across the boundary."""
    if 2 * r > w.n_defects:
        raise ValueError("not enough defects to reattach")
    defects = list(w.defects)
    pairs = list(w.pairs)
    for _ in range(r):
        left = defects.pop(0)
        right = defects.pop()
        pairs.append((right, left + w.n_sites))
    return LinkState(w.n_sites, pairs, defects)


@dataclass(frozen=True)
class Path:
    """A +-1 step sequence with its endpoint."""

    steps: tuple

    @property
    def endpoint(self) -> int:
        return sum(self.steps)

    def height(self) -> int:
        n = len(self.steps)
        return (n + 1) * self.endpoint - sum(
            j * x for j, x in enumerate(self.steps, start=1)
        )


def paths_and_height(w: LinkState):
    """The two path images of w and their heights (plus-path, minus-path, H+, H-).

    Arc openings map to +1, closings to -1; defects map to +1 in the plus
    path and -1 in the minus path.
    """
    base = list(w.walk_steps())
    plus = list(base)
    minus = list(base)
    for p in w.defects:
        minus[p - 1] = -1
    bp, bm = Path(tuple(plus)), Path(tuple(minus))
    return bp, bm, bp.height(), bm.height()


def arc_span_sum(w: LinkState) -> int:
    """Sum of (j - i) over stored arcs, in the universal-cover encoding."""
    return sum(j - i for i, j in w.pairs)
