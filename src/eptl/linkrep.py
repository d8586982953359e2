"""Link-state representations and the twisted Gram bilinear form.

The d-defect module carries the algebra action with a twist: a defect
displaced k steps to the left picks up ``v^k``, a closed contractible
loop the weight ``u^2 + u^-2``, a non-contractible one ``v^n + v^-n``.
The Gram form closes a pair of link states top-against-bottom, as the
action of one state's :func:`state_diagram` on the other, and reads the
loop and displacement weights off the closure; it admits a single
twist (the module form) or one twist per defect (used on the boundary
free sector).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .diagrams import AffineDiagram, act_on_link, word_diagram
from .momentum import Orbits
from .ring import ONE, ZERO, LaurentPoly, alpha_poly, beta_poly, check_range, collect, exponents, mul_into, product
from .states import LinkState, enumerate_states, standard_states


class RingMatrix:
    """Labeled matrix of Laurent polynomials, stored as sparse columns:
    ``columns[j]`` maps a row index to the nonzero entry (i, j)."""

    __slots__ = ("rows", "cols", "columns", "row_labels", "col_labels", "_terms")

    def __init__(self, columns, row_labels, col_labels):
        if len(columns) != len(col_labels):
            raise ValueError("label count does not match matrix shape")
        self.columns = columns
        self.rows = len(row_labels)
        self.cols = len(col_labels)
        self.row_labels = row_labels
        self.col_labels = col_labels
        self._terms = None

    @staticmethod
    def identity(n):
        labels = list(range(n))
        return RingMatrix([{j: ONE} for j in range(n)], labels, labels)

    @staticmethod
    def from_columns(columns, row_keys, row_labels, col_labels) -> "RingMatrix":
        """The matrix whose column j is the sparse vector ``columns[j]``,
        key -> nonzero entry; ``row_keys`` maps each key to its row index."""
        cols = [{row_keys[key]: c for key, c in col.items()} for col in columns]
        return RingMatrix(cols, row_labels, col_labels)

    @property
    def entries(self) -> list:
        """Dense rows, zeros included, built afresh on every access."""
        ent = [[ZERO] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, e in col.items():
                ent[i][j] = e
        return ent

    def __getitem__(self, ij):
        return self.columns[ij[1]].get(ij[0], ZERO)

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        # column j of the product pushes column j of other through our
        # columns, gathering the products of each entry; an entry with more
        # than one sums them into one pair of dicts, and a lone product takes
        # the monomial path of ring.product.  Every entry is checked once here.
        left = self.columns
        for m in (self, other):
            for col in m.columns:
                for e in col.values():
                    check_range(e.triples)
        out = []
        for col in other.columns:
            products: dict = {}
            for k, b in col.items():
                for i, a in left[k].items():
                    pairs = products.get(i)
                    if pairs is None:
                        products[i] = [(a, b)]
                    else:
                        pairs.append((a, b))
            column = {}
            for i, pairs in products.items():
                if len(pairs) == 1:
                    column[i] = product(pairs[0][0].triples, pairs[0][1].triples)
                    continue
                re: dict = {}
                im: dict = {}
                for a, b in pairs:
                    mul_into(re, im, a.triples, b.triples)
                e = collect(re, im)
                if e:
                    column[i] = e
            out.append(column)
        return RingMatrix(out, self.row_labels, other.col_labels)

    def transpose(self) -> "RingMatrix":
        out = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, e in col.items():
                out[i][j] = e
        return RingMatrix(out, self.col_labels, self.row_labels)

    def map(self, fn) -> "RingMatrix":
        """Apply ``fn`` to every entry; ``fn`` must send zero to zero."""
        out = [{i: y for i, e in col.items() if (y := fn(e))} for col in self.columns]
        return RingMatrix(out, self.row_labels, self.col_labels)

    def scale(self, c) -> "RingMatrix":
        return self.map(lambda e: e * c)

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.columns == other.columns

    def __hash__(self):
        raise TypeError("RingMatrix is not hashable")

    def is_zero(self) -> bool:
        return not any(self.columns)

    def to_numeric(self, u: complex, v: complex, cols=None) -> np.ndarray:
        """Evaluate every entry at (u, v); u and v must be nonzero.  With
        an index array ``cols``, evaluate only those columns, in that order.

        The entries' terms are collected column by column into flat arrays
        on the first call, so the matrix must not be changed after it is
        evaluated; column j's terms are the slice ``starts[j]:starts[j + 1]``.
        """
        if self._terms is None:
            terms, starts = [], [0]
            for j, col in enumerate(self.columns):
                terms += [
                    (i, j, complex(r, c), *exponents(k)) for i, e in col.items() for k, r, c in e.triples
                ]
                starts.append(len(terms))
            arrays = [np.array(a) for a in zip(*terms)] if terms else [np.zeros(0, dtype=int)] * 5
            self._terms = (*arrays, np.array(starts))
        rows, at, coeffs, eu, ev, starts = self._terms
        take = slice(None)
        if cols is not None:
            cols = np.asarray(cols, dtype=np.intp)
            first, count = starts[cols], starts[cols + 1] - starts[cols]
            at = np.repeat(np.arange(len(cols)), count)
            # the asked columns' slices, end to end: the k-th starts at offset[k] in take
            offset = np.cumsum(count) - count
            take = np.repeat(first - offset, count) + np.arange(len(at))
        out = np.zeros((self.rows, self.cols if cols is None else len(cols)), dtype=complex)
        if len(at):
            if u == 0 or v == 0:
                raise ValueError("cannot evaluate a Laurent polynomial at zero")
            weights = coeffs[take] * complex(u) ** eu[take] * complex(v) ** ev[take]
            np.add.at(out, (rows[take], at), weights)
        return out

    def __repr__(self):
        return f"RingMatrix({self.rows}x{self.cols})"


def translation_sum(x: RingMatrix, orbits: Orbits) -> RingMatrix:
    """Sum over r < n of P^r x P^-r, P the permutation of the translation
    Omega = c P in ``orbits``: the r-th term moves each entry (i, j) of x
    to (P^r i, P^r j).  As c cancels, that term is Omega^r x Omega^-r, so
    the translation sum of e_n is the generator sum e_1 + ... + e_n."""
    columns = [{} for _ in x.columns]
    for power in orbits.powers:
        p = power.tolist()
        for j, col in enumerate(x.columns):
            out = columns[p[j]]
            for i, e in col.items():
                k = p[i]
                if k in out:
                    e = out.pop(k) + e
                    if not e:
                        continue
                out[k] = e
    return RingMatrix(columns, x.row_labels, x.col_labels)


def _label_str(x) -> str:
    if isinstance(x, LinkState):
        return x.ascii()
    return str(x)


# ---------------------------------------------------------------------
# the representation on link states
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def loop_weight(nbeta: int, nalpha: int, twist: int, n: int) -> LaurentPoly:
    """Exact weight beta^nbeta * alpha^nalpha * v^twist on n sites.

    Cached, so callers share the returned polynomial and must not change it.
    """
    p = LaurentPoly.v_pow(twist)
    if nbeta:
        p = p * beta_poly() ** nbeta
    if nalpha:
        p = p * alpha_poly(n) ** nalpha
    return p


def link_image(diagrams, w: LinkState) -> dict:
    """Image of ``w`` under a diagram combination ``{diagram: coefficient}``,
    as a sparse vector ``basis index -> LaurentPoly`` over
    :func:`eptl.states.enumerate_states` of w's sector; zero components
    are dropped."""
    n = w.n_sites
    out: dict = {}
    for diag, coeff in diagrams.items():
        res = act_on_link(diag, w)
        if res is None:
            continue
        t = loop_weight(res.nbeta, res.nalpha, res.twist, n)
        if coeff is not ONE:
            t = coeff * t
        k = res.index
        if k in out:
            t = out.pop(k) + t
            if not t:
                continue
        out[k] = t
    return out


def link_matrix(diagrams, n: int, d: int) -> RingMatrix:
    """Exact matrix of a diagram combination ``{diagram: coefficient}`` on
    the d-defect module, in :func:`eptl.states.enumerate_states` order."""
    basis = enumerate_states(n, d)
    return RingMatrix([link_image(diagrams, w) for w in basis], list(basis), list(basis))


def omega_matrix(word, n: int, d: int) -> RingMatrix:
    """Exact matrix of a generator word acting on the d-defect module;
    ``word`` uses the tokens of :func:`eptl.diagrams.word_diagram`."""
    return link_matrix({word_diagram(word, n): ONE}, n, d)


@lru_cache(maxsize=None)
def link_orbits(n: int, d: int) -> Orbits:
    """Orbit tables of the translation on the d-defect module."""
    return Orbits(omega_matrix([("omega", 1)], n, d), n)


@lru_cache(maxsize=None)
def hamiltonian_link(n: int, d: int) -> RingMatrix:
    """Exact matrix of the generator sum e_1 + ... + e_n, the translation
    sum of e_n.  Cached: treat the result as read-only."""
    return translation_sum(omega_matrix([("e", n)], n, d), link_orbits(n, d))


# ---------------------------------------------------------------------
# the Gram form
# ---------------------------------------------------------------------

def state_diagram(w: LinkState) -> AffineDiagram:
    """The arcs of ``w`` on both rows, with a through line at each defect.

    Acting with it on a link state closes that state (above) against
    ``w`` (below): the result carries the closed loops and, per defect of
    the upper state, its travel to a defect of ``w``.
    """
    n = w.n_sites
    partner, crossing = w.arcs()
    sites = range(1, n + 1)
    # an arc i-j on both rows, or the through line top i - bottom i at a defect
    to = [0] + [partner[i] or n + i for i in sites] + [n + partner[i] if partner[i] else i for i in sites]
    return AffineDiagram(n, to, crossing + crossing[1:])


def _pair_weight(res, n: int, twists) -> LaurentPoly:
    """Weight of the closure ``res``; see :func:`gram_pair`."""
    if res is None:
        return ZERO
    if twists is None:
        return loop_weight(res.nbeta, res.nalpha, res.twist, n)
    if len(twists) != len(res.travel):
        raise ValueError("one twist per defect required")
    out = loop_weight(res.nbeta, res.nalpha, 0, n)
    for twist, (p, q, s) in zip(twists, res.travel):
        delta = p - q + n * s
        if delta:
            out = out * twist ** delta
    return out


def gram_pair(w1: LinkState, w2: LinkState, twists=None) -> LaurentPoly:
    """The Gram pairing of two link states: w1 closed against w2.

    With ``twists=None`` the single-twist form: loops weigh beta/alpha
    and the net leftward defect displacement weighs ``v``.  With a list
    of ``d`` Laurent polynomials, defect ``l`` of ``w1`` (left to right)
    weighs ``twists[l]^(its displacement)``; the list entries must then
    be invertible monomials.
    """
    if w1.n_defects != w2.n_defects:
        return ZERO
    return _pair_weight(act_on_link(state_diagram(w2), w1), w1.n_sites, twists)


def gram_matrix(n: int, d: int, mode: str = "tilde", twists=None) -> RingMatrix:
    """Gram matrix on the periodic basis ('tilde') or its r=0 stratum ('open').

    Entry (i, j) is the pairing with the *column* state in the first
    slot, the orientation under which the matrix equals
    transpose(I(u, 1/v)) @ I(u, v) exactly; ``.transpose()`` gives the
    row-first convention common in displays.  (For d = 0 the matrix is
    symmetric.)

    In 'tilde' mode only the column of each translation orbit's
    representative is closed; every other column is one of these moved
    by a power of the translation's permutation (see :class:`Orbits`).

    Without twists the matrix is cached: treat the result as read-only.
    """
    if twists is None:
        return _gram(n, d, mode)
    return _gram.__wrapped__(n, d, mode, twists)  # not cached


@lru_cache(maxsize=None)
def _gram(n: int, d: int, mode: str, twists=None) -> RingMatrix:
    """The body of :func:`gram_matrix`."""
    if mode == "tilde":
        basis = enumerate_states(n, d)
        if twists is not None:
            raise ValueError("twist vectors only apply to the open mode")
    elif mode == "open":
        basis = standard_states(n, d)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    closings = [state_diagram(w) for w in basis]

    def column(wc):
        return {
            i: _pair_weight(res, n, twists)
            for i, c in enumerate(closings)
            if (res := act_on_link(c, wc)) is not None
        }

    if mode == "open" or n == 0:  # no translation: on no sites the one empty state closes to 1
        return RingMatrix([column(wc) for wc in basis], list(basis), list(basis))
    # G[P i, P j] = G[i, j] (the twists of Omega cancel), so the column of
    # each orbit representative j, moved by P^r, is the column of P^r j
    orbits = link_orbits(n, d)
    powers = [p.tolist() for p in orbits.powers]
    columns = [None] * len(basis)
    for j, length in zip(orbits.reps.tolist(), orbits.lengths.tolist()):
        col = column(basis[j])
        for p in powers[:length]:
            columns[p[j]] = {p[i]: e for i, e in col.items()}
    return RingMatrix(columns, list(basis), list(basis))
