"""Link-state representations and the twisted Gram bilinear form.

The d-defect module carries the algebra action with a twist: a defect
displaced k steps to the left picks up ``v^k``, a closed contractible
loop the weight ``u^2 + u^-2``, a non-contractible one ``v^n + v^-n``.
The Gram form closes a pair of link states top-against-bottom and reads
the loop and displacement weights off the closure; it admits a single
twist (the module form) or one twist per defect (used on the boundary
free sector).
"""

from __future__ import annotations

import numpy as np

from .diagrams import act_on_link, word_diagram
from .ring import ZERO, LaurentPoly, alpha_poly, beta_poly
from .states import LinkState, enumerate_states, standard_states


class RingMatrix:
    """Dense labeled matrix over an exact ring (or plain numbers).

    Entries only need +, * and truthiness; ``zero`` supplies the additive
    identity for lazy accumulation.
    """

    __slots__ = ("rows", "cols", "entries", "row_labels", "col_labels", "zero")

    def __init__(self, entries, row_labels=None, col_labels=None, zero=ZERO):
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        self.row_labels = row_labels if row_labels is not None else list(range(self.rows))
        self.col_labels = col_labels if col_labels is not None else list(range(self.cols))
        if len(self.row_labels) != self.rows or len(self.col_labels) != self.cols:
            raise ValueError("label count does not match matrix shape")
        self.zero = zero

    @staticmethod
    def identity(n, labels=None, zero=ZERO, one=None):
        if one is None:
            one = LaurentPoly.one()
        ent = [[one if i == j else zero for j in range(n)] for i in range(n)]
        return RingMatrix(ent, labels, labels, zero)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            row_i = self.entries[i]
            out_row = []
            for j in range(other.cols):
                acc = None
                for k in range(self.cols):
                    a = row_i[k]
                    if not a:
                        continue
                    b = other.entries[k][j]
                    if not b:
                        continue
                    t = a * b
                    acc = t if acc is None else acc + t
                out_row.append(self.zero if acc is None else acc)
            out.append(out_row)
        return RingMatrix(out, self.row_labels, other.col_labels, self.zero)

    def transpose(self) -> "RingMatrix":
        ent = [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return RingMatrix(ent, self.col_labels, self.row_labels, self.zero)

    def map(self, fn) -> "RingMatrix":
        ent = [[fn(e) for e in row] for row in self.entries]
        return RingMatrix(ent, self.row_labels, self.col_labels, self.zero)

    def scale(self, c) -> "RingMatrix":
        return self.map(lambda e: e * c if e else self.zero)

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        ent = [
            [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
            for i in range(self.rows)
        ]
        return RingMatrix(ent, self.row_labels, self.col_labels, self.zero)

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        ent = [
            [self.entries[i][j] - other.entries[i][j] for j in range(self.cols)]
            for i in range(self.rows)
        ]
        return RingMatrix(ent, self.row_labels, self.col_labels, self.zero)

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __hash__(self):
        raise TypeError("RingMatrix is not hashable")

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def submatrix(self, row_idx, col_idx) -> "RingMatrix":
        ent = [[self.entries[i][j] for j in col_idx] for i in row_idx]
        return RingMatrix(
            ent,
            [self.row_labels[i] for i in row_idx],
            [self.col_labels[j] for j in col_idx],
            self.zero,
        )

    def permuted(self, row_perm, col_perm) -> "RingMatrix":
        """Reindex so new entry (i,j) = old entry (row_perm[i], col_perm[j])."""
        return self.submatrix(row_perm, col_perm)

    def to_numeric(self, u: complex, v: complex) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=complex)
        for i in range(self.rows):
            for j, e in enumerate(self.entries[i]):
                if e:
                    out[i, j] = e.eval_numeric(u, v)
        return out

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "row_labels": [_label_str(x) for x in self.row_labels],
            "col_labels": [_label_str(x) for x in self.col_labels],
            "entries": [[e.to_json_dict() for e in row] for row in self.entries],
        }

    def __repr__(self):
        return f"RingMatrix({self.rows}x{self.cols})"


def _label_str(x) -> str:
    if isinstance(x, LinkState):
        return x.ascii()
    return str(x)


# ---------------------------------------------------------------------
# the representation on link states
# ---------------------------------------------------------------------

def loop_weight(nbeta: int, nalpha: int, twist: int, n: int) -> LaurentPoly:
    """Exact weight beta^nbeta * alpha^nalpha * v^twist on n sites."""
    p = LaurentPoly.v_pow(twist)
    if nbeta:
        p = p * beta_poly() ** nbeta
    if nalpha:
        p = p * alpha_poly(n) ** nalpha
    return p


def act_weight(res, n: int) -> LaurentPoly:
    """Exact weight of an action outcome."""
    return loop_weight(res.nbeta, res.nalpha, res.twist, n)


def omega_matrix(word, n: int, d: int) -> RingMatrix:
    """Exact matrix of a generator word acting on the d-defect module.

    ``word`` uses the tokens of :func:`eptl.diagrams.word_diagram`; the
    basis is :func:`eptl.states.enumerate_states` order.
    """
    basis = enumerate_states(n, d)
    index = {w: k for k, w in enumerate(basis)}
    diag = word_diagram(word, n)
    cols = []
    for w in basis:
        col = [ZERO] * len(basis)
        res = act_on_link(diag, w)
        if res is not None:
            col[index[res.state]] = act_weight(res, n)
        cols.append(col)
    ent = [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]
    return RingMatrix(ent, list(basis), list(basis))


def omega_matrix_numeric(word, n: int, d: int, u: complex, v: complex) -> np.ndarray:
    """Numeric matrix of a generator word on the d-defect module."""
    basis = enumerate_states(n, d)
    index = {w: k for k, w in enumerate(basis)}
    diag = word_diagram(word, n)
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    alpha = v ** n + v ** (-n)
    beta = u * u + 1.0 / (u * u)
    for j, w in enumerate(basis):
        res = act_on_link(diag, w)
        if res is None:
            continue
        out[index[res.state], j] = (
            (beta ** res.nbeta) * (alpha ** res.nalpha) * v ** res.twist
        )
    return out


def hamiltonian_link_numeric(n: int, d: int, u: complex, v: complex) -> np.ndarray:
    """Numeric matrix of the generator sum e_1 + ... + e_n."""
    total = np.zeros((len(enumerate_states(n, d)),) * 2, dtype=complex)
    for i in range(1, n + 1):
        total += omega_matrix_numeric([("e", i)], n, d, u, v)
    return total


# ---------------------------------------------------------------------
# the Gram form
# ---------------------------------------------------------------------

def gram_closure(w1: LinkState, w2: LinkState):
    """Trace the closure of w1 (above) against w2 (below).

    Returns None when two defects of the same state get connected, else
    ``(nbeta, nalpha, travels)`` with one ``(defect index of w1, start,
    end, crossings)`` tuple per defect of w1, indexed left to right.
    """
    if w1.n_sites != w2.n_sites:
        raise ValueError("site-count mismatch")
    n = w1.n_sites
    top_arcs = w1.arc_partner()
    bot_arcs = w2.arc_partner()
    top_defects = set(w1.defects)
    bot_defects = set(w2.defects)
    visited = set()
    travels = []

    for idx, p in enumerate(w1.defects):
        visited.add(p)
        x, s = p, 0
        while True:
            if x in bot_defects:
                visited.add(x)
                travels.append((idx, p, x, s))
                break
            x2, ds = bot_arcs[x]
            s += ds
            visited.add(x2)
            if x2 in top_defects:
                return None  # two defects of w1 connected
            x3, ds2 = top_arcs[x2]
            s += ds2
            visited.add(x3)
            x = x3

    # chains from unvisited bottom defects would tie w2 defects together
    for q in bot_defects:
        if q not in visited:
            return None

    nbeta = nalpha = 0
    for site in range(1, n + 1):
        if site in visited:
            continue
        start, x, s = site, site, 0
        while True:
            visited.add(x)
            x2, ds = top_arcs[x]
            s += ds
            visited.add(x2)
            x3, ds2 = bot_arcs[x2]
            s += ds2
            if x3 == start:
                break
            x = x3
        if s == 0:
            nbeta += 1
        else:
            if abs(s) != 1:
                raise AssertionError("closure loop winding out of range")
            nalpha += 1
    return nbeta, nalpha, tuple(travels)


def gram_pair(w1: LinkState, w2: LinkState, twists=None) -> LaurentPoly:
    """The Gram pairing of two link states.

    With ``twists=None`` the single-twist form: loops weigh beta/alpha
    and the net leftward defect displacement weighs ``v``.  With a list
    of ``d`` Laurent polynomials, defect ``l`` of ``w1`` (left to right)
    weighs ``twists[l]^(its displacement)``; the list entries must then
    be invertible monomials.
    """
    if w1.n_defects != w2.n_defects:
        return ZERO
    closed = gram_closure(w1, w2)
    if closed is None:
        return ZERO
    nbeta, nalpha, travels = closed
    n = w1.n_sites
    if twists is None:
        return loop_weight(nbeta, nalpha, sum(p - q + n * s for _, p, q, s in travels), n)
    if len(twists) != w1.n_defects:
        raise ValueError("one twist per defect required")
    out = loop_weight(nbeta, nalpha, 0, n)
    for idx, p, q, s in travels:
        delta = p - q + n * s
        if delta:
            out = out * twists[idx] ** delta
    return out


def gram_matrix(
    n: int,
    d: int,
    mode: str = "tilde",
    twists=None,
    loop_variables: bool = False,
    row_first: bool = False,
) -> RingMatrix:
    """Gram matrix on the periodic basis ('tilde') or its r=0 stratum ('open').

    By default entry (i, j) is the pairing with the *column* state in the
    first slot, the orientation under which the matrix equals
    transpose(I(u, 1/v)) @ I(u, v) exactly; ``row_first=True`` gives the
    transpose convention common in displays.  (For d = 0 the matrix is
    symmetric and the flag is irrelevant.)

    ``loop_variables=True`` returns entries as monomials in compressed
    variables instead of (u, v): exponent pair (contractible loops,
    non-contractible loops) when d = 0 and (contractible loops, net
    defect displacement) when d > 0.  Useful for exact determinants.
    """
    if mode == "tilde":
        basis = enumerate_states(n, d)
        if twists is not None:
            raise ValueError("twist vectors only apply to the open mode")
    elif mode == "open":
        basis = standard_states(n, d)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    ent = []
    for wr in basis:
        row = []
        for wc in basis:
            w1, w2 = (wr, wc) if row_first else (wc, wr)
            if loop_variables:
                closed = gram_closure(w1, w2)
                if closed is None:
                    row.append(ZERO)
                else:
                    nb, na, travels = closed
                    other = na if d == 0 else sum(
                        p - q + n * s for _, p, q, s in travels
                    )
                    row.append(LaurentPoly.monomial(nb, other))
            else:
                row.append(gram_pair(w1, w2, twists))
        ent.append(row)
    return RingMatrix(ent, list(basis), list(basis))


def loop_variables_to_uv(p: LaurentPoly, n: int, d: int) -> LaurentPoly:
    """Undo the compressed encoding of :func:`gram_matrix`."""
    if d == 0:
        return p.substitute(beta_poly(), alpha_poly(n))
    return p.substitute(beta_poly(), LaurentPoly.v_pow(1))
