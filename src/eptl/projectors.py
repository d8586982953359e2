"""Wenzl-Jones projectors, the block change of basis, and the K factors.

The projector on p strands is built by the idempotent recursion

    wj_1 = id,    wj_p = wj_{p-1} + (S_{p-1}/S_p) wj_{p-1} e_{p-1} wj_{p-1},

which by uniqueness agrees with the usual box-product construction.  It
only ever divides by quantum integers [k] = S_k/S_1, so it is stored as
integer-coefficient numerators over the common denominator [p]! =
[2]...[p], one per window diagram: an AffineDiagram on p sites that
never crosses the seam (so the term count stays at the Catalan number).
One representative generator word per diagram is kept so the
combination can also be read as a formal word sum.

Every quotient here (a projector coefficient, an entry of the
transformed Gram matrix, a K factor) is a pair (numerator, denominator)
of Laurent polynomials with the denominator known in advance; two pairs
are compared with :func:`same_ratio`.

A window combination acts on link states through :func:`embed`, which
places it on any ascending set of cylinder sites.  The change of basis
applies the projector on m = d + 2r strands to the m defects of C(w):
the d defects and 2r boundary-arc ends of w.
"""

from __future__ import annotations

from functools import lru_cache

from .diagrams import AffineDiagram, chord_diagram, compose, generator_diagram, identity_diagram
from .intertwiner import det_exact
from .linkrep import RingMatrix, gram_matrix, gram_pair, link_image, link_matrix
from .ring import ONE, ZERO, LaurentPoly, alpha_poly, beta_poly, trig_cos, trig_sin
from .states import LinkState, bijection_C, enumerate_states, index_table, standard_dim, state_code


# ---------------------------------------------------------------------
# window diagrams: AffineDiagrams on p sites that never cross the seam
# ---------------------------------------------------------------------

def _relabel(diag: AffineDiagram, n: int, sites, flip=False) -> AffineDiagram:
    """The diagram on n sites with each chord of ``diag`` moved from slot k
    to site ``sites[k-1]``, top and bottom swapped if ``flip``, plus a
    through line at every site that ``sites`` misses.

    Seam crossings are kept as they are, so ``sites`` must not move a
    chord across the seam; window diagrams have none.
    """
    node = [0, *(s + n * flip for s in sites), *(s + n * (not flip) for s in sites)]
    chords = [(node[x], node[y], diag.cr[x]) for x, y in enumerate(diag.to) if x < y]
    chords += [(k, n + k, 0) for k in set(range(1, n + 1)).difference(sites)]
    return chord_diagram(n, chords)


def _chords(diag: AffineDiagram):
    """Sorted chord list, bottom nodes ranked before top ones; orders the
    terms of a :class:`TLWord`."""
    n = diag.n
    rank = [0, *range(n + 1, 2 * n + 1), *range(1, n + 1)]
    return tuple(sorted((rank[x], rank[y]) for x, y in enumerate(diag.to) if rank[x] < rank[y]))


class TLWord:
    """Linear combination of window diagrams over a common denominator.

    ``diagrams`` maps each window diagram (an :class:`AffineDiagram` on
    ``size`` sites with no loop weight) to its numerator, a Laurent
    polynomial over ``den``; ``words`` maps it to one representative
    generator word.
    """

    __slots__ = ("size", "diagrams", "words", "den")

    def __init__(self, size, diagrams, words, den):
        self.size = size
        self.diagrams = diagrams
        self.words = words
        self.den = den

    @property
    def terms(self):
        """(numerator, word) pairs, ordered by chord list."""
        return [(self.diagrams[m], self.words[m]) for m in sorted(self.diagrams, key=_chords)]

    def _mapped(self, sites, flip, word_of) -> "TLWord":
        p = self.size
        diagrams, words = {}, {}
        for m, c in self.diagrams.items():
            mm = _relabel(m, p, sites, flip)
            diagrams[mm] = c
            words[mm] = word_of(self.words[m])
        return TLWord(p, diagrams, words, self.den)

    def reflected(self) -> "TLWord":
        """Vertical-mirror image: window slot i -> p+1-i."""
        p = self.size
        return self._mapped(range(p, 0, -1), False, lambda w: tuple(p - k for k in w))

    def word_reversed(self) -> "TLWord":
        """Horizontal-mirror image: every representative word reversed."""
        return self._mapped(range(1, self.size + 1), True, lambda w: tuple(reversed(w)))


def _sine(k: int) -> LaurentPoly:
    return trig_sin(2 * k)


@lru_cache(maxsize=None)
def _qint(k: int) -> LaurentPoly:
    """The quantum integer [k] = S_k/S_1; its coefficients are integers."""
    return _sine(k).exact_div(_sine(1))


@lru_cache(maxsize=None)
def _wenzl_diagrams(p: int):
    """dict window diagram -> (numerator, word) for the projector on p strands.

    The numerators are over the common denominator [p]! = [2]...[p]:
    multiplying the one-sided product wj_p = wj_{p-1} (id + sum_k
    (S_k/S_p) e_{p-1} e_{p-2} ... e_k) by [p]! gives

        [p]! wj_p = [p-1]! wj_{p-1} ([p] id + sum_k [k] e_{p-1} ... e_k),

    so no coefficient is ever divided (cross-checked against the
    idempotent recursion in the tests).
    """
    if p < 1:
        raise ValueError("projector needs at least one strand")
    if p == 1:
        return {identity_diagram(1): (ONE, ())}
    # [p-1]! wj_{p-1} with a through line added at site p
    base = {_relabel(m, p, range(1, p)): cw for m, cw in _wenzl_diagrams(p - 1).items()}
    qp = _qint(p)
    out = {m: (c * qp, w) for m, (c, w) in base.items()}

    # descending words e_{p-1} e_{p-2} ... e_k as window diagrams
    tail = identity_diagram(p)
    tail_word: tuple = ()
    for k in range(p - 1, 0, -1):
        tail = compose(top=generator_diagram("e", p, k), bottom=tail)
        assert tail.nbeta == 0
        tail_word = tail_word + (k,)
        for m2, (c2, w2) in base.items():
            prod = compose(top=tail, bottom=m2)  # product wj * (e-word)
            mm = AffineDiagram(p, prod.to, prod.cr)
            cc = c2 * _qint(k) * beta_poly() ** prod.nbeta
            word = w2 + tail_word
            if mm in out:
                c0, w0 = out[mm]
                out[mm] = (c0 + cc, w0 if len(w0) <= len(word) else word)
            else:
                out[mm] = (cc, word)
    return {m: (c, w) for m, (c, w) in out.items() if c}


def wenzl_jones(p: int) -> TLWord:
    """The projector on p strands, acting on sites 1..p."""
    data = _wenzl_diagrams(p)
    den = ONE
    for k in range(2, p + 1):
        den = den * _qint(k)
    return TLWord(
        p, {m: c for m, (c, w) in data.items()}, {m: w for m, (c, w) in data.items()}, den
    )


# ---------------------------------------------------------------------
# applying window diagrams inside the cylinder
# ---------------------------------------------------------------------

def embed(word: TLWord, n: int, sites) -> dict:
    """``word`` placed on the ascending ``sites`` of an n-site cylinder,
    with a through line at every other site: ``{diagram: numerator}`` over
    ``word.den``.  The chords pass over the through lines between their
    ends; acting on w at the defects of C(w), w's interior arcs close each
    such line back into the same arc, so this is the action on the reduced
    cylinder, and ActResult.twist already measures full-cylinder displacement.
    """
    sites = tuple(sites)
    return {_relabel(m, n, sites): c for m, c in word.diagrams.items()}


def u_transform_state(w: LinkState):
    """The change-of-basis image of a single state, as (image, den):
    the projector on the m = d + 2r defects of C(w) acting on w, basis
    index -> numerator over den = [m]! (see :func:`link_image`); w's own
    index -> 1, over 1, without boundary arcs.
    """
    if w.boundary_arcs == 0:
        return {index_table(w.n_sites, w.n_defects)[state_code(w)][0]: ONE}, ONE
    n = w.n_sites
    # the defects of C(w): w's defects and the ends of its boundary arcs
    sites = sorted([*w.defects, *(k for i, j in w.pairs if j > n for k in (i, j - n))])
    proj = wenzl_jones(len(sites))
    return link_image(embed(proj, n, sites), w), proj.den


def u_transform(n: int, d: int):
    """Matrix of the change of basis on the d-defect module.

    Returns (U, dens): column j of the change of basis is column j of
    the Laurent-polynomial matrix U divided by dens[j].
    """
    basis = enumerate_states(n, d)
    columns, dens = zip(*map(u_transform_state, basis))
    return RingMatrix(list(columns), list(basis), list(basis)), list(dens)


def gamma_matrix(n: int, d: int):
    """The Gram matrix congruence-transformed to the projector basis.

    The Gram form pairs the twist-v action on its first slot with the
    twist-1/v action on its second, so the congruence reads
    transpose(U|_{v->1/v}) @ Gram @ U; this is what block-diagonalizes.
    Returns (P, dens): the triple product over the numerators of U, so
    entry (i, j) of the transformed matrix is P[i, j] / (dens[i] dens[j]);
    the column denominators of U involve u alone, so v -> 1/v fixes them.
    """
    u, dens = u_transform(n, d)
    g = gram_matrix(n, d)
    return u.map(LaurentPoly.flip_v).transpose() @ g @ u, dens


def same_ratio(a, b) -> bool:
    """Whether the quotients a = (num, den) and b = (num, den) are equal."""
    return a[0] * b[1] == b[0] * a[1]


# ---------------------------------------------------------------------
# the K factors
# ---------------------------------------------------------------------

def reference_state(d: int, r: int) -> LinkState:
    """The unique state with r boundary arcs and d defects on d+2r sites."""
    m = d + 2 * r
    pairs = [(m - r + t, m + r + 1 - t) for t in range(1, r + 1)]
    defects = list(range(r + 1, r + d + 1))
    return LinkState(m, pairs, defects)


def k_factor(d: int, r: int, n_ambient: int | None = None, mode: str = "closed_form"):
    """The scalar block factor for the r-th stratum with d defects, as a
    pair (numerator, denominator).

    ``n_ambient`` fixes which circumference the non-contractible weight
    refers to (it enters through alpha = v^n + v^-n); it defaults to
    d + 2r, the circumference on which the defining pairing lives.
    """
    if n_ambient is None:
        n_ambient = d + 2 * r
    if mode == "closed_form":
        alpha2 = alpha_poly(n_ambient) * alpha_poly(n_ambient)
        num, den = ONE, ONE
        for k in range(1, r + 1):
            c = trig_cos(2 * k + d)
            num = num * (alpha2 - c * c) * _sine(k)
            den = den * _sine(r + d + k)
        return num, den
    if mode == "recursion":
        if r == 0:
            return ONE, ONE
        alpha2 = alpha_poly(n_ambient) * alpha_poly(n_ambient)
        num, den = k_factor(d, r - 1, n_ambient, "recursion")
        c = trig_cos(2 * r + d)
        num = num * (alpha2 - c * c) * _sine(r) * _sine(r + d)
        return num, den * _sine(2 * r + d) * _sine(2 * r + d - 1)
    if mode == "gram_pairing":
        if n_ambient != d + 2 * r:
            raise ValueError("the defining pairing lives on d + 2r sites")
        w_ref = reference_state(d, r)
        proj = wenzl_jones(d + 2 * r)  # its window spans the whole cylinder
        total = ZERO
        basis = enumerate_states(d + 2 * r, d)
        for k, num in link_image(proj.diagrams, w_ref).items():
            # the second Gram slot carries the twist-1/v action
            total = total + num.flip_v() * gram_pair(w_ref, basis[k])
        return total, proj.den
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------
# structure checks used by the verification suites
# ---------------------------------------------------------------------

def gamma_block_report(n: int, d: int):
    """Check the block structure of the transformed Gram matrix.

    Returns (ok, details): off-stratum blocks must vanish and the r-th
    diagonal block must equal K(d, r) times the boundary-free Gram
    matrix with twist assignment (1..1, v..v, 1..1) on the replaced
    basis.
    """
    basis = enumerate_states(n, d)
    gamma, dens = gamma_matrix(n, d)
    strata: dict = {}
    for k, w in enumerate(basis):
        strata.setdefault(w.boundary_arcs, []).append(k)
    failures = []
    for r1, idx1 in strata.items():
        for r2, idx2 in strata.items():
            if r1 == r2:
                continue
            for i in idx1:
                for j in idx2:
                    if not gamma[i, j].is_zero():
                        failures.append(("off-block", r1, r2, i, j))
    v = LaurentPoly.v_pow(1)
    replaced = [bijection_C(w) for w in basis]
    for r, idx in strata.items():
        k_num, k_den = k_factor(d, r, n_ambient=n)
        twists = [ONE] * r + [v] * d + [ONE] * r
        for i in idx:
            for j in idx:
                pair = gram_pair(replaced[j], replaced[i], twists)
                if gamma[i, j] * k_den != k_num * pair * dens[i] * dens[j]:
                    failures.append(("block", r, i, j))
    return not failures, failures


def gram_recursion_check(n: int, d: int) -> bool:
    """Verify the size-lowering determinant recursion, up to sign.

    The d-defect open Gram determinant at size n factors as the
    (d-1)-defect determinant at size n-1 times a sine-ratio power times
    the (d+1)-defect determinant at size n-1; the ratio's denominator
    S_{d+1}^power is multiplied over to the left.
    """
    if d < 1 or d > n:
        raise ValueError("the recursion needs at least one defect")
    twists = [LaurentPoly.v_pow(k + 1) for k in range(d)]
    power = standard_dim(n - 1, d + 1)
    lhs = det_exact(gram_matrix(n, d, mode="open", twists=twists)) * _sine(d + 1) ** power
    rhs = det_exact(gram_matrix(n - 1, d - 1, mode="open", twists=twists[1:]))
    rhs = rhs * _sine(d + 2) ** power
    if d + 1 <= n - 1:
        rhs = rhs * det_exact(gram_matrix(n - 1, d + 1, mode="open", twists=[ONE] + twists))
    return lhs == rhs or lhs == -rhs


def wj_matrix(p: int, n: int, d: int):
    """Matrix of the projector on window 1..p, over its denominator.

    Returns (P, den) with den = [p]! such that the operator matrix is
    P/den; every identity check then stays inside the polynomial ring.
    """
    proj = wenzl_jones(p)
    return link_matrix(embed(proj, n, range(1, p + 1)), n, d), proj.den
