"""Wenzl-Jones projectors, the block change of basis, and the K factors.

The projector on p strands is built by the idempotent recursion

    wj_1 = id,    wj_p = wj_{p-1} + (S_{p-1}/S_p) wj_{p-1} e_{p-1} wj_{p-1},

which by uniqueness agrees with the usual box-product construction.  It
is stored as a linear combination of *open* Temperley-Lieb diagrams on
the window (so the term count stays at the Catalan number); one
representative generator word per diagram is kept so the combination
can also be read as a formal word sum.

Applying the projector inside the cylinder follows the change-of-basis
recipe: interior arcs of the state are removed, the projector acts on
the reduced cylinder spanned by the boundary-arc endpoints and defects,
displacements are converted back to original positions (a wrap around
the reduced seam costs a full circumference), and the interior arcs are
reinserted.
"""

from __future__ import annotations

from functools import lru_cache

from .diagrams import AffineDiagram, act_on_link
from .linkrep import RingMatrix, act_weight, gram_matrix, gram_pair, loop_weight
from .ring import (
    ONE,
    ZERO,
    LaurentPoly,
    RingFraction,
    alpha_poly,
    beta_poly,
    clear_denominators,
    sum_fractions_cleared,
    trig_cos,
    trig_sin,
)
from .states import LinkState, bijection_C, enumerate_states, standard_dim


# ---------------------------------------------------------------------
# open Temperley-Lieb diagrams on a window of p slots
# ---------------------------------------------------------------------
# points 0..p-1 are the bottom row, p..2p-1 the top row; a diagram is a
# canonical tuple of sorted chord pairs.

def _open_identity(p: int):
    return tuple((i, p + i) for i in range(p))


def _open_generator(p: int, k: int):
    """The k-th cup/cap diagram, 1 <= k <= p-1."""
    chords = [(k - 1, k), (p + k - 1, p + k)]
    for i in range(p):
        if i not in (k - 1, k):
            chords.append((i, p + i))
    return tuple(sorted(chords))


def _open_compose(lower, upper, p: int):
    """Glue ``upper`` above ``lower``; returns (diagram, closed loops).

    In the product the upper factor acts first on anything attached
    above the stack.
    """
    lmap, umap = {}, {}
    for a, b in lower:
        lmap[a] = b
        lmap[b] = a
    for a, b in upper:
        umap[a] = b
        umap[b] = a
    # node encoding during the walk: ('L', x) / ('U', x)
    visited = set()
    chords = []
    loops = 0

    def walk(layer, node):
        while True:
            partner = (lmap if layer == "L" else umap)[node]
            visited.add((layer, node))
            visited.add((layer, partner))
            if layer == "L":
                if partner < p:
                    return ("L", partner)
                layer, node = "U", partner - p  # lower top i = upper bottom i
            else:
                if partner >= p:
                    return ("U", partner)
                layer, node = "L", partner + p

    for i in range(p):
        for layer, node in (("L", i), ("U", p + i)):
            if (layer, node) in visited:
                continue
            _, end_node = walk(layer, node)
            chords.append(tuple(sorted((node, end_node))))
    for i in range(p):
        for layer, node in (("L", p + i), ("U", i)):
            if (layer, node) in visited:
                continue
            # a loop through the interface
            start = (layer, node)
            cur = start
            while True:
                layer_, node_ = cur
                partner = (lmap if layer_ == "L" else umap)[node_]
                visited.add((layer_, node_))
                visited.add((layer_, partner))
                cur = ("U", partner - p) if layer_ == "L" else ("L", partner + p)
                if cur == start:
                    break
            loops += 1
    return tuple(sorted(chords)), loops


class TLWord:
    """Linear combination of open-window diagrams with fraction coefficients.

    ``terms`` lists (coefficient, generator word) pairs, one
    representative word per diagram; ``diagrams`` maps each canonical
    diagram to its coefficient.
    """

    __slots__ = ("window", "diagrams", "words")

    def __init__(self, window, diagrams, words):
        self.window = tuple(window)
        self.diagrams = diagrams
        self.words = words

    @property
    def size(self) -> int:
        return len(self.window)

    @property
    def terms(self):
        return [(self.diagrams[m], self.words[m]) for m in sorted(self.diagrams)]

    def reflected(self) -> "TLWord":
        """Vertical-mirror image: window slot i -> p+1-i."""
        p = self.size
        diagrams = {}
        words = {}
        for m, c in self.diagrams.items():
            chords = []
            for a, b in m:
                na = (p - 1 - a) if a < p else (3 * p - 1 - a)
                nb = (p - 1 - b) if b < p else (3 * p - 1 - b)
                chords.append(tuple(sorted((na, nb))))
            mm = tuple(sorted(chords))
            diagrams[mm] = c
            words[mm] = tuple(p - k for k in reversed(self.words[m]))
        return TLWord(self.window, diagrams, words)

    def word_reversed(self) -> "TLWord":
        """Horizontal-mirror image: every representative word reversed."""
        diagrams = {}
        words = {}
        p = self.size
        for m, c in self.diagrams.items():
            chords = []
            for a, b in m:
                na = (a + p) if a < p else (a - p)
                nb = (b + p) if b < p else (b - p)
                chords.append(tuple(sorted((na, nb))))
            mm = tuple(sorted(chords))
            diagrams[mm] = c
            words[mm] = tuple(reversed(self.words[m]))
        return TLWord(self.window, diagrams, words)


def _sine(k: int) -> LaurentPoly:
    return trig_sin(2 * k)


def _frac_key(f: RingFraction):
    return (
        tuple(sorted(f.num.terms.items())),
        tuple(sorted(f.den.terms.items())),
    )


class _FracCache:
    """Value-keyed caches for tidied sums and products.

    The projector coefficients take few distinct values across many
    diagrams, so memoizing the reduced arithmetic collapses the cost of
    the quadratic recursion loop.
    """

    def __init__(self):
        self.mul: dict = {}
        self.add: dict = {}

    def product(self, a: RingFraction, ka, b: RingFraction, kb, loops: int):
        key = (ka, kb, loops)
        hit = self.mul.get(key)
        if hit is None:
            out = a * b
            if loops:
                out = out * (beta_poly() ** loops)
            hit = out.reduced_u()
            self.mul[key] = hit
        return hit

    def total(self, a: RingFraction, ka, b: RingFraction, kb):
        key = (ka, kb)
        hit = self.add.get(key)
        if hit is None:
            hit = (a + b).reduced_u()
            self.add[key] = hit
        return hit


def _embed_strand(data: dict, p: int) -> dict:
    """Embed (p-1)-strand diagram terms into p strands (extra through line)."""
    out = {}
    for m, (c, w) in data.items():
        chords = []
        for a, b in m:
            na = a if a < p - 1 else a + 1
            nb = b if b < p - 1 else b + 1
            chords.append(tuple(sorted((na, nb))))
        chords.append((p - 1, 2 * p - 1))
        out[tuple(sorted(chords))] = (c, w)
    return out


@lru_cache(maxsize=None)
def _wenzl_diagrams(p: int):
    """dict diagram -> (coefficient, word) for the projector on p strands.

    Built by the one-sided product wj_p = wj_{p-1} (id + sum_k
    (S_k/S_p) e_{p-1} e_{p-2} ... e_k), equivalent to the idempotent
    recursion (cross-checked against it in the tests).
    """
    if p < 1:
        raise ValueError("projector needs at least one strand")
    if p == 1:
        return {_open_identity(1): (RingFraction.one(), ())}
    base = _embed_strand(_wenzl_diagrams(p - 1), p)
    cache = _FracCache()
    out = {m: (c, w) for m, (c, w) in base.items()}

    # descending words e_{p-1} e_{p-2} ... e_k as open diagrams
    tail = _open_identity(p)
    tail_word: tuple = ()
    for k in range(p - 1, 0, -1):
        tail, loops = _open_compose(tail, _open_generator(p, k), p)
        assert loops == 0
        tail_word = tail_word + (k,)
        coeff = RingFraction(_sine(k), _sine(p))
        ck = _frac_key(coeff)
        for m2, (c2, w2) in base.items():
            mm, loops = _open_compose(m2, tail, p)  # product wj * (e-word)
            cc = cache.product(coeff, ck, c2, _frac_key(c2), loops)
            word = w2 + tail_word
            if mm in out:
                c0, w0 = out[mm]
                out[mm] = (
                    cache.total(c0, _frac_key(c0), cc, _frac_key(cc)),
                    w0 if len(w0) <= len(word) else word,
                )
            else:
                out[mm] = (cc, word)
    return {m: (c, w) for m, (c, w) in out.items() if not c.is_zero()}


def wenzl_jones(p: int, window=None) -> TLWord:
    """The projector on p strands, acting at the given window positions.

    ``window`` defaults to slots 1..p; entries must be strictly
    ascending site positions.
    """
    if window is None:
        window = tuple(range(1, p + 1))
    window = tuple(window)
    if len(window) != p or list(window) != sorted(set(window)):
        raise ValueError("window must be p strictly ascending positions")
    data = _wenzl_diagrams(p)
    return TLWord(window, {m: c for m, (c, w) in data.items()}, {m: w for m, (c, w) in data.items()})


# ---------------------------------------------------------------------
# applying window diagrams inside the cylinder
# ---------------------------------------------------------------------

def _embed_contiguous(matching, window, n: int) -> AffineDiagram:
    """Embed a window diagram with vertical strands elsewhere.

    Valid when the window is a contiguous run of sites, so no chord has
    to jump over a non-window position.
    """
    p = len(window)
    conn = {}

    def node(x):
        if x < p:
            return ("b", window[x])
        return ("t", window[x - p])

    for a, b in matching:
        na, nb = node(a), node(b)
        conn[na] = (nb, 0)
        conn[nb] = (na, 0)
    for site in range(1, n + 1):
        if site not in window:
            conn[("b", site)] = (("t", site), 0)
            conn[("t", site)] = (("b", site), 0)
    return AffineDiagram(n, conn)


def apply_tlword(word: TLWord, state: LinkState):
    """Act with a window combination on a link state (contiguous window).

    Returns a dict mapping result states to Laurent-fraction
    coefficients (single-twist weights included).
    """
    n = state.n_sites
    window = word.window
    if any(window[i + 1] - window[i] != 1 for i in range(len(window) - 1)):
        raise ValueError("direct application needs a contiguous window")
    buckets: dict = {}
    for matching, coeff in word.diagrams.items():
        diag = _embed_contiguous(matching, window, n)
        res = act_on_link(diag, state)
        if res is None:
            continue
        weight = act_weight(res, n)
        buckets.setdefault(res.state, []).append(coeff * weight)
    out: dict = {}
    for target, parts in buckets.items():
        total = sum_fractions_cleared(parts)
        if not total.is_zero():
            out[target] = total
    return out


def _reduced_state(w: LinkState):
    """Strip interior arcs: returns (window, reduced state, interior arcs)."""
    n = w.n_sites
    interior = [(i, j) for i, j in w.pairs if j <= n]
    boundary = [(i, j) for i, j in w.pairs if j > n]
    window = sorted(
        set(w.defects)
        | {i for i, _ in boundary}
        | {j - n for _, j in boundary}
    )
    idx = {q: t + 1 for t, q in enumerate(window)}
    m = len(window)
    pairs = [(idx[i], idx[j - n] + m) for i, j in boundary]
    defects = [idx[p] for p in w.defects]
    return window, LinkState(m, pairs, defects), interior


def u_transform_state(w: LinkState):
    """The change-of-basis image of a single state.

    Returns a dict mapping link states to fraction coefficients.
    """
    n = w.n_sites
    r = w.boundary_arcs
    if r == 0:
        return {w: RingFraction.one()}
    window, reduced, interior = _reduced_state(w)
    m = len(window)
    proj = wenzl_jones(m)
    buckets: dict = {}
    for matching, coeff in proj.diagrams.items():
        diag = _embed_contiguous(matching, tuple(range(1, m + 1)), m)
        res = act_on_link(diag, reduced)
        if res is None:
            continue
        # map displacements back to original positions; each wrap of the
        # reduced seam is a wrap of the full cylinder
        delta = sum(
            window[p - 1] - window[q - 1] + n * s for p, q, s in res.travel
        )
        weight = loop_weight(res.nbeta, res.nalpha, delta, n)
        pairs = list(interior)
        for a, b in res.state.pairs:
            if b <= m:
                pairs.append((window[a - 1], window[b - 1]))
            else:
                pairs.append((window[a - 1], window[b - m - 1] + n))
        defects = [window[a - 1] for a in res.state.defects]
        target = LinkState(n, pairs, defects)
        buckets.setdefault(target, []).append(coeff * weight)
    out: dict = {}
    for target, parts in buckets.items():
        total = sum_fractions_cleared(parts)
        if not total.is_zero():
            out[target] = total
    return out


def u_transform(n: int, d: int) -> RingMatrix:
    """Matrix of the change of basis on the d-defect module."""
    basis = enumerate_states(n, d)
    index = {w: k for k, w in enumerate(basis)}
    size = len(basis)
    ent = [[RingFraction.zero()] * size for _ in range(size)]
    for j, w in enumerate(basis):
        for target, coeff in u_transform_state(w).items():
            ent[index[target]][j] = coeff
    return RingMatrix(ent, list(basis), list(basis), zero=RingFraction.zero())


def gamma_matrix(n: int, d: int) -> RingMatrix:
    """The Gram matrix congruence-transformed to the projector basis.

    The Gram form pairs the twist-v action on its first slot with the
    twist-1/v action on its second, so the congruence reads
    transpose(U|_{v->1/v}) @ Gram @ U; this is what block-diagonalizes.
    Each column of U is cleared to a common u-only denominator first so
    the triple product runs over plain polynomials; the denominators are
    divided back out entrywise at the end.
    """
    u = u_transform(n, d)
    size = u.rows
    columns = [clear_denominators([u[i, j] for i in range(size)]) for j in range(size)]
    dens = [den for _, den in columns]
    cleared = [[columns[j][0][i] for j in range(size)] for i in range(size)]
    upoly = RingMatrix(cleared, u.row_labels, u.col_labels)
    g = gram_matrix(n, d)
    p = upoly.map(LaurentPoly.flip_v).transpose() @ g @ upoly
    ent = [
        [
            RingFraction(p[i, j], dens[i] * dens[j])
            for j in range(size)
        ]
        for i in range(size)
    ]
    return RingMatrix(ent, u.row_labels, u.col_labels, zero=RingFraction.zero())


# ---------------------------------------------------------------------
# the K factors
# ---------------------------------------------------------------------

def reference_state(d: int, r: int) -> LinkState:
    """The unique state with r boundary arcs and d defects on d+2r sites."""
    m = d + 2 * r
    pairs = [(m - r + t, m + r + 1 - t) for t in range(1, r + 1)]
    defects = list(range(r + 1, r + d + 1))
    return LinkState(m, pairs, defects)


def k_factor(d: int, r: int, n_ambient: int | None = None, mode: str = "closed_form") -> RingFraction:
    """The scalar block factor for the r-th stratum with d defects.

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
            num = num * (alpha2 - (c * c).scale(4)) * _sine(k)
            den = den * _sine(r + d + k)
        return RingFraction(num, den)
    if mode == "recursion":
        if r == 0:
            return RingFraction.one()
        alpha2 = alpha_poly(n_ambient) * alpha_poly(n_ambient)
        prev = k_factor(d, r - 1, n_ambient, "recursion")
        c = trig_cos(2 * r + d)
        step = RingFraction(
            (alpha2 - (c * c).scale(4)) * _sine(r) * _sine(r + d),
            _sine(2 * r + d) * _sine(2 * r + d - 1),
        )
        return prev * step
    if mode == "gram_pairing":
        if n_ambient != d + 2 * r:
            raise ValueError("the defining pairing lives on d + 2r sites")
        w_ref = reference_state(d, r)
        proj = wenzl_jones(d + 2 * r)
        parts = []
        for target, coeff in apply_tlword(proj, w_ref).items():
            pairing = gram_pair(w_ref, target)
            if pairing:
                # the second Gram slot carries the twist-1/v action
                flipped = RingFraction(coeff.num.flip_v(), coeff.den.flip_v())
                parts.append(flipped * pairing)
        return sum_fractions_cleared(parts)
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
    gamma = gamma_matrix(n, d)
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
    for r, idx in strata.items():
        kf = k_factor(d, r, n_ambient=n)
        twists = [ONE] * r + [v] * d + [ONE] * r
        for i in idx:
            for j in idx:
                wi, wj = basis[i], basis[j]
                expect = kf * gram_pair(bijection_C(wj), bijection_C(wi), twists)
                if gamma[i, j] != expect:
                    failures.append(("block", r, i, j))
    return not failures, failures


def gram_recursion_check(n: int, d: int, twists=None) -> bool:
    """Verify the size-lowering determinant recursion, up to sign.

    The d-defect open Gram determinant at size n factors as the
    (d-1)-defect determinant at size n-1 times a sine-ratio power times
    the (d+1)-defect determinant at size n-1.
    """
    from .intertwiner import det_exact

    if d < 1 or d > n:
        raise ValueError("the recursion needs at least one defect")
    if twists is None:
        twists = [LaurentPoly.v_pow(k + 1) for k in range(d)]
    lhs = RingFraction.from_poly(
        det_exact(gram_matrix(n, d, mode="open", twists=list(twists)))
    )
    rhs = RingFraction.one()
    if d - 1 <= n - 1:
        rhs = rhs * det_exact(
            gram_matrix(n - 1, d - 1, mode="open", twists=list(twists[1:]))
        )
    power = standard_dim(n - 1, d + 1)
    rhs = rhs * RingFraction(_sine(d + 2) ** power, _sine(d + 1) ** power)
    if d + 1 <= n - 1:
        rhs = rhs * det_exact(
            gram_matrix(n - 1, d + 1, mode="open", twists=[ONE] + list(twists))
        )
    return lhs == rhs or lhs == -rhs


def wj_matrix(p: int, n: int, d: int, flip_twist: bool = False):
    """Denominator-cleared matrix of the projector on window 1..p.

    Returns (P, den) with den a u-only polynomial such that the honest
    operator matrix is P/den; clearing keeps all downstream identity
    checks inside the polynomial ring.
    """
    proj = wenzl_jones(p)
    basis = enumerate_states(n, d)
    index = {w: k for k, w in enumerate(basis)}
    size = len(basis)
    positions, coeffs = [], []
    for j, w in enumerate(basis):
        for target, coeff in apply_tlword(proj, w).items():
            if not any(e[1] for e in coeff.num.terms):
                coeff = coeff.reduced_u()
            positions.append((index[target], j))
            coeffs.append(coeff)
    nums, den = clear_denominators(coeffs)
    ent = [[ZERO] * size for _ in range(size)]
    for (i, j), num in zip(positions, nums):
        ent[i][j] = ent[i][j] + (num.flip_v() if flip_twist else num)
    return RingMatrix(ent, list(basis), list(basis)), den
