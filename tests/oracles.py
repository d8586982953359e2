"""Slow independent constructions that the tests compare the library against.

Each oracle builds the same object as a library function by a different
route, and is kept only as a reference for the tests:

* ``det_cofactor``: cofactor expansion, against Bareiss ``det_exact``;
* ``det_bareiss_laurent``: the Bareiss elimination over ``LaurentPoly``,
  against the int kernel of ``det_exact``;
* ``_wenzl_diagrams_reference``: the two-sided idempotent recursion,
  against the one-sided product in ``projectors._wenzl_diagrams``;
* ``_tile_diagram_sequential``: a left-to-right tile sweep, against
  ``transfer.tile_diagram``;
* ``to_numeric_entrywise``: ``LaurentPoly.eval_numeric`` entry by entry,
  against the vectorized ``RingMatrix.to_numeric``;
* ``mul_terms``: the term-by-term product on ``(eu, ev)`` keys in
  Gaussian-integer arithmetic on ``(re, im)`` pairs (``gaussian_mul``),
  against the int kernel of ``LaurentPoly.__mul__``;
* ``div_terms``: the lex-leading long division on ``(eu, ev)`` keys in
  the same arithmetic (``gaussian_div``), against the two real divisions
  of ``LaurentPoly.exact_div``;
* ``matmul_dense``: the row-by-column product over dense rows, each
  entry product by ``mul_terms``, against the sparse column push of
  ``RingMatrix.__matmul__``;
* ``transfer_matrix_tilesum``: the sum over the 2^n tile fillings at one
  point, against the cached term table of ``transfer.transfer_matrix``;
* ``transfer_table_per_config``: every tile filling acting on every
  state, against the rotation-orbit build of ``transfer.transfer_table``;
* ``transfer_coefficient``: the table's terms of one k with their
  exact loop weights, a ``RingMatrix`` T_k, against ``transfer.table_matrix``
  at a unit vector, and for the exact identities T_0 = Omega and
  T_1 = Omega H;
* ``reflect_state``, ``reflection_permutation`` and
  ``crossing_defect_dense``: the mirror built state by state as a
  ``LinkState`` and applied as a dense matrix, against the code
  permutation ``transfer.mirror_permutation`` and ``crossing_defect``;
* ``expansion_defect_finite_difference``: the anisotropy expansion read
  off ``transfer_matrix`` by central differences in nu, against the
  coefficient matrices of ``transfer.expansion_defect``;
* ``u_transform_state_reduced``: the projector acting on the reduced
  cylinder of a state's defects and boundary-arc ends, against the
  full-cylinder action of ``projectors.u_transform_state``;
* ``sorted_spectra_dense``: ``eigvals`` of both full Hamiltonians,
  against the momentum blocks of ``verify.sorted_spectra``;
* ``min_singular_scaled``: the full-matrix ``svd``, against the momentum
  blocks of ``intertwiner.min_singular_value``;
* ``momentum_basis``: the dense vectors x_(a,m) of one momentum, against
  the blocks that ``momentum.blocks`` reads off the representatives'
  columns.

* ``matrix_json_dict``: the dict tree of a matrix for
  ``json.dumps(..., indent=1)``, against the hand-written layout with one
  rendering per distinct entry of ``cli._matrix_json``;
* ``gram_matrix_full``: every pair of states closed, against the
  orbit-representative columns of ``linkrep.gram_matrix`` in 'tilde' mode;
  with ``loop_variables=True`` its entries are monomials in the loop
  counts, which ``loop_variables_to_uv`` substitutes back to (u, v);
* ``gram_det_loop_variables``: the Bareiss determinant of that
  loop-variable Gram matrix, substituted back, against the factorization
  through ``I`` of ``intertwiner.gram_det_exact``;
* ``compose_dicts`` and ``act_on_link_dicts``: the strand walks on
  tagged-tuple node dicts and ``arc_partner``, against the flat int
  tables walked by ``diagrams.compose`` and ``diagrams.act_on_link``;
  ``conn_view`` reads a diagram's chords as such a dict, keyed by
  ``('t', i)`` / ``('b', i)``, and ``from_conn`` builds a diagram from one.

``dense`` builds a ``RingMatrix`` from a literal list of rows,
``submatrix`` picks rows and columns of one, ``u_pow`` and
``max_exponents`` build and read polynomials, and ``stratum`` picks the
states with r boundary arcs.
"""

from cmath import exp, sin
from collections import Counter

import numpy as np

from eptl.diagrams import ActResult, AffineDiagram, act_on_link, compose, generator_diagram, identity_diagram
from eptl.intertwiner import det_exact
from eptl.linkrep import RingMatrix, _label_str, act_weight, hamiltonian_link, loop_weight, omega_matrix, state_diagram
from eptl.projectors import _sine, wenzl_jones
from eptl.ring import ONE, ZERO, GaussianInt, LaurentPoly, beta_poly, collect, mul_into
from eptl.spinrep import hamiltonian_numeric
from eptl.states import LinkState, enumerate_states
from eptl.transfer import tile_diagram, transfer_matrix, transfer_table


def dense(rows, row_labels=None, col_labels=None) -> RingMatrix:
    """The matrix with the given dense rows, zeros included; labels
    default to the row and column indices."""
    n_cols = len(rows[0]) if rows else 0
    if row_labels is None:
        row_labels = list(range(len(rows)))
    if col_labels is None:
        col_labels = list(range(n_cols))
    if len(row_labels) != len(rows):
        raise ValueError("label count does not match matrix shape")
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(n_cols)]
    return RingMatrix(columns, row_labels, col_labels)


def submatrix(m: RingMatrix, row_idx, col_idx) -> RingMatrix:
    """Rows ``row_idx`` and columns ``col_idx`` of ``m``, in those orders."""
    picked = (m.columns[j] for j in col_idx)
    out = [{t: col[i] for t, i in enumerate(row_idx) if i in col} for col in picked]
    return RingMatrix(out, [m.row_labels[i] for i in row_idx], [m.col_labels[j] for j in col_idx])


def u_pow(k: int) -> LaurentPoly:
    return LaurentPoly({(k, 0): 1})


def max_exponents(p: LaurentPoly) -> tuple:
    return (max(e[0] for e in p.terms), max(e[1] for e in p.terms))


def stratum(n: int, d: int, r: int) -> tuple:
    """The link states of the d-defect module with r boundary arcs."""
    return tuple(w for w in enumerate_states(n, d) if w.boundary_arcs == r)


def gram_matrix_full(n: int, d: int, loop_variables: bool = False) -> RingMatrix:
    """The periodic Gram matrix with every column state closed against
    every row state; oracle for ``gram_matrix(n, d)``.

    ``loop_variables=True`` gives each entry as a monomial in compressed
    variables instead of (u, v): exponent pair (contractible loops,
    non-contractible loops) when d = 0 and (contractible loops, net
    defect displacement) when d > 0.
    """
    basis = enumerate_states(n, d)

    def weight(res):
        if loop_variables:
            return LaurentPoly.monomial(res.nbeta, res.nalpha if d == 0 else res.twist)
        return act_weight(res, n)

    closings = [state_diagram(w) for w in basis]
    columns = [
        {i: weight(res) for i, c in enumerate(closings) if (res := act_on_link(c, wc)) is not None}
        for wc in basis
    ]
    return RingMatrix(columns, list(basis), list(basis))


def loop_variables_to_uv(p: LaurentPoly, n: int, d: int) -> LaurentPoly:
    """Undo the compressed encoding of ``gram_matrix_full(..., True)``."""
    re: dict = {}
    im: dict = {}
    for (a, b), c in p.terms.items():
        # beta^a and alpha^b (or v^b) are cached apart: few distinct a and b, many pairs
        other = loop_weight(0, b, 0, n) if d == 0 else loop_weight(0, 0, b, n)
        mul_into(re, im, (LaurentPoly.const(c) * other).triples, loop_weight(a, 0, 0, n).triples)
    return collect(re, im)


def gram_det_loop_variables(n: int, d: int) -> LaurentPoly:
    """The periodic Gram determinant eliminated in the loop variables and
    substituted back; oracle for ``intertwiner.gram_det_exact``."""
    return loop_variables_to_uv(det_exact(gram_matrix_full(n, d, True)), n, d)


def arc_partner(w: LinkState) -> dict:
    """site -> (site', signed seam crossings traversing site -> site');
    oracle for the flat table ``LinkState.arcs``.

    Crossing sign: moving left through the boundary counts +1.
    """
    n = w.n_sites
    out = {}
    for i, j in w.pairs:
        jm = (j - 1) % n + 1
        if j <= n:
            out[i] = (jm, 0)
            out[jm] = (i, 0)
        else:
            out[i] = (jm, -1)   # opening travels rightward through the seam
            out[jm] = (i, 1)
    return out


def conn_view(diag: AffineDiagram) -> dict:
    """Tagged node -> (tagged partner, signed crossings), for every node of
    ``diag``; top i is ``('t', i)`` and bottom i is ``('b', i)``."""
    n = diag.n
    node = [None] + [("t", i) for i in range(1, n + 1)] + [("b", i) for i in range(1, n + 1)]
    return {node[x]: (node[diag.to[x]], diag.cr[x]) for x in range(1, 2 * n + 1)}


def from_conn(n: int, conn: dict, nbeta=0, nalpha=0) -> AffineDiagram:
    """The diagram whose :func:`conn_view` is ``conn``."""
    to, cr = [0] * (2 * n + 1), [0] * (2 * n + 1)
    for (side, i), ((side2, j), s) in conn.items():
        x = i if side == "t" else n + i
        to[x] = j if side2 == "t" else n + j
        cr[x] = s
    return AffineDiagram(n, to, cr, nbeta, nalpha)


def compose_dicts(top: AffineDiagram, bottom: AffineDiagram) -> AffineDiagram:
    """Stack ``top`` above ``bottom`` and trace, on the tagged-tuple dicts
    of :func:`conn_view`; oracle for the flat-table walk of
    ``diagrams.compose``.

    The result represents the algebra product bottom*top, i.e. acting on
    a link state attached above, ``top`` is applied first.
    """
    if top.n != bottom.n:
        raise ValueError("site-count mismatch")
    n = top.n
    views = {"U": conn_view(top), "L": conn_view(bottom)}
    conn: dict = {}
    nbeta = top.nbeta + bottom.nbeta
    nalpha = top.nalpha + bottom.nalpha
    visited = set()  # (layer, node) pairs

    def walk(layer, node):
        # traverse the chord in `layer` from `node`, hopping through the
        # interface until an outer node is reached; returns (layer,node,s)
        s = 0
        while True:
            partner, ds = views[layer][node]
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
            conn[node] = (end_node, s)
            conn[end_node] = (node, -s)

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
                partner, ds = views[cur_layer][cur_node]
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

    return from_conn(n, conn, nbeta, nalpha)


def act_on_link_dicts(diag: AffineDiagram, w: LinkState):
    """Apply a diagram to a link state attached above it, on the
    tagged-tuple dict of :func:`conn_view` and :func:`arc_partner`;
    oracle for the flat-table walk of ``diagrams.act_on_link``.

    Returns None when two defects get connected, otherwise an ActResult
    whose exponents count the loops closed (on top of the exponents the
    diagram had already accumulated).
    """
    if diag.n != w.n_sites:
        raise ValueError("site-count mismatch")
    n = diag.n
    conn = conn_view(diag)
    arcs = arc_partner(w)
    defects = set(w.defects)
    visited_tops = set()
    nbeta, nalpha = diag.nbeta, diag.nalpha

    def run(start_node):
        # start_node is a diagram node; traverse diagram chord first
        s = 0
        node = start_node
        while True:
            partner, ds = conn[node]
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
            partner, ds = conn[node]
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
    state = LinkState(n, new_pairs, new_defects)
    index = enumerate_states(n, len(new_defects)).index(state)
    twist = sum(p - q + n * s for p, q, s in travel)
    return ActResult(state, index, nbeta, nalpha, tuple(travel), twist)


def matrix_json_dict(m: RingMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "row_labels": [_label_str(x) for x in m.row_labels],
        "col_labels": [_label_str(x) for x in m.col_labels],
        "entries": [[e.to_json_dict() for e in row] for row in m.entries],
    }


def gaussian_mul(a, b) -> tuple:
    """The product of two Gaussian integers given as (re, im) pairs."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gaussian_div(a, b) -> tuple:
    """The exact quotient a / b of (re, im) pairs; raises ValueError when
    it is not in Z[i] and ZeroDivisionError when b is zero."""
    n = b[0] * b[0] + b[1] * b[1]
    if n == 0:
        raise ZeroDivisionError("division by zero in Z[i]")
    re, r1 = divmod(a[0] * b[0] + a[1] * b[1], n)
    im, r2 = divmod(a[1] * b[0] - a[0] * b[1], n)
    if r1 or r2:
        raise ValueError(f"{a} is not divisible by {b} in Z[i]")
    return (re, im)


def mul_terms(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Product term by term on ``(eu, ev)`` keys, one :func:`gaussian_mul`
    per partial product; oracle for ``LaurentPoly.__mul__``."""
    out: dict = {}
    for (x1, y1), c1 in a.terms.items():
        for (x2, y2), c2 in b.terms.items():
            e = (x1 + x2, y1 + y2)
            p = gaussian_mul(c1, c2)
            s = out.get(e, (0, 0))
            out[e] = GaussianInt(s[0] + p[0], s[1] + p[1])
    return LaurentPoly(out)


def div_terms(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact quotient p / q by lex-leading terms on ``(eu, ev)`` keys in
    Gaussian-integer pair arithmetic, bounded by the exponent widths of p;
    oracle for ``LaurentPoly.exact_div``.  Raises ValueError if not exact."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return ZERO
    if len(q.terms) == 1:
        (((eu, ev), c),) = q.terms.items()
        return LaurentPoly({(x - eu, y - ev): gaussian_div(k, c) for (x, y), k in p.terms.items()})
    rem = dict(p.terms)
    div_lead = max(q.terms)
    div_lead_c = q.terms[div_lead]
    quot: dict = {}
    nu, nv = p.min_exponents()
    xu, xv = max_exponents(p)
    max_steps = (xu - nu + 1) * (xv - nv + 1) + 1
    steps = 0
    while rem:
        steps += 1
        if steps > max_steps:
            raise ValueError("division is not exact")
        lead = max(rem)
        qe = (lead[0] - div_lead[0], lead[1] - div_lead[1])
        qc = gaussian_div(rem[lead], div_lead_c)
        quot[qe] = qc
        for (x, y), c in q.terms.items():
            e = (x + qe[0], y + qe[1])
            s, t = rem.get(e, (0, 0)), gaussian_mul(c, qc)
            s = (s[0] - t[0], s[1] - t[1])
            if any(s):
                rem[e] = s
            else:
                rem.pop(e, None)
    return LaurentPoly(quot)


def matmul_dense(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Row-by-column product over the dense rows, skipping zero factors,
    each entry product by :func:`mul_terms`; oracle for
    ``RingMatrix.__matmul__``."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    left, right = a.entries, b.entries
    out = []
    for row_i in left:
        out_row = []
        for j in range(b.cols):
            acc = None
            for k in range(a.cols):
                x = row_i[k]
                if not x:
                    continue
                y = right[k][j]
                if not y:
                    continue
                t = mul_terms(x, y)
                acc = t if acc is None else acc + t
            out_row.append(ZERO if acc is None else acc)
        out.append(out_row)
    return dense(out, a.row_labels, b.col_labels)


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


def det_bareiss_laurent(m: RingMatrix) -> LaurentPoly:
    """Fraction-free (Bareiss) determinant with every entry a
    ``LaurentPoly`` and every division :func:`div_terms`; oracle for the
    int elimination of ``det_exact``."""
    n = m.rows
    if n == 0:
        return ONE
    a = [list(row) for row in m.entries]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return ZERO
        piv = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                t = row_i[j] * piv - aik * row_k[j]
                row_i[j] = div_terms(t, prev) if prev is not None else t
            row_i[k] = ZERO
        prev = piv
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def _wenzl_diagrams_reference(p: int):
    """The two-sided idempotent recursion; oracle for the fast builder.

    Runs wj_q = wj_{q-1} + ([q-1]/[q]) wj_{q-1} e_{q-1} wj_{q-1} for
    q = 2..p with every diagram on p sites from wj_1 = id, so no
    embedding between strand counts is needed.  Coefficients are
    numerators over [q]!: with N = [q-1]! wj_{q-1},

        [q]! wj_q = [q] N + [q-1] (N e_{q-1} N) / [q-1]!,

    and the exact division raises if [q]! does not clear the
    denominators of wj_q.
    """
    beta = beta_poly()

    def qint(k):
        return div_terms(_sine(k), _sine(1))

    def product(xs, ys):
        # the algebra product xs * ys: ys is stacked on top of xs
        out = {}
        for mx, (cx, wx) in xs.items():
            for my, (cy, wy) in ys.items():
                prod = compose(top=my, bottom=mx)
                key = AffineDiagram(p, prod.to, prod.cr)
                c = cx * cy * beta ** prod.nbeta
                if key in out:
                    c0, w0 = out[key]
                    out[key] = (c0 + c, w0)
                else:
                    out[key] = (c, wx + wy)
        return out

    wj = {identity_diagram(p): (ONE, ())}
    fact = ONE  # [q-1]!
    for q in range(2, p + 1):
        gen = {generator_diagram("e", p, q - 1): (qint(q - 1), (q - 1,))}
        out = {m: (c * qint(q), w) for m, (c, w) in wj.items()}
        for m, (c, w) in product(product(wj, gen), wj).items():
            c = div_terms(c, fact)
            if m in out:
                c0, w0 = out[m]
                out[m] = (c0 + c, w0)
            else:
                out[m] = (c, w)
        wj = {m: (c, w) for m, (c, w) in out.items() if c}
        fact = fact * qint(q)
    return wj


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
    # rightward through the boundary, also at n = 1, where it joins the
    # two nodes of the one tile
    conn[open_right] = (left_pending, -1)
    conn[left_pending] = (open_right, 1)
    return from_conn(n, conn)


def to_numeric_entrywise(m: RingMatrix, u: complex, v: complex) -> np.ndarray:
    """Scalar evaluation of every nonzero entry; oracle for ``to_numeric``."""
    out = np.zeros((m.rows, m.cols), dtype=complex)
    for i, row in enumerate(m.entries):
        for j, e in enumerate(row):
            if e:
                out[i, j] = e.eval_numeric(u, v)
    return out


def transfer_matrix_tilesum(n: int, d: int, lam: float, nu: complex, mu: float) -> np.ndarray:
    """Every tile filling acting on every state, weighted at the point;
    oracle for ``transfer_matrix``."""
    basis = enumerate_states(n, d)
    index = {w: k for k, w in enumerate(basis)}
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    u = exp(1j * lam / 2)
    v = exp(1j * mu)
    beta = u * u + 1 / (u * u)
    alpha = v ** n + v ** (-n)
    w_id = sin(lam - nu)
    w_e = sin(nu)
    for config in range(1 << n):
        diag = tile_diagram(n, config)
        ones = bin(config).count("1")
        weight = (w_id ** (n - ones)) * (w_e ** ones)
        if weight == 0:
            continue
        for j, w in enumerate(basis):
            res = act_on_link(diag, w)
            if res is None:
                continue
            out[index[res.state], j] += (
                weight
                * (beta ** res.nbeta)
                * (alpha ** res.nalpha)
                * v ** res.twist
            )
    return out


def transfer_table_per_config(n: int, d: int) -> tuple:
    """Every tile filling acting on every state, terms counted in first-seen
    order; oracle for ``transfer.transfer_table``."""
    basis = enumerate_states(n, d)
    index = {w: j for j, w in enumerate(basis)}
    counts = Counter()
    for config in range(1 << n):
        diag = tile_diagram(n, config)
        k = config.bit_count()
        for j, w in enumerate(basis):
            res = act_on_link(diag, w)
            if res is not None:
                counts[index[res.state], j, k, res.nbeta, res.nalpha, res.twist] += 1
    keys = np.array(list(counts), dtype=np.int64).reshape(-1, 6)
    coeffs = np.array(list(counts.values()), dtype=np.int64)
    return keys, coeffs


def transfer_coefficient(n: int, d: int, k: int) -> RingMatrix:
    """The coefficient matrix T_k of T = sum_k sin(lam - nu)^(n - k)
    sin(nu)^k T_k, exactly: the term table's rows for k, each count times
    its ``loop_weight``; exact counterpart of ``transfer.table_matrix`` at
    the unit vector of k."""
    basis = enumerate_states(n, d)
    keys, coeffs = transfer_table(n, d)
    columns = [{} for _ in basis]
    for (row, col, kk, nbeta, nalpha, twist), c in zip(keys.tolist(), coeffs.tolist()):
        if kk == k:
            entry = columns[col].pop(row, ZERO) + LaurentPoly.const(c) * loop_weight(nbeta, nalpha, twist, n)
            if entry:
                columns[col][row] = entry
    return RingMatrix(columns, list(basis), list(basis))


def reflect_state(w: LinkState) -> LinkState:
    """Left-right mirror: site p -> n+1-p."""
    n = w.n_sites
    pairs = []
    for i, j in w.pairs:
        if j <= n:
            pairs.append((n + 1 - j, n + 1 - i))
        else:
            pairs.append((2 * n + 1 - j, 2 * n + 1 - i))
    defects = [n + 1 - p for p in w.defects]
    return LinkState(n, pairs, defects)


def reflection_permutation(n: int, d: int) -> np.ndarray:
    """The mirror as a dense 0/1 float matrix, column j the image of
    state j; oracle for ``transfer.mirror_permutation``."""
    basis = enumerate_states(n, d)
    index = {w: k for k, w in enumerate(basis)}
    size = len(basis)
    r = np.zeros((size, size))
    for j, w in enumerate(basis):
        r[index[reflect_state(w)], j] = 1.0
    return r


def crossing_defect_dense(n: int, d: int, lam: float, nu: complex, mu: float) -> float:
    """The crossing defect with the mirror as a dense matrix product;
    oracle for ``transfer.crossing_defect``."""
    lhs = transfer_matrix(n, d, lam, lam - nu, mu)
    r = reflection_permutation(n, d)
    t_flip = transfer_matrix(n, d, lam, nu, -mu)
    rhs = r.T @ t_flip @ r
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-30)
    return float(np.linalg.norm(lhs - rhs) / scale)


def expansion_defect_finite_difference(n: int, d: int, lam: float, mu: float, h: float = 1e-4) -> float:
    """Deviation of the first-order anisotropy expansion, read off the
    transfer matrix by Richardson-extrapolated central differences in nu
    at 0 with step h, against sin(lam)^n Omega (H/sin(lam) - n cot(lam));
    oracle for ``transfer.expansion_defect``, undefined where sin(lam)
    vanishes."""
    u, v = exp(1j * lam / 2), exp(1j * mu)
    d1 = (transfer_matrix(n, d, lam, h, mu) - transfer_matrix(n, d, lam, -h, mu)) / (2 * h)
    d2 = (transfer_matrix(n, d, lam, 2 * h, mu) - transfer_matrix(n, d, lam, -2 * h, mu)) / (4 * h)
    deriv = (4 * d1 - d2) / 3
    om = omega_matrix([("omega", 1)], n, d).to_numeric(u, v)
    hmat = hamiltonian_link(n, d).to_numeric(u, v)
    s, c = np.sin(lam), np.cos(lam)
    expect = (s ** n) * om @ (hmat / s - n * (c / s) * np.eye(len(hmat)))
    scale = max(np.linalg.norm(deriv), np.linalg.norm(expect), 1e-30)
    return float(np.linalg.norm(deriv - expect) / scale)


def u_transform_state_reduced(w: LinkState):
    """The change-of-basis image of w, computed on the reduced cylinder;
    oracle for ``projectors.u_transform_state``.

    Strips the interior arcs of w, lets the projector act on the cylinder
    of the m remaining sites (the defects and boundary-arc ends), maps
    each displacement back to full positions (a wrap of the reduced seam
    is a wrap of the full cylinder) and reinserts the interior arcs,
    building every target as a validated LinkState.
    """
    n = w.n_sites
    if w.boundary_arcs == 0:
        return {w: ONE}, ONE
    interior = [(i, j) for i, j in w.pairs if j <= n]
    boundary = [(i, j) for i, j in w.pairs if j > n]
    window = sorted(set(w.defects) | {i for i, _ in boundary} | {j - n for _, j in boundary})
    idx = {q: t + 1 for t, q in enumerate(window)}
    m = len(window)
    reduced = LinkState(
        m, [(idx[i], idx[j - n] + m) for i, j in boundary], [idx[p] for p in w.defects]
    )
    proj = wenzl_jones(m)
    out: dict = {}
    for diag, coeff in proj.diagrams.items():
        res = act_on_link(diag, reduced)
        if res is None:
            continue
        delta = sum(window[p - 1] - window[q - 1] + n * s for p, q, s in res.travel)
        weight = loop_weight(res.nbeta, res.nalpha, delta, n)
        pairs = list(interior)
        for a, b in res.state.pairs:
            if b <= m:
                pairs.append((window[a - 1], window[b - 1]))
            else:
                pairs.append((window[a - 1], window[b - m - 1] + n))
        defects = [window[a - 1] for a in res.state.defects]
        target = LinkState(n, pairs, defects)
        out[target] = out.get(target, ZERO) + coeff * weight
    return {target: num for target, num in out.items() if num}, proj.den


def sorted_spectra_dense(n: int, d: int, lam: float, mu: float):
    """Sorted eigenvalues of the full link and spin Hamiltonians at
    u = exp(i lam/2), v = exp(i mu)."""
    u, v = exp(1j * lam / 2), exp(1j * mu)
    e1 = np.sort_complex(np.linalg.eigvals(hamiltonian_link(n, d).to_numeric(u, v)))
    e2 = np.sort_complex(np.linalg.eigvals(hamiltonian_numeric(n, d, u, v)))
    return e1, e2


def min_singular_scaled(mat: np.ndarray) -> float:
    """Smallest singular value after scaling the matrix to unit max entry."""
    scale = np.max(np.abs(mat))
    if scale == 0:
        return 0.0
    return float(np.linalg.svd(mat / scale, compute_uv=False)[-1])


def momentum_basis(orbits, m: int) -> np.ndarray:
    """The unit vectors x_(a,m) = L^(-1/2) sum_k w^(-mk) e_(P^k i_a), one
    column per orbit that carries momentum m, in the order of ``groups``."""
    n = orbits.n
    dim = len(orbits.perm)
    columns = []
    for L, members in orbits.groups.items():
        if m * L % n:
            continue
        for orbit in members:
            x = np.zeros(dim, dtype=complex)
            for k, i in enumerate(orbit):
                x[i] = exp(-2j * np.pi * m * k / n) / np.sqrt(L)
            columns.append(x)
    return np.array(columns).T.reshape(dim, len(columns))
