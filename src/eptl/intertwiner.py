"""The link-to-spin intertwining map, its matrix, and the determinants.

For a link state whose arcs are ``(i, j)`` pairs, the map sends the
state to the product over arcs of the two-term lowering operators

    v^(j-i) u sigma^-_j  +  v^(i-j) u^-1 sigma^-_i     (indices mod n)

applied to the all-up spin state.  The factors for different arcs
commute, so the order is irrelevant.  The module also provides exact
determinants, the closed-form determinant products, and the numeric
criticality scan.

``det_exact`` is a fraction-free (Bareiss) elimination on the stored
triples of :mod:`eptl.ring`: each update a_ij*piv - a_ik*a_kj is two
:func:`eptl.ring.mul_into` calls into one accumulator, and
:func:`eptl.ring.quotient` divides it by the previous pivot.  It takes
integer coefficients only, which every matrix it sees has (``I`` and the
open Gram matrices).
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import comb, inf, log, pi, sin

import numpy as np

from .linkrep import RingMatrix, gram_matrix, link_orbits
from .momentum import blocks, by_shape, covariant_orbits
from .ring import GR_I, KEY_RANGE, ONE, ZERO, LaurentPoly, bracket, collect, exponents, mul_into, quotient
from .spinrep import act, spin_orbits, spin_sector
from .states import LinkState, enumerate_states, module_dim


def t_tilde_apply(i: int, j: int, vec: dict, n: int) -> dict:
    """Apply the arc operator for an arc opening at i and closing at j
    to a spin vector ``mask -> LaurentPoly`` on n sites.

    Requires 1 <= i <= n and i+1 <= j <= n+i-1; lowers the total spin by
    two, annihilating components already down at both target sites.
    """
    if not (1 <= i <= n and i + 1 <= j <= n + i - 1):
        raise ValueError(f"arc ({i},{j}) outside canonical range")
    # lowering at j carries u v^(j-i), at i it carries u^-1 v^(i-j)
    lower = ((1 << (j - 1) % n, 1, j - i), (1 << (i - 1), -1, i - j))
    images = {m: tuple((m ^ b, eu, ev) for b, eu, ev in lower if m & b) for m in vec}
    return act(images, vec)


def intertwine_state(w: LinkState) -> dict:
    """Image of a link state, ``mask -> LaurentPoly``: the arc operators
    applied to the all-up state."""
    n = w.n_sites
    vec = {(1 << n) - 1: ONE}
    for i, j in w.pairs:
        vec = t_tilde_apply(i, j, vec, n)
    return vec


@lru_cache(maxsize=None)
def i_matrix(n: int, d: int) -> RingMatrix:
    """Matrix of the intertwining map: columns over the link basis,
    rows over the ascending-mask spin sector basis.  Cached: treat the
    result as read-only."""
    basis = enumerate_states(n, d)
    sec = spin_sector(n, d)
    columns = [intertwine_state(w) for w in basis]
    return RingMatrix.from_columns(columns, sec.index, sec.labels(), list(basis))


def i_matrix_numeric(n: int, d: int, u: complex, v: complex, cols=None) -> np.ndarray:
    """I(u, v), or only its columns ``cols``; see ``RingMatrix.to_numeric``."""
    return i_matrix(n, d).to_numeric(u, v, cols)


def factorization_check(n: int, d: int):
    """Exact check that transpose(I(u, 1/v)) @ I(u, v) equals the Gram matrix.

    Once :func:`eptl.momentum.covariant_orbits` finds that ``I`` and the
    Gram matrix G commute with the translation, so does the product X:
    X[P a, P b] = X[a, b], and X = G holds exactly when the columns of
    the orbit representatives agree; only those are multiplied out.
    When a covariance check fails or a representative's column differs,
    the full product is formed.  Returns (ok, report) where the report
    lists the mismatching entries (i, j) in row order.
    """
    imat = i_matrix(n, d)
    gram = gram_matrix(n, d)
    left = imat.map(LaurentPoly.flip_v).transpose()

    def mismatches(cols):
        product = left @ RingMatrix([imat.columns[j] for j in cols], imat.row_labels, cols)
        return sorted(
            (i, j)
            for j, p in zip(cols, product.columns)
            for i in p.keys() | gram.columns[j].keys()
            if p.get(i) != gram.columns[j].get(i)
        )

    every = list(range(gram.cols))
    try:
        covariant_orbits(i_matrix, spin_orbits, link_orbits, n, d)
        reps = covariant_orbits(gram_matrix, link_orbits, link_orbits, n, d)[1].reps.tolist()
    except ValueError:  # no translation (n = 0), or a matrix that does not commute with it
        found = mismatches(every)
    else:
        found = mismatches(reps) and mismatches(every)
    return not found, {"n": n, "d": d, "size": gram.rows, "mismatches": found}


# ---------------------------------------------------------------------
# exact determinants
# ---------------------------------------------------------------------

def det_exact(m: RingMatrix) -> LaurentPoly:
    """Fraction-free (Bareiss) determinant of a Laurent-polynomial matrix
    with integer coefficients.

    The elimination runs on the triples of :mod:`eptl.ring`.  A non-real
    coefficient, or exponents so large that a product of two minors could
    leave the packed range, raise ValueError up front.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return ONE
    # every intermediate is a minor, and a product of two minors is formed
    entries = [e for col in m.columns for e in col.values()]
    exps = (abs(x) for e in entries for k, _, _ in e.triples for x in exponents(k))
    emax = max(exps, default=0)
    if 2 * n * emax >= KEY_RANGE:
        raise ValueError(f"exponent {emax} too large for a packed {n}x{n} determinant")
    non_real = [e for e in entries if any(i for _, _, i in e.triples)]
    if non_real:
        raise ValueError(f"det_exact takes integer coefficients only, got the entry {non_real[0]!r}")
    a = [[m[i, j].triples for j in range(n)] for i in range(n)]
    sign = 1
    prev = ONE.triples
    im: dict = {}  # stays empty: every entry is real
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
        neg_row_k = [tuple((key, -c, 0) for key, c, _ in e) for e in a[k]]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                t: dict = {}
                if row_i[j]:
                    mul_into(t, im, row_i[j], piv)
                if aik:
                    mul_into(t, im, aik, neg_row_k[j])
                row_i[j] = quotient(t, prev) if t else ()
            row_i[k] = ()
        prev = piv
    det = collect({key: c for key, c, _ in a[n - 1][n - 1]}, im)
    return -det if sign < 0 else det


@lru_cache(maxsize=None)
def i_det_exact(n: int, d: int) -> LaurentPoly:
    """Exact determinant of the intertwiner matrix.  Cached, so the Gram
    determinant and the checks of det I share one elimination."""
    return det_exact(i_matrix(n, d))


def gram_det_exact(n: int, d: int) -> LaurentPoly:
    """Exact determinant of the periodic Gram matrix.

    Once :func:`factorization_check` finds G = transpose(I(u, 1/v)) @
    I(u, v) exactly, det G = flip_v(det I) * det I; a failed check raises
    ValueError.
    """
    ok, report = factorization_check(n, d)
    if not ok:
        raise ValueError(
            f"Gram factorization fails at n={n} d={d}: {len(report['mismatches'])} mismatched entries"
        )
    det = i_det_exact(n, d)
    return det.flip_v() * det


# ---------------------------------------------------------------------
# closed-form determinants
# ---------------------------------------------------------------------

def det_factors(n: int, d: int, which: str):
    """(polynomial, exponent) factors of a closed-form determinant product.

    which = 'intertwiner': brackets <k + d/2>.
    which = 'gram_tilde':  pairs <k+d/2><-k-d/2>.
    """
    if which not in ("intertwiner", "gram_tilde"):
        raise ValueError(f"unknown formula {which!r}")
    half = (n - d) // 2
    factors = []
    for k in range(1, half + 1):
        e = comb(n, half - k)
        factors.append((bracket(2 * k + d, n), e))
        if which == "gram_tilde":
            factors.append((bracket(-(2 * k + d), n), e))
    return factors


def det_formulas(n: int, d: int, which: str) -> LaurentPoly:
    """Closed-form determinant products (see :func:`det_factors`)."""
    out = ONE
    for poly, e in det_factors(n, d, which):
        out = out * poly ** e
    return out


def leading_exponents(n: int, d: int) -> tuple:
    """Expected extreme-term exponents of the intertwiner determinant as
    u, v -> infinity: (arc count total, n * weighted stratum sum)."""
    half = (n - d) // 2
    x1 = module_dim(n, d) * half
    x2 = n * sum(comb(n, s) for s in range(half))
    return x1, x2


def matches_up_to_sign(a: LaurentPoly, b: LaurentPoly) -> bool:
    return a == b or a == -b


def matches_up_to_unit(a: LaurentPoly, b: LaurentPoly):
    """Compare up to a Gaussian unit; returns the unit as a string or None.

    Determinants of integer matrices against half-integer bracket
    products can differ by +-i, not just +-1.
    """
    if a == b:
        return "+1"
    if a == -b:
        return "-1"
    bi = b * LaurentPoly.const(GR_I)
    if a == bi:
        return "+i"
    if a == -bi:
        return "-i"
    return None


def det_formula_log(n: int, d: int, which: str, u: complex, v: complex):
    """Factor-wise numeric value of a closed-form determinant.

    Returns (log of the absolute value, phase).  Evaluating the expanded
    polynomial instead would lose the result to float cancellation once
    the exponents are large, so every factor is evaluated separately.
    """
    log_abs, phase = 0.0, 0.0
    for poly, e in det_factors(n, d, which):
        val = poly.eval_numeric(u, v)
        log_abs += e * log(abs(val))
        phase += e * cmath.phase(val)
    return log_abs, phase


LOGDET_TOL = 1e-8  # relative tolerance of logdet_matches on log |det|


def logdet_matches(logdet_sign, logdet_abs, formula_log, formula_phase) -> bool:
    """Compare a numpy slogdet result against a factor-wise formula value,
    up to a global fourth root of unity."""
    if abs(logdet_abs - formula_log) > LOGDET_TOL * max(1.0, abs(formula_log)):
        return False
    ratio = logdet_sign / cmath.exp(1j * formula_phase)
    return min(abs(ratio - t) for t in (1, -1, 1j, -1j)) < 1e-6


# ---------------------------------------------------------------------
# criticality
# ---------------------------------------------------------------------

# size below which a sine bracket counts as vanishing in critical_scan
BRACKET_TOL = 1e-9


def bracket_values(n: int, d: int, lam: float, mu: float):
    """Numeric values sin(Lam*(k+d/2) - mu*n) for k = 1..(n-d)/2."""
    big_lam = pi - lam
    half = (n - d) // 2
    return [sin(big_lam * (k + d / 2) - mu * n) for k in range(1, half + 1)]


def nearest_bracket(n: int, d: int, lam: float, mu: float) -> tuple:
    """``(k, |value|)`` of the smallest bracket of :func:`bracket_values`,
    the first k on a tie and ``(0, inf)`` when the k-range is empty."""
    sizes = enumerate(map(abs, bracket_values(n, d, lam, mu)), 1)
    return min(sizes, key=lambda ks: ks[1], default=(0, inf))


def min_singular_value(n: int, d: int, u: complex, v: complex) -> float:
    """Smallest singular value of I(u, v) scaled to unit max entry, the
    least over its momentum blocks (see :mod:`eptl.momentum`), once
    ``I`` passes :func:`eptl.momentum.covariant_orbits`."""
    rows, cols = covariant_orbits(i_matrix, spin_orbits, link_orbits, n, d)
    at_reps = i_matrix_numeric(n, d, u, v, cols.reps)
    scale = np.max(np.abs(at_reps))  # every column of I permutes a representative's
    if scale == 0:
        return 0.0
    parts = blocks(at_reps, rows, cols)
    if any(b.shape[0] != b.shape[1] for b in parts):
        return 0.0  # a non-square block leaves I rank-deficient
    least = min(np.linalg.svd(s, compute_uv=False)[:, -1].min() for s in by_shape(parts))
    return float(least / scale)


def critical_scan(n: int, d: int, lam_values, mu_values, singular_tol: float = 1e-8):
    """Grid scan comparing the bracket predictor against the numeric rank.

    Yields one row per grid point: (lam, mu, predicted, min_singular,
    observed, which_k) with predicted true when the smallest bracket is
    below ``BRACKET_TOL``, observed true when min_singular is below
    singular_tol and which_k the 1-based index of the smallest bracket (0
    when the k-range is empty).
    """
    rows = []
    for lam in lam_values:
        for mu in mu_values:
            which, size = nearest_bracket(n, d, lam, mu)
            u = cmath.exp(1j * lam / 2)
            v = cmath.exp(1j * mu)
            sv = min_singular_value(n, d, u, v)
            rows.append(
                {
                    "lambda": lam,
                    "mu": mu,
                    "predicted_critical": size < BRACKET_TOL,
                    "min_singular_value": sv,
                    "observed_critical": sv < singular_tol,
                    "which_k": which,
                }
            )
    return rows
