"""The link-to-spin intertwining map, its matrix, and the determinants.

For a link state whose arcs are ``(i, j)`` pairs, the map sends the
state to the product over arcs of the two-term lowering operators

    v^(j-i) u sigma^-_j  +  v^(i-j) u^-1 sigma^-_i     (indices mod n)

applied to the all-up spin state.  The factors for different arcs
commute, so the order is irrelevant.  The module also provides exact
determinants (fraction-free elimination), the closed-form determinant
products, and the numeric criticality scan.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, pi, sin

import numpy as np

from .linkrep import RingMatrix, gram_matrix, loop_variables_to_uv
from .ring import ONE, ZERO, LaurentPoly, RingFraction, bracket, trig_sin
from .spinrep import spin_sector
from .states import LinkState, enumerate_states, module_dim, standard_dim


class SpinVector:
    """A vector in a fixed total-spin sector with exact coordinates."""

    __slots__ = ("sector", "coords")

    def __init__(self, sector, coords):
        if len(coords) != len(sector):
            raise ValueError("coordinate count does not match sector size")
        self.sector = sector
        self.coords = coords

    @staticmethod
    def all_up(n: int) -> "SpinVector":
        sec = spin_sector(n, n)
        return SpinVector(sec, [ONE])

    def __eq__(self, other):
        if not isinstance(other, SpinVector):
            return NotImplemented
        return self.sector is other.sector and self.coords == other.coords

    def __hash__(self):
        raise TypeError("SpinVector is not hashable")

    def is_zero(self) -> bool:
        return all(not c for c in self.coords)


def t_tilde_apply(i: int, j: int, vec: SpinVector) -> SpinVector:
    """Apply the arc operator for an arc opening at i and closing at j.

    Requires 1 <= i <= n and i+1 <= j <= n+i-1; lowers the total spin by
    two, annihilating components already down at both target sites.
    """
    sec = vec.sector
    n = sec.n
    if not (1 <= i <= n and i + 1 <= j <= n + i - 1):
        raise ValueError(f"arc ({i},{j}) outside canonical range")
    target = spin_sector(n, sec.d - 2)
    jm = (j - 1) % n + 1
    w_j = LaurentPoly.monomial(1, j - i)    # u v^(j-i), lowers at j
    w_i = LaurentPoly.monomial(-1, i - j)   # u^-1 v^(i-j), lowers at i
    out = [ZERO] * len(target)
    for k, c in enumerate(vec.coords):
        if not c:
            continue
        mask = sec.configs[k]
        for site, w in ((jm, w_j), (i, w_i)):
            if mask >> (site - 1) & 1:
                m2 = mask ^ (1 << (site - 1))
                idx = target.index[m2]
                out[idx] = out[idx] + c * w
    return SpinVector(target, out)


def intertwine_state(w: LinkState) -> SpinVector:
    """Image of a link state: arc operators applied to the all-up state."""
    vec = SpinVector.all_up(w.n_sites)
    for i, j in w.pairs:
        vec = t_tilde_apply(i, j, vec)
    return vec


def i_matrix(n: int, d: int) -> RingMatrix:
    """Matrix of the intertwining map: columns over the link basis,
    rows over the ascending-mask spin sector basis."""
    basis = enumerate_states(n, d)
    sec = spin_sector(n, d)
    cols = [intertwine_state(w).coords for w in basis]
    ent = [[cols[j][i] for j in range(len(basis))] for i in range(len(sec))]
    return RingMatrix(ent, sec.labels(), list(basis))


def i_matrix_numeric(n: int, d: int, u: complex, v: complex) -> np.ndarray:
    """Numeric intertwiner matrix (entries are monomials, evaluated directly)."""
    basis = enumerate_states(n, d)
    sec = spin_sector(n, d)
    out = np.zeros((len(sec), len(basis)), dtype=complex)
    for col, w in enumerate(basis):
        amps = {(1 << n) - 1: 1.0 + 0j}
        for i, j in w.pairs:
            jm = (j - 1) % n + 1
            wj = u * v ** (j - i)
            wi = (v ** (i - j)) / u
            nxt: dict = {}
            for mask, a in amps.items():
                for site, wgt in ((jm, wj), (i, wi)):
                    if mask >> (site - 1) & 1:
                        m2 = mask ^ (1 << (site - 1))
                        nxt[m2] = nxt.get(m2, 0j) + a * wgt
            amps = nxt
        for mask, a in amps.items():
            out[sec.index[mask], col] = a
    return out


def factorization_check(n: int, d: int):
    """Exact check that transpose(I(u, 1/v)) @ I(u, v) equals the Gram matrix.

    Returns (ok, report) where the report lists any mismatching entries.
    """
    imat = i_matrix(n, d)
    product = imat.map(LaurentPoly.flip_v).transpose() @ imat
    gram = gram_matrix(n, d)
    mismatches = []
    for i in range(gram.rows):
        for j in range(gram.cols):
            if product[i, j] != gram[i, j]:
                mismatches.append((i, j))
    return not mismatches, {
        "n": n,
        "d": d,
        "size": gram.rows,
        "mismatches": mismatches,
    }


# ---------------------------------------------------------------------
# exact determinants
# ---------------------------------------------------------------------

def det_exact(m: RingMatrix) -> LaurentPoly:
    """Fraction-free (Bareiss) determinant of a Laurent-polynomial matrix."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
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
                row_i[j] = t.exact_div(prev) if prev is not None else t
            row_i[k] = ZERO
        prev = piv
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def det_fraction(m: RingMatrix) -> RingFraction:
    """Determinant of a matrix with RingFraction entries.

    Rows are cleared to polynomials first, then Bareiss runs and the
    collected denominators divide the result.
    """
    n = m.rows
    if n == 0:
        return RingFraction.one()
    den_total = ONE
    rows = []
    for row in m.entries:
        fracs = [e if isinstance(e, RingFraction) else RingFraction.from_poly(e) for e in row]
        row_den = ONE
        for f in fracs:
            if not f.is_zero():
                row_den = row_den * f.den
        cleared = []
        for f in fracs:
            if f.is_zero():
                cleared.append(ZERO)
            else:
                cleared.append(f.num * row_den.exact_div(f.den))
        den_total = den_total * row_den
        rows.append(cleared)
    poly_det = det_exact(RingMatrix(rows))
    return RingFraction(poly_det, den_total)


@lru_cache(maxsize=None)
def gram_det_exact(n: int, d: int) -> LaurentPoly:
    """Exact determinant of the periodic Gram matrix, computed through the
    compressed loop-variable encoding and substituted back to (u, v)."""
    packed = gram_matrix(n, d, loop_variables=True)
    det = det_exact(packed)
    return loop_variables_to_uv(det, n, d)


# ---------------------------------------------------------------------
# closed-form determinants
# ---------------------------------------------------------------------

def det_formulas(n: int, d: int, which: str):
    """Closed-form determinant products.

    which = 'intertwiner': product of brackets <k + d/2>.
    which = 'gram_tilde':  product of <k+d/2><-k-d/2>.
    which = 'gram_open':   product of sine ratios (a RingFraction).
    """
    half = (n - d) // 2
    if which == "intertwiner":
        out = ONE
        for k in range(1, half + 1):
            out = out * bracket(2 * k + d, n) ** comb(n, half - k)
        return out
    if which == "gram_tilde":
        out = ONE
        for k in range(1, half + 1):
            pair = bracket(2 * k + d, n) * bracket(-(2 * k + d), n)
            out = out * pair ** comb(n, half - k)
        return out
    if which == "gram_open":
        num, den = ONE, ONE
        for k in range(1, half + 1):
            e = standard_dim(n, d + 2 * k)
            num = num * trig_sin(2 * (d + k + 1)) ** e
            den = den * trig_sin(2 * k) ** e
        return RingFraction(num, den)
    raise ValueError(f"unknown formula {which!r}")


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
    from .ring import GR_I

    if a == b:
        return "+1"
    if a == -b:
        return "-1"
    bi = b.scale(GR_I)
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
    import cmath
    from math import log

    half = (n - d) // 2
    log_abs, phase = 0.0, 0.0

    def acc(val: complex, e: int):
        nonlocal log_abs, phase
        log_abs += e * log(abs(val))
        phase += e * cmath.phase(val)

    for k in range(1, half + 1):
        e = comb(n, half - k)
        if which == "intertwiner":
            acc(bracket(2 * k + d, n).eval_numeric(u, v), e)
        elif which == "gram_tilde":
            acc(bracket(2 * k + d, n).eval_numeric(u, v), e)
            acc(bracket(-(2 * k + d), n).eval_numeric(u, v), e)
        elif which == "gram_open":
            e = standard_dim(n, d + 2 * k)
            acc(trig_sin(2 * (d + k + 1)).eval_numeric(u, v), e)
            acc(trig_sin(2 * k).eval_numeric(u, v), -e)
        else:
            raise ValueError(f"unknown formula {which!r}")
    return log_abs, phase


def logdet_matches(logdet_sign, logdet_abs, formula_log, formula_phase, tol=1e-8) -> bool:
    """Compare a numpy slogdet result against a factor-wise formula value,
    up to a global fourth root of unity."""
    import cmath

    if abs(logdet_abs - formula_log) > tol * max(1.0, abs(formula_log)):
        return False
    ratio = logdet_sign / cmath.exp(1j * formula_phase)
    return min(abs(ratio - t) for t in (1, -1, 1j, -1j)) < 1e-6


# ---------------------------------------------------------------------
# criticality
# ---------------------------------------------------------------------

def bracket_values(n: int, d: int, lam: float, mu: float):
    """Numeric values sin(Lam*(k+d/2) - mu*n) for k = 1..(n-d)/2."""
    big_lam = pi - lam
    half = (n - d) // 2
    return [sin(big_lam * (k + d / 2) - mu * n) for k in range(1, half + 1)]


def min_singular_scaled(mat: np.ndarray) -> float:
    """Smallest singular value after scaling the matrix to unit max entry."""
    scale = np.max(np.abs(mat))
    if scale == 0:
        return 0.0
    return float(np.linalg.svd(mat / scale, compute_uv=False)[-1])


def critical_scan(
    n: int,
    d: int,
    lam_values,
    mu_values,
    bracket_tol: float = 1e-9,
    singular_tol: float = 1e-8,
):
    """Grid scan comparing the bracket predictor against the numeric rank.

    Yields one row per grid point: (lam, mu, predicted, min_singular,
    observed, which_k) with observed true when min_singular is below
    singular_tol and which_k the 1-based index of the smallest bracket (0
    when the k-range is empty).
    """
    import cmath

    rows = []
    for lam in lam_values:
        for mu in mu_values:
            vals = bracket_values(n, d, lam, mu)
            if vals:
                k_best = min(range(len(vals)), key=lambda t: abs(vals[t]))
                predicted = abs(vals[k_best]) < bracket_tol
                which = k_best + 1
            else:
                predicted = False
                which = 0
            u = cmath.exp(1j * lam / 2)
            v = cmath.exp(1j * mu)
            sv = min_singular_scaled(i_matrix_numeric(n, d, u, v))
            rows.append(
                {
                    "lambda": lam,
                    "mu": mu,
                    "predicted_critical": predicted,
                    "min_singular_value": sv,
                    "observed_critical": sv < singular_tol,
                    "which_k": which,
                }
            )
    return rows
