"""Verification suites: every closed-form identity as a pass/fail case.

Each suite yields (case name, callable), the callable a module-level
check with its inputs bound by ``functools.partial``; it returns None on
success, a short witness string on failure, or a :class:`Skipped` reason
when the case could not be checked.  A case tied to a fixed size is only
yielded once ``n_max`` reaches that size.  Suites are deterministic
given the seed.  The report maps straight onto the CLI exit-code
contract: zero failures means exit code 0; skips do not change it.
"""

from __future__ import annotations

import cmath
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import intertwiner as itw
from . import projectors as prj
from . import transfer as trf
from .linkrep import RingMatrix, gram_matrix, hamiltonian_link, link_orbits, omega_matrix
from .momentum import blocks, by_shape, check_covariant
from .ring import ONE, LaurentPoly, alpha_poly, beta_poly
from .spinrep import hamiltonian, hamiltonian_numeric, spin_orbits, tau_matrix
from .states import module_dim


class Skipped(str):
    """Reason a case was not checked; counts as neither pass nor failure."""


@dataclass
class VerificationReport:
    suite: str
    cases: int = 0
    failures: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": [{"case": c, "witness": w} for c, w in self.failures],
            "skipped": [{"case": c, "reason": r} for c, r in self.skipped],
            "ok": self.ok,
            "wall_time_s": round(self.wall_time, 3),
        }


def _sectors(n_max, n_min=2, d_filter=None):
    for n in range(n_min, n_max + 1):
        for d in range(n % 2, n + 1, 2):
            if d_filter is None or d in d_filter:
                yield n, d


# ---------------------------------------------------------------------
# the defining relations, each checked on one sector of one representation
# ---------------------------------------------------------------------

def squares(n, d, matrix_of):
    beta = beta_poly()
    for i in range(1, n + 1):
        m = matrix_of([("e", i)], n, d)
        if m @ m != m.scale(beta):
            return f"square relation fails at site {i}"


def distant_commute(n, d, matrix_of):
    gens = [matrix_of([("e", i)], n, d) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gap = min(j - i, n - (j - i))
            if gap > 1 and gens[i - 1] @ gens[j - 1] != gens[j - 1] @ gens[i - 1]:
                return f"distant generators {i},{j} do not commute"


def contraction(n, d, matrix_of):
    if n < 3:
        return None
    for i in range(1, n + 1):
        for j in ((i % n) + 1, (i - 2) % n + 1):
            if matrix_of([("e", i), ("e", j), ("e", i)], n, d) != matrix_of([("e", i)], n, d):
                return f"contraction fails at {i},{j}"


def translate(n, d, matrix_of):
    for i in range(1, n + 1):
        lhs = matrix_of([("omega", 1), ("e", i), ("omega", -1)], n, d)
        if lhs != matrix_of([("e", (i - 2) % n + 1)], n, d):
            return f"translation conjugation fails at {i}"
    if matrix_of([("omega", 1), ("omega", -1)], n, d) != RingMatrix.identity(module_dim(n, d)):
        return "translation inverse fails"


def power(n, d, matrix_of):
    for sign in (1, -1):
        lhs = matrix_of([("omega", sign), ("e", n)] * (n - 1), n, d)
        rhs = matrix_of([("omega", sign)] * n + [("omega", sign), ("e", n)], n, d)
        if lhs != rhs:
            return f"power relation fails, sign {sign}"


def boundary_sandwich(n, d, matrix_of):
    if n < 3:
        return None  # two sites: the contraction closes a wrapping loop
    for j in range(2, n - 1):
        shift, back = [("omega", 1)] * j, [("omega", -1)] * j
        a = matrix_of([("e", n), *shift, ("e", n), *back], n, d)
        b = matrix_of([*shift, ("e", n), *back, ("e", n)], n, d)
        if a != b:
            return f"shifted commutation fails at distance {j}"
    for sign in (1, -1):
        lhs = matrix_of([("e", n), ("omega", -sign), ("e", n), ("omega", sign), ("e", n)], n, d)
        if lhs != matrix_of([("e", n)], n, d):
            return f"boundary contraction fails, sign {sign}"


def wrap_weight(n, d, matrix_of):
    if n % 2:
        return None
    for start in (2, 1):
        prod = [("e", i) for i in range(start, n + start - 1, 2)]
        ref = matrix_of(prod, n, d).scale(alpha_poly(n))
        for sign in (1, -1):
            if matrix_of(prod + [("omega", sign)] + prod, n, d) != ref:
                return f"wrap sandwich fails, start {start} sign {sign}"


RELATIONS = {
    "squares": squares,
    "distant-commute": distant_commute,
    "contraction": contraction,
    "translate": translate,
    "power": power,
    "boundary-sandwich": boundary_sandwich,
    "wrap-weight": wrap_weight,
}


def algebra_cases(n_max: int, d_filter=None, seed: int = 0):
    """Defining relations in the link and the spin representation; the
    diagram calculus itself is checked by the test suite."""
    for n, d in _sectors(n_max, 2, d_filter):
        for rep_name, matrix_of in (("link", omega_matrix), ("spin", tau_matrix)):
            for cname, fn in RELATIONS.items():
                yield f"algebra/{rep_name}/n{n}d{d}/{cname}", partial(fn, n, d, matrix_of)


# ---------------------------------------------------------------------
# intertwiner, Gram form and determinants
# ---------------------------------------------------------------------

def intertwines(n, d):
    i_mat = itw.i_matrix(n, d)
    for tok in [("e", i) for i in range(1, n + 1)] + [("omega", 1), ("omega", -1)]:
        lhs = tau_matrix([tok], n, d) @ i_mat
        rhs = i_mat @ omega_matrix([tok], n, d)
        for j, w in enumerate(i_mat.col_labels):
            if lhs.columns[j] != rhs.columns[j]:
                return f"generator {tok} on {w.ascii()}"


def intertwine_cases(n_max: int, d_filter=None, seed: int = 0):
    """tau(g) I = I omega(g) for every generator g: e_1..e_n, Omega, Omega^-1."""
    for n, d in _sectors(n_max, 2, d_filter):
        yield f"intertwine/n{n}d{d}", partial(intertwines, n, d)


def gram_factorization(n, d):
    ok, report = itw.factorization_check(n, d)
    return None if ok else f"{len(report['mismatches'])} mismatching entries"


def gram_symmetry(n, d):
    g = gram_matrix(n, d)
    if g.map(LaurentPoly.flip_v) != g.transpose():
        return "twist-inversion transpose symmetry fails"


def twist_vector_independence():
    twists = ([ONE], [LaurentPoly.v_pow(1)], [LaurentPoly.monomial(2, 1)])
    dets = [itw.det_exact(gram_matrix(5, 1, mode="open", twists=t)) for t in twists]
    if not all(x == dets[0] for x in dets):
        return "determinant depends on the twist assignment"
    b2 = beta_poly() * beta_poly()
    if dets[0] != (b2 - ONE) ** 4 * (b2 - LaurentPoly.const(2)):
        return "closed value mismatch"


def gram_cases(n_max: int, d_filter=None, seed: int = 0):
    for n, d in _sectors(n_max, 2, d_filter):
        yield f"gram/factorization/n{n}d{d}", partial(gram_factorization, n, d)
        yield f"gram/symmetry/n{n}d{d}", partial(gram_symmetry, n, d)
    # yielded at every n_max: the benchmark's smoke list pins this name at n_max 3
    if d_filter is None or 1 in d_filter:
        yield "gram/twist-vector-independence/n5d1", twist_vector_independence


# exact determinant sectors past n = 6.  (7,1) and (8,2) are not listed,
# though through the factorization their Gram determinants take 0.25 s and
# 0.8 s CPU on a 2-core host; at (8,0) det I alone takes over ten minutes
EXACT_DET_EXTRA = ((7, 3), (7, 5), (8, 4), (8, 6))


def exact_determinants(n, d):
    det = itw.gram_det_exact(n, d)
    if not itw.matches_up_to_sign(det, itw.det_formulas(n, d, "gram_tilde")):
        return "periodic Gram determinant"
    det_i = itw.i_det_exact(n, d)
    if itw.matches_up_to_unit(det_i, itw.det_formulas(n, d, "intertwiner")) is None:
        return "intertwiner determinant"
    if det_i.extreme_term_uv()[0] != itw.leading_exponents(n, d):
        return "leading exponents"


def numeric_determinants(n, d, seed):
    """Both determinants against their bracket products at five points
    drawn from ``seed``, as float log-determinants."""
    local = random.Random(seed)
    gram = gram_matrix(n, d)
    for _ in range(5):
        lam = local.uniform(0.2, 2.9)
        mu = local.uniform(0.05, 1.3)
        u, v = cmath.exp(1j * lam / 2), cmath.exp(1j * mu)
        sign, logdet = np.linalg.slogdet(itw.i_matrix_numeric(n, d, u, v))
        flog, fphase = itw.det_formula_log(n, d, "intertwiner", u, v)
        if not itw.logdet_matches(sign, logdet, flog, fphase):
            return f"intertwiner det at lam={lam:.6f} mu={mu:.6f}"
        gs, gl = np.linalg.slogdet(gram.to_numeric(u, v))
        glog, gphase = itw.det_formula_log(n, d, "gram_tilde", u, v)
        if not itw.logdet_matches(gs, gl, glog, gphase):
            return f"gram det at lam={lam:.6f} mu={mu:.6f}"


def determinant_cases(n_max: int, d_filter=None, seed: int = 0):
    rng = random.Random(seed)
    extra = [
        (n, d) for n, d in EXACT_DET_EXTRA if n <= n_max and (d_filter is None or d in d_filter)
    ]
    for n, d in [*_sectors(min(n_max, 6), 2, d_filter), *extra]:
        yield f"determinants/exact/n{n}d{d}", partial(exact_determinants, n, d)
    for n, d in _sectors(n_max, 7, d_filter):
        seed_nd = rng.randrange(1 << 30)
        yield f"determinants/numeric/n{n}d{d}", partial(numeric_determinants, n, d, seed_nd)


# ---------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------

def wenzl_properties(n, d_filter):
    for _, d in _sectors(n, n, d_filter):
        h = gram_matrix(n, d).transpose()
        for p in range(2, min(5, n) + 1):
            m, den = prj.wj_matrix(p, n, d)
            if m @ m != m.scale(den):
                return f"not idempotent: p={p} n={n} d={d}"
            for i in range(1, p):
                e = omega_matrix([("e", i)], n, d)
                if not (m @ e).is_zero() or not (e @ m).is_zero():
                    return f"does not annihilate site {i}: p={p} n={n} d={d}"
            if h @ m.map(LaurentPoly.flip_v) != m.transpose() @ h:
                return f"not self-adjoint: p={p} n={n} d={d}"
    for p in range(2, 6):
        wj = prj.wenzl_jones(p)
        for other in (wj.reflected(), wj.word_reversed()):
            if set(other.diagrams) != set(wj.diagrams) or any(
                other.diagrams[m] != c for m, c in wj.diagrams.items()
            ):
                return f"mirror invariance fails at p={p}"


def gamma_blocks(n, d):
    ok, failures = prj.gamma_block_report(n, d)
    return None if ok else f"{len(failures)} block failures"


def k_factors(defects):
    for d in defects:
        for r in range(1, 4):
            n_amb = d + 2 * r + 2
            closed = prj.k_factor(d, r, n_amb, "closed_form")
            if not prj.same_ratio(prj.k_factor(d, r, n_amb, "recursion"), closed):
                return f"recursion vs closed form at d={d} r={r}"
            # the defining pairing is desk-scale only for small windows
            if d + 2 * r <= 6 and not prj.same_ratio(
                prj.k_factor(d, r, mode="gram_pairing"), prj.k_factor(d, r, mode="closed_form")
            ):
                return f"pairing vs closed form at d={d} r={r}"


def gram_recursion(n, d):
    return None if prj.gram_recursion_check(n, d) else "recursion fails"


def projector_cases(n_max: int, d_filter=None, seed: int = 0):
    if n_max >= 5:
        yield "projectors/wenzl-properties", partial(wenzl_properties, min(n_max, 6), d_filter)
    for n, d in _sectors(min(n_max, 6), 4, d_filter):
        yield f"projectors/gamma-blocks/n{n}d{d}", partial(gamma_blocks, n, d)
    k_defects = [d for d in range(0, 5) if d_filter is None or d in d_filter]
    if n_max >= 6 and k_defects:
        yield "projectors/k-factors", partial(k_factors, k_defects)
    for n, d in _sectors(min(n_max, 7), 2, d_filter):
        if d:
            yield f"projectors/gram-recursion/n{n}d{d}", partial(gram_recursion, n, d)


# ---------------------------------------------------------------------
# transfer matrix and spectra, at points drawn from the seed
# ---------------------------------------------------------------------

def transfer_identities(n, d, lam, nu1, nu2, mu):
    tol = trf.DEFECT_TOL
    if trf.commuting_family_defect(n, d, lam, nu1, nu2, mu) > tol:
        return "commuting family"
    if trf.translation_invariance_defect(n, d, lam, nu1, mu) > tol:
        return "translation invariance"
    if trf.crossing_defect(n, d, lam, nu1, mu) > tol:
        return "crossing symmetry"
    if trf.expansion_defect(n, d, lam, mu) > tol:
        return "anisotropy expansion"


def transfer_cases(n_max: int, d_filter=None, seed: int = 0):
    rng = random.Random(seed)
    for n, d in _sectors(min(n_max, 8), 4, d_filter):
        if d > 2:
            continue
        lam = rng.uniform(0.4, 2.6)
        nu1, nu2 = rng.uniform(0.0, 1.4), rng.uniform(0.0, 1.4) + 0.1j
        mu = rng.uniform(0.1, 0.8)
        yield f"transfer/n{n}d{d}", partial(transfer_identities, n, d, lam, nu1, nu2, mu)


def spectra_agree(n, d, lam, mu):
    dev, critical = spectrum_deviation(n, d, lam, mu)
    if critical:
        return Skipped(f"critical point lam={lam:.6f} mu={mu:.6f}")
    if dev > 1e-8:
        return f"eigenvalue deviation {dev:.3e} at lam={lam:.6f} mu={mu:.6f}"


def spectrum_cases(n_max: int, d_filter=None, seed: int = 0):
    rng = random.Random(seed)
    for n, d in _sectors(n_max, 2, d_filter):
        lam = rng.uniform(0.3, 2.7)
        mu = rng.uniform(0.05, 0.9)
        yield f"spectrum/n{n}d{d}", partial(spectra_agree, n, d, lam, mu)


@lru_cache(maxsize=None)
def hamiltonian_orbits(n: int, d: int):
    """Orbit tables of the link and the spin module, once both exact
    Hamiltonians are checked to commute with the translation."""
    link, spin = link_orbits(n, d), spin_orbits(n, d)
    check_covariant(hamiltonian_link(n, d), link, link)
    check_covariant(hamiltonian(n, d), spin, spin)
    return link, spin


def _eigvals(at_reps, orbits):
    return np.concatenate([np.linalg.eigvals(s).ravel() for s in by_shape(blocks(at_reps, orbits, orbits))])


def sorted_spectra(n: int, d: int, lam: float, mu: float):
    """Sorted eigenvalues of the link and the spin Hamiltonian at
    u = exp(i lam/2), v = exp(i mu), taken block by block over the
    momentum sectors of the translation (see :mod:`eptl.momentum`)."""
    u, v = cmath.exp(1j * lam / 2), cmath.exp(1j * mu)
    link, spin = hamiltonian_orbits(n, d)
    e1 = np.sort_complex(_eigvals(hamiltonian_link(n, d).to_numeric(u, v, link.reps), link))
    e2 = np.sort_complex(_eigvals(hamiltonian_numeric(n, d, u, v, spin.reps), spin))
    return e1, e2


def spectrum_deviation(n: int, d: int, lam: float, mu: float):
    """Max sorted-eigenvalue deviation between the two module Hamiltonians,
    plus the bracket-criticality flag."""
    critical = itw.nearest_bracket(n, d, lam, mu)[1] < itw.BRACKET_TOL
    e1, e2 = sorted_spectra(n, d, lam, mu)
    dev = float(np.max(np.abs(e1 - e2))) if len(e1) else 0.0
    return dev, critical


SUITES = {
    "algebra": algebra_cases,
    "intertwine": intertwine_cases,
    "gram": gram_cases,
    "determinants": determinant_cases,
    "projectors": projector_cases,
    "transfer": transfer_cases,
    "spectrum": spectrum_cases,
}


def run_suite(suite: str, n_max: int, d_filter=None, seed: int = 0) -> VerificationReport:
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    if n_max < 2:
        raise ValueError(f"n_max {n_max} is below 2, the smallest size the suites check")
    report = VerificationReport(suite=suite)
    start = time.time()
    cases = []
    for name in names:
        cases.extend(SUITES[name](n_max, d_filter, seed))
    if not cases:
        raise ValueError(f"suite {suite!r} selects no case at n_max {n_max}, defect filter {d_filter}")
    report.cases = len(cases)
    results = []
    for cname, fn in cases:
        try:
            witness = fn()
        except Exception as exc:  # surface crashes as failures with context
            witness = f"exception: {exc!r}"
        results.append((cname, witness))
    for cname, witness in sorted(results, key=lambda item: item[0]):
        if isinstance(witness, Skipped):
            report.skipped.append((cname, str(witness)))
        elif witness is not None:
            report.failures.append((cname, witness))
    report.wall_time = time.time() - start
    return report
