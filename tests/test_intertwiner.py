import cmath
import math
import random
import time

import numpy as np
import pytest

from eptl.diagrams import act_on_link, generator_diagram
from eptl.intertwiner import (
    bracket_values,
    det_exact,
    det_factors,
    det_formula_log,
    det_formulas,
    factorization_check,
    gram_det_exact,
    i_matrix,
    i_matrix_numeric,
    intertwine_state,
    leading_exponents,
    logdet_matches,
    matches_up_to_sign,
    matches_up_to_unit,
    nearest_bracket,
    t_tilde_apply,
)
from eptl.linkrep import RingMatrix, act_weight, gram_matrix
from eptl.projectors import same_ratio
from eptl.ring import GR_I, ONE, ZERO, LaurentPoly, beta_poly, quotient
from eptl.spinrep import spin_sector, tau_matrix
from eptl.states import LinkState, enumerate_states
from eptl.verify import EXACT_DET_EXTRA
from oracles import (
    dense,
    det_bareiss_laurent,
    det_cofactor,
    gram_det_loop_variables,
    gram_matrix_full,
    min_singular_scaled,
    submatrix,
    to_numeric_entrywise,
)


def mono(eu, ev):
    return LaurentPoly.monomial(eu, ev)


def sectors(n_max, n_min=2):
    return [(n, d) for n in range(n_min, n_max + 1) for d in range(n % 2, n + 1, 2)]


def all_up(n):
    return {(1 << n) - 1: ONE}


def coords(vec, n, d):
    """Dense coordinates of a sparse spin vector over the (n, d) sector."""
    return [vec.get(mask, ZERO) for mask in spin_sector(n, d).configs]


def apply_matrix(m, xs):
    return [sum((m[r, c] * xs[c] for c in range(len(xs))), ZERO) for r in range(len(xs))]


class TestArcOperator:
    def test_two_sites(self):
        vec = t_tilde_apply(1, 2, all_up(2), 2)
        # lowering at site 2 carries u*v, at site 1 carries 1/(u*v)
        assert vec == {0b01: mono(1, 1), 0b10: mono(-1, -1)}

    def test_disjoint_factors_commute(self):
        top = all_up(6)
        a = t_tilde_apply(3, 8, t_tilde_apply(1, 2, top, 6), 6)
        b = t_tilde_apply(1, 2, t_tilde_apply(3, 8, top, 6), 6)
        assert a == b

    def test_local_generator_eigenrelation(self):
        # applying the i-th generator to the image of an (i,i+1) arc
        # multiplies it by the loop weight
        n = 4
        for i in (1, 2, 3):
            vec = coords(t_tilde_apply(i, i + 1, all_up(n), n), n, n - 2)
            m = tau_matrix([("e", i)], n, n - 2)
            assert apply_matrix(m, vec) == [beta_poly() * c for c in vec]


# fixed orderings for the frozen 6x6 fixtures below
REF_LINK_ORDER_4_0 = [
    LinkState(4, [(1, 2), (3, 4)], []),
    LinkState(4, [(1, 4), (2, 3)], []),
    LinkState(4, [(2, 5), (3, 4)], []),
    LinkState(4, [(2, 3), (4, 5)], []),
    LinkState(4, [(1, 2), (4, 7)], []),
    LinkState(4, [(3, 6), (4, 5)], []),
]
REF_SPIN_ORDER_4_0 = ["+-+-", "++--", "-++-", "-+-+", "+--+", "--++"]


def ref_i_4_0():
    return [
        [mono(2, 2), mono(0, 2), mono(0, -2), mono(-2, -2), mono(0, -2), mono(0, 2)],
        [ZERO, mono(2, 4), ZERO, ONE, ZERO, mono(-2, -4)],
        [ONE, ZERO, mono(2, 4), ZERO, mono(-2, -4), ZERO],
        [mono(-2, -2), mono(0, -2), mono(0, 2), mono(2, 2), mono(0, 2), mono(0, -2)],
        [ONE, ZERO, mono(-2, -4), ZERO, mono(2, 4), ZERO],
        [ZERO, mono(-2, -4), ZERO, ONE, ZERO, mono(2, 4)],
    ]


class TestMatrix:
    def test_four_zero_reference_matrix(self):
        m = i_matrix(4, 0)
        col_perm = [list(m.col_labels).index(w) for w in REF_LINK_ORDER_4_0]
        row_perm = [list(m.row_labels).index(s) for s in REF_SPIN_ORDER_4_0]
        m = submatrix(m, row_perm, col_perm)
        expect = ref_i_4_0()
        for i in range(6):
            for j in range(6):
                assert m[i, j] == expect[i][j], (i, j)

    def test_full_defect_sector(self):
        m = i_matrix(5, 5)
        assert m.rows == m.cols == 1 and m[0, 0] == ONE

    def test_columns_against_reversed_application(self):
        # independent oracle: apply the arc operators in reversed order
        for w in enumerate_states(6, 2):
            vec = all_up(6)
            for i, j in reversed(w.pairs):
                vec = t_tilde_apply(i, j, vec, 6)
            assert vec == intertwine_state(w)

    def test_numeric_matches_exact(self):
        u, v = cmath.exp(0.31j), cmath.exp(0.87j)
        m = i_matrix(6, 0)
        num = i_matrix_numeric(6, 0, u, v)
        assert np.max(np.abs(to_numeric_entrywise(m, u, v) - num)) < 1e-12


class TestIntertwining:
    @pytest.mark.parametrize("n,d", sectors(6))
    def test_generators_intertwine(self, n, d):
        words = [("e", i) for i in range(1, n + 1)] + [("omega", 1), ("omega", -1)]
        basis = enumerate_states(n, d)
        for tok in words:
            mat = tau_matrix([tok], n, d)
            diag = (
                generator_diagram("e", n, tok[1])
                if tok[0] == "e"
                else generator_diagram("omega" if tok[1] > 0 else "omega_inv", n)
            )
            for w in basis:
                lhs = apply_matrix(mat, coords(intertwine_state(w), n, d))
                res = act_on_link(diag, w)
                if res is None:
                    rhs = [ZERO] * len(lhs)
                else:
                    weight = act_weight(res, n)
                    rhs = [weight * c for c in coords(intertwine_state(res.state), n, d)]
                assert lhs == rhs


class TestFactorization:
    @pytest.mark.parametrize("n,d", sectors(6))
    def test_product_equals_gram(self, n, d):
        ok, report = factorization_check(n, d)
        assert ok, report

    def test_mismatches_list_changed_entries_row_by_row(self, monkeypatch):
        import eptl.intertwiner as itw

        gram = itw.gram_matrix(4, 0)
        entries = gram.entries
        for i, j in ((3, 0), (0, 5), (3, 1)):
            entries[i][j] = entries[i][j] + ONE
        entries[2][2] = ZERO  # a nonzero entry dropped from its column
        changed = dense(entries, gram.row_labels, gram.col_labels)
        monkeypatch.setattr(itw, "gram_matrix", lambda n, d: changed)
        ok, report = factorization_check(4, 0)
        assert not ok
        assert report["mismatches"] == [(0, 5), (2, 2), (3, 0), (3, 1)]


class TestDeterminants:
    def test_identity(self):
        assert det_exact(RingMatrix.identity(6)) == ONE

    def test_bareiss_matches_cofactor(self):
        rng = random.Random(4)
        for size in (2, 3, 4, 5):
            ent = [
                [
                    LaurentPoly.monomial(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-3, 3))
                    + LaurentPoly.const(rng.randint(-2, 2))
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            m = dense(ent)
            assert det_exact(m) == det_cofactor(m)

    @pytest.mark.parametrize("n,d", sectors(7))
    def test_kernel_matches_laurent_oracle_on_i(self, n, d):
        m = i_matrix(n, d)
        assert det_exact(m) == det_bareiss_laurent(m)

    # (6,0) is left out: the oracle alone takes about 22 s there, and
    # gram_det_exact(6, 0) is checked against its closed form
    @pytest.mark.parametrize("n,d", [s for s in sectors(6) if s != (6, 0)] + [(7, 3), (7, 5)])
    def test_kernel_matches_laurent_oracle_on_loop_variable_gram(self, n, d):
        m = gram_matrix_full(n, d, loop_variables=True)
        assert det_exact(m) == det_bareiss_laurent(m)

    def test_non_real_coefficient_is_refused(self):
        m = dense([[ONE, ZERO], [ZERO, LaurentPoly.const(GR_I)]])
        with pytest.raises(ValueError, match="integer coefficients"):
            det_exact(m)

    def test_exponent_outside_packed_range_is_refused(self):
        m = dense([[mono(0, 1 << 29), ZERO], [ZERO, ONE]])
        with pytest.raises(ValueError, match="too large"):
            det_exact(m)

    @pytest.mark.parametrize(
        "num,den",
        [
            (mono(2, 0) + ONE, mono(1, 0) + ONE),  # remainder 2: quotient runs below u^0
            (mono(1, 1) + ONE, mono(1, 1) * LaurentPoly.const(2) + ONE),  # 1 / 2
            (mono(0, 3), LaurentPoly.const(2)),  # monomial divisor, 1 / 2
            (mono(1, 5) + mono(0, -5), ONE + mono(0, 1)),  # quotient runs down in v for ever
        ],
    )
    def test_inexact_division_raises(self, num, den):
        start = time.process_time()
        with pytest.raises(ValueError, match="not exact"):
            quotient({k: c for k, c, _ in num.triples}, den.triples)
        with pytest.raises(ValueError, match="not exact"):
            num.exact_div(den)
        assert time.process_time() - start < 1.0

    def test_open_five_one_det(self):
        for twists in ([LaurentPoly.v_pow(1)], [ONE], [LaurentPoly.monomial(1, 2)]):
            g = gram_matrix(5, 1, mode="open", twists=twists)
            det = det_exact(g)
            b2 = beta_poly() * beta_poly()
            expect = (b2 - ONE) ** 4 * (b2 - LaurentPoly.const(2))
            assert det == expect

    def test_open_det_matches_sine_formula(self):
        for n, d in [(4, 0), (5, 1), (6, 2), (6, 0)]:
            g = gram_matrix(n, d, mode="open", twists=[LaurentPoly.v_pow(1)] * d)
            det = det_exact(g)
            f = det_formulas(n, d, "gram_open")
            assert same_ratio((det, ONE), f) or same_ratio((-det, ONE), f)

    @pytest.mark.parametrize("n,d", sectors(6))
    def test_gram_det_matches_formula(self, n, d):
        det = gram_det_exact(n, d)
        formula = det_formulas(n, d, "gram_tilde")
        assert matches_up_to_sign(det, formula), (n, d)

    @pytest.mark.parametrize("n,d", sectors(6) + list(EXACT_DET_EXTRA))
    def test_gram_det_equals_the_loop_variable_oracle(self, n, d):
        det = gram_det_exact(n, d)
        assert det.terms == gram_det_loop_variables(n, d).terms

    @pytest.mark.parametrize("n,d", sectors(6))
    def test_intertwiner_det_matches_formula(self, n, d):
        det = det_exact(i_matrix(n, d))
        formula = det_formulas(n, d, "intertwiner")
        unit = matches_up_to_unit(det, formula)
        assert unit is not None, (n, d)
        if d % 2 == 0:
            assert unit in ("+1", "-1")

    @pytest.mark.parametrize("n,d", sectors(6))
    def test_leading_exponents(self, n, d):
        det = det_exact(i_matrix(n, d))
        (eu, ev), _ = det.extreme_term_uv()
        assert (eu, ev) == leading_exponents(n, d)


class TestNumericDeterminants:
    @pytest.mark.parametrize("n,d", [(7, 1), (8, 0), (9, 3), (10, 0)])
    def test_intertwiner_det_numeric(self, n, d):
        rng = random.Random(9)
        for _ in range(3):
            lam, mu = rng.uniform(0.2, 2.8), rng.uniform(0.1, 1.2)
            u, v = cmath.exp(1j * lam / 2), cmath.exp(1j * mu)
            sign, logdet = np.linalg.slogdet(i_matrix_numeric(n, d, u, v))
            flog, fphase = det_formula_log(n, d, "intertwiner", u, v)
            assert logdet_matches(sign, logdet, flog, fphase)

    @pytest.mark.parametrize("n,d", [(7, 3), (8, 2)])
    def test_gram_det_numeric(self, n, d):
        rng = random.Random(5)
        lam, mu = rng.uniform(0.2, 2.8), rng.uniform(0.1, 1.2)
        u, v = cmath.exp(1j * lam / 2), cmath.exp(1j * mu)
        sign, logdet = np.linalg.slogdet(gram_matrix(n, d).to_numeric(u, v))
        flog, fphase = det_formula_log(n, d, "gram_tilde", u, v)
        assert logdet_matches(sign, logdet, flog, fphase)

    def test_bracket_zero_forces_singularity(self):
        lam = math.pi / 2
        mu = math.pi / 4
        vals = bracket_values(4, 2, lam, mu)
        assert min(abs(x) for x in vals) < 1e-12
        u, v = cmath.exp(1j * lam / 2), cmath.exp(1j * mu)
        assert min_singular_scaled(i_matrix_numeric(4, 2, u, v)) < 1e-8

    def test_generic_point_nonsingular(self):
        lam, mu = 0.5 * math.sqrt(2), 0.0
        u, v = cmath.exp(1j * lam / 2), cmath.exp(1j * mu)
        assert min_singular_scaled(i_matrix_numeric(4, 2, u, v)) > 1e-3

    def test_full_defect_never_critical(self):
        assert bracket_values(5, 5, 1.0, 0.3) == []
        assert nearest_bracket(5, 5, 1.0, 0.3) == (0, math.inf)

    def test_nearest_bracket_is_the_smallest_size(self):
        for n, d, lam, mu in [(4, 2, math.pi / 2, math.pi / 4), (8, 0, 0.9, 0.2), (9, 1, 2.1, 0.7)]:
            sizes = [abs(x) for x in bracket_values(n, d, lam, mu)]
            k, size = nearest_bracket(n, d, lam, mu)
            assert size == min(sizes) and sizes[k - 1] == size

    def test_nearest_bracket_takes_the_first_k_on_a_tie(self, monkeypatch):
        monkeypatch.setattr("eptl.intertwiner.bracket_values", lambda *args: [0.5, -0.25, 0.25])
        assert nearest_bracket(6, 0, 1.0, 0.3) == (2, 0.25)

    def test_formula_evaluation_against_brute_force_det(self):
        # the closed-form product, evaluated factor by factor as det_formula_log
        # does, matches the plain numeric determinant of the matrix itself
        rng = random.Random(21)
        checked = 0
        while checked < 3:
            lam, mu = rng.uniform(0.3, 2.8), rng.uniform(0.05, 1.2)
            u, v = cmath.exp(1j * lam / 2), cmath.exp(1j * mu)
            formula = math.prod(p.eval_numeric(u, v) ** e for p, e in det_factors(6, 0, "intertwiner"))
            if abs(formula) < 1e-2:
                continue  # too close to a critical curve for a float LU det
            det = np.linalg.det(i_matrix_numeric(6, 0, u, v))
            assert min(abs(det - formula), abs(det + formula)) < 1e-9 * abs(det)
            checked += 1
