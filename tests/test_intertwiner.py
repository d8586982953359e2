import cmath
import math
import random

import numpy as np
import pytest

from eptl.diagrams import act_on_link, generator_diagram
from eptl.intertwiner import (
    SpinVector,
    bracket_values,
    det_exact,
    det_formula_log,
    det_formulas,
    det_fraction,
    factorization_check,
    gram_det_exact,
    i_matrix,
    i_matrix_numeric,
    intertwine_state,
    leading_exponents,
    logdet_matches,
    matches_up_to_sign,
    matches_up_to_unit,
    min_singular_scaled,
    t_tilde_apply,
)
from eptl.linkrep import RingMatrix, act_weight, gram_matrix
from eptl.ring import ONE, ZERO, LaurentPoly, RingFraction, beta_poly, trig_sin
from eptl.spinrep import tau_matrix
from eptl.states import LinkState, enumerate_states
from oracles import det_cofactor


def mono(eu, ev):
    return LaurentPoly.monomial(eu, ev)


def sectors(n_max, n_min=2):
    return [(n, d) for n in range(n_min, n_max + 1) for d in range(n % 2, n + 1, 2)]


class TestArcOperator:
    def test_two_sites(self):
        vec = t_tilde_apply(1, 2, SpinVector.all_up(2))
        sec = vec.sector
        # lowering at site 2 carries u*v, at site 1 carries 1/(u*v)
        down_at_2 = sec.index[0b01]
        down_at_1 = sec.index[0b10]
        assert vec.coords[down_at_2] == mono(1, 1)
        assert vec.coords[down_at_1] == mono(-1, -1)

    def test_disjoint_factors_commute(self):
        top = SpinVector.all_up(6)
        a = t_tilde_apply(3, 8, t_tilde_apply(1, 2, top))
        b = t_tilde_apply(1, 2, t_tilde_apply(3, 8, top))
        assert a == b

    def test_local_generator_eigenrelation(self):
        # applying the i-th generator to the image of an (i,i+1) arc
        # multiplies it by the loop weight
        n = 4
        for i in (1, 2, 3):
            vec = t_tilde_apply(i, i + 1, SpinVector.all_up(n))
            m = tau_matrix([("e", i)], n, n - 2)
            applied = [
                sum((m[r, c] * vec.coords[c] for c in range(len(vec.coords))), ZERO)
                for r in range(len(vec.coords))
            ]
            expect = [beta_poly() * c for c in vec.coords]
            assert applied == expect


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
        m = m.permuted(row_perm, col_perm)
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
            vec = SpinVector.all_up(6)
            for i, j in reversed(w.pairs):
                vec = t_tilde_apply(i, j, vec)
            assert vec == intertwine_state(w)

    def test_numeric_matches_exact(self):
        u, v = cmath.exp(0.31j), cmath.exp(0.87j)
        m = i_matrix(6, 0)
        num = i_matrix_numeric(6, 0, u, v)
        assert np.max(np.abs(m.to_numeric(u, v) - num)) < 1e-12


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
                vec = intertwine_state(w)
                lhs = [
                    sum((mat[r, c] * vec.coords[c] for c in range(len(vec.coords))), ZERO)
                    for r in range(len(vec.coords))
                ]
                res = act_on_link(diag, w)
                if res is None:
                    rhs = [ZERO] * len(lhs)
                else:
                    weight = act_weight(res, n)
                    img = intertwine_state(res.state)
                    rhs = [weight * c for c in img.coords]
                assert lhs == rhs


class TestFactorization:
    @pytest.mark.parametrize("n,d", sectors(6))
    def test_product_equals_gram(self, n, d):
        ok, report = factorization_check(n, d)
        assert ok, report


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
            m = RingMatrix(ent)
            assert det_exact(m) == det_cofactor(m)

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
            det = RingFraction.from_poly(det_exact(g))
            f = det_formulas(n, d, "gram_open")
            assert det == f or det == -f

    @pytest.mark.parametrize("n,d", sectors(6))
    def test_gram_det_matches_formula(self, n, d):
        det = gram_det_exact(n, d)
        formula = det_formulas(n, d, "gram_tilde")
        assert matches_up_to_sign(det, formula), (n, d)

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

    def test_det_fraction(self):
        b = beta_poly()
        ent = [
            [RingFraction(b, trig_sin(2)), RingFraction.one()],
            [RingFraction.zero(), RingFraction(ONE, b)],
        ]
        m = RingMatrix(ent, zero=RingFraction.zero())
        assert det_fraction(m) == RingFraction(ONE, trig_sin(2))


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

    def test_formula_evaluation_against_brute_force_det(self):
        # the closed-form polynomial evaluated numerically matches the plain
        # numeric determinant of the matrix itself
        rng = random.Random(21)
        checked = 0
        while checked < 3:
            lam, mu = rng.uniform(0.3, 2.8), rng.uniform(0.05, 1.2)
            u, v = cmath.exp(1j * lam / 2), cmath.exp(1j * mu)
            formula = det_formulas(6, 0, "intertwiner").eval_numeric(u, v)
            if abs(formula) < 1e-2:
                continue  # too close to a critical curve for a float LU det
            det = np.linalg.det(i_matrix_numeric(6, 0, u, v))
            assert min(abs(det - formula), abs(det + formula)) < 1e-9 * abs(det)
            checked += 1
