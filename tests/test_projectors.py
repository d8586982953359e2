import pytest

from eptl.intertwiner import det_exact, gram_det_exact, i_matrix
from eptl.linkrep import RingMatrix, gram_matrix, gram_pair
from eptl.projectors import (
        apply_tlword,
    gamma_block_report,
    gamma_matrix,
    gram_recursion_check,
    k_factor,
        u_transform,
    u_transform_state,
    wenzl_jones,
    wj_matrix,
)
from eptl.ring import (
    ONE,
    LaurentPoly,
    RingFraction,
    alpha_poly,
    beta_poly,
    trig_cos,
    trig_sin,
)
from eptl.states import LinkState, enumerate_states

B = beta_poly()


def frac(p):
    return RingFraction.from_poly(p)


class TestProjectorCombination:
    def test_single_strand_is_identity_word(self):
        wj = wenzl_jones(1)
        assert wj.terms == [(RingFraction.one(), ())]

    def test_two_strands(self):
        wj = wenzl_jones(2)
        by_word = {w: c for c, w in wj.terms}
        assert by_word[()] == RingFraction.one()
        assert by_word[(1,)] == RingFraction(trig_sin(2), trig_sin(4))

    def test_identity_always_present_with_unit_coefficient(self):
        for p in range(1, 6):
            wj = wenzl_jones(p)
            ident = tuple((i, p + i) for i in range(p))
            assert wj.diagrams[ident] == RingFraction.one()

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_one_sided_matches_idempotent_recursion(self, p):
        from eptl.projectors import _wenzl_diagrams
        from oracles import _wenzl_diagrams_reference

        fast = _wenzl_diagrams(p)
        ref = _wenzl_diagrams_reference(p)
        assert set(fast) == set(ref)
        for m in fast:
            assert fast[m][0] == ref[m][0]

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_mirror_invariances(self, p):
        wj = wenzl_jones(p)
        for other in (wj.reflected(), wj.word_reversed()):
            assert set(other.diagrams) == set(wj.diagrams)
            for m, c in wj.diagrams.items():
                assert other.diagrams[m] == c

    def test_generator_annihilation_on_states(self):
        # applying the 2-strand projector then a cup across its window kills
        # every state: id + (S1/S2) e with e^2 = beta*e and beta = -S2/S1
        n = 4
        wj = wenzl_jones(2, window=(2, 3))
        for w in enumerate_states(n, 0):
            image = apply_tlword(wj, w)
            from eptl.diagrams import act_on_link, generator_diagram

            diag = generator_diagram("e", n, 2)
            total = {}
            for s, c in image.items():
                res = act_on_link(diag, s)
                if res is None:
                    continue
                from eptl.linkrep import act_weight

                cc = c * act_weight(res, n)
                total[res.state] = total.get(res.state, RingFraction.zero()) + cc
            assert all(v.is_zero() for v in total.values())


def sectors(n_values):
    return [(n, d) for n in n_values for d in range(n % 2, n + 1, 2)]


class TestProjectorProperties:
    @pytest.mark.parametrize("n,d", sectors([5, 6]))
    def test_annihilates_inner_generators(self, n, d):
        from eptl.linkrep import omega_matrix

        for p in range(2, min(5, n) + 1):
            m, _den = wj_matrix(p, n, d)
            for i in range(1, p):
                e = omega_matrix([("e", i)], n, d)
                assert (m @ e).is_zero(), (p, i, "right")
                assert (e @ m).is_zero(), (p, i, "left")

    @pytest.mark.parametrize("n,d", sectors([5, 6]))
    def test_idempotent(self, n, d):
        for p in range(2, min(5, n) + 1):
            m, den = wj_matrix(p, n, d)
            assert m @ m == m.scale(den), p

    @pytest.mark.parametrize("n,d", sectors([5, 6]))
    def test_self_adjoint_for_gram(self, n, d):
        h = gram_matrix(n, d, row_first=True)
        for p in range(2, min(5, n) + 1):
            m, _den = wj_matrix(p, n, d)
            m_flip, _den2 = wj_matrix(p, n, d, flip_twist=True)
            assert h @ m_flip == m.transpose() @ h, p


class TestChangeOfBasis:
    @pytest.mark.parametrize("n,d", sectors([4, 5, 6, 7]))
    def test_unit_upper_triangular(self, n, d):
        u = u_transform(n, d)
        basis = enumerate_states(n, d)
        for i, wi in enumerate(basis):
            assert u[i, i] == RingFraction.one()
            for j, wj in enumerate(basis):
                if wi.boundary_arcs >= wj.boundary_arcs and i != j:
                    assert u[i, j].is_zero(), (i, j)

    def test_boundary_free_states_fixed(self):
        for w in enumerate_states(6, 2):
            if w.boundary_arcs == 0:
                assert u_transform_state(w) == {w: RingFraction.one()}

    def test_six_site_worked_pairing(self):
        # the transformed pairing of the two 6-site states with one
        # boundary arc and two defects equals v^2 times the block factor
        x = LinkState(6, [(2, 3), (6, 7)], [4, 5])
        y = LinkState(6, [(3, 4), (6, 7)], [2, 5])
        basis = list(enumerate_states(6, 2))
        ix, iy = basis.index(x), basis.index(y)
        gamma = gamma_matrix(6, 2)
        kf = k_factor(2, 1, n_ambient=6)
        assert gamma[iy, ix] == kf * LaurentPoly.v_pow(2)
        assert gamma[ix, iy] == kf * LaurentPoly.v_pow(-2)


class TestGamma:
    def test_gamma_4_0_display(self):
        g = gamma_matrix(4, 0)
        k1 = k_factor(0, 1, n_ambient=4)
        k2 = k_factor(0, 2, n_ambient=4)
        b = frac(B)
        z = RingFraction.zero()
        expect = [
            [b * b, b, z, z, z, z],
            [b, b * b, z, z, z, z],
            [z, z, b * k1, k1, z, z],
            [z, z, k1, b * k1, k1, z],
            [z, z, z, k1, b * k1, z],
            [z, z, z, z, z, k2],
        ]
        for i in range(6):
            for j in range(6):
                assert g[i, j] == expect[i][j], (i, j)

    def test_gamma_4_2_display(self):
        g = gamma_matrix(4, 2)
        k1 = k_factor(2, 1, n_ambient=4)
        b = frac(B)
        z = RingFraction.zero()
        vp = lambda k: frac(LaurentPoly.v_pow(k))
        expect = [
            [b, vp(-2), z, z],
            [vp(2), b, vp(-2), z],
            [z, vp(2), b, z],
            [z, z, z, k1],
        ]
        for i in range(4):
            for j in range(4):
                assert g[i, j] == expect[i][j], (i, j)

    def test_gamma_4_4_trivial(self):
        g = gamma_matrix(4, 4)
        assert g.rows == 1 and g[0, 0] == RingFraction.one()

    @pytest.mark.parametrize("n,d", sectors([4, 5, 6]))
    def test_block_structure(self, n, d):
        ok, failures = gamma_block_report(n, d)
        assert ok, failures[:5]

    def test_full_defect_gamma(self):
        for n in (3, 4, 5):
            g = gamma_matrix(n, n)
            assert g.rows == 1 and g[0, 0] == RingFraction.one()


class TestKFactors:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_trivial_r(self, d):
        assert k_factor(d, 0, n_ambient=6) == RingFraction.one()

    def test_k01_closed_form(self):
        a = alpha_poly(4)
        c1 = trig_cos(2)
        expect = RingFraction(
            (a * a - (c1 * c1).scale(4)) * trig_sin(2), trig_sin(4)
        )
        assert k_factor(0, 1, n_ambient=4) == expect

    @pytest.mark.parametrize("d,r", [(0, 1), (0, 2), (1, 1), (2, 1), (2, 2), (3, 1)])
    def test_pairing_matches_closed_form(self, d, r):
        assert k_factor(d, r, mode="gram_pairing") == k_factor(d, r, mode="closed_form")

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_recursion_matches_closed_form(self, d, r):
        for n_amb in (d + 2 * r, d + 2 * r + 2):
            assert k_factor(d, r, n_amb, "recursion") == k_factor(d, r, n_amb, "closed_form")


class TestGramRecursion:
    def test_five_one_value(self):
        g = gram_matrix(5, 1, mode="open", twists=[LaurentPoly.v_pow(1)])
        det = det_exact(g)
        b2 = B * B
        assert det == (b2 - ONE) ** 4 * (b2 - LaurentPoly.const(2))
        assert gram_recursion_check(5, 1)

    def test_base_case_full_defects(self):
        for n in (3, 4, 5, 6):
            g = gram_matrix(n, n, mode="open", twists=[LaurentPoly.v_pow(1)] * n)
            assert det_exact(g) == ONE

    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(2, 8) for d in range(2 - (n % 2), n + 1, 2)]
    )
    def test_recursion_all_sizes(self, n, d):
        assert gram_recursion_check(n, d)


def _block_det_product(n, d):
    """Determinant of the transformed Gram matrix via its diagonal blocks:
    product over strata of K^size times the replaced-basis Gram determinant."""
    from eptl.ring import ONE
    from eptl.states import bijection_C

    v = LaurentPoly.v_pow(1)
    det = RingFraction.one()
    for r in range((n - d) // 2 + 1):
        block_states = [w for w in enumerate_states(n, d) if w.boundary_arcs == r]
        kf = k_factor(d, r, n_ambient=n)
        twists = [ONE] * r + [v] * d + [ONE] * r
        ent = [
            [gram_pair(bijection_C(wj), bijection_C(wi), twists) for wj in block_states]
            for wi in block_states
        ]
        det = det * kf ** len(block_states) * det_exact(RingMatrix(ent))
    return det


class TestLargeSize:
    def test_seven_site_block_structure_and_det(self):
        # every block identity holds at n = 7 and the block determinant
        # product reproduces the product of the two intertwiner determinants
        n, d = 7, 1
        ok, failures = gamma_block_report(n, d)
        assert ok, failures[:5]
        det = _block_det_product(n, d)
        det_i = det_exact(i_matrix(n, d))
        expect = frac(det_i * det_i.flip_v())
        assert det == expect or det == -expect


class TestDetGammaEqualsDetGram:
    @pytest.mark.parametrize("n,d", sectors([4, 5, 6]))
    def test_exact_small(self, n, d):
        det = _block_det_product(n, d)
        expect = frac(gram_det_exact(n, d))
        assert det == expect or det == -expect
