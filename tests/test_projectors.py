import pytest

from eptl.diagrams import generator_diagram, identity_diagram, word_diagram
from eptl.intertwiner import det_exact, gram_det_exact, i_matrix
from eptl.linkrep import gram_matrix, gram_pair, link_image
from eptl.projectors import (
    embed,
    gamma_block_report,
    gamma_matrix,
    gram_recursion_check,
    k_factor,
    same_ratio,
    u_transform,
    u_transform_state,
    wenzl_jones,
    wj_matrix,
)
from eptl.ring import (
    ONE,
    ZERO,
    LaurentPoly,
    alpha_poly,
    beta_poly,
    trig_cos,
    trig_sin,
)
from eptl.states import LinkState, bijection_C, enumerate_states
from oracles import conn_view, dense

B = beta_poly()
UNIT = (ONE, ONE)


def gamma_entry(gamma, i, j):
    """Entry (i, j) of the transformed Gram matrix as a (num, den) pair."""
    p, dens = gamma
    return p[i, j], dens[i] * dens[j]


class TestProjectorCombination:
    def test_single_strand_is_identity_word(self):
        wj = wenzl_jones(1)
        assert wj.terms == [(ONE, ())]
        assert wj.den == ONE

    def test_two_strands(self):
        wj = wenzl_jones(2)
        by_word = {w: (c, wj.den) for c, w in wj.terms}
        assert same_ratio(by_word[()], UNIT)
        assert same_ratio(by_word[(1,)], (trig_sin(2), trig_sin(4)))

    def test_identity_always_present_with_unit_coefficient(self):
        for p in range(1, 6):
            wj = wenzl_jones(p)
            assert same_ratio((wj.diagrams[identity_diagram(p)], wj.den), UNIT)

    @pytest.mark.parametrize("p", range(1, 8))
    def test_denominator_is_quantum_factorial(self, p):
        den = ONE
        for k in range(2, p + 1):
            den = den * trig_sin(2 * k).exact_div(trig_sin(2))
        assert wenzl_jones(p).den == den

    @pytest.mark.parametrize("p", range(1, 8))
    def test_numerators_have_gaussian_integer_coefficients(self, p):
        for num in wenzl_jones(p).diagrams.values():
            for c in num.terms.values():
                assert c.re.denominator == 1 and c.im.denominator == 1, (p, num)

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
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

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_words_give_their_diagrams(self, p):
        wj = wenzl_jones(p)
        for combination in (wj, wj.reflected(), wj.word_reversed()):
            for m, word in combination.words.items():
                assert word_diagram([("e", k) for k in word], p).same_connectivity(m), word

    @pytest.mark.parametrize("p", range(1, 7))
    def test_terms_follow_the_tagged_chord_order(self, p):
        # the order that `projector --check wj` prints: chords sorted on
        # tagged nodes, ('b', i) before ('t', j)
        wj = wenzl_jones(p)
        tagged = lambda m: sorted((a, b) for a, (b, _) in conn_view(m).items() if a < b)
        assert wj.terms == [(wj.diagrams[m], wj.words[m]) for m in sorted(wj.diagrams, key=tagged)]

    def test_generator_annihilation_on_states(self):
        # applying the 2-strand projector then a cup across its window kills
        # every state: id + (S1/S2) e with e^2 = beta*e and beta = -S2/S1
        n = 4
        wj = embed(wenzl_jones(2), n, [1, 2])
        cup = {generator_diagram("e", n, 1): ONE}
        basis = enumerate_states(n, 0)
        for w in basis:
            total = {}
            for s, c in link_image(wj, w).items():
                for t, cc in link_image(cup, basis[s]).items():
                    total[t] = total.get(t, ZERO) + c * cc
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
        h = gram_matrix(n, d).transpose()
        for p in range(2, min(5, n) + 1):
            m, _den = wj_matrix(p, n, d)
            assert h @ m.map(LaurentPoly.flip_v) == m.transpose() @ h, p


class TestChangeOfBasis:
    @pytest.mark.parametrize("n,d", sectors([4, 5, 6, 7]))
    def test_unit_upper_triangular(self, n, d):
        u, dens = u_transform(n, d)
        basis = enumerate_states(n, d)
        for i, wi in enumerate(basis):
            r = wi.boundary_arcs
            assert dens[i] == (wenzl_jones(d + 2 * r).den if r else ONE)
            assert same_ratio((u[i, i], dens[i]), UNIT)
            for j, wj in enumerate(basis):
                if wi.boundary_arcs >= wj.boundary_arcs and i != j:
                    assert u[i, j].is_zero(), (i, j)

    @pytest.mark.parametrize("n,d", sectors(range(1, 8)))
    def test_matches_reduced_cylinder_oracle(self, n, d):
        from oracles import u_transform_state_reduced

        u, dens = u_transform(n, d)
        basis = enumerate_states(n, d)
        for j, w in enumerate(basis):
            image, den = u_transform_state_reduced(w)
            assert (u.columns[j], dens[j]) == ({basis.index(x): c for x, c in image.items()}, den), w

    def test_boundary_free_states_fixed(self):
        for w in enumerate_states(6, 2):
            if w.boundary_arcs == 0:
                assert u_transform_state(w) == ({enumerate_states(6, 2).index(w): ONE}, ONE)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_projector_sites_are_the_defects_of_c(self, n, monkeypatch):
        import eptl.projectors as prj

        sites = []
        monkeypatch.setattr(prj, "embed", lambda word, n, at: sites.append(tuple(at)) or {})
        for d in range(n % 2, n + 1, 2):
            for w in enumerate_states(n, d):
                sites.clear()
                u_transform_state(w)
                assert sites == ([bijection_C(w).defects] if w.boundary_arcs else []), w

    def test_six_site_worked_pairing(self):
        # the transformed pairing of the two 6-site states with one
        # boundary arc and two defects equals v^2 times the block factor
        x = LinkState(6, [(2, 3), (6, 7)], [4, 5])
        y = LinkState(6, [(3, 4), (6, 7)], [2, 5])
        basis = list(enumerate_states(6, 2))
        ix, iy = basis.index(x), basis.index(y)
        gamma = gamma_matrix(6, 2)
        k_num, k_den = k_factor(2, 1, n_ambient=6)
        assert same_ratio(gamma_entry(gamma, iy, ix), (k_num * LaurentPoly.v_pow(2), k_den))
        assert same_ratio(gamma_entry(gamma, ix, iy), (k_num * LaurentPoly.v_pow(-2), k_den))


class TestGamma:
    def test_gamma_4_0_display(self):
        g = gamma_matrix(4, 0)
        k1 = k_factor(0, 1, n_ambient=4)
        k2 = k_factor(0, 2, n_ambient=4)
        b, bb, z = (B, ONE), (B * B, ONE), (ZERO, ONE)
        bk1 = (B * k1[0], k1[1])
        expect = [
            [bb, b, z, z, z, z],
            [b, bb, z, z, z, z],
            [z, z, bk1, k1, z, z],
            [z, z, k1, bk1, k1, z],
            [z, z, z, k1, bk1, z],
            [z, z, z, z, z, k2],
        ]
        for i in range(6):
            for j in range(6):
                assert same_ratio(gamma_entry(g, i, j), expect[i][j]), (i, j)

    def test_gamma_4_2_display(self):
        g = gamma_matrix(4, 2)
        k1 = k_factor(2, 1, n_ambient=4)
        b, z = (B, ONE), (ZERO, ONE)
        vp = lambda k: (LaurentPoly.v_pow(k), ONE)
        expect = [
            [b, vp(-2), z, z],
            [vp(2), b, vp(-2), z],
            [z, vp(2), b, z],
            [z, z, z, k1],
        ]
        for i in range(4):
            for j in range(4):
                assert same_ratio(gamma_entry(g, i, j), expect[i][j]), (i, j)

    def test_gamma_4_4_trivial(self):
        g = gamma_matrix(4, 4)
        assert g[0].rows == 1 and same_ratio(gamma_entry(g, 0, 0), UNIT)

    @pytest.mark.parametrize("n,d", sectors([4, 5, 6]))
    def test_block_structure(self, n, d):
        ok, failures = gamma_block_report(n, d)
        assert ok, failures[:5]

    def test_block_report_replaces_each_state_once(self, monkeypatch):
        import eptl.projectors as prj

        replaced = []
        monkeypatch.setattr(prj, "bijection_C", lambda w: replaced.append(w) or bijection_C(w))
        assert gamma_block_report(6, 2)[0]
        assert replaced == list(enumerate_states(6, 2))

    @pytest.mark.parametrize("i,j,failure", [(0, 5, ("off-block", 0, 2, 0, 5)), (5, 5, ("block", 2, 5, 5))])
    def test_block_report_names_a_changed_entry(self, monkeypatch, i, j, failure):
        import eptl.projectors as prj

        gamma, dens = gamma_matrix(4, 0)
        entries = gamma.entries
        entries[i][j] = entries[i][j] + ONE
        changed = dense(entries, gamma.row_labels, gamma.col_labels)
        monkeypatch.setattr(prj, "gamma_matrix", lambda n, d: (changed, dens))
        assert gamma_block_report(4, 0) == (False, [failure])

    def test_full_defect_gamma(self):
        for n in (3, 4, 5):
            g = gamma_matrix(n, n)
            assert g[0].rows == 1 and same_ratio(gamma_entry(g, 0, 0), UNIT)


class TestKFactors:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_trivial_r(self, d):
        assert same_ratio(k_factor(d, 0, n_ambient=6), UNIT)

    def test_k01_closed_form(self):
        a = alpha_poly(4)
        c1 = trig_cos(2)
        expect = ((a * a - c1 * c1) * trig_sin(2), trig_sin(4))
        assert same_ratio(k_factor(0, 1, n_ambient=4), expect)

    @pytest.mark.parametrize("d,r", [(0, 1), (0, 2), (1, 1), (2, 1), (2, 2), (3, 1)])
    def test_pairing_matches_closed_form(self, d, r):
        assert same_ratio(k_factor(d, r, mode="gram_pairing"), k_factor(d, r, mode="closed_form"))

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_recursion_matches_closed_form(self, d, r):
        for n_amb in (d + 2 * r, d + 2 * r + 2):
            assert same_ratio(k_factor(d, r, n_amb, "recursion"), k_factor(d, r, n_amb, "closed_form"))


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
    product over strata of K^size times the replaced-basis Gram determinant,
    as a (num, den) pair."""
    from eptl.states import bijection_C

    v = LaurentPoly.v_pow(1)
    num, den = ONE, ONE
    for r in range((n - d) // 2 + 1):
        block_states = [w for w in enumerate_states(n, d) if w.boundary_arcs == r]
        k_num, k_den = k_factor(d, r, n_ambient=n)
        twists = [ONE] * r + [v] * d + [ONE] * r
        ent = [
            [gram_pair(bijection_C(wj), bijection_C(wi), twists) for wj in block_states]
            for wi in block_states
        ]
        num = num * k_num ** len(block_states) * det_exact(dense(ent))
        den = den * k_den ** len(block_states)
    return num, den


class TestLargeSize:
    def test_seven_site_block_structure_and_det(self):
        # every block identity holds at n = 7 and the block determinant
        # product reproduces the product of the two intertwiner determinants
        n, d = 7, 1
        ok, failures = gamma_block_report(n, d)
        assert ok, failures[:5]
        det = _block_det_product(n, d)
        det_i = det_exact(i_matrix(n, d))
        expect = det_i * det_i.flip_v()
        assert same_ratio(det, (expect, ONE)) or same_ratio(det, (-expect, ONE))


class TestDetGammaEqualsDetGram:
    @pytest.mark.parametrize("n,d", sectors([4, 5, 6]))
    def test_exact_small(self, n, d):
        det = _block_det_product(n, d)
        expect = gram_det_exact(n, d)
        assert same_ratio(det, (expect, ONE)) or same_ratio(det, (-expect, ONE))
