import cmath
import random

import numpy as np
import pytest

from eptl import linkrep
from eptl.diagrams import word_diagram
from eptl.intertwiner import i_matrix
from eptl.linkrep import (
    RingMatrix,
    gram_matrix,
    gram_pair,
    hamiltonian_link,
    link_orbits,
    omega_matrix,
)
from eptl.ring import ZERO, GaussianInt, LaurentPoly, alpha_poly, beta_poly
from eptl.spinrep import hamiltonian, spin_orbits
from eptl.states import LinkState, enumerate_states
from oracles import (
    dense,
    gram_matrix_full,
    loop_variables_to_uv,
    matmul_dense,
    mul_terms,
    submatrix,
    to_numeric_entrywise,
)

B = beta_poly()


def mono(eu, ev):
    return LaurentPoly.monomial(eu, ev)


def sector_pairs(n_max):
    return [(n, d) for n in range(2, n_max + 1) for d in range(n % 2, n + 1, 2)]


class TestOmega:
    @pytest.mark.parametrize("n,d", sector_pairs(5))
    def test_identity(self, n, d):
        m = omega_matrix(["id"], n, d)
        assert m == RingMatrix.identity(m.rows)

    @pytest.mark.parametrize("n,d", sector_pairs(5) + [(7, 1), (7, 5), (8, 0), (8, 4)])
    def test_e_squared(self, n, d):
        for i in range(1, n + 1):
            m = omega_matrix([("e", i)], n, d)
            assert m @ m == m.scale(B)

    @pytest.mark.parametrize("n", [4, 6])
    def test_even_product_sandwich(self, n):
        evens = [("e", i) for i in range(2, n + 1, 2)]
        e_mat = omega_matrix(evens, n, 0)
        sandwich = omega_matrix(evens + [("omega", 1)] + evens, n, 0)
        assert sandwich == e_mat.scale(alpha_poly(n))

    def test_translation_power_is_scalar(self):
        n, d = 5, 3
        m = omega_matrix([("omega", 1)] * n, n, d)
        assert m == RingMatrix.identity(m.rows).scale(LaurentPoly.v_pow(n * d))

    @pytest.mark.parametrize("power", [0, 2, -5, "1"])
    def test_translation_power_must_be_unit(self, power):
        with pytest.raises(ValueError, match=r"must be \+1 or -1"):
            word_diagram([("omega", power)], 4)
        with pytest.raises(ValueError, match=r"must be \+1 or -1"):
            omega_matrix([("omega", power)], 4, 2)


class TestGramPairExamples:
    # ten-site pairings read off the worked closures
    def setup_method(self):
        self.w1 = LinkState(10, [(2, 9), (3, 6), (4, 5), (7, 8)], [1, 10])

    def test_single_loop_with_displacement(self):
        w2 = LinkState(10, [(3, 4), (5, 8), (6, 7), (9, 10)], [1, 2])
        assert gram_pair(self.w1, w2) == B * mono(0, 8)

    def test_same_state_defects_tied_gives_zero(self):
        w2 = LinkState(10, [(1, 6), (2, 5), (3, 4), (9, 10)], [7, 8])
        assert gram_pair(self.w1, w2).is_zero()

    def test_zero_defect_wrapping(self):
        w1 = LinkState(10, [(2, 3), (5, 6), (8, 9), (4, 7), (10, 11)], [])
        w2 = LinkState(10, [(2, 3), (8, 9), (10, 11), (6, 15), (7, 14)], [])
        a = alpha_poly(10)
        assert gram_pair(w1, w2) == a * a * B * B * B

    def test_defect_count_mismatch(self):
        w2 = LinkState(10, [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)], [])
        assert gram_pair(self.w1, w2).is_zero()


# the displayed 6x6 matrices use this fixed ordering of the 4-site bases
REF_LINK_ORDER_4_0 = [
    LinkState(4, [(1, 2), (3, 4)], []),
    LinkState(4, [(1, 4), (2, 3)], []),
    LinkState(4, [(2, 5), (3, 4)], []),
    LinkState(4, [(2, 3), (4, 5)], []),
    LinkState(4, [(1, 2), (4, 7)], []),
    LinkState(4, [(3, 6), (4, 5)], []),
]


def ref_permutation_4_0():
    basis = list(enumerate_states(4, 0))
    return [basis.index(w) for w in REF_LINK_ORDER_4_0]


class TestGramMatrix:
    def test_four_zero_reference_matrix(self):
        g = gram_matrix(4, 0)
        perm = ref_permutation_4_0()
        g = submatrix(g, perm, perm)
        a = alpha_poly(4)
        expect = [
            [B * B, B, a * B, a, a * B, B],
            [B, B * B, a, a * B, a, a * a],
            [a * B, a, B * B, B, a * a, a],
            [a, a * B, B, B * B, B, a * B],
            [a * B, a, a * a, B, B * B, a],
            [B, a * a, a, a * B, a, B * B],
        ]
        for i in range(6):
            for j in range(6):
                assert g[i, j] == expect[i][j], (i, j)

    def test_full_defect_sector_is_trivial(self):
        g = gram_matrix(6, 6)
        assert g.rows == 1 and g[0, 0] == LaurentPoly.one()

    def test_five_one_twisted_open_matrix(self):
        v1 = LaurentPoly.v_pow(1)
        g = gram_matrix(5, 1, mode="open", twists=[v1]).transpose()
        # displayed ordering: defect-first states, then bubble-first states
        order = [
            LinkState(5, [(2, 3), (4, 5)], [1]),
            LinkState(5, [(2, 5), (3, 4)], [1]),
            LinkState(5, [(1, 2), (4, 5)], [3]),
            LinkState(5, [(1, 2), (3, 4)], [5]),
            LinkState(5, [(1, 4), (2, 3)], [5]),
        ]
        basis = list(g.col_labels)
        perm = [basis.index(w) for w in order]
        g = submatrix(g, perm, perm)
        one = LaurentPoly.one()
        expect = [
            [B * B, B, B * mono(0, -2), mono(0, -4), B * mono(0, -4)],
            [B, B * B, mono(0, -2), B * mono(0, -4), mono(0, -4)],
            [B * mono(0, 2), mono(0, 2), B * B, B * mono(0, -2), mono(0, -2)],
            [mono(0, 4), B * mono(0, 4), B * mono(0, 2), B * B, B],
            [B * mono(0, 4), mono(0, 4), mono(0, 2), B, B * B],
        ]
        del one
        for i in range(5):
            for j in range(5):
                assert g[i, j] == expect[i][j], (i, j)


class TestGramOrbitBuild:
    # the orbit build is covariant by construction, so it is compared with
    # the full loop rather than checked with check_covariant
    @pytest.mark.parametrize("n,d", [(n, d) for n in range(11) for d in range(n % 2, n + 1, 2)])
    def test_equals_the_full_loop(self, n, d):
        got = gram_matrix(n, d)
        expect = gram_matrix_full(n, d)
        assert got == expect
        assert got.row_labels == expect.row_labels and got.col_labels == expect.col_labels

    @pytest.mark.parametrize("n,d", [(6, 0), (7, 1), (8, 2), (8, 8)])
    def test_closes_each_state_against_the_representatives_only(self, n, d, monkeypatch):
        orbits = link_orbits(n, d)  # built before counting: Omega's matrix acts too
        basis = enumerate_states(n, d)
        closed = []
        act = linkrep.act_on_link

        def counted(diagram, w):
            closed.append(w)
            return act(diagram, w)

        monkeypatch.setattr(linkrep, "act_on_link", counted)
        linkrep._gram.cache_clear()  # a cached build would close nothing
        gram_matrix(n, d)
        assert len(closed) == len(basis) * len(orbits.reps)
        assert set(closed) == {basis[j] for j in orbits.reps}


def test_builders_construct_no_link_state(monkeypatch):
    from eptl.diagrams import generator_diagram
    from eptl.projectors import u_transform
    from eptl.ring import ONE
    from eptl.states import index_table
    from eptl.transfer import transfer_table

    n, d = 8, 0
    index_table(n, d)  # the basis and its table are built once, before counting
    link_orbits(n, d)
    built = []
    init = LinkState.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LinkState, "__init__", counted)
    combination = {generator_diagram("e", n, 3): ONE, word_diagram([("omega", 1), ("e", 8)], n): B}
    assert linkrep.link_matrix(combination, n, d).cols == 70
    assert len(transfer_table.__wrapped__(n, d)[0])
    assert linkrep._gram.__wrapped__(n, d, "tilde").cols == 70
    assert u_transform(n, d)[0].cols == 70
    assert not built
    LinkState(2, [(1, 2)], [], validate=False)  # the counter sees a construction
    assert len(built) == 1


class TestGramInvariants:
    @pytest.mark.parametrize("n,d", sector_pairs(8))
    def test_transpose_symmetry(self, n, d):
        g = gram_matrix(n, d)
        assert g.map(LaurentPoly.flip_v) == g.transpose()

    @pytest.mark.parametrize("n,d", sector_pairs(6))
    def test_generator_adjoint(self, n, d):
        # pairing(w1, e_i w2) = pairing(e_i w1, w2) when the generator acts
        # with twist v on the first slot and twist 1/v on the second
        from eptl.diagrams import act_on_link, generator_diagram
        from eptl.linkrep import act_weight

        basis = enumerate_states(n, d)
        for i in range(1, n + 1):
            diag = generator_diagram("e", n, i)
            for w1 in basis:
                r1 = act_on_link(diag, w1)
                for w2 in basis:
                    r2 = act_on_link(diag, w2)
                    lhs = (
                        ZERO
                        if r2 is None
                        else act_weight(r2, n).flip_v() * gram_pair(w1, r2.state)
                    )
                    rhs = (
                        ZERO
                        if r1 is None
                        else act_weight(r1, n) * gram_pair(r1.state, w2)
                    )
                    assert lhs == rhs

    @pytest.mark.parametrize("n,d", sector_pairs(5))
    def test_loop_variable_encoding_matches(self, n, d):
        direct = gram_matrix(n, d)
        packed = gram_matrix_full(n, d, loop_variables=True)
        unpacked = packed.map(lambda p: loop_variables_to_uv(p, n, d))
        assert unpacked == direct

    @pytest.mark.parametrize("n,d", [(6, 0), (5, 1), (6, 2)])
    def test_loop_variables_to_uv_sums_each_term_substituted(self, n, d):
        # a multi-term input with Gaussian coefficients, so the substituted
        # terms overlap; loop counts are nonnegative
        rng = random.Random(n + 10 * d)
        low = 0 if d == 0 else -3
        p = LaurentPoly(
            {
                (rng.randint(0, 4), rng.randint(low, 3)): GaussianInt(
                    rng.randint(-4, 4) or 1, rng.randint(-2, 2)
                )
                for _ in range(12)
            }
        )
        expect = ZERO
        for (a, b), c in p.terms.items():
            weight = mul_terms(beta_poly() ** a, alpha_poly(n) ** b if d == 0 else LaurentPoly.v_pow(b))
            expect = expect + LaurentPoly.const(c) * weight
        assert loop_variables_to_uv(p, n, d) == expect

    @pytest.mark.parametrize("n,d", [(n, d) for n in (4, 5, 6) for d in range(n % 2, n + 1, 2)])
    def test_open_det_twist_vector_independence(self, n, d):
        from eptl.intertwiner import det_exact

        vectors = [
            [LaurentPoly.one()] * d,
            [LaurentPoly.v_pow(1)] * d,
            [LaurentPoly.monomial(k % 2, (k % 3) - 1) for k in range(d)],
        ]
        dets = [
            det_exact(gram_matrix(n, d, mode="open", twists=tw)) for tw in vectors
        ]
        assert dets[1] == dets[0] and dets[2] == dets[0]


class TestNumericEvaluation:
    MATRICES = {
        "gram n6d0": lambda: gram_matrix(6, 0),
        "gram n5d1": lambda: gram_matrix(5, 1),
        "intertwiner n6d2": lambda: i_matrix(6, 2),
        "spin hamiltonian n6d0": lambda: hamiltonian(6, 0),
        "link hamiltonian n5d1": lambda: hamiltonian_link(5, 1),
    }

    @pytest.mark.parametrize("name", list(MATRICES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_entrywise_evaluation(self, name, seed):
        rng = random.Random(seed)
        u = rng.uniform(0.7, 1.4) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
        v = rng.uniform(0.7, 1.4) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
        m = self.MATRICES[name]()
        expect = to_numeric_entrywise(m, u, v)
        got = m.to_numeric(u, v)
        assert got.shape == expect.shape
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    ORBITS = {
        "gram n6d0": lambda: link_orbits(6, 0),
        "gram n5d1": lambda: link_orbits(5, 1),
        "intertwiner n6d2": lambda: link_orbits(6, 2),
        "spin hamiltonian n6d0": lambda: spin_orbits(6, 0),
        "link hamiltonian n5d1": lambda: link_orbits(5, 1),
    }

    @pytest.mark.parametrize("name", list(MATRICES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_columns_match_entrywise_evaluation(self, name, seed):
        rng = random.Random(100 + seed)
        u = rng.uniform(0.7, 1.4) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
        v = rng.uniform(0.7, 1.4) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
        m = self.MATRICES[name]()
        expect = to_numeric_entrywise(m, u, v)
        subsets = [
            self.ORBITS[name]().reps,
            [],
            [m.cols - 1],
            rng.choices(range(m.cols), k=7),  # repeats and any order
            list(range(m.cols))[::-1],
        ]
        for cols in subsets:
            got = m.to_numeric(u, v, np.array(cols, dtype=int))
            assert got.shape == (m.rows, len(cols))
            assert np.max(np.abs(got - expect[:, cols]), initial=0.0) <= 1e-12 * np.max(np.abs(expect))

    def test_columns_first_then_the_whole(self):
        # the term arrays are built by whichever call comes first
        m = omega_matrix([("e", 2), ("e", 4)], 5, 1)
        u, v = 0.9 + 0.2j, 1.1j
        assert np.array_equal(m.to_numeric(u, v, [3, 1]), m.to_numeric(u, v)[:, [3, 1]])

    def test_repeated_evaluation_uses_the_new_point(self):
        m = gram_matrix(4, 0)
        for u, v in ((0.9 + 0.2j, 1.1j), (1.3, 0.8 - 0.1j)):
            assert np.allclose(m.to_numeric(u, v), to_numeric_entrywise(m, u, v), rtol=1e-12, atol=0)

    def test_all_zero_matrix(self):
        m = dense([[ZERO] * 3 for _ in range(2)])
        assert np.array_equal(m.to_numeric(0.5 + 0.5j, 2.0), np.zeros((2, 3)))
        assert np.array_equal(m.to_numeric(0, 0), np.zeros((2, 3)))
        assert np.array_equal(m.to_numeric(0.5, 2.0, [2, 0]), np.zeros((2, 2)))

    def test_zero_point_raises(self):
        m = omega_matrix([("e", 1)], 4, 0)
        with pytest.raises(ValueError):
            m.to_numeric(0, 1.0)
        with pytest.raises(ValueError):
            m.to_numeric(1.0, 0)

    @pytest.mark.parametrize("n,d", sector_pairs(8))
    def test_link_hamiltonian_is_the_generator_sum(self, n, d):
        total = omega_matrix([("e", 1)], n, d)
        for i in range(2, n + 1):
            total = total + omega_matrix([("e", i)], n, d)
        assert hamiltonian_link(n, d) == total


def _stores_a_zero(m):
    return any(not e for col in m.columns for e in col.values())


class TestSparseColumns:
    def _random(self, rng, rows, cols):
        # entries +-1 and +-u, so the sums in a product often cancel
        def entry():
            if rng.random() < 0.5:
                return ZERO
            return LaurentPoly.monomial(rng.randint(0, 1), 0, rng.choice((1, -1)))

        return dense([[entry() for _ in range(cols)] for _ in range(rows)])

    def test_product_matches_dense_oracle_on_cancelling_products(self):
        rng = random.Random(13)
        cancelled = 0
        for _ in range(40):
            r, k, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            a, b = self._random(rng, r, k), self._random(rng, k, c)
            got = a @ b
            assert got == matmul_dense(a, b)
            assert not _stores_a_zero(got)
            left, right = a.entries, b.entries
            cancelled += sum(
                1
                for i in range(r)
                for j in range(c)
                if not got[i, j] and any(left[i][t] and right[t][j] for t in range(k))
            )
        assert cancelled > 0

    @pytest.mark.parametrize("n,d", sector_pairs(6))
    def test_product_matches_dense_oracle_on_the_factorization(self, n, d):
        from eptl.projectors import u_transform

        imat = i_matrix(n, d)
        flipped = imat.map(LaurentPoly.flip_v).transpose()
        assert flipped @ imat == matmul_dense(flipped, imat)
        u, _ = u_transform(n, d)
        g = gram_matrix(n, d)
        u_flip = u.map(LaurentPoly.flip_v).transpose()
        assert u_flip @ g @ u == matmul_dense(matmul_dense(u_flip, g), u)

    def test_no_stored_zero_after_any_operation(self):
        one = LaurentPoly.one()
        m = dense([[one, ZERO, mono(1, 0)], [ZERO, mono(0, 1), ZERO]])
        results = {
            "map": m.map(lambda e: ZERO if e == one else e),
            "scale": m.scale(ZERO),
            "add": m + m.scale(-one),
            "matmul": dense([[one, one]]) @ dense([[one], [-one]]),
            "transpose": m.transpose(),
            "submatrix": submatrix(m, [1, 0], [2, 1]),
        }
        for name, r in results.items():
            assert not _stores_a_zero(r), name
        assert results["scale"].is_zero() and results["add"].is_zero()
        assert results["matmul"].is_zero() and results["matmul"].rows == 1
        assert results["map"][0, 0] == ZERO and results["map"][0, 2] == mono(1, 0)
        assert results["transpose"].entries == [list(col) for col in zip(*m.entries)]
        assert results["submatrix"].entries == [[ZERO, mono(0, 1)], [mono(1, 0), ZERO]]
        assert submatrix(m, [1, 1], [1]).entries == [[mono(0, 1)], [mono(0, 1)]]

    @pytest.mark.parametrize("n,d", sector_pairs(5))
    def test_builders_store_no_zero(self, n, d):
        from eptl.projectors import u_transform

        built = [
            hamiltonian_link(n, d),
            hamiltonian(n, d),
            i_matrix(n, d),
            u_transform(n, d)[0],
            gram_matrix(n, d),
            gram_matrix(n, d, mode="open"),
        ]
        for m in built:
            assert not _stores_a_zero(m)
