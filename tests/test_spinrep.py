import cmath
import random
from functools import reduce
from operator import matmul

import numpy as np
import pytest

from eptl.intertwiner import i_matrix
from eptl.linkrep import RingMatrix, omega_matrix
from eptl.ring import alpha_poly, beta_poly
from eptl.spinrep import (
    SpinSector,
    _token_images,
    ebar_matrix,
    hamiltonian,
    hamiltonian_numeric,
    omegabar_matrix,
    spin_sector,
    tau_matrix,
)
from eptl.states import module_dim
from oracles import matrix_sum, to_numeric_entrywise

B = beta_poly()


def sectors(n_max, n_min=2):
    return [(n, d) for n in range(n_min, n_max + 1) for d in range(n % 2, n + 1, 2)]


BAD_TOKENS = [
    (("x", 1), 4, "unknown word token"),
    (("e", 5), 4, "out of range"),
    (("e", 0), 4, "out of range"),
    (("e", 1), 1, "at least 2 sites"),
    (("omega", 0), 4, r"must be \+1 or -1"),
    (("omega", 2), 4, r"must be \+1 or -1"),
    (("omega", -5), 4, r"must be \+1 or -1"),
    (("omega", "1"), 4, r"must be \+1 or -1"),
]


def tokens(n):
    return [("e", i) for i in range(1, n + 1)] + [("omega", 1), ("omega", -1)]


class TestSector:
    @pytest.mark.parametrize("n,d", sectors(8))
    def test_dimension_matches_link_module(self, n, d):
        assert len(spin_sector(n, d)) == module_dim(n, d)

    def test_mask_order_deterministic(self):
        sec = spin_sector(4, 0)
        assert list(sec.configs) == sorted(sec.configs)
        assert sec.labels()[0] == "++--"

    @pytest.mark.parametrize("n,d", sectors(6, n_min=0))
    def test_labels_are_the_kets_built_once(self, n, d, monkeypatch):
        sec = spin_sector(n, d)
        assert sec.labels() == [sec.ket(m) for m in sec.configs]
        joins = []
        ket = SpinSector.ket
        monkeypatch.setattr(SpinSector, "ket", lambda self, m: joins.append(m) or ket(self, m))
        m = tau_matrix([], n, d)
        assert m.row_labels is m.col_labels is sec.labels()
        assert i_matrix.__wrapped__(n, d).row_labels is sec.labels()
        assert not joins


class TestLocalGenerators:
    @pytest.mark.parametrize("n,d", sectors(6))
    def test_idempotent_up_to_weight(self, n, d):
        for i in range(1, n + 1):
            m = ebar_matrix(i, n, d)
            assert m @ m == m.scale(B)

    @pytest.mark.parametrize("n,d", sectors(6))
    def test_commutation_distance(self, n, d):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                gap = min(j - i, n - (j - i))
                if gap > 1:
                    mi, mj = ebar_matrix(i, n, d), ebar_matrix(j, n, d)
                    assert mi @ mj == mj @ mi

    @pytest.mark.parametrize("n,d", sectors(6))
    def test_braid_reduction(self, n, d):
        if n < 3:
            return
        for i in range(1, n + 1):
            for j in ((i % n) + 1, (i - 2) % n + 1):
                w = tau_matrix([("e", i), ("e", j), ("e", i)], n, d)
                assert w == ebar_matrix(i, n, d)


class TestTranslation:
    @pytest.mark.parametrize("n,d", sectors(6))
    def test_inverse(self, n, d):
        size = module_dim(n, d)
        assert tau_matrix([("omega", 1), ("omega", -1)], n, d) == RingMatrix.identity(size)

    @pytest.mark.parametrize("n,d", sectors(8))
    def test_conjugates_generators(self, n, d):
        for i in range(1, n + 1):
            lhs = tau_matrix([("omega", 1), ("e", i), ("omega", -1)], n, d)
            assert lhs == ebar_matrix((i - 2) % n + 1, n, d)

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_nontrivial_power_relation(self, n, sign):
        for d in range(n % 2, n + 1, 2):
            lhs = tau_matrix([("omega", sign), ("e", n)] * (n - 1), n, d)
            rhs = tau_matrix([("omega", sign)] * n + [("omega", sign), ("e", n)], n, d)
            assert lhs == rhs

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_even_odd_sandwiches(self, n, sign):
        a = alpha_poly(n)
        for d in range(0, n + 1, 2):
            evens = [("e", i) for i in range(2, n + 1, 2)]
            odds = [("e", i) for i in range(1, n, 2)]
            for prod in (evens, odds):
                ref = tau_matrix(prod, n, d)
                sandwich = tau_matrix(prod + [("omega", sign)] + prod, n, d)
                assert sandwich == ref.scale(a)


class TestHamiltonian:
    def test_matches_generator_sum(self):
        h = hamiltonian(4, 2)
        assert h == matrix_sum(*(ebar_matrix(i, 4, 2) for i in range(1, 5)))

    @pytest.mark.parametrize("n,d", sectors(8))
    def test_matches_generator_sum_in_every_sector(self, n, d):
        # hamiltonian conjugates the n-th generator by the powers of the
        # translation's permutation rather than adding the ebar_matrix
        # results, so the two routes are compared everywhere
        total = matrix_sum(*(ebar_matrix(i, n, d) for i in range(1, n + 1)))
        assert hamiltonian(n, d) == total

    @pytest.mark.parametrize("n,d", sectors(7))
    def test_numeric_hermitian_on_circle(self, n, d):
        u = cmath.exp(0.37j)
        v = cmath.exp(0.21j)
        hn = hamiltonian_numeric(n, d, u, v)
        assert np.max(np.abs(hn - hn.conj().T)) < 1e-12

    @pytest.mark.parametrize("n,d", sectors(6))
    def test_commutes_with_translation(self, n, d):
        h = hamiltonian(n, d)
        om = omegabar_matrix(1, n, d)
        assert h @ om == om @ h

    def test_exact_vs_numeric(self):
        u = cmath.exp(0.4j)
        v = cmath.exp(0.9j)
        h = hamiltonian(5, 1)
        hn = hamiltonian_numeric(5, 1, u, v)
        assert np.max(np.abs(to_numeric_entrywise(h, u, v) - hn)) < 1e-12

    def test_generators_preserve_total_spin(self):
        n = 6
        for d in range(0, n + 1, 2):
            for tok in tokens(n):
                for mask, images in _token_images(tok, spin_sector(n, d)).items():
                    ups = bin(mask).count("1")
                    for mask2, _, _ in images:
                        assert bin(mask2).count("1") == ups


class TestWordAction:
    @pytest.mark.parametrize("n,d", sectors(6))
    def test_matches_product_of_token_matrices(self, n, d):
        # the dense product of one-token matrices, kept as the oracle
        rng = random.Random(1000 * n + d)
        ident = RingMatrix.identity(module_dim(n, d))
        for _ in range(12):
            word = [rng.choice(tokens(n)) for _ in range(rng.randint(0, 2 * n))]
            product = reduce(matmul, [tau_matrix([t], n, d) for t in word], ident)
            assert tau_matrix(word, n, d) == product, word

    @pytest.mark.parametrize("tok,n,message", BAD_TOKENS)
    def test_bad_token_raises(self, tok, n, message):
        with pytest.raises(ValueError, match=message):
            tau_matrix([tok], n, n % 2)

    @pytest.mark.parametrize("tok,n,message", BAD_TOKENS)
    def test_link_side_raises_the_same(self, tok, n, message):
        # both representations check their tokens with diagrams.parse_token
        with pytest.raises(ValueError, match=message):
            omega_matrix([tok], n, n % 2)

    def test_every_token_is_checked_before_acting(self):
        # e_1 annihilates the whole d = 4 sector before e_5 would act
        with pytest.raises(ValueError, match="out of range"):
            tau_matrix([("e", 5), ("e", 1)], 4, 4)

    def test_builds_without_dense_products(self, monkeypatch):
        rng = random.Random(7)
        word = [rng.choice(tokens(6)) for _ in range(12)]
        expect = tau_matrix(word, 6, 2)

        def refuse(self, other):
            raise AssertionError("dense matrix product")

        monkeypatch.setattr(RingMatrix, "__matmul__", refuse)
        assert tau_matrix(word, 6, 2) == expect
