import cmath
import math
import random

import numpy as np
import pytest

from eptl import linkrep, transfer
from eptl.diagrams import act_on_link, compose, generator_diagram
from eptl.linkrep import hamiltonian_link, link_orbits, omega_matrix
from eptl.states import LinkState, enumerate_states
from eptl.transfer import (
    DEFECT_TOL,
    commuting_family_defect,
    crossing_defect,
    expansion_defect,
    mirror_permutation,
    table_matrix,
    tile_diagram,
    transfer_matrix,
    transfer_table,
    translation_invariance_defect,
)
from eptl.cli import main
from oracles import (
    _tile_diagram_sequential,
    crossing_defect_dense,
    expansion_defect_finite_difference,
    reflect_state,
    reflection_permutation,
    transfer_coefficient,
    transfer_matrix_tilesum,
    transfer_table_per_config,
)

SECTORS_TO_7 = [(n, d) for n in range(1, 8) for d in range(n % 2, n + 1, 2)]
SECTORS_TO_8 = SECTORS_TO_7 + [(8, d) for d in range(0, 9, 2)]
SECTORS_TO_10 = SECTORS_TO_8 + [(n, d) for n in (9, 10) for d in range(n % 2, n + 1, 2)]
EXPANSION_POINTS = [(4, 2, math.pi / 3), (5, 1, 0.7), (6, 0, 1.1), (8, 2, 0.9)]


class TestTiles:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_uniform_fillings_are_translations(self, n):
        assert tile_diagram(n, 0) == generator_diagram("omega", n)
        assert tile_diagram(n, (1 << n) - 1) == generator_diagram("omega_inv", n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_two_constructions_agree(self, n):
        for config in range(1 << n):
            assert tile_diagram(n, config) == _tile_diagram_sequential(n, config)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_rotation_is_translation_conjugate(self, n):
        # rotating the filling's bits right by one is Omega T_c Omega^-1
        om, om_inv = generator_diagram("omega", n), generator_diagram("omega_inv", n)
        for config in range(1 << n):
            rotated = config >> 1 | (config & 1) << (n - 1)
            conj = compose(top=compose(top=om_inv, bottom=tile_diagram(n, config)), bottom=om)
            assert conj == tile_diagram(n, rotated), config

    def test_single_flip_is_translation_times_generator(self):
        from eptl.diagrams import word_diagram

        n = 5
        for i in range(1, n + 1):
            assert tile_diagram(n, 1 << (i - 1)) == word_diagram(
                [("omega", 1), ("e", i)], n
            )


class TestTransferProperties:
    @pytest.mark.parametrize("n,d", SECTORS_TO_7 + [(8, 0), (8, 2)])
    def test_zero_anisotropy(self, n, d):
        lam, mu = math.pi / 3, 0.3
        t = transfer_matrix(n, d, lam, 0.0, mu)
        om = omega_matrix([("omega", 1)], n, d).to_numeric(cmath.exp(1j * lam / 2), cmath.exp(1j * mu))
        assert np.max(np.abs(t - math.sin(lam) ** n * om)) < 1e-13

    def test_one_site_closed_form(self):
        # the one tile's first filling is the translation (twist v), its second the inverse
        lam, nu, mu = 1.1, 0.4 + 0.3j, 0.7
        expect = cmath.sin(lam - nu) * cmath.exp(1j * mu) + cmath.sin(nu) * cmath.exp(-1j * mu)
        assert abs(transfer_matrix(1, 1, lam, nu, mu)[0, 0] - expect) < 1e-14

    @pytest.mark.parametrize("n,d", [(4, 0), (5, 1), (6, 0), (6, 2), (7, 1), (8, 2)])
    def test_commuting_family(self, n, d):
        rng = random.Random(n * 10 + d)
        lam = rng.uniform(0.3, 2.7)
        nu1, nu2 = rng.uniform(0, 1.5), rng.uniform(0, 1.5) + 0.2j
        assert commuting_family_defect(n, d, lam, nu1, nu2, 0.31) < 1e-9

    @pytest.mark.parametrize("n,d", [(4, 0), (5, 1), (6, 2), (8, 0)])
    def test_translation_invariance(self, n, d):
        assert translation_invariance_defect(n, d, 1.2, 0.45, 0.27) < 1e-9

    @pytest.mark.parametrize("n,d", [(4, 0), (5, 1), (6, 2), (8, 2)])
    def test_crossing(self, n, d):
        rng = random.Random(3 * n + d)
        nu = rng.uniform(0.1, 1.2)
        assert crossing_defect(n, d, math.pi / 3, nu, 0.41) < 1e-9

    def test_crossing_fixed_point(self):
        lam = 1.3
        a = transfer_matrix(4, 0, lam, lam / 2, 0.2)
        b = transfer_matrix(4, 0, lam, lam - lam / 2, 0.2)
        assert np.max(np.abs(a - b)) == 0.0

    @pytest.mark.parametrize("n,d", SECTORS_TO_8)
    def test_crossing_matches_the_dense_oracle(self, n, d):
        rng = random.Random(7 * n + d)
        for _ in range(2):
            lam, mu = rng.uniform(0.3, 2.7), rng.uniform(-0.8, 0.8)
            nu = complex(rng.uniform(0.1, 1.2), rng.uniform(-0.3, 0.3))
            assert crossing_defect(n, d, lam, nu, mu) == crossing_defect_dense(n, d, lam, nu, mu)

    @pytest.mark.parametrize("n,d,lam", EXPANSION_POINTS)
    def test_anisotropy_expansion(self, n, d, lam):
        assert expansion_defect(n, d, lam, 0.3) < 1e-9

    @pytest.mark.parametrize("n,d,lam", EXPANSION_POINTS)
    def test_finite_difference_oracle(self, n, d, lam):
        assert expansion_defect_finite_difference(n, d, lam, 0.3) < 1e-5

    @pytest.mark.parametrize("lam", [0.0, math.pi, -math.pi, 1e-7])
    def test_expansion_holds_where_sine_vanishes(self, lam):
        assert expansion_defect(4, 0, lam, 0.3) < DEFECT_TOL

    @pytest.mark.parametrize("n,d,lam", [(4, 0, 1.2), (5, 1, 1.2), (6, 2, 1.2), (8, 0, 1.2)] + EXPANSION_POINTS)
    def test_defects_read_the_translation_off_the_cached_orbits(self, n, d, lam, monkeypatch):
        # Omega = c P comes from link_orbits, so once the orbits and H are
        # cached no defect builds the translation's exact matrix again
        link_orbits(n, d)
        hamiltonian_link(n, d)
        calls = []
        for mod in (linkrep, transfer):
            if hasattr(mod, "omega_matrix"):
                build = getattr(mod, "omega_matrix")
                monkeypatch.setattr(mod, "omega_matrix", lambda *a, build=build: calls.append(a) or build(*a))
        for _ in range(3):
            assert translation_invariance_defect(n, d, lam, 0.45, 0.27) <= 1e-12
            assert expansion_defect(n, d, lam, 0.3) <= 1e-12
        assert not calls


class TestCoefficientMatrices:
    @pytest.mark.parametrize("n,d", SECTORS_TO_8)
    def test_t0_is_the_translation(self, n, d):
        assert transfer_coefficient(n, d, 0) == omega_matrix([("omega", 1)], n, d)

    @pytest.mark.parametrize("n,d", [(n, d) for n, d in SECTORS_TO_8 if n >= 2])
    def test_t1_is_translation_times_hamiltonian(self, n, d):
        expect = omega_matrix([("omega", 1)], n, d) @ hamiltonian_link(n, d)
        assert transfer_coefficient(n, d, 1) == expect

    @pytest.mark.parametrize("n,d", [(1, 1), (4, 0), (5, 3), (6, 2)])
    def test_table_matrix_at_a_unit_vector_evaluates_t_k(self, n, d):
        lam, mu = 0.8, 0.35
        u, v = cmath.exp(1j * lam / 2), cmath.exp(1j * mu)
        for k, unit in enumerate(np.eye(n + 1)):
            want = transfer_coefficient(n, d, k).to_numeric(u, v)
            got = table_matrix(n, d, unit, lam, mu)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestTransferTable:
    @pytest.mark.parametrize("n,d", SECTORS_TO_7)
    @pytest.mark.parametrize(
        "lam,nu,mu",
        [
            (1.1, 0.4, 0.3),  # real nu
            (0.9, 0.35 + 0.2j, -0.45),  # complex nu, negative mu
            (1.3, 0.0, 0.2),  # nu = 0: only the all-first-choice filling
            (1.3, 1.3, 0.2),  # nu = lam: only the all-second-choice filling
        ],
    )
    def test_matches_tile_sum(self, n, d, lam, nu, mu):
        got = transfer_matrix(n, d, lam, nu, mu)
        want = transfer_matrix_tilesum(n, d, lam, nu, mu)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,d", SECTORS_TO_8 + [(9, 1)])
    def test_matches_per_config_table(self, n, d):
        # same terms in the same order and dtype, so every float is bit-identical
        for got, want in zip(transfer_table(n, d), transfer_table_per_config(n, d)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_acts_once_per_rotation_orbit(self, monkeypatch):
        # 36 necklaces of 8 bits, plus Omega and Omega^-1, each on 70 states
        calls = []

        def counting(diag, w):
            calls.append(w)
            return act_on_link(diag, w)

        monkeypatch.setattr("eptl.transfer.act_on_link", counting)
        transfer_table.cache_clear()
        transfer_table(8, 0)
        assert 0 < len(calls) <= (36 + 2) * 70

    def test_arrays_are_read_only(self):
        keys, coeffs = transfer_table(5, 1)
        assert keys.dtype == coeffs.dtype == np.int64
        assert keys.shape == (len(coeffs), 6)
        for arr in (keys, coeffs):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_check_all_builds_the_table_once(self, capsys):
        transfer_table.cache_clear()
        argv = ["transfer", "--n", "6", "--d", "2", "--lambda", "1.1", "--nu", "0.4", "--check", "all"]
        assert main(argv) == 0
        assert transfer_table.cache_info().misses == 1
        assert transfer_table.cache_info().hits >= 6


class TestReflection:
    @pytest.mark.parametrize("n,d", SECTORS_TO_10)
    def test_mirror_permutation_is_the_reflection(self, n, d):
        p = mirror_permutation(n, d)
        assert np.array_equal(p[p], np.arange(len(p)))
        basis = enumerate_states(n, d)
        assert [basis[i] for i in p] == [reflect_state(w) for w in basis]
        if n <= 8:
            assert np.array_equal(reflection_permutation(n, d), np.eye(len(p))[p].T)

    def test_reflect_involution(self):
        for w in enumerate_states(6, 2):
            assert reflect_state(reflect_state(w)) == w

    def test_reflect_wrapping_arc(self):
        w = LinkState(4, [(2, 5), (3, 4)], [])
        assert reflect_state(w) == LinkState(4, [(1, 2), (4, 7)], [])
