import cmath
import math
import random

import numpy as np
import pytest

from eptl.diagrams import generator_diagram
from eptl.linkrep import omega_matrix_numeric
from eptl.states import LinkState, enumerate_states
from eptl.transfer import (
    commuting_family_defect,
    crossing_defect,
    expansion_defect,
    reflect_state,
    tile_diagram,
    transfer_matrix,
    translation_invariance_defect,
)
from oracles import _tile_diagram_sequential


class TestTiles:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_uniform_fillings_are_translations(self, n):
        assert tile_diagram(n, 0) == generator_diagram("omega", n)
        assert tile_diagram(n, (1 << n) - 1) == generator_diagram("omega_inv", n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_two_constructions_agree(self, n):
        for config in range(1 << n):
            assert tile_diagram(n, config) == _tile_diagram_sequential(n, config)

    def test_single_flip_is_translation_times_generator(self):
        from eptl.diagrams import word_diagram

        n = 5
        for i in range(1, n + 1):
            assert tile_diagram(n, 1 << (i - 1)) == word_diagram(
                [("omega", 1), ("e", i)], n
            )


class TestTransferProperties:
    def test_zero_anisotropy(self):
        lam, mu = math.pi / 3, 0.3
        t = transfer_matrix(4, 2, lam, 0.0, mu)
        om = omega_matrix_numeric(
            [("omega", 1)], 4, 2, cmath.exp(1j * lam / 2), cmath.exp(1j * mu)
        )
        assert np.max(np.abs(t - math.sin(lam) ** 4 * om)) < 1e-13

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

    @pytest.mark.parametrize(
        "n,d,lam", [(4, 2, math.pi / 3), (5, 1, 0.7), (6, 0, 1.1), (8, 2, 0.9)]
    )
    def test_anisotropy_expansion(self, n, d, lam):
        assert expansion_defect(n, d, lam, 0.3) < 1e-5


class TestReflection:
    def test_reflect_involution(self):
        for w in enumerate_states(6, 2):
            assert reflect_state(reflect_state(w)) == w

    def test_reflect_wrapping_arc(self):
        w = LinkState(4, [(2, 5), (3, 4)], [])
        assert reflect_state(w) == LinkState(4, [(1, 2), (4, 7)], [])
