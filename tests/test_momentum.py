import cmath
import math
import random

import numpy as np
import pytest

from eptl import intertwiner as itw
from eptl import verify as vfy
from eptl.linkrep import RingMatrix, link_orbits, omega_matrix
from eptl.momentum import Orbits, blocks, check_covariant
from eptl.ring import ONE, LaurentPoly
from eptl.spinrep import spin_orbits
from oracles import min_singular_scaled, momentum_basis, sorted_spectra_dense


def sectors(n_max, n_min=2):
    return [(n, d) for n in range(n_min, n_max + 1) for d in range(n % 2, n + 1, 2)]


def points(n, d, count=2):
    rng = random.Random(1000 * n + d)
    return [(rng.uniform(0.3, 2.7), rng.uniform(0.05, 0.9)) for _ in range(count)]


class TestOrbits:
    @pytest.mark.parametrize("n,d", sectors(8))
    @pytest.mark.parametrize("side", [link_orbits, spin_orbits])
    def test_orbits_partition_the_basis_under_the_permutation(self, side, n, d):
        orbits = side(n, d)
        members = np.concatenate([g.ravel() for g in orbits.groups.values()])
        assert sorted(members) == list(range(len(orbits.perm)))
        for L, g in orbits.groups.items():
            assert n % L == 0
            assert all(orbits.perm[a] == b for row in g for a, b in zip(row, np.roll(row, -1)))

    @pytest.mark.parametrize("n,d", sectors(8, 1))
    @pytest.mark.parametrize("side", [link_orbits, spin_orbits])
    def test_powers_are_the_powers_of_the_permutation(self, side, n, d):
        orbits = side(n, d)
        identity = list(range(len(orbits.perm)))
        power = identity
        assert len(orbits.powers) == n
        for r in range(n):
            assert orbits.powers[r].tolist() == power
            assert orbits.powers[r][orbits.powers[-r]].tolist() == identity
            power = [orbits.perm[k] for k in power]

    @pytest.mark.parametrize(
        "n,d,side", [(6, 0, link_orbits), (8, 0, link_orbits), (9, 3, spin_orbits), (6, 6, spin_orbits)]
    )
    def test_sectors_with_orbits_shorter_than_n(self, n, d, side):
        assert min(side(n, d).groups) < n

    def test_non_monomial_translation_is_refused(self):
        with pytest.raises(ValueError):
            Orbits(omega_matrix([("e", 1)], 4, 0), 4)

    def test_two_monomials_are_refused(self):
        m = RingMatrix([{1: ONE}, {0: LaurentPoly.v_pow(1)}], [0, 1], [0, 1])
        with pytest.raises(ValueError):
            Orbits(m, 2)

    def test_a_sum_of_monomials_is_refused(self):
        two = ONE + LaurentPoly.v_pow(1)
        with pytest.raises(ValueError):
            Orbits(RingMatrix([{1: two}, {0: two}], [0, 1], [0, 1]), 2)


class TestCovariance:
    @pytest.mark.parametrize("n,d", [(4, 0), (5, 1), (6, 2)])
    def test_a_single_generator_is_refused(self, n, d):
        orbits = link_orbits(n, d)
        with pytest.raises(ValueError):
            check_covariant(omega_matrix([("e", 1)], n, d), orbits, orbits)


class TestBlocks:
    @pytest.mark.parametrize("n,d", [(4, 0), (6, 0), (6, 2), (5, 5), (8, 0), (9, 3)])
    def test_blocks_are_the_dense_change_of_basis(self, n, d):
        lam, mu = points(n, d, 1)[0]
        u, v = cmath.exp(1j * lam / 2), cmath.exp(1j * mu)
        rows, cols = spin_orbits(n, d), link_orbits(n, d)
        mat = itw.i_matrix_numeric(n, d, u, v)
        full_r = np.hstack([momentum_basis(rows, m) for m in range(n)])
        assert np.allclose(full_r.conj().T @ full_r, np.eye(len(mat)), atol=1e-12)
        for m, block in enumerate(blocks(itw.i_matrix_numeric(n, d, u, v, cols.reps), rows, cols)):
            expect = momentum_basis(rows, m).conj().T @ mat @ momentum_basis(cols, m)
            assert block.shape == expect.shape
            assert np.max(np.abs(block - expect), initial=0.0) < 1e-12 * np.max(np.abs(mat))

    @pytest.mark.parametrize("n,d", sectors(9))
    def test_block_spectra_match_the_dense_spectra(self, n, d):
        for lam, mu in points(n, d):
            got, expect = vfy.sorted_spectra(n, d, lam, mu), sorted_spectra_dense(n, d, lam, mu)
            for g, e in zip(got, expect):
                assert g.shape == e.shape
                assert np.max(np.abs(g - e)) < 1e-10

    @pytest.mark.parametrize("n,d", sectors(8))
    def test_block_singular_value_matches_the_dense_one(self, n, d):
        for lam, mu in points(n, d):
            u, v = cmath.exp(1j * lam / 2), cmath.exp(1j * mu)
            expect = min_singular_scaled(itw.i_matrix_numeric(n, d, u, v))
            assert abs(itw.min_singular_value(n, d, u, v) - expect) <= 1e-9 * expect

    @pytest.mark.parametrize("n,d", [(6, 2), (7, 1)])
    def test_only_the_representatives_columns_are_evaluated(self, n, d, monkeypatch):
        link, spin = link_orbits(n, d), spin_orbits(n, d)
        evaluate = RingMatrix.to_numeric
        asked = []

        def recorded(self, u, v, cols=None):
            asked.append(None if cols is None else list(cols))
            return evaluate(self, u, v, cols)

        monkeypatch.setattr(RingMatrix, "to_numeric", recorded)
        (lam, mu), = points(n, d, 1)
        vfy.sorted_spectra(n, d, lam, mu)
        itw.critical_scan(n, d, [lam], [mu, 2 * mu])
        assert asked == [list(link.reps), list(spin.reps)] + [list(link.reps)] * 2

    def test_on_curve_point_is_singular_in_both(self):
        lam, mu = math.pi / 2, math.pi / 4
        u, v = cmath.exp(1j * lam / 2), cmath.exp(1j * mu)
        assert min(abs(x) for x in itw.bracket_values(4, 2, lam, mu)) < 1e-12
        assert itw.min_singular_value(4, 2, u, v) < 1e-8
        assert min_singular_scaled(itw.i_matrix_numeric(4, 2, u, v)) < 1e-8

    @pytest.mark.parametrize("n,d", [(4, 2), (6, 0), (6, 2), (8, 0)])
    def test_scan_flags_match_the_dense_singular_values(self, n, d):
        lams = [math.pi / 2, 0.3, 1.2, 2.8]
        mus = [math.pi / 4, 0.0, 0.4, 1.2]
        for row in itw.critical_scan(n, d, lams, mus):
            u, v = cmath.exp(1j * row["lambda"] / 2), cmath.exp(1j * row["mu"])
            dense = min_singular_scaled(itw.i_matrix_numeric(n, d, u, v))
            assert row["observed_critical"] == (dense < 1e-8)
            assert row["observed_critical"] == row["predicted_critical"]
