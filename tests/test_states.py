import pytest
from math import comb

from eptl.states import (
    LinkState,
        arc_span_sum,
    bijection_C,
    bijection_C_inverse,
    enumerate_states,
    index_table,
    module_dim,
    paths_and_height,
    standard_dim,
    standard_states,
    state_code,
)
from oracles import stratum


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(1, 13) for d in range(n % 2, n + 1, 2)]
    )
    def test_counts(self, n, d):
        states = enumerate_states(n, d)
        assert len(states) == comb(n, (n - d) // 2)
        assert len(set(states)) == len(states)

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(0, 11) for d in range(n % 2, n + 1, 2)])
    def test_index_table_keys_the_walk_steps(self, n, d):
        basis = enumerate_states(n, d)
        table = index_table(n, d)
        assert len(table) == len(basis)
        for k, w in enumerate(basis):
            code = sum(1 << (i - 1) for i, step in enumerate(w.walk_steps(), start=1) if step == 1)
            assert state_code(w) == code
            assert table[code][0] == k and table[code][1] is w

    def test_four_zero(self):
        states = enumerate_states(4, 0)
        assert len(states) == 6
        assert len(stratum(4, 0, 0)) == 2

    def test_all_defects(self):
        (w,) = enumerate_states(4, 4)
        assert w.pairs == () and w.defects == (1, 2, 3, 4)

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            enumerate_states(4, 1)

    def test_eight_two_strata(self):
        states = enumerate_states(8, 2)
        assert len(states) == 56
        for r in range(4):
            assert len(stratum(8, 2, r)) == standard_dim(8, 2 + 2 * r)

    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(1, 13) for d in range(n % 2, n + 1, 2)]
    )
    def test_stratum_sizes(self, n, d):
        for r in range((n - d) // 2 + 1):
            expect = comb(n, (n - d) // 2 - r) - (
                comb(n, (n - d) // 2 - r - 1) if (n - d) // 2 - r - 1 >= 0 else 0
            )
            assert len(stratum(n, d, r)) == expect == standard_dim(n, d + 2 * r)

    def test_order_is_by_r_then_lex(self):
        states = enumerate_states(6, 0)
        rs = [w.boundary_arcs for w in states]
        assert rs == sorted(rs)
        for r in set(rs):
            block = [w.pairs for w in states if w.boundary_arcs == r]
            assert block == sorted(block)


class TestValidation:
    def test_crossing_rejected(self):
        with pytest.raises(ValueError):
            LinkState(4, [(1, 3), (2, 4)], [])

    def test_defect_under_arc_rejected(self):
        with pytest.raises(ValueError):
            LinkState(4, [(1, 4)], [2, 3])
        # but nested valid configuration passes
        LinkState(4, [(1, 4), (2, 3)], [])

    def test_double_use_rejected(self):
        with pytest.raises(ValueError):
            LinkState(4, [(1, 2)], [2, 3, 4])


class TestBijectionC:
    def test_r0_fixed(self):
        for w in standard_states(6, 2):
            assert bijection_C(w) == w

    def test_eight_site_paper_example(self):
        # boundary arc (8,9): endpoints 8 and 1 become defects
        w = LinkState(8, [(3, 6), (4, 5), (8, 9)], [2, 7])
        cw = bijection_C(w)
        assert cw == LinkState(8, [(3, 6), (4, 5)], [1, 2, 7, 8])

    @pytest.mark.parametrize("n,d", [(6, 0), (6, 2), (7, 1), (8, 2)])
    def test_roundtrip_and_image(self, n, d):
        for w in enumerate_states(n, d):
            r = w.boundary_arcs
            cw = bijection_C(w)
            assert cw.n_defects == d + 2 * r
            assert cw.boundary_arcs == 0
            assert bijection_C_inverse(cw, r) == w

    def test_injective_onto_standard(self):
        for r in range(4):
            block = stratum(6, 0, r)
            images = {bijection_C(w) for w in block}
            assert len(images) == len(block)
            assert images == set(standard_states(6, 2 * r))


class TestPaths:
    def test_figure_example(self):
        w = LinkState(12, [(2, 3), (6, 9), (7, 8), (11, 16), (12, 13)], [5, 10])
        assert arc_span_sum(w) == 11
        bp, bm, hp, hm = paths_and_height(w)
        assert (hp, hm) == (-2, -24)
        assert w.boundary_arcs == 2
        assert (hp + hm) // 2 + 12 * 2 == 11

    def test_all_defects_mirror(self):
        (w,) = enumerate_states(5, 5)
        bp, bm, hp, hm = paths_and_height(w)
        assert hp == -hm
        assert arc_span_sum(w) == 0 == (hp + hm) // 2

    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(1, 11) for d in range(n % 2, n + 1, 2)]
    )
    def test_span_lemma(self, n, d):
        # sum of arc spans = (H+ + H-)/2 + n*r for every state
        for w in enumerate_states(n, d):
            bp, bm, hp, hm = paths_and_height(w)
            assert bp.endpoint == d and bm.endpoint == -d
            assert arc_span_sum(w) * 2 == hp + hm + 2 * n * w.boundary_arcs

    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(1, 11) for d in range(n % 2, n + 1, 2)]
    )
    def test_height_sum_vanishes(self, n, d):
        total = 0
        for w in enumerate_states(n, d):
            _, _, hp, hm = paths_and_height(w)
            total += hp + hm
        assert total == 0

    def test_paths_differ_only_at_defects(self):
        for w in enumerate_states(6, 2):
            bp, bm, _, _ = paths_and_height(w)
            diff = [i + 1 for i, (a, b) in enumerate(zip(bp.steps, bm.steps)) if a != b]
            assert tuple(diff) == w.defects


class TestAscii:
    def test_markers(self):
        w = LinkState(4, [(2, 5), (3, 4)], [])
        s = w.ascii()
        assert len(s) == 4
        assert s == "><()"

    def test_module_dim_helpers(self):
        assert module_dim(4, 0) == 6
        assert standard_dim(4, 0) == 2
        assert module_dim(5, 3) == 5
