import random

import pytest

from eptl.diagrams import (
    act_on_link,
    compose,
    generator_diagram,
    identity_diagram,
    word_diagram,
)
from eptl.linkrep import state_diagram
from eptl.states import LinkState, enumerate_states
from eptl.transfer import tile_diagram
from oracles import act_on_link_dicts, arc_partner, compose_dicts, conn_view, from_conn


def e(i, n):
    return generator_diagram("e", n, i)


def om(n, sign=1):
    return generator_diagram("omega" if sign > 0 else "omega_inv", n)


class TestGenerators:
    def test_identity(self):
        d = identity_diagram(4)
        assert conn_view(d)[("b", 2)] == (("t", 2), 0)
        assert d.nbeta == d.nalpha == 0

    def test_e_wraps(self):
        conn = conn_view(e(4, 4))
        assert conn[("t", 4)] == (("t", 1), -1)
        assert conn[("b", 4)] == (("b", 1), -1)

    def test_omega_inverse_pair(self):
        n = 5
        assert compose(om(n, -1), om(n)) == identity_diagram(n)
        assert compose(om(n), om(n, -1)) == identity_diagram(n)


class TestRelations:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_tl_relations(self, n):
        for i in range(1, n + 1):
            ei = e(i, n)
            sq = compose(ei, ei)
            assert sq.same_connectivity(ei) and (sq.nbeta, sq.nalpha) == (1, 0)
            for j in range(1, n + 1):
                gap = min((i - j) % n, (j - i) % n)
                if gap > 1:
                    assert compose(e(j, n), ei) == compose(ei, e(j, n))
            for j in ((i % n) + 1, (i - 2) % n + 1):
                if n > 2:
                    # e_i e_j e_i = e_i for j = i +- 1
                    w = word_diagram([("e", i), ("e", j), ("e", i)], n)
                    assert w == e(i, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_translation_conjugation(self, n):
        for i in range(1, n + 1):
            lhs = word_diagram([("omega", 1), ("e", i), ("omega", -1)], n)
            assert lhs == e((i - 2) % n + 1, n)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_braid_like_relation(self, n, sign):
        lhs = word_diagram([("omega", sign), ("e", n)] * (n - 1), n)
        rhs = word_diagram([("omega", sign)] * n + [("omega", sign), ("e", n)], n)
        assert lhs == rhs

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_en_omega_sandwich(self, n):
        for j in range(2, n - 1):
            a = word_diagram(
                [("e", n)] + [("omega", 1)] * j + [("e", n)] + [("omega", -1)] * j, n
            )
            b = word_diagram(
                [("omega", 1)] * j + [("e", n)] + [("omega", -1)] * j + [("e", n)], n
            )
            assert a == b
        for sign in (1, -1):
            lhs = word_diagram(
                [("e", n), ("omega", -sign), ("e", n), ("omega", sign), ("e", n)], n
            )
            assert lhs == e(n, n)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_even_sandwich_closes_noncontractible(self, n):
        evens = [("e", i) for i in range(2, n + 1, 2)]
        for sign in (1, -1):
            lhs = word_diagram(evens + [("omega", sign)] + evens, n)
            ref = word_diagram(evens, n)
            assert lhs.same_connectivity(ref)
            assert (lhs.nbeta, lhs.nalpha) == (ref.nbeta, ref.nalpha + 1)


class TestPaperComposition:
    def _c_top(self):
        # the 8-site connectivity displayed with the product definition
        conn_pairs = [
            (("t", 8), ("t", 1), -1),
            (("t", 5), ("t", 6), 0),
            (("t", 7), ("t", 2), -1),
            (("t", 3), ("b", 1), 0),
            (("t", 4), ("b", 8), 0),
            (("b", 3), ("b", 4), 0),
            (("b", 5), ("b", 6), 0),
            (("b", 2), ("b", 7), 0),
        ]
        conn = {}
        for a, b, s in conn_pairs:
            conn[a] = (b, s)
            conn[b] = (a, -s)
        return from_conn(8, conn)

    def _c_bottom(self):
        conn_pairs = [
            (("t", 3), ("t", 4), 0),
            (("t", 8), ("t", 1), -1),
            (("t", 7), ("t", 2), -1),
            (("t", 6), ("t", 5), -1),  # the long way around
            (("b", 1), ("b", 2), 0),
            (("b", 4), ("b", 5), 0),
            (("b", 7), ("b", 8), 0),
            (("b", 3), ("b", 6), 0),
        ]
        conn = {}
        for a, b, s in conn_pairs:
            conn[a] = (b, s)
            conn[b] = (a, -s)
        return from_conn(8, conn)

    def test_product_closes_two_noncontractible_and_one_contractible(self):
        result = compose(top=self._c_top(), bottom=self._c_bottom())
        assert (result.nbeta, result.nalpha) == (1, 2)
        # the displayed outcome has no through lines
        conn = conn_view(result)
        assert all(a[0] == b[0] for a, (b, _) in conn.items())
        expect = {
            (("t", 5), ("t", 6)): 0,
            (("t", 8), ("t", 1)): -1,
            (("t", 7), ("t", 2)): -1,
            (("t", 4), ("t", 3)): -1,
            (("b", 1), ("b", 2)): 0,
            (("b", 4), ("b", 5)): 0,
            (("b", 7), ("b", 8)): 0,
            (("b", 3), ("b", 6)): 0,
        }
        for (a, b), s in expect.items():
            assert conn[a] == (b, s)


class TestAction:
    def _sec21_diagram(self):
        return TestPaperComposition()._c_top()

    def test_first_action_example(self):
        w = LinkState(8, [(1, 2), (5, 6), (7, 8)], [3, 4])
        res = act_on_link(self._sec21_diagram(), w)
        assert res is not None
        assert (res.nbeta, res.nalpha, res.twist) == (2, 0, -2)
        assert enumerate_states(8, 2)[res.index] == LinkState(8, [(2, 7), (3, 4), (5, 6)], [1, 8])

    def test_second_action_example_vanishes(self):
        w = LinkState(8, [(1, 2), (7, 8)], [3, 4, 5, 6])
        assert act_on_link(self._sec21_diagram(), w) is None

    def test_third_action_example(self):
        w = LinkState(8, [(1, 8), (2, 7), (3, 4), (5, 6)], [])
        res = act_on_link(self._sec21_diagram(), w)
        assert (res.nbeta, res.nalpha, res.twist) == (1, 2, 0)
        assert enumerate_states(8, 0)[res.index] == LinkState(8, [(1, 8), (2, 7), (3, 4), (5, 6)], [])

    @pytest.mark.parametrize("n,d", [(4, 2), (5, 1), (6, 2), (7, 3)])
    def test_translation_twist(self, n, d):
        basis = enumerate_states(n, d)
        for k, w in enumerate(basis):
            res = act_on_link(om(n), w)
            assert res is not None
            assert (res.nbeta, res.nalpha) == (0, 0)
            assert res.twist == d
            back = act_on_link(om(n, -1), basis[res.index])
            assert back.index == k and back.twist == -d

    def test_defect_connection_rule(self):
        # e_3 e_1 and e_1 e_3 join the two defects of this state, so both
        # composite orders annihilate it
        w = LinkState(4, [(2, 3)], [1, 4])
        d31 = word_diagram([("e", 3), ("e", 1)], 4)
        d13 = word_diagram([("e", 1), ("e", 3)], 4)
        assert d31 == d13
        assert act_on_link(d31, w) is None and act_on_link(d13, w) is None

    def test_omega_n_returns_identity_with_full_twist(self):
        n, d = 5, 3
        diag = word_diagram([("omega", 1)] * n, n)
        for k, w in enumerate(enumerate_states(n, d)):
            res = act_on_link(diag, w)
            assert res.index == k
            assert res.twist == n * d


class TestActionResultsAreValid:
    """``act_on_link`` looks its result's basis index up by the code it
    walks, with no validation, so the state at every index is validated
    here."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_every_result_validates(self, n):
        states = [w for d in range(n % 2, n + 1, 2) for w in enumerate_states(n, d)]
        diagrams = [tile_diagram(n, config) for config in range(1 << n)]
        diagrams += [identity_diagram(n), generator_diagram("omega", n), generator_diagram("omega_inv", n)]
        if n >= 2:
            diagrams += [e(i, n) for i in range(1, n + 1)]
        diagrams += [state_diagram(w) for w in states]
        results = 0
        for diag in diagrams:
            for w in states:
                res = act_on_link(diag, w)
                if res is not None:
                    s = enumerate_states(n, len(res.travel))[res.index]
                    LinkState(n, s.pairs, s.defects)  # raises on an invalid state
                    results += 1
        assert results >= len(diagrams)


def random_words(n, count, seed):
    """``count`` seeded words of 1-8 tokens on n sites."""
    rng = random.Random(seed)
    tokens = [("omega", 1), ("omega", -1)] + ([("e", i) for i in range(1, n + 1)] if n >= 2 else [])
    return [[rng.choice(tokens) for _ in range(rng.randint(1, 8))] for _ in range(count)]


def word_dicts(word, n):
    """The word's diagram composed on the dict oracle, from the identity up."""
    diag = identity_diagram(n)
    for kind, arg in word:
        top = generator_diagram(kind, n, arg) if kind == "e" else om(n, arg)
        diag = compose_dicts(top=top, bottom=diag)
    return diag


def assert_involution(to, cr, nodes):
    """The properties of every flat table: ``to`` pairs each node with a
    partner that points back, and the crossings change sign on the way back."""
    for x in nodes:
        assert to[to[x]] == x
        assert cr[to[x]] == -cr[x]


class TestFlatWalksAgainstDictOracles:
    """``act_on_link`` and ``compose`` walk flat int tables; the oracles walk
    the tagged-tuple dicts that the tables replaced."""

    @staticmethod
    def diagrams(n):
        words = random_words(n, 24, seed=2200 + n)
        out = [om(n), om(n, -1)] + ([e(i, n) for i in range(1, n + 1)] if n >= 2 else [])
        out += [word_diagram(w, n) for w in words]
        out += [tile_diagram(n, c) for c in range(1 << n)]
        out += [state_diagram(w) for d in range(n % 2, n + 1, 2) for w in enumerate_states(n, d)]
        return words, out

    @pytest.mark.parametrize("n", range(1, 9))
    def test_words_match_the_dict_composition(self, n):
        for word in random_words(n, 24, seed=2200 + n):
            got, expect = word_diagram(word, n), word_dicts(word, n)
            assert conn_view(got) == conn_view(expect)
            assert (got.nbeta, got.nalpha) == (expect.nbeta, expect.nalpha)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_act_matches_the_dict_walk(self, n):
        states = [w for d in range(n % 2, n + 1, 2) for w in enumerate_states(n, d)]
        _, diagrams = self.diagrams(n)
        null = 0
        for diag in diagrams:
            for w in states:
                got, expect = act_on_link(diag, w), act_on_link_dicts(diag, w)
                assert got == expect
                null += got is None
        assert (null or n == 1) and null < len(diagrams) * len(states)  # one defect joins no other

    @pytest.mark.parametrize("n", range(1, 9))
    def test_results_land_on_basis_indices(self, n):
        words, _ = self.diagrams(n)
        diagrams = [om(n), om(n, -1)] + [e(i, n) for i in range(1, n + 1) if n >= 2]
        diagrams += [word_diagram(w, n) for w in words]
        for d in range(n % 2, n + 1, 2):
            basis = enumerate_states(n, d)
            for diag in diagrams:
                for w in basis:
                    res = act_on_link(diag, w)
                    if res is None:
                        continue
                    expect = act_on_link_dicts(diag, w)  # looks its state up in the basis
                    assert (res.index, res.twist) == (expect.index, expect.twist)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_compose_matches_the_dict_walk(self, n):
        _, diagrams = self.diagrams(n)
        gens = diagrams[: n + 2 if n >= 2 else 2]
        rng = random.Random(2300 + n)
        pairs = [(a, b) for a in diagrams for b in gens]
        pairs += [(b, a) for a in diagrams for b in gens]
        pairs += [(a, a) for a in diagrams]
        pairs += [(rng.choice(diagrams), rng.choice(diagrams)) for _ in range(400)]
        loops = [0, 0]
        for top, bottom in pairs:
            got, expect = compose(top=top, bottom=bottom), compose_dicts(top=top, bottom=bottom)
            assert conn_view(got) == conn_view(expect)
            assert (got.nbeta, got.nalpha) == (expect.nbeta, expect.nalpha)
            assert (got.to, got.cr) == (expect.to, expect.cr)
            assert_involution(got.to, got.cr, range(1, 2 * n + 1))
            loops[0] += got.nbeta > top.nbeta + bottom.nbeta
            loops[1] += got.nalpha > top.nalpha + bottom.nalpha
        # an odd n leaves a through line, so no loop winds the cylinder
        assert (loops[0] or n == 1) and (loops[1] or n % 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_tables_are_involutions(self, n):
        _, diagrams = self.diagrams(n)
        for diag in diagrams:
            assert_involution(diag.to, diag.cr, range(1, 2 * n + 1))
        for d in range(n % 2, n + 1, 2):
            for w in enumerate_states(n, d):
                partner, crossing = w.arcs()
                assert {i: (partner[i], crossing[i]) for i in range(1, n + 1) if partner[i]} == arc_partner(w)
                assert_involution(partner, crossing, [i for i in range(1, n + 1) if partner[i]])

    def test_conn_view_round_trips(self):
        for diag in self.diagrams(6)[1]:
            again = from_conn(6, conn_view(diag), diag.nbeta, diag.nalpha)
            assert again == diag and hash(again) == hash(diag)
