import cmath
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import eptl
from eptl.linkrep import loop_weight
from eptl.ring import (
    ONE,
    GaussianInt,
    LaurentPoly,
    alpha_poly,
    beta_poly,
    bracket,
    packed,
    trig_cos,
    trig_sin,
)
from oracles import dense, div_terms, matmul_dense, mul_terms, u_pow


def _coeffs():
    small = st.integers(-20, 20)
    return st.builds(GaussianInt, small, small)


def _polys():
    term = st.tuples(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), _coeffs())
    return st.lists(term, max_size=6).map(
        lambda ts: sum(
            (LaurentPoly.monomial(e[0], e[1], c) for e, c in ts), LaurentPoly.zero()
        )
    )


def rand_poly(rng, n_terms=5, span=6):
    p = LaurentPoly.zero()
    for _ in range(n_terms):
        p = p + LaurentPoly.monomial(
            rng.randint(-span, span),
            rng.randint(-span, span),
            GaussianInt(rng.randint(-9, 9), rng.randint(-9, 9)),
        )
    return p


class TestArithmetic:
    def test_binomial_square(self):
        beta = beta_poly()
        expected = (
            u_pow(4) + LaurentPoly.const(2) + u_pow(-4)
        )
        assert beta * beta == expected

    def test_additive_identity(self):
        p = rand_poly(random.Random(0))
        assert p + LaurentPoly.zero() == p

    def test_alpha_sq_minus_cos_matches_bracket_product(self):
        # (v^4+v^-4)^2 - C_2^2 == <2>*<-2> at N=4, with C_2 = 2cos(2*Lam)
        n = 4
        a = alpha_poly(n)
        c2 = trig_cos(4)
        lhs = a * a - c2 * c2
        rhs = bracket(4, n) * bracket(-4, n)
        assert lhs == rhs

    @given(_polys(), _polys(), _polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(_polys(), _polys())
    @settings(max_examples=40, deadline=None)
    def test_exact_division_roundtrip(self, p, q):
        if q.is_zero():
            return
        assert (p * q).exact_div(q) == p

    def test_pow(self):
        b = beta_poly()
        assert b ** 0 == LaurentPoly.one()
        assert b ** 3 == b * b * b
        assert LaurentPoly.v_pow(2) ** -3 == LaurentPoly.v_pow(-6)


def long_gaussian_poly(rng, n_terms=24, span=9):
    """A polynomial with exactly ``n_terms`` terms, mostly non-real."""
    keys = set()
    while len(keys) < n_terms:
        keys.add((rng.randint(-span, span), rng.randint(-span, span)))
    return LaurentPoly(
        {e: GaussianInt(rng.choice((-3, -1, 1, 2, 70)), rng.randint(-5, 5) or 1) for e in keys}
    )


def fresh_packing(p):
    return packed(LaurentPoly(dict(p.terms)))


class TestPackedKernel:
    @given(_polys(), _polys())
    @settings(max_examples=80, deadline=None)
    def test_product_matches_tuple_oracle(self, a, b):
        assert a * b == mul_terms(a, b)

    def test_product_matches_tuple_oracle_on_long_gaussian_polys(self):
        rng = random.Random(15)
        for _ in range(30):
            a, b = long_gaussian_poly(rng), long_gaussian_poly(rng, n_terms=rng.randint(2, 30))
            assert len(a.terms) >= 20
            assert a * b == mul_terms(a, b)

    def test_product_matches_tuple_oracle_with_wide_exponents(self):
        big = 1 << 40  # u exponents are not bounded by the packing
        a = LaurentPoly({(big, 3): GaussianInt(2, -1), (-big, -(1 << 29)): GaussianInt(0, 5)})
        b = LaurentPoly({(7, (1 << 30) - 1): GaussianInt(-4), (-7, -(1 << 30)): GaussianInt(1, 1)})
        assert a * b == mul_terms(a, b)
        assert b * b == mul_terms(b, b)

    def test_matmul_matches_dense_oracle_on_gaussian_entries(self):
        rng = random.Random(16)

        def entry():
            if rng.random() < 0.3:
                return LaurentPoly.zero()
            return long_gaussian_poly(rng, n_terms=rng.randint(1, 6), span=3)

        for _ in range(12):
            r, k, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            a = dense([[entry() for _ in range(k)] for _ in range(r)])
            b = dense([[entry() for _ in range(c)] for _ in range(k)])
            assert a @ b == matmul_dense(a, b)

    def test_cache_matches_a_fresh_packing_and_leaves_terms_alone(self):
        shared = [ONE, loop_weight(2, 1, 3, 4), loop_weight(0, 2, -1, 5), beta_poly()]
        before = [dict(p.terms) for p in shared]
        m = dense([shared])
        m @ m.transpose()  # one entry summing four products packs every factor
        for p in shared[1:]:
            p * shared[1]
        for p, terms in zip(shared, before):
            assert p._packed is not None
            assert packed(p) == fresh_packing(p)
            assert p.terms == terms
        assert packed(ONE) == ((0, 1, 0),)

    def test_eq_and_hash_ignore_the_cache(self):
        p = long_gaussian_poly(random.Random(17))
        q = LaurentPoly(dict(p.terms))
        p * p
        assert p._packed is not None and q._packed is None
        assert p == q and hash(p) == hash(q)

    def test_hash_taken_before_packing_holds_after(self):
        p = long_gaussian_poly(random.Random(23))
        before = hash(p)
        packed(p)
        assert hash(p) == before
        q = LaurentPoly(dict(reversed(p.terms.items())))  # equal, built apart
        assert q == p and hash(q) == before

    @pytest.mark.parametrize("ev", [1 << 30, -(1 << 30) - 1, 1 << 40])
    def test_v_exponent_outside_packed_range_raises(self, ev):
        far = LaurentPoly({(0, ev): GaussianInt(1), (1, 0): GaussianInt(1)})
        with pytest.raises(ValueError, match="packed range"):
            far * beta_poly()
        m = dense([[far]])
        with pytest.raises(ValueError, match="packed range"):
            m @ m

    @pytest.mark.parametrize("ev", [(1 << 30) - 1, -(1 << 30)])
    def test_v_exponent_at_the_edge_of_the_range_decodes(self, ev):
        edge = LaurentPoly({(0, ev): GaussianInt(1), (1, 0): GaussianInt(0, 1)})
        square = edge * edge
        assert square == mul_terms(edge, edge)
        assert (0, 2 * ev) in square.terms


def division_outcome(divide, p, q):
    """The quotient, or "refused" when ``divide`` raises ValueError."""
    try:
        return divide(p, q)
    except ValueError:
        return "refused"


class TestExactDivision:
    @given(_polys(), _polys())
    @settings(max_examples=80, deadline=None)
    def test_matches_tuple_oracle_on_non_real_divisors(self, p, q):
        assume(any(c.im for c in q.terms.values()))
        assert (p * q).exact_div(q) == div_terms(p * q, q) == p

    @given(_polys(), _polys(), _polys())
    @settings(max_examples=80, deadline=None)
    def test_refuses_what_the_tuple_oracle_refuses(self, p, q, r):
        assume(not q.is_zero())
        a = p * q + r
        assert division_outcome(LaurentPoly.exact_div, a, q) == division_outcome(div_terms, a, q)

    @pytest.mark.parametrize(
        "num,den",
        [
            (LaurentPoly.const(3), LaurentPoly.const(2)),
            (LaurentPoly.monomial(1, 5) + LaurentPoly.v_pow(-5), ONE + LaurentPoly.v_pow(1)),
            (beta_poly() + LaurentPoly.const(GaussianInt(0, 1)), beta_poly()),
            (LaurentPoly.const(5), LaurentPoly.const(GaussianInt(1, 1))),
        ],
    )
    def test_both_refuse_fixed_inexact_inputs(self, num, den):
        assert division_outcome(LaurentPoly.exact_div, num, den) == "refused"
        assert division_outcome(div_terms, num, den) == "refused"

    @pytest.mark.parametrize("ev", [(1 << 29) - 1, -(1 << 29)])
    def test_roundtrip_with_v_exponents_near_the_packed_edge(self, ev):
        p = LaurentPoly({(0, ev): GaussianInt(2, 1), (3, -ev): GaussianInt(-1), (1, 1): GaussianInt(0, 4)})
        q = LaurentPoly({(1, ev): GaussianInt(1, -1), (0, 0): GaussianInt(3), (-2, 5): GaussianInt(0, 1)})
        assert (p * q).exact_div(q) == div_terms(p * q, q) == p

    def test_v_exponent_outside_packed_range_raises(self):
        far = LaurentPoly({(0, 1 << 30): GaussianInt(1), (1, 0): GaussianInt(1)})
        with pytest.raises(ValueError, match="packed range"):
            far.exact_div(beta_poly())
        with pytest.raises(ValueError, match="packed range"):
            beta_poly().exact_div(far)


class TestEval:
    def test_beta_at_sixth_root(self):
        u = cmath.exp(1j * math.pi / 6)
        val = beta_poly().eval_numeric(u, 1.0 + 0j)
        assert abs(val - 1.0) < 1e-12

    def test_zero(self):
        assert LaurentPoly.zero().eval_numeric(2j, 3.0) == 0j

    def test_zero_substitution_rejected(self):
        with pytest.raises(ValueError):
            beta_poly().eval_numeric(0, 1)

    def test_homomorphism_random(self):
        rng = random.Random(7)
        for _ in range(20):
            p, q = rand_poly(rng), rand_poly(rng)
            u = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            v = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            lhs = (p * q).eval_numeric(u, v)
            rhs = p.eval_numeric(u, v) * q.eval_numeric(u, v)
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-12 * scale


class TestTrig:
    def test_beta_is_minus_two_c1(self):
        # beta = -2cos(Lam) = -C_1
        assert beta_poly() == -trig_cos(2)

    def test_bracket_zero(self):
        for n in (2, 5, 8):
            assert bracket(0, n) == LaurentPoly.v_pow(n) - LaurentPoly.v_pow(-n)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_bracket_pair_identity(self, n):
        # <x><-x> == alpha^2 - C_x^2 for integer and half-integer x
        a2 = alpha_poly(n) * alpha_poly(n)
        for two_x in range(1, 12):
            c = trig_cos(two_x)
            lhs = bracket(two_x, n) * bracket(-two_x, n)
            assert lhs == a2 - c * c

    def test_trig_numeric_match(self):
        rng = random.Random(3)
        for _ in range(10):
            lam = rng.uniform(0.1, 3.0)
            big_lam = math.pi - lam
            u = cmath.exp(1j * lam / 2)
            for two_k in range(0, 9):
                k = two_k / 2
                s_k, c_k = 2j * math.sin(k * big_lam), 2 * math.cos(k * big_lam)
                assert abs(trig_sin(two_k).eval_numeric(u, 1) - s_k) < 1e-12
                assert abs(trig_cos(two_k).eval_numeric(u, 1) - c_k) < 1e-12

    def test_bracket_numeric_sign_convention(self):
        # <x> at u=e^{i lam/2}, v=e^{i mu} equals -(-1)^{2x} * 2i sin(Lam*x - mu*N)
        rng = random.Random(5)
        n = 6
        for _ in range(10):
            lam = rng.uniform(0.1, 3.0)
            mu = rng.uniform(0.0, 1.0)
            big_lam = math.pi - lam
            u, v = cmath.exp(1j * lam / 2), cmath.exp(1j * mu)
            for two_x in range(1, 8):
                x = two_x / 2
                got = bracket(two_x, n).eval_numeric(u, v)
                want = -((-1) ** two_x) * 2j * math.sin(big_lam * x - mu * n)
                assert abs(got - want) < 1e-12


class TestGaussianIntegers:
    @pytest.mark.parametrize("part", [Fraction(1, 2), 0.5])
    def test_non_integer_parts_refused(self, part):
        with pytest.raises(TypeError):
            GaussianInt(part)
        with pytest.raises(TypeError):
            GaussianInt(0, part)

    def test_json_with_rational_coefficient_refused(self):
        d = {"terms": [{"eu": 0, "ev": 0, "re": "1/2", "im": "0"}]}
        with pytest.raises(ValueError):
            LaurentPoly.from_json_dict(d)

    def test_exact_gaussian_division(self):
        assert GaussianInt(5) / GaussianInt(2, 1) == GaussianInt(2, -1)
        assert GaussianInt(3, 1) / GaussianInt(0, 1) == GaussianInt(1, -3)
        with pytest.raises(ValueError):
            GaussianInt(3) / GaussianInt(2)
        with pytest.raises(ZeroDivisionError):
            GaussianInt(3) / GaussianInt(0)

    def test_exact_div_refuses_a_quotient_outside_the_ring(self):
        with pytest.raises(ValueError):
            LaurentPoly.const(3).exact_div(LaurentPoly.const(2))
        with pytest.raises(ValueError):
            (beta_poly() * LaurentPoly.const(3)).exact_div(beta_poly() * LaurentPoly.const(2))

    def test_cli_import_leaves_fractions_unloaded(self):
        src = str(Path(eptl.__file__).resolve().parents[1])
        code = "import sys, eptl.cli; assert 'fractions' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True, cwd=src)


class TestJson:
    def test_roundtrip_and_order(self):
        p = rand_poly(random.Random(11))
        d = p.to_json_dict()
        keys = [(t["eu"], t["ev"]) for t in d["terms"]]
        assert keys == sorted(keys)
        assert LaurentPoly.from_json_dict(d) == p

    @given(_polys())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, p):
        assert LaurentPoly.from_json_dict(p.to_json_dict()) == p

