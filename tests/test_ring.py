import cmath
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from eptl.ring import (
    GaussianRational,
    LaurentPoly,
    RingFraction,
    alpha_poly,
    beta_poly,
    bracket,
    clear_denominators,
    sum_fractions_cleared,
    trig_cos,
    trig_sin,
)


def _coeffs():
    small = st.fractions(min_value=-20, max_value=20, max_denominator=7)
    return st.builds(GaussianRational, small, small)


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
            GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9)),
        )
    return p


class TestArithmetic:
    def test_binomial_square(self):
        beta = beta_poly()
        expected = (
            LaurentPoly.u_pow(4) + LaurentPoly.const(2) + LaurentPoly.u_pow(-4)
        )
        assert beta * beta == expected

    def test_additive_identity(self):
        p = rand_poly(random.Random(0))
        assert p + LaurentPoly.zero() == p

    def test_alpha_sq_minus_cos_matches_bracket_product(self):
        # (v^4+v^-4)^2 - 4*C_2^2 == <2>*<-2> at N=4
        n = 4
        a = alpha_poly(n)
        c2 = trig_cos(4)
        lhs = a * a - (c2 * c2).scale(GaussianRational(4))
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
        assert beta_poly() == trig_cos(2).scale(GaussianRational(-2))

    def test_bracket_zero(self):
        for n in (2, 5, 8):
            assert bracket(0, n) == LaurentPoly.v_pow(n) - LaurentPoly.v_pow(-n)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_bracket_pair_identity(self, n):
        # <x><-x> == alpha^2 - 4 C_x^2 for integer and half-integer x
        a2 = alpha_poly(n) * alpha_poly(n)
        for two_x in range(1, 12):
            c = trig_cos(two_x)
            lhs = bracket(two_x, n) * bracket(-two_x, n)
            assert lhs == a2 - (c * c).scale(GaussianRational(4))

    def test_trig_numeric_match(self):
        rng = random.Random(3)
        for _ in range(10):
            lam = rng.uniform(0.1, 3.0)
            big_lam = math.pi - lam
            u = cmath.exp(1j * lam / 2)
            for two_k in range(0, 9):
                k = two_k / 2
                assert abs(trig_sin(two_k).eval_numeric(u, 1) - math.sin(k * big_lam)) < 1e-12
                assert abs(trig_cos(two_k).eval_numeric(u, 1) - math.cos(k * big_lam)) < 1e-12

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


class TestFraction:
    def test_cross_multiplied_equality(self):
        b = beta_poly()
        f = RingFraction(b * b, b)
        assert f == RingFraction.from_poly(b)

    def test_monomial_content_stripped(self):
        num = LaurentPoly.monomial(3, 2) * beta_poly()
        den = LaurentPoly.monomial(3, 2) * alpha_poly(4)
        f = RingFraction(num, den)
        mins = min(f.num.min_exponents(), f.den.min_exponents())
        assert min(f.num.min_exponents()[0], f.den.min_exponents()[0]) == 0
        assert min(f.num.min_exponents()[1], f.den.min_exponents()[1]) == 0
        assert f == RingFraction(beta_poly(), alpha_poly(4))

    def test_wenzl_coefficient_cancel(self):
        s1, s2 = trig_sin(2), trig_sin(4)
        f = RingFraction(s1 * s2, s2 * s2).cancel([s2])
        assert f == RingFraction(s1, s2)
        assert f.den == s2 or f.den == s2.shift(*(-e for e in s2.min_exponents()))

    def test_arithmetic(self):
        b, a = beta_poly(), alpha_poly(3)
        f = RingFraction(b, a) + RingFraction(a, b)
        assert f == RingFraction(b * b + a * a, a * b)
        assert (f - f).is_zero()
        assert RingFraction(b, a) * RingFraction(a, b) == RingFraction.one()

    def test_clear_denominators(self):
        s1, s2, s3 = trig_sin(2), trig_sin(4), trig_sin(6)
        fracs = [
            RingFraction(beta_poly() * LaurentPoly.v_pow(2), s2),
            RingFraction.zero(),
            # a pure v-monomial in the denominator is shifted out
            RingFraction(alpha_poly(3), (s2 * s3).shift(0, -1)),
            RingFraction(LaurentPoly.monomial(1, -1), s1),
        ]
        nums, den = clear_denominators(fracs)
        assert den.univariate_u() is not None
        assert len(nums) == len(fracs) and nums[1].is_zero()
        for num, f in zip(nums, fracs):
            assert RingFraction(num, den) == f
        total = fracs[0] + fracs[2] + fracs[3]
        assert sum_fractions_cleared(fracs) == total

    def test_clear_denominators_rejects_mixed_v_powers(self):
        mixed = LaurentPoly.u_pow(1) + LaurentPoly.v_pow(1)
        with pytest.raises(ValueError):
            clear_denominators([RingFraction.one(), RingFraction(beta_poly(), mixed)])
