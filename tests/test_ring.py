import cmath
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import eptl
from eptl.ring import (
    ONE,
    ZERO,
    GaussianInt,
    LaurentPoly,
    alpha_poly,
    beta_poly,
    bracket,
    i_power,
    trig_cos,
    trig_sin,
)
from oracles import dense, div_terms, gaussian_div, matmul_dense, mul_terms, u_pow


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

    @pytest.mark.parametrize("ev", [1 << 30, -(1 << 30) - 1, 1 << 40])
    def test_v_exponent_outside_packed_range_raises(self, ev):
        # 2^40 does not decode from a key, so building the polynomial refuses it
        far = {(0, ev): GaussianInt(1), (1, 0): GaussianInt(1)}
        with pytest.raises(ValueError, match="packed range"):
            LaurentPoly(far) * beta_poly()
        with pytest.raises(ValueError, match="packed range"):
            m = dense([[LaurentPoly(far)]])
            m @ m

    @pytest.mark.parametrize("ev", [(1 << 30) - 1, -(1 << 30)])
    def test_v_exponent_at_the_edge_of_the_range_decodes(self, ev):
        edge = LaurentPoly({(0, ev): GaussianInt(1), (1, 0): GaussianInt(0, 1)})
        square = edge * edge
        assert square == mul_terms(edge, edge)
        assert (0, 2 * ev) in square.terms

    @pytest.mark.parametrize("ev", [(1 << 30) - 1, -(1 << 30)])
    def test_a_term_past_the_range_is_refused_before_its_key_wraps(self, ev):
        edge = LaurentPoly({(0, ev): GaussianInt(1), (1, 0): GaussianInt(0, 1)})
        square = edge * edge
        assert edge ** 2 == square
        for make_more in (
            lambda: square * square,
            lambda: square.shift(0, 1),
            lambda: square.flip_v(),
            lambda: square.exact_div(ONE),
            lambda: dense([[square]]) @ dense([[ONE]]),
            lambda: ONE.shift(0, 2 * ev),
        ):
            with pytest.raises(ValueError, match="packed range"):
                make_more()


def _units():
    return st.integers(0, 3).map(i_power)


def fresh(p):
    return LaurentPoly(dict(p.terms))


class TestCanonicalForm:
    """Equal polynomials have one stored form, whatever route built them."""

    @staticmethod
    def same(p, q):
        assert p == q and hash(p) == hash(q) and p.triples == q.triples

    @given(_polys())
    @settings(max_examples=60, deadline=None)
    def test_term_order_does_not_matter(self, p):
        self.same(LaurentPoly(dict(reversed(p.terms.items()))), fresh(p))

    @given(_polys(), _polys())
    @settings(max_examples=60, deadline=None)
    def test_a_sum_and_its_difference(self, a, b):
        self.same(a + b - b, fresh(a))

    @given(_polys())
    @settings(max_examples=60, deadline=None)
    def test_flip_and_shift_round_trips(self, p):
        self.same(p.flip_v().flip_v(), fresh(p))
        self.same(p.shift(3, -2).shift(-3, 2), fresh(p))

    @given(_polys(), st.integers(-6, 6), st.integers(-6, 6), _units(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_a_monomial_times_its_inverse_power(self, p, eu, ev, unit, k):
        m = LaurentPoly.monomial(eu, ev, unit)
        self.same(m ** k * m ** -k, ONE)
        self.same(p * m ** k * m ** -k, fresh(p))

    @given(_polys(), _polys())
    @settings(max_examples=60, deadline=None)
    def test_a_product_divided_back(self, p, q):
        assume(q)
        self.same((p * q).exact_div(q), fresh(p))

    @given(_polys(), _polys(), _polys())
    @settings(max_examples=60, deadline=None)
    def test_what_cancels_is_zero(self, p, q, r):
        for z in (p - p, p + (-p), (p + q) * r - p * r - q * r, p * ZERO, ZERO * p):
            self.same(z, ZERO)
            assert not z and z.is_zero() and len(z.terms) == 0 and z.triples == ()

    def test_zero_coefficients_are_dropped_when_built(self):
        p = LaurentPoly({(1, 2): GaussianInt(0, 0), (0, 0): 3, (2, 0): 0})
        self.same(p, LaurentPoly.const(3))

    def test_negative_power_of_a_non_unit_is_refused(self):
        with pytest.raises(ValueError, match="not a unit"):
            LaurentPoly.monomial(1, 0, GaussianInt(1, 1)) ** -1
        with pytest.raises(ValueError, match="non-monomial"):
            beta_poly() ** -1


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
            LaurentPoly.const(part)
        with pytest.raises(TypeError):
            LaurentPoly.const(GaussianInt(0, part))
        with pytest.raises(TypeError):
            LaurentPoly.monomial(part, 0)

    def test_json_with_rational_coefficient_refused(self):
        d = {"terms": [{"eu": 0, "ev": 0, "re": "1/2", "im": "0"}]}
        with pytest.raises(ValueError):
            LaurentPoly.from_json_dict(d)

    def test_exact_gaussian_division(self):
        assert gaussian_div((5, 0), (2, 1)) == (2, -1)
        assert gaussian_div((3, 1), (0, 1)) == (1, -3)
        with pytest.raises(ValueError):
            gaussian_div((3, 0), (2, 0))
        with pytest.raises(ZeroDivisionError):
            gaussian_div((3, 0), (0, 0))

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


# repr and to_json_dict of fixed polynomials, as the text of every csv,
# ascii and projector --check wj output writes them
PINNED_TEXT = [
    ("zero", LaurentPoly.zero(), "0", '{"terms": []}'),
    ("one", LaurentPoly.one(), "(1)", '{"terms": [{"eu": 0, "ev": 0, "re": "1", "im": "0"}]}'),
    ("u_v", LaurentPoly.monomial(1, 1), "u*v", '{"terms": [{"eu": 1, "ev": 1, "re": "1", "im": "0"}]}'),
    ("constant", LaurentPoly.const(7), "(7)", '{"terms": [{"eu": 0, "ev": 0, "re": "7", "im": "0"}]}'),
    (
        "negative",
        LaurentPoly.monomial(2, -3, -5),
        "(-5)*u^2*v^-3",
        '{"terms": [{"eu": 2, "ev": -3, "re": "-5", "im": "0"}]}',
    ),
    (
        "imaginary",
        LaurentPoly({(0, 2): GaussianInt(0, 3), (-1, 0): GaussianInt(0, -1)}),
        "(-1i)*u^-1 + (3i)*v^2",
        '{"terms": [{"eu": -1, "ev": 0, "re": "0", "im": "-1"}, {"eu": 0, "ev": 2, "re": "0", "im": "3"}]}',
    ),
    (
        "mixed",
        LaurentPoly({(3, 0): GaussianInt(2, -1), (0, -1): GaussianInt(-2, 3)}),
        "(-2+3i)*v^-1 + (2-1i)*u^3",
        '{"terms": [{"eu": 0, "ev": -1, "re": "-2", "im": "3"}, {"eu": 3, "ev": 0, "re": "2", "im": "-1"}]}',
    ),
    (
        "huge",
        LaurentPoly({(0, 0): GaussianInt(2**70 + 1, -(2**65)), (1, -1): GaussianInt(-(2**64) - 3)}),
        "(1180591620717411303425-36893488147419103232i) + (-18446744073709551619)*u*v^-1",
        '{"terms": [{"eu": 0, "ev": 0, "re": "1180591620717411303425", "im": "-36893488147419103232"},'
        ' {"eu": 1, "ev": -1, "re": "-18446744073709551619", "im": "0"}]}',
    ),
    (
        "beta",
        beta_poly(),
        "u^-2 + u^2",
        '{"terms": [{"eu": -2, "ev": 0, "re": "1", "im": "0"}, {"eu": 2, "ev": 0, "re": "1", "im": "0"}]}',
    ),
    (
        "bracket",
        bracket(3, 4),
        "(-1i)*u^-3*v^-4 + (-1i)*u^3*v^4",
        '{"terms": [{"eu": -3, "ev": -4, "re": "0", "im": "-1"}, {"eu": 3, "ev": 4, "re": "0", "im": "-1"}]}',
    ),
    (
        "sine",
        trig_sin(3),
        "(-1i)*u^-3 + (-1i)*u^3",
        '{"terms": [{"eu": -3, "ev": 0, "re": "0", "im": "-1"}, {"eu": 3, "ev": 0, "re": "0", "im": "-1"}]}',
    ),
    (
        "sum",
        LaurentPoly(
            {(0, 0): GaussianInt(1), (1, 0): GaussianInt(1), (0, 1): GaussianInt(-1),
             (-1, 2): GaussianInt(0, 1), (1, 1): GaussianInt(4, 4)}
        ),
        "(1i)*u^-1*v^2 + (1) + (-1)*v + u + (4+4i)*u*v",
        '{"terms": [{"eu": -1, "ev": 2, "re": "0", "im": "1"}, {"eu": 0, "ev": 0, "re": "1", "im": "0"},'
        ' {"eu": 0, "ev": 1, "re": "-1", "im": "0"}, {"eu": 1, "ev": 0, "re": "1", "im": "0"},'
        ' {"eu": 1, "ev": 1, "re": "4", "im": "4"}]}',
    ),
]


class TestText:
    @pytest.mark.parametrize("name,p,text,json_text", PINNED_TEXT, ids=[t[0] for t in PINNED_TEXT])
    def test_repr_and_json_are_pinned(self, name, p, text, json_text):
        assert repr(p) == text
        assert json.dumps(p.to_json_dict()) == json_text
        assert LaurentPoly.from_json_dict(json.loads(json_text)) == p
