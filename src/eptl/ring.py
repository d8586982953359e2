"""Exact scalar arithmetic for the periodic Temperley-Lieb toolkit.

Everything downstream is computed over the ring of Laurent polynomials in
two variables ``u`` and ``v`` with Gaussian-rational coefficients.  Three
types live here:

``GaussianRational``
    An exact element of Q(i), stored as a pair of ``fractions.Fraction``.

``LaurentPoly``
    A sparse Laurent polynomial, stored as a dict mapping exponent pairs
    ``(eu, ev)`` to nonzero ``GaussianRational`` coefficients.  The zero
    polynomial has an empty term map.

``RingFraction``
    A quotient of two Laurent polynomials.  Equality is decided by
    cross-multiplication; no multivariate gcd is ever computed, only a
    common pure-monomial factor is stripped.

The module also provides the trigonometric building blocks used by the
determinant formulas: with ``u = exp(i*lam/2)`` and ``Lam = pi - lam``,

* ``trig_sin(2k)``  is ``sin(k*Lam)``  as a Laurent polynomial in ``u``,
* ``trig_cos(2k)``  is ``cos(k*Lam)``,
* ``beta_poly()``   is ``u^2 + u^-2`` (contractible-loop weight),
* ``alpha_poly(n)`` is ``v^n + v^-n`` (non-contractible-loop weight),
* ``bracket(2x,n)`` is ``(-u^2)^x v^n - (-u^2)^-x v^-n``.

Half-integer indices are supported throughout by passing the doubled
index; the square root ``(-u^2)^(1/2)`` is resolved once and for all as
``i*u``.
"""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """An exact Gaussian rational a + b*i with a, b in Q.

    Instances are immutable; arithmetic returns new objects.  Stored in
    lowest terms automatically because ``Fraction`` normalizes.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _fast(re: Fraction, im: Fraction) -> "GaussianRational":
        out = object.__new__(GaussianRational)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", im)
        return out

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational._fast(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational._fast(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._fast(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            if not d:
                return GaussianRational._fast(a * c, b)
            return GaussianRational._fast(a * c, a * d)
        if not a:
            if not c:
                return GaussianRational._fast(-b * d, a)
            return GaussianRational._fast(-b * d if d else a, b * c)
        return GaussianRational._fast(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        c, d = other.re, other.im
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b = self.re, self.im
        return GaussianRational._fast((a * c + b * d) / n, (b * c - a * d) / n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)

# i^k for k mod 4, as Gaussian rationals
_I_POW = (GR_ONE, GR_I, GaussianRational(-1), GaussianRational(0, -1))


def i_power(k: int) -> GaussianRational:
    """Return i^k exactly."""
    return _I_POW[k % 4]


class LaurentPoly:
    """Sparse bivariate Laurent polynomial over Q(i).

    ``terms`` maps ``(eu, ev)`` integer exponent pairs to nonzero
    ``GaussianRational`` coefficients.  Treat instances as immutable.

    Example
    -------
    ``u^2 + 2 - i*v^-3`` is stored as::

        {(2, 0): 1, (0, 0): 2, (0, -3): -i}
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {} if terms is None else terms

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly({})

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({(0, 0): GR_ONE})

    @staticmethod
    def const(c) -> "LaurentPoly":
        g = c if isinstance(c, GaussianRational) else GaussianRational(c)
        return LaurentPoly({(0, 0): g}) if g else LaurentPoly({})

    @staticmethod
    def monomial(eu: int, ev: int, coeff=GR_ONE) -> "LaurentPoly":
        g = coeff if isinstance(coeff, GaussianRational) else GaussianRational(coeff)
        return LaurentPoly({(eu, ev): g}) if g else LaurentPoly({})

    @staticmethod
    def u_pow(k: int) -> "LaurentPoly":
        return LaurentPoly({(k, 0): GR_ONE})

    @staticmethod
    def v_pow(k: int) -> "LaurentPoly":
        return LaurentPoly({(0, k): GR_ONE})

    # -- ring operations ---------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.terms, other.terms
        if not a or not b:
            return LaurentPoly({})
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (eu, ev), c = next(iter(a.items()))
            if c == GR_ONE:
                return LaurentPoly({(x + eu, y + ev): d for (x, y), d in b.items()})
            return LaurentPoly({(x + eu, y + ev): c * d for (x, y), d in b.items()})
        out: dict = {}
        for (x1, y1), c1 in a.items():
            for (x2, y2), c2 in b.items():
                e = (x1 + x2, y1 + y2)
                p = c1 * c2
                s = out.get(e)
                if s is None:
                    out[e] = p
                else:
                    s = s + p
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return LaurentPoly(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if len(self.terms) == 1:
                (eu, ev), c = next(iter(self.terms.items()))
                return LaurentPoly({(eu * n, ev * n): _coeff_inv_pow(c, -n)})
            raise ValueError("negative power of a non-monomial")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "LaurentPoly":
        if not isinstance(c, GaussianRational):
            c = GaussianRational(c)
        if not c:
            return LaurentPoly({})
        return LaurentPoly({e: k * c for e, k in self.terms.items()})

    def shift(self, du: int, dv: int) -> "LaurentPoly":
        """Multiply by the monomial u^du v^dv."""
        return LaurentPoly({(x + du, y + dv): c for (x, y), c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- structure ----------------------------------------------------

    def sorted_terms(self):
        """Terms in ascending lexicographic (eu, ev) order."""
        return sorted(self.terms.items())

    def min_exponents(self) -> tuple:
        us = [e[0] for e in self.terms]
        vs = [e[1] for e in self.terms]
        return (min(us), min(vs))

    def max_exponents(self) -> tuple:
        us = [e[0] for e in self.terms]
        vs = [e[1] for e in self.terms]
        return (max(us), max(vs))

    def extreme_term_uv(self):
        """The term dominating as u,v -> infinity: max eu, then max ev."""
        e = max(self.terms, key=lambda t: (t[0], t[1]))
        return e, self.terms[e]

    def flip_v(self) -> "LaurentPoly":
        """Substitute v -> v^-1."""
        return LaurentPoly({(x, -y): c for (x, y), c in self.terms.items()})

    def substitute(self, pu: "LaurentPoly", pv: "LaurentPoly") -> "LaurentPoly":
        """Evaluate self at u=pu, v=pv (exact composition).

        Negative exponents require the corresponding value to be an
        invertible monomial.
        """
        pu_inv = _monomial_inverse(pu) if any(e[0] < 0 for e in self.terms) else None
        pv_inv = _monomial_inverse(pv) if any(e[1] < 0 for e in self.terms) else None
        pow_cache_u: dict = {0: LaurentPoly.one()}
        pow_cache_v: dict = {0: LaurentPoly.one()}

        def ppow(base, inv, k, cache):
            if k not in cache:
                cache[k] = (base if k > 0 else inv) ** abs(k) if abs(k) > 1 else (base if k > 0 else inv)
            return cache[k]

        out = LaurentPoly.zero()
        for (x, y), c in self.terms.items():
            term = LaurentPoly.const(c)
            if x:
                term = term * ppow(pu, pu_inv, x, pow_cache_u)
            if y:
                term = term * ppow(pv, pv_inv, y, pow_cache_v)
            out = out + term
        return out

    # -- exact division ----------------------------------------------

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor; raises ValueError if not exact."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        if len(divisor.terms) == 1:
            (eu, ev), c = next(iter(divisor.terms.items()))
            inv = GR_ONE / c
            return LaurentPoly({(x - eu, y - ev): k * inv for (x, y), k in self.terms.items()})
        rem = dict(self.terms)
        div_lead = max(divisor.terms)
        div_lead_c = divisor.terms[div_lead]
        quot: dict = {}
        # quotient exponent widths are bounded by the widths of self
        nu, nv = self.min_exponents()
        xu, xv = self.max_exponents()
        max_steps = (xu - nu + 1) * (xv - nv + 1) + 1
        # lex-leading-term division; exactness guarantees each step divides
        steps = 0
        while rem:
            steps += 1
            if steps > max_steps:
                raise ValueError("division is not exact")
            lead = max(rem)
            qe = (lead[0] - div_lead[0], lead[1] - div_lead[1])
            qc = rem[lead] / div_lead_c
            quot[qe] = qc
            for (x, y), c in divisor.terms.items():
                e = (x + qe[0], y + qe[1])
                s = rem.get(e, GR_ZERO) - c * qc
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        return LaurentPoly(quot)

    # -- numerics and serialization ----------------------------------

    def univariate_u(self):
        """Dense ascending coefficient list in u alone, or None if v occurs.

        Returns (coeffs, min_exponent); the list has no leading/trailing
        zero entries unless the polynomial is zero.
        """
        if not self.terms:
            return [], 0
        if any(e[1] for e in self.terms):
            return None
        lo = min(e[0] for e in self.terms)
        hi = max(e[0] for e in self.terms)
        coeffs = [GR_ZERO] * (hi - lo + 1)
        for (eu, _), c in self.terms.items():
            coeffs[eu - lo] = c
        return coeffs, lo

    @staticmethod
    def from_univariate_u(coeffs, lo: int) -> "LaurentPoly":
        return LaurentPoly(
            {(lo + k, 0): c for k, c in enumerate(coeffs) if c}
        )

    def eval_numeric(self, u: complex, v: complex) -> complex:
        """Substitution homomorphism into C; u, v must be nonzero."""
        if u == 0 or v == 0:
            raise ValueError("cannot evaluate a Laurent polynomial at zero")
        total = 0j
        for (x, y), c in self.terms.items():
            total += c.to_complex() * (u ** x) * (v ** y)
        return total

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"eu": e[0], "ev": e[1], "re": str(c.re), "im": str(c.im)}
                for e, c in self.sorted_terms()
            ]
        }

    @staticmethod
    def from_json_dict(d: dict) -> "LaurentPoly":
        terms = {}
        for t in d["terms"]:
            c = GaussianRational(Fraction(t["re"]), Fraction(t["im"]))
            if c:
                terms[(int(t["eu"]), int(t["ev"]))] = c
        return LaurentPoly(terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (x, y), c in self.sorted_terms():
            bits = []
            if x:
                bits.append(f"u^{x}" if x != 1 else "u")
            if y:
                bits.append(f"v^{y}" if y != 1 else "v")
            mono = "*".join(bits)
            if not mono:
                parts.append(f"({c!r})")
            elif c == GR_ONE:
                parts.append(mono)
            else:
                parts.append(f"({c!r})*{mono}")
        return " + ".join(parts)


def _coeff_inv_pow(c: GaussianRational, n: int) -> GaussianRational:
    out = GR_ONE
    inv = GR_ONE / c
    for _ in range(n):
        out = out * inv
    return out


def _monomial_inverse(p: LaurentPoly) -> LaurentPoly:
    if len(p.terms) != 1:
        raise ValueError("negative exponents need an invertible monomial value")
    (eu, ev), c = next(iter(p.terms.items()))
    return LaurentPoly({(-eu, -ev): GR_ONE / c})


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


class RingFraction:
    """Quotient num/den of Laurent polynomials.

    No gcd machinery: construction only strips a common pure monomial
    factor, and equality is decided by cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = ONE):
        if den.is_zero():
            raise ZeroDivisionError("fraction with zero denominator")
        if num.is_zero():
            den = ONE
        else:
            nu, nv = num.min_exponents()
            du, dv = den.min_exponents()
            su, sv = min(nu, du), min(nv, dv)
            if su or sv:
                num = num.shift(-su, -sv)
                den = den.shift(-su, -sv)
        self.num = num
        self.den = den

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RingFraction":
        return RingFraction(p, ONE)

    @staticmethod
    def one() -> "RingFraction":
        return RingFraction(ONE, ONE)

    @staticmethod
    def zero() -> "RingFraction":
        return RingFraction(ZERO, ONE)

    def __add__(self, other) -> "RingFraction":
        other = _as_fraction(other)
        return RingFraction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other) -> "RingFraction":
        other = _as_fraction(other)
        return RingFraction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RingFraction":
        return RingFraction(-self.num, self.den)

    def __mul__(self, other) -> "RingFraction":
        other = _as_fraction(other)
        return RingFraction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other) -> "RingFraction":
        other = _as_fraction(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero fraction")
        return RingFraction(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "RingFraction":
        if n < 0:
            return RingFraction(self.den ** -n, self.num ** -n)
        return RingFraction(self.num ** n, self.den ** n)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            other = RingFraction.from_poly(other)
        if not isinstance(other, RingFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RingFraction is not hashable (equality is semantic)")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def cancel(self, factors) -> "RingFraction":
        """Cancel known common factors by trial exact division.

        This is not a gcd: only the polynomials in ``factors`` are tried,
        repeatedly and to a fixed point, as long as both numerator and
        denominator divide.
        """
        num, den = self.num, self.den
        changed = True
        while changed and not num.is_zero():
            changed = False
            for f in factors:
                if len(f.terms) < 2:
                    continue
                while True:
                    try:
                        n2 = num.exact_div(f)
                        d2 = den.exact_div(f)
                    except (ValueError, ZeroDivisionError):
                        break
                    num, den = n2, d2
                    changed = True
                    if num.is_zero():
                        break
        return RingFraction(num, den)

    def reduced_u(self) -> "RingFraction":
        """Lowest-terms form when numerator and denominator involve only u.

        Uses a univariate Euclidean gcd over Q(i) (the multivariate-gcd
        ban does not apply); returns self unchanged if v occurs.  The
        denominator is normalized to leading coefficient 1.
        """
        a = self.num.univariate_u()
        b = self.den.univariate_u()
        if a is None or b is None or self.num.is_zero():
            return self
        (ca, la), (cb, lb) = a, b
        # compress the common exponent stride before running Euclid
        from math import gcd as igcd

        stride = 0
        for coeffs in (ca, cb):
            for k, c in enumerate(coeffs):
                if c and k:
                    stride = igcd(stride, k)
        if stride > 1:
            ca = ca[::stride]
            cb = cb[::stride]
        g = _gcd_dense(ca, cb)
        if len(g) > 1:
            ca = _div_dense(ca, g)
            cb = _div_dense(cb, g)
        lead = cb[-1]
        if lead != GR_ONE:
            inv = GR_ONE / lead
            ca = [c * inv for c in ca]
            cb = [c * inv for c in cb]
        if stride > 1:
            ca = _unstride(ca, stride)
            cb = _unstride(cb, stride)
        return RingFraction(
            LaurentPoly.from_univariate_u(ca, la),
            LaurentPoly.from_univariate_u(cb, lb),
        )

    def __repr__(self) -> str:
        if self.den == ONE:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


def _as_fraction(x) -> RingFraction:
    if isinstance(x, RingFraction):
        return x
    if isinstance(x, LaurentPoly):
        return RingFraction.from_poly(x)
    raise TypeError(f"cannot coerce {type(x)} to RingFraction")


def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _unstride(c: list, stride: int) -> list:
    out = [GR_ZERO] * ((len(c) - 1) * stride + 1) if c else []
    for k, x in enumerate(c):
        out[k * stride] = x
    return out


def _rem_dense(a: list, b: list) -> list:
    """Remainder of dense univariate division over Q(i)."""
    a = list(a)
    inv = GR_ONE / b[-1]
    while len(a) >= len(b) and a:
        q = a[-1] * inv
        off = len(a) - len(b)
        for k in range(len(b)):
            a[off + k] = a[off + k] - q * b[k]
        _trim(a)
    return a


def _div_dense(a: list, b: list) -> list:
    """Exact dense univariate quotient."""
    a = list(a)
    out = [GR_ZERO] * (len(a) - len(b) + 1)
    inv = GR_ONE / b[-1]
    while len(a) >= len(b) and a:
        q = a[-1] * inv
        off = len(a) - len(b)
        out[off] = q
        for k in range(len(b)):
            a[off + k] = a[off + k] - q * b[k]
        _trim(a)
    if a:
        raise ValueError("dense division is not exact")
    return out


def _gcd_dense(a: list, b: list) -> list:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _rem_dense(a, b)
    if a:
        inv = GR_ONE / a[-1]
        a = [c * inv for c in a]
    return a


def clear_denominators(fractions) -> tuple:
    """Bring fractions whose denominators involve u alone (up to a pure
    v-monomial) over one common u-only denominator.

    Returns ``(nums, den)`` with ``nums[k] / den == fractions[k]``; ``den``
    is the :func:`lcm_u` of the denominators and zero fractions get a zero
    numerator.  Raises ValueError when a denominator mixes v powers.
    """
    parts = []
    den = ONE
    for f in fractions:
        if f.is_zero():
            parts.append(None)
            continue
        evs = {e[1] for e in f.den.terms}
        if len(evs) != 1:
            raise ValueError("denominator mixes v powers")
        dv = evs.pop()
        num, dpoly = f.num.shift(0, -dv), f.den.shift(0, -dv)
        parts.append((num, dpoly))
        den = lcm_u(den, dpoly)
    nums = [ZERO if part is None else part[0] * den.exact_div(part[1]) for part in parts]
    return nums, den


def sum_fractions_cleared(fractions) -> RingFraction:
    """Sum fractions whose denominators involve u alone (up to a pure
    v-monomial), over one common denominator instead of pairwise adds."""
    nums, den = clear_denominators(fractions)
    return RingFraction(sum(nums, ZERO), den)


def lcm_u(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Least common multiple of two u-only Laurent polynomials,
    normalized to leading coefficient 1 and minimal exponent 0."""
    ua, ub = a.univariate_u(), b.univariate_u()
    if ua is None or ub is None:
        raise ValueError("lcm_u needs u-only polynomials")
    (ca, _), (cb, _) = ua, ub
    if not ca:
        return ZERO
    if not cb:
        return ZERO
    g = _gcd_dense(ca, cb)
    q = _div_dense(ca, g) if len(g) > 1 else list(ca)
    prod = LaurentPoly.from_univariate_u(q, 0) * LaurentPoly.from_univariate_u(cb, 0)
    coeffs, _ = prod.univariate_u()
    inv = GR_ONE / coeffs[-1]
    return LaurentPoly.from_univariate_u([c * inv for c in coeffs], 0)


# ---------------------------------------------------------------------
# trigonometric building blocks
# ---------------------------------------------------------------------

def trig_sin(two_k: int) -> LaurentPoly:
    """sin(k*Lam) as a Laurent polynomial in u, with k = two_k/2.

    With exp(i*Lam) resolved as (i/u)^2 and the half-integer branch fixed
    by (i/u)^(2k), this is (i^2k u^-2k - i^-2k u^2k) / (2i).
    """
    c = i_power(two_k) / (GR_I + GR_I)
    cm = i_power(-two_k) / (GR_I + GR_I)
    if two_k == 0:
        return ZERO
    return LaurentPoly({(-two_k, 0): c}) + LaurentPoly({(two_k, 0): -cm})


def trig_cos(two_k: int) -> LaurentPoly:
    """cos(k*Lam) as a Laurent polynomial in u, with k = two_k/2."""
    half = GaussianRational(Fraction(1, 2))
    c = i_power(two_k) * half
    cm = i_power(-two_k) * half
    out = LaurentPoly({(-two_k, 0): c})
    return out + LaurentPoly({(two_k, 0): cm})


def beta_poly() -> LaurentPoly:
    """Contractible-loop weight u^2 + u^-2 (equal to -2*cos(Lam))."""
    return LaurentPoly({(2, 0): GR_ONE, (-2, 0): GR_ONE})


def alpha_poly(n_sites: int) -> LaurentPoly:
    """Non-contractible-loop weight v^n + v^-n."""
    if n_sites == 0:
        return LaurentPoly.const(2)
    return LaurentPoly({(0, n_sites): GR_ONE, (0, -n_sites): GR_ONE})


def bracket(two_x: int, n_sites: int) -> LaurentPoly:
    """(-u^2)^x v^n - (-u^2)^-x v^-n with x = two_x/2, branch (iu)^(2x)."""
    a = i_power(two_x)
    b = i_power(-two_x)
    return LaurentPoly({(two_x, n_sites): a}) + LaurentPoly({(-two_x, -n_sites): -b})

