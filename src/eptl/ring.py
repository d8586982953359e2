"""Exact scalar arithmetic for the periodic Temperley-Lieb toolkit.

Everything downstream is computed over the ring of Laurent polynomials in
two variables ``u`` and ``v`` with Gaussian-integer coefficients.

``LaurentPoly``
    A sparse Laurent polynomial, stored as one tuple ``triples`` of
    ``(key, re, im)`` ints: the term ``(re + im*i) u^eu v^ev`` has the key
    ``eu * 2^32 + ev``.  The triples are in ascending key order, which is
    the lex order on ``(eu, ev)``, and no coefficient is zero, so equal
    polynomials have equal tuples.  The zero polynomial is ``()``.

``GaussianInt``
    A plain record of the int parts ``re`` and ``im`` of a coefficient:
    the values of the read-only view ``LaurentPoly.terms``, ``(eu, ev) ->
    GaussianInt``, and an input of the constructor.

The kernels read and build the triples directly: :func:`product`
multiplies two of them, :func:`mul_into` adds a product into two dicts
key -> int, :func:`quotient` divides such a dict exactly by real triples,
and :func:`collect` sorts the sums back into a polynomial.
``LaurentPoly.__mul__``, ``exact_div``, ``RingMatrix @`` and the Bareiss
determinant ``det_exact`` all run on these four.

There is no fraction type: every quotient downstream is a pair
(numerator, denominator) of Laurent polynomials whose denominator is
known before the arithmetic starts, and two pairs are compared by
cross-multiplication, so no polynomial gcd is ever needed.

The module also provides the trigonometric building blocks used by the
determinant formulas: with ``u = exp(i*lam/2)`` and ``Lam = pi - lam``,

* ``trig_sin(2k)``  is ``S_k = 2i*sin(k*Lam)`` as a Laurent polynomial in ``u``,
* ``trig_cos(2k)``  is ``C_k = 2*cos(k*Lam)``,
* ``beta_poly()``   is ``u^2 + u^-2`` (contractible-loop weight),
* ``alpha_poly(n)`` is ``v^n + v^-n`` (non-contractible-loop weight),
* ``bracket(2x,n)`` is ``(-u^2)^x v^n - (-u^2)^-x v^-n``.

``S_k`` and ``C_k`` are ``e^{ikLam} -+ e^{-ikLam}``, so their coefficients
are units of Z[i]; every sine enters a ratio with as many sines above as
below, where the factor 2i cancels.  Half-integer indices are supported
throughout by passing the doubled index; the square root ``(-u^2)^(1/2)``
is resolved once and for all as ``i*u``.
"""

from __future__ import annotations

from bisect import bisect_left
from math import fsum
from operator import index
from types import MappingProxyType
from typing import NamedTuple


class GaussianInt(NamedTuple):
    """The coefficient re + im*i of a term."""

    re: int
    im: int = 0


GR_I = GaussianInt(0, 1)

# i^k for k mod 4
_I_POW = (GaussianInt(1), GR_I, GaussianInt(-1), GaussianInt(0, -1))


def i_power(k: int) -> GaussianInt:
    """Return i^k exactly."""
    return _I_POW[k % 4]


# A term u^eu v^ev is keyed eu * 2^32 + ev: adding two keys multiplies the
# monomials, and the int order of the keys is the lex order on (eu, ev),
# as long as every v exponent lies in [-KEY_RANGE, KEY_RANGE), as it does
# in every stored polynomial.  The operands of a product, a shift, flip_v
# and exact_div take half that range (check_range), so every key they
# make decodes.
_SHIFT = 32
KEY_RANGE = 1 << (_SHIFT - 1)
_MASK = (1 << _SHIFT) - 1
_V_LIMIT = KEY_RANGE >> 1


def exponents(key: int) -> tuple:
    """The exponent pair (eu, ev) of a key."""
    key += KEY_RANGE
    return key >> _SHIFT, (key & _MASK) - KEY_RANGE


def _refuse(ev: int, limit: str = "2^30"):
    raise ValueError(f"v exponent {ev} outside the packed range [-{limit}, {limit})")


def check_range(triples) -> None:
    """Raise ValueError unless every v exponent of the triples lies in
    [-2^30, 2^30), the range the operands of a product take."""
    for k, _, _ in triples:
        # bit 31 of k + 2^30, that of ev + 2^30, is set exactly off the range
        if (k + _V_LIMIT) & KEY_RANGE:
            _refuse(exponents(k)[1])


def _coeff_text(re: int, im: int) -> str:
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


class LaurentPoly:
    """Sparse bivariate Laurent polynomial over Z[i], stored as the tuple
    ``triples`` (see the module docstring).  Treat instances as immutable.

    ``LaurentPoly(terms)`` builds one from a dict ``(eu, ev) -> c``, with
    ``c`` a ``GaussianInt`` or an int; zero coefficients are dropped.  The
    exponents and parts are taken through ``operator.index``, so a
    ``Fraction`` or a float is refused, and a v exponent outside
    [-2^31, 2^31) raises ValueError.

    Example
    -------
    ``u^2 + 2 - i*v^-3`` is::

        LaurentPoly({(2, 0): 1, (0, 0): 2, (0, -3): GaussianInt(0, -1)})
    """

    __slots__ = ("triples",)

    def __init__(self, terms=None):
        out = []
        for (eu, ev), c in (terms or {}).items():
            re, im = c if isinstance(c, tuple) else (c, 0)
            re, im, ev = index(re), index(im), index(ev)
            if not -KEY_RANGE <= ev < KEY_RANGE:
                _refuse(ev, "2^31")
            if re or im:
                out.append(((index(eu) << _SHIFT) + ev, re, im))
        out.sort()
        self.triples = tuple(out)

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _poly(())

    @staticmethod
    def one() -> "LaurentPoly":
        return _poly(((0, 1, 0),))

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({(0, 0): c})

    @staticmethod
    def monomial(eu: int, ev: int, coeff=1) -> "LaurentPoly":
        return LaurentPoly({(eu, ev): coeff})

    @staticmethod
    def v_pow(k: int) -> "LaurentPoly":
        return LaurentPoly({(0, k): 1})

    @property
    def terms(self):
        """Read-only view ``(eu, ev) -> GaussianInt`` in ascending order,
        built afresh on every access."""
        return MappingProxyType({exponents(k): GaussianInt(r, i) for k, r, i in self.triples})

    # -- ring operations ---------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.triples, other.triples
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return self if a is self.triples else other
        # place each term of the shorter side in a copy of the longer one
        out = list(a)
        for t in b:
            k = t[0]
            j = bisect_left(out, (k,))
            if j == len(out) or out[j][0] != k:
                out.insert(j, t)
                continue
            _, r, i = out[j]
            r += t[1]
            i += t[2]
            if r or i:
                out[j] = (k, r, i)
            else:
                del out[j]
        return _poly(tuple(out))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return _poly(tuple([(k, -r, -i) for k, r, i in self.triples]))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.triples, other.triples
        check_range(a)
        check_range(b)
        return product(a, b)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if len(self.triples) != 1:
                raise ValueError("negative power of a non-monomial")
            ((k, r, i),) = self.triples
            if (r, i) not in _I_POW:
                raise ValueError(f"negative power of {self!r}, whose coefficient is not a unit")
            # the unit is i^j, and its n-th power i^(j n)
            eu, ev = exponents(k)
            return LaurentPoly.monomial(eu * n, ev * n, i_power(_I_POW.index((r, i)) * n))
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return ONE if result is None else result

    def shift(self, du: int, dv: int) -> "LaurentPoly":
        """Multiply by the monomial u^du v^dv, with the range rule of ``*``."""
        if not -_V_LIMIT <= dv < _V_LIMIT:
            _refuse(dv)
        d = (du << _SHIFT) + dv
        # the range check of each term rides in the comprehension
        out = [
            (k + d, r, i) if not (k + _V_LIMIT) & KEY_RANGE else _refuse(exponents(k)[1])
            for k, r, i in self.triples
        ]
        return _poly(tuple(out))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.triples == other.triples

    def __hash__(self):
        return hash(self.triples)

    def is_zero(self) -> bool:
        return not self.triples

    def __bool__(self) -> bool:
        return bool(self.triples)

    # -- structure ----------------------------------------------------

    def min_exponents(self) -> tuple:
        us, vs = zip(*(exponents(k) for k, _, _ in self.triples))
        return (min(us), min(vs))

    def extreme_term_uv(self):
        """The term dominating as u,v -> infinity: max eu, then max ev."""
        k, r, i = self.triples[-1]
        return exponents(k), GaussianInt(r, i)

    def flip_v(self) -> "LaurentPoly":
        """Substitute v -> v^-1, with the range rule of ``*``."""
        # eu * 2^32 - ev is 2 eu * 2^32 - k
        out = [
            (((k + KEY_RANGE) >> _SHIFT << (_SHIFT + 1)) - k, r, i)
            if not (k + _V_LIMIT) & KEY_RANGE
            else _refuse(exponents(k)[1])
            for k, r, i in self.triples
        ]
        out.sort()
        return _poly(tuple(out))

    # -- exact division ----------------------------------------------

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor; raises ValueError if not exact.

        Both sides must lie in the packed v range [-2^30, 2^30) of ``*``.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        p, q = self.triples, divisor.triples
        check_range(p)
        check_range(q)
        # p/q = (p qbar)/(q qbar) with q qbar real: Re and Im divide exactly iff q divides p
        bar = tuple((k, r, -i) for k, r, i in q)
        re: dict = {}
        im: dict = {}
        mul_into(re, im, p, bar)
        qq: dict = {}
        mul_into(qq, {}, q, bar)
        norm = tuple((k, c, 0) for k, c in qq.items() if c)
        re = {k: c for k, c, _ in quotient(re, norm)}
        im = {k: c for k, c, _ in quotient(im, norm)}
        for k in im:
            re.setdefault(k, 0)
        return collect(re, im)

    # -- numerics and serialization ----------------------------------

    def eval_numeric(self, u: complex, v: complex) -> complex:
        """Substitution homomorphism into C; u, v must be nonzero.

        The terms are summed by ``math.fsum``, part by part, so the value
        does not depend on the order of the terms."""
        if u == 0 or v == 0:
            raise ValueError("cannot evaluate a Laurent polynomial at zero")
        terms = []
        for k, r, i in self.triples:
            x, y = exponents(k)
            terms.append(complex(r, i) * (u ** x) * (v ** y))
        return complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))

    def to_json_dict(self) -> dict:
        terms = []
        for k, r, i in self.triples:
            eu, ev = exponents(k)
            terms.append({"eu": eu, "ev": ev, "re": str(r), "im": str(i)})
        return {"terms": terms}

    @staticmethod
    def from_json_dict(d: dict) -> "LaurentPoly":
        return LaurentPoly(
            {(int(t["eu"]), int(t["ev"])): GaussianInt(int(t["re"]), int(t["im"])) for t in d["terms"]}
        )

    def __repr__(self) -> str:
        if not self.triples:
            return "0"
        parts = []
        for k, r, i in self.triples:
            x, y = exponents(k)
            bits = []
            if x:
                bits.append(f"u^{x}" if x != 1 else "u")
            if y:
                bits.append(f"v^{y}" if y != 1 else "v")
            mono = "*".join(bits)
            if not mono:
                parts.append(f"({_coeff_text(r, i)})")
            elif r == 1 and not i:
                parts.append(mono)
            else:
                parts.append(f"({_coeff_text(r, i)})*{mono}")
        return " + ".join(parts)


def _poly(triples: tuple) -> LaurentPoly:
    """The polynomial stored as ``triples``, taken as they are: sorted
    by key, no zero coefficient, every key decoding."""
    p = _new(LaurentPoly)
    p.triples = triples
    return p


_new = object.__new__


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


# ---------------------------------------------------------------------
# the product kernel on triples
# ---------------------------------------------------------------------

def mul_into(re: dict, im: dict, a, b) -> None:
    """Add the product of the triples ``a`` and ``b`` into ``re`` and
    ``im``, dicts from a key to the real and imaginary parts.

    Every key written to ``im`` is written to ``re`` too; sums that
    cancel stay in the dicts as zeros.
    """
    if len(a) > len(b):
        a, b = b, a
    rget = re.get
    iget = im.get
    for ka, ra, ia in a:
        if ia:
            for kb, rb, ib in b:
                k = ka + kb
                re[k] = rget(k, 0) + ra * rb - ia * ib
                im[k] = iget(k, 0) + ra * ib + ia * rb
        else:
            for kb, rb, ib in b:
                k = ka + kb
                re[k] = rget(k, 0) + ra * rb
                if ib:
                    im[k] = iget(k, 0) + ra * ib


def product(a, b) -> LaurentPoly:
    """The product of the triples ``a`` and ``b``, whose v exponents the
    caller has checked with :func:`check_range`."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return ZERO
    if len(a) == 1:
        # Z[i] has no zero divisors and adding one key keeps the order
        ((ka, ra, ia),) = a
        if ia:
            return _poly(tuple([(k + ka, ra * r - ia * i, ra * i + ia * r) for k, r, i in b]))
        if ra == 1:
            return _poly(tuple([(k + ka, r, i) for k, r, i in b]))
        return _poly(tuple([(k + ka, ra * r, ra * i) for k, r, i in b]))
    re: dict = {}
    im: dict = {}
    mul_into(re, im, a, b)
    return collect(re, im)


def collect(re: dict, im: dict) -> LaurentPoly:
    """The polynomial with the parts accumulated by :func:`mul_into`,
    whose keys are all in ``re``; zero sums are dropped."""
    if im:
        iget = im.get
        out = [(k, r, i) for k, r in re.items() if (i := iget(k, 0)) or r]
    else:
        out = [(k, r, 0) for k, r in re.items() if r]
    out.sort()
    return _poly(tuple(out))


def _box(keys) -> tuple:
    """(min u, max u, min v, max v) over keys."""
    vs = [((k + KEY_RANGE) & _MASK) - KEY_RANGE for k in keys]
    return (min(keys) + KEY_RANGE) >> _SHIFT, (max(keys) + KEY_RANGE) >> _SHIFT, min(vs), max(vs)


def quotient(a: dict, b) -> tuple:
    """The exact quotient of ``a``, a dict from a key to an int (zero sums
    allowed), by the nonzero real triples ``b``, as triples in no
    particular order.

    The division goes by lex-leading terms, each step removing the largest
    key left.  A nonzero remainder, or a quotient term outside the box
    [min(a) - min(b), max(a) - max(b)] in u and in v, where every exact
    quotient lies, raises ValueError; the box is what ends an inexact
    division.
    """
    rem = {k: c for k, c in a.items() if c}
    if not rem:
        return ()
    if len(b) == 1:
        ((kb, cb, _),) = b
        out = []
        for k, c in rem.items():
            q, r = divmod(c, cb)
            if r:
                raise ValueError("division is not exact")
            out.append((k - kb, q, 0))
        return tuple(out)
    au, xu, av, xv = _box(rem)
    bu, yu, bv, yv = _box([k for k, _, _ in b])
    lo_u, hi_u, lo_v, hi_v = au - bu, xu - yu, av - bv, xv - yv
    lead, lead_c, _ = max(b)
    quot = []
    get = rem.get
    while rem:
        top = max(rem)
        qk = top - lead
        qc, r = divmod(rem[top], lead_c)
        x = qk + KEY_RANGE
        if r or not (lo_u <= x >> _SHIFT <= hi_u and lo_v <= (x & _MASK) - KEY_RANGE <= hi_v):
            raise ValueError("division is not exact")
        quot.append((qk, qc, 0))
        for k, c, _ in b:
            k += qk
            s = get(k, 0) - c * qc
            if s:
                rem[k] = s
            else:
                del rem[k]
    return tuple(quot)


# ---------------------------------------------------------------------
# trigonometric building blocks
# ---------------------------------------------------------------------

def trig_sin(two_k: int) -> LaurentPoly:
    """S_k = 2i*sin(k*Lam) as a Laurent polynomial in u, with k = two_k/2.

    With exp(i*Lam) resolved as (i/u)^2 and the half-integer branch fixed
    by (i/u)^(2k), this is i^2k u^-2k - i^-2k u^2k.
    """
    return LaurentPoly({(-two_k, 0): i_power(two_k)}) - LaurentPoly({(two_k, 0): i_power(-two_k)})


def trig_cos(two_k: int) -> LaurentPoly:
    """C_k = 2*cos(k*Lam) = i^2k u^-2k + i^-2k u^2k, with k = two_k/2."""
    return LaurentPoly({(-two_k, 0): i_power(two_k)}) + LaurentPoly({(two_k, 0): i_power(-two_k)})


def beta_poly() -> LaurentPoly:
    """Contractible-loop weight u^2 + u^-2 (equal to -C_1 = -2*cos(Lam))."""
    return LaurentPoly({(2, 0): 1, (-2, 0): 1})


def alpha_poly(n_sites: int) -> LaurentPoly:
    """Non-contractible-loop weight v^n + v^-n."""
    if n_sites == 0:
        return LaurentPoly.const(2)
    return LaurentPoly({(0, n_sites): 1, (0, -n_sites): 1})


def bracket(two_x: int, n_sites: int) -> LaurentPoly:
    """(-u^2)^x v^n - (-u^2)^-x v^-n with x = two_x/2, branch (iu)^(2x)."""
    # -i^(-2x) = i^(2 - 2x)
    a = LaurentPoly({(two_x, n_sites): i_power(two_x)})
    return a + LaurentPoly({(-two_x, -n_sites): i_power(2 - two_x)})
