"""Exact scalar arithmetic for the periodic Temperley-Lieb toolkit.

Everything downstream is computed over the ring of Laurent polynomials in
two variables ``u`` and ``v`` with Gaussian-integer coefficients.  Two
types live here:

``GaussianInt``
    An exact element of Z[i], stored as a pair of Python ints.

``LaurentPoly``
    A sparse Laurent polynomial, stored as a dict mapping exponent pairs
    ``(eu, ev)`` to nonzero ``GaussianInt`` coefficients.  The zero
    polynomial has an empty term map.

All exact arithmetic past a sum runs on plain ints: :func:`packed`
turns a polynomial into ``(key, re, im)`` triples with the key
``eu * 2^32 + ev``, :func:`mul_into` adds a product into two dicts
key -> int, :func:`quotient` divides such a dict exactly by real triples,
and :func:`unpacked` builds the result, one ``GaussianInt`` per term.
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

from operator import index


class GaussianInt:
    """An exact Gaussian integer a + b*i with a, b in Z.

    Instances are immutable; arithmetic returns new objects.  The parts
    are taken through ``operator.index``, so a ``Fraction`` or a float is
    refused.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", index(re))
        object.__setattr__(self, "im", index(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussianInt is immutable")

    @staticmethod
    def _fast(re: int, im: int) -> "GaussianInt":
        out = object.__new__(GaussianInt)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", im)
        return out

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt._fast(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt._fast(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianInt":
        return GaussianInt._fast(-self.re, -self.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return GaussianInt._fast(a * c, 0)
        return GaussianInt._fast(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "GaussianInt") -> "GaussianInt":
        """Exact quotient; raises ValueError when it is not in Z[i]."""
        c, d = other.re, other.im
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero in Z[i]")
        a, b = self.re, self.im
        re, r1 = divmod(a * c + b * d, n)
        im, r2 = divmod(b * c - a * d, n)
        if r1 or r2:
            raise ValueError(f"{self!r} is not divisible by {other!r} in Z[i]")
        return GaussianInt._fast(re, im)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianInt):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GR_ONE = GaussianInt(1)
GR_I = GaussianInt(0, 1)

# i^k for k mod 4, as Gaussian integers
_I_POW = (GR_ONE, GR_I, GaussianInt(-1), GaussianInt(0, -1))


def i_power(k: int) -> GaussianInt:
    """Return i^k exactly."""
    return _I_POW[k % 4]


class LaurentPoly:
    """Sparse bivariate Laurent polynomial over Z[i].

    ``terms`` maps ``(eu, ev)`` integer exponent pairs to nonzero
    ``GaussianInt`` coefficients.  Treat instances as immutable.

    Example
    -------
    ``u^2 + 2 - i*v^-3`` is stored as::

        {(2, 0): 1, (0, 0): 2, (0, -3): -i}
    """

    __slots__ = ("terms", "_packed", "_hash")

    def __init__(self, terms=None):
        self.terms = {} if terms is None else terms
        self._packed = None  # the triples of packed(), made on first use
        self._hash = None  # made on first use

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly({})

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({(0, 0): GR_ONE})

    @staticmethod
    def const(c) -> "LaurentPoly":
        g = c if isinstance(c, GaussianInt) else GaussianInt(c)
        return LaurentPoly({(0, 0): g}) if g else LaurentPoly({})

    @staticmethod
    def monomial(eu: int, ev: int, coeff=GR_ONE) -> "LaurentPoly":
        g = coeff if isinstance(coeff, GaussianInt) else GaussianInt(coeff)
        return LaurentPoly({(eu, ev): g}) if g else LaurentPoly({})

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
        re: dict = {}
        im: dict = {}
        mul_into(re, im, packed(self), packed(other))
        return unpacked(re, im)

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

    def shift(self, du: int, dv: int) -> "LaurentPoly":
        """Multiply by the monomial u^du v^dv."""
        return LaurentPoly({(x + du, y + dv): c for (x, y), c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

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

    def extreme_term_uv(self):
        """The term dominating as u,v -> infinity: max eu, then max ev."""
        e = max(self.terms, key=lambda t: (t[0], t[1]))
        return e, self.terms[e]

    def flip_v(self) -> "LaurentPoly":
        """Substitute v -> v^-1."""
        return LaurentPoly({(x, -y): c for (x, y), c in self.terms.items()})

    # -- exact division ----------------------------------------------

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor; raises ValueError if not exact.

        Both sides must lie in the packed v range [-2^30, 2^30) of ``*``.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        # p/q = (p qbar)/(q qbar) with q qbar real: Re and Im divide exactly iff q divides p
        q = packed(divisor)
        bar = tuple((k, r, -i) for k, r, i in q)
        re: dict = {}
        im: dict = {}
        mul_into(re, im, packed(self), bar)
        qq: dict = {}
        mul_into(qq, {}, q, bar)
        norm = tuple((k, c, 0) for k, c in qq.items() if c)
        re = {k: c for k, c, _ in quotient(re, norm)}
        im = {k: c for k, c, _ in quotient(im, norm)}
        for k in im:
            re.setdefault(k, 0)
        return unpacked(re, im)

    # -- numerics and serialization ----------------------------------

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
            c = GaussianInt(int(t["re"]), int(t["im"]))
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


# ---------------------------------------------------------------------
# the packed product kernel
# ---------------------------------------------------------------------

# A term u^eu v^ev is keyed eu * 2^32 + ev: adding two keys multiplies the
# monomials, and the int order of the keys is the lex order on (eu, ev),
# as long as every v exponent lies in [-KEY_RANGE, KEY_RANGE).  packed()
# admits half that range, so the sum of two keys always decodes.
_SHIFT = 32
KEY_RANGE = 1 << (_SHIFT - 1)
_MASK = (1 << _SHIFT) - 1
_V_LIMIT = KEY_RANGE >> 1

# shared coefficients for small real results; GaussianInt is immutable
_SMALL = {k: GaussianInt._fast(k, 0) for k in range(-64, 65)}


def packed(p: LaurentPoly) -> tuple:
    """The terms of ``p`` as ``(eu * 2^32 + ev, re, im)`` triples.

    Cached on ``p`` at first use.  A v exponent outside [-2^30, 2^30)
    raises ValueError.
    """
    out = p._packed
    if out is None:
        out = []
        for (eu, ev), c in p.terms.items():
            if not -_V_LIMIT <= ev < _V_LIMIT:
                raise ValueError(f"v exponent {ev} outside the packed range [-2^30, 2^30)")
            out.append(((eu << _SHIFT) + ev, c.re, c.im))
        out = p._packed = tuple(out)
    return out


def mul_into(re: dict, im: dict, a, b) -> None:
    """Add the product of the packed terms ``a`` and ``b`` into ``re`` and
    ``im``, dicts from a packed key to the real and imaginary parts.

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


def _box(keys) -> tuple:
    """(min u, max u, min v, max v) over packed keys."""
    vs = [((k + KEY_RANGE) & _MASK) - KEY_RANGE for k in keys]
    return (min(keys) + KEY_RANGE) >> _SHIFT, (max(keys) + KEY_RANGE) >> _SHIFT, min(vs), max(vs)


def quotient(a: dict, b) -> tuple:
    """The exact quotient of ``a``, a dict from a packed key to an int
    (zero sums allowed), by the nonzero real packed terms ``b``, as packed
    triples.

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


def unpacked(re: dict, im: dict) -> LaurentPoly:
    """The polynomial with the parts accumulated by :func:`mul_into`,
    whose keys are all in ``re``; zero sums are dropped."""
    terms = {}
    small = _SMALL.get
    iget = im.get
    for k, r in re.items():
        i = iget(k) if im else None
        if i:
            c = GaussianInt._fast(r, i)
        elif r:
            c = small(r)
            if c is None:
                c = GaussianInt._fast(r, 0)
        else:
            continue
        k += KEY_RANGE
        terms[(k >> _SHIFT, (k & _MASK) - KEY_RANGE)] = c
    return LaurentPoly(terms)


def _coeff_inv_pow(c: GaussianInt, n: int) -> GaussianInt:
    out = GR_ONE
    inv = GR_ONE / c
    for _ in range(n):
        out = out * inv
    return out


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


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

