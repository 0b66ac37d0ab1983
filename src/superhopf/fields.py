"""Exact field arithmetic over Q, F_p, F_p(t) / Q(t), and Q(sqrt(d)).

Each field kind is a `Field` subclass that owns the arithmetic on its raw
values: a Fraction for Q, a reduced residue for F_p, a reduced pair of
coefficient tuples (numerator, monic denominator) for F_p(t) / Q(t), added
and multiplied by Henrici's method with no gcd when both denominators are 1,
and an integer triple (a, b, n) for (a + b*sqrt(d))/n in Q(sqrt(d)), with
n > 0 and gcd(a, b, n) = 1. The factories QQ, GF, FunctionField and
QuadraticField, and Field.from_json, intern descriptors: equal fields are the
same object, so an element operation checks its operands' field with `is`
and delegates to it. Every value is kept in a unique canonical form, so
equality is a plain representation check. Characteristic 2 is rejected at
descriptor construction. `lincomb_raw` merges sparse raw coefficients, and
`Sparse` is the base of every sparse element type.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain

from . import _expr


class FieldError(Exception):
    """Base class for exact-field failures."""


class DivisionByZero(FieldError):
    pass


class DescriptorMismatch(FieldError):
    pass


class Unsupported(FieldError):
    """An exact decision procedure is not available for this input."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    i = 2
    while i * i <= n:
        if n % (i * i) == 0:
            return False
        i += 1
    return True


# ---------------------------------------------------------------------------
# dense univariate polynomial helpers over the prime coefficient ring
# (Fraction when p == 0, reduced int residues when p > 0); tuples are stored
# low-degree first with no trailing zeros.


def _pnorm(c, p):
    c = list(c)
    if p:
        c = [x % p for x in c]
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _padd(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = out[i] + x
    return _pnorm(out, p)


def _pneg(a, p):
    return _pscale(a, -1, p)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    # the leading coefficient is a product of nonzero ones: nothing to trim
    return tuple([x % p for x in out]) if p else tuple(out)


def _pscale(a, s, p):
    """`a` times the nonzero constant `s`."""
    return tuple([x * s % p for x in a]) if p else tuple([x * s for x in a])


def _cinv(x, p):
    if p:
        return pow(x, -1, p)
    return Fraction(1) / x


def _prem(a, b, p, q=None):
    """Reduce the residue list `a` modulo `b` in place over F_p, one `% p` per
    updated coefficient; the quotient goes into the list `q` when given."""
    nl = len(b) - 1
    inv_lead, low = pow(b[-1], -1, p), b[:-1]
    for d in range(len(a) - nl - 1, -1, -1):
        s = a[d + nl] * inv_lead % p
        if s:
            if q is not None:
                q[d] = s
            for i, y in enumerate(low, d):
                a[i] = (a[i] - s * y) % p
    del a[nl:]
    while a and not a[-1]:
        a.pop()


def poly_divmod(a, b, p):
    """Quotient and remainder of coefficient tuples (low degree first, without
    trailing zeros). When p > 0 the coefficients are reduced residues mod p
    and `_prem` divides; when p == 0 they may be Fractions or elements of any
    Field."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    nb = len(b)
    q = [0] * max(0, len(a) - nb + 1)
    if p:
        _prem(a, b, p, q)
        return tuple(q), tuple(a)
    inv_lead = Fraction(1) / b[-1]
    while len(a) >= nb:
        while a and not a[-1]:
            a.pop()
        if len(a) < nb:
            break
        s = a[-1] * inv_lead
        d = len(a) - nb
        q[d] = s
        for i, y in enumerate(b):
            a[i + d] -= s * y
        a.pop()
    return _pnorm(q, 0), _pnorm(a, 0)


def _pgcd(a, b, p):
    """The monic gcd by Euclid's algorithm; over F_p on remainders only."""
    if len(a) == 1 or len(b) == 1:  # a nonzero constant
        return (1,)
    if p:
        a, b = list(a), list(b)
        while b:
            _prem(a, b, p)
            a, b = b, a
    else:
        while b:
            a, b = b, poly_divmod(a, b, p)[1]
    if a and a[-1] != 1:
        return _pscale(a, _cinv(a[-1], p), p)
    return tuple(a)


def _pstr(c, var):
    if not c:
        return "0"
    terms = []
    for i in range(len(c) - 1, -1, -1):
        x = c[i]
        if not x:
            continue
        if i == 0:
            terms.append(str(x))
        else:
            head = "" if x == 1 else f"{x}*"
            tail = var if i == 1 else f"{var}^{i}"
            terms.append(head + tail)
    return "+".join(terms).replace("+-", "-")


def _sqrt_fraction(q: Fraction):
    """Exact square root of a rational, or None."""
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _sqrt_mod_p(a: int, p: int):
    """Tonelli-Shanks; returns a square root of a mod p, or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


# the interned descriptors, keyed by (kind, p, var, d)
_FIELDS = {}


class Field:
    """Descriptor of one supported exact field; one subclass per kind.

    `kind` is "Q", "Fp", "Fpt" or "Qsqrt". Obtain descriptors from the
    module-level factories (QQ, GF, FunctionField, QuadraticField) or
    Field.from_json, which return one shared instance per field. The
    underscore methods are the kind's arithmetic on raw values; the defaults
    here serve the prime fields, whose raw values are plain numbers.
    """

    __slots__ = ("p", "var", "d", "_hash")
    kind = None

    @classmethod
    def _get(cls, p=None, var=None, d=None):
        key = (cls.kind, p, var, d)
        field = _FIELDS.get(key)
        if field is None:
            field = _FIELDS[key] = object.__new__(cls)
            field.p, field.var, field.d, field._hash = p, var, d, hash(key)
        return field

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # copies and unpickled descriptors must be the interned instance
        return Field.from_json, (self.to_json(),)

    @property
    def characteristic(self):
        return self.p or 0

    # -- constructors ---------------------------------------------------------
    def from_fraction(self, q: Fraction) -> "FieldElement":
        q = Fraction(q)
        return self.from_int(q.numerator) / self.from_int(q.denominator)

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def generator(self) -> "FieldElement":
        """t for function fields, sqrt(d) for quadratic extensions."""
        raise Unsupported(f"{self!r} has no distinguished generator")

    # -- parsing / serialization ----------------------------------------------
    def parse(self, src) -> "FieldElement":
        if isinstance(src, FieldElement):
            if src.field is not self:
                raise DescriptorMismatch("element belongs to a different field")
            return src
        if isinstance(src, int):
            return self.from_int(src)
        return _expr.evaluate(str(src), self.from_int, *self._parse_names())

    def _parse_names(self):
        """(atoms, functions) the expression parser may use."""
        return {}, {}

    @staticmethod
    def from_json(data) -> "Field":
        kind = data["kind"]
        if kind == "Q":
            return QQ()
        if kind == "Fp":
            return GF(data["p"])
        if kind == "Fpt":
            return FunctionField(data["p"], data.get("var", "t"))
        if kind == "Qsqrt":
            return QuadraticField(data["d"])
        raise FieldError(f"unknown field kind {kind!r}")

    def prime_field_rows(self, values):
        """Coordinates of the elements `values` over the prime field (Fraction
        or int values, reduced mod p in characteristic p): one row per
        coordinate, one column per value."""
        return [[v._v for v in values]]

    # -- raw-value arithmetic ---------------------------------------------------
    def _is_zero(self, a):
        return not a

    _prod = property(lambda self: self._mul)  # the multiply for products bound for a merge

    def _settle(self, sums):
        """A merge's sums, canonical and without zeros (copied only if needed)."""
        is_zero = self._is_zero
        if any(map(is_zero, sums.values())):
            return {k: v for k, v in sums.items() if not is_zero(v)}
        return sums

    def _axpy(self, xs, f, ys):
        """The row update xs + f*ys of an elimination, entry by entry."""
        add, mul = self._add, self._mul
        return [add(x, mul(f, y)) for x, y in zip(xs, ys)]

    def _prime(self, a):
        """The value in Q or F_p, or None if it is not in the prime field."""
        return a

    def _str(self, a):
        return str(a)


class RationalField(Field):
    __slots__ = ()
    kind = "Q"

    def __repr__(self):
        return "Field(Q)"

    def to_json(self):
        return {"kind": "Q"}

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, Fraction(n))

    def from_fraction(self, q: Fraction) -> "FieldElement":
        return FieldElement(self, Fraction(q))

    def random(self, rng) -> "FieldElement":
        return FieldElement(self, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        return 1 / a

    def _sqrt(self, a):
        r = _sqrt_fraction(a)
        return None if r is None else FieldElement(self, r)


class PrimeField(Field):
    __slots__ = ()
    kind = "Fp"

    def __repr__(self):
        return f"Field(F{self.p})"

    def to_json(self):
        return {"kind": "Fp", "p": self.p}

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, n % self.p)

    def random(self, rng) -> "FieldElement":
        return self.from_int(rng.randrange(self.p))

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    # delayed reduction: a product bound for a merge is reduced by its add or `_settle`
    _prod = staticmethod(operator.mul)

    def _settle(self, sums):
        p = self.p
        if all(map(range(1, p).__contains__, sums.values())):
            return sums
        return {k: r for k, v in sums.items() if (r := v % p)}

    def _axpy(self, xs, f, ys):
        p = self.p
        return [(x + f * y) % p for x, y in zip(xs, ys)]

    def _sqrt(self, a):
        r = _sqrt_mod_p(a, self.p)
        return None if r is None else FieldElement(self, r)


class RationalFunctionField(Field):
    """F_p(t), or Q(t) when p == 0; coefficients are ints mod p or Fractions
    (over Q(t) an int may stand for an equal Fraction)."""

    __slots__ = ()
    kind = "Fpt"

    def __repr__(self):
        base = "Q" if self.p == 0 else f"F{self.p}"
        return f"Field({base}({self.var}))"

    def to_json(self):
        return {"kind": "Fpt", "p": self.p, "var": self.var}

    def _one_coeff(self):
        return Fraction(1) if self.p == 0 else 1

    def from_int(self, n: int) -> "FieldElement":
        c = Fraction(n) if self.p == 0 else n % self.p
        return FieldElement(self, (_pnorm((c,), self.p), (self._one_coeff(),)))

    def generator(self) -> "FieldElement":
        zero = Fraction(0) if self.p == 0 else 0
        return FieldElement(self, ((zero, self._one_coeff()), (self._one_coeff(),)))

    def random(self, rng) -> "FieldElement":
        deg = rng.randint(0, 2)
        num = [Fraction(rng.randint(-3, 3)) if self.p == 0 else rng.randrange(self.p)
               for _ in range(deg + 1)]
        elem = FieldElement(self, (_pnorm(num, self.p), (self._one_coeff(),)))
        if rng.random() < 0.3:
            den = self.generator() + self.from_int(rng.randint(1, 3))
            elem = elem / den
        return elem

    def _parse_names(self):
        return {self.var: self.generator()}, {}

    def prime_field_rows(self, values):
        # clear denominators; rows are numerator coefficients
        p = self.p
        common = (self._one_coeff(),)
        for v in values:
            common = _pmul(common, v._v[1], p)
        nums = [_pmul(v._v[0], poly_divmod(common, v._v[1], p)[0], p) for v in values]
        deg = max([1] + [len(num) for num in nums])
        zero = Fraction(0) if p == 0 else 0
        return [[num[i] if i < len(num) else zero for num in nums] for i in range(deg)]

    def _reduce(self, num, den):
        """Canonical form of num/den, both normalised and den nonzero."""
        p = self.p
        if not num:
            return ((), (self._one_coeff(),))
        g = _pgcd(num, den, p)
        if len(g) > 1:
            num = poly_divmod(num, g, p)[0]
            den = poly_divmod(den, g, p)[0]
        if den[-1] == 1:
            return (num, den)
        lead = _cinv(den[-1], p)
        return (_pscale(num, lead, p), _pscale(den, lead, p))

    def _is_zero(self, a):
        return not a[0]

    def _add(self, a, b):
        """Henrici's sum (Knuth, TAOCP vol. 2, 4.5.1): with g = gcd(ad, bd) the
        sum is t/(ad/g * bd) for t = an*(bd/g) + bn*(ad/g), and only gcd(t, g) cancels."""
        (an, ad), (bn, bd), p = a, b, self.p
        if not an:
            return b
        if not bn:
            return a
        if ad == bd:
            if len(ad) == 1:  # both denominators are 1
                return (_padd(an, bn, p), ad)
            return self._reduce(_padd(an, bn, p), ad)
        g = _pgcd(ad, bd, p)
        if len(g) == 1:  # coprime denominators: the sum is already reduced
            return (_padd(_pmul(an, bd, p), _pmul(bn, ad, p), p), _pmul(ad, bd, p))
        # a + b is not zero here: reduced values with unequal denominators differ
        ad_g, bd_g = poly_divmod(ad, g, p)[0], poly_divmod(bd, g, p)[0]
        num = _padd(_pmul(an, bd_g, p), _pmul(bn, ad_g, p), p)
        g2 = _pgcd(num, g, p)
        if len(g2) > 1:
            num, bd = poly_divmod(num, g2, p)[0], poly_divmod(bd, g2, p)[0]
        return (num, _pmul(ad_g, bd, p))

    def _neg(self, a):
        return (_pneg(a[0], self.p), a[1])

    def _mul(self, a, b):
        """Cross-cancelled product: the factors are reduced, so gcd(an, bd)
        and gcd(bn, ad) are all that can cancel; monic over monic is monic."""
        (an, ad), (bn, bd), p = a, b, self.p
        if not an or not bn:
            return ((), (self._one_coeff(),))
        if len(ad) == 1 and len(bd) == 1:
            return (_pmul(an, bn, p), ad)
        g = _pgcd(an, bd, p)
        if len(g) > 1:
            an, bd = poly_divmod(an, g, p)[0], poly_divmod(bd, g, p)[0]
        g = _pgcd(bn, ad, p)
        if len(g) > 1:
            bn, ad = poly_divmod(bn, g, p)[0], poly_divmod(ad, g, p)[0]
        return (_pmul(an, bn, p), _pmul(ad, bd, p))

    def _inv(self, a):
        return self._reduce(a[1], a[0])

    def _prime(self, a):
        num, den = a
        if len(num) <= 1 and den == (self._one_coeff(),):
            return num[0] if num else (Fraction(0) if self.p == 0 else 0)
        return None

    def _sqrt(self, a):
        c = self._prime(a)
        if c is None:
            raise Unsupported("is_square is only decided on the prime subfield")
        if self.p == 0:
            r = _sqrt_fraction(c)
            return None if r is None else self.from_fraction(r)
        r = _sqrt_mod_p(c, self.p)
        return None if r is None else self.from_int(r)

    def _str(self, a):
        num, den = a
        ns = _pstr(num, self.var)
        if den == (self._one_coeff(),):
            return ns
        return f"({ns})/({_pstr(den, self.var)})"


class QuadraticExtension(Field):
    """Q(sqrt(d)); raw values are integer triples (a, b, n) for (a + b*sqrt(d))/n
    with n > 0 and gcd(a, b, n) == 1, so zero is (0, 0, 1). Fractions appear
    only at the edges: `from_fraction`, `prime_value`, `prime_field_rows`, `str`."""

    __slots__ = ()
    kind = "Qsqrt"

    def __repr__(self):
        return f"Field(Q(sqrt({self.d})))"

    def to_json(self):
        return {"kind": "Qsqrt", "d": self.d}

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, (n, 0, 1))

    def from_fraction(self, q: Fraction) -> "FieldElement":
        q = Fraction(q)
        return FieldElement(self, (q.numerator, 0, q.denominator))

    def generator(self) -> "FieldElement":
        return FieldElement(self, (0, 1, 1))

    def random(self, rng) -> "FieldElement":
        a = rng.randint(-4, 4)
        n = rng.randint(1, 3)
        return FieldElement(self, self._norm(a, rng.randint(-3, 3) * n, n))

    def _parse_names(self):
        def _sqrt(arg):
            if arg != self.from_int(self.d):
                raise FieldError(f"only sqrt({self.d}) lives in this field")
            return self.generator()

        return {}, {"sqrt": _sqrt}

    def prime_field_rows(self, values):
        return [[Fraction(v._v[0], v._v[2]) for v in values],
                [Fraction(v._v[1], v._v[2]) for v in values]]

    @staticmethod
    def _norm(a, b, n):
        """The canonical triple of (a + b*sqrt(d))/n, n nonzero."""
        if n == 1:
            return (a, b, 1)
        if n < 0:
            a, b, n = -a, -b, -n
        g = math.gcd(a, b, n)
        return (a // g, b // g, n // g)

    def _is_zero(self, x):
        return not (x[0] or x[1])

    def _add(self, x, y):
        (a, b, n), (c, e, m) = x, y
        if n == m:
            return self._norm(a + c, b + e, n)
        return self._norm(a * m + c * n, b * m + e * n, n * m)

    def _neg(self, x):
        return (-x[0], -x[1], x[2])

    def _mul(self, x, y):
        (a, b, n), (c, e, m) = x, y
        return self._norm(a * c + b * e * self.d, a * e + b * c, n * m)

    def _inv(self, x):
        a, b, n = x
        return self._norm(n * a, -n * b, a * a - b * b * self.d)

    def _prime(self, x):
        return Fraction(x[0], x[2]) if x[1] == 0 else None

    def _sqrt(self, x):
        q = self._prime(x)
        if q is None:
            raise Unsupported("is_square is only decided on the prime subfield")
        r = _sqrt_fraction(q)
        if r is not None:
            return self.from_fraction(r)
        r = _sqrt_fraction(q / self.d)
        if r is not None:
            return self.from_fraction(r) * self.generator()
        return None

    def _str(self, x):
        a, b = Fraction(x[0], x[2]), Fraction(x[1], x[2])
        if b == 0:
            return str(a)
        bs = f"sqrt({self.d})" if b == 1 else f"{b}*sqrt({self.d})"
        if a == 0:
            return bs
        return f"{a}+{bs}".replace("+-", "-")


def _prime(p) -> int:
    if not isinstance(p, int) or not _is_prime(p):
        raise FieldError(f"{p} is not prime")
    if p == 2:
        raise FieldError("characteristic 2 is not supported")
    return p


def QQ() -> Field:
    return RationalField._get()


def GF(p: int) -> Field:
    return PrimeField._get(p=_prime(p))


def FunctionField(p: int, var: str = "t") -> Field:
    if p != 0 or not isinstance(p, int):
        _prime(p)
    if not var or not var.isidentifier():
        raise FieldError("function field needs a variable name")
    return RationalFunctionField._get(p=p, var=var)


def QuadraticField(d: int) -> Field:
    if not isinstance(d, int) or d in (0, 1) or not _is_squarefree(d):
        raise FieldError(f"d={d} must be square-free and not a square")
    return QuadraticExtension._get(d=d)


class FieldElement:
    """Immutable element of a Field, always in canonical form."""

    __slots__ = ("field", "_v")

    def __init__(self, field: Field, value):
        self.field = field
        self._v = value

    # -- helpers ---------------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise DescriptorMismatch("mixed field descriptors")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.from_fraction(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return self.field._is_zero(self._v)

    def is_one(self) -> bool:
        return self == self.field.one()

    def prime_value(self):
        """The value in Q (a Fraction) or F_p (an int) when the element lies in
        the prime field, else None."""
        return self.field._prime(self._v)

    # -- arithmetic --------------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        return FieldElement(f, f._add(self._v, other._v))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return FieldElement(f, f._neg(self._v))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        return FieldElement(f, f._add(self._v, f._neg(other._v)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        return FieldElement(f, f._mul(self._v, other._v))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        f = self.field
        return FieldElement(f, f._inv(self._v))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out, base = self.field.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = self._coerce(other)
            except FieldError:
                return NotImplemented
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field is other.field and self._v == other._v

    def __hash__(self):
        return hash((self.field, self._v))

    def __bool__(self):
        return not self.is_zero()

    # -- squares -------------------------------------------------------------------
    def sqrt(self):
        """An exact square root, or None if provably not a square.

        Raises Unsupported outside the decidable cases (non-constant function
        field elements; quadratic-extension elements with a sqrt(d) part).
        """
        return self.field._sqrt(self._v)

    def is_square(self) -> bool:
        return self.sqrt() is not None

    # -- printing --------------------------------------------------------------------
    def __str__(self):
        return self.field._str(self._v)

    def __repr__(self):
        return f"<{self} in {self.field!r}>"


def lincomb_raw(field: Field, terms) -> dict:
    """The sparse linear combination of raw (key, value) pairs as a new dict
    {key: raw sum}, first-insertion order, zero sums left out: the one place
    where sparse coefficients are merged (by the kind's `_add` and `_settle`)."""
    out = {}
    get = out.get
    add = field._add
    for key, v in terms:
        cur = get(key)
        out[key] = v if cur is None else add(cur, v)
    return field._settle(out)


def _reject(c, field):
    raise DescriptorMismatch(f"coefficient {c!r} is not in {field!r}")


def lincomb(field: Field, terms) -> dict:
    """`lincomb_raw` on field elements: `terms` is a dict or an iterable of
    (key, coefficient) pairs, and every coefficient must be an element of
    `field` (DescriptorMismatch otherwise). Returns {key: element}."""
    terms = list(terms.items() if isinstance(terms, dict) else terms)
    sums = lincomb_raw(field, [(key, c._v) for key, c in terms if type(c) is FieldElement
                               and c.field is field or _reject(c, field)])
    if len(sums) == len(terms):  # no key repeated and no zero: the given elements
        return dict(terms)
    return {key: FieldElement(field, v) for key, v in sums.items()}


class Sparse:
    """A sparse K-linear combination {key: coefficient} over `field`.

    `terms` (a dict or an iterable of (key, coefficient) pairs) is merged by
    `lincomb`, so `self.terms` never holds a zero or a coefficient from
    another field. A subclass adds its own attributes and product and
    defines `_like(terms)`, which builds a value of its own kind from terms.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        self.field = field
        self.terms = lincomb(field, terms)

    def __add__(self, other):
        return self._like(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like((k, -c) for k, c in self.terms.items())

    def scale(self, c):
        c = self.field.parse(c)
        return self._like((k, c * v) for k, v in self.terms.items())

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def is_zero(self):
        return not self.terms
