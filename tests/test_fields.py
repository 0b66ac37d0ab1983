import copy
import math
import random
from fractions import Fraction
from itertools import chain

import pytest

from superhopf.fields import (
    DescriptorMismatch,
    DivisionByZero,
    Field,
    FieldElement,
    FieldError,
    FunctionField,
    GF,
    QQ,
    QuadraticField,
    Unsupported,
    lincomb,
    poly_divmod,
)
from superhopf.chargroup import GroupDescriptor, LieFunctional
from superhopf.hopfcore import HopfElement, TensorElement, build_algebra
from superhopf.smoothcheck import Polynomial, PolyRing, SuperAlgebraPresentation, SuperElement

import oracles
from oracles import mod_p_squares, rational_is_square

ALL_FIELDS = [QQ(), GF(5), GF(3), FunctionField(5, "t"), FunctionField(0, "t"), QuadraticField(-1), QuadraticField(2)]
# Q, F_3, F_5, F_5(t), F_3(t), Q(t), Q(sqrt(-1)), Q(sqrt(2))
EIGHT_FIELDS = ALL_FIELDS + [FunctionField(3, "t")]


def test_characteristic_two_rejected():
    with pytest.raises(FieldError):
        GF(2)
    with pytest.raises(FieldError):
        FunctionField(2, "t")
    with pytest.raises(FieldError):
        GF(6)
    with pytest.raises(FieldError):
        QuadraticField(4)
    with pytest.raises(FieldError):
        QuadraticField(12)


def test_non_integer_parameters_rejected():
    # interning keys on the value, and 5.0 == 5 would alias GF(5)
    for data in ({"kind": "Fp", "p": 5.0}, {"kind": "Fpt", "p": 0.0, "var": "t"},
                 {"kind": "Fpt", "p": "5", "var": "t"}, {"kind": "Qsqrt", "d": 2.0}):
        with pytest.raises(FieldError):
            Field.from_json(data)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_field_axioms_randomized(field):
    rng = random.Random(17)
    for _ in range(40):
        a, b, c = (field.random(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == field.zero()
        if not a.is_zero():
            assert (a * a.inverse()).is_one()


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_parse_roundtrip(field):
    rng = random.Random(5)
    for _ in range(25):
        a = field.random(rng)
        assert field.parse(str(a)) == a


def test_descriptor_mismatch():
    with pytest.raises(DescriptorMismatch):
        QQ().one() + GF(5).one()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ().one() / QQ().zero()


def test_is_square_examples():
    Q = QQ()
    assert Q.parse("1/4").is_square()
    assert Q.parse("1/4").sqrt() == Q.parse("1/2")
    assert not Q.parse("2").is_square()
    F5 = GF(5)
    assert F5.from_int(4).is_square()
    w = F5.from_int(4).sqrt()
    assert w * w == F5.from_int(4)


def test_square_oracle_agreement_rationals():
    Q = QQ()
    rng = random.Random(23)
    for _ in range(120):
        num = rng.randint(-30, 30)
        den = rng.randint(1, 20)
        elem = Q.from_fraction(Fraction(num, den))
        assert elem.is_square() == rational_is_square(num, den)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_square_oracle_agreement_mod_p(p):
    F = GF(p)
    squares = mod_p_squares(p)
    for a in range(p):
        elem = F.from_int(a)
        assert elem.is_square() == (a in squares)
        if elem.is_square():
            w = elem.sqrt()
            assert w * w == elem


def test_square_witness_exists_when_true():
    rng = random.Random(2)
    for field in ALL_FIELDS:
        for _ in range(20):
            a = field.random(rng)
            try:
                w = a.sqrt()
            except Unsupported:
                continue
            if w is not None:
                assert w * w == a


def test_quadratic_extension_squares():
    Qi = QuadraticField(-1)
    assert Qi.parse("-1").sqrt() == Qi.generator()
    assert Qi.parse("-4").sqrt() == Qi.generator() * 2
    assert not Qi.parse("2").is_square()
    with pytest.raises(Unsupported):
        Qi.parse("1+sqrt(-1)").is_square()
    Q2 = QuadraticField(2)
    assert Q2.parse("2").sqrt() == Q2.generator()
    assert Q2.parse("8").sqrt() == Q2.generator() * 2


def test_function_field_squares_constants_only():
    K = FunctionField(5, "t")
    assert K.from_int(4).is_square()
    with pytest.raises(Unsupported):
        (K.generator() + 1).is_square()


def test_function_field_canonical_form():
    K = FunctionField(5, "t")
    t = K.generator()
    a = (t ** 2 - 1) / (t - 1)  # reduces to t + 1
    assert a == t + 1
    b = (t + 1) / (t * 2 + 2)   # monic denominator, reduced
    assert b == K.from_int(2).inverse() * K.one() or not b.is_zero()
    assert str(K.parse(str(b))) == str(b)


def test_rational_function_random_constants_are_fractions():
    """`prime_value()` of a Q(t) constant is a Fraction, also for the
    constants `random` draws and their sums and products."""
    K = FunctionField(0)
    rng = random.Random(7)
    constants = [c for c in (K.random(rng) for _ in range(100)) if c.prime_value() is not None]
    assert len(constants) > 10
    for a, b in zip(constants, constants[1:]):
        for c in (a, a + b, a * b):
            assert type(c.prime_value()) is Fraction, c


def test_json_roundtrip():
    for field in ALL_FIELDS:
        assert Field.from_json(field.to_json()) == field
    assert Field.from_json({"kind": "Q"}).kind == "Q"
    assert Field.from_json({"kind": "Fp", "p": 5}).p == 5
    assert Field.from_json({"kind": "Fpt", "p": 5, "var": "t"}).var == "t"
    assert Field.from_json({"kind": "Qsqrt", "d": -1}).d == -1


def _qsqrt(field, a0, a1):
    return field.from_fraction(a0) + field.from_fraction(a1) * field.generator()


def _qsqrt_ref(op, x, y, d):
    (a, b), (c, e) = x, y
    if op == "add":
        return a + c, b + e
    if op == "sub":
        return a - c, b - e
    if op == "mul":
        return a * c + b * e * d, a * e + b * c
    norm = c * c - e * e * d
    ci, ei = c / norm, -e / norm
    return a * ci + b * ei * d, a * ei + b * ci


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_prime_field_ops_match_ints_mod_p(p):
    F = GF(p)
    rng = random.Random(p)
    for _ in range(200):
        x, y = rng.randrange(p), rng.randrange(p)
        a, b = F.from_int(x), F.from_int(y)
        assert str(a + b) == str((x + y) % p)
        assert str(a - b) == str((x - y) % p)
        assert str(a * b) == str((x * y) % p)
        assert str(-a) == str(-x % p)
        assert a.is_zero() == (x == 0)
        if y:
            assert str(a / b) == str(x * pow(y, p - 2, p) % p)
            assert str(b.inverse()) == str(pow(y, p - 2, p))


def test_rational_ops_match_fraction():
    Q = QQ()
    rng = random.Random(31)
    for _ in range(300):
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        y = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        a, b = Q.from_fraction(x), Q.from_fraction(y)
        assert str(a + b) == str(x + y)
        assert str(a - b) == str(x - y)
        assert str(a * b) == str(x * y)
        assert str(-a) == str(-x)
        assert a + 3 == Q.from_fraction(x + 3) and 3 - a == Q.from_fraction(3 - x)
        if y:
            assert str(a / b) == str(x / y)
            assert str(b.inverse()) == str(1 / y)


@pytest.mark.parametrize("d", [-1, 2, -3, 5])
def test_quadratic_ops_match_rational_pairs(d):
    K = QuadraticField(d)
    rng = random.Random(d + 50)

    def rand():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4)), Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    for _ in range(150):
        x, y = rand(), rand()
        a, b = _qsqrt(K, *x), _qsqrt(K, *y)
        for op, got in (("add", a + b), ("sub", a - b), ("mul", a * b)):
            assert got == _qsqrt(K, *_qsqrt_ref(op, x, y, d))
        assert -a == _qsqrt(K, -x[0], -x[1])
        assert a.is_zero() == (x == (0, 0))
        if y != (0, 0):
            assert a / b == _qsqrt(K, *_qsqrt_ref("div", x, y, d))


class _RatFunRef:
    """The reference arithmetic of F_p(t) / Q(t) on canonical pairs of
    coefficient tuples, which are also the engine's raw values."""

    def __init__(self, field):
        self.field, self.p = field, field.p
        t = (0, 1)
        # small monic factors, so that denominators share factors often
        self.factors = [t, (1, 1), (2, 1), (1, 0, 1), (1, 1, 1)]

    def draw(self, rng):
        p = self.p
        coeff = (lambda: rng.randrange(p)) if p else (lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        num = [coeff() for _ in range(rng.randint(0, 3))]
        den = (1,)
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            den = oracles._poly_mul(den, rng.choice(self.factors), p)
        return oracles.ratfun_reduce(num, den, p)

    def element(self, v):
        return FieldElement(self.field, v)

    def value(self, e):
        return e._v

    def zero(self):
        return oracles.ratfun_reduce([], [1], self.p)

    add = lambda self, x, y: oracles.ratfun_add(x, y, self.p)
    neg = lambda self, x: oracles.ratfun_neg(x, self.p)
    mul = lambda self, x, y: oracles.ratfun_mul(x, y, self.p)
    inv = lambda self, x: oracles.ratfun_inv(x, self.p)
    prime = lambda self, x: oracles.ratfun_prime(x, self.p)
    rows = lambda self, xs: oracles.ratfun_prime_rows(xs, self.p)
    text = lambda self, x: oracles.ratfun_str(x, self.p, self.field.var)

    def is_square(self, q):
        if self.p:
            return q in mod_p_squares(self.p)
        return rational_is_square(q.numerator, q.denominator)

    def assert_canonical(self, e):
        num, den = e._v
        p = self.p
        assert type(num) is tuple and type(den) is tuple
        assert den and den[-1] == 1 and (not num or num[-1] != 0)
        if p:
            assert all(type(c) is int and 0 <= c < p for c in num + den)
        assert oracles.poly_gcd(num, den, p) == (1,) if num else den == (1,)


class _QsqrtRef:
    """The reference arithmetic of Q(sqrt(d)) on pairs of Fractions."""

    def __init__(self, field):
        self.field, self.d = field, field.d

    def draw(self, rng):
        def part():
            if rng.random() < 0.25:
                return Fraction(0)
            return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6)))

        return part(), part()

    def element(self, v):
        a, b = v
        n = math.lcm(a.denominator, b.denominator)
        return FieldElement(self.field, (int(a * n), int(b * n), n))

    def value(self, e):
        a, b, n = e._v
        return Fraction(a, n), Fraction(b, n)

    def zero(self):
        return Fraction(0), Fraction(0)

    add = lambda self, x, y: (x[0] + y[0], x[1] + y[1])
    neg = lambda self, x: (-x[0], -x[1])
    mul = lambda self, x, y: oracles.qsqrt_mul(x, y, self.d)
    inv = lambda self, x: oracles.qsqrt_inv(x, self.d)
    prime = lambda self, x: x[0] if x[1] == 0 else None
    rows = lambda self, xs: [[x[0] for x in xs], [x[1] for x in xs]]
    text = lambda self, x: oracles.qsqrt_str(x, self.d)
    is_square = lambda self, q: oracles.qsqrt_is_square(q, self.d)

    def assert_canonical(self, e):
        a, b, n = e._v
        assert type(a) is int and type(b) is int and type(n) is int
        assert n > 0 and math.gcd(a, b, n) == 1


REFERENCE_FIELDS = [FunctionField(5, "t"), FunctionField(3, "t"), FunctionField(7, "u"),
                    FunctionField(0, "t"), QuadraticField(-1), QuadraticField(2), QuadraticField(-5)]


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_exact_field_kernels_match_reference(field):
    """F_p(t), Q(t) and Q(sqrt(d)) arithmetic against `tests/oracles.py`, by
    value and in canonical form, on random operands with shared and with
    cancelling denominators."""
    ref = (_RatFunRef if field.kind == "Fpt" else _QsqrtRef)(field)
    rng = random.Random(f"{field!r}")
    values = [ref.draw(rng) for _ in range(24)] + [ref.zero()]
    pairs = [(x, y) for x in values[:8] for y in values[8:]]
    for x, z in zip(values, reversed(values)):
        pairs.append((x, ref.add(z, ref.neg(x))))  # x + y lands on z
        if x != ref.zero():
            pairs.append((x, ref.mul(z, ref.inv(x))))  # x * y lands on z
    for x, y in pairs:
        a, b = ref.element(x), ref.element(y)
        cases = [("+", a + b, ref.add(x, y)), ("-", a - b, ref.add(x, ref.neg(y))),
                 ("*", a * b, ref.mul(x, y)), ("neg", -a, ref.neg(x))]
        if y != ref.zero():
            cases += [("inverse", b.inverse(), ref.inv(y)), ("/", a / b, ref.mul(x, ref.inv(y)))]
        for op, got, want in cases:
            ref.assert_canonical(got)
            assert ref.value(got) == want, (op, x, y)
            same = ref.element(want)
            assert got == same and hash(got) == hash(same), (op, x, y)
            assert str(got) == ref.text(want), (op, x, y)
            assert (got == a) == (want == x) and got.is_zero() == (want == ref.zero())
    for x in values:
        e = ref.element(x)
        q = ref.prime(x)
        assert e.prime_value() == q
        if field.kind == "Qsqrt" and q is not None:
            assert type(e.prime_value()) is Fraction
        if q is None:
            with pytest.raises(Unsupported):
                e.sqrt()
            continue
        root = e.sqrt()
        assert (root is not None) == ref.is_square(q)
        if root is not None:
            ref.assert_canonical(root)
            assert root * root == e
    for k in range(0, len(values), 5):
        batch = values[k:k + 5]
        assert field.prime_field_rows([ref.element(x) for x in batch]) == ref.rows(batch)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_equal_elements_hash_equal(field):
    rng = random.Random(3)
    for _ in range(30):
        a, b = field.random(rng), field.random(rng)
        if b.is_zero():
            continue
        c = (a * b) / b
        assert c == a and hash(c) == hash(a)
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)


def test_fields_are_interned():
    for field in ALL_FIELDS:
        assert Field.from_json(field.to_json()) is field
        assert hash(Field.from_json(field.to_json())) == hash(field)
        assert copy.deepcopy(field) is field and copy.deepcopy(field.one()) == field.one()
    assert QQ() is QQ() and GF(5) is GF(5)
    assert FunctionField(5, "t") is not FunctionField(5, "s")
    assert FunctionField(5, "t") != FunctionField(0, "t")


def test_descriptor_mismatch_between_fields_of_one_kind():
    pairs = [(GF(5), GF(7)), (FunctionField(5, "t"), FunctionField(5, "s")),
             (FunctionField(5, "t"), FunctionField(0, "t")), (QuadraticField(-1), QuadraticField(2))]
    for f, g in pairs:
        with pytest.raises(DescriptorMismatch):
            f.one() + g.one()
        with pytest.raises(DescriptorMismatch):
            f.one() * g.one()


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_poly_divmod_over_field_elements(field):
    """q*b + r == a and deg r < deg b, with FieldElement coefficients (p = 0)."""
    rng = random.Random(8)
    for _ in range(40):
        a = [field.random(rng) for _ in range(rng.randint(0, 6))]
        b = [field.random(rng) for _ in range(rng.randint(0, 3))] + [field.random(rng) + 1]
        while b[-1].is_zero():
            b[-1] = field.random(rng)
        q, r = poly_divmod(a, b, 0)
        assert len(r) < len(b) and (not r or not r[-1].is_zero())
        prod = [field.zero()] * (len(a) + len(b))
        for i, x in enumerate(q):
            for j, y in enumerate(b):
                prod[i + j] = prod[i + j] + x * y
        for i, x in enumerate(r):
            prod[i] = prod[i] + x
        assert prod == list(a) + [field.zero()] * (len(prod) - len(a))


def _reference_lincomb(field, pairs):
    """(key, sum) pairs in first-appearance order, zero sums left out."""
    order, sums = [], {}
    for key, c in pairs:
        if key not in sums:
            order.append(key)
            sums[key] = field.zero()
        sums[key] = sums[key] + c
    return [(key, sums[key]) for key in order if not sums[key].is_zero()]


@pytest.mark.parametrize("field", EIGHT_FIELDS, ids=repr)
def test_lincomb_matches_reference_accumulation(field):
    rng = random.Random(23)
    for trial in range(80):
        pairs = [(rng.randrange(6), field.random(rng)) for _ in range(rng.randint(0, 12))]
        for key, c in rng.sample(pairs, len(pairs) // 3):
            pairs.insert(rng.randrange(len(pairs) + 1), (key, -c))  # cancellations
        got = lincomb(field, pairs)
        assert list(got.items()) == _reference_lincomb(field, pairs)
        assert lincomb(field, iter(pairs)) == got
        assert lincomb(field, dict(pairs)) == dict(_reference_lincomb(field, dict(pairs).items()))
        assert all(not c.is_zero() and c.field is field for c in got.values())


@pytest.mark.parametrize("field", EIGHT_FIELDS, ids=repr)
def test_lincomb_repeats_cancellation_and_order(field):
    one, two = field.one(), field.from_int(2)
    assert lincomb(field, []) == {} and lincomb(field, {}) == {}
    assert lincomb(field, [("a", one), ("a", one)]) == {"a": two}
    assert lincomb(field, [("a", one), ("b", two), ("a", -one)]) == {"b": two}
    assert lincomb(field, [("a", field.zero())]) == {}
    # a key keeps the place of its first appearance, even after cancelling
    got = lincomb(field, [("c", one), ("a", one), ("b", one), ("c", -one), ("a", one), ("c", two)])
    assert list(got.items()) == [("c", two), ("a", two), ("b", one)]
    terms = {"x": one}
    out = lincomb(field, terms)
    assert out == terms and out is not terms


def test_lincomb_rejects_coefficients_of_another_field():
    for field, other in [(QQ(), GF(7)), (GF(5), GF(3)), (QQ(), FunctionField(0, "t")),
                         (FunctionField(5, "t"), FunctionField(3, "t")),
                         (QuadraticField(-1), QuadraticField(2))]:
        with pytest.raises(DescriptorMismatch):
            lincomb(field, [("a", field.one()), ("b", other.one())])
        with pytest.raises(DescriptorMismatch):
            lincomb(field, {"a": other.zero()})
    for raw in (1, Fraction(1, 2), 0):
        with pytest.raises(DescriptorMismatch):
            lincomb(QQ(), [("a", raw)])


SPARSE_KINDS = (HopfElement, TensorElement, Polynomial, SuperElement)


def _sparse_kind(kind, field):
    """(make, keys): a constructor of `kind` elements over `field` from
    (key, coefficient) pairs, and four distinct keys of that kind."""
    gm = GroupDescriptor(1, ())
    if kind in (HopfElement, TensorElement):
        alg = build_algebra(field, gm, gm.identity(), LieFunctional(gm, field, free=[1]))
        monos = [alg.monomial(), alg.monomial([1]), alg.monomial([-1], eps=1),
                 alg.monomial(eps=1)]
        if kind is HopfElement:
            return (lambda terms: HopfElement(alg, terms)), monos
        return (lambda terms: TensorElement(alg, 2, terms)), list(zip(monos, monos[1:] + monos[:1]))
    if kind is Polynomial:
        ring = PolyRing(field, ("x", "y"))
        return (lambda terms: Polynomial(ring, terms)), [(0, 0), (1, 0), (0, 2), (1, 1)]
    pres = SuperAlgebraPresentation(field, ("u",), [], ("z",))
    u, z = pres.var_elem(0), pres.odd_elem(0)
    keys = [k for e in (pres.one_elem(), u, z, u * z) for k in e.terms]
    return (lambda terms: SuperElement(pres, terms, reduce=False)), keys


def _listed(element):
    return list(element.terms.items())


@pytest.mark.parametrize("kind", SPARSE_KINDS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("field", [QQ(), GF(5), FunctionField(5, "t")], ids=repr)
def test_sparse_operations_match_lincomb(kind, field):
    """The six operations `fields.Sparse` gives every sparse element type,
    checked on each type against `lincomb` on plain (key, coefficient) lists."""
    make, keys = _sparse_kind(kind, field)
    rng = random.Random(31)
    for _ in range(40):
        pa = [(rng.choice(keys), field.random(rng)) for _ in range(rng.randint(0, 6))]
        pb = [(rng.choice(keys), field.random(rng)) for _ in range(rng.randint(0, 6))]
        pb += [(key, -c) for key, c in rng.sample(pa, len(pa) // 2)]  # cancellations
        a, b = make(pa), make(pb)
        da, db = lincomb(field, pa), lincomb(field, pb)
        assert _listed(a) == list(da.items()) and _listed(b) == list(db.items())
        c = field.random(rng)
        expected = {
            "add": (a + b, chain(da.items(), db.items())),
            "sub": (a - b, chain(da.items(), ((key, -v) for key, v in db.items()))),
            "neg": (-a, ((key, -v) for key, v in da.items())),
            "scale": (a.scale(c), ((key, c * v) for key, v in da.items())),
            "scale int": (a.scale(3), ((key, v * 3) for key, v in da.items())),
        }
        for name, (got, pairs) in expected.items():
            assert type(got) is kind, name
            assert _listed(got) == list(lincomb(field, pairs).items()), name
        assert (a == b) == (da == db) and a == make(list(da.items()))
        assert a.is_zero() == (not da)
        zero = make([])
        assert zero.is_zero() and zero.terms == {}
        for cancelled in (a - a, a + (-a), a.scale(0), b.scale(field.zero())):
            assert type(cancelled) is kind and cancelled.is_zero() and cancelled == zero


@pytest.mark.parametrize("field", [QQ(), GF(5)], ids=repr)
def test_sparse_zeros_of_different_kinds_differ(field):
    zeros = [_sparse_kind(kind, field)[0]([]) for kind in SPARSE_KINDS]
    for i, a in enumerate(zeros):
        for j, b in enumerate(zeros):
            assert (a == b) == (i == j), (type(a).__name__, type(b).__name__)
            assert (a != b) == (i != j)
