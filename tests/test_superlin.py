import random

import pytest

from superhopf import superlin
from superhopf.fields import GF, QQ, DescriptorMismatch, FunctionField, QuadraticField
from superhopf.superlin import (
    EVEN,
    ODD,
    InconsistentSystem,
    SuperLinearMap,
    SuperVectorSpace,
    braiding,
    koszul_sign,
    tensor_space,
)


def _random_map(rng, field, dom, cod, parity=None):
    entries = {}
    for i in range(cod.dim):
        for j in range(dom.dim):
            if parity is not None and (cod.parities[i] - dom.parities[j] - parity) % 2:
                continue
            if rng.random() < 0.6:
                entries[(i, j)] = field.random(rng)
    return SuperLinearMap(dom, cod, field, entries, parity)


def test_rank_nullity_randomized():
    rng = random.Random(11)
    for field in (QQ(), GF(5), FunctionField(5), QuadraticField(-1)):
        for _ in range(30):
            dom = SuperVectorSpace.make([f"e{i}" for i in range(rng.randint(1, 4))],
                                        [f"o{i}" for i in range(rng.randint(0, 3))])
            cod = SuperVectorSpace.make([f"f{i}" for i in range(rng.randint(1, 4))],
                                        [f"p{i}" for i in range(rng.randint(0, 3))])
            m = _random_map(rng, field, dom, cod)
            _, kern = m.kernel()
            assert m.rank() + len(kern) == dom.dim
            for vec in kern:
                assert all(v.is_zero() for v in m.apply(vec))


def test_linear_map_rejects_foreign_entries_and_stores_no_zero():
    Q = QQ()
    space = SuperVectorSpace.make(["a", "b"], ["c"])
    with pytest.raises(DescriptorMismatch):
        SuperLinearMap(space, space, Q, {(0, 0): GF(7).from_int(3)}, EVEN)
    m = SuperLinearMap(space, space, Q, {(0, 0): Q.one(), (1, 1): Q.zero(), (0, 1): Q.one()}, EVEN)
    assert list(m.entries) == [(0, 0), (0, 1)]
    # the (0, 0) entry of m * n is 1*1 + 1*(-1)
    n = SuperLinearMap(space, space, Q, {(0, 0): Q.one(), (1, 0): -Q.one(), (1, 1): Q.one()}, EVEN)
    assert m.compose(n).entries == {(0, 1): Q.one()}


def test_trivial_examples():
    Q = QQ()
    space = SuperVectorSpace.make(["a", "b", "c"], [])
    zero = SuperLinearMap(space, space, Q, {}, EVEN)
    _, kern = zero.kernel()
    assert len(kern) == 3
    ident = SuperLinearMap(space, space, Q,
                           {(i, i): Q.one() for i in range(3)}, EVEN)
    assert ident.rank() == 3
    two = SuperVectorSpace.make(["a", "b"], [])
    ones = SuperLinearMap(two, two, Q, {(i, j): Q.one() for i in range(2) for j in range(2)}, EVEN)
    assert ones.rank() == 1
    dom = SuperVectorSpace.make(["a", "b"], ["c"])
    for parity in (None, EVEN):
        to_zero = SuperLinearMap(dom, SuperVectorSpace.make([], []), Q, {}, parity)
        kspace, kern = to_zero.kernel()
        assert kspace.dim == len(kern) == dom.dim
        for par, vec in zip(kspace.parities, kern):
            support = {dom.parities[i] for i, c in enumerate(vec) if not c.is_zero()}
            assert len(support) == 1
            if parity is not None:
                assert support == {par}


def test_solve_and_inconsistent():
    Q = QQ()
    rows = [[Q.from_int(1), Q.from_int(1)], [Q.from_int(2), Q.from_int(2)]]
    sol = superlin.solve(rows, [Q.from_int(3), Q.from_int(6)], Q)
    assert sol[0] + sol[1] == Q.from_int(3)
    with pytest.raises(InconsistentSystem):
        superlin.solve(rows, [Q.from_int(3), Q.from_int(7)], Q)


def _mat_vec(rows, x, field):
    return [sum((a * b for a, b in zip(row, x)), start=field.zero()) for row in rows]


def test_solve_round_trip_randomized():
    """rows * solve(rows, rhs) == rhs, and no solution exactly when the
    augmented matrix has the larger rank; the same for a sparse system
    restricted to a set of columns through solve_on."""
    rng = random.Random(23)
    seen = set()
    for field in (QQ(), GF(5), FunctionField(5), QuadraticField(-1)):
        for _ in range(25):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[field.random(rng) if rng.random() < 0.6 else field.zero() for _ in range(n)]
                    for _ in range(m)]
            if rng.random() < 0.5:
                rhs = _mat_vec(rows, [field.random(rng) for _ in range(n)], field)
            else:
                rhs = [field.random(rng) for _ in range(m)]
            consistent = (superlin.rank([r + [b] for r, b in zip(rows, rhs)], field)
                          == superlin.rank(rows, field))
            try:
                sol = superlin.solve(rows, rhs, field)
            except InconsistentSystem:
                assert not consistent
            else:
                assert consistent and _mat_vec(rows, sol, field) == rhs

            cols = sorted(rng.sample(range(n), rng.randint(0, n)))
            system = {}
            for i, row in enumerate(rows):
                for j, c in enumerate(row):
                    superlin.add_entry(system, ("row", i), j, c)
            target = {("row", i): b for i, b in enumerate(rhs) if rng.random() < 0.8}
            restricted = [[row[j] for j in cols] for row in rows]
            wanted = [target.get(("row", i), field.zero()) for i in range(m)]
            consistent = (superlin.rank([r + [b] for r, b in zip(restricted, wanted)], field)
                          == superlin.rank(restricted, field))
            sol = superlin.solve_on(system, target, cols, n, field)
            assert (sol is not None) == consistent
            seen.add(consistent)
            if sol is not None:
                assert len(sol) == n
                assert all(sol[j].is_zero() for j in range(n) if j not in cols)
                assert _mat_vec(rows, sol, field) == wanted
    assert seen == {True, False}
    Q = QQ()
    assert superlin.solve_on({}, {}, [0, 1], 3, Q) == [Q.zero()] * 3
    assert superlin.solve_on({}, {"no such row": Q.one()}, [0, 1], 3, Q) is None


ELIMINATION_FIELDS = [QQ(), GF(3), GF(5), FunctionField(5, "t"), FunctionField(3, "t"),
                      FunctionField(0, "t"), QuadraticField(-1), QuadraticField(2)]


def _reference_row_reduce(rows, field):
    """Gauss-Jordan on boxed field elements with the first nonzero pivot:
    the loop that row_reduce runs on raw values."""
    rows = [row[:] for row in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if not rows[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


@pytest.mark.parametrize("field", ELIMINATION_FIELDS, ids=repr)
def test_row_reduce_matches_boxed_reference(field):
    """Equal rows and pivots on empty, wide, tall, square, sparse,
    rank-deficient, zero-row and zero-column matrices; the input is kept."""
    rng = random.Random(37)
    zero = field.zero()

    def rand(m, n, density=0.7):
        return [[field.random(rng) if rng.random() < density else zero for _ in range(n)]
                for _ in range(m)]

    cases = [[], [[]], [[], []], [[zero] * 3] * 2]
    for k in (1, 2, 3):
        cases += [rand(2, 6), rand(6, 2), rand(4, 4), rand(4, 5, 0.3)]
        left, right = rand(5, k, 1), rand(k, 4, 1)
        cases.append([_mat_vec(left, col, field) for col in zip(*right)])  # rank <= k
        with_zero_row = rand(3, 4)
        with_zero_row.insert(rng.randint(0, 3), [zero] * 4)
        cases.append(with_zero_row)
        cases.append([row[:1] + [zero] + row[1:] for row in rand(4, 3)])
    ranks = set()
    for rows in cases:
        before = [row[:] for row in rows]
        reduced, pivots = superlin.row_reduce(rows, field)
        assert (reduced, pivots) == _reference_row_reduce(rows, field)
        assert rows == before
        assert all(x.field is field for row in reduced for x in row)
        ranks.add(len(pivots))
    assert ranks >= {0, 1, 2, 4}


def test_row_reduce_rejects_entries_of_another_field():
    Q, F3, F5 = QQ(), GF(3), GF(5)
    # the foreign entry is a zero that the elimination never multiplies
    with pytest.raises(DescriptorMismatch):
        superlin.row_reduce([[Q.one(), Q.zero()], [F5.zero(), Q.zero()]], Q)
    with pytest.raises(DescriptorMismatch):
        superlin.row_reduce([[F5.one()], [F3.zero()]], F5)
    with pytest.raises(DescriptorMismatch):
        superlin.row_reduce([[Q.one(), Q.from_int(2)]], F5)


def test_parity_homogeneous_kernel():
    Q = QQ()
    dom = SuperVectorSpace.make(["e0"], ["o0", "o1"])
    cod = SuperVectorSpace.make(["f0"], ["p0"])
    m = SuperLinearMap(dom, cod, Q, {(1, 1): Q.one(), (1, 2): Q.one()}, EVEN)
    assert m.check_parity_homogeneous()
    space, kern = m.kernel()
    assert space.dim == 2
    for parity, vec in zip(space.parities, kern):
        support = {dom.parities[i] for i, c in enumerate(vec) if not c.is_zero()}
        assert support == {parity}


def test_parity_shift_involution():
    v = SuperVectorSpace.make(["a"], ["b", "c"])
    shifted = v.parity_shift()
    assert shifted.even_dim == 2 and shifted.odd_dim == 1
    assert shifted.parity_shift() == v
    assert shifted.dim == v.dim


def test_koszul_sign_rule():
    assert koszul_sign(ODD, ODD) == -1
    assert koszul_sign(EVEN, ODD) == 1
    assert koszul_sign(ODD, EVEN) == 1


def test_braiding_signs_and_involution():
    Q = QQ()
    v = SuperVectorSpace.make(["e"], ["z"])
    w = SuperVectorSpace.make([], ["w"])
    b = braiding(v, w, Q)
    # odd (x) odd picks up a sign
    zw_index = 1 * w.dim + 0  # z (x) w in v (x) w
    wz_index = 0 * v.dim + 1  # w (x) z in w (x) v
    assert b.entries[(wz_index, zw_index)] == Q.from_int(-1)
    # even (x) odd does not
    ew_index = 0 * w.dim + 0
    we_index = 0 * v.dim + 0
    assert b.entries[(we_index, ew_index)] == Q.one()
    back = braiding(w, v, Q)
    roundtrip = back.compose(b)
    for (i, j), c in roundtrip.entries.items():
        assert (i == j) == c.is_one()


def test_tensor_space_parities():
    v = SuperVectorSpace.make(["e"], ["z"])
    t = tensor_space(v, v)
    assert t.parities == (EVEN, ODD, ODD, EVEN)


def test_image_basis_and_map_solve():
    Q = QQ()
    dom = SuperVectorSpace.make(["a", "b"], [])
    cod = SuperVectorSpace.make(["x", "y"], [])
    m = SuperLinearMap(dom, cod, Q,
                       {(0, 0): Q.one(), (0, 1): Q.one(),
                        (1, 0): Q.from_int(2), (1, 1): Q.from_int(2)}, EVEN)
    space, vectors = m.image()
    assert space.dim == 1
    assert vectors[0][1] == vectors[0][0] * 2
    sol = m.solve([Q.from_int(3), Q.from_int(6)])
    assert m.apply(sol) == [Q.from_int(3), Q.from_int(6)]
    with pytest.raises(InconsistentSystem):
        m.solve([Q.from_int(3), Q.from_int(5)])


def test_image_respects_parity():
    Q = QQ()
    dom = SuperVectorSpace.make(["a"], ["b"])
    cod = SuperVectorSpace.make(["x"], ["y"])
    m = SuperLinearMap(dom, cod, Q, {(0, 0): Q.one(), (1, 1): Q.from_int(3)}, EVEN)
    space, vectors = m.image()
    assert space.dim == 2
    assert set(space.parities) == {EVEN, ODD}


def test_map_json():
    Q = QQ()
    v = SuperVectorSpace.make(["a"], ["b"])
    m = SuperLinearMap(v, v, Q, {(0, 0): Q.one(), (1, 1): Q.from_int(2)}, EVEN)
    data = m.to_json()
    assert data["triplets"] == [[0, 0, "1"], [1, 1, "2"]]
