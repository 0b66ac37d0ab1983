import random

import pytest

from superhopf import superlin
from superhopf.chargroup import GroupDescriptor, LieFunctional
from superhopf.dgxrep import Supercomodule, tensor_comodule
from superhopf.fields import GF, QQ, DescriptorMismatch, FunctionField, QuadraticField
from superhopf.hopfcore import build_algebra
from superhopf.superlin import EVEN, ODD, InconsistentSystem


def test_rank_nullity_randomized():
    rng = random.Random(11)
    seen_empty = False
    for field in (QQ(), GF(5), FunctionField(5), QuadraticField(-1)):
        for _ in range(30):
            m, n = rng.randint(0, 7), rng.randint(1, 7)
            system = {}
            for i in range(m):
                for j in range(n):
                    if rng.random() < 0.6:
                        superlin.add_entry(system, ("row", i), j, field.random(rng))
            seen_empty |= not system
            kern = superlin.kernel_on(system, range(n), n, field)
            rows = [[row.get(j, field.zero()) for j in range(n)] for row in system.values()]
            assert superlin.rank(rows, field) + len(kern) == n
            for vec in kern:
                assert len(vec) == n
                assert all(v.is_zero() for v in _mat_vec(rows, vec, field))
    assert seen_empty


def test_trivial_examples():
    Q = QQ()
    zero, one = Q.zero(), Q.one()
    assert superlin.kernel_on({}, [0, 2], 3, Q) == [[one, zero, zero], [zero, zero, one]]
    assert superlin.kernel_on({}, [], 3, Q) == []
    # a map into a zero-dimensional space has the whole domain as its kernel
    assert superlin.kernel_by_parity({}, [ODD, EVEN, ODD], Q) == [
        (EVEN, [zero, one, zero]), (ODD, [one, zero, zero]), (ODD, [zero, zero, one])]
    ident = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert superlin.rank(ident, Q) == 3
    assert superlin.rank([[one, one], [one, one]], Q) == 1


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


# GF(101) and GF(2147483647) give large residues, so a row update or a merge
# that left out its final reduction mod p would show
ELIMINATION_FIELDS = [QQ(), GF(3), GF(5), GF(101), GF(2147483647), FunctionField(5, "t"),
                      FunctionField(3, "t"), FunctionField(0, "t"), QuadraticField(-1),
                      QuadraticField(2)]


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


def _reference_coact_vector(m, vec):
    """rho(sum vec_i m_i) accumulated on boxed field elements from the boxed
    coaction, zero sums left out."""
    field = m.field
    out = {}
    for c, row in zip(vec, m.coaction):
        for j, d, chars, eps in row:
            out[(j, chars, eps)] = out.get((j, chars, eps), field.zero()) + c * d
    return {key: c for key, c in out.items() if not c.is_zero()}


@pytest.mark.parametrize("field", ELIMINATION_FIELDS, ids=repr)
def test_coact_vector_matches_boxed_reference(field):
    """The stored rows and coact_vector, which merge raw values, agree with
    boxed accumulation on random coaction tables (repeated entries and
    cancellations included), on the zero vector and on a dim-0 comodule; an
    entry or a comodule from another field is refused."""
    rng = random.Random(41)
    mu4 = GroupDescriptor(0, (4,))
    alg = build_algebra(field, mu4, mu4.character([2]), LieFunctional.zero(mu4, field))
    zero, other = field.zero(), GF(7)
    empty = Supercomodule(alg, (), [])
    assert empty.coaction == () and empty.coact_vector([]) == {}
    for _ in range(12):
        n = rng.randint(1, 5)
        table = []
        for _ in range(n):
            row = [(rng.randrange(n), field.random(rng), (rng.randrange(4),), rng.randrange(2))
                   for _ in range(rng.randint(0, 8))]
            row += [(j, -c, ch, e) for j, c, ch, e in rng.sample(row, len(row) // 3)]
            table.append(row)
        m = Supercomodule(alg, [rng.randrange(2) for _ in range(n)], table)
        for row, stored in zip(table, m.coaction):
            merged = {}
            for j, c, ch, e in row:
                merged[(j, ch, e)] = merged.get((j, ch, e), zero) + c
            assert stored == tuple((j, c, ch, e) for (j, ch, e), c in sorted(merged.items())
                                   if not c.is_zero())
        for vec in ([zero] * n, [field.random(rng) for _ in range(n)],
                    [field.random(rng) if rng.random() < 0.5 else zero for _ in range(n)]):
            got = m.coact_vector(vec)
            assert got == _reference_coact_vector(m, vec)
            assert all(c.field is field and not c.is_zero() for c in got.values())
        assert m.coact_vector([zero] * n) == {}
        with pytest.raises(DescriptorMismatch):
            m.coact_vector([other.one()] + [zero] * (n - 1))
    # raw values of two fields never meet
    alg7 = build_algebra(other, mu4, mu4.identity(), LieFunctional.zero(mu4, other))
    stranger = Supercomodule(alg7, (0,), [[(0, other.one(), (0,), 0)]])
    for combine in (m.direct_sum, lambda s: tensor_comodule(m, s)):
        with pytest.raises(DescriptorMismatch):
            combine(stranger)


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
    parities = [EVEN, ODD, ODD]
    system = {}
    # one condition coupling the two odd unknowns: o0 + o1 = 0
    superlin.add_entry(system, "odd", 1, Q.one())
    superlin.add_entry(system, "odd", 2, Q.one())
    kern = superlin.kernel_by_parity(system, parities, Q)
    assert [par for par, _ in kern] == [EVEN, ODD]
    assert kern[1][1] == [Q.zero(), -Q.one(), Q.one()]
    for par, vec in kern:
        support = {parities[i] for i, c in enumerate(vec) if not c.is_zero()}
        assert support == {par}
        assert (vec[1] + vec[2]).is_zero()
