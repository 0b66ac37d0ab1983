import itertools
import random

import pytest

from superhopf.chargroup import (
    GroupDescriptor,
    GroupMismatch,
    LieFunctional,
    QuotientGroup,
    Subgroup,
    kernel_basis_int,
    smith_normal_form,
    solve_int,
    subgroup_kernel,
)
from superhopf.fields import GF, QQ, FunctionField, QuadraticField


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def test_smith_normal_form_randomized():
    rng = random.Random(41)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        U, Ui, D, V = smith_normal_form(a)
        assert _matmul(_matmul(U, a), V) == D
        assert _matmul(U, Ui) == [[int(i == j) for j in range(m)] for i in range(m)]
        diag = [D[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            if x == 0:
                assert y == 0
            elif y:
                assert y % x == 0


def test_integer_kernel_and_solve():
    rng = random.Random(7)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        for vec in kernel_basis_int(a):
            assert all(sum(a[i][j] * vec[j] for j in range(n)) == 0 for i in range(m))
        x = [rng.randint(-3, 3) for _ in range(n)]
        t = [sum(a[i][j] * x[j] for j in range(n)) for i in range(m)]
        sol = solve_int(a, t)
        assert sol is not None
        assert all(sum(a[i][j] * sol[j] for j in range(n)) == t[i] for i in range(m))


def test_character_group_law():
    Gm = GroupDescriptor(1, ())
    t1, t2 = Gm.character([1]), Gm.character([2])
    assert (t1 * t2).exps == (3,)
    mu4 = GroupDescriptor(0, (4,))
    assert mu4.character([2]).order() == 2
    assert mu4.character([1]).order() == 4
    assert Gm.character([1]).order() is None
    assert Gm.identity().inverse() == Gm.identity()
    mixed = GroupDescriptor(2, (4, 6))
    g = mixed.character([0, 0, 2, 3])
    assert g.order() == 2
    assert (g * g.inverse()).is_identity()


def test_pairing_additivity_randomized():
    rng = random.Random(3)
    for field in (QQ(), GF(5), QuadraticField(-1)):
        group = GroupDescriptor(2, (4,) if field.characteristic == 0 else (5, 4))
        tors = []
        for n in group.torsion:
            tors.append(field.random(rng) if field.characteristic and n % field.characteristic == 0
                        else field.zero())
        x = LieFunctional(group, field, [field.random(rng) for _ in range(2)], tors)
        for _ in range(20):
            g = group.character([rng.randint(-4, 4) for _ in range(group.ncoords)])
            h = group.character([rng.randint(-4, 4) for _ in range(group.ncoords)])
            assert x.pair(g * h) == x.pair(g) + x.pair(h)
        assert x.pair(group.identity()).is_zero()


def test_pairing_examples():
    Gm = GroupDescriptor(1, ())
    Q = QQ()
    y = LieFunctional(Gm, Q, free=[1])
    assert y.pair(Gm.character([3])) == Q.from_int(3)
    F5 = GF(5)
    y5 = LieFunctional(Gm, F5, free=[1])
    assert y5.pair(Gm.character([5])).is_zero()


def test_torsion_constraint_enforced():
    mu4 = GroupDescriptor(0, (4,))
    with pytest.raises(GroupMismatch):
        LieFunctional(mu4, QQ(), torsion=[1])
    # fine when the characteristic divides the order
    F5 = GF(5)
    mu5 = GroupDescriptor(0, (5,))
    x = LieFunctional(mu5, F5, torsion=[2])
    assert not x.is_zero()


def test_torsion_pairing_killed_by_order():
    F5 = GF(5)
    mu5 = GroupDescriptor(0, (5,))
    x = LieFunctional(mu5, F5, torsion=[3])
    for b in range(5):
        h = mu5.character([b])
        n = h.order()
        assert (x.pair(h) * n).is_zero()


def test_subgroup_kernel_examples():
    Gm = GroupDescriptor(1, ())
    Q = QQ()
    y = LieFunctional(Gm, Q, free=[1])
    ker = subgroup_kernel(y)
    assert ker.contains(Gm.identity())
    assert not ker.contains(Gm.character([1]))
    F5 = GF(5)
    y5 = LieFunctional(Gm, F5, free=[1])
    ker5 = subgroup_kernel(y5)
    assert ker5.contains(Gm.character([5]))
    assert ker5.contains(Gm.character([-10]))
    assert not ker5.contains(Gm.character([3]))
    zero = LieFunctional.zero(Gm, Q)
    whole = subgroup_kernel(zero)
    assert all(whole.contains(g) for g in Gm.generators())


def test_subgroup_kernel_closure_randomized():
    rng = random.Random(13)
    F5 = GF(5)
    group = GroupDescriptor(2, (5,))
    x = LieFunctional(group, F5, free=[2, 3], torsion=[1])
    ker = subgroup_kernel(x)
    members = [g for g in ker.generators]
    for _ in range(25):
        a, b = rng.choice(members), rng.choice(members)
        prod = a * b
        assert ker.contains(prod)
        assert ker.contains(a.inverse())
        assert x.pair(prod).is_zero()


KERNEL_FIELDS = [QQ(), GF(5), GF(3), FunctionField(5, "t"), FunctionField(3, "t"),
                 FunctionField(0, "t"), QuadraticField(-1), QuadraticField(2)]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_subgroup_kernel_matches_pairing(field):
    """h lies in ker(x) exactly when <x, h> = 0, on a box of exponents."""
    rng = random.Random(29)
    p = field.characteristic
    for group in (GroupDescriptor(2, ()), GroupDescriptor(3, ()), GroupDescriptor(1, (4,)),
                  GroupDescriptor(1, (15,))):
        for _ in range(4):
            # values drawn from the integer span of one or two elements, so
            # that the kernel is often larger than the torsion part
            span = [field.random(rng) for _ in range(rng.randint(1, 2))]
            free = [sum((s * rng.randint(-2, 2) for s in span), field.zero())
                    for _ in range(group.free_rank)]
            torsion = [field.random(rng) if p and n % p == 0 else field.zero()
                       for n in group.torsion]
            x = LieFunctional(group, field, free=free, torsion=torsion)
            ker = subgroup_kernel(x)
            ranges = [range(-2, 3)] * group.free_rank + [range(n) for n in group.torsion]
            for exps in itertools.product(*ranges):
                h = group.character(list(exps))
                assert ker.contains(h) == x.pair(h).is_zero(), (x.free, x.torsion, exps)


def test_subgroup_structure_and_quotient():
    mu4 = GroupDescriptor(0, (4,))
    sub = Subgroup(mu4, [mu4.character([2])])
    desc, embed, coords = sub.structure()
    assert desc.free_rank == 0 and desc.torsion == (2,)
    assert embed(0).exps == (2,)
    assert coords(mu4.character([2])) == (1,)
    quot = QuotientGroup(mu4, [mu4.character([2])])
    assert quot.descriptor.torsion == (2,)
    assert quot.project(mu4.character([1])).exps == (1,)
    # Z^2 / <(2, 0)> = Z/2 + Z
    z2 = GroupDescriptor(2, ())
    quot2 = QuotientGroup(z2, [z2.character([2, 0])])
    assert quot2.descriptor.free_rank == 1
    assert tuple(quot2.descriptor.torsion) == (2,)


def test_group_json_roundtrip():
    g = GroupDescriptor(1, (4,), 1)
    assert GroupDescriptor.from_json(g.to_json()) == g
    data = {"free_rank": 1, "torsion": [4], "additive_rank": 1}
    assert GroupDescriptor.from_json(data) == g
