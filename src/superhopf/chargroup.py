"""Finitely generated abelian character groups and Lie functionals.

A base group G = G_a^k x D is described by the character group
X = X(D) = Z^r (+) Z/n_1 (+) ... (+) Z/n_m of its diagonalizable part plus the
number k of additive factors. Lie(G) is modelled by the values of a functional
on the generators of X (subject to n_i * c_i = 0 in K) together with its
values on the additive generators. Subgroups and quotients of X are handled
by exact Smith-normal-form reduction over the integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import superlin
from .fields import GF, Field, FieldElement


class GroupMismatch(Exception):
    pass


# ---------------------------------------------------------------------------
# integer matrices: Smith normal form with transforms, kernels, solving


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a):
    """Return (U, Uinv, D, V) with U*a*V = D diagonal, U,V unimodular.

    The diagonal is non-negative and satisfies d_i | d_{i+1}.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    A = [row[:] for row in a]
    U, Ui, V = _identity(m), _identity(m), _identity(n)

    def row_add(i, j, c):  # R_i += c*R_j
        A[i] = [x + c * y for x, y in zip(A[i], A[j])]
        U[i] = [x + c * y for x, y in zip(U[i], U[j])]
        for row in Ui:
            row[j] -= c * row[i]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for row in Ui:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]
        for row in Ui:
            row[i] = -row[i]

    def col_add(j, i, c):  # C_j += c*C_i
        for row in A:
            row[j] += c * row[i]
        for row in V:
            row[j] += c * row[i]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    k = 0
    while True:
        pivot = None
        for i in range(k, m):
            for j in range(k, n):
                if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(k, pivot[0])
        col_swap(k, pivot[1])
        clean = False
        while not clean:
            clean = True
            for i in range(k + 1, m):
                if A[i][k]:
                    q = A[i][k] // A[k][k]
                    row_add(i, k, -q)
                    if A[i][k]:
                        row_swap(i, k)
                        clean = False
            for j in range(k + 1, n):
                if A[k][j]:
                    q = A[k][j] // A[k][k]
                    col_add(j, k, -q)
                    if A[k][j]:
                        col_swap(j, k)
                        clean = False
        piv = A[k][k]
        bad = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if A[i][j] % piv:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_add(k, bad, 1)
            continue
        if A[k][k] < 0:
            row_neg(k)
        k += 1
    return U, Ui, A, V


def _diag(D, j):
    return D[j][j] if j < len(D) and j < (len(D[0]) if D else 0) else 0


def kernel_basis_int(a):
    """Basis of {x in Z^n : a x = 0}."""
    n = len(a[0]) if a else 0
    if not a:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    _, _, D, V = smith_normal_form(a)
    return [[V[i][j] for i in range(n)] for j in range(n) if _diag(D, j) == 0]


def solve_int(a, t):
    """One x with a x = t over Z, or None."""
    m = len(a)
    n = len(a[0]) if m else 0
    if not m:
        return [0] * n
    U, _, D, V = smith_normal_form(a)
    ut = [sum(U[i][r] * t[r] for r in range(m)) for i in range(m)]
    w = [0] * n
    for i in range(m):
        d = _diag(D, i)
        if d == 0:
            if ut[i]:
                return None
        else:
            if ut[i] % d:
                return None
            if i < n:
                w[i] = ut[i] // d
    return [sum(V[i][j] * w[j] for j in range(n)) for i in range(n)]


def column_space_basis(a):
    """Basis (list of columns) of the lattice spanned by the columns of a."""
    m = len(a)
    if not m or not a[0]:
        return []
    _, Ui, D, _ = smith_normal_form(a)
    cols = []
    for j in range(min(m, len(a[0]))):
        d = _diag(D, j)
        if d:
            cols.append([Ui[i][j] * d for i in range(m)])
    return cols


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupDescriptor:
    """X = Z^free_rank (+) sum Z/n_i, plus additive_rank G_a factors."""

    free_rank: int
    torsion: tuple
    additive_rank: int = 0

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(n) for n in self.torsion))
        if self.free_rank < 0 or self.additive_rank < 0:
            raise ValueError("ranks must be non-negative")
        if any(n < 2 for n in self.torsion):
            raise ValueError("torsion orders must be >= 2")

    @property
    def ncoords(self):
        return self.free_rank + len(self.torsion)

    @property
    def is_finite(self):
        return self.free_rank == 0

    def reduce(self, exps):
        exps = list(exps)
        if len(exps) != self.ncoords:
            raise GroupMismatch("wrong exponent length")
        for i, n in enumerate(self.torsion):
            exps[self.free_rank + i] %= n
        return tuple(exps)

    def identity(self):
        return Character(self, (0,) * self.ncoords)

    def character(self, exps):
        return Character(self, self.reduce(exps))

    def generators(self):
        out = []
        for i in range(self.ncoords):
            e = [0] * self.ncoords
            e[i] = 1
            out.append(self.character(e))
        return out

    def all_characters(self):
        if not self.is_finite:
            raise GroupMismatch("character group is infinite; supply a window")
        chars = [()]
        for n in self.torsion:
            chars = [c + (b,) for c in chars for b in range(n)]
        return [Character(self, c) for c in chars]

    def relation_columns(self):
        cols = []
        for i, n in enumerate(self.torsion):
            e = [0] * self.ncoords
            e[self.free_rank + i] = n
            cols.append(e)
        return cols

    def to_json(self):
        return {
            "free_rank": self.free_rank,
            "torsion": list(self.torsion),
            "additive_rank": self.additive_rank,
        }

    @staticmethod
    def from_json(data):
        return GroupDescriptor(
            data.get("free_rank", 0),
            tuple(data.get("torsion", ())),
            data.get("additive_rank", 0),
        )


@dataclass(frozen=True)
class Character:
    group: GroupDescriptor
    exps: tuple

    def __post_init__(self):
        object.__setattr__(self, "exps", self.group.reduce(self.exps))

    def _check(self, other):
        if self.group != other.group:
            raise GroupMismatch("characters of different groups")

    def __mul__(self, other):
        self._check(other)
        return Character(self.group, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def inverse(self):
        return Character(self.group, tuple(-a for a in self.exps))

    def __pow__(self, n):
        return Character(self.group, tuple(n * a for a in self.exps))

    def is_identity(self):
        return all(a == 0 for a in self.exps)

    def order(self):
        """Element order, or None when infinite."""
        r = self.group.free_rank
        if any(self.exps[:r]):
            return None
        out = 1
        for b, n in zip(self.exps[r:], self.group.torsion):
            out = math.lcm(out, n // math.gcd(n, b))
        return out

    def sort_key(self):
        return self.exps

    def __str__(self):
        if self.is_identity():
            return "1"
        return "X[" + ",".join(str(a) for a in self.exps) + "]"


class LieFunctional:
    """Element of Lie(G) given by its values on the generators of X and on
    the additive generators; torsion values must satisfy n_i * c_i = 0 in K."""

    __slots__ = ("group", "field", "free", "torsion", "additive")

    def __init__(self, group: GroupDescriptor, field: Field, free=(), torsion=(), additive=()):
        free = tuple(field.parse(v) for v in free)
        torsion = tuple(field.parse(v) for v in torsion)
        additive = tuple(field.parse(v) for v in additive)
        if len(free) != group.free_rank or len(torsion) != len(group.torsion):
            raise GroupMismatch("functional shape does not match the group")
        if len(additive) != group.additive_rank:
            raise GroupMismatch("functional shape does not match the additive part")
        for n, c in zip(group.torsion, torsion):
            if not (c * n).is_zero():
                raise GroupMismatch(f"torsion value {c} violates {n}*c = 0")
        self.group = group
        self.field = field
        self.free = free
        self.torsion = torsion
        self.additive = additive

    @staticmethod
    def zero(group, field):
        z = field.zero()
        return LieFunctional(
            group,
            field,
            (z,) * group.free_rank,
            (z,) * len(group.torsion),
            (z,) * group.additive_rank,
        )

    def is_zero(self):
        return all(v.is_zero() for v in self.free + self.torsion + self.additive)

    def character_values(self):
        return self.free + self.torsion

    def __add__(self, other):
        if self.group != other.group or self.field != other.field:
            raise GroupMismatch("mixed functionals")
        return LieFunctional(
            self.group,
            self.field,
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.torsion, other.torsion)),
            tuple(a + b for a, b in zip(self.additive, other.additive)),
        )

    def scale(self, c):
        c = self.field.parse(c)
        return LieFunctional(
            self.group,
            self.field,
            tuple(c * v for v in self.free),
            tuple(c * v for v in self.torsion),
            tuple(c * v for v in self.additive),
        )

    def __eq__(self, other):
        return (
            isinstance(other, LieFunctional)
            and self.group == other.group
            and self.field == other.field
            and self.free == other.free
            and self.torsion == other.torsion
            and self.additive == other.additive
        )

    def pair(self, h: Character) -> FieldElement:
        """<x, h> extended additively over products of characters."""
        if h.group != self.group:
            raise GroupMismatch("character of a different group")
        out = self.field.zero()
        for e, v in zip(h.exps, self.character_values()):
            if e:
                out = out + v * e
        return out

    def to_json(self):
        return {
            "free": [str(v) for v in self.free],
            "torsion": [str(v) for v in self.torsion],
            "additive": [str(v) for v in self.additive],
        }

    @staticmethod
    def from_json(group, field, data):
        return LieFunctional(
            group,
            field,
            [field.parse(v) for v in data.get("free", [])],
            [field.parse(v) for v in data.get("torsion", [])],
            [field.parse(v) for v in data.get("additive", [])],
        )


class Subgroup:
    """Subgroup of X given by generators; membership via SNF reduction."""

    def __init__(self, group: GroupDescriptor, generators):
        self.group = group
        self.generators = list(generators)
        cols = [list(g.exps) for g in self.generators] + group.relation_columns()
        n = group.ncoords
        matrix = [[col[i] for col in cols] for i in range(n)] if cols else [[] for _ in range(n)]
        self._basis = column_space_basis(matrix) if cols else []

    def contains(self, h: Character) -> bool:
        if h.group != self.group:
            raise GroupMismatch("character of a different group")
        if not self._basis:
            return h.is_identity()
        n = self.group.ncoords
        B = [[col[i] for col in self._basis] for i in range(n)]
        return solve_int(B, list(h.exps)) is not None

    def structure(self):
        """Presentation of the subgroup as an abstract group.

        Returns (descriptor, embed, coords): embed maps an abstract generator
        index to a Character of X, coords maps a member of the subgroup to its
        exponent tuple in the abstract presentation.
        """
        n = self.group.ncoords
        basis = self._basis
        s = len(basis)
        if s == 0:
            desc = GroupDescriptor(0, ())

            def embed0(j):
                raise IndexError("trivial subgroup has no generators")

            def coords0(h):
                if not self.contains(h):
                    raise GroupMismatch("not a member")
                return ()

            return desc, embed0, coords0

        B = [[basis[j][i] for j in range(s)] for i in range(n)]
        rel_cols = []
        for col in self.group.relation_columns():
            sol = solve_int(B, col)
            if sol is None:
                raise GroupMismatch("relation outside subgroup lattice")
            rel_cols.append(sol)
        C = [[col[i] for col in rel_cols] for i in range(s)] if rel_cols else [[] for _ in range(s)]
        if rel_cols:
            U, Ui, D, _ = smith_normal_form(C)
        else:
            U, Ui, D = _identity(s), _identity(s), [[0] * 0 for _ in range(s)]
        free_pos = [i for i in range(s) if _diag(D, i) == 0]
        tors_pos = [i for i in range(s) if _diag(D, i) >= 2]
        desc = GroupDescriptor(len(free_pos), tuple(_diag(D, i) for i in tors_pos))
        positions = free_pos + tors_pos

        def embed(j):
            col = [Ui[i][positions[j]] for i in range(s)]
            exps = [sum(basis[t][i] * col[t] for t in range(s)) for i in range(n)]
            return self.group.character(exps)

        def coords(h):
            sol = solve_int(B, list(h.exps))
            if sol is None:
                raise GroupMismatch("not a member of the subgroup")
            y = [sum(U[i][t] * sol[t] for t in range(s)) for i in range(s)]
            return desc.reduce([y[i] for i in positions])

        return desc, embed, coords


class QuotientGroup:
    """Quotient X / <gens>, with projection and generator lifts."""

    def __init__(self, group: GroupDescriptor, generators):
        self.group = group
        self.generators = list(generators)
        n = group.ncoords
        cols = [list(g.exps) for g in self.generators] + group.relation_columns()
        if cols:
            M = [[col[i] for col in cols] for i in range(n)]
            U, Ui, D, _ = smith_normal_form(M)
        else:
            U, Ui, D = _identity(n), _identity(n), [[0] * 0 for _ in range(n)]
        self._U, self._Ui, self._D = U, Ui, D
        free_pos = [i for i in range(n) if _diag(D, i) == 0]
        tors_pos = [i for i in range(n) if _diag(D, i) >= 2]
        self._positions = free_pos + tors_pos
        self.descriptor = GroupDescriptor(
            len(free_pos), tuple(_diag(D, i) for i in tors_pos), group.additive_rank
        )

    def project(self, h: Character) -> Character:
        if h.group != self.group:
            raise GroupMismatch("character of a different group")
        n = self.group.ncoords
        y = [sum(self._U[i][t] * h.exps[t] for t in range(n)) for i in range(n)]
        return self.descriptor.character([y[i] for i in self._positions])

    def lift(self, j: int) -> Character:
        n = self.group.ncoords
        col = [self._Ui[i][self._positions[j]] for i in range(n)]
        return self.group.character(col)


def subgroup_kernel(x: LieFunctional) -> Subgroup:
    """Y = {h in X : <x, h> = 0}, as a subgroup with explicit generators."""
    group, field = x.group, x.field
    n = group.ncoords
    values = list(x.character_values())
    p = field.characteristic
    rows = field.prime_field_rows(values)
    gens = []
    if p == 0:
        int_rows = []
        for row in rows:
            denom = math.lcm(*[q.denominator for q in row]) if row else 1
            int_rows.append([int(q * denom) for q in row])
        free_cols = list(range(group.free_rank))
        if int_rows:
            A = [[row[j] for j in free_cols] for row in int_rows]
            basis = kernel_basis_int(A)
        else:
            basis = kernel_basis_int([[0] * len(free_cols)])
        for vec in basis:
            e = [0] * n
            for idx, j in enumerate(free_cols):
                e[j] = vec[idx]
            gens.append(group.character(e))
        for i in range(len(group.torsion)):
            e = [0] * n
            e[group.free_rank + i] = 1
            gens.append(group.character(e))
    else:
        Fp = GF(p)
        rows = [[Fp.from_int(c) for c in row] for row in rows]
        for vec in superlin.kernel_basis(rows, Fp):
            gens.append(group.character([c.prime_value() for c in vec]))
        for j in range(n):
            e = [0] * n
            e[j] = p
            gens.append(group.character(e))
    gens = [g for g in gens if not g.is_identity()]
    return Subgroup(group, gens)
