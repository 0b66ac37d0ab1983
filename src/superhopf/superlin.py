"""Exact linear algebra over the supported fields, with parity bookkeeping.

Matrices are kept sparse as {(row, col): coefficient} and converted to dense
rows for elimination; pivoting takes the first nonzero entry. All results are
exact. Koszul-sign helpers for tensor manipulations live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field

EVEN, ODD = 0, 1


class InconsistentSystem(Exception):
    pass


def koszul_sign(parity_a: int, parity_b: int) -> int:
    """Sign picked up when a factor of parity_a moves past one of parity_b."""
    return -1 if (parity_a & 1) and (parity_b & 1) else 1


@dataclass(frozen=True)
class SuperVectorSpace:
    labels: tuple
    parities: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.parities):
            raise ValueError("labels and parities disagree")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        if any(p not in (EVEN, ODD) for p in self.parities):
            raise ValueError("parities must be 0 or 1")

    @property
    def dim(self):
        return len(self.labels)

    @property
    def even_dim(self):
        return sum(1 for p in self.parities if p == EVEN)

    @property
    def odd_dim(self):
        return sum(1 for p in self.parities if p == ODD)

    def parity_shift(self):
        return SuperVectorSpace(self.labels, tuple(1 - p for p in self.parities))

    @staticmethod
    def make(even_labels, odd_labels):
        return SuperVectorSpace(
            tuple(even_labels) + tuple(odd_labels),
            (EVEN,) * len(tuple(even_labels)) + (ODD,) * len(tuple(odd_labels)),
        )


def tensor_space(v: SuperVectorSpace, w: SuperVectorSpace) -> SuperVectorSpace:
    labels = tuple(f"{a}(x){b}" for a in v.labels for b in w.labels)
    parities = tuple((pa + pb) % 2 for pa in v.parities for pb in w.parities)
    return SuperVectorSpace(labels, parities)


class SuperLinearMap:
    """Sparse exact linear map between super vector spaces."""

    def __init__(self, domain, codomain, field, entries, parity=None):
        self.domain = domain
        self.codomain = codomain
        self.field = field
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}
        self.parity = parity

    def check_parity_homogeneous(self):
        """Verify column-by-column that the declared parity is respected."""
        if self.parity is None:
            return True
        for (i, j), v in self.entries.items():
            if (self.codomain.parities[i] - self.domain.parities[j] - self.parity) % 2:
                return False
        return True

    def dense_rows(self):
        zero = self.field.zero()
        rows = [[zero] * self.domain.dim for _ in range(self.codomain.dim)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def apply(self, vec):
        zero = self.field.zero()
        out = [zero] * self.codomain.dim
        for (i, j), v in self.entries.items():
            out[i] = out[i] + v * vec[j]
        return out

    def compose(self, other: "SuperLinearMap") -> "SuperLinearMap":
        if other.codomain != self.domain:
            raise ValueError("composition mismatch")
        entries = {}
        by_col = {}
        for (i, j), v in self.entries.items():
            by_col.setdefault(j, []).append((i, v))
        for (j, k), w in other.entries.items():
            for i, v in by_col.get(j, []):
                key = (i, k)
                cur = entries.get(key)
                entries[key] = v * w if cur is None else cur + v * w
        parity = None
        if self.parity is not None and other.parity is not None:
            parity = (self.parity + other.parity) % 2
        return SuperLinearMap(other.domain, self.codomain, self.field, entries, parity)

    def rank(self):
        return rank(self.dense_rows(), self.field)

    def kernel(self):
        """Kernel basis; parity-homogeneous when the map is."""
        rows = self.dense_rows()
        vectors = kernel_basis(rows, self.field)
        if self.parity is not None:
            split = []
            for par in (EVEN, ODD):
                idx = [j for j in range(self.domain.dim) if self.domain.parities[j] == par]
                if not idx:
                    continue
                sub = [[row[j] for j in idx] for row in rows]
                for vec in kernel_basis(sub, self.field):
                    full = [self.field.zero()] * self.domain.dim
                    for pos, j in enumerate(idx):
                        full[j] = vec[pos]
                    split.append((par, full))
            vectors = [v for _, v in split]
            parities = tuple(p for p, _ in split)
        else:
            parities = tuple(EVEN for _ in vectors)
        space = SuperVectorSpace(tuple(f"k{i}" for i in range(len(vectors))), parities)
        return space, vectors

    def image(self):
        rows = self.dense_rows()
        cols = [[rows[i][j] for i in range(self.codomain.dim)] for j in range(self.domain.dim)]
        reduced, pivots = row_reduce(cols, self.field)
        vectors = [reduced[i] for i in range(len(pivots))]
        parities = []
        for vec in vectors:
            par = EVEN
            for i, v in enumerate(vec):
                if not v.is_zero():
                    par = self.codomain.parities[i]
                    break
            parities.append(par)
        space = SuperVectorSpace(tuple(f"im{i}" for i in range(len(vectors))), tuple(parities))
        return space, vectors

    def solve(self, target):
        return solve(self.dense_rows(), target, self.field)

    def to_json(self):
        return {
            "rows": self.codomain.dim,
            "cols": self.domain.dim,
            "triplets": [[i, j, str(v)] for (i, j), v in sorted(self.entries.items())],
        }


def braiding(v: SuperVectorSpace, w: SuperVectorSpace, field: Field) -> SuperLinearMap:
    """The symmetry v(x)w -> w(x)v, with sign -1 on odd(x)odd."""
    entries = {}
    for a in range(v.dim):
        for b in range(w.dim):
            src = a * w.dim + b
            dst = b * v.dim + a
            sign = koszul_sign(v.parities[a], w.parities[b])
            entries[(dst, src)] = field.from_int(sign)
    return SuperLinearMap(tensor_space(v, w), tensor_space(w, v), field, entries, EVEN)


# ---------------------------------------------------------------------------
# dense exact elimination


def row_reduce(rows, field: Field):
    """Reduced row echelon form (in place on a copy); returns (rows, pivots)."""
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


def rank(rows, field: Field) -> int:
    return len(row_reduce(rows, field)[1])


def kernel_basis(rows, field: Field):
    """Basis of the right kernel of the matrix given as a list of rows."""
    if not rows:
        return []
    n = len(rows[0])
    reduced, pivots = row_reduce(rows, field)
    free = [c for c in range(n) if c not in pivots]
    zero, one = field.zero(), field.one()
    basis = []
    for fc in free:
        vec = [zero] * n
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -reduced[i][fc]
        basis.append(vec)
    return basis


def solve(rows, rhs, field: Field):
    """One solution of rows * x = rhs; raises InconsistentSystem if none."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [rows[i][:] + [rhs[i]] for i in range(m)]
    reduced, pivots = row_reduce(aug, field)
    zero = field.zero()
    for i in range(len(pivots)):
        if pivots[i] == n:
            raise InconsistentSystem("no solution")
    x = [zero] * n
    for i, pc in enumerate(pivots):
        x[pc] = reduced[i][n]
    return x


def echelon_extend(vectors, dim, field: Field):
    """Indices of standard basis vectors completing `vectors` to a basis."""
    rows = [v[:] for v in vectors]
    _, pivots = row_reduce(rows, field) if rows else ([], [])
    return [c for c in range(dim) if c not in pivots]


def in_span(vectors, vec, field: Field):
    """Coordinates of vec in span(vectors), or None."""
    if not vectors:
        return [] if all(v.is_zero() for v in vec) else None
    n = len(vec)
    rows = [[vectors[j][i] for j in range(len(vectors))] for i in range(n)]
    try:
        return solve(rows, vec, field)
    except InconsistentSystem:
        return None
