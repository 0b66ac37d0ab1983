"""Exact linear algebra over the supported fields, with parity bookkeeping.

Linear systems are kept sparse as {row key: {column: coefficient}}: a row key
names one linear condition (any hashable), a column indexes one unknown.
Callers build a system with `add_entry` and hand it to `kernel_on`,
`kernel_by_parity` or `solve_on`, which restrict the unknowns to a set of
columns, eliminate, and return vectors at full length. Row order, repeated
keys and zero rows do not matter: the reduced row echelon form depends only on
the row space. The dense routines (`row_reduce`, `kernel_basis`, `solve`, ...)
do the elimination on lists of rows; pivoting takes the first nonzero entry.
Every entry must belong to the `field` argument (else DescriptorMismatch):
`row_reduce`, the one elimination, runs on the raw values and boxes the result
once. Its row update is the field kind's kernel `Field._axpy` (x + f*y entry
by entry); prime fields reduce each updated entry once. All results are exact.
"""

from __future__ import annotations

from .fields import Field, FieldElement, _reject

EVEN, ODD = 0, 1


class InconsistentSystem(Exception):
    pass


# ---------------------------------------------------------------------------
# dense exact elimination


def row_reduce(rows, field: Field):
    """Reduced row echelon form of a copy of `rows`; returns (rows, pivots).
    Every entry must belong to `field`: the elimination runs on the raw values,
    with `field._axpy` as its row update, and boxes the result once."""
    rows = [[x._v if x.field is field else _reject(x, field) for x in row] for row in rows]
    is_zero, inv, mul, neg, axpy = field._is_zero, field._inv, field._mul, field._neg, field._axpy
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if not is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        s = inv(rows[r][c])
        pivot = rows[r] = [mul(x, s) for x in rows[r]]
        for i in range(m):
            if i != r and not is_zero(rows[i][c]):
                rows[i] = axpy(rows[i], neg(rows[i][c]), pivot)
        pivots.append(c)
        r += 1
    zero = field.zero()  # every zero entry is this one shared element
    return [[zero if is_zero(x) else FieldElement(field, x) for x in row] for row in rows], pivots


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


# ---------------------------------------------------------------------------
# sparse systems {row key: {column: coefficient}}


def add_entry(system, key, col, coeff):
    """Add coeff to the entry of row `key` in column `col`."""
    row = system.setdefault(key, {})
    cur = row.get(col)
    row[col] = coeff if cur is None else cur + coeff


def _dense(system, keys, cols, field):
    """Dense rows of `keys` over `cols`; a single zero row when there are no
    keys, so that the dense routines still see len(cols) unknowns."""
    zero = field.zero()
    return [[system.get(k, {}).get(c, zero) for c in cols] for k in keys] or [[zero] * len(cols)]


def _embed(vec, cols, n, field):
    full = [field.zero()] * n
    for c, v in zip(cols, vec):
        full[c] = v
    return full


def kernel_on(system, cols, n, field: Field):
    """Kernel basis of the system with the unknowns outside `cols` fixed at
    zero, as vectors of length n. `cols` must be ascending; the basis is the
    one `kernel_basis` gives on those columns (an empty system has the unit
    vectors of `cols`)."""
    cols = list(cols)
    if not cols:
        return []
    rows = _dense(system, list(system), cols, field)
    return [_embed(vec, cols, n, field) for vec in kernel_basis(rows, field)]


def kernel_by_parity(system, parities, field: Field):
    """Parity-homogeneous kernel basis as (parity, vector) pairs, even first;
    `parities` gives the parity of each unknown."""
    n = len(parities)
    return [(par, vec) for par in (EVEN, ODD)
            for vec in kernel_on(system, [j for j in range(n) if parities[j] == par], n, field)]


def solve_on(system, rhs, cols, n, field: Field):
    """One solution, of length n, of the system with right-hand side `rhs`
    ({row key: value}, missing keys are zero) and the unknowns outside `cols`
    fixed at zero; None when there is none. The free unknowns are zero."""
    cols = list(cols)
    zero = field.zero()
    keys = list(system) + [k for k in rhs if k not in system]
    rows = _dense(system, keys, cols, field)
    try:
        sol = solve(rows, [rhs.get(k, zero) for k in keys] or [zero], field)
    except InconsistentSystem:
        return None
    return _embed(sol, cols, n, field)
