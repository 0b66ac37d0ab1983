"""Independent brute-force oracles used to cross-check the package.

None of these share logic with the code paths they validate: squares are
decided by integer square roots or by squaring every residue, separability
by a Euclid gcd on plain int / Fraction coefficient lists, rational-function
and quadratic-extension arithmetic by reducing full cross products on every
operation and by pairs of Fractions, comodule
decompositions by enumerating line closures over a finite field, and
extension spaces by solving for all perturbed coactions modulo change of
splitting. The last two run over F_p only and eliminate with their own
Gauss-Jordan on int residues, not with superhopf.superlin. Product
decompositions of a Harish-Chandra pair are searched over every split of the
given odd basis, with no linear algebra at all. Normal chains are built
stepwise: each step's sub-pair is re-checked for normality and rebuilt with
its full bracket, where the package reads the chain off the weights alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

from superhopf.chargroup import GroupDescriptor, LieFunctional, QuotientGroup
from superhopf.dgxrep import IndecompLabel, Supercomodule, standard_object
from superhopf.hcp import (
    FactorLabel,
    HarishChandraPair,
    InvalidSubPair,
    NormalChainResult,
    SubPair,
    UnsupportedBase,
    Verdict,
    _check_in_lie_h,
    _validate_subpair,
    check_normal,
    check_pair,
)


# ---------------------------------------------------------------------------
# squares


def rational_is_square(num: int, den: int) -> bool:
    if num * den < 0:
        return False
    num, den = abs(num), abs(den)
    g = math.gcd(num, den)
    num //= g
    den //= g
    rn, rd = math.isqrt(num), math.isqrt(den)
    return rn * rn == num and rd * rd == den


def mod_p_squares(p: int):
    return {(a * a) % p for a in range(p)}


# ---------------------------------------------------------------------------
# separability of a univariate polynomial over Q (p = 0) or F_p


def _trim(coeffs, p):
    out = [c % p for c in coeffs] if p else list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _remainder(a, b, p):
    a = list(a)
    while len(a) >= len(b):
        lead = a[-1] * pow(b[-1], -1, p) % p if p else Fraction(a[-1]) / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= lead * c
        a = _trim(a, p)
    return a


def is_separable(coeffs, p: int) -> bool:
    """gcd(f, f') == 1 for f given low degree first, with int coefficients
    (read mod p when p > 0)."""
    a = _trim(coeffs, p)
    b = _trim([i * c for i, c in enumerate(coeffs)][1:], p)
    if not b:
        return False
    while b:
        a, b = b, _remainder(a, b, p)
    return len(a) == 1


# ---------------------------------------------------------------------------
# reference arithmetic of F_p(t) / Q(t) (p == 0) and Q(sqrt(d)). A rational
# function is a pair of coefficient tuples (numerator, monic denominator),
# low degree first: every operation forms the full cross products and reduces
# them by a Euclid gcd. An element of Q(sqrt(d)) is a pair of Fractions
# (a, b) for a + b*sqrt(d).


def _one(p):
    return 1 if p else Fraction(1)


def _inverse(x, p):
    return pow(x, -1, p) if p else 1 / Fraction(x)


def _poly_add(a, b, p):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trim([x + y for x, y in zip(a, b)], p)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out, p)


def _poly_quotient(a, b, p):
    """Exact quotient a / b (b divides a)."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = a[k + len(b) - 1] * _inverse(b[-1], p)
        for i, y in enumerate(b):
            a[k + i] -= q[k] * y
    assert not _trim(a, p), "inexact polynomial division"
    return _trim(q, p)


def poly_gcd(a, b, p):
    """The monic gcd of two coefficient sequences, as a tuple."""
    a, b = _trim(a, p), _trim(b, p)
    while b:
        a, b = b, _remainder(a, b, p)
    s = _inverse(a[-1], p) if a else 0
    return tuple(_trim([x * s for x in a], p))


def ratfun_reduce(num, den, p):
    num, den = _trim(num, p), _trim(den, p)
    if not num:
        return (), (_one(p),)
    g = poly_gcd(num, den, p)
    num, den = _poly_quotient(num, g, p), _poly_quotient(den, g, p)
    s = _inverse(den[-1], p)
    return tuple(_trim([x * s for x in num], p)), tuple(_trim([x * s for x in den], p))


def ratfun_add(x, y, p):
    (a, b), (c, d) = x, y
    return ratfun_reduce(_poly_add(_poly_mul(a, d, p), _poly_mul(c, b, p), p), _poly_mul(b, d, p), p)


def ratfun_neg(x, p):
    return ratfun_reduce([-c for c in x[0]], x[1], p)


def ratfun_mul(x, y, p):
    return ratfun_reduce(_poly_mul(x[0], y[0], p), _poly_mul(x[1], y[1], p), p)


def ratfun_inv(x, p):
    return ratfun_reduce(x[1], x[0], p)


def ratfun_prime(x, p):
    """The value in Q or F_p, or None for a non-constant."""
    num, den = x
    if len(num) > 1 or den != (_one(p),):
        return None
    return num[0] if num else 0 * _one(p)


def ratfun_prime_rows(values, p):
    """Numerator coefficients of each value times the product of all the
    denominators: one row per degree, one column per value."""
    common = (_one(p),)
    for _, den in values:
        common = _poly_mul(common, den, p)
    nums = [_poly_mul(num, _poly_quotient(common, den, p), p) for num, den in values]
    deg = max([1] + [len(num) for num in nums])
    return [[num[i] if i < len(num) else 0 for num in nums] for i in range(deg)]


def _poly_str(coeffs, var):
    terms = []
    for i in reversed(range(len(coeffs))):
        c = coeffs[i]
        if c == 0:
            continue
        power = "" if i == 0 else var if i == 1 else f"{var}^{i}"
        if not power:
            terms.append(str(c))
        else:
            terms.append(power if c == 1 else f"{c}*{power}")
    return "+".join(terms).replace("+-", "-") if terms else "0"


def ratfun_str(x, p, var):
    num, den = x
    if den == (_one(p),):
        return _poly_str(num, var)
    return f"({_poly_str(num, var)})/({_poly_str(den, var)})"


def qsqrt_mul(x, y, d):
    (a, b), (c, e) = x, y
    return a * c + b * e * d, a * e + b * c


def qsqrt_inv(x, d):
    a, b = x
    norm = a * a - b * b * d
    return a / norm, -b / norm


def qsqrt_str(x, d):
    a, b = x
    if b == 0:
        return str(a)
    root = f"sqrt({d})" if b == 1 else f"{b}*sqrt({d})"
    return root if a == 0 else f"{a}+{root}".replace("+-", "-")


def qsqrt_is_square(q: Fraction, d: int) -> bool:
    """Whether the rational q is a square in Q(sqrt(d))."""
    return (rational_is_square(q.numerator, q.denominator)
            or rational_is_square((q / d).numerator, (q / d).denominator))


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination on residues mod p


def _residues(vec):
    """An F_p vector as plain int residues."""
    return [c.prime_value() for c in vec]


def _rref_mod_p(rows, p):
    """Reduced row echelon form of int rows mod p; returns (rows, pivots)."""
    rows = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _rank_mod_p(rows, p):
    return len(_rref_mod_p(rows, p)[1])


def _kernel_mod_p(rows, p):
    """Basis of the right kernel of int rows mod p."""
    reduced, pivots = _rref_mod_p(rows, p)
    basis = []
    for fc in (c for c in range(len(rows[0])) if c not in pivots):
        vec = [0] * len(rows[0])
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = -reduced[i][fc] % p
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# comodule label multiset by invariant-subspace enumeration (prime fields)


def _coaction_operators(m: Supercomodule):
    """T_a for each algebra basis monomial a = (chars, eps) appearing."""
    ops = {}
    field = m.field
    for i in range(m.dim):
        for j, c, chars, eps in m.coaction[i]:
            key = (chars, eps)
            mat = ops.setdefault(key, [[field.zero()] * m.dim for _ in range(m.dim)])
            mat[j][i] = mat[j][i] + c
    return ops


def _span_append(basis, vec, field):
    """Extend an echelonized basis (list of rows with pivot bookkeeping) by a
    vector; returns True when the vector was new."""
    v = list(vec)
    for pivot, row in basis:
        if not v[pivot].is_zero():
            coef = v[pivot]
            v = [a - coef * b for a, b in zip(v, row)]
    for k, a in enumerate(v):
        if not a.is_zero():
            inv = a.inverse()
            v = [x * inv for x in v]
            basis.append((k, v))
            return True
    return False


def _closure(m: Supercomodule, ops, vec, dim_cap=None):
    """Echelon basis of the smallest coaction-stable subspace containing vec;
    stops early (returning None) when a dim_cap is exceeded."""
    field = m.field
    basis = []
    _span_append(basis, vec, field)
    frontier = [vec]
    while frontier:
        nxt = []
        for v in frontier:
            for mat in ops.values():
                img = [sum((mat[r][c] * v[c] for c in range(m.dim)), start=field.zero())
                       for r in range(m.dim)]
                if any(not x.is_zero() for x in img) and _span_append(basis, img, field):
                    nxt.append(img)
                    if dim_cap is not None and len(basis) > dim_cap:
                        return None
        frontier = nxt
    return basis


def _all_homogeneous_vectors(m: Supercomodule, p: int):
    """One representative per homogeneous line (first nonzero coordinate 1)."""
    field = m.field
    for parity in (0, 1):
        idx = [i for i in range(m.dim) if m.parities[i] == parity]
        if not idx:
            continue
        for first in range(len(idx)):
            tail = idx[first + 1:]
            for coeffs in product(range(p), repeat=len(tail)):
                vec = [field.zero()] * m.dim
                vec[idx[first]] = field.one()
                for pos, c in zip(tail, coeffs):
                    if c:
                        vec[pos] = field.from_int(c)
                yield parity, vec


def _line_label(m: Supercomodule, parity, vec):
    """Label of a one-dimensional subcomodule K*vec with rho(vec) = vec (x) h."""
    image = m.coact_vector(vec)
    char = None
    for (j, chars, eps), c in image.items():
        if eps != 0:
            return None
        char = chars
    return IndecompLabel("S", char, parity == 1)


def _two_dim_label(m: Supercomodule, basis_rows):
    """Label of a simple two-dimensional subcomodule given by its echelon
    basis: reads off the diagonal character of the even-side vector."""
    alg = m.algebra
    vecs = [row for _, row in basis_rows]
    pars = []
    for v in vecs:
        par = None
        for i, c in enumerate(v):
            if not c.is_zero():
                par = m.parities[i]
                break
        pars.append(par)
    # identify h as the diagonal character on the vector whose coaction's
    # z-component points at the other vector with the shifted character g*h
    for v, par in zip(vecs, pars):
        image = m.coact_vector(v)
        diag = [chars for (j, chars, eps), c in image.items() if eps == 0]
        zchars = [chars for (j, chars, eps), c in image.items() if eps == 1]
        if len(set(diag)) == 1 and zchars:
            h = diag[0]
            gh = alg.group.reduce(
                tuple(a + b for a, b in zip(h, alg.g.exps))
            )
            if all(z == gh for z in zchars):
                return IndecompLabel("L", h, par == 1)
    return None


def comodule_label_multiset_bruteforce(m: Supercomodule, p: int):
    """Label multiset of a comodule over F_p by exhaustive enumeration.

    Simple subcomodules are found as minimal closures of homogeneous lines;
    the quotient by their sum (the socle) is semisimple here, and each of its
    constituents matches the top of one injective hull in the socle.
    The result is canonicalized with the same label identifications that hold
    by explicit isomorphism (L(h) = Pi L(gh) for two-dimensional simples).
    """
    from superhopf.dgxrep import canonical_label

    alg = m.algebra
    field = m.field
    labels = []
    socle_rows = []
    ops = _coaction_operators(m)
    simples = []
    seen = set()
    for parity, vec in _all_homogeneous_vectors(m, p):
        closure = _closure(m, ops, vec, dim_cap=2)
        if closure is None:
            continue
        key = frozenset((pivot, tuple(str(c) for c in row)) for pivot, row in closure)
        if key in seen:
            continue
        seen.add(key)
        if len(closure) == 1:
            label = _line_label(m, parity, closure[0][1])
            if label is not None:
                simples.append((label, closure))
        elif len(closure) == 2:
            # minimal iff it contains no invariant line; lines inside were
            # already enumerated; verify minimality directly
            if _contains_invariant_line(m, ops, closure, p):
                continue
            label = _two_dim_label(m, closure)
            if label is not None:
                simples.append((label, closure))
    # socle = sum of the simples
    socle_basis = []
    for _, closure in simples:
        for _, row in closure:
            _span_append(socle_basis, row, field)
    # count socle constituents per label: dimension bookkeeping per label
    socle_counts = {}
    for label, closure in simples:
        socle_counts.setdefault(str(label), [label, []])
        for _, row in closure:
            _span_append(socle_counts[str(label)][1], row, field)
    # quotient by the socle
    top_counts = {}
    if len(socle_basis) < m.dim:
        q = _quotient_comodule(m, [row for _, row in socle_basis], p)
        ops_q = _coaction_operators(q)
        seen_q = set()
        for parity, vec in _all_homogeneous_vectors(q, p):
            closure = _closure(q, ops_q, vec, dim_cap=1)
            if closure is None or len(closure) != 1:
                continue
            key = frozenset((pivot, tuple(str(c) for c in row)) for pivot, row in closure)
            if key in seen_q:
                continue
            seen_q.add(key)
            label = _line_label(q, parity, closure[0][1])
            if label is not None:
                top_counts.setdefault(str(label), [label, []])
                _span_append(top_counts[str(label)][1], closure[0][1], field)
    # match: each top constituent Pi^s S(gh) pairs with an injective hull over
    # the socle constituent Pi^{s+1} S(h)
    for key, (label, basis) in top_counts.items():
        count = len(basis)
        h = alg.group.reduce(tuple(a - b for a, b in zip(label.char, alg.g.exps)))
        hull_label = IndecompLabel("L", h, not label.shifted)
        socle_key = str(IndecompLabel("S", h, not label.shifted))
        entry = socle_counts.get(socle_key)
        if entry is None or len(entry[1]) < count:
            raise AssertionError("top constituent without matching socle line")
        for _ in range(count):
            entry[1].pop()
            labels.append(canonical_label(alg, hull_label))
    for key, (label, basis) in socle_counts.items():
        dim = 2 if label.kind == "L" else 1
        if len(basis) % dim:
            raise AssertionError("isotypic span not a multiple of the label dimension")
        for _ in range(len(basis) // dim):
            labels.append(canonical_label(alg, label))
    return sorted(str(l) for l in labels)


def _contains_invariant_line(m, ops, closure, p):
    """Graded invariant lines only: each closure basis row is homogeneous and
    spans the lone candidate line of its parity (inhomogeneous stable lines,
    which exist inside simple two-dimensional blocks, are not graded
    subcomodules and must not disqualify them)."""
    field = m.field
    for _, vec in closure:
        stable = True
        for mat in ops.values():
            img = [sum((mat[r][c2] * vec[c2] for c2 in range(m.dim)), start=field.zero())
                   for r in range(m.dim)]
            if _rank_mod_p([_residues(vec), _residues(img)], p) > 1:
                stable = False
                break
        if stable:
            return True
    return False


def _quotient_comodule(m: Supercomodule, sub_vectors, p):
    """Quotient of m by the subcomodule spanned by sub_vectors."""
    field = m.field
    reduced, pivots = _rref_mod_p([_residues(v) for v in sub_vectors], p)
    free = [c for c in range(m.dim) if c not in pivots]

    def project(vec):
        v = _residues(vec)
        for i, pc in enumerate(pivots):
            if v[pc]:
                coef = v[pc]
                v = [(a - coef * b) % p for a, b in zip(v, reduced[i])]
        return [field.from_int(v[c]) for c in free]

    parities = tuple(m.parities[c] for c in free)
    rows = []
    for c in free:
        image = m.coact_vector([field.one() if i == c else field.zero()
                                for i in range(m.dim)])
        per_mono = {}
        for (j, chars, eps), coef in image.items():
            vec = per_mono.setdefault((chars, eps), [field.zero()] * m.dim)
            vec[j] = vec[j] + coef
        row = []
        for (chars, eps), vec in per_mono.items():
            pv = project(vec)
            for t, coef in enumerate(pv):
                if not coef.is_zero():
                    row.append((t, coef, chars, eps))
        rows.append(row)
    return Supercomodule(m.algebra, parities, rows)


# ---------------------------------------------------------------------------
# Ext^1 by enumerating perturbed coactions modulo change of splitting


def ext1_bruteforce(algebra, s: IndecompLabel, t: IndecompLabel) -> int:
    """dim Ext^1(S, T): solve for all even coaction perturbations delta on
    T (+) S satisfying counit, parity and coassociativity (cocycles), modulo
    those induced by a change of splitting (coboundaries). Over F_p only."""
    field = algebra.field
    S = standard_object(algebra, s)
    T = standard_object(algebra, t)
    nS, nT = S.dim, T.dim
    chars = sorted({ch for row in list(S.coaction) + list(T.coaction) for _, _, ch, _ in row})
    amons = [(ch, e) for ch in chars for e in (0, 1)]
    amon_index = {am: k for k, am in enumerate(amons)}
    nvar = nS * nT * len(amons)

    def var(i_s, j_t, a_idx):
        return (i_s * nT + j_t) * len(amons) + a_idx

    rows = []
    for i in range(nS):
        for j in range(nT):
            for a_idx, (ch, e) in enumerate(amons):
                if (T.parities[j] + e - S.parities[i]) % 2:
                    row = [field.zero()] * nvar
                    row[var(i, j, a_idx)] = field.one()
                    rows.append(row)
    for i in range(nS):
        for j in range(nT):
            row = [field.zero()] * nvar
            touched = False
            for a_idx, (ch, e) in enumerate(amons):
                if e == 0:
                    row[var(i, j, a_idx)] = field.one()
                    touched = True
            if touched:
                rows.append(row)
    eq = {}

    def eqrow(key):
        if key not in eq:
            eq[key] = [field.zero()] * nvar
        return eq[key]

    for i in range(nS):
        for j in range(nT):
            for a_idx, (ch, e) in enumerate(amons):
                mono = algebra.monomial(ch, eps=e)
                for (m1, m2), c in algebra.delta_monomial(mono).terms.items():
                    key = (i, j, m1[0], m1[2], m2[0], m2[2])
                    row = eqrow(key)
                    row[var(i, j, a_idx)] = row[var(i, j, a_idx)] - c
        for j in range(nT):
            for a_idx, (ch, e) in enumerate(amons):
                for t_j, c, ch2, e2 in T.coaction[j]:
                    key = (i, t_j, ch2, e2, ch, e)
                    row = eqrow(key)
                    row[var(i, j, a_idx)] = row[var(i, j, a_idx)] + c
        for s_i, c, ch2, e2 in S.coaction[i]:
            for j in range(nT):
                for a_idx, (ch, e) in enumerate(amons):
                    key = (i, j, ch, e, ch2, e2)
                    row = eqrow(key)
                    row[var(s_i, j, a_idx)] = row[var(s_i, j, a_idx)] + c
    rows.extend(eq.values())
    p = field.p
    cocycles = _kernel_mod_p([_residues(r) for r in rows], p) if rows else []
    if not cocycles:
        return 0
    cob = []
    for i0 in range(nS):
        for j0 in range(nT):
            if (T.parities[j0] - S.parities[i0]) % 2:
                continue
            vec = [field.zero()] * nvar
            for t_j, c, ch, e in T.coaction[j0]:
                k = var(i0, t_j, amon_index[(ch, e)])
                vec[k] = vec[k] + c
            for i in range(nS):
                for s_i, c, ch, e in S.coaction[i]:
                    if s_i == i0:
                        k = var(i, j0, amon_index[(ch, e)])
                        vec[k] = vec[k] - c
            cob.append(_residues(vec))
    dim_total = _rank_mod_p(cob + cocycles, p)
    dim_b = _rank_mod_p(cob, p)
    return dim_total - dim_b


# ---------------------------------------------------------------------------
# product decompositions of Harish-Chandra pairs


def product_decomposition_bruteforce(pair):
    """Exhaustive basis-aligned search for a direct-product decomposition.

    Tries every split of the odd basis into two nonempty parts whose cross
    brackets vanish and whose parts can be separated through a splitting of
    the base descriptor (one part taking the whole D-factor, the other a
    trivial group). Returns the split or None.
    """
    n = pair.dim_v
    indices = range(n)
    for size in range(1, n // 2 + 1):
        for left in combinations(indices, size):
            right = tuple(i for i in indices if i not in left)
            cross_zero = all(
                pair.bracket[i][j].is_zero() for i in left for j in right
            )
            if not cross_zero:
                continue
            # a factor with trivial base needs trivial weights and zero bracket
            for trivial_side, other_side in ((left, right), (right, left)):
                ok = all(pair.weights[i].is_identity() for i in trivial_side) and all(
                    pair.bracket[i][j].is_zero() for i in trivial_side for j in trivial_side
                )
                if ok:
                    return {
                        "trivial_base_part": list(trivial_side),
                        "full_base_part": list(other_side),
                    }
    return None


# ---------------------------------------------------------------------------
# normal chains of Harish-Chandra pairs, one re-validated sub-pair per step


def subpair_bracket_closed(pair: HarishChandraPair, sub: SubPair) -> Verdict:
    """[W,W] in Lie(H), required for (H, W) to be a sub-object."""
    verdict = Verdict(True)
    for a, u in enumerate(sub.vectors):
        for b, w in enumerate(sub.vectors):
            x = pair.bracket_of_vectors(u, w)
            _check_in_lie_h(pair, sub, x, f"[w{a},w{b}]", "[W,W] in Lie(H)", verdict)
    return verdict


def sub_pair_as_pair(pair: HarishChandraPair, sub: SubPair) -> HarishChandraPair:
    """The sub-pair (H, W) itself as a standalone pair; X(D_H) = X/Lambda."""
    validity = _validate_subpair(pair, sub)
    closed = subpair_bracket_closed(pair, sub)
    if not validity.ok or not closed.ok:
        raise InvalidSubPair(str(validity.failures + closed.failures))
    field = pair.field
    quot = QuotientGroup(pair.base, sub.annihilator)
    keep_ga = sorted(sub.ga_factors)
    new_base = GroupDescriptor(quot.descriptor.free_rank, quot.descriptor.torsion, len(keep_ga))
    weights = []
    for v in sub.vectors:
        wexps = next(pair.weights[i].exps for i, c in enumerate(v) if not c.is_zero())
        proj = quot.project(pair.base.character(wexps))
        weights.append(new_base.character(proj.exps))
    sub_pair = HarishChandraPair(field, new_base, weights)
    r2, m2 = new_base.free_rank, len(new_base.torsion)
    for a, u in enumerate(sub.vectors):
        for b, w in enumerate(sub.vectors):
            x = pair.bracket_of_vectors(u, w)
            free_vals = [x.pair(quot.lift(t)) for t in range(r2)]
            tors_vals = [x.pair(quot.lift(r2 + t)) for t in range(m2)]
            add_vals = [x.additive[j] for j in keep_ga]
            sub_pair.bracket[a][b] = LieFunctional(new_base, field, free_vals, tors_vals, add_vals)
    return sub_pair


def normal_chain_stepwise(pair: HarishChandraPair) -> NormalChainResult:
    """Chain construction: repeatedly pick the lexicographically least weight
    vector, quotient the corresponding one-dimensional piece off, and recurse
    into the sub-pair. Emits factor labels from the top of the chain down;
    every step's sub-pair is re-validated for normality."""
    verdict = check_pair(pair)
    if not verdict.ok:
        raise UnsupportedBase(f"not a Harish-Chandra pair: {verdict.failures}")
    factors = []
    steps = []
    current = pair
    while current.dim_v > 0:
        order = sorted(range(current.dim_v), key=lambda i: current.weights[i].sort_key())
        pick = order[0]
        w = current.weights[pick]
        sub = SubPair(
            frozenset(range(current.base.additive_rank)),
            [] if w.is_identity() else [w],
            [current.basis_vector(i) for i in range(current.dim_v) if i != pick],
        )
        normal = check_normal(current, sub)
        if not normal.ok:
            raise UnsupportedBase(f"chain step not normal: {normal.failures}")
        if w.is_identity():
            step_factors = [FactorLabel("Ga_minus")]
        else:
            n = w.order()
            top = FactorLabel("Gm") if n is None else FactorLabel("mu", n)
            step_factors = [top, FactorLabel("Ga_minus")]
        factors.extend(step_factors)
        steps.append(
            {
                "weight": list(w.exps),
                "factors": [str(f) for f in step_factors],
                "normal": True,
            }
        )
        current = sub_pair_as_pair(current, sub)
    return NormalChainResult(factors, current.base, steps)
