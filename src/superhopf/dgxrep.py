"""Finite-dimensional supercomodules over the one-odd-generator algebras
with diagonalizable base.

Coactions are stored against the monomial basis {h, hz} of the coacting
algebra, so any finite-dimensional comodule touches only finitely many
characters and no window bookkeeping is needed. Standard objects are the
two-dimensional L(h) (basis vectors mapping to h and hz) and the lines S(h)
for characters h annihilated by the functional, together with their parity
shifts.

Decomposition first splits a comodule into its coset blocks. For a coset c
of <g> in X let A_c be the span of {h, hz : h in c}; since
Delta(h) = h(x)h + <x,h> hz(x)ghz and Delta(hz) = h(x)hz + hz(x)gh both lie
in A_c(x)A_c, A is the direct sum of the subcoalgebras A_c, so every
supercomodule is canonically M = sum_c M_c, cut out by the even idempotent
comodule maps e_c = (id (x) eps|A_c) rho (Montgomery, Hopf Algebras and Their
Actions on Rings, CBMS 82, 1993). Each block is validated on its own and then
peeled (a comodule that meets one coset is its own block and is peeled as it
stands): injective summands come off its socle, which is cut out by the
coradical (a vector is in the socle iff its coaction has no hz-component with
h annihilated). An input that fails anywhere is checked whole, and the error
names the failures `Supercomodule.validate` finds on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .chargroup import QuotientGroup
from .fields import DescriptorMismatch, Field, FieldElement, lincomb, lincomb_raw
from .hopfcore import MonomialHopfSuperalgebra
from . import superlin

EVEN, ODD = superlin.EVEN, superlin.ODD


class InvalidLabel(Exception):
    pass


class DecompositionError(Exception):
    pass


@dataclass(frozen=True)
class IndecompLabel:
    """kind "L" or "S", the character exponents, and a parity shift flag."""

    kind: str
    char: tuple
    shifted: bool = False

    def __str__(self):
        name = f"{self.kind}({','.join(str(e) for e in self.char)})"
        return f"Pi{name}" if self.shifted else name

    def sort_key(self):
        return (self.kind, self.char, self.shifted)

    def to_json(self):
        return {"kind": self.kind, "char": list(self.char), "shifted": self.shifted}

    @staticmethod
    def from_json(data):
        return IndecompLabel(data["kind"], tuple(data["char"]), data.get("shifted", False))


class Supercomodule:
    """Right supercomodule given by an exact coaction table.

    coaction[i] is a tuple of (target_index, coefficient, char_exponents, eps)
    meaning rho(m_i) contains coefficient * m_target (x) h z^eps. The
    constructor merges repeated (target, character, eps) entries of a row and
    drops the zero sums. The coaction is stored once, raw: `_rows[i]` holds
    (target_index, raw value, char_exponents, eps), sorted, merged and
    zero-free, and `coaction` is a read-only view of it with boxed values.
    """

    def __init__(self, algebra: MonomialHopfSuperalgebra, parities, coaction):
        parse = algebra.field.parse
        self._store(algebra, parities, ([(j, parse(c)._v, chars, eps) for j, c, chars, eps in row]
                                        for row in coaction))

    @classmethod
    def _raw(cls, algebra, parities, rows):
        """The comodule of coaction rows whose coefficients are raw values."""
        return cls.__new__(cls)._store(algebra, parities, rows)

    def _store(self, algebra, parities, rows):
        if algebra.k != 0:
            raise InvalidLabel("comodules require a diagonalizable base")
        self.algebra = algebra
        self.field = field = algebra.field
        self.parities = tuple(parities)
        reduce = algebra.group.reduce
        self._rows = tuple(
            tuple((j, v, ch, e) for (j, ch, e), v in sorted(lincomb_raw(
                field, (((j, reduce(chars), int(eps)), v) for j, v, chars, eps in row)).items()))
            for row in rows)
        if len(self._rows) != self.dim:
            raise InvalidLabel("coaction rows do not match the dimension")
        return self

    @property
    def coaction(self):
        field = self.field
        return tuple(tuple((j, FieldElement(field, v), ch, e) for j, v, ch, e in row)
                     for row in self._rows)

    @property
    def dim(self):
        return len(self.parities)

    @property
    def even_dim(self):
        return sum(1 for p in self.parities if p == EVEN)

    @property
    def odd_dim(self):
        return self.dim - self.even_dim

    def characters_used(self):
        group = self.algebra.group
        seen = {chars for row in self._rows for _, _, chars, _ in row}
        return [group.character(e) for e in sorted(seen)]

    def coact_vector(self, vec):
        """rho(sum vec_i m_i) as {(target, chars, eps): coefficient}."""
        image = self._coact([self.field.parse(c)._v for c in vec])
        return {key: FieldElement(self.field, v) for key, v in image.items()}

    def _coact(self, vec):
        """coact_vector on raw values: raw coordinates in, raw image out."""
        field = self.field
        is_zero, mul = field._is_zero, field._prod
        return lincomb_raw(field, (((j, chars, eps), mul(c, d)) for c, row in zip(vec, self._rows)
                                   if not is_zero(c) for j, d, chars, eps in row))

    def parity_shift(self):
        return Supercomodule._raw(self.algebra, tuple(1 - p for p in self.parities), self._rows)

    def direct_sum(self, other: "Supercomodule") -> "Supercomodule":
        if other.field is not self.field:
            raise DescriptorMismatch("the comodules are over different fields")
        shift = self.dim
        rows = list(self._rows) + [tuple((j + shift, c, ch, e) for j, c, ch, e in row)
                                   for row in other._rows]
        return Supercomodule._raw(self.algebra, self.parities + other.parities, rows)

    def change_basis(self, matrix):
        """Comodule with basis m'_i = sum_j matrix[j][i] m_j (columns are the
        new basis vectors in old coordinates); matrix must be invertible and
        parity-preserving."""
        n, mul = self.dim, self.field._prod
        inv = [[x._v if x else None for x in row] for row in _invert(matrix, self.field)]
        rows = []
        for i in range(n):
            image = self._coact([matrix[r][i]._v for r in range(n)])
            rows.append([(t, mul(inv[t][j], c), chars, eps)
                         for (j, chars, eps), c in image.items() for t in range(n) if inv[t][j]])
        return Supercomodule._raw(self.algebra, self.parities, rows)

    def validate(self):
        """Exact comodule-axiom check: parity of the coaction, counit, and
        coassociativity against the coacting algebra's coproduct."""
        alg = self.algebra
        field = self.field
        mul, one, rows, delta = field._prod, field.one()._v, self._rows, alg.delta_monomial
        failures = []
        for i in range(self.dim):
            for j, c, chars, eps in rows[i]:
                if (self.parities[j] + eps - self.parities[i]) % 2:
                    failures.append(("coaction parity", f"row {i} target {j}"))
        for i, row in enumerate(rows):
            if lincomb_raw(field, ((j, c) for j, c, _, eps in row if eps == 0)) != {i: one}:
                failures.append(("counit", f"row {i}"))
        for i, row in enumerate(rows):
            # (rho (x) id) rho(m_i) against (id (x) Delta) rho(m_i)
            lhs = lincomb_raw(field, (((t, chars2, eps2, chars, eps), mul(c, d))
                                      for j, c, chars, eps in row
                                      for t, d, chars2, eps2 in rows[j]))
            rhs = lincomb_raw(field, (((j, m1[0], m1[2], m2[0], m2[2]), mul(c, d._v))
                                      for j, c, chars, eps in row for (m1, m2), d in
                                      delta(alg.monomial(chars, eps=eps)).terms.items()))
            if lhs != rhs:
                key = next(k for k in chain(lhs, rhs) if lhs.get(k) != rhs.get(k))
                failures.append(("coassociativity", f"row {i} at {key}"))
        return failures

    def to_json(self):
        order = sorted(range(self.dim), key=lambda i: self.parities[i])
        pos = {old: new for new, old in enumerate(order)}
        rows = [None] * self.dim
        for i, row in enumerate(self.coaction):
            entries = sorted((pos[j], str(c), list(ch), e) for j, c, ch, e in row)
            rows[pos[i]] = [list(entry) for entry in entries]
        return {
            "dims": {"even": self.even_dim, "odd": self.odd_dim},
            "coaction": [[i, rows[i]] for i in range(self.dim)],
        }

    @staticmethod
    def from_json(algebra, data):
        even = data["dims"]["even"]
        odd = data["dims"]["odd"]
        parities = (EVEN,) * even + (ODD,) * odd
        dim = even + odd
        rows = [[] for _ in range(dim)]
        seen = set()
        for i, entries in data["coaction"]:
            if not 0 <= i < dim or i in seen:
                raise InvalidLabel(f"coaction row index {i} is repeated or outside 0..{dim - 1}")
            seen.add(i)
            rows[i] = [(j, c, tuple(ch), e) for j, c, ch, e in entries]
            bad = [j for j, *_ in rows[i] if not 0 <= j < dim]
            if bad:
                raise InvalidLabel(f"coaction row {i}: target index {bad[0]} outside 0..{dim - 1}")
        return Supercomodule(algebra, parities, rows)


def _invert(matrix, field: Field):
    n = len(matrix)
    aug = [list(matrix[i]) + [field.one() if j == i else field.zero() for j in range(n)]
           for i in range(n)]
    reduced, pivots = superlin.row_reduce(aug, field)
    if pivots[:n] != list(range(n)):
        raise DecompositionError("matrix not invertible")
    return [row[n:] for row in reduced[:n]]


# ---------------------------------------------------------------------------
# standard objects


def standard_object(algebra: MonomialHopfSuperalgebra, label: IndecompLabel) -> Supercomodule:
    """L(h) = span{h, hz} or S(h) = span{h} with coaction read off the
    coproduct; S(h) requires <x, h> = 0."""
    group = algebra.group
    h = group.character(label.char)
    alpha = algebra.pair_char(h.exps)
    gh = (h * algebra.g).exps
    if label.kind == "S":
        if not alpha.is_zero():
            raise InvalidLabel(f"S requires an annihilated character, got {h}")
        parities = (ODD,) if label.shifted else (EVEN,)
        rows = [[(0, algebra.field.one(), h.exps, 0)]]
        return Supercomodule(algebra, parities, rows)
    if label.kind != "L":
        raise InvalidLabel(f"unknown kind {label.kind!r}")
    parities = (ODD, EVEN) if label.shifted else (EVEN, ODD)
    one = algebra.field.one()
    rows = [
        [(0, one, h.exps, 0), (1, alpha, gh, 1)],
        [(0, one, h.exps, 1), (1, one, gh, 0)],
    ]
    return Supercomodule(algebra, parities, rows)


def label_is_simple(algebra, label: IndecompLabel) -> bool:
    alpha = algebra.pair_char(algebra.group.reduce(label.char))
    if label.kind == "S":
        return True
    return not alpha.is_zero()


def canonical_label(algebra, label: IndecompLabel) -> IndecompLabel:
    """Label normalized modulo the isomorphism L(h) = Pi L(gh) that holds for
    every simple two-dimensional object (swap the two basis vectors; exhibited
    exactly by comodule_homs). Non-simple L's and the one-dimensional objects
    admit no such identification."""
    char = algebra.group.reduce(label.char)
    if label.kind != "L" or algebra.pair_char(char).is_zero():
        return IndecompLabel(label.kind, char, label.shifted)
    partner = (algebra.group.character(char) * algebra.g).exps
    candidates = [(char, label.shifted), (partner, not label.shifted)]
    best = min(candidates)
    return IndecompLabel("L", best[0], best[1])


def label_dim(label: IndecompLabel) -> int:
    return 1 if label.kind == "S" else 2


# ---------------------------------------------------------------------------
# socle and decomposition


def socle_vectors(m: Supercomodule):
    """Parity-homogeneous basis of the socle: vectors whose coaction has no
    hz-component with <x,h> = 0 (those monomials fall outside the coradical)."""
    alg = m.algebra
    system = {}
    for i, row in enumerate(m.coaction):
        for j, c, chars, eps in row:
            if eps == 1 and alg.pair_char(chars).is_zero():
                superlin.add_entry(system, (j, chars), i, c)
    return superlin.kernel_by_parity(system, m.parities, m.field)


def restrict(m: Supercomodule, vectors):
    """Subcomodule on the given independent homogeneous vectors (in ambient
    coordinates); raises if the span is not coaction-stable. One elimination
    of the basis, augmented by the per-monomial component of every image,
    gives all coordinates; a pivot in an augmented column means a component
    outside the span."""
    field = m.field
    if not vectors:
        return Supercomodule(m.algebra, (), []), []
    basis = [v for _, v in vectors]
    parities = [p for p, _ in vectors]
    targets, columns = [], []
    for s, v in enumerate(basis):
        per_mono = {}
        for (j, chars, eps), c in m._coact([x._v for x in v]).items():
            per_mono.setdefault((chars, eps), [field.zero()] * m.dim)[j] = FieldElement(field, c)
        for (chars, eps), target in per_mono.items():
            targets.append((s, chars, eps))
            columns.append(target)
    k = len(basis)
    reduced, pivots = superlin.row_reduce(
        [[col[i] for col in basis + columns] for i in range(m.dim)], field)
    if pivots and pivots[-1] >= k:
        raise DecompositionError("span is not a subcomodule")
    rows = [[] for _ in basis]
    for q, (s, chars, eps) in enumerate(targets):
        for i, pc in enumerate(pivots):
            c = reduced[i][k + q]._v
            rows[s].append((pc, c, chars, eps))
    return Supercomodule._raw(m.algebra, tuple(parities), rows), basis


def _comodule_hom_conditions(src: Supercomodule, dst: Supercomodule):
    """(system, columns) cutting out the even comodule maps f: src -> dst.

    Unknown t * src.dim + j is the entry f[t][j]. Row (i, t, chars, eps)
    equates the coefficients of m_t (x) h z^eps in (f (x) id)(rho_src(m_i))
    and in rho_dst(f(m_i)). The columns are the entries with
    dst.parities[t] == src.parities[j]; the others are zero in an even map."""
    nd, ns = dst.dim, src.dim
    dst_entries = [(u, t, -c, chars, eps)
                   for u, row in enumerate(dst.coaction) for t, c, chars, eps in row]
    system = {}
    for i, row in enumerate(src.coaction):
        for j, c, chars, eps in row:
            for t in range(nd):
                superlin.add_entry(system, (i, t, chars, eps), t * ns + j, c)
        for u, t, c, chars, eps in dst_entries:
            superlin.add_entry(system, (i, t, chars, eps), u * ns + i, c)
    even = [t * ns + j for t in range(nd) for j in range(ns)
            if dst.parities[t] == src.parities[j]]
    return system, even


def comodule_homs(src: Supercomodule, dst: Supercomodule):
    """Basis of the space of even comodule morphisms src -> dst, as matrices."""
    ns, nd = src.dim, dst.dim
    system, even = _comodule_hom_conditions(src, dst)
    return [[[vec[t * ns + j] for j in range(ns)] for t in range(nd)]
            for vec in superlin.kernel_on(system, even, nd * ns, src.field)]


def _retraction(m: Supercomodule, block: Supercomodule, embedding):
    """Comodule map pi: m -> block with pi restricted to the embedded block
    equal to the identity; embedding maps block basis -> ambient vectors."""
    field = m.field
    ns, nd = m.dim, block.dim
    system, even = _comodule_hom_conditions(m, block)
    # pi(embedding(e_b)) = e_b: sum_j pi[t][j] emb[b][j] = delta_{tb}
    rhs = {}
    for b in range(nd):
        for t in range(nd):
            for j in range(ns):
                superlin.add_entry(system, ("section", b, t), t * ns + j, embedding[b][j])
        rhs[("section", b, b)] = field.one()
    sol = superlin.solve_on(system, rhs, even, nd * ns, field)
    if sol is None:
        return None
    return [[sol[t * ns + j] for j in range(ns)] for t in range(nd)]


@dataclass
class DecompositionResult:
    labels: list
    blocks: list  # (label, embedding rows: block basis in ambient coords)
    iso_matrix: list

    def label_multiset(self):
        return sorted(str(l) for l in self.labels)

    def to_json(self):
        return {
            "labels": [l.to_json() for l in self.labels],
            "label_multiset": self.label_multiset(),
            "iso_matrix": [[str(c) for c in row] for row in self.iso_matrix],
        }


def _find_line_candidates(m: Supercomodule):
    """(character, parity, vectors) for eigenvector lines rho(v) = v (x) h."""
    alg, coaction = m.algebra, m.coaction
    out = []
    for h in m.characters_used():
        if not alg.pair_char(h.exps).is_zero():
            continue
        system = _eigen_system(coaction, h.exps, m.field)
        for parity in (EVEN, ODD):
            idx = [i for i in range(m.dim) if m.parities[i] == parity]
            vectors = superlin.kernel_on(system, idx, m.dim, m.field)
            if vectors:
                out.append((h, parity, vectors))
    return out


def _find_l_copy(m: Supercomodule, h, parity):
    """An embedded copy of L(h) (shifted when parity is odd) with socle-free
    character h not annihilated: solves for (u, w) with
    rho(u) = u(x)h + alpha w(x)(gh)z, rho(w) = u(x)hz + w(x)gh."""
    alg = m.algebra
    field = m.field
    label = IndecompLabel("L", alg.group.reduce(h.exps), parity == ODD)
    block = standard_object(alg, label)
    # any nonzero morphism out of a simple is injective
    homs = comodule_homs(block, m)
    for mat in homs:
        cols = [[mat[i][b] for i in range(m.dim)] for b in range(block.dim)]
        if superlin.rank([list(col) for col in cols], field) == block.dim:
            return label, block, cols
    return None


def coset_projectors(m: Supercomodule):
    """The projectors e_c = (id (x) eps|A_c) rho onto the coset blocks of m,
    as {coset: {(i, j): coefficient of m_j in e_c(m_i)}}, in coset order. The
    coset of <g> in X is keyed by the exponents of its image in X/<g>; e_c
    collects the coaction entries without z whose character lies in c."""
    alg, field = m.algebra, m.field
    quotient = QuotientGroup(alg.group, [alg.g])
    coset, entries = {}, {}
    for i, row in enumerate(m._rows):
        for j, c, chars, eps in row:
            if eps == 0:
                if chars not in coset:
                    coset[chars] = quotient.project(alg.group.character(chars)).exps
                entries.setdefault(coset[chars], []).append(((i, j), c))
    return {key: {ij: FieldElement(field, c) for ij, c in lincomb_raw(field, terms).items()}
            for key, terms in sorted(entries.items())}


def _coset_blocks(m: Supercomodule):
    """(block, basis) for each coset block M_c = e_c(M), validated: the block
    comodule and its basis in m's coordinates, one elimination per parity on
    the rows e_c(m_i). When the coaction meets a single coset, m is its own
    block and keeps its coordinates."""
    field, n = m.field, m.dim
    projectors = coset_projectors(m)
    if len(projectors) == 1:
        identity = [[field.one() if i == j else field.zero() for j in range(n)]
                    for i in range(n)]
        out = [(m, identity)]
    else:
        out = [restrict(m, _block_vectors(m, proj)) for proj in projectors.values()]
    for block, _ in out:
        if block.validate():
            raise DecompositionError("coset block is not a comodule")
    return out


def _block_vectors(m: Supercomodule, proj):
    """A homogeneous basis of the span of the rows e_c(m_i), as (parity,
    vector) pairs, one elimination per parity."""
    zero = m.field.zero()
    rows = {}
    for (i, j), c in proj.items():
        rows.setdefault(i, [zero] * m.dim)[j] = c
    vectors = []
    for parity in (EVEN, ODD):
        reduced, pivots = superlin.row_reduce(
            [row for i, row in sorted(rows.items()) if m.parities[i] == parity], m.field)
        vectors.extend((parity, reduced[r]) for r in range(len(pivots)))
    return vectors


def _to_ambient(vectors, ambient, field):
    """Vectors given in the coordinates of the basis `ambient`, rewritten in
    the coordinates of the space that holds that basis."""
    ambient = [[x._v for x in row] for row in ambient]
    zero, out = [field.zero()._v] * len(ambient[0]), []
    for v in vectors:
        acc = zero
        for c, row in zip(v, ambient):
            if c:
                acc = field._axpy(acc, c._v, row)
        out.append([FieldElement(field, x) for x in acc])
    return out


def decompose(m: Supercomodule) -> DecompositionResult:
    """Label multiset plus an explicit even isomorphism from the direct sum
    of standard objects onto m.

    m is split into its coset blocks M_c first (see the module docstring),
    since every summand lies in one of them; each block is validated and
    peeled on its own, while the split and the final verification still work
    on the whole of m. An m whose coaction meets one coset is its own block
    and is peeled as it stands, in its own coordinates.

    Within a block, socle constituents are peeled in lexicographic order and
    every peeled summand is split off through an exactly solved retraction.
    Labels and the columns of the isomorphism come out block by block. The
    assembled isomorphism is verified on the whole of m, so no invalid input
    is reported as decomposed; when any step fails, m is validated whole and
    a failure it finds is reported as "not a comodule" with the first three
    `m.validate()` witnesses."""
    alg = m.algebra
    field = m.field
    labels = []
    blocks = []
    try:
        for current, ambient in _coset_blocks(m):
            # ambient: the basis of `current` in m's coordinates
            while current.dim > 0:
                label, _, embedding, retraction = _peel_one(current)
                labels.append(canonical_label(alg, label))
                blocks.append((label, _to_ambient(embedding, ambient, field)))
                # complement = kernel of retraction, taken parity-homogeneously
                system = {t: dict(enumerate(row)) for t, row in enumerate(retraction)}
                complement = superlin.kernel_by_parity(system, current.parities, field)
                current, basis = restrict(current, complement)
                ambient = _to_ambient(basis, ambient, field)

        # assemble and verify the isomorphism
        total = sum(label_dim(l) for l in labels)
        if total != m.dim:
            raise DecompositionError("dimension mismatch in decomposition")
        iso_cols = []
        for label, rows in blocks:
            iso_cols.extend(rows)
        iso = [[iso_cols[c][r] for c in range(total)] for r in range(m.dim)]
        _verify_decomposition(m, labels, blocks, iso)
    except DecompositionError:
        failures = m.validate()
        if failures:
            raise DecompositionError(f"not a comodule: {failures[:3]}") from None
        raise
    return DecompositionResult(labels, blocks, iso)


def _peel_one(current: Supercomodule):
    """One direct summand of `current`: (label, block, embedding, retraction);
    embedding rows are block basis vectors in current coordinates."""
    alg = current.algebra
    field = current.field
    # socle constituents: lines first (lex over character, parity), then
    # 2-dimensional simples
    lines = _find_line_candidates(current)
    lines.sort(key=lambda t: (t[0].sort_key(), t[1]))
    for h, parity, vectors in lines:
        for vec in vectors:
            # try to extend the line to a copy of L(h): w with
            # rho(w) = v (x) hz + w (x) gh
            ext = _extend_line(current, h, vec)
            if ext is not None:
                label = IndecompLabel("L", alg.group.reduce(h.exps), parity == ODD)
                block = standard_object(alg, label)
                embedding = [vec, ext]
                retraction = _retraction(current, block, embedding)
                if retraction is not None:
                    return label, block, embedding, retraction
            else:
                label = IndecompLabel("S", alg.group.reduce(h.exps), parity == ODD)
                block = standard_object(alg, label)
                embedding = [vec]
                retraction = _retraction(current, block, embedding)
                if retraction is not None:
                    return label, block, embedding, retraction
    # no line constituents: all socle constituents are 2-dimensional simples
    for h in sorted(current.characters_used(), key=lambda c: c.sort_key()):
        if alg.pair_char(h.exps).is_zero():
            continue
        for parity in (EVEN, ODD):
            found = _find_l_copy(current, h, parity)
            if found is None:
                continue
            label, block, cols = found
            embedding = cols
            retraction = _retraction(current, block, embedding)
            if retraction is not None:
                return label, block, embedding, retraction
    raise DecompositionError("no peelable direct summand found")


def _extend_line(m: Supercomodule, h, vec):
    """Solve rho(w) = vec (x) hz + w (x) gh for w; None when non-extendable."""
    system = _eigen_system(m.coaction, (h * m.algebra.g).exps, m.field)
    rhs = {(i, h.exps, 1): vec[i] for i in range(m.dim) if not vec[i].is_zero()}
    return superlin.solve_on(system, rhs, range(m.dim), m.dim, m.field)


def _eigen_system(coaction, exps, field):
    """The system rho(w) - w (x) h = 0 in w, from a boxed `coaction`, for the
    character h with exponents `exps`: one row per (target, character, eps)."""
    minus_one, system = -field.one(), {}
    for j, row in enumerate(coaction):
        for t, c, chars, eps in row:
            superlin.add_entry(system, (t, chars, eps), j, c)
        superlin.add_entry(system, (j, exps, 0), j, minus_one)
    return system


def _verify_decomposition(m, labels, blocks, iso):
    field, n, mul = m.field, m.dim, m.field._prod
    if superlin.rank([row[:] for row in iso], field) != n:
        raise DecompositionError("assembled map is not invertible")
    for label, rows in blocks:
        block = standard_object(m.algebra, label)
        rows = [[x._v for x in row] for row in rows]
        for b in range(block.dim):
            rhs = lincomb_raw(field, (((i, chars, eps), mul(rows[t][i], c))
                                      for t, c, chars, eps in block._rows[b] for i in range(n)))
            if m._coact(rows[b]) != rhs:
                raise DecompositionError("assembled map is not a comodule morphism")


def socle(m: Supercomodule):
    """The largest semisimple subcomodule, as (subcomodule, basis vectors)."""
    return restrict(m, socle_vectors(m))


# ---------------------------------------------------------------------------
# Ext^1 between simples


def ext1(algebra: MonomialHopfSuperalgebra, s: IndecompLabel, t: IndecompLabel):
    """dim Ext^1(S, T) for simple labels, with a representative non-split
    middle term when the dimension is 1.

    The only non-split extensions pair the one-dimensional simples whose
    characters differ by the distinguished grouplike and whose parities
    differ; the representative is the corresponding L (or its shift).
    """
    for label in (s, t):
        if label.kind == "S" and not algebra.pair_char(algebra.group.reduce(label.char)).is_zero():
            raise InvalidLabel(f"{label} is not a valid S-label")
        if not label_is_simple(algebra, label):
            raise InvalidLabel(f"{label} is not simple")
    if s.kind == "S" and t.kind == "S":
        char_match = algebra.group.reduce(s.char) == (
            algebra.group.character(t.char) * algebra.g
        ).exps
        if char_match and s.shifted != t.shifted:
            rep = IndecompLabel("L", algebra.group.reduce(t.char), t.shifted)
            return 1, standard_object(algebra, rep), rep
    return 0, None, None


# ---------------------------------------------------------------------------
# duality


def tensor_comodule(m: Supercomodule, n: Supercomodule) -> Supercomodule:
    """m (x) n with the Koszul-signed tensor coaction."""
    if n.field is not m.field:
        raise DescriptorMismatch("the comodules are over different fields")
    alg = m.algebra
    parities = [(pm + pn) % 2 for pm in m.parities for pn in n.parities]
    mul, neg = m.field._prod, m.field._neg
    rows = []
    for row_m in m._rows:
        for row_n in n._rows:
            row = []
            for a, c1, ch1, e1 in row_m:
                for b, c2, ch2, e2 in row_n:
                    if e1 and e2:
                        continue
                    val = mul(c1, c2)
                    chars = tuple(p + q for p, q in zip(ch1, ch2))
                    row.append((a * n.dim + b, neg(val) if e1 and n.parities[b] else val,
                                chars, e1 | e2))
            rows.append(row)
    return Supercomodule._raw(alg, parities, rows)


def dual_pairing(algebra: MonomialHopfSuperalgebra, h):
    """The canonical pairing between Pi L(h^{-1}) and L(g^{-1} h): verifies it
    is a comodule morphism to the trivial comodule and non-degenerate."""
    one = algebra.field.one()
    # pairing values on basis pairs (left_i, right_j):
    # <h^{-1}, g^{-1}h z> = <h^{-1} z, g^{-1} h> = 1, others 0
    return _check_pairing(algebra, h, {(0, 1): one, (1, 0): one})


def _check_pairing(alg, h, values):
    """The pairing `values` between Pi L(h^{-1}) and L(g^{-1} h), checked."""
    h = h if not isinstance(h, (list, tuple)) else alg.group.character(h)
    left = standard_object(alg, IndecompLabel("L", h.inverse().exps, True))
    right = standard_object(alg, IndecompLabel("L", (alg.g.inverse() * h).exps, False))
    field = alg.field
    tens = tensor_comodule(left, right).coaction
    failures = []
    n = right.dim
    id_key = (alg.group.identity().exps, 0)
    for i in range(left.dim):
        for j in range(right.dim):
            total = lincomb(field, (((chars, eps), c * values[divmod(t, n)])
                                    for t, c, chars, eps in tens[i * n + j]
                                    if divmod(t, n) in values))
            if total.get(id_key, field.zero()) != values.get((i, j), field.zero()):
                failures.append((i, j, "identity component"))
            failures.extend((i, j, key) for key in total if key != id_key)
    # non-degeneracy of the 2x2 value matrix
    mat = [[values.get((i, j), field.zero()) for j in range(right.dim)]
           for i in range(left.dim)]
    nondeg = superlin.rank(mat, field) == min(left.dim, right.dim) and left.dim == right.dim
    return {
        "is_morphism": not failures,
        "nondegenerate": nondeg,
        "failures": failures[:5],
    }

