"""Harish-Chandra pairs over base groups G = G_a^k x D with D diagonalizable.

A pair is the base descriptor, a purely odd space V with one weight character
per basis vector (the additive factors act trivially), and a symmetric table
of Lie-functional brackets. The verdict operations below (normality,
quotients, diagonalizability, radical, normal chains, isomorphism of the
one-odd-dimension family, nilpotency conditions, and the splitting
counter-example family) all reduce to exact linear algebra over the field and
Smith-normal-form arithmetic on the character lattice.

Duality bookkeeping: a closed subgroup D_H of D is presented by its
annihilator subgroup Lambda <= X (the characters restricting trivially to
D_H), so X(D_H) = X/Lambda while the quotient D/D_H has character group
Lambda itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .chargroup import (
    Character,
    GroupDescriptor,
    LieFunctional,
    QuotientGroup,
    Subgroup,
)
from .fields import Field, Unsupported
from . import superlin
from .hopfcore import GXData, validate_gx


class InvalidSubPair(Exception):
    pass


class NotNormal(Exception):
    pass


class BaseNotDiagonalizable(Exception):
    pass


class UnsupportedBase(Exception):
    pass


class HarishChandraPair:
    """(G, V, [,]) with V graded by characters of the diagonalizable part."""

    def __init__(self, field: Field, base: GroupDescriptor, weights, bracket=None):
        self.field = field
        self.base = base
        self.weights = [w if isinstance(w, Character) else base.character(w) for w in weights]
        n = len(self.weights)
        zero = LieFunctional.zero(base, field)
        if bracket is None:
            bracket = [[zero for _ in range(n)] for _ in range(n)]
        else:
            bracket = [[self._functional(bracket[i][j]) for j in range(n)] for i in range(n)]
        self.bracket = bracket

    def _functional(self, x):
        if x is None:
            return LieFunctional.zero(self.base, self.field)
        if not isinstance(x, LieFunctional):
            raise InvalidSubPair("bracket entries must be Lie functionals")
        return x

    @property
    def dim_v(self):
        return len(self.weights)

    def set_bracket(self, i, j, x: LieFunctional):
        self.bracket[i][j] = x
        self.bracket[j][i] = x

    def bracket_of_vectors(self, u, w):
        """[u, w] for coefficient vectors u, w over the odd basis."""
        out = LieFunctional.zero(self.base, self.field)
        for i, ci in enumerate(u):
            if ci.is_zero():
                continue
            for j, cj in enumerate(w):
                if cj.is_zero():
                    continue
                out = out + self.bracket[i][j].scale(ci * cj)
        return out

    def weight_blocks(self):
        blocks = {}
        for i, w in enumerate(self.weights):
            blocks.setdefault(w.exps, []).append(i)
        return blocks

    def zero_vector(self):
        return [self.field.zero()] * self.dim_v

    def basis_vector(self, i):
        v = self.zero_vector()
        v[i] = self.field.one()
        return v

    def to_json(self):
        entries = []
        for i in range(self.dim_v):
            for j in range(i, self.dim_v):
                if not self.bracket[i][j].is_zero():
                    entries.append([i, j, self.bracket[i][j].to_json()])
        return {
            "field": self.field.to_json(),
            "base": self.base.to_json(),
            "V": [{"weight": list(w.exps), "parity": "odd"} for w in self.weights],
            "bracket": entries,
        }

    @staticmethod
    def from_json(data):
        field = Field.from_json(data["field"])
        base = GroupDescriptor.from_json(data["base"])
        weights = []
        for v in data.get("V", []):
            if v.get("parity", "odd") != "odd":
                raise InvalidSubPair("V must be purely odd")
            weights.append(base.character(v["weight"]))
        pair = HarishChandraPair(field, base, weights)
        for i, j, x in data.get("bracket", []):
            if not (0 <= i < pair.dim_v and 0 <= j < pair.dim_v):
                raise InvalidSubPair(f"bracket index ({i}, {j}) outside 0..{pair.dim_v - 1}")
            pair.set_bracket(i, j, LieFunctional.from_json(base, field, x))
        return pair


@dataclass
class SubPair:
    """Sub-pair (H, W): H consists of the G_a factors listed in `ga_factors`
    and the subgroup of D annihilated by `annihilator`; W is spanned by the
    given weight-homogeneous coefficient vectors."""

    ga_factors: frozenset
    annihilator: list
    vectors: list

    @staticmethod
    def whole(pair):
        return SubPair(
            frozenset(range(pair.base.additive_rank)),
            [],
            [pair.basis_vector(i) for i in range(pair.dim_v)],
        )

    @staticmethod
    def trivial(pair):
        return SubPair(frozenset(), list(pair.base.generators()), [])

    def to_json(self):
        return {
            "ga_factors": sorted(self.ga_factors),
            "annihilator": [list(c.exps) for c in self.annihilator],
            "vectors": [[str(c) for c in v] for v in self.vectors],
        }

    @staticmethod
    def from_json(pair, data):
        return SubPair(
            frozenset(data.get("ga_factors", [])),
            [pair.base.character(e) for e in data.get("annihilator", [])],
            [[pair.field.parse(c) for c in v] for v in data.get("vectors", [])],
        )


@dataclass
class Verdict:
    ok: bool
    failures: list = dataclass_field(default_factory=list)

    def record(self, condition, witness):
        self.ok = False
        self.failures.append((condition, witness))

    def to_json(self):
        return {
            "accepted": self.ok,
            "failures": [{"condition": c, "witness": str(w)} for c, w in self.failures],
        }


def check_pair(pair: HarishChandraPair) -> Verdict:
    """Symmetry, weight-equivariance, and the cubic self-annihilation law.

    The cubic law v <| [v,v] = 0 for all v is checked in its complete
    linearized form <[v_i, v_j], weight(v_k)> = 0 for all i, j, k. The two
    are equivalent because char K != 2 and the bracket is symmetric:
    polarizing the cubic in v = sum c_i v_i recovers every term. Evaluating
    the law on particular vectors (basis vectors, sums of two or three) would
    add nothing: sum c_i c_j <[v_i, v_j], weight(v_k)> is bilinear in these
    same terms, so it vanishes once they all do.
    """
    verdict = Verdict(True)
    n = pair.dim_v
    for i in range(n):
        for j in range(i, n):
            if not (pair.bracket[i][j] == pair.bracket[j][i]):
                verdict.record("symmetry", f"[v{i},v{j}] != [v{j},v{i}]")
    for i in range(n):
        for j in range(n):
            if pair.bracket[i][j].is_zero():
                continue
            if not (pair.weights[i] * pair.weights[j]).is_identity():
                verdict.record(
                    "equivariance",
                    f"[v{i},v{j}] != 0 with weight product {pair.weights[i] * pair.weights[j]}",
                )
    for i in range(n):
        for j in range(n):
            b = pair.bracket[i][j]
            if b.is_zero():
                continue
            for kk in range(n):
                val = b.pair(pair.weights[kk])
                if not val.is_zero():
                    verdict.record(
                        "self-annihilation", f"<[v{i},v{j}], weight(v{kk})> = {val}"
                    )
    return verdict


def _validate_subpair(pair: HarishChandraPair, sub: SubPair) -> Verdict:
    """Structural validity only; the bracket condition [W,W] in Lie(H) is
    subsumed by normality condition (iv) and reported there."""
    verdict = Verdict(True)
    if any(j < 0 or j >= pair.base.additive_rank for j in sub.ga_factors):
        raise InvalidSubPair("additive factor index out of range")
    for v in sub.vectors:
        if len(v) != pair.dim_v:
            raise InvalidSubPair("W vector of wrong length")
        support_weights = {pair.weights[i].exps for i, c in enumerate(v) if not c.is_zero()}
        if not support_weights:
            raise InvalidSubPair("zero spanning vector in W")
        if len(support_weights) > 1:
            verdict.record("W spanned by weight vectors", f"vector mixes weights {support_weights}")
    return verdict


def _check_in_lie_h(pair, sub, x, label, condition, verdict):
    for j in range(pair.base.additive_rank):
        if j not in sub.ga_factors and not x.additive[j].is_zero():
            verdict.record(condition, f"additive component {j} of {label}")
    for gen in sub.annihilator:
        if not x.pair(gen).is_zero():
            verdict.record(condition, f"<{label}, {gen}> != 0")


def check_normal(pair: HarishChandraPair, sub: SubPair) -> Verdict:
    """Normality of a sub-pair. The base is abelian, so normality of H is
    automatic; checks that W is spanned by weight vectors, that the quotient
    module V/W restricts trivially to H, and that [V, W] lies in Lie(H)."""
    validity = _validate_subpair(pair, sub)
    if not validity.ok:
        raise InvalidSubPair(str(validity.failures))
    verdict = Verdict(True)
    lam = Subgroup(pair.base, sub.annihilator)
    blocks = pair.weight_blocks()
    for wexps, idx in blocks.items():
        in_block = []
        for v in sub.vectors:
            row = [v[i] for i in idx]
            if any(not c.is_zero() for c in row) and all(
                v[i].is_zero() for i in range(pair.dim_v) if i not in idx
            ):
                in_block.append(row)
        w_dim = superlin.rank(in_block, pair.field) if in_block else 0
        if w_dim < len(idx):
            wchar = pair.base.character(wexps)
            if not lam.contains(wchar):
                verdict.record("(iii) H acts trivially on V/W", f"weight {wchar}")
    for i in range(pair.dim_v):
        vi = pair.basis_vector(i)
        for a, w in enumerate(sub.vectors):
            x = pair.bracket_of_vectors(vi, w)
            _check_in_lie_h(pair, sub, x, f"[v{i},w{a}]", "(iv) [V,W] in Lie(H)", verdict)
    return verdict


def _quotient_basis(pair, sub):
    """Per-weight complements of W in V: list of (index, weight) giving basis
    vectors of V whose classes span V/W."""
    chosen = []
    blocks = pair.weight_blocks()
    for wexps in sorted(blocks):
        idx = blocks[wexps]
        w_rows = []
        for v in sub.vectors:
            row = [v[i] for i in idx]
            if any(not c.is_zero() for c in row):
                w_rows.append(row)
        free_positions = superlin.echelon_extend(w_rows, len(idx), pair.field)
        chosen.extend((idx[pos], pair.base.character(wexps)) for pos in free_positions)
    return chosen


def quotient_pair(pair: HarishChandraPair, sub: SubPair) -> HarishChandraPair:
    """The pair of G/H acting on V/W with the induced bracket.

    The D-part of G/H has character group Lambda = <annihilator>, presented
    abstractly through its subgroup structure in X.
    """
    verdict = check_normal(pair, sub)
    if not verdict.ok:
        raise NotNormal(str(verdict.failures))
    field = pair.field
    lam = Subgroup(pair.base, sub.annihilator)
    lam_desc, lam_embed, lam_coords = lam.structure()
    keep_ga = [j for j in range(pair.base.additive_rank) if j not in sub.ga_factors]
    new_base = GroupDescriptor(lam_desc.free_rank, lam_desc.torsion, len(keep_ga))

    chosen = _quotient_basis(pair, sub)
    new_weights = []
    for _, wchar in chosen:
        new_weights.append(new_base.character(lam_coords(wchar)))
    quotient = HarishChandraPair(field, new_base, new_weights)

    r2 = new_base.free_rank
    m2 = len(new_base.torsion)
    for a, (ia, _) in enumerate(chosen):
        for b, (ib, _) in enumerate(chosen):
            x = pair.bracket[ia][ib]
            free_vals = [x.pair(lam_embed(t)) for t in range(r2)]
            tors_vals = [x.pair(lam_embed(r2 + t)) for t in range(m2)]
            add_vals = [x.additive[j] for j in keep_ga]
            quotient.bracket[a][b] = LieFunctional(new_base, field, free_vals, tors_vals, add_vals)
    return quotient


# ---------------------------------------------------------------------------
# diagonalizable-base verdicts


def _functional_coordinates(pair, x, additive):
    """K-coordinates of a Lie functional: the free and torsion slots of the
    D-part that can be nonzero, then the additive ones if `additive`."""
    coords = list(x.free)
    p = pair.field.characteristic
    for n, c in zip(pair.base.torsion, x.torsion):
        if p and n % p == 0:
            coords.append(c)
    return coords + list(x.additive) if additive else coords


def _block_radical(pair: HarishChandraPair, wexps, additive=False):
    """Kernel vectors of V(w) against the bracket with V(w^-1), read on the
    D-part coordinates (and the additive ones if `additive`).

    Returns vectors of V, supported on the weight-w block, that annihilate
    every opposite-block vector; none when V(w) = 0.
    """
    blocks = pair.weight_blocks()
    idx = blocks.get(wexps, [])
    inv = pair.base.character(wexps).inverse().exps
    system = {}
    for j in blocks.get(inv, []):
        for i in idx:
            for c, coeff in enumerate(_functional_coordinates(pair, pair.bracket[j][i], additive)):
                superlin.add_entry(system, (j, c), i, coeff)
    return superlin.kernel_on(system, idx, pair.dim_v, pair.field)


def super_diagonalizable(pair: HarishChandraPair):
    """True iff for every weight g with V(g) != 0 the pairing between V(g)
    and V(g^{-1}) is non-degenerate. Returns (bool, certificate)."""
    if pair.base.additive_rank != 0:
        raise BaseNotDiagonalizable("base has additive factors")
    certificate = []
    ok = True
    witness = None
    for wexps in sorted(pair.weight_blocks()):
        kernel = _block_radical(pair, wexps)
        degenerate = bool(kernel)
        certificate.append(
            {
                "weight": list(wexps),
                "dim": len(pair.weight_blocks()[wexps]),
                "nondegenerate": not degenerate,
            }
        )
        if degenerate and ok:
            ok = False
            witness = pair.base.character(wexps)
    return ok, {"blocks": certificate, "witness": None if ok else str(witness)}


def bracket_radical(pair: HarishChandraPair):
    """Weight-homogeneous basis of {w : [V, w] pairs to zero in Lie(D)}."""
    return [vec for wexps in sorted(pair.weight_blocks()) for vec in _block_radical(pair, wexps)]


def unipotent_radical_trivial(pair: HarishChandraPair) -> bool:
    """For diagonalizable base: no nonzero submodule W with [V, W] = 0,
    i.e. the bracket radical vanishes."""
    if pair.base.additive_rank != 0:
        raise BaseNotDiagonalizable("base has additive factors")
    return not bracket_radical(pair)


def abelian_normal_form(pair: HarishChandraPair):
    """(base descriptor, dim V) when the supergroup is a direct product
    G x (odd additive line)^dim V, i.e. trivial weights and zero bracket;
    None otherwise. That is the case where the trivial-weight radical, read
    in every coordinate, is all of V."""
    radical = _block_radical(pair, pair.base.identity().exps, additive=True)
    return (pair.base, pair.dim_v) if len(radical) == pair.dim_v else None


def find_product_decomposition(pair: HarishChandraPair):
    """A direct-product decomposition (G, V) = (G, V') x (1, Kw) into two
    nonempty parts, or None when there is none; raises UnsupportedBase when
    `check_pair` fails.

    A factor (1, W) with trivial base has trivial weights and zero bracket
    (its Lie algebra is 0), and in a product it brackets to zero against the
    other factor. So W lies in the trivial-weight radical
    R = {w in V(1) : [w, V] = 0 in every coordinate, additive ones included}.
    Conversely, for a nonzero w in R and any weight-homogeneous complement V'
    of Kw, [V', w] = [w, w] = 0 gives V = V' (+) Kw as pairs. So a split
    into two nonempty parts exists iff R != 0 and dim V >= 2; in the edge
    case dim V = 1, R = V, the only candidate is W = V with an empty
    full-base part, and the answer is None. Equivariance lets R be computed
    from the brackets of V(1) with V(1) alone (see Montgomery, CBMS 82, 1993,
    ch. 1, for the product of Hopf algebras).

    Returns {"trivial_base_part": [w], "full_base_part": basis of V'}, as
    coefficient vectors; V' is spanned by the basis vectors other than the
    first support index of w.
    """
    verdict = check_pair(pair)
    if not verdict.ok:
        raise UnsupportedBase(f"not a Harish-Chandra pair: {verdict.failures}")
    radical = _block_radical(pair, pair.base.identity().exps, additive=True)
    if not radical or pair.dim_v < 2:
        return None
    w = radical[0]
    rest = superlin.echelon_extend([w], pair.dim_v, pair.field)
    return {"trivial_base_part": [w], "full_base_part": [pair.basis_vector(i) for i in rest]}


# ---------------------------------------------------------------------------
# normal chains


@dataclass(frozen=True)
class FactorLabel:
    kind: str  # "Ga_minus" | "Gm" | "mu"
    order: int | None = None

    def __str__(self):
        if self.kind == "mu":
            return f"mu({self.order})"
        return self.kind

    def to_json(self):
        return {"kind": self.kind, "order": self.order}


@dataclass
class NormalChainResult:
    factors: list
    base0: GroupDescriptor
    steps: list

    def to_json(self):
        return {
            "factors": [f.to_json() for f in self.factors],
            "base0": self.base0.to_json(),
            "steps": self.steps,
        }


def normal_chain(pair: HarishChandraPair) -> NormalChainResult:
    """Chain construction: repeatedly pick the least weight w (by sort_key)
    of an odd basis vector v, quotient the one-dimensional piece Kv off, and
    recurse into the sub-pair (H, W) with H = ker(w) x all additive factors
    and W spanned by the other basis vectors. Emits factor labels from the
    top of the chain down.

    Every step is normal, so the chain is read off the weights alone, one
    quotient X/<w> of the character group per step: H acts on V/W = Kv
    through w, which is trivial on ker(w), and the additive factors act
    trivially on V; [V, W] and [W, W] pair to zero with w by the
    self-annihilation law, so they lie in Lie(H); and a sub-pair of a valid
    pair is again valid, so the argument repeats at every step. The weights
    of W are the projections of the remaining weights to X/<w>. Raises
    UnsupportedBase when `check_pair` fails.
    """
    verdict = check_pair(pair)
    if not verdict.ok:
        raise UnsupportedBase(f"not a Harish-Chandra pair: {verdict.failures}")
    factors = []
    steps = []
    base, weights = pair.base, list(pair.weights)
    while weights:
        w = weights.pop(min(range(len(weights)), key=lambda i: weights[i].sort_key()))
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
        # X/<1> is taken too: its Smith form may re-present X ((2, 3) as (6,))
        quot = QuotientGroup(base, [] if w.is_identity() else [w])
        base = quot.descriptor
        weights = [quot.project(x) for x in weights]
    return NormalChainResult(factors, base, steps)


# ---------------------------------------------------------------------------
# the one-odd-dimension family: classification, center, nilpotency


def classify_iso(d1: GXData, d2: GXData):
    """Isomorphism test inside the supported automorphism family: inversions
    on the free factors of D, arbitrary rescalings of the additive factors.

    Returns ("isomorphic", alpha), ("not_isomorphic", None), or
    ("undecidable", None) when squareness is undecidable in the field.
    """
    if d1.base != d2.base or d1.field != d2.field:
        raise UnsupportedBase("classification requires a common base")
    for d in (d1, d2):
        v = validate_gx(d.base, d.g, d.x)
        if not v.accepted:
            raise UnsupportedBase(f"invalid structure data: {v.reason}")
    field = d1.field
    r = d1.base.free_rank
    undecidable = False
    for mask in range(1 << r):
        signs = [1 - 2 * ((mask >> i) & 1) for i in range(r)]
        mapped_g2 = list(d2.g.exps)
        for i in range(r):
            mapped_g2[i] *= signs[i]
        if d1.base.character(mapped_g2) != d1.g:
            continue
        ratio = None
        consistent = True
        slots = []
        for i in range(r):
            slots.append((d1.x.free[i] * signs[i], d2.x.free[i]))
        for c1, c2 in zip(d1.x.torsion, d2.x.torsion):
            slots.append((c1, c2))
        for lhs, rhs in slots:
            if rhs.is_zero() != lhs.is_zero():
                consistent = False
                break
            if not rhs.is_zero():
                q = lhs / rhs
                if ratio is None:
                    ratio = q
                elif not (ratio == q):
                    consistent = False
                    break
        if consistent:
            for a1, a2 in zip(d1.x.additive, d2.x.additive):
                if a1.is_zero() != a2.is_zero():
                    consistent = False
                    break
        if not consistent:
            continue
        if ratio is None:
            return ("isomorphic", field.one())
        try:
            root = ratio.sqrt()
        except Unsupported:
            undecidable = True
            continue
        if root is not None:
            return ("isomorphic", root)
    return ("undecidable", None) if undecidable else ("not_isomorphic", None)


def center_even(d: GXData):
    """Even part of the center: the whole additive part times the kernel of
    the weight character g inside D. Returns a report with the kernel's
    abstract structure (character group X/<g>)."""
    quot = QuotientGroup(d.base, [d.g])
    kernel_desc = GroupDescriptor(
        quot.descriptor.free_rank, quot.descriptor.torsion, d.base.additive_rank
    )
    whole = d.g.is_identity()
    d_part_trivial = kernel_desc.free_rank == 0 and not kernel_desc.torsion
    return {
        "kernel_of_g": kernel_desc.to_json(),
        "includes_all_additive_factors": True,
        "is_whole_base": whole,
        "d_part_trivial": d_part_trivial,
    }


def is_nilpotent(d: GXData) -> bool:
    """The family member is nilpotent iff the base (always abelian here,
    hence nilpotent) has g = 1."""
    return d.g.is_identity()


def nilpotency_conditions(d: GXData):
    """Evaluates the central-extension conditions: (a) the quotient by the
    multiplicative part of the center is unipotent, (b) a central extension
    of a unipotent supergroup by a multiplicative-type group exists, and
    (d) the even part is nilpotent with its multiplicative center acting
    trivially on the odd space. Over the supported abelian bases all three
    reduce to g = 1; the quotient is computed, not assumed."""
    mult_center_in_kernel = d.g.is_identity()
    cond_d = mult_center_in_kernel  # even part abelian => nilpotent
    # F = multiplicative part of the center = kernel of g inside D
    pair = HarishChandraPair(d.field, d.base, [d.g])
    pair.set_bracket(0, 0, d.x.scale(2))
    sub = SubPair(frozenset(), [d.g], [])
    quotient = quotient_pair(pair, sub)
    quotient_even_unipotent = (
        quotient.base.free_rank == 0 and not quotient.base.torsion
    )
    cond_a = quotient_even_unipotent
    cond_b = cond_a
    return {
        "a_quotient_by_central_mult_part_unipotent": cond_a,
        "b_central_extension_of_unipotent_by_mult_type": cond_b,
        "c_nilpotent": is_nilpotent(d),
        "d_even_nilpotent_and_mult_center_acts_trivially": cond_d,
        "quotient_base": quotient.base.to_json(),
        "implications": "a => b => c => d; all equivalent here (abelian base)",
    }


# ---------------------------------------------------------------------------
# unipotent radical and the splitting counter-example family


def unipotent_radical_subpair(pair: HarishChandraPair) -> SubPair:
    """Largest unipotent normal sub-pair: all additive factors together with
    the weight-graded radical {w : [V, w] has trivial D-part}."""
    return SubPair(
        frozenset(range(pair.base.additive_rank)),
        list(pair.base.generators()),
        bracket_radical(pair),
    )


def quotient_splits_off_additive(pair: HarishChandraPair) -> bool:
    """Whether the projection onto the pair's D-part splits: the candidate
    section is forced (no homomorphisms from D to additive factors, identity
    on the odd space), so it is a pair morphism iff every bracket has zero
    additive components."""
    for i in range(pair.dim_v):
        for j in range(pair.dim_v):
            if any(not c.is_zero() for c in pair.bracket[i][j].additive):
                return False
    return True


@dataclass
class CounterexampleReport:
    splits: bool
    radical_is_additive_factor: bool
    super_trigonalizable: bool
    headline: bool

    def to_json(self):
        return {
            "splits": self.splits,
            "radical_is_Ga": self.radical_is_additive_factor,
            "super_trigonalizable": self.super_trigonalizable,
            "super_trigonalizable_but_nonsplit": self.headline,
        }


def splitting_counterexample(field: Field, alpha, beta) -> CounterexampleReport:
    """The family over G_a x G_m with one odd generator of trivial weight and
    bracket 2*(alpha * additive + beta * multiplicative).

    splits: does the projection onto the multiplicative-part quotient admit a
    section. radical_is_Ga: is the unipotent radical exactly the additive
    factor. super_trigonalizable: is the quotient by the radical
    super-diagonalizable.
    """
    alpha = field.parse(alpha)
    beta = field.parse(beta)
    base = GroupDescriptor(1, (), 1)
    pair = HarishChandraPair(field, base, [base.identity()])
    x = LieFunctional(base, field, free=[beta], additive=[alpha])
    pair.set_bracket(0, 0, x.scale(2))

    splits = quotient_splits_off_additive(pair)
    radical = unipotent_radical_subpair(pair)
    radical_is_ga = not radical.vectors
    quotient = quotient_pair(pair, radical)
    trig, _ = super_diagonalizable(quotient)
    # the nonsplit headline concerns the quotient by the radical, so it is
    # witnessed by the additive-splitting test exactly when the radical is
    # the additive factor
    headline = trig and radical_is_ga and not splits
    return CounterexampleReport(splits, radical_is_ga, trig, headline)
