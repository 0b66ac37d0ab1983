"""Regularity and smoothness tests for finitely presented super-commutative
superalgebras, plus the square-zero (Hochschild) extension family over
R = K[x,y]/(x^2 - y^p - t) with K = F_p(t).

A presentation consists of an even polynomial part (a free polynomial ring,
or one reduced by rewriting rules whose leading monomials are pure powers of
distinct variables with tails free of every relation variable - a confluent
class), odd generators z_1..z_s, an optional square-zero even ideal basis
nu_1.., an optional correction table writing products z_i z_j as
combinations of the nu's, and an optional twist adding nu-terms to a
relation tail (the square-zero extension shape). The graded comparison
between the exterior algebra on I/I^2 and gr(A) is computed degree by degree
by exact normal forms, and regularity / smoothness verdicts follow the
decidable ring classes; everything outside them reports UndecidableBase
rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import _expr
from .fields import Field, FieldElement, FunctionField, Sparse, Unsupported, lincomb, poly_divmod


class NonTerminatingRewrite(Exception):
    pass


class UndecidableBase(Exception):
    pass


class InvalidAlpha(Exception):
    pass


class InvalidPresentation(Exception):
    pass


# ---------------------------------------------------------------------------
# multivariate polynomials over a FieldElement coefficient field


class PolyRing:
    def __init__(self, field: Field, names):
        self.field = field
        self.names = tuple(names)

    @property
    def nvars(self):
        return len(self.names)

    def zero(self):
        return Polynomial(self, {})

    def const(self, c):
        return Polynomial(self, {(0,) * self.nvars: self.field.parse(c)})

    def one(self):
        return self.const(1)

    def gen(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one()})

    def parse(self, src):
        if isinstance(src, Polynomial):
            return src
        atoms = {name: self.gen(i) for i, name in enumerate(self.names)}
        if self.field.kind == "Fpt" and self.field.var not in atoms:
            atoms[self.field.var] = self.const(self.field.generator())
        return _expr.evaluate(str(src), self.const, atoms)


class Polynomial(Sparse):
    """Sparse polynomial {exponent tuple: coefficient} (see `fields.Sparse`)."""

    __slots__ = ("ring",)

    def __init__(self, ring, terms):
        self.ring = ring
        super().__init__(ring.field, terms)

    def _like(self, terms):
        return Polynomial(self.ring, terms)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        return Polynomial(self.ring, ((tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                                      for e1, c1 in self.terms.items()
                                      for e2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Polynomial):
            if any(any(e) for e in other.terms):
                raise Unsupported(f"division by the non-constant polynomial {other}")
            other = other.terms.get((0,) * self.ring.nvars, 0)
        return self * self.ring.field.parse(other).inverse()

    def __pow__(self, n):
        if n < 0:
            return self.ring.one() / self ** -n
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def derivative(self, i):
        return Polynomial(self.ring, ((e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i])
                                      for e, c in self.terms.items() if e[i]))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            factors = []
            for i, d in enumerate(e):
                if d == 1:
                    factors.append(self.ring.names[i])
                elif d > 1:
                    factors.append(f"{self.ring.names[i]}^{d}")
            mono = "*".join(factors)
            if not mono:
                bits.append(f"({c})" if _needs_parens(c) else str(c))
            elif c.is_one():
                bits.append(mono)
            else:
                cs = f"({c})" if _needs_parens(c) else str(c)
                bits.append(f"{cs}*{mono}")
        return " + ".join(bits)


def _needs_parens(c):
    s = str(c)
    return "+" in s[1:] or "-" in s[1:] or "/" in s


def polynomial_matrix_rank(rows):
    """Rank over the fraction field, by cross-multiplication elimination."""
    if not rows or not rows[0]:
        return 0
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0])
    rank = 0
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, m):
            if rows[i][c].is_zero():
                continue
            piv = rows[r][c]
            fac = rows[i][c]
            rows[i] = [piv * rows[i][j] - fac * rows[r][j] for j in range(n)]
        r += 1
        rank += 1
        if r == m:
            break
    return rank


# ---------------------------------------------------------------------------
# presentations


SYM_ONE = ("one",)


def _sym_nu(l):
    return ("nu", l)


def _sym_z(s):
    return ("z", tuple(sorted(s)))


@dataclass
class Relation:
    var: int
    degree: int
    tail: "SuperElement"  # no relation variables, may contain nu terms (twist)


class SuperAlgebraPresentation:
    """A = (P / relations){1, nu_l, z_S} with the product rules described in
    the module docstring."""

    def __init__(self, field: Field, var_names, relations, odd_names,
                 nu_names=(), corrections=None, ring_class=None):
        self.field = field
        self.ring = PolyRing(field, var_names)
        self.odd_names = tuple(odd_names)
        self.nu_names = tuple(nu_names)
        self.corrections = {}
        self.corrections_active = corrections is not None
        self.relations = []
        self._ring_class = ring_class
        raw = []
        for rel in relations:
            poly = self.ring.parse(rel) if not isinstance(rel, tuple) else None
            raw.append(rel if isinstance(rel, tuple) else poly)
        lead_vars = set()
        for rel in raw:
            if isinstance(rel, Polynomial):
                rel = self._split_relation(rel)
            var, degree, tail = rel
            if var in lead_vars:
                raise NonTerminatingRewrite("two relations lead on the same variable")
            lead_vars.add(var)
            self.relations.append(Relation(var, degree, tail))
        for rel in self.relations:
            for (exps, sym), _ in rel.tail.terms.items():
                if any(exps[r.var] >= 1 for r in self.relations):
                    raise NonTerminatingRewrite(
                        "relation tails must avoid every relation variable"
                    )
                if sym != SYM_ONE and sym[0] != "nu":
                    raise NonTerminatingRewrite("relation tails may only twist by nu terms")
        if corrections:
            s = len(self.odd_names)
            for (i, j), value in corrections.items():
                if not (0 <= i < j < s):
                    raise InvalidPresentation("correction index out of range")
                if isinstance(value, str):
                    elem = self.parse_element(value)
                elif isinstance(value, SuperElement):
                    elem = value
                else:
                    elem = self.element(value)
                for (exps, sym), _ in elem.terms.items():
                    if sym == SYM_ONE or sym[0] != "nu":
                        raise InvalidPresentation("corrections must land in the nu span")
                self.corrections[(i, j)] = elem
        if self.nu_names and not self.corrections_active:
            raise InvalidPresentation("nu symbols need a correction table")
        if self.corrections_active:
            self._validate_nu_cover()

    # -- construction helpers ---------------------------------------------------
    def _split_relation(self, poly: Polynomial) -> tuple:
        """Turn `poly = 0` into a rewrite lead -> tail with a pure-power lead."""
        best = None
        for e, c in poly.terms.items():
            nz = [i for i, d in enumerate(e) if d]
            if len(nz) == 1 and (best is None or best[1] < e[nz[0]]):
                best = (nz[0], e[nz[0]], c)
        if best is None:
            raise NonTerminatingRewrite("no pure-power leading term available")
        var, degree, lead_coeff = best
        lead = [0] * self.ring.nvars
        lead[var] = degree
        rest = Polynomial(self.ring, {e: c for e, c in poly.terms.items()
                                      if e != tuple(lead)})
        tail_poly = rest * (-(lead_coeff.inverse()))
        return (var, degree, self.element({(e, SYM_ONE): c for e, c in tail_poly.terms.items()}))

    def _validate_nu_cover(self):
        """Every nu must be generated by the odd products, so that the largest
        purely even quotient is the even polynomial part alone."""
        vectors = []
        for value in self.corrections.values():
            vec = {}
            for (exps, sym), c in value.terms.items():
                vec.setdefault(sym[1], {})[exps] = c
            vectors.append(vec)
        covered = set()
        for vec in vectors:
            consts = {l: coeffs.get((0,) * self.ring.nvars) for l, coeffs in vec.items()
                      if set(coeffs) == {(0,) * self.ring.nvars}}
            for l, c in consts.items():
                if c is not None and not c.is_zero():
                    covered.add(l)
        if len(covered) != len(self.nu_names):
            raise InvalidPresentation(
                "every nu must appear with a unit coefficient in some correction"
            )

    # -- elements ---------------------------------------------------------------
    def element(self, terms) -> "SuperElement":
        return SuperElement(self, {k: self.field.parse(c) for k, c in terms.items()})

    def one_elem(self):
        return self.element({((0,) * self.ring.nvars, SYM_ONE): 1})

    def var_elem(self, i):
        e = [0] * self.ring.nvars
        e[i] = 1
        return self.element({(tuple(e), SYM_ONE): 1})

    def odd_elem(self, i):
        return self.element({((0,) * self.ring.nvars, _sym_z((i,))): 1})

    def nu_elem(self, l):
        return self.element({((0,) * self.ring.nvars, _sym_nu(l)): 1})

    def parse_element(self, src) -> "SuperElement":
        atoms = {name: self.var_elem(i) for i, name in enumerate(self.ring.names)}
        for i, name in enumerate(self.odd_names):
            atoms[name] = self.odd_elem(i)
        for l, name in enumerate(self.nu_names):
            atoms[name] = self.nu_elem(l)
        if self.field.kind == "Fpt" and self.field.var not in atoms:
            one = self.one_elem()
            atoms[self.field.var] = one.scale(self.field.generator())
        def const(n):
            return self.one_elem().scale(self.field.from_int(n))
        return _expr.evaluate(str(src), const, atoms)

    def parity(self, sym):
        return len(sym[1]) % 2 if sym[0] == "z" else 0


class SuperElement(Sparse):
    """Sparse {(exponents, symbol): coefficient} (see `fields.Sparse`),
    brought to normal form by the rewriting rules unless `reduce` is false."""

    __slots__ = ("pres",)

    def __init__(self, pres, terms, reduce=True):
        self.pres = pres
        super().__init__(pres.field, terms)
        if reduce:
            self.terms = _reduce_terms(pres, self.terms)

    def _like(self, terms):
        return SuperElement(self.pres, terms, reduce=False)

    def __mul__(self, other):
        return SuperElement(self.pres, self._products(other))

    def _products(self, other):
        pres = self.pres
        for (e1, s1), c1 in self.terms.items():
            for (e2, s2), c2 in other.terms.items():
                prods = _sym_mul(pres, s1, s2)
                if prods is None:
                    continue
                sign, syms = prods
                e = tuple(a + b for a, b in zip(e1, e2))
                base = c1 * c2 if sign > 0 else -(c1 * c2)
                for (e3, s3), c3 in syms.items():
                    yield (tuple(a + b for a, b in zip(e, e3)), s3), base * c3

    def __truediv__(self, other):
        """Division by a nonzero field constant; anything else is Unsupported."""
        c = other.terms.get(((0,) * self.pres.ring.nvars, SYM_ONE))
        if c is None or len(other.terms) > 1:
            raise Unsupported(f"division by the superalgebra element {other}")
        return self.scale(c.inverse())

    def __pow__(self, n):
        if n < 0:
            return self.pres.one_elem() / self ** -n
        out = self.pres.one_elem()
        for _ in range(n):
            out = out * self
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        pres = self.pres
        bits = []
        for (e, sym), c in sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            poly = Polynomial(pres.ring, {e: c})
            body = str(poly)
            if sym == SYM_ONE:
                bits.append(body)
            else:
                name = (pres.nu_names[sym[1]] if sym[0] == "nu"
                        else "*".join(pres.odd_names[i] for i in sym[1]))
                bits.append(f"({body})*{name}" if body != "1" else name)
        return " + ".join(bits)


def _sym_mul(pres, s1, s2):
    """(sign, {(exps, sym): coeff}) for a product of basis symbols; None if 0."""
    if s1 == SYM_ONE:
        return 1, {((0,) * pres.ring.nvars, s2): pres.field.one()}
    if s2 == SYM_ONE:
        return 1, {((0,) * pres.ring.nvars, s1): pres.field.one()}
    if s1[0] == "nu" or s2[0] == "nu":
        return None
    a, b = s1[1], s2[1]
    if set(a) & set(b):
        return None
    inversions = sum(1 for x in a for y in b if y < x)
    sign = -1 if inversions % 2 else 1
    merged = tuple(sorted(a + b))
    if pres.corrections_active and len(merged) >= 2:
        if len(merged) > 2:
            return None
        # sort a+b into merged; correction value for the ordered pair
        corr = pres.corrections.get((merged[0], merged[1]))
        if corr is None or corr.is_zero():
            return None
        return sign, dict(corr.terms)
    return sign, {((0,) * pres.ring.nvars, ("z", merged)): pres.field.one()}


def _reduce_terms(pres, terms):
    """Apply the even rewriting rules until every term is in normal form."""
    rels = {r.var: r for r in pres.relations}
    work = dict(terms)
    out = []
    guard = 0
    while work:
        guard += 1
        if guard > 100000:
            raise NonTerminatingRewrite("rewriting did not terminate")
        (exps, sym), coeff = work.popitem()
        if coeff.is_zero():
            continue
        hit = None
        for var, rel in rels.items():
            if exps[var] >= rel.degree:
                hit = rel
                break
        if hit is None:
            out.append(((exps, sym), coeff))
            continue
        rest = list(exps)
        rest[var] -= hit.degree
        for (e2, s2), c2 in hit.tail.terms.items():
            prods = _sym_mul(pres, sym, s2)
            if prods is None:
                continue
            sign, syms = prods
            base = coeff * c2
            if sign < 0:
                base = -base
            for (e3, s3), c3 in syms.items():
                key = (tuple(a + b + c for a, b, c in zip(rest, e2, e3)), s3)
                val = base * c3
                cur = work.get(key)
                work[key] = val if cur is None else cur + val
    return lincomb(pres.field, out)


# ---------------------------------------------------------------------------
# graded comparison and the verdicts


@dataclass
class DegreeData:
    degree: int
    wedge_rank: int
    gr_rank: int
    bijective: bool
    note: str = ""

    def to_json(self):
        return {
            "degree": self.degree,
            "wedge_rank": self.wedge_rank,
            "gr_rank": self.gr_rank,
            "bijective": self.bijective,
            "note": self.note,
        }


@dataclass
class GradedComparison:
    degrees: list
    odd_module_rank: int
    odd_module_free: bool

    @property
    def kappa_bijective(self):
        return all(d.bijective for d in self.degrees)

    def to_json(self):
        return {
            "degrees": [d.to_json() for d in self.degrees],
            "odd_module_rank": self.odd_module_rank,
            "odd_module_free": self.odd_module_free,
            "kappa_bijective": self.kappa_bijective,
        }


def compute_gr(pres: SuperAlgebraPresentation) -> GradedComparison:
    """Exact ranks of gr(A) degree by degree against the exterior powers of
    I/I^2, including the comparison map in degree 2 for the corrected shape."""
    s = len(pres.odd_names)
    degrees = [DegreeData(0, 1, 1, True, "largest purely even quotient")]
    if s:
        degrees.append(DegreeData(1, s, s, True, "free on the odd generators"))
    if not pres.corrections_active:
        for n in range(2, s + 1):
            r = comb(s, n)
            degrees.append(DegreeData(n, r, r, True, "exterior monomials are a basis"))
    else:
        nnu = len(pres.nu_names)
        if s >= 2:
            pairs = [(i, j) for i in range(s) for j in range(i + 1, s)]
            rows = []
            for (i, j) in pairs:
                corr = pres.corrections.get((i, j))
                row = [pres.ring.zero() for _ in range(nnu)]
                if corr is not None:
                    for (exps, sym), c in corr.terms.items():
                        row[sym[1]] = row[sym[1]] + Polynomial(pres.ring, {exps: c})
                rows.append(row)
            rank = polynomial_matrix_rank(rows)
            bij = rank == len(pairs)
            note = "pair products against the square-zero basis"
            if not bij:
                note += f" (rank {rank} < {len(pairs)})"
            degrees.append(DegreeData(2, len(pairs), nnu, bij, note))
        for n in range(3, s + 1):
            r = comb(s, n)
            degrees.append(
                DegreeData(n, r, 0, r == 0, "triple products of odd generators vanish")
            )
    return GradedComparison(degrees, s, True)


def _ring_class(pres: SuperAlgebraPresentation):
    if pres._ring_class is not None:
        return pres._ring_class
    if not pres.relations:
        return "free"
    if all(rel.tail.is_zero() or _tail_is_constant(pres, rel) for rel in pres.relations):
        return "univariate"
    return "unknown"


def _tail_is_constant(pres, rel):
    zero_exps = (0,) * pres.ring.nvars
    return all(exps == zero_exps and sym == SYM_ONE for (exps, sym) in rel.tail.terms)


def _univariate_separability(pres):
    """For each relation u^d = c: is gcd(u^d - c, d*u^{d-1}) constant? The
    derivative vanishes iff d = 0 in K; otherwise the only candidate common
    root is u = 0, a root of u^d - c iff c = 0."""
    field = pres.field
    results = []
    for rel in pres.relations:
        c = field.zero()
        for (exps, sym), v in rel.tail.terms.items():
            if sym == SYM_ONE:
                c = v
        if field.from_int(rel.degree).is_zero():
            results.append((rel, False, "derivative vanishes"))
        elif rel.degree >= 2 and c.is_zero():
            results.append((rel, False, "repeated roots"))
        else:
            results.append((rel, True, "separable"))
    return results


@dataclass
class RegularityReport:
    regular: bool | None
    reasons: list
    graded: GradedComparison

    def to_json(self):
        return {
            "regular": self.regular,
            "reasons": self.reasons,
            "graded": self.graded.to_json(),
        }


def is_regular(pres: SuperAlgebraPresentation) -> RegularityReport:
    """Schmitt-style regularity: even quotient regular, odd conormal module
    projective, graded comparison bijective."""
    graded = compute_gr(pres)
    reasons = []
    klass = _ring_class(pres)
    if klass == "free":
        base_regular = True
        reasons.append("even quotient: free polynomial ring, regular")
    elif klass == "univariate":
        base_regular = True
        for rel, sep, why in _univariate_separability(pres):
            name = pres.ring.names[rel.var]
            if not sep:
                if pres.field.kind in ("Q", "Fp"):
                    base_regular = False
                    reasons.append(f"even quotient: {name}-relation not reduced ({why})")
                else:
                    raise UndecidableBase(
                        f"regularity of the {name}-relation is undecidable over this field"
                    )
            else:
                reasons.append(f"even quotient: {name}-relation separable")
    elif klass == "declared_regular":
        base_regular = True
        reasons.append("even quotient: declared regular (axiom for this specific ring)")
    else:
        raise UndecidableBase("even quotient outside the decidable ring classes")
    reasons.append(f"odd conormal module: free of rank {graded.odd_module_rank}")
    if not graded.kappa_bijective:
        bad = [d.degree for d in graded.degrees if not d.bijective]
        reasons.append(f"graded comparison fails in degrees {bad}")
    regular = base_regular and graded.kappa_bijective
    if not base_regular:
        reasons.append("condition (1) fails")
    return RegularityReport(regular, reasons, graded)


@dataclass
class SmoothnessReport:
    smooth: bool
    base_smooth: bool
    conormal_projective: bool
    exterior_isomorphism: bool
    certificate: dict

    def to_json(self):
        return {
            "smooth": self.smooth,
            "even_quotient_smooth": self.base_smooth,
            "odd_conormal_projective": self.conormal_projective,
            "isomorphic_to_exterior_algebra": self.exterior_isomorphism,
            "certificate": self.certificate,
        }


def is_smooth(pres: SuperAlgebraPresentation) -> SmoothnessReport:
    """Smoothness via: (i) even quotient smooth, (ii) conormal module
    projective, (iii) the algebra isomorphic to the exterior algebra on it."""
    klass = _ring_class(pres)
    certificate = {}
    if klass == "free":
        base_smooth = True
        certificate["even_quotient"] = "free polynomial ring"
    elif klass == "univariate":
        seps = _univariate_separability(pres)
        base_smooth = all(sep for _, sep, _ in seps)
        certificate["even_quotient"] = [
            f"{pres.ring.names[rel.var]}: {why}" for rel, _, why in seps
        ]
    elif klass == "declared_regular":
        base_smooth = False
        certificate["even_quotient"] = (
            "regular but not smooth: inseparable after base extension"
        )
    else:
        raise UndecidableBase("even quotient outside the decidable ring classes")

    graded = compute_gr(pres)
    if not pres.corrections_active:
        exterior_iso = True
        certificate["section"] = "identity on the presentation"
    else:
        twist = _collect_twist(pres)
        if twist is None:
            exterior_iso = graded.kappa_bijective
            certificate["section"] = (
                "untwisted square-zero part splits" if exterior_iso
                else "graded comparison fails"
            )
        else:
            split = _a9_split(pres, twist)
            if split is None:
                raise UndecidableBase("twisted shape outside the decidable family")
            exterior_iso = split["split"] and graded.kappa_bijective
            certificate["section"] = split
    smooth = base_smooth and exterior_iso
    return SmoothnessReport(smooth, base_smooth, True, exterior_iso, certificate)


def _collect_twist(pres):
    """The nu-part of relation tails; None when every tail is nu-free."""
    twisted = []
    for rel in pres.relations:
        nu_part = {k: c for k, c in rel.tail.terms.items() if k[1] != SYM_ONE}
        if nu_part:
            twisted.append((rel, nu_part))
    return twisted or None


def _a9_split(pres, twisted):
    """Split test for the specific square-zero extension shape; None when the
    presentation does not match it."""
    if len(twisted) != 1 or len(pres.nu_names) != 1 or len(pres.odd_names) != 2:
        return None
    if pres.field.kind != "Fpt" or pres.field.p == 0:
        return None
    rel, nu_part = twisted[0]
    if rel.degree != 2:
        return None
    alpha_terms = {}
    for (exps, sym), c in nu_part.items():
        alpha_terms[(exps, SYM_ONE)] = c
    alpha = SuperElement(pres, alpha_terms)
    report = hochschild_split_report(pres, rel.var, alpha)
    return report


# ---------------------------------------------------------------------------
# the square-zero extension family over R = K[x,y]/(x^2 - y^p - t)


def hochschild_extension_presentation(p: int, alpha) -> SuperAlgebraPresentation:
    """E_alpha realized as a superalgebra: even part R + R*nu with
    x^2 = y^p + t + alpha*nu, odd part R w1 + R w2 with w1 w2 = nu.

    The defining relation of R fixes x^2 = y^p + t; the twist adds alpha*nu
    on the extension (the alternative sign choice x^2 = y^p - t is not used;
    reports carry this convention explicitly)."""
    field = FunctionField(p, "t")
    pres = SuperAlgebraPresentation.__new__(SuperAlgebraPresentation)
    pres.field = field
    pres.ring = PolyRing(field, ("x", "y"))
    pres.odd_names = ("w1", "w2")
    pres.nu_names = ("nu",)
    pres.corrections_active = True
    pres.relations = []
    pres._ring_class = "declared_regular"
    pres.corrections = {}
    zero_exps = (0, 0)
    pres.corrections[(0, 1)] = pres.element({(zero_exps, _sym_nu(0)): 1})
    t = field.generator()
    # install the untwisted rule x^2 -> y^p + t first, so that alpha itself
    # is brought to its normal form a0(y) + a1(y) x before twisting
    tail_terms = [(((0, p), SYM_ONE), field.one()), ((zero_exps, SYM_ONE), t)]
    rel = Relation(0, 2, SuperElement(pres, tail_terms, reduce=False))
    pres.relations.append(rel)
    alpha_elem = pres.parse_element(alpha) if not isinstance(alpha, SuperElement) else alpha
    for (exps, sym), c in alpha_elem.terms.items():
        if sym != SYM_ONE:
            raise InvalidAlpha("alpha must be an even-base element")
        tail_terms.append(((exps, _sym_nu(0)), c))
    rel.tail = SuperElement(pres, tail_terms, reduce=False)
    return pres


def hochschild_split_report(pres, xvar, alpha: SuperElement):
    """Divisibility test: alpha = a0(y) + a1(y) x splits iff (y^p + t) | a0."""
    field = pres.field
    p = field.p
    yvar = 1 - xvar
    parts = ([], [])  # the coefficients of a0 and a1, by y-degree
    for (exps, sym), c in alpha.terms.items():
        if sym != SYM_ONE:
            raise InvalidAlpha("alpha must be an even-base element")
        if exps[xvar] > 1:
            raise InvalidAlpha("alpha is not in normal form")
        parts[exps[xvar]].append((exps[yvar], c))
    a0, a1 = (lincomb(field, part) for part in parts)
    deg0 = max(a0, default=0)
    a0_coeffs = [a0.get(i, field.zero()) for i in range(deg0 + 1)]
    modulus = [field.zero()] * (p + 1)
    modulus[0] = field.generator()
    modulus[p] = field.one()
    q, r = poly_divmod(a0_coeffs, modulus, 0)
    split = not r
    report = {
        "split": split,
        "sign_convention": "x^2 = y^p + t + alpha*nu (x^2 - y^p - t = 0 on the base ring)",
    }
    if split:
        # beta = a1(y) + q(y) x satisfies x*beta = alpha
        beta_terms = {}
        for i in sorted(a1):
            e = [0, 0]
            e[yvar] = i
            beta_terms[(tuple(e), SYM_ONE)] = a1[i]
        for i, c in enumerate(q):
            if c:  # poly_divmod leaves an int 0 at each degree it skips
                e = [0, 0]
                e[yvar] = i
                e[xvar] = 1
                beta_terms[(tuple(e), SYM_ONE)] = c
        report["witness_factor"] = beta_terms
    else:
        report["nonsplit_class_representative"] = str(
            Polynomial(PolyRing(field, ("y",)), {(i,): c for i, c in enumerate(r)})
        )
    return report


@dataclass
class HochschildResult:
    split: bool
    witness: str
    section_verified: bool | None
    sign_note: str

    def to_json(self):
        return {
            "split": self.split,
            "witness": self.witness,
            "section_verified": self.section_verified,
            "sign_convention": self.sign_note,
        }


def hochschild_ealpha(p: int, alpha) -> HochschildResult:
    """Splitting of the square-zero extension E_alpha of R = K[x,y]/(x^2-y^p-t)
    by the free module on one generator, K = F_p(t), p odd.

    split iff alpha's x-free part is divisible by y^p + t; on split the
    witness beta with x*beta = alpha is returned and the induced algebra
    section is verified by substitution inside E_alpha."""
    if p == 2 or p < 2:
        raise InvalidAlpha("p must be an odd prime")
    pres = hochschild_extension_presentation(p, 0)
    try:
        alpha_elem = pres.parse_element(alpha)
    except _expr.ExprError as exc:
        raise InvalidAlpha(str(exc)) from exc
    for (exps, sym), _ in alpha_elem.terms.items():
        if sym != SYM_ONE:
            raise InvalidAlpha("alpha must be an element of the even base ring")
    report = hochschild_split_report(pres, 0, alpha_elem)
    section_verified = None
    if report["split"]:
        # x * beta == alpha inside the untwisted base ring
        beta_r = SuperElement(pres, report["witness_factor"])
        factor_ok = (pres.var_elem(0) * beta_r - alpha_elem).is_zero()
        # sigma(x) = x - (beta/2) nu, sigma(y) = y is an algebra section of
        # the twisted extension; verified by substitution
        twisted = hochschild_extension_presentation(p, alpha)
        beta = SuperElement(twisted, report["witness_factor"])
        half = twisted.field.from_int(2).inverse()
        sx = twisted.var_elem(0) - (beta * twisted.nu_elem(0)).scale(half)
        sy = twisted.var_elem(1)
        t_elem = twisted.one_elem().scale(twisted.field.generator())
        residue = sx * sx - sy ** p - t_elem
        section_verified = factor_ok and residue.is_zero()
        witness = str(beta)
    else:
        witness = report["nonsplit_class_representative"]
    return HochschildResult(report["split"], witness, section_verified, report["sign_convention"])


# ---------------------------------------------------------------------------
# Hopf-level reduction


def hopf_smooth_reduction(alg) -> dict:
    """Smoothness of a monomial Hopf superalgebra equals smoothness of its
    largest purely even quotient: automatic in characteristic zero, and in
    characteristic p it holds iff no torsion order is divisible by p. Also
    records the odd cotangent space and the exterior-factor decomposition."""
    p = alg.field.characteristic
    torsion = alg.group.torsion
    if p == 0:
        smooth = True
        reason = "characteristic zero: finitely generated even Hopf quotient is smooth"
    else:
        bad = [n for n in torsion if n % p == 0]
        smooth = not bad
        reason = (
            f"torsion orders {bad} divisible by the characteristic"
            if bad
            else "group algebra separable: no torsion order divisible by the characteristic"
        )
    odd_dim = 1 if alg.with_z else 0
    return {
        "smooth": smooth,
        "reason": reason,
        "odd_cotangent_dim": odd_dim,
        "decomposition": "even quotient tensor exterior algebra on the odd cotangent space",
    }

