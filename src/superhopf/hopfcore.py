r"""Monomial Hopf superalgebras on a basis h * t^a * z^eps.

The algebra is K[X] (x) K[t_1..t_k] (x) /\(z) with at most one odd generator
z, super-commutative multiplication, and structure maps fixed on generators:

    Delta(h)   = h(x)h + <x,h> hz (x) (gh)z        (h a character)
    Delta(t_j) = t_j(x)1 + 1(x)t_j + <x,t_j> z(x)gz
    Delta(z)   = 1(x)z + z(x)g
    eps(h) = 1, eps(t_j) = eps(z) = 0
    S(h) = h^-1, S(t_j) = -t_j, S(z) = -g^-1 z

and extended multiplicatively. Tensor products carry the Koszul sign rule.
The axiom verifier re-checks coassociativity, counit, antipode, the algebra-
map property of Delta and eps, and super-commutativity on random monomials;
consistency of the multiplicative extension is asserted by it, not assumed.
Each law is evaluated once per distinct sampled monomial or pair and its
verdict recorded once per sample, so `checks_run` still counts samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .chargroup import Character, GroupDescriptor, LieFunctional
from .fields import Field, FieldElement, Sparse
from . import superlin


class InvalidGX(Exception):
    pass


class WindowRequired(Exception):
    pass


# a monomial is (char_exponents, t_exponents, eps)
def monomial_parity(mono):
    return mono[2] & 1


def format_monomial(mono, k):
    chars, tdeg, eps = mono
    parts = []
    if any(chars):
        parts.append("X[" + ",".join(str(e) for e in chars) + "]")
    for j, a in enumerate(tdeg):
        if a:
            name = "t" if k == 1 else f"t{j + 1}"
            parts.append(name if a == 1 else f"{name}^{a}")
    if eps:
        parts.append("z")
    return "*".join(parts) if parts else "1"


class HopfElement(Sparse):
    """Sparse K-linear combination of monomials of a fixed algebra (see
    `fields.Sparse`)."""

    __slots__ = ("algebra",)

    def __init__(self, algebra, terms):
        self.algebra = algebra
        super().__init__(algebra.field, terms)

    def _like(self, terms):
        return HopfElement(self.algebra, terms)

    def __add__(self, other):
        assert self.algebra is other.algebra
        return super().__add__(other)

    def __mul__(self, other):
        return self.algebra.mul(self, other)

    def parity(self):
        """Parity when homogeneous, else None."""
        ps = {monomial_parity(m) for m in self.terms}
        if not ps:
            return superlin.EVEN
        return ps.pop() if len(ps) == 1 else None

    def __str__(self):
        if not self.terms:
            return "0"
        k = self.algebra.group.additive_rank
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
            ms = format_monomial(m, k)
            if ms == "1":
                bits.append(str(c))
            elif c.is_one():
                bits.append(ms)
            else:
                bits.append(f"({c})*{ms}")
        return " + ".join(bits)

    __repr__ = __str__


class TensorElement(Sparse):
    """Element of the n-fold tensor power, keys are monomial tuples (see
    `fields.Sparse`)."""

    __slots__ = ("algebra", "arity")

    def __init__(self, algebra, arity, terms):
        self.algebra = algebra
        self.arity = arity
        super().__init__(algebra.field, terms)

    def _like(self, terms):
        return TensorElement(self.algebra, self.arity, terms)

    def __mul__(self, other):
        """Componentwise product with the Koszul sign rule."""
        return TensorElement(self.algebra, self.arity, self._products(other))

    def _products(self, other):
        alg = self.algebra
        n = self.arity
        for ka, ca in self.terms.items():
            pa = [monomial_parity(m) for m in ka]
            for kb, cb in other.terms.items():
                sign = 1
                key = []
                for i in range(n):
                    if monomial_parity(kb[i]):
                        for j in range(i + 1, n):
                            if pa[j]:
                                sign = -sign
                    prod = alg.mono_mul(ka[i], kb[i])
                    if prod is None:
                        break
                    key.append(prod)
                else:
                    c = ca * cb
                    yield tuple(key), (c if sign > 0 else -c)

    def __str__(self):
        k = self.algebra.group.additive_rank
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            c = self.terms[key]
            ms = "(x)".join(format_monomial(m, k) for m in key)
            bits.append(ms if c.is_one() else f"({c})*{ms}")
        return " + ".join(bits)


@dataclass
class AxiomReport:
    checks_run: int = 0
    violations: list = dataclass_field(default_factory=list)

    @property
    def passed(self):
        return not self.violations

    def to_json(self):
        return {
            "passed": self.passed,
            "checks_run": self.checks_run,
            "violations": [{"law": law, "witness": w} for law, w in self.violations],
        }


class MonomialHopfSuperalgebra:
    r"""K[X] (x) K[t_1..t_k] (x) /\(z) with the structure maps above.

    with_z=False gives the purely even algebra of the base group. Structure
    data (g, x) is required exactly when z is present. `delta_z_override`
    deliberately installs a broken coproduct on z so the axiom verifier can be
    exercised against tampered structures.
    """

    def __init__(self, field: Field, group: GroupDescriptor, g: Character = None,
                 x: LieFunctional = None, with_z: bool = True, delta_z_override=None):
        self.field = field
        self.group = group
        self.with_z = with_z
        if with_z:
            if g is None or x is None:
                raise InvalidGX("z requires structure data (g, x)")
            if g.group != group or x.group != group or x.field != field:
                raise InvalidGX("structure data does not match the base group")
        self.g = g if g is not None else group.identity()
        self.x = x if x is not None else LieFunctional.zero(group, field)
        self._pair_cache = {}
        self._delta_cache = {}
        self._mul_cache = {}
        self._delta_z_override = delta_z_override

    # -- basic structure -----------------------------------------------------
    @property
    def k(self):
        return self.group.additive_rank

    def pair_char(self, chars) -> FieldElement:
        """<x, h> for the character with exponent tuple `chars` (cached)."""
        val = self._pair_cache.get(chars)
        if val is None:
            val = self.x.pair(self.group.character(chars))
            self._pair_cache[chars] = val
        return val

    def monomial(self, chars=None, tdeg=None, eps=0):
        chars = self.group.reduce(chars if chars is not None else (0,) * self.group.ncoords)
        tdeg = tuple(tdeg) if tdeg is not None else (0,) * self.k
        if len(tdeg) != self.k:
            raise InvalidGX("wrong t-degree length")
        if eps and not self.with_z:
            raise InvalidGX("algebra has no odd generator")
        return (chars, tdeg, int(eps))

    def element(self, terms):
        return HopfElement(self, {m: self.field.parse(c) for m, c in terms.items()})

    def one(self):
        return self.element({self.monomial(): 1})

    def char_element(self, h: Character):
        return self.element({self.monomial(h.exps): 1})

    def z_element(self):
        return self.element({self.monomial(eps=1): 1})

    def t_element(self, j):
        td = [0] * self.k
        td[j] = 1
        return self.element({self.monomial(tdeg=td): 1})

    def generators(self):
        gens = [("X%d" % (i + 1), self.char_element(c)) for i, c in enumerate(self.group.generators())]
        gens += [(f"t{j + 1}", self.t_element(j)) for j in range(self.k)]
        if self.with_z:
            gens.append(("z", self.z_element()))
        return gens

    def mono_mul(self, a, b):
        """Product of two monomials, or None when it vanishes (z^2 = 0)."""
        if a[2] and b[2]:
            return None
        prod = self._mul_cache.get((a, b))
        if prod is None:
            chars = self.group.reduce(tuple(p + q for p, q in zip(a[0], b[0])))
            tdeg = tuple(p + q for p, q in zip(a[1], b[1]))
            prod = self._mul_cache[a, b] = (chars, tdeg, a[2] | b[2])
        return prod

    def mul(self, u: HopfElement, v: HopfElement) -> HopfElement:
        mono_mul = self.mono_mul
        return HopfElement(self, ((m, ca * cb) for ma, ca in u.terms.items()
                                  for mb, cb in v.terms.items()
                                  if (m := mono_mul(ma, mb)) is not None))

    # -- structure maps --------------------------------------------------------
    def tensor(self, arity, terms):
        return TensorElement(self, arity, {m: self.field.parse(c) for m, c in terms.items()})

    def _delta_char(self, chars):
        one = self.field.one()
        mono = self.monomial(chars)
        terms = {(mono, mono): one}
        if self.with_z:
            gh = self.group.reduce(tuple(a + b for a, b in zip(chars, self.g.exps)))
            terms[((chars, (0,) * self.k, 1), (gh, (0,) * self.k, 1))] = self.pair_char(chars)
        return TensorElement(self, 2, terms)

    def _delta_z(self):
        if self._delta_z_override is not None:
            return TensorElement(self, 2, self._delta_z_override)
        one_m = self.monomial()
        z_m = self.monomial(eps=1)
        gz_m = self.monomial(self.g.exps, eps=0)
        return self.tensor(2, {(one_m, z_m): 1, (z_m, gz_m): 1})

    def _delta_t(self, j):
        td = [0] * self.k
        td[j] = 1
        t_m = self.monomial(tdeg=td)
        one_m = self.monomial()
        terms = {(t_m, one_m): self.field.one(), (one_m, t_m): self.field.one()}
        if self.with_z:
            z_m = self.monomial(eps=1)
            gz_m = ((self.g.exps), (0,) * self.k, 1)
            terms[(z_m, gz_m)] = self.x.additive[j]
        return TensorElement(self, 2, terms)

    def delta_monomial(self, mono) -> TensorElement:
        cached = self._delta_cache.get(mono)
        if cached is not None:
            return cached
        chars, tdeg, eps = mono
        out = self._delta_char(chars)
        for j, a in enumerate(tdeg):
            if a:
                dt = self._delta_t(j)
                for _ in range(a):
                    out = out * dt
        if eps:
            out = out * self._delta_z()
        self._delta_cache[mono] = out
        return out

    def delta(self, u: HopfElement) -> TensorElement:
        return TensorElement(self, 2, ((key, c * d) for m, c in u.terms.items()
                                       for key, d in self.delta_monomial(m).terms.items()))

    def counit_monomial(self, mono) -> FieldElement:
        _, tdeg, eps = mono
        if eps or any(tdeg):
            return self.field.zero()
        return self.field.one()

    def counit(self, u: HopfElement) -> FieldElement:
        return sum((c for m, c in u.terms.items() if not self.counit_monomial(m).is_zero()),
                   self.field.zero())

    def antipode_monomial(self, mono):
        chars, tdeg, eps = mono
        new_chars = tuple(-a for a in chars)
        if eps:
            new_chars = tuple(a - b for a, b in zip(new_chars, self.g.exps))
        sign = (-1) ** (sum(tdeg) + eps)
        return (self.group.reduce(new_chars), tdeg, eps), sign

    def antipode(self, u: HopfElement) -> HopfElement:
        out = []
        for m, c in u.terms.items():
            mm, sign = self.antipode_monomial(m)
            out.append((mm, c if sign > 0 else -c))
        return HopfElement(self, out)

    # -- tensor-leg operations ---------------------------------------------------
    def delta_left(self, t: TensorElement) -> TensorElement:
        return TensorElement(self, 3, (((a, b, v), c * d) for (u, v), c in t.terms.items()
                                       for (a, b), d in self.delta_monomial(u).terms.items()))

    def delta_right(self, t: TensorElement) -> TensorElement:
        return TensorElement(self, 3, (((u, a, b), c * d) for (u, v), c in t.terms.items()
                                       for (a, b), d in self.delta_monomial(v).terms.items()))

    def counit_left(self, t: TensorElement) -> HopfElement:
        # the counit of a monomial is 1 or 0
        return HopfElement(self, ((v, c) for (u, v), c in t.terms.items()
                                  if not self.counit_monomial(u).is_zero()))

    def counit_right(self, t: TensorElement) -> HopfElement:
        return HopfElement(self, ((u, c) for (u, v), c in t.terms.items()
                                  if not self.counit_monomial(v).is_zero()))

    def convolve_antipode(self, t: TensorElement, side) -> HopfElement:
        """m(S(x)id) or m(id(x)S) applied to a 2-tensor: each term u(x)v gives
        the signed monomial S(u)v or uS(v), or nothing when z^2 kills it."""
        antipode_monomial, mono_mul = self.antipode_monomial, self.mono_mul

        def terms():
            for (u, v), c in t.terms.items():
                if side == "left":
                    u, sign = antipode_monomial(u)
                else:
                    v, sign = antipode_monomial(v)
                m = mono_mul(u, v)
                if m is not None:
                    yield m, (c if sign > 0 else -c)

        return HopfElement(self, terms())

    # -- serialization ----------------------------------------------------------
    def structure_json(self):
        k = self.k

        def tensor_json(t):
            return [
                [format_monomial(a, k), format_monomial(b, k), str(c)]
                for (a, b), c in sorted(t.terms.items())
            ]

        delta = {}
        for i, gen in enumerate(self.group.generators()):
            delta[f"X{i + 1}"] = tensor_json(self._delta_char(gen.exps))
        for j in range(k):
            delta[f"t{j + 1}"] = tensor_json(self._delta_t(j))
        if self.with_z:
            delta["z"] = tensor_json(self._delta_z())
        data = {
            "field": self.field.to_json(),
            "group": self.group.to_json(),
            "with_z": self.with_z,
            "delta": delta,
        }
        if self.with_z:
            data["g"] = list(self.g.exps)
            data["x"] = self.x.to_json()
            data["antipode_z"] = str(self.antipode(self.z_element()))
        return data

    # -- random sampling -----------------------------------------------------------
    def random_monomial(self, rng, char_bound=3, t_bound=3):
        chars = []
        for _ in range(self.group.free_rank):
            chars.append(rng.randint(-char_bound, char_bound))
        for n in self.group.torsion:
            chars.append(rng.randrange(n))
        tdeg = tuple(rng.randint(0, t_bound) for _ in range(self.k))
        eps = rng.randint(0, 1) if self.with_z else 0
        return self.monomial(chars, tdeg, eps)


@dataclass
class GXValidation:
    accepted: bool
    reason: str
    pairing_xg_zero: bool

    def to_json(self):
        return {
            "accepted": self.accepted,
            "reason": self.reason,
            "pairing_xg_zero": self.pairing_xg_zero,
        }


def validate_gx(group: GroupDescriptor, g: Character, x: LieFunctional) -> GXValidation:
    """Accept iff x = 0 or g^2 = 1; also confirms <x, g> = 0."""
    if g.group != group or x.group != group:
        raise InvalidGX("data does not match the group")
    g2_trivial = (g * g).is_identity()
    x_zero = x.is_zero()
    pairing_zero = x.pair(g).is_zero()
    if x_zero or g2_trivial:
        reason = "x = 0" if x_zero else "g^2 = 1"
        return GXValidation(True, reason, pairing_zero)
    return GXValidation(False, "x != 0 while g^2 != 1", pairing_zero)


@dataclass
class GXData:
    """A supergroup of the one-odd-dimension family over base G."""

    field: Field
    base: GroupDescriptor
    g: Character
    x: LieFunctional

    def to_json(self):
        return {
            "field": self.field.to_json(),
            "group": self.base.to_json(),
            "g": list(self.g.exps),
            "x": self.x.to_json(),
        }

    @staticmethod
    def from_json(data):
        field = Field.from_json(data["field"])
        base = GroupDescriptor.from_json(data["group"])
        g = base.character(data["g"])
        x = LieFunctional.from_json(base, field, data["x"])
        return GXData(field, base, g, x)


def build_algebra(field: Field, group: GroupDescriptor, g: Character,
                  x: LieFunctional) -> MonomialHopfSuperalgebra:
    verdict = validate_gx(group, g, x)
    if not verdict.accepted:
        raise InvalidGX(verdict.reason)
    if not verdict.pairing_xg_zero:
        raise InvalidGX("<x, g> must vanish for valid structure data")
    return MonomialHopfSuperalgebra(field, group, g, x, with_z=True)


def group_algebra(field: Field, group: GroupDescriptor) -> MonomialHopfSuperalgebra:
    """Purely even K[X] (x) K[t_1..t_k]."""
    return MonomialHopfSuperalgebra(field, group, with_z=False)


def _monomial_violations(alg: MonomialHopfSuperalgebra, m):
    """(law, witness) for each of the five one-monomial laws that fails at m:
    coassociativity, both counit laws and both antipode laws."""
    name = format_monomial(m, alg.k)
    elem = HopfElement(alg, {m: alg.field.one()})
    target = alg.one().scale(alg.counit_monomial(m))
    d = alg.delta_monomial(m)
    checks = [
        ("coassociativity", alg.delta_left(d) == alg.delta_right(d)),
        ("left counit", alg.counit_left(d) == elem),
        ("right counit", alg.counit_right(d) == elem),
        ("antipode (left)", alg.convolve_antipode(d, "left") == target),
        ("antipode (right)", alg.convolve_antipode(d, "right") == target),
    ]
    return [(law, name) for law, holds in checks if not holds]


def _pair_violations(alg: MonomialHopfSuperalgebra, a, b):
    """(law, witness) for each of the three two-monomial laws that fails at
    (a, b): Delta and eps are algebra maps, and ab = (-1)^{|a||b|} ba."""
    one = alg.field.one()
    ea, eb = HopfElement(alg, {a: one}), HopfElement(alg, {b: one})
    prod = alg.mul(ea, eb)
    witness = f"{format_monomial(a, alg.k)} , {format_monomial(b, alg.k)}"
    sign = -1 if (monomial_parity(a) and monomial_parity(b)) else 1
    checks = [
        ("Delta is an algebra map",
         alg.delta(prod) == alg.delta_monomial(a) * alg.delta_monomial(b)),
        ("counit is an algebra map", alg.counit(prod) == alg.counit(ea) * alg.counit(eb)),
        ("super-commutativity", prod == alg.mul(eb, ea).scale(sign)),
    ]
    return [(law, witness) for law, holds in checks if not holds]


def verify_hopf_axioms(alg: MonomialHopfSuperalgebra, samples: int = 100, seed: int = 0,
                       char_bound: int = 3, t_bound: int = 3) -> AxiomReport:
    """Check the Hopf-superalgebra laws on generators and random monomials.

    The one-monomial laws run on the generators plus `samples` random
    monomials, the two-monomial laws on max(1, samples // 2) random pairs from
    that pool. Each law is a pure function of the algebra and its monomial or
    pair, so it is evaluated once per distinct monomial or pair and its
    verdict recorded once per sample: `checks_run` counts samples, and a
    violation repeats as often as its witness was drawn. Raises ValueError
    when `samples` is negative.
    """
    import random

    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    rng = random.Random(seed)
    report = AxiomReport()
    k = alg.k

    gen_monos = [alg.monomial(c.exps) for c in alg.group.generators()]
    gen_monos += [alg.monomial(tdeg=[1 if i == j else 0 for i in range(k)]) for j in range(k)]
    if alg.with_z:
        gen_monos.append(alg.monomial(eps=1))

    pool = list(gen_monos)
    while len(pool) < len(gen_monos) + samples:
        pool.append(alg.random_monomial(rng, char_bound, t_bound))

    verdicts = {}  # keyed by a monomial or by a pair of monomials
    for m in pool:
        report.checks_run += 1
        found = verdicts.get(m)
        if found is None:
            found = verdicts[m] = _monomial_violations(alg, m)
        report.violations.extend(found)

    for _ in range(max(1, samples // 2)):
        report.checks_run += 1
        pair = (pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))])
        found = verdicts.get(pair)
        if found is None:
            found = verdicts[pair] = _pair_violations(alg, *pair)
        report.violations.extend(found)
    return report


# ---------------------------------------------------------------------------
# grouplikes and the coradical


def find_grouplikes(alg: MonomialHopfSuperalgebra, window=None, allow_inhomogeneous=False):
    """Solutions of Delta(c) = c(x)c, c != 0, within the character window.

    Any such c lies in a single character component and has t-degree zero
    (top-degree comparison of Delta(c) against c(x)c), so the search reduces
    to c = h + mu*hz per window character h. Homogeneous solutions are the
    characters with <x,h> = 0; with allow_inhomogeneous and g = 1, characters
    with <x,h> a nonzero square alpha contribute h +- sqrt(alpha) hz.
    Returns (homogeneous, inhomogeneous, undecided) lists.
    """
    window = _resolve_window(alg, window)
    homogeneous, inhomogeneous, undecided = [], [], []
    one = alg.field.one()
    for h in window:
        alpha = alg.pair_char(h.exps)
        if alpha.is_zero():
            homogeneous.append(alg.char_element(h))
        elif allow_inhomogeneous and alg.g.is_identity():
            try:
                root = alpha.sqrt()
            except Exception:
                undecided.append(h)
                continue
            if root is not None:
                base = alg.monomial(h.exps)
                zpart = alg.monomial(h.exps, eps=1)
                inhomogeneous.append(HopfElement(alg, {base: one, zpart: root}))
                inhomogeneous.append(HopfElement(alg, {base: one, zpart: -root}))
    return homogeneous, inhomogeneous, undecided


def _resolve_window(alg, window):
    if window is not None:
        return list(window)
    if alg.group.is_finite:
        return alg.group.all_characters()
    raise WindowRequired("character group is infinite; supply a window")


@dataclass
class CoradicalResult:
    basis: list
    unipotent_radical_trivial: bool
    quotient_even_diagonalizable: bool
    radical_quotient_generators: list

    def to_json(self):
        return {
            "coradical_basis": [str(b) for b in self.basis],
            "unipotent_radical_trivial": self.unipotent_radical_trivial,
            "quotient_by_radical_even_diagonalizable": self.quotient_even_diagonalizable,
            "radical_algebra_generators": self.radical_quotient_generators,
        }


def coradical(alg: MonomialHopfSuperalgebra, window=None) -> CoradicalResult:
    """Coradical of K[D_{g,x}] on a window: span{h : h in Y} + span{h, hz : h not in Y}.

    Also reports the unipotent-radical verdicts and the quotient presentation
    of the radical's algebra (trivial when x != 0, an odd exterior line when
    x = 0). Requires a diagonalizable base (no additive factors).
    """
    if alg.k != 0:
        raise InvalidGX("coradical computation needs a diagonalizable base")
    window = _resolve_window(alg, window)
    basis = []
    for h in window:
        basis.append(alg.char_element(h))
        if alg.with_z and not alg.pair_char(h.exps).is_zero():
            basis.append(HopfElement(alg, {alg.monomial(h.exps, eps=1): alg.field.one()}))
    x_zero = alg.x.is_zero() or not alg.with_z
    generators = ["1"] if not x_zero else ["1", "z"]
    return CoradicalResult(
        basis=basis,
        unipotent_radical_trivial=not x_zero,
        quotient_even_diagonalizable=x_zero,
        radical_quotient_generators=generators,
    )
