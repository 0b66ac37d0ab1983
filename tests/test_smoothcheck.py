import random
import re
from fractions import Fraction

import pytest

from superhopf.chargroup import GroupDescriptor, LieFunctional
from superhopf.fields import DescriptorMismatch, DivisionByZero, FunctionField, GF, QQ, Unsupported
from superhopf.hopfcore import build_algebra, group_algebra
from superhopf.smoothcheck import (
    InvalidAlpha,
    InvalidPresentation,
    NonTerminatingRewrite,
    Polynomial,
    PolyRing,
    Relation,
    SYM_ONE,
    SuperAlgebraPresentation,
    UndecidableBase,
    compute_gr,
    hochschild_ealpha,
    hochschild_extension_presentation,
    hopf_smooth_reduction,
    is_regular,
    is_smooth,
    polynomial_matrix_rank,
)

from oracles import is_separable

Q = QQ()
F5 = GF(5)


def test_polyring_basics():
    ring = PolyRing(Q, ("x", "y"))
    f = ring.parse("x^2 - 3*y + 1")
    g = ring.parse("x^2") - ring.parse("3*y") + ring.one()
    assert f == g
    assert f.derivative(0) == ring.parse("2*x")
    assert ring.parse("(x+y)^2") == ring.parse("x^2 + 2*x*y + y^2")


def test_polynomial_rejects_foreign_coefficients_and_stores_no_zero():
    ring = PolyRing(Q, ("x", "y"))
    with pytest.raises(DescriptorMismatch):
        Polynomial(ring, {(1, 0): F5.one()})
    with pytest.raises(DescriptorMismatch):
        ring.gen(0) * F5.one()
    f = ring.parse("x^2 - 3*y + 1")
    assert (f - f).terms == {} and (f * 0).terms == {} and ring.const(0).terms == {}
    g = PolyRing(F5, ("x",)).parse("x^5 + 2*x")
    assert g.derivative(0).terms == {(0,): F5.from_int(2)}  # 5*x^4 vanishes mod 5


@pytest.mark.parametrize("field", [Q, FunctionField(5, "t")], ids=["Q", "F5(t)"])
def test_polynomial_division_by_constants_only(field):
    ring = PolyRing(field, ("x", "y"))
    x = ring.gen(0)
    half = field.from_int(2).inverse()
    assert ring.parse("x/2") == x * half
    assert ring.parse("x/(1+1)") == x * half
    if field.kind == "Fpt":
        assert ring.parse("x/(t+1)") == x * (field.generator() + 1).inverse()
    for divisor in ("y", "y + 1"):
        with pytest.raises(Unsupported, match=re.escape(f"polynomial {divisor}")):
            ring.parse(f"x/({divisor})")
    with pytest.raises(DivisionByZero):
        ring.parse("x/0")


@pytest.mark.parametrize("field", [Q, FunctionField(5, "t")], ids=["Q", "F5(t)"])
def test_negative_powers(field):
    """A negative power of a polynomial or a superalgebra element inverts a
    nonzero field constant and is refused otherwise."""
    ring = PolyRing(field, ("x", "y"))
    x = ring.gen(0)
    assert ring.parse("2^-1*x") == ring.parse("x/2") == x * field.from_int(2).inverse()
    assert ring.parse("(1+1)^-2") == ring.const(1) / 4
    if field.kind == "Fpt":
        assert ring.parse("t^-1*x") == ring.parse("x/t") != x
    for src in ("x^-1", "(x*y + 1)^-2"):
        with pytest.raises(Unsupported):
            ring.parse(src)
    with pytest.raises(DivisionByZero):
        ring.parse("(x - x)^-1")
    pres = SuperAlgebraPresentation(field, ("x",), [], ("z",))
    half = pres.one_elem().scale(field.from_int(2).inverse())
    assert pres.parse_element("(1+1)^-1") == pres.parse_element("1/2") == half
    for src in ("x^-1", "z^-1", "(1+x)^-1", "(x - x)^-1", "1/0"):
        with pytest.raises(Unsupported):
            pres.parse_element(src)
    with pytest.raises(Unsupported):
        hochschild_ealpha(3, "x^-1")


def test_hochschild_alpha_field_constants():
    """A field constant in alpha may be divided by or raised to a negative
    power: x/2 and 2^-1*x are 2x over F_3(t), and t^-1*x is x/t. Division by
    anything but a nonzero constant stays refused."""
    reports = {src: hochschild_ealpha(3, src) for src in ("x/2", "2^-1*x", "2*x", "t^-1*x", "x/t")}
    assert reports["x/2"] == reports["2^-1*x"] == reports["2*x"]
    assert reports["t^-1*x"] == reports["x/t"]
    assert reports["x/t"].witness != hochschild_ealpha(3, "x").witness
    assert reports["x/t"].split and reports["x/t"].section_verified
    pres = hochschild_extension_presentation(3, 0)
    x, t = pres.var_elem(0), pres.field.generator()
    assert pres.parse_element("t^-1*x") == x.scale(t.inverse()) == pres.parse_element("x/t")
    for src in ("x/y", "x^-1", "x/(t*y)", "x/nu", "x/0"):
        with pytest.raises(Unsupported):
            hochschild_ealpha(3, src)


def test_polynomial_rank():
    ring = PolyRing(Q, ("x",))
    x = ring.gen(0)
    rows = [[x, ring.one()], [x * x, x]]
    assert polynomial_matrix_rank(rows) == 1
    rows = [[x, ring.one()], [ring.one(), x]]
    assert polynomial_matrix_rank(rows) == 2


def test_exterior_line_smooth_and_regular():
    pres = SuperAlgebraPresentation(Q, (), [], ("z",))
    assert is_regular(pres).regular
    assert is_smooth(pres).smooth


def test_polynomial_tensor_exterior():
    pres = SuperAlgebraPresentation(Q, ("t",), [], ("z",))
    graded = compute_gr(pres)
    assert [(d.degree, d.wedge_rank, d.gr_rank) for d in graded.degrees] == [(0, 1, 1), (1, 1, 1)]
    assert graded.kappa_bijective
    assert is_regular(pres).regular and is_smooth(pres).smooth


def test_dual_numbers_tensor_exterior_fails_condition_one():
    pres = SuperAlgebraPresentation(Q, ("t",), ["t^2"], ("z",))
    report = is_regular(pres)
    assert report.regular is False
    assert any("not reduced" in r for r in report.reasons)
    assert not is_smooth(pres).smooth
    # the graded comparison itself is fine; only the base ring fails
    assert report.graded.kappa_bijective


def test_exterior_two_generators_ranks():
    pres = SuperAlgebraPresentation(Q, (), [], ("z1", "z2"))
    graded = compute_gr(pres)
    assert [(d.degree, d.gr_rank) for d in graded.degrees] == [(0, 1), (1, 2), (2, 1)]


def test_zero_corrections_break_kappa():
    pres = SuperAlgebraPresentation(Q, (), [], ("z1", "z2"), (), corrections={})
    graded = compute_gr(pres)
    assert not graded.degrees[-1].bijective
    assert is_regular(pres).regular is False


def test_separable_torsion_relation():
    pres = SuperAlgebraPresentation(F5, ("u",), ["u^3 - 1"], ("z",))
    assert is_regular(pres).regular and is_smooth(pres).smooth
    pres_bad = SuperAlgebraPresentation(F5, ("u",), ["u^5 - 1"], ("z",))
    assert is_regular(pres_bad).regular is False
    assert not is_smooth(pres_bad).smooth


@pytest.mark.parametrize("p", [0, 3, 5, 7])
def test_separability_matches_euclid_oracle(p):
    field = QQ() if p == 0 else GF(p)
    consts = [Fraction(0), Fraction(1), Fraction(-1), Fraction(4), Fraction(-3, 2)] if p == 0 \
        else list(range(p))
    for d in range(1, 11):
        for c in consts:
            coeffs = [-c] + [0] * (d - 1) + [1]
            sep = is_separable(coeffs, p)
            why = "derivative vanishes" if p and d % p == 0 else \
                "separable" if sep else "repeated roots"
            pres = SuperAlgebraPresentation(field, ("u",), [f"u^{d} - ({c})"], ("z",))
            reg, smooth = is_regular(pres), is_smooth(pres)
            assert reg.regular is sep, (p, d, c)
            assert smooth.smooth is sep and smooth.base_smooth is sep, (p, d, c)
            assert smooth.certificate["even_quotient"] == [f"u: {why}"], (p, d, c)
            if not sep:
                assert f"even quotient: u-relation not reduced ({why})" in reg.reasons


def test_separability_over_function_field():
    K = FunctionField(5, "t")
    for rel, why in (("u^5 - t", "derivative vanishes"), ("u^2", "repeated roots")):
        pres = SuperAlgebraPresentation(K, ("u",), [rel], ("z",))
        smooth = is_smooth(pres)
        assert not smooth.smooth and smooth.certificate["even_quotient"] == [f"u: {why}"]
        with pytest.raises(UndecidableBase):
            is_regular(pres)
    pres = SuperAlgebraPresentation(K, ("u",), ["u^3 - t"], ("z",))
    assert is_regular(pres).regular
    smooth = is_smooth(pres)
    assert smooth.smooth and smooth.certificate["even_quotient"] == ["u: separable"]


def test_confluence_guards():
    with pytest.raises(NonTerminatingRewrite):
        SuperAlgebraPresentation(Q, ("x", "y"), ["x^2 - y", "x^3 - 1"], ())
    with pytest.raises(NonTerminatingRewrite):
        SuperAlgebraPresentation(Q, ("x", "y"), ["x*y - 1"], ())
    with pytest.raises(NonTerminatingRewrite):
        SuperAlgebraPresentation(Q, ("x", "y"), ["x^2 - y", "y^2 - x"], ())


def test_nu_cover_validation():
    with pytest.raises(InvalidPresentation):
        SuperAlgebraPresentation(Q, (), [], ("z1", "z2"), ("nu1",), corrections={})


def test_normal_form_multiplication():
    pres = SuperAlgebraPresentation(F5, ("u",), ["u^3 - 1"], ("z",))
    u = pres.var_elem(0)
    z = pres.odd_elem(0)
    assert (u ** 3 - pres.one_elem()).is_zero()
    assert (z * z).is_zero()
    assert not (u * z).is_zero()
    prod = (u ** 2 * z) * (u ** 2)
    assert prod == u * z


def test_square_zero_family_regular_not_smooth():
    for alpha in ("x", "1", "y+2"):
        pres = hochschild_extension_presentation(3, alpha)
        reg = is_regular(pres)
        smooth = is_smooth(pres)
        assert reg.regular is True
        assert any("declared" in r for r in reg.reasons)
        assert not smooth.smooth and not smooth.base_smooth


def test_square_zero_family_exterior_isomorphism_tracks_split():
    assert is_smooth(hochschild_extension_presentation(3, "x")).exterior_isomorphism
    assert not is_smooth(hochschild_extension_presentation(3, "1")).exterior_isomorphism


def test_square_zero_family_graded_shape():
    pres = hochschild_extension_presentation(3, "1")
    graded = compute_gr(pres)
    assert [(d.degree, d.wedge_rank, d.gr_rank) for d in graded.degrees] == [
        (0, 1, 1), (1, 2, 2), (2, 1, 1)
    ]
    assert graded.kappa_bijective


def test_hochschild_split_examples():
    res = hochschild_ealpha(3, "x")
    assert res.split and res.section_verified
    res = hochschild_ealpha(3, "1")
    assert not res.split and res.witness == "1"
    res = hochschild_ealpha(3, "y^3 + t")
    assert res.split and res.section_verified
    assert res.witness == "x"
    res = hochschild_ealpha(5, "x*(y^2 + 1)")
    assert res.split and res.section_verified


def test_hochschild_class_invariance_randomized():
    rng = random.Random(12)
    ring = PolyRing(FunctionField(3, "t"), ("x", "y"))
    alphas = ["1", "y", "y^2 + 2", "x + y"]
    betas = ["y + 1", "x", "2*y^2", "1"]
    for alpha in alphas:
        base = hochschild_ealpha(3, alpha)
        for beta in rng.sample(betas, 2):
            shifted = hochschild_ealpha(3, f"{alpha} + x*({beta})")
            assert shifted.split == base.split, (alpha, beta)


def test_hochschild_invalid_inputs():
    with pytest.raises(InvalidAlpha):
        hochschild_ealpha(2, "x")
    with pytest.raises(InvalidAlpha):
        hochschild_ealpha(3, "w1")
    with pytest.raises(InvalidAlpha):
        hochschild_ealpha(3, "???")


def test_hopf_smooth_reduction_verdicts():
    mu5 = GroupDescriptor(0, (5,))
    mu3 = GroupDescriptor(0, (3,))
    Gm = GroupDescriptor(1, ())
    a5 = build_algebra(F5, mu5, mu5.identity(), LieFunctional(mu5, F5, torsion=[1]))
    a3 = build_algebra(F5, mu3, mu3.character([1]), LieFunctional.zero(mu3, F5))
    aq = build_algebra(Q, Gm, Gm.identity(), LieFunctional(Gm, Q, free=[1]))
    assert not hopf_smooth_reduction(a5)["smooth"]
    assert hopf_smooth_reduction(a3)["smooth"]
    assert hopf_smooth_reduction(aq)["smooth"]
    assert hopf_smooth_reduction(aq)["odd_cotangent_dim"] == 1
    assert hopf_smooth_reduction(group_algebra(Q, Gm))["odd_cotangent_dim"] == 0


def presentation_from_algebra(alg) -> SuperAlgebraPresentation:
    """Presentation of a monomial Hopf superalgebra with finite diagonalizable
    part: one variable per torsion factor (u^n = 1), one per additive factor,
    and the single odd generator when present."""
    if alg.group.free_rank:
        raise UndecidableBase("free multiplicative factors need inverted variables")
    names = [f"u{i+1}" for i in range(len(alg.group.torsion))]
    names += [f"t{j+1}" for j in range(alg.group.additive_rank)]
    field = alg.field
    pres = SuperAlgebraPresentation(
        field,
        names,
        [],
        ("z",) if alg.with_z else (),
    )
    for i, n in enumerate(alg.group.torsion):
        tail = pres.element({((0,) * len(names), SYM_ONE): 1})
        pres.relations.append(Relation(i, n, tail))
    return pres


def test_presentation_agrees_with_reduction_on_decidable_bases():
    mu5 = GroupDescriptor(0, (5,))
    mu3 = GroupDescriptor(0, (3,))
    mu4 = GroupDescriptor(0, (4,))
    Ga = GroupDescriptor(0, (), 1)
    cases = [
        build_algebra(F5, mu5, mu5.identity(), LieFunctional(mu5, F5, torsion=[1])),
        build_algebra(F5, mu3, mu3.character([1]), LieFunctional.zero(mu3, F5)),
        build_algebra(Q, mu4, mu4.character([2]), LieFunctional.zero(mu4, Q)),
        build_algebra(Q, Ga, Ga.identity(), LieFunctional(Ga, Q, additive=[1])),
    ]
    for alg in cases:
        pres = presentation_from_algebra(alg)
        assert is_smooth(pres).smooth == hopf_smooth_reduction(alg)["smooth"]


def test_presentation_from_free_rank_unsupported():
    Gm = GroupDescriptor(1, ())
    alg = build_algebra(Q, Gm, Gm.identity(), LieFunctional(Gm, Q, free=[1]))
    with pytest.raises(UndecidableBase):
        presentation_from_algebra(alg)


def test_degree_zero_comparison_always_identity():
    for pres in (
        SuperAlgebraPresentation(Q, (), [], ("z",)),
        hochschild_extension_presentation(3, "y"),
        SuperAlgebraPresentation(F5, ("u",), ["u^4 - 1"], ("z1", "z2")),
    ):
        graded = compute_gr(pres)
        assert graded.degrees[0].degree == 0
        assert graded.degrees[0].bijective
