import random

import pytest

from superhopf.chargroup import GroupDescriptor, LieFunctional
from superhopf.fields import GF, QQ, DescriptorMismatch
from superhopf.hopfcore import (
    HopfElement,
    MonomialHopfSuperalgebra,
    TensorElement,
    WindowRequired,
    build_algebra,
    coradical,
    find_grouplikes,
    find_primitives,
    find_skew_primitives,
    group_algebra,
    validate_gx,
    verify_hopf_axioms,
)

Q = QQ()
F5 = GF(5)

Gm = GroupDescriptor(1, ())
Ga = GroupDescriptor(0, (), 1)
mu3 = GroupDescriptor(0, (3,))
mu4 = GroupDescriptor(0, (4,))
mu5 = GroupDescriptor(0, (5,))
GaGm = GroupDescriptor(1, (), 1)


def gm_y(field, lam=1):
    return LieFunctional(Gm, field, free=[lam])


def test_validate_gx_examples():
    # nonzero x with a grouplike that squares nontrivially is rejected
    v = validate_gx(Gm, Gm.character([1]), gm_y(Q))
    assert not v.accepted and "g^2" in v.reason
    # x = 0 accepts any grouplike
    for b in range(3):
        v = validate_gx(mu3, mu3.character([b]), LieFunctional.zero(mu3, Q))
        assert v.accepted
    # torsion base where g has order 2 and x != 0 over F_5
    mu10 = GroupDescriptor(0, (10,))
    x = LieFunctional(mu10, F5, torsion=[1])
    assert validate_gx(mu10, mu10.character([5]), x).accepted
    assert not validate_gx(mu10, mu10.character([2]), x).accepted


def test_pairing_with_g_vanishes_for_accepted_data():
    cases = [
        (Gm, Gm.identity(), gm_y(Q)),
        (Ga, Ga.identity(), LieFunctional(Ga, Q, additive=[1])),
        (mu4, mu4.character([3]), LieFunctional.zero(mu4, F5)),
        (mu5, mu5.identity(), LieFunctional(mu5, F5, torsion=[2])),
    ]
    for base, g, x in cases:
        v = validate_gx(base, g, x)
        assert v.accepted and v.pairing_xg_zero


def test_build_coproduct_on_additive_generator():
    alg = build_algebra(Q, Ga, Ga.identity(), LieFunctional(Ga, Q, additive=[1]))
    t = alg.t_element(0)
    one_m = alg.monomial()
    t_m = alg.monomial(tdeg=[1])
    z_m = alg.monomial(eps=1)
    expected = alg.tensor(2, {(t_m, one_m): 1, (one_m, t_m): 1, (z_m, z_m): 1})
    assert (alg.delta(t) - expected).is_zero()


def test_counit_and_antipode_on_z():
    alg = build_algebra(Q, Gm, Gm.identity(), gm_y(Q))
    z = alg.z_element()
    assert alg.counit(z).is_zero()
    assert (alg.antipode(z) + z).is_zero()  # S(z) = -z when g = 1
    alg2 = build_algebra(Q, mu4, mu4.character([2]), LieFunctional.zero(mu4, Q))
    sz = alg2.antipode(alg2.z_element())
    mono = alg2.monomial([-2], eps=1)
    assert sz.terms == {mono: Q.from_int(-1)}


def test_verify_axioms_passes_for_built_algebras():
    cases = [
        build_algebra(Q, Gm, Gm.identity(), gm_y(Q)),
        build_algebra(F5, Gm, Gm.identity(), gm_y(F5)),
        build_algebra(Q, Ga, Ga.identity(), LieFunctional(Ga, Q, additive=[1])),
        build_algebra(F5, mu5, mu5.identity(), LieFunctional(mu5, F5, torsion=[1])),
        build_algebra(Q, GaGm, GaGm.identity(), LieFunctional(GaGm, Q, free=[2], additive=[3])),
    ]
    for alg in cases:
        report = verify_hopf_axioms(alg, samples=60, seed=1)
        assert report.passed, report.violations[:3]


def test_verify_axioms_pure_even_group_algebra():
    report = verify_hopf_axioms(group_algebra(F5, mu4), samples=40, seed=2)
    assert report.passed


def test_tampered_delta_z_fails_counit_with_witness_z():
    alg = build_algebra(Q, Gm, Gm.identity(), gm_y(Q))
    one_m = alg.monomial()
    z_m = alg.monomial(eps=1)
    tampered = MonomialHopfSuperalgebra(
        Q, Gm, Gm.identity(), gm_y(Q), delta_z_override={(one_m, z_m): Q.one()}
    )
    report = verify_hopf_axioms(tampered, samples=5, seed=3)
    assert not report.passed
    assert any(law.endswith("counit") and witness == "z" for law, witness in report.violations)


def test_delta_is_algebra_map_catches_bad_torsion_data():
    # directly constructing with x != 0 and g^2 != 1 breaks coassociativity
    bad = MonomialHopfSuperalgebra(F5, mu5, mu5.character([1]),
                                   LieFunctional(mu5, F5, torsion=[1]))
    report = verify_hopf_axioms(bad, samples=30, seed=4)
    assert not report.passed


def test_counit_law_randomized_monomials():
    alg = build_algebra(F5, mu5, mu5.identity(), LieFunctional(mu5, F5, torsion=[1]))
    rng = random.Random(9)
    for _ in range(50):
        m = alg.random_monomial(rng)
        elem = HopfElement(alg, {m: alg.field.one()})
        d = alg.delta(elem)
        assert (alg.counit_left(d) - elem).is_zero()
        assert (alg.counit_right(d) - elem).is_zero()


def test_tensor_square_supercommutative():
    alg = build_algebra(Q, Gm, Gm.identity(), gm_y(Q))
    rng = random.Random(21)
    for _ in range(40):
        a, b = alg.random_monomial(rng), alg.random_monomial(rng)
        c, d = alg.random_monomial(rng), alg.random_monomial(rng)
        u = alg.tensor(2, {(a, b): 1})
        v = alg.tensor(2, {(c, d): 1})
        sign = 1
        if (a[2] + b[2]) % 2 and (c[2] + d[2]) % 2:
            sign = -1
        assert (u * v - (v * u).scale(sign)).is_zero()


def test_grouplikes_homogeneous_match_annihilated_characters():
    alg = build_algebra(F5, mu5, mu5.identity(), LieFunctional(mu5, F5, torsion=[1]))
    hom, inh, undecided = find_grouplikes(alg)
    assert len(hom) == 1 and not undecided  # only the identity pairs to zero
    alg0 = build_algebra(F5, mu5, mu5.identity(), LieFunctional.zero(mu5, F5))
    hom0, _, _ = find_grouplikes(alg0)
    assert len(hom0) == 5


def test_inhomogeneous_grouplikes_square_root_pairs():
    alg = build_algebra(F5, mu5, mu5.identity(), LieFunctional(mu5, F5, torsion=[1]))
    hom, inh, _ = find_grouplikes(alg, allow_inhomogeneous=True)
    # alpha = b for h = t^b; squares mod 5 are {1, 4}: b in {1, 4} give pairs
    assert len(inh) == 4
    for c in inh:
        d = alg.delta(c)
        cc = TensorElement(alg, 2, {(m1, m2): c1 * c2
                                    for m1, c1 in c.terms.items()
                                    for m2, c2 in c.terms.items()})
        assert (d - cc).is_zero()
        assert c.parity() is None  # genuinely inhomogeneous


def test_no_grouplikes_with_positive_t_degree():
    alg = build_algebra(Q, Ga, Ga.identity(), LieFunctional(Ga, Q, additive=[1]))
    hom, inh, _ = find_grouplikes(alg, window=[Ga.identity()], allow_inhomogeneous=True)
    assert len(hom) == 1 and not inh


def test_primitives_of_additive_group_algebra():
    alg = group_algebra(Q, Ga)
    prims = find_primitives(alg, degree_bound=3)
    assert len(prims) == 1
    assert str(prims[0]) == "t"


def test_primitives_include_z_when_g_trivial():
    alg = build_algebra(Q, Gm, Gm.identity(), gm_y(Q))
    prims = find_primitives(alg, window=Gm.character_window(1), degree_bound=0)
    assert any("z" in str(p) for p in prims)


def test_z_skew_primitive_with_expected_grouplike_pair():
    alg = build_algebra(Q, mu4, mu4.character([2]), LieFunctional.zero(mu4, Q))
    skews = find_skew_primitives(alg, degree_bound=0)
    key = (mu4.identity(), mu4.character([2]))
    assert key in skews
    assert any(set(s.terms) == {alg.monomial(eps=1)} for s in skews[key])


def test_window_required_for_infinite_groups():
    alg = build_algebra(Q, Gm, Gm.identity(), gm_y(Q))
    with pytest.raises(WindowRequired):
        find_grouplikes(alg)
    with pytest.raises(WindowRequired):
        coradical(alg)


def test_coradical_verdicts():
    alg = build_algebra(F5, mu5, mu5.identity(), LieFunctional(mu5, F5, torsion=[1]))
    res = coradical(alg)
    assert res.unipotent_radical_trivial
    assert not res.quotient_even_diagonalizable
    assert len(res.basis) == 5 + 4  # h for all h, plus hz for the four h not annihilated
    alg0 = build_algebra(Q, mu4, mu4.character([2]), LieFunctional.zero(mu4, Q))
    res0 = coradical(alg0)
    assert not res0.unipotent_radical_trivial
    assert res0.quotient_even_diagonalizable
    assert res0.radical_quotient_generators == ["1", "z"]
    mu1 = GroupDescriptor(0, ())
    alg1 = build_algebra(Q, mu1, mu1.identity(), LieFunctional.zero(mu1, Q))
    res1 = coradical(alg1)
    assert len(res1.basis) == 1
    assert res1.radical_quotient_generators == ["1", "z"]


def test_structure_json_roundtrip_via_inputs():
    alg = build_algebra(Q, mu4, mu4.character([2]), LieFunctional.zero(mu4, Q))
    data = alg.structure_json()
    assert data["g"] == [2]
    assert data["delta"]["z"] == [["1", "z", "1"], ["z", "X[2]", "1"]]
    rebuilt = build_algebra(
        Q,
        GroupDescriptor.from_json(data["group"]),
        mu4.character(data["g"]),
        LieFunctional.from_json(mu4, Q, data["x"]),
    )
    assert rebuilt.structure_json() == data


def test_mul_and_z_square_zero():
    alg = build_algebra(Q, Gm, Gm.identity(), gm_y(Q))
    z = alg.z_element()
    assert (z * z).is_zero()
    h = alg.char_element(Gm.character([2]))
    hz = h * z
    assert list(hz.terms) == [alg.monomial([2], eps=1)]


def _sweep_cases():
    """The twelve valid (base, g, x) cases of acceptance criterion 01."""
    cases = []
    for tag, field in (("Q", Q), ("F5", F5)):
        for name, base, g, x in [
            ("Gm_1_y", Gm, Gm.identity(), gm_y(field)),
            ("Gm_t_0", Gm, Gm.character([1]), LieFunctional.zero(Gm, field)),
            ("Ga_1_y", Ga, Ga.identity(), LieFunctional(Ga, field, additive=[1])),
            ("mu3_t_0", mu3, mu3.character([1]), LieFunctional.zero(mu3, field)),
            ("mu4_t2_0", mu4, mu4.character([2]), LieFunctional.zero(mu4, field)),
            ("GaGm_1_ab", GaGm, GaGm.identity(),
             LieFunctional(GaGm, field, free=[2], additive=[3])),
        ]:
            cases.append(pytest.param(field, base, g, x, id=f"{name}/{tag}"))
    return cases


def _coalgebra_laws(alg, m):
    """(coassociative, left counit, right counit) of Delta at the monomial m."""
    d = alg.delta_monomial(m)
    elem = HopfElement(alg, {m: alg.field.one()})
    return (alg.delta_left(d) == alg.delta_right(d), alg.counit_left(d) == elem,
            alg.counit_right(d) == elem)


@pytest.mark.parametrize("field,base,g,x", _sweep_cases())
def test_delta_monomial_coassociative_and_counital_randomized(field, base, g, x):
    """Wider character and t-degree bounds than verify_hopf_axioms samples
    (3 and 3), and each tampered Delta(z) breaks a law at z."""
    alg = build_algebra(field, base, g, x)
    rng = random.Random(41)
    for _ in range(30):
        m = alg.random_monomial(rng, char_bound=7, t_bound=5)
        assert _coalgebra_laws(alg, m) == (True, True, True), m
    one_m, z_m, g_m = alg.monomial(), alg.monomial(eps=1), alg.monomial(g.exps)
    one = field.one()
    for override in ({(one_m, z_m): one, (z_m, g_m): field.from_int(3)},
                     {(one_m, z_m): one},
                     {(one_m, z_m): one, (z_m, g_m): one, (one_m, one_m): one}):
        tampered = MonomialHopfSuperalgebra(field, base, g, x, delta_z_override=override)
        assert not all(_coalgebra_laws(tampered, z_m)), override


def test_foreign_coefficients_rejected():
    alg = build_algebra(Q, Gm, Gm.identity(), gm_y(Q))
    m = alg.monomial()
    with pytest.raises(DescriptorMismatch):
        HopfElement(alg, {m: GF(7).one()})
    with pytest.raises(DescriptorMismatch):
        TensorElement(alg, 2, {(m, m): F5.one()})
    with pytest.raises(DescriptorMismatch):
        alg.one() + HopfElement(alg, [(m, 1)])


def test_no_zero_coefficient_is_stored():
    def zero_free(*elements):
        return all(not c.is_zero() for e in elements for c in e.terms.values())

    for field in (Q, F5):
        alg = build_algebra(field, Gm, Gm.identity(), gm_y(field))
        rng = random.Random(5)
        a = alg.element({alg.random_monomial(rng): 2, alg.random_monomial(rng): -1})
        z = alg.z_element()
        assert (a - a).terms == {} and a.scale(0).terms == {} and (z * z).terms == {}
        d = alg.delta(a)
        assert (d - d).terms == {} and d.scale(0).terms == {}
        assert zero_free(a, d, alg.antipode(a), alg.delta_left(d), alg.counit_left(d))
        alg0 = build_algebra(field, mu4, mu4.identity(), LieFunctional.zero(mu4, field))
        prims = find_primitives(alg0)
        assert prims and zero_free(*prims)
        one_m, z_m = alg.monomial(), alg.monomial(eps=1)
        override = {(one_m, z_m): field.one(), (z_m, one_m): field.one(),
                    (one_m, one_m): field.zero()}
        patched = MonomialHopfSuperalgebra(field, Gm, Gm.identity(), gm_y(field),
                                           delta_z_override=override)
        assert patched.delta_monomial(z_m) == alg.delta_monomial(z_m)
        assert zero_free(patched.delta_monomial(z_m))
        assert verify_hopf_axioms(patched, samples=20, seed=1).passed
