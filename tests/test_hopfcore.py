import random

import pytest

from superhopf.chargroup import GroupDescriptor, LieFunctional
from superhopf.fields import GF, QQ, DescriptorMismatch, QuadraticField
from superhopf.hopfcore import (
    AxiomReport,
    HopfElement,
    MonomialHopfSuperalgebra,
    TensorElement,
    WindowRequired,
    build_algebra,
    coradical,
    format_monomial,
    find_grouplikes,
    group_algebra,
    monomial_parity,
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


def _bad_torsion_algebra():
    # directly constructing with x != 0 and g^2 != 1 breaks coassociativity
    return MonomialHopfSuperalgebra(F5, mu5, mu5.character([1]),
                                    LieFunctional(mu5, F5, torsion=[1]))


def test_delta_is_algebra_map_catches_bad_torsion_data():
    report = verify_hopf_axioms(_bad_torsion_algebra(), samples=30, seed=4)
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
    z_m = alg.monomial(eps=1)
    for tampered in _valid_and_tampered(field, base, g, x)[1:]:
        assert not all(_coalgebra_laws(tampered, z_m)), tampered._delta_z_override


def test_foreign_coefficients_rejected():
    alg = build_algebra(Q, Gm, Gm.identity(), gm_y(Q))
    m = alg.monomial()
    with pytest.raises(DescriptorMismatch):
        HopfElement(alg, {m: GF(7).one()})
    with pytest.raises(DescriptorMismatch):
        TensorElement(alg, 2, {(m, m): F5.one()})
    with pytest.raises(DescriptorMismatch):
        alg.one() + HopfElement(alg, [(m, 1)])


def test_add_rejects_element_of_another_algebra():
    """Same field and group, different g: the monomial keys coincide, so only
    HopfElement's same-algebra check tells the two elements apart."""
    x = LieFunctional.zero(mu4, F5)
    alg = build_algebra(F5, mu4, mu4.identity(), x)
    other = build_algebra(F5, mu4, mu4.character([2]), x)
    a, b = alg.z_element(), other.z_element()
    assert a.terms == b.terms
    with pytest.raises(AssertionError):
        a + b
    with pytest.raises(AssertionError):
        a - b
    assert (a + a).terms == a.scale(2).terms and (a - a).is_zero()


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
        one_m, z_m = alg.monomial(), alg.monomial(eps=1)
        override = {(one_m, z_m): field.one(), (z_m, one_m): field.one(),
                    (one_m, one_m): field.zero()}
        patched = MonomialHopfSuperalgebra(field, Gm, Gm.identity(), gm_y(field),
                                           delta_z_override=override)
        assert patched.delta_monomial(z_m) == alg.delta_monomial(z_m)
        assert zero_free(patched.delta_monomial(z_m))
        assert verify_hopf_axioms(patched, samples=20, seed=1).passed


def _reference_verify_hopf_axioms(alg, samples=100, seed=0, char_bound=3, t_bound=3):
    """Every law derived afresh at every sample, the antipode convolved
    through one-term elements: the loop that verify_hopf_axioms runs once per
    distinct monomial or pair."""
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

    def elem(m):
        return HopfElement(alg, {m: alg.field.one()})

    for m in pool:
        report.checks_run += 1
        name = format_monomial(m, k)
        d = alg.delta_monomial(m)
        if alg.delta_left(d) != alg.delta_right(d):
            report.violations.append(("coassociativity", name))
        if alg.counit_left(d) != elem(m):
            report.violations.append(("left counit", name))
        if alg.counit_right(d) != elem(m):
            report.violations.append(("right counit", name))
        target = alg.one().scale(alg.counit_monomial(m))
        if _convolve_by_hand(alg, d, "left") != target:
            report.violations.append(("antipode (left)", name))
        if _convolve_by_hand(alg, d, "right") != target:
            report.violations.append(("antipode (right)", name))

    for _ in range(max(1, samples // 2)):
        report.checks_run += 1
        a = pool[rng.randrange(len(pool))]
        b = pool[rng.randrange(len(pool))]
        ea, eb = elem(a), elem(b)
        prod = alg.mul(ea, eb)
        witness = f"{format_monomial(a, k)} , {format_monomial(b, k)}"
        if alg.delta(prod) != alg.delta(ea) * alg.delta(eb):
            report.violations.append(("Delta is an algebra map", witness))
        if alg.counit(prod) != alg.counit(ea) * alg.counit(eb):
            report.violations.append(("counit is an algebra map", witness))
        sign = -1 if (monomial_parity(a) and monomial_parity(b)) else 1
        if prod != alg.mul(eb, ea).scale(sign):
            report.violations.append(("super-commutativity", witness))
    return report


def _convolve_by_hand(alg, t, side):
    """m(S(x)id) or m(id(x)S) of a 2-tensor through the public mul and antipode."""
    one = alg.field.one()
    out = HopfElement(alg, {})
    for (u, v), c in t.terms.items():
        eu, ev = HopfElement(alg, {u: one}), HopfElement(alg, {v: one})
        if side == "left":
            out = out + alg.mul(alg.antipode(eu), ev).scale(c)
        else:
            out = out + alg.mul(eu, alg.antipode(ev)).scale(c)
    return out


def _tampered_overrides(alg):
    """Delta(z) with the z(x)g term rescaled, dropped, or joined by 1(x)1."""
    field = alg.field
    one_m, z_m, g_m = alg.monomial(), alg.monomial(eps=1), alg.monomial(alg.g.exps)
    one = field.one()
    return [{(one_m, z_m): one, (z_m, g_m): field.from_int(3)},
            {(one_m, z_m): one},
            {(one_m, z_m): one, (z_m, g_m): one, (one_m, one_m): one}]


def _valid_and_tampered(field, base, g, x):
    alg = build_algebra(field, base, g, x)
    return [alg] + [MonomialHopfSuperalgebra(field, base, g, x, delta_z_override=override)
                    for override in _tampered_overrides(alg)]


def _same_report(make, samples, seed):
    """The report of verify_hopf_axioms equals the reference, each run on a
    fresh algebra from `make()` so that neither reads caches the other filled."""
    got = verify_hopf_axioms(make(), samples=samples, seed=seed).to_json()
    assert got == _reference_verify_hopf_axioms(make(), samples=samples, seed=seed).to_json()
    return got


@pytest.mark.parametrize("field,base,g,x", _sweep_cases())
def test_verify_matches_reference_on_valid_and_tampered(field, base, g, x):
    for i in range(4):
        report = _same_report(lambda: _valid_and_tampered(field, base, g, x)[i], 37, 11 + i)
        assert report["passed"] == (i == 0)


def test_verify_matches_reference_across_samples_and_seeds():
    mu3_x = LieFunctional.zero(mu3, F5)
    gaGm_x = LieFunctional(GaGm, F5, free=[2], additive=[3])
    algebras = [
        lambda: _valid_and_tampered(F5, GaGm, GaGm.identity(), gaGm_x)[0],
        lambda: _valid_and_tampered(F5, mu3, mu3.character([1]), mu3_x)[3],
        _bad_torsion_algebra,
    ]
    violations = 0
    for make in algebras:
        alg = make()
        generators = len(alg.group.generators()) + alg.k + 1
        for samples in (0, 1, 37, 200):
            for seed in (0, 1, 2):
                report = _same_report(make, samples, seed)
                assert report["checks_run"] == generators + samples + max(1, samples // 2)
                violations += len(report["violations"])
    assert violations > 0


def test_verify_matches_reference_on_bad_torsion_data():
    report = _same_report(_bad_torsion_algebra, 30, 4)
    assert not report["passed"]


@pytest.mark.parametrize("field", [Q, F5, QuadraticField(-1)], ids=str)
def test_convolve_antipode_matches_mul_and_antipode(field):
    rng = random.Random(17)
    base, x = GaGm, LieFunctional(GaGm, field, free=[2], additive=[1])
    algebras = _valid_and_tampered(field, base, base.identity(), x)
    vanished = 0
    for alg in algebras:
        z_m = alg.monomial(eps=1)
        tensors = [alg.delta_monomial(alg.random_monomial(rng)) for _ in range(6)]
        tensors.append(alg.delta_monomial(z_m))
        for _ in range(6):
            terms = {(alg.random_monomial(rng), alg.random_monomial(rng)): field.random(rng)
                     for _ in range(5)}
            odd = [alg.monomial(m[0], m[1], eps=1)
                   for m in (alg.random_monomial(rng), alg.random_monomial(rng))]
            terms[tuple(odd)] = field.one()
            tensors.append(TensorElement(alg, 2, terms))
        for t in tensors:
            vanished += sum(1 for u, v in t.terms if u[2] and v[2])
            for side in ("left", "right"):
                assert alg.convolve_antipode(t, side) == _convolve_by_hand(alg, t, side)
    assert vanished > 0
