import random

import pytest

from superhopf import superlin
from superhopf.chargroup import GroupDescriptor, LieFunctional
from superhopf.fields import GF, QQ, QuadraticField
from superhopf.hcp import (
    BaseNotDiagonalizable,
    GXData,
    HarishChandraPair,
    InvalidSubPair,
    SubPair,
    UnsupportedBase,
    abelian_normal_form,
    center_even,
    check_normal,
    check_pair,
    classify_iso,
    find_product_decomposition,
    is_nilpotent,
    nilpotency_conditions,
    normal_chain,
    quotient_pair,
    splitting_counterexample,
    super_diagonalizable,
    unipotent_radical_subpair,
    unipotent_radical_trivial,
)

from oracles import normal_chain_stepwise, product_decomposition_bruteforce, sub_pair_as_pair

Q = QQ()
F5 = GF(5)
Gm = GroupDescriptor(1, ())
Ga = GroupDescriptor(0, (), 1)
mu4 = GroupDescriptor(0, (4,))
GaGm = GroupDescriptor(1, (), 1)


def one_dim_pair(field, base, weight, bracket):
    pair = HarishChandraPair(field, base, [weight])
    pair.set_bracket(0, 0, bracket)
    return pair


def pair_72(field=Q):
    """Two odd vectors of trivial weight, hyperbolic bracket into the free
    Lie direction."""
    pair = HarishChandraPair(field, Gm, [Gm.identity(), Gm.identity()])
    pair.set_bracket(0, 1, LieFunctional(Gm, field, free=[1]))
    return pair


def counterexample_pair(field, alpha, beta):
    x = LieFunctional(GaGm, field, free=[field.parse(beta)], additive=[field.parse(alpha)])
    return one_dim_pair(field, GaGm, GaGm.identity(), x.scale(2))


def test_check_pair_accepts_and_rejects():
    # nonzero bracket with weight whose square is nontrivial: rejected
    bad = one_dim_pair(Q, Gm, Gm.character([1]), LieFunctional(Gm, Q, free=[2]))
    verdict = check_pair(bad)
    assert not verdict.ok
    assert any("equivariance" in c for c, _ in verdict.failures)
    # trivial weight with bracket into the free direction: accepted
    good = one_dim_pair(Q, Gm, Gm.identity(), LieFunctional(Gm, Q, free=[2]))
    assert check_pair(good).ok
    # zero bracket, arbitrary weights: accepted
    assert check_pair(HarishChandraPair(Q, Gm, [Gm.character([3])])).ok


def test_check_pair_cubic_condition():
    # weights t, t^{-1} pairing into the free direction violate the
    # self-annihilation law even though equivariance holds
    pair = HarishChandraPair(Q, Gm, [Gm.character([1]), Gm.character([-1])])
    pair.set_bracket(0, 1, LieFunctional(Gm, Q, free=[1]))
    verdict = check_pair(pair)
    assert not verdict.ok
    assert any("self-annihilation" in c for c, _ in verdict.failures)
    # same shape over a second torus factor is fine
    G2 = GroupDescriptor(2, ())
    ok = HarishChandraPair(Q, G2, [G2.character([1, 0]), G2.character([-1, 0])])
    ok.set_bracket(0, 1, LieFunctional(G2, Q, free=[0, 1]))
    assert check_pair(ok).ok


def test_check_pair_self_annihilation_on_last_weight():
    # [v0, v1] = (free: 0, 1) pairs to zero with the weights of v0 and v1;
    # only the weight (0, 1) of the last vector detects the violation
    G2 = GroupDescriptor(2, ())
    pair = HarishChandraPair(Q, G2, [G2.character([1, 0]), G2.character([-1, 0]),
                                     G2.character([0, 1])])
    pair.set_bracket(0, 1, LieFunctional(G2, Q, free=[0, 1]))
    verdict = check_pair(pair)
    assert not verdict.ok
    assert verdict.failures == [("self-annihilation", "<[v0,v1], weight(v2)> = 1"),
                                ("self-annihilation", "<[v1,v0], weight(v2)> = 1")]
    with pytest.raises(UnsupportedBase):
        normal_chain(pair)


def test_check_normal_central_additive_factor():
    pair = counterexample_pair(Q, 1, 1)
    sub = SubPair(frozenset({0}), list(GaGm.generators()), [])
    assert check_normal(pair, sub).ok


def test_check_normal_rejects_bracket_escape():
    # W = V with nonzero bracket cannot sit over the trivial subgroup
    pair = one_dim_pair(Q, Gm, Gm.identity(), LieFunctional(Gm, Q, free=[2]))
    sub = SubPair(frozenset(), list(Gm.generators()), [pair.basis_vector(0)])
    verdict = check_normal(pair, sub)
    assert not verdict.ok
    assert any("(iv)" in c or "[W,W]" in c for c, _ in verdict.failures)


def test_whole_and_trivial_subpairs():
    pair = counterexample_pair(Q, 1, 1)
    assert check_normal(pair, SubPair.whole(pair)).ok
    assert check_normal(pair, SubPair.trivial(pair)).ok


def test_quotient_by_additive_factor_gives_multiplicative_family():
    pair = counterexample_pair(Q, 2, 3)  # alpha=2, beta=3
    sub = SubPair(frozenset({0}), list(GaGm.generators()), [])
    quotient = quotient_pair(pair, sub)
    assert quotient.base.free_rank == 1 and quotient.base.additive_rank == 0
    assert quotient.weights[0].is_identity()
    assert quotient.bracket[0][0].free[0] == Q.from_int(6)  # 2*beta
    assert check_pair(quotient).ok


def test_quotient_trivial_and_whole():
    pair = counterexample_pair(Q, 1, 1)
    by_trivial = quotient_pair(pair, SubPair.trivial(pair))
    assert by_trivial.dim_v == 1 and by_trivial.base.additive_rank == 1
    assert by_trivial.base.free_rank == 1
    # quotient by the trivial sub-pair reproduces the pair up to the sign of
    # the abstract free generator
    b0 = by_trivial.bracket[0][0]
    assert b0.additive == pair.bracket[0][0].additive
    assert b0.free[0] in (pair.bracket[0][0].free[0], -pair.bracket[0][0].free[0])
    by_whole = quotient_pair(pair, SubPair.whole(pair))
    assert by_whole.dim_v == 0
    assert by_whole.base.free_rank == 0 and not by_whole.base.torsion


def test_quotient_passes_check_pair_randomized():
    rng = random.Random(5)
    for _ in range(10):
        base = GroupDescriptor(1, (4,))
        weights = [base.identity(), base.character([0, 2]), base.character([0, 2]).inverse()]
        pair = HarishChandraPair(Q, base, weights)
        pair.set_bracket(0, 0, LieFunctional(base, Q, free=[rng.randint(0, 3)], torsion=[0]))
        assert check_pair(pair).ok
        sub = SubPair(frozenset(), [base.character([0, 2])],
                      [pair.basis_vector(1), pair.basis_vector(2)])
        verdict = check_normal(pair, sub)
        if verdict.ok:
            quotient = quotient_pair(pair, sub)
            assert check_pair(quotient).ok


def test_super_diagonalizable_examples():
    assert super_diagonalizable(pair_72())[0]
    zero = HarishChandraPair(Q, Gm, [Gm.identity()])
    ok, cert = super_diagonalizable(zero)
    assert not ok and cert["witness"] == "1"
    empty = HarishChandraPair(Q, Gm, [])
    assert super_diagonalizable(empty)[0]
    with pytest.raises(BaseNotDiagonalizable):
        super_diagonalizable(counterexample_pair(Q, 1, 1))


def test_radical_matches_diagonalizability():
    rng = random.Random(31)
    for _ in range(20):
        base = GroupDescriptor(0, (4,))
        n = rng.randint(1, 3)
        weights = [base.character([rng.choice([0, 2])]) for _ in range(n)]
        pair = HarishChandraPair(F5, base, weights)
        for i in range(n):
            for j in range(i, n):
                if (weights[i] * weights[j]).is_identity() and rng.random() < 0.7:
                    val = LieFunctional(base, F5, torsion=[0]).scale(0)
                    # torsion part of Lie vanishes here (4 invertible mod 5),
                    # so brackets must be zero; use them only when weights pair
                    pair.set_bracket(i, j, val)
        assert super_diagonalizable(pair)[0] == unipotent_radical_trivial(pair)
    # a case with nonzero brackets
    mu5 = GroupDescriptor(0, (5,))
    p = one_dim_pair(F5, mu5, mu5.identity(), LieFunctional(mu5, F5, torsion=[2]))
    assert super_diagonalizable(p)[0] == unipotent_radical_trivial(p) is True


def test_radical_verdicts_for_one_odd_dimension():
    mu5 = GroupDescriptor(0, (5,))
    p = one_dim_pair(F5, mu5, mu5.identity(), LieFunctional(mu5, F5, torsion=[2]))
    assert unipotent_radical_trivial(p)
    p0 = one_dim_pair(F5, mu5, mu5.identity(), LieFunctional.zero(mu5, F5))
    assert not unipotent_radical_trivial(p0)
    assert unipotent_radical_trivial(HarishChandraPair(F5, mu5, []))


def test_abelian_normal_form():
    mu3 = GroupDescriptor(0, (3,))
    product = HarishChandraPair(Q, mu3, [mu3.identity()])
    assert abelian_normal_form(product) == (mu3, 1)
    assert abelian_normal_form(pair_72()) is None
    nontrivial_weight = HarishChandraPair(Q, mu3, [mu3.character([1])])
    assert abelian_normal_form(nontrivial_weight) is None
    empty = HarishChandraPair(Q, Gm, [])
    assert abelian_normal_form(empty) == (Gm, 0)


def test_72_has_no_product_decomposition():
    assert find_product_decomposition(pair_72()) is None
    # sanity: a pair that does decompose
    mu3 = GroupDescriptor(0, (3,))
    split = HarishChandraPair(Q, mu3, [mu3.identity(), mu3.identity()])
    split.set_bracket(0, 0, LieFunctional.zero(mu3, Q))
    assert find_product_decomposition(split) is not None


def _assert_split_witness(pair, split):
    """V = V' (+) Kw with w of trivial weight and [w, V] = 0 in every
    coordinate, V' spanned by weight vectors."""
    (w,) = split["trivial_base_part"]
    vectors = [w] + split["full_base_part"]
    assert len(vectors) == pair.dim_v == superlin.rank(vectors, pair.field)
    assert all(pair.weights[i].is_identity() for i, c in enumerate(w) if not c.is_zero())
    assert all(pair.bracket_of_vectors(w, pair.basis_vector(i)).is_zero()
               for i in range(pair.dim_v))
    for v in split["full_base_part"]:
        assert len({pair.weights[i].exps for i, c in enumerate(v) if not c.is_zero()}) == 1


def test_product_decomposition_off_the_basis():
    # every bracket is x = (free: 1): no split of the basis has zero cross
    # brackets, but w = e0 - e1 brackets to zero against V
    pair = HarishChandraPair(Q, Gm, [Gm.identity(), Gm.identity()])
    for i, j in ((0, 0), (0, 1), (1, 1)):
        pair.set_bracket(i, j, LieFunctional(Gm, Q, free=[1]))
    assert check_pair(pair).ok
    assert product_decomposition_bruteforce(pair) is None
    split = find_product_decomposition(pair)
    (w,) = split["trivial_base_part"]
    assert not w[0].is_zero() and w[0] == -w[1]
    _assert_split_witness(pair, split)


def test_product_decomposition_reads_additive_coordinates():
    x = LieFunctional(GaGm, Q, free=[0], additive=[1])
    hyperbolic = HarishChandraPair(Q, GaGm, [GaGm.identity()] * 2)
    hyperbolic.set_bracket(0, 1, x)
    assert check_pair(hyperbolic).ok and find_product_decomposition(hyperbolic) is None
    square = HarishChandraPair(Q, GaGm, [GaGm.identity()] * 2)
    square.set_bracket(0, 0, x)
    split = find_product_decomposition(square)
    assert split["trivial_base_part"] == [square.basis_vector(1)]
    _assert_split_witness(square, split)
    # two nonempty parts: a single odd line never splits, and the pair must be valid
    assert find_product_decomposition(HarishChandraPair(Q, GaGm, [GaGm.identity()])) is None
    chi = HarishChandraPair(Q, GaGm, [GaGm.character([1]), GaGm.identity()])
    chi.set_bracket(0, 0, x)
    with pytest.raises(UnsupportedBase):
        find_product_decomposition(chi)


def _random_pair(field, entry, rng):
    """A valid pair of dimension 1..4: trivial weights with any brackets, or
    trivial and opposite weights chi^{+-1} with additive-only brackets."""
    base = rng.choice([Gm, GaGm, GroupDescriptor(0, (5,), 1)])
    opposite = base.additive_rank and rng.random() < 0.5
    exps = [rng.choice((0, 1, -1)) if opposite else 0 for _ in range(rng.randint(1, 4))]
    pair = HarishChandraPair(field, base, [base.character([e]) for e in exps])
    zero = field.zero()
    for i in range(pair.dim_v):
        for j in range(i, pair.dim_v):
            if exps[i] + exps[j] or rng.random() < 0.5:
                continue
            free = [zero if opposite else entry(rng) for _ in range(base.free_rank)]
            torsion = [zero if opposite or field.characteristic != 5 else entry(rng)
                       for _ in base.torsion]
            additive = [entry(rng) for _ in range(base.additive_rank)]
            pair.set_bracket(i, j, LieFunctional(base, field, free, torsion, additive))
    assert check_pair(pair).ok
    return pair


def _rebased(pair, entry, rng):
    """The pair on a random weight-homogeneous basis: the new basis vectors
    are the columns of an invertible matrix that is block-diagonal by weight."""
    n, zero = pair.dim_v, pair.field.zero()
    while True:
        cols = [[entry(rng) if pair.weights[i] == pair.weights[a] else zero for i in range(n)]
                for a in range(n)]
        if superlin.rank(cols, pair.field) == n:
            break
    out = HarishChandraPair(pair.field, pair.base, pair.weights)
    for a in range(n):
        for b in range(a, n):
            out.set_bracket(a, b, pair.bracket_of_vectors(cols[a], cols[b]))
    return out


def test_product_decomposition_against_basis_search():
    """Where the search over splits of the basis finds one, the radical does;
    every split returned is a witness, and the verdict is basis-free."""
    Qi = QuadraticField(-1)
    i_unit = Qi.generator()
    cases = [
        (Q, lambda r: Q.from_int(r.randint(-2, 2))),
        (F5, lambda r: F5.from_int(r.randrange(5))),
        (Qi, lambda r: Qi.from_int(r.randint(-1, 1)) + i_unit * r.randint(-1, 1)),
    ]
    seen = set()
    for field, entry in cases:
        rng = random.Random(71)
        for _ in range(60):
            pair = _random_pair(field, entry, rng)
            split = find_product_decomposition(pair)
            by_basis = product_decomposition_bruteforce(pair) is not None
            assert split is not None or not by_basis
            if split is not None:
                _assert_split_witness(pair, split)
            rebased = _rebased(pair, entry, rng)
            assert (find_product_decomposition(rebased) is None) == (split is None)
            seen.add((by_basis, split is not None))
    assert seen == {(False, False), (False, True), (True, True)}


def test_normal_chain_one_odd_dimension():
    p = one_dim_pair(Q, Gm, Gm.identity(), LieFunctional(Gm, Q, free=[2]))
    result = normal_chain(p)
    assert [str(f) for f in result.factors] == ["Ga_minus"]
    assert result.base0 == Gm


def test_normal_chain_pure_even():
    result = normal_chain(HarishChandraPair(Q, mu4, []))
    assert result.factors == []
    assert result.base0 == mu4


def test_normal_chain_semidirect_and_product():
    mu3 = GroupDescriptor(0, (3,))
    product = HarishChandraPair(Q, mu3, [mu3.identity()])
    res = normal_chain(product)
    assert [str(f) for f in res.factors] == ["Ga_minus"]
    assert res.base0 == mu3
    twisted = HarishChandraPair(Q, mu3, [mu3.character([1])])
    res2 = normal_chain(twisted)
    assert [str(f) for f in res2.factors] == ["mu(3)", "Ga_minus"]
    assert res2.base0.free_rank == 0 and not res2.base0.torsion


def test_normal_chain_counts_and_validates():
    G2 = GroupDescriptor(2, ())
    pair = HarishChandraPair(Q, G2, [G2.character([1, 0]), G2.character([-1, 0]),
                                     G2.identity()])
    pair.set_bracket(0, 1, LieFunctional(G2, Q, free=[0, 1]))
    pair.set_bracket(2, 2, LieFunctional(G2, Q, free=[0, 2]))
    result = normal_chain(pair)
    odd = [f for f in result.factors if f.kind == "Ga_minus"]
    assert len(odd) == pair.dim_v
    for f in result.factors:
        assert f.kind in ("Ga_minus", "Gm", "mu")
    assert all(step["normal"] for step in result.steps)


CHAIN_BASES = [
    GroupDescriptor(2, ()),
    GroupDescriptor(2, (), 1),
    GroupDescriptor(1, (4,)),
    GroupDescriptor(1, (4,), 1),
    GroupDescriptor(2, (3,), 1),
    GroupDescriptor(1, (2, 3)),
]


def _random_chain_pair(field, rng):
    """A valid pair of dimension 1..6 whose weights are powers d^k, |k| <= 2,
    of one character d (so d = (1, 2) gives (2, 4), whose quotient gains
    torsion). Brackets join opposite weights; their D-part annihilates d,
    hence every weight, and their additive part is arbitrary."""
    base = rng.choice(CHAIN_BASES)
    r = base.free_rank
    d = [rng.randint(-2, 2) for _ in range(r)] + [rng.randrange(n) for n in base.torsion]
    if r == 2:
        free_dir = [d[1], -d[0]]
    else:
        free_dir = [0] if d[0] else [1]
    ks = [rng.randint(-2, 2) for _ in range(rng.randint(1, 6))]
    pair = HarishChandraPair(field, base, [base.character([k * e for e in d]) for k in ks])
    for i in range(pair.dim_v):
        for j in range(i, pair.dim_v):
            if not (pair.weights[i] * pair.weights[j]).is_identity() or rng.random() < 0.4:
                continue
            c = rng.randint(-2, 2)
            additive = [rng.randint(-2, 2) for _ in range(base.additive_rank)]
            pair.set_bracket(i, j, LieFunctional(base, field, [c * e for e in free_dir],
                                                 [0] * len(base.torsion), additive))
    return pair


def test_normal_chain_matches_stepwise_oracle():
    """The weights-only chain equals the chain built by re-validating and
    rebuilding every step's sub-pair; it has dim V Ga_minus factors, and both
    refuse an invalid pair."""
    rng = random.Random(25)
    for field in (Q, F5):
        for _ in range(40):
            pair = _random_chain_pair(field, rng)
            assert check_pair(pair).ok
            result = normal_chain(pair)
            assert result.to_json() == normal_chain_stepwise(pair).to_json()
            assert sum(f.kind == "Ga_minus" for f in result.factors) == pair.dim_v
            # an opposite pair (c, c^-1) bracketing to x with <x, c> = 1
            base, n = pair.base, pair.dim_v
            c = base.character([1] + [rng.randint(-2, 2) for _ in range(base.ncoords - 1)])
            bad = HarishChandraPair(field, base, pair.weights + [c, c.inverse()])
            e0 = [1] + [0] * (base.free_rank - 1)
            bad.set_bracket(n, n + 1, LieFunctional(base, field, e0, [0] * len(base.torsion),
                                                    [0] * base.additive_rank))
            for chain in (normal_chain, normal_chain_stepwise):
                with pytest.raises(UnsupportedBase):
                    chain(bad)


def test_classification_golden_file():
    import json
    import os

    with open(os.path.join(os.path.dirname(__file__), "data", "iso_ggx_golden.json")) as fh:
        golden = json.load(fh)

    def gx(field, lam):
        return GXData(field, Gm, Gm.identity(), LieFunctional(Gm, field, free=[lam]))

    for case in golden["Q"]:
        verdict, alpha = classify_iso(gx(Q, case["lambda1"]), gx(Q, case["lambda2"]))
        assert (verdict == "isomorphic") == case["isomorphic"], case
        if alpha is not None:
            # alpha^2 * lambda2 = +- lambda1
            sq = alpha * alpha * Q.from_int(case["lambda2"])
            assert sq == Q.from_int(case["lambda1"]) or sq == Q.from_int(-case["lambda1"])
    for case in golden["F5"]:
        verdict, _ = classify_iso(gx(F5, case["lambda1"]), gx(F5, case["lambda2"]))
        assert (verdict == "isomorphic") == case["isomorphic"], case


def test_classification_additive_base_always_isomorphic():
    def gxa(lam):
        return GXData(Q, Ga, Ga.identity(), LieFunctional(Ga, Q, additive=[lam]))

    assert classify_iso(gxa(1), gxa(7))[0] == "isomorphic"
    assert classify_iso(gxa(3), gxa(-5))[0] == "isomorphic"


def test_classification_reflexive_symmetric_randomized():
    rng = random.Random(19)
    for field in (Q, F5):
        for _ in range(15):
            lam1 = field.random(rng)
            lam2 = field.random(rng)
            if lam1.is_zero() or lam2.is_zero():
                continue
            d1 = GXData(field, Gm, Gm.identity(), LieFunctional(Gm, field, free=[lam1]))
            d2 = GXData(field, Gm, Gm.identity(), LieFunctional(Gm, field, free=[lam2]))
            assert classify_iso(d1, d1)[0] == "isomorphic"
            assert classify_iso(d1, d2)[0] == classify_iso(d2, d1)[0]


def test_classification_undecidable_over_function_fields():
    K = GF(5)
    from superhopf.fields import FunctionField

    K = FunctionField(5, "t")
    t = K.generator()
    d1 = GXData(K, Gm, Gm.identity(), LieFunctional(Gm, K, free=[t]))
    d2 = GXData(K, Gm, Gm.identity(), LieFunctional(Gm, K, free=[K.one()]))
    assert classify_iso(d1, d2)[0] == "undecidable"


def test_classification_uses_inversion_on_free_factors():
    d1 = GXData(Q, mu4, mu4.character([1]), LieFunctional.zero(mu4, Q))
    d2 = GXData(Q, mu4, mu4.character([3]), LieFunctional.zero(mu4, Q))
    # inversion acts only on free factors; distinct torsion grouplikes stay apart
    assert classify_iso(d1, d2)[0] == "not_isomorphic"
    d3 = GXData(Q, Gm, Gm.character([2]), LieFunctional.zero(Gm, Q))
    d4 = GXData(Q, Gm, Gm.character([-2]), LieFunctional.zero(Gm, Q))
    assert classify_iso(d3, d4)[0] == "isomorphic"


def test_center_even():
    rep = center_even(GXData(Q, Gm, Gm.character([1]), LieFunctional.zero(Gm, Q)))
    assert rep["d_part_trivial"] and not rep["is_whole_base"]
    rep = center_even(GXData(Q, Gm, Gm.identity(), LieFunctional(Gm, Q, free=[1])))
    assert rep["is_whole_base"]
    rep = center_even(GXData(Q, mu4, mu4.character([2]), LieFunctional.zero(mu4, Q)))
    assert rep["kernel_of_g"]["torsion"] == [2]


def test_nilpotency_and_conditions():
    nil = GXData(Q, Gm, Gm.identity(), LieFunctional(Gm, Q, free=[3]))
    assert is_nilpotent(nil)
    conds = nilpotency_conditions(nil)
    assert conds["d_even_nilpotent_and_mult_center_acts_trivially"]
    assert conds["a_quotient_by_central_mult_part_unipotent"]
    non = GXData(Q, mu4, mu4.character([2]), LieFunctional.zero(mu4, Q))
    assert not is_nilpotent(non)
    conds = nilpotency_conditions(non)
    assert not conds["d_even_nilpotent_and_mult_center_acts_trivially"]
    assert not conds["a_quotient_by_central_mult_part_unipotent"]
    nil_a = GXData(Q, Ga, Ga.identity(), LieFunctional(Ga, Q, additive=[1]))
    assert is_nilpotent(nil_a)


def test_nilpotent_implies_condition_d_sweep():
    rng = random.Random(8)
    bases = [Gm, mu4, Ga, GaGm]
    count = 0
    for base in bases:
        for _ in range(5):
            g = base.identity() if rng.random() < 0.5 else base.character(
                [rng.randint(-2, 2) for _ in range(base.ncoords)]
            )
            x = LieFunctional.zero(base, Q)
            if g.is_identity() or (g * g).is_identity():
                free = [rng.randint(0, 2) for _ in range(base.free_rank)]
                add = [rng.randint(0, 2) for _ in range(base.additive_rank)]
                if g.is_identity():
                    x = LieFunctional(base, Q, free, [0] * len(base.torsion), add)
            d = GXData(Q, base, g, x)
            count += 1
            if is_nilpotent(d):
                assert nilpotency_conditions(d)[
                    "d_even_nilpotent_and_mult_center_acts_trivially"
                ]
    assert count >= 20


def test_counterexample_family_table():
    expected = {
        (0, 0): (True, False, True),
        (0, 1): (True, True, True),
        (1, 0): (False, False, True),
        (1, 1): (False, True, True),
    }
    for (a, b), (splits, rad, trig) in expected.items():
        rep = splitting_counterexample(Q, a, b)
        assert rep.splits == splits
        assert rep.radical_is_additive_factor == rad
        assert rep.super_trigonalizable == trig
    headline = splitting_counterexample(Q, 1, 1)
    assert headline.headline


def test_counterexample_family_other_fields():
    rep = splitting_counterexample(F5, 1, 1)
    assert not rep.splits and rep.radical_is_additive_factor
    rep = splitting_counterexample(QuadraticField(-1), 0, 1)
    assert rep.splits


def test_unipotent_radical_subpair_structure():
    pair = counterexample_pair(Q, 1, 0)  # beta = 0: radical swallows V
    rad = unipotent_radical_subpair(pair)
    assert len(rad.vectors) == 1
    assert check_normal(pair, rad).ok
    sub = sub_pair_as_pair(pair, rad)
    assert sub.base.additive_rank == 1 and sub.base.free_rank == 0
    assert check_pair(sub).ok


def test_pair_json_roundtrip():
    pair = counterexample_pair(Q, 1, 2)
    data = pair.to_json()
    back = HarishChandraPair.from_json(data)
    assert back.to_json() == data
    assert check_pair(back).ok


def test_invalid_subpair_rejected():
    pair = pair_72()
    mixed = [pair.field.one(), pair.field.one()]
    # mixing weights is fine here (both trivial); use a wrong length instead
    with pytest.raises(InvalidSubPair):
        check_normal(pair, SubPair(frozenset(), [], [[pair.field.one()]]))
