import random

import pytest

from superhopf import superlin
from superhopf.chargroup import GroupDescriptor, LieFunctional
from superhopf.dgxrep import (
    DecompositionError,
    IndecompLabel,
    InvalidLabel,
    Supercomodule,
    canonical_label,
    comodule_homs,
    decompose,
    dual_pairing,
    dual_pairing_tampered,
    ext1,
    labels_isomorphic,
    restrict,
    socle,
    socle_vectors,
    standard_object,
    tensor_comodule,
)
from superhopf.fields import GF, QQ, QuadraticField
from superhopf.hopfcore import build_algebra

from oracles import comodule_label_multiset_bruteforce, ext1_bruteforce

Q = QQ()
F5 = GF(5)
mu4 = GroupDescriptor(0, (4,))
mu5 = GroupDescriptor(0, (5,))


def algebra_mu4(g_exp=1, field=F5):
    return build_algebra(field, mu4, mu4.character([g_exp]), LieFunctional.zero(mu4, field))


def algebra_mu5():
    return build_algebra(F5, mu5, mu5.identity(), LieFunctional(mu5, F5, torsion=[1]))


def scramble(m, rng, entry=None):
    return scramble_with_matrix(m, rng, entry)[0]


def scramble_with_matrix(m, rng, entry=None):
    """A random invertible parity-preserving change of basis of m, as
    (scrambled comodule, matrix)."""
    field = m.field
    n = m.dim
    for _ in range(300):
        mat = [[field.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if m.parities[i] == m.parities[j]:
                    mat[i][j] = entry(rng) if entry else field.from_int(rng.randrange(field.p))
        try:
            return m.change_basis(mat), mat
        except DecompositionError:
            continue
    raise RuntimeError("no invertible change of basis found")


def test_standard_objects_validate():
    alg = algebra_mu4()
    for kind, char, shifted in [("S", (0,), False), ("S", (3,), True),
                                ("L", (1,), False), ("L", (2,), True)]:
        m = standard_object(alg, IndecompLabel(kind, char, shifted))
        assert not m.validate()
    alg5 = algebra_mu5()
    for label in [IndecompLabel("S", (0,), False), IndecompLabel("L", (2,), True)]:
        assert not standard_object(alg5, label).validate()


def test_s_label_requires_annihilated_character():
    alg = algebra_mu5()
    with pytest.raises(InvalidLabel):
        standard_object(alg, IndecompLabel("S", (1,), False))
    # the identity is always annihilated
    assert standard_object(alg, IndecompLabel("S", (0,), False)).dim == 1


def test_validate_rejects_dropped_term():
    alg = algebra_mu5()
    m = standard_object(alg, IndecompLabel("L", (1,), False))
    rows = [list(row) for row in m.coaction]
    rows[1] = [entry for entry in rows[1] if entry[3] == 0]  # drop the z-term
    broken = Supercomodule(alg, m.parities, rows)
    assert broken.validate()


def test_direct_sums_validate():
    alg = algebra_mu4()
    a = standard_object(alg, IndecompLabel("L", (1,), False))
    b = standard_object(alg, IndecompLabel("S", (2,), True))
    assert not a.direct_sum(b).validate()


def test_socle_of_standard_objects():
    alg = algebra_mu4()  # x = 0: every character annihilated
    L = standard_object(alg, IndecompLabel("L", (1,), False))
    soc, basis = socle(L)
    assert soc.dim == 1 and soc.parities == (0,)
    alg5 = algebra_mu5()
    L2 = standard_object(alg5, IndecompLabel("L", (2,), False))
    soc2, _ = socle(L2)
    assert soc2.dim == 2  # simple: socle is everything
    semis = standard_object(alg5, IndecompLabel("S", (0,), False)).direct_sum(
        standard_object(alg5, IndecompLabel("S", (0,), True))
    )
    soc3, _ = socle(semis)
    assert soc3.dim == 2


def test_decompose_regular_window():
    alg = algebra_mu4()
    big = None
    for h in mu4.all_characters():
        Lh = standard_object(alg, IndecompLabel("L", h.exps, False))
        big = Lh if big is None else big.direct_sum(Lh)
    res = decompose(big)
    assert res.label_multiset() == ["L(0)", "L(1)", "L(2)", "L(3)"]


def test_decompose_empty():
    alg = algebra_mu4()
    empty = Supercomodule(alg, (), [])
    res = decompose(empty)
    assert res.label_multiset() == []


def test_decompose_scrambled_and_oracle_agreement():
    rng = random.Random(101)
    alg = algebra_mu4()
    pool = [IndecompLabel("L", (i,), s) for i in range(4) for s in (False, True)]
    pool += [IndecompLabel("S", (i,), s) for i in range(4) for s in (False, True)]
    done = 0
    while done < 25:
        chosen = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 3))]
        total = sum(2 if l.kind == "L" else 1 for l in chosen)
        if total > 6:
            continue
        m = None
        for lab in chosen:
            so = standard_object(alg, lab)
            m = so if m is None else m.direct_sum(so)
        ms = scramble(m, rng)
        res = decompose(ms)
        expect = sorted(str(canonical_label(alg, l)) for l in chosen)
        assert res.label_multiset() == expect
        assert res.label_multiset() == comodule_label_multiset_bruteforce(ms, 5)
        done += 1


def _is_morphism(f, a, b):
    """rho_b(f(m_i)) == (f (x) id)(rho_a(m_i)) for every basis vector m_i of a."""
    field = a.field
    for i in range(a.dim):
        lhs = b.coact_vector([f[t][i] for t in range(b.dim)])
        rhs = {}
        for j, c, chars, eps in a.coaction[i]:
            for t in range(b.dim):
                key = (t, chars, eps)
                rhs[key] = rhs.get(key, field.zero()) + c * f[t][j]
        if lhs != {k: v for k, v in rhs.items() if not v.is_zero()}:
            return False
    return True


def test_comodule_homs_are_even_morphisms_randomized():
    rng = random.Random(41)
    Qi = QuadraticField(-1)
    i_unit = Qi.generator()
    cases = [
        (algebra_mu5(), None),
        (algebra_mu4(g_exp=2), None),
        (algebra_mu4(g_exp=2, field=Qi),
         lambda r: Qi.from_int(r.randint(-2, 2)) + i_unit * r.randint(-2, 2)),
    ]
    total = 0
    for alg, entry in cases:
        n = alg.group.torsion[0]
        pool = [IndecompLabel("L", (c,), s) for c in range(n) for s in (False, True)]
        pool += [IndecompLabel("S", (c,), s) for c in range(n) for s in (False, True)
                 if alg.pair_char((c,)).is_zero()]
        for _ in range(8):
            sums = []
            for _ in range(2):
                m = None
                for lab in rng.sample(pool, rng.randint(1, 2)):
                    so = standard_object(alg, lab)
                    m = so if m is None else m.direct_sum(so)
                sums.append(scramble(m, rng, entry))
            a, b = sums
            homs = comodule_homs(a, b)
            for f in homs:
                for t in range(b.dim):
                    for j in range(a.dim):
                        if b.parities[t] != a.parities[j]:
                            assert f[t][j].is_zero()
                assert _is_morphism(f, a, b)
            flat = [[c for row in f for c in row] for f in homs]
            assert superlin.rank(flat, alg.field) == len(homs)
            total += len(homs)
    assert total > 0


def _scrambled_with_blocks(alg, labels, rng, entry):
    """A scrambled direct sum of standard objects and, per summand, its basis
    as (parity, vector) pairs in the scrambled coordinates."""
    m = None
    for lab in labels:
        so = standard_object(alg, lab)
        m = so if m is None else m.direct_sum(so)
    field, n = alg.field, m.dim
    ms, mat = scramble_with_matrix(m, rng, entry)
    # old basis vector m_j in the new coordinates: mat * x = e_j
    old = [(m.parities[j], superlin.solve(mat, [field.one() if i == j else field.zero()
                                                for i in range(n)], field))
           for j in range(n)]
    blocks, start = [], 0
    for lab in labels:
        size = 2 if lab.kind == "L" else 1
        blocks.append(old[start:start + size])
        start += size
    return ms, blocks


def _reference_restriction(m, vectors):
    """Coaction of the span of `vectors`, one solve per basis vector and
    coacting monomial."""
    field = m.field
    basis = [v for _, v in vectors]
    columns = [[v[i] for v in basis] for i in range(m.dim)]
    rows = []
    for v in basis:
        per_mono = {}
        for (j, chars, eps), c in m.coact_vector(v).items():
            per_mono.setdefault((chars, eps), [field.zero()] * m.dim)[j] = c
        rows.append([(t, c, chars, eps) for (chars, eps), target in per_mono.items()
                     for t, c in enumerate(superlin.solve(columns, target, field))])
    return Supercomodule(m.algebra, [p for p, _ in vectors], rows)


def test_restrict_matches_per_monomial_solves():
    rng = random.Random(61)
    Qi = QuadraticField(-1)
    i_unit = Qi.generator()
    cases = [
        (algebra_mu4(), None),
        (algebra_mu4(g_exp=2, field=Qi),
         lambda r: Qi.from_int(r.randint(-2, 2)) + i_unit * r.randint(-2, 2)),
    ]
    unstable = 0
    for alg, entry in cases:
        pool = [IndecompLabel(kind, (c,), s) for kind in "LS" for c in range(4)
                for s in (False, True)]
        for _ in range(6):
            labels = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
            ms, blocks = _scrambled_with_blocks(alg, labels, rng, entry)
            for vectors in (socle_vectors(ms), rng.choice(blocks)):
                sub, basis = restrict(ms, vectors)
                assert basis == [v for _, v in vectors]
                assert sub.parities == tuple(p for p, _ in vectors)
                assert sub.coaction == _reference_restriction(ms, vectors).coaction
                assert sub.validate() == []
            for lab, block in zip(labels, blocks):
                if lab.kind == "L":
                    # the top vector of L(h) alone spans no subcomodule
                    with pytest.raises(DecompositionError):
                        restrict(ms, block[1:])
                    unstable += 1
    assert unstable > 0
    empty, basis = restrict(ms, [])
    assert empty.dim == 0 and basis == []


def test_decompose_iso_is_verified_morphism():
    rng = random.Random(55)
    alg = algebra_mu5()
    m = standard_object(alg, IndecompLabel("L", (1,), False)).direct_sum(
        standard_object(alg, IndecompLabel("S", (0,), True))
    )
    ms = scramble(m, rng)
    res = decompose(ms)
    assert len(res.iso_matrix) == ms.dim
    dims = sum(2 if l.kind == "L" else 1 for l in res.labels)
    assert dims == ms.dim


def test_label_isomorphism_identification():
    alg5 = algebra_mu5()
    a = IndecompLabel("L", (1,), False)
    b = IndecompLabel("L", (1,), True)
    assert labels_isomorphic(alg5, a, b)  # g = 1 here
    assert len(comodule_homs(standard_object(alg5, a), standard_object(alg5, b))) == 1
    # with g of order 2 the identification pairs h with g*h instead
    mu10 = GroupDescriptor(0, (10,))
    alg10 = build_algebra(F5, mu10, mu10.character([5]),
                          LieFunctional(mu10, F5, torsion=[1]))
    c = IndecompLabel("L", (1,), False)
    d = IndecompLabel("L", (6,), True)
    assert labels_isomorphic(alg10, c, d)
    assert not labels_isomorphic(alg10, c, IndecompLabel("L", (1,), True))
    assert len(comodule_homs(standard_object(alg10, c), standard_object(alg10, d))) == 1
    # non-simple L's and lines admit no identification
    alg4 = algebra_mu4()
    assert not labels_isomorphic(alg4, IndecompLabel("L", (1,), False),
                                 IndecompLabel("L", (1,), True))
    assert not labels_isomorphic(alg4, IndecompLabel("S", (1,), False),
                                 IndecompLabel("S", (1,), True))


def test_ext1_case_analysis():
    alg = algebra_mu4(g_exp=1)
    dim, rep, rep_label = ext1(alg, IndecompLabel("S", (3,), True), IndecompLabel("S", (2,), False))
    assert dim == 1 and rep is not None
    assert rep_label == IndecompLabel("L", (2,), False)
    # same parities: zero
    assert ext1(alg, IndecompLabel("S", (3,), False), IndecompLabel("S", (2,), False))[0] == 0
    # wrong character ratio: zero
    assert ext1(alg, IndecompLabel("S", (1,), True), IndecompLabel("S", (2,), False))[0] == 0
    # self-extension vanishes
    assert ext1(alg, IndecompLabel("S", (2,), False), IndecompLabel("S", (2,), False))[0] == 0
    # simple L against anything: zero
    alg5 = algebra_mu5()
    assert ext1(alg5, IndecompLabel("L", (1,), False), IndecompLabel("S", (0,), False))[0] == 0
    assert ext1(alg5, IndecompLabel("S", (0,), False), IndecompLabel("L", (1,), False))[0] == 0


def test_ext1_rejects_non_simple_labels():
    alg = algebra_mu4()
    with pytest.raises(InvalidLabel):
        ext1(alg, IndecompLabel("L", (1,), False), IndecompLabel("S", (0,), False))


def test_ext1_matches_bruteforce_oracle():
    F3 = GF(3)
    mu4_3 = GroupDescriptor(0, (4,))
    alg = build_algebra(F3, mu4_3, mu4_3.character([1]), LieFunctional.zero(mu4_3, F3))
    labels = [IndecompLabel("S", (c,), s) for c in range(4) for s in (False, True)]
    for s in labels:
        for t in labels:
            assert ext1(alg, s, t)[0] == ext1_bruteforce(alg, s, t), (s, t)


def test_extension_representative_has_right_socle():
    alg = algebra_mu4(g_exp=1)
    dim, rep, _ = ext1(alg, IndecompLabel("S", (1,), True), IndecompLabel("S", (0,), False))
    assert dim == 1
    soc, _ = socle(rep)
    assert soc.dim == 1 and soc.parities == (0,)


def test_dual_pairing_verified():
    for alg in (algebra_mu4(), algebra_mu5(), algebra_mu4(g_exp=2, field=Q)):
        for h in alg.group.all_characters():
            rep = dual_pairing(alg, h)
            assert rep["is_morphism"] and rep["nondegenerate"], (alg.g, h)


def test_dual_pairing_tampered_fails():
    alg = algebra_mu4()
    rep = dual_pairing_tampered(alg, mu4.character([1]))
    assert not rep["is_morphism"]


def test_injective_embeddings_split():
    # any embedding of a 2-dimensional standard object into a small valid
    # comodule admits a retraction (solved exactly inside decompose's peeling)
    rng = random.Random(77)
    alg = algebra_mu5()
    for _ in range(10):
        labels = [IndecompLabel("L", (1,), False),
                  IndecompLabel("S", (0,), rng.random() < 0.5)]
        m = None
        for lab in labels:
            so = standard_object(alg, lab)
            m = so if m is None else m.direct_sum(so)
        ms = scramble(m, rng)
        res = decompose(ms)
        assert "L(1)" in res.label_multiset()


def test_parity_shift_involution_on_comodules():
    alg = algebra_mu4()
    m = standard_object(alg, IndecompLabel("L", (1,), False))
    assert m.parity_shift().parity_shift().parities == m.parities
    assert not m.parity_shift().validate()


def test_tensor_comodule_koszul_sign():
    alg = algebra_mu5()
    a = standard_object(alg, IndecompLabel("L", (1,), False))
    t = tensor_comodule(a, a)
    assert not t.validate()


def test_comodule_json_roundtrip():
    alg = algebra_mu5()
    m = standard_object(alg, IndecompLabel("L", (2,), True)).direct_sum(
        standard_object(alg, IndecompLabel("S", (0,), False))
    )
    data = m.to_json()
    back = Supercomodule.from_json(alg, data)
    assert back.to_json() == data
    assert not back.validate()
    assert decompose(back).label_multiset() == decompose(m).label_multiset()
