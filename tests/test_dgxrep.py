import json
import os
import random

import pytest

from superhopf import dgxrep, superlin
from superhopf.chargroup import GroupDescriptor, LieFunctional
from superhopf.dgxrep import (
    DecompositionError,
    IndecompLabel,
    InvalidLabel,
    Supercomodule,
    canonical_label,
    comodule_homs,
    coset_projectors,
    decompose,
    dual_pairing,
    ext1,
    restrict,
    socle,
    socle_vectors,
    standard_object,
    tensor_comodule,
)
from superhopf.fields import GF, QQ, FunctionField, QuadraticField
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


def _standard_sum(alg, labels):
    m = None
    for lab in labels:
        so = standard_object(alg, lab)
        m = so if m is None else m.direct_sum(so)
    return m


def _compose(f, g):
    """The matrix of f after g (matrices act on columns)."""
    zero = f[0][0].field.zero()
    return [[sum((f[t][k] * g[k][i] for k in range(len(g))), start=zero)
             for i in range(len(g[0]))] for t in range(len(f))]


def _is_invertible(mat):
    """Square matrix of full rank, by a forward elimination kept here so that
    the check does not rest on superlin."""
    rows = [row[:] for row in mat]
    n = len(rows)
    for c in range(n):
        pr = next((i for i in range(c, n) if not rows[i][c].is_zero()), None)
        if pr is None:
            return False
        rows[c], rows[pr] = rows[pr], rows[c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return True


def _multi_block_cases():
    """(algebra, labels, entry) for direct sums that meet several cosets of
    <g>, over F_5, Q(sqrt(-1)) and F_5(t), with x = 0 and x != 0."""
    Qi = QuadraticField(-1)
    i_unit = Qi.generator()
    F5t = FunctionField(5)
    t = F5t.generator()
    qi_entry = lambda r: Qi.from_int(r.randint(-2, 2)) + i_unit * r.randint(-2, 2)
    f5t_entry = lambda r: F5t.from_int(r.randrange(5)) + t * r.randrange(5)

    def L(c, shifted=False):
        return IndecompLabel("L", (c,), shifted)

    def S(c, shifted=False):
        return IndecompLabel("S", (c,), shifted)

    return [
        (algebra_mu4(g_exp=0), [L(1), S(2, True), L(3, True), S(0)], None),
        (algebra_mu4(g_exp=2), [L(1), S(2, True), L(0, True), S(3)], None),
        (algebra_mu4(g_exp=2, field=Qi), [L(3), S(0), L(2, True)], qi_entry),
        (algebra_mu4(g_exp=0, field=F5t), [L(2, True), S(1), S(3, True)], f5t_entry),
        (algebra_mu5(), [L(1), S(0, True), L(3, True), L(4)], None),
    ]


def test_decompose_iso_is_verified_morphism():
    """On multi-block inputs the isomorphism is even, invertible and a comodule
    map from the sum of the standard objects of res.blocks onto the input,
    all checked here, not by the library's own verification."""
    rng = random.Random(55)
    for alg, labels, entry in _multi_block_cases():
        ms = scramble(_standard_sum(alg, labels), rng, entry)
        res = decompose(ms)
        assert len(res.blocks) == len(res.labels) == len(labels)
        parities, rows = [], []
        for k, (label, _) in enumerate(res.blocks):
            assert canonical_label(alg, label) == res.labels[k]
            so = standard_object(alg, label)
            shift = len(parities)
            parities.extend(so.parities)
            rows.extend([(j + shift, c, ch, e) for j, c, ch, e in row] for row in so.coaction)
        total = Supercomodule(alg, parities, rows)
        iso = res.iso_matrix
        assert len(iso) == ms.dim and all(len(row) == total.dim == ms.dim for row in iso)
        assert all(iso[r][c].is_zero() for r in range(ms.dim) for c in range(total.dim)
                   if ms.parities[r] != total.parities[c])
        assert _is_invertible(iso)
        assert _is_morphism(iso, total, ms)
        assert res.label_multiset() == sorted(str(canonical_label(alg, l)) for l in labels)


def test_coset_projectors_are_orthogonal_idempotent_morphisms():
    rng = random.Random(7)
    zmu3 = GroupDescriptor(1, (3,))
    F3 = GF(3)
    cases = list(_multi_block_cases())
    # g of infinite order (x = 0 then, since x != 0 needs g^2 = 1): the
    # cosets of <g> are infinite
    cases.append((build_algebra(Q, zmu3, zmu3.character([1, 0]), LieFunctional.zero(zmu3, Q)),
                  [IndecompLabel("L", (-1, 2), False), IndecompLabel("S", (3, 2), True),
                   IndecompLabel("L", (0, 1), True), IndecompLabel("S", (2, 0), False)],
                  lambda r: Q.from_int(r.randint(-3, 3))))
    cases.append((build_algebra(F3, zmu3, zmu3.character([1, 1]), LieFunctional.zero(zmu3, F3)),
                  [IndecompLabel("L", (2, 1), False), IndecompLabel("S", (-1, 0), True),
                   IndecompLabel("L", (0, 2), True)], None))
    for alg, labels, entry in cases:
        m = scramble(_standard_sum(alg, labels), rng, entry)
        field, n = m.field, m.dim
        projectors = []
        for proj in coset_projectors(m).values():
            f = [[proj.get((i, t), field.zero()) for i in range(n)] for t in range(n)]
            assert all(f[t][i].is_zero() for t in range(n) for i in range(n)
                       if m.parities[t] != m.parities[i])
            assert _is_morphism(f, m, m)
            projectors.append(f)
        assert len(projectors) >= 2
        for a, f in enumerate(projectors):
            for b, e in enumerate(projectors):
                product = _compose(f, e)
                assert product == (f if a == b else [[field.zero()] * n for _ in range(n)])
        total = [[sum((f[t][i] for f in projectors), start=field.zero()) for i in range(n)]
                 for t in range(n)]
        assert total == [[field.one() if t == i else field.zero() for i in range(n)]
                         for t in range(n)]


def _perturbed(m, kind, rng):
    """m with one coefficient changed, one entry dropped or one entry added."""
    field = m.field
    rows = [list(row) for row in m.coaction]
    i = rng.choice([r for r in range(m.dim) if rows[r]])
    k = rng.randrange(len(rows[i]))
    if kind == "changed":
        j, c, chars, eps = rows[i][k]
        rows[i][k] = (j, c + field.from_int(rng.randrange(1, 5)), chars, eps)
    elif kind == "dropped":
        del rows[i][k]
    else:
        chars = rng.choice([e for row in rows for _, _, e, _ in row])
        rows[i].append((rng.randrange(m.dim), field.from_int(rng.randrange(1, 5)),
                        chars, rng.randrange(2)))
    return Supercomodule(m.algebra, m.parities, rows)


def _pinned_validate_witnesses():
    """validate() of each perturbed input below, in order, as captured from
    the engine before its coaction was stored raw: (law, "row i at key")."""
    with open(os.path.join(os.path.dirname(__file__), "data", "validate_witnesses.json")) as fh:
        return [[tuple(f) for f in failures] for failures in json.load(fh)]


def test_decompose_invalid_input_reports_validate_witnesses():
    """decompose reports the first three validate() witnesses, and validate()
    gives the pinned witnesses, strings and order included."""
    rng = random.Random(13)
    # the F_5 cases: mu4 with g = 1 and g = chi^2, mu5 with x != 0
    bases = [scramble(_standard_sum(alg, labels), rng) for alg, labels, entry in
             _multi_block_cases() if entry is None]
    assert len(bases) == 3
    seen = []
    for m in bases:
        for kind in ("changed", "dropped", "added"):
            checked = 0
            while checked < 4:
                bad = _perturbed(m, kind, rng)
                failures = bad.validate()
                seen.append(failures)
                if not failures:
                    continue
                with pytest.raises(DecompositionError) as info:
                    decompose(bad)
                assert str(info.value) == f"not a comodule: {failures[:3]}"
                checked += 1
    assert seen == _pinned_validate_witnesses()
    # S(1) + S(2) in the basis a = u1 + u2 (even), b = u2 (odd): counit and
    # coassociativity hold, only the parity of the coaction fails
    alg = algebra_mu4(g_exp=0)
    one = F5.one()
    bad = Supercomodule(alg, (0, 1), [[(0, one, (1,), 0), (1, -one, (1,), 0), (1, one, (2,), 0)],
                                      [(1, one, (2,), 0)]])
    failures = bad.validate()
    assert failures and {law for law, _ in failures} == {"coaction parity"}
    with pytest.raises(DecompositionError) as info:
        decompose(bad)
    assert str(info.value) == f"not a comodule: {failures[:3]}"


def test_decompose_reraises_step_failure_on_valid_input(monkeypatch):
    """A step that fails on a valid input surfaces as itself: the whole input
    validates, so nothing is reported as "not a comodule" and no result is
    returned."""
    alg, labels, _ = _multi_block_cases()[0]
    m = scramble(_standard_sum(alg, labels), random.Random(3))
    blocks = len(coset_projectors(m))
    real_restrict = dgxrep.restrict
    # call 1 builds the first coset block; call blocks + 1 follows the first peel
    for fail_at in (1, blocks, blocks + 1):
        error = DecompositionError(f"injected at restrict call {fail_at}")
        calls = []

        def failing(*args, fail_at=fail_at, error=error, calls=calls):
            calls.append(1)
            if len(calls) == fail_at:
                raise error
            return real_restrict(*args)

        monkeypatch.setattr(dgxrep, "restrict", failing)
        with pytest.raises(DecompositionError) as info:
            decompose(m)
        assert info.value is error
    monkeypatch.setattr(dgxrep, "restrict", real_restrict)
    error = DecompositionError("injected at the final verification")

    def failing_verify(*args):
        raise error

    monkeypatch.setattr(dgxrep, "_verify_decomposition", failing_verify)
    with pytest.raises(DecompositionError) as info:
        decompose(m)
    assert info.value is error


def test_decompose_single_block_input_is_peeled_as_it_stands(monkeypatch):
    """With g = chi, <g> is all of mu4, so every comodule is one block: it is
    peeled in its own coordinates, with no split, one restrict per peeled
    summand, and an invalid one is still reported by its validate witnesses."""
    rng = random.Random(21)
    alg = algebra_mu4(g_exp=1)
    labels = [IndecompLabel("L", (0,), False), IndecompLabel("S", (1,), True),
              IndecompLabel("L", (2,), True), IndecompLabel("S", (3,), False)]
    m = scramble(_standard_sum(alg, labels), rng)
    assert len(coset_projectors(m)) == 1
    [(block, _)] = dgxrep._coset_blocks(m)
    assert block is m
    real_restrict, calls = dgxrep.restrict, []
    monkeypatch.setattr(dgxrep, "restrict", lambda *args: calls.append(1) or real_restrict(*args))
    res = decompose(m)
    assert len(calls) == len(labels)
    assert res.label_multiset() == sorted(str(canonical_label(alg, l)) for l in labels)
    for kind in ("changed", "dropped", "added"):
        bad = _perturbed(m, kind, rng)
        while not bad.validate():
            bad = _perturbed(m, kind, rng)
        with pytest.raises(DecompositionError) as info:
            decompose(bad)
        assert str(info.value) == f"not a comodule: {bad.validate()[:3]}"


def _isomorphic(algebra, a, b):
    return canonical_label(algebra, a) == canonical_label(algebra, b)


def test_label_isomorphism_identification():
    alg5 = algebra_mu5()
    a = IndecompLabel("L", (1,), False)
    b = IndecompLabel("L", (1,), True)
    assert _isomorphic(alg5, a, b)  # g = 1 here
    assert len(comodule_homs(standard_object(alg5, a), standard_object(alg5, b))) == 1
    # with g of order 2 the identification pairs h with g*h instead
    mu10 = GroupDescriptor(0, (10,))
    alg10 = build_algebra(F5, mu10, mu10.character([5]),
                          LieFunctional(mu10, F5, torsion=[1]))
    c = IndecompLabel("L", (1,), False)
    d = IndecompLabel("L", (6,), True)
    assert _isomorphic(alg10, c, d)
    assert not _isomorphic(alg10, c, IndecompLabel("L", (1,), True))
    assert len(comodule_homs(standard_object(alg10, c), standard_object(alg10, d))) == 1
    # non-simple L's and lines admit no identification
    alg4 = algebra_mu4()
    assert not _isomorphic(alg4, IndecompLabel("L", (1,), False),
                           IndecompLabel("L", (1,), True))
    assert not _isomorphic(alg4, IndecompLabel("S", (1,), False),
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
    # the pairing with the wrong value <h^{-1}, g^{-1}h> = 1 is no morphism
    alg = algebra_mu4()
    rep = dgxrep._check_pairing(alg, mu4.character([1]), {(0, 0): alg.field.one()})
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
