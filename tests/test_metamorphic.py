"""Metamorphic relations for `decompose` that need no oracle, drawn by
hypothesis over several fields, x = 0 and x != 0 (two-dimensional simples)
and g of finite and infinite order:

- labels(M + N) = labels(M) + labels(N);
- labels are invariant under a parity-preserving change of basis;
- labels(Pi M) are the parity-shifted labels of M, canonicalised;
- dim Hom(M + N, P) = dim Hom(M, P) + dim Hom(N, P) and
  dim Hom(P, M + N) = dim Hom(P, M) + dim Hom(P, N), which read no label,
  so a wrong field kernel that keeps the labels is still caught.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from superhopf.chargroup import GroupDescriptor, LieFunctional
from superhopf.dgxrep import (
    DecompositionError,
    IndecompLabel,
    canonical_label,
    comodule_homs,
    decompose,
    standard_object,
)
from superhopf.fields import GF, QQ, FunctionField, QuadraticField
from superhopf.hopfcore import build_algebra


def _cases():
    """(algebra, label pool, random entry) per configuration."""
    F5, F3, Q = GF(5), GF(3), QQ()
    Qi, F5t = QuadraticField(-1), FunctionField(5)
    i_unit, t = Qi.generator(), F5t.generator()
    mu4, mu5 = GroupDescriptor(0, (4,)), GroupDescriptor(0, (5,))
    z, zmu3 = GroupDescriptor(1, ()), GroupDescriptor(1, (3,))
    configs = [
        (build_algebra(F5, mu4, mu4.character([2]), LieFunctional.zero(mu4, F5)),
         [(c,) for c in range(4)], lambda r: F5.from_int(r.randrange(5))),
        (build_algebra(F5, mu5, mu5.identity(), LieFunctional(mu5, F5, torsion=[1])),
         [(c,) for c in range(5)], lambda r: F5.from_int(r.randrange(5))),
        (build_algebra(Q, z, z.identity(), LieFunctional(z, Q, free=[1])),
         [(c,) for c in range(-2, 3)], lambda r: Q.from_int(r.randint(-3, 3))),
        (build_algebra(Qi, mu4, mu4.identity(), LieFunctional.zero(mu4, Qi)),
         [(c,) for c in range(4)],
         lambda r: Qi.from_int(r.randint(-2, 2)) + i_unit * r.randint(-2, 2)),
        (build_algebra(F5t, mu5, mu5.identity(), LieFunctional(mu5, F5t, torsion=[1])),
         [(c,) for c in range(5)], lambda r: F5t.from_int(r.randrange(5)) + t * r.randrange(5)),
        (build_algebra(F3, zmu3, zmu3.character([1, 1]), LieFunctional.zero(zmu3, F3)),
         [(a, b) for a in range(-1, 2) for b in range(3)], lambda r: F3.from_int(r.randrange(3))),
    ]
    out = []
    for alg, chars, entry in configs:
        pool = [IndecompLabel("L", ch, s) for ch in chars for s in (False, True)]
        pool += [IndecompLabel("S", ch, s) for ch in chars for s in (False, True)
                 if alg.pair_char(alg.group.reduce(ch)).is_zero()]
        out.append((alg, pool, entry))
    return out


CASES = _cases()
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)


def _scrambled(alg, labels, entry, seed):
    """The direct sum of the standard objects of `labels` under a random
    invertible parity-preserving change of basis."""
    m = None
    for lab in labels:
        so = standard_object(alg, lab)
        m = so if m is None else m.direct_sum(so)
    return _rebased(m, entry, seed)


def _rebased(m, entry, seed):
    rng = random.Random(seed)
    zero = m.field.zero()
    while True:
        mat = [[entry(rng) if pi == pj else zero for pj in m.parities] for pi in m.parities]
        try:
            return m.change_basis(mat)
        except DecompositionError:
            continue


@st.composite
def comodules(draw, case=None, max_summands=3):
    """(case, scrambled comodule) with 1..max_summands summands."""
    case = case if case is not None else draw(st.sampled_from(CASES))
    alg, pool, entry = case
    labels = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_summands))
    return case, _scrambled(alg, labels, entry, draw(st.integers(0, 2**32)))


@SETTINGS
@given(st.data())
def test_labels_additive_on_direct_sums(data):
    case, m = data.draw(comodules(max_summands=2))
    _, n = data.draw(comodules(case=case, max_summands=2))
    assert decompose(m.direct_sum(n)).label_multiset() == sorted(
        decompose(m).label_multiset() + decompose(n).label_multiset())


@SETTINGS
@given(comodules(), st.integers(0, 2**32))
def test_labels_invariant_under_change_of_basis(drawn, seed):
    (_, _, entry), m = drawn
    assert decompose(_rebased(m, entry, seed)).label_multiset() == decompose(m).label_multiset()


@SETTINGS
@given(comodules())
def test_parity_shift_shifts_labels(drawn):
    (alg, _, _), m = drawn
    shifted = [canonical_label(alg, IndecompLabel(l.kind, l.char, not l.shifted))
               for l in decompose(m).labels]
    assert decompose(m.parity_shift()).label_multiset() == sorted(str(l) for l in shifted)


@pytest.mark.parametrize("case", CASES, ids=lambda case: repr(case[0].field))
@settings(SETTINGS, max_examples=10)
@given(st.data())
def test_hom_dimension_additive_on_direct_sums(case, data):
    _, m = data.draw(comodules(case=case, max_summands=2))
    _, n = data.draw(comodules(case=case, max_summands=2))
    _, p = data.draw(comodules(case=case, max_summands=2))
    assert len(comodule_homs(m.direct_sum(n), p)) == (
        len(comodule_homs(m, p)) + len(comodule_homs(n, p)))
    assert len(comodule_homs(p, m.direct_sum(n))) == (
        len(comodule_homs(p, m)) + len(comodule_homs(p, n)))
