"""Property tests: count-vector partitions, UniPoly and MultiPoly ring laws,
vpp symmetry, and the lattice checks against sympy's normal forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from linestrata import _combi
from linestrata._combi import set_partitions, vector_partitions
from linestrata.exact_poly import MultiPoly, UniPoly, multi_eval
from linestrata.local_models import lattice_is_saturated, lattice_span_equal
from linestrata.vpp import vpp, vpp_fiber_product


def _bell(n: int) -> int:
    return sum(1 for _ in set_partitions(range(n)))


count_vectors = st.lists(st.integers(0, 3), min_size=0, max_size=3).filter(
    lambda v: sum(v) <= 6
).map(tuple)


@settings(max_examples=60, deadline=None)
@given(count_vectors)
def test_vector_partitions_match_labelled_set_partitions(v):
    marks = [line for line, c in enumerate(v) for _ in range(c)]
    counts: dict[tuple, int] = {}
    for parts in set_partitions(marks):
        blocks = tuple(
            sorted(
                (tuple(block.count(line) for line in range(len(v))) for block in parts),
                reverse=True,
            )
        )
        counts[blocks] = counts.get(blocks, 0) + 1
    partitions = list(vector_partitions(v))
    # each block multiset once, non-increasing, with its labelled count
    assert dict(partitions) == counts
    assert len(partitions) == len(counts)
    assert all(list(blocks) == sorted(blocks, reverse=True) for blocks, _ in partitions)
    assert sum(mult for _, mult in partitions) == _bell(sum(v))


def test_vector_partitions_rejects_inexact_multiplicity(monkeypatch):
    # (1,) split into two copies of (1,) is no partition of one mark; its
    # multiplicity 1! / (1! * 1! * 2!) is not an integer
    monkeypatch.setattr(_combi, "_blocks_at_most", lambda v, bound: iter([((1,), (1,))]))
    with pytest.raises(ValueError, match="not an integer"):
        list(vector_partitions((1,)))


coeff_lists = st.lists(st.integers(-50, 50), max_size=7)
polys = coeff_lists.map(UniPoly)


@settings(max_examples=80, deadline=None)
@given(polys, polys, polys)
def test_unipoly_ring_laws(p, q, r):
    zero, one = UniPoly.zero(), UniPoly.one()
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p
    assert (p * zero).is_zero()
    assert (p - p).is_zero()


@settings(max_examples=80, deadline=None)
@given(coeff_lists)
def test_trusted_constructor_agrees(cs):
    trusted = UniPoly._trusted(list(cs))
    assert trusted == UniPoly(cs)
    assert type(trusted.coeffs) is tuple
    assert not trusted.coeffs or trusted.coeffs[-1] != 0


monomials = st.dictionaries(st.sampled_from("abc"), st.integers(0, 2), max_size=3).map(
    lambda exps: tuple(sorted(exps.items()))
)
multipolys = st.dictionaries(monomials, st.integers(-5, 5), max_size=4).map(MultiPoly)
points = st.fixed_dictionaries({v: st.integers(-3, 3) for v in "abc"})


@settings(max_examples=80, deadline=None)
@given(multipolys, multipolys, multipolys, points)
def test_multipoly_ring_laws(p, q, r, point):
    zero, one = MultiPoly.zero(), MultiPoly.one()
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p
    assert (p * zero).is_zero()
    assert (p - p).is_zero()
    assert p * 3 == p * MultiPoly.constant(3) == p + p + p
    assert p**2 == p * p
    # evaluation at a point is a ring homomorphism
    assert multi_eval(p + q, point) == multi_eval(p, point) + multi_eval(q, point)
    assert multi_eval(p * q, point) == multi_eval(p, point) * multi_eval(q, point)


small_types = st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(
    lambda n: sum(n) + len(n) <= 7
)


@settings(max_examples=30, deadline=None)
@given(small_types, st.randoms(use_true_random=False))
def test_vpp_invariant_under_line_permutation(n, rng):
    shuffled = list(n)
    rng.shuffle(shuffled)
    assert vpp(shuffled) == vpp(n)
    if any(n):
        # vpp sorts the lines before recursing; the fiber product does not
        assert vpp_fiber_product(len(n), [shuffled]) == vpp(n)


def _sympy_span_equal(a, b) -> bool:
    a = [row for row in a if any(row)]
    b = [row for row in b if any(row)]
    if not a or not b:
        return not a and not b
    return hermite_normal_form(Matrix(a).T) == hermite_normal_form(Matrix(b).T)


def _sympy_saturated(a) -> bool:
    a = [row for row in a if any(row)]
    if not a:
        return True
    snf = smith_normal_form(Matrix(a))
    return all(abs(snf[i, i]) in (0, 1) for i in range(min(snf.shape)))


@st.composite
def generator_pairs(draw):
    width = draw(st.integers(1, 4))
    rows = st.lists(
        st.lists(st.integers(-4, 4), min_size=width, max_size=width),
        max_size=4,
    )
    a = draw(rows)
    if draw(st.booleans()):
        return a, draw(rows)
    # b: a after unimodular row operations, so equal spans occur often
    b = [list(row) for row in a]
    steps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2))
    for i, j, c in draw(st.lists(steps, max_size=4)):
        if i < len(b) and j < len(b) and i != j:
            b[i] = [x + c * y for x, y in zip(b[i], b[j])]
    return a, draw(st.permutations(b))


@settings(max_examples=300, deadline=None)
@given(generator_pairs())
def test_lattice_checks_agree_with_sympy(pair):
    a, b = pair
    assert lattice_span_equal(a, b) == _sympy_span_equal(a, b)
    assert lattice_is_saturated(a) == _sympy_saturated(a)
