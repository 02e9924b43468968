"""Property tests: count-vector partitions, UniPoly and MultiPoly ring laws,
the Kronecker ring's decoding and division, the bounded ring and its sums of
products against its two components, the closed-form screen distribution
against its hierarchies, vpp symmetry, the lattice checks against sympy's
normal forms, the stored tree structure against bracket scans, and chart
evaluation against the symbolic gluing polynomials."""

import importlib
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from linestrata import _combi
from linestrata._combi import marks, set_partitions, vector_partitions
from linestrata.charts import (
    StableCurve,
    _b_variable,
    _meet,
    evaluate_chart,
    extract_q_factor,
    gluing_polynomial,
    invert_chart,
    pinned_curve,
)
from linestrata.exact_poly import (
    MultiPoly,
    UniPoly,
    monomial_content_split,
    multi_eval,
)
from linestrata.local_models import lattice_is_saturated, lattice_span_equal
from linestrata.trees import StableTree, glue_tree
from linestrata.vpp import stratum_counts, vpp, vpp_fiber_product

from test_vpp import _hierarchy_distribution

vpp_module = importlib.import_module("linestrata.vpp")


def _bell(n: int) -> int:
    return sum(1 for _ in set_partitions(range(n)))


count_vectors = st.lists(st.integers(0, 3), min_size=0, max_size=3).filter(
    lambda v: sum(v) <= 6
).map(tuple)


@settings(max_examples=60, deadline=None)
@given(count_vectors)
# the strategy draws at most 3 entries: longer vectors, with zero entries
# before and between the marks, exercise the first-block filter further
@example((1, 1, 1, 1, 1))
@example((2, 0, 1, 2))
@example((0, 1, 0, 3))
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
    partitions = vector_partitions(v)
    # memoised: a second call returns an equal tuple
    assert isinstance(partitions, tuple) and vector_partitions(v) == partitions
    # each block multiset once, non-increasing, with its labelled count
    assert dict(partitions) == counts
    assert len(partitions) == len(counts)
    assert all(list(blocks) == sorted(blocks, reverse=True) for blocks, _ in partitions)
    # in decreasing lexicographic order of the block tuples
    assert [b for b, _ in partitions] == sorted(counts, reverse=True)
    assert sum(mult for _, mult in partitions) == _bell(sum(v))


def test_vector_partitions_rejects_inexact_multiplicity(monkeypatch):
    # (1,) split into two copies of (1,) is no partition of one mark; its
    # multiplicity 1! / (1! * 1! * 2!) is not an integer
    monkeypatch.setattr(_combi, "_blocks_at_most", lambda v, bound: iter([((1,), (1,))]))
    # the memo may hold (1,) already: clear it, so that the patched
    # generator is read and the multiplicity computed again
    vector_partitions.cache_clear()
    with pytest.raises(ValueError, match="not an integer"):
        vector_partitions((1,))


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


# coefficients of up to 64 bits against a radix of 2^64 or 2^128
wide_coeff_lists = st.lists(st.integers(-(2**63) + 1, 2**63 - 1), max_size=6)


@settings(max_examples=150, deadline=None)
@given(wide_coeff_lists, st.sampled_from([64, 128]), st.integers(0, 4))
def test_kronecker_decoding_and_division(cs, bits, screens):
    # a polynomial in q with |coefficients| < 2^(bits-1), evaluated at
    # q = 2^bits, decodes back, and divides by q^screens exactly when its
    # screens lowest coefficients vanish
    while cs and cs[-1] == 0:
        cs.pop()
    ring = vpp_module._int_ring(bits, 1)
    value = sum(c << (bits * i) for i, c in enumerate(cs))
    assert vpp_module._digits(value, bits) == cs
    if any(cs[:screens]):
        with pytest.raises(ValueError, match="not divisible"):
            ring.divide(value, screens)
    else:
        assert vpp_module._digits(ring.divide(value, screens), bits) == cs[screens:]


@st.composite
def fiber_jobs(draw):
    """A small fiber product (r, factors): up to three lines, up to three
    factors of up to four marks each, sorted as the recursion expects."""
    r = draw(st.integers(1, 3))
    vector = st.lists(st.integers(0, 2), min_size=r, max_size=r).map(tuple)
    factors = draw(st.lists(vector.filter(lambda v: 1 <= sum(v) <= 4), max_size=3))
    return r, tuple(sorted(factors))


@settings(max_examples=60, deadline=None)
@given(fiber_jobs(), st.sampled_from([1, 0]))
def test_bounded_ring_carries_both_rings(job, slope):
    # one pass in the bounded ring gives what two passes give in the bound
    # ring and in the Kronecker or dimension-marker ring
    both = vpp_module._fiber(vpp_module._bounded_ring(64, slope), *job)
    assert both.bound == vpp_module._fiber(vpp_module._int_ring(0, -1), *job)
    assert both.value == vpp_module._fiber(vpp_module._int_ring(64, slope), *job)


@st.composite
def sums_of_products(draw):
    """Terms (indices, mult) over n values, with bounds and values of up to
    70 bits: mults up to 6, one to four factors a term, any number of
    terms."""
    n = draw(st.integers(1, 5))
    index = st.integers(0, n - 1)
    terms = draw(
        st.lists(st.tuples(st.lists(index, min_size=1, max_size=4).map(tuple), st.integers(1, 6)))
    )
    bounds = draw(st.lists(st.integers(0, 2**70), min_size=n, max_size=n))
    values = draw(st.lists(st.integers(-(2**70), 2**70), min_size=n, max_size=n))
    return terms, bounds, values


@settings(max_examples=100, deadline=None)
@given(sums_of_products(), st.sampled_from([1, 0]))
@example(([], [3], [5]), 1)
@example(([((0,), 1), ((1,), 4)], [2, 3], [-7, 11]), 1)
@example(([((0, 1, 1), 6), ((1, 0), 1)], [2, 3], [5, -2]), 0)
def test_sum_of_products_matches_the_naive_loop(case, slope):
    # the bounded ring's one call gives what the bound ring and the value
    # ring give on their own, and an integer ring's native sum is the loop
    terms, bounds, values = case
    naive = 0
    for indices, mult in terms:
        term = mult
        for i in indices:
            term = term * values[i]
        naive = naive + term
    ring = vpp_module._bounded_ring(64, slope)
    assert ring.ring.sum_of_products(terms, values) == naive
    both = ring.sum_of_products(terms, [vpp_module.Bounded(b, v) for b, v in zip(bounds, values)])
    assert both.bound == ring.bound_ring.sum_of_products(terms, bounds)
    assert both.value == ring.ring.sum_of_products(terms, values)


marked_vectors = st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(
    lambda v: 1 <= sum(v) <= 6
).map(tuple)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(any))
def test_marks_list_each_mark_once_line_by_line(n):
    listed = marks(n)
    assert len(listed) == len(set(listed)) == sum(n)
    assert list(listed) == sorted(listed)
    assert all(1 <= j <= n[i - 1] for i, j in listed)


@settings(max_examples=100, deadline=None)
@given(marked_vectors)
def test_screen_distribution_sums_hierarchies(v):
    # entries of 3, beyond the deterministic sweep of test_vpp
    ring = vpp_module._int_ring(64, 1)
    closed = vpp_module._screen_distribution(ring, v)
    assert closed == _hierarchy_distribution(ring, v)


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
        assert stratum_counts(shuffled) == stratum_counts(n)


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


@st.composite
def merged_trees(draw, max_leaves, binary=False):
    """A stable tree built by merging random groups of roots until one is
    left; binary trees merge two at a time."""
    r = draw(st.integers(3, max_leaves))
    roots = [frozenset({leaf}) for leaf in range(1, r + 1)]
    brackets = []
    while len(roots) > 1:
        size = 2
        while not binary and size < len(roots) and draw(st.booleans()):
            size += 1
        picked = draw(st.permutations(range(len(roots))))[:size]
        merged = frozenset().union(*(roots[k] for k in picked))
        roots = [root for k, root in enumerate(roots) if k not in picked]
        roots.append(merged)
        brackets.append(merged)
    return StableTree(r, brackets)


@st.composite
def laminar_trees(draw):
    """A stable tree on 1-9 leaves from a random number of random merges;
    the root takes whatever is left unmerged."""
    r = draw(st.integers(1, 9))
    roots = [frozenset({leaf}) for leaf in range(1, r + 1)]
    brackets = []
    while len(roots) > 2 and draw(st.booleans()):
        size = draw(st.integers(2, len(roots) - 1))
        picked = draw(st.permutations(range(len(roots))))[:size]
        merged = frozenset().union(*(roots[k] for k in picked))
        roots = [root for k, root in enumerate(roots) if k not in picked]
        roots.append(merged)
        brackets.append(merged)
    return StableTree(r, brackets)


# the bracket-scanning definitions that StableTree's stored structure replaced


def _scanned_children(tree, b):
    if len(b) == 1:
        return ()
    proper = [c for c in tree.brackets if c < b]
    return tuple(sorted((c for c in proper if not any(c < d for d in proper)), key=min))


def _scanned_parent(tree, b):
    return min((c for c in tree.brackets if b < c), key=len)


def _scanned_preorder(tree):
    out, stack = [], [tree.root]
    while stack:
        b = stack.pop()
        out.append(b)
        stack.extend(reversed(_scanned_children(tree, b)))
    return out


def _scanned_meet(tree, u, v):
    return min((w for w in tree.brackets if u | v <= w), key=len)


@settings(max_examples=200, deadline=None)
@given(laminar_trees())
def test_tree_structure_matches_bracket_scans(tree):
    preorder = _scanned_preorder(tree)
    assert sorted(preorder, key=sorted) == sorted(tree.brackets, key=sorted)
    interior = tree.interior_vertices()
    assert interior == [b for b in preorder if len(b) >= 2]
    interior.clear()  # a fresh list each call
    assert tree.interior_vertices() == [b for b in preorder if len(b) >= 2]
    for b in tree.brackets:
        assert tree.children(b) == _scanned_children(tree, b)
        assert tree.in_degree(b) == len(_scanned_children(tree, b))
        if b == tree.root:
            with pytest.raises(ValueError, match="the root has no parent"):
                tree.parent(b)
        else:
            assert tree.parent(b) == _scanned_parent(tree, b)
        for v in tree.brackets:
            assert _meet(tree, b, v) == _scanned_meet(tree, b, v)
    outside = frozenset({tree.r + 1})
    for query in (tree.children, tree.parent, tree.in_degree):
        with pytest.raises(KeyError, match="is not a vertex"):
            query(outside)


# few values, so that leaves often coincide after gluing
SCREEN_VALUES = [Fraction(k) for k in range(-2, 4)]
gluing_values = st.sampled_from([Fraction(k, 2) for k in range(-4, 5)])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_evaluate_chart_agrees_with_gluing_polynomials(data):
    tree = data.draw(merged_trees(6))
    positions = {
        rho: data.draw(st.permutations(SCREEN_VALUES))[: tree.in_degree(rho)]
        for rho in tree.interior_vertices()
    }
    curve = StableCurve(tree, positions)
    b = {
        rho: data.draw(gluing_values)
        for rho in tree.interior_vertices()
        if rho != tree.root
    }
    at_b = {_b_variable(rho): x for rho, x in b.items()}
    root = tree.root
    vanishing = []
    for i, j in combinations(range(1, tree.r + 1), 2):
        factor = extract_q_factor(curve, i, j)
        # the old derivation: strip the monomial content of the root-level
        # difference
        difference = gluing_polynomial(curve, root, i) - gluing_polynomial(
            curve, root, j
        )
        assert factor == monomial_content_split(difference)[1]
        if multi_eval(factor, at_b) == 0:
            vanishing.append((i, j))
    if vanishing:
        i, j = vanishing[0]
        with pytest.raises(ValueError, match=f"for leaves {i} and {j} vanishes$"):
            evaluate_chart(curve, b)
        return
    glued = evaluate_chart(curve, b)
    new_tree = glue_tree(tree, {rho: int(x != 0) for rho, x in b.items()})
    assert glued.tree == new_tree
    assert glued.positions == {
        rho: tuple(
            multi_eval(gluing_polynomial(curve, rho, child), at_b)
            for child in new_tree.children(rho)
        )
        for rho in new_tree.interior_vertices()
    }


nonzero_fractions = st.sampled_from(
    sorted({Fraction(k, d) for k in range(-6, 7) for d in (1, 2, 3) if k})
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_invert_chart_undoes_evaluate_chart(data):
    tree = data.draw(merged_trees(8, binary=True))
    slices = {}
    for rho in tree.interior_vertices():
        first, second = tree.children(rho)
        slices[rho] = (first, second) if data.draw(st.booleans()) else (second, first)
    b = {
        rho: data.draw(nonzero_fractions)
        for rho in tree.interior_vertices()
        if rho != tree.root
    }
    try:
        glued = evaluate_chart(pinned_curve(tree, slices), b)
    except ValueError:
        assume(False)
    assert invert_chart(tree, slices, glued.positions[tree.root]) == b
