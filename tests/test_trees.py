"""Tests for stable trees: laminar families, poset, enumeration, gluing."""

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linestrata.tree_pairs import (
    top_tree_pair,
    tree_pair_to_two_bracketing,
    two_bracketing_to_tree_pair,
)
from linestrata.trees import (
    StableTree,
    enumerate_stable_trees,
    glue_tree,
    hierarchies,
    poset_leq_tree,
    top_tree,
    tree_dimension,
)

fz = frozenset


def comb_tree():
    """((1 (3 4)) 2): the left comb used in several fixtures."""
    return StableTree(
        4,
        [fz({1, 2, 3, 4}), fz({1, 3, 4}), fz({3, 4}),
         fz({1}), fz({2}), fz({3}), fz({4})],
    )


def test_top_tree_shape():
    t = top_tree(4)
    assert t.root == fz({1, 2, 3, 4})
    assert t.interior_vertices() == [t.root]
    assert t.children(t.root) == (fz({1}), fz({2}), fz({3}), fz({4}))
    assert t.in_degree(t.root) == 4
    assert tree_dimension(t) == 2  # r - 2 for the open stratum


def test_structure_accessors():
    t = comb_tree()
    assert t.children(t.root) == (fz({1, 3, 4}), fz({2}))
    assert t.children(fz({1, 3, 4})) == (fz({1}), fz({3, 4}))
    assert t.parent(fz({3, 4})) == fz({1, 3, 4})
    assert t.parent(fz({2})) == t.root
    with pytest.raises(ValueError):
        t.parent(t.root)
    # preorder: root first, then depth-first
    assert t.interior_vertices()[0] == t.root


def test_invalid_families_rejected():
    # crossing brackets
    with pytest.raises(ValueError):
        StableTree(3, [fz({1, 2, 3}), fz({1, 2}), fz({2, 3}),
                       fz({1}), fz({2}), fz({3})])
    # root and singletons are supplied automatically
    assert StableTree(3, [fz({1, 2})]) == StableTree(
        3, [fz({1, 2, 3}), fz({1, 2}), fz({1}), fz({2}), fz({3})]
    )


families = st.integers(1, 6).flatmap(
    lambda r: st.tuples(
        st.just(r),
        st.lists(st.frozensets(st.integers(1, r), min_size=1), max_size=8),
    )
)


@settings(max_examples=300, deadline=None)
@given(families)
@example((3, [fz({1, 2}), fz({2, 3})]))
@example((4, [fz({1, 2}), fz({1, 2, 3}), fz({3, 4})]))
def test_overlapping_families_refused(case):
    # independent oracle: a pair of brackets overlaps when neither holds
    # the other and they meet; the refusal must name such a pair
    r, family = case
    overlapping = {
        (a, b) for a in family for b in family if a & b and not (a <= b or b <= a)
    }
    if not overlapping:
        tree = StableTree(r, family)
        assert tree.brackets == {*family, tree.root, *(fz({i}) for i in range(1, r + 1))}
        return
    with pytest.raises(ValueError) as info:
        StableTree(r, family)
    named = re.fullmatch(r"brackets (\[.*\]) and (\[.*\]) overlap", str(info.value))
    assert named is not None, str(info.value)
    a, b = (fz(int(x) for x in g.strip("[]").split(", ")) for g in named.groups())
    assert (a, b) in overlapping


def test_two_bracketing_refuses_overlapping_line_brackets():
    n = (1, 1, 1, 1)
    _, two_brackets = tree_pair_to_two_bracketing(top_tree_pair(n))
    with pytest.raises(ValueError, match=r"brackets \[1, 2\] and \[2, 3, 4\] overlap"):
        two_bracketing_to_tree_pair(n, [fz({1, 2}), fz({2, 3, 4})], two_brackets)


def test_nested_round_trip():
    t = comb_tree()
    nested = t.to_nested()
    assert nested == [[1, [3, 4]], 2]
    assert StableTree.from_nested(nested) == t
    assert StableTree.from_nested([1, 2, 3]) == top_tree(3)


def test_bracketing_round_trip():
    for tree in enumerate_stable_trees(4):
        assert StableTree(4, tree.brackets) == tree


def test_enumeration_counts():
    # 1, 1, 4, 26, 236 little Schroeder-style counts
    assert [len(enumerate_stable_trees(r)) for r in range(1, 6)] == [
        1, 1, 4, 26, 236
    ]
    trees = enumerate_stable_trees(4)
    assert len(set(trees)) == len(trees)
    assert top_tree(4) in trees


def test_enumeration_count_r6():
    assert len(enumerate_stable_trees(6)) == 2752


def test_hierarchies_are_every_stable_tree_once():
    # Schroeder's fourth problem (OEIS A000311) counts the stable trees;
    # valid and pairwise distinct trees that many are all of them, with no
    # appeal to enumerate_stable_trees
    for k, count in zip(range(1, 7), [1, 1, 4, 26, 236, 2752]):
        trees = [StableTree.from_nested(nested) for nested in hierarchies(k)]
        assert {tree.r for tree in trees} == {k}
        assert len(trees) == count
        assert len({tree.brackets for tree in trees}) == count
    assert hierarchies(3) == ((1, (2, 3)), ((1, 2), 3), ((1, 3), 2), (1, 2, 3))
    assert hierarchies(1) == (1,)
    assert hierarchies(6) is hierarchies(6)


def test_poset_order():
    t = comb_tree()
    assert poset_leq_tree(t, top_tree(4))
    assert not poset_leq_tree(top_tree(4), t)
    assert poset_leq_tree(t, t)
    # deeper tree has more brackets, lower dimension
    assert tree_dimension(t) == 0
    # the maximum is unique
    for tree in enumerate_stable_trees(4):
        assert poset_leq_tree(tree, top_tree(4))


def test_dimension_is_codim_count():
    for r in range(2, 6):
        for tree in enumerate_stable_trees(r):
            assert tree_dimension(tree) == (r - 2) - (
                len(tree.interior_vertices()) - 1
            )


def test_glue_tree_contracts_marked_vertices():
    t = comb_tree()
    # keep {3,4}, contract {1,3,4}
    glued = glue_tree(t, {fz({1, 3, 4}): 1, fz({3, 4}): 0})
    assert glued == StableTree(
        4, [fz({1, 2, 3, 4}), fz({3, 4}), fz({1}), fz({2}), fz({3}), fz({4})]
    )
    # contract everything: the corolla
    assert glue_tree(t, {fz({1, 3, 4}): 1, fz({3, 4}): 1}) == top_tree(4)
    # contract nothing: identity
    assert glue_tree(t, {fz({1, 3, 4}): 0, fz({3, 4}): 0}) == t


def test_glue_tree_validates_keys():
    t = comb_tree()
    with pytest.raises(ValueError):
        glue_tree(t, {fz({1, 3, 4}): 1})  # missing a vertex
    with pytest.raises(ValueError):
        glue_tree(t, {fz({1, 3, 4}): 1, fz({3, 4}): 0, fz({2}): 0})


def test_glue_tree_is_order_embedding():
    """On each tree's local cube {0,1}^k, gluing is injective, order
    preserving in both directions, and fills the interval up to the top."""
    for r in (3, 4, 5):
        for tree in enumerate_stable_trees(r):
            free = [v for v in tree.interior_vertices() if v != tree.root]
            images = {}
            for bits in range(1 << len(free)):
                assignment = {
                    v: (bits >> k) & 1 for k, v in enumerate(free)
                }
                result = glue_tree(tree, assignment)
                images[bits] = result
                assert poset_leq_tree(tree, result)
                assert poset_leq_tree(result, top_tree(r))
            assert len(set(images.values())) == len(images)
            for x in images:
                for y in images:
                    # contracting more vertices moves up the poset
                    dominated = (x & y) == x
                    assert dominated == poset_leq_tree(images[x], images[y])


def test_glue_image_is_interval():
    """The glued trees are exactly the poset interval [tree, top]."""
    rng = random.Random(9)
    for r in (3, 4):
        trees = enumerate_stable_trees(r)
        for tree in rng.sample(trees, min(6, len(trees))):
            free = [v for v in tree.interior_vertices() if v != tree.root]
            image = set()
            for bits in range(1 << len(free)):
                assignment = {v: (bits >> k) & 1 for k, v in enumerate(free)}
                image.add(glue_tree(tree, assignment))
            interval = {
                other
                for other in trees
                if poset_leq_tree(tree, other)
            }
            assert image == interval
