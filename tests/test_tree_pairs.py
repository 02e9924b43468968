"""Tests for stratum tree pairs: enumeration, bracketings, poset, gluing."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import linestrata
from linestrata.local_models import (
    coherence_generators,
    glue_tree_pair,
    local_poset_elements,
    model_defining_relations,
)
from linestrata.tree_pairs import (
    Component,
    Mark,
    Seam,
    TreePair,
    enumerate_tree_pairs,
    enumerate_two_bracketings_bruteforce,
    f_vector,
    poset_leq_tree_pair,
    stratum_dimension,
    top_tree_pair,
    tree_pair_to_two_bracketing,
    two_bracketing_to_tree_pair,
    validate_tree_pair,
)
from linestrata.trees import StableTree, top_tree

fz = frozenset

# stratum counts and f-vectors frozen from hand enumeration of the small
# posets (and cross-checked against the polynomial identities in test_vpp)
COUNTS = {
    (1,): 1,
    (1, 0): 1,
    (2, 0): 3,
    (1, 1): 2,
    (2, 1): 10,
    (3, 0): 18,
    (2, 0, 0): 16,
    (1, 1, 0): 10,
    (1, 0, 0): 4,
}

F_VECTORS = {
    (2, 0): [2, 1],
    (1, 1): [1, 1],
    (2, 1): [4, 5, 1],
    (3, 0): [9, 8, 1],
    (2, 0, 0): [8, 7, 1],
    (1, 1, 0): [4, 5, 1],
    (1, 0, 0): [3, 1],
}


def test_stratum_counts():
    for n, count in COUNTS.items():
        found = enumerate_tree_pairs(n)
        assert len(found) == count, n
        assert len({tp.canonical_key() for tp in found}) == count, n


# SHA-256 of the strata's sorted-key JSON, one line each, in enumeration
# order; frozen from the enumeration that deduplicated by nested tuples
ORDER_DIGESTS = {
    (2, 1): "45fae35084912b645221d806b65df2875a0753827fa32aefe46905b12297df67",
    (1, 1, 1): "22edf7968fc5af3780ff036e03db6f27bb2097db5f4885f3f1e5e0d3fe686b16",
    (2, 2): "851434f360deb30daf51018ed9b4995f139fc6fc8b82ea24333e8c3a47bfd25e",
    (3, 0, 0): "f9faa03cb264528f76d2c9c2d7a1a2ec3dba1ba5edeab6d2dd4b7acb4e4a652d",
    # nested fusion trees and pooled fat parts, frozen from the enumeration
    # that built fusion levels from recursive plans
    (2, 1, 1): "847a282e897d493c27fb739f56f7fa923efc81aedbf78a4f23c0c99643d1a61b",
    (0, 2, 1): "0f264737ed034c24c830cde0653dd69e477b664f8836b2dc90e777e0ac0988ff",
    (3, 2): "3b8b99b6190b3f6f1717b066d1343d1aada4d42a09fef77d7022a2e146c145ad",
    (1, 1, 1, 1): "20de74432352534fc96f9a2174db4ca9d9cd45358df825b0bb516b216b9218f6",
}


def test_enumeration_order_is_frozen():
    for n, digest in ORDER_DIGESTS.items():
        text = "".join(
            json.dumps(tp.to_json(), sort_keys=True) + "\n"
            for tp in enumerate_tree_pairs(n)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n


@pytest.mark.parametrize(
    ("optimize", "dimension"),
    [(0, None), (1, None), (0, 0), (1, 0)],
    ids=["plain", "optimize", "plain-dimension-0", "optimize-dimension-0"],
)
def test_duplicate_stratum_check_fires(optimize, dimension):
    # an explicit raise, so python -O keeps it
    script = (
        "import sys\n"
        "from linestrata import tree_pairs\n"
        f"if sys.flags.optimize != {optimize}: sys.exit('wrong optimize level')\n"
        "enum_fiber = tree_pairs._enum_fiber.__wrapped__\n"
        "tree_pairs._enum_fiber.__wrapped__ = lambda *args: enum_fiber(*args) * 2\n"
        f"tree_pairs.enumerate_tree_pairs((2, 1), dimension={dimension})\n"
    )
    result = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(linestrata.__file__).parents[1])},
        timeout=120,
    )
    assert result.returncode == 1, result.stderr
    assert "AssertionError: duplicate stratum produced by enumeration" in result.stderr


def test_f_vectors():
    for n, expected in F_VECTORS.items():
        assert f_vector(n) == expected, n


def test_dimension_is_computed_once_per_stratum(monkeypatch):
    calls = []

    def counting(tp):
        calls.append(tp)
        return stratum_dimension(tp)

    monkeypatch.setattr("linestrata.tree_pairs.stratum_dimension", counting)
    assert f_vector((2, 1)) == F_VECTORS[(2, 1)]
    assert len(calls) == sum(F_VECTORS[(2, 1)])
    tp = calls[0]
    assert tp.dimension == stratum_dimension(tp)
    assert len(calls) == sum(F_VECTORS[(2, 1)])


def test_dimension_is_computed_only_for_the_strata_kept(monkeypatch):
    # the enumeration takes no choice past the requested dimension, so the
    # 336 positive-dimensional strata of (2,1,1) are never built
    calls = []

    def counting(tp):
        calls.append(tp)
        return stratum_dimension(tp)

    monkeypatch.setattr("linestrata.tree_pairs.stratum_dimension", counting)
    assert len(enumerate_tree_pairs((2, 1, 1), dimension=0)) == 84
    assert len(calls) == 84


@pytest.mark.parametrize("dimension", [0, 1])
def test_dimension_mismatch_raises(monkeypatch, dimension):
    # the enumeration's dimension and stratum_dimension must agree; an
    # explicit raise, not an assert statement
    monkeypatch.setattr(
        "linestrata.tree_pairs.stratum_dimension", lambda tp: stratum_dimension(tp) + 1
    )
    with pytest.raises(AssertionError, match="enumerated as dimension"):
        enumerate_tree_pairs((2, 1), dimension=dimension)


@pytest.mark.parametrize("dimension", [True, False, 0.0, 1.5, "0", b"0"])
def test_dimension_must_be_an_integer(dimension):
    with pytest.raises(ValueError, match="is not an integer"):
        enumerate_tree_pairs((2, 1), dimension=dimension)


def test_negative_dimension_gives_no_strata():
    # a negative budget prunes every choice, the one-mark whole space too
    for n in [(1,), (2, 1), (1, 1, 1)]:
        assert enumerate_tree_pairs(n, dimension=-1) == []


@pytest.mark.parametrize(
    "n", [(2, 2, 1), (3, 1, 1), (1, 1, 1, 1)], ids=["2,2,1", "3,1,1", "1,1,1,1"]
)
def test_pruned_enumeration_matches_the_filtered_one_on_larger_types(n):
    # the dimensions where pruning drops the most; the filtered full
    # enumeration and the independent count recursion are the oracles
    from linestrata.vpp import stratum_counts

    everything = enumerate_tree_pairs(n)
    counts = stratum_counts(n)
    for d in (0, 1):
        only = enumerate_tree_pairs(n, dimension=d)
        assert only == [tp for tp in everything if tp.dimension == d], d
        assert len(only) == counts[d], d


@pytest.mark.parametrize("n", [(5,), (3, 2)], ids=["5", "3,2"])
def test_enumeration_builds_a_stable_tree_only_per_seam_tree(monkeypatch, n):
    # the fused levels above a factor's screens come from trees.hierarchies
    # as nested tuples, so the one StableTree of a stratum is its seam tree
    built = []
    init = StableTree.__init__

    def counting(self, r, brackets):
        built.append(r)
        init(self, r, brackets)

    monkeypatch.setattr(StableTree, "__init__", counting)
    strata = enumerate_tree_pairs(n)
    assert strata and built == [len(n)] * len(strata)


def test_codimension_one_counts():
    """Number of one-step degenerations of the open stratum."""
    expected = {
        (2, 0): 2,
        (1, 1): 1,
        (3, 0): 8,
        (2, 0, 0): 7,
        (1, 1, 0): 5,
        (2, 1): 5,
    }
    for n, count in expected.items():
        fv = f_vector(n)
        assert fv[-2] == count, n


def test_top_tree_pair_shape():
    tp = top_tree_pair((2, 1))
    assert tp.seam_tree == top_tree(2)
    assert len(tp.components()) == 1
    root = tp.root
    assert root.lines == fz({1, 2})
    assert [sorted(s.lines) for s in root.seams] == [[1], [2]]
    assert root.seams[0].children == (Mark(1, 1), Mark(1, 2))
    assert stratum_dimension(tp) == sum((2, 1)) + 2 - 3
    validate_tree_pair(tp)


def test_enumeration_contains_top_and_respects_dimension():
    for n in [(2, 0), (1, 1), (2, 1)]:
        found = enumerate_tree_pairs(n)
        top = top_tree_pair(n)
        assert any(tp == top for tp in found)
        d = sum(n) + len(n) - 3
        assert all(0 <= stratum_dimension(tp) <= d for tp in found)
        for tp in found:
            validate_tree_pair(tp)


def test_bracketing_round_trip():
    for n in [(1,), (2, 0), (1, 1), (2, 1), (1, 1, 0)]:
        for tp in enumerate_tree_pairs(n):
            one, two = tree_pair_to_two_bracketing(tp)
            rebuilt = two_bracketing_to_tree_pair(n, one, two)
            assert rebuilt == tp, n


@pytest.mark.parametrize(
    "one, two",
    [
        ([fz({1, 2})], [(fz({7}), fz({(9, 9)}))]),
        ([], [(fz({1}), fz({(1, 2)}))]),
        ([], []),
    ],
)
def test_type_one_bracketings_must_be_the_top_stratum(one, two):
    # the one mark's 2-bracket is the root's, so no screen is built from the
    # input: it is compared with the top stratum's bracketing instead
    with pytest.raises(ValueError):
        two_bracketing_to_tree_pair((1,), one, two)


def _two(lines, *pairs):
    return (fz(lines), fz(Mark(*mark) for mark in pairs))


# the top strata of (1, 1) and (3,): the root 2-bracket and each mark's own
TOP_11 = [_two({1, 2}, (1, 1), (2, 1)), _two({1}, (1, 1)), _two({2}, (2, 1))]
TOP_3 = [_two({1}, (1, 1), (1, 2), (1, 3))] + [_two({1}, (1, i)) for i in (1, 2, 3)]


@pytest.mark.parametrize(
    "n, one, two, error",
    [
        ((1, 1), [], TOP_11[1:], "missing root 2-bracket"),
        # a 2-bracket without marks is adopted by none
        ((1, 1), [], TOP_11 + [_two({1})], "has no parent"),
        # two 2-brackets share the mark (1, 2), and neither holds the other
        (
            (3,),
            [],
            TOP_3 + [_two({1}, (1, 1), (1, 2)), _two({1}, (1, 2), (1, 3))],
            "overlap",
        ),
        # the lines separate over {1, 2}, which the seam tree lacks
        (
            (1, 1, 1),
            [],
            [
                _two({1, 2, 3}, (1, 1), (2, 1), (3, 1)),
                _two({1, 2}, (1, 1), (2, 1)),
                *(_two({i}, (i, 1)) for i in (1, 2, 3)),
            ],
            "has no seam-tree vertex",
        ),
        # the root splits, and a child screen over both lines fits no branch
        ((1, 1), [], TOP_11 + [_two({1, 2}, (2, 1))], "does not fit any branch"),
        # without the own 2-bracket of (1, 2) the root carries one object
        ((2,), [], [_two({1}, (1, 1), (1, 2)), _two({1}, (1, 1))], "needs at least 2"),
    ],
    ids=["no-root", "no-parent", "overlap", "no-vertex", "no-branch", "invalid"],
)
def test_malformed_bracketings_are_refused(n, one, two, error):
    with pytest.raises(ValueError, match=error):
        two_bracketing_to_tree_pair(n, one, two)


def test_the_malformed_bracketings_start_from_top_strata():
    assert two_bracketing_to_tree_pair((1, 1), [], TOP_11) == top_tree_pair((1, 1))
    assert two_bracketing_to_tree_pair((3,), [], TOP_3) == top_tree_pair((3,))


def test_two_bracketing_bruteforce_matches_enumeration():
    """Independent oracle: filtering all candidate bracket families by the
    stratum axioms finds exactly the images of the enumerated tree pairs."""
    cases = [
        (1,), (3,), (4,),
        (2, 0), (1, 1), (3, 0), (2, 1), (0, 3),
        (1, 0, 0), (1, 1, 0), (2, 0, 0), (1, 1, 1),
        (1, 0, 0, 0), (2, 0, 0, 0),
        (1, 0, 0, 0, 0),
    ]
    for n in cases:
        brute = enumerate_two_bracketings_bruteforce(n)
        image = {
            tree_pair_to_two_bracketing(tp) for tp in enumerate_tree_pairs(n)
        }
        assert len(brute) == len(set(brute)), n
        assert set(brute) == image, n


def test_two_bracketing_bruteforce_guard():
    with pytest.raises(ValueError, match="exceeds the bound"):
        enumerate_two_bracketings_bruteforce((6, 6))
    with pytest.raises(ValueError, match="at least one mark"):
        enumerate_two_bracketings_bruteforce((0, 0, 0))


def test_poset_properties():
    for n in [(2, 0), (1, 1), (1, 1, 0)]:
        found = enumerate_tree_pairs(n)
        top = top_tree_pair(n)
        for tp in found:
            assert poset_leq_tree_pair(tp, tp)
            assert poset_leq_tree_pair(tp, top)
        for a in found:
            for b in found:
                if poset_leq_tree_pair(a, b) and poset_leq_tree_pair(b, a):
                    assert a == b
    with pytest.raises(ValueError):
        poset_leq_tree_pair(top_tree_pair((2, 0)), top_tree_pair((1, 1)))


def test_local_poset_sizes():
    # open stratum: nothing to melt, a single element
    assert local_poset_elements(top_tree_pair((1, 1))) == [((), ())]
    # the deepest stratum of the (1,1) space: one screen, one free seam
    # vertex, tied by the coherence identity
    deepest = [
        tp for tp in enumerate_tree_pairs((1, 1)) if stratum_dimension(tp) == 0
    ]
    assert len(deepest) == 1
    assert len(local_poset_elements(deepest[0])) == 2


def _glue_shape(tp):
    """The lengths of a gluing's q and r: the stratum's screen and seam
    coordinates."""
    return len(tp.components()) - 1, len(tp.seam_tree.interior_vertices()) - 1


def test_glue_identity_and_top():
    for n in [(2, 0), (1, 1), (1, 1, 0)]:
        for tp in enumerate_tree_pairs(n):
            k_q, k_r = _glue_shape(tp)
            assert glue_tree_pair(tp, (0,) * k_q, (0,) * k_r) == tp
            if ((1,) * k_q, (1,) * k_r) in local_poset_elements(tp):
                glued = glue_tree_pair(tp, (1,) * k_q, (1,) * k_r)
                assert glued == top_tree_pair(n)


def test_glue_refuses_non_integer_data():
    # a float or bool entry is refused, not truncated to a 0/1 point
    tp = enumerate_tree_pairs((2, 1), dimension=0)[0]
    assert _glue_shape(tp) == (4, 0)
    q = (0, 1, 1, 0)
    assert glue_tree_pair(tp, q, ()) != tp
    for bad, entry in [
        ((0.9, 1.9, 1.9, 0.9), "0.9"),
        ((False, True, True, False), "False"),
        ((0, 1, 1.0, 0), "1.0"),
    ]:
        with pytest.raises(ValueError, match=f"q entry {entry} is not an integer"):
            glue_tree_pair(tp, bad, ())
    # and so is r, on a stratum with seam coordinates
    tp = next(t for t in enumerate_tree_pairs((1, 1, 1), dimension=0) if _glue_shape(t)[1])
    k_q, k_r = _glue_shape(tp)
    with pytest.raises(ValueError, match="r entry 0.0 is not an integer"):
        glue_tree_pair(tp, (0,) * k_q, (0.0,) * k_r)


def test_glue_rejects_incoherent_data():
    deepest = [
        tp for tp in enumerate_tree_pairs((1, 1)) if stratum_dimension(tp) == 0
    ]
    tp = deepest[0]
    elements = set(local_poset_elements(tp))
    k_q, k_r = _glue_shape(tp)
    # some 0/1 vector outside the coherent set must exist and be rejected
    bad = None
    for q_bits in range(1 << k_q):
        for r_bits in range(1 << k_r):
            q = tuple((q_bits >> i) & 1 for i in range(k_q))
            r = tuple((r_bits >> i) & 1 for i in range(k_r))
            if (q, r) not in elements:
                bad = (q, r)
    assert bad is not None
    with pytest.raises(ValueError, match="incoherent") as info:
        glue_tree_pair(tp, *bad)
    # the message names the broken relation as the lattice model writes it
    relations = model_defining_relations(coherence_generators(tp))
    prefix = "incoherent gluing data: breaks "
    message = str(info.value)
    assert message.startswith(prefix) and message[len(prefix) :] in relations


def test_glue_is_order_embedding_with_interval_image():
    for n in [(2, 0), (1, 1), (3, 0), (1, 1, 0), (2, 0, 0)]:
        strata = enumerate_tree_pairs(n)
        for tp in strata:
            elements = local_poset_elements(tp)
            images = {}
            for q, r in elements:
                images[(q, r)] = glue_tree_pair(tp, q, r)
            assert len(set(images.values())) == len(images)
            for x in elements:
                for y in elements:
                    bitwise = all(a <= b for a, b in zip(x[0], y[0])) and all(
                        a <= b for a, b in zip(x[1], y[1])
                    )
                    ordered = poset_leq_tree_pair(images[x], images[y])
                    assert bitwise == ordered, (n, x, y)
            interval = {
                other for other in strata if poset_leq_tree_pair(tp, other)
            }
            assert set(images.values()) == interval, n


def _screen(lines, *seams):
    """A screen over lines, with one seam per (lines, children) pair."""
    return Component(fz(lines), tuple(Seam(fz(l), tuple(c)) for l, c in seams))


# one malformed stratum per message of validate_tree_pair, built directly
MALFORMED = [
    (
        TreePair((1, 1), top_tree(3), top_tree_pair((1, 1)).root),
        "seam tree and mark vector disagree on the line count",
    ),
    (
        TreePair((1, 1), top_tree(2), _screen({1}, ({1}, [Mark(1, 1)]))),
        "root screen must carry every line",
    ),
    (TreePair((1,), top_tree(1), _screen({1})), "screen with no seams"),
    (
        TreePair((1, 1), top_tree(2), _screen({1, 2}, ({1}, [Mark(1, 1)]))),
        "single screen over [1, 2] has seam over [1]",
    ),
    (
        TreePair((2,), top_tree(1), _screen({1}, ({1}, [Mark(1, 1)]))),
        "carries 1 object(s); needs at least 2",
    ),
    (
        TreePair(
            (2, 0), top_tree(2), _screen({1, 2}, ({1, 2}, [Mark(1, 1), Mark(1, 2)]))
        ),
        "misplaced on a seam over [1, 2]",
    ),
    (
        # a single screen's child screen over other lines
        TreePair(
            (2, 2),
            top_tree(2),
            _screen(
                {1, 2},
                (
                    {1, 2},
                    [
                        _screen({1}, ({1}, [Mark(1, 1), Mark(1, 2)])),
                        _screen({2}, ({2}, [Mark(2, 1), Mark(2, 2)])),
                    ],
                ),
            ),
        ),
        "must carry",
    ),
    (
        TreePair((1,), top_tree(1), _screen({1}, ({1}, [Mark(1, 1)]), ({1}, []))),
        "multi screen over a single line",
    ),
    (
        TreePair(
            (1, 1, 1),
            top_tree(3),
            _screen({1, 2, 3}, ({1, 2}, []), ({3}, [Mark(3, 1)])),
        ),
        "does not match the seam-tree branching",
    ),
    (
        TreePair((1, 0), top_tree(2), _screen({1, 2}, ({1}, []), ({2}, []))),
        "multi screen over [1, 2] carries no object",
    ),
    (
        TreePair((0, 1), top_tree(2), _screen({1, 2}, ({1}, [Mark(2, 1)]), ({2}, []))),
        "misplaced on a seam over [1]",
    ),
    (
        TreePair(
            (1, 2),
            top_tree(2),
            _screen(
                {1, 2},
                ({1}, [_screen({2}, ({2}, [Mark(2, 1), Mark(2, 2)]))]),
                ({2}, [Mark(1, 1)]),
            ),
        ),
        "screen under a seam must carry exactly the seam's lines",
    ),
    (
        TreePair((2,), top_tree(1), _screen({1}, ({1}, [Mark(1, 1), Mark(1, 1)]))),
        "duplicate marks",
    ),
    (
        TreePair((2,), top_tree(1), _screen({1}, ({1}, [Mark(1, 1), Mark(1, 3)]))),
        "do not census",
    ),
]


@pytest.mark.parametrize("tp, message", MALFORMED, ids=[m for _, m in MALFORMED])
def test_component_structure_validation(tp, message):
    """The cases reach every message of validate_tree_pair."""
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_tree_pair(tp)


def test_dimension_keyword_matches_the_filtered_enumeration():
    # the keyword drops strata before they are keyed; the filtered full
    # enumeration and the independent count recursion are its oracles
    from test_acceptance import _compositions_up_to

    from linestrata.vpp import stratum_counts

    types = _compositions_up_to(6)
    assert len(types) == 57  # 2^(s-1) - 1 types of each size s <= 6
    for n in types:
        everything = enumerate_tree_pairs(n)
        counts = stratum_counts(n)
        for d, count in enumerate(counts):
            only = enumerate_tree_pairs(n, dimension=d)
            assert only == [tp for tp in everything if tp.dimension == d], (n, d)
            assert len(only) == count, (n, d)
    assert enumerate_tree_pairs((2, 1), dimension=3) == []


def test_enumeration_caches_only_sub_fibers():
    import gc
    import weakref

    from linestrata.tree_pairs import _enum_fiber

    n = (2, 1, 1)
    strata = enumerate_tree_pairs(n)
    # a stratum's root screen is built by the top-level call alone
    roots = [weakref.ref(tp.root) for tp in strata]
    del strata
    gc.collect()
    assert all(ref() is None for ref in roots)
    # the full line set is the top-level key, and no entry has it: asking
    # for it again, with the unbounded budget, is a miss (the sub-fibers
    # are over proper parts)
    lines = (1, 2, 3)
    marks = tuple(Mark(i, j) for i in lines for j in range(1, n[i - 1] + 1))
    before = _enum_fiber.cache_info()
    assert before.currsize > 0
    _enum_fiber(lines, (marks,), math.inf)
    after = _enum_fiber.cache_info()
    assert after.misses == before.misses + 1
    assert after.hits > before.hits  # the sub-fibers are still there
