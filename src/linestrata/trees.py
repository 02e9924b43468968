"""Stable rooted trees with numbered leaves.

A stable tree on leaves {1..r} is stored as its bracketing: the laminar family
of leaf sets of all vertices.  The family always contains the full set and all
singletons; every interior vertex automatically has at least two children
(laminarity plus the singletons force this), so any laminar family containing
the required elements is a valid tree.  One pass over the family, on
construction, checks that it is laminar and builds the parent map and child
lists.

Trees serialize as nested lists ([1, [2, 3]] is the tree where leaves 2 and 3
share a vertex); children are ordered by smallest leaf everywhere, making the
nested form canonical.  :func:`hierarchies` lists every tree on k leaves in
the same form, as nested tuples.
"""
from __future__ import annotations

import json
from functools import lru_cache
from itertools import product
from typing import Iterable, Mapping, Union

from ._combi import line_count, set_partitions_at_least

__all__ = [
    "StableTree",
    "Bracket",
    "top_tree",
    "enumerate_stable_trees",
    "hierarchies",
    "poset_leq_tree",
    "glue_tree",
    "tree_dimension",
]

Bracket = frozenset[int]
# a stable tree in nested form: a leaf is its number, an interior vertex the
# tuple of its children, ordered by smallest leaf
Nested = Union[int, tuple["Nested", ...]]


def _build_structure(
    brackets: frozenset[Bracket],
) -> tuple[dict[Bracket, Bracket], dict[Bracket, tuple[Bracket, ...]]]:
    """Check the family and build its tree in one pass, smallest brackets
    first: each bracket adopts the largest vertices so far below its leaves,
    which are its children, and must strictly contain each of them.  A vertex
    it does not contain overlaps it, and every overlap shows here: the vertex
    adopted through a shared leaf contains the smaller bracket of the pair.
    Returns the parent of every non-root vertex and the children of every
    interior vertex, ordered by smallest leaf and keyed in preorder; the
    vertices stored are the family's own bracket objects."""
    top = {leaf: b for b in brackets if len(b) == 1 for leaf in b}
    parents: dict[Bracket, Bracket] = {}
    below: dict[Bracket, tuple[Bracket, ...]] = {}
    for b in sorted(brackets, key=len):
        if len(b) == 1:
            continue
        kids = []
        for leaf in sorted(b):
            child = top[leaf]
            if child not in parents:
                if not child < b:
                    raise ValueError(f"brackets {sorted(child)} and {sorted(b)} overlap")
                parents[child] = b
                kids.append(child)
            top[leaf] = b
        below[b] = tuple(kids)
    # the interior vertices keyed in preorder, children by smallest leaf
    children: dict[Bracket, tuple[Bracket, ...]] = {}
    stack = [top[1]]
    while stack:
        b = stack.pop()
        kids = below.get(b)
        if kids is not None:
            children[b] = kids
            stack.extend(reversed(kids))
    return parents, children


class StableTree:
    """Rooted tree on leaves {1..r}, every interior vertex with >= 2 children.

    One pass over the brackets, on construction, checks that they are
    laminar and builds the parent map and child lists stored with the tree.
    """

    __slots__ = ("r", "brackets", "_parents", "_children")

    def __init__(self, r: int, brackets: Iterable[Bracket]):
        r = line_count(r)
        self.r = r
        full = frozenset(range(1, r + 1))
        bs = {frozenset(b) for b in brackets}
        bs.add(full)
        for i in range(1, r + 1):
            bs.add(frozenset({i}))
        for b in bs:
            if not b or not b <= full:
                raise ValueError(f"bracket {sorted(b)} out of range for r={r}")
        self.brackets: frozenset[Bracket] = frozenset(bs)
        self._parents, self._children = _build_structure(self.brackets)

    # -- structure ----------------------------------------------------

    @property
    def root(self) -> Bracket:
        return frozenset(range(1, self.r + 1))

    def interior_vertices(self) -> list[Bracket]:
        """Non-leaf vertices, root first, in preorder."""
        return list(self._children)

    def children(self, b: Bracket) -> tuple[Bracket, ...]:
        """Child vertices of b, ordered by smallest leaf."""
        out = self._children.get(b)
        if out is not None:
            return out
        if b not in self.brackets:
            raise KeyError(f"{sorted(b)} is not a vertex")
        return ()

    def parent(self, b: Bracket) -> Bracket:
        """Parent vertex of b; the root has none."""
        out = self._parents.get(b)
        if out is not None:
            return out
        if b not in self.brackets:
            raise KeyError(f"{sorted(b)} is not a vertex")
        raise ValueError("the root has no parent")

    def in_degree(self, b: Bracket) -> int:
        return len(self.children(b))

    # -- comparisons / hashing ---------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StableTree)
            and self.r == other.r
            and self.brackets == other.brackets
        )

    def __hash__(self) -> int:
        return hash((self.r, self.brackets))

    # -- presentation / serialization ---------------------------------

    def to_nested(self) -> object:
        def build(b: Bracket) -> object:
            if len(b) == 1:
                return next(iter(b))
            return [build(c) for c in self.children(b)]

        return build(self.root)

    @classmethod
    def from_nested(cls, nested: object) -> "StableTree":
        brackets: set[Bracket] = set()

        def walk(node: object) -> Bracket:
            if isinstance(node, int) and not isinstance(node, bool):
                return frozenset({node})
            if not isinstance(node, (list, tuple)):
                raise ValueError(f"bad tree node {node!r}")
            if len(node) < 2:
                raise ValueError("interior vertices need at least two children")
            leafset: frozenset[int] = frozenset()
            for child in node:
                cset = walk(child)
                if leafset & cset:
                    raise ValueError("repeated leaf in tree")
                leafset |= cset
            brackets.add(leafset)
            return leafset

        top = walk(nested)
        leaves = sorted(top)
        r = leaves[-1]
        if leaves != list(range(1, r + 1)):
            raise ValueError(f"leaves {leaves} are not 1..{r}")
        return cls(r, brackets)

    def __str__(self) -> str:
        return json.dumps(self.to_nested(), separators=(",", ":"))

    def __repr__(self) -> str:
        return f"StableTree.from_nested({self.to_nested()!r})"


def top_tree(r: int) -> StableTree:
    """The corolla: root with all leaves as children (the unique maximum)."""
    return StableTree(r, ())


def poset_leq_tree(t1: StableTree, t2: StableTree) -> bool:
    """True when t1 degenerates t2: every bracket of t2 appears in t1."""
    if t1.r != t2.r:
        raise ValueError("trees live on different leaf sets")
    return t1.brackets >= t2.brackets


def tree_dimension(tree: StableTree) -> int:
    """Moduli dimension: sum of (children - 2) over interior vertices."""
    return sum(tree.in_degree(b) - 2 for b in tree.interior_vertices())


def glue_tree(tree: StableTree, assignment: Mapping[Bracket, int]) -> StableTree:
    """Contract every non-root interior vertex whose assigned value is 1.

    The assignment must give a value in {0, 1} for exactly the non-root
    interior vertices.  Gluing is monotone and injective with image the
    interval [tree, top] in the degeneration order.
    """
    keys = {frozenset(k) for k in assignment}
    expected = {b for b in tree.brackets if len(b) >= 2 and b != tree.root}
    if keys != expected:
        missing = sorted(sorted(b) for b in expected - keys)
        extra = sorted(sorted(b) for b in keys - expected)
        raise ValueError(
            f"assignment must cover the non-root interior vertices exactly"
            f" (missing {missing}, extra {extra})"
        )
    removed = set()
    for key, value in assignment.items():
        if value not in (0, 1):
            raise ValueError(f"assignment value {value!r} not in {{0, 1}}")
        if value == 1:
            removed.add(frozenset(key))
    return StableTree(tree.r, tree.brackets - removed)


@lru_cache(maxsize=None)
def _hierarchies_on(leaves: tuple[int, ...]) -> tuple[Nested, ...]:
    """Every stable tree on the given ascending leaves, in nested form; a
    subtree over a leaf subset is the same object in every tree above it."""
    if len(leaves) == 1:
        return leaves
    out: list[Nested] = []
    for parts in set_partitions_at_least(leaves, 2):
        # blocks come ascending, so sorting them orders children by smallest leaf
        out.extend(product(*(_hierarchies_on(tuple(p)) for p in sorted(parts))))
    return tuple(out)


def hierarchies(k: int) -> tuple[Nested, ...]:
    """Every stable tree on leaves {1..k} in nested form, shared by every
    call: the hierarchies of fused levels above k screens (none for k < 1)."""
    return _hierarchies_on(tuple(range(1, k + 1)))


def enumerate_stable_trees(r: int) -> list[StableTree]:
    """All stable trees on leaves {1..r}, deterministic order."""
    r = line_count(r)
    trees = [StableTree.from_nested(nested) for nested in hierarchies(r)]
    trees.sort(key=lambda t: sorted(sorted(b) for b in t.brackets))
    return trees
