"""Strata of the compactified marked-line moduli as pairs of trees.

A stratum is encoded by a pair: a seam tree (the line-collision pattern, a
:class:`~linestrata.trees.StableTree`) together with a bubble tree whose
vertices are screens (components), seam attachment points, and marks.  Screens
come in two kinds: a *single* screen has one seam carrying its whole line set
(the lines travel together), a *multi* screen has one seam per child of the
corresponding seam-tree vertex (the lines separate there).  Marks sit on seams
whose line set is a single line.

Stability: a single screen's seam carries at least two objects (the one-mark
whole space being the only exception), and a multi screen carries at least one
object overall.  Seam subtrees with no marks below them exist only in the seam
tree — no screen covers them.

Enumeration makes the choices of the VPP recursion (:mod:`linestrata.vpp`),
read from a screen over several lines down.  Each factor presents its marks
as a set partition into k screens under a fusion tree, one of the stable
trees on k leaves of :func:`~linestrata.trees.hierarchies`, whose interior
vertices are single screens over all the lines; the presentation does not
depend on how the lines separate.  The lines then separate into a partition
of at least two parts, shared by every screen, and each screen picks one
row, an entry per part: over a single line the seam children of its marks
there, over a fat part a set partition of its marks there into sub-screen
groups.  The groups over a fat part, pooled across all screens, are the
factors of one smaller fiber over the part.

Strata are alternatively encoded as bracketings: the seam tree's laminar
family plus a 2-bracket (line set, set of marks below it) for every screen
and every mark.  The dictionary between the two encodings is implemented
here and gives the degeneration order; a stratum is read back from its
bracketing in one pass, fewest marks first, in which each 2-bracket adopts
its children.  Gluing deletes brackets.  A stratum's neighbourhood (its
lattice model, local poset and gluing) lives in
:mod:`linestrata.local_models`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, islice, product
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar, Union

from ._combi import (
    Mark, as_integer, marks, set_partitions, set_partitions_at_least, type_vector,
)
from .trees import (
    Bracket, Nested, StableTree, enumerate_stable_trees, hierarchies, top_tree,
    tree_dimension,
)

__all__ = [
    "Mark",
    "Seam",
    "Component",
    "TreePair",
    "validate_tree_pair",
    "stratum_dimension",
    "top_tree_pair",
    "enumerate_tree_pairs",
    "f_vector",
    "tree_pair_to_two_bracketing",
    "two_bracketing_to_tree_pair",
    "enumerate_two_bracketings_bruteforce",
    "poset_leq_tree_pair",
]


@dataclass(frozen=True)
class Seam:
    """An attachment locus on a screen, labeled by the lines it carries."""

    lines: frozenset[int]
    children: tuple[Union["Component", Mark], ...]


@dataclass(frozen=True)
class Component:
    """A screen: single (one seam, lines together) or multi (lines separate)."""

    lines: frozenset[int]
    seams: tuple[Seam, ...]

    @property
    def is_multi(self) -> bool:
        return len(self.seams) >= 2

    def child_components(self) -> Iterator["Component"]:
        for seam in self.seams:
            for child in seam.children:
                if isinstance(child, Component):
                    yield child

    def subtree_marks(self) -> frozenset[Mark]:
        out: set[Mark] = set()
        stack: list[Component] = [self]
        while stack:
            comp = stack.pop()
            for seam in comp.seams:
                for child in seam.children:
                    if isinstance(child, Mark):
                        out.add(child)
                    else:
                        stack.append(child)
        return frozenset(out)


def _child_sort_key(child: Component | Mark):
    if isinstance(child, Mark):
        return (0, child)
    # a screen without marks is malformed; sort it anyway, so that
    # validate_tree_pair is what reports it
    return (1, min(child.subtree_marks(), default=()))


def _sorted_children(children: Iterable[Component | Mark]) -> tuple[Component | Mark, ...]:
    return tuple(sorted(children, key=_child_sort_key))


@dataclass(frozen=True)
class TreePair:
    """A stratum: seam tree plus bubble tree."""

    n: tuple[int, ...]
    seam_tree: StableTree
    root: Component

    @property
    def r(self) -> int:
        return len(self.n)

    def components(self) -> list[Component]:
        """All screens in depth-first order following the stored child order."""
        out: list[Component] = []

        def walk(comp: Component) -> None:
            out.append(comp)
            for child in comp.child_components():
                walk(child)

        walk(self.root)
        return out

    def canonical_key(self) -> str:
        """The stratum's canonical form: its JSON with sorted keys.

        Every constructor stores a seam's children in ``_child_sort_key``
        order and a screen's seams by smallest line, so two equal strata
        give the same string.
        """
        return json.dumps(self.to_json(), sort_keys=True)

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        def comp_json(comp: Component) -> dict:
            return {
                "lines": sorted(comp.lines),
                "seams": [
                    {
                        "lines": sorted(seam.lines),
                        "children": [
                            child.to_json()
                            if isinstance(child, Mark)
                            else comp_json(child)
                            for child in seam.children
                        ],
                    }
                    for seam in comp.seams
                ],
            }

        return {
            "n": list(self.n),
            "seam_tree": self.seam_tree.to_nested(),
            "bubble_tree": comp_json(self.root),
        }

    @cached_property
    def dimension(self) -> int:
        """:func:`stratum_dimension` of this stratum, computed once."""
        return stratum_dimension(self)

    @cached_property
    def two_bracketing(self) -> tuple[frozenset[Bracket], frozenset[TwoBracket]]:
        """:func:`tree_pair_to_two_bracketing` of this stratum, computed
        once: the seam tree's brackets, and a 2-bracket (lines, marks below)
        per screen and per mark."""
        root_marks = self.root.subtree_marks()
        two = {(frozenset({mark.line}), frozenset({mark})) for mark in root_marks}
        two.add((self.root.lines, root_marks))
        two.update((comp.lines, comp.subtree_marks()) for comp in self.components()[1:])
        return self.seam_tree.brackets, frozenset(two)

    def sort_key(self) -> tuple[int, str]:
        return (self.dimension, self.canonical_key())


# ---------------------------------------------------------------------------
# validation / dimension
# ---------------------------------------------------------------------------


def validate_tree_pair(tp: TreePair) -> None:
    """Raise ValueError when the pair is not a well-formed stable stratum."""
    r = tp.r
    if tp.seam_tree.r != r:
        raise ValueError("seam tree and mark vector disagree on the line count")
    full = frozenset(range(1, r + 1))
    if tp.root.lines != full:
        raise ValueError("root screen must carry every line")
    seen_marks: list[Mark] = []

    def walk(comp: Component, is_root: bool) -> None:
        if not comp.seams:
            raise ValueError("screen with no seams")
        if len(comp.seams) == 1:
            seam = comp.seams[0]
            if seam.lines != comp.lines:
                raise ValueError(
                    f"single screen over {sorted(comp.lines)} has seam over"
                    f" {sorted(seam.lines)}"
                )
            # the one-mark whole space is the only screen with one object
            if len(seam.children) < 2 and not (is_root and tp.n == (1,)):
                raise ValueError(
                    f"single screen over {sorted(comp.lines)} carries"
                    f" {len(seam.children)} object(s); needs at least 2"
                )
        else:
            if len(comp.lines) < 2:
                raise ValueError("multi screen over a single line")
            parts = set(tp.seam_tree.children(comp.lines))
            seam_lines = [seam.lines for seam in comp.seams]
            if len(seam_lines) != len(parts) or set(seam_lines) != parts:
                raise ValueError(
                    f"multi screen over {sorted(comp.lines)} does not match the"
                    f" seam-tree branching {sorted(sorted(p) for p in parts)}"
                )
            if all(len(seam.children) == 0 for seam in comp.seams):
                raise ValueError(
                    f"multi screen over {sorted(comp.lines)} carries no object"
                )
        for seam in comp.seams:
            for child in seam.children:
                if isinstance(child, Mark):
                    if len(seam.lines) != 1 or child.line not in seam.lines:
                        raise ValueError(
                            f"mark {child} misplaced on a seam over {sorted(seam.lines)}"
                        )
                    seen_marks.append(child)
                else:
                    if child.lines != seam.lines:
                        raise ValueError(
                            "screen under a seam must carry exactly the seam's lines"
                        )
                    walk(child, False)

    walk(tp.root, True)
    seen = set(seen_marks)
    if len(seen_marks) != len(seen):
        raise ValueError("duplicate marks")
    # distinct marks, each of the type, as many as the type has: its census
    if len(seen) != sum(tp.n) or not all(
        index in range(1, tp.n[line - 1] + 1) for line, index in seen
    ):
        raise ValueError(
            f"marks {sorted(map(tuple, seen))} do not census"
            f" {list(map(tuple, marks(tp.n)))}"
        )


def stratum_dimension(tp: TreePair) -> int:
    """Moduli dimension of the open stratum."""
    total = tree_dimension(tp.seam_tree)
    for comp in tp.components():
        if comp.is_multi:
            total += sum(len(seam.children) for seam in comp.seams) - 1
        else:
            total += len(comp.seams[0].children) - 2
    return max(total, 0)


def top_tree_pair(n: Sequence[int]) -> TreePair:
    """The open stratum: one screen, marks straight on their lines."""
    nt = type_vector(n)
    lines = range(1, len(nt) + 1)
    points = marks(nt)
    # over a single line, the one seam carries the line's marks too
    seams = tuple(
        Seam(frozenset({i}), tuple(m for m in points if m.line == i)) for i in lines
    )
    tp = TreePair(nt, top_tree(len(nt)), Component(frozenset(lines), seams))
    validate_tree_pair(tp)
    return tp


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _fuse(
    tree: Nested, screens: Sequence[Component | Mark], lines: frozenset[int]
) -> Component | Mark:
    """Screens fused under a stable tree in nested form, leaf i being
    screens[i - 1], with one single screen per interior vertex; a leaf
    gives its screen."""
    if isinstance(tree, int):
        return screens[tree - 1]
    kids = _sorted_children(_fuse(child, screens, lines) for child in tree)
    return Component(lines, (Seam(lines, kids),))


def _nested_dimension(tree: Nested) -> int:
    """Sum of (children - 2) over the interior vertices of a nested tree."""
    if isinstance(tree, int):
        return 0
    return len(tree) - 2 + sum(map(_nested_dimension, tree))


@lru_cache(maxsize=None)
def _graded_hierarchies(k: int) -> tuple[tuple[int, Nested], ...]:
    """:func:`~linestrata.trees.hierarchies` of k as (dimension, tree)
    pairs, the dimension being what the tree's interior vertices add as
    single screens."""
    return tuple((_nested_dimension(tree), tree) for tree in hierarchies(k))


# an option graded by its first item, an int >= 0
G = TypeVar("G", bound=tuple)
_grade = itemgetter(0)


def _graded_product(
    options: Sequence[Sequence[G]], budget: float
) -> Iterator[tuple[int, tuple[G, ...]]]:
    """The combinations of one option from each list whose grades, each
    option's first item, sum to at most budget, as (the sum, the options),
    in :func:`itertools.product` order.  Grades are >= 0, so the lists
    need hold only options graded at most budget."""
    for combo in product(*options):
        total = sum(map(_grade, combo))
        if total <= budget:
            yield total, combo


def _line_children(
    line: int, marks: tuple[Mark, ...], budget: float
) -> Iterator[tuple[int, tuple[Component | Mark, ...]]]:
    """Every sorted seam child tuple over the marks of one line, each
    cluster of a set partition of the marks fused under a stable tree, with
    the dimension of the fused levels, up to budget."""
    lines = frozenset({line})
    for clusters in set_partitions(marks):
        options = [
            [
                (dim, _fuse(tree, cluster, lines))
                for dim, tree in _graded_hierarchies(len(cluster))
                if dim <= budget
            ]
            for cluster in clusters
        ]
        for dim, combo in _graded_product(options, budget):
            yield dim, _sorted_children(fused for _, fused in combo)


def _screen_rows(
    screen: tuple[Mark, ...], parts: Sequence[tuple[int, ...]], budget: float
) -> list[tuple[int, tuple]]:
    """A screen's rows under a line partition, an entry per part: over a
    single line the seam children of its marks there, over a fat part a set
    partition of its marks there into sub-screen groups.  Each row comes as
    (the dimension it adds, the row), up to budget: the screen's objects (a
    seam child or a group each) less one, plus its fused levels."""
    # entries are graded with their objects, so up to budget + 1
    options = []
    for part in parts:
        here = tuple(m for m in screen if m.line in part)
        if len(part) == 1:
            # a line without marks keeps its one empty seam
            entries = (
                (dim + len(children), children)
                for dim, children in _line_children(part[0], here, budget)
            )
        else:
            entries = (
                (len(groups), tuple(map(tuple, groups))) for groups in set_partitions(here)
            )
        options.append([entry for entry in entries if entry[0] <= budget + 1])
    # a screen has a mark, so every row has an object
    return [
        (objects - 1, tuple(entry for _, entry in combo))
        for objects, combo in _graded_product(options, budget + 1)
    ]


def _multi_screen(
    lines: frozenset[int], seam_lines: Sequence[frozenset[int]], row: tuple, fed: Mapping
) -> Component:
    """A screen on which the lines separate, from its row: over a single
    line the entry is the seam's children, over the fat part j the seam
    takes the next roots fed from the part's sub-fiber, one per group."""
    return Component(
        lines,
        tuple(
            Seam(part, _sorted_children(islice(fed[j], len(entry))) if j in fed else entry)
            for j, (part, entry) in enumerate(zip(seam_lines, row))
        ),
    )


@lru_cache(maxsize=None)
def _enum_fiber(
    lines: tuple[int, ...], factors: tuple[tuple[Mark, ...], ...], budget: float
) -> tuple[tuple[int, frozenset[Bracket], tuple[Component, ...]], ...]:
    """All (dimension, interior sub-brackets, per-factor root screens)
    over the lines, of dimension at most budget.

    The brackets returned are the interior vertices strictly inside the line
    set; the caller owns the vertex for the line set itself.  Over several
    lines, each factor presents its screens under a fusion tree; then, per
    line partition, each screen picks a row, and the groups over each fat
    part are pooled into one sub-fiber, whose roots come back in the order
    the groups went in (see the module docstring).

    The dimension is :func:`stratum_dimension`'s sum, taken where each
    choice is made: a partition of the lines into k parts adds k - 2 at the
    line set's vertex, a fusion tree (c - 2) per interior vertex with c
    children, and a row its screen's objects less one plus its fused levels;
    each sub-fiber gets the budget that is left.  Every share is >= 0, so
    no choice is pursued once its partial sum passes the budget, and
    ``budget = math.inf`` gives every stratum.
    """
    if any(not marks for marks in factors):
        raise ValueError("a factor with no marks cannot cover a line")
    full = frozenset(lines)
    if len(lines) == 1:
        (marks,) = factors
        if len(marks) == 1:
            # the one-mark whole space, a point
            one = Component(full, (Seam(full, marks),))
            return ((0, frozenset(), (one,)),) if budget >= 0 else ()
        return tuple(
            (dim, frozenset(), (_fuse(tree, marks, full),))
            for dim, tree in _graded_hierarchies(len(marks))
            if dim <= budget
        )

    presentations = [
        [
            (dim, tuple(map(tuple, screens)), tree)
            for screens in set_partitions(marks)
            for dim, tree in _graded_hierarchies(len(screens))
            if dim <= budget
        ]
        for marks in factors
    ]
    distinct = {s for options in presentations for _, blocks, _ in options for s in blocks}
    results = []
    for raw_parts in set_partitions_at_least(sorted(lines), 2):
        # the line set's vertex in the seam tree
        spent = len(raw_parts) - 2
        if spent > budget:
            continue
        parts = sorted(map(tuple, raw_parts))
        seam_lines = [frozenset(part) for part in parts]
        fat = [j for j, part in enumerate(parts) if len(part) > 1]
        rows = {screen: _screen_rows(screen, parts, budget - spent) for screen in distinct}
        for fused, presented in _graded_product(presentations, budget - spent):
            screens = [screen for _, blocks, _ in presented for screen in blocks]
            picks = _graded_product([rows[s] for s in screens], budget - spent - fused)
            for split, picked in picks:
                made = spent + fused + split
                subs = [
                    _enum_fiber(
                        parts[j], tuple(g for _, row in picked for g in row[j]), budget - made
                    )
                    for j in fat
                ]
                for below, sub_combo in _graded_product(subs, budget - made):
                    brackets = {seam_lines[j] for j in fat}
                    fed = {}
                    for j, (_, sub_brackets, sub_roots) in zip(fat, sub_combo):
                        brackets |= sub_brackets
                        fed[j] = iter(sub_roots)
                    built = iter(
                        [_multi_screen(full, seam_lines, row, fed) for _, row in picked]
                    )
                    roots = tuple(
                        _fuse(tree, list(islice(built, len(blocks))), full)
                        for _, blocks, tree in presented
                    )
                    results.append((made + below, frozenset(brackets), roots))
    return tuple(results)


def enumerate_tree_pairs(
    n: Sequence[int], dimension: int | None = None
) -> list[TreePair]:
    """All strata of the space with n_i marks on line i, dimension-sorted.

    With a dimension, only the strata of that dimension, in the same order:
    the enumeration takes no choice that passes it, and builds, keys, sorts
    and validates only the strata it keeps.  A negative or too large
    dimension gives no strata; one that is not an integer (a bool, float or
    string) raises ValueError.  Each stratum's :func:`stratum_dimension` is
    checked against the enumeration's.
    """
    nt = type_vector(n)
    if dimension is not None:
        dimension = as_integer(dimension, "dimension")
    r = len(nt)
    lines = tuple(range(1, r + 1))
    points = marks(nt)
    keyed = []
    # uncached at the top: the cache keeps sub-fibers only, so the strata
    # die with the caller's list
    budget = math.inf if dimension is None else dimension
    for dim, brackets, roots in _enum_fiber.__wrapped__(lines, (points,), budget):
        if dimension is not None and dim != dimension:
            continue
        tp = TreePair(nt, StableTree(r, brackets), roots[0])
        if tp.dimension != dim:
            raise AssertionError(
                f"stratum of dimension {tp.dimension} enumerated as dimension {dim}"
            )
        keyed.append((tp.sort_key(), tp))
    keyed.sort(key=itemgetter(0))
    out: list[TreePair] = []
    previous = None
    for key, tp in keyed:
        # equal strata have equal keys, so after the sort they are adjacent
        if key == previous:
            raise AssertionError("duplicate stratum produced by enumeration")
        previous = key
        validate_tree_pair(tp)
        out.append(tp)
    return out


def f_vector(n: Sequence[int]) -> list[int]:
    """Stratum counts by dimension, starting at dimension 0."""
    dims = [tp.dimension for tp in enumerate_tree_pairs(n)]
    out = [0] * (max(dims) + 1)
    for d in dims:
        out[d] += 1
    return out


# ---------------------------------------------------------------------------
# bracketing dictionary and degeneration order
# ---------------------------------------------------------------------------

TwoBracket = tuple[frozenset[int], frozenset[Mark]]


def tree_pair_to_two_bracketing(
    tp: TreePair,
) -> tuple[frozenset[Bracket], frozenset[TwoBracket]]:
    return tp.two_bracketing


def _tb_contains(big: TwoBracket, small: TwoBracket) -> bool:
    return small[0] <= big[0] and small[1] <= big[1]


def two_bracketing_to_tree_pair(
    n: Sequence[int],
    one_brackets: Iterable[Bracket],
    two_brackets: Iterable[TwoBracket],
) -> TreePair:
    """Rebuild the stratum from its bracketings; validates the result.

    One pass over the 2-brackets, fewest marks first and then fewest
    lines, as :func:`~linestrata.trees.StableTree` reads its brackets: each
    2-bracket adopts the largest 2-brackets so far around its marks, which
    are its children.  A mark's own 2-bracket is the mark.  A 2-bracket
    that does not contain one it would adopt overlaps it, and is refused.
    """
    nt = type_vector(n)
    r = len(nt)
    tree = StableTree(r, one_brackets)
    tbs = set(two_brackets)
    if nt == (1,):
        # the root screen is the one mark's own 2-bracket, so there is
        # nothing to build: the input must be the top stratum's
        top = top_tree_pair(nt)
        if (tree.brackets, frozenset(tbs)) != tree_pair_to_two_bracketing(top):
            raise ValueError("bracketings of type (1,) other than the top stratum's")
        return top
    all_marks = marks(nt)
    root_tb = (frozenset(range(1, r + 1)), frozenset(all_marks))
    if root_tb not in tbs:
        raise ValueError("missing root 2-bracket")

    # the largest 2-bracket so far around each mark, from its own
    leaf = {(frozenset({m.line}), frozenset({m})): m for m in all_marks}
    largest = {m: tb for tb, m in leaf.items() if tb in tbs}
    children: dict[TwoBracket, list[TwoBracket]] = {}
    adopted: set[TwoBracket] = set()
    for tb in sorted(tbs.difference(leaf), key=lambda tb: (len(tb[1]), len(tb[0]))):
        kids = children[tb] = []
        for mark in tb[1]:
            child = largest.get(mark)
            if child is not None and child not in adopted:
                if not _tb_contains(tb, child):
                    raise ValueError(f"2-brackets {tb} and {child} overlap")
                adopted.add(child)
                kids.append(child)
            largest[mark] = tb
    for tb in tbs:
        if tb not in adopted and tb != root_tb:
            raise ValueError(f"2-bracket {tb} has no parent")

    def build(tb: TwoBracket) -> Component | Mark:
        if tb in leaf:
            return leaf[tb]
        lines = tb[0]
        kids = children[tb]
        built = [build(kid) for kid in kids]
        if all(kid[0] == lines for kid in kids):
            return Component(lines, (Seam(lines, _sorted_children(built)),))
        if lines not in tree.brackets:
            raise ValueError(
                f"splitting screen over {sorted(lines)} has no seam-tree vertex"
            )
        seams = tuple(
            Seam(part, _sorted_children(b for b, kid in zip(built, kids) if kid[0] <= part))
            for part in tree.children(lines)
        )
        if sum(len(s.children) for s in seams) != len(built):
            raise ValueError("child screen does not fit any branch")
        return Component(lines, seams)

    tp = TreePair(nt, tree, build(root_tb))
    validate_tree_pair(tp)
    return tp


# the largest candidate pool the brute force searches, per seam tree
_MAX_CANDIDATES = 64


def enumerate_two_bracketings_bruteforce(
    n: Sequence[int],
) -> list[tuple[frozenset[Bracket], frozenset[TwoBracket]]]:
    """Every bracketing structure satisfying the stratum axioms, found by
    exhaustive search.  Independent cross-check of the tree-pair
    enumeration for small types; output is in the same shape as
    :func:`tree_pair_to_two_bracketing`.

    The axioms, per candidate family over a fixed laminar line family:
    marks shared between two entries force nesting; every entry's line set
    is in the line family; the full entry and all single-mark entries are
    present; at each line set, the entries lying exactly there jointly
    cover all marks of each member line, and any entry properly containing
    another at its level keeps each of its marks inside some properly
    smaller same-level entry.
    """
    nt = type_vector(n)
    r = len(nt)
    all_marks = frozenset(marks(nt))
    root_tb: TwoBracket = (frozenset(range(1, r + 1)), all_marks)
    forced = {root_tb, *((frozenset({mark[0]}), frozenset({mark})) for mark in all_marks)}

    results: list[tuple[frozenset[Bracket], frozenset[TwoBracket]]] = []
    for tree in enumerate_stable_trees(r):
        pool: list[TwoBracket] = []
        for bracket in sorted(tree.brackets, key=sorted):
            level_marks = sorted(mk for mk in all_marks if mk[0] in bracket)
            for size in range(1, len(level_marks) + 1):
                for combo in combinations(level_marks, size):
                    candidate: TwoBracket = (bracket, frozenset(combo))
                    if candidate in forced:
                        continue
                    pool.append(candidate)
        if len(pool) > _MAX_CANDIDATES:
            raise ValueError(
                f"candidate pool of size {len(pool)} exceeds the bound "
                f"{_MAX_CANDIDATES}; the brute force is for small types only"
            )

        # mark-sharing entries must nest; a violating pair can never be
        # repaired by later choices, so it prunes the whole branch
        incompatible = [0] * len(pool)
        for a in range(len(pool)):
            for b in range(a + 1, len(pool)):
                ta, tb = pool[a], pool[b]
                if ta[1] & tb[1] and not (
                    _tb_contains(ta, tb) or _tb_contains(tb, ta)
                ):
                    incompatible[a] |= 1 << b
                    incompatible[b] |= 1 << a

        def family_ok(family: frozenset[TwoBracket]) -> bool:
            levels: dict[Bracket, list[TwoBracket]] = {
                b: [] for b in tree.brackets
            }
            for tb in family:
                levels[tb[0]].append(tb)
            for bracket, level in levels.items():
                for i in bracket:
                    needed = set(range(1, nt[i - 1] + 1))
                    if not needed:
                        continue
                    covered = {
                        j for tb in level for (line, j) in tb[1] if line == i
                    }
                    if covered != needed:
                        return False
                for tb in level:
                    smaller = [o for o in level if o[1] < tb[1]]
                    if not smaller:
                        continue
                    for mk in tb[1]:
                        if not any(mk in o[1] for o in smaller):
                            return False
            return True

        def dfs(index: int, chosen: int) -> None:
            if index == len(pool):
                family = frozenset(
                    forced | {pool[k] for k in range(len(pool)) if chosen >> k & 1}
                )
                if family_ok(family):
                    results.append((tree.brackets, family))
                return
            dfs(index + 1, chosen)
            if not incompatible[index] & chosen:
                dfs(index + 1, chosen | 1 << index)

        dfs(0, 0)

    results.sort(
        key=lambda pair: (
            sorted(sorted(b) for b in pair[0]),
            sorted((sorted(l), sorted(m)) for l, m in pair[1]),
        )
    )
    return results


def poset_leq_tree_pair(tp1: TreePair, tp2: TreePair) -> bool:
    """True when tp1 is a degeneration of tp2 (more brackets everywhere)."""
    if tp1.n != tp2.n:
        raise ValueError("strata of different spaces are incomparable")
    one1, two1 = tree_pair_to_two_bracketing(tp1)
    one2, two2 = tree_pair_to_two_bracketing(tp2)
    return one1 >= one2 and two1 >= two2

