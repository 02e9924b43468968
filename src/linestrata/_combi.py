"""Small combinatorial generators shared across modules."""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial, prod
from operator import sub
from typing import Iterator, Sequence, TypeVar

T = TypeVar("T")

Vector = tuple[int, ...]


def set_partitions(items: Sequence[T]) -> Iterator[list[list[T]]]:
    """All set partitions of items, each partition a list of nonempty blocks.

    The order of the partitions, and of the blocks within each, is
    deterministic for a fixed input order.
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def set_partitions_at_least(items: Sequence[T], min_blocks: int) -> Iterator[list[list[T]]]:
    for part in set_partitions(items):
        if len(part) >= min_blocks:
            yield part


@lru_cache(maxsize=None)
def vector_partitions(v: Vector) -> tuple[tuple[tuple[Vector, ...], int], ...]:
    """Partitions of a count vector, each with its labelled multiplicity.

    Take v[i] distinguishable marks of colour i.  Every set partition of
    those marks has a multiset of block count vectors; this lists each such
    multiset once, as a non-increasing tuple of nonzero blocks, paired with
    the number of set partitions that have it:

        prod_i v_i! / (prod_blocks prod_i b_i! * prod_distinct blocks mult!)

    The multiplicities sum to the Bell number of sum(v).  The zero vector
    has the single empty partition, with multiplicity 1.  The result is
    memoised, so v must be a tuple.
    """
    numerator = _factorials(v)
    out = []
    for blocks in _blocks_at_most(v, v):
        denominator = run = 1
        for prev, cur in zip((None,) + blocks, blocks):
            run = run + 1 if cur == prev else 1
            denominator *= _factorials(cur) * run
        mult, rem = divmod(numerator, denominator)
        if rem:
            raise ValueError(
                f"multiplicity of {blocks} in {v} is not an integer"
            )
        out.append((blocks, mult))
    return tuple(out)


@lru_cache(maxsize=None)
def _factorials(b: Vector) -> int:
    """prod_i b_i!"""
    return prod(map(factorial, b))


@lru_cache(maxsize=None)
def _blocks_at_most(v: Vector, bound: Vector) -> tuple[tuple[Vector, ...], ...]:
    """Non-increasing tuples of nonzero blocks summing to v, each <= bound.

    Memoised, so that partitions sharing a remainder and a bound share
    their tails."""
    if not any(v):
        return ((),)
    return tuple(
        (block,) + tail
        for block in _first_blocks(v, bound)
        for tail in _blocks_at_most(tuple(map(sub, v, block)), block)
    )


def _first_blocks(v: Vector, bound: Vector) -> list[Vector]:
    """The blocks that can open a non-increasing tuple summing to v: every
    b <= v entrywise and <= bound in lexicographic order that takes a mark
    of v's first nonzero entry, in decreasing lexicographic order.

    Later blocks are no larger, so they never reach an earlier entry than
    the first block does; a first block that leaves marks of v's first
    nonzero entry j could never be completed.  The bound is v itself or the
    previous block, whose first nonzero entry is at j or before: if before,
    every such b is below it; if at j, b is compared entry by entry.
    """
    # the first nonzero entry's value first occurs at its own index
    j = v.index(next(filter(None, v)))
    zeros, w = v[:j], v[j:]
    ranges = [range(c, -1, -1) for c in w]
    if any(bound[:j]):
        ranges[0] = range(w[0], 0, -1)
        return [zeros + t for t in product(*ranges)]
    # b = bound itself, then by the first entry k (last first) where b
    # falls below the bound; up to k, b must stay within v
    u = bound[j:]
    fits = next((k for k, (a, c) in enumerate(zip(u, w)) if a > c), len(w))
    out = [zeros + u] if fits == len(w) else []
    for k in range(min(fits, len(w) - 1), -1, -1):
        head = zeros + u[:k]
        for x in range(min(w[k], u[k] - 1), 0 if k == 0 else -1, -1):
            out.extend(head + (x,) + t for t in product(*ranges[k + 1 :]))
    return out
