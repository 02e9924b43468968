"""Small combinatorial generators shared across modules."""
from __future__ import annotations

from itertools import product
from math import factorial, prod
from typing import Iterator, Sequence, TypeVar

T = TypeVar("T")

Vector = tuple[int, ...]


def set_partitions(items: Sequence[T]) -> Iterator[list[list[T]]]:
    """All set partitions of items, each partition a list of nonempty blocks.

    Blocks appear in order of their smallest original index, so the output is
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


def vector_partitions(v: Vector) -> Iterator[tuple[tuple[Vector, ...], int]]:
    """Partitions of a count vector, each with its labelled multiplicity.

    Take v[i] distinguishable marks of colour i.  Every set partition of
    those marks has a multiset of block count vectors; this yields each such
    multiset once, as a non-increasing tuple of nonzero blocks, paired with
    the number of set partitions that have it:

        prod_i v_i! / (prod_blocks prod_i b_i! * prod_distinct blocks mult!)

    The multiplicities sum to the Bell number of sum(v).  The zero vector
    has the single empty partition, with multiplicity 1.  Callers cache
    what they compute from the partitions, so the partitions themselves are
    not cached.
    """
    v = tuple(v)
    numerator = prod(factorial(c) for c in v)
    for blocks in _blocks_at_most(v, v):
        denominator = prod(factorial(c) for b in blocks for c in b)
        run = 1
        for prev, cur in zip(blocks, blocks[1:]):
            run = run + 1 if cur == prev else 1
            denominator *= run
        mult, rem = divmod(numerator, denominator)
        if rem:
            raise ValueError(
                f"multiplicity of {blocks} in {v} is not an integer"
            )
        yield blocks, mult


def _blocks_at_most(v: Vector, bound: Vector) -> Iterator[tuple[Vector, ...]]:
    """Non-increasing tuples of nonzero blocks summing to v, each <= bound."""
    if not any(v):
        yield ()
        return
    for block in product(*(range(c, -1, -1) for c in v)):
        if block > bound or not any(block):
            continue
        rest = tuple(c - b for c, b in zip(v, block))
        for tail in _blocks_at_most(rest, block):
            yield (block,) + tail
