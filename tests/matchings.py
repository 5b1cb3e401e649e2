"""Perfect matchings enumerated one by one, for the tests' oracles.

The package walks matchings only inside the moment's depth-first search
(``qfock.wick``); the crossing tests and the enumerate-then-multiply
moment oracle use this separate enumerator, so they stay independent of it.
"""

from typing import Iterator

from qfock.combinatorics import PartialPartition


def _matchings(points: tuple) -> Iterator[tuple]:
    # pairing the first point with each later one in turn, then recursing,
    # yields the pair tuples in lexicographic order
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i in range(len(rest)):
        partner = rest[i]
        for sub in _matchings(rest[:i] + rest[i + 1 :]):
            yield ((first, partner),) + sub


def enumerate_pair_partitions(m: int) -> Iterator[PartialPartition]:
    """All perfect matchings of {1..m}, lexicographic by pair tuple, none if m odd.

    Generated lazily as partitions with no right block (k = 0) and no
    singletons, each through the validating constructor.

    >>> sum(1 for _ in enumerate_pair_partitions(4))
    3
    >>> list(enumerate_pair_partitions(3))
    []
    >>> next(enumerate_pair_partitions(40)).pairs[:2]
    ((1, 2), (3, 4))
    """
    if m < 0:
        raise ValueError("negative ground set")
    if m % 2:
        return
    for pairs in _matchings(tuple(range(1, m + 1))):
        yield PartialPartition(m, 0, pairs)
