"""Matchings and block partitions walked one by one, for the tests' oracles.

The package never enumerates perfect matchings: its moment
(``qfock.wick.moment_pair_partitions``) reads the word once over open-arc
states.  The crossing tests and the enumerate-then-multiply moment oracle
use the enumerator here, and ``dfs_moment`` sums the same moment depth
first over matchings, so each stays independent of the walk it checks.
Block partitions are enumerated in the package as bare pair tuples
(``qfock.combinatorics._straddling_pairs``); the oracles that check the
scans and the split product built on that walk enumerate them here by
another route, each through the validating constructor.
"""

from itertools import combinations, permutations
from typing import Iterator

from qfock.combinatorics import PartialPartition
from qfock.scalars import QPolynomial


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


def enumerate_partial_partitions(n: int, k: int, j: int) -> list:
    """All partitions of {1..n} with j pairs straddling n - k, sorted by pair tuple.

    The left endpoints are a j-subset of {1..n-k}, the right endpoints a
    j-subset of {n-k+1..n}, and each ordering of the rights pairs them with
    the lefts in turn; every partition goes through the validating
    constructor.  A list, built whole: none for j above min(k, n - k).

    >>> [rho.pairs for rho in enumerate_partial_partitions(4, 2, 1)]
    [((1, 3),), ((1, 4),), ((2, 3),), ((2, 4),)]
    >>> len(enumerate_partial_partitions(4, 2, 2)), enumerate_partial_partitions(4, 2, 3)
    (2, [])
    """
    split = n - k
    found = [
        PartialPartition(n, k, tuple(zip(lefts, order)))
        for lefts in combinations(range(1, split + 1), j)
        for rights in combinations(range(split + 1, n + 1), j)
        for order in permutations(rights)
    ]
    return sorted(found, key=lambda rho: rho.pairs)


def singletons(rho: PartialPartition) -> tuple:
    """The points of {1..n} in no pair, ascending.

    >>> singletons(PartialPartition(8, 4, ((2, 5), (4, 7))))
    (1, 3, 6, 8)
    """
    paired = {x for pair in rho.pairs for x in pair}
    return tuple(x for x in range(1, rho.n + 1) if x not in paired)


def _inner_rows(hs: list) -> list:
    """rows[i][j] = <h_i, h_j> for i < j, as plain ints, Fractions or QPolynomials."""
    m = len(hs)
    if all(isinstance(h, int) for h in hs):
        return [[int(hs[i] == hs[j]) if j > i else 0 for j in range(m)] for i in range(m)]
    return [
        [sum(x * y for x, y in zip(hs[i], hs[j])) if j > i else 0 for j in range(m)]
        for i in range(m)
    ]


def _crossing_histogram(rows: list, m: int) -> list:
    """hist[k] = sum over matchings with k crossings of the paired inner products.

    Depth first over matchings in lexicographic order: the smallest free
    point ``first`` pairs with the i-th later free point ``partner``.  The
    points strictly between them that are already matched are right ends of
    pairs opened left of ``first``, so this pair crosses exactly
    partner - first - 1 - i earlier pairs.  Partners with inner product 0
    are skipped, which prunes every matching through them.
    """
    hist = [0] * (m * (m - 2) // 8 + 1)  # at most C(m/2, 2) crossings

    def walk(free: tuple, cross: int, weight) -> None:
        first, rest = free[0], free[1:]
        row = rows[first]
        if len(rest) == 1:
            w = row[rest[0]]
            if w:
                cross += rest[0] - first - 1
                hist[cross] = hist[cross] + weight * w
            return
        for i, partner in enumerate(rest):
            w = row[partner]
            if w:
                walk(rest[:i] + rest[i + 1 :], cross + partner - first - 1 - i, weight * w)

    if m:
        walk(tuple(range(m)), 0, 1)
    else:
        hist[0] = 1
    return hist


def dfs_moment(hs) -> QPolynomial:
    """The exact moment sum over pair partitions of q^crossings times <h_i, h_j>
    per pair, depth first over the matchings; letters as in
    ``moment_pair_partitions``.

    >>> print(dfs_moment((0, 0, 0, 0)))
    2 + q
    >>> print(dfs_moment(((1, 1),) * 4))  # <h, h> = 2 on every pair
    8 + 4q
    """
    hist = _crossing_histogram(_inner_rows(list(hs)), len(hs))
    total = QPolynomial(tuple(0 if isinstance(w, QPolynomial) else w for w in hist))
    for k, w in enumerate(hist):
        if isinstance(w, QPolynomial):
            total = total + w.shift(k)
    return total
