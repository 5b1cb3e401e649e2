"""Partitions into pairs and singletons, and their crossing statistics.

Ground sets are {1..n}.  A partial partition splits the ground set into j
pairs and n-2j singletons; it is the one partition type here, and a
perfect matching is the case k = 0 without singletons.  Block partitions
carry a distinguished right block {n-k+1..n} and require every pair to
straddle it (left endpoint at most n-k, right endpoint beyond).  Two
statistics appear:

* ``crossings``: pair-pair interleavings i < k < j < l plus pair-singleton
  interleavings i < k < j.
* ``iota_prime``: a recursive weight built by inserting pairs in decreasing
  left-endpoint order; each insertion counts the singletons of the current
  state strictly between its endpoints once and the pairs nested strictly
  inside twice.

Both reduce to integer arithmetic on the pair tuple, O(j^2) for j pairs and
independent of the ground set: every point strictly inside a pair that is
not a singleton is an endpoint of another pair, so a pair's singletons
follow from its length and its neighbours.  For block-respecting pairs
sorted by left endpoint, every later left endpoint lies inside the earlier
pair, so pair i of j adds (r - l - 1) - (j - 1 - i) plus the number of
later pairs nested inside it.

``iota_prime`` decomposes through ``partition_triple`` as
iota(A) + iota(B) + inversions(sigma) + C(j,2) where A collects left
endpoints, B right endpoints, and sigma the matching pattern; the
inversions of A and B are counted on the coset representatives of
``coset_data``.  Subsets and permutations are plain tuples: a subset of
{1..n} is ``(n, chosen)`` with ``chosen`` ascending, a permutation the
tuple of its images.

Block partitions are enumerated as bare pair tuples (``_straddling_pairs``),
already sorted and valid, and no partition object is built for them.
Perfect matchings are not enumerated here: the moment in ``qfock.wick``
walks open-arc states.
A set partition of positions is a restricted growth string (``patterns``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import comb, perm
from operator import itemgetter
from typing import Iterator, Sequence, Union

from .budget import Refused


def inversions(word: Sequence[int]) -> int:
    """Number of pairs i < j with word[i] > word[j]; a permutation is the
    tuple of its images.

    >>> inversions((1, 3, 2, 4)), inversions(range(1, 6))
    (1, 0)
    """
    word = tuple(word)
    total = 0
    for i, a in enumerate(word):
        for b in word[i + 1 :]:
            if a > b:
                total += 1
    return total


def _coset_rep(n: int, chosen: tuple, chosen_first: bool) -> tuple:
    # chosen is ascending; the representative is two ascending runs
    inside = set(chosen)
    rest = tuple(a for a in range(1, n + 1) if a not in inside)
    return chosen + rest if chosen_first else rest + chosen


def coset_data(subset: tuple, chosen_first: bool = False) -> tuple:
    """(representative, inversion count) for the coset named by a subset.

    ``subset`` is ``(n, chosen)`` with ``chosen`` an ascending subset of
    {1..n}; it names a coset of a two-block Young subgroup.  The
    representative is the minimal-inversion word: the complement ascending,
    then the chosen elements ascending; ``chosen_first`` flips the two
    blocks.

    >>> coset_data((4, (2, 4)))
    ((1, 3, 2, 4), 1)
    >>> coset_data((4, (1, 3)), chosen_first=True)
    ((1, 3, 2, 4), 1)
    >>> coset_data((4, (1, 2, 4)))[1]
    2
    """
    rep = _coset_rep(*subset, chosen_first)
    return rep, inversions(rep)


@lru_cache(maxsize=8192)
def coset_inversions(n: int, chosen: tuple, chosen_first: bool) -> int:
    """Inversion count of the coset representative of an ascending subset
    of {1..n}, as ``coset_data`` gives it, memoized on plain tuples.

    This is the subset statistic iota of the Wick expansion and of the
    decomposition of ``iota_prime``: complement-first for left blocks,
    chosen-first for right ones.

    >>> coset_inversions(4, (1, 2, 4), False), coset_inversions(4, (1, 3), True)
    (2, 1)
    """
    return inversions(_coset_rep(n, chosen, chosen_first))


@lru_cache(maxsize=4096)
def _picker(positions: tuple):
    """word -> the tuple of its letters at the 0-based positions; shared by
    every table that reads the same positions."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda word: (word[p],)
    return lambda word: ()


@dataclass(frozen=True)
class PartialPartition:
    """Partition of {1..n} into pairs and singletons with a marked right block.

    ``k`` is the size of the right block {n-k+1..n}; k = 0 marks no block,
    and a perfect matching is the case without singletons.  The block
    constraint (every pair straddles position n-k) is NOT enforced at
    construction so that plain crossing counts work on arbitrary pairings;
    statistics that need the block structure check it explicitly.
    """

    n: int
    k: int
    pairs: tuple

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise Refused(f"right block size {self.k} outside 0..{self.n}")
        ps = tuple(sorted(tuple(sorted(p)) for p in self.pairs))
        object.__setattr__(self, "pairs", ps)
        paired = [x for p in ps for x in p]
        if len(set(paired)) != len(paired) or any(not 1 <= x <= self.n for x in paired):
            raise Refused(f"overlapping or out-of-range pairs {ps}")

    def respects_block(self) -> bool:
        split = self.n - self.k
        return all(l <= split < r for l, r in self.pairs)


def crossings(rho: Union[PartialPartition, tuple]) -> int:
    """Pair-pair crossings plus pair-singleton crossings.

    ``rho`` is a partition or its pair tuple (low endpoint first, sorted by
    left endpoint).  A pair (l, r) holds r - l - 1 points: its singletons,
    one endpoint of each pair crossing it and both endpoints of each pair
    nested inside it.  So the total is the sum of r - l - 1, less one per
    crossing and two per nesting; the ground set never enters.

    >>> crossings(PartialPartition(8, 4, ((2, 5), (4, 7))))
    3
    >>> crossings(PartialPartition(8, 4, ((1, 6), (2, 5))))
    4
    >>> crossings(((1, 6), (2, 5)))
    4
    """
    pairs = rho if isinstance(rho, tuple) else rho.pairs
    total = 0
    for idx, (l, r) in enumerate(pairs):
        total += r - l - 1
        for l2, r2 in pairs[idx + 1 :]:
            if l2 > r:
                break  # this pair and all later ones start beyond r
            total -= 1 if r < r2 else 2
    return total


def _block_pairs(rho: PartialPartition) -> tuple:
    if not rho.respects_block():
        raise ValueError(f"pairs {rho.pairs} must straddle the block split at {rho.n - rho.k}")
    return rho.pairs


def iota_prime(rho: PartialPartition) -> int:
    """Insertion-weighted crossing statistic of a block-respecting partition.

    Pairs enter in decreasing left-endpoint order.  Before a pair is
    inserted its endpoints count as singletons of the intermediate state.
    Each insertion of (l, r) adds one per current singleton strictly
    between l and r and two per current pair nested strictly inside.

    The pairs are sorted by left endpoint and every left endpoint lies
    below every right one.  So every later pair starts inside (l, r), and
    the r - l - 1 points there are the current singletons, the j - 1 - i
    later (inserted) left endpoints and the right endpoints of the later
    pairs nested inside.  So pair i of j adds
    (r - l - 1) - (j - 1 - i) + #{later r2 < r}:

    >>> pairs = ((1, 6), (2, 5))  # (6-1-1) - 1 + 1, then (5-2-1) - 0 + 0
    >>> iota_prime(PartialPartition(8, 4, pairs))
    6
    >>> iota_prime(PartialPartition(8, 4, ((2, 5), (4, 7))))
    3
    >>> iota_prime(PartialPartition(5, 2, ()))
    0
    """
    return _iota_prime_pairs(_block_pairs(rho))


def _iota_prime_pairs(pairs: tuple) -> int:
    # iota_prime's sum on a pair tuple already known to respect one split
    return _iota_walk([l for l, _ in pairs], [r for _, r in pairs])


def _iota_walk(lefts: Sequence[int], rights: Sequence[int]) -> int:
    # the same sum on pairs (lefts[s], rights[s]) walked from the last one:
    # pair i of j has j - 1 - i pairs behind it, whose right endpoints
    # ``later`` holds ascending; the r - l of every pair come in as two sums
    total = sum(rights) - sum(lefts)
    later = []
    for r in reversed(rights):
        below = bisect_left(later, r)
        total += below - len(later) - 1
        later.insert(below, r)
    return total


def partition_triple(rho: PartialPartition) -> tuple:
    """Decompose a block-respecting partition into (A, B, sigma).

    A is the set of left endpoints inside {1..n-k}; B the right endpoints
    shifted down by n-k into {1..k}; sigma in S_j sends s to t when the sth
    smallest left endpoint is paired with the tth smallest right endpoint.

    The statistic decomposes as
    iota_prime(rho) = iota(A) + iota(B) + inversions(sigma) + C(j,2)
    with iota(A) from the complement-first representative and iota(B) from
    the chosen-first representative.

    A and B come back as ``(n, chosen)`` subsets, ``(n - k, A)`` and
    ``(k, B)``, and sigma as the tuple of its images.

    >>> partition_triple(PartialPartition(8, 4, ((2, 5), (4, 7))))
    ((4, (2, 4)), (4, (1, 3)), (1, 2))
    """
    split = rho.n - rho.k
    pairs = _block_pairs(rho)
    rights = sorted(r for _, r in pairs)
    sigma = tuple(rights.index(r) + 1 for _, r in pairs)
    return (split, tuple(l for l, _ in pairs)), (rho.k, tuple(r - split for r in rights)), sigma


def _straddling_pairs(n: int, k: int, j: int) -> Iterator[tuple]:
    # every partition of {1..n} with j pairs straddling n - k, as its pair
    # tuple (sorted, low endpoint first), lexicographic and lazy; none for j
    # above min(k, n - k)
    split = n - k
    return _straddling(split, 1, tuple(range(split + 1, n + 1)), j, ())


def _count_straddling(n: int, k: int, js) -> int:
    # how many tuples _straddling_pairs(n, k, j) yields over the j in js: C(n-k, j)
    # sets of left endpoints, each paired in order with j of the k right points
    return sum(comb(n - k, j) * perm(k, j) for j in js)


def _straddling(split: int, low: int, rights: tuple, j: int, pairs: tuple) -> Iterator[tuple]:
    # next pair: the smallest left endpoint first, each free right in turn,
    # so the pair tuples come out in lexicographic order
    if j <= 1:
        if not j:
            yield pairs
            return
        for left in range(low, split + 1):
            for right in rights:
                yield pairs + ((left, right),)
        return
    for left in range(low, split - j + 2):
        for i, right in enumerate(rights):
            yield from _straddling(
                split, left + 1, rights[:i] + rights[i + 1 :], j - 1, pairs + ((left, right),)
            )


def max_pairs(n: int, k: int) -> int:
    return min(k, n - k)


def pattern(word: Sequence) -> tuple:
    """Letters relabeled 0, 1, ... by first use, ``(0, 1, 0, 2)`` for
    ``(2, 0, 2, 1)``: the restricted growth string naming the word's orbit
    under letter relabeling."""
    first: dict = {}
    return tuple(first.setdefault(x, len(first)) for x in word)


def patterns(n: int, blocks: int, min_size: int = 1) -> Iterator[tuple]:
    """Restricted growth strings of length n, one per set partition of n
    positions into at most ``blocks`` blocks of at least ``min_size`` each,
    in lexicographic order.

    >>> list(patterns(3, 2)), list(patterns(4, 3, min_size=2))[1:]
    ([(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)], [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)])
    """
    sizes = []  # of the blocks of the current prefix

    def walk(word: tuple, short: int) -> Iterator[tuple]:
        # short: positions the blocks below min_size still need
        free = n - len(word)
        if short > free:
            return
        if not free:
            yield word
            return
        for b, size in enumerate(sizes):
            sizes[b] += 1
            yield from walk(word + (b,), short - (size < min_size))
            sizes[b] -= 1
        if len(sizes) < blocks:
            sizes.append(1)
            yield from walk(word + (len(sizes) - 1,), short + min_size - 1)
            sizes.pop()

    yield from walk((), 0)


def count_patterns(n: int, blocks: int) -> int:
    """How many strings ``patterns(n, blocks)`` yields: the Stirling numbers
    S(n, i) of the second kind summed over i <= blocks."""
    row = [1] + [0] * min(blocks, n)  # S(0, i)
    for _ in range(n):
        row = [0] + [i * row[i] + row[i - 1] for i in range(1, len(row))]
    return sum(row)
