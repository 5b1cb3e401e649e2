"""Partitions into pairs and singletons, and their crossing statistics.

Ground sets are {1..n}.  A partial partition splits the ground set into j
pairs and n-2j singletons; the variants used here carry a distinguished
right block {n-k+1..n} and require every pair to straddle it (left endpoint
at most n-k, right endpoint beyond).  Two statistics appear:

* ``crossings``: pair-pair interleavings i < k < j < l plus pair-singleton
  interleavings i < k < j.
* ``iota_prime``: a recursive weight built by inserting pairs in decreasing
  left-endpoint order; each insertion counts the singletons of the current
  state strictly between its endpoints once and the pairs nested strictly
  inside twice.

``iota_prime`` decomposes through ``partition_triple`` as
iota(A) + iota(B) + inversions(sigma) + C(j,2) where A collects left
endpoints, B right endpoints, and sigma the matching pattern.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Iterator, Sequence, Union


@dataclass(frozen=True)
class Permutation:
    """One-line notation: images[i] is the image of i+1.

    >>> Permutation((2, 1, 3)).size
    3
    """

    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))


def inversions(p: Union[Permutation, Sequence[int]]) -> int:
    """Number of pairs i < j with word[i] > word[j].

    >>> inversions((1, 3, 2, 4))
    1
    >>> inversions(Permutation.identity(5))
    0
    """
    word = p.images if isinstance(p, Permutation) else tuple(p)
    n = len(word)
    return sum(1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j])


@dataclass(frozen=True)
class SubsetCoset:
    """A subset of {1..n} standing for a coset of a two-block Young subgroup."""

    n: int
    chosen: tuple

    def __post_init__(self):
        ch = tuple(sorted(self.chosen))
        object.__setattr__(self, "chosen", ch)
        if len(set(ch)) != len(ch) or any(not 1 <= a <= self.n for a in ch):
            raise ValueError(f"invalid subset {self.chosen} of 1..{self.n}")

    @property
    def complement(self) -> tuple:
        inside = set(self.chosen)
        return tuple(a for a in range(1, self.n + 1) if a not in inside)


def coset_word(subset: SubsetCoset, chosen_first: bool = False) -> Permutation:
    """Minimal-inversion representative of the coset named by the subset.

    Default lists the complement ascending, then the chosen elements
    ascending; ``chosen_first`` flips the two blocks.

    >>> coset_word(SubsetCoset(4, (2, 4))).images
    (1, 3, 2, 4)
    >>> coset_word(SubsetCoset(4, (1, 3)), chosen_first=True).images
    (1, 3, 2, 4)
    """
    a, b = subset.complement, subset.chosen
    if chosen_first:
        a, b = b, a
    return Permutation(a + b)


def coset_data(subset: SubsetCoset, chosen_first: bool = False) -> tuple:
    """(representative, inversion count) for the subset's coset.

    >>> coset_data(SubsetCoset(4, (1, 2, 4)))[1]
    2
    """
    rep = coset_word(subset, chosen_first)
    return rep, inversions(rep)


@dataclass(frozen=True)
class PairPartition:
    """Perfect matching of {1..n}; pairs stored sorted, low endpoint first."""

    n: int
    pairs: tuple

    def __post_init__(self):
        ps = tuple(sorted(tuple(sorted(p)) for p in self.pairs))
        object.__setattr__(self, "pairs", ps)
        points = [x for p in ps for x in p]
        if sorted(points) != list(range(1, self.n + 1)):
            raise ValueError(f"pairs {ps} do not match {{1..{self.n}}}")

    @property
    def singletons(self) -> tuple:
        return ()


@dataclass(frozen=True)
class PartialPartition:
    """Partition of {1..n} into pairs and singletons with a marked right block.

    ``k`` is the size of the right block {n-k+1..n}.  The block constraint
    (every pair straddles position n-k) is NOT enforced at construction so
    that plain crossing counts work on arbitrary pairings; statistics that
    need the block structure check it explicitly.
    """

    n: int
    k: int
    pairs: tuple
    singletons: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError(f"right block size {self.k} outside 0..{self.n}")
        ps = tuple(sorted(tuple(sorted(p)) for p in self.pairs))
        object.__setattr__(self, "pairs", ps)
        paired = [x for p in ps for x in p]
        if len(set(paired)) != len(paired) or any(not 1 <= x <= self.n for x in paired):
            raise ValueError(f"overlapping or out-of-range pairs {ps}")
        inside = set(paired)
        object.__setattr__(
            self, "singletons", tuple(x for x in range(1, self.n + 1) if x not in inside)
        )

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    def respects_block(self) -> bool:
        split = self.n - self.k
        return all(l <= split < r for l, r in self.pairs)

    def blocks(self) -> tuple:
        """All blocks, pairs then singletons, for display."""
        return self.pairs + tuple((s,) for s in self.singletons)


def crossings(rho: Union[PartialPartition, PairPartition]) -> int:
    """Pair-pair crossings plus pair-singleton crossings.

    >>> crossings(PartialPartition(8, 4, ((2, 5), (4, 7))))
    3
    >>> crossings(PartialPartition(8, 4, ((1, 6), (2, 5))))
    4
    """
    pairs = rho.pairs
    total = 0
    for (i, j), (k, l) in itertools.combinations(pairs, 2):
        # pairs are sorted, so i < k
        if k < j < l:
            total += 1
    for i, j in pairs:
        total += sum(1 for s in rho.singletons if i < s < j)
    return total


def _require_block(rho: PartialPartition) -> None:
    if not rho.respects_block():
        raise ValueError(
            f"pairs {rho.pairs} must straddle the block split at {rho.n - rho.k}"
        )


def iota_prime(rho: PartialPartition) -> int:
    """Insertion-weighted crossing statistic.

    Pairs enter in decreasing left-endpoint order.  Before a pair is
    inserted its endpoints count as singletons of the intermediate state.
    Each insertion of (l, r) adds one per current singleton strictly
    between l and r and two per current pair nested strictly inside.

    >>> iota_prime(PartialPartition(8, 4, ((1, 6), (2, 5))))
    6
    >>> iota_prime(PartialPartition(8, 4, ((2, 5), (4, 7))))
    3
    >>> iota_prime(PartialPartition(5, 2, ()))
    0
    """
    _require_block(rho)
    pending = sorted(rho.pairs, reverse=True)
    total = 0
    inserted = []
    for idx, (l, r) in enumerate(pending):
        loose = set(rho.singletons)
        loose.update(x for p in pending[idx + 1 :] for x in p)
        total += sum(1 for m in loose if l < m < r)
        total += 2 * sum(1 for l2, r2 in inserted if l < l2 and r2 < r)
        inserted.append((l, r))
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

    >>> t = partition_triple(PartialPartition(8, 4, ((2, 5), (4, 7))))
    >>> t[0].chosen, t[1].chosen, t[2].images
    ((2, 4), (1, 3), (1, 2))
    """
    _require_block(rho)
    split = rho.n - rho.k
    lefts = sorted(l for l, _ in rho.pairs)
    rights = sorted(r for _, r in rho.pairs)
    partner = dict(rho.pairs)
    sigma = tuple(rights.index(partner[l]) + 1 for l in lefts)
    return (
        SubsetCoset(split, tuple(lefts)),
        SubsetCoset(rho.k, tuple(r - split for r in rights)),
        Permutation(sigma) if sigma else Permutation(()),
    )


def iota_prime_closed_form(rho: PartialPartition) -> int:
    """iota(A) + iota(B) + inversions(sigma) + C(j,2), via partition_triple."""
    a, b, sigma = partition_triple(rho)
    j = len(rho.pairs)
    return (
        coset_data(a)[1]
        + coset_data(b, chosen_first=True)[1]
        + inversions(sigma)
        + comb(j, 2)
    )


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


def enumerate_pair_partitions(m: int) -> Iterator[PairPartition]:
    """All perfect matchings of {1..m}, lexicographic by pair tuple, none if m odd.

    Generated lazily, one matching at a time.

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
        yield PairPartition(m, pairs)


def enumerate_partial_partitions(n: int, k: int, j: int) -> Iterator[PartialPartition]:
    """All block-respecting partitions of {1..n} with exactly j pairs.

    Every pair has its left endpoint in {1..n-k} and right endpoint in
    {n-k+1..n}; count is C(n-k,j) * C(k,j) * j!.  Generated lazily,
    lexicographic by pair tuple.

    >>> [p.pairs for p in enumerate_partial_partitions(2, 1, 1)]
    [((1, 2),)]
    >>> sum(1 for _ in enumerate_partial_partitions(4, 2, 1))
    4
    """
    if not 0 <= k <= n:
        raise ValueError(f"right block size {k} outside 0..{n}")
    if not 0 <= j <= min(k, n - k):
        raise ValueError(f"pair count {j} outside 0..min({k}, {n - k})")
    split = n - k
    for pairs in _straddling(split, 1, tuple(range(split + 1, n + 1)), j, ()):
        yield PartialPartition(n, k, pairs)


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
