"""Wick products on the truncated q-Fock space, and the moment formulas they obey.

The Wick operator of a degree-n word is the sum over subset levels k of
creation/annihilation chains: for each k-subset A of positions, annihilate
the letters at A (largest position acting first), then create the letters
at the complement (first position ending outermost), weighted by
q^iota(A) with iota(A) the inversions of the two-ascending-runs coset word
(complement first).  Applied to the vacuum this reproduces the word, which
pins the normalization.  ``wick_word_action`` is the one kernel: the
operator exists only as its action on sparse vectors (``wick_apply``),
never as block matrices.  It is the package's only annihilation walk: a
field s(h) is W(h) of the degree-1 vector h.  It also truncates the space,
dropping each term whose creations would leave the top degree.

Mixed vacuum moments of field operators are sums over pair partitions
weighted by q^crossings; the finite-N central-limit averages and the
off-diagonal coefficient sum colored moments over the set partitions of
positions by color, so their N-independence and their closed forms are
checked against rather than assumed.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import perm, prod

from .combinatorics import (
    coset_inversions,
    crossings,
    enumerate_partial_partitions,
    max_pairs,
    patterns,
)
from .fock import FockVector, scalar_is_zero, word_inner_poly
from .scalars import EXACT, QPolynomial, ScalarMode


@lru_cache(maxsize=4096)
def wick_word_action(xi_word: tuple, source: tuple, max_degree: int) -> tuple:
    """W(word) applied to a basis word: ((target word, QPolynomial), ...).

    Exact kernel shared by every scalar mode.  For each subset A of the
    word's positions the letters at A are annihilated, largest position
    first, with weight q^iota(A) q^(slot) per step, and then the letters at
    the complement are created outermost-first.  The subsets are walked as
    one decision tree from the last position down, so subsets that agree on
    their high positions share the annihilations done there; iota(A), the
    complement positions above each chosen one, grows by the number of
    letters kept so far at each annihilation.  Intermediate words carry
    {power of q: integer coefficient} dicts, and one QPolynomial is built
    per output word.
    """
    n = len(xi_word)
    # prefix plus what is left of the source must fit the truncation
    min_k = max(0, (n + len(source) - max_degree + 1) // 2)
    total: dict = {}

    def walk(pos: int, prefix: tuple, cur: dict, k: int) -> None:
        if pos == 0:
            for w, powers in cur.items():
                acc = total.setdefault(prefix + w, {})
                for p, c in powers.items():
                    acc[p] = acc.get(p, 0) + c
            return
        code = xi_word[pos - 1]
        if k + pos - 1 >= min_k:
            walk(pos - 1, (code,) + prefix, cur, k)
        above = len(prefix)
        nxt: dict = {}
        for w, powers in cur.items():
            for j, letter in enumerate(w):
                if letter == code:
                    t = w[:j] + w[j + 1 :]
                    acc = nxt.get(t)
                    if acc is None:
                        nxt[t] = acc = {}
                    for p, c in powers.items():
                        p += j + above
                        acc[p] = acc.get(p, 0) + c
        if nxt:
            walk(pos - 1, prefix, nxt, k + 1)

    walk(n, (), {source: {0: 1}}, 0)
    return tuple((w, QPolynomial.from_powers(powers)) for w, powers in sorted(total.items()))


def wick_apply(xi: FockVector, v: FockVector) -> FockVector:
    """Apply the Wick operator of xi (any degrees, linearly) to v."""
    if not xi.cfg.compatible(v.cfg):
        raise ValueError("space mismatch")
    mode = v.cfg.scalar
    out: dict = {}
    for xw, xc in xi.coeffs.items():
        for sw, sc in v.coeffs.items():
            weight = xc * sc
            if scalar_is_zero(weight):
                continue
            # basis words have the unit weight: the kernel's polynomial is the term
            unit = type(weight) is QPolynomial and weight.coeffs == (1,)
            for tw, p in wick_word_action(xw, sw, v.cfg.max_degree):
                term = p if unit else weight * mode.of(p)
                prev = out.get(tw)
                out[tw] = term if prev is None else prev + term
    return FockVector(v.cfg, out)


def reversed_vector(xi: FockVector) -> FockVector:
    """Word-reversal; with real coefficients this realizes the Wick adjoint."""
    return FockVector(xi.cfg, {tuple(reversed(w)): c for w, c in xi.coeffs.items()})


# ---------------------------------------------------------------------------
# moments


MAX_MATCHINGS = 2_100_000
"""Most matchings ``moment_pair_partitions`` walks; 16 equal letters need 2,027,025."""


def _odd_double_factorial(m: int) -> int:
    """(m - 1)!!, the number of perfect matchings of m points (m even)."""
    return prod(range(m - 1, 1, -2))


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


def moment_pair_partitions(hs, mode: ScalarMode = EXACT):
    """tau(s(h_1) ... s(h_m)) = sum over pair partitions of q^crossings times <h_i, h_j> per pair.

    Letters may be integer codes (orthonormal) or coefficient tuples whose
    entries are ints, Fractions or QPolynomials.  The sum is a crossing
    histogram of products of the plain inner products (see
    ``_crossing_histogram``), lifted to the scalar mode once at the end;
    float mode evaluates that exact polynomial at q.  With integer codes a
    letter of odd multiplicity gives 0 before any enumeration, and only
    same-letter pairs are visited.

    Raises ValueError, before any work, when more than ``MAX_MATCHINGS``
    matchings would be walked: prod over letters of (c - 1)!! for integer
    codes with multiplicities c, (m - 1)!! for vector letters.
    """
    hs = list(hs)
    m = len(hs)
    if m % 2:
        return mode.zero()
    if all(isinstance(h, int) for h in hs):
        counts = Counter(hs).values()
        if any(c % 2 for c in counts):
            return mode.zero()
        work = prod(_odd_double_factorial(c) for c in counts)
    else:
        work = _odd_double_factorial(m)
    if work > MAX_MATCHINGS:
        raise ValueError(
            f"{work} pair partitions to enumerate, over the cap of {MAX_MATCHINGS}"
        )
    hist = _crossing_histogram(_inner_rows(hs), m)
    exact = QPolynomial(tuple(0 if isinstance(w, QPolynomial) else w for w in hist))
    for k, w in enumerate(hist):
        if isinstance(w, QPolynomial):
            exact = exact + w.shift(k)
    return mode.of(exact)


def three_wick_trace(xi: FockVector, eta: FockVector, theta: FockVector):
    """Vacuum trace of the product of three Wick operators, by subset sums.

    For words of degrees (n, m, l) the trace is a sum over subsets
    A of {1..n}, B of {1..m}, C of {1..l} with |A| = |B| = (n+m-l)/2 and
    |C| = n - |A| of

        q^(iota(A)+iota(B)+iota(C))
          * <rev xi_A, eta_B> <rev xi_Ac, theta_C> <rev eta_Bc, theta_Cc>

    where subscripts take the subword at those positions (ascending), rev
    reverses it, iota(A) and iota(C) are complement-first coset inversion
    counts and iota(B) is chosen-first.  These orientations drop out of
    the pair-partition expansion of the product: pairs between two of the
    three letter blocks cross a pair from an overlapping block pair
    according to the subset statistics above, and crossings inside one
    block pair count the non-inversions of the matching, which the
    reversal turns back into a plain q-inner product.
    """
    for v in (eta, theta):
        if not xi.cfg.compatible(v.cfg):
            raise ValueError("space mismatch")
    mode = xi.cfg.scalar
    total = mode.zero()
    for wx, cx in xi.coeffs.items():
        for we, ce in eta.coeffs.items():
            for wt, ct in theta.coeffs.items():
                p = _three_trace_words(wx, we, wt)
                if not p.is_zero():
                    total = total + cx * ce * ct * mode.of(p)
    return total


def _subword(word: tuple, positions: tuple) -> tuple:
    return tuple(word[p - 1] for p in positions)


def _three_trace_words(wx: tuple, we: tuple, wt: tuple) -> QPolynomial:
    n, m, l = len(wx), len(we), len(wt)
    total = QPolynomial.zero()
    if (n + m - l) % 2 or (n + m + l) % 2:
        return total
    a = (n + m - l) // 2
    if a < 0 or a > min(n, m) or n - a > l:
        return total
    for A in itertools.combinations(range(1, n + 1), a):
        ac = tuple(p for p in range(1, n + 1) if p not in A)
        xa = _subword(wx, tuple(reversed(A)))
        xac = _subword(wx, tuple(reversed(ac)))
        ia = coset_inversions(n, A, False)
        for B in itertools.combinations(range(1, m + 1), a):
            first = word_inner_poly(xa, _subword(we, B))
            if first.is_zero():
                continue
            bc = tuple(p for p in range(1, m + 1) if p not in B)
            ebc = _subword(we, tuple(reversed(bc)))
            ib = coset_inversions(m, B, True)
            for C in itertools.combinations(range(1, l + 1), n - a):
                second = word_inner_poly(xac, _subword(wt, C))
                if second.is_zero():
                    continue
                cc = tuple(p for p in range(1, l + 1) if p not in C)
                third = word_inner_poly(ebc, _subword(wt, cc))
                if third.is_zero():
                    continue
                ic = coset_inversions(l, C, False)
                total = total + (first * second * third).shift(ia + ib + ic)
    return total


def wick_split_product(xi: FockVector, k: int) -> FockVector:
    """W(first n-k letters) W(last k letters) applied to the vacuum.

    Expands over the block partitions whose pairs straddle position n-k:
    each partition removes its paired letters (which must match) and
    contributes q^crossings times the remaining word.
    """
    degrees = xi.degrees()
    if len(degrees) != 1:
        raise ValueError("split product needs a homogeneous vector")
    n = degrees[0]
    if not 0 <= k <= n:
        raise ValueError(f"split {k} outside 0..{n}")
    mode = xi.cfg.scalar
    out: dict = {}
    for word, c in xi.coeffs.items():
        for j in range(max_pairs(n, k) + 1):
            for rho in enumerate_partial_partitions(n, k, j):
                if any(word[l - 1] != word[r - 1] for l, r in rho.pairs):
                    continue
                remaining = _subword(word, rho.singletons)
                if len(remaining) > xi.cfg.max_degree:
                    continue
                weight = c * mode.q_power(crossings(rho))
                out[remaining] = out.get(remaining, 0) + weight
    return FockVector(xi.cfg, out)


# ---------------------------------------------------------------------------
# finite-N central limit


@lru_cache(maxsize=4096)
def _colored_moment(colored: tuple) -> QPolynomial:
    return moment_pair_partitions(colored, EXACT)


_COLOR_BASE = 64


def _scaled(p: QPolynomial, factor: Fraction) -> QPolynomial:
    """p times a rational, normalized once: denominators of 1 become ints."""
    return QPolynomial(tuple(c * factor for c in p.coeffs))


def _pattern_sums(codes: tuple, blocks: int, distinct: int = 0) -> list:
    """sums[b]: colored moments summed over the set partitions of the
    positions into b blocks, one color each, the last ``distinct`` in
    distinct blocks; each stands for (N)_b colorings by N colors.  A color
    used once cannot pair, so the walk prunes blocks of one position.
    """
    sums = [QPolynomial.zero()] * (blocks + 1)
    for colors in patterns(len(codes), blocks, min_size=2):
        if len(set(colors[len(codes) - distinct :])) == distinct:
            b = max(colors, default=-1) + 1
            colored = tuple(code * _COLOR_BASE + color for code, color in zip(codes, colors))
            sums[b] = sums[b] + _colored_moment(colored)
    return sums


def _color_average(sums: list, N: int, m: int, mode: ScalarMode):
    total = sum((s * perm(N, b) for b, s in enumerate(sums)), QPolynomial.zero())
    return mode.of(_scaled(total, Fraction(1, N ** (m // 2))))


def clt_moments(N_max: int, codes, mode: ScalarMode = EXACT) -> list:
    """Vacuum moments of averaged color-summed field operators, exact for
    N = 1..N_max colors, from one walk over the set partitions.

    Each letter is averaged over N colors with weight N^(-1/2); the sum
    over the N^m colorings is N^(-m/2) sum_b (N)_b sums[b].
    """
    codes = tuple(codes)
    m = len(codes)
    if N_max < 1:
        raise ValueError("need at least one color")
    if m % 2:
        return [mode.zero()] * N_max
    sums = _pattern_sums(codes, min(N_max, m // 2))
    return [_color_average(sums, N, m, mode) for N in range(1, N_max + 1)]


def clt_finite(N: int, codes, mode: ScalarMode = EXACT):
    """The N-color moment of ``clt_moments``."""
    return clt_moments(N, codes, mode)[-1]


def offdiag_wick_coefficient(N: int, f_codes, h_codes, mode: ScalarMode = EXACT):
    """tau of (averaged letters f_m..f_1) times the distinct-color word on h_1..h_m.

    The f letters are color-averaged with weight N^(-1/2) each; the h
    letters carry pairwise distinct colors, summed with total weight
    N^(-m/2).  Both color sums run over ``_pattern_sums``.
    """
    f_codes, h_codes = tuple(f_codes), tuple(h_codes)
    mp, m = len(f_codes), len(h_codes)
    if N < 1:
        raise ValueError("need at least one color")
    if (mp + m) % 2:
        return mode.zero()
    sequence = tuple(reversed(f_codes)) + h_codes
    sums = _pattern_sums(sequence, min(N, (mp + m) // 2), distinct=m)
    return _color_average(sums, N, mp + m, mode)


def offdiag_reference(N: int, f_codes, h_codes, mode: ScalarMode = EXACT):
    """N^(-m) (N)(N-1)...(N-m+1) times the q-inner product of the two words."""
    f_codes, h_codes = tuple(f_codes), tuple(h_codes)
    m = len(h_codes)
    if len(f_codes) != m:
        return mode.zero()
    if N < m:
        return mode.zero()
    factor = Fraction(perm(N, m), N ** m)
    return mode.of(_scaled(word_inner_poly(f_codes, h_codes), factor))
