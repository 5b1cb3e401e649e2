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
field s(h) is W(h) of the degree-1 vector h.  It reads the subset sum
through its last letter, the recursion behind the Effros-Popa Wick formula:
the letter is kept (a complement position above every annihilated one) or
annihilates first, so each action is built from memoized actions of the
word one letter shorter.  It also truncates the space, dropping each term
whose creations would leave the top degree.  Every read of it, by a caller
or by its own recursion, is keyed on the pair's reach, min(top degree,
|word| + |source|): a truncation there drops nothing, so one word pair has
one memo entry in every space.  In exact mode ``wick_apply`` reuses the
kernel's polynomials wherever the weight is 1 and builds a polynomial
only for a scaled term or a sum.

Mixed vacuum moments of field operators sum q^crossings over pair
partitions, read left to right over open arcs (with integer codes a letter
finds the arcs it closes by its code); the finite-N central-limit
averages and the off-diagonal coefficient sum colored moments over the set
partitions of positions by color, checking N-independence and closed forms.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from math import comb, perm
from typing import Iterator

from . import budget
from .budget import BOUNDS, Refused
from .combinatorics import (
    _count_straddling,
    _picker,
    _straddling_pairs,
    coset_inversions,
    crossings,
    max_pairs,
    patterns,
)
from .fock import FockVector, word_inner_poly
from .scalars import _ONE, EXACT, QPolynomial, ScalarMode


@lru_cache(maxsize=4096)
def wick_word_action(xi_word: tuple, source: tuple, max_degree: int) -> tuple:
    """W(word) applied to a basis word: ((target word, QPolynomial), ...).

    Exact kernel shared by every scalar mode, sorted by target word, built
    from the kernels of the word without its last letter x.  Either x is
    kept: it is created innermost, after the prefix's kept letters, with
    weight q^k for the k letters the prefix annihilates; or x annihilates
    the source's slot j first, with weight q^j, and the prefix acts on
    the rest.  A target of degree past the truncation, or a word and a
    source too far apart in length to reach one, gives no terms.  A
    truncation at or past |word| + |source| drops nothing, so callers pass
    min(top degree, |word| + |source|) and each prefix is read the same
    way: one pair has one memo entry whatever the space.  Refuses, before
    any work, a word past the ``MAX_WICK_LETTERS`` or ``MAX_WICK_WORK``
    bound.
    """
    n, m = len(xi_word) - 1, len(source)  # n letters before the last one
    if abs(n + 1 - m) > max_degree:
        return ()
    if n < 0:
        return ((source, QPolynomial.one()),)
    if n >= BOUNDS["MAX_WICK_LETTERS"].value or _wick_work(n + 1, m) > BOUNDS["MAX_WICK_WORK"].value:
        _refuse_kernel(n + 1, m)
    prefix, x = xi_word[:-1], xi_word[-1]
    total: dict = {}
    for u, p in wick_word_action(prefix, source, min(max_degree - 1, n + m)):
        k = (n + m - len(u)) // 2  # letters the prefix annihilated
        total[u[: n - k] + (x,) + u[n - k :]] = p.shift(k)
    for j, letter in enumerate(source):
        if letter == x:
            for u, p in wick_word_action(prefix, source[:j] + source[j + 1 :], min(max_degree, n + m - 1)):
                p, prev = p.shift(j), total.get(u)
                total[u] = p if prev is None else prev + p
    return tuple(sorted(total.items()))


def _refuse_kernel(n: int, m: int):
    budget.check("MAX_WICK_LETTERS", n, f"the Wick kernel on {m} letters takes a word of")
    budget.refuse("MAX_WICK_WORK", _wick_work(n, m), f"the Wick kernel of {n} letters on {m} may make")


def _wick_work(n: int, m: int) -> int:
    """Coefficient updates of the kernel of n equal letters on m: with k =
    min(n, m), (n + 1)(k + 1) prefix states, each read from m + 1 prefix
    kernels of k + 1 terms of k(n + m) + 1 coefficients.  One letter is the
    only space with long words; ``QFOCK_MAX_DIM`` keeps two within degree 12.
    """
    k = min(n, m)
    return (n + 1) * (k + 1) ** 2 * (m + 1) * (k * (n + m) + 1)


def wick_apply(xi: FockVector, v: FockVector) -> FockVector:
    """Apply the Wick operator of xi (any degrees, linearly) to v.

    Each pair of words contributes the kernel's terms times the product of
    their coefficients.  The kernel is read at the pair's reach, min(top
    degree, |xi word| + |v word|): a truncation there drops nothing, so one
    memo entry serves the pair in every space.  In exact mode a unit weight
    reuses the kernel's polynomials as they are (a basis word on a basis
    word is the kernel's output, and the first such pair fills the empty
    output in one update), a new polynomial is built only for a scaled
    term or a sum, and only sums can cancel, so only they are checked for
    zero.  The unit is the shared exact one, ``scalars._ONE``, so float
    mode never takes that path: it lifts each kernel polynomial to the
    configured q and adds the terms one by one.
    """
    cfg = v.cfg
    if xi.cfg is not cfg and not xi.cfg.compatible(cfg):
        raise ValueError("space mismatch")
    top, of = cfg.max_degree, None if cfg.scalar.is_exact else cfg.scalar.of
    out: dict = {}
    summed = False
    for xw, xc in xi.coeffs.items():
        n = len(xw)
        for sw, sc in v.coeffs.items():
            if xc is _ONE:  # the exact unit: sc is a stored coefficient, so nonzero
                weight = sc
            else:
                weight = xc * sc
                if not weight:
                    continue
            reach = n + len(sw)
            terms = wick_word_action(xw, sw, reach if reach < top else top)
            unit = weight is _ONE  # the kernel's polynomials are the terms
            if unit and not out:
                out.update(terms)
                continue
            for tw, p in terms:
                term = p if unit else weight * (p if of is None else of(p))
                prev = out.get(tw)
                if prev is None:
                    out[tw] = term
                else:
                    out[tw], summed = prev + term, True
    if of is not None:
        return FockVector(cfg, out)
    # the kernel keeps every word within the top degree, and a product of
    # nonzero polynomials is nonzero
    return FockVector._trusted(cfg, {tw: c for tw, c in out.items() if c} if summed else out)


def reversed_vector(xi: FockVector) -> FockVector:
    """Word-reversal; with real coefficients this realizes the Wick adjoint."""
    return FockVector(xi.cfg, {tuple(reversed(w)): c for w, c in xi.coeffs.items()})


# ---------------------------------------------------------------------------
# moments


def _state_bounds(hs: list, codes: bool) -> Iterator[int]:
    """Bounds on the states the walk holds, before the first letter and after each.

    After n of m letters a state is a subsequence of them of n's parity, at
    most m - n long; with integer codes, one with k <= min(p, s) copies of a
    letter read p times, s to come, k of p's parity (an EGF product).
    """
    m, to_come, read = len(hs), Counter(hs) if codes else None, Counter()
    for n in range(m + 1):
        bound = sum(comb(n, k) for k in range(n % 2, min(n, m - n) + 1, 2))
        if codes and n:
            to_come[hs[n - 1]] -= 1
            read[hs[n - 1]] += 1
            lengths = [1]  # lengths[j]: sequences of j letters
            for a, p in read.items():
                ks = range(p % 2, min(p, to_come[a]) + 1, 2)
                grown = [0] * (len(lengths) + ks[-1])
                for j, c in enumerate(lengths):  # interleaving k copies of a
                    for k in ks:
                        grown[j + k] += c * comb(j + k, k)
                lengths = grown
            bound = min(bound, sum(lengths))
        yield bound


def _walk_work(hs: list, codes: bool) -> Iterator[int]:
    """Bounds on the walk's histogram updates up to each letter.

    At letter n + 1 each state adds its histogram into the next step for the
    arc it opens and each of at most min(n, m - n) arcs it closes; its c
    closed and L open arcs (2c + L = n) cross C(c, 2) + cL <= n^2 / 6 times.
    """
    m = len(hs)
    steps = zip(range(m), _state_bounds(hs, codes))
    return itertools.accumulate((min(n, m - n) + 1) * s * (n * n // 6 + 1) for n, s in steps)


def _open_arc_states(hs: list, codes: bool) -> Iterator[dict]:
    """{open arcs, oldest first: {crossings: weight}} before the first letter and after each.

    Arcs are named by their letters.  A letter opens one while more letters
    that can close it (equal codes; any vector) are to come than such arcs
    are open, and closes each open arc j with <h_j, x> != 0, times that
    product, crossing the arcs opened after j.  With integer codes only the
    arcs of x itself close, and ``tuple.count``/``tuple.index`` count and
    find them without a Python-level scan of the state.
    """
    if codes:
        ids, inner, room, to_come = hs, {a: {a: 1} for a in hs}, [], Counter()
        for x in reversed(hs):
            room.append(to_come[x])
            to_come[x] += 1
        room.reverse()
    else:
        ids, room = [tuple(h) for h in hs], range(len(hs) - 1, -1, -1)
        inner = {b: {a: w for a in ids if (w := sum(x * y for x, y in zip(a, b)))} for b in ids}
    states = {(): {0: 1}}
    yield states
    for x, left in zip(ids, room):
        # openings first: no two states open into the same one
        nxt = {s + (x,): dict(h) for s, h in states.items() if (s.count(x) if codes else len(s)) < left}
        partners = inner[x]
        for s, hist in states.items():
            j, top = -1, len(s) - 1
            # with codes only the arcs of x itself close: tuple.index finds them at C speed
            for _ in range(s.count(x) if codes else len(s)):
                j = s.index(x, j + 1) if codes else j + 1
                w = partners.get(s[j])
                if not w:
                    continue
                acc, above = nxt.setdefault(s[:j] + s[j + 1 :], {}), top - j  # arcs opened after j
                for k, v in hist.items():
                    k += above
                    acc[k] = acc.get(k, 0) + v * w
        states = nxt
        yield states


def moment_pair_partitions(hs, mode: ScalarMode = EXACT):
    """tau(s(h_1) ... s(h_m)) = sum over pair partitions of q^crossings times <h_i, h_j> per pair.

    Letters are integer codes (orthonormal) or coefficient tuples of ints,
    Fractions or QPolynomials.  A left-to-right walk over open-arc states
    (the q-annihilation operator on the word of open letters; for one letter,
    Flajolet's continued fraction for the Touchard-Riordan moments) ends with
    the empty state's crossing histogram, lifted to the scalar mode once.
    A word of more than ``MAX_MATCHINGS`` matchings is refused before the
    walk starts when ``_walk_work`` bounds the walk's histogram updates past
    ``MAX_MOMENT_WORK``.

    >>> print(moment_pair_partitions((0,) * 6))
    5 + 6q + 3q^2 + q^3
    >>> print(moment_pair_partitions((0, 1, 0, 1)))
    q
    """
    hs = list(hs)
    codes = all(isinstance(h, int) for h in hs)
    counts = Counter(hs).values() if codes else [len(hs)]  # vectors: all may pair
    if any(c % 2 for c in counts):
        return mode.zero()
    matchings = itertools.accumulate((f for c in counts for f in range(c - 1, 1, -2)), operator.mul)
    if any(k > BOUNDS["MAX_MATCHINGS"].value for k in matchings):
        cap = BOUNDS["MAX_MOMENT_WORK"].value
        for work in _walk_work(hs, codes):
            if work > cap:
                budget.refuse("MAX_MOMENT_WORK", work, f"the moment walk of {len(hs)} letters may make")
    hist = deque(_open_arc_states(hs, codes), maxlen=1)[0].get((), {})
    plain = {k: w for k, w in hist.items() if not isinstance(w, QPolynomial)}
    exact = QPolynomial(tuple(plain.get(k, 0) for k in range(max(plain, default=-1) + 1)))
    exact = sum((w.shift(k) for k, w in hist.items() if k not in plain), exact)
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
        if v.cfg is not xi.cfg and not xi.cfg.compatible(v.cfg):
            raise ValueError("space mismatch")
    if len(xi.coeffs) == len(eta.coeffs) == len(theta.coeffs) == 1:
        # three basis words: the exact unit, so never in float mode
        ((wx, cx),), ((we, ce),), ((wt, ct),) = xi.coeffs.items(), eta.coeffs.items(), theta.coeffs.items()
        if cx is _ONE is ce is ct:
            return _three_trace_words(wx, we, wt)
    mode = xi.cfg.scalar
    total = mode.zero()
    for wx, cx in xi.coeffs.items():
        for we, ce in eta.coeffs.items():
            for wt, ct in theta.coeffs.items():
                p = _three_trace_words(wx, we, wt)
                if not p.is_zero():
                    total = total + cx * ce * ct * mode.of(p)
    return total


# A trace stage walks word triples of a few lengths, so the tables of
# every (length, size, orientation) in use fit.
@lru_cache(maxsize=128)
def _trace_subsets(n: int, size: int, orientation: str) -> tuple:
    """(chosen letters, other letters, iota) per size-subset of {1..n},
    lexicographic, each position set as a ``_picker``.

    The orientation names the factor: ``"xi"`` reads both parts reversed
    with the complement-first iota, ``"eta"`` the chosen part forward and
    the rest reversed with the chosen-first iota, ``"theta"`` both forward
    with the complement-first iota.
    """
    reverse_chosen, reverse_rest, chosen_first = {
        "xi": (True, True, False),
        "eta": (False, True, True),
        "theta": (False, False, False),
    }[orientation]
    table = []
    for chosen in itertools.combinations(range(n), size):
        rest = tuple(p for p in range(n) if p not in chosen)
        table.append((
            _picker(chosen[::-1] if reverse_chosen else chosen),
            _picker(rest[::-1] if reverse_rest else rest),
            coset_inversions(n, tuple(p + 1 for p in chosen), chosen_first),
        ))
    return tuple(table)


def _three_trace_words(wx: tuple, we: tuple, wt: tuple) -> QPolynomial:
    n, m, l = len(wx), len(we), len(wt)
    total = QPolynomial.zero()
    if (n + m - l) % 2 or (n + m + l) % 2:
        return total
    a = (n + m - l) // 2
    if a < 0 or a > min(n, m) or n - a > l:
        return total
    for pick_a, pick_ac, ia in _trace_subsets(n, a, "xi"):
        xa, xac = pick_a(wx), pick_ac(wx)
        for pick_b, pick_bc, ib in _trace_subsets(m, a, "eta"):
            first = word_inner_poly(xa, pick_b(we))
            if first.is_zero():
                continue
            ebc = pick_bc(we)
            for pick_c, pick_cc, ic in _trace_subsets(l, n - a, "theta"):
                second = word_inner_poly(xac, pick_c(wt))
                if second.is_zero():
                    continue
                third = word_inner_poly(ebc, pick_cc(wt))
                if third.is_zero():
                    continue
                total = total + (first * second * third).shift(ia + ib + ic)
    return total


def wick_split_product(xi: FockVector, k: int) -> FockVector:
    """W(first n-k letters) W(last k letters) applied to the vacuum.

    Expands over the block partitions whose pairs straddle position n-k,
    walked as bare pair tuples: each partition removes its paired letters
    (which must match) and contributes q^crossings times the remaining word.
    The walk is counted first, over the words of the vector, and refused
    past ``MAX_SPLIT_PARTITIONS`` before it starts.
    """
    degrees = xi.degrees()
    if len(degrees) != 1:
        raise ValueError("split product needs a homogeneous vector")
    n = degrees[0]
    if not 0 <= k <= n:
        raise Refused(f"split {k} outside 0..{n}")
    walk = len(xi.coeffs) * _count_straddling(n, k, range(max_pairs(n, k) + 1))
    budget.check("MAX_SPLIT_PARTITIONS", walk, f"the split of {n} letters at {k} walks")
    mode = xi.cfg.scalar
    out: dict = {}
    for word, c in xi.coeffs.items():
        for j in range(max_pairs(n, k) + 1):
            for pairs in _straddling_pairs(n, k, j):
                if any(word[l - 1] != word[r - 1] for l, r in pairs):
                    continue
                paired = {x for pair in pairs for x in pair}
                remaining = tuple(a for p, a in enumerate(word, 1) if p not in paired)
                weight = c * mode.q_power(crossings(pairs))
                out[remaining] = out.get(remaining, 0) + weight
    return FockVector(xi.cfg, out)


# ---------------------------------------------------------------------------
# finite-N central limit


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
            sums[b] = sums[b] + moment_pair_partitions(colored, EXACT)
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


def offdiag_wick_coefficient(N: int, f_codes, h_codes, mode: ScalarMode = EXACT):
    """tau of (averaged letters f_m..f_1) times the distinct-color word on h_1..h_m.

    The f letters are color-averaged with weight N^(-1/2) each; the h
    letters carry pairwise distinct colors, summed with total weight
    N^(-m/2), for N >= 1.  Both color sums run over ``_pattern_sums``.
    """
    f_codes, h_codes = tuple(f_codes), tuple(h_codes)
    mp, m = len(f_codes), len(h_codes)
    if (mp + m) % 2:
        return mode.zero()
    sequence = tuple(reversed(f_codes)) + h_codes
    sums = _pattern_sums(sequence, min(N, (mp + m) // 2), distinct=m)
    return _color_average(sums, N, mp + m, mode)


def offdiag_reference(N: int, f_codes, h_codes, mode: ScalarMode = EXACT):
    """N^(-m) (N)(N-1)...(N-m+1) times the q-inner product of the two words."""
    f_codes, h_codes = tuple(f_codes), tuple(h_codes)
    m = len(h_codes)
    if len(f_codes) != m or N < m:
        return mode.zero()
    factor = Fraction(perm(N, m), N ** m)
    return mode.of(_scaled(word_inner_poly(f_codes, h_codes), factor))
