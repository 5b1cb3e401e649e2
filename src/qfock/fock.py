"""Degree-truncated q-deformed Fock space over a finite-dimensional one-particle space.

The one-particle space is R^d, optionally doubled (two marked copies) for
dilation constructions.  Letters are encoded as integers 0..d*copies-1 with
copy-1 letters first; a basis word is a tuple of letter codes, the empty
tuple is the vacuum.  ``parse_word``/``word_to_str`` are the one text form
of words (comma-separated indices 1..d, "t" marking copy 2), and
``first_copy_words``, ``copy_mixing`` and ``second_copy_vector`` build the
doubled-space objects other modules need, so this module alone knows the
layout.

The inner product of words of equal degree n is

    sum over permutations p of S_n of q^inversions(p) * prod <h_j, k_p(j)>,

extended bilinearly and with distinct degrees orthogonal.  It is computed
by conditioning on the image of the first position, which gives the
recursion

    <h (x) w, w'> = sum_j q^(j-1) <h, w'_j> <w, w' with slot j removed>

memoized per word pair for the sparse routes (``word_inner_poly``).  Words
with different letter contents (multisets) are orthogonal, so Gram blocks
are assembled per content, in both scalar modes by one recursion: all
content blocks of a degree are packed into one array, and each slot j adds
the packed entries of the degree below into it, times q^j in float mode,
shifted j coefficients up in exact mode (integer coefficient blocks).  The
blocks are then read row by row and each distinct entry is lifted once: to
a polynomial for exact ``gram_matrix``, straight to its text for the
``gram`` command; float ``gram_matrix`` places the blocks as they are.

There is no ladder kernel here: a field s(h) is the degree-1 Wick product
W(h), applied by ``qfock.wick.wick_apply``.  Its kernel
``wick_word_action`` is where creation out of the top degree is dropped,
so callers must keep a truncation budget (entries of degree <= N -
creations applied) when asserting exact identities.  Nor is any operator
held as a matrix: second quantization Gamma(u) maps each word of a vector
to the tensor product of u's columns at its letters (``second_quantize``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import budget
from .budget import Refused
from .scalars import QPolynomial, ScalarMode


@dataclass(frozen=True)
class SpaceConfig:
    """Truncated Fock space shape: dimension d, 1 or 2 copies, top degree."""

    d: int
    copies: int
    max_degree: int
    scalar: ScalarMode

    def __post_init__(self):
        if self.d < 1:
            raise Refused("one-particle dimension must be at least 1")
        if self.copies not in (1, 2):
            raise ValueError("copies must be 1 or 2")
        if self.max_degree < 0:
            raise Refused("max degree must be nonnegative")
        budget.check("QFOCK_MAX_DIM", self.total_dim, "the truncated space needs")

    @property
    def letters(self) -> int:
        return self.d * self.copies

    def dim(self, degree: int) -> int:
        return self.letters ** degree

    @property
    def total_dim(self) -> int:
        return sum(self.letters ** n for n in range(self.max_degree + 1))

    def compatible(self, other: "SpaceConfig") -> bool:
        return (self.d, self.copies, self.max_degree) == (other.d, other.copies, other.max_degree)


def parse_word(text: str, d: int) -> tuple:
    """Codes of a word written as comma-separated indices 1..d, and its copies.

    Each index is written in ASCII decimal digits, with surrounding
    whitespace allowed; no sign, underscore or other script's digits.
    A "t" suffix marks a second-copy letter, which needs the doubled space:
    ``copies`` is 2 when any letter carries it, else 1.  Copy-1 letters come
    first in the code layout, so index i of copy c has code (c-1)*d + i-1.
    The vacuum has no spelling: empty text or an empty token is refused.

    >>> parse_word("1,2t", 2)
    ((0, 3), 2)
    >>> parse_word("2, 1", 2)
    ((1, 0), 1)
    """
    codes, copies = [], 1
    for token in text.split(","):
        token = token.strip()
        copy = 1
        if token.endswith("t"):
            copy, token = 2, token[:-1]
            copies = 2
        if not (token.isascii() and token.isdigit()):
            raise Refused(f"letter {token!r} is not an index written in digits 0-9")
        index = int(token)
        if not 1 <= index <= d:
            raise Refused(f"letter index {index} outside 1..{d}")
        codes.append((copy - 1) * d + index - 1)
    return tuple(codes), copies


def word_to_str(word: tuple, d: int) -> str:
    """Inverse of ``parse_word``; the vacuum is the empty string.

    >>> word_to_str((0, 3), 2), word_to_str((), 2)
    ('1,2t', '')
    """
    return ",".join(f"{code % d + 1}t" if code >= d else f"{code + 1}" for code in word)


@lru_cache(maxsize=None)
def word_basis(degree: int, letters: int) -> tuple:
    """All words of the given degree, lexicographic in letter codes."""
    return tuple(itertools.product(range(letters), repeat=degree))


@lru_cache(maxsize=None)
def word_index(degree: int, letters: int) -> dict:
    return {w: i for i, w in enumerate(word_basis(degree, letters))}


def first_copy_words(degree: int, cfg: SpaceConfig) -> tuple:
    """Words of cfg without second-copy letters; copy-1 letters keep their
    single-copy codes, so entry r is the r-th single-copy basis word."""
    return word_basis(degree, cfg.d)


def copy_mixing(m, d: int) -> np.ndarray:
    """Doubled one-particle matrix acting as the 2x2 matrix m on the copy index."""
    return np.kron(np.asarray(m, dtype=float), np.eye(d))


def second_copy_vector(h, cfg: SpaceConfig) -> "FockVector":
    """The degree-1 vector h~ of the doubled space: the d entries of h on
    the second-copy letters."""
    return FockVector(cfg, {(cfg.d + i,): c for i, c in enumerate(h)})


# ---------------------------------------------------------------------------
# inner product


@lru_cache(maxsize=None)
def word_inner_poly(left: tuple, right: tuple) -> QPolynomial:
    """<left, right> as an exact polynomial in q, letters orthonormal.

    >>> print(word_inner_poly((0, 0), (0, 0)))
    1 + q
    >>> print(word_inner_poly((0, 1), (1, 0)))
    q
    """
    if len(left) != len(right):
        return QPolynomial.zero()
    if not left:
        return QPolynomial.one()
    if sorted(left) != sorted(right):
        return QPolynomial.zero()
    head, tail = left[0], left[1:]
    total = QPolynomial.zero()
    for j, code in enumerate(right):
        if code == head:
            total = total + word_inner_poly(tail, right[:j] + right[j + 1 :]).shift(j)
    return total


def scalar_is_zero(s) -> bool:
    if isinstance(s, QPolynomial):
        return s.is_zero()
    return s == 0


@dataclass
class FockVector:
    """Sparse vector: word -> scalar, zero coefficients never stored.

    The constructor drops zero coefficients, then refuses a word above the
    top degree.  ``from_word`` without a coefficient, ``vacuum`` and the
    Wick product build through a private path that skips both checks,
    because their coefficients are already known nonzero and their words
    within the top degree.
    """

    cfg: SpaceConfig
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        top, kept = self.cfg.max_degree, {}
        for w, c in self.coeffs.items():
            if scalar_is_zero(c):
                continue  # dropped before its degree is checked
            if len(w) > top:
                raise ValueError(f"word {w} above max degree {top}")
            kept[w] = c
        self.coeffs = kept

    @classmethod
    def _trusted(cls, cfg: SpaceConfig, coeffs: dict) -> "FockVector":
        # coefficients already known nonzero, on words within the top degree
        v = object.__new__(cls)
        v.cfg, v.coeffs = cfg, coeffs
        return v

    @staticmethod
    def vacuum(cfg: SpaceConfig) -> "FockVector":
        return FockVector._trusted(cfg, {(): cfg.scalar.one()})

    @staticmethod
    def from_word(cfg: SpaceConfig, word: tuple, coeff=None) -> "FockVector":
        if type(word) is not tuple:
            word = tuple(word)
        if coeff is not None:
            return FockVector(cfg, {word: coeff})
        if len(word) > cfg.max_degree:
            raise Refused(f"word {word} above max degree {cfg.max_degree}")
        v = object.__new__(FockVector)  # ``_trusted``, inlined: one call per word
        v.cfg, v.coeffs = cfg, {word: cfg.scalar.one()}
        return v

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self) -> tuple:
        return tuple(sorted({len(w) for w in self.coeffs}))

    def component(self, degree: int) -> "FockVector":
        return FockVector(self.cfg, {w: c for w, c in self.coeffs.items() if len(w) == degree})

    def __add__(self, other: "FockVector") -> "FockVector":
        if not self.cfg.compatible(other.cfg):
            raise ValueError("space mismatch")
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return FockVector(self.cfg, out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, s) -> "FockVector":
        if scalar_is_zero(s):
            return FockVector(self.cfg, {})
        return FockVector(self.cfg, {w: s * c for w, c in self.coeffs.items()})


def q_inner(v: FockVector, w: FockVector):
    """Bilinear q-inner product; distinct degrees are orthogonal."""
    if not v.cfg.compatible(w.cfg):
        raise ValueError("space mismatch")
    mode = v.cfg.scalar
    total = mode.zero()
    by_degree = {}
    for word, c in w.coeffs.items():
        by_degree.setdefault(len(word), []).append((word, c))
    for word, c in v.coeffs.items():
        for other, c2 in by_degree.get(len(word), ()):
            p = word_inner_poly(word, other)
            if p.is_zero():
                continue
            total = total + c * c2 * mode.of(p)
    return total


def q_norm_squared(v: FockVector):
    return q_inner(v, v)


def _coeff_dtype(degree: int):
    # every coefficient of a degree-n entry counts permutations, so is <= n!
    bound = math.factorial(degree)
    if bound < 2 ** 31:
        return np.int32
    if bound < 2 ** 63:
        return np.int64
    return object


def _packed_entries(degree: int, letters: int) -> int:
    """Word pairs of one letter content at the degree: the entries of its packed blocks."""
    total = 0
    for content in itertools.combinations_with_replacement(range(letters), degree):
        counts = [content.count(a) for a in dict.fromkeys(content)]
        total += (math.factorial(degree) // math.prod(map(math.factorial, counts))) ** 2
    return total


def _gram_bytes(degree: int, letters: int) -> int:
    """Bytes exact assembly holds at its peak, from shapes alone: the packed
    blocks of the degree and of the degree below, the degree's int64 slot
    tables (``_Packing.dst``) and the result's references.  A slot's
    addition also copies the entries it writes, letters times the packed
    blocks below, which is not counted, nor are the lifted entries."""

    def packed(n: int) -> int:  # n(n - 1)/2 + 1 coefficients an entry
        return _packed_entries(n, letters) * (n * (n - 1) // 2 + 1) * np.dtype(_coeff_dtype(n)).itemsize

    below = packed(degree - 1) + degree * letters * _packed_entries(degree - 1, letters) * 8 if degree else 0
    return below + packed(degree) + letters ** (2 * degree) * np.dtype(object).itemsize


def _gram_work(degree: int, letters: int) -> int:
    """Coefficient additions exact assembly makes up to the degree, from shapes alone.

    At degree n, each of the n slots adds every packed entry of the degree
    below once per letter, (n-1)(n-2)/2 + 1 coefficients an entry.  An
    addition of Python ints (the object blocks, degree 21 on) counts 16: it
    measured 45-70 ns, an int64 one 3-5 ns.  Counting stops past the
    ``EXACT_GRAM_WORK`` bound.
    """
    work, stop = 0, budget.bound("EXACT_GRAM_WORK")
    for n in range(1, degree + 1):
        if work > stop:
            break
        per_entry = n * ((n - 1) * (n - 2) // 2 + 1) * (16 if _coeff_dtype(n) is object else 1)
        work += per_entry * letters * _packed_entries(n - 1, letters)
    return work


@dataclass(frozen=True)
class _Packing:
    """Where a degree's content blocks sit in one packed array, and how
    they are filled from the degree below's (``_packing``); read-only."""

    contents: tuple  # in the order of combinations_with_replacement
    words: np.ndarray  # word indices, content after content
    starts: np.ndarray  # where each content's words start in ``words``, then the end
    offsets: np.ndarray  # where each content's block starts in the packed array, then the end
    dst: np.ndarray  # dst[j, a, e]: the entry that entry e below adds to through slot j and letter a

    def __post_init__(self):
        for array in (self.words, self.starts, self.offsets, self.dst):
            array.flags.writeable = False


@lru_cache(maxsize=64)
def _packing(degree: int, letters: int) -> _Packing:
    """The packed layout of the degree, built from that of the degree below.

    A content's words are those starting with each of its letters a in
    turn, a followed by a word of the content with a removed, so they
    ascend; its block is packed row-major.  A word a u' pairs with v
    through the slots j where v_j = a (<a u', v> = sum_j q^j <u', v minus
    slot j>), so the entry (u', v') of the degree below adds, through slot j
    and letter a, to the entry (a u', v' with a put in at slot j): every
    entry below is read once per slot and letter, and no entry receives
    twice in one slot.  Callers build the degrees in ascending order, so
    the degree below is a memo hit and the recursion one level deep.
    """
    if not degree:
        no_slots = np.zeros((0, letters, 1), dtype=np.intp)
        return _Packing(((),), np.zeros(1, dtype=np.intp), np.arange(2), np.arange(2), no_slots)
    below = _packing(degree - 1, letters)
    index = {content: k for k, content in enumerate(below.contents)}
    contents = tuple(itertools.combinations_with_replacement(range(letters), degree))
    top, groups, widths = letters ** (degree - 1), [], []
    for content in contents:
        first = len(groups)
        for a in dict.fromkeys(content):
            i = content.index(a)
            k = index[content[:i] + content[i + 1 :]]
            groups.append(a * top + below.words[below.starts[k] : below.starts[k + 1]])
        widths.append(sum(map(len, groups[first:])))
    words, widths = np.concatenate(groups), np.array(widths)
    starts, offsets = np.concatenate([[0], np.cumsum(widths)]), np.concatenate([[0], np.cumsum(widths ** 2)])
    rank = np.empty_like(words)
    rank[words] = np.arange(len(words))
    # content c's entry in row p, column r is offsets[c] + (p - starts[c]) * widths[c] + r - starts[c]
    row_entry = np.repeat(offsets[:-1] - (widths + 1) * starts[:-1], widths)
    row_entry += np.arange(len(words)) * np.repeat(widths, widths)
    a, w = np.arange(letters)[:, None], below.words
    after = letters ** np.arange(degree - 1, -1, -1)[:, None, None]  # the slots behind slot j
    rows = row_entry[rank[a * top + w]]  # the row of a w', per letter a and word w' below
    cols = rank[(w // after * letters + a) * after + w % after]  # w' with a put in at slot j
    # entry e below pairs rows[a, p] with cols[j, a, r] in its block's row p and column r
    dst = [rows[:, lo:hi, None] + cols[:, :, None, lo:hi] for lo, hi in zip(below.starts[:-1], below.starts[1:])]
    dst = np.concatenate([block.reshape(degree, letters, -1) for block in dst], axis=2)
    return _Packing(contents, words, starts, offsets, dst)


def _content_blocks(degree: int, letters: int, q=None):
    """Yield (content, word indices, block) per letter content of the degree.

    Contents and word indices are those of ``_packing``; block[s, t] is
    <word s, word t>: its integer coefficients of q^0, q^1, ... along a
    last axis when ``q`` is None, its value at the float ``q`` otherwise.
    Words of other contents are orthogonal.  Every block of a degree is
    filled at once, in one packed array, from the blocks of the degree
    below: slot by slot, in slot order, each adds the entries below shifted
    j coefficients up, or times q^j.

    >>> for q in (None, 0.5):
    ...     for content, words, block in _content_blocks(2, 2, q):
    ...         print(content, words.tolist(), block.tolist())
    (0, 0) [0] [[[1, 1]]]
    (0, 1) [1, 2] [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    (1, 1) [3] [[[1, 1]]]
    (0, 0) [0] [[1.5]]
    (0, 1) [1, 2] [[1.0, 0.5], [0.5, 1.0]]
    (1, 1) [3] [[1.5]]
    """
    exact, pack = q is None, _packing(0, letters)
    values = np.ones((1, 1), dtype=_coeff_dtype(0)) if exact else np.ones(1)
    for n in range(1, degree + 1):  # a loop, not recursion, so each _packing call is one level deep
        pack = _packing(n, letters)
        if exact:
            out = np.zeros((pack.offsets[-1], n * (n - 1) // 2 + 1), dtype=_coeff_dtype(n))
            for j, dst in enumerate(pack.dst):
                out[dst, j : j + values.shape[1]] += values
        else:  # bincount adds in input order, so each entry gets slot 0's term first, then slot 1's, ...
            terms = np.broadcast_to(np.array([q ** j for j in range(n)])[:, None, None] * values, pack.dst.shape)
            out = np.bincount(pack.dst.ravel(), terms.ravel(), pack.offsets[-1])
        values = out
    for k, content in enumerate(pack.contents):
        words = pack.words[pack.starts[k] : pack.starts[k + 1]]
        block = values[pack.offsets[k] : pack.offsets[k + 1]]
        yield content, words, block.reshape(len(words), len(words), *values.shape[1:])


def gram_matrix(degree: int, cfg: SpaceConfig) -> np.ndarray:
    """Gram matrix of the degree block in the word basis.

    Float mode gives a float array at the configured q; exact mode an
    object array of QPolynomial, zero entries sharing one zero polynomial.
    Both place the content blocks of ``_content_blocks`` and refuse what
    ``_checked_blocks`` refuses, before allocating anything.

    >>> g = gram_matrix(2, SpaceConfig(2, 1, 2, ScalarMode.exact()))
    >>> print(g[0, 0], "|", g[1, 2], "|", g[0, 1])
    1 + q | q | 0
    """
    if cfg.scalar.is_exact:  # each distinct coefficient tuple lifted once
        blocks, zero, dtype = _lifted_blocks(degree, cfg, QPolynomial), QPolynomial.zero(), object
    else:  # a float block is its own entries
        blocks, zero, dtype = ((words, block) for _, words, block in _checked_blocks(degree, cfg)), 0.0, float
    dim = cfg.dim(degree)
    out = np.full((dim, dim), zero, dtype=dtype)
    for words, rows in blocks:
        words = np.asarray(words)
        out[words[:, None], words] = rows
    return out


def _checked_blocks(degree: int, cfg: SpaceConfig):
    """``_content_blocks`` of the degree in the space's scalar mode, after
    the checks.  Refuses, before allocating anything, a degree outside
    0..max_degree and, in exact mode, an assembly over ``EXACT_GRAM_BUDGET``
    bytes (``_gram_bytes``) or ``EXACT_GRAM_WORK`` additions (``_gram_work``).
    """
    if not 0 <= degree <= cfg.max_degree:
        raise Refused(f"degree {degree} outside 0..{cfg.max_degree}")
    if cfg.scalar.is_exact:
        what = f"exact Gram block of degree {degree} over {cfg.letters} letters needs at least"
        budget.check("EXACT_GRAM_BUDGET", _gram_bytes(degree, cfg.letters), what)
        budget.check("EXACT_GRAM_WORK", _gram_work(degree, cfg.letters), what)
    return _content_blocks(degree, cfg.letters, cfg.scalar.q)


def _lifted_blocks(degree: int, cfg: SpaceConfig, lift) -> list:
    """(word indices, rows) per content block of the Gram block, after the
    checks of ``_checked_blocks``.

    Entry t of row s is ``lift`` of <word s, word t>: of its coefficient
    tuple (powers of q ascending, trailing zeros kept) in exact mode, of its
    float otherwise; words of other contents are orthogonal.  Few distinct
    entries fill many places, so each is lifted once, floats told apart by
    their bits (-0.0 is not 0.0), and a block is read as lists one row at a
    time, never whole.
    """
    exact, blocks, lifted = cfg.scalar.is_exact, [], {}
    for _, words, block in _checked_blocks(degree, cfg):
        rows = []
        for row in block:
            entries = list(map(tuple, row.tolist())) if exact else row.tolist()
            keys = entries if exact else row.view(np.int64).tolist()
            out = []
            for key, entry in zip(keys, entries):
                value = lifted.get(key)
                if value is None:
                    value = lifted[key] = lift(entry)
                out.append(value)
            rows.append(out)
        blocks.append((words.tolist(), rows))
    return blocks


# ---------------------------------------------------------------------------
# second quantization and projections


def second_quantize(u, v: FockVector) -> FockVector:
    """Gamma(u) v: each word goes to the tensor product of u's columns at
    its letters, the vacuum to itself.

    Requires a contraction; an orthogonal u preserves the q-inner product,
    and a coordinate projection gives the conditional expectation onto the
    sub-Fock space it selects.  Each image coefficient is the product of
    its column entries taken left to right from 1, and a product that
    vanishes is skipped.

    >>> v = FockVector(SpaceConfig(1, 2, 2, ScalarMode.at(0.5)), {(0, 0): 1.0})
    >>> second_quantize([[0.5, 0.0], [0.5, 0.5]], v).coeffs
    {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}
    """
    u, letters = np.asarray(u), v.cfg.letters
    if u.shape != (letters, letters):
        raise ValueError(f"one-particle matrix must be {letters}x{letters}")
    if np.linalg.norm(u.astype(float), 2) > 1.0 + 1e-9:
        raise ValueError("second quantization needs a contraction")
    columns = u.astype(object if v.cfg.scalar.is_exact else float).T.tolist()
    columns = [[(row, x) for row, x in enumerate(column) if x != 0] for column in columns]
    out: dict = {}
    for word, c in v.coeffs.items():
        images = [((), 1)]  # prefixes ascend, so a word's targets are added in basis order
        for a in word:
            images = [(target + (row,), entry * x) for target, entry in images for row, x in columns[a]]
        for target, entry in images:
            if entry != 0:
                out[target] = out.get(target, 0) + entry * c
    return FockVector(v.cfg, out)


def second_copy_count(word: tuple, cfg: SpaceConfig) -> int:
    return sum(1 for code in word if code >= cfg.d)


def copy_count_projection(v: FockVector, m: int, mode: str = "exact") -> FockVector:
    """Restrict a vector of the doubled space to words with exactly (mode
    "exact") or at least ("at-least") m second-copy letters.

    The coordinate restriction agrees with the q-orthogonal projection
    because words with distinct second-copy counts are q-orthogonal.
    """
    keep = {}
    for w, c in v.coeffs.items():
        count = second_copy_count(w, v.cfg)
        if (mode == "exact" and count == m) or (mode == "at-least" and count >= m):
            keep[w] = c
    return FockVector(v.cfg, keep)
