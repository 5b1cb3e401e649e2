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
with different letter contents (multisets) are orthogonal, so exact Gram
blocks are assembled per content: the same recursion fills each content's
integer coefficient block from the blocks one letter smaller.  The blocks
are then read row by row and each distinct coefficient tuple is lifted
once: to a polynomial for ``gram_matrix``, straight to its text for the
``gram`` command.  Float mode applies the recursion to whole blocks
(Bozejko-Speicher):

    G_0 = [1],  G_n = sum_j q^j (I_letters (x) G_(n-1))[:, P_j]

with P_j[v] the index of word v with slot j moved to the front; at the
sizes used, dense float arrays beat per-content blocks.  Both modes share
one content layout (``_content_words``): the ``gram`` command prints the
dense float matrix through it too.

There is no ladder kernel here: a field s(h) is the degree-1 Wick product
W(h), applied by ``qfock.wick.wick_apply``.  Its kernel
``wick_word_action`` is where creation out of the top degree is dropped,
so callers must keep a truncation budget (entries of degree <= N -
creations applied) when asserting exact identities.
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


@lru_cache(maxsize=64)
def _slot_moves(degree: int, letters: int) -> tuple:
    """P_j for each slot j: P_j[v] indexes word v with its slot j moved to the
    front, by arithmetic on indices as base-``letters`` numbers."""
    v, top, moves = np.arange(letters ** degree), letters ** (degree - 1), []
    for j in range(degree):
        after = letters ** (degree - 1 - j)  # the slots behind j
        moves.append(v // after % letters * top + v // (after * letters) * after + v % after)
        moves[-1].flags.writeable = False
    return tuple(moves)


def _float_gram(degree: int, letters: int, q0: float) -> np.ndarray:
    """G_n = sum_j q^j (I_letters (x) G_(n-1))[:, P_j] at the float q0."""
    g = np.ones((1, 1))
    for n in range(1, degree + 1):
        m = g.shape[0]
        lifted = np.zeros((m * letters, m * letters))
        for a in range(letters):
            lifted[a * m : (a + 1) * m, a * m : (a + 1) * m] = g
        g, term = np.zeros_like(lifted), np.empty_like(lifted)
        for j, move in enumerate(_slot_moves(n, letters)):
            np.take(lifted, move, axis=1, out=term, mode="clip")
            term *= q0 ** j
            g += term
    return g


def _coeff_dtype(degree: int):
    # every coefficient of a degree-n entry counts permutations, so is <= n!
    bound = math.factorial(degree)
    if bound < 2 ** 31:
        return np.int32
    if bound < 2 ** 63:
        return np.int64
    return object


def _content_sizes(degree: int, letters: int):
    """Yield (words, letter multiplicities) per letter content of the degree."""
    for content in itertools.combinations_with_replacement(range(letters), degree):
        counts = [content.count(a) for a in dict.fromkeys(content)]
        yield math.factorial(degree) // math.prod(map(math.factorial, counts)), counts


def _gram_bytes(degree: int, letters: int) -> int:
    """Bytes exact assembly holds at its peak, from shapes alone: every content
    block of the degree below, the largest of this degree, and the result's references."""

    def block_bytes(n: int) -> list:  # per content: words^2 * coefficients * itemsize
        size = (n * (n - 1) // 2 + 1) * np.dtype(_coeff_dtype(n)).itemsize
        return [words ** 2 * size for words, _ in _content_sizes(n, letters)]

    below = sum(block_bytes(degree - 1)) if degree else 0
    return below + max(block_bytes(degree)) + letters ** (2 * degree) * np.dtype(object).itemsize


def _gram_work(degree: int, letters: int) -> int:
    """Coefficient additions exact assembly makes up to the degree, from shapes alone.

    At degree n, each content's block adds, once per slot, the block of
    the content with one letter a removed: (words * count of a / n)^2
    entries of (n-1)(n-2)/2 + 1 coefficients.  An addition of Python ints
    (the object blocks, degree 21 on) counts 16: it measured 45-70 ns, an
    int64 one 3-5 ns.  Counting stops past the ``EXACT_GRAM_WORK`` bound.
    """
    work, stop = 0, budget.bound("EXACT_GRAM_WORK")
    for n in range(1, degree + 1):
        if work > stop:
            break
        per_pair = n * ((n - 1) * (n - 2) // 2 + 1) * (16 if _coeff_dtype(n) is object else 1)
        pairs = sum((words * m // n) ** 2 for words, counts in _content_sizes(n, letters) for m in counts)
        work += per_pair * pairs
    return work


def _content_words(degree: int, letters: int) -> dict:
    """{content: word indices} per letter content of the degree.

    The content is the sorted letters of the words, in the order of
    ``combinations_with_replacement``, and the indices ascend: the words
    starting with each letter of the content in turn, each followed by a
    word of the content with that letter removed.

    >>> {content: words.tolist() for content, words in _content_words(2, 2).items()}
    {(0, 0): [0], (0, 1): [1, 2], (1, 1): [3]}
    """
    layout = {(): np.zeros(1, dtype=np.int64)}
    for n in range(1, degree + 1):  # a loop, not recursion: one letter reaches degree 4999
        layout = _grow_layout(layout, n, letters)
    return layout


def _grow_layout(below: dict, degree: int, letters: int) -> dict:
    """The ``_content_words`` layout of the degree from that of the degree below."""
    top = letters ** (degree - 1)
    return {
        content: np.concatenate([a * top + below[_without(content, a)] for a in dict.fromkeys(content)])
        for content in itertools.combinations_with_replacement(range(letters), degree)
    }


def _without(content: tuple, a: int) -> tuple:
    i = content.index(a)
    return content[:i] + content[i + 1 :]


def _content_blocks(degree: int, letters: int):
    """Yield (content, word indices, coefficient block) per letter content.

    Contents and word indices are those of ``_content_words``, and
    block[s, t, k] is the coefficient of q^k in <word s, word t>.
    Words of other contents are orthogonal.  A word a u' pairs with v
    through the slots j where v_j = a (<a u', v> = sum_j q^j <u', v minus
    slot j>), so each block is filled from the blocks one letter smaller,
    degree by degree; the blocks of the degree below are held only while
    this degree is yielded.

    >>> for content, words, block in _content_blocks(2, 2):
    ...     print(content, words.tolist(), block.tolist())
    (0, 0) [0] [[[1, 1]]]
    (0, 1) [1, 2] [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    (1, 1) [3] [[[1, 1]]]
    """
    [(content, words)] = _content_words(0, letters).items()
    layer = [(content, words, np.ones((1, 1, 1), dtype=_coeff_dtype(0)))]
    for n in range(1, degree + 1):  # a loop, not recursion, as in _content_words
        layer = _grow_blocks({content: (words, block) for content, words, block in layer}, n, letters)
    yield from layer


def _grow_blocks(below: dict, degree: int, letters: int):
    """Yield the ``_content_blocks`` of the degree from those of the degree
    below, given as {content: (word indices, block)}."""
    layout = _grow_layout({content: words for content, (words, _) in below.items()}, degree, letters)
    width = degree * (degree - 1) // 2 + 1
    for content, words in layout.items():
        block = np.zeros((len(words), len(words), width), dtype=_coeff_dtype(degree))
        start = 0
        for a in dict.fromkeys(content):  # the rows of the words starting with a
            sub, sub_block = below[_without(content, a)]
            rows = slice(start, start + len(sub))
            start += len(sub)
            for j in range(degree):
                after = letters ** (degree - 1 - j)  # the slots behind j
                cols = np.searchsorted(words, (sub // after * letters + a) * after + sub % after)
                block[rows, cols, j : j + sub_block.shape[2]] += sub_block
        yield content, words, block


def gram_matrix(degree: int, cfg: SpaceConfig) -> np.ndarray:
    """Gram matrix of the degree block in the word basis.

    Float mode gives a float array at the configured q; exact mode an
    object array of QPolynomial, zero entries sharing one zero polynomial.
    Exact mode refuses, before allocating anything, an assembly over the
    ``EXACT_GRAM_BUDGET`` or ``EXACT_GRAM_WORK`` bound.

    >>> g = gram_matrix(2, SpaceConfig(2, 1, 2, ScalarMode.exact()))
    >>> print(g[0, 0], "|", g[1, 2], "|", g[0, 1])
    1 + q | q | 0
    """
    if not cfg.scalar.is_exact:
        _check_degree(degree, cfg)
        return _float_gram(degree, cfg.letters, cfg.scalar.q)
    blocks = _exact_gram_blocks(degree, cfg, QPolynomial)
    dim = cfg.dim(degree)
    out = np.full((dim, dim), QPolynomial.zero(), dtype=object)
    for words, rows in blocks:
        out[np.ix_(words, words)] = rows
    return out


def _check_degree(degree: int, cfg: SpaceConfig) -> None:
    if not 0 <= degree <= cfg.max_degree:
        raise Refused(f"degree {degree} outside 0..{cfg.max_degree}")


def _exact_gram_blocks(degree: int, cfg: SpaceConfig, lift) -> list:
    """(word indices, rows) per content block of the exact Gram block.

    Entry t of row s is ``lift`` of the coefficient tuple of <word s, word
    t> (powers of q ascending, trailing zeros kept); words of other
    contents are orthogonal.  Few distinct tuples fill many entries, so
    each is lifted once, and a block is read as lists one row at a time,
    never whole.  Refuses, before allocating anything, a degree outside
    0..max_degree and an assembly over ``EXACT_GRAM_BUDGET`` bytes
    (``_gram_bytes``) or ``EXACT_GRAM_WORK`` additions (``_gram_work``).
    """
    _check_degree(degree, cfg)
    what = f"exact Gram block of degree {degree} over {cfg.letters} letters needs at least"
    budget.check("EXACT_GRAM_BUDGET", _gram_bytes(degree, cfg.letters), what)
    budget.check("EXACT_GRAM_WORK", _gram_work(degree, cfg.letters), what)
    blocks, lifted = [], {}
    for _, words, block in _content_blocks(degree, cfg.letters):
        rows = []
        for coeffs in block:
            row = []
            for key in map(tuple, coeffs.tolist()):
                value = lifted.get(key)
                if value is None:
                    value = lifted[key] = lift(key)
                row.append(value)
            rows.append(row)
        blocks.append((words.tolist(), rows))
    return blocks


# ---------------------------------------------------------------------------
# block matrices


@dataclass(eq=False)
class BlockOperator:
    """Degree-block matrix; key (target degree, source degree), missing = 0."""

    cfg: SpaceConfig
    blocks: dict = field(default_factory=dict)

    def __post_init__(self):
        for (ti, si), mat in self.blocks.items():
            expect = (self.cfg.dim(ti), self.cfg.dim(si))
            if mat.shape != expect:
                raise ValueError(f"block {(ti, si)} has shape {mat.shape}, expected {expect}")

    def block(self, target: int, source: int):
        return self.blocks.get((target, source))

    def apply(self, v: FockVector) -> FockVector:
        if not self.cfg.compatible(v.cfg):
            raise ValueError("space mismatch")
        letters = self.cfg.letters
        out: dict = {}
        for word, c in v.coeffs.items():
            si = len(word)
            j = word_index(si, letters)[word]
            for (ti, s2), mat in self.blocks.items():
                if s2 != si:
                    continue
                basis = word_basis(ti, letters)
                for i, entry in enumerate(mat[:, j]):
                    if not scalar_is_zero(entry):
                        target = basis[i]
                        out[target] = out.get(target, 0) + entry * c
        return FockVector(v.cfg, out)


# ---------------------------------------------------------------------------
# second quantization and projections


def operator_norm(u: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(u, dtype=float), 2)) if u.size else 0.0


def second_quantize(u, cfg: SpaceConfig) -> BlockOperator:
    """Degree-n block u tensored with itself n times; vacuum block is 1.

    Requires a contraction; an orthogonal u preserves the q-inner product,
    and a coordinate projection gives the conditional expectation onto the
    sub-Fock space it selects.
    """
    u = np.asarray(u)
    if u.shape != (cfg.letters, cfg.letters):
        raise ValueError(f"one-particle matrix must be {cfg.letters}x{cfg.letters}")
    if operator_norm(u) > 1.0 + 1e-9:
        raise ValueError("second quantization needs a contraction")
    dtype = object if cfg.scalar.is_exact else float
    u = u.astype(dtype)
    start = np.ones((1, 1), dtype=dtype)  # an int 1 in exact mode
    blocks = {(0, 0): start}
    power = start
    for n in range(1, cfg.max_degree + 1):
        power = np.kron(power, u)
        blocks[(n, n)] = power
    return BlockOperator(cfg, blocks)


def coordinate_projection(cfg: SpaceConfig) -> np.ndarray:
    """One-particle projection of the doubled space keeping the first-copy letters."""
    diag = [1 if code < cfg.d else 0 for code in range(cfg.letters)]
    return np.diag(np.array(diag, dtype=object if cfg.scalar.is_exact else float))


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
