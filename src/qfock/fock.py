"""Degree-truncated q-deformed Fock space over a finite-dimensional one-particle space.

The one-particle space is R^d, optionally doubled (two marked copies) for
dilation constructions.  Letters are encoded as integers 0..d*copies-1 with
copy-1 letters first; a basis word is a tuple of letter codes, the empty
tuple is the vacuum.  The inner product of words of equal degree n is

    sum over permutations p of S_n of q^inversions(p) * prod <h_j, k_p(j)>,

extended bilinearly and with distinct degrees orthogonal.  It is computed
by conditioning on the image of the first position, which gives the
recursion

    <h (x) w, w'> = sum_j q^(j-1) <h, w'_j> <w, w' with slot j removed>

memoized per word pair for the sparse routes (``word_inner_poly``).  Gram
blocks apply the same recursion to whole blocks (Bozejko-Speicher):

    G_0 = [1],  G_n = sum_j q^j (I_letters (x) G_(n-1))[:, P_j]

with P_j[v] the index of word v with slot j moved to the front.  Float mode
scales float arrays by q^j; exact mode adds integer coefficient arrays into
the coefficient axis shifted by j, and builds polynomials only at the end.

Creation out of the top degree is dropped, so callers must keep a
truncation budget (entries of degree <= N - creations applied) when
asserting exact identities.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .scalars import QPolynomial, ScalarMode

DEFAULT_MAX_DIM = 5000


@dataclass(frozen=True)
class SpaceConfig:
    """Truncated Fock space shape: dimension d, 1 or 2 copies, top degree."""

    d: int
    copies: int
    max_degree: int
    scalar: ScalarMode

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("one-particle dimension must be at least 1")
        if self.copies not in (1, 2):
            raise ValueError("copies must be 1 or 2")
        if self.max_degree < 0:
            raise ValueError("max degree must be nonnegative")
        cap = int(os.environ.get("QFOCK_MAX_DIM", DEFAULT_MAX_DIM))
        if self.total_dim > cap:
            raise ValueError(
                f"truncated space needs {self.total_dim} basis words, "
                f"over the QFOCK_MAX_DIM cap of {cap}"
            )

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


@dataclass(frozen=True)
class Letter:
    """One-particle basis letter; copy 2 is the doubled summand."""

    index: int
    copy: int = 1

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("letter index is 1-based")
        if self.copy not in (1, 2):
            raise ValueError("copy must be 1 or 2")

    def code(self, cfg: SpaceConfig) -> int:
        if self.index > cfg.d:
            raise ValueError(f"letter index {self.index} exceeds d={cfg.d}")
        if self.copy > cfg.copies:
            raise ValueError("second-copy letter in a single-copy space")
        return (self.copy - 1) * cfg.d + (self.index - 1)

    @staticmethod
    def from_code(code: int, cfg: SpaceConfig) -> "Letter":
        if not 0 <= code < cfg.letters:
            raise ValueError(f"letter code {code} out of range")
        return Letter(code % cfg.d + 1, code // cfg.d + 1)


def word_to_str(word: tuple, cfg: SpaceConfig) -> str:
    """vac for the empty word, else comma-joined tokens, t marking copy 2."""
    if not word:
        return "vac"
    tokens = []
    for code in word:
        let = Letter.from_code(code, cfg)
        tokens.append(f"{let.index}t" if let.copy == 2 else str(let.index))
    return ",".join(tokens)


def parse_word(text: str, cfg: SpaceConfig) -> tuple:
    """Inverse of word_to_str.

    >>> cfg = SpaceConfig(2, 2, 3, ScalarMode.exact())
    >>> parse_word("1,2t", cfg)
    (0, 3)
    """
    text = text.strip()
    if text == "vac":
        return ()
    codes = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty letter token")
        copy = 2 if token.endswith("t") else 1
        body = token[:-1] if copy == 2 else token
        if not body.isdigit():
            raise ValueError(f"bad letter token {token!r}")
        codes.append(Letter(int(body), copy).code(cfg))
    return tuple(codes)


@lru_cache(maxsize=None)
def word_basis(degree: int, letters: int) -> tuple:
    """All words of the given degree, lexicographic in letter codes."""
    return tuple(itertools.product(range(letters), repeat=degree))


@lru_cache(maxsize=None)
def word_index(degree: int, letters: int) -> dict:
    return {w: i for i, w in enumerate(word_basis(degree, letters))}


def enumerate_words(degree: int, cfg: SpaceConfig) -> tuple:
    if not 0 <= degree <= cfg.max_degree:
        raise ValueError(f"degree {degree} outside 0..{cfg.max_degree}")
    return word_basis(degree, cfg.letters)


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
    """Sparse vector: word -> scalar, zero coefficients never stored."""

    cfg: SpaceConfig
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {w: c for w, c in self.coeffs.items() if not scalar_is_zero(c)}
        for w in self.coeffs:
            if len(w) > self.cfg.max_degree:
                raise ValueError(f"word {w} above max degree {self.cfg.max_degree}")

    @staticmethod
    def vacuum(cfg: SpaceConfig) -> "FockVector":
        return FockVector(cfg, {(): cfg.scalar.one()})

    @staticmethod
    def from_word(cfg: SpaceConfig, word: tuple, coeff=None) -> "FockVector":
        return FockVector(cfg, {tuple(word): cfg.scalar.one() if coeff is None else coeff})

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

    def map_coeffs(self, fn) -> "FockVector":
        return FockVector(self.cfg, {w: fn(c) for w, c in self.coeffs.items()})


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
    """P_j for each slot j: P_j[v] indexes word v with its slot j moved to the front."""
    grid = np.arange(letters ** degree).reshape((letters,) * degree)
    moves = tuple(np.moveaxis(grid, 0, j).ravel() for j in range(degree))
    for move in moves:
        move.flags.writeable = False
    return moves


def _coeff_dtype(degree: int):
    # every coefficient of a degree-n entry counts permutations, so is <= n!
    bound = math.factorial(degree)
    if bound < 2 ** 31:
        return np.int32
    if bound < 2 ** 63:
        return np.int64
    return object


def _next_gram(prev: np.ndarray, degree: int, letters: int, out: np.ndarray, add_q_power) -> None:
    """out += sum_j q^j (I_letters (x) prev)[:, P_j].

    add_q_power(out, term, j) adds q^j * term; it is the only step that
    differs between float and exact scalars.
    """
    m = prev.shape[0]
    lifted = np.zeros((m * letters, m * letters) + prev.shape[2:], dtype=out.dtype)
    for a in range(letters):
        lifted[a * m : (a + 1) * m, a * m : (a + 1) * m] = prev
    term = np.empty_like(lifted)
    for j, move in enumerate(_slot_moves(degree, letters)):
        np.take(lifted, move, axis=1, out=term, mode="clip")
        add_q_power(out, term, j)


@lru_cache(maxsize=16)
def _gram_coeffs(degree: int, letters: int) -> np.ndarray:
    """Exact Gram block as integer coefficients, shape (dim, dim, C(degree, 2) + 1).

    Entry [u, v, k] is the coefficient of q^k in <u, v>.

    >>> _gram_coeffs(2, 1).tolist()
    [[[1, 1]]]
    """
    if degree == 0:
        out = np.ones((1, 1, 1), dtype=_coeff_dtype(0))
    else:
        prev = _gram_coeffs(degree - 1, letters)
        width = prev.shape[2]

        def add_q_power(out, term, j):
            out[:, :, j : j + width] += term

        dim = letters ** degree
        out = np.zeros((dim, dim, degree * (degree - 1) // 2 + 1), dtype=_coeff_dtype(degree))
        _next_gram(prev, degree, letters, out, add_q_power)
    out.flags.writeable = False
    return out


def _float_gram(degree: int, letters: int, q0: float) -> np.ndarray:
    def add_q_power(out, term, j):
        term *= q0 ** j
        out += term

    g = np.ones((1, 1))
    for n in range(1, degree + 1):
        prev, g = g, np.zeros((letters ** n, letters ** n))
        _next_gram(prev, n, letters, g, add_q_power)
    return g


def gram_matrix(degree: int, cfg: SpaceConfig) -> np.ndarray:
    """Gram matrix of the degree block in the word basis.

    Float mode gives a float array at the configured q; exact mode an
    object array of QPolynomial, zero entries sharing one zero polynomial.

    >>> g = gram_matrix(2, SpaceConfig(2, 1, 2, ScalarMode.exact()))
    >>> print(g[0, 0], "|", g[1, 2], "|", g[0, 1])
    1 + q | q | 0
    """
    if not 0 <= degree <= cfg.max_degree:
        raise ValueError(f"degree {degree} outside 0..{cfg.max_degree}")
    if not cfg.scalar.is_exact:
        return _float_gram(degree, cfg.letters, cfg.scalar.q)
    coeffs = _gram_coeffs(degree, cfg.letters)
    dim = coeffs.shape[0]
    out = np.full((dim, dim), QPolynomial.zero(), dtype=object)
    nonzero = (coeffs != 0).any(axis=2)
    # few distinct polynomials fill many entries; build each one once
    keys = [tuple(row) for row in coeffs[nonzero].tolist()]
    distinct = {key: QPolynomial(key) for key in set(keys)}
    polys = np.empty(len(keys), dtype=object)
    polys[:] = [distinct[key] for key in keys]
    out[nonzero] = polys
    return out


# ---------------------------------------------------------------------------
# structural ladder operators (sparse, used by the combinatorial pipelines)


def apply_create_letter(code: int, v: FockVector) -> FockVector:
    """Prepend a basis letter; the block out of the top degree is dropped."""
    out = {}
    for w, c in v.coeffs.items():
        if len(w) + 1 <= v.cfg.max_degree:
            out[(code,) + w] = c
    return FockVector(v.cfg, out)


def apply_annihilate_letter(code: int, v: FockVector) -> FockVector:
    """Remove a matching letter from each slot j with weight q^(j-1)."""
    mode = v.cfg.scalar
    out = {}
    for w, c in v.coeffs.items():
        for j, letter in enumerate(w):
            if letter != code:
                continue
            target = w[:j] + w[j + 1 :]
            out[target] = out.get(target, 0) + mode.q_power(j) * c
    return FockVector(v.cfg, out)


def apply_field_letter(code: int, v: FockVector) -> FockVector:
    return apply_create_letter(code, v) + apply_annihilate_letter(code, v)


def apply_create(h, v: FockVector) -> FockVector:
    """Creation by a general one-particle vector (coefficients over letters)."""
    _check_vector(h, v.cfg)
    out = FockVector(v.cfg, {})
    for code, weight in enumerate(h):
        if not scalar_is_zero(weight):
            out = out + apply_create_letter(code, v).scale(weight)
    return out


def apply_annihilate(h, v: FockVector) -> FockVector:
    _check_vector(h, v.cfg)
    out = FockVector(v.cfg, {})
    for code, weight in enumerate(h):
        if not scalar_is_zero(weight):
            out = out + apply_annihilate_letter(code, v).scale(weight)
    return out


def apply_field(h, v: FockVector) -> FockVector:
    return apply_create(h, v) + apply_annihilate(h, v)


def _check_vector(h, cfg: SpaceConfig) -> None:
    if len(h) != cfg.letters:
        raise ValueError(f"one-particle vector has {len(h)} entries, space has {cfg.letters}")


# ---------------------------------------------------------------------------
# block matrices


@dataclass(eq=False)
class BlockOperator:
    """Degree-block matrix; key (target degree, source degree), missing = 0."""

    cfg: SpaceConfig
    blocks: dict = field(default_factory=dict)

    def __post_init__(self):
        self._columns: dict = {}
        for (ti, si), mat in self.blocks.items():
            expect = (self.cfg.dim(ti), self.cfg.dim(si))
            if mat.shape != expect:
                raise ValueError(f"block {(ti, si)} has shape {mat.shape}, expected {expect}")

    @staticmethod
    def identity(cfg: SpaceConfig) -> "BlockOperator":
        blocks = {}
        for n in range(cfg.max_degree + 1):
            if cfg.scalar.is_exact:
                mat = np.zeros((cfg.dim(n), cfg.dim(n)), dtype=object)
                for i in range(cfg.dim(n)):
                    mat[i, i] = 1
            else:
                mat = np.eye(cfg.dim(n))
            blocks[(n, n)] = mat
        return BlockOperator(cfg, blocks)

    def block(self, target: int, source: int):
        return self.blocks.get((target, source))

    def _column(self, key: tuple, j: int):
        # column sparsity is computed once and reused across applies
        cache = self._columns.setdefault(key, {})
        if j not in cache:
            col = self.blocks[key][:, j]
            cache[j] = [(i, col[i]) for i in range(len(col)) if not scalar_is_zero(col[i])]
        return cache[j]

    def apply(self, v: FockVector) -> FockVector:
        if not self.cfg.compatible(v.cfg):
            raise ValueError("space mismatch")
        letters = self.cfg.letters
        out: dict = {}
        for word, c in v.coeffs.items():
            si = len(word)
            j = word_index(si, letters)[word]
            for (ti, s2), _ in self.blocks.items():
                if s2 != si:
                    continue
                basis = word_basis(ti, letters)
                for i, entry in self._column((ti, si), j):
                    target = basis[i]
                    out[target] = out.get(target, 0) + entry * c
        return FockVector(v.cfg, out)

    def compose(self, other: "BlockOperator") -> "BlockOperator":
        """self after other."""
        if not self.cfg.compatible(other.cfg):
            raise ValueError("space mismatch")
        blocks: dict = {}
        for (ti, mid), a in self.blocks.items():
            for (m2, si), b in other.blocks.items():
                if mid != m2:
                    continue
                prod = a @ b
                key = (ti, si)
                blocks[key] = prod if key not in blocks else blocks[key] + prod
        return BlockOperator(self.cfg, blocks)

    def __matmul__(self, other):
        if isinstance(other, BlockOperator):
            return self.compose(other)
        return NotImplemented

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        if not self.cfg.compatible(other.cfg):
            raise ValueError("space mismatch")
        blocks = {k: m.copy() for k, m in self.blocks.items()}
        for k, m in other.blocks.items():
            blocks[k] = blocks[k] + m if k in blocks else m.copy()
        return BlockOperator(self.cfg, blocks)

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return self + other.scale(-1)

    def scale(self, s) -> "BlockOperator":
        return BlockOperator(self.cfg, {k: m * s for k, m in self.blocks.items()})

    def vacuum_entry(self):
        mat = self.blocks.get((0, 0))
        zero = self.cfg.scalar.zero()
        if mat is None:
            return zero
        return zero + mat[0, 0]


def vacuum_expectation(op: BlockOperator):
    """The (vacuum, vacuum) matrix element."""
    return op.vacuum_entry()


def _empty_block(cfg: SpaceConfig, target: int, source: int) -> np.ndarray:
    shape = (cfg.dim(target), cfg.dim(source))
    if cfg.scalar.is_exact:
        return np.zeros(shape, dtype=object)
    return np.zeros(shape)


def ladder(h, kind: str, cfg: SpaceConfig) -> BlockOperator:
    """Creation or annihilation by a one-particle vector, as block matrices."""
    _check_vector(h, cfg)
    if kind not in ("create", "annihilate"):
        raise ValueError(f"unknown ladder kind {kind!r}")
    blocks = {}
    for n in range(cfg.max_degree + 1):
        basis = word_basis(n, cfg.letters)
        if kind == "create" and n < cfg.max_degree:
            mat = _empty_block(cfg, n + 1, n)
            target_index = word_index(n + 1, cfg.letters)
            for j, w in enumerate(basis):
                for code, weight in enumerate(h):
                    if scalar_is_zero(weight):
                        continue
                    mat[target_index[(code,) + w], j] += weight
            blocks[(n + 1, n)] = mat
        if kind == "annihilate" and n >= 1:
            mat = _empty_block(cfg, n - 1, n)
            target_index = word_index(n - 1, cfg.letters)
            for j, w in enumerate(basis):
                for slot, code in enumerate(w):
                    weight = h[code]
                    if scalar_is_zero(weight):
                        continue
                    row = target_index[w[:slot] + w[slot + 1 :]]
                    mat[row, j] += cfg.scalar.q_power(slot) * weight
            blocks[(n - 1, n)] = mat
    return BlockOperator(cfg, blocks)


def field_operator(h, cfg: SpaceConfig) -> BlockOperator:
    return ladder(h, "create", cfg) + ladder(h, "annihilate", cfg)


def basis_one_particle(code: int, cfg: SpaceConfig) -> tuple:
    one, zero = cfg.scalar.one(), cfg.scalar.zero()
    return tuple(one if i == code else zero for i in range(cfg.letters))


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
    if cfg.scalar.is_exact:
        u = u.astype(object)
        start = np.zeros((1, 1), dtype=object)
        start[0, 0] = 1
    else:
        u = u.astype(float)
        start = np.ones((1, 1))
    blocks = {(0, 0): start}
    power = start
    for n in range(1, cfg.max_degree + 1):
        power = np.kron(power, u)
        blocks[(n, n)] = power
    return BlockOperator(cfg, blocks)


def coordinate_projection(cfg: SpaceConfig, keep_copy: int = 1) -> np.ndarray:
    """One-particle projection keeping the letters of a single copy."""
    if cfg.copies != 2:
        raise ValueError("coordinate projection needs the doubled space")
    diag = [1 if (code // cfg.d) + 1 == keep_copy else 0 for code in range(cfg.letters)]
    if cfg.scalar.is_exact:
        return np.diag(np.array(diag, dtype=object))
    return np.diag(np.array(diag, dtype=float))


def degree_projection(v: FockVector, n: int) -> FockVector:
    return v.component(n)


def second_copy_count(word: tuple, cfg: SpaceConfig) -> int:
    return sum(1 for code in word if code >= cfg.d)


def copy_count_projection(v: FockVector, m: int, mode: str = "exact") -> FockVector:
    """Restrict to words with exactly (or at least) m second-copy letters.

    The coordinate restriction agrees with the q-orthogonal projection
    because words with distinct second-copy counts are q-orthogonal.
    """
    if v.cfg.copies != 2:
        raise ValueError("copy-count projection needs the doubled space")
    if mode not in ("exact", "at-least"):
        raise ValueError(f"unknown mode {mode!r}")
    keep = {}
    for w, c in v.coeffs.items():
        count = second_copy_count(w, v.cfg)
        if (mode == "exact" and count == m) or (mode == "at-least" and count >= m):
            keep[w] = c
    return FockVector(v.cfg, keep)
