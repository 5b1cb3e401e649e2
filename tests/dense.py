"""Dense degree-block operators, for the tests' oracles.

The package applies second quantization word by word
(``qfock.fock.second_quantize``) and keeps multiplier blocks as plain
``{(target, source): matrix}`` dicts.  The oracles here build operators as
whole (letters^n x letters^n) matrices: second quantization as Kronecker
powers of the one-particle matrix, ladder operators entry by entry, and
they read them back through ``BlockOperator.apply``, so each stays
independent of the word map it checks.
"""

from dataclasses import dataclass, field

import numpy as np

from qfock.fock import FockVector, SpaceConfig, scalar_is_zero, word_basis, word_index


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


def kron_second_quantize(u, cfg: SpaceConfig) -> BlockOperator:
    """Degree-n block u tensored with itself n times; vacuum block is 1."""
    dtype = object if cfg.scalar.is_exact else float
    u = np.asarray(u).astype(dtype)
    power = np.ones((1, 1), dtype=dtype)  # an int 1 in exact mode
    blocks = {(0, 0): power}
    for n in range(1, cfg.max_degree + 1):
        power = np.kron(power, u)
        blocks[(n, n)] = power
    return BlockOperator(cfg, blocks)


def coordinate_projection(cfg: SpaceConfig) -> np.ndarray:
    """One-particle projection of the doubled space keeping the first-copy letters."""
    diag = [1 if code < cfg.d else 0 for code in range(cfg.letters)]
    return np.diag(np.array(diag, dtype=object if cfg.scalar.is_exact else float))
