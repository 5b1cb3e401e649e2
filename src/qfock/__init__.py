"""Degree-truncated q-Fock space computations.

The package is organised bottom-up:

* :mod:`qfock.scalars` -- exact polynomials in the deformation parameter,
  and the exact/float scalar mode switch.
* :mod:`qfock.combinatorics` -- partitions into pairs and singletons (one
  type, perfect matchings included), crossing counts, and the insertion
  statistic with its (A, B, sigma) triple; subsets and permutations are
  plain tuples.
* :mod:`qfock.fock` -- truncated Fock spaces, the word codec and the
  doubled-space layout, the deformed inner product and Gram blocks, block
  operators and second quantization.
* :mod:`qfock.wick` -- Wick products acting on vectors (fields are the
  degree-1 ones, and the Wick kernel drops creation out of the top
  degree), mixed moments, splitting products, and finite-size central
  limit data.
* :mod:`qfock.identities` -- exhaustive generic-q verification of the
  splitting and inclusion-exclusion identities.
* :mod:`qfock.analysis` -- float-mode estimates: semigroup dilation,
  rank-one compressions, Schatten norms, block decay, deformation bounds.
* :mod:`qfock.render` -- arc diagrams in ASCII and SVG.
* :mod:`qfock.budget` -- the refusal policy: ``Refused``, the ValueError
  every module raises for an input it declines before any work, and the
  one table of work bounds.

``__all__`` below is the public surface; ``tests/test_api.py`` pins it.
"""

from .budget import Refused
from .combinatorics import (
    PartialPartition,
    crossings,
    iota_prime,
    partition_triple,
)
from .fock import (
    BlockOperator,
    FockVector,
    SpaceConfig,
    gram_matrix,
    q_inner,
    q_norm_squared,
    second_quantize,
)
from .scalars import EXACT, QPolynomial, ScalarMode
from .wick import (
    clt_moments,
    moment_pair_partitions,
    three_wick_trace,
    wick_apply,
    wick_split_product,
)

__version__ = "0.1.0"

__all__ = [
    "BlockOperator",
    "EXACT",
    "FockVector",
    "PartialPartition",
    "QPolynomial",
    "Refused",
    "ScalarMode",
    "SpaceConfig",
    "clt_moments",
    "crossings",
    "gram_matrix",
    "iota_prime",
    "moment_pair_partitions",
    "partition_triple",
    "q_inner",
    "q_norm_squared",
    "second_quantize",
    "three_wick_trace",
    "wick_apply",
    "wick_split_product",
]
