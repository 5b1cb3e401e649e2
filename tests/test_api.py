"""The public surface of the package, pinned name by name."""

import qfock
import qfock.cli
from qfock import fock, wick

PUBLIC = [
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

# what bench/worker.py takes from the package itself
BENCH_NAMES = ["SpaceConfig", "EXACT", "FockVector", "wick_apply", "three_wick_trace"]


def test_public_api_is_pinned():
    assert qfock.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(qfock, name) is not None
    assert set(BENCH_NAMES) <= set(PUBLIC)
    assert callable(qfock.FockVector.from_word)


def test_benchmark_entry_points_and_memos_resolve():
    # the benchmark drives the command line and reads these memo counters
    assert callable(qfock.cli.main) and callable(qfock.cli.emit)
    for memo in (fock.word_inner_poly, wick.wick_word_action):
        assert memo.cache_info() is not None
