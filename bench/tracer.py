"""Per-layer tracing of one worker process, installed from outside qfock.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` rebinds
names in the already imported qfock modules:

* every public function of one qfock module that is bound as a name in
  another (``qfock.wick.enumerate_pair_partitions``,
  ``qfock.analysis.gram_matrix``, the package re-exports, ...), attributed
  to the module that defines it; generators are timed per ``next`` call;
* ``qfock.cli.emit``, the one CLI-internal boundary a metric needs;
* the ``QPolynomial`` ring methods;
* ``numpy.linalg.eigh``/``svd``/``norm`` as seen from ``qfock.analysis``,
  through a copy of the numpy module bound in that module only.

Every call updates a per-name counter (calls, inclusive seconds, self
seconds).  Self time is inclusive time minus the time of traced calls made
inside it.  Stage calls and cross-module calls also get an individual span
(name, start, end, parent, stage), at most ``SPAN_CAP`` per name and stage
so that boundaries hit 1e5-1e6 times per run fold into their counters and
the trace stays small.  The ring methods and generator steps are counters
only.
"""

from __future__ import annotations

import inspect
import sys
import types
from time import perf_counter

PACKAGE = "qfock"
SPAN_CAP = 200
RING_METHODS = ("__add__", "__radd__", "__mul__", "__rmul__", "shift", "eval")
LINALG_FUNCTIONS = ("eigh", "svd", "norm")
_NO_CALLS = (None, 0, 0.0, 0.0)


def _is_function(obj) -> bool:
    # plain functions and lru_cache wrappers; classes and constants are skipped
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info"))


def _is_generator_function(obj) -> bool:
    return inspect.isgeneratorfunction(inspect.unwrap(obj))


class Tracer:
    """Counters and spans for one process; see the module docstring."""

    def __init__(self):
        self.origin = perf_counter()
        self.stack = [[0.0, None]]  # one frame per active call: [child seconds, span id]
        self.stats: dict = {}  # name -> [layer, calls, inclusive s, self s]
        self.counters: dict = {}
        self.spans: list = []  # [name, start, end, parent span, stage]
        self.stage = None
        self._budget: dict = {}

    # -- wrapping -----------------------------------------------------------

    def _stat(self, name: str, layer: str) -> list:
        return self.stats.setdefault(name, [layer, 0, 0.0, 0.0])

    def wrap(self, fn, name: str, layer: str, spanned: bool = True):
        stat = self._stat(name, layer)
        stack, spans, budget, origin = self.stack, self.spans, self._budget, self.origin
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            span = None
            if spanned:
                used = budget.get(name, 0)
                if used < SPAN_CAP:
                    budget[name] = used + 1
                    span = [name, 0.0, 0.0, parent[1], tracer.stage]
                    spans.append(span)
            frame = [0.0, len(spans) - 1 if span else parent[1]]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                stack.pop()
                parent[0] += elapsed
                stat[1] += 1
                stat[2] += elapsed
                stat[3] += elapsed - frame[0]
                if span:
                    span[1], span[2] = start - origin, end - origin

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name: str, layer: str):
        stat = self._stat(name, layer)
        stack = self.stack
        yielded = self.counters.setdefault(f"{name}.yielded", [0])

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [0.0, parent[1]]
                stack.append(frame)
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    parent[0] += elapsed
                    stat[1] += 1
                    stat[2] += elapsed
                    stat[3] += elapsed - frame[0]
                yielded[0] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(prefix))
        }
        wrapped: dict = {}
        for mod_name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", None)
                if attr.startswith("_") or home == mod_name or home not in modules:
                    continue
                if not _is_function(obj):
                    continue
                if id(obj) not in wrapped:
                    layer = home[len(prefix):]
                    name = f"{layer}.{attr}"
                    if _is_generator_function(obj):
                        wrapped[id(obj)] = self.wrap_generator(obj, name, layer)
                    else:
                        wrapped[id(obj)] = self.wrap(obj, name, layer)
                setattr(mod, attr, wrapped[id(obj)])
        cli = modules.get(prefix + "cli")
        if cli is not None and hasattr(cli, "emit"):
            cli.emit = self.wrap(cli.emit, "cli.emit", "cli")
        self._install_ring(modules.get(prefix + "scalars"))
        self._install_linalg(modules.get(prefix + "analysis"))

    def _install_ring(self, scalars) -> None:
        cls = getattr(scalars, "QPolynomial", None)
        if cls is None:
            return
        for meth in RING_METHODS:
            if meth in vars(cls):
                fn = vars(cls)[meth]
                setattr(cls, meth, self.wrap(fn, f"scalars.{meth}", "scalars", spanned=False))

    def _install_linalg(self, analysis) -> None:
        np = getattr(analysis, "np", None)
        if np is None:
            return
        linalg = types.ModuleType(np.linalg.__name__)
        linalg.__dict__.update(vars(np.linalg))
        for fn_name in LINALG_FUNCTIONS:
            linalg.__dict__[fn_name] = self.wrap(
                getattr(np.linalg, fn_name), f"analysis.linalg.{fn_name}", "analysis.linalg"
            )
        eigh = linalg.eigh
        n3 = self.counters.setdefault("analysis.eigh_n3", [0])

        def counted_eigh(a, *args, **kwargs):
            shape = np.shape(a)
            n3[0] += int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3
            return eigh(a, *args, **kwargs)

        linalg.eigh = counted_eigh
        clone = types.ModuleType(np.__name__)
        clone.__dict__.update(vars(np))
        clone.linalg = linalg
        analysis.np = clone

    # -- stages -------------------------------------------------------------

    def run_stage(self, stage: str, layer: str, fn, *args):
        """Call fn(*args) as one stage span; resets the per-stage span cap."""
        self.stage = stage
        self._budget.clear()
        try:
            return self.wrap(fn, f"{layer}.stage", layer)(*args)
        finally:
            self.stage = None

    # -- results ------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(s[3] for s in self.stats.values() if s[0] == layer)

    def calls(self, name: str) -> int:
        return self.stats.get(name, _NO_CALLS)[1]

    def inclusive(self, name: str) -> float:
        return self.stats.get(name, _NO_CALLS)[2]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, _NO_CALLS)[3]

    def counter(self, name: str) -> int:
        return self.counters.get(name, [0])[0]

    def span_records(self) -> list:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "stage": st}
            for i, (n, s, e, p, st) in enumerate(self.spans)
        ]


# -- per-layer metrics ------------------------------------------------------

# name -> unit, in the order they are reported; trace.overhead is added by run.py
PER_LAYER_UNITS = {
    "scalars.ring_ops": "count",
    "scalars.ns_per_op": "ns",
    "combinatorics.partitions_yielded": "count",
    "combinatorics.crossings_calls": "count",
    "combinatorics.self_s": "s",
    "fock.gram_self_s": "s",
    "fock.word_inner_poly.misses": "count",
    "fock.word_inner_poly.hit_ratio": "ratio",
    "fock.memo_entries": "count",
    "wick.self_s": "s",
    "wick.moment_self_s": "s",
    "wick.clt_self_s": "s",
    "wick.wick_word_action.hit_ratio": "ratio",
    "wick.colored_moment.hit_ratio": "ratio",
    "identities.self_s": "s",
    "identities.cases": "count",
    "analysis.linalg_s": "s",
    "analysis.eigh_n3": "count",
    "analysis.self_s": "s",
    "cli.emit_s": "s",
    "cli.output_bytes": "count",
}


def _cache_info(module, name: str):
    info = getattr(getattr(module, name, None), "cache_info", None)
    return info() if info else None


def _hit_ratio(info) -> float:
    lookups = info.hits + info.misses if info else 0
    return info.hits / lookups if lookups else 0.0


def _memo_entries(module) -> int:
    """Entries held by the module's lru_caches and module-level dict memos."""
    total = 0
    for attr, obj in vars(module).items():
        if hasattr(obj, "cache_info"):
            total += obj.cache_info().currsize
        elif isinstance(obj, dict) and "CACHE" in attr.upper():
            total += len(obj)
    return total


def layer_metrics(tracer: Tracer, results: list) -> dict:
    """Per-layer metrics of one traced iteration.

    Cache counters are read from ``cache_info()`` of the memo in its home
    module; a memo that no longer exists reads as 0.  ``results`` are the
    worker's stage records, which carry scan case counts and output sizes.
    """
    home = {name: sys.modules.get(f"{PACKAGE}.{name}") for name in ("fock", "wick")}
    ring = [f"scalars.{meth}" for meth in RING_METHODS]
    ring_ops = sum(tracer.calls(name) for name in ring)
    ring_s = sum(tracer.inclusive(name) for name in ring)
    inner = _cache_info(home["fock"], "word_inner_poly")
    yielded = sum(
        count[0]
        for name, count in tracer.counters.items()
        if name.startswith("combinatorics.") and name.endswith(".yielded")
    )
    linalg = [name for name, stat in tracer.stats.items() if stat[0] == "analysis.linalg"]
    clt = ("wick.clt_finite", "wick.offdiag_wick_coefficient", "wick.offdiag_reference")
    return {
        "scalars.ring_ops": ring_ops,
        "scalars.ns_per_op": ring_s / ring_ops * 1e9 if ring_ops else 0.0,
        "combinatorics.partitions_yielded": yielded,
        "combinatorics.crossings_calls": tracer.calls("combinatorics.crossings"),
        "combinatorics.self_s": tracer.layer_self("combinatorics"),
        "fock.gram_self_s": tracer.self_time("fock.gram_matrix"),
        "fock.word_inner_poly.misses": inner.misses if inner else 0,
        "fock.word_inner_poly.hit_ratio": _hit_ratio(inner),
        "fock.memo_entries": _memo_entries(home["fock"]),
        "wick.self_s": tracer.layer_self("wick"),
        "wick.moment_self_s": tracer.self_time("wick.moment_pair_partitions"),
        "wick.clt_self_s": sum(tracer.self_time(name) for name in clt),
        "wick.wick_word_action.hit_ratio": _hit_ratio(_cache_info(home["wick"], "wick_word_action")),
        "wick.colored_moment.hit_ratio": _hit_ratio(_cache_info(home["wick"], "_colored_moment")),
        "identities.self_s": tracer.layer_self("identities"),
        "identities.cases": sum(r["cases"] for r in results if r["scan"]),
        "analysis.linalg_s": sum(tracer.inclusive(name) for name in linalg),
        "analysis.eigh_n3": tracer.counter("analysis.eigh_n3"),
        "analysis.self_s": tracer.layer_self("analysis"),
        "cli.emit_s": tracer.inclusive("cli.emit"),
        "cli.output_bytes": sum(r["output_bytes"] for r in results if r["argv"][0] != "three-trace"),
    }
