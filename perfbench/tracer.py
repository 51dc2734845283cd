"""Outside-in layer tracing for radact.

The tracer wraps public functions of each radact layer from the benchmark's
side and leaves the program's source untouched.  Modules import kernels by
name (``from .radical import closure_mask``), so a wrapper is rebound in every
``radact.*`` namespace that holds the original object; methods are patched on
their classes.  ``restore`` puts every original back.

Counts, inclusive time and self time are aggregated inside the wrappers.
Self time is a call's duration minus the time of the wrapped calls it made.
Inclusive time (``.s``) counts only the outermost call of a function, so
recursion is not counted twice.  Spans (name, start, end, parent) are kept
only for the coarse functions listed in ``SPANS``.
"""

from __future__ import annotations

import sys
import time

# (module, attribute) of every wrapped function; "Class.method" patches a class.
TARGETS = (
    ("radact.core", "all_homs"),
    ("radact.core", "hom_extension_exists"),
    ("radact.core", "hom_extensions"),
    ("radact.core", "find_isomorphism"),
    ("radact.core", "canonical_form"),
    ("radact.universe", "enumerate_monoids"),
    ("radact.universe", "enumerate_acts"),
    ("radact.universe", "Universe.register_radical"),
    ("radact.congruence", "all_congruences"),
    ("radact.congruence", "is_essential"),
    ("radact.congruence", "join"),
    ("radact.congruence", "generated_congruence"),
    ("radact.radical", "Radical.of"),
    ("radact.radical", "closure_mask"),
    ("radact.radical", "dense_subact_masks"),
    ("radact.radical", "classify_radical"),
    ("radact.injectivity", "injective_hull"),
    ("radact.injectivity", "is_large"),
    ("radact.injectivity", "is_injective"),
    ("radact.injectivity", "r_injective_bounded"),
    ("radact.injectivity", "transfer_pushout"),
    ("radact.injectivity", "direct_limit"),
    ("radact.verifier", "Checker.run"),
    ("radact.cli", "_universe"),
)

# Classes whose __hash__ calls are counted (ROADMAP: hashes are recomputed).
HASHED = (("radact.core", "FiniteAct"), ("radact.core", "FiniteMonoid"))

SPANS = frozenset({
    "universe.enumerate_monoids",
    "universe.enumerate_acts",
    "universe.Universe.register_radical",
    "radical.classify_radical",
    "injectivity.injective_hull",
    "verifier.Checker.run",
    "cli._universe",
})

HULL = "injectivity.injective_hull"
LARGE = "injectivity.is_large"

# lru caches and module-level dict caches reported by the cache census.
LRU_CACHES = (
    ("radact.core", "left_regular_act"),
    ("radact.core", "trivial_act"),
    ("radact.core", "zeros"),
    ("radact.core", "cyclic_mask"),
    ("radact.core", "subact_masks"),
    ("radact.core", "all_homs"),
    ("radact.core", "injective_homs"),
    ("radact.core", "_signature"),
    ("radact.core", "_subact_act_cached"),
    ("radact.core", "canonical_form"),
    ("radact.core", "canonical_monoid"),
    ("radact.congruence", "all_congruences"),
    ("radact.universe", "_cyclic_acts"),
)
DICT_CACHES = (
    ("radact.radical", "_closure_cache"),
    ("radact.radical", "_dense_cache"),
    ("radact.radical", "_taxonomy_cache"),
    ("radact.injectivity", "_criterion_cache"),
    ("radact.injectivity", "_universe_cache"),
    ("radact.injectivity", "_plain_cache"),
    ("radact.injectivity", "_hull_cache"),
    ("radact.checkers", "_t_cache"),
)


def short(module: str) -> str:
    return module.split(".", 1)[1]


class Stat:
    __slots__ = ("calls", "inclusive", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Install with ``install()``, run the workload, then ``restore()``."""

    def __init__(self):
        # every target reports, with zero calls when the program lacks it
        self.stats: dict[str, Stat] = {
            f"{short(module)}.{target}": Stat() for module, target in TARGETS
        }
        self.spans: list[tuple] = []
        self.hash_calls = 0
        self.hull_candidates = 0
        self.hull_large = 0
        self.hull_exceeded: set = set()
        self._stack: list[list] = []  # [child seconds, name, span index]
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        for module, target in TARGETS:
            mod = sys.modules.get(module)
            if mod is None:
                continue
            owner_name, _, attr = target.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                original = owner.__dict__.get(attr) if owner else None
                if original is None:
                    continue
                name = f"{short(module)}.{target}"
                self._patch(owner, attr, original, self._wrap(name, original))
            else:
                original = getattr(mod, attr, None)
                if original is None:
                    continue
                self._rebind(original, self._wrap(f"{short(module)}.{attr}", original))
        for module, cls_name in HASHED:
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = cls.__dict__.get("__hash__") if cls else None
            if original is not None:
                self._patch(cls, "__hash__", original,
                            self._count_hash(original))

    def _rebind(self, original, wrapper):
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "radact" or name.startswith("radact.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> bool:
        """Put every original back; True when each attribute reads as the
        original again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(
            (owner.__dict__[attr] if isinstance(owner, type)
             else getattr(owner, attr)) is original
            for owner, attr, original in self._patches
        )
        self._patches.clear()
        return ok

    # -- wrappers ----------------------------------------------------------

    def _count_hash(self, original):
        def counted_hash(obj):
            self.hash_calls += 1
            return original(obj)
        return counted_hash

    def _wrap(self, name, fn):
        st = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        spans = self.spans if name in SPANS else None
        hull = name == HULL
        large = name == LARGE

        def traced(*args, **kwargs):
            st.calls += 1
            st.depth += 1
            parent = stack[-1] if stack else None
            span = None
            if spans is not None:
                span = len(spans)
                spans.append([name, clock(), None, self._enclosing_span()])
            frame = [0.0, name, span]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if hull and type(exc).__name__ == "BoundExceeded":
                    self.hull_exceeded.add(args[0])
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                st.depth -= 1
                st.self_time += dt - frame[0]
                if st.depth == 0:
                    st.inclusive += dt
                if parent is not None:
                    parent[0] += dt
                if span is not None:
                    spans[span][2] = clock()
            if large and parent is not None and parent[1] == HULL:
                self.hull_candidates += 1
                if result:
                    self.hull_large += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _enclosing_span(self):
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]
        return None

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Counts and seconds per wrapped function, keyed as in BENCHMARK.json."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_time
            out[f"{name}.s"] = st.inclusive
        out["core.hash_calls"] = self.hash_calls
        out["injectivity.hull.candidates"] = self.hull_candidates
        out["injectivity.hull.large"] = self.hull_large
        out["injectivity.injective_hull.bound_exceeded"] = len(self.hull_exceeded)
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]


def cache_census() -> dict:
    """cache_info() of every lru cache and the size of every module-level
    dict cache, for the process as a whole."""
    out = {}
    for module, attr in LRU_CACHES:
        fn = getattr(sys.modules.get(module), attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        key = f"{short(module)}.{attr}"
        out[key] = (
            {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
            if info else None
        )
    for module, attr in DICT_CACHES:
        cache = getattr(sys.modules.get(module), attr, None)
        out[f"{short(module)}.{attr.lstrip('_')}"] = (
            {"entries": len(cache)} if isinstance(cache, dict) else None
        )
    return out
