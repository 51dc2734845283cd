"""Deterministic operation counts of a cold ``verify_all``: where the work
of a run goes, read without a clock, so two versions of the code can be
compared on a busy machine.

Run from the repository root::

    PYTHONPATH=src python tests/opcounts.py
    PYTHONPATH=src python tests/opcounts.py --monoid-max 2

The universe is built first and not counted.  Then ``verify_all`` runs once
in this fresh process under cProfile and a trace hook, and the script prints:

* total calls: the sum of cProfile's call counts over every code object
  it saw, which counts every resume of a generator.  The sum is read off
  the raw entries, one per code object: ``pstats`` keys its entries by
  (file, line, name), under which distinct code objects can meet (the
  dataclass ``__init__``s compiled from ``<string>``, two generator
  expressions on one line) and all but one of them be dropped;
* propagation steps: the points that ``core._hom_search``'s ``try_assign``
  examines, that is the runs of its line ``cur = f[x]``;
* one count per function of ``FUNCTIONS``: the runs of its body, so a
  generator counts once however often it yields, and a function memoised
  with ``memo_on`` counts its misses only.  A grouped law's decider counts
  every group it decides and every expanded instance, since the derived
  per-instance predicate calls it on one tail.

"isomorphism searches" counts the runs of ``core.find_isomorphism``.

"limit acts built" counts the limits of direct limits, through
``injectivity.direct_limit`` (with legs) or ``checkers._limit_act``'s
misses (L5.3, the limit alone).

Then it takes a census of what the run left in memory: the
``Universe.memo`` entries of each ``memo_on`` function (read off the first
item of each key) and the values interned there, by type; each radical's
congruence table (``_of``), its closure dicts (``_closures``, acts and
masks) and its ``memo``; ``cache_info()`` of each process-wide
``lru_cache`` (``test_hygiene.PROCESS_CACHED``); the ``ActHom`` objects
still alive, against the distinct map tuples among them; and the hom sets
that ``core.all_homs`` holds, the maps held in them, and the map tuple
objects and distinct maps among those.  The hom sets are read off the
``all_homs`` cache as sequences of ``ActHom``, so the census reads the
same way whatever type a hom set is.

Tracing makes the run several times slower; the counts do not depend on
it.  pytest does not collect this file.
"""

import argparse
import cProfile
import gc
import importlib
import inspect
import sys
from collections import Counter

from radact import checkers, congruence, core, injectivity, radical, verifier
from radact.congruence import ACT_MAX_DEFAULT, MONOID_MAX_DEFAULT
from radact.universe import default_universe
from test_hygiene import PROCESS_CACHED

FUNCTIONS = (
    ("Radical.of calls", radical.Radical.of),
    ("quotient builds", congruence.quotient),
    ("pushouts built", injectivity._pushout_act),
    ("embedding walks", checkers._embeddings),
    ("isomorphism searches", core.find_isomorphism),
    ("AX-H1 decider calls", checkers._holds_h1_all),
    ("D2.1 decider calls", checkers._holds_d21_all),
    ("L5.1 decider calls", checkers._holds_l51_all),
    ("limit acts built", injectivity.direct_limit),
    ("limit acts built", checkers._limit_act),
    ("largeness tests", injectivity.is_large),
)

STEP_LINE = "cur = f[x]"


def _step_site():
    """The code object of ``try_assign`` and the line number of its step."""
    search = core._hom_search
    [code] = [c for c in search.__code__.co_consts
              if inspect.iscode(c) and c.co_name == "try_assign"]
    lines, first = inspect.getsourcelines(search)
    [offset] = [i for i, line in enumerate(lines)
                if line.strip() == STEP_LINE]
    return code, first + offset


def count_run(universe) -> dict:
    """The counts of one ``verify_all`` over the universe."""
    step_code, step_line = _step_site()
    codes = {inspect.unwrap(fn).__code__: label for label, fn in FUNCTIONS}
    counts = dict.fromkeys(["propagation steps", *codes.values()], 0)
    started = set()

    def in_try_assign(frame, event, arg):
        if event == "line" and frame.f_lineno == step_line:
            counts["propagation steps"] += 1
        return in_try_assign

    def on_call(frame, event, arg):
        code = frame.f_code
        if code is step_code:
            return in_try_assign
        label = codes.get(code)
        if label is not None:
            # a generator's frame comes back here on every resume
            if code.co_flags & inspect.CO_GENERATOR:
                if frame in started:
                    return None
                started.add(frame)
            counts[label] += 1
        return None

    profile = cProfile.Profile()
    sys.settrace(on_call)
    profile.enable()
    try:
        doc = verifier.verify_all(universe)
    finally:
        profile.disable()
        sys.settrace(None)
    total = sum(entry.callcount for entry in profile.getstats())
    return {"total calls": total, **counts,
            "violated": doc["summary"]["violated"]}


def memo_census(universe) -> dict:
    """What a run left in memory, as (section, label) -> entries."""
    out = Counter({("Universe.memo", "total"): len(universe.memo)})
    for key in universe.memo:
        if isinstance(key, tuple) and callable(key[0]):
            out["Universe.memo", key[0].__qualname__] += 1
        else:
            out["Universe.memo", f"interned {type(key).__name__}"] += 1
    for r in universe.radicals:
        out["radicals", f"{r.name} _of"] = len(r._of)
        out["radicals", f"{r.name} _closures acts"] = len(r._closures)
        out["radicals", f"{r.name} _closures masks"] = sum(
            map(len, r._closures.values()))
        out["radicals", f"{r.name} memo"] = len(r.memo)
    for name in PROCESS_CACHED:
        module, _, fn = name.partition(".")
        info = getattr(importlib.import_module(f"radact.{module}"),
                       fn).cache_info()
        out["lru_cache", f"{name} hits"] = info.hits
        out["lru_cache", f"{name} misses"] = info.misses
        out["lru_cache", f"{name} entries"] = info.currsize
    homs = [x for x in gc.get_objects() if x.__class__ is core.ActHom]
    out["objects", "live ActHom"] = len(homs)
    out["objects", "distinct ActHom maps"] = len({h.map for h in homs})
    del homs
    held = [h.map for homs in _cached_values(core.all_homs) for h in homs]
    out["objects", "hom sets held"] = core.all_homs.cache_info().currsize
    out["objects", "maps held in hom sets"] = len(held)
    out["objects", "map tuple objects in hom sets"] = len(set(map(id, held)))
    out["objects", "distinct maps in hom sets"] = len(set(held))
    return out


def _cached_values(fn) -> list:
    """The results held by an unbounded ``lru_cache``: CPython's wrapper
    reports its cache dict, besides its own ``__dict__``, to the garbage
    collector."""
    [cache] = [x for x in gc.get_referents(fn)
               if isinstance(x, dict) and x is not fn.__dict__]
    return list(cache.values())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--monoid-max", type=int, default=MONOID_MAX_DEFAULT)
    ap.add_argument("--act-max", type=int, default=ACT_MAX_DEFAULT)
    args = ap.parse_args()
    u = default_universe(monoid_max=args.monoid_max, act_max=args.act_max)
    for label, value in count_run(u).items():
        print(f"{label:<30} {value:>12,}")
    section = None
    for (where, label), value in sorted(memo_census(u).items()):
        if where != section:
            section = where
            print(f"# {where}")
        print(f"{label:<44} {value:>12,}")


if __name__ == "__main__":
    main()
