"""Instance digests: one sha256 per checker over the instances its
enumerator yields, so that a refactor can show that it decides the same
instances, not only that it reports the same counts.

Each instance is written as one line: its kind ("inst", "filtered" or
"skip") and ``verifier.encode_parts`` of its parts, with every ``name``
field dropped, so acts and monoids are encoded by their tables and a
change that only moves names leaves the digests as they are.  Radicals keep
their names, which identify them.  A ("group", (head, tails)) item is read
as the "inst" instances of ``verifier.group_instances`` in order (``head +
(t,)`` for each tail, map by map when the head ends in a hom set), so a law
that moves to groups keeps its digest.  The enumerator is read directly:
``Checker.run`` counts a group that ``holds_all`` settles without
expanding it, and the report would hide its instances.

``checker_digests(checker, universe)`` gives two hex digests: over the
lines in enumeration order, and over the sorted lines (the multiset, which
a run split into shards could compare).  ``instance_digests(universe)``
maps each registered checker id to its two.

Run as a script to print the digests at given bounds::

    PYTHONPATH=src python tests/digests.py --monoid-max 2
"""

import argparse
import hashlib
import json

from radact import verifier
from radact.congruence import ACT_MAX_DEFAULT, MONOID_MAX_DEFAULT


def _unnamed(obj):
    if isinstance(obj, dict):
        return {k: _unnamed(v) for k, v in obj.items() if k != "name"}
    if isinstance(obj, list):
        return [_unnamed(v) for v in obj]
    return obj


def instance_lines(checker, universe):
    """The encoded instances of one checker, in enumeration order."""
    encoded = {}

    def encode(part):
        # parts are values, so equal parts (names aside) share one encoding;
        # the type keeps True apart from 1
        key = (type(part), part)
        got = encoded.get(key)
        if got is None:
            got = encoded[key] = json.dumps(
                _unnamed(verifier.encode_part(part)),
                sort_keys=True, separators=(",", ":"))
        return got

    for kind, parts in checker.enumerate(universe):
        if kind == "group":
            expanded = [("inst", p)
                        for p in verifier.group_instances(*parts)]
        else:
            expanded = [(kind, parts)]
        for k, p in expanded:
            yield f'["{k}",[{",".join(map(encode, p))}]]'


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def checker_digests(checker, universe) -> tuple[str, str]:
    """The (ordered, multiset) digests of one checker's instances."""
    lines = list(instance_lines(checker, universe))
    return _sha(lines), _sha(sorted(lines))


def instance_digests(universe, ids=None) -> dict:
    """checker id -> (ordered digest, multiset digest), for every registered
    checker or for those named in ``ids``."""
    verifier._ensure_registered()
    checkers = {**verifier.AXIOMS, **verifier.THEOREMS}
    return {cid: checker_digests(checkers[cid], universe)
            for cid in ids or checkers}


def main():
    from radact.universe import default_universe

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--monoid-max", type=int, default=MONOID_MAX_DEFAULT)
    ap.add_argument("--act-max", type=int, default=ACT_MAX_DEFAULT)
    args = ap.parse_args()
    u = default_universe(monoid_max=args.monoid_max, act_max=args.act_max)
    for cid, (ordered, multiset) in instance_digests(u).items():
        print(f"{cid:<6} {ordered} {multiset}")


if __name__ == "__main__":
    main()
