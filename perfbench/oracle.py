"""Independent checks on the program's outputs, written without radact.

* Monoid counts per order against OEIS A058129, the number of monoids of
  order n up to isomorphism: 1, 2, 7, 35.
* The congruences of an act, by brute force over every set partition of its
  carrier, printed the way ``radact congruences`` prints them.
* Reference digests of the verification reports and of the command outputs,
  recorded from the seed commit by ``make_reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")

A058129 = (1, 2, 7, 35)  # monoids of order 1..4 up to isomorphism

CHECKERS = 53  # axioms plus theorems in a full report


def load(name: str):
    with open(os.path.join(REFERENCE, name)) as fh:
        return json.load(fh)


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def set_partitions(n: int):
    """Restricted growth strings of length n, in lexicographic order: each is
    a partition's block index per element, blocks numbered by first use."""
    if n == 0:
        yield ()
        return
    out = [0] * n

    def rec(i, blocks):
        if i == n:
            yield tuple(out)
            return
        for b in range(blocks + 1):
            out[i] = b
            yield from rec(i + 1, max(blocks, b + 1))

    yield from rec(1, 1)


def is_compatible(action, index) -> bool:
    n = len(index)
    for row in action:
        for a in range(n):
            for b in range(a + 1, n):
                if index[a] == index[b] and index[row[a]] != index[row[b]]:
                    return False
    return True


def format_partition(index) -> str:
    blocks: dict[int, list[int]] = {}
    for a, b in enumerate(index):
        blocks.setdefault(b, []).append(a)
    return " | ".join(
        " ".join(str(a) for a in blocks[b]) for b in sorted(blocks)
    )


def congruence_lines(action) -> list[str]:
    """Every congruence of the act with this action table, one line each, in
    the order of their block-index vectors."""
    n = len(action[0])
    return [
        format_partition(idx) for idx in set_partitions(n)
        if is_compatible(action, idx)
    ]


def check_verify(result: dict, expected: dict, monoid_max: int) -> dict:
    """Compare one verification result with its reference.  Each checker
    entry is one operation; an entry whose digest differs, or is missing,
    fails."""
    ref_entries = expected["entries"]
    got = result["entries"]
    failed = sum(1 for cid, d in ref_entries.items() if got.get(cid) != d)
    failed += sum(1 for cid in got if cid not in ref_entries)
    problems = []
    if failed:
        problems.append(f"{failed} checker entries differ from the reference")
    if result["report_digest"] != expected["report_digest"]:
        problems.append("stripped report differs from the reference")
    summary = result["summary"]
    if (summary["verified"], summary["violated"]) != (CHECKERS, 0):
        problems.append(f"summary {summary} is not {CHECKERS} verified")
    if result["monoids_by_order"] != list(A058129[:monoid_max]):
        problems.append(
            f"monoids per order {result['monoids_by_order']} differ from "
            f"A058129 {list(A058129[:monoid_max])}"
        )
    if result.get("restored") is False:
        problems.append("tracer left a wrapper in place")
    return {"attempted": len(ref_entries), "failed": failed,
            "problems": problems}
