"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py [universe|verify|cli ...]

Run from the root of a checkout, and only when a change is meant to alter
the program's outputs: the references say what correct output is.

* ``universe.json``: the default universe's monoids and acts (the seed
  catalog cli-mix writes).
* ``verify.json``: per verify workload, the digest of the stripped report
  and of each checker entry, from a cold run in a fresh process.
* ``cli.json``: for every well-formed cli-mix command, its exit code and a
  digest of its stdout, computed in one process through ``radact.cli.run``
  with the universe built once per set of bounds.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time

import oracle
import run
import stream


def _dump(name, doc, flat=False):
    """Write doc with one line per top-level entry (flat), or per entry of
    each top-level list or object, so that diffs stay readable."""
    lines = [f"{json.dumps(k)}: {json.dumps(v) if flat else _block(v)}"
             for k, v in sorted(doc.items())]
    with open(os.path.join(oracle.REFERENCE, name), "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def _block(value) -> str:
    if isinstance(value, list):
        items, ends = [json.dumps(v, sort_keys=True) for v in value], "[]"
    else:
        items = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                 for k, v in sorted(value.items())]
        ends = "{}"
    return ends[0] + "\n " + ",\n ".join(items) + "\n" + ends[1]


def make_universe():
    from radact.universe import default_universe

    u = default_universe()
    _dump("universe.json", {
        "monoids": [
            {"name": m.name, "identity": m.identity,
             "table": [list(r) for r in m.mul]}
            for m in u.monoids
        ],
        "acts": [
            {"name": a.name, "monoid": a.monoid.name,
             "action": [list(r) for r in a.action]}
            for a in u.acts
        ],
    })


def make_verify():
    doc = {}
    with run.Runner(time.monotonic() + 600) as runner:
        for name, bounds in run.WORKLOADS.items():
            if bounds is None:
                continue
            p = runner.checked("verify", {"bounds": list(bounds), "trace": 0})
            doc[name] = {"bounds": list(bounds),
                         "report_digest": p.result["report_digest"],
                         "entries": p.result["entries"]}
    _dump("verify.json", doc)


def make_cli():
    from radact import cli

    universes = {}
    build = cli._universe

    def shared_universe(args):
        key = (args.monoid_max, args.act_max, args.hull_bound, args.con_bound)
        if key not in universes:
            universes[key] = build(args)
        return universes[key]

    cli._universe = shared_universe
    universe = stream.Universe()
    universe.write_catalog(run.CATALOG)
    doc = {}
    for cmd in stream.all_commands(universe, run.CATALOG):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(list(cmd.argv), out=out, err=err)
        doc[cmd.key] = [code, oracle.short_digest(out.getvalue())]
    _dump("cli.json", doc, flat=True)


def main():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    jobs = {"universe": make_universe, "verify": make_verify, "cli": make_cli}
    for name in sys.argv[1:] or list(jobs):
        jobs[name]()


if __name__ == "__main__":
    main()
