"""One fresh process of the benchmark: a universe set-up, a cold verify_all,
or one radact command.

    python3 perfbench/child.py OUT setup  '{"bounds": [3, 4, 6, 7]}'
    python3 perfbench/child.py OUT verify '{"bounds": [...], "trace": 0}'
    python3 perfbench/child.py OUT cli    '{"trace": 0}' ARGV...

The result is one JSON object written to the file OUT, so that stdout and
stderr stay the program's own.  Run from the root of a checkout with
``src`` on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

import tracer as tr


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _universe(bounds):
    from radact.universe import default_universe

    mm, am, hb, cb = bounds
    return default_universe(monoid_max=mm, act_max=am, hull_bound=hb,
                            con_bound=cb)


def setup(spec) -> dict:
    t0 = time.perf_counter()
    _universe(spec["bounds"])
    return {"setup_s": time.perf_counter() - t0}


def _install(tracer):
    # every namespace that can hold a wrapped function must exist first
    import radact.checkers  # noqa: F401
    import radact.cli  # noqa: F401

    tracer.install()


def verify(spec) -> dict:
    tracer = tr.Tracer() if spec["trace"] else None
    t0 = time.perf_counter()
    import radact.universe  # noqa: F401

    if tracer:
        _install(tracer)
    t_import = time.perf_counter()
    u = _universe(spec["bounds"])
    t1 = time.perf_counter()
    from radact.verifier import strip_volatile, to_json, verify_all

    c0 = time.process_time()
    t2 = time.perf_counter()
    doc = verify_all(u)
    t3 = time.perf_counter()
    c1 = time.process_time()
    out = {
        "setup_s": t1 - t0,
        "universe_s": t1 - t_import,
        "run_s": t3 - t2,
        "cpu_s": c1 - c0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["restored"] = tracer.restore()
        out["layers"] = tracer.layer_metrics()
        out["spans"] = tracer.span_records()
        out["census"] = tr.cache_census()
    out["report_digest"] = digest(to_json(strip_volatile(doc)))
    out["entries"] = {
        e["theorem_id"]: digest(json.dumps(e, sort_keys=True))
        for e in doc["axioms"] + doc["results"]
    }
    out["summary"] = doc["summary"]
    out["timings_ms"] = doc["timings_ms"]
    out["instances_checked"] = sum(
        e["instances_checked"] for e in doc["axioms"] + doc["results"]
    )
    sizes = [m.size for m in u.monoids]
    out["monoids_by_order"] = [sizes.count(n) for n in range(1, max(sizes) + 1)]
    return out


def cli(spec, argv, path):
    """Run one command exactly as ``python -m radact.cli`` would, timing the
    import and the command around it."""
    tracer = tr.Tracer() if spec["trace"] else None
    t0 = time.perf_counter()
    from radact import cli as program

    if tracer:
        _install(tracer)
    t1 = time.perf_counter()
    c0 = time.process_time()
    code = None
    try:
        code = program.run(argv)
    finally:
        t2 = time.perf_counter()
        out = {"import_s": t1 - t0, "run_s": t2 - t1,
               "cpu_s": time.process_time() - c0}
        if tracer:
            out["restored"] = tracer.restore()
            out["layers"] = tracer.layer_metrics()
            out["census"] = tr.cache_census()
        sys.stdout.flush()
        _emit(path, out)
    sys.exit(code)


def _emit(path, result):
    with open(path, "w") as fh:
        json.dump(result, fh)


def main():
    path, mode, spec = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    if mode == "cli":
        cli(spec, sys.argv[4:], path)
    elif mode == "setup":
        _emit(path, setup(spec))
    elif mode == "verify":
        _emit(path, verify(spec))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
