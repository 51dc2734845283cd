"""Self-test of the benchmark harness at tiny bounds.

    python3 perfbench/selftest.py

Run from the root of a checkout; exits 0 when every check passes.  It checks
that every metric of BENCHMARK.json is measured with its unit, that the
tracer restores every wrapper, that a traced report is byte-identical to an
untraced one, that a corrupted reference counts as a failure, and the
brute-force congruence oracle against known counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import oracle
import run
import stream
import tracer as tr

TINY = (1, 3, 3, 7)  # monoid_max, act_max, hull_bound, con_bound

failures = []


def check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        failures.append(name)


def snapshot():
    """Every attribute of every radact module and class, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if not name.startswith("radact"):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for k, v in vars(value).items():
                    out[(name, attr, k)] = v
    return out


def check_restore():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import radact.checkers  # noqa: F401
    import radact.cli  # noqa: F401

    before = snapshot()
    t = tr.Tracer()
    t.install()
    patched = sum(1 for k, v in snapshot().items() if before.get(k) is not v)
    check("tracer patches the program", patched >= len(tr.TARGETS),
          f"{patched} attributes patched")
    restored = t.restore()
    after = snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    check("tracer restores every wrapper", restored and not changed,
          f"still patched: {changed[:5]}")


def check_metrics(outcome, trace, what):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    check(f"{what}: every {'per-layer' if trace else 'end-to-end'} metric "
          "is measured", not missing, f"missing {missing}")
    with contextlib.redirect_stdout(io.StringIO()):
        result = run.report(what, 0, trace, outcome)
    units = {m["name"]: m["unit"] for m in declared}
    check(f"{what}: metrics carry their units",
          set(result["metrics"]) == set(units)
          and all(v["unit"] == units[k] for k, v in result["metrics"].items()))
    return result


def runner():
    return run.Runner(time.monotonic() + 300)


def check_verify():
    with runner() as r:
        plain = r.checked("verify", {"bounds": list(TINY), "trace": 0})
        traced = r.checked("verify", {"bounds": list(TINY), "trace": 1})
    check("traced stripped report is byte-identical to the untraced one",
          plain.result["report_digest"] == traced.result["report_digest"])
    check("traced child restores its wrappers", traced.result["restored"])

    expected = {"report_digest": plain.result["report_digest"],
                "entries": plain.result["entries"]}
    verdict = oracle.check_verify(traced.result, expected, TINY[0])
    check("reference run passes", verdict["failed"] == 0
          and not verdict["problems"], str(verdict))
    corrupt = dict(expected, entries=dict(expected["entries"]))
    first = next(iter(corrupt["entries"]))
    corrupt["entries"][first] = "0" * 64
    verdict = oracle.check_verify(traced.result, corrupt, TINY[0])
    check("a corrupted verify reference counts as a failure",
          verdict["failed"] == 1 and verdict["problems"], str(verdict))

    check("the speed probe is stopped with its runner",
          r._probe.poll() is not None)

    reference = {"tiny": expected}
    for trace in (False, True):
        with runner() as r:
            o = run.run_verify(r, "tiny", TINY, 0, trace, reference)
        result = check_metrics(o, trace, f"verify trace={int(trace)}")
        check(f"verify trace={int(trace)} is correct",
              result["correct"] and result["failed"] == 0, str(o.problems))


def check_cli():
    reference = oracle.load("cli.json")
    for trace in (False, True):
        with runner() as r:
            o = run.run_cli(r, 1, 0, trace, reference, min_commands=3)
        result = check_metrics(o, trace, f"cli trace={int(trace)}")
        check(f"cli trace={int(trace)} is correct",
              result["correct"] and result["attempted"] >= 3, str(o.problems))
    corrupt = {k: [v[0], "0" * 16] for k, v in reference.items()}
    with runner() as r:
        o = run.run_cli(r, 1, 0, False, corrupt, min_commands=3)
    check("a corrupted cli reference counts as a failure",
          o.failed >= 1 and o.problems, f"{o.failed} of {o.attempted} failed")

    cmd = stream.Command("closure X members 9 (out of range)", ("closure",),
                         malformed=True)
    check("a malformed command rejected with exit 1 and a traceback counts as "
          "rejected, not README-conforming",
          stream.check(cmd, 1, "", "Traceback\n  ...\nIndexError\n", {})
          == (True, False))
    check("a malformed command that prints a result is a failure",
          stream.check(cmd, 0, "0 1\n", "", {})[0] is False)


def check_oracle():
    bell = [sum(1 for _ in oracle.set_partitions(n)) for n in range(1, 6)]
    check("set partitions follow the Bell numbers", bell == [1, 2, 5, 15, 52])
    identity_only = [[0, 1, 2]]  # trivial monoid: every partition is one
    check("brute-force congruences of a 3-point set",
          len(oracle.congruence_lines(identity_only)) == 5)
    check("A058129 starts 1, 2, 7", oracle.A058129[:3] == (1, 2, 7))


def main() -> int:
    check_oracle()
    check_restore()
    check_verify()
    check_cli()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
