"""radact benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every operation runs in a fresh process,
one at a time (a closed loop with one client), with ``src`` on PYTHONPATH.
The last line of stdout is the JSON result; the lines before it print every
metric by name and unit.  With ``--trace 0`` the metrics are the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics, taken
from a traced process next to an untraced one.  Times are scaled to a fixed
CPU speed measured by ``probe.py`` while each operation runs; the unscaled
medians are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

import oracle
import stream

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(HERE, "out")
CATALOG = os.path.relpath(os.path.join(OUT, "catalog"), ROOT)

DEFAULT_BOUNDS = (3, 4, 6, 7)  # monoid_max, act_max, hull_bound, con_bound

# name -> bounds of the universe a cold verify_all runs over; None: cli-mix
WORKLOADS = {
    "verify-default": DEFAULT_BOUNDS,
    "verify-small": (2, 4, 6, 7),
    "cli-mix": None,
}

SETUP_RUNS = 9  # fresh processes timing import + universe build
MIN_COMMANDS = 20  # a cli-mix run runs at least this many commands
TIME_LIMIT = 170.0  # seconds; a run must end within 180
# About the probe's mean time while an operation runs, on the machine the
# benchmark was written on.  Times are reported as if every operation had
# run at that speed, so there they read close to wall times.
REFERENCE_PROBE_S = 0.00087
CHECKER_IDS = ("L2.11", "L5.1", "L5.3", "D2.1", "T4.2", "T4.4", "T4.6",
               "D4.1", "C4.7")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# fresh processes


class Proc:
    """A finished child: exit code, output, wall seconds, rusage, and the
    monotonic interval it ran in."""

    def __init__(self, code, stdout, stderr, start, end, rusage, result):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.start = start
        self.end = end
        self.wall = end - start
        self.maxrss_mb = rusage.ru_maxrss / 1024
        self.result = result


class Runner:
    """Runs children one at a time on one CPU, next to a speed probe."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        os.makedirs(OUT, exist_ok=True)
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})  # children inherit it
        self._probe_out = os.path.join(OUT, f"probe-{os.getpid()}.txt")
        self._probe = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), self._probe_out,
             str(cpu)], stdin=subprocess.DEVNULL)
        self._samples = None
        self._paths = [os.path.join(OUT, f"child-{os.getpid()}.{x}")
                       for x in ("out", "err", "json")]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop_probe()
        for path in self._paths:
            if os.path.exists(path):
                os.remove(path)

    def stop_probe(self):
        if self._samples is not None:
            return
        self._probe.terminate()
        self._probe.wait()
        with open(self._probe_out) as fh:
            self._samples = [tuple(map(float, ln.split())) for ln in fh]
        os.remove(self._probe_out)
        if not self._samples:
            raise BenchError("the speed probe recorded nothing")

    def scale(self, p: Proc) -> float:
        """REFERENCE_PROBE_S over the probe's mean time while p ran: the
        factor that turns p's times into times at the reference speed."""
        inside = [d for t, d in self._samples if p.start <= t <= p.end]
        if not inside:
            nearest = min(self._samples, key=lambda s: abs(s[0] - p.end))
            inside = [nearest[1]]
        return REFERENCE_PROBE_S / statistics.fmean(inside)

    def child(self, mode: str, spec: dict, argv=()) -> Proc:
        """Run perfbench/child.py in a fresh process and wait for it; the
        wall time runs from spawn to reaping."""
        paths = self._paths
        if os.path.exists(paths[2]):
            os.remove(paths[2])
        cmd = [sys.executable, os.path.join(HERE, "child.py"), paths[2], mode,
               json.dumps(spec), *argv]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        with open(paths[0], "w+b") as out, open(paths[1], "w+b") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, rusage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                proc.returncode = -1
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        if end >= self.deadline:
            raise BenchError("a child process ran past the time limit")
        result = None
        if os.path.exists(paths[2]):
            with open(paths[2]) as fh:
                result = json.load(fh)
        return Proc(proc.returncode, stdout, stderr, start, end, rusage, result)

    def checked(self, mode, spec, argv=()) -> Proc:
        p = self.child(mode, spec, argv)
        if p.code != 0 or p.result is None:
            raise BenchError(f"{mode} child failed with {p.code}: {p.stderr[-2000:]}")
        return p

    def setups(self, bounds) -> list[Proc]:
        spec = {"bounds": list(bounds)}
        return [self.checked("setup", spec) for _ in range(SETUP_RUNS)]


def end_to_end(runner, setups, ops) -> tuple[dict, str]:
    """The end-to-end metrics at the reference speed, and a note with the
    unscaled medians."""
    runner.stop_probe()

    def med(key, procs, scaled=True):
        return statistics.median(
            key(p) * (runner.scale(p) if scaled else 1.0) for p in procs)

    metrics = {
        "setup_s": med(lambda p: p.result["setup_s"], setups),
        "run_s": med(lambda p: p.result["run_s"], ops),
        "cpu_s": med(lambda p: p.result["cpu_s"], ops),
        "peak_rss_mb": med(lambda p: p.maxrss_mb, ops, scaled=False),
        "cmd_p50_ms": med(lambda p: 1000 * p.wall, ops),
    }
    note = (
        "unscaled medians: "
        f"setup_s {med(lambda p: p.result['setup_s'], setups, False):.6g} s, "
        f"run_s {med(lambda p: p.result['run_s'], ops, False):.6g} s, "
        f"cpu_s {med(lambda p: p.result['cpu_s'], ops, False):.6g} s, "
        f"cmd_p50_ms {med(lambda p: 1000 * p.wall, ops, False):.6g} ms; "
        f"median speed factor {med(lambda p: 1.0, ops):.4f}"
    )
    return metrics, note


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []
        self.trace: dict = {}


# ---------------------------------------------------------------------------
# verify workloads


def run_verify(runner, name, bounds, seconds, trace, reference) -> Outcome:
    o = Outcome()
    expected = reference[name]

    def verify(traced):
        p = runner.checked("verify", {"bounds": list(bounds), "trace": traced})
        verdict = oracle.check_verify(p.result, expected, bounds[0])
        o.attempted += verdict["attempted"]
        o.failed += verdict["failed"]
        o.problems += verdict["problems"]
        return p

    if trace:
        plain, traced = verify(0), verify(1)
        runner.stop_probe()
        if traced.result["report_digest"] != plain.result["report_digest"]:
            o.problems.append("traced report differs from the untraced one")
        o.metrics = layer_metrics(
            traced.result["layers"], traced.result["census"],
            universe_s=plain.result["universe_s"],
            timings_ms=plain.result["timings_ms"],
            instances=plain.result["instances_checked"],
            overhead=(traced.result["run_s"] * runner.scale(traced))
            / (plain.result["run_s"] * runner.scale(plain)),
        )
        o.trace = {"spans": traced.result["spans"],
                   "census": traced.result["census"],
                   "layers": traced.result["layers"]}
        return o

    setups = runner.setups(bounds)
    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        runs.append(verify(0))
    o.metrics, note = end_to_end(runner, setups, runs)
    o.notes.append(f"operations: {len(runs)} cold verify_all runs, "
                   f"{SETUP_RUNS} set-ups")
    o.notes.append(note)
    return o


# ---------------------------------------------------------------------------
# cli-mix


def run_cli(runner, seed, seconds, trace, reference,
            min_commands=MIN_COMMANDS) -> Outcome:
    o = Outcome()
    universe = stream.Universe()
    universe.write_catalog(os.path.join(ROOT, CATALOG))
    rng = random.Random(seed)
    malformed = conform = 0

    def command(cmd, traced):
        nonlocal malformed, conform
        p = runner.child("cli", {"trace": traced}, cmd.argv)
        if p.result is None:
            raise BenchError(f"no timing from {cmd.key}: {p.stderr[-2000:]}")
        ok, readme = stream.check(cmd, p.code, p.stdout, p.stderr,
                                  reference)
        o.attempted += 1
        if not ok:
            o.failed += 1
            o.problems.append(f"{cmd.key}: exit {p.code}, output differs")
        if cmd.malformed and not traced:
            malformed += 1
            conform += readme
        return p

    setups = [] if trace else runner.setups(DEFAULT_BOUNDS)
    pairs = []
    start = time.monotonic()
    while len(pairs) < min_commands or time.monotonic() - start < seconds:
        cmd = stream.draw(rng, universe, CATALOG)
        plain = command(cmd, 0)
        pairs.append((plain, command(cmd, 1) if trace else None))

    runner.stop_probe()
    if trace:
        traced = [t for _, t in pairs]
        for p in traced:
            if not p.result["restored"]:
                o.problems.append("tracer left a wrapper in place")
        o.metrics = layer_metrics(
            sum_layers(p.result["layers"] for p in traced),
            sum_census([p.result["census"] for p in traced]),
            universe_s=statistics.median(
                [p.result["layers"]["cli._universe.s"] for p in traced
                 if p.result["layers"].get("cli._universe.calls")] or [0.0]),
            timings_ms={}, instances=0,
            overhead=statistics.median(
                p.result["run_s"] * runner.scale(p) for p in traced)
            / statistics.median(
                p.result["run_s"] * runner.scale(p) for p, _ in pairs),
            exit2_ratio=conform / malformed if malformed else 0.0,
        )
        o.trace = {"layers": o.metrics}
    else:
        o.metrics, note = end_to_end(runner, setups, [p for p, _ in pairs])
        o.notes.append(note)
    o.notes.append(f"operations: {len(pairs)} commands, {malformed} malformed, "
                   f"{conform} of them rejected with exit 2 as the README says")
    return o


def sum_layers(dicts) -> dict:
    total: dict[str, float] = {}
    for d in dicts:
        for k, v in d.items():
            if k.endswith(".entries"):
                total[k] = max(total.get(k, 0), v)
            else:
                total[k] = total.get(k, 0) + v
    return total


def sum_census(censuses) -> dict:
    total: dict[str, dict | None] = {}
    for census in censuses:
        for k, v in census.items():
            if v is None:
                total.setdefault(k, None)
                continue
            acc = total.get(k) or {}
            for field, n in v.items():
                acc[field] = (max(acc.get(field, 0), n) if field == "entries"
                              else acc.get(field, 0) + n)
            total[k] = acc
    return total


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(layers, census, *, universe_s, timings_ms, instances,
                  overhead, exit2_ratio=0.0) -> dict:
    """Map tracer counters and the cache census onto the per-layer names."""
    out = {}
    for key, value in layers.items():
        out[key.replace("universe.Universe.", "universe.")] = value
    out["injectivity.hull.large_ratio"] = (
        layers["injectivity.hull.large"] / layers["injectivity.hull.candidates"]
        if layers.get("injectivity.hull.candidates") else 0.0
    )
    for key, info in census.items():
        info = info or {}
        out[f"{key}.entries"] = info.get("entries", 0)
        seen = info.get("hits", 0) + info.get("misses", 0)
        out[f"{key}.hit_ratio"] = info["hits"] / seen if seen else 0.0
    for cid in CHECKER_IDS:
        out[f"verifier.checker.{cid}.s"] = timings_ms.get(cid, 0.0) / 1000
    out["verifier.instances_checked"] = instances
    out["cli.universe_s"] = universe_s
    out["cli.malformed.exit2_ratio"] = exit2_ratio
    out["trace.overhead_ratio"] = overhead
    return out


# ---------------------------------------------------------------------------
# entry point


def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def run_workload(name, seed, seconds, trace) -> Outcome:
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; one of {sorted(WORKLOADS)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "radact", "__init__.py")):
        raise BenchError("no radact sources under ./src; run from a checkout")
    # compile once, so that no timed process pays for byte-compiling
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                   cwd=ROOT, check=True)
    with Runner(time.monotonic() + TIME_LIMIT) as runner:
        if WORKLOADS[name] is None:
            return run_cli(runner, seed, seconds, trace,
                           oracle.load("cli.json"))
        return run_verify(runner, name, WORKLOADS[name], seconds, trace,
                          oracle.load("verify.json"))


def report(name, seed, trace, o: Outcome) -> dict:
    metrics = {}
    for m in declared_metrics(trace):
        if m["name"] not in o.metrics:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": o.metrics[m["name"]], "unit": m["unit"]}
    for line in o.notes:
        print(f"# {name} seed={seed}: {line}")
    for problem in o.problems[:20]:
        print(f"# problem: {problem}")
    ratio = o.failed / o.attempted
    print(f"failed_ratio {o.failed}/{o.attempted} = {ratio:.4f}")
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    return {"correct": not o.problems, "attempted": o.attempted,
            "failed": o.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated runner unwinds, so the child it waits for is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
        result = report(args.workload, args.seed, bool(args.trace), outcome)
    except (BenchError, OSError, subprocess.CalledProcessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if outcome.trace:
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(outcome.trace, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
