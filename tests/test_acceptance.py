"""Acceptance gate: every criterion runs at its stated tolerance over the
default universe (monoids to order 3, acts to size 4, hull bound 6, radicals
delta/nabla/rG/t_LrG) and prints one PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from radact import verifier
from radact.cli import run as cli_run
from radact.core import subact_masks
from radact.radical import density_equivalent, is_r_dense
from radact.universe import default_universe

ROOT = Path(__file__).resolve().parent.parent


def report(criterion, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def U():
    return default_universe()


def _run(U, cid):
    rep = verifier.verify(cid, U)
    return rep


def test_criterion_1_axiom_suites(U):
    t0 = time.perf_counter()
    reports = [_run(U, cid) for cid in ("AX-H1", "AX-H2", "D2.1")]
    elapsed = time.perf_counter() - t0
    ok = all(r.status == "verified" for r in reports) and elapsed < 60.0
    detail = (
        f"functoriality+factor-diagonal+closure laws over "
        f"{sum(r.instances_checked for r in reports)} instances, "
        f"{elapsed:.1f}s"
    )
    report("criterion-1 axiom suites", ok, detail)


def test_criterion_2_radical_quotient_commutation(U):
    rep = _run(U, "L1.2")
    ok = rep.status == "verified" and rep.instances_checked > 0
    report(
        "criterion-2 radical/quotient commutation sweep",
        ok,
        f"{rep.instances_checked} instances, zero violations",
    )


def test_criterion_3_weak_heredity_biconditional(U):
    rep = _run(U, "T2.8")
    ok = rep.status == "verified" and rep.instances_checked == len(U.radicals)
    report(
        "criterion-3 weak heredity of closure vs radical",
        ok,
        f"both sides evaluated independently for {rep.instances_checked} radicals",
    )


def test_criterion_4_density_coincidence(U):
    checked = 0
    mismatches = 0
    for r in U.radicals:
        for act in U.acts:
            for mask in subact_masks(act):
                checked += 1
                if is_r_dense(r, act, mask) != density_equivalent(
                    r, act, mask
                ):
                    mismatches += 1
    report(
        "criterion-4 density coincidence",
        mismatches == 0,
        f"{checked} (radical, act, subact) triples, exact agreement",
    )


def test_criterion_5_constructive_lemmas(U):
    reports = {cid: _run(U, cid) for cid in ("L5.1", "T3.10", "T5.5")}
    ok = all(r.status == "verified" for r in reports.values())
    detail = ", ".join(
        f"{cid}:{r.instances_checked}" for cid, r in reports.items()
    )
    report("criterion-5 pushout/reduction/limit constructions", ok, detail)


def test_criterion_6_baer_equivalences(U):
    t62 = _run(U, "T6.2")
    c63 = _run(U, "C6.3")
    c79 = _run(U, "C7.9")
    ok = all(r.status == "verified" for r in (t62, c63, c79))
    detail = (
        f"criterion-vs-universe agreement on {t62.instances_checked} acts "
        f"with zeros ({t62.hypothesis_filtered} zero-free instances outside "
        f"the criterion's hypothesis), large-cyclic vs full criterion on "
        f"{c79.instances_checked} acts"
    )
    report("criterion-6 Baer equivalences", ok, detail)


def test_criterion_7_headline_equivalence(U):
    t0 = time.perf_counter()
    rep = _run(U, "T7.8")
    elapsed = time.perf_counter() - t0
    ok = (
        rep.status == "verified"
        and rep.instances_checked == len(U.acts)
        and elapsed < 120.0
    )
    report(
        "criterion-7 relative injectivity equals plain injectivity",
        ok,
        f"{rep.instances_checked} acts, {elapsed:.1f}s",
    )


def test_criterion_8_hull_closure(U):
    rep = _run(U, "P7.1")
    ok = rep.status == "verified" and rep.instances_checked > 0
    report(
        "criterion-8 hull closure is the minimal injective extension",
        ok,
        f"{rep.instances_checked} verified, "
        f"{rep.instances_skipped} skipped beyond the hull bound",
    )


def test_criterion_9_sixway_equivalence(U):
    rep = _run(U, "T7.3")
    ok = rep.status == "verified" and rep.instances_checked == len(U.radicals)
    report(
        "criterion-9 six-way heredity equivalence",
        ok,
        f"all {rep.instances_checked} Kurosh-Amitsur radicals",
    )


MUTANT_FILES = {
    "T1.monoid": "monoid T1\nelements 1\nidentity 0\ntable\n0\n",
    "S1.act": "act S1 over T1\nelements 1\naction\n0\n",
    "S2.act": "act S2 over T1\nelements 2\naction\n0 1\n",
    "S3.act": "act S3 over T1\nelements 3\naction\n0 1 2\n",
    # the factor of S3 by its table value is a two-point act whose table
    # value is total, so the factor of the radical is not diagonal
    "mut.radical": (
        "radical mut extensional\n"
        "act S1 partition 0\n"
        "act S2 partition 0 1\n"
        "act S3 partition 0 1 | 2\n"
    ),
}


def _write_mutant(tmp_path):
    for name, text in MUTANT_FILES.items():
        (tmp_path / name).write_text(text)
    return str(tmp_path)


def test_criterion_10_mutation_sensitivity(tmp_path):
    catalog = _write_mutant(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(
        [
            "verify", "--all", "--report", "json",
            "--monoid-max", "1", "--act-max", "3", "--hull-bound", "3",
            "--seed-catalog", catalog,
            "--radical-file", str(tmp_path / "mut.radical"),
        ],
        out=out,
        err=err,
    )
    doc = json.loads(out.getvalue())
    violated = [
        r for r in doc["axioms"] + doc["results"] if r["status"] == "violated"
    ]
    ok = code == 1 and len(violated) >= 1
    witness_ok = all("witness" in r for r in violated)
    # replay the first witness through its checker
    from radact.catalog import Catalog, parse_radical_table
    from radact.radical import extensional_radical

    cat = Catalog()
    cat.load_dir(catalog)
    name, table = parse_radical_table(
        (tmp_path / "mut.radical").read_text(), cat.acts
    )
    u = default_universe(monoid_max=1, act_max=3, hull_bound=3)
    u.register_radical(extensional_radical(name, table))
    first = violated[0]
    replay = verifier.recheck_witness(
        first["theorem_id"], u, first["witness"]
    )
    report(
        "criterion-10 mutation sensitivity",
        ok and witness_ok and replay,
        f"exit=1, {len(violated)} violated reports, witness re-checked "
        f"({first['theorem_id']})",
    )


def test_criterion_11_determinism():
    # two cold processes, started together, under different hash seeds: the
    # report may depend neither on warm caches nor on hash-seed order
    argv = [sys.executable, "-m", "radact.cli", "verify", "--all",
            "--report", "json"]
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    procs = [
        subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
        )
        for seed in ("1", "2")
    ]
    try:
        results = [proc.communicate(timeout=900) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    outputs = [out for out, _ in results]
    codes = [proc.returncode for proc in procs]
    assert codes == [0, 0], "\n".join(err for _, err in results)
    docs = [json.loads(text) for text in outputs]
    stripped = [verifier.strip_volatile(doc) for doc in docs]
    payload_bytes = [
        json.dumps(s, indent=2).encode() for s in stripped
    ]
    identical = payload_bytes[0] == payload_bytes[1]
    only_volatile_differs = stripped[0] == stripped[1] and set(
        docs[0]
    ) == set(docs[1])
    ok = codes == [0, 0] and identical and only_volatile_differs
    report(
        "criterion-11 determinism",
        ok,
        "two verify runs byte-identical apart from the generated-at/timings "
        "trailer, exit 0",
    )
