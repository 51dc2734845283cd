import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from radact.catalog import (
    Catalog, print_act, print_monoid, print_radical_table,
)
from radact import cli, verifier
from radact import radical as rd
from radact.cli import build_parser, run
from radact.congruence import all_congruences, is_rees, parse_partition
from radact.core import (
    cyclic_mask, mask_members, subact_act_by_mask, validate_act,
    validate_monoid,
)
from radact.errors import ActMismatch
from radact.radical import rg_radical
from radact.universe import STOCK_RADICALS, default_universe


E2_TEXT = """monoid E2
elements 2
identity 0
table
0 1
1 1
"""

R2_TEXT = """act R2 over E2
elements 2
action
0 1
1 1
"""

SMALL = ["--monoid-max", "2", "--act-max", "3", "--hull-bound", "4"]


@pytest.fixture()
def catalog_dir(tmp_path):
    (tmp_path / "E2.monoid").write_text(E2_TEXT)
    (tmp_path / "R2.act").write_text(R2_TEXT)
    return str(tmp_path)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_validate_ok(catalog_dir):
    code, out, _ = invoke(
        ["validate", "--seed-catalog", catalog_dir, "--act", "R2"]
    )
    assert code == 0
    assert "ok act R2" in out


def test_validate_monoid_listing(catalog_dir):
    code, out, _ = invoke(["validate", "--seed-catalog", catalog_dir])
    assert code == 0 and "ok monoid E2" in out


def test_seed_catalog_ignores_radical_tables(catalog_dir):
    # a seed catalog holds monoids and acts; a malformed radical table in it
    # is never read
    Path(catalog_dir, "bad.radical").write_text(
        "radical demo extensional\nact R2 partition 0 | 1 2\n"
    )
    code, out, err = invoke(["validate", "--seed-catalog", catalog_dir])
    assert (code, out, err) == (0, "ok monoid E2 elements=2\n", "")


def test_monoid_flag_rejects_radical_table(catalog_dir):
    # a well-formed table over a catalog act is still not a monoid file
    table = Path(catalog_dir, "demo.table")
    table.write_text("radical demo extensional\nact R2 partition 0 1\n")
    code, out, err = invoke(
        ["validate", "--seed-catalog", catalog_dir, "--monoid", str(table)]
    )
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.monoid"
    bad.write_text("monoid X\nelements 2\nidentity 0\ntable\n0 1\n")
    code, _, err = invoke(["validate", "--monoid", str(bad)])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("name, text, line", [
    ("R2.act", "act R2 over E2\nelements 2\naction\n0 1\n1 5\n", 5),
    ("E2.monoid", "monoid E2\nelements 2\nidentity 0\ntable\n0 1\n1 7\n", 6),
])
def test_entry_outside_the_carrier_is_a_parse_error(catalog_dir, name, text,
                                                     line):
    Path(catalog_dir, name).write_text(text)
    code, out, err = invoke(["validate", "--seed-catalog", catalog_dir])
    assert (code, out) == (2, "")
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: line {line}: ") and "outside" in err


def test_axiom_violation_exits_1(tmp_path):
    bad = tmp_path / "bad.monoid"
    bad.write_text("monoid X\nelements 2\nidentity 1\ntable\n0 1\n1 0\n")
    code, _, err = invoke(["validate", "--monoid", str(bad)])
    assert code == 1


def test_radical_command_prints_total_partition(catalog_dir):
    code, out, _ = invoke(
        ["radical", "--seed-catalog", catalog_dir, "--act", "R2",
         "--radical", "rG"] + SMALL
    )
    assert code == 0
    assert out.strip() == "0 1"


def test_congruences_command(catalog_dir):
    code, out, _ = invoke(
        ["congruences", "--seed-catalog", catalog_dir, "--act", "R2"]
    )
    assert code == 0
    assert out.splitlines() == ["0 1", "0 | 1"]


def test_closure_and_dense(catalog_dir):
    code, out, _ = invoke(
        ["closure", "--seed-catalog", catalog_dir, "--act", "R2",
         "--members", "1"] + SMALL
    )
    assert code == 0 and out.strip() == "0 1"
    code, out, _ = invoke(
        ["dense", "--seed-catalog", catalog_dir, "--act", "R2",
         "--members", "1"] + SMALL
    )
    assert code == 0 and out.strip() == "true"


def test_injectivity_commands(catalog_dir):
    for cmd in ("injective", "r-injective", "weakly-injective"):
        code, out, _ = invoke(
            [cmd, "--seed-catalog", catalog_dir, "--act", "R2"] + SMALL
        )
        assert code == 0 and out.strip() == "true", cmd


def test_hull_commands(catalog_dir):
    code, out, _ = invoke(
        ["hull", "--seed-catalog", catalog_dir, "--act", "R2"] + SMALL
    )
    assert code == 0
    assert out.splitlines()[0] == "elements 2"
    code, out, _ = invoke(
        ["r-hull", "--seed-catalog", catalog_dir, "--act", "R2"] + SMALL
    )
    assert code == 0
    assert out.splitlines()[0] == "method closure-of-hull"


def test_pushout_command(catalog_dir):
    code, out, _ = invoke(
        ["pushout", "--seed-catalog", catalog_dir, "--act", "R2",
         "--members", "1", "--into", "R2", "--map", "1"] + SMALL
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "elements 3"
    assert lines[-2].startswith("u ") and lines[-1].startswith("v ")


def test_pushout_command_requires_dense_mono(catalog_dir):
    # the one point {1} of R2 is closed, not dense, for delta: the command
    # decides nothing and fails, after the map has been checked
    argv = ["pushout", "--seed-catalog", catalog_dir, "--act", "R2",
            "--members", "1", "--into", "R2", "--radical", "delta"] + SMALL
    code, out, err = invoke(argv + ["--map", "1"])
    assert (code, out) == (1, "")
    assert err == "error: (1,) is not a dense monomorphism for delta\n"
    assert invoke(argv + ["--map", "7"])[0] == 2


@pytest.mark.parametrize("argv", [
    ["closure", "--members", "x"],
    ["closure", "--members", "0"],  # not action-closed in R2
    ["closure", "--members", "5"],
    ["dense", "--members", "5"],
    ["pushout", "--members", "1", "--into", "R2", "--map", "7"],
])
def test_malformed_subact_or_map_is_usage_error(catalog_dir, argv):
    code, out, err = invoke(
        argv + ["--seed-catalog", catalog_dir, "--act", "R2"] + SMALL
    )
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["verify", "--all", "--monoid-max", "0"],
    ["enumerate", "--act-max", "-1"],
    ["enumerate", "--hull-bound", "0"],
    ["congruences", "--act", "R2", "--con-bound", "0"],
    ["hull", "--act", "R2", "--hull-bound", "0"],
    ["r-hull", "--act", "R2", "--hull-bound", "-2"],
    # the class check of t_LrG builds the lattice of every universe act
    ["verify", "--all", "--monoid-max", "2", "--con-bound", "3"],
    # every cyclic act is a quotient of the |S|-point left regular act
    ["verify", "--all", "--monoid-max", "2", "--act-max", "1",
     "--hull-bound", "1", "--con-bound", "1"],
    ["enumerate", "--monoid-max", "3", "--act-max", "2", "--con-bound", "2"],
])
def test_bound_below_one_or_below_act_max_is_usage_error(catalog_dir, argv):
    code, out, err = invoke(argv + ["--seed-catalog", catalog_dir])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--hull-bound", "0"], "--hull-bound must be at least 1, got 0"),
    (["closure", "--act", "R2", "--members", "5"] + SMALL,
     "--members '5' is outside the 2-point act"),
    (["closure", "--act", "R2", "--members", "x"] + SMALL,
     "--members takes integers, got 'x'"),
    (["closure", "--act", "R9", "--members", "1"] + SMALL,
     "cannot resolve act 'R9'"),
    # a lattice bound below the carrier decides nothing
    (["congruences", "--act", "R2", "--con-bound", "1"],
     "carrier 2 exceeds lattice bound 1"),
])
def test_flag_mistakes_name_no_file_line(catalog_dir, argv, message):
    # a mistake in a flag is the caller's, not a line of a file that was read
    code, out, err = invoke(argv + ["--seed-catalog", catalog_dir])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_radical_file_missing_an_act_names_no_file_line(tmp_path):
    # every line of the file parses; it just does not cover the universe
    (tmp_path / "T1.monoid").write_text(
        "monoid T1\nelements 1\nidentity 0\ntable\n0\n"
    )
    (tmp_path / "S1.act").write_text("act S1 over T1\nelements 1\naction\n0\n")
    radical_file = tmp_path / "part.radical"
    radical_file.write_text("radical part extensional\nact S1 partition 0\n")
    code, out, err = invoke([
        "enumerate", "--monoid-max", "1", "--act-max", "2", "--con-bound", "2",
        "--seed-catalog", str(tmp_path), "--radical-file", str(radical_file),
    ])
    assert (code, out, err) == (
        2, "", "error: extensional radical 'part' has no entry matching "
        "universe act M1.0.a2.0\n",
    )


@pytest.mark.parametrize("maps", [
    "0 1;0 1",  # two links for a two-act chain
    "1 1",  # a homomorphism, but not injective
    "0 5",  # outside the target
    "1 0",  # not a homomorphism
    "0",  # too few images
    "0 x",  # not an integer
])
def test_malformed_limit_maps_is_usage_error(catalog_dir, maps):
    code, out, err = invoke(
        ["limit", "--seed-catalog", catalog_dir, "--acts", "R2,R2",
         "--maps", maps]
    )
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


T1_TEXT = "monoid T1\nelements 1\nidentity 0\ntable\n0\n"
P1_TEXT = "act P1 over T1\nelements 1\naction\n0\n"


# bad values, each named once as a report witness part and once by flags: a
# map from the subact {1} of R2 into the named act (pushout's --into and
# --map), or a chain of the named acts (limit's --acts and --maps)
@pytest.mark.parametrize("kind, acts, text", [
    ("hom", "R2", "0"),  # not equivariant: 1 is a zero of R2, 0 is not
    ("hom", "R2", "7"),  # an entry outside the carrier
    ("hom", "R2", ""),  # too few images
    ("hom", "P1", "0"),  # into an act over another monoid
    ("chain", "R2,R2", "0 1;0 1"),  # a link too many
    ("chain", "R2,R2", "1 1"),  # a homomorphism, but not injective
    ("chain", "P1,R2", "1"),  # acts over two monoids
])
def test_bad_value_is_refused_as_a_witness_and_as_flags(catalog_dir, kind,
                                                        acts, text):
    (Path(catalog_dir) / "T1.monoid").write_text(T1_TEXT)
    (Path(catalog_dir) / "P1.act").write_text(P1_TEXT)
    named = Catalog()
    named.load_dir(catalog_dir)

    def encoded(name):
        return verifier.encode_part(named.acts[name])["act"]

    if kind == "hom":
        inner, _ = subact_act_by_mask(named.acts["R2"], 0b10)
        part = {"hom": {"source": verifier.encode_part(inner)["act"],
                        "target": encoded(acts),
                        "map": [int(x) for x in text.split()]}}
        argv = ["pushout", "--act", "R2", "--members", "1", "--into", acts,
                "--map", text] + SMALL
    else:
        maps = [[int(x) for x in chunk.split()] for chunk in text.split(";")]
        part = {"chain": {"acts": [encoded(a) for a in acts.split(",")],
                          "maps": maps}}
        argv = ["limit", "--acts", acts, "--maps", text]
    with pytest.raises((ValueError, ActMismatch)):
        verifier.decode_part(None, part)
    code, out, err = invoke(argv + ["--seed-catalog", catalog_dir])
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: [^\n]*\n", err)


def test_chain_names_the_link_that_is_no_hom(catalog_dir):
    # link 0 is the identity, link 1 the swap, which moves R2's zero 1
    named = Catalog()
    named.load_dir(catalog_dir)
    r2 = verifier.encode_part(named.acts["R2"])["act"]
    part = {"chain": {"acts": [r2] * 3, "maps": [[0, 1], [1, 0]]}}
    message = "has a link 1 that is not equivariant"
    with pytest.raises(ValueError, match=f"^{message}$"):
        verifier.decode_part(None, part)
    code, out, err = invoke(
        ["limit", "--seed-catalog", catalog_dir, "--acts", "R2,R2,R2",
         "--maps", "0 1;1 0"]
    )
    assert (code, out, err) == (2, "", f"error: --maps '0 1;1 0' {message}\n")


def test_limit_of_a_single_act(catalog_dir):
    code, out, _ = invoke(
        ["limit", "--seed-catalog", catalog_dir, "--acts", "R2",
         "--maps", ""]
    )
    assert code == 0
    assert out.splitlines()[0] == "elements 2"
    assert "leg0 0 1" in out


def test_limit_builds_no_universe(catalog_dir, monkeypatch):
    def refuse(**bounds):
        raise AssertionError("limit built a universe")

    monkeypatch.setattr(cli, "default_universe", refuse)
    code, out, err = invoke(
        ["limit", "--seed-catalog", catalog_dir, "--acts", "R2,R2",
         "--maps", "0 1"]
    )
    assert (code, out, err) == (
        0, "elements 2\naction\n0 1\n1 1\nleg0 0 1\nleg1 0 1\n", "",
    )


def test_limit_command(catalog_dir):
    code, out, _ = invoke(
        ["limit", "--seed-catalog", catalog_dir, "--acts", "R2,R2",
         "--maps", "0 1"]
    )
    assert code == 0
    assert out.splitlines()[0] == "elements 2"
    assert "leg0 0 1" in out


def test_enumerate_command():
    code, out, _ = invoke(["enumerate", "--monoid-max", "2", "--act-max", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "monoids 3"
    assert "acts 14" in out
    assert "radicals delta nabla rG t_LrG" in out


def test_enumerate_order_four():
    # counts frozen from the enumeration; 1 + 2 + 7 + 35 monoids (OEIS A058129)
    code, out, _ = invoke(["enumerate", "--monoid-max", "4", "--act-max", "4"])
    assert code == 0
    assert out.splitlines()[0] == "monoids 45"
    assert "acts 1205" in out.splitlines()


def test_verify_single_theorem():
    bounds = ["--monoid-max", "1", "--act-max", "3", "--hull-bound", "3"]
    code, out, _ = invoke(["verify", "--theorem", "L1.2"] + bounds)
    assert code == 0
    assert out.startswith("L1.2")
    assert "verified" in out
    # the same line as in the full text report
    _, full, _ = invoke(["verify", "--all"] + bounds)
    assert out.splitlines() == [
        line for line in full.splitlines() if line.startswith("L1.2 ")
    ]


def test_verify_theorem_json_keys():
    code, out, _ = invoke(
        ["verify", "--theorem", "L1.2", "--theorem", "R1.1", "--report",
         "json", "--monoid-max", "1", "--act-max", "3", "--hull-bound", "3"]
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["schema", "results", "generated_at", "timings_ms"]
    assert doc["schema"] == "radact-report/1"
    assert [list(rep) for rep in doc["results"]] == [[
        "theorem_id", "description", "status", "instances_checked",
        "hypothesis_filtered", "instances_skipped",
    ]] * 2
    assert [rep["theorem_id"] for rep in doc["results"]] == ["L1.2", "R1.1"]
    assert list(doc["timings_ms"]) == ["L1.2", "R1.1"]


def test_verify_runs_a_repeated_theorem_once():
    # each id asked for is run and reported once, in the order first named,
    # so the results, the timings and the text report name the same checkers
    argv = ["verify", "--theorem", "R1.1", "--theorem", "L1.2", "--theorem",
            "R1.1", "--monoid-max", "1", "--act-max", "3", "--hull-bound", "3"]
    code, out, _ = invoke(argv + ["--report", "json"])
    assert code == 0
    doc = json.loads(out)
    assert [rep["theorem_id"] for rep in doc["results"]] == ["R1.1", "L1.2"]
    assert list(doc["timings_ms"]) == ["R1.1", "L1.2"]
    _, text, _ = invoke(argv)
    assert [line.split()[0] for line in text.splitlines()] == ["R1.1", "L1.2"]


def test_verify_all_small_universe_json():
    code, out, _ = invoke(
        ["verify", "--all", "--report", "json", "--monoid-max", "1",
         "--act-max", "3", "--hull-bound", "3"]
    )
    assert code == 0, out
    doc = json.loads(out)
    assert doc["schema"] == "radact-report/1"
    assert doc["summary"]["violated"] == 0
    assert {r["theorem_id"] for r in doc["axioms"]} == {"AX-H1", "AX-H2"}


def test_verify_theorem_broken_by_radical_file_exits_1(tmp_path):
    # the table value of S3 is not the radical of S3: R1.1 (the radical of
    # the factor by the radical is diagonal) fails on S3
    (tmp_path / "T1.monoid").write_text(
        "monoid T1\nelements 1\nidentity 0\ntable\n0\n"
    )
    for n in (1, 2, 3):
        row = " ".join(map(str, range(n)))
        (tmp_path / f"S{n}.act").write_text(
            f"act S{n} over T1\nelements {n}\naction\n{row}\n"
        )
    radical_file = tmp_path / "mut.radical"
    radical_file.write_text(
        "radical mut extensional\nact S1 partition 0\n"
        "act S2 partition 0 1\nact S3 partition 0 1 | 2\n"
    )
    code, out, _ = invoke([
        "verify", "--theorem", "R1.1", "--monoid-max", "1", "--act-max", "3",
        "--hull-bound", "3", "--seed-catalog", str(tmp_path),
        "--radical-file", str(radical_file),
    ])
    assert code == 1
    assert out.startswith("R1.1") and "violated" in out


def test_r_hull_with_non_kurosh_amitsur_radical_file(tmp_path):
    # rG with one value replaced by a non-Rees congruence is not
    # Kurosh-Amitsur, so r-hull prints the size-maximal large-and-dense
    # extension; within 4 points that is the act itself
    u = default_universe(monoid_max=2, act_max=4, hull_bound=4)
    for monoid in u.monoids:
        (tmp_path / f"{monoid.name}.monoid").write_text(print_monoid(monoid))
    for act in u.acts:
        (tmp_path / f"{act.name}.act").write_text(print_act(act))
    rg = rg_radical()
    table = {act: rg.of(act) for act in u.acts}
    e2 = validate_monoid([[0, 1], [1, 1]], 0, "E2")
    member = u.find_member(validate_act(e2, [[0, 1, 2, 3], [2, 3, 2, 3]]))
    table[member] = next(
        chi for chi in all_congruences(member) if not is_rees(chi)
    )
    radical_file = tmp_path / "non-ka.rad"
    radical_file.write_text(print_radical_table("non-ka", table))
    code, out, err = invoke([
        "r-hull", "--seed-catalog", str(tmp_path), "--act", "M2.1.a2.0",
        "--monoid-max", "2", "--act-max", "4", "--hull-bound", "4",
        "--radical", "non-ka", "--radical-file", str(radical_file),
    ])
    assert (code, err) == (0, "")
    assert out == (
        "method essential-search-fallback\nelements 2\naction\n0 1\n0 0\n"
    )


def test_r_injective_auto_mode_on_a_radical_that_is_not_zero_hereditary(
        tmp_path):
    # the radical of test_injectivity's criterion refusal: on a radical that
    # is not zero-hereditary, --mode auto asks the universe decider, and
    # --mode criterion is refused
    u = default_universe(monoid_max=1, act_max=4, hull_bound=4)
    for monoid in u.monoids:
        (tmp_path / f"{monoid.name}.monoid").write_text(print_monoid(monoid))
    for act in u.acts:
        (tmp_path / f"{act.name}.act").write_text(print_act(act))
    acts = {a.size: a for a in u.acts}
    table = {act: parse_partition(act, blocks) for act, blocks in (
        (acts[1], "0"), (acts[2], "0 | 1"), (acts[3], "0 1 | 2"),
        (acts[4], "0 | 1 | 2 | 3"))}
    radical_file = tmp_path / "not-zh.rad"
    radical_file.write_text(print_radical_table("not-zh", table))

    def r_injective(act, mode):
        return invoke([
            "r-injective", "--seed-catalog", str(tmp_path), "--act", act.name,
            "--monoid-max", "1", "--act-max", "4", "--hull-bound", "4",
            "--radical", "not-zh", "--radical-file", str(radical_file),
            "--mode", mode,
        ])

    for act in u.acts:
        code, out, err = r_injective(act, "universe")
        assert (code, err) == (0, "")
        assert r_injective(act, "auto") == (0, out, "")
        assert r_injective(act, "criterion") == (
            1, "", "error: not-zh is not zero-hereditary on this universe\n")


def test_unknown_theorem_is_usage_error():
    code, _, err = invoke(
        ["verify", "--theorem", "T9.9", "--monoid-max", "1",
         "--act-max", "2", "--hull-bound", "2"]
    )
    assert code == 2
    assert err == "error: unknown theorem 'T9.9'\n"


@pytest.mark.parametrize("argv", [
    ["radical", "--act", "R2"],
    ["classify"],
    ["closure", "--act", "R2", "--members", "1"],
])
def test_unknown_radical_is_usage_error(catalog_dir, argv):
    code, out, err = invoke(
        argv + ["--seed-catalog", catalog_dir, "--radical", "nope"] + SMALL
    )
    assert code == 2
    assert out == ""
    assert err == "error: no radical named 'nope' is registered\n"


def test_missing_seed_catalog_is_usage_error(tmp_path):
    missing = str(tmp_path / "missing")
    code, out, err = invoke(["hull", "--act", "R2", "--seed-catalog", missing])
    assert (code, out) == (2, "")
    assert err == (f"error: --seed-catalog: cannot read {missing!r}: "
                   "No such file or directory\n")


def test_missing_monoid_file_is_usage_error(tmp_path):
    missing = str(tmp_path / "E2.monoid")
    code, out, err = invoke(["validate", "--monoid", missing])
    assert (code, out) == (2, "")
    assert err == (f"error: --monoid: cannot read {missing!r}: "
                   "No such file or directory\n")


def test_missing_radical_file_is_usage_error(tmp_path):
    missing = str(tmp_path / "copy.radical")
    code, out, err = invoke(["enumerate", "--radical-file", missing] + SMALL)
    assert (code, out) == (2, "")
    assert err == (f"error: --radical-file: cannot read {missing!r}: "
                   "No such file or directory\n")


def test_unreadable_act_path_is_usage_error(catalog_dir, tmp_path):
    # a directory exists but cannot be read as an act file
    folder = tmp_path / "R2.act.d"
    folder.mkdir()
    code, out, err = invoke(
        ["validate", "--seed-catalog", catalog_dir, "--act", str(folder)]
    )
    assert (code, out) == (2, "")
    assert err == (f"error: --act: cannot read {str(folder)!r}: "
                   "Is a directory\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--all", "--radical", "rG"],
    ["verify", "--all", "--theorem", "L1.2"],
    ["verify"],
    ["hull", "--act", "R2", "--radical", "rG"],  # not --radical-file
    ["validate", "--report", "json"],
    ["limit", "--acts", "R2", "--maps", "", "--act-max", "3"],
])
def test_flag_the_command_does_not_read_is_refused(catalog_dir, argv):
    code, out, _ = invoke(argv + ["--seed-catalog", catalog_dir])
    assert (code, out) == (2, "")


# a universe of the one-element monoid, which does not hold R2's monoid E2
WITHOUT_E2 = ["--monoid-max", "1", "--act-max", "2", "--hull-bound", "3",
              "--con-bound", "3"]


@pytest.mark.parametrize("argv", [
    ["r-injective", "--mode", "universe"],
    ["r-hull"],
])
def test_act_over_a_monoid_outside_the_universe_is_usage_error(
        catalog_dir, argv):
    code, out, err = invoke(
        argv + ["--seed-catalog", catalog_dir, "--act", "R2"] + WITHOUT_E2
    )
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: monoid \S+ is not a monoid of the universe "
                        r"\(monoid_max 1\)\n", err)


@pytest.mark.parametrize("argv, expected", [
    (["r-injective", "--mode", "criterion"], "true\n"),
    (["hull"], "elements 2\naction\n0 1\n1 1\n"),
])
def test_act_decisions_that_need_no_universe_acts_over_its_monoid(
        catalog_dir, argv, expected):
    code, out, err = invoke(
        argv + ["--seed-catalog", catalog_dir, "--act", "R2"] + WITHOUT_E2
    )
    assert (code, out, err) == (0, expected, "")


def test_radical_file_loads_the_catalog_once(rg_copy_catalog, monkeypatch):
    catalog, radical_file, bounds = rg_copy_catalog
    loads = []
    load_file = Catalog.load_file

    def counting(self, path):
        loads.append(Path(path).name)
        return load_file(self, path)

    monkeypatch.setattr(Catalog, "load_file", counting)
    code, out, err = invoke([
        "r-hull", "--seed-catalog", str(catalog), "--act", "R2",
        "--radical", "copy", "--radical-file", str(radical_file),
        *(x for flag_value in bounds.items() for x in flag_value),
    ])
    assert (code, err) == (0, "")
    assert sorted(loads) == sorted(p.name for p in catalog.iterdir())


@pytest.mark.parametrize("command", ["hull", "r-hull"])
def test_hull_commands_take_no_bound_flag(catalog_dir, command):
    # the search bound is the universe's --hull-bound
    code, out, _ = invoke(
        [command, "--seed-catalog", catalog_dir, "--act", "R2",
         "--bound", "3"]
    )
    assert code == 2
    assert out == ""


def _readme():
    return (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_flag_table_matches_the_parser(command_flags):
    # the catalog flags go to every command; "yes" in the universe column
    # stands for every universe flag, and each other flag a row names is
    # one that the command takes
    readme = _readme()
    groups = {
        name: set(re.findall(r"--[a-z-]+", flags))
        for name, flags in re.findall(
            r"^(catalog|universe) flags:(.*(?:\n {16}.*)*)", readme, re.M)
    }
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme, re.M)
    assert sorted(command for command, _ in rows) == sorted(command_flags)
    for command, row in rows:
        named = groups["catalog"] | set(re.findall(r"--[a-z-]+", row))
        if row.startswith("yes "):
            named |= groups["universe"]
        assert named == set(command_flags[command]), command


def test_readme_lists_exactly_the_commands():
    listed = re.search(r"Commands: (.*?)\.\n", _readme(), re.S).group(1)
    usage = build_parser().format_usage()
    commands = re.search(r"\{([a-z,-]+)\}", usage).group(1).split(",")
    assert sorted(re.findall(r"`([a-z-]+)`", listed)) == sorted(commands)


# ---------------------------------------------------------------------------
# argv fuzzing: any argv built from the real commands and flags ends in an
# exit code of the README contract, never in a traceback


def _fuzz_values(catalog, radical_file):
    """Values to draw for each flag, by the attribute it sets: the first two
    are well-formed, the rest plausible mistakes.  Every bound is small, so
    that no drawn command runs long."""
    act_file = str(catalog / "R2.act")
    monoid_file = str(catalog / "E2.monoid")
    missing = str(catalog / "missing")
    bound = ["1", "2", "3", "0", "-1", "x"]
    return {
        "seed_catalog": [str(catalog), str(catalog), missing, act_file],
        "monoid": [monoid_file, monoid_file, str(radical_file), missing],
        "act": ["R2", "M2.1.a2.0", "M2.0.a1.0", act_file, "nosuch", ""],
        "into": ["R2", "M2.1.a2.0", "M2.1.a1.0", "nosuch"],
        "acts": ["R2,R2", "M2.1.a1.0,R2", "R2", "R2,nosuch", ""],
        "members": ["1", "0 1", "0", "1 0", "", "x", "5", "-1"],
        "map": ["0", "1", "0 1", "1 1", "", "x", "9"],
        "maps": ["0 1", "1 1", "0", "", ";", "0 1;0 1", "x"],
        "monoid_max": bound,
        "act_max": bound,
        "hull_bound": bound,
        "con_bound": bound,
        "radical": ["rG", "t_LrG", "delta", "nabla", "copy", "nosuch"],
        "radical_file": [str(radical_file), str(radical_file), monoid_file,
                         missing],
        "mode": ["auto", "criterion", "universe", "bogus"],
        "report": ["text", "json", "xml"],
        "theorem": ["L1.2", "AX-H2", "T4.6", "nosuch"],
        "all": [None],
    }


@st.composite
def _argvs(draw, command_flags, values, bounds):
    """A command with the catalog and, where it takes them, the small
    universe's bounds, then some of its own flags.  A clean argv gives them
    well-formed values; a noisy one draws any value, and now and then adds
    a flag of another command, a flag with its value missing or a stray
    word.  A flag given twice takes its last value."""
    command = draw(st.sampled_from(sorted(command_flags)))
    noisy = draw(st.booleans())
    own = command_flags[command]
    argv = [command, "--seed-catalog", values["seed_catalog"][0]]
    if "--monoid-max" in own:
        argv += [x for flag_value in bounds.items() for x in flag_value]
    every = {flag: dest for flags in command_flags.values()
             for flag, dest in flags.items()}
    chosen = [flag for flag in sorted(own) if draw(st.integers(0, 3))]
    if noisy and draw(st.booleans()):
        chosen.append(draw(st.sampled_from(sorted(every))))
    for flag in draw(st.permutations(chosen)):
        argv.append(flag)
        pool = values[every[flag]]
        value = draw(st.sampled_from(pool if noisy else pool[:2]))
        if value is not None:
            argv.append(value)
    if noisy:
        argv += draw(st.sampled_from([[], ["--act"], ["stray"]]))
    return argv


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_by_the_contract(command_flags, rg_copy_catalog,
                                           data):
    catalog, radical_file, bounds = rg_copy_catalog
    values = _fuzz_values(catalog, radical_file)
    argv = data.draw(_argvs(command_flags, values, bounds))
    code, _, err = invoke(argv)
    assert code in (0, 1, 2), argv
    # argparse writes its own usage errors to sys.stderr; what the commands
    # write to ``err`` is one error line
    assert err == "" or re.fullmatch(r"error: [^\n]*\n", err), argv


def test_fuzz_values_cover_every_flag(command_flags, rg_copy_catalog):
    values = _fuzz_values(*rg_copy_catalog[:2])
    dests = {dest for flags in command_flags.values()
             for dest in flags.values()}
    assert dests == set(values)


@pytest.fixture(scope="module")
def m2_catalog(tmp_path_factory):
    """A catalog of every monoid and act of ``default_universe(monoid_max=2)``
    and a radical table file ``copy`` with rG's value on each act."""
    tmp_path = tmp_path_factory.mktemp("m2")
    u = default_universe(monoid_max=2)
    for monoid in u.monoids:
        (tmp_path / f"{monoid.name}.monoid").write_text(print_monoid(monoid))
    for act in u.acts:
        (tmp_path / f"{act.name}.act").write_text(print_act(act))
    rg = u.radical("rG")
    radical_file = tmp_path.parent / "m2_copy.radical"
    radical_file.write_text(
        print_radical_table("copy", {act: rg.of(act) for act in u.acts})
    )
    return str(tmp_path), str(radical_file), u.acts


def universe_commands(acts, radical_file):
    """Every universe-building command kind: the act commands on each act,
    those that take --radical with each stock radical in turn, and classify,
    enumerate, verify and a --radical-file run."""
    out = []
    for i, act in enumerate(acts):
        members = " ".join(map(str, mask_members(
            cyclic_mask(act, act.size - 1))))
        mode = ("auto", "criterion", "universe")[i % 3]
        base = ["--act", act.name]
        out += [[kind] + base for kind in ("injective", "weakly-injective",
                                           "hull")]
        for k, (kind, *extra) in enumerate([
            ("radical",),
            ("closure", "--members", members),
            ("dense", "--members", members),
            ("r-injective", "--mode", mode),
            ("r-hull",),
            ("pushout", "--members", members, "--into", act.name,
             "--map", members),
        ]):
            radical = STOCK_RADICALS[(i + k) % 4]
            out.append([kind] + base + ["--radical", radical] + extra)
    out += [["classify", "--radical", r] for r in STOCK_RADICALS]
    out += [["enumerate"], ["verify", "--theorem", "L1.2"],
            ["radical", "--act", acts[-1].name, "--radical", "copy",
             "--radical-file", radical_file]]
    return out


def reads_t_lrg(argv):
    return ("t_LrG" in argv or argv[0] in ("enumerate", "verify")
            or "--radical-file" in argv)


def test_commands_register_only_the_radicals_they_read(m2_catalog,
                                                       monkeypatch):
    # each command's output equals a run on every stock radical, and only
    # the commands that read t_LrG check its semisimple class
    catalog, radical_file, acts = m2_catalog
    checks = []
    check = rd.verify_semisimple_class
    monkeypatch.setattr(rd, "verify_semisimple_class",
                        lambda *a: checks.append(a) or check(*a))
    def on_every_stock_radical(args, radicals):
        u = cli._universe(args)
        assert [r.name for r in u.radicals][:4] == list(STOCK_RADICALS)
        return u

    commands = universe_commands(acts, radical_file)
    assert {argv[0] for argv in commands} == {
        "radical", "classify", "closure", "dense", "injective",
        "r-injective", "weakly-injective", "hull", "r-hull", "pushout",
        "enumerate", "verify",
    }
    for argv in commands:
        argv = argv + ["--seed-catalog", catalog, "--monoid-max", "2"]
        checks.clear()
        got = invoke(argv)
        assert len(checks) == reads_t_lrg(argv), argv
        with monkeypatch.context() as mp:
            mp.setattr(cli, "_universe_reading", on_every_stock_radical)
            checks.clear()
            want = invoke(argv)
            assert len(checks) == 1
        assert got == want, argv
        # a pushout along a subact that is not dense exits 1; nothing is
        # a usage error
        assert got[0] in (0, 1), (argv, got)


def test_act_read_from_a_file_matches_the_catalog_act(rg_copy_catalog,
                                                      tmp_path):
    # E2's regular act, relabelled with its zero first: each flag that names
    # an act reads the file print_act wrote as it reads the catalog's act
    catalog, _, bounds = rg_copy_catalog
    u = default_universe(*map(int, bounds.values()))
    [act] = [a for a in u.acts
             if a.monoid.mul == ((0, 1), (1, 1)) and a.action[1] == (0, 0)]
    path = tmp_path / "regular.act"
    path.write_text(print_act(act))
    flags = ["--seed-catalog", str(catalog)]
    sized = flags + [x for pair in bounds.items() for x in pair]
    for argv in (
        ["radical", "--act", "{}"] + sized,
        ["pushout", "--act", "{}", "--members", "0", "--into", act.name,
         "--map", "0"] + sized,
        ["pushout", "--act", act.name, "--members", "0", "--into", "{}",
         "--map", "0"] + sized,
        ["limit", "--acts", "{0},{0}", "--maps", "0 1"] + flags,
    ):
        by_name = invoke([x.format(act.name) for x in argv])
        by_file = invoke([x.format(path) for x in argv])
        assert by_file == by_name and by_name[0] == 0, argv


def _r11_broken_by_radical_file(tmp_path):
    """The argv of a ``verify --theorem R1.1`` run whose radical file gives
    S3 a value that is not its radical, so that R1.1 is violated."""
    (tmp_path / "T1.monoid").write_text(
        "monoid T1\nelements 1\nidentity 0\ntable\n0\n"
    )
    for n in (1, 2, 3):
        row = " ".join(map(str, range(n)))
        (tmp_path / f"S{n}.act").write_text(
            f"act S{n} over T1\nelements {n}\naction\n{row}\n"
        )
    radical_file = tmp_path / "mut.radical"
    radical_file.write_text(
        "radical mut extensional\nact S1 partition 0\n"
        "act S2 partition 0 1\nact S3 partition 0 1 | 2\n"
    )
    return [
        "verify", "--theorem", "R1.1", "--monoid-max", "1", "--act-max", "3",
        "--hull-bound", "3", "--seed-catalog", str(tmp_path),
        "--radical-file", str(radical_file),
    ]


def test_verify_theorem_text_prints_the_witness_that_rechecks(tmp_path):
    # the text report of named checkers prints a witness line as --all does,
    # and the witness is the one that the JSON report gives and that rechecks
    argv = _r11_broken_by_radical_file(tmp_path)
    code, text, _ = invoke(argv)
    json_code, out, _ = invoke(argv + ["--report", "json"])
    assert code == json_code == 1
    [rep] = json.loads(out)["results"]
    assert text.splitlines() == [
        f"R1.1       violated               checked={rep['instances_checked']}"
        f" filtered={rep['hypothesis_filtered']}"
        f" skipped={rep['instances_skipped']}",
        "    witness: " + json.dumps(rep["witness"]),
    ]
    u = cli._universe(build_parser().parse_args(argv))
    assert verifier.THEOREMS["R1.1"].recheck(u, rep["witness"])
