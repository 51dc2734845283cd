import gc
import json
import weakref
from collections import Counter
from dataclasses import replace
from itertools import permutations

import pytest

from radact.catalog import parse_radical_table
from radact.congruence import (
    all_congruences,
    diagonal,
    is_essential,
    is_rees,
    parse_partition,
    quotient,
    rees_single,
    smallest_extension,
    total,
)
from radact.core import (
    ActHom,
    FiniteAct,
    HomSet,
    all_homs,
    coproduct,
    mask_members,
    relabel,
    subact_act_by_mask,
    subact_masks,
    validate_act,
    validate_monoid,
    zeros,
)
from radact.errors import (
    BOUND_ERRORS,
    BoundExceeded,
    NotInUniverse,
    PostconditionError,
    UnknownTheorem,
)
from radact.injectivity import (
    DirectedChain,
    injective_hull,
    pushout_layout,
    pushout_square,
    r_injective_bounded,
)
from radact import universe as universe_module
from radact.radical import (
    classify_radical,
    closure_mask,
    dense_subact_masks,
    extensional_radical,
    is_r_dense,
    is_radical_act,
    is_semisimple_act,
    rg_radical,
    RadicalTaxonomy,
)
from radact.universe import default_universe
from radact import checkers, injectivity, verifier

# every numbered result the suite certifies; the registry must cover exactly
# these (axioms are tracked separately)
REQUIRED = [
    "R1.1", "L1.2",
    "D2.1", "L2.2", "P2.3", "T2.4", "T2.5", "C2.6", "P2.6", "D2.7", "T2.8",
    "P2.9", "C2.10", "L2.11", "T2.12", "P2.13", "D2.14", "L2.15", "T2.16",
    "P2.17",
    "T3.4", "C3.5", "T3.6", "L3.7", "L3.8", "D3.9", "T3.10",
    "D4.1", "T4.2", "L4.3", "T4.4", "T4.5", "T4.6", "C4.7",
    "L5.1", "L5.3", "D5.4", "T5.5", "R5.6",
    "T6.1", "T6.2", "C6.3", "T6.5",
    "P7.1", "C7.2", "T7.3", "L7.4", "T7.5", "T7.6", "T7.8", "C7.9",
]

REQUIRED_AXIOMS = ["AX-H1", "AX-H2"]


@pytest.fixture(scope="module")
def small():
    return default_universe(monoid_max=1, act_max=3, hull_bound=3)


@pytest.fixture(scope="module")
def small_two():
    return default_universe(monoid_max=2)


@pytest.fixture(scope="module")
def mutant_universe():
    return _mutant_universe()


def _mutant_universe():
    u = default_universe(monoid_max=1, act_max=3, hull_bound=3)
    acts = {a.size: a for a in u.acts}
    table = {
        acts[1]: diagonal(acts[1]),
        acts[2]: parse_partition(acts[2], "0 1"),
        acts[3]: parse_partition(acts[3], "0 1 | 2"),
    }
    u.register_radical(extensional_radical("mut", table))
    return u


@pytest.fixture(scope="module")
def non_ka_universe():
    # rG with one value replaced by a non-Rees congruence: the radical "non-ka"
    # lacks all six taxonomy flags (the universe of the r-hull fallback test)
    u = default_universe(monoid_max=2, act_max=4, hull_bound=4)
    e2 = validate_monoid([[0, 1], [1, 1]], 0, "E2")
    member = u.find_member(validate_act(e2, [[0, 1, 2, 3], [2, 3, 2, 3]]))
    rg = rg_radical()
    table = {act: rg.of(act) for act in u.acts}
    table[member] = next(
        chi for chi in all_congruences(member) if not is_rees(chi)
    )
    u.register_radical(extensional_radical("non-ka", table))
    return u


def test_registry_covers_exactly_the_numbered_results():
    verifier._ensure_registered()
    assert list(verifier.THEOREMS) == REQUIRED
    assert list(verifier.AXIOMS) == REQUIRED_AXIOMS


def test_every_checker_has_description():
    verifier._ensure_registered()
    for checker in list(verifier.THEOREMS.values()) + list(
        verifier.AXIOMS.values()
    ):
        assert checker.description


def test_unknown_theorem(small):
    with pytest.raises(UnknownTheorem):
        verifier.verify("T9.9", small)


def test_witness_round_trip(small, E2, R2):
    theta = small.acts[0]
    chi = diagonal(R2)
    hom = ActHom(R2, R2, (0, 1))
    chain = DirectedChain((R2,), ())
    parts = (
        small.radical("rG"), E2, R2, chi, hom, chain, 3, "tag", True,
    )
    encoded = verifier.encode_parts(parts)
    json.dumps(encoded)  # must be serialisable
    decoded = verifier.decode_parts(small, encoded)
    assert decoded[0] is small.radical("rG")
    assert decoded[1] == E2
    assert decoded[2] == R2
    assert decoded[3] == chi
    assert decoded[4] == hom
    assert decoded[5].acts == chain.acts
    assert decoded[6:] == (3, "tag", True)
    del theta


@pytest.mark.parametrize("tag", ["hom", "chain"])
@pytest.mark.parametrize("mapping, message", [
    ((1, 0), "not equivariant"),
    ((2, 1), "outside target carrier"),
])
def test_decoding_refuses_a_map_that_is_no_hom(small, R2, tag, mapping,
                                              message):
    # a hom part and a chain link are decoded through core.hom
    same = ActHom(R2, R2, (0, 1))
    if tag == "hom":
        part = verifier.encode_part(same)
        part["hom"]["map"] = list(mapping)
    else:
        part = verifier.encode_part(DirectedChain((R2, R2), (same,)))
        part["chain"]["maps"][0] = list(mapping)
    with pytest.raises(ValueError, match=message):
        verifier.decode_part(small, part)


def test_decoding_refuses_a_chain_with_a_link_too_many(small, R2):
    part = verifier.encode_part(DirectedChain((R2,), ()))
    part["chain"]["maps"].append([0, 1])
    with pytest.raises(ValueError):
        verifier.decode_part(small, part)


def test_decoding_refuses_a_chain_of_no_acts(small):
    with pytest.raises(ValueError, match="has no acts"):
        verifier.decode_part(small, {"chain": {"acts": [], "maps": []}})


@pytest.mark.parametrize("call, error, message", [
    (lambda small: verifier.register("T7.8", "again", None, None),
     ValueError, "duplicate checker id T7.8"),
    # an id names one checker, axiom or theorem
    (lambda small: verifier.register("AX-H1", "again", None, None),
     ValueError, "duplicate checker id AX-H1"),
    pytest.param(
        lambda small: verifier.register("T7.8", "again", None, None,
                                        axiom=True),
        ValueError, "duplicate checker id T7.8",
        id="axiom-ValueError-duplicate checker id T7.8"),
    (lambda small: verifier.encode_part(1.5),
     TypeError, "cannot encode 1.5 into a witness"),
    (lambda small: verifier.decode_part(small, {"nosuch": 1}),
     ValueError, "unknown witness component 'nosuch'"),
])
def test_verifier_refusals(small, call, error, message):
    verifier._ensure_registered()
    with pytest.raises(error) as err:
        call(small)
    assert str(err.value) == message


def test_single_theorem_report(small):
    rep = verifier.verify("L1.2", small)
    assert rep.status == "verified"
    assert rep.instances_checked > 0
    payload = rep.payload()
    assert payload["theorem_id"] == "L1.2"
    assert "witness" not in payload


def test_axiom_two_violated_by_mutant(mutant_universe):
    rep = verifier.verify("AX-H2", mutant_universe)
    assert rep.status == "violated"
    assert rep.witness is not None
    # the witness re-checks: feeding it back reproduces the violation
    assert verifier.recheck_witness("AX-H2", mutant_universe, rep.witness)


def test_recheck_replays_an_ax_h1_witness(mutant_universe):
    # the witness is one expanded instance of a group, and recheck runs it
    # through the predicate derived from AX-H1's decider
    rep = verifier.verify("AX-H1", mutant_universe)
    assert rep.status == "violated"
    assert rep.witness["instance"][0] == {"radical": "mut"}
    assert verifier.recheck_witness("AX-H1", mutant_universe, rep.witness)


def test_recheck_refuses_a_witness_map_with_a_float(mutant_universe):
    rep = verifier.verify("AX-H1", mutant_universe)
    witness = json.loads(json.dumps(rep.witness))
    fmap = witness["instance"][1]["hom"]["map"]
    fmap[0] = float(fmap[0])
    with pytest.raises(ValueError, match="^has a non-integer entry$"):
        verifier.recheck_witness("AX-H1", mutant_universe, witness)


def test_recheck_refuses_a_witness_int_that_is_a_string(small_two):
    act = small_two.acts[-1]
    instance = verifier.encode_parts(
        (small_two.radicals[0], "c1-idem", act, act.full_mask()))
    assert not verifier.recheck_witness("D2.1", small_two,
                                        {"instance": instance})
    instance[3] = {"int": str(act.full_mask())}
    with pytest.raises(ValueError, match="^witness component 'int' holds"):
        verifier.recheck_witness("D2.1", small_two, {"instance": instance})


@pytest.mark.parametrize("part", [
    {"int": "1"}, {"int": 1.0}, {"int": True}, {"str": 1}, {"bool": 0},
])
def test_decoding_refuses_a_scalar_of_another_type(small, part):
    (tag, payload), = part.items()
    message = f"^witness component '{tag}' holds {payload!r}$"
    with pytest.raises(ValueError, match=message):
        verifier.decode_part(small, part)


def _full_loses_its_top(real):
    # extension fails: the top point of an act leaves the closure of the
    # whole act
    def faulty(r, act, m):
        got = real(r, act, m)
        if m == act.full_mask() and act.size > 1:
            return got & ~(1 << (act.size - 1))
        return got
    return faulty


def _point_closes_to_all(real):
    # monotonicity fails: a one-point subact closes to the whole act, and
    # the larger proper subacts keep their closures
    def faulty(r, act, m):
        return act.full_mask() if m.bit_count() == 1 else real(r, act, m)
    return faulty


@pytest.mark.parametrize("fault, tag", [
    (_full_loses_its_top, "c1-idem"),
    (_point_closes_to_all, "c2"),
])
def test_recheck_replays_a_planted_d21_witness(monkeypatch, small_two, fault,
                                               tag):
    monkeypatch.setattr(checkers, "closure_mask", fault(checkers.closure_mask))
    rep = verifier.verify("D2.1", small_two)
    assert rep.status == "violated"
    assert rep.witness["instance"][1] == {"str": tag}
    assert verifier.recheck_witness("D2.1", small_two, rep.witness)
    monkeypatch.undo()
    assert not verifier.recheck_witness("D2.1", small_two, rep.witness)


def _discrete_subact(real):
    # the subact keeps its points but loses its action
    def faulty(act, mask):
        inner, incl = real(act, mask)
        rows = (tuple(range(inner.size)),) * len(act.action)
        return FiniteAct(act.monoid, rows), incl
    return faulty


def _subact_twice(real):
    # the subact is materialised as two disjoint copies of itself
    def faulty(act, mask):
        inner, incl = real(act, mask)
        return coproduct(inner, inner)[0], incl
    return faulty


# one planted kernel fault per violation branch of a checker that no other
# test reaches: (checker, name in the ``checkers`` namespace, fault of the
# real function, the branch it reaches)
PLANTED = [
    ("R1.1", "is_closed_mask", lambda real: lambda act, mask: False,
     "class holding a subact not closed"),
    ("P2.3", "class_system", lambda real: lambda chi: (chi.act.full_mask(),),
     "classes not nested"),
    ("P2.6", "dense_subact_masks",
     lambda real: lambda r, act: subact_masks(act),
     "dense subact attracts nothing"),
    ("T2.8", "closure_mask",
     lambda real: lambda r, act, m: real(r, act, m) if act.size == 4 else m,
     "oracle not weakly hereditary"),
    ("D2.14", "intersection_large", lambda real: lambda act, mask: True,
     "largeness disagrees"),
    ("L4.3", "classify_radical",
     lambda real: lambda r, u: replace(real(r, u), kurosh_amitsur=False),
     "induced radical not Kurosh-Amitsur"),
    ("T7.3", "subact_act_by_mask", _discrete_subact, "c3"),
    ("T7.3", "closure_in_hull",
     lambda real: lambda r, act, u: coproduct(act, act)[0], "c4"),
    ("T7.3", "injective_hull",
     lambda real: lambda act, u: coproduct(act, act)[0], "c5"),
    ("T7.3", "rees_congruence", lambda real: lambda act, family: total(act),
     "c6"),
    ("L7.4", "is_radical_act", lambda real: lambda r, act: True,
     "radical and semisimple"),
    ("L7.4", "is_radical_act",
     lambda real: lambda r, act: real(r, act) and act.size >= 2,
     "factor not radical"),
    ("L7.4", "subact_act_by_mask", _subact_twice, "subact not semisimple"),
    ("L7.4", "is_rees", lambda real: lambda chi: False, "not Rees"),
    ("L7.4", "class_system", lambda real: lambda chi: (chi.act.full_mask(),),
     "class not radical"),
    ("T7.6", "class_system", lambda real: lambda chi: subact_masks(chi.act),
     "class not injective"),
]


@pytest.mark.parametrize("cid, name, fault, branch", PLANTED,
                         ids=[f"{row[0]}-{row[3]}" for row in PLANTED])
def test_planted_fault_violates_its_checker(monkeypatch, small_two, cid, name,
                                            fault, branch):
    # a fresh universe, since a fault's results land in its memo
    u = default_universe(monoid_max=2)
    monkeypatch.setattr(checkers, name, fault(getattr(checkers, name)))
    rep = verifier.verify(cid, u)
    assert rep.status == "violated"
    assert verifier.recheck_witness(cid, u, rep.witness)
    monkeypatch.undo()
    assert verifier.verify(cid, small_two).status == "verified"


def test_pushout_postcondition_failure_violates_l51(monkeypatch):
    # L5.1 leaves the commuting-square check to the pushout layout; a raised
    # PostconditionError must surface as a violation with its note
    def broken_layout(m):
        raise PostconditionError("pushout square does not commute")

    monkeypatch.setattr(checkers, "pushout_layout", broken_layout)
    u = default_universe(monoid_max=2)
    rep = verifier.verify("L5.1", u)
    assert rep.status == "violated"
    assert rep.witness["note"] == "pushout square does not commute"
    assert verifier.recheck_witness("L5.1", u, rep.witness)


def _l51_by_pushouts(r, big, mask, c):
    # the per-radical loop that the span verdicts replace, kept as an oracle;
    # it reads checkers.is_r_mono at call time so that patches reach it
    sub, incl = subact_act_by_mask(big, mask)
    layout = pushout_layout(incl)
    return all(
        checkers.is_r_mono(r, pushout_square(layout, f)[1])
        for f in all_homs(sub, c)
    )


def _flaky_density(monkeypatch, rg_fails=True):
    # density fails for rG on 5-point pushouts (unless ``rg_fails`` is
    # False) and hits a bound for t_LrG on 6-point ones
    real = checkers.is_r_mono

    def flaky(r, m):
        if r.name == "rG" and rg_fails and m.target.size == 5:
            return False
        if r.name == "t_LrG" and m.target.size == 6:
            raise NotInUniverse("pushout outside the table")
        return real(r, m)

    monkeypatch.setattr(checkers, "is_r_mono", flaky)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BOUND_ERRORS as err:
        return type(err)


def _derived(cid):
    # the per-instance predicate that the verifier derives from a grouped
    # law's registered decider
    return {**verifier.AXIOMS, **verifier.THEOREMS}[cid].holds


def _l51_instances(u):
    # L5.1 yields one group per dense subact, with every target as a tail
    return [head + (c,) for _, (head, targets) in checkers._enum_l51(u)
            for c in targets]


def test_l51_verdicts_match_per_radical_pushouts():
    u = default_universe(monoid_max=2)
    instances = _l51_instances(u)
    assert {parts[0].name for parts in instances} == {
        r.name for r in u.radicals
    }
    for parts in instances:
        assert _derived("L5.1")(u, parts) == _l51_by_pushouts(*parts)


def test_l51_verdicts_keep_radicals_apart(monkeypatch):
    # a density test that fails for rG and hits a bound for t_LrG on some
    # pushouts must change the answers of those radicals only
    _flaky_density(monkeypatch)
    u = default_universe(monoid_max=2)
    seen = set()
    for parts in _l51_instances(u):
        got = _outcome(_derived("L5.1"), u, parts)
        assert got == _outcome(_l51_by_pushouts, *parts)
        seen.add((parts[0].name, got))
    assert {("rG", False), ("t_LrG", NotInUniverse), ("nabla", True)} <= seen
    assert ("nabla", False) not in seen and ("delta", False) not in seen


@pytest.mark.parametrize("failing", [("rG", "t_LrG"), ("t_LrG",)])
def test_l51_rows_give_the_report_of_the_expanded_instances(monkeypatch,
                                                             failing):
    # density failing for rG and hitting a bound for t_LrG on some pushouts:
    # deciding groups from the verdict rows gives the report of the
    # per-instance predicate run on every expanded instance
    _flaky_density(monkeypatch, "rG" in failing)
    u = default_universe(monoid_max=2)
    verifier._ensure_registered()
    checker = verifier.THEOREMS["L5.1"]
    expanded = verifier.Checker("L5.1", checker.description,
                                checkers._enum_l51, checker.holds)
    rep = checker.run(u)
    assert rep.status == ("violated" if "rG" in failing else "verified")
    assert "rG" in failing or rep.instances_skipped > 0
    assert _report_outcome(rep) == _report_outcome(expanded.run(u))


def test_l51_does_not_ask_a_radical_again_after_it_fails(monkeypatch):
    # once density fails or hits a bound for a radical on one pushout of a
    # span, no later pushout of that span is tested for that radical
    _flaky_density(monkeypatch)
    flaky = checkers.is_r_mono
    real_pushouts = checkers.distinct_pushouts
    events = []

    def recording(r, m):
        try:
            ok = flaky(r, m)
        except BOUND_ERRORS:
            events.append((r, None))
            raise
        events.append((r, ok))
        return ok

    def spans(layout, c):
        events.append(None)  # a new span: (layout, c)
        yield from real_pushouts(layout, c)

    monkeypatch.setattr(checkers, "is_r_mono", recording)
    monkeypatch.setattr(checkers, "distinct_pushouts", spans)
    u = default_universe(monoid_max=2)
    assert verifier.verify("L5.1", u).status == "violated"
    failed = set()
    ever_failed = set()
    asked_after = set()
    for event in events:
        if event is None:
            failed = set()
            continue
        r, ok = event
        assert r not in failed
        if failed:
            asked_after.add(r.name)
        if not ok:
            failed.add(r)
            ever_failed.add((r.name, ok))
    # both kinds of failure happened, and other radicals went on being
    # asked after them in the same span
    assert ever_failed == {("rG", False), ("t_LrG", None)}
    assert "nabla" in asked_after


def test_l51_builds_each_pushout_once(monkeypatch):
    # one build per distinct pushout of each span (big, mask, c), that is per
    # distinct boundary key, against one per map of the per-map form
    real = checkers.distinct_pushouts
    built = []

    def counting(layout, c):
        for d, uu in real(layout, c):
            built.append((layout.mono.target, layout.mono.image_mask(), c,
                          d.action))
            yield d, uu

    monkeypatch.setattr(checkers, "distinct_pushouts", counting)
    u = default_universe(monoid_max=2)
    rep = verifier.verify("L5.1", u)
    assert rep.status == "verified"
    spans = set()
    maps = 0
    distinct = set()
    for r, big, mask, c in _l51_instances(u):
        if (big, mask, c) in spans:
            continue
        spans.add((big, mask, c))
        incl = subact_act_by_mask(big, mask)[1]
        layout = pushout_layout(incl)
        for f in all_homs(incl.source, c):
            maps += 1
            distinct.add((big, mask, c, pushout_square(layout, f)[0].action))
    assert len(built) == len(set(built)) == 1499
    assert set(built) == distinct
    assert maps == 7773


def test_l51_verdicts_follow_a_radical_registered_later():
    # span verdicts are memoised per registered set of radicals, so a radical
    # added after a run gets verdicts of its own
    u = default_universe(monoid_max=2)
    first = verifier.verify("L5.1", u)
    assert first.status == "verified"
    late = u.register_radical(
        extensional_radical("nabla_table", {a: total(a) for a in u.acts})
    )
    rep = verifier.verify("L5.1", u)
    assert rep.status == "verified"
    assert rep.instances_checked > first.instances_checked
    for parts in _l51_instances(u):
        if parts[0] is late:
            got = _outcome(_derived("L5.1"), u, parts)
            assert got == _outcome(_l51_by_pushouts, *parts)


def _captures(r, emb, chi):
    # capture along one embedding for one radical, on a quotient built here
    # rather than on the universe's factor acts, kept as an oracle
    quo, pi = quotient(emb.target, smallest_extension(chi, emb))
    rq = r.of(quo)
    labels = {rq.index[pi.map[emb.map[x]]] for x in emb.source.elements}
    return len(labels) == 1


def _hull_embedding(universe, base):
    # the hull holds the act on its first points
    hull = injective_hull(base, universe)
    return ActHom(base, hull, tuple(base.elements))


def _on_hull(universe, r, base, chi):
    return _captures(r, _hull_embedding(universe, base), chi)


def _in_some_extension(universe, r, base, chi):
    return any(
        _captures(r, emb, chi)
        for emb in checkers._embeddings(universe, base)
    )


def _l211_by_radical(universe, parts):
    if _on_hull(universe, *parts):
        return True
    return not _in_some_extension(universe, *parts)


def _t73_c2_by_radical(universe, r):
    for base in universe.acts:
        for chi in all_congruences(base, universe.con_bound):
            quo, _ = quotient(base, chi)
            lhs = is_radical_act(r, quo)
            rhs = any(
                _captures(r, emb, chi)
                for emb in checkers._embeddings(universe, base)
            )
            if not rhs:
                try:
                    rhs = _captures(r, _hull_embedding(universe, base), chi)
                except BoundExceeded:
                    pass
            if lhs != rhs:
                return False
    return True


def _partial_rg_universe():
    # hull bound 4 leaves one act without a hull, and an rG table without
    # the acts of three points fails on their quotients, also between two
    # extensions that it decides: every kind of outcome of the capture memos
    # occurs, in every order
    u = default_universe(monoid_max=2, hull_bound=4)
    rg = rg_radical()
    u.register_radical(extensional_radical(
        "rG-no3", {a: rg.of(a) for a in u.acts if a.size != 3}
    ))
    return u


@pytest.mark.parametrize("make", [
    lambda: default_universe(monoid_max=2), _partial_rg_universe,
], ids=["small", "partial-rG"])
def test_capture_verdicts_match_per_radical_captures(make):
    u = make()
    seen = set()
    for kind, parts in checkers._enum_l211(u):
        got = (_outcome(checkers._on_hull, u, *parts),
               _outcome(checkers._in_some_extension, u, *parts))
        assert got == (_outcome(_on_hull, u, *parts),
                       _outcome(_in_some_extension, u, *parts)), parts
        assert _outcome(checkers._holds_l211, u, parts) == _outcome(
            _l211_by_radical, u, parts
        ), parts
        seen.add(got)
    for r in u.radicals:
        assert _outcome(checkers._t73_c2, u, r) == _outcome(
            _t73_c2_by_radical, u, r
        ), r
    hulls, somes = {h for h, _ in seen}, {s for _, s in seen}
    assert {True, False} <= hulls & somes
    if make is _partial_rg_universe:
        assert {BoundExceeded, NotInUniverse} <= hulls
        assert NotInUniverse in somes


def test_capture_verdicts_follow_a_radical_registered_later():
    u = default_universe(monoid_max=2)
    first = verifier.verify("L2.11", u)
    assert verifier.verify("T7.3", u).status == "verified"
    late = u.register_radical(
        extensional_radical("delta_table", {a: diagonal(a) for a in u.acts})
    )
    rep = verifier.verify("L2.11", u)
    assert rep.status == "verified"
    assert rep.instances_checked > first.instances_checked
    for kind, parts in checkers._enum_l211(u):
        if parts[0] is late:
            assert _outcome(checkers._holds_l211, u, parts) == _outcome(
                _l211_by_radical, u, parts
            )
    assert _outcome(checkers._t73_c2, u, late) == _outcome(
        _t73_c2_by_radical, u, late
    )


def _captured_in_some_extension(universe, r, base, cmask):
    # T2.12 and P2.13's existential by closures, before both read the L2.11
    # verdicts on Rees congruences, kept as an oracle
    for emb in checkers._embeddings(universe, base):
        emb_c = 0
        for x in mask_members(cmask):
            emb_c |= 1 << emb.map[x]
        if emb.image_mask() & ~closure_mask(r, emb.target, emb_c) == 0:
            return True
    return False


def _t212_by_closures(universe, parts):
    r, base, cmask = parts
    hull = injective_hull(base, universe)
    base_mask = (1 << base.size) - 1
    if base_mask & ~closure_mask(r, hull, cmask) == 0:
        return True
    return not _captured_in_some_extension(universe, r, base, cmask)


def _detected_by_closures(universe, r, base, cmask):
    dense = is_r_dense(r, base, cmask)
    exists = _captured_in_some_extension(universe, r, base, cmask)
    if not exists:
        try:
            hull = injective_hull(base, universe)
            full = (1 << base.size) - 1
            exists = full & ~closure_mask(r, hull, cmask) == 0
        except BoundExceeded:
            pass
    return dense == exists


def _p213_by_closures(universe, r):
    flag = classify_radical(r, universe).zero_hereditary
    return flag == all(
        _detected_by_closures(universe, r, base, cmask)
        for base in universe.acts
        for cmask in subact_masks(base)
    )


@pytest.mark.parametrize("which", ["small", "partial-rG", "non-ka"])
def test_rees_corollaries_match_closure_oracles(which, request):
    # non-ka lacks zero-heredity and has a subact whose density no extension
    # detects, so P2.13's condition reads False there
    if which == "non-ka":
        u = request.getfixturevalue("non_ka_universe")
    else:
        u = _partial_rg_universe() if which == "partial-rG" else (
            default_universe(monoid_max=2)
        )
    held, detected = set(), set()
    for kind, parts in checkers._enum_pair_subacts(u):
        got = _outcome(checkers._holds_t212, u, parts)
        assert got == _outcome(_t212_by_closures, u, parts), parts
        held.add(got)
        r, base, cmask = parts
        rho = rees_single(base, cmask)
        got = _outcome(checkers._detected, u, r, base, rho)
        assert got == _outcome(_detected_by_closures, u, *parts), parts
        detected.add(got)
    for r in u.radicals:
        assert _outcome(checkers._holds_p213, u, (r,)) == _outcome(
            _p213_by_closures, u, r
        ), r
    assert True in held and True in detected
    if which == "partial-rG":
        assert {BoundExceeded, NotInUniverse} <= held
        assert NotInUniverse in detected
    if which == "non-ka":
        assert False in detected


def _essential_mono_by_quotients(f, bound):
    # is_essential_mono, which C3.5 compared is_essential against before it
    # read T3.4 on the image, kept as an oracle
    if not f.is_injective():
        return False
    image = mask_members(f.image_mask())
    for chi in all_congruences(f.target, bound):
        if chi.is_diagonal():
            continue
        if len({chi.index[a] for a in image}) == len(image):
            return False
    return True


@pytest.mark.parametrize("make", [
    lambda: default_universe(monoid_max=2), _partial_rg_universe,
], ids=["small", "partial-rG"])
def test_c35_matches_essential_mono_oracle(make):
    u = make()
    seen = Counter()
    for kind, (f,) in checkers._enum_c35(u):
        essential = _essential_mono_by_quotients(f, u.con_bound)
        assert checkers._holds_c35(u, (f,)) == (
            essential == is_essential(rees_single(f.target, f.image_mask()))
        ), f
        seen[essential] += 1
    assert seen[True] and seen[False]


def test_d39_compares_against_definition_level_oracles(monkeypatch):
    # a largeness test that only accepts the whole act changes what
    # is_r_essential says, and D3.9 must see it
    def whole_only(act, mask):
        return mask == act.full_mask()

    monkeypatch.setattr(injectivity, "is_large", whole_only)
    monkeypatch.setattr(checkers, "is_large", whole_only)
    assert verifier.verify("D3.9", default_universe(monoid_max=2)).status == (
        "violated"
    )


def test_shared_verdicts_build_each_quotient_and_restriction_once(monkeypatch):
    # L2.11 and T7.3 build each (act, congruence) quotient at most once
    # between them, whatever the number of radicals, and a whole run
    # restricts the maps big -> Q to each subact of big at most once
    built, restricted = Counter(), Counter()
    real_quotient = universe_module.quotient
    real_restrictions = injectivity._restrictions

    def building(act, chi):
        built[act, chi] += 1
        return real_quotient(act, chi)

    def restricting(Q, big, mask):
        restricted[Q, big, mask] += 1
        return real_restrictions(Q, big, mask)

    u = default_universe(monoid_max=2)
    monkeypatch.setattr(universe_module, "quotient", building)
    for cid in ("L2.11", "T7.3"):
        assert verifier.verify(cid, u).status == "verified"
    assert built and max(built.values()) == 1
    # T2.12 and P2.13 ask of Rees congruences what L2.11 has decided
    built.clear()
    for cid in ("T2.12", "P2.13"):
        assert verifier.verify(cid, u).status == "verified"
    assert not built
    monkeypatch.setattr(injectivity, "_restrictions", restricting)
    doc = verifier.verify_all(default_universe(monoid_max=2))
    assert doc["summary"]["violated"] == 0
    assert restricted and max(restricted.values()) == 1


def _c3_by_members(r, f, m):
    # the D2.1 continuity test before the one-pass image loop, kept as an
    # oracle
    image = 0
    for x in mask_members(closure_mask(r, f.source, m)):
        image |= 1 << f.map[x]
    fm = 0
    for x in mask_members(m):
        fm |= 1 << f.map[x]
    return image & ~closure_mask(r, f.target, fm) == 0


def test_d21_continuity_matches_member_loop(mutant_universe):
    seen = set()
    for u in (default_universe(monoid_max=2), mutant_universe):
        for r in u.radicals:
            for monoid in u.monoids:
                acts = u.acts_over(monoid)
                for a in acts:
                    for b in acts:
                        for f in all_homs(a, b):
                            for m in subact_masks(a):
                                got = _derived("D2.1")(u, (r, "c3", f, m))
                                assert got == _c3_by_members(r, f, m)
                                seen.add(got)
    assert seen == {True, False}


def test_d21_continuity_witness(mutant_universe, monkeypatch):
    # D2.1's c3 groups alone, one per (radical, hom set): the report names
    # the first (radical, "c3", map, subact) that fails, in enumeration
    # order, after the instances counted before it, as when each group
    # held one map
    verifier._ensure_registered()
    checker = verifier.THEOREMS["D2.1"]
    monkeypatch.setattr(checker, "enumerate", lambda u: (
        item for item in checkers._enum_d21(u) if item[1][0][1] == "c3"))
    rep = checker.run(mutant_universe)
    assert (rep.status, rep.instances_checked, rep.hypothesis_filtered,
            rep.instances_skipped) == ("violated", 1228, 0, 0)
    r, tag, f, m = verifier.decode_parts(mutant_universe,
                                         rep.witness["instance"])
    assert (r.name, tag, f.source.action, f.target.action, f.map, m) == (
        "mut", "c3", ((0, 1),), ((0, 1, 2),), (0, 2), 1)
    assert checker.recheck(mutant_universe, rep.witness)


def test_d21_decider_reads_every_map_at_every_subact(mutant_universe):
    # a hom set whose first map is continuous, and whose second map is
    # continuous at the first subact and breaks only at a later one
    u = mutant_universe
    mut = u.radical("mut")
    a3, = (a for a in u.acts if a.size == 3)
    homs = HomSet(a3, a3, ((0, 0, 0), (0, 0, 2)))
    masks = subact_masks(a3)
    table = [[_c3_by_members(mut, f, m) for m in masks] for f in homs]
    assert all(table[0]) and table[1][0] and not all(table[1])
    assert checkers._holds_d21_all(u, (mut, "c3", homs), masks) is False
    first = HomSet(a3, a3, homs.maps[:1])
    assert checkers._holds_d21_all(u, (mut, "c3", first), masks) is True


def test_derived_predicate_hands_a_one_map_hom_set(R2):
    # a map part reaches the decider as its one-map hom set: as the tails
    # when it is the last part (AX-H1), inside the head otherwise (D2.1)
    seen = []

    def holds_all(universe, head, tails):
        seen.append((head, tails))
        return True

    checker = verifier.Checker("X9.9", "test", None, holds_all=holds_all)
    f, g = all_homs(R2, R2)
    one = HomSet(R2, R2, (g.map,))
    assert checker.holds(None, ("r", g))
    assert checker.holds(None, ("r", "c3", g, 3))
    assert seen == [(("r",), one), (("r", "c3", one), (3,))]
    assert list(verifier.group_instances(("r", "c3", HomSet(
        R2, R2, (f.map, g.map))), (1, 3))) == [
        ("r", "c3", f, 1), ("r", "c3", f, 3),
        ("r", "c3", g, 1), ("r", "c3", g, 3)]
    assert verifier.group_size(("r", "c3", one), (1, 3)) == 2


def _map_groups(head, tails):
    """A group as the groups it stands for: one per map, as a one-map hom
    set, when its head ends in a hom set, else itself."""
    homs = head[-1]
    if homs.__class__ is not HomSet:
        return [(head, tails)]
    return [(head[:-1] + (verifier._one_map(f),), tails) for f in homs]


def test_holds_all_matches_its_instances(small_two, mutant_universe,
                                        monkeypatch):
    # every registered group decider agrees with its per-instance predicate
    # on every group it is given and on each map of a hom-set head, and the
    # per-instance predicate is the decider on one tail; then again, bound
    # errors included, with L5.1's density flaky, on fresh universes (the
    # verdict rows live on them)
    verifier._ensure_registered()
    grouped = [
        c for c in {**verifier.AXIOMS, **verifier.THEOREMS}.values()
        if c.holds_all is not None
    ]
    assert [c.id for c in grouped] == ["AX-H1", "D2.1", "L5.1"]

    def outcomes(universes):
        seen = set()
        for u in universes:
            for checker in grouped:
                for kind, parts in checker.enumerate(u):
                    if kind != "group":
                        continue
                    head, tails = parts
                    each = [_outcome(checker.holds, u, inst)
                            for inst in verifier.group_instances(*parts)]
                    left = iter(each)
                    for one_head, one_tails in _map_groups(head, tails):
                        mine = [next(left) for _ in one_tails]
                        for t, got in zip(one_tails, mine):
                            tail = verifier._one_map(t)
                            if tail is t:
                                tail = (t,)
                            assert _outcome(checker.holds_all, u, one_head,
                                            tail) == got
                        assert (_outcome(checker.holds_all, u, one_head,
                                         one_tails) is True) == all(
                            o is True for o in mine)
                    whole = _outcome(checker.holds_all, u, head, tails)
                    assert (whole is True) == all(o is True for o in each)
                    seen.update((checker.id, o) for o in each)
        return seen

    seen = outcomes((small_two, mutant_universe))
    assert {("AX-H1", True), ("AX-H1", False), ("D2.1", True),
            ("D2.1", False), ("L5.1", True)} <= seen
    _flaky_density(monkeypatch)
    seen = outcomes((default_universe(monoid_max=2), _mutant_universe()))
    assert {("L5.1", False), ("L5.1", NotInUniverse)} <= seen


def test_l51_decider_answers_the_tails_it_is_given(monkeypatch):
    # one-target and reversed tail tuples: the decider answers for exactly
    # those targets, at the first that fails or hits a bound in their order
    _flaky_density(monkeypatch)
    u = default_universe(monoid_max=2)
    mixed = 0
    for _, (head, targets) in checkers._enum_l51(u):
        outcomes = [_outcome(_l51_by_pushouts, *head, c) for c in targets]
        for c, want in zip(targets, outcomes):
            assert _outcome(checkers._holds_l51_all, u, head, (c,)) == want
        last = next((o for o in reversed(outcomes) if o is not True), True)
        got = _outcome(checkers._holds_l51_all, u, head, targets[::-1])
        assert got == last
        mixed += len(set(outcomes)) > 1
    assert mixed


@pytest.fixture(scope="module")
def expanded_d21():
    """D2.1's report outcome without a group decider, so that Checker.run
    expands every group and decides each instance through the registered
    D2.1's derived predicate; one run per universe."""
    outcomes = {}

    def outcome(u):
        if u not in outcomes:
            oracle = verifier.Checker(
                "D2.1", verifier.THEOREMS["D2.1"].description,
                checkers._enum_d21, _derived("D2.1"),
            )
            outcomes[u] = _report_outcome(oracle.run(u))
        return outcomes[u]

    return outcome


def _never_holds(universe, head, tails):
    return False


def _bound_hit(universe, head, tails):
    raise BoundExceeded("group decider out of bounds")


@pytest.mark.parametrize("universe_name", [
    "small_two", "mutant_universe", "non_ka_universe",
])
@pytest.mark.parametrize("holds_all", [None, _never_holds, _bound_hit])
def test_d21_groups_leave_the_report_unchanged(
        request, monkeypatch, expanded_d21, universe_name, holds_all):
    # the registered decider, one that never settles a group and one that
    # always hits a bound give the report of the expanded instances
    u = request.getfixturevalue(universe_name)
    verifier._ensure_registered()
    expected = expanded_d21(u)
    checker = verifier.THEOREMS["D2.1"]
    if holds_all is not None:
        monkeypatch.setattr(checker, "holds_all", holds_all)
    assert _report_outcome(checker.run(u)) == expected


def test_assumed_flag_filters_a_group_per_tail(mutant_universe):
    # "mut" lacks the hereditary flag: its group counts one filtered
    # instance per tail and is never decided
    decided = []

    def holds_all(universe, head, tails):
        decided.append(head[0].name)
        return True

    def enumerate_groups(universe):
        for r in universe.radicals:
            yield "group", ((r,), (1, 2, 3))

    checker = verifier.Checker(
        "X9.9", "test", enumerate_groups, assumes="hereditary",
        holds_all=holds_all,
    )
    rep = checker.run(mutant_universe)
    others = len(mutant_universe.radicals) - 1
    assert (rep.status, rep.instances_checked, rep.hypothesis_filtered) == (
        "verified", 3 * others, 3,
    )
    assert "mut" not in decided and len(decided) == others


def test_l22_builds_each_factor_once(monkeypatch):
    # L2.2's factor by the extended congruence does not depend on the
    # radical: each (inclusion, chi) is extended once for all radicals
    built = Counter()
    real_extension = checkers.smallest_extension

    def extending(chi, emb):
        built[emb, chi] += 1
        return real_extension(chi, emb)

    monkeypatch.setattr(checkers, "smallest_extension", extending)
    rep = verifier.verify("L2.2", default_universe(monoid_max=2))
    assert rep.status == "verified"
    assert max(built.values()) == 1
    assert rep.instances_checked > len(built)


def test_mutant_leaves_a_violated_report_in_full_run(mutant_universe):
    doc = verifier.verify_all(mutant_universe)
    assert doc["summary"]["violated"] >= 1
    assert verifier.exit_code(doc) == 1
    violated = [
        r for r in doc["axioms"] + doc["results"] if r["status"] == "violated"
    ]
    assert all("witness" in r for r in violated)


def test_reports_deterministic(small):
    doc1 = verifier.verify_all(small)
    doc2 = verifier.verify_all(small)
    assert verifier.strip_volatile(doc1) == verifier.strip_volatile(doc2)
    assert doc1["summary"]["violated"] == 0


def test_text_and_json_serialisation(small):
    doc = verifier.verify_all(small)
    text = verifier.to_text(doc)
    assert "# summary:" in text and "# generated-at:" in text
    parsed = json.loads(verifier.to_json(doc))
    assert parsed["schema"] == verifier.SCHEMA


def test_taxonomy_section(small):
    section = verifier.taxonomy_section(small)
    assert set(section["flags"]) == {"delta", "nabla", "rG", "t_LrG"}
    assert section["expected_edges_broken"] == []


def test_tiny_bounds_statuses():
    tiny = default_universe(monoid_max=1, act_max=1, hull_bound=1)
    doc = verifier.verify_all(tiny)
    statuses = {r["status"] for r in doc["results"]}
    assert statuses <= {"verified", "skipped-out-of-bounds"}
    assert any(
        r["status"] == "skipped-out-of-bounds" for r in doc["results"]
    )


def test_t62_skips_what_only_a_cyclic_act_beyond_the_bound_decides():
    # at act_max 2 < 3 the universe side cannot see S itself, and reads True
    # where the criterion reads False: those instances are skipped, not
    # violated, and every other instance is decided
    u = default_universe(monoid_max=3, act_max=2)
    rep = verifier.verify("T6.2", u)
    assert (rep.status, rep.instances_checked, rep.hypothesis_filtered,
            rep.instances_skipped) == ("verified", 106, 12, 6)
    skipped = set()
    for kind, (r, act) in checkers._enum_t62(u):
        if kind != "inst":
            continue
        try:
            checkers._holds_t62(u, (r, act))
        except BoundExceeded:
            skipped.add((r.name, act.name))
    assert skipped == {
        (r, a) for r in ("nabla", "rG", "t_LrG")
        for a in ("M3.1.a2.0", "M3.4.a2.1")
    }


def test_t62_counts_at_the_default_bounds(U):
    # act_max 4 covers every monoid of order <= 3, so the skip never fires
    rep = verifier.verify("T6.2", U)
    assert (rep.status, rep.instances_checked, rep.hypothesis_filtered,
            rep.instances_skipped) == ("verified", 520, 48, 0)


# every bound with monoid_max <= 3 and act_max <= 4 but the default (3,4)
GRID = [(mm, am) for mm in (1, 2, 3) for am in (1, 2, 3, 4)
        if (mm, am) != (3, 4)]


@pytest.fixture(scope="module")
def grid_report():
    """verify_all over default_universe(monoid_max, act_max), one run per
    bound of the grid, shared by the tests that read it."""
    docs = {}

    def report(bounds):
        if bounds not in docs:
            docs[bounds] = verifier.verify_all(default_universe(*bounds))
        return docs[bounds]

    return report


def _outcomes(doc):
    return {
        rep["theorem_id"]: (rep["status"], rep["instances_checked"],
                            rep["hypothesis_filtered"],
                            rep["instances_skipped"])
        for rep in doc["axioms"] + doc["results"]
    }


@pytest.mark.parametrize("bounds", GRID)
def test_no_checker_is_violated_below_the_default_bounds(grid_report, bounds):
    doc = grid_report(bounds)
    assert [cid for cid, (status, *_) in _outcomes(doc).items()
            if status == "violated"] == []
    assert verifier.exit_code(doc) == 0


@pytest.mark.parametrize("bounds, skipped", [
    # T2.4's c2 reads True until an act with two radical classes fits (4
    # points); T2.5's factor side until a non-semisimple factor does (3)
    ((2, 2), {"T2.4": 2, "T2.5": 2}),
    ((2, 3), {"T2.4": 2, "T2.5": 0}),
    ((3, 2), {"T2.4": 14, "T2.5": 14}),
    ((3, 3), {"T2.4": 14, "T2.5": 0}),
])
def test_sides_that_disagree_only_inexactly_are_skipped(
        grid_report, bounds, skipped):
    outcomes = _outcomes(grid_report(bounds))
    assert {cid: outcomes[cid][3] for cid in skipped} == skipped
    assert all(outcomes[cid][0] == "verified" for cid in skipped)


def test_sides_agree_decides_from_exact_readings():
    agree = checkers._sides_agree
    assert agree((True, False), (True, False), (True, True))
    assert agree((False, True), (False, False))
    # two exact sides disagree
    assert not agree((False, True), (True, False), (True, True))
    # only an inexact side disagrees
    with pytest.raises(BoundExceeded):
        agree((False, True), (True, False), (False, True))


def test_reports_do_not_depend_on_the_labels_of_the_acts(
        grid_report, monkeypatch):
    # every act relabelled along its reversed carrier, along its carrier
    # rotated by one, and along the swap of its first two points, under the
    # same name: the verdicts and counts of a run are properties of the
    # isomorphism classes, not of the tables that stand for them, nor of
    # which equal factor acts are interned first
    enumerate_acts = universe_module.enumerate_acts
    relabellings = {
        "reversal": lambda n: tuple(reversed(range(n))),
        "rotation": lambda n: tuple((a + 1) % n for a in range(n)),
        "transposition": lambda n: (1, 0, *range(2, n)) if n > 1 else (0,),
    }
    # the plain reports are read before any act is relabelled
    plains = {bounds: grid_report(bounds) for bounds in ((3, 3), (2, 4))}
    for bounds, plain in plains.items():
        moved = set()
        for name, perm in relabellings.items():
            def relabelled_acts(monoid, max_size, perm=perm):
                return tuple(
                    FiniteAct(monoid, relabel(a, perm(a.size)).action, a.name)
                    for a in enumerate_acts(monoid, max_size)
                )

            monkeypatch.setattr(universe_module, "enumerate_acts",
                                relabelled_acts)
            relabelled = default_universe(*bounds)
            walked = {a.name: a for m in relabelled.monoids
                      for a in enumerate_acts(m, bounds[1])}
            changed = {a.name for a in relabelled.acts
                       if a != walked[a.name]}
            assert changed, (bounds, name)
            moved |= changed
            doc = verifier.verify_all(relabelled)
            assert _outcomes(doc) == _outcomes(plain), (bounds, name)
            assert doc["taxonomy"] == plain["taxonomy"], (bounds, name)
        # the rotation and the transposition generate every permutation of
        # the carrier, so an act that none moves is fixed by every one
        for a in walked.values():
            if a.name not in moved:
                assert all(relabel(a, p) == a
                           for p in permutations(a.elements))


def test_universe_and_radicals_freed_after_verify():
    # memoised results live on their universe and radicals, so nothing
    # module-level keeps them alive once the caller lets go
    u = default_universe(monoid_max=1, act_max=3, hull_bound=3)
    doc = verifier.verify_all(u)
    assert doc["summary"]["violated"] == 0
    refs = [weakref.ref(u)] + [weakref.ref(r) for r in u.radicals]
    del u, doc
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_t78_filters_every_act_without_rg():
    # T7.8 is a statement about rG: a universe that does not register it
    # reports every act as filtered, and the rest of the run goes on
    u = universe_module.Universe(monoid_max=2, act_max=3)
    universe_module.register_stock(u, ("delta",))
    doc = verifier.verify_all(u)
    assert doc["summary"]["verified"] == len(REQUIRED + REQUIRED_AXIOMS)
    assert _outcomes(doc)["T7.8"] == ("verified", 0, len(u.acts), 0)


def test_radical_table_parsing_feeds_verifier(small, tmp_path):
    # integration: a broken table written to disk, parsed, registered, caught
    acts = {a.size: a for a in small.acts}
    names = {}
    for a in acts.values():
        names[a.name] = a
    lines = ["radical filemut extensional"]
    lines.append(f"act {acts[1].name} partition 0")
    lines.append(f"act {acts[2].name} partition 0 1")
    lines.append(f"act {acts[3].name} partition 0 1 | 2")
    name, table = parse_radical_table("\n".join(lines) + "\n", names)
    u = default_universe(monoid_max=1, act_max=3, hull_bound=3)
    u.register_radical(extensional_radical(name, table))
    rep = verifier.verify("AX-H2", u)
    assert rep.status == "violated"


# ---------------------------------------------------------------------------
# the declared taxonomy gate: the enumerators as they read the flags
# themselves before Checker.run did, kept as the oracle


def _by_hand_ka_monoid(universe):
    for r in universe.radicals:
        ka = classify_radical(r, universe).kurosh_amitsur
        for monoid in universe.monoids:
            yield ("inst" if ka else "filtered"), (r, monoid)


def _by_hand_t25(universe):
    for r in universe.radicals:
        ka = classify_radical(r, universe).kurosh_amitsur
        for monoid in universe.monoids:
            nontrivial = any(
                a.size >= 2 and is_radical_act(r, a)
                for a in universe.acts_over(monoid)
            )
            yield ("inst" if ka and nontrivial else "filtered"), (r, monoid)


def _by_hand_p29(universe):
    for r in universe.radicals:
        pk = classify_radical(r, universe).pre_kurosh
        for act in universe.acts:
            for mask in subact_masks(act):
                closed = closure_mask(r, act, mask) == mask
                yield ("inst" if pk and closed else "filtered"), (r, act, mask)


def _by_hand_c210(universe):
    for r in universe.radicals:
        ka = classify_radical(r, universe).kurosh_amitsur
        for act in universe.acts:
            for mask in subact_masks(act):
                closed = closure_mask(r, act, mask) == mask
                yield ("inst" if ka and closed else "filtered"), (r, act, mask)


def _by_hand_t216(universe):
    for r in universe.radicals:
        ph = classify_radical(r, universe).pre_hereditary
        for act in universe.acts:
            ss = is_semisimple_act(r, act)
            for mask in dense_subact_masks(r, act):
                ok = ph and ss and mask.bit_count() >= 2
                yield ("inst" if ok else "filtered"), (r, act, mask)


def _by_hand_p217(universe):
    for r in universe.radicals:
        zh = classify_radical(r, universe).zero_hereditary
        for monoid in universe.monoids:
            try:
                closed = checkers._class_coproduct_closed(
                    universe, r, monoid, is_semisimple_act
                )
            except BoundExceeded:
                yield "skip", (r, monoid)
                continue
            for act in universe.acts_over(monoid):
                ss = is_semisimple_act(r, act)
                for mask in dense_subact_masks(r, act):
                    ok = zh and closed and ss and mask.bit_count() >= 2
                    yield ("inst" if ok else "filtered"), (r, act, mask)


def _by_hand_t62(universe):
    for r in universe.radicals:
        zh = classify_radical(r, universe).zero_hereditary
        for act in universe.acts:
            ok = zh and bool(zeros(act))
            yield ("inst" if ok else "filtered"), (r, act)


def _by_hand_t65(universe):
    for r in universe.radicals:
        hered = classify_radical(r, universe).hereditary
        for act in universe.acts:
            ok = hered and is_semisimple_act(r, act)
            yield ("inst" if ok else "filtered"), (r, act)


def _by_hand_ka_act(universe):
    for r in universe.radicals:
        ka = classify_radical(r, universe).kurosh_amitsur
        for act in universe.acts:
            yield ("inst" if ka else "filtered"), (r, act)


def _by_hand_t73(universe):
    for r in universe.radicals:
        ka = classify_radical(r, universe).kurosh_amitsur
        yield ("inst" if ka else "filtered"), (r,)


def _by_hand_t75(universe):
    for r in universe.radicals:
        ka = classify_radical(r, universe).kurosh_amitsur
        for act in universe.acts:
            ok = ka and r_injective_bounded(r, act, universe)
            yield ("inst" if ok else "filtered"), (r, act)


def _by_hand_t76(universe):
    for r in universe.radicals:
        ka = classify_radical(r, universe).kurosh_amitsur
        for act in universe.acts:
            radical = ka and is_radical_act(r, act)
            yield ("inst" if radical else "filtered"), (r, "hulls", act)
            inj = ka and r_injective_bounded(r, act, universe)
            yield ("inst" if inj else "filtered"), (r, "classes", act)


# checker id -> (declared flag, flag-reading enumerator)
GATED = {
    "T2.4": ("kurosh_amitsur", _by_hand_ka_monoid),
    "T2.5": ("kurosh_amitsur", _by_hand_t25),
    "C2.6": ("kurosh_amitsur", _by_hand_ka_monoid),
    "P2.9": ("pre_kurosh", _by_hand_p29),
    "C2.10": ("kurosh_amitsur", _by_hand_c210),
    "T2.16": ("pre_hereditary", _by_hand_t216),
    "P2.17": ("zero_hereditary", _by_hand_p217),
    "T6.2": ("zero_hereditary", _by_hand_t62),
    "C6.3": ("zero_hereditary", _by_hand_t62),
    "T6.5": ("hereditary", _by_hand_t65),
    "P7.1": ("kurosh_amitsur", _by_hand_ka_act),
    "C7.2": ("kurosh_amitsur", _by_hand_ka_act),
    "T7.3": ("kurosh_amitsur", _by_hand_t73),
    "L7.4": ("kurosh_amitsur", _by_hand_ka_act),
    "T7.5": ("kurosh_amitsur", _by_hand_t75),
    "T7.6": ("kurosh_amitsur", _by_hand_t76),
}


def test_checkers_declare_the_flags_they_assume():
    verifier._ensure_registered()
    declared = {
        cid: c.assumes
        for cid, c in {**verifier.AXIOMS, **verifier.THEOREMS}.items()
        if c.assumes is not None
    }
    assert declared == {cid: flag for cid, (flag, _) in GATED.items()}


def test_flag_varying_universes(mutant_universe, non_ka_universe):
    def lacking(u):
        flags = {r.name: classify_radical(r, u).flags() for r in u.radicals}
        return {
            name: [k for k, v in f.items() if not v]
            for name, f in flags.items() if not all(f.values())
        }

    assert lacking(mutant_universe) == {"mut": ["hereditary"]}
    assert lacking(non_ka_universe) == {
        "non-ka": list(RadicalTaxonomy.FLAG_NAMES)
    }


def _report_outcome(rep):
    return (
        rep.status,
        rep.instances_checked,
        rep.hypothesis_filtered,
        rep.instances_skipped,
        rep.witness,
    )


@pytest.mark.parametrize("universe_name", ["mutant_universe", "non_ka_universe"])
@pytest.mark.parametrize("cid", sorted(GATED))
def test_gate_matches_flag_reading_enumerators(request, universe_name, cid):
    u = request.getfixturevalue(universe_name)
    verifier._ensure_registered()
    checker = verifier.THEOREMS[cid]
    oracle = verifier.Checker(
        cid, checker.description, GATED[cid][1], checker.holds
    )
    assert _report_outcome(checker.run(u)) == _report_outcome(oracle.run(u))


@pytest.mark.parametrize("procedures", [
    {"holds_fn": lambda universe, parts: True,
     "holds_all": lambda universe, head, tails: True},
    {},
], ids=["both", "neither"])
def test_checker_takes_exactly_one_decision_procedure(procedures):
    verifier._ensure_registered()
    with pytest.raises(ValueError, match="needs one of"):
        verifier.Checker("X9.9", "never built", checkers._enum_radicals,
                         **procedures)
    with pytest.raises(ValueError, match="needs one of"):
        verifier.register("X9.9", "never registered",
                          checkers._enum_radicals, **procedures)
    assert "X9.9" not in verifier.THEOREMS


def test_register_rejects_unknown_flag():
    verifier._ensure_registered()
    with pytest.raises(ValueError, match="unknown flag"):
        verifier.register(
            "X9.9", "never registered", checkers._enum_radicals,
            lambda universe, parts: True, assumes="kurosh",
        )
    assert "X9.9" not in verifier.THEOREMS
